"""Batch M&A analytics: comparable valuation, deal economics, wave diagnostics."""

# Set before the submodule imports: report.provenance reads it, and
# pyproject.toml takes the package version from here.
__version__ = "0.1.0"

from .comps import (
    AggregateStats,
    CompSet,
    Comparable,
    MethodRow,
    MultipleRange,
    StatPolicy,
    TargetProfile,
    ValuationSummary,
    aggregate,
    apply_range,
    build_summary,
    load_comparables,
    load_ranges,
    load_target,
    run_valuation,
    summarize_method,
)
from .deals import (
    DealRecord,
    DealSeries,
    ParseResult,
    aggregate_deals,
    parse_deals,
    serialize_deals,
)
from .economics import (
    CashFlowGrid,
    MarketModelFit,
    MergerAssessment,
    ReturnSeries,
    abnormal_returns,
    combined_firm_value,
    fit_market_model,
    load_return_series,
    merger_success,
)
from .errors import (
    ConfigInvalidError,
    DealdeskError,
    DegenerateRateError,
    DegenerateRegressorError,
    EmptyAfterFilterError,
    HeaderMismatchError,
    IllConditionedError,
    MetricAbsentError,
    MismatchedStubsError,
    MissingFiscalYearError,
    NonPositiveMetricError,
    NonPositiveSharesError,
    RankDeficientError,
    TooFewRowsError,
    TooShortError,
    WindowTooLargeError,
    ZeroVarianceError,
)
from .ratios import (
    RATIO_CATALOG,
    REASON_DENOMINATOR,
    REASON_MISSING,
    RatioRule,
    RatioSet,
    compute_ratios,
)
from .regression import (
    TakeoverRegressionFit,
    TakeoverRegressionSpec,
    fit_takeover_regression,
    load_regression_spec,
)
from .report import round_millions, round_multiple, round_per_share
from .statements import (
    ConvertibleSecurity,
    EnterpriseValueBreakdown,
    FinancialSnapshot,
    PeriodStatement,
    SubsidiaryPosition,
    adjust_securitization,
    calendarize,
    capitalize_operating_leases,
    enterprise_value,
    enterprise_value_breakdown,
    load_period_statements,
    load_snapshots,
    ltm,
    market_capitalization,
    net_debt,
    reconcile_subsidiary,
)
from .waves import (
    CountSeries,
    PolynomialFit,
    TrendModel,
    WaveDiagnostics,
    analyze,
    autocorrelation,
    derive_seeds,
    dominant_period,
    fit_polynomial,
    generate_series,
    load_count_series,
    moving_average,
    rms_by_degree,
    save_count_series,
)
