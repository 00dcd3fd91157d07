"""Batch M&A analytics: comparable valuation, deal economics, wave diagnostics.

Each public name, and each submodule, loads its module on first use
(PEP 562), so a caller that needs only ``comps`` never loads numpy.
"""
# report.provenance reads it, and pyproject.toml takes the package version from here.
__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "comps": "AggregateStats CompSet Comparable MethodRow MultipleRange TargetProfile "
                 "ValuationSummary aggregate apply_range build_summary load_comparables load_ranges "
                 "load_target run_valuation summarize_method",
        "deals": "DealRecord DealSeries ParseResult aggregate_deals parse_deals serialize_deals",
        "economics": "CashFlowGrid MarketModelFit MergerAssessment ReturnSeries abnormal_returns "
                     "combined_firm_value fit_market_model load_return_series merger_success",
        "errors": "ConfigInvalidError DealdeskError DegenerateRateError DegenerateRegressorError "
                  "EmptyAfterFilterError HeaderMismatchError IllConditionedError MetricAbsentError "
                  "MismatchedStubsError MissingFiscalYearError NonPositiveMetricError "
                  "NonPositiveSharesError RankDeficientError TooFewRowsError TooShortError "
                  "WindowTooLargeError ZeroVarianceError",
        "ratios": "RATIO_CATALOG REASON_DENOMINATOR REASON_MISSING RatioRule RatioSet compute_ratios",
        "regression": "TakeoverRegressionFit TakeoverRegressionSpec fit_takeover_regression "
                      "load_regression_spec",
        "report": "round_millions round_multiple round_per_share",
        "statements": "ConvertibleSecurity EnterpriseValueBreakdown FinancialSnapshot PeriodStatement "
                      "SubsidiaryPosition adjust_securitization calendarize capitalize_operating_leases "
                      "enterprise_value enterprise_value_breakdown load_period_statements load_snapshots "
                      "ltm market_capitalization net_debt reconcile_subsidiary",
        "waves": "CountSeries PolynomialFit TrendModel WaveDiagnostics analyze autocorrelation "
                 "derive_seeds dominant_period fit_polynomial generate_series load_count_series "
                 "moving_average rms_by_degree save_count_series",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)
_SUBMODULES = {*_EXPORTS.values(), "_files", "_floats", "cli"}


def __getattr__(name: str):
    """Load a public name's module, or a submodule, on first use and keep it.
    ``__import__``, not ``importlib.import_module``, so ``-X importtime`` lists it."""
    if name in _EXPORTS:
        value = getattr(__import__(_EXPORTS[name], globals(), level=1), name)
    elif name in _SUBMODULES:
        value = __import__(name, globals(), level=1)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
