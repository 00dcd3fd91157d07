"""The package namespace: every public name and submodule resolves on first
use, and a bare ``import dealdesk`` loads none of the modules."""
import importlib
import json
import subprocess
import sys

import pytest

import dealdesk

# The public names, by the module that defines them.
PUBLIC = {
    "comps": "AggregateStats CompSet Comparable MethodRow MultipleRange TargetProfile "
             "ValuationSummary aggregate apply_range build_summary load_comparables load_ranges "
             "load_target run_valuation summarize_method",
    "deals": "DealRecord DealSeries ParseResult aggregate_deals parse_deals serialize_deals",
    "economics": "CashFlowGrid MarketModelFit MergerAssessment ReturnSeries abnormal_returns "
                 "combined_firm_value fit_market_model load_return_series merger_success",
    "errors": "ConfigInvalidError DealdeskError DegenerateRateError DegenerateRegressorError "
              "EmptyAfterFilterError HeaderMismatchError IllConditionedError MetricAbsentError "
              "MismatchedStubsError MissingFiscalYearError NonPositiveMetricError NonPositiveSharesError "
              "RankDeficientError TooFewRowsError TooShortError WindowTooLargeError ZeroVarianceError",
    "ratios": "RATIO_CATALOG REASON_DENOMINATOR REASON_MISSING RatioRule RatioSet compute_ratios",
    "regression": "TakeoverRegressionFit TakeoverRegressionSpec fit_takeover_regression load_regression_spec",
    "report": "round_millions round_multiple round_per_share",
    "statements": "ConvertibleSecurity EnterpriseValueBreakdown FinancialSnapshot PeriodStatement "
                  "SubsidiaryPosition adjust_securitization calendarize capitalize_operating_leases "
                  "enterprise_value enterprise_value_breakdown load_period_statements load_snapshots ltm "
                  "market_capitalization net_debt reconcile_subsidiary",
    "waves": "CountSeries PolynomialFit TrendModel WaveDiagnostics analyze autocorrelation derive_seeds "
             "dominant_period fit_polynomial generate_series load_count_series moving_average "
             "rms_by_degree save_count_series",
}
NAMES = sorted(name for names in PUBLIC.values() for name in names.split())
SUBMODULES = sorted({*PUBLIC, "_files"})


def fresh(code: str):
    """Run ``code`` in a new interpreter and return the JSON it prints."""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_all_lists_every_public_name():
    assert len(NAMES) == 90
    assert dealdesk.__all__ == NAMES
    assert set(NAMES) <= set(dir(dealdesk))


@pytest.mark.parametrize("module", PUBLIC)
def test_each_name_is_its_module_s_object(module):
    defining = importlib.import_module(f"dealdesk.{module}")
    for name in PUBLIC[module].split():
        assert getattr(dealdesk, name) is getattr(defining, name), name


def test_bare_import_loads_no_module_and_resolves_every_submodule():
    loaded, resolved = fresh(
        "import json, sys, dealdesk\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('dealdesk.'))\n"
        f"resolved = [getattr(dealdesk, m).__name__ for m in {SUBMODULES!r}]\n"
        "print(json.dumps([loaded, resolved]))"
    )
    assert loaded == []
    assert resolved == [f"dealdesk.{m}" for m in SUBMODULES]


def test_first_use_loads_only_the_defining_module():
    loaded = fresh(
        "import json, sys, dealdesk\n"
        "dealdesk.round_millions\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith(('dealdesk.', 'numpy')))))"
    )
    assert loaded == ["dealdesk._files", "dealdesk.errors", "dealdesk.report"]


@pytest.mark.parametrize("name", ["no_such_name", "no_such_module", "", "waves.analyze"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match="has no attribute"):
        getattr(dealdesk, name)
    assert not hasattr(dealdesk, name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from dealdesk import *", namespace)
    assert set(NAMES) <= set(namespace)
    assert namespace["net_debt"] is dealdesk.statements.net_debt
