"""Deal economics: success condition, DCF grid, market model."""
import io
from datetime import date, timedelta

import numpy as np
import pytest

from dealdesk import (
    CashFlowGrid,
    DegenerateRateError,
    DegenerateRegressorError,
    MergerAssessment,
    ReturnSeries,
    TooShortError,
    abnormal_returns,
    combined_firm_value,
    fit_market_model,
    load_return_series,
    merger_success,
)

# frozen oracle: 100/1.05 + 100/1.05^2 + 50/1.05 + 50/1.05^2
DCF_2x2_AT_5PCT = 278.91156462585036


def test_success_condition_sign():
    ok, surplus = merger_success(MergerAssessment(v_combined=110, v_acquirer=60, v_target=70, price_paid=25))
    assert ok and surplus == pytest.approx(5.0)
    bad, deficit = merger_success(MergerAssessment(v_combined=100, v_acquirer=60, v_target=70, price_paid=25))
    assert not bad and deficit == pytest.approx(-5.0)


def test_success_boundary_counts_as_success():
    ok, surplus = merger_success(MergerAssessment(v_combined=105, v_acquirer=60, v_target=70, price_paid=25))
    assert ok and surplus == 0.0


def test_surplus_linear_in_price_paid():
    rng = np.random.default_rng(31)
    for _ in range(50):
        va, vt, vc = rng.uniform(0, 100, 3)
        p1, p2 = sorted(rng.uniform(0, 100, 2))
        s1 = merger_success(MergerAssessment(vc, va, vt, p1))[1]
        s2 = merger_success(MergerAssessment(vc, va, vt, p2))[1]
        np.testing.assert_allclose(s2 - s1, p2 - p1, atol=1e-12)


def test_assessment_rejects_nonfinite_and_negative_firms():
    with pytest.raises(ValueError):
        MergerAssessment(float("nan"), 1, 1, 1)
    with pytest.raises(ValueError):
        MergerAssessment(1, -1, 1, 1)
    MergerAssessment(1, 1, 1, -5)  # negative price (seller pays) is allowed


def test_dcf_two_by_two_grid_oracle():
    g = CashFlowGrid(flows=((100.0, 100.0), (50.0, 50.0)), discount_rate=0.05)
    np.testing.assert_allclose(combined_firm_value(g), DCF_2x2_AT_5PCT, rtol=1e-9)


def test_dcf_zero_rate_is_plain_sum():
    g = CashFlowGrid(flows=((100.0, 100.0), (50.0, 50.0)), discount_rate=0.0)
    assert combined_firm_value(g) == pytest.approx(300.0, abs=1e-12)


def test_dcf_first_flow_is_discounted_once():
    g = CashFlowGrid(flows=((110.0,),), discount_rate=0.10)
    np.testing.assert_allclose(combined_firm_value(g), 100.0, rtol=1e-12)


def test_dcf_negative_flows_allowed():
    g = CashFlowGrid(flows=((-100.0, 220.0),), discount_rate=0.10)
    np.testing.assert_allclose(combined_firm_value(g), -100 / 1.1 + 220 / 1.21, rtol=1e-12)


def test_dcf_strictly_decreasing_in_rate_for_positive_flows():
    rng = np.random.default_rng(41)
    for _ in range(30):
        flows = tuple(tuple(float(x) for x in rng.uniform(1, 100, 8)) for _ in range(3))
        rates = np.sort(rng.uniform(-0.5, 0.5, 5))
        values = [combined_firm_value(CashFlowGrid(flows=flows, discount_rate=float(r))) for r in rates]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_dcf_additive_across_processes():
    rng = np.random.default_rng(43)
    for _ in range(30):
        a = tuple(float(x) for x in rng.normal(0, 50, 6))
        b = tuple(float(x) for x in rng.normal(0, 50, 6))
        r = float(rng.uniform(-0.4, 0.4))
        joint = combined_firm_value(CashFlowGrid(flows=(a, b), discount_rate=r))
        split = combined_firm_value(CashFlowGrid(flows=(a,), discount_rate=r)) + combined_firm_value(
            CashFlowGrid(flows=(b,), discount_rate=r)
        )
        np.testing.assert_allclose(joint, split, rtol=1e-10, atol=1e-9)


def test_dcf_degenerate_rate_rejected_at_construction():
    with pytest.raises(DegenerateRateError):
        CashFlowGrid(flows=((1.0,),), discount_rate=-1.0)
    with pytest.raises(DegenerateRateError):
        CashFlowGrid(flows=((1.0,),), discount_rate=-1.5)
    CashFlowGrid(flows=((1.0,),), discount_rate=-0.999)  # just above the wall


def test_dcf_shape_validation():
    with pytest.raises(ValueError):
        CashFlowGrid(flows=(), discount_rate=0.05)
    with pytest.raises(ValueError):
        CashFlowGrid(flows=((1.0, 2.0), (1.0,)), discount_rate=0.05)


@pytest.mark.parametrize("flows, rate", [
    (((float("nan"), 1.0),), 0.05),
    (((1.0,), (float("-inf"),)), 0.05),
    (((1.0,),), float("nan")),
    (((1.0,),), float("inf")),
])
def test_dcf_non_finite_grid_rejected_at_construction(flows, rate):
    with pytest.raises(ValueError, match="must be finite"):
        CashFlowGrid(flows=flows, discount_rate=rate)


def test_dcf_overflow_is_one_value_error():
    g = CashFlowGrid(flows=((1e308, 1e308),), discount_rate=-0.5)
    with pytest.raises(ValueError, match="combined_firm_value overflows the float range"):
        combined_firm_value(g)


# --- market model -------------------------------------------------------------


def series(firm, market, start=date(2005, 1, 3)):
    days = [start + timedelta(days=i) for i in range(len(firm))]
    return ReturnSeries(dates=tuple(days), firm_returns=tuple(firm), market_returns=tuple(market))


def test_market_model_recovers_exact_affine_relation():
    market = [0.01, -0.02, 0.015, 0.003, -0.007]
    firm = [0.002 + 1.4 * m for m in market]
    fit = fit_market_model(series(firm, market))
    assert fit.alpha == pytest.approx(0.002, abs=1e-12)
    assert fit.beta == pytest.approx(1.4, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)


def test_market_model_noisy_recovery_and_zero_mean_residuals():
    rng = np.random.default_rng(53)
    market = rng.normal(0.0, 0.02, 250)
    firm = 0.01 + 1.5 * market + rng.normal(0.0, 1e-6, 250)
    fit = fit_market_model(series(firm.tolist(), market.tolist()))
    assert abs(fit.alpha - 0.01) < 1e-4
    assert abs(fit.beta - 1.5) < 1e-4
    assert abs(sum(fit.residuals)) < 1e-9 * max(1.0, abs(sum(firm)))
    assert fit.r_squared > 0.999999


def test_market_model_matches_numpy_least_squares():
    for seed in range(10):
        rng = np.random.default_rng(400 + seed)
        n = int(rng.integers(3, 300))
        market = rng.normal(0.0, 0.02, n)
        firm = 0.002 + 1.3 * market + rng.normal(0.0, 0.01, n)
        fit = fit_market_model(series(firm.tolist(), market.tolist()))
        design = np.column_stack([np.ones(n), market])
        (alpha, beta), _, _, _ = np.linalg.lstsq(design, firm, rcond=None)
        np.testing.assert_allclose([fit.alpha, fit.beta], [alpha, beta], rtol=1e-12, atol=1e-17)
        np.testing.assert_allclose(fit.residuals, firm - design @ [alpha, beta], rtol=1e-9, atol=1e-16)
        assert all(type(v) is float for v in fit.residuals)


def test_market_model_refuses_a_non_finite_return():
    market = [0.01, -0.02, float("nan"), 0.003, -0.007]
    with pytest.raises(ValueError, match="not finite"):
        fit_market_model(series([0.0, 0.01, 0.02, 0.0, 0.01], market))


def test_market_model_r_squared_bounds_property():
    rng = np.random.default_rng(59)
    for _ in range(50):
        n = int(rng.integers(3, 40))
        market = rng.normal(0, 0.02, n)
        market[0] += 1e-6  # keep some variation
        firm = rng.normal(0, 0.05, n)
        fit = fit_market_model(series(firm.tolist(), market.tolist()))
        assert 0.0 <= fit.r_squared <= 1.0
        assert abs(sum(fit.residuals)) < 1e-9


def test_market_model_constant_firm_series():
    fit = fit_market_model(series([0.01, 0.01, 0.01], [0.02, -0.01, 0.03]))
    assert fit.beta == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == 1.0


def test_market_model_too_short():
    with pytest.raises(TooShortError):
        fit_market_model(series([0.01, 0.02], [0.01, 0.02]))


def test_market_model_constant_market_rejected():
    with pytest.raises(DegenerateRegressorError):
        fit_market_model(series([0.01, 0.02, 0.03], [0.01, 0.01, 0.01]))


def test_market_model_is_frequency_agnostic():
    # same numbers, different spacing: identical fit
    firm = [0.01, -0.005, 0.02, 0.003, -0.01]
    market = [0.008, -0.004, 0.018, 0.001, -0.009]
    daily = series(firm, market)
    monthly = ReturnSeries(
        dates=tuple(date(2005, m, 1) for m in range(1, 6)),
        firm_returns=tuple(firm),
        market_returns=tuple(market),
    )
    f1, f2 = fit_market_model(daily), fit_market_model(monthly)
    assert f1.alpha == f2.alpha and f1.beta == f2.beta


def test_abnormal_returns_reproduce_residuals_in_sample():
    rng = np.random.default_rng(61)
    market = rng.normal(0, 0.02, 60)
    firm = 0.004 + 1.2 * market + rng.normal(0, 0.01, 60)
    s = series(firm.tolist(), market.tolist())
    fit = fit_market_model(s)
    ars = abnormal_returns(s, fit)
    np.testing.assert_allclose(ars, fit.residuals, atol=1e-14)


def test_abnormal_returns_detect_event_shift():
    market = [0.0, 0.01, -0.01, 0.005, 0.0, 0.002]
    firm = [0.001 + 1.0 * m for m in market]
    s = series(firm, market)
    fit = fit_market_model(s.window(0, 4))
    shifted = ReturnSeries(
        dates=s.dates, firm_returns=tuple(f + (0.05 if i == 5 else 0.0) for i, f in enumerate(firm)),
        market_returns=s.market_returns,
    )
    ars = abnormal_returns(shifted.window(4, 6), fit)
    assert ars[0] == pytest.approx(0.0, abs=1e-12)
    assert ars[1] == pytest.approx(0.05, abs=1e-12)


def test_return_series_validation_and_window():
    with pytest.raises(ValueError):
        series([0.01], [0.01, 0.02])
    with pytest.raises(ValueError):
        ReturnSeries(dates=(date(2005, 1, 2), date(2005, 1, 1)), firm_returns=(0.0, 0.0),
                     market_returns=(0.0, 0.0))
    s = series([0.1, 0.2, 0.3, 0.4], [0.0, 0.1, 0.2, 0.3])
    w = s.window(1, 3)
    assert len(w) == 2 and w.firm_returns == (0.2, 0.3)


def test_load_return_series_csv():
    csv_text = "date,firm_return,market_return\n2005-01-03,0.01,0.008\n2005-01-04,-0.005,-0.004\n"
    s = load_return_series(io.StringIO(csv_text))
    assert len(s) == 2
    assert s.firm_returns == (0.01, -0.005)
    assert s.dates[0] == date(2005, 1, 3)
