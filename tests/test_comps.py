import io

import numpy as np
import pytest

from dealdesk import (
    CompSet,
    Comparable,
    ConfigInvalidError,
    HeaderMismatchError,
    MetricAbsentError,
    MultipleRange,
    NonPositiveMetricError,
    RatioSet,
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


def comp(name, **metrics):
    ratio_kwargs = {k: v for k, v in metrics.items() if k in RatioSet.__dataclass_fields__}
    industry = {k: (v, "") for k, v in metrics.items() if k not in ratio_kwargs}
    return Comparable(name=name, kind="transaction", multiples=RatioSet(**ratio_kwargs),
                      industry_metrics=industry)


# transaction set: EV/EBITDA multiples and EV per unit of capacity
DEAL_SET = CompSet(members=(
    comp("deal-a", ev_to_ebitda=12.4, ev_per_unit=1124.0),
    comp("deal-b", ev_to_ebitda=11.4, ev_per_unit=1350.0),
    comp("deal-c", ev_to_ebitda=9.7, ev_per_unit=1008.0),
    comp("deal-d", ev_to_ebitda=13.3, ev_per_unit=1573.0),
    comp("deal-e", ev_to_ebitda=14.5, ev_per_unit=1800.0),
))


def test_aggregate_multiples_match_published_statistics():
    stats = aggregate(DEAL_SET, "ev_to_ebitda")
    assert stats.mean == pytest.approx(12.26)
    assert stats.median == pytest.approx(12.4)
    # drop one max (14.5) and one min (9.7): (12.4 + 11.4 + 13.3) / 3
    assert stats.mean_excl_hi_lo == pytest.approx(37.1 / 3)


def test_aggregate_per_unit_match_published_statistics():
    stats = aggregate(DEAL_SET, "ev_per_unit")
    assert stats.mean == pytest.approx(1371.0)
    assert stats.median == pytest.approx(1350.0)
    assert stats.mean_excl_hi_lo == pytest.approx(1349.0)


def test_aggregate_skips_members_without_the_metric():
    cs = CompSet(members=(comp("a", ev_to_ebitda=10.0), comp("b", ev_per_unit=1000.0)))
    stats = aggregate(cs, "ev_to_ebitda")
    assert stats.mean == 10.0
    assert stats.median == 10.0
    assert stats.mean_excl_hi_lo is None  # fewer than three values


def test_aggregate_trimmed_drops_one_occurrence_of_each_extreme():
    cs = CompSet(members=tuple(comp(f"m{i}", pe=v) for i, v in enumerate([5.0, 5.0, 9.0, 9.0])))
    stats = aggregate(cs, "pe")
    assert stats.mean_excl_hi_lo == pytest.approx(7.0)  # one 5 and one 9 remain


def test_aggregate_unknown_metric_raises():
    with pytest.raises(MetricAbsentError):
        aggregate(DEAL_SET, "ev_to_ebit")


def test_aggregate_permutation_invariance():
    rng = np.random.default_rng(3)
    values = [12.4, 11.4, 9.7, 13.3, 14.5]
    base = aggregate(DEAL_SET, "ev_to_ebitda")
    for _ in range(20):
        order = rng.permutation(len(values))
        cs = CompSet(members=tuple(comp(f"m{i}", ev_to_ebitda=values[j]) for i, j in enumerate(order)))
        stats = aggregate(cs, "ev_to_ebitda")
        assert stats.mean == pytest.approx(base.mean)
        assert stats.median == pytest.approx(base.median)
        assert stats.mean_excl_hi_lo == pytest.approx(base.mean_excl_hi_lo)


def test_comparable_requires_some_metric():
    with pytest.raises(ValueError):
        Comparable(name="empty", kind="trading")


def test_comparable_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="comparable 'A': kind must be trading or transaction, got 'Transaction'"):
        Comparable(name="A", kind="Transaction", multiples=RatioSet(ev_to_ebitda=9.0))


def test_compset_requires_members():
    with pytest.raises(ValueError):
        CompSet(members=())


def test_apply_range_is_pure_multiplication():
    band = MultipleRange(metric="ltm_ebitda", low=9.5, high=10.5)
    assert apply_range(88.0, band) == (836.0, 924.0)
    assert apply_range(0.0, band) == (0.0, 0.0)


def test_apply_range_scaling_property():
    rng = np.random.default_rng(17)
    for _ in range(100):
        lo = float(rng.uniform(0.1, 10))
        hi = lo + float(rng.uniform(0, 10))
        v = float(rng.uniform(0, 1000))
        k = float(rng.uniform(0.1, 5))
        band = MultipleRange(metric="m", low=lo, high=hi)
        a = apply_range(v, band)
        b = apply_range(k * v, band)
        np.testing.assert_allclose(b, (k * a[0], k * a[1]), rtol=1e-12)
        assert a[0] <= a[1]


def test_multiple_range_validation():
    with pytest.raises(ValueError):
        MultipleRange(metric="m", low=0.0, high=1.0)
    with pytest.raises(ValueError):
        MultipleRange(metric="m", low=2.0, high=1.0)


def test_summarize_method_componentwise_mean():
    assert summarize_method([(836.0, 924.0), (714.0, 816.0)]) == (775.0, 870.0)
    with pytest.raises(ValueError):
        summarize_method([])


def test_build_summary_walks_the_chain():
    s = build_summary((775.0, 870.0), (918.5, 970.0), net_debt=250.0, shares=55.7)
    assert s.summary_enterprise_range == (846.75, 920.0)
    assert s.equity_range == (596.75, 670.0)
    assert s.per_share_range[0] == pytest.approx(596.75 / 55.7)
    assert s.per_share_range[1] == pytest.approx(670.0 / 55.7)


def test_build_summary_weights_are_relative():
    equal = build_summary((100.0, 200.0), (300.0, 400.0), 0.0, 10.0, weights=(1.0, 1.0))
    scaled = build_summary((100.0, 200.0), (300.0, 400.0), 0.0, 10.0, weights=(2.0, 2.0))
    assert equal.summary_enterprise_range == scaled.summary_enterprise_range == (200.0, 300.0)
    tilted = build_summary((100.0, 200.0), (300.0, 400.0), 0.0, 10.0, weights=(3.0, 1.0))
    assert tilted.summary_enterprise_range == (150.0, 250.0)


def test_build_summary_rejects_bad_weights_and_shares():
    with pytest.raises(ValueError):
        build_summary((1.0, 2.0), (1.0, 2.0), 0.0, 10.0, weights=(0.0, 0.0))
    with pytest.raises(ValueError):
        build_summary((1.0, 2.0), (1.0, 2.0), 0.0, 10.0, weights=(-1.0, 2.0))
    from dealdesk import NonPositiveSharesError
    with pytest.raises(NonPositiveSharesError):
        build_summary((1.0, 2.0), (1.0, 2.0), 0.0, 0.0)


def test_valuation_summary_enforces_internal_consistency():
    with pytest.raises(ValueError):
        ValuationSummary(
            method_ranges={}, summary_enterprise_range=(100.0, 200.0), net_debt=50.0,
            equity_range=(60.0, 150.0),  # should be (50, 150)
            shares_outstanding=10.0, per_share_range=(6.0, 15.0),
        )
    with pytest.raises(ValueError):
        ValuationSummary(
            method_ranges={}, summary_enterprise_range=(200.0, 100.0), net_debt=0.0,
            equity_range=(200.0, 100.0), shares_outstanding=10.0, per_share_range=(20.0, 10.0),
        )


TARGET = TargetProfile(
    name="sample", metrics={"ltm_ebitda": 88.0, "fy_ebitda": 102.0, "capacity": 0.6},
    net_debt=250.0, shares_outstanding=55.7,
)

RANGES = {
    "trading": [MultipleRange("ltm_ebitda", 9.5, 10.5), MultipleRange("fy_ebitda", 7.0, 8.0)],
    "transaction": [MultipleRange("ltm_ebitda", 12.0, 12.5), MultipleRange("capacity", 1300.0, 1400.0)],
}


def test_run_valuation_full_chain():
    s = run_valuation(TARGET, RANGES)
    assert s.method_ranges["trading"] == (775.0, 870.0)
    assert s.method_ranges["transaction"] == (918.0, 970.0)
    assert s.summary_enterprise_range == (846.5, 920.0)
    assert s.equity_range == (596.5, 670.0)
    np.testing.assert_allclose(s.per_share_range, (10.709156, 12.028725), atol=5e-7)
    assert len(s.rows) == 4
    trading_rows = [r for r in s.rows if r.method == "trading"]
    assert [(r.low, r.high) for r in trading_rows] == [(836.0, 924.0), (714.0, 816.0)]


def test_run_valuation_equity_basis_adds_net_debt():
    target = TargetProfile(name="t", metrics={"eps": 2.0}, net_debt=100.0, shares_outstanding=10.0)
    ranges = {
        "trading": [MultipleRange("eps", 10.0, 12.0, basis="equity")],
        "transaction": [MultipleRange("eps", 10.0, 12.0, basis="equity")],
    }
    s = run_valuation(target, ranges)
    # 20..24 equity, +100 debt = 120..124 enterprise on both methods
    assert s.summary_enterprise_range == (120.0, 124.0)
    assert s.equity_range == (20.0, 24.0)
    assert s.per_share_range == (2.0, 2.4)


def test_run_valuation_missing_method_raises_config_error():
    with pytest.raises(ConfigInvalidError):
        run_valuation(TARGET, {"trading": RANGES["trading"]})


def test_run_valuation_missing_metric_raises():
    ranges = {"trading": [MultipleRange("revenue", 1.0, 2.0)], "transaction": RANGES["transaction"]}
    with pytest.raises(MetricAbsentError):
        run_valuation(TARGET, ranges)


def test_run_valuation_nonpositive_metric_raises():
    target = TargetProfile(name="t", metrics={"ltm_ebitda": -5.0, "fy_ebitda": 102.0, "capacity": 0.6},
                           net_debt=250.0, shares_outstanding=55.7)
    with pytest.raises(NonPositiveMetricError):
        run_valuation(target, RANGES)
    zeroed = TargetProfile(name="t", metrics={"ltm_ebitda": 0.0, "fy_ebitda": 102.0, "capacity": 0.6},
                           net_debt=250.0, shares_outstanding=55.7)
    with pytest.raises(NonPositiveMetricError):
        run_valuation(zeroed, RANGES)


def test_run_valuation_monotone_in_target_metric():
    rng = np.random.default_rng(23)
    for _ in range(50):
        v1 = float(rng.uniform(10, 100))
        v2 = v1 + float(rng.uniform(0.1, 50))
        out = []
        for v in (v1, v2):
            t = TargetProfile(name="t", metrics={"m": v}, net_debt=0.0, shares_outstanding=1.0)
            r = {"trading": [MultipleRange("m", 2.0, 3.0)], "transaction": [MultipleRange("m", 4.0, 5.0)]}
            out.append(run_valuation(t, r).summary_enterprise_range)
        assert out[1][0] > out[0][0] and out[1][1] > out[0][1]


# --- loaders -----------------------------------------------------------------

def test_load_comparables_splits_ratio_and_industry_columns():
    csv_text = (
        "name,kind,date,ev_to_ebitda,ev_paid,capacity (units),ev_per_unit (USD/unit)\n"
        "deal-a,transaction,2005-06-30,12.4,995,885,1124\n"
    )
    comps = load_comparables(io.StringIO(csv_text))
    assert len(comps) == 1
    c = comps[0]
    assert c.multiples.ev_to_ebitda == 12.4
    assert c.industry_metrics["ev_paid"] == (995.0, "")
    assert c.industry_metrics["capacity"] == (885.0, "units")
    assert c.industry_metrics["ev_per_unit"] == (1124.0, "USD/unit")
    assert c.date.year == 2005


def test_load_comparables_names_the_row_of_an_unknown_kind():
    with pytest.raises(ValueError, match="^row 3: comparable 'B': kind must be"):
        load_comparables(io.StringIO("name,kind,ev_to_ebitda\nA,trading,9\nB,Transaction,8\n"))


def test_load_comparables_fixture_round_numbers():
    import pathlib

    path = pathlib.Path(__file__).parent / "data" / "comps.csv"
    comps = load_comparables(path)
    trading = [c for c in comps if c.kind == "trading"]
    txn = [c for c in comps if c.kind == "transaction"]
    assert len(trading) == 6 and len(txn) == 5
    stats = aggregate(CompSet(members=tuple(txn)), "ev_per_unit")
    assert stats.median == pytest.approx(1350.0)


def test_load_target_requires_single_row_and_bridge_columns():
    good = "name,net_debt,shares_outstanding,ltm_ebitda\nt,250,55.7,88\n"
    t = load_target(io.StringIO(good))
    assert t.net_debt == 250.0 and t.metrics == {"ltm_ebitda": 88.0}
    with pytest.raises(ConfigInvalidError):
        load_target(io.StringIO("name,net_debt,shares_outstanding\n"))
    with pytest.raises(ConfigInvalidError):
        load_target(io.StringIO("name,net_debt,shares_outstanding\na,1,2\nb,1,2\n"))
    with pytest.raises(HeaderMismatchError, match="^target CSV lacks required columns: shares_outstanding$"):
        load_target(io.StringIO("name,net_debt,ltm_ebitda\nt,250,88\n"))
    with pytest.raises(ValueError, match="^row 2: net_debt: could not convert string to float: ''$"):
        load_target(io.StringIO("name,net_debt,shares_outstanding\nt,,55.7\n"))


def test_load_target_names_the_row_of_a_bad_cell():
    header = "name,net_debt,shares_outstanding,ltm_ebitda\n"
    for row, message in (("t,250,55.7,x", "ltm_ebitda: could not convert string to float: 'x'"),
                         ("t,2 50,55.7,88", "net_debt: could not convert string to float: '2 50'")):
        with pytest.raises(ValueError) as exc_info:
            load_target(io.StringIO(header + row + "\n"))
        assert str(exc_info.value) == f"row 2: {message}"


def test_load_target_counts_rows_before_parsing_cells():
    header = "name,net_debt,shares_outstanding,ltm_ebitda\n"
    for rows in ("t,250,55.7,88\nu,250,55.7,x\n", "t,250,55.7,x\nu,250,55.7,88\n", "t,x,,\nu,,,\nv,,,\n"):
        with pytest.raises(ConfigInvalidError) as exc_info:
            load_target(io.StringIO(header + rows))
        count = rows.count("\n")
        assert str(exc_info.value) == f"target file must contain exactly one row, found {count}"
    with pytest.raises(ValueError, match="^row 2: ltm_ebitda: could not convert string to float: 'x'$"):
        load_target(io.StringIO(header + "t,250,55.7,x\n"))


def test_load_ranges_parses_bands_and_basis():
    ini = "[trading]\nltm_ebitda = 9.5..10.5\neps = 10..12 equity\n[transaction]\ncapacity = 1300..1400\n"
    ranges = load_ranges(io.StringIO(ini))
    assert ranges["trading"][0] == MultipleRange("ltm_ebitda", 9.5, 10.5)
    assert ranges["trading"][1].basis == "equity"
    assert ranges["transaction"][0].high == 1400.0


def test_load_ranges_rejects_unknown_section_and_bad_bands():
    with pytest.raises(ConfigInvalidError):
        load_ranges(io.StringIO("[dcf]\nx = 1..2\n"))
    with pytest.raises(ConfigInvalidError):
        load_ranges(io.StringIO("[trading]\nx = 1-2\n"))
    with pytest.raises(ConfigInvalidError):
        load_ranges(io.StringIO("[trading]\nx = 5..2\n"))
    with pytest.raises(ConfigInvalidError):
        load_ranges(io.StringIO(""))
    with pytest.raises(ConfigInvalidError, match="no section headers"):
        load_ranges(io.StringIO("x = 1..2\n"))
    with pytest.raises(ConfigInvalidError, match="already exists"):
        load_ranges(io.StringIO("[trading]\nx = 1..2\nx = 3..4\n"))
    with pytest.raises(ConfigInvalidError, match="interpolation"):
        load_ranges(io.StringIO("[trading]\nx = 1..2 %(y)s\n"))
