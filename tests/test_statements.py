import io
from datetime import date

import numpy as np
import pytest

from dealdesk import (
    ConvertibleSecurity,
    FinancialSnapshot,
    MismatchedStubsError,
    MissingFiscalYearError,
    NonPositiveSharesError,
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

AS_OF = date(2006, 7, 10)


def snap(**kwargs):
    return FinancialSnapshot(as_of_date=AS_OF, **kwargs)


# --- value identities -------------------------------------------------------

def test_net_debt_direct_sum():
    s = snap(short_term_debt=100, long_term_debt=200, capitalized_leases=0, cash_and_equivalents=50)
    assert net_debt(s) == 250


def test_net_debt_all_zero():
    s = snap(short_term_debt=0, long_term_debt=0, capitalized_leases=0, cash_and_equivalents=0)
    assert net_debt(s) == 0


def test_net_debt_missing_fields_default_to_zero_with_note():
    s = snap(long_term_debt=300)
    assert net_debt(s) == 300
    breakdown = enterprise_value_breakdown(snap(long_term_debt=300, share_price=1, basic_shares=1))
    assert any("short_term_debt missing" in n for n in breakdown.notes)


def test_net_debt_can_be_negative():
    s = snap(cash_and_equivalents=500, long_term_debt=100)
    assert net_debt(s) == -400


def test_market_cap_fully_diluted():
    s = snap(share_price=10, basic_shares=100, in_the_money_options=5)
    assert market_capitalization(s, "fully-diluted") == 1050
    assert market_capitalization(s, "basic") == 1000


def test_market_cap_matches_reported_mktcap_via_backed_out_shares():
    # mkt cap 2679 at price 14.05 implies 190.68 diluted shares; forward recompute
    shares = 2679 / 14.05
    s = snap(share_price=14.05, basic_shares=shares)
    assert abs(market_capitalization(s) - 2679) < 0.5


def test_market_cap_rejects_nonpositive_inputs():
    with pytest.raises(NonPositiveSharesError):
        market_capitalization(snap(share_price=0, basic_shares=10))
    with pytest.raises(NonPositiveSharesError):
        market_capitalization(snap(share_price=5, basic_shares=0))


def test_enterprise_value_simple_sum():
    s = snap(share_price=10, basic_shares=100, short_term_debt=100,
             long_term_debt=200, cash_and_equivalents=50)
    assert enterprise_value(s) == 1250


def test_enterprise_value_reconstructs_reported_company():
    # reported: mkt cap 2679, EV 4467, so net adjustments total 1788
    shares = 2679 / 14.05
    s = snap(share_price=14.05, basic_shares=shares,
             long_term_debt=1700, short_term_debt=150, cash_and_equivalents=112,
             preferred_equity=30, minority_interest=20)
    assert abs(net_debt(s) + 30 + 20 - 1788) < 1e-9
    assert abs(enterprise_value(s) - 4467) < 0.5


def test_convertible_rule_splits_on_moneyness():
    s = snap(share_price=10, basic_shares=100)
    base = enterprise_value(s)
    itm = ConvertibleSecurity(face_value=100, conversion_price=5, shares_on_conversion=20)
    otm = ConvertibleSecurity(face_value=100, conversion_price=20, shares_on_conversion=5)
    assert enterprise_value(s, [itm]) == base
    assert enterprise_value(s, [otm]) == base + 100


def test_ev_minus_components_is_market_cap_property():
    rng = np.random.default_rng(42)
    for _ in range(200):
        s = snap(
            share_price=float(rng.uniform(1, 100)),
            basic_shares=float(rng.uniform(1, 500)),
            in_the_money_options=float(rng.uniform(0, 50)),
            short_term_debt=float(rng.uniform(0, 300)),
            long_term_debt=float(rng.uniform(0, 2000)),
            capitalized_leases=float(rng.uniform(0, 100)),
            cash_and_equivalents=float(rng.uniform(0, 800)),
            preferred_equity=float(rng.uniform(0, 100)),
            minority_interest=float(rng.uniform(0, 100)),
            long_term_investments=float(rng.uniform(0, 200)),
        )
        b = enterprise_value_breakdown(s)
        lhs = b.total - b.net_debt - b.preferred_equity - b.minority_interest + b.long_term_investments
        np.testing.assert_allclose(lhs, market_capitalization(s), rtol=1e-12)


# --- subsidiary reconciliation ----------------------------------------------

def test_wholly_owned_consolidation_unchanged():
    pos = SubsidiaryPosition(ownership_pct=1.0, accounting="consolidation",
                             subsidiary_ebitda=100, subsidiary_value=200)
    assert reconcile_subsidiary(500, 1000, pos, "adjust-ebitda") == (500, 1000)
    assert reconcile_subsidiary(500, 1000, pos, "adjust-value") == (500, 1000)


def test_equity_method_adds_owned_ebitda_share():
    pos = SubsidiaryPosition(ownership_pct=0.3, accounting="equity-method", subsidiary_ebitda=100)
    assert reconcile_subsidiary(500, 1000, pos, "adjust-ebitda") == (530, 1000)


def test_equity_method_strips_stake_value():
    pos = SubsidiaryPosition(ownership_pct=0.3, accounting="equity-method", subsidiary_value=200)
    assert reconcile_subsidiary(500, 1000, pos, "adjust-value") == (500, 940)


def test_partial_consolidation_adds_unowned_value():
    pos = SubsidiaryPosition(ownership_pct=0.75, accounting="consolidation", subsidiary_value=200)
    assert reconcile_subsidiary(500, 1000, pos, "adjust-value") == (500, 1050)


def test_partial_consolidation_removes_unowned_ebitda():
    pos = SubsidiaryPosition(ownership_pct=0.75, accounting="consolidation", subsidiary_ebitda=100)
    adjusted_ebitda, value = reconcile_subsidiary(500, 1000, pos, "adjust-ebitda")
    assert adjusted_ebitda == 475
    assert value == 1000


def test_each_mode_touches_only_its_side():
    rng = np.random.default_rng(7)
    for _ in range(100):
        pos = SubsidiaryPosition(
            ownership_pct=float(rng.uniform(0, 1)),
            accounting=rng.choice(["consolidation", "equity-method"]),
            subsidiary_ebitda=float(rng.uniform(0, 500)),
            subsidiary_value=float(rng.uniform(0, 500)),
        )
        e0, v0 = float(rng.uniform(0, 1000)), float(rng.uniform(0, 5000))
        assert reconcile_subsidiary(e0, v0, pos, "adjust-ebitda")[1] == v0
        assert reconcile_subsidiary(e0, v0, pos, "adjust-value")[0] == e0


# --- period arithmetic -------------------------------------------------------

def fy_2005(**items):
    return PeriodStatement("FY2005", "fiscal-year", date(2005, 1, 1), date(2005, 12, 31),
                           items or {"revenue": 400.0})


def q1(year, **items):
    return PeriodStatement(f"Q1-{year}", "quarter", date(year, 1, 1), date(year, 3, 31), items)


def test_ltm_single_stub_pair():
    result = ltm(fy_2005(), [q1(2005, revenue=90.0)], [q1(2006, revenue=110.0)])
    assert result.line_items["revenue"] == 420.0
    assert result.end_date == date(2006, 3, 31)
    assert (result.end_date - result.start_date).days in (364, 365)


def test_ltm_no_stubs_is_identity():
    fy = fy_2005(revenue=400.0, ebitda=88.0)
    assert ltm(fy, [], []) is fy


def test_ltm_two_stub_pairs():
    prior = [q1(2005, revenue=90.0),
             PeriodStatement("Q2-2005", "quarter", date(2005, 4, 1), date(2005, 6, 30), {"revenue": 95.0})]
    current = [q1(2006, revenue=110.0),
               PeriodStatement("Q2-2006", "quarter", date(2006, 4, 1), date(2006, 6, 30), {"revenue": 100.0})]
    assert ltm(fy_2005(), prior, current).line_items["revenue"] == 425.0


def test_ltm_union_of_line_items_missing_are_zero():
    result = ltm(fy_2005(revenue=400.0),
                 [q1(2005, revenue=90.0, ebitda=20.0)],
                 [q1(2006, revenue=110.0)])
    assert result.line_items["revenue"] == 420.0
    assert result.line_items["ebitda"] == -20.0


def test_ltm_rejects_unbalanced_or_nonmirroring_stubs():
    with pytest.raises(MismatchedStubsError):
        ltm(fy_2005(), [q1(2005, revenue=90.0)], [])
    q2_2006 = PeriodStatement("Q2-2006", "quarter", date(2006, 4, 1), date(2006, 6, 30), {"revenue": 1.0})
    with pytest.raises(MismatchedStubsError):
        ltm(fy_2005(), [q1(2005, revenue=90.0)], [q2_2006])


def test_ltm_identity_property_on_random_items():
    rng = np.random.default_rng(5)
    for _ in range(50):
        items = {f"item{i}": float(rng.normal()) for i in range(rng.integers(1, 6))}
        fy = fy_2005(**items)
        assert ltm(fy, [], []).line_items == items


def test_calendarize_september_year_end_matches_worked_example():
    value = calendarize({2006: 1.59, 2007: 1.86}, fiscal_year_end_month=9, target_calendar_year=2006)
    assert abs(value - 1.6575) < 1e-12


def test_calendarize_december_year_end_is_identity():
    assert calendarize({2006: 2.5}, 12, 2006) == 2.5


def test_calendarize_june_year_end_even_split():
    assert calendarize({2006: 2.0, 2007: 4.0}, 6, 2006) == pytest.approx(3.0)


def test_calendarize_missing_year_raises():
    with pytest.raises(MissingFiscalYearError):
        calendarize({2006: 1.59}, 9, 2006)


def test_calendarize_weights_sum_to_one_property():
    rng = np.random.default_rng(9)
    for _ in range(100):
        month = int(rng.integers(1, 13))
        value = float(rng.uniform(-10, 10))
        out = calendarize({2006: value, 2007: value}, month, 2006)
        np.testing.assert_allclose(out, value, rtol=1e-12)


# --- normalization adjustments ----------------------------------------------

def test_lease_capitalization_moves_debt_and_ebitda():
    s = snap(long_term_debt=100, ebitda=50, operating_lease_expense=10)
    adjusted = capitalize_operating_leases(s, factor=7.0)
    assert adjusted.long_term_debt == 170
    assert adjusted.ebitda == 60
    assert s.long_term_debt == 100  # input untouched


def test_lease_capitalization_zero_expense_is_identity():
    s = snap(long_term_debt=100, ebitda=50)
    assert capitalize_operating_leases(s, 7.0) is s


def test_lease_factor_touches_debt_only():
    s = snap(long_term_debt=100, ebitda=50, operating_lease_expense=10)
    low, high = capitalize_operating_leases(s, 6.0), capitalize_operating_leases(s, 8.0)
    assert high.long_term_debt - low.long_term_debt == pytest.approx(20)
    assert high.ebitda == low.ebitda


def test_lease_factor_outside_band_noted():
    s = snap(ebitda=50, operating_lease_expense=10)
    adjusted = capitalize_operating_leases(s, factor=9.0)
    assert any("outside the customary" in n for n in adjusted.notes)


def test_securitization_reduce_cash():
    s = snap(cash_and_equivalents=200, securitized_assets=50)
    assert adjust_securitization(s, "reduce-cash").cash_and_equivalents == 150


def test_securitization_add_debt():
    s = snap(long_term_debt=100, securitized_assets=50)
    assert adjust_securitization(s, "add-debt").long_term_debt == 150


def test_securitization_zero_is_identity():
    s = snap(long_term_debt=100)
    assert adjust_securitization(s) is s


# --- construction checks ------------------------------------------------------

def test_ebitda_identity_enforced_at_validation():
    s = snap(ebitda=100, ebit=80, depreciation_amortization=15)
    assert s.validate()
    with pytest.raises(ValueError):
        s.ensure_valid()
    assert not snap(ebitda=95, ebit=80, depreciation_amortization=15).validate()


def test_gross_profit_cannot_exceed_revenue():
    assert snap(gross_profit=120, revenue=100).validate()


def test_negative_share_count_rejected():
    with pytest.raises(ValueError):
        snap(basic_shares=-1)


def test_quarter_span_checked():
    with pytest.raises(ValueError):
        PeriodStatement("bad", "quarter", date(2006, 1, 1), date(2006, 7, 1), {})


def test_period_kind_checked():
    with pytest.raises(ValueError, match="period 'FY2005': period_kind must be fiscal-year or quarter, got 'year'"):
        PeriodStatement("FY2005", "year", date(2005, 1, 1), date(2005, 12, 31), {})


# --- CSV loading --------------------------------------------------------------

SNAPSHOT_CSV = """as_of_date,revenue,ebitda,share_price,basic_shares,long_term_debt,cash_and_equivalents
2006-07-10,1000,88,14.05,190.7,500,100
2006-07-10,2000,,11.05,183.2,,50
"""


def test_load_snapshots_blank_cells_are_absent():
    snaps = load_snapshots(io.StringIO(SNAPSHOT_CSV))
    assert len(snaps) == 2
    assert snaps[0].ebitda == 88
    assert snaps[1].ebitda is None
    assert snaps[1].long_term_debt is None
    assert net_debt(snaps[1]) == -50


def test_load_period_statements_extra_columns_are_line_items():
    csv_text = (
        "period_label,period_kind,start_date,end_date,revenue,ebitda\n"
        "FY2005,fiscal-year,2005-01-01,2005-12-31,400,88\n"
        "Q1-2006,quarter,2006-01-01,2006-03-31,110,\n"
    )
    periods = load_period_statements(io.StringIO(csv_text))
    assert periods[0].line_items == {"revenue": 400.0, "ebitda": 88.0}
    assert periods[1].line_items == {"revenue": 110.0}


def test_load_period_statements_names_the_row_of_an_unknown_kind():
    csv_text = "period_label,period_kind,start_date,end_date\nFY2005,year,2005-01-01,2005-12-31\n"
    with pytest.raises(ValueError, match="^row 2: period 'FY2005': period_kind must be"):
        load_period_statements(io.StringIO(csv_text))
