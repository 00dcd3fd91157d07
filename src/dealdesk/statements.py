"""Financial statement snapshots and the fundamental value identities.

Conventions: all monetary amounts are in millions of one currency, share
counts in millions of shares, per-share figures in currency per share.
A ``None`` field means the dataset did not supply it; balance-sheet items
default to zero inside the value identities, with a provenance note.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from datetime import date, timedelta
from typing import Iterable, Literal, Mapping, Optional, Sequence

from ._files import parse_cell, parse_integer, parse_number, read_rows, text_cell
from .errors import (
    MismatchedStubsError,
    MissingFiscalYearError,
    NonPositiveSharesError,
)

# Balance-sheet inputs that the value identities zero-fill when absent.
_NET_DEBT_FIELDS = ("short_term_debt", "long_term_debt", "capitalized_leases", "cash_and_equivalents")
_EV_EXTRA_FIELDS = ("preferred_equity", "minority_interest", "long_term_investments")


@dataclass(frozen=True)
class FinancialSnapshot:
    """One company's income-statement, balance-sheet and share inputs at a date."""

    as_of_date: date
    fiscal_year_end_month: int = 12

    # income statement / cash flow
    revenue: Optional[float] = None
    ebitda: Optional[float] = None
    ebit: Optional[float] = None
    depreciation_amortization: Optional[float] = None
    net_income: Optional[float] = None
    cash_flow_operating: Optional[float] = None
    gross_profit: Optional[float] = None

    # balance sheet
    cash_and_equivalents: Optional[float] = None
    short_term_debt: Optional[float] = None
    long_term_debt: Optional[float] = None
    capitalized_leases: Optional[float] = None
    minority_interest: Optional[float] = None
    preferred_equity: Optional[float] = None
    long_term_investments: Optional[float] = None
    common_equity: Optional[float] = None
    book_value_total: Optional[float] = None

    # other statement items
    interest_expense: Optional[float] = None
    capex: Optional[float] = None
    operating_lease_expense: Optional[float] = None
    securitized_assets: Optional[float] = None

    # market and share data
    share_price: Optional[float] = None
    basic_shares: Optional[float] = None
    in_the_money_options: Optional[float] = None
    weighted_avg_diluted_shares: Optional[float] = None
    eps_diluted: Optional[float] = None
    cash_flow_per_share: Optional[float] = None
    book_value_per_share: Optional[float] = None

    # provenance trail, appended to by loaders and adjustments
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if not 1 <= self.fiscal_year_end_month <= 12:
            raise ValueError(f"fiscal_year_end_month must be 1..12, got {self.fiscal_year_end_month}")
        for name in ("basic_shares", "in_the_money_options", "weighted_avg_diluted_shares"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ValueError(f"{name} must be >= 0, got {v}")

    def validate(self) -> list[str]:
        """Cross-field consistency checks on raw, as-entered data.

        Runs at load time rather than in the constructor: lease and
        securitization adjustments legitimately move single fields
        (EBITDA, debt) without touching their accounting counterparts.
        """
        problems = []
        if self.ebitda is not None and self.ebit is not None and self.depreciation_amortization is not None:
            if self.ebitda != self.ebit + self.depreciation_amortization:
                problems.append(
                    f"ebitda ({self.ebitda}) != ebit ({self.ebit}) + "
                    f"depreciation_amortization ({self.depreciation_amortization})"
                )
        if self.gross_profit is not None and self.revenue is not None and self.gross_profit > self.revenue:
            problems.append(f"gross_profit ({self.gross_profit}) exceeds revenue ({self.revenue})")
        return problems

    def ensure_valid(self) -> "FinancialSnapshot":
        problems = self.validate()
        if problems:
            raise ValueError("; ".join(problems))
        return self


@dataclass(frozen=True)
class PeriodStatement:
    """A labelled reporting period with named currency line items."""

    period_label: str
    period_kind: Literal["fiscal-year", "quarter"]
    start_date: date
    end_date: date
    line_items: Mapping[str, float]

    def __post_init__(self):
        if self.period_kind not in ("fiscal-year", "quarter"):
            raise ValueError(f"period {self.period_label!r}: period_kind must be fiscal-year or quarter, "
                             f"got {self.period_kind!r}")
        if self.start_date >= self.end_date:
            raise ValueError(f"period {self.period_label!r}: start_date must precede end_date")
        if self.period_kind == "quarter":
            days = (self.end_date - self.start_date).days
            # three calendar months give 89-92 days; allow one week slack either side
            if not 82 <= days <= 99:
                raise ValueError(f"quarter {self.period_label!r} spans {days} days, not ~3 months")


@dataclass(frozen=True)
class ConvertibleSecurity:
    """A convertible issue, classified as equity or debt by moneyness."""

    face_value: float
    conversion_price: float
    shares_on_conversion: float

    def __post_init__(self):
        if self.conversion_price <= 0:
            raise ValueError("conversion_price must be positive")

    def in_the_money(self, share_price: float) -> bool:
        return self.conversion_price < share_price


@dataclass(frozen=True)
class SubsidiaryPosition:
    """A parent's stake in a subsidiary plus its accounting treatment."""

    ownership_pct: float
    accounting: Literal["consolidation", "equity-method"]
    subsidiary_ebitda: float = 0.0
    subsidiary_value: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.ownership_pct <= 1.0:
            raise ValueError(f"ownership_pct must be in [0, 1], got {self.ownership_pct}")


@dataclass(frozen=True)
class EnterpriseValueBreakdown:
    """Component decomposition of an enterprise value calculation."""

    market_capitalization: float
    net_debt: float
    preferred_equity: float
    minority_interest: float
    long_term_investments: float
    convertible_debt: float
    notes: tuple[str, ...] = ()

    @property
    def total(self) -> float:
        return (
            self.market_capitalization
            + self.net_debt
            + self.preferred_equity
            + self.minority_interest
            - self.long_term_investments
            + self.convertible_debt
        )


def _zero_filled(s: FinancialSnapshot, names: Iterable[str]) -> tuple[dict, list[str]]:
    values, notes = {}, []
    for name in names:
        v = getattr(s, name)
        if v is None:
            notes.append(f"{name} missing, defaulted to 0")
            v = 0.0
        values[name] = v
    return values, notes


def net_debt(s: FinancialSnapshot) -> float:
    """Short-term debt + long-term debt + capitalized leases - cash.

    Missing components default to zero; can be negative (net cash).
    """
    v, _ = _zero_filled(s, _NET_DEBT_FIELDS)
    return v["short_term_debt"] + v["long_term_debt"] + v["capitalized_leases"] - v["cash_and_equivalents"]


def market_capitalization(s: FinancialSnapshot, dilution: Literal["basic", "fully-diluted"] = "fully-diluted") -> float:
    """Share price times share count.

    Fully diluted adds the in-the-money option count to basic shares.
    """
    if s.share_price is None or s.share_price <= 0:
        raise NonPositiveSharesError(f"share_price must be positive, got {s.share_price}")
    if s.basic_shares is None or s.basic_shares <= 0:
        raise NonPositiveSharesError(f"basic_shares must be positive, got {s.basic_shares}")
    count = s.basic_shares
    if dilution == "fully-diluted":
        count += s.in_the_money_options or 0.0
    elif dilution != "basic":
        raise ValueError(f"unknown dilution mode {dilution!r}")
    return s.share_price * count


def enterprise_value_breakdown(
    s: FinancialSnapshot,
    convertibles: Sequence[ConvertibleSecurity] = (),
    dilution: Literal["basic", "fully-diluted"] = "fully-diluted",
) -> EnterpriseValueBreakdown:
    """Enterprise value with its component decomposition.

    EV = market cap + net debt + preferred + minority interest - long-term
    investments. In-the-money convertibles count as equity (no EV impact
    here); out-of-the-money ones add their face value to the debt side.
    """
    mktcap = market_capitalization(s, dilution)
    _, notes = _zero_filled(s, _NET_DEBT_FIELDS)
    extra, extra_notes = _zero_filled(s, _EV_EXTRA_FIELDS)
    notes.extend(extra_notes)

    convertible_debt = 0.0
    for conv in convertibles:
        if conv.in_the_money(s.share_price):
            notes.append(f"convertible (strike {conv.conversion_price}) in the money, treated as equity")
        else:
            convertible_debt += conv.face_value
            notes.append(f"convertible (strike {conv.conversion_price}) out of the money, face added to debt")

    return EnterpriseValueBreakdown(
        market_capitalization=mktcap,
        net_debt=net_debt(s),
        preferred_equity=extra["preferred_equity"],
        minority_interest=extra["minority_interest"],
        long_term_investments=extra["long_term_investments"],
        convertible_debt=convertible_debt,
        notes=tuple(notes),
    )


def enterprise_value(
    s: FinancialSnapshot,
    convertibles: Sequence[ConvertibleSecurity] = (),
    dilution: Literal["basic", "fully-diluted"] = "fully-diluted",
) -> float:
    return enterprise_value_breakdown(s, convertibles, dilution).total


def reconcile_subsidiary(
    parent_ebitda: float,
    parent_value: float,
    pos: SubsidiaryPosition,
    mode: Literal["adjust-ebitda", "adjust-value"],
) -> tuple[float, float]:
    """Align a parent's EBITDA and market value for a partly-owned subsidiary.

    Equity-method stakes contribute value but no EBITDA, so either add the
    owned share of subsidiary EBITDA or strip the stake's value. Consolidated
    subsidiaries with a minority interest contribute 100% of EBITDA but only
    the owned share of value, so either remove the unowned EBITDA or add the
    unowned value. A wholly-owned consolidation needs nothing.
    """
    if mode not in ("adjust-ebitda", "adjust-value"):
        raise ValueError(f"unknown mode {mode!r}")
    pct = pos.ownership_pct
    if pos.accounting == "equity-method":
        if mode == "adjust-ebitda":
            return parent_ebitda + pct * pos.subsidiary_ebitda, parent_value
        return parent_ebitda, parent_value - pct * pos.subsidiary_value
    # consolidation
    if pct == 1.0:
        return parent_ebitda, parent_value
    if mode == "adjust-ebitda":
        return parent_ebitda - (1.0 - pct) * pos.subsidiary_ebitda, parent_value
    return parent_ebitda, parent_value + (1.0 - pct) * pos.subsidiary_value


def ltm(
    fiscal_year: PeriodStatement,
    stub_prior: Sequence[PeriodStatement] = (),
    stub_current: Sequence[PeriodStatement] = (),
) -> PeriodStatement:
    """Trailing-twelve-month statement: fiscal year - prior stubs + current stubs.

    Stubs must pair up, each current quarter mirroring a prior-year quarter
    exactly one year earlier. With no stubs the fiscal year is returned as is.
    """
    if len(stub_prior) != len(stub_current):
        raise MismatchedStubsError(
            f"stub counts differ: {len(stub_prior)} prior vs {len(stub_current)} current"
        )
    if not stub_prior:
        return fiscal_year

    prior = sorted(stub_prior, key=lambda p: p.start_date)
    current = sorted(stub_current, key=lambda p: p.start_date)
    for p, c in zip(prior, current):
        if c.start_date.month != p.start_date.month or c.start_date.year != p.start_date.year + 1:
            raise MismatchedStubsError(
                f"stub {c.period_label!r} does not mirror {p.period_label!r} one year later"
            )

    keys: set[str] = set(fiscal_year.line_items)
    for stmt in (*prior, *current):
        keys.update(stmt.line_items)
    items = {}
    for key in sorted(keys):
        total = fiscal_year.line_items.get(key, 0.0)
        total -= sum(p.line_items.get(key, 0.0) for p in prior)
        total += sum(c.line_items.get(key, 0.0) for c in current)
        items[key] = total

    end = current[-1].end_date
    start = end.replace(year=end.year - 1) + timedelta(days=1)
    return PeriodStatement(
        period_label=f"LTM ended {end.isoformat()}",
        period_kind="fiscal-year",
        start_date=start,
        end_date=end,
        line_items=items,
    )


def calendarize(
    fy_values: Mapping[int, float],
    fiscal_year_end_month: int,
    target_calendar_year: int,
) -> float:
    """Re-weight fiscal-year figures onto a calendar year by month overlap.

    A fiscal year labelled Y ends in ``fiscal_year_end_month`` of calendar
    year Y, so it overlaps the target year for that many months and the
    following fiscal year supplies the remainder. Weights are whole months
    over twelve.
    """
    if not 1 <= fiscal_year_end_month <= 12:
        raise ValueError(f"fiscal_year_end_month must be 1..12, got {fiscal_year_end_month}")
    m = fiscal_year_end_month
    weights = {target_calendar_year: m / 12.0}
    if m < 12:
        weights[target_calendar_year + 1] = (12 - m) / 12.0
    total = 0.0
    for year, weight in weights.items():
        if year not in fy_values:
            raise MissingFiscalYearError(
                f"fiscal year {year} overlaps calendar {target_calendar_year} but is not supplied"
            )
        total += weight * fy_values[year]
    return total


def capitalize_operating_leases(s: FinancialSnapshot, factor: float = 7.0) -> FinancialSnapshot:
    """Move operating leases onto the balance sheet.

    Adds ``factor`` times the lease expense to long-term debt and the expense
    itself back to EBITDA. Customary factors run 6x to 8x; values outside
    that band are accepted with a note.
    """
    expense = s.operating_lease_expense or 0.0
    if expense == 0.0:
        return s
    notes = list(s.notes)
    if not 6.0 <= factor <= 8.0:
        notes.append(f"lease capitalization factor {factor} outside the customary 6x-8x band")
    notes.append(f"operating leases capitalized at {factor}x expense {expense}")
    return replace(
        s,
        long_term_debt=(s.long_term_debt or 0.0) + factor * expense,
        ebitda=(s.ebitda or 0.0) + expense,
        notes=tuple(notes),
    )


def adjust_securitization(
    s: FinancialSnapshot,
    treatment: Literal["reduce-cash", "add-debt"] = "reduce-cash",
) -> FinancialSnapshot:
    """Bring securitized assets back onto the balance sheet.

    The amount returns to working capital (recorded as a note) and is funded
    either by reducing cash or by adding debt.
    """
    amount = s.securitized_assets or 0.0
    if amount == 0.0:
        return s
    notes = list(s.notes)
    notes.append(f"securitized assets {amount} added back to working capital")
    if treatment == "reduce-cash":
        return replace(s, cash_and_equivalents=(s.cash_and_equivalents or 0.0) - amount, notes=tuple(notes))
    if treatment == "add-debt":
        return replace(s, long_term_debt=(s.long_term_debt or 0.0) + amount, notes=tuple(notes))
    raise ValueError(f"unknown treatment {treatment!r}")


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------

_DATE_FIELDS = {"as_of_date"}
_INT_FIELDS = {"fiscal_year_end_month"}


def load_snapshots(source) -> list[FinancialSnapshot]:
    """Read snapshots from CSV, one row per company/period.

    Columns are matched to field names by header; blank cells are absent.
    Dates must be ISO-8601. ``source`` is a path or an open text stream.
    """
    known = {f.name for f in fields(FinancialSnapshot)} - {"notes"}

    def snapshot(row: dict) -> FinancialSnapshot:
        kwargs = {}
        for key, raw in row.items():
            if key is None or key not in known:
                continue
            raw = (raw or "").strip()
            if not raw:
                continue
            if key in _DATE_FIELDS:
                kwargs[key] = parse_cell(raw, date.fromisoformat, key)
            elif key in _INT_FIELDS:
                kwargs[key] = parse_cell(raw, parse_integer, key)
            else:
                kwargs[key] = parse_number(raw, key)
        if "as_of_date" not in kwargs:
            raise ValueError("as_of_date: missing")
        return FinancialSnapshot(**kwargs).ensure_valid()

    return read_rows(source, snapshot, ("as_of_date",), "snapshot CSV")


def load_period_statements(source) -> list[PeriodStatement]:
    """Read period statements from CSV.

    Fixed columns: period_label, period_kind, start_date, end_date. Every
    remaining column is a line item; blank cells are omitted from the map.
    """
    fixed = ("period_label", "period_kind", "start_date", "end_date")
    return read_rows(source, lambda row: PeriodStatement(
        line_items={
            k: parse_number(v, k)
            for k, v in row.items()
            if k is not None and k not in fixed and (v or "").strip()
        },
        period_label=text_cell(row, "period_label"),
        period_kind=text_cell(row, "period_kind"),  # type: ignore[arg-type]
        start_date=parse_cell(text_cell(row, "start_date"), date.fromisoformat, "start_date"),
        end_date=parse_cell(text_cell(row, "end_date"), date.fromisoformat, "end_date"),
    ), fixed, "period statement CSV")
