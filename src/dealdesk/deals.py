"""Deal-list ingestion and bucketing.

Reads announcement-dated transaction lists (one row per deal), keeps
malformed rows as diagnostics instead of dropping them, and rolls clean
records up into count and total-value series for the wave diagnostics.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Literal, Optional, Sequence

from ._files import open_text, require_columns
from .errors import EmptyAfterFilterError
from .waves import CountSeries

REQUIRED_COLUMNS = (
    "announced_date",
    "target",
    "stake",
    "target_country",
    "bidder",
    "bidder_country",
    "seller",
    "seller_country",
    "value_usdm",
)

_ABSENT = {"", "-", "n/a", "na"}
_MONTHS = {
    "jan": 1, "feb": 2, "mar": 3, "apr": 4, "may": 5, "jun": 6,
    "jul": 7, "aug": 8, "sep": 9, "oct": 10, "nov": 11, "dec": 12,
}
_MONTH_ABBREV = {v: k.capitalize() for k, v in _MONTHS.items()}


@dataclass(frozen=True)
class DealRecord:
    """One announced transaction."""

    announced: tuple[int, int]
    target: str
    target_country: str
    bidder: str
    bidder_country: str
    stake_pct: Optional[float] = None
    seller: Optional[str] = None
    seller_country: Optional[str] = None
    value_usdm: Optional[float] = None
    sector: Optional[str] = None

    def __post_init__(self):
        year, month = self.announced
        if not 1 <= month <= 12:
            raise ValueError(f"announced month must be 1..12, got {month}")
        if self.stake_pct is not None and not 0.0 < self.stake_pct <= 1.0:
            raise ValueError(f"stake_pct must be in (0, 1], got {self.stake_pct}")
        if self.value_usdm is not None and self.value_usdm <= 0:
            raise ValueError(f"value_usdm must be positive when present, got {self.value_usdm}")


@dataclass(frozen=True)
class MalformedRow:
    row_number: int
    reason: str
    raw: dict


@dataclass(frozen=True)
class ParseResult:
    records: tuple[DealRecord, ...]
    malformed: tuple[MalformedRow, ...] = ()
    warnings: tuple[str, ...] = ()


def _absent(cell: Optional[str]) -> bool:
    return cell is None or cell.strip().lower() in _ABSENT


def _parse_month_year(text: str) -> tuple[int, int]:
    parts = text.split()
    if len(parts) != 2:
        raise ValueError(f"expected 'Mon YYYY', got {text!r}")
    month = _MONTHS.get(parts[0][:3].lower())
    if month is None:
        raise ValueError(f"unknown month {parts[0]!r}")
    return int(parts[1]), month


def _parse_number(text: str) -> float:
    # table exports keep thousands separators ("11,850.0")
    return float(text.replace(",", "").strip())


def parse_deals(source, sector_label: Optional[str] = None) -> ParseResult:
    """Read a deal-list CSV.

    "n/a", "-" and blank cells are absent; dates read as "Apr 2012";
    stakes above 1 are percents and are divided by 100. Rows that fail to
    parse land in the diagnostics with their row number and reason.
    Exact duplicate rows stay in the output but raise a warning, since
    merging them silently could hide source errors.
    """
    with open_text(source) as stream:
        reader = csv.DictReader(stream)
        require_columns(reader, REQUIRED_COLUMNS, "deal CSV")
        records: list[DealRecord] = []
        malformed: list[MalformedRow] = []
        warnings: list[str] = []
        seen: set[tuple] = set()
        for number, row in enumerate(reader, start=2):
            try:
                record = _parse_row(row, sector_label)
            except ValueError as exc:
                malformed.append(MalformedRow(row_number=number, reason=str(exc), raw=dict(row)))
                continue
            key = tuple(sorted((k, (v or "").strip()) for k, v in row.items() if k))
            if key in seen:
                warnings.append(f"row {number}: exact duplicate of an earlier row, kept")
            seen.add(key)
            records.append(record)
        return ParseResult(records=tuple(records), malformed=tuple(malformed), warnings=tuple(warnings))


def _parse_row(row: dict, sector_label: Optional[str]) -> DealRecord:
    announced = _parse_month_year((row.get("announced_date") or "").strip())
    required = {}
    for name in ("target", "target_country", "bidder", "bidder_country"):
        cell = (row.get(name) or "").strip()
        if _absent(cell):
            raise ValueError(f"required field {name} is blank")
        required[name] = cell
    stake = None
    if not _absent(row.get("stake")):
        stake = _parse_number(row["stake"])
        if stake > 1.0:
            stake /= 100.0
    value = None if _absent(row.get("value_usdm")) else _parse_number(row["value_usdm"])
    seller = None if _absent(row.get("seller")) else row["seller"].strip()
    seller_country = None if _absent(row.get("seller_country")) else row["seller_country"].strip()
    return DealRecord(
        announced=announced,
        stake_pct=stake,
        seller=seller,
        seller_country=seller_country,
        value_usdm=value,
        sector=sector_label,
        **required,
    )


def serialize_deals(records: Sequence[DealRecord], dest) -> None:
    """Write records back in the input schema; absent fields print n/a."""
    with open_text(dest, "w") as stream:
        writer = csv.writer(stream)
        writer.writerow(REQUIRED_COLUMNS)
        for r in records:
            year, month = r.announced
            stake = "n/a" if r.stake_pct is None else repr(r.stake_pct * 100.0)
            value = "n/a" if r.value_usdm is None else repr(r.value_usdm)
            writer.writerow([
                f"{_MONTH_ABBREV[month]} {year}",
                r.target,
                stake,
                r.target_country,
                r.bidder,
                r.bidder_country,
                r.seller or "n/a",
                r.seller_country or "n/a",
                value,
            ])


Bucketing = Literal["month", "quarter", "year"]


@dataclass(frozen=True)
class DealSeries:
    """Bucketed deal counts and value totals.

    ``value_exclusions`` counts retained deals that carry no value and so
    are absent from the totals but present in the counts.
    """

    bucketing: Bucketing
    counts: CountSeries
    total_value: CountSeries
    value_exclusions: int = 0


def _bucket_key(announced: tuple[int, int], bucketing: Bucketing) -> tuple[int, int]:
    year, month = announced
    if bucketing == "month":
        return (year, month)
    if bucketing == "quarter":
        return (year, (month - 1) // 3 + 1)
    return (year, 0)


def _bucket_label(key: tuple[int, int], bucketing: Bucketing) -> str:
    year, part = key
    if bucketing == "month":
        return f"{year}-{part:02d}"
    if bucketing == "quarter":
        return f"{year}Q{part}"
    return str(year)


def _bucket_span(lo: tuple[int, int], hi: tuple[int, int], bucketing: Bucketing) -> list[tuple[int, int]]:
    per_year = {"month": 12, "quarter": 4, "year": 1}[bucketing]
    if bucketing == "year":
        return [(y, 0) for y in range(lo[0], hi[0] + 1)]
    out = []
    year, part = lo
    while (year, part) <= hi:
        out.append((year, part))
        part += 1
        if part > per_year:
            year, part = year + 1, 1
    return out


def aggregate_deals(
    deals: Sequence[DealRecord],
    bucketing: Bucketing = "month",
    predicate: Optional[Callable[[DealRecord], bool]] = None,
) -> DealSeries:
    """Bucket deals into counts and value totals, zero-filling gaps.

    Buckets run contiguously from the earliest to the latest retained
    deal. Deals without a value still count; they are excluded from the
    totals and tallied in ``value_exclusions``.
    """
    kept = [d for d in deals if predicate is None or predicate(d)]
    if not kept:
        raise EmptyAfterFilterError("no deals left after filtering")
    keys = [_bucket_key(d.announced, bucketing) for d in kept]
    span = _bucket_span(min(keys), max(keys), bucketing)
    counts = {k: 0 for k in span}
    totals = {k: 0.0 for k in span}
    exclusions = 0
    for deal, key in zip(kept, keys):
        counts[key] += 1
        if deal.value_usdm is None:
            exclusions += 1
        else:
            totals[key] += deal.value_usdm
    labels = tuple(_bucket_label(k, bucketing) for k in span)
    return DealSeries(
        bucketing=bucketing,
        counts=CountSeries(timestamps=labels, values=tuple(float(counts[k]) for k in span)),
        total_value=CountSeries(timestamps=labels, values=tuple(totals[k] for k in span)),
        value_exclusions=exclusions,
    )
