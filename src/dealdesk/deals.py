"""Deal-list ingestion and bucketing.

Reads announcement-dated transaction lists (one row per deal), keeps
malformed rows as diagnostics instead of dropping them, and rolls clean
records up into count and total-value series for the wave diagnostics.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Literal, NamedTuple, Optional, Sequence

from ._files import csv_rows, parse_number, row_dict, write_rows
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

# Every casing of the absent tokens, so a cell is tested with one set
# lookup instead of ``cell.lower() in {"", "-", "n/a", "na"}``. The two
# agree on every cell: no code point outside ASCII lower-cases to a
# string holding "n", "a", "/" or "-".
_ABSENT = frozenset(
    "".join(casing)
    for token in ("", "-", "n/a", "na")
    for casing in itertools.product(*({c.lower(), c.upper()} for c in token))
)
_REQUIRED_TEXT = ("target", "target_country", "bidder", "bidder_country")
_MONTHS = {
    "jan": 1, "feb": 2, "mar": 3, "apr": 4, "may": 5, "jun": 6,
    "jul": 7, "aug": 8, "sep": 9, "oct": 10, "nov": 11, "dec": 12,
}
_MONTH_ABBREV = {v: k.capitalize() for k, v in _MONTHS.items()}
# Announcement years a real deal list, and so a DealRecord, can hold. The bound
# keeps one mistyped date from zero-filling millions of buckets in aggregate_deals.
YEAR_RANGE = (1900, 2100)


class _DealFields(NamedTuple):
    announced: tuple[int, int]
    target: str
    target_country: str
    bidder: str
    bidder_country: str
    stake_pct: Optional[float] = None
    seller: Optional[str] = None
    seller_country: Optional[str] = None
    value_usdm: Optional[float] = None


class DealRecord(_DealFields):
    """One announced transaction, checked by its constructor, ``_make`` and ``_replace``."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):  # runs once tuple.__new__ has set the fields
        year, month = self.announced
        if not 1 <= month <= 12:
            raise ValueError(f"announced month must be 1..12, got {month}")
        lo, hi = YEAR_RANGE
        if not lo <= year <= hi:
            raise ValueError(f"announced year must be in {lo}..{hi}, got {year}")
        _check_amounts(self.stake_pct, self.value_usdm)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def _check_amounts(stake_pct: Optional[float], value_usdm: Optional[float]) -> None:
    """The stake and value rules of a ``DealRecord``, which a parsed row meets too."""
    if stake_pct is not None and not 0.0 < stake_pct <= 1.0:
        raise ValueError(f"stake_pct must be in (0, 1], got {stake_pct}")
    if value_usdm is not None and value_usdm <= 0:
        raise ValueError(f"value_usdm must be positive when present, got {value_usdm}")


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


def _parse_month_year(text: str) -> tuple[int, int]:
    parts = text.split()
    if len(parts) != 2:
        raise ValueError(f"expected 'Mon YYYY', got {text!r}")
    month = _MONTHS.get(parts[0][:3].lower())
    if month is None:
        raise ValueError(f"unknown month {parts[0]!r}")
    digits = parts[1]
    year = int(digits)  # a non-numeric year fails here, with int's message
    lo, hi = YEAR_RANGE
    if not (len(digits) == 4 and digits.isascii() and digits.isdigit() and lo <= year <= hi):
        raise ValueError(f"year must be four digits in {lo}..{hi}, got {digits!r}")
    return year, month


def _parse_number(text: str) -> float:
    """A number cell of a deal list, whose exports keep thousands separators
    ("11,850.0"); a diagnostic echoes the cell without them, trimmed again."""
    return parse_number(text.replace(",", "").strip())


def parse_deals(source) -> ParseResult:
    """Read a deal-list CSV: ``stream_deals`` read to the end, with every
    clean row held as a ``DealRecord``."""
    malformed: list[MalformedRow] = []
    warnings: list[str] = []
    # the rows become records once the stream has ended and freed its
    # duplicate keys; _parse_row ran DealRecord's checks, so they are not run again
    rows = tuple(stream_deals(source, malformed, warnings))
    records = tuple(map(functools.partial(tuple.__new__, DealRecord), rows))
    return ParseResult(records=records, malformed=tuple(malformed), warnings=tuple(warnings))


def stream_deals(source, malformed: list, warnings: list) -> Iterator[tuple]:
    """Yield each clean row of a deal-list CSV as it is read, as a tuple in
    ``DealRecord`` field order, appending each ``MalformedRow`` to
    ``malformed`` and each duplicate warning to ``warnings`` as it goes.

    "n/a", "-" and blank cells are absent; dates read as "Apr 2012", with
    the year in ``YEAR_RANGE``; stakes above 1 are percents and are
    divided by 100; numbers must be finite. Rows that fail to parse land
    in ``malformed`` with their row number and reason. Exact duplicate
    rows (equal after stripping each cell) are yielded too but raise a
    warning, since merging them silently could hide source errors. What
    the generator holds between rows is one key per distinct clean row.

    Rows come from ``_files.csv_rows``, as for every loader, and are read
    by position, for speed, but as ``_files.read_rows`` reads them by name:
    missing trailing cells are absent, cells past the header are ignored,
    and a repeated column name reads its last cell.
    """
    with csv_rows(source, REQUIRED_COLUMNS, "deal CSV") as (header, numbered):
        width = len(header)
        column = {name: i for i, name in enumerate(header)}
        fields = operator.itemgetter(*(column[name] for name in REQUIRED_COLUMNS))
        # duplicate key: one cell per non-empty column name, the last
        # one when a name repeats, as in a read_rows row
        key_columns = sorted(i for name, i in column.items() if name)
        key = operator.itemgetter(*key_columns)
        separators = len(key_columns) - 1
        months: dict[str, tuple[int, int]] = {}
        seen: set = set()
        for number, row in numbered:
            cells = list(map(str.strip, row))
            if len(cells) < width:
                cells += [""] * (width - len(cells))
            try:
                parsed = _parse_row(fields(cells), months)
            except ValueError as exc:
                malformed.append(MalformedRow(row_number=number, reason=str(exc), raw=row_dict(header, row)))
                continue
            # the cells joined on NUL are smaller than their tuple; a cell
            # holding NUL keeps the tuple, so two rows never share a key
            row_key = "\x00".join(key(cells))
            if row_key.count("\x00") != separators:
                row_key = key(cells)
            if row_key in seen:
                warnings.append(f"row {number}: exact duplicate of an earlier row, kept")
            seen.add(row_key)
            yield parsed


def _parse_row(fields: tuple[str, ...], months: dict) -> tuple:
    """One row's stripped cells, in ``REQUIRED_COLUMNS`` order, as a tuple
    in ``DealRecord`` field order. Checks run as ``DealRecord(...)`` would
    run them: the date, the required fields, the stake and value parses,
    then the stake and value rules."""
    date, target, stake, target_country, bidder, bidder_country, seller, seller_country, value = fields
    announced = months.get(date)
    if announced is None:
        announced = months[date] = _parse_month_year(date)
    required = (target, target_country, bidder, bidder_country)
    if not _ABSENT.isdisjoint(required):
        name = next(name for name, cell in zip(_REQUIRED_TEXT, required) if cell in _ABSENT)
        raise ValueError(f"required field {name} is blank")
    stake_pct = None
    if stake not in _ABSENT:
        stake_pct = _parse_number(stake)
        if stake_pct > 1.0:
            stake_pct /= 100.0
    value_usdm = None if value in _ABSENT else _parse_number(value)
    _check_amounts(stake_pct, value_usdm)
    return (
        announced, target, target_country, bidder, bidder_country, stake_pct,
        None if seller in _ABSENT else seller,
        None if seller_country in _ABSENT else seller_country,
        value_usdm,
    )


def serialize_deals(records: Sequence[DealRecord], dest) -> None:
    """Write records back in the input schema; absent fields print n/a."""
    def cells(r: DealRecord) -> list:
        year, month = r.announced
        return [
            f"{_MONTH_ABBREV[month]} {year}",
            r.target,
            "n/a" if r.stake_pct is None else r.stake_pct,  # a fraction reads back as itself
            r.target_country,
            r.bidder,
            r.bidder_country,
            r.seller or "n/a",
            r.seller_country or "n/a",
            "n/a" if r.value_usdm is None else r.value_usdm,
        ]

    write_rows(dest, REQUIRED_COLUMNS, zip(*map(cells, records)))


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


_PER_YEAR = {"month": 12, "quarter": 4, "year": 1}
_announced = operator.itemgetter(DealRecord._fields.index("announced"))
_value_usdm = operator.itemgetter(DealRecord._fields.index("value_usdm"))


def _bucket_label(index: int, bucketing: Bucketing) -> str:
    year, part = divmod(index, _PER_YEAR[bucketing])
    if bucketing == "month":
        return f"{year}-{part + 1:02d}"
    if bucketing == "quarter":
        return f"{year}Q{part + 1}"
    return str(year)


def aggregate_deals(
    deals: Iterable[DealRecord],
    bucketing: Bucketing = "month",
    predicate: Optional[Callable[[DealRecord], bool]] = None,
) -> DealSeries:
    """Bucket deals into counts and value totals, zero-filling gaps.

    ``deals`` are ``DealRecord``s or rows in their field order, such as
    ``ParseResult.records`` or a ``stream_deals`` generator, read once, by
    position. ``predicate`` sees each as given. Each kept deal is folded
    into its bucket's count and total as it is read, so the call holds
    buckets, never a deal, and a streamed list is never held. Buckets run
    contiguously from the earliest to the latest kept deal. Deals without
    a value still count; they are excluded from the totals and tallied in
    ``value_exclusions``.
    A total that overflows the float range raises ``ValueError`` naming its bucket.
    """
    per_year = _PER_YEAR[bucketing]
    counts: dict[int, int] = {}
    sums: dict[int, float] = {}
    exclusions = 0
    for deal in deals if predicate is None else filter(predicate, deals):
        # buckets numbered from year 0, so consecutive buckets differ by one
        year, month = _announced(deal)
        key = year * per_year + (month - 1) * per_year // 12
        counts[key] = counts.get(key, 0) + 1
        value = _value_usdm(deal)
        if value is None:
            exclusions += 1
        else:
            sums[key] = sums.get(key, 0.0) + value
    if not counts:
        raise EmptyAfterFilterError("no deals left after filtering")
    buckets = range(min(counts), max(counts) + 1)
    labels = tuple(_bucket_label(k, bucketing) for k in buckets)
    totals = [sums.get(k, 0.0) for k in buckets]
    overflowed = next((label for label, total in zip(labels, totals) if not math.isfinite(total)), None)
    if overflowed is not None:
        raise ValueError(f"value total of bucket {overflowed} overflows the float range")
    return DealSeries(
        bucketing=bucketing,
        counts=CountSeries(timestamps=labels, values=[counts.get(k, 0) for k in buckets]),
        total_value=CountSeries(timestamps=labels, values=totals),
        value_exclusions=exclusions,
    )
