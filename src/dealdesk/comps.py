"""Comparable-company and comparable-transaction valuation.

Benchmark statistics over a peer set, multiple ranges applied to a
target's metrics, and the summary chain from enterprise value down to a
per-share equity range.
"""
from __future__ import annotations

import configparser
import statistics
from dataclasses import dataclass, field, fields
from datetime import date
from typing import Literal, Mapping, Optional, Sequence

from ._files import open_text, parse_cell, parse_number, read_rows, text_cell
from .errors import (
    ConfigInvalidError,
    MetricAbsentError,
    NonPositiveMetricError,
    NonPositiveSharesError,
)
from .ratios import RatioSet

_RATIO_FIELDS = {f.name for f in fields(RatioSet)} - {"reasons"}


def is_ratio_metric(name: str) -> bool:
    """True when the metric is one of the named ratios rather than a raw quantity."""
    return name in _RATIO_FIELDS


@dataclass(frozen=True)
class Comparable:
    """One peer company or precedent transaction."""

    name: str
    kind: Literal["trading", "transaction"]
    date: Optional[date] = None
    multiples: RatioSet = field(default_factory=RatioSet)
    industry_metrics: Mapping[str, tuple[float, str]] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("trading", "transaction"):
            raise ValueError(f"comparable {self.name!r}: kind must be trading or transaction, got {self.kind!r}")
        has_multiple = any(getattr(self.multiples, n) is not None for n in _RATIO_FIELDS)
        if not has_multiple and not self.industry_metrics:
            raise ValueError(f"comparable {self.name!r} carries no multiple or industry metric")

    def metric_value(self, metric: str) -> Optional[float]:
        if metric in _RATIO_FIELDS:
            v = getattr(self.multiples, metric)
            if v is not None:
                return v
        entry = self.industry_metrics.get(metric)
        return entry[0] if entry is not None else None

    def metric_names(self) -> set[str]:
        """Every metric this comparable carries a value for."""
        names = {n for n in _RATIO_FIELDS if getattr(self.multiples, n) is not None}
        names.update(self.industry_metrics)
        return names


@dataclass(frozen=True)
class CompSet:
    members: tuple[Comparable, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("comp set must have at least one member")


@dataclass(frozen=True)
class AggregateStats:
    mean: float
    median: float
    mean_excl_hi_lo: Optional[float] = None


@dataclass(frozen=True)
class MultipleRange:
    """A low..high multiple band applied to one target metric."""

    metric: str
    low: float
    high: float
    basis: Literal["enterprise", "equity"] = "enterprise"

    def __post_init__(self):
        if self.low <= 0:
            raise ValueError(f"range for {self.metric!r}: low must be positive, got {self.low}")
        if self.low > self.high:
            raise ValueError(f"range for {self.metric!r}: low {self.low} exceeds high {self.high}")


@dataclass(frozen=True)
class MethodRow:
    """One valuation row: a target metric pushed through a multiple range."""

    method: str
    metric: str
    target_value: float
    range: MultipleRange
    low: float
    high: float


@dataclass(frozen=True)
class ValuationSummary:
    """The full summary chain from method ranges to per-share values."""

    method_ranges: Mapping[str, tuple[float, float]]
    summary_enterprise_range: tuple[float, float]
    net_debt: float
    equity_range: tuple[float, float]
    shares_outstanding: float
    per_share_range: tuple[float, float]
    rows: tuple[MethodRow, ...] = ()

    def __post_init__(self):
        ranges = [self.summary_enterprise_range, self.equity_range, self.per_share_range,
                  *self.method_ranges.values()]
        for low, high in ranges:
            if low > high + 1e-9:
                raise ValueError(f"range low {low} exceeds high {high}")
        for got, want in zip(self.equity_range,
                             (x - self.net_debt for x in self.summary_enterprise_range)):
            if abs(got - want) > 1e-6:
                raise ValueError("equity_range does not equal enterprise range less net debt")
        for got, want in zip(self.per_share_range,
                             (x / self.shares_outstanding for x in self.equity_range)):
            if abs(got - want) > 1e-9:
                raise ValueError("per_share_range does not equal equity range over shares")


def aggregate(comp_set: CompSet, metric: str) -> AggregateStats:
    """Benchmark statistics for one metric across the set.

    Mean and median run over every member that carries the metric. The
    trimmed mean drops exactly one occurrence of the maximum and one of
    the minimum, so it needs at least three values and is absent below
    that.
    """
    values = [v for m in comp_set.members if (v := m.metric_value(metric)) is not None]
    if not values:
        raise MetricAbsentError(f"no member of the comp set carries {metric!r}")
    trimmed = None
    if len(values) >= 3:
        rest = list(values)
        rest.remove(max(rest))
        rest.remove(min(rest))
        trimmed = sum(rest) / len(rest)
    return AggregateStats(mean=sum(values) / len(values), median=statistics.median(values),
                          mean_excl_hi_lo=trimmed)


def apply_range(target_metric_value: float, rng: MultipleRange) -> tuple[float, float]:
    """Multiply the target's metric through the band."""
    return (rng.low * target_metric_value, rng.high * target_metric_value)


def summarize_method(ranges: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Componentwise mean of the lows and of the highs."""
    if not ranges:
        raise ValueError("summarize_method needs at least one range")
    n = len(ranges)
    return (sum(r[0] for r in ranges) / n, sum(r[1] for r in ranges) / n)


def build_summary(
    trading: tuple[float, float],
    transaction: tuple[float, float],
    net_debt: float,
    shares: float,
    weights: tuple[float, float] = (1.0, 1.0),
    rows: tuple[MethodRow, ...] = (),
) -> ValuationSummary:
    """Average the two method ranges and walk down to per-share values.

    Weights default to equal; they are relative and normalized before
    taking the componentwise weighted mean.
    """
    if shares <= 0:
        raise NonPositiveSharesError(f"shares must be positive, got {shares}")
    w_trade, w_txn = weights
    total = w_trade + w_txn
    if total <= 0 or w_trade < 0 or w_txn < 0:
        raise ValueError(f"weights must be non-negative with a positive sum, got {weights}")
    summary = tuple(
        (w_trade * a + w_txn * b) / total for a, b in zip(trading, transaction)
    )
    equity = tuple(x - net_debt for x in summary)
    per_share = tuple(x / shares for x in equity)
    return ValuationSummary(
        method_ranges={"trading": tuple(trading), "transaction": tuple(transaction)},
        summary_enterprise_range=summary,
        net_debt=net_debt,
        equity_range=equity,
        shares_outstanding=shares,
        per_share_range=per_share,
        rows=rows,
    )


@dataclass(frozen=True)
class TargetProfile:
    """The company being valued: its metrics plus the bridge inputs."""

    name: str
    metrics: Mapping[str, float]
    net_debt: float
    shares_outstanding: float


def run_valuation(
    target: TargetProfile,
    ranges: Mapping[str, Sequence[MultipleRange]],
    weights: tuple[float, float] = (1.0, 1.0),
) -> ValuationSummary:
    """Apply every configured range to the target and build the summary.

    ``ranges`` maps method name (trading, transaction) to its bands. Each
    band needs the target metric present and strictly positive; equity-basis
    rows are converted to enterprise values by adding net debt before the
    method summary, so the whole chain stays on one basis.
    """
    method_ranges: dict[str, tuple[float, float]] = {}
    rows: list[MethodRow] = []
    for method in ("trading", "transaction"):
        bands = ranges.get(method, ())
        if not bands:
            raise ConfigInvalidError(f"no multiple ranges configured for method {method!r}")
        row_ranges = []
        for band in bands:
            value = target.metrics.get(band.metric)
            if value is None:
                raise MetricAbsentError(f"target {target.name!r} lacks metric {band.metric!r}")
            if value <= 0:
                raise NonPositiveMetricError(
                    f"target metric {band.metric!r} is {value}; a non-positive metric "
                    f"cannot anchor a valuation row"
                )
            low, high = apply_range(value, band)
            if band.basis == "equity":
                low += target.net_debt
                high += target.net_debt
            rows.append(MethodRow(method, band.metric, value, band, low, high))
            row_ranges.append((low, high))
        method_ranges[method] = summarize_method(row_ranges)
    return build_summary(
        method_ranges["trading"],
        method_ranges["transaction"],
        target.net_debt,
        target.shares_outstanding,
        weights=weights,
        rows=tuple(rows),
    )


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

def _split_unit(header: str) -> tuple[str, str]:
    # "ev_per_unit (USD/unit)" -> ("ev_per_unit", "USD/unit")
    name = header.strip()
    if name.endswith(")") and "(" in name:
        base, _, unit = name.rpartition("(")
        return base.strip(), unit[:-1].strip()
    return name, ""


def load_comparables(source) -> list[Comparable]:
    """Read comparables from CSV.

    Fixed columns: name, kind, optional date (ISO). Columns named after
    ratio fields populate the multiples; any other numeric column is an
    industry metric, with an optional unit in parentheses in the header.
    """
    return read_rows(source, _comparable, ("name", "kind"), "comparables CSV")


def _comparable(row: dict) -> Comparable:
    ratio_kwargs: dict[str, float] = {}
    industry: dict[str, tuple[float, str]] = {}
    when = None
    for key, raw in row.items():
        if key is None:
            continue
        raw = (raw or "").strip()
        base, unit = _split_unit(key)
        if base in ("name", "kind"):
            continue
        if base == "date":
            if raw:
                when = parse_cell(raw, date.fromisoformat, key)
            continue
        if not raw:
            continue
        if base in _RATIO_FIELDS:
            ratio_kwargs[base] = parse_number(raw, key)
        else:
            industry[base] = (parse_number(raw, key), unit)
    return Comparable(
        name=text_cell(row, "name"),
        kind=text_cell(row, "kind"),  # type: ignore[arg-type]
        date=when,
        multiples=RatioSet(**ratio_kwargs),
        industry_metrics=industry,
    )


def load_target(source) -> TargetProfile:
    """Read the single-row target CSV: name, net_debt, shares_outstanding,
    metrics. The rows are counted before any cell is parsed."""
    rows = read_rows(source, dict, ("net_debt", "shares_outstanding"), "target CSV")
    if len(rows) != 1:
        raise ConfigInvalidError(f"target file must contain exactly one row, found {len(rows)}")
    try:
        return _target(rows[0])
    except ValueError as exc:  # numbered as read_rows numbers rows
        raise ValueError(f"row 2: {exc}") from exc


def _target(row: dict) -> TargetProfile:
    metrics = {
        k.strip(): parse_number(v, k.strip())
        for k, v in row.items()
        if k is not None and k.strip() not in ("name", "net_debt", "shares_outstanding") and (v or "").strip()
    }
    return TargetProfile(
        name=(row.get("name") or "target").strip(),
        metrics=metrics,
        net_debt=parse_number(row["net_debt"], "net_debt"),
        shares_outstanding=parse_number(row["shares_outstanding"], "shares_outstanding"),
    )


def load_ranges(source) -> dict[str, list[MultipleRange]]:
    """Read multiple ranges from an INI-style config.

    One section per method (trading, transaction); each entry reads
    ``metric = low..high`` with an optional trailing ``equity`` token for
    equity-basis bands.
    """
    parser = configparser.ConfigParser()
    try:
        with open_text(source) as stream:
            parser.read_file(stream)
        sections = {section: parser.items(section) for section in parser.sections()}
    except configparser.Error as exc:
        raise ConfigInvalidError(f"cannot parse ranges config: {exc}") from exc
    out: dict[str, list[MultipleRange]] = {}
    for section, entries in sections.items():
        if section not in ("trading", "transaction"):
            raise ConfigInvalidError(f"unknown ranges section {section!r}")
        bands = []
        for metric, raw in entries:
            parts = raw.split()
            basis = "enterprise"
            if len(parts) == 2 and parts[1].lower() == "equity":
                basis = "equity"
            elif len(parts) != 1:
                raise ConfigInvalidError(f"[{section}] {metric}: cannot parse {raw!r}")
            lo, sep, hi = parts[0].partition("..")
            if not sep:
                raise ConfigInvalidError(f"[{section}] {metric}: expected low..high, got {raw!r}")
            try:
                band = MultipleRange(metric=metric, low=parse_number(lo), high=parse_number(hi), basis=basis)
            except ValueError as exc:
                raise ConfigInvalidError(f"[{section}] {metric}: {exc}") from exc
            bands.append(band)
        out[section] = bands
    if not out:
        raise ConfigInvalidError("ranges config defines no sections")
    return out
