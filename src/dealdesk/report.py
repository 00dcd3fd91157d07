"""Report rendering: display rounding, aligned text tables, canonical JSON.

All arithmetic upstream stays at full precision; rounding happens here
and only here. The three display conventions are calibrated to the
reference tables this toolkit reproduces:

* millions round half-up to the whole unit (846.5 prints 847);
* multiples round half-even to 0.1x on the decimal literal (12.26
  prints 12.3, 11.05 prints 11.0);
* per-share values round DOWN to the next $0.05 (12.0287 prints 12.00),
  a conservative floor on the offer range.
"""
from __future__ import annotations

import hashlib
import json
from decimal import ROUND_FLOOR, ROUND_HALF_EVEN, ROUND_HALF_UP, Decimal
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from . import __version__
from ._files import open_text, write_rows

if TYPE_CHECKING:  # every command imports report; only value needs comps
    from .comps import ValuationSummary


def round_millions(x: float) -> float:
    """Half-up to a whole million: 846.5 -> 847."""
    return float(Decimal(str(x)).quantize(Decimal("1"), rounding=ROUND_HALF_UP))


def round_multiple(x: float) -> float:
    """Half-even to 0.1x on the printed literal: 12.26 -> 12.3, 11.05 -> 11.0."""
    return float(Decimal(str(x)).quantize(Decimal("0.1"), rounding=ROUND_HALF_EVEN))


def round_per_share(x: float) -> float:
    """Floor to a $0.05 step: 10.709 -> 10.70, 12.0287 -> 12.00."""
    steps = (Decimal(str(x)) / Decimal("0.05")).to_integral_value(rounding=ROUND_FLOOR)
    return float(steps * Decimal("0.05"))


def _fmt_millions(x: float) -> str:
    return f"{round_millions(x):,.0f}"


def _fmt_per_share(x: float) -> str:
    return f"{round_per_share(x):.2f}"


def valuation_text(summary: ValuationSummary, target_name: str = "Target") -> str:
    """Aligned summary-value table, method rows first, then the value chain."""
    lines = [f"Summary Valuation: {target_name}", ""]
    method_titles = {"trading": "Comparable Trading", "transaction": "Comparable Transactions"}
    width = 34
    for method in ("trading", "transaction"):
        rows = [r for r in summary.rows if r.method == method]
        if not rows:
            continue
        lines.append(method_titles.get(method, method.title()))
        for r in rows:
            band = f"{r.range.low:g} - {r.range.high:g}"
            span = f"{_fmt_millions(r.low)} - {_fmt_millions(r.high)}"
            lines.append(f"  {r.metric:<{width - 2}} {band:>16}  {span:>16}")
        low, high = summary.method_ranges[method]
        label = f"{method_titles.get(method, method)} enterprise value"
        span = f"{_fmt_millions(low)} - {_fmt_millions(high)}"
        lines.append(f"  {label:<{width - 2}} {'':>16}  {span:>16}")
        lines.append("")
    chain = [
        ("Summary Enterprise Value Range", summary.summary_enterprise_range, _fmt_millions),
        ("Less: Net Debt", (summary.net_debt, summary.net_debt), _fmt_millions),
        ("Equity Value", summary.equity_range, _fmt_millions),
        ("Shares Outstanding", (summary.shares_outstanding, summary.shares_outstanding), lambda v: f"{v:g}"),
        ("Value per Share", summary.per_share_range, _fmt_per_share),
    ]
    for label, (low, high), fmt in chain:
        span = fmt(low) if low == high else f"{fmt(low)} - {fmt(high)}"
        lines.append(f"{label:<{width}} {span:>18}")
    return "\n".join(lines) + "\n"


def valuation_payload(summary: ValuationSummary, target_name: str = "Target") -> dict:
    """JSON-ready valuation report with raw and display values side by side."""
    def pair(rng: Sequence[float]) -> dict:
        return {"low": rng[0], "high": rng[1]}

    def display_pair(rng: Sequence[float], fmt) -> dict:
        return {"low": fmt(rng[0]), "high": fmt(rng[1])}

    return {
        "kind": "valuation",
        "target": target_name,
        "rows": [
            {
                "method": r.method,
                "metric": r.metric,
                "target_value": r.target_value,
                "multiple_low": r.range.low,
                "multiple_high": r.range.high,
                "basis": r.range.basis,
                "enterprise": pair((r.low, r.high)),
            }
            for r in summary.rows
        ],
        "method_ranges": {k: pair(v) for k, v in summary.method_ranges.items()},
        "summary_enterprise_range": pair(summary.summary_enterprise_range),
        "net_debt": summary.net_debt,
        "equity_range": pair(summary.equity_range),
        "shares_outstanding": summary.shares_outstanding,
        "per_share_range": pair(summary.per_share_range),
        "display": {
            "summary_enterprise_range": display_pair(summary.summary_enterprise_range, round_millions),
            "equity_range": display_pair(summary.equity_range, round_millions),
            "per_share_range": display_pair(summary.per_share_range, round_per_share),
        },
    }


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def provenance(inputs: Mapping[str, str], seed: Optional[int] = None) -> dict:
    """Input digests plus run parameters; no timestamps, so reruns match."""
    block = {
        "version": __version__,
        "inputs": {name: file_digest(path) for name, path in sorted(inputs.items())},
    }
    if seed is not None:
        block["seed"] = seed
    return block


def canonical_json(payload: Mapping) -> str:
    """Stable serialization: sorted keys, fixed separators, trailing newline.

    NaN and infinities raise ValueError: they are not valid JSON.
    """
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False) + "\n"


def write_atomic(path, data: str) -> None:
    """Write ``data`` through ``open_text``, so readers never see a torn file."""
    with open_text(path, "w") as f:
        f.write(data)


def write_rows_atomic(path, header: Sequence, columns: Iterable[Sequence]) -> None:
    """CSV variant of write_atomic: the header, then the columns' LF rows, written into the temp file."""
    write_rows(path, header, columns)
