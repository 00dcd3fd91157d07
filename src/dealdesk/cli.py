"""Batch command-line surface.

Exit codes: 0 success, 1 module error (machine-readable diagnostic on
stderr), 2 invalid configuration before any computation. Reports go to
--output atomically, or to stdout when no output path is given; the same
inputs and seed always produce byte-identical JSON.

Each command body imports the modules it runs, so a call loads only what
its subcommand needs: ``value`` and ``--help`` never load numpy.
"""
from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING

from . import report
from ._files import parse_number
from .errors import ConfigInvalidError, DealdeskError

if TYPE_CHECKING:
    from . import waves

_TREND_DEFAULT_PARAMS = {
    "ideal": (10.0,),
    "linear": (1.0, 0.0),
    "quadratic": (1.0, 0.0, 0.0),
    "exponential": (1.0, 0.001),
}


class _Parser(argparse.ArgumentParser):
    """Raises ``ConfigInvalidError`` where argparse would print usage and
    exit, so every bad argument ends as one JSON diagnostic. Subparsers
    are built from this class too."""

    def error(self, message):
        raise ConfigInvalidError(message)


def _checked(parse, ok=lambda value: True, wants: str = ""):
    """An argparse ``type=``: ``parse`` the text, then refuse a value that
    ``ok`` rejects. argparse names the flag in front of the message."""
    def convert(text: str):
        try:
            value = parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"expected {wants}, got {text!r}")
        return value
    return convert


def _count(least: int):
    return _checked(int, lambda n: n >= least, f"an integer >= {least}")


def _numbers(text: str) -> tuple[float, ...]:
    return tuple(parse_number(cell) for cell in text.split(","))


def _is_destination(path: str) -> bool:
    return not os.path.isdir(path) and os.path.isdir(os.path.dirname(os.path.abspath(path)))


# Destinations are checked while parsing, so a bad one fails before any computation.
_DESTINATION = _checked(str, _is_destination, "a file in an existing directory")
# Flags that name an input file; their digests go into each report's provenance.
_INPUT_FLAGS = ("comps", "target", "ranges", "returns", "data", "deals")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dealdesk",
        description="Batch M&A analytics: valuation, event studies, regressions and wave diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", type=_DESTINATION, help="write the report here (atomic); default stdout")
    common.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("value", parents=[common], help="comparable-based valuation of a target")
    p.add_argument("--comps", required=True, help="comparables CSV")
    p.add_argument("--target", required=True, help="single-row target CSV")
    p.add_argument("--ranges", required=True, help="multiple-ranges config (INI sections per method)")
    p.add_argument("--weights", default="1,1", help="relative trading,transaction weights",
                   type=_checked(_numbers, lambda w: len(w) == 2 and min(w) >= 0 and sum(w) > 0,
                                 "two non-negative numbers with a positive sum"))

    p = sub.add_parser("event-study", parents=[common], help="market-model fit and abnormal returns")
    p.add_argument("--returns", required=True, help="CSV with date,firm_return,market_return")
    p.add_argument("--estimation-periods", type=_count(3), default=60, dest="estimation_periods")
    p.add_argument("--event-index", type=int, default=None, dest="event_index",
                   help="row index of the event, from --estimation-periods to the last row "
                        "(default: first row after the estimation window)")
    p.add_argument("--event-window", type=_count(0), default=1, dest="event_window",
                   help="rows either side of the event index")

    p = sub.add_parser("regress", parents=[common], help="takeover-frequency regression")
    p.add_argument("--data", required=True, help="role-tagged CSV (see docs)")

    p = sub.add_parser("waves", parents=[common], help="wave diagnostics over an ingested deal list")
    p.add_argument("--deals", required=True, help="deal-list CSV")
    p.add_argument("--bucketing", choices=("month", "quarter", "year"), default="month")
    p.add_argument("--measure", choices=("counts", "value"), default="counts")
    p.add_argument("--target-country", dest="target_country", default=None)
    p.add_argument("--bidder-country", dest="bidder_country", default=None)
    p.add_argument("--window", type=_count(1), default=3)
    p.add_argument("--max-lag", type=_count(1), default=6, dest="max_lag")
    p.add_argument("--degree", type=_count(1), default=3)

    p = sub.add_parser("simulate-wave", parents=[common], help="generate a synthetic series and analyze it")
    p.add_argument("--trend", choices=tuple(_TREND_DEFAULT_PARAMS), default="ideal")
    p.add_argument("--params", type=_checked(_numbers), default=None,
                   help="comma-separated trend coefficients (defaults per trend kind)")
    p.add_argument("--sigma", type=_checked(parse_number, lambda s: s >= 0, "a number >= 0"), default=1.0)
    p.add_argument("--noise", choices=("gaussian", "poisson"), default="gaussian")
    p.add_argument("--length", type=_count(2), default=256)
    p.add_argument("--seed", type=_count(0), default=0)
    p.add_argument("--window", type=_count(1), default=12)
    p.add_argument("--max-lag", type=_count(1), default=24, dest="max_lag")
    p.add_argument("--degree", type=_count(1), default=5)
    p.add_argument("--no-clamp", action="store_true", help="allow negative values")
    p.add_argument("--series-out", dest="series_out", type=_DESTINATION, help="write the raw series CSV here")
    p.add_argument("--plot-out", dest="plot_out", type=_DESTINATION,
                   help="write period,raw,smoothed,poly_fit CSV here")

    p = sub.add_parser("ingest", parents=[common], help="bucket a deal list into a series CSV")
    p.add_argument("--deals", required=True)
    p.add_argument("--bucketing", choices=("month", "quarter", "year"), default="month")
    p.add_argument("--measure", choices=("counts", "value"), default="counts")
    p.add_argument("--series-out", dest="series_out", type=_DESTINATION, required=True,
                   help="destination for the bucketed series CSV")

    return parser


# ---------------------------------------------------------------------------
# Command bodies: each returns (payload, text)
# ---------------------------------------------------------------------------

def _inputs(args: argparse.Namespace) -> dict[str, str]:
    return {name: getattr(args, name) for name in _INPUT_FLAGS if hasattr(args, name)}


def _run_value(args: argparse.Namespace) -> tuple[dict, str]:
    from . import comps
    comparables = comps.load_comparables(args.comps)
    target = comps.load_target(args.target)
    ranges = comps.load_ranges(args.ranges)
    summary = comps.run_valuation(target, ranges, weights=args.weights)

    benchmarks: dict[str, dict[str, dict]] = {}
    for kind in ("trading", "transaction"):
        members = tuple(c for c in comparables if c.kind == kind)
        if not members:
            continue
        comp_set = comps.CompSet(members=members)
        metrics: set[str] = set()
        for member in members:
            metrics.update(member.metric_names())
        benchmarks[kind] = {}
        for metric in sorted(metrics):
            stats = comps.aggregate(comp_set, metric)
            benchmarks[kind][metric] = {
                "mean": stats.mean,
                "median": stats.median,
                "mean_excl_hi_lo": stats.mean_excl_hi_lo,
            }

    payload = report.valuation_payload(summary, target.name)
    payload["benchmarks"] = benchmarks
    payload["provenance"] = report.provenance(_inputs(args))

    def fmt_stat(metric: str, value: float) -> str:
        if comps.is_ratio_metric(metric):
            return f"{report.round_multiple(value):.1f}x"
        return f"{value:,.1f}"

    text_lines = [report.valuation_text(summary, target.name)]
    for kind, metrics in benchmarks.items():
        text_lines.append(f"Benchmarks ({kind})")
        for metric, stats in metrics.items():
            cells = [
                f"{label} {fmt_stat(metric, value)}"
                for label, value in (
                    ("mean", stats["mean"]),
                    ("median", stats["median"]),
                    ("mean excl hi/lo", stats["mean_excl_hi_lo"]),
                )
                if value is not None
            ]
            text_lines.append(f"  {metric:<28} " + "  ".join(cells))
        text_lines.append("")
    return payload, "\n".join(text_lines)


def _run_event_study(args: argparse.Namespace) -> tuple[dict, str]:
    from . import economics
    series = economics.load_return_series(args.returns)
    est = args.estimation_periods
    if est > len(series):
        raise ConfigInvalidError(
            f"--estimation-periods {est} exceeds the {len(series)} rows available"
        )
    event_index = est if args.event_index is None else args.event_index
    if not est <= event_index < len(series):
        raise ConfigInvalidError(
            f"--event-index {event_index} must lie in [{est}, {len(series)}): "
            f"after the {est}-row estimation window and within the series"
        )
    window = args.event_window
    lo = max(0, event_index - window)
    hi = min(len(series), event_index + window + 1)

    fit = economics.fit_market_model(series.window(0, est))
    event = series.window(lo, hi)
    ars = economics.abnormal_returns(event, fit)
    payload = {
        "kind": "event_study",
        "estimation": {"start": 0, "stop": est},
        "event": {"index": event_index, "start": lo, "stop": hi},
        "fit": {"alpha": fit.alpha, "beta": fit.beta, "r_squared": fit.r_squared},
        "abnormal_returns": [
            {"date": d.isoformat(), "value": v} for d, v in zip(event.dates, ars)
        ],
        "provenance": report.provenance(_inputs(args)),
    }
    lines = [
        "Market model fit",
        f"  alpha     {fit.alpha:+.6f}",
        f"  beta      {fit.beta:.4f}",
        f"  r_squared {fit.r_squared:.4f}",
        "",
        "Abnormal returns",
    ]
    lines += [f"  {d.isoformat()}  {v:+.6f}" for d, v in zip(event.dates, ars)]
    return payload, "\n".join(lines) + "\n"


def _run_regress(args: argparse.Namespace) -> tuple[dict, str]:
    from . import regression
    spec = regression.load_regression_spec(args.data)
    fit = regression.fit_takeover_regression(spec)
    payload = {
        "kind": "regression",
        "n_rows": fit.n_rows,
        "r_squared": fit.r_squared,
        "coefficients": [
            {"name": n, "estimate": c, "standard_error": s}
            for n, c, s in zip(fit.names, fit.coefficients, fit.standard_errors)
        ],
        "provenance": report.provenance(_inputs(args)),
    }
    width = max(len(n) for n in fit.names)
    lines = [f"Takeover-frequency regression  (n={fit.n_rows}, R^2={fit.r_squared:.4f})", ""]
    lines += [
        f"  {n:<{width}}  {c:+.6f}  (se {s:.6f})"
        for n, c, s in zip(fit.names, fit.coefficients, fit.standard_errors)
    ]
    return payload, "\n".join(lines) + "\n"


def _analysis(
    series: waves.CountSeries, args: argparse.Namespace
) -> tuple[dict, list[str], waves.WaveDiagnostics]:
    """Wave diagnostics plus RMS error by polynomial degree of the smoothed series.

    Returns the report's ``diagnostics`` and ``rms_by_degree`` blocks, their
    text lines, and the diagnostics, which hold the smoothed series and fit the plot reads.
    """
    from . import waves
    d = waves.analyze(series, args.window, args.max_lag, args.degree)
    rms = waves.rms_by_degree(d.smoothed, [k for k in range(1, 9) if k < len(d.smoothed)])
    blocks = {
        "diagnostics": {
            "window": d.window,
            "autocorrelation": list(d.autocorrelation),
            "dominant_period": d.dominant_period,
            "power_fraction": d.power_fraction,
            "polynomial": {
                "degree": d.polynomial_fit.degree,
                "coefficients": list(d.polynomial_fit.coefficients),
                "rms_error": d.polynomial_fit.rms_error,
            },
        },
        "rms_by_degree": {str(k): v for k, v in rms.items()},
    }
    lines = [
        f"  window            {d.window}",
        f"  dominant period   {d.dominant_period:.2f}",
        f"  power fraction    {d.power_fraction:.4f}",
        "  autocorrelation   "
        + " ".join(f"{v:+.3f}" for v in d.autocorrelation),
        f"  poly degree {d.polynomial_fit.degree} rms  {d.polynomial_fit.rms_error:.6f}",
        "  rms by degree     "
        + " ".join(f"{deg}:{err:.4f}" for deg, err in sorted(rms.items())),
    ]
    return blocks, lines, d


def _deal_series(args: argparse.Namespace) -> tuple[dict, waves.CountSeries]:
    """Parse and bucket the --deals list; returns the report's deal block and the measured series.

    The --target-country and --bidder-country filters, where the command
    has them, compare fields of the parsed rows, so no ``DealRecord`` is built.
    """
    from . import deals
    result = deals.parse_deals(args.deals)
    kept = result.rows
    for name in ("target_country", "bidder_country"):
        wanted = getattr(args, name, None)  # ingest has no country flags
        if wanted:
            i = deals.DealRecord._fields.index(name)  # a row holds DealRecord's fields, in order
            kept = [row for row in kept if row[i] == wanted]
    series = deals.aggregate_deals(kept, args.bucketing)
    measured = series.counts if args.measure == "counts" else series.total_value
    block = {
        "bucketing": series.bucketing,
        "measure": args.measure,
        "records": len(result.rows),
        "malformed": [
            {"row_number": m.row_number, "reason": m.reason} for m in result.malformed
        ],
        "warnings": list(result.warnings),
        "value_exclusions": series.value_exclusions,
        "buckets": len(measured),
    }
    return block, measured


def _run_waves(args: argparse.Namespace) -> tuple[dict, str]:
    deals, measured = _deal_series(args)
    blocks, diagnostic_lines, _ = _analysis(measured, args)
    payload = {
        "kind": "waves",
        **deals,
        **blocks,
        "provenance": report.provenance(_inputs(args)),
    }
    lines = [
        f"Wave diagnostics over {deals['records']} deals "
        f"({deals['buckets']} {deals['bucketing']} buckets, measure={deals['measure']})",
    ]
    if deals["malformed"]:
        lines.append(f"  malformed rows    {len(deals['malformed'])}")
    lines += diagnostic_lines
    return payload, "\n".join(lines) + "\n"


def _run_simulate(args: argparse.Namespace) -> tuple[dict, str]:
    from . import waves
    defaults = _TREND_DEFAULT_PARAMS[args.trend]
    params = defaults if args.params is None else args.params
    if len(params) != len(defaults):
        raise ConfigInvalidError(f"--trend {args.trend} takes {len(defaults)} parameters, got {len(params)}")
    model = waves.TrendModel(
        kind=args.trend,
        parameters=params,
        noise_sigma=args.sigma,
        seed=args.seed,
        noise=args.noise,
    )
    series = waves.generate_series(model, args.length, clamp_at_zero=not args.no_clamp)
    blocks, diagnostic_lines, d = _analysis(series, args)

    # every value is computed before the first file is written
    plot = waves.plot_data_rows(series, d.smoothed, d.polynomial_fit) if args.plot_out else None
    if args.series_out:
        waves.save_count_series(series, args.series_out)
    if args.plot_out:
        report.write_rows_atomic(args.plot_out, *plot)

    payload = {
        "kind": "simulation",
        "trend": args.trend,
        "parameters": list(params),
        "noise": args.noise,
        "sigma": args.sigma,
        "seed": args.seed,
        "length": args.length,
        **blocks,
        "provenance": report.provenance(_inputs(args), seed=args.seed),
    }
    lines = [
        f"Simulated {args.trend} series, length {args.length}, sigma {args.sigma}, seed {args.seed}",
    ]
    lines += diagnostic_lines
    return payload, "\n".join(lines) + "\n"


def _run_ingest(args: argparse.Namespace) -> tuple[dict, str]:
    from . import waves
    deals, measured = _deal_series(args)
    waves.save_count_series(measured, args.series_out)
    payload = {
        "kind": "ingest",
        **deals,
        "provenance": report.provenance(_inputs(args)),
    }
    lines = [
        f"Ingested {deals['records']} deals into {deals['buckets']} {deals['bucketing']} buckets",
        f"  malformed rows   {len(deals['malformed'])}",
        f"  value exclusions {deals['value_exclusions']}",
        f"  series written   {args.series_out}",
    ]
    return payload, "\n".join(lines) + "\n"


_COMMANDS = {
    "value": _run_value,
    "event-study": _run_event_study,
    "regress": _run_regress,
    "waves": _run_waves,
    "simulate-wave": _run_simulate,
    "ingest": _run_ingest,
}


def _emit_error(exc: Exception) -> None:
    if isinstance(exc, DealdeskError):
        diagnostic = exc.to_diagnostic()
    else:
        diagnostic = {"error": type(exc).__name__, "message": str(exc)}
    sys.stderr.write(report.canonical_json(diagnostic))


def main(argv=None) -> int:
    """Run one command line; returns the process exit code. ``--help``
    prints and raises ``SystemExit(0)``, as argparse does."""
    try:
        args = build_parser().parse_args(argv)
        payload, text = _COMMANDS[args.command](args)
        rendered = report.canonical_json(payload) if args.format == "json" else text
    except ConfigInvalidError as exc:
        _emit_error(exc)
        return 2
    except (DealdeskError, ValueError) as exc:
        _emit_error(exc)
        return 1
    if args.output:
        report.write_atomic(args.output, rendered)
    else:
        sys.stdout.write(rendered)
    return 0


if __name__ == "__main__":
    sys.exit(main())
