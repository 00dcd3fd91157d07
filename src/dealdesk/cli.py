"""Batch command-line surface.

Exit codes: 0 success, 1 module error (machine-readable diagnostic on
stderr), 2 invalid configuration before any computation. Reports go to
--output atomically, or to stdout when no output path is given; the same
inputs and seed always produce byte-identical JSON.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from typing import Optional

from . import comps as comps_mod
from . import deals as deals_mod
from . import economics, regression, report, waves
from .errors import ConfigInvalidError, DealdeskError

_TREND_DEFAULT_PARAMS = {
    "ideal": (10.0,),
    "linear": (1.0, 0.0),
    "quadratic": (1.0, 0.0, 0.0),
    "exponential": (1.0, 0.001),
}


@dataclass
class RunConfig:
    command: str
    paths: dict[str, str] = field(default_factory=dict)
    output: Optional[str] = None
    format: str = "json"
    params: dict = field(default_factory=dict)

    def validate(self) -> "RunConfig":
        for name, path in self.paths.items():
            if not os.path.exists(path):
                raise ConfigInvalidError(f"--{name}: path does not exist: {path}")
        if self.format not in ("json", "text"):
            raise ConfigInvalidError(f"unknown format {self.format!r}")
        p = self.params
        # Destinations are checked here so a bad one fails before the computation runs.
        for flag, path in (("output", self.output), ("series-out", p.get("series_out")),
                           ("plot-out", p.get("plot_out"))):
            if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(os.path.abspath(path)))):
                raise ConfigInvalidError(f"--{flag}: not a file in an existing directory: {path}")
        for key in ("window", "max_lag", "degree", "length", "estimation_periods", "event_window"):
            if key in p and p[key] < (0 if key == "event_window" else 1):
                raise ConfigInvalidError(f"--{key.replace('_', '-')} must be positive, got {p[key]}")
        if "length" in p and p["length"] < 2:
            raise ConfigInvalidError(f"--length must be >= 2, got {p['length']}")
        if "estimation_periods" in p and p["estimation_periods"] < 3:
            raise ConfigInvalidError("--estimation-periods must be >= 3")
        if "sigma" in p and p["sigma"] < 0:
            raise ConfigInvalidError(f"--sigma must be >= 0, got {p['sigma']}")
        return self


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dealdesk",
        description="Batch M&A analytics: valuation, event studies, regressions and wave diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", help="write the report here (atomic); default stdout")
    common.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("value", parents=[common], help="comparable-based valuation of a target")
    p.add_argument("--comps", required=True, help="comparables CSV")
    p.add_argument("--target", required=True, help="single-row target CSV")
    p.add_argument("--ranges", required=True, help="multiple-ranges config (INI sections per method)")
    p.add_argument("--weights", default="1,1", help="relative trading,transaction weights")

    p = sub.add_parser("event-study", parents=[common], help="market-model fit and abnormal returns")
    p.add_argument("--returns", required=True, help="CSV with date,firm_return,market_return")
    p.add_argument("--estimation-periods", type=int, default=60, dest="estimation_periods")
    p.add_argument("--event-index", type=int, default=None, dest="event_index",
                   help="row index of the event (default: first row after the estimation window)")
    p.add_argument("--event-window", type=int, default=1, dest="event_window",
                   help="rows either side of the event index")

    p = sub.add_parser("regress", parents=[common], help="takeover-frequency regression")
    p.add_argument("--data", required=True, help="role-tagged CSV (see docs)")

    p = sub.add_parser("waves", parents=[common], help="wave diagnostics over an ingested deal list")
    p.add_argument("--deals", required=True, help="deal-list CSV")
    p.add_argument("--sector", default=None, help="sector label to attach to every record")
    p.add_argument("--bucketing", choices=("month", "quarter", "year"), default="month")
    p.add_argument("--measure", choices=("counts", "value"), default="counts")
    p.add_argument("--target-country", dest="target_country", default=None)
    p.add_argument("--bidder-country", dest="bidder_country", default=None)
    p.add_argument("--window", type=int, default=3)
    p.add_argument("--max-lag", type=int, default=6, dest="max_lag")
    p.add_argument("--degree", type=int, default=3)

    p = sub.add_parser("simulate-wave", parents=[common], help="generate a synthetic series and analyze it")
    p.add_argument("--trend", choices=tuple(_TREND_DEFAULT_PARAMS), default="ideal")
    p.add_argument("--params", default=None,
                   help="comma-separated trend coefficients (defaults per trend kind)")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--noise", choices=("gaussian", "poisson"), default="gaussian")
    p.add_argument("--length", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--window", type=int, default=12)
    p.add_argument("--max-lag", type=int, default=24, dest="max_lag")
    p.add_argument("--degree", type=int, default=5)
    p.add_argument("--no-clamp", action="store_true", help="allow negative values")
    p.add_argument("--series-out", dest="series_out", help="write the raw series CSV here")
    p.add_argument("--plot-out", dest="plot_out", help="write period,raw,smoothed,poly_fit CSV here")

    p = sub.add_parser("ingest", parents=[common], help="bucket a deal list into a series CSV")
    p.add_argument("--deals", required=True)
    p.add_argument("--sector", default=None)
    p.add_argument("--bucketing", choices=("month", "quarter", "year"), default="month")
    p.add_argument("--measure", choices=("counts", "value"), default="counts")
    p.add_argument("--series-out", dest="series_out", required=True,
                   help="destination for the bucketed series CSV")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    paths = {}
    for name in ("comps", "target", "ranges", "returns", "data", "deals"):
        value = getattr(args, name, None)
        if value is not None:
            paths[name] = value
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "output", "format", *paths) and v is not None
    }
    config = RunConfig(
        command=args.command,
        paths=paths,
        output=getattr(args, "output", None),
        format=getattr(args, "format", "json"),
        params=params,
    )
    if config.command == "simulate-wave":
        raw = config.params.get("params")
        defaults = _TREND_DEFAULT_PARAMS[config.params["trend"]]
        if raw is None:
            config.params["params"] = defaults
        else:
            try:
                parsed = tuple(float(x) for x in str(raw).split(","))
            except ValueError:
                raise ConfigInvalidError(f"--params must be comma-separated numbers, got {raw!r}")
            if len(parsed) != len(defaults):
                raise ConfigInvalidError(
                    f"--trend {config.params['trend']} takes {len(defaults)} parameters, got {len(parsed)}"
                )
            config.params["params"] = parsed
    if config.command == "value":
        raw = config.params.get("weights", "1,1")
        try:
            w = tuple(float(x) for x in str(raw).split(","))
        except ValueError:
            raise ConfigInvalidError(f"--weights must be comma-separated numbers, got {raw!r}")
        if len(w) != 2 or min(w) < 0 or sum(w) <= 0:
            raise ConfigInvalidError(f"--weights needs two non-negative numbers with a positive sum, got {raw!r}")
        config.params["weights"] = w
    return config.validate()


# ---------------------------------------------------------------------------
# Command bodies: each returns (payload, text)
# ---------------------------------------------------------------------------

def _run_value(config: RunConfig) -> tuple[dict, str]:
    comparables = comps_mod.load_comparables(config.paths["comps"])
    target = comps_mod.load_target(config.paths["target"])
    ranges = comps_mod.load_ranges(config.paths["ranges"])
    summary = comps_mod.run_valuation(target, ranges, weights=config.params["weights"])

    benchmarks: dict[str, dict[str, dict]] = {}
    for kind in ("trading", "transaction"):
        members = tuple(c for c in comparables if c.kind == kind)
        if not members:
            continue
        comp_set = comps_mod.CompSet(members=members)
        metrics: set[str] = set()
        for member in members:
            metrics.update(member.metric_names())
        benchmarks[kind] = {}
        for metric in sorted(metrics):
            stats = comps_mod.aggregate(comp_set, metric)
            benchmarks[kind][metric] = {
                "mean": stats.mean,
                "median": stats.median,
                "mean_excl_hi_lo": stats.mean_excl_hi_lo,
            }

    payload = report.valuation_payload(summary, target.name)
    payload["benchmarks"] = benchmarks
    payload["provenance"] = report.provenance(config.paths)

    def fmt_stat(metric: str, value: float) -> str:
        if comps_mod.is_ratio_metric(metric):
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


def _run_event_study(config: RunConfig) -> tuple[dict, str]:
    series = economics.load_return_series(config.paths["returns"])
    est = config.params["estimation_periods"]
    if est > len(series):
        raise ConfigInvalidError(
            f"--estimation-periods {est} exceeds the {len(series)} rows available"
        )
    event_index = config.params.get("event_index")
    if event_index is None:
        event_index = est
    window = config.params["event_window"]
    lo = max(0, event_index - window)
    hi = min(len(series), event_index + window + 1)
    if lo >= hi:
        raise ConfigInvalidError("event window falls outside the series")

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
        "provenance": report.provenance(config.paths),
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


def _run_regress(config: RunConfig) -> tuple[dict, str]:
    spec = regression.load_regression_spec(config.paths["data"])
    fit = regression.fit_takeover_regression(spec)
    payload = {
        "kind": "regression",
        "n_rows": fit.n_rows,
        "r_squared": fit.r_squared,
        "coefficients": [
            {"name": n, "estimate": c, "standard_error": s}
            for n, c, s in zip(fit.names, fit.coefficients, fit.standard_errors)
        ],
        "provenance": report.provenance(config.paths),
    }
    width = max(len(n) for n in fit.names)
    lines = [f"Takeover-frequency regression  (n={fit.n_rows}, R^2={fit.r_squared:.4f})", ""]
    lines += [
        f"  {n:<{width}}  {c:+.6f}  (se {s:.6f})"
        for n, c, s in zip(fit.names, fit.coefficients, fit.standard_errors)
    ]
    return payload, "\n".join(lines) + "\n"


def _analysis(
    series: waves.CountSeries, params: dict
) -> tuple[dict, list[str], waves.CountSeries, waves.PolynomialFit]:
    """Wave diagnostics plus RMS error by polynomial degree of the smoothed series.

    Returns the report's ``diagnostics`` and ``rms_by_degree`` blocks, their
    text lines, and the smoothed series and fit that the plot rows need.
    """
    d = waves.analyze(series, params["window"], params["max_lag"], params["degree"])
    smoothed = d.smoothed
    rms = waves.rms_by_degree(smoothed, [k for k in range(1, 9) if k < len(smoothed)])
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
    return blocks, lines, smoothed, d.polynomial_fit


def _deal_series(config: RunConfig, predicate=None) -> tuple[dict, waves.CountSeries]:
    """Parse and bucket the --deals list; returns the report's deal block and the measured series."""
    result = deals_mod.parse_deals(config.paths["deals"], config.params.get("sector"))
    series = deals_mod.aggregate_deals(result.records, config.params["bucketing"], predicate)
    measure = config.params["measure"]
    measured = series.counts if measure == "counts" else series.total_value
    block = {
        "bucketing": series.bucketing,
        "measure": measure,
        "records": len(result.records),
        "malformed": [
            {"row_number": m.row_number, "reason": m.reason} for m in result.malformed
        ],
        "warnings": list(result.warnings),
        "value_exclusions": series.value_exclusions,
        "buckets": len(measured),
    }
    return block, measured


def _run_waves(config: RunConfig) -> tuple[dict, str]:
    predicate = None
    target_country = config.params.get("target_country")
    bidder_country = config.params.get("bidder_country")
    if target_country or bidder_country:
        def predicate(d: deals_mod.DealRecord) -> bool:
            if target_country and d.target_country != target_country:
                return False
            if bidder_country and d.bidder_country != bidder_country:
                return False
            return True

    deals, measured = _deal_series(config, predicate)
    blocks, diagnostic_lines, _, _ = _analysis(measured, config.params)
    payload = {
        "kind": "waves",
        **deals,
        **blocks,
        "provenance": report.provenance(config.paths),
    }
    lines = [
        f"Wave diagnostics over {deals['records']} deals "
        f"({deals['buckets']} {deals['bucketing']} buckets, measure={deals['measure']})",
    ]
    if deals["malformed"]:
        lines.append(f"  malformed rows    {len(deals['malformed'])}")
    lines += diagnostic_lines
    return payload, "\n".join(lines) + "\n"


def _run_simulate(config: RunConfig) -> tuple[dict, str]:
    p = config.params
    model = waves.TrendModel(
        kind=p["trend"],
        parameters=p["params"],
        noise_sigma=p["sigma"],
        seed=p["seed"],
        noise=p["noise"],
    )
    series = waves.generate_series(model, p["length"], clamp_at_zero=not p.get("no_clamp", False))
    blocks, diagnostic_lines, smoothed, poly = _analysis(series, p)

    if p.get("series_out"):
        waves.save_count_series(series, p["series_out"])
    if p.get("plot_out"):
        rows = waves.plot_data_rows(series, smoothed, poly)
        report.write_rows_atomic(p["plot_out"], rows)

    payload = {
        "kind": "simulation",
        "trend": p["trend"],
        "parameters": list(p["params"]),
        "noise": p["noise"],
        "sigma": p["sigma"],
        "seed": p["seed"],
        "length": p["length"],
        **blocks,
        "provenance": report.provenance(config.paths, seed=p["seed"]),
    }
    lines = [
        f"Simulated {p['trend']} series, length {p['length']}, sigma {p['sigma']}, seed {p['seed']}",
    ]
    lines += diagnostic_lines
    return payload, "\n".join(lines) + "\n"


def _run_ingest(config: RunConfig) -> tuple[dict, str]:
    deals, measured = _deal_series(config)
    rows = [["period", "value"]] + [
        [t, repr(v)] for t, v in zip(measured.timestamps, measured.values)
    ]
    report.write_rows_atomic(config.params["series_out"], rows)
    payload = {
        "kind": "ingest",
        **deals,
        "provenance": report.provenance(config.paths),
    }
    lines = [
        f"Ingested {deals['records']} deals into {deals['buckets']} {deals['bucketing']} buckets",
        f"  malformed rows   {len(deals['malformed'])}",
        f"  value exclusions {deals['value_exclusions']}",
        f"  series written   {config.params['series_out']}",
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


def run(config: RunConfig) -> int:
    """Execute a validated config; returns the process exit code."""
    try:
        payload, text = _COMMANDS[config.command](config)
        rendered = report.canonical_json(payload) if config.format == "json" else text
    except ConfigInvalidError as exc:
        _emit_error(exc)
        return 2
    except (DealdeskError, ValueError) as exc:
        _emit_error(exc)
        return 1
    if config.output:
        report.write_atomic(config.output, rendered)
    else:
        sys.stdout.write(rendered)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
    except ConfigInvalidError as exc:
        _emit_error(exc)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
