"""Closed-loop benchmark of the dealdesk command-line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The checkout measured is the parent of this file's directory, whatever
the working directory. Each operation is a fresh `dealdesk <subcommand>` process, started
the way the console script starts it, with PYTHONPATH pointing at the
checkout's src/, on one CPU. One client runs calls back to back (closed
loop, no concurrency): the next call starts when the previous one has
exited.

--trace 0 measures the end-to-end metrics: the wall time of whole
processes, interpreter start included, with CPU time and peak RSS from
wait4. --trace 1 alternates an untraced unit with a traced one, in which
traced_child.py puts spans around every public function of the
program's modules, and reports each layer's self time, CPU time and
call counts. Both modes check every output (see checks.py); a call that
exits non-zero, writes to stderr or produces a wrong output counts as
failed.

Inputs are generated from --seed into .perfbench-work/ in the checkout
and removed at exit. The last stdout line is the result object; the
line before it holds the machine and input facts the numbers depend on.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import inputs
from traced_child import MODULES as MODULE_LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMA = ROOT / "schemas" / "report.schema.json"
DATA = ROOT / "tests" / "data"
WORK = ROOT / ".perfbench-work"
REQUIRED = (
    SRC / "dealdesk" / "cli.py",
    SCHEMA,
    DATA / "comps.csv",
    DATA / "target.csv",
    DATA / "ranges.ini",
    DATA / "swiss_deals_2012.csv",
)

# What the installed `dealdesk` console script runs.
LAUNCH = "import sys; from dealdesk.cli import main; sys.exit(main())"
SETUP_CALLS = 8  # fresh `--help` processes per run; setup_s is their median
MIN_UNITS = 2
CALL_TIMEOUT = 120.0
# call_tail_s is the highest percentile with ten calls beyond it, capped
# at p80 so that runs with different call counts report the same
# percentile, and never below the median.
TAIL_BEYOND = 10
TAIL_PERCENTILE = 80

END_TO_END = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "call_p50_s": "s",
    "call_tail_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Inclusive wall time of one function's spans, summed over a unit.
FUNCTION_SPANS = (
    "deals.parse_deals", "deals.aggregate_deals",
    "waves.generate_series", "waves.moving_average", "waves.autocorrelation",
    "waves.dominant_period", "waves.fit_polynomial", "waves.rms_by_degree", "waves.analyze",
    "waves.save_count_series", "waves.plot_data_rows",
    "report.write_rows_atomic", "report.canonical_json", "report.provenance", "report.write_atomic",
)
PER_LAYER = {
    "import.python_s": "s",
    "import.numpy_s": "s",
    "import.dealdesk_s": "s",
    "import.share": "ratio",
    "exit.teardown_s": "s",
    **{f"{name}_s": "s" for name in FUNCTION_SPANS},
    "waves.moving_average_calls": "count",
    "waves.fit_polynomial_calls": "count",
    "deals.parse_rows_per_s": "rows/s",
    "deals.rows": "count",
    "deals.records": "count",
    "deals.malformed": "count",
    "deals.duplicates": "count",
    "deals.buckets": "count",
    "deals.accepted_ratio": "ratio",
    "deals.kept_ratio": "ratio",
    "report.bytes_written": "bytes",
    "report.json_bytes": "bytes",
    **{f"{m}.{k}": u for m in MODULE_LAYERS for k, u in (
        ("self_s", "s"), ("cpu_s", "s"), ("calls", "count"), ("errors", "count"))},
    "trace.overhead_ratio": "ratio",
    "trace.accounted_ratio": "ratio",
    "failed_ratio": "ratio",
}


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the checks on what it writes."""

    kind: str                       # the report's "kind"
    args: tuple[str, ...]           # subcommand and its arguments, without output paths
    report: str = "report.json"     # file holding the report; "stdout" when no --output
    files: tuple[tuple[str, str], ...] = ()  # (flag, file name) of further outputs
    check: Callable[[dict, Path], None] = lambda report, out: None

    def argv(self, out: Path) -> list[str]:
        outputs = self.files if self.report == "stdout" else (("--output", self.report), *self.files)
        return [*self.args, *(part for flag, name in outputs for part in (flag, str(out / name)))]

    def outputs(self) -> tuple[str, ...]:
        return (self.report, *(name for _, name in self.files))


@dataclass
class Workload:
    calls: list[Call]   # one unit of work, run in order
    items: int          # items one unit processes: rows, series points or calls
    facts: dict


@dataclass
class Unit:
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    calls: list[float] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)


def _fixture_rows(path: Path) -> int:
    with open(path, newline="", encoding="utf-8") as f:
        return sum(1 for _ in csv.DictReader(f))


def startup_mix(seed: int, work: Path) -> Workload:
    returns, regression = work / "returns.csv", work / "regression.csv"
    swiss = DATA / "swiss_deals_2012.csv"
    facts = {
        "returns": inputs.returns(returns, seed),
        "regression": inputs.regression_data(regression, seed),
        "swiss_deals_rows": _fixture_rows(swiss),
    }

    def event_check(report, out):
        checks.expect(report["estimation"]["stop"] == 250, "estimation window is not 250 rows")
        checks.expect(len(report["abnormal_returns"]) == 3, "event window is not 3 rows")

    def regress_check(report, out):
        checks.expect(report["n_rows"] == facts["regression"]["rows"], "regression row count differs")
        checks.expect(len(report["coefficients"]) == 12, "regression design is not 12 columns")

    def waves_check(report, out):
        rows = report["records"] + len(report["malformed"])
        checks.expect(rows == facts["swiss_deals_rows"], f"records + malformed = {rows}")

    calls = [
        Call("valuation", ("value", "--comps", str(DATA / "comps.csv"), "--target", str(DATA / "target.csv"),
                           "--ranges", str(DATA / "ranges.ini"))),
        Call("event_study", ("event-study", "--returns", str(returns), "--estimation-periods", "250"),
             check=event_check),
        Call("regression", ("regress", "--data", str(regression)), check=regress_check),
        Call("waves", ("waves", "--deals", str(swiss)), check=waves_check),
    ]
    return Workload(calls, items=len(calls), facts=facts)


def deals_200k(seed: int, work: Path) -> Workload:
    path = work / "deals.csv"
    facts = inputs.deal_list(path, seed)
    call = Call(
        "waves",
        ("waves", "--deals", str(path), "--bucketing", "month", "--measure", "value",
         "--target-country", facts["target_country"]),
        check=lambda report, out: checks.deal_report(report, facts),
    )
    return Workload([call], items=facts["rows"], facts={"deals": facts})


def _simulate(length: int, with_files: bool):
    def build(seed: int, work: Path) -> Workload:
        def check(report, out):
            checks.expect(report["length"] == length, f"report length {report['length']}")
            if with_files:
                checks.series_csv(out / "series.csv", length)
                checks.plot_csv(out / "plot.csv", length)

        call = Call(
            "simulation",
            ("simulate-wave", "--trend", "linear", "--length", str(length), "--window", "10",
             "--max-lag", "20", "--degree", "6", "--seed", str(seed)),
            report="report.json" if with_files else "stdout",
            files=(("--series-out", "series.csv"), ("--plot-out", "plot.csv")) if with_files else (),
            check=check,
        )
        return Workload([call], items=length, facts={"length": length, "seed": seed})

    return build


WORKLOADS = {
    "startup-mix": startup_mix,
    "deals-200k": deals_200k,
    "simulate-1m": _simulate(1_000_000, with_files=False),
    "simulate-250k-files": _simulate(250_000, with_files=True),
}


def spawn(cmd: list[str], out: Path, env: dict, t0: float):
    """Run one process to completion; returns (wall, exit status, rusage)."""
    with open(out / "stdout", "wb") as stdout, open(out / "stderr", "wb") as stderr:
        proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, env=env, cwd=out)
    timer = threading.Timer(CALL_TIMEOUT, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: leave no child behind
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -9
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


class Bench:
    """Runs a workload's calls, checks every output and counts failures."""

    def __init__(self, workload: Workload, work: Path):
        self.workload = workload
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
        self.report_check = checks.ReportCheck(SCHEMA)
        self.reference: dict[int, dict[str, bytes]] = {}  # every output of a call's first run
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _fail(self, what: str, exc: Exception) -> None:
        self.failed += 1
        self.errors.append(f"{what}: {exc}")

    def help(self, subcommand: str) -> float:
        """One fresh `dealdesk <subcommand> --help` process: interpreter start, imports, parser build."""
        out = self.work / "help"
        out.mkdir(exist_ok=True)
        t0 = time.perf_counter()
        wall, status, _ = spawn([sys.executable, "-c", LAUNCH, subcommand, "--help"], out, self.env, t0)
        self.attempted += 1
        try:
            checks.process(status, (out / "stderr").read_bytes())
            checks.expect((out / "stdout").read_bytes().startswith(b"usage: dealdesk"), "no usage text")
        except checks.CheckFailed as exc:
            self._fail(f"{subcommand} --help", exc)
        return wall

    def unit(self, traced: bool) -> Unit:
        unit = Unit()
        for index, call in enumerate(self.workload.calls):
            out = self.work / ("traced" if traced else "plain") / str(index)
            out.mkdir(parents=True, exist_ok=True)
            spans = out / "spans.json"
            for stale in (spans, *(out / name for name in call.outputs())):
                stale.unlink(missing_ok=True)
            t0 = time.perf_counter()
            if traced:
                cmd = [sys.executable, str(HERE / "traced_child.py"), str(spans), repr(t0), "--", *call.argv(out)]
            else:
                cmd = [sys.executable, "-c", LAUNCH, *call.argv(out)]
            wall, status, usage = spawn(cmd, out, self.env, t0)
            self.attempted += 1
            unit.wall += wall
            unit.cpu += usage.ru_utime + usage.ru_stime
            unit.rss_mb = max(unit.rss_mb, usage.ru_maxrss / 1024.0)
            unit.calls.append(wall)
            try:
                self.check(index, call, out, status)
            except (checks.CheckFailed, OSError, KeyError, TypeError) as exc:
                self._fail(call.args[0], exc)
            if traced and spans.exists():
                unit.traces.append({**json.loads(spans.read_text(encoding="utf-8")), "wall": wall})
        return unit

    def check(self, index: int, call: Call, out: Path, status: int) -> None:
        checks.process(status, (out / "stderr").read_bytes())
        outputs = {name: (out / name).read_bytes() for name in call.outputs()}
        report = self.report_check(outputs[call.report], call.kind)
        call.check(report, out)
        # The first run of a call is the reference: later runs, traced or
        # not, must write the same bytes to every output.
        reference = self.reference.setdefault(index, outputs)
        for name, data in outputs.items():
            checks.same_bytes(reference[name], data, name)


def closed_loop(seconds: float, step: Callable[[], object], min_units: int) -> list:
    """Repeat step until the next one would end past the deadline."""
    start = time.perf_counter()
    results, costs = [], []
    while True:
        t = time.perf_counter()
        results.append(step())
        costs.append(time.perf_counter() - t)
        if len(results) >= min_units and time.perf_counter() + statistics.median(costs) > start + seconds:
            return results


def end_to_end(bench: Bench, seconds: float, facts: dict) -> dict:
    subcommands = [call.args[0] for call in bench.workload.calls]
    bench.help(subcommands[0])  # warm-up: byte-compiles the package on a fresh checkout
    # Half the set-up samples before the loop and half after, so that a
    # burst of load on the machine at one moment moves fewer of them.
    setup = [bench.help(subcommands[i % len(subcommands)]) for i in range(SETUP_CALLS // 2)]
    units = closed_loop(seconds, lambda: bench.unit(traced=False), MIN_UNITS)
    setup += [bench.help(subcommands[i % len(subcommands)]) for i in range(SETUP_CALLS - len(setup))]
    calls = [w for u in units for w in u.calls]
    q = max(50, min(TAIL_PERCENTILE, math.floor(100 * (1 - TAIL_BEYOND / len(calls)))))
    wall = statistics.median(u.wall for u in units)
    facts.update(units=len(units), calls=len(calls), call_tail_percentile=q, setup_calls=len(setup),
                 call_p50_by_subcommand={name: statistics.median(u.calls[i] for u in units)
                                         for i, name in enumerate(subcommands)})
    return {
        "wall_s": wall,
        "items_per_s": bench.workload.items / wall,
        "call_p50_s": statistics.median(calls),
        "call_tail_s": statistics.quantiles(calls, n=100, method="inclusive")[q - 1],
        "cpu_s": statistics.median(u.cpu for u in units),
        "peak_rss_mb": statistics.median(u.rss_mb for u in units),
        "setup_s": statistics.median(setup),
    }


def layer_metrics(unit: Unit) -> dict:
    """Per-layer figures of one traced unit, summed over its calls."""
    m: dict[str, float] = defaultdict(float)
    facts: dict[str, int] = defaultdict(int)
    for trace in unit.traces:
        m["import.python_s"] += trace["start"] - trace["spawn"]
        m["import.numpy_s"] += trace["numpy"] - trace["start"]
        m["import.dealdesk_s"] += trace["dealdesk"] - trace["numpy"]
        m["exit.teardown_s"] += trace["wall"] - (trace["end"] - trace["spawn"])
        for name, _parent, wall, _cpu, self_wall, self_cpu, error in trace["spans"]:
            layer = name.split(".", 1)[0]
            m[f"{layer}.calls"] += 1
            m[f"{layer}.errors"] += error
            m[f"{layer}.self_s"] += self_wall
            m[f"{layer}.cpu_s"] += self_cpu
            m[f"{name}_s"] += wall
            m[f"{name}_calls"] += 1
        for key, value in trace["facts"].items():
            facts[key] += value
    imports = m["import.python_s"] + m["import.numpy_s"] + m["import.dealdesk_s"]
    m["import.share"] = imports / unit.wall
    m["accounted_s"] = imports + m["exit.teardown_s"] + sum(m[f"{layer}.self_s"] for layer in MODULE_LAYERS)
    for key in ("rows", "records", "malformed", "duplicates", "buckets"):
        m[f"deals.{key}"] = facts[key]
    parse = m["deals.parse_deals_s"]
    m["deals.parse_rows_per_s"] = facts["rows"] / parse if parse else 0.0
    m["deals.accepted_ratio"] = facts["records"] / facts["rows"] if facts["rows"] else 0.0
    m["deals.kept_ratio"] = facts["kept"] / facts["records"] if facts["records"] else 0.0
    m["report.bytes_written"] = facts["bytes_written"]
    m["report.json_bytes"] = facts["json_bytes"]
    return m


def per_layer(bench: Bench, seconds: float, facts: dict) -> dict:
    bench.help(bench.workload.calls[0].args[0])  # warm-up, as in end_to_end
    order = itertools.count()

    def pair() -> tuple[Unit, Unit]:
        # Alternate which side runs first, so that an order effect does not
        # read as tracing overhead.
        if next(order) % 2:
            traced = bench.unit(traced=True)
            return bench.unit(traced=False), traced
        plain = bench.unit(traced=False)
        return plain, bench.unit(traced=True)

    pairs = closed_loop(seconds, pair, 1)
    plain = statistics.median(p.wall for p, _ in pairs)
    traced = [layer_metrics(t) for _, t in pairs]
    metrics = {name: statistics.median(t.get(name, 0.0) for t in traced) for name in PER_LAYER}
    metrics["trace.overhead_ratio"] = statistics.median(t.wall for _, t in pairs) / plain
    metrics["trace.accounted_ratio"] = statistics.median(t["accounted_s"] for t in traced) / plain
    metrics["failed_ratio"] = bench.failed / bench.attempted
    facts.update(units=len(pairs), untraced_wall_s=plain)
    return metrics


def cpu_ticks() -> list[int]:
    """Machine-wide CPU ticks from /proc/stat: user nice system idle iowait irq softirq steal ..."""
    with open("/proc/stat", encoding="utf-8") as stat:
        return [int(x) for x in stat.readline().split()[1:]]


def machine_facts() -> dict:
    import ctypes

    import numpy

    with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
        model = next((line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name")),
                     platform.processor())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                threads = fn()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"perfbench: not a dealdesk checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # checks.series_csv reads back through dealdesk.waves

    machine = machine_facts()  # before any pinning, which would hide CPUs from it
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        facts = {"workload": args.workload, "seed": args.seed, "inputs": workload.facts}
        bench = Bench(workload, work)
        # Every process runs on one CPU, as under a batch runner that gives
        # each call its own core; children inherit the affinity. Unpinned on a
        # 2-vCPU machine, the kernel runs OpenBLAS's helper thread either
        # beside the main thread or on the same vCPU, and keeps to one choice
        # for minutes: that alone moved wall time by about a third, both for
        # short calls and for simulate-1m. Given one CPU, OpenBLAS starts no
        # helper thread.
        facts["pinned_cpu"] = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {facts["pinned_cpu"]})
        ticks = cpu_ticks()
        if args.trace:
            metrics, units = per_layer(bench, args.seconds, facts), PER_LAYER
        else:
            metrics, units = end_to_end(bench, args.seconds, facts), END_TO_END
        # Time the hypervisor gave the machine's CPUs to other guests: the
        # main source of run-to-run spread on a shared virtual machine.
        spent = [b - a for a, b in zip(ticks, cpu_ticks())][:8]
        facts["steal_share"] = spent[7] / sum(spent) if len(spent) == 8 and sum(spent) else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    for error in bench.errors[:20]:
        print(f"perfbench: failed: {error}", file=sys.stderr)
    facts["machine"] = machine
    print(json.dumps({"facts": facts}, sort_keys=True))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
