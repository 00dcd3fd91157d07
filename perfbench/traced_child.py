"""Run one dealdesk CLI call in-process with spans around every public function.

Usage: python3 traced_child.py SPANS_JSON SPAWN_TIME -- CLI_ARGS...

SPAWN_TIME is the parent's time.perf_counter() just before it started
this process; on Linux perf_counter reads CLOCK_MONOTONIC, which every
process shares, so the gap to this script's first line is interpreter
start. The wrappers are installed from outside: the program is not
edited, and cli reaches every module through its attributes, so
replacing a module attribute puts a span around each call. The report
bytes must equal an untraced call's; spans go to SPANS_JSON only.
"""
import sys
import time

T_START = time.perf_counter()

# Modules whose public functions get spans, in the order their layer
# names appear in the results.
MODULES = ("cli", "comps", "deals", "economics", "regression", "report", "waves")


def _parse_facts(facts, args, result):
    facts["rows"] += len(result.records) + len(result.malformed)
    facts["records"] += len(result.records)
    facts["malformed"] += len(result.malformed)
    facts["duplicates"] += len(result.warnings)


def _aggregate_facts(facts, args, result):
    facts["kept"] += int(sum(result.counts.values))
    facts["buckets"] += len(result.counts)


def _json_facts(facts, args, result):
    facts["json_bytes"] += len(result.encode("utf-8"))


def _write_facts(facts, args, result):
    facts["bytes_written"] += len(args[1].encode("utf-8"))


# Counts recorded at the span boundary where the work happens.
FACT_HOOKS = {
    "deals.parse_deals": _parse_facts,
    "deals.aggregate_deals": _aggregate_facts,
    "report.canonical_json": _json_facts,
    "report.write_atomic": _write_facts,
}


class Tracer:
    """Keeps spans in memory: (name, parent index, wall, cpu, self wall, self cpu, error)."""

    def __init__(self):
        import collections

        self.spans = []
        self.facts = collections.Counter()
        self._stack = []  # [span index, child wall, child cpu]

    def wrap(self, name, fn):
        import functools

        clock, cpu_clock = time.perf_counter, time.process_time
        hook = FACT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = [len(self.spans), 0.0, 0.0]
            self.spans.append(None)
            self._stack.append(frame)
            failed = True
            w0, c0 = clock(), cpu_clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                wall, cpu = clock() - w0, cpu_clock() - c0
                self._stack.pop()
                if parent is not None:
                    parent[1] += wall
                    parent[2] += cpu
                self.spans[frame[0]] = (
                    name, parent and parent[0], wall, cpu, wall - frame[1], cpu - frame[2], failed,
                )
            if hook is not None:
                hook(self.facts, args, result)
            return result

        return traced

    def install(self, modules):
        import inspect

        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                setattr(module, attr, self.wrap(f"{short}.{attr}", obj))


def main() -> int:
    spans_path, spawn = sys.argv[1], float(sys.argv[2])
    argv = sys.argv[sys.argv.index("--") + 1:]
    import numpy  # noqa: F401  (timed on its own: the program's heaviest import)

    t_numpy = time.perf_counter()
    import importlib

    modules = {name: importlib.import_module(f"dealdesk.{name}") for name in MODULES}
    t_dealdesk = time.perf_counter()
    tracer = Tracer()
    tracer.install(modules)
    main_fn = modules["cli"].main
    t_main = time.perf_counter()
    try:
        status = main_fn(argv)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    t_end = time.perf_counter()
    sys.stdout.flush()

    import json

    with open(spans_path, "w", encoding="utf-8") as f:
        json.dump({
            "spawn": spawn,
            "start": T_START,
            "numpy": t_numpy,
            "dealdesk": t_dealdesk,
            "main": t_main,
            "end": t_end,
            "spans": tracer.spans,
            "facts": tracer.facts,
        }, f)
    return status


if __name__ == "__main__":
    sys.exit(main())
