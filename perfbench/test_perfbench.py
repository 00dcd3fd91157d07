"""Tests of the benchmark itself: seeded inputs, output checks, traced run.

    python3 -m pytest perfbench -q
"""
import json
import sys
from pathlib import Path

import pytest

import checks
import inputs
import run

sys.path.insert(0, str(run.SRC))

from dealdesk import deals  # noqa: E402


@pytest.mark.parametrize("generate, size", [
    (inputs.deal_list, 3000),
    (inputs.returns, 500),
    (inputs.regression_data, 50),
])
def test_generators_are_seeded(tmp_path, generate, size):
    first = generate(tmp_path / "a.csv", 7, size)
    again = generate(tmp_path / "b.csv", 7, size)
    other = generate(tmp_path / "c.csv", 8, size)
    assert first == again
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert other["sha256"] != first["sha256"]


def test_generators_reproduce_the_reference_facts(tmp_path):
    reference = json.loads((run.HERE / "reference_inputs.json").read_text(encoding="utf-8"))
    seed = reference["reference_seed"]
    deal_facts = inputs.deal_list(tmp_path / "deals.csv", seed)
    assert {k: reference["deals-200k"][k] for k in deal_facts} == deal_facts
    mix = reference["startup-mix"]
    assert inputs.returns(tmp_path / "returns.csv", seed) == mix["returns"]
    assert inputs.regression_data(tmp_path / "regression.csv", seed) == mix["regression"]


def test_deal_list_facts_match_the_parser(tmp_path):
    path = tmp_path / "deals.csv"
    facts = inputs.deal_list(path, 3, 20_000)
    parsed = deals.parse_deals(path)
    assert len(parsed.records) == facts["records"]
    assert len(parsed.malformed) == facts["malformed"]
    assert len(parsed.warnings) == facts["duplicates"]
    assert 0.015 < facts["malformed"] / facts["rows"] < 0.025
    assert 0.005 < facts["duplicates"] / facts["rows"] < 0.015
    assert 0.25 < facts["no_value"] / facts["records"] < 0.35
    assert {r.announced[0] for r in parsed.records} <= set(range(inputs.FIRST_YEAR, inputs.FIRST_YEAR + inputs.YEARS))
    series = deals.aggregate_deals(parsed.records, "month", lambda d: d.target_country == facts["target_country"])
    assert len(series.counts) == facts["buckets"] == 480
    assert sum(series.counts.values) == facts["kept"]
    assert series.value_exclusions == facts["kept_no_value"]


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.fixture
def small_simulation(tmp_path):
    """A simulate-250k-files workload shrunk to 3000 points, run once plain and once traced."""
    workload = run._simulate(3000, with_files=True)(5, tmp_path)
    bench = run.Bench(workload, tmp_path)
    plain = bench.unit(traced=False)
    traced = bench.unit(traced=True)
    return bench, plain, traced


def test_traced_run_writes_the_same_bytes_and_counts_calls(small_simulation):
    bench, plain, traced = small_simulation
    assert bench.errors == []
    assert bench.attempted == 2
    assert len(traced.traces) == 1 and plain.traces == []
    layers = run.layer_metrics(traced)
    assert layers["waves.fit_polynomial_calls"] == 9
    assert layers["waves.moving_average_calls"] == 2
    assert layers["cli.calls"] >= 1 and layers["cli.errors"] == 0
    assert layers["report.bytes_written"] > 0
    assert 0 < layers["import.share"] < 1


def test_byte_equality_check_rejects_a_changed_output(small_simulation, tmp_path):
    bench, _, _ = small_simulation
    call = bench.workload.calls[0]
    out = tmp_path / "traced" / "0"
    bench.check(0, call, out, 0)
    plot = out / "plot.csv"
    plot.write_bytes(plot.read_bytes().replace(b"\n", b"\r\n", 1))
    with pytest.raises(checks.CheckFailed, match="plot.csv differs"):
        bench.check(0, call, out, 0)


def _replace_line(path: Path, index: int, text: str) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[index] = text
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _corrupt_report(out: Path, edit) -> None:
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    edit(report)
    (out / "report.json").write_text(json.dumps(report), encoding="utf-8")


@pytest.mark.parametrize("corrupt, reason", [
    (lambda out: (out / "stderr").write_text("warning\n"), "stderr not empty"),
    (lambda out: (out / "report.json").write_text("{not json"), "not JSON"),
    (lambda out: _corrupt_report(out, lambda r: r.pop("diagnostics")), "schema"),
    (lambda out: _corrupt_report(out, lambda r: r.update(kind="waves")), "schema|kind"),
    (lambda out: _corrupt_report(out, lambda r: r.update(length=2999)), "report length"),
    (lambda out: (out / "series.csv").write_text("period,value\n1,1.0\n"), "3000"),
    (lambda out: _replace_line(out / "series.csv", 1, "1,nan"), "non-finite"),
    (lambda out: (out / "series.csv").write_text("when,value\n1,2\n"), "does not load"),
    (lambda out: (out / "plot.csv").write_text((out / "plot.csv").read_text().rsplit("\n", 2)[0] + "\n"),
     "rows, expected"),
    (lambda out: _replace_line(out / "plot.csv", 5, "5,1.0,"), "cells"),
])
def test_each_check_rejects_a_corrupted_output(small_simulation, tmp_path, corrupt, reason):
    bench, _, _ = small_simulation
    call = bench.workload.calls[0]
    out = tmp_path / "plain" / "0"
    bench.reference.clear()  # check content, not equality with the first run
    bench.check(0, call, out, 0)
    bench.reference.clear()
    corrupt(out)
    with pytest.raises(checks.CheckFailed, match=reason):
        bench.check(0, call, out, 0)


def test_exit_status_is_checked():
    checks.process(0, b"")
    with pytest.raises(checks.CheckFailed, match="exit status 1"):
        checks.process(1, b"")


def test_deal_report_check_rejects_wrong_tallies(tmp_path):
    facts = {"rows": 10, "malformed": 1, "duplicates": 1, "buckets": 480, "kept_no_value": 2}
    good = {"records": 9, "malformed": [{}], "warnings": ["dup"], "buckets": 480, "value_exclusions": 2}
    checks.deal_report(good, facts)
    for edit in ({"records": 8}, {"buckets": 479}, {"warnings": []}, {"value_exclusions": 3},
                 {"records": 8, "malformed": [{}, {}]}):
        with pytest.raises(checks.CheckFailed):
            checks.deal_report({**good, **edit}, facts)
