"""End-to-end command-line checks: exit codes, diagnostics, determinism,
schema conformance of every report kind."""
import json
import os
import pathlib
import stat
import subprocess
import sys
import time

import jsonschema
import numpy as np
import pytest

from dealdesk import waves
from dealdesk.cli import main

DATA = pathlib.Path(__file__).parent / "data"
SCHEMA = json.loads((pathlib.Path(__file__).parent.parent / "schemas" / "report.schema.json").read_text())

VALUE_ARGS = [
    "value",
    "--comps", str(DATA / "comps.csv"),
    "--target", str(DATA / "target.csv"),
    "--ranges", str(DATA / "ranges.ini"),
]


def run_main(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(args, capsys):
    code, out, err = run_main(args, capsys)
    assert code == 0, err
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return payload


@pytest.fixture()
def returns_csv(tmp_path):
    rng = np.random.default_rng(71)
    market = rng.normal(0.0, 0.02, 80)
    firm = 0.01 + 1.5 * market + rng.normal(0.0, 1e-6, 80)
    lines = ["date,firm_return,market_return"]
    day = np.datetime64("2005-01-03")
    for i in range(80):
        lines.append(f"{day + i},{float(firm[i])!r},{float(market[i])!r}")
    path = tmp_path / "returns.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture()
def regress_csv(tmp_path):
    rng = np.random.default_rng(73)
    n = 100
    inst = rng.normal(size=n)
    sec = rng.normal(size=n)
    tec = rng.normal(size=n)
    reg = rng.integers(0, 2, n).astype(float)
    y = 0.5 + 1.0 * inst - 0.5 * sec + 0.8 * tec - 0.2 * tec * reg + rng.normal(0, 0.01, n)
    lines = [
        "# role response = ma_freq",
        "# role institutional = inst_a",
        "# role sectoral = sec_a",
        "# role technological = tec_a",
        "# role regime = reg_a",
        "# intercept = true",
        "ma_freq,inst_a,sec_a,tec_a,reg_a",
    ]
    for i in range(n):
        lines.append(f"{float(y[i])!r},{float(inst[i])!r},{float(sec[i])!r},{float(tec[i])!r},{reg[i]:g}")
    path = tmp_path / "regress.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


# --- value ---------------------------------------------------------------------

def test_value_json_report(capsys):
    payload = run_json(VALUE_ARGS, capsys)
    assert payload["kind"] == "valuation"
    assert payload["display"]["per_share_range"] == {"low": 10.70, "high": 12.00}
    assert payload["display"]["summary_enterprise_range"] == {"low": 847.0, "high": 920.0}
    assert set(payload["provenance"]["inputs"]) == {"comps", "target", "ranges"}
    assert "threads" not in json.dumps(payload)


def test_value_text_report(capsys):
    code, out, err = run_main(VALUE_ARGS + ["--format", "text"], capsys)
    assert code == 0
    assert "Summary Valuation" in out
    assert "Value per Share" in out
    assert "Benchmarks (trading)" in out


def test_value_weights_shift_the_summary(capsys):
    base = run_json(VALUE_ARGS, capsys)
    tilted = run_json(VALUE_ARGS + ["--weights", "1,0"], capsys)
    assert tilted["summary_enterprise_range"] == tilted["method_ranges"]["trading"]
    assert base["summary_enterprise_range"] != tilted["summary_enterprise_range"]


def test_value_output_file_and_reruns_match(tmp_path, capsys):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(VALUE_ARGS + ["--output", str(out1)]) == 0
    assert main(VALUE_ARGS + ["--output", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    jsonschema.validate(json.loads(out1.read_text()), SCHEMA)


def test_missing_input_exits_2_with_diagnostic(capsys):
    code, out, err = run_main(
        ["value", "--comps", "/nonexistent.csv", "--target", str(DATA / "target.csv"),
         "--ranges", str(DATA / "ranges.ini")],
        capsys,
    )
    assert code == 2 and out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "ConfigInvalid"
    assert "/nonexistent.csv" in diagnostic["message"]


@pytest.mark.parametrize("args", [
    ["value", "--comps", str(DATA), "--target", str(DATA / "target.csv"),
     "--ranges", str(DATA / "ranges.ini")],
    ["waves", "--deals", str(DATA)],
    ["value", "--comps", str(DATA / "comps.csv"), "--target", str(DATA / "target.csv"),
     "--ranges", "{tmp}/no_header.ini"],
    ["value", "--comps", str(DATA / "comps.csv"), "--target", str(DATA / "target.csv"),
     "--ranges", "{tmp}/duplicate_key.ini"],
    VALUE_ARGS + ["--output", "{tmp}/missing/report.json"],
    VALUE_ARGS + ["--output", "{tmp}"],
    ["simulate-wave", "--series-out", "{tmp}/missing/series.csv"],
    ["simulate-wave", "--plot-out", "{tmp}/missing/plot.csv"],
    ["ingest", "--deals", str(DATA / "swiss_deals_2012.csv"), "--series-out", "{tmp}/missing/s.csv"],
], ids=["comps-dir", "deals-dir", "ranges-no-header", "ranges-duplicate-key",
        "output-missing-dir", "output-is-dir", "series-out-missing-dir", "plot-out-missing-dir",
        "ingest-series-out-missing-dir"])
def test_unusable_path_exits_2_with_one_diagnostic(args, tmp_path, capsys):
    (tmp_path / "no_header.ini").write_text("ltm_ebitda = 9.5..10.5\n")
    (tmp_path / "duplicate_key.ini").write_text("[trading]\nx = 1..2\nx = 3..4\n")
    code, out, err = run_main([a.format(tmp=tmp_path) for a in args], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "ConfigInvalid"


def test_bad_weights_exit_2(capsys):
    # = syntax keeps argparse from eating the leading minus
    for weights in ("1", "a,b", "-1,2", "0,0"):
        code, _, err = run_main(VALUE_ARGS + [f"--weights={weights}"], capsys)
        assert code == 2, weights
        assert json.loads(err)["error"] == "ConfigInvalid"


def test_nonpositive_target_metric_exits_1(tmp_path, capsys):
    bad_target = tmp_path / "target.csv"
    bad_target.write_text(
        "name,net_debt,shares_outstanding,ltm_ebitda,fy2006_ebitda,annual_capacity\n"
        "Broke Co,250,55.7,-88,102,0.6\n"
    )
    code, out, err = run_main(
        ["value", "--comps", str(DATA / "comps.csv"), "--target", str(bad_target),
         "--ranges", str(DATA / "ranges.ini")],
        capsys,
    )
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "NonPositiveMetric"


def one_diagnostic(err):
    """The single JSON object on stderr; anything else there (a traceback, a warning) fails."""
    diagnostic, end = json.JSONDecoder().raw_decode(err)
    assert err[end:] == "\n", err
    return diagnostic


DEAL_HEADER = "announced_date,target,stake,target_country,bidder,bidder_country,seller,seller_country,value_usdm\n"
# two finite values whose month total is not
OVERFLOWING_DEALS = DEAL_HEADER + "Jan 2012,T,50,CH,B,DE,n/a,n/a,1e308\nJan 2012,U,50,CH,B,DE,n/a,n/a,1e308\n"
# finite returns and regressors whose squares are not
OVERFLOWING_RETURNS = "date,firm_return,market_return\n" + "".join(
    f"2005-01-{day:02d},{(1 + day % 5) * 1e300!r},{(1 + day % 3) * 1e300!r}\n" for day in range(1, 29)
)
REGRESSION_ROLES = ("# role response = y\n# role institutional = a\n# role sectoral = s\n"
                    "# role technological = t\n# role regime = r\n")
OVERFLOWING_REGRESSION = REGRESSION_ROLES + "# intercept = false\ny,a,s,t,r\n" + "".join(
    f"{(1 + i % 7) * 1e160!r},{(1 + i % 5) * 1e160!r},{(2 + i % 3) * 1e160!r},{(1 + i % 4) * 1e160!r},{i % 2}\n"
    for i in range(12)
)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args,files,error,named", [
    (["value", "--comps", "{tmp}/comps.csv", "--target", str(DATA / "target.csv"),
      "--ranges", str(DATA / "ranges.ini")],
     {"comps.csv": "kind,ev_to_ebitda\ntrading,9\n"}, "HeaderMismatch", "name"),
    (["event-study", "--returns", "{tmp}/returns.csv", "--estimation-periods", "3"],
     {"returns.csv": "date,firm_return\n2005-01-03,0.01\n2005-01-04,0.02\n"
                     "2005-01-05,0.0\n2005-01-06,0.01\n"}, "HeaderMismatch", "market_return"),
    (["value", "--comps", str(DATA / "comps.csv"), "--target", "{tmp}/target.csv",
      "--ranges", str(DATA / "ranges.ini")],
     {"target.csv": "name,net_debt,shares_outstanding,ltm_ebitda,fy2006_ebitda,annual_capacity\n"
                    "Sample Target,250,55.7,88,102,nan\n"}, "ValueError",
     "annual_capacity: expected a finite"),
    (["value", "--comps", "{tmp}/comps.csv", "--target", str(DATA / "target.csv"),
      "--ranges", str(DATA / "ranges.ini")],
     {"comps.csv": "name,kind,ev_to_ebitda,ltm_ebitda\nA,trading,inf,10\n"}, "ValueError", "row 2: ev_to_ebitda:"),
    (["event-study", "--returns", "{tmp}/returns.csv", "--estimation-periods", "3"],
     {"returns.csv": "date,firm_return,market_return\n2005-01-03,0.01,0.02\n2005-01-04,nan,0.01\n"
                     "2005-01-05,0.0,0.0\n2005-01-06,0.01,0.03\n"}, "ValueError", "row 3: firm_return:"),
    (["event-study", "--returns", "{tmp}/returns.csv", "--estimation-periods", "3"],
     {"returns.csv": "date,firm_return,market_return\n2005-01-03,0.01,0.02\n2005-01-04,0.02\n"
                     "2005-01-05,0.0,0.0\n2005-01-06,0.01,0.03\n"}, "ValueError", "row 3: market_return: missing"),
    (["regress", "--data", "{tmp}/regress.csv"],
     {"regress.csv": REGRESSION_ROLES + "y,a,s,t,r\n1,2,3,4,0\n2,1e999,1,2,1\n3,1,2,5,0\n"},
     "ValueError", "row 3: a: expected a finite"),
    (["event-study", "--returns", "{tmp}/returns.csv"],
     {"returns.csv": b"date,firm_return,market_return\n2005-01-03,0.01,\xff\n"}, "ValueError",
     "returns.csv: not UTF-8 text at byte 47"),
    (["value", "--comps", "{tmp}/comps.csv", "--target", str(DATA / "target.csv"),
      "--ranges", str(DATA / "ranges.ini")],
     {"comps.csv": "name,kind,ev_to_ebitda\n" + "x" * 200_000 + ",trading,9\n"}, "ValueError",
     "comps.csv: field larger than field limit"),
    (["simulate-wave", "--trend", "exponential", "--params", "1,1000", "--length", "50"],
     {}, "ValueError", ""),
    (["simulate-wave", "--trend", "quadratic", "--params", "1e300,0,0", "--sigma", "0", "--length", "100",
      "--series-out", "{tmp}/s.csv", "--plot-out", "{tmp}/p.csv", "--output", "{tmp}/r.json"],
     {}, "ValueError", "autocorrelation overflows"),
    (["ingest", "--deals", "{tmp}/deals.csv", "--measure", "value", "--series-out", "{tmp}/s.csv"],
     {"deals.csv": OVERFLOWING_DEALS}, "ValueError", "bucket 2012-01 overflows"),
    (["waves", "--deals", "{tmp}/deals.csv", "--measure", "value"],
     {"deals.csv": OVERFLOWING_DEALS}, "ValueError", "bucket 2012-01 overflows"),
    (["event-study", "--returns", "{tmp}/returns.csv", "--estimation-periods", "20"],
     {"returns.csv": OVERFLOWING_RETURNS}, "ValueError", "fit_market_model overflows"),
    (["regress", "--data", "{tmp}/regress.csv"],
     {"regress.csv": OVERFLOWING_REGRESSION}, "ValueError", "fit_takeover_regression overflows"),
    (["event-study", "--returns", "{tmp}/returns.csv", "--estimation-periods", "3"],
     {"returns.csv": "date,firm_return,market_return\n2005-01-03,0.01,0.02\n2005-01-05,0.02,0.01\n"
                     "2005-01-04,0.0,0.0\n2005-01-06,0.01,0.03\n"}, "ValueError", "row 4: date: 2005-01-04"),
    (["simulate-wave", "--trend", "linear", "--params", "2,5", "--sigma", "0", "--length", "3000"],
     {}, "ZeroVariance", "detrended series carries no power"),
    (["regress", "--data", "{tmp}/regress.csv"],
     {"regress.csv": REGRESSION_ROLES + "y,a,s,t,r\n1,2,3,4,0\n2,1,1,2,1\n3,1,2,5, 2\n"},
     "ValueError", "row 4: r: regime dummies must be 0/1, got 2"),
    (["regress", "--data", "{tmp}/regress.csv"],
     {"regress.csv": REGRESSION_ROLES + "y,a,s,t,r\n" + "x" * 200_000 + ",1,2,3,0\n"},
     "ValueError", "regress.csv: field larger than field limit"),
    (["value", "--comps", "{tmp}/comps.csv", "--target", str(DATA / "target.csv"),
      "--ranges", str(DATA / "ranges.ini")],
     {"comps.csv": "name,kind,ev_to_ebitda\nA,trading,9\nB,Transaction,8\n"}, "ValueError",
     "row 3: comparable 'B': kind must be trading or transaction, got 'Transaction'"),
], ids=["comps-without-name", "returns-without-market-return", "nan-target-metric",
        "inf-comp-multiple", "nan-firm-return", "short-returns-row", "overflowing-regressor",
        "returns-not-utf8", "oversized-cell", "overflowing-trend", "overflowing-analysis",
        "overflowing-ingest-total", "overflowing-waves-total", "overflowing-returns", "overflowing-regression",
        "swapped-dates", "noiseless-line", "regime-cell-2", "regress-oversized-cell", "comps-unknown-kind"])
def test_bad_input_exits_1_with_one_diagnostic(args, files, error, named, tmp_path, capsys):
    for name, text in files.items():
        path = tmp_path / name
        path.write_bytes(text) if isinstance(text, bytes) else path.write_text(text)
    code, out, err = run_main([a.format(tmp=tmp_path) for a in args], capsys)
    assert code == 1 and out == ""
    diagnostic = one_diagnostic(err)
    assert diagnostic["error"] == error
    assert named in diagnostic["message"]
    assert sorted(os.listdir(tmp_path)) == sorted(files), "a failed call wrote a file"


@pytest.mark.parametrize("args,names", [
    (VALUE_ARGS + ["--format", "xml"], "argument --format"),
    (["merge"], "argument command"),
    (VALUE_ARGS[:3], "arguments are required: --target, --ranges"),
    (["waves", "--deals", str(DATA / "swiss_deals_2012.csv"), "--window", "abc"], "argument --window"),
    (["simulate-wave", "--length", "1"], "argument --length"),
    (["simulate-wave", "--seed", "-1"], "argument --seed"),
    (["simulate-wave", "--sigma", "nan"], "argument --sigma"),
    (["simulate-wave", "--sigma", "inf"], "argument --sigma"),
    (VALUE_ARGS + ["--weights=inf,1"], "argument --weights"),
    (["simulate-wave", "--params", "nan"], "argument --params"),
    (["simulate-wave", "--plot-out", "{tmp}/missing/plot.csv"], "argument --plot-out"),
    # the 80-row returns_csv: the event must follow the estimation window and lie in the series
    (["event-study", "--returns", "{tmp}/returns.csv", "--event-index=-2", "--event-window", "3"],
     "--event-index -2"),
    (["event-study", "--returns", "{tmp}/returns.csv", "--estimation-periods", "70", "--event-index", "50"],
     "--event-index 50"),
    (["event-study", "--returns", "{tmp}/returns.csv", "--estimation-periods", "80"], "--event-index 80"),
    (["waves", "--deals", str(DATA / "swiss_deals_2012.csv"), "--sector", "XYZ"], "unrecognized arguments: --sector"),
    (["ingest", "--deals", str(DATA / "swiss_deals_2012.csv"), "--series-out", "{tmp}/s.csv", "--sector", "XYZ"],
     "unrecognized arguments: --sector"),
], ids=["format-xml", "unknown-subcommand", "missing-required", "window-abc", "length-1", "seed-negative",
        "sigma-nan", "sigma-inf", "weights-inf", "params-nan", "plot-out-missing-dir",
        "event-index-negative", "event-index-in-estimation", "event-index-past-end", "waves-sector",
        "ingest-sector"])
def test_bad_argument_exits_2_with_one_diagnostic(args, names, returns_csv, tmp_path, capsys):
    code, out, err = run_main([a.format(tmp=tmp_path) for a in args], capsys)
    assert code == 2 and out == ""
    diagnostic = one_diagnostic(err)
    assert diagnostic["error"] == "ConfigInvalid"
    assert names in diagnostic["message"]


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["--help"])
    assert exc_info.value.code == 0
    assert "simulate-wave" in capsys.readouterr().out


NUMPY_USERS = {"numpy", "dealdesk.deals", "dealdesk.waves", "dealdesk.economics", "dealdesk.regression"}


@pytest.mark.parametrize("args,absent", [
    (["--help"], NUMPY_USERS | {"dealdesk.comps"}),
    (VALUE_ARGS, NUMPY_USERS),
    (["event-study", "--returns", "{tmp}/returns.csv"], {"dealdesk.deals", "dealdesk.waves"}),
    (["regress", "--data", "{tmp}/regress.csv"], {"dealdesk.deals", "dealdesk.waves"}),
], ids=["help", "value", "event-study", "regress"])
def test_each_command_loads_only_the_modules_it_runs(args, absent, returns_csv, regress_csv, tmp_path):
    # a fresh interpreter: this one has imported every module already
    child = (
        "import json, sys\n"
        "from dealdesk.cli import main\n"
        "try:\n    status = main(sys.argv[1:])\nexcept SystemExit as exc:\n    status = exc.code\n"
        "print(json.dumps([status, sorted(sys.modules)]))"
    )
    result = subprocess.run(
        [sys.executable, "-c", child, *(a.format(tmp=tmp_path) for a in args)],
        capture_output=True, text=True, timeout=60,
    )
    status, loaded = json.loads(result.stdout.splitlines()[-1])
    assert status == 0, result.stderr
    assert absent.isdisjoint(loaded), sorted(absent.intersection(loaded))


# --- event-study ------------------------------------------------------------------

def test_event_study_recovers_model(returns_csv, capsys):
    payload = run_json(
        ["event-study", "--returns", str(returns_csv), "--estimation-periods", "60"], capsys
    )
    assert payload["kind"] == "event_study"
    assert abs(payload["fit"]["alpha"] - 0.01) < 1e-4
    assert abs(payload["fit"]["beta"] - 1.5) < 1e-4
    assert payload["estimation"] == {"start": 0, "stop": 60}
    # default event index = first row after estimation, window 1 either side
    assert payload["event"] == {"index": 60, "start": 59, "stop": 62}
    assert len(payload["abnormal_returns"]) == 3


def test_event_study_event_on_the_last_row_clips_its_window(returns_csv, capsys):
    payload = run_json(
        ["event-study", "--returns", str(returns_csv), "--event-index", "79", "--event-window", "2"], capsys
    )
    assert payload["event"] == {"index": 79, "start": 77, "stop": 80}


def test_event_study_estimation_longer_than_series_exits_2(returns_csv, capsys):
    code, _, err = run_main(
        ["event-study", "--returns", str(returns_csv), "--estimation-periods", "500"], capsys
    )
    assert code == 2
    assert json.loads(err)["error"] == "ConfigInvalid"


def test_event_study_too_few_estimation_periods_exits_2(returns_csv, capsys):
    code, _, _ = run_main(
        ["event-study", "--returns", str(returns_csv), "--estimation-periods", "2"], capsys
    )
    assert code == 2


# --- regress ------------------------------------------------------------------------

def test_regress_json_report(regress_csv, capsys):
    payload = run_json(["regress", "--data", str(regress_csv)], capsys)
    assert payload["kind"] == "regression"
    names = [c["name"] for c in payload["coefficients"]]
    assert names == ["intercept", "inst_a", "sec_a", "tec_a", "tec_a_x_reg_a"]
    by_name = {c["name"]: c for c in payload["coefficients"]}
    for name, truth in (("intercept", 0.5), ("inst_a", 1.0), ("sec_a", -0.5),
                        ("tec_a", 0.8), ("tec_a_x_reg_a", -0.2)):
        c = by_name[name]
        assert abs(c["estimate"] - truth) <= 4 * c["standard_error"], name
    assert payload["n_rows"] == 100


def test_regress_rank_deficiency_exits_1(tmp_path, capsys):
    lines = [
        "# role response = y",
        "# role institutional = a, b",
        "# role sectoral = s",
        "# role technological = t",
        "# role regime = r",
        "y,a,b,s,t,r",
    ]
    rng = np.random.default_rng(79)
    for _ in range(30):
        a = rng.normal()
        s, t = rng.normal(), rng.normal()
        r = int(rng.integers(0, 2))
        lines.append(f"{rng.normal()!r},{a!r},{2 * a!r},{s!r},{t!r},{r}")
    path = tmp_path / "collinear.csv"
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run_main(["regress", "--data", str(path)], capsys)
    assert code == 1
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "RankDeficient"
    assert "b" in diagnostic["message"]


# --- waves / ingest -------------------------------------------------------------------

def test_waves_on_fixture(capsys):
    payload = run_json(
        ["waves", "--deals", str(DATA / "swiss_deals_2012.csv"), "--window", "3",
         "--max-lag", "4", "--degree", "2"],
        capsys,
    )
    assert payload["kind"] == "waves"
    assert payload["records"] == 20
    assert payload["buckets"] == 12
    assert payload["value_exclusions"] == 7
    assert payload["malformed"] == []
    assert len(payload["diagnostics"]["autocorrelation"]) == 4


def test_waves_country_filter_can_empty_the_set(capsys):
    code, _, err = run_main(
        ["waves", "--deals", str(DATA / "swiss_deals_2012.csv"), "--target-country", "Narnia"],
        capsys,
    )
    assert code == 1
    assert json.loads(err)["error"] == "EmptyAfterFilter"


def test_ingest_writes_series(tmp_path, capsys):
    series_out = tmp_path / "series.csv"
    payload = run_json(
        ["ingest", "--deals", str(DATA / "swiss_deals_2012.csv"),
         "--series-out", str(series_out)],
        capsys,
    )
    assert payload["kind"] == "ingest"
    from dealdesk import load_count_series

    series = load_count_series(series_out)
    assert len(series) == 12
    assert sum(series.values) == 20.0
    assert series.timestamps[0] == "2012-01"


def test_ingest_value_measure(tmp_path, capsys):
    series_out = tmp_path / "values.csv"
    payload = run_json(
        ["ingest", "--deals", str(DATA / "swiss_deals_2012.csv"), "--measure", "value",
         "--series-out", str(series_out)],
        capsys,
    )
    from dealdesk import load_count_series

    series = load_count_series(series_out)
    assert payload["value_exclusions"] == 7
    assert 11850.0 <= max(series.values) < 60000.0


def ingest_one_bad_row(tmp_path, capsys, bad_row, *extra):
    deals_csv = tmp_path / "deals.csv"
    deals_csv.write_text(DEAL_HEADER + "Jan 2012,T,50,CH,B,DE,n/a,n/a,10\n" + bad_row + "\n")
    series_out = tmp_path / "series.csv"
    payload = run_json(["ingest", "--deals", str(deals_csv), *extra, "--series-out", str(series_out)], capsys)
    return payload, series_out.read_text()


@pytest.mark.parametrize("date", ["Feb 52012", "Jan 2012000", "Mar 2_012"])
def test_ingest_implausible_year_is_one_malformed_row(date, tmp_path, capsys):
    t0 = time.perf_counter()
    payload, series = ingest_one_bad_row(tmp_path, capsys, f"{date},T2,50,CH,B,DE,n/a,n/a,10")
    assert time.perf_counter() - t0 < 0.5
    assert payload["records"] == 1 and payload["buckets"] == 1
    (bad,) = payload["malformed"]
    assert bad["row_number"] == 3 and "year" in bad["reason"]
    assert series.splitlines()[1:] == ["2012-01,1.0"]


@pytest.mark.parametrize("cells", ["50,CH,B,DE,n/a,n/a,nan", "inf,CH,B,DE,n/a,n/a,10"])
def test_ingest_non_finite_number_is_one_malformed_row(cells, tmp_path, capsys):
    payload, series = ingest_one_bad_row(tmp_path, capsys, f"Feb 2012,T2,{cells}", "--measure", "value")
    (bad,) = payload["malformed"]
    assert "finite" in bad["reason"]
    assert series.splitlines()[1:] == ["2012-01,10.0"]


# --- simulate-wave ------------------------------------------------------------------------

def test_simulate_wave_deterministic_bytes(tmp_path):
    args = ["simulate-wave", "--trend", "ideal", "--params", "50", "--sigma", "4",
            "--length", "128", "--seed", "11", "--window", "8", "--max-lag", "12",
            "--degree", "4"]
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert main(args + ["--seed", "12", "--output", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    payload = json.loads(a.read_text())
    jsonschema.validate(payload, SCHEMA)
    assert payload["provenance"]["seed"] == 11


def test_simulate_wave_series_and_plot_files(tmp_path, capsys):
    series_out = tmp_path / "series.csv"
    plot_out = tmp_path / "plot.csv"
    payload = run_json(
        ["simulate-wave", "--length", "64", "--seed", "3", "--window", "6",
         "--series-out", str(series_out), "--plot-out", str(plot_out)],
        capsys,
    )
    from dealdesk import load_count_series

    raw = load_count_series(series_out)
    assert len(raw) == 64
    plot_lines = plot_out.read_text().splitlines()
    assert plot_lines[0] == "period,raw,smoothed,poly_fit"
    assert len(plot_lines) == 65
    # smoothed column blank until the first full window
    assert plot_lines[1].split(",")[2] == ""
    assert plot_lines[6].split(",")[2] != ""
    assert payload["diagnostics"]["window"] == 6


@pytest.mark.parametrize("args,written", [
    (["simulate-wave", "--length", "64", "--plot-out", "{tmp}/plot.csv"], ["plot.csv", "report.json", "series.csv"]),
    (["ingest", "--deals", str(DATA / "swiss_deals_2012.csv")], ["report.json", "series.csv"]),
], ids=["simulate-wave", "ingest"])
def test_output_files_are_lf_with_the_umask_mode(args, written, tmp_path, capsys):
    umask = os.umask(0o022)
    try:
        (tmp_path / "plain").open("w").close()
        code, _, err = run_main([a.format(tmp=tmp_path) for a in args]
                                + ["--series-out", str(tmp_path / "series.csv"),
                                   "--output", str(tmp_path / "report.json")], capsys)
    finally:
        os.umask(umask)
    assert code == 0, err
    series = (tmp_path / "series.csv").read_bytes()
    assert series.startswith(b"period,value\n") and b"\r" not in series
    assert sorted(os.listdir(tmp_path)) == ["plain", *written]
    plain_mode = stat.S_IMODE((tmp_path / "plain").stat().st_mode)
    for name in written:
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == plain_mode, name


def test_simulate_wave_param_count_mismatch_exits_2(capsys):
    code, _, err = run_main(["simulate-wave", "--trend", "linear", "--params", "1,2,3"], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "ConfigInvalid"


def test_simulate_wave_poisson_counts(capsys):
    payload = run_json(
        ["simulate-wave", "--noise", "poisson", "--params", "20", "--length", "64",
         "--seed", "5", "--window", "4", "--max-lag", "6", "--degree", "2"],
        capsys,
    )
    assert payload["noise"] == "poisson"


@pytest.mark.parametrize("args", [
    ["simulate-wave", "--length", "300", "--seed", "2"],
    ["waves", "--deals", str(DATA / "swiss_deals_2012.csv"), "--window", "3", "--max-lag", "4",
     "--degree", "2"],
])
def test_wave_reports_smooth_and_fit_once(args, monkeypatch, capsys):
    calls = {"moving_average": 0, "fit_polynomial": 0}
    for name in calls:
        def counted(*a, _name=name, _fn=getattr(waves, name), **kw):
            calls[_name] += 1
            return _fn(*a, **kw)
        monkeypatch.setattr(waves, name, counted)
    run_json(args, capsys)
    assert calls == {"moving_average": 1, "fit_polynomial": 1}


# --- installed entry point -----------------------------------------------------------------

def test_console_script_runs():
    result = subprocess.run(
        ["dealdesk", *VALUE_ARGS], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["kind"] == "valuation"


def test_module_invocation_runs():
    result = subprocess.run(
        [sys.executable, "-m", "dealdesk.cli", *VALUE_ARGS],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["kind"] == "valuation"
