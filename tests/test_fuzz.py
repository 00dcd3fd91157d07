"""Property test of the CLI contract: whatever the input file or flag
holds, a call either exits 0 with a schema-valid report, or exits 1 or 2
with exactly one JSON diagnostic on stderr and nothing on stdout.

Each command runs in-process through ``cli.main``. The examples are
derandomized and no example database is kept, so runs repeat exactly.
"""
import atexit
import contextlib
import io
import json
import pathlib
import shutil
import tempfile

import jsonschema
import pytest
from hypothesis import configuration, given, settings
from hypothesis import strategies as st

from dealdesk.cli import main

DATA = pathlib.Path(__file__).parent / "data"
SCHEMA = json.loads((pathlib.Path(__file__).parent.parent / "schemas" / "report.schema.json").read_text())

# Hypothesis caches the constants it reads from the source in its home
# directory, ``.hypothesis/`` in the working directory by default. Its pytest
# plugin does so as collection ends, so the home moves at import, out of the
# checkout.
_HOME = tempfile.mkdtemp(prefix="hypothesis-")
atexit.register(shutil.rmtree, _HOME, ignore_errors=True)
configuration.set_hypothesis_home_dir(_HOME)

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=80)

# Any code point UTF-8 can encode, as st.text()'s default alphabet has it,
# without the codec table that alphabet takes two seconds to build.
CHARACTER = st.characters(exclude_categories=["Cs"])

# Cells near the edges of what the loaders accept, plus arbitrary short text.
CELL = st.one_of(
    st.sampled_from([
        "", " ", "0", "1", "-1", "0.5", "12", "100", "1e308", "-1e308", "1e-320", "1,5", "nan", "inf",
        "1_000", "\u0661\u0662\u0663", "\uff11\uff12",
        "n/a", "-", "trading", "transaction", "fiscal-year", "quarter", "2005-01-03", "Jan 2012", "Feb 1899",
    ]),
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.text(CHARACTER, max_size=6),
)
ROW = st.lists(CELL, max_size=7).map(",".join)


def csv_text(header: str, row=ROW, max_rows: int = 12):
    return st.lists(row, max_size=max_rows).map(lambda rows: "\n".join([header, *rows]) + "\n")


def any_text(*structured):
    """Arbitrary text or bytes, or text shaped like the file the command reads."""
    return st.one_of(st.text(CHARACTER), st.binary(), *structured)


# returns whose dates increase, so the fit is reached
RETURNS = st.lists(st.tuples(CELL, CELL), max_size=30).map(
    lambda rows: "date,firm_return,market_return\n"
    + "".join(f"2005-{1 + i // 28:02d}-{1 + i % 28:02d},{f},{m}\n" for i, (f, m) in enumerate(rows))
)
REGRESSION = st.tuples(st.sampled_from(["", "# intercept = false\n"]),
                       csv_text("y,a,s,t,r", st.lists(CELL, min_size=5, max_size=5).map(",".join), 20)).map(
    lambda parts: "# role response = y\n# role institutional = a\n# role sectoral = s\n"
                  "# role technological = t\n# role regime = r\n" + "".join(parts)
)
DEALS = csv_text("announced_date,target,stake,target_country,bidder,bidder_country,seller,seller_country,value_usdm",
                 st.lists(CELL, max_size=10).map(",".join), 20)
RANGES = st.lists(st.tuples(st.sampled_from(["[trading]", "[transaction]", "[other]", ""]),
                            st.sampled_from(["ltm_ebitda", "fy2006_ebitda", "annual_capacity", "ev"]),
                            CELL, CELL, st.sampled_from(["", " equity", " x"])), max_size=4).map(
    lambda entries: "".join(f"{section}\n{metric} = {lo}..{hi}{basis}\n"
                            for section, metric, lo, hi, basis in entries)
)

# subcommand, the flag that names the fuzzed file, other arguments, and what the file holds
FILE_COMMANDS = {
    "value-comps": (["value", "--target", str(DATA / "target.csv"), "--ranges", str(DATA / "ranges.ini")],
                    "--comps", any_text(csv_text("name,kind,date,ev_to_ebitda,ltm_ebitda"))),
    "value-target": (["value", "--comps", str(DATA / "comps.csv"), "--ranges", str(DATA / "ranges.ini")],
                     "--target", any_text(csv_text("name,net_debt,shares_outstanding,ltm_ebitda,annual_capacity"))),
    "value-ranges": (["value", "--comps", str(DATA / "comps.csv"), "--target", str(DATA / "target.csv")],
                     "--ranges", any_text(RANGES)),
    "event-study": (["event-study", "--estimation-periods", "3"], "--returns", any_text(RETURNS)),
    "regress": (["regress"], "--data", any_text(REGRESSION)),
    "waves": (["waves", "--window", "2", "--max-lag", "2", "--degree", "2"], "--deals", any_text(DEALS)),
    "ingest": (["ingest", "--measure", "value", "--series-out", "{dir}/series.csv"], "--deals", any_text(DEALS)),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def check_contract(argv):
    """Run one call and assert the contract holds for it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == ""
        report = json.loads(out, parse_constant=lambda token: pytest.fail(f"{token} in the report"))
        jsonschema.validate(report, SCHEMA)
    else:
        assert code in (1, 2) and out == ""
        diagnostic, end = json.JSONDecoder().raw_decode(err)
        assert err[end:] == "\n", err
        assert set(diagnostic) == {"error", "message"}, diagnostic


@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_any_input_file_keeps_the_contract(command, workdir):
    args, flag, contents = FILE_COMMANDS[command]
    path = workdir / f"{command}.in"

    @FUZZ
    @given(contents)
    def run(data):
        path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
        check_contract([a.format(dir=workdir) for a in args] + [flag, str(path)])

    run()
    assert not list(workdir.glob(".tmp-*")), "a temp file was left behind"


NUMBER = st.one_of(st.floats().map(repr), st.integers(-400, 400).map(str), st.text(CHARACTER, max_size=6))


@FUZZ
@given(
    trend=st.sampled_from(["ideal", "linear", "quadratic", "exponential"]),
    params=st.one_of(st.none(), st.lists(NUMBER, min_size=1, max_size=4).map(",".join)),
    sigma=NUMBER,
    noise=st.sampled_from(["gaussian", "poisson"]),
)
def test_any_simulation_flags_keep_the_contract(trend, params, sigma, noise):
    argv = ["simulate-wave", "--length", "64", "--trend", trend, "--noise", noise, f"--sigma={sigma}"]
    if params is not None:
        argv.append(f"--params={params}")
    check_contract(argv)
