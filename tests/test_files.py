"""Path-or-stream opening and CSV header checks: every loader and writer
goes through one helper for each."""
import ast
import codecs
import csv
import io
import os
import pathlib
import re
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dealdesk import (
    ConfigInvalidError,
    CountSeries,
    DealRecord,
    HeaderMismatchError,
    load_comparables,
    load_count_series,
    load_period_statements,
    load_ranges,
    load_regression_spec,
    load_return_series,
    load_snapshots,
    load_target,
    parse_deals,
    save_count_series,
    serialize_deals,
)
from dealdesk._files import _ROWS_PER_WRITE, open_text, write_rows
from dealdesk.deals import REQUIRED_COLUMNS
from dealdesk.report import write_atomic, write_rows_atomic

SRC = pathlib.Path(__file__).parent.parent / "src" / "dealdesk"
DATA = pathlib.Path(__file__).parent / "data"

# Every public reader and writer of a path, each called with a directory.
OPENERS = {
    "load_comparables": load_comparables,
    "load_target": load_target,
    "load_ranges": load_ranges,
    "parse_deals": parse_deals,
    "load_return_series": load_return_series,
    "load_regression_spec": load_regression_spec,
    "load_snapshots": load_snapshots,
    "load_period_statements": load_period_statements,
    "load_count_series": load_count_series,
    "serialize_deals": lambda dest: serialize_deals([], dest),
    "save_count_series": lambda dest: save_count_series(CountSeries(("2012-01",), (1.0,)), dest),
}


@pytest.mark.parametrize("name", OPENERS)
def test_directory_path_raises_config_invalid(name, tmp_path):
    with pytest.raises(ConfigInvalidError, match=re.escape(str(tmp_path))):
        OPENERS[name](tmp_path)


# Every public writer of a path, each called with a directory, and each
# handed content that fails part way through.
WRITERS = {
    **{name: OPENERS[name] for name in ("serialize_deals", "save_count_series")},
    "write_atomic": lambda dest: write_atomic(dest, "x\n"),
    "write_rows_atomic": lambda dest: write_rows_atomic(dest, ["x"], []),
}


class Interrupting:
    """A cell whose text cannot be made, placed after the first block of
    rows: its ``str`` checks that the temp file beside ``dest`` already
    holds that block, then raises."""

    def __init__(self, dest):
        self.dest = dest

    def __str__(self):
        temps = [p for p in self.dest.parent.iterdir() if p.name.startswith(".tmp-")]
        assert [p.stat().st_size > 0 for p in temps] == [True]
        raise RuntimeError("interrupted")


def serialize_interrupted_deals(dest):
    deal = parse_deals(DATA / "swiss_deals_2012.csv").records[0]
    serialize_deals((deal,) * _ROWS_PER_WRITE + (deal._replace(target=Interrupting(dest)),), dest)


FAILING_WRITERS = {
    "serialize_deals": serialize_interrupted_deals,
    "save_count_series": lambda dest: save_count_series(
        SimpleNamespace(timestamps=("1",) * _ROWS_PER_WRITE + (Interrupting(dest),),
                        values=np.ones(_ROWS_PER_WRITE + 1)), dest),
    "write_atomic": lambda dest: write_atomic(dest, None),
    "write_rows_atomic": lambda dest: write_rows_atomic(
        dest, ["a", "b"], [["1"] * (_ROWS_PER_WRITE + 1), ["2"] * _ROWS_PER_WRITE + [Interrupting(dest)]]),
}


@pytest.mark.parametrize("name", WRITERS)
def test_directory_destination_raises_config_invalid_and_leaves_no_temp_file(name, tmp_path):
    dest = tmp_path / "out"
    dest.mkdir()
    with pytest.raises(ConfigInvalidError, match=re.escape(str(dest))):
        WRITERS[name](dest)
    assert os.listdir(tmp_path) == ["out"] and os.listdir(dest) == []


@pytest.mark.parametrize("name", FAILING_WRITERS)
def test_failed_write_leaves_the_destination_as_it_was(name, tmp_path):
    dest = tmp_path / "out.csv"
    dest.write_bytes(b"earlier,bytes\r\n")
    with pytest.raises((RuntimeError, TypeError)):
        FAILING_WRITERS[name](dest)
    assert dest.read_bytes() == b"earlier,bytes\r\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_writers_stream_lf_rows_to_open_streams_too():
    buffer = io.StringIO()
    save_count_series(CountSeries(("1", "2"), (1.0, 2.5)), buffer)
    assert buffer.getvalue() == "period,value\n1,1.0\n2,2.5\n"


def test_write_rows_formats_every_cell():
    buffer = io.StringIO(newline="")
    write_rows(buffer, ["a\rb", "c\nd", 'e"f', "g,h", " i ", None, 1.5, np.float64(0.1), 1e16, 7, "n/a"], [])
    assert buffer.getvalue() == '"a\rb","c\nd","e""f","g,h", i ,,1.5,0.1,1e+16,7,n/a\n'


def test_a_nul_cell_round_trips_or_raises_value_error():
    # csv writes NUL from Python 3.11 on and refuses it before
    buffer = io.StringIO(newline="")
    try:
        write_rows(buffer, ["a\x00b"], [])
    except ValueError:
        return
    buffer.seek(0)
    assert list(csv.reader(buffer)) == [["a\x00b"]]


def oracle_csv(header, columns) -> str:
    """The rows as the writer wrote them through csv.writer: CRLF endings,
    since csv before 3.13 quotes a CR cell only with CR in its row ending,
    each cut to LF."""
    rows = []
    lf_rows = SimpleNamespace(write=lambda row: rows.append(row[:-2] + "\n"))
    csv.writer(lf_rows, lineterminator="\r\n").writerows([header, *zip(*columns)])
    return "".join(rows)


def assert_same_text(got: str, want: str) -> None:
    # around the first difference only: pytest's diff of two long texts takes minutes
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    assert got[max(at - 40, 0):at + 40] == want[max(at - 40, 0):at + 40], f"first difference at {at}"


# csv writes NUL from Python 3.11 on and refuses it before
TEXT_CELLS = st.text(st.sampled_from(',"\r\n ab' + ("\x00" if sys.version_info >= (3, 11) else "")), max_size=4)
CELLS = st.one_of(
    TEXT_CELLS, st.none(), st.floats(), st.integers(), st.booleans(),
    st.sampled_from([np.float64(0.1), np.float64(-2.5), -0.0, 1e16, 5e-324, "", "None"]),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.integers(1, 6).flatmap(lambda width: st.tuples(
    st.lists(CELLS, min_size=width, max_size=width),
    st.lists(st.lists(CELLS, min_size=width, max_size=width), min_size=1, max_size=4),
    st.lists(st.lists(CELLS, min_size=width, max_size=width), max_size=3),
    st.sampled_from([0, 1, 2, 3, _ROWS_PER_WRITE - 1, _ROWS_PER_WRITE, _ROWS_PER_WRITE + 1]),
)))
def test_write_rows_writes_what_csv_writer_wrote(case):
    # ``lead`` rows repeat up to the ``tail`` rows, which end the file, so
    # at a block boundary a cell that needs quoting may sit in the last block only
    header, lead, tail, length = case
    rows = ([lead[i % len(lead)] for i in range(length)] + tail)[len(tail):]
    columns = [list(column) for column in zip(*rows)] or [[] for _ in header]
    buffer = io.StringIO(newline="")
    write_rows(buffer, header, columns)
    assert_same_text(buffer.getvalue(), oracle_csv(header, columns))


def test_no_write_holds_more_than_one_block_of_rows():
    class Recorder:
        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)

    stream = Recorder()
    length = 2 * _ROWS_PER_WRITE + 1
    write_rows(stream, ("n", "text"), (range(length), ["a\nb"] * length))
    assert [text.count("\n") for text in stream.writes] == [1, 2 * _ROWS_PER_WRITE, 2 * _ROWS_PER_WRITE, 2]
    assert_same_text("".join(stream.writes), oracle_csv(("n", "text"), (range(length), ["a\nb"] * length)))


def test_write_rows_refuses_columns_of_unequal_length():
    with pytest.raises(ValueError, match="unequal length"):
        write_rows(io.StringIO(), ("a", "b"), ([1, 2], [3]))


def test_cells_holding_cr_read_back():
    deal = DealRecord(announced=(2012, 1), target="Foo\rBar AG", target_country="CH",
                      bidder="B\r\nC", bidder_country="DE", stake_pct=0.5, value_usdm=12.5)
    buffer = io.StringIO(newline="")
    serialize_deals([deal], buffer)
    buffer.seek(0)
    result = parse_deals(buffer)
    assert result.records == (deal,) and result.malformed == ()

    series = CountSeries(("a\rb", "c"), (1.0, 2.0))
    buffer = io.StringIO(newline="")
    save_count_series(series, buffer)
    assert buffer.getvalue() == 'period,value\n"a\rb",1.0\nc,2.0\n'
    buffer.seek(0)
    assert load_count_series(buffer) == series


@pytest.mark.parametrize("name", [n for n in OPENERS if n.startswith(("load_", "parse_"))])
def test_undecodable_path_raises_value_error_naming_it(name, tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"name,kind\nZ\xfcrich,trading\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: not UTF-8 text at byte 11")):
        OPENERS[name](path)


@pytest.mark.parametrize("offset", [0, 8191, 8192, 70000])
def test_undecodable_byte_offset_counts_from_the_file_start(offset, tmp_path):
    # Line by line, as the csv module reads, the text layer decodes 8 KiB
    # chunks; "é" takes two bytes, so at offset 8191 it straddles the first.
    path = tmp_path / "x.csv"
    path.write_bytes(b"a" * offset + "é".encode() + b"\xff" + b"b" * 100)
    with pytest.raises(ValueError, match=f"at byte {offset + 2}:"):
        with open_text(path) as f:
            for _ in f:
                pass


@pytest.mark.parametrize("offset", [0, 8188, 70000])
def test_undecodable_byte_offset_counts_a_byte_order_mark(offset, tmp_path):
    # the mark takes three bytes, so at offset 8188 "é" straddles the first chunk
    path = tmp_path / "x.csv"
    path.write_bytes(codecs.BOM_UTF8 + b"a" * offset + "é".encode() + b"\xff" + b"b" * 100)
    with pytest.raises(ValueError, match=f"at byte {offset + 5}:"):
        with open_text(path) as f:
            for _ in f:
                pass


def test_open_stream_passes_through_and_stays_open():
    stream = io.StringIO("a,b\n")
    with open_text(stream) as got:
        assert got is stream
    assert not stream.closed


def test_path_is_opened_as_utf8_and_closed(tmp_path):
    path = tmp_path / "x.csv"
    with open_text(path, "w") as f:
        f.write("Zürich\r\n")
    with open_text(str(path)) as f:
        assert f.read() == "Zürich\r\n"
    assert f.closed


def test_only_the_helper_module_tells_paths_from_streams():
    # and the only one that writes CSV rows, which it does without csv.writer
    texts = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    for word in ("__fspath__", "def write_rows(", "csv.DictReader"):
        assert sorted(name for name, text in texts.items() if word in text) == ["_files.py"], word
    assert [name for name, text in texts.items() if "csv.writer" in text] == []


def test_no_module_reads_another_modules_private_name():
    # The benchmark's spans wrap public module attributes only, so a call
    # through a private name runs unseen.
    modules = {p.stem for p in SRC.glob("*.py")}
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                names = [node.attr]
            else:
                continue
            private = [name for name in names if name.startswith("_") and not name.endswith("__")]
            assert private == [], f"{path.name}:{node.lineno}"


REGRESSION_ROLES = ("# role response = y\n# role institutional = a\n# role sectoral = s\n"
                    "# role technological = t\n# role regime = r\n")

# Every CSV loader, with a header it accepts and a row it loads.
CSV_LOADERS = {
    "parse_deals": (parse_deals, ",".join(REQUIRED_COLUMNS), "Apr 2012,T,50,CH,B,DE,S,US,10"),
    "load_count_series": (load_count_series, "period,value", "2012-01,1"),
    "load_return_series": (load_return_series, "date,firm_return,market_return", "2005-01-03,0.01,0.02"),
    "load_comparables": (load_comparables, "name,kind,ev_to_ebitda", "A,trading,9"),
    "load_target": (load_target, "name,net_debt,shares_outstanding", "t,250,55.7"),
    "load_snapshots": (load_snapshots, "as_of_date,revenue", "2005-12-31,400"),
    "load_period_statements": (load_period_statements, "period_label,period_kind,start_date,end_date",
                               "FY2005,fiscal-year,2005-01-01,2005-12-31"),
    "load_regression_spec": (load_regression_spec, REGRESSION_ROLES + "y,a,s,t,r", "1,2,3,4,0"),
}

# Every text loader, with a file it loads.
LOADED_FILES = {
    **{name: (loader, f"{header}\n{row}\n") for name, (loader, header, row) in CSV_LOADERS.items()},
    "load_ranges": (load_ranges, "[trading]\nltm_ebitda = 9.5..10.5\n"),
}


@pytest.mark.parametrize("name", LOADED_FILES)
def test_a_path_starting_with_a_byte_order_mark_loads_as_the_text_after_it(name, tmp_path):
    # spreadsheet "CSV UTF-8" exports start with one
    loader, text = LOADED_FILES[name]
    path = tmp_path / "exported.csv"
    path.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
    assert loader(path) == loader(io.StringIO(text))


@pytest.mark.parametrize("name", CSV_LOADERS)
def test_a_cell_csv_refuses_raises_value_error_from_a_stream_as_from_a_path(name, tmp_path):
    loader, header, _ = CSV_LOADERS[name]
    text = f"{header}\n{'x' * 200_000},1\n"
    with pytest.raises(ValueError, match=r"^field larger than field limit \(131072\)$"):
        loader(io.StringIO(text))
    path = tmp_path / "big.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: field larger than field limit"):
        loader(path)


# Loaders that index rows by column name: a CSV lacking some of the columns
# each needs, and the columns it lacks. parse_deals has its own test.
HEADERS = {
    "load_comparables": (load_comparables, "kind,ev_to_ebitda\ntrading,9\n", ("name",)),
    "load_return_series": (load_return_series, "date,firm_return\n2005-01-03,0.01\n",
                           ("market_return",)),
    "load_count_series": (load_count_series, "period,count\n1,2\n", ("value",)),
    "load_snapshots": (load_snapshots, "revenue\n400\n", ("as_of_date",)),
    "load_period_statements": (load_period_statements, "period_label,revenue\nFY2005,400\n",
                               ("period_kind", "start_date", "end_date")),
}


@pytest.mark.parametrize("name", HEADERS)
def test_missing_columns_raise_header_mismatch(name):
    loader, text, missing = HEADERS[name]
    with pytest.raises(HeaderMismatchError) as exc_info:
        loader(io.StringIO(text))
    assert exc_info.value.missing == missing
    assert isinstance(exc_info.value, ValueError)


# Loaders that fail on a data row: a CSV whose row 3 is bad, after a good
# row 2 and a blank line, which is not counted, as parse_deals counts rows.
BAD_ROWS = {
    "load_comparables": (load_comparables, "name,kind,ev_to_ebitda\nA,trading,9\n\nB,trading,nan\n",
                         "ev_to_ebitda: expected a finite"),
    "load_return_series": (load_return_series,
                           "date,firm_return,market_return\n2005-01-03,0.01,0.02\n\n2005-01-04,0.01\n",
                           "market_return: missing"),
    "load_count_series": (load_count_series, "period,value\n2012-01,1\n\n2012-02,inf\n",
                          "value: expected a finite"),
    "load_snapshots": (load_snapshots, "as_of_date,revenue\n2005-12-31,400\n\n2006-12-31,1e999\n",
                       "revenue: expected a finite"),
    "load_snapshots-blank-date": (load_snapshots, "as_of_date,revenue\n2005-12-31,400\n\n ,500\n",
                                  "as_of_date: missing"),
    "load_period_statements": (load_period_statements,
                               "period_label,period_kind,start_date,end_date,revenue\n"
                               "FY2005,fiscal-year,2005-01-01,2005-12-31,400\n\n"
                               "FY2006,fiscal-year,2006-01-01,2006-12-31,x\n",
                               "revenue: could not convert"),
    "load_regression_spec": (load_regression_spec,
                             REGRESSION_ROLES + "y,a,s,t,r\n"
                             "1,2,3,4,0\n\n2,1,nan,2,1\n",
                             "s: expected a finite"),
}


@pytest.mark.parametrize("name", BAD_ROWS)
def test_bad_data_row_is_named(name):
    loader, text, reason = BAD_ROWS[name]
    with pytest.raises(ValueError) as exc_info:
        loader(io.StringIO(text))
    assert str(exc_info.value).startswith(f"row 3: {reason}")


# Loaders that read a date or an integer cell: a CSV whose row 2 holds a
# bad one, and the whole diagnostic, which names the column.
BAD_DATES = {
    "load_return_series": (load_return_series, "date,firm_return,market_return\n2005/01/03,0.01,0.02\n",
                           "row 2: date: Invalid isoformat string: '2005/01/03'"),
    "load_comparables": (load_comparables, "name,kind,date,ev_to_ebitda\nA,trading,12 May 2005,9\n",
                         "row 2: date: Invalid isoformat string: '12 May 2005'"),
    "load_snapshots": (load_snapshots, "as_of_date,revenue\n31.12.2005,400\n",
                       "row 2: as_of_date: Invalid isoformat string: '31.12.2005'"),
    "load_snapshots-fiscal-year-end": (load_snapshots, "as_of_date,fiscal_year_end_month\n2005-12-31,Sep\n",
                                       "row 2: fiscal_year_end_month: invalid literal for int() with base 10: 'Sep'"),
    "load_period_statements": (load_period_statements, "period_label,period_kind,start_date,end_date\n"
                               "FY2005,fiscal-year,2005-01-01,Q4 2005\n",
                               "row 2: end_date: Invalid isoformat string: 'Q4 2005'"),
}


@pytest.mark.parametrize("name", BAD_DATES)
def test_bad_date_or_integer_cell_names_its_column(name):
    loader, text, message = BAD_DATES[name]
    with pytest.raises(ValueError) as exc_info:
        loader(io.StringIO(text))
    assert str(exc_info.value) == message
