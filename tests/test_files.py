"""Path-or-stream opening and CSV header checks: every loader and writer
goes through one helper for each."""
import csv
import io
import os
import pathlib
import re
from types import SimpleNamespace

import numpy as np
import pytest

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
from dealdesk._files import open_text, write_rows
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
    "write_rows_atomic": lambda dest: write_rows_atomic(dest, [["x"]]),
}


def rows_then_fail(rows):
    yield from rows
    raise RuntimeError("interrupted")


FAILING_WRITERS = {
    "serialize_deals": lambda dest: serialize_deals(
        rows_then_fail(parse_deals(DATA / "swiss_deals_2012.csv").records[:2]), dest),
    "save_count_series": lambda dest: save_count_series(
        SimpleNamespace(timestamps=rows_then_fail(["1", "2"]), values=np.array([1.0, 2.0, 3.0])), dest),
    "write_atomic": lambda dest: write_atomic(dest, None),
    "write_rows_atomic": lambda dest: write_rows_atomic(dest, rows_then_fail([["a", "b"], ["1", "2"]])),
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
    write_rows(buffer, [["a\rb", "c\nd", 'e"f', "g,h", " i ", None, 1.5, np.float64(0.1), 1e16, 7, "n/a"]])
    assert buffer.getvalue() == '"a\rb","c\nd","e""f","g,h", i ,,1.5,0.1,1e+16,7,n/a\n'


def test_a_nul_cell_round_trips_or_raises_value_error():
    # csv writes NUL from Python 3.11 on and refuses it before
    buffer = io.StringIO(newline="")
    try:
        write_rows(buffer, [["a\x00b"]])
    except ValueError:
        return
    buffer.seek(0)
    assert list(csv.reader(buffer)) == [["a\x00b"]]


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
    # and the only one that writes CSV rows
    for word in ("__fspath__", "csv.writer"):
        users = sorted(p.name for p in SRC.glob("*.py") if word in p.read_text(encoding="utf-8"))
        assert users == ["_files.py"], word


# Loaders that index rows by column name: a CSV lacking some of the columns
# each needs, and the columns it lacks. parse_deals has its own test.
HEADERS = {
    "load_comparables": (load_comparables, "kind,ev_to_ebitda\ntrading,9\n", ("name",)),
    "load_return_series": (load_return_series, "date,firm_return\n2005-01-03,0.01\n",
                           ("market_return",)),
    "load_count_series": (load_count_series, "period,count\n1,2\n", ("value",)),
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
    "load_period_statements": (load_period_statements,
                               "period_label,period_kind,start_date,end_date,revenue\n"
                               "FY2005,fiscal-year,2005-01-01,2005-12-31,400\n\n"
                               "FY2006,fiscal-year,2006-01-01,2006-12-31,x\n",
                               "revenue: could not convert"),
    "load_regression_spec": (load_regression_spec,
                             "# role response = y\n# role institutional = a\n# role sectoral = s\n"
                             "# role technological = t\n# role regime = r\ny,a,s,t,r\n"
                             "1,2,3,4,0\n\n2,1,nan,2,1\n",
                             "s: expected a finite"),
}


@pytest.mark.parametrize("name", BAD_ROWS)
def test_bad_data_row_is_named(name):
    loader, text, reason = BAD_ROWS[name]
    with pytest.raises(ValueError) as exc_info:
        loader(io.StringIO(text))
    assert str(exc_info.value).startswith(f"row 3: {reason}")
