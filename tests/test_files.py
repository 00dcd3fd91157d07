"""Path-or-stream opening and CSV header checks: every loader and writer
goes through one helper for each."""
import io
import pathlib
import re

import pytest

from dealdesk import (
    ConfigInvalidError,
    CountSeries,
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
from dealdesk._files import open_text

SRC = pathlib.Path(__file__).parent.parent / "src" / "dealdesk"

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
    users = sorted(p.name for p in SRC.glob("*.py") if "__fspath__" in p.read_text(encoding="utf-8"))
    assert users == ["_files.py"]


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
