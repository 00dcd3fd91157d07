"""Output checks for benchmark operations.

Each check raises CheckFailed with a one-line reason; an operation
counts as failed when any check on it raises.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import jsonschema


class CheckFailed(Exception):
    """An operation's output is wrong."""


def expect(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def process(status: int, stderr: bytes) -> None:
    """Every call exits 0 and writes nothing to stderr."""
    expect(status == 0, f"exit status {status}: {stderr[:200]!r}")
    expect(not stderr, f"stderr not empty: {stderr[:200]!r}")


class ReportCheck:
    """Parses a report and validates it against the repository's schema."""

    def __init__(self, schema_path: Path):
        schema = json.loads(Path(schema_path).read_text(encoding="utf-8"))
        self._validator = jsonschema.Draft202012Validator(schema)

    def __call__(self, data: bytes, kind: str) -> dict:
        try:
            report = json.loads(data)
        except ValueError as exc:
            raise CheckFailed(f"report is not JSON: {exc}") from None
        error = next(iter(self._validator.iter_errors(report)), None)
        expect(error is None, f"report fails the schema: {error and error.message[:200]}")
        expect(report.get("kind") == kind, f"report kind {report.get('kind')!r}, expected {kind!r}")
        return report


def same_bytes(first: bytes, again: bytes, what: str) -> None:
    expect(first == again, f"{what} differs between runs of the same inputs")


def deal_report(report: dict, facts: dict) -> None:
    """Ingestion tallies match what the generator wrote."""
    rows = report["records"] + len(report["malformed"])
    expect(rows == facts["rows"], f"records + malformed = {rows}, generated {facts['rows']} rows")
    for key, got in (
        ("malformed", len(report["malformed"])),
        ("duplicates", len(report["warnings"])),
        ("buckets", report["buckets"]),
        ("kept_no_value", report["value_exclusions"]),
    ):
        expect(got == facts[key], f"{key}: report has {got}, generated {facts[key]}")


def series_csv(path: Path, length: int) -> None:
    """The series CSV reads back through waves.load_count_series with `length` finite values."""
    from dealdesk import waves

    try:
        series = waves.load_count_series(path)
    except (ValueError, KeyError) as exc:
        raise CheckFailed(f"series CSV does not load: {exc!r}") from None
    expect(len(series) == length, f"series CSV has {len(series)} values, expected {length}")
    expect(all(map(math.isfinite, series.values)), "series CSV holds a non-finite value")


def plot_csv(path: Path, length: int) -> None:
    """The plot CSV has a header plus `length` rows, each of 4 cells."""
    with open(path, newline="", encoding="utf-8") as f:
        rows = 0
        for rows, row in enumerate(csv.reader(f), start=1):
            expect(len(row) == 4, f"plot CSV row {rows} has {len(row)} cells")
    expect(rows == length + 1, f"plot CSV has {rows} rows, expected {length + 1}")
