import hashlib
import json
import os

import pytest

from dealdesk import round_millions, round_multiple, round_per_share
from dealdesk._files import digests, open_text
from dealdesk.comps import MultipleRange, TargetProfile, run_valuation
from dealdesk.report import (
    canonical_json,
    provenance,
    valuation_payload,
    valuation_text,
    write_atomic,
    write_rows_atomic,
)

TARGET = TargetProfile(
    name="sample", metrics={"ltm_ebitda": 88.0, "fy_ebitda": 102.0, "capacity": 0.6},
    net_debt=250.0, shares_outstanding=55.7,
)

RANGES = {
    "trading": [MultipleRange("ltm_ebitda", 9.5, 10.5), MultipleRange("fy_ebitda", 7.0, 8.0)],
    "transaction": [MultipleRange("ltm_ebitda", 12.0, 12.5), MultipleRange("capacity", 1300.0, 1400.0)],
}


def test_round_millions_half_up():
    assert round_millions(846.5) == 847.0
    assert round_millions(846.49) == 846.0
    assert round_millions(845.5) == 846.0  # half-up, not banker's
    assert round_millions(-0.5) == -1.0
    assert round_millions(920.0) == 920.0


def test_round_multiple_half_even_on_the_literal():
    assert round_multiple(12.26) == 12.3
    assert round_multiple(11.05) == 11.0  # ties to even on the decimal string
    assert round_multiple(11.15) == 11.2
    assert round_multiple(10.325) == 10.3  # not a tie: 0.025 above 10.3
    assert round_multiple(1.275) == 1.3
    assert round_multiple(12.4) == 12.4


def test_round_multiple_known_table_values():
    # trimmed mean of (12.4, 11.4, 9.7, 13.3, 14.5) -> 37.1/3 = 12.3666...
    assert round_multiple(37.1 / 3) == 12.4
    assert round_multiple(12.26) == 12.3
    assert round_multiple(61.3 / 5) == 12.3


def test_round_per_share_floors_to_nickel():
    assert round_per_share(10.7091) == 10.70
    assert round_per_share(12.0287) == 12.00
    assert round_per_share(10.75) == 10.75
    assert round_per_share(10.7499) == 10.70
    assert round_per_share(0.04) == 0.0


def test_rounding_is_idempotent():
    for fn, xs in (
        (round_millions, (846.5, 1.0, -3.2, 919.9)),
        (round_multiple, (12.26, 11.05, 9.74)),
        (round_per_share, (10.7091, 12.0287, 55.55)),
    ):
        for x in xs:
            assert fn(fn(x)) == fn(x)


def test_valuation_text_contains_the_chain():
    summary = run_valuation(TARGET, RANGES)
    text = valuation_text(summary, target_name="Sample Target")
    assert "Summary Valuation: Sample Target" in text
    assert "Summary Enterprise Value Range" in text
    assert "847 - 920" in text
    assert "Less: Net Debt" in text
    assert "597 - 670" in text
    assert "10.70 - 12.00" in text


def test_valuation_payload_display_block():
    summary = run_valuation(TARGET, RANGES)
    payload = valuation_payload(summary)
    assert payload["display"]["summary_enterprise_range"] == {"low": 847.0, "high": 920.0}
    assert payload["display"]["equity_range"] == {"low": 597.0, "high": 670.0}
    assert payload["display"]["per_share_range"] == {"low": 10.70, "high": 12.00}
    assert payload["summary_enterprise_range"] == {"low": 846.5, "high": 920.0}
    assert len(payload["rows"]) == 4


def test_canonical_json_is_stable_and_sorted():
    a = canonical_json({"b": 1, "a": {"d": 2, "c": 3}})
    b = canonical_json({"a": {"c": 3, "d": 2}, "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert a.index('"a"') < a.index('"b"')
    json.loads(a)


def test_write_atomic_and_digest(tmp_path):
    path = tmp_path / "out.json"
    write_atomic(path, canonical_json({"x": 1}))
    assert json.loads(path.read_text()) == {"x": 1}
    write_atomic(path, canonical_json({"x": 2}))
    assert json.loads(path.read_text()) == {"x": 2}
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]
    digest = read_digest(path)
    assert len(digest) == 64 and digest == read_digest(path) == hashlib.sha256(path.read_bytes()).hexdigest()


def read_digest(path):
    """The digest a ``digests`` block records for ``path``, read as a loader reads it."""
    with digests() as read, open_text(path) as stream:
        stream.read()
    return read[str(path)]


def test_write_rows_atomic_quotes_embedded_commas(tmp_path):
    path = tmp_path / "rows.csv"
    write_rows_atomic(path, ["a", "b"], [["1,5"], ["x"]])
    text = path.read_text()
    assert '"1,5"' in text
    import csv as csv_mod

    with open(path, newline="") as f:
        rows = list(csv_mod.reader(f))
    assert rows == [["a", "b"], ["1,5", "x"]]


def test_provenance_block_shape(tmp_path):
    f1 = tmp_path / "one.csv"
    f1.write_text("a,b\n1,2\n")
    block = provenance({"comps": read_digest(f1)}, seed=42)
    assert block["version"]
    assert block["seed"] == 42
    assert set(block["inputs"]) == {"comps"}
    assert block["inputs"]["comps"] == hashlib.sha256(f1.read_bytes()).hexdigest()
    assert "timestamp" not in block
    no_seed = provenance({"comps": read_digest(f1)})
    assert "seed" not in no_seed


def test_provenance_changes_with_content(tmp_path):
    f1 = tmp_path / "one.csv"
    f1.write_text("a\n1\n")
    before = provenance({"x": read_digest(f1)})
    f1.write_text("a\n2\n")
    after = provenance({"x": read_digest(f1)})
    assert before["inputs"]["x"] != after["inputs"]["x"]
