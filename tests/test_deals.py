"""Deal-list parsing, serialization round trip, and bucketing."""
import csv
import io
import json
import pathlib
import random
import sys
import tracemalloc

import pytest

from dealdesk import (
    DealRecord,
    EmptyAfterFilterError,
    HeaderMismatchError,
    ParseResult,
    aggregate_deals,
    parse_deals,
    save_count_series,
    serialize_deals,
)
from dealdesk.cli import _deal_series, build_parser, main
from dealdesk.deals import _ABSENT, YEAR_RANGE, _parse_month_year, _parse_number

FIXTURE = pathlib.Path(__file__).parent / "data" / "swiss_deals_2012.csv"

HEADER = "announced_date,target,stake,target_country,bidder,bidder_country,seller,seller_country,value_usdm\n"


def parse_text(text):
    return parse_deals(io.StringIO(text))


def test_minimal_row_parses():
    result = parse_text(HEADER + "Apr 2012,Pfizer Nutrition,100,United States,Nestle SA,Switzerland,Pfizer Inc,United States,\"11,850.0\"\n")
    assert len(result.records) == 1
    r = result.records[0]
    assert r.announced == (2012, 4)
    assert r.stake_pct == 1.0
    assert r.value_usdm == 11850.0
    assert r.seller == "Pfizer Inc"
    assert result.malformed == () and result.warnings == ()


def test_absent_markers_are_none():
    for marker in ("n/a", "NA", "-", ""):
        result = parse_text(HEADER + f"Jan 2012,T,50,CH,B,DE,{marker},{marker},{marker}\n")
        r = result.records[0]
        assert r.seller is None and r.seller_country is None and r.value_usdm is None, marker


def test_stake_normalization():
    result = parse_text(
        HEADER
        + "Jan 2012,T,100,CH,B,DE,n/a,n/a,5\n"
        + "Feb 2012,T2,49.9,CH,B,DE,n/a,n/a,5\n"
        + "Mar 2012,T3,0.62,CH,B,DE,n/a,n/a,5\n"
        + "Apr 2012,T4,-,CH,B,DE,n/a,n/a,5\n"
    )
    stakes = [r.stake_pct for r in result.records]
    assert stakes == [1.0, 0.499, 0.62, None]


def test_month_parsing_accepts_full_names_case_insensitive():
    result = parse_text(
        HEADER
        + "January 2012,T,n/a,CH,B,DE,n/a,n/a,n/a\n"
        + "sep 2013,T2,n/a,CH,B,DE,n/a,n/a,n/a\n"
        + "DEC 2011,T3,n/a,CH,B,DE,n/a,n/a,n/a\n"
    )
    assert [r.announced for r in result.records] == [(2012, 1), (2013, 9), (2011, 12)]


def test_thousands_separators_stripped():
    result = parse_text(HEADER + 'May 2012,T,n/a,CH,B,DE,n/a,n/a,"40,212.6"\n')
    assert result.records[0].value_usdm == 40212.6


def test_malformed_rows_are_kept_as_diagnostics():
    result = parse_text(
        HEADER
        + "Apr 2012,Good,n/a,CH,B,DE,n/a,n/a,10\n"
        + "Not-a-date,Bad,n/a,CH,B,DE,n/a,n/a,10\n"
        + "May 2012,,n/a,CH,B,DE,n/a,n/a,10\n"
        + "Jun 2012,AlsoGood,n/a,CH,B,DE,n/a,n/a,junk\n"
    )
    assert len(result.records) == 1
    assert len(result.malformed) == 3
    assert result.malformed[0].row_number == 3
    assert "Mon YYYY" in result.malformed[0].reason
    assert result.malformed[1].row_number == 4
    assert "target" in result.malformed[1].reason
    assert result.malformed[2].raw["value_usdm"] == "junk"


def test_negative_value_is_malformed_not_dropped_silently():
    result = parse_text(HEADER + "Apr 2012,T,n/a,CH,B,DE,n/a,n/a,-5\n")
    assert result.records == ()
    assert len(result.malformed) == 1


def test_duplicates_kept_with_warning():
    row = "Apr 2012,T,50,CH,B,DE,n/a,n/a,10\n"
    result = parse_text(HEADER + row + row)
    assert len(result.records) == 2
    assert len(result.warnings) == 1
    assert "duplicate" in result.warnings[0]


# csv reads NUL from Python 3.11 on and refuses it before
READS_NUL = pytest.mark.skipif(sys.version_info < (3, 11), reason="csv refuses NUL before Python 3.11")


@READS_NUL
def test_duplicate_key_tells_apart_rows_a_nul_splits_differently(tmp_path):
    # both rows join to the same text on NUL, but their cells differ
    left = "Apr 2012,T,50,CH,B,DE,a\x00b,c,10\n"
    right = "Apr 2012,T,50,CH,B,DE,a,b\x00c,10\n"
    for rows, warned in (([left, right], []), ([left, left], [3]), ([right, left, right], [4])):
        path = tmp_path / "deals.csv"
        path.write_text(HEADER + "".join(rows), encoding="utf-8")
        want = [f"row {n}: exact duplicate of an earlier row, kept" for n in warned]
        result = parse_deals(path)
        assert list(result.warnings) == want and len(result.rows) == len(rows)
        block, _ = _deal_series(build_parser().parse_args(["waves", "--deals", str(path)]))
        assert block["warnings"] == want and block["records"] == len(rows)


def test_header_mismatch_lists_missing_columns():
    with pytest.raises(HeaderMismatchError) as exc_info:
        parse_text("announced_date,target\nApr 2012,T\n")
    assert "stake" in exc_info.value.missing
    assert "value_usdm" in exc_info.value.missing


def test_record_validation():
    with pytest.raises(ValueError):
        DealRecord(announced=(2012, 13), target="T", target_country="CH", bidder="B", bidder_country="DE")
    with pytest.raises(ValueError):
        DealRecord(announced=(2012, 1), target="T", target_country="CH", bidder="B",
                   bidder_country="DE", stake_pct=1.5)
    with pytest.raises(ValueError):
        DealRecord(announced=(2012, 1), target="T", target_country="CH", bidder="B",
                   bidder_country="DE", value_usdm=0.0)


BAD_FIELDS = [
    ("announced", (2012, 13), "announced month must be 1..12, got 13"),
    ("stake_pct", 0.0, r"stake_pct must be in \(0, 1\], got 0.0"),
    ("value_usdm", -1.0, "value_usdm must be positive when present, got -1.0"),
]
BUILDERS = {
    "constructor": lambda fields: DealRecord(**fields),
    "_make": lambda fields: DealRecord._make(fields.values()),
    "_replace": lambda fields: DealRecord(announced=(2012, 1), target="T", target_country="CH",
                                          bidder="B", bidder_country="DE")._replace(**fields),
}


@pytest.mark.parametrize("builder", BUILDERS)
@pytest.mark.parametrize("field, bad, message", BAD_FIELDS)
def test_every_way_of_building_a_record_checks_it(builder, field, bad, message):
    fields = {"announced": (2012, 1), "target": "T", "target_country": "CH", "bidder": "B",
              "bidder_country": "DE", "stake_pct": 0.5, "seller": None, "seller_country": None,
              "value_usdm": 10.0}
    assert BUILDERS[builder](fields) == tuple(fields.values())
    fields[field] = bad
    with pytest.raises(ValueError, match=f"^{message}$"):
        BUILDERS[builder](fields)


# --- year bound and finite numbers ---------------------------------------------

@pytest.mark.parametrize("year", ["52012", "2012000", "2_012", "+2012", "0212", "12",
                                  str(YEAR_RANGE[0] - 1), str(YEAR_RANGE[1] + 1)])
def test_implausible_year_is_malformed(year):
    result = parse_text(HEADER + "Jan 2012,T,n/a,CH,B,DE,n/a,n/a,5\n" + f"Feb {year},T2,n/a,CH,B,DE,n/a,n/a,5\n")
    assert [r.target for r in result.records] == ["T"]
    (bad,) = result.malformed
    assert bad.row_number == 3
    assert "year" in bad.reason and repr(year) in bad.reason
    assert bad.raw["announced_date"] == f"Feb {year}"


def test_year_range_ends_are_accepted():
    lo, hi = YEAR_RANGE
    result = parse_text(HEADER + f"Jan {lo},T,n/a,CH,B,DE,n/a,n/a,5\n" + f"Dec {hi},T2,n/a,CH,B,DE,n/a,n/a,5\n")
    assert [r.announced for r in result.records] == [(lo, 1), (hi, 12)]
    assert result.malformed == ()


def test_non_numeric_year_keeps_its_reason():
    with pytest.raises(ValueError, match="invalid literal for int"):
        _parse_month_year("Apr 20x2")


@pytest.mark.parametrize("column", ["stake", "value_usdm"])
@pytest.mark.parametrize("text", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
def test_non_finite_cell_is_malformed(column, text):
    cells = {"stake": "50", "value_usdm": "10"}
    cells[column] = text
    result = parse_text(HEADER + f"Apr 2012,T,{cells['stake']},CH,B,DE,n/a,n/a,{cells['value_usdm']}\n")
    assert result.records == ()
    (bad,) = result.malformed
    assert "finite" in bad.reason and bad.raw[column] == text


@pytest.mark.parametrize("text, reason", [
    ("1,e999", "expected a finite number, got '1e999'"),
    ("about,12", "could not convert string to float: 'about12'"),
    ("about ,", "could not convert string to float: 'about'"),
    ("1_000", "could not convert string to float: '1_000'"),
    ("\u0661\u0662", "could not convert string to float: '\u0661\u0662'"),
    ("\uff11,\uff12", "could not convert string to float: '\uff11\uff12'"),
])
def test_a_value_cell_is_named_without_its_thousands_separators(text, reason):
    result = parse_text(HEADER + f'Apr 2012,T,50,CH,B,DE,n/a,n/a,"{text}"\n')
    (bad,) = result.malformed
    assert bad.reason == reason and bad.raw["value_usdm"] == text


# --- the positional reader against csv.DictReader ------------------------------

_REFERENCE_ABSENT = {"", "-", "n/a", "na"}


def reference_parse(text):
    """parse_deals written over csv.DictReader rows, cell by cell: the
    row semantics the positional reader must reproduce."""
    records, malformed, warnings, seen = [], [], [], set()
    for number, row in enumerate(csv.DictReader(io.StringIO(text)), start=2):
        try:
            record = _reference_record(row)
        except ValueError as exc:
            malformed.append((number, str(exc), dict(row)))
            continue
        key = tuple(sorted((k, (v or "").strip()) for k, v in row.items() if k))
        if key in seen:
            warnings.append(f"row {number}: exact duplicate of an earlier row, kept")
        seen.add(key)
        records.append(record)
    return records, malformed, warnings


def _reference_record(row):
    def cell(name):
        return (row.get(name) or "").strip()

    def absent(name):
        return cell(name).lower() in _REFERENCE_ABSENT

    announced = _parse_month_year(cell("announced_date"))
    for name in ("target", "target_country", "bidder", "bidder_country"):
        if absent(name):
            raise ValueError(f"required field {name} is blank")
    stake = None if absent("stake") else _parse_number(cell("stake"))
    if stake is not None and stake > 1.0:
        stake /= 100.0
    return DealRecord(
        announced=announced,
        target=cell("target"),
        target_country=cell("target_country"),
        bidder=cell("bidder"),
        bidder_country=cell("bidder_country"),
        stake_pct=stake,
        seller=None if absent("seller") else cell("seller"),
        seller_country=None if absent("seller_country") else cell("seller_country"),
        value_usdm=None if absent("value_usdm") else _parse_number(cell("value_usdm")),
    )


def assert_same_as_reference(text):
    records, malformed, warnings = reference_parse(text)
    result = parse_text(text)
    assert list(result.records) == records
    assert [(m.row_number, m.reason, m.raw) for m in result.malformed] == malformed
    assert list(result.warnings) == warnings
    return result


GOOD = "Apr 2012,T,50,CH,B,DE,S,US,10\n"


def test_reader_matches_reference_on_short_and_long_rows():
    result = assert_same_as_reference(
        HEADER
        + "Apr 2012,T,50,CH,B,DE\n"                   # seller, seller_country, value missing
        + "Apr 2012,T,50,CH\n"                         # bidder missing: malformed, restval None
        + GOOD.rstrip("\n") + ",extra,cells\n"        # restkey None holds the extras
        + GOOD.rstrip("\n") + ",other\n"              # extras stay out of the duplicate key
        + "Apr 2012,T,50,CH,B,n/a,S,US,10,extra\n"    # malformed with extras
    )
    assert len(result.records) == 3 and len(result.warnings) == 1
    assert result.malformed[0].raw["bidder"] is None
    assert result.malformed[1].raw[None] == ["extra"]


def test_reader_matches_reference_across_blank_lines():
    result = assert_same_as_reference(HEADER + "\n" + GOOD + "\n\n" + "Foo 2012,T,50,CH,B,DE,S,US,10\n\n" + GOOD)
    assert result.malformed[0].row_number == 3
    assert result.warnings == ("row 4: exact duplicate of an earlier row, kept",)


def test_reader_matches_reference_on_quoted_commas_and_newlines():
    result = assert_same_as_reference(
        HEADER
        + 'Apr 2012,"Target, Inc.",50,CH,"Bidder\nHoldings",DE,S,US,"1,200.5"\n'
        + 'Apr 2012,"Target, Inc.",50,CH,"Bidder\nHoldings",DE,S,US,"1,200.5"\n'
        + 'May 2012,"T",50,CH,"B",DE,S,US,"1,2,x"\n'
    )
    assert result.records[0].bidder == "Bidder\nHoldings"
    assert len(result.warnings) == 1 and len(result.malformed) == 1


def test_reader_matches_reference_on_whitespace_only_duplicates():
    result = assert_same_as_reference(
        HEADER + GOOD + " Apr 2012 , T ,50, CH,B ,DE,S,US , 10\n" + "Apr 2012,T,50,CH,B,DE,S,US,10 \n"
    )
    assert len(result.records) == 3 and len(result.warnings) == 2


def test_reader_matches_reference_on_reordered_header():
    header = "value_usdm,seller_country,seller,bidder_country,bidder,target_country,stake,target,announced_date\n"
    result = assert_same_as_reference(header + "10,US,S,DE,B,CH,50,T,Apr 2012\n" + "x,US,S,DE,B,CH,50,T,Apr 2012\n")
    assert result.records[0].value_usdm == 10.0 and result.records[0].target == "T"
    assert result.malformed[0].raw["value_usdm"] == "x"


def test_reader_matches_reference_on_extra_column():
    header = HEADER.rstrip("\n") + ",deal_id\n"
    result = assert_same_as_reference(
        header + GOOD.rstrip("\n") + ",1\n" + GOOD.rstrip("\n") + ",2\n" + GOOD.rstrip("\n") + ",1\n"
    )
    assert len(result.warnings) == 1 and result.warnings[0].startswith("row 4:")


def test_reader_matches_reference_on_repeated_and_empty_header_names():
    header = "target," + HEADER.rstrip("\n") + ",,target\n"
    result = assert_same_as_reference(
        header
        + "X," + GOOD.rstrip("\n") + ",a,T\n"     # the last "target" wins
        + "Y," + GOOD.rstrip("\n") + ",b,T\n"     # differs only in the first "target" and the "" column
        + "Z," + GOOD.rstrip("\n") + ",c\n"       # the last "target" is missing: blank, malformed
        + "\n"
    )
    assert [r.target for r in result.records] == ["T", "T"]
    assert len(result.warnings) == 1
    assert result.malformed[0].raw["target"] is None and result.malformed[0].raw[""] == "c"


def test_reader_matches_reference_on_fixture():
    assert_same_as_reference(FIXTURE.read_text(encoding="utf-8"))


def generated_deal_list(rows, seed):
    """A deal list shaped like the benchmark's: some malformed rows, some
    exact copies, some without a value, cells with thousands separators."""
    rng = random.Random(seed)
    months = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
    countries = ("Switzerland", "Germany", "France", "United States")
    broken = (
        (0, "Foo 1999"), (0, "1999"), (0, "Mar 1899"), (4, "n/a"), (8, "about 12"),
        (8, "nan"), (2, "0"), (2, "inf"),
    )
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(HEADER.rstrip("\n").split(","))
    clean = []
    for i in range(rows):
        u = rng.random()
        if u < 0.01 and clean:
            writer.writerow(rng.choice(clean))
            continue
        row = [
            f"{rng.choice(months)} {rng.randrange(1980, 2020)}", f"Target {i}",
            rng.choice(("n/a", str(rng.randrange(5, 101)))), rng.choice(countries),
            f"Bidder {rng.randrange(500)}", rng.choice(countries),
            rng.choice(("-", f"Seller {rng.randrange(50)}")), rng.choice(("-", *countries)),
            rng.choice(("n/a", "-", "", f"{rng.uniform(1.0, 40_000.0):,.1f}")),
        ]
        if u < 0.03:
            column, text = rng.choice(broken)
            row[column] = text
        else:
            clean.append(row)
        writer.writerow(row)
    return buf.getvalue()


def test_reader_matches_reference_on_generated_list():
    result = assert_same_as_reference(generated_deal_list(5000, seed=3))
    assert len(result.records) + len(result.malformed) == 5000
    assert result.malformed and result.warnings


# A row failing two checks gets the reason of the one DealRecord(...) runs
# first: the required fields, then the stake and value parses, then the
# stake range, then the value sign.
@pytest.mark.parametrize("row, reason", [
    ("Apr 2012,T,150,CH,B,DE,S,US,x\n", "could not convert string to float: 'x'"),
    ("Apr 2012,T,0,CH,B,DE,S,US,-5\n", "stake_pct must be in (0, 1], got 0.0"),
    ("Apr 2012,T,abc,CH,,DE,S,US,10\n", "required field bidder is blank"),
])
def test_reader_matches_reference_on_rows_failing_two_checks(row, reason):
    result = assert_same_as_reference(HEADER + GOOD + row)
    assert [m.reason for m in result.malformed] == [reason]


def test_absent_set_is_every_casing_of_the_absent_tokens():
    for token in _REFERENCE_ABSENT:
        for mask in range(2 ** len(token)):
            cell = "".join(c.upper() if mask >> i & 1 else c for i, c in enumerate(token))
            assert cell in _ABSENT, cell
    for point in range(sys.maxunicode + 1):
        cell = chr(point)
        assert (cell in _ABSENT) == (cell.lower() in _REFERENCE_ABSENT), hex(point)
        # and no longer cell lower-cases to a token: outside ASCII, no
        # code point lower-cases to text holding a token's characters
        if point >= 128:
            assert not set(cell.lower()) & set("na/-"), hex(point)


# --- parsed rows and lazily built records ----------------------------------------

@pytest.fixture
def records_reads(monkeypatch):
    """Every ParseResult whose records are read while the test runs."""
    reads = []
    build = ParseResult.records.func
    monkeypatch.setattr(ParseResult, "records", property(lambda self: (reads.append(self), build(self))[1]))
    return reads


def test_records_are_built_once_on_first_access():
    text = generated_deal_list(500, seed=5)
    result = parse_text(text)
    assert "records" not in vars(result)  # parsing builds no DealRecord
    records = result.records
    assert result.records is records and vars(result)["records"] is records
    assert list(records) == reference_parse(text)[0]
    assert records == result.rows
    assert {type(r) for r in records} == {DealRecord} and {type(r) for r in result.rows} == {tuple}


@pytest.mark.parametrize("bucketing", ["month", "quarter", "year"])
def test_rows_and_records_bucket_alike(bucketing):
    result = parse_text(generated_deal_list(2000, seed=7))
    assert aggregate_deals(result.rows, bucketing) == aggregate_deals(result.records, bucketing)


def deal_list_files(tmp_path):
    generated = tmp_path / "generated.csv"
    generated.write_text(generated_deal_list(3000, seed=11), encoding="utf-8")
    return {"fixture": (FIXTURE, "Switzerland", "United States"), "generated": (generated, "France", "Germany")}


# --- the streamed CLI path ---------------------------------------------------------

def reference_deal_series(path, bucketing, measure, target=None, bidder=None):
    """The deal block and series of a waves call, built from parse_deals'
    rows, held whole and filtered in a list comprehension: the reference
    the streamed CLI path must match."""
    result = parse_deals(path)
    t, b = DealRecord._fields.index("target_country"), DealRecord._fields.index("bidder_country")
    kept = [row for row in result.rows if (not target or row[t] == target) and (not bidder or row[b] == bidder)]
    series = aggregate_deals(kept, bucketing)
    measured = series.counts if measure == "counts" else series.total_value
    block = {
        "bucketing": bucketing,
        "measure": measure,
        "records": len(result.rows),
        "malformed": [{"row_number": m.row_number, "reason": m.reason} for m in result.malformed],
        "warnings": list(result.warnings),
        "value_exclusions": series.value_exclusions,
        "buckets": len(measured),
    }
    return block, measured


@pytest.mark.parametrize("bucketing", ["month", "quarter", "year"])
@pytest.mark.parametrize("countries", [(0, None), (None, 1), (0, 1), ("Atlantis", None), (0, "Atlantis"),
                                       (None, None)])
def test_waves_country_filters_match_aggregate_deals(tmp_path, records_reads, capsys, bucketing, countries):
    for name, (path, *known) in deal_list_files(tmp_path).items():
        # an index picks a country the list holds; a name is one it does not
        target, bidder = (known[c] if isinstance(c, int) else c for c in countries)
        flags = [*(["--target-country", target] if target else []), *(["--bidder-country", bidder] if bidder else [])]
        for measure in ("counts", "value"):
            argv = ["waves", "--deals", str(path), "--bucketing", bucketing, "--measure", measure, *flags]
            try:
                want_block, want = reference_deal_series(path, bucketing, measure, target, bidder)
            except EmptyAfterFilterError as exc:
                code = main(argv)
                out, err = capsys.readouterr()
                assert (code, out, json.loads(err)) == (1, "", exc.to_diagnostic()), name
                continue
            block, measured = _deal_series(build_parser().parse_args(argv))
            assert block == want_block, name
            assert measured.timestamps == want.timestamps, name
            assert measured.values.tolist() == want.values.tolist(), name
        assert records_reads == [], name  # neither the CLI nor the reference builds DealRecords


@pytest.mark.parametrize("bucketing", ["month", "quarter", "year"])
@pytest.mark.parametrize("measure", ["counts", "value"])
def test_streamed_ingest_report_and_series_match_the_parsed_rows(tmp_path, capsys, bucketing, measure):
    for name, (path, *_) in deal_list_files(tmp_path).items():
        out, ref = tmp_path / "series.csv", tmp_path / "reference.csv"
        code = main(["ingest", "--deals", str(path), "--bucketing", bucketing, "--measure", measure,
                     "--series-out", str(out)])
        report = json.loads(capsys.readouterr().out)
        want_block, want = reference_deal_series(path, bucketing, measure)
        save_count_series(want, ref)
        assert code == 0, name
        assert {key: report[key] for key in want_block} == want_block, name
        assert out.read_bytes() == ref.read_bytes(), name


def test_the_waves_deal_path_holds_the_kept_rows_not_the_whole_list(tmp_path):
    # What the path may hold: each kept row with its cells and a list slot;
    # each malformed row as its MalformedRow, its raw cells by column and
    # its report entry, which 2 KB covers for these short rows; and per
    # distinct clean row one duplicate key, its cells joined into a string
    # no larger than the row's line, plus its share of the set's table.
    # Here that is about 6.9 MB; the path peaks near 3.8 MB, and near 12 MB
    # when it holds every clean row before filtering.
    path = tmp_path / "deals.csv"
    text = generated_deal_list(20_000, seed=13)
    path.write_text(text, encoding="utf-8")
    result = parse_deals(path)
    args = build_parser().parse_args(["waves", "--deals", str(path),
                                      "--target-country", "France", "--bidder-country", "Germany"])
    kept = [row for row in result.rows if row[2] == "France" and row[4] == "Germany"]
    lines = text.splitlines()[1:]
    clean = {n for n, _ in enumerate(lines, start=2)} - {m.row_number for m in result.malformed}
    distinct_lines = {lines[n - 2] for n in clean}
    assert len(distinct_lines) == len(result.rows) - len(result.warnings)
    bound = (
        2**19
        + sum(sys.getsizeof(row) + sum(map(sys.getsizeof, row)) + 8 for row in kept)
        + 2048 * len(result.malformed)
        + sum(sys.getsizeof(line) + 128 for line in distinct_lines)
    )
    _deal_series(args)  # a first call loads and caches what any call needs
    tracemalloc.start()
    try:
        block, _ = _deal_series(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block["records"] == len(result.rows) > 10 * len(kept) > 0
    assert peak < bound, (peak, bound)


# --- fixture ------------------------------------------------------------------

def test_fixture_parses_clean():
    result = parse_deals(FIXTURE)
    assert len(result.records) == 20
    assert result.malformed == ()
    assert result.warnings == ()


def test_fixture_known_rows():
    result = parse_deals(FIXTURE)
    by_target = {r.target: r for r in result.records}
    pfizer = by_target["Pfizer Nutrition"]
    assert pfizer.announced == (2012, 4)
    assert pfizer.value_usdm == 11850.0
    assert pfizer.bidder == "Nestle SA"
    absent_values = sum(1 for r in result.records if r.value_usdm is None)
    assert absent_values == 7
    absent_stakes = sum(1 for r in result.records if r.stake_pct is None)
    assert absent_stakes == 2


def test_fixture_round_trip_is_fixed_point():
    first = parse_deals(FIXTURE)
    buf = io.StringIO()
    serialize_deals(first.records, buf)
    buf.seek(0)
    second = parse_deals(buf)
    assert second.records == first.records
    assert second.malformed == ()

    buf2 = io.StringIO()
    serialize_deals(second.records, buf2)
    buf3 = io.StringIO()
    serialize_deals(first.records, buf3)
    assert buf2.getvalue() == buf3.getvalue()


def test_serialized_stakes_parse_back_unchanged():
    # a stake of at most 1 reads as a fraction, so one written as a percent
    # of 1 or less (0.5% as 0.5) would read back a hundred times larger
    rng = random.Random(19)
    stakes = [0.005, 0.01, 0.013, 5e-324, 1.0] + [1.0 - rng.random() for _ in range(2000)]
    records = [DealRecord(announced=(2012, 1), target=f"T{i}", target_country="CH", bidder="B",
                          bidder_country="DE", stake_pct=stake) for i, stake in enumerate(stakes)]
    buf = io.StringIO()
    serialize_deals(records, buf)
    buf.seek(0)
    result = parse_deals(buf)
    assert result.malformed == ()
    assert [r.stake_pct for r in result.records] == stakes


# --- bucketing ------------------------------------------------------------------

def deal(year, month, value=None, target="T", country="CH"):
    return DealRecord(announced=(year, month), target=target, target_country=country,
                      bidder="B", bidder_country="DE", value_usdm=value)


def test_monthly_bucketing_zero_fills_gaps():
    series = aggregate_deals([deal(2012, 1, 10.0), deal(2012, 4, 20.0), deal(2012, 4)], "month")
    assert series.counts.timestamps == ("2012-01", "2012-02", "2012-03", "2012-04")
    assert series.counts.values.tolist() == [1.0, 0.0, 0.0, 2.0]
    assert series.total_value.values.tolist() == [10.0, 0.0, 0.0, 20.0]
    assert series.value_exclusions == 1


def test_quarterly_and_yearly_bucketing():
    deals = [deal(2011, 11, 5.0), deal(2012, 2, 10.0), deal(2012, 3, 7.0), deal(2012, 8, 1.0)]
    q = aggregate_deals(deals, "quarter")
    assert q.counts.timestamps == ("2011Q4", "2012Q1", "2012Q2", "2012Q3")
    assert q.counts.values.tolist() == [1.0, 2.0, 0.0, 1.0]
    y = aggregate_deals(deals, "year")
    assert y.counts.timestamps == ("2011", "2012")
    assert y.total_value.values.tolist() == [5.0, 18.0]


def test_bucket_spans_cross_year_boundaries():
    series = aggregate_deals([deal(2011, 12, 1.0), deal(2012, 1, 2.0)], "month")
    assert series.counts.timestamps == ("2011-12", "2012-01")


def test_counts_sum_matches_kept_deals_property():
    import numpy as np

    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(1, 40))
        deals = [
            deal(int(rng.integers(2010, 2014)), int(rng.integers(1, 13)),
                 float(rng.uniform(1, 100)) if rng.random() < 0.7 else None)
            for _ in range(n)
        ]
        for bucketing in ("month", "quarter", "year"):
            series = aggregate_deals(deals, bucketing)
            assert sum(series.counts.values) == n
            expected_total = sum(d.value_usdm for d in deals if d.value_usdm is not None)
            np.testing.assert_allclose(sum(series.total_value.values), expected_total, rtol=1e-12)
            assert series.value_exclusions == sum(1 for d in deals if d.value_usdm is None)


def test_predicate_filters_and_empty_filter_raises():
    deals = [deal(2012, 1, 5.0, country="CH"), deal(2012, 2, 5.0, country="DE")]
    swiss = aggregate_deals(deals, "month", predicate=lambda d: d.target_country == "CH")
    assert sum(swiss.counts.values) == 1
    with pytest.raises(EmptyAfterFilterError):
        aggregate_deals(deals, "month", predicate=lambda d: d.target_country == "FR")


def test_fixture_monthly_counts():
    result = parse_deals(FIXTURE)
    series = aggregate_deals(result.records, "month")
    assert len(series.counts) == 12
    assert sum(series.counts.values) == 20.0
    assert series.value_exclusions == 7
