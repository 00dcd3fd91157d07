"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed and size: the same seed
writes the same bytes, so a workload's inputs can be named by seed and
checked by sha256. Each returns the facts the output checks need (row
counts and the expected tallies the program must reproduce).
"""
from __future__ import annotations

import csv
import datetime
import hashlib
import math
import random

DEAL_COLUMNS = (
    "announced_date", "target", "stake", "target_country", "bidder",
    "bidder_country", "seller", "seller_country", "value_usdm",
)
COUNTRIES = (
    "Switzerland", "Germany", "France", "United States",
    "United Kingdom", "Italy", "Netherlands", "Sweden",
)
MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
FIRST_YEAR = 1980
YEARS = 40  # 480 month buckets; every year is plausible for a real deal list
MALFORMED_SHARE = 0.02
DUPLICATE_SHARE = 0.01
NO_VALUE_SHARE = 0.30

# Each malformed row breaks exactly one rule parse_deals enforces.
_MALFORMED = (
    ("announced_date", "Foo {year}"),   # unknown month
    ("announced_date", "{year}"),       # not 'Mon YYYY'
    ("bidder", "n/a"),                  # blank required field
    ("value_usdm", "about 12"),         # not a number
    ("stake", "0"),                     # stake outside (0, 1]
)


def sha256_of(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def target_country(seed: int) -> str:
    """The --target-country filter for a seed: one of eight, about 1/8 of records."""
    return COUNTRIES[random.Random(seed).randrange(len(COUNTRIES))]


def deal_list(path, seed: int, rows: int = 200_000) -> dict:
    """Write a deal-list CSV spanning FIRST_YEAR..FIRST_YEAR+YEARS-1.

    About 2% of rows are malformed, 1% are exact copies of an earlier
    clean row and 30% of clean rows carry no value. The first and last
    rows are clean deals in the seed's target country, dated in the
    first and last month, so the filtered series always spans
    YEARS * 12 buckets.
    """
    rng = random.Random(seed)
    country = target_country(seed)
    last = rows - 1
    clean: list[list[str]] = []
    counts = {"malformed": 0, "duplicates": 0, "no_value": 0, "kept": 0, "kept_no_value": 0}

    def clean_row(i: int) -> list[str]:
        if i == 0:
            year, month, where = FIRST_YEAR, 0, country
        elif i == last:
            year, month, where = FIRST_YEAR + YEARS - 1, 11, country
        else:
            year, month = FIRST_YEAR + rng.randrange(YEARS), rng.randrange(12)
            where = COUNTRIES[rng.randrange(len(COUNTRIES))]
        stake = str(rng.randrange(5, 101)) if rng.random() < 0.7 else "n/a"
        seller = f"Seller {rng.randrange(3000)}" if rng.random() < 0.6 else "-"
        if rng.random() < NO_VALUE_SHARE:
            value = ("n/a", "-", "")[rng.randrange(3)]
        else:
            value = f"{rng.uniform(1.0, 40_000.0):,.1f}"
        return [
            f"{MONTHS[month]} {year}", f"Target {i:07d}", stake, where,
            f"Bidder {rng.randrange(20_000)}", COUNTRIES[rng.randrange(len(COUNTRIES))],
            seller, "-" if seller == "-" else COUNTRIES[rng.randrange(len(COUNTRIES))], value,
        ]

    def tally(row: list[str]) -> None:
        no_value = row[8] in ("n/a", "-", "")
        counts["no_value"] += no_value
        if row[3] == country:
            counts["kept"] += 1
            counts["kept_no_value"] += no_value

    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(DEAL_COLUMNS)
        for i in range(rows):
            u = rng.random()
            if 0 < i < last and u < MALFORMED_SHARE:
                row = clean_row(i)
                column, template = _MALFORMED[rng.randrange(len(_MALFORMED))]
                row[DEAL_COLUMNS.index(column)] = template.format(year=FIRST_YEAR + rng.randrange(YEARS))
                counts["malformed"] += 1
            elif 0 < i < last and u < MALFORMED_SHARE + DUPLICATE_SHARE and clean:
                row = clean[rng.randrange(len(clean))]
                counts["duplicates"] += 1
                tally(row)
            else:
                row = clean_row(i)
                clean.append(row)
                tally(row)
            writer.writerow(row)
    return {
        "rows": rows,
        "records": rows - counts["malformed"],
        "malformed": counts["malformed"],
        "duplicates": counts["duplicates"],
        "no_value": counts["no_value"],
        "kept": counts["kept"],
        "kept_no_value": counts["kept_no_value"],
        "target_country": country,
        "years": [FIRST_YEAR, FIRST_YEAR + YEARS - 1],
        "buckets": YEARS * 12,
        "sha256": sha256_of(path),
    }


def returns(path, seed: int, rows: int = 10_000) -> dict:
    """Write a daily date,firm_return,market_return CSV from a market model."""
    rng = random.Random(seed)
    alpha, beta = rng.uniform(-0.0005, 0.0005), rng.uniform(0.5, 1.5)
    start = datetime.date(1990, 1, 1)
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["date", "firm_return", "market_return"])
        for i in range(rows):
            market = rng.gauss(0.0004, 0.01)
            firm = alpha + beta * market + rng.gauss(0.0, 0.005)
            writer.writerow([(start + datetime.timedelta(days=i)).isoformat(), f"{firm:.8f}", f"{market:.8f}"])
    return {"rows": rows, "sha256": sha256_of(path)}


_REGRESSION_BLOCKS = (("institutional", 5), ("sectoral", 2), ("technological", 2), ("regime", 2))


def regression_data(path, seed: int, rows: int = 400) -> dict:
    """Write a role-tagged regression CSV whose design has 12 columns.

    Intercept, 5 institutional, 2 sectoral and 2 technological columns,
    plus the technology block interacted with 2 regime dummies.
    """
    rng = random.Random(seed)
    names = {block: [f"{block[:4]}_{j + 1}" for j in range(width)] for block, width in _REGRESSION_BLOCKS}
    beta = [rng.uniform(-2.0, 2.0) for _ in range(12)]
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write("# role response = frequency\n")
        for block, cols in names.items():
            f.write(f"# role {block} = {', '.join(cols)}\n")
        f.write("# intercept = true\n")
        writer = csv.writer(f)
        writer.writerow(["frequency", *(c for cols in names.values() for c in cols)])
        for _ in range(rows):
            inst = [rng.gauss(0, 1) for _ in range(5)]
            sec = [rng.gauss(0, 1) for _ in range(2)]
            tec = [rng.gauss(0, 1) for _ in range(2)]
            reg = [float(rng.random() < 0.5) for _ in range(2)]
            design = [1.0, *inst, *sec, *tec, *(t * r for t, r in zip(tec, reg))]
            y = math.fsum(b * x for b, x in zip(beta, design)) + rng.gauss(0.0, 0.01)
            writer.writerow([repr(v) for v in (y, *inst, *sec, *tec, *reg)])
    return {"rows": rows, "design_columns": 12, "sha256": sha256_of(path)}
