"""Reference node statistics for the Enterprise Europe Network (EEN).

The shipped CSV holds country-level statistics of the EEN partnership
graph (49 countries, partnership agreements signed January 2011 through
October 2012). The underlying edge list was never published, so these
numbers are reference data: they can be validated for internal consistency
but NOT regenerated from raw inputs. The same applies to the whole-network
constants in EEN_REFERENCE.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import InputError

FIXTURE_RESOURCE = "een_node_stats.csv"
NUMBER_COLUMNS = ("clustering", "closeness", "betweenness", "eigenvector")
COLUMNS = ("country", "code", "degree", *NUMBER_COLUMNS)

# published whole-network values; non-regenerable, see module docstring
EEN_REFERENCE = {
    "n": 49,
    "m": 351,
    "raw_agreements": 2019,
    "average_path_length": 1.82,
    "global_clustering": 0.66,
    "power_law_gamma": 2.79,
    "lambda2": -0.66,
}


@dataclass(frozen=True)
class FixtureRow:
    country: str
    code: str
    degree: int
    clustering: float
    closeness: float
    betweenness: float
    eigenvector: float


@dataclass(frozen=True)
class FixtureCheck:
    name: str
    passed: bool
    detail: str


@dataclass
class FixtureValidation:
    checks: list[FixtureCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def load_fixture(path: str | Path | None = None) -> list[FixtureRow]:
    """Read the node-statistics fixture; defaults to the packaged copy.
    Undecodable text, a header that lacks a column (an empty file lacks
    all), a malformed value or a field over csv's size limit is an
    InputError naming the file."""
    if path is None:
        file = resources.files("netsync").joinpath("data", FIXTURE_RESOURCE)
    else:
        file = Path(path)
    try:
        text = file.read_text()
    except UnicodeDecodeError as exc:
        raise InputError(f"{file}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    reader = csv.DictReader(text.splitlines())
    rows = []
    try:
        missing = [key for key in COLUMNS if key not in (reader.fieldnames or ())]
        if not missing:
            for rec in reader:
                numbers = (float(rec[key]) for key in NUMBER_COLUMNS)
                rows.append(FixtureRow(rec["country"], rec["code"], int(rec["degree"]), *numbers))
    except (csv.Error, TypeError, ValueError) as exc:
        # the line csv last read, also when it failed to split that line
        raise InputError(f"{file}:{reader.reader.line_num}: {exc}") from None
    if missing:
        raise InputError(f"{file}: missing column {', '.join(map(repr, missing))}")
    return rows


def validate_fixture(rows: list[FixtureRow]) -> FixtureValidation:
    """Internal-consistency checks of the fixture against the published
    whole-network constants; one pass/fail entry per check."""
    checks: list[FixtureCheck] = []

    expected_n = EEN_REFERENCE["n"]
    checks.append(
        FixtureCheck(
            "row_count",
            len(rows) == expected_n,
            f"{len(rows)} rows, expected {expected_n}",
        )
    )

    degree_sum = sum(r.degree for r in rows)
    expected_sum = 2 * EEN_REFERENCE["m"]
    checks.append(
        FixtureCheck(
            "degree_sum",
            degree_sum == expected_sum,
            f"sum of degrees {degree_sum}, expected {expected_sum} (2m)",
        )
    )

    eig_in_range = all(0.0 <= r.eigenvector <= 1.0 for r in rows)
    checks.append(
        FixtureCheck(
            "eigenvector_range",
            eig_in_range,
            "all eigenvector scores within [0, 1]"
            if eig_in_range
            else "eigenvector score outside [0, 1]",
        )
    )

    ones = [r.code for r in rows if r.eigenvector == 1.0]
    checks.append(
        FixtureCheck(
            "eigenvector_normalization",
            len(ones) == 1,
            f"rows at exactly 1.00: {ones or 'none'}",
        )
    )

    clust_in_range = all(0.0 <= r.clustering <= 1.0 for r in rows)
    checks.append(
        FixtureCheck(
            "clustering_range",
            clust_in_range,
            "all clustering coefficients within [0, 1]"
            if clust_in_range
            else "clustering coefficient outside [0, 1]",
        )
    )

    leaves = [r for r in rows if r.degree == 1]
    leaf_ok = all(r.clustering == 0.0 for r in leaves)
    checks.append(
        FixtureCheck(
            "leaf_clustering",
            leaf_ok,
            f"{len(leaves)} degree-1 rows, clustering "
            + ("all 0.00" if leaf_ok else "non-zero found"),
        )
    )

    return FixtureValidation(checks)
