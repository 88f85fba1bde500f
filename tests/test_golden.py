"""Golden hashes: the JSON record stream of every ``numsgps verify`` id at
its default grid is pinned byte for byte.

Any change to a record's value, key order or formatting changes a digest.
Update a digest only together with a deliberate change to the records.
The theorem-main stream is also pinned with its float ``residual`` removed,
so a change to the root evaluation can move the residuals but nothing else.
``numsgps quotient`` is pinned the same way, in json and in table form (the
table shows the order of the formula entries), on inputs that together
fill every formula entry of its report.
"""

import contextlib
import hashlib
import io
import json
from functools import lru_cache

import pytest

from numsgps import cli
from numsgps.verify import THEOREM_IDS

GOLDEN_SHA256 = {
    "theorem-main": "ace815dcbfaf1ca39ef86dd112c9092126863027b952cd788527116823a7fd5d",
    "ed2-closed-form": "6833673ccb76655c33c6f3c269a45a00e65bb907452f6683751948441b011aa4",
    "sylvester": "8ae3551840ff8a5372572764785e928ed2f860b3d4810ef9d7318fca3bf360f8",
    "d2-constant": "63a7e5cfbaca76de0b7fb83c84f49acba841f68ba3cbf969a63ea22ad6f5b065",
    "quasipoly": "d7774d7dd530aa72a7c22b3e58b2001e7595bf01566aa4a088b4128323312802",
    "strazzanti": "5832cdb88f873cf29eaaf74d6ae3aee1b9f1ca4937dea129c0cc397183df5e74",
    "ap3-symmetric": "4cc3f9fa4d4d9a4848db95d51d08ac0b3e666830303a5e1d96292e3c1b6e30a4",
    "ap3-even-d": "4c6a26b03657a9fc718fc8adb23f59c7fc3c9a7055cfe8bc615fd9d95011782c",
    "ap3-odd-a": "d5d102252cb582999fcf6ca6a63197e9291fd447c2d681848f0c34e0dbfc3fc8",
    "full-ap": "5a068decf61fe2b4ce21b00ea705f80d93b2ee74de146f467ef71bd88fba11c5",
    "full-ap-dk": "c46a06713d591a27d1c3fc73ac942ea40cba3e97a1e35ad4d767a7f1891a51d8",
    "root-identity": "64fd32f7950b4d5966099b00903ecd3dc250193b6a6c5fe207154349069c1e14",
}

THEOREM_MAIN_WITHOUT_RESIDUAL_SHA256 = (
    "4df5b834b285f1c8c01da37c6ad023543e3b5b9c1013378fd210ef20ace74bae"
)

QUOTIENT_SHA256 = "20f90c48c12a9819c74fa0d504261a7c7f21a36ff63c34e02ba1510470d63f63"

QUOTIENT_INPUTS = (
    (6, 7, 8),
    (15, 17, 19),
    (12, 17, 22),
    (9, 11, 13),
    (8, 11),
    tuple(7 + 3 * i for i in range(7)),  # full progression, a = 7, k = 3
    tuple(10 + 3 * i for i in range(10)),  # full progression, a = 10, k = 3
    (4, 6, 9),
)


def test_every_theorem_id_is_pinned():
    assert set(GOLDEN_SHA256) == set(THEOREM_IDS)


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_verify_json_matches_golden_hash(theorem, capsys):
    code = cli.main(["verify", theorem, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[theorem]


@lru_cache(maxsize=None)
def _theorem_main_records() -> tuple[dict, ...]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", "theorem-main", "--format", "json"])
    assert code == 0
    return tuple(json.loads(line) for line in out.getvalue().splitlines())


def test_theorem_main_without_residual_matches_golden_hash():
    stream = "".join(
        json.dumps({k: v for k, v in record.items() if k != "residual"}, sort_keys=True)
        + "\n"
        for record in _theorem_main_records()
    )
    digest = hashlib.sha256(stream.encode()).hexdigest()
    assert digest == THEOREM_MAIN_WITHOUT_RESIDUAL_SHA256


def test_theorem_main_worst_residual():
    assert max(record["residual"] for record in _theorem_main_records()) < 1e-12


def test_quotient_reports_match_golden_hash():
    digest = hashlib.sha256()
    for gens in QUOTIENT_INPUTS:
        for d in range(1, 13):
            for fmt in ("json", "table"):
                argv = ["quotient", "--gens", ",".join(map(str, gens)), "--d", str(d)]
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv + ["--format", fmt])
                digest.update(f"{code}\n{out.getvalue()}".encode())
    assert digest.hexdigest() == QUOTIENT_SHA256
