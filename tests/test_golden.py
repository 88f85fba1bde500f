"""Golden hashes: the JSON record stream of every ``numsgps verify`` id at
its default grid is pinned byte for byte.

Any change to a record's value, key order or formatting changes a digest.
Update a digest only together with a deliberate change to the records.
The theorem-main stream and the json ``quotient`` reports are also pinned
with every float ``residual`` removed, so a change to the root evaluation
can move the residuals but nothing else.
``numsgps quotient`` is pinned the same way, in json and in table form (the
table shows the order of the formula entries), on inputs that together
fill every formula entry of its report, and in csv on the same inputs;
``numsgps invariants`` and ``numsgps apery`` are pinned on them in all
three forms.  The small grids of the sweep tests are pinned in the other
output forms: table, csv, and json with ``--inject-offby1``, which shows
the perturbed formula side of every record.
"""

import contextlib
import hashlib
import io
import json
from functools import lru_cache

import pytest

from numsgps import cli
from numsgps.verify import THEOREM_IDS
from test_verify import SMALL_GRIDS

GOLDEN_SHA256 = {
    "theorem-main": "df5b8d76536258d06a0a6083af277b91e184e9e9c2985665a0dcaa281cfdcb9e",
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

QUOTIENT_SHA256 = "4ee1240e80aee17550ff5d2e89522504953b7f7c528e762bd424c7ab33768202"

QUOTIENT_WITHOUT_RESIDUAL_SHA256 = (
    "09fd0d8d4d13e781ac52a33670606427f834fa3db36e5e49b95c9299fee0b35c"
)

REPORT_SHA256 = {
    "quotient": "aada4756c89fcca7515d63b31db864528277122dea913c8d04c26d97d3ab710e",
    "invariants": "49b8fac55fbaf41e147e4ec372ee2e7a6c81d977d81466b4fdbd68ee438e07a2",
    "apery": "31e235f45620cde02ce130828d941239f0a1042c0e59296d2a4045efa1c1995f",
}

SMALL_GRID_SHA256 = {
    "theorem-main": "d5d7e76568b707a81b0bd26ee4a7c05105823e7469a8c694114a93ec058d8bce",
    "ed2-closed-form": "52ada863fa7eb3a1449a4cfee8015370ee43f9a9bcbd91c9c816cf47ce13367c",
    "sylvester": "b00719c47f247d1454b41417911d905605b7f0cb13be3f4b2def33511c8e1e0e",
    "d2-constant": "f21d213a3b3e70cc893cb0facaf368d50f34520941ae6f77b1df8d42e9e59857",
    "quasipoly": "936510e27f4dea97a7334c9a39cf041efe3dfd578520b732496830b66efb5d71",
    "strazzanti": "d62ea1eefa3202e86ed86aff8db74e1fd427d8719c89596c941d09f3ef88feab",
    "ap3-symmetric": "a62d1daf159e3c076c3e60f6de746b32426527c572a872e5433bf51d96c594e5",
    "ap3-even-d": "9dcfe8cbf20e2ceb635adf73c74b9cbe28768f131823199d4209abe5a90e71ef",
    "ap3-odd-a": "75df4e254cbc6ba86dba32838abf503a8e1e66839955b4371afbcf5c069bc0a5",
    "full-ap": "5a88b1d032b864aab47d92379ff62db58c008c5e83d8201e6161e2552016a12b",
    "full-ap-dk": "12e978a2906b9232c366a5bbce29069bf2c483e91b955f6b68e34a07bbc1ad5e",
    "root-identity": "42348ada80208372555e226a662a956a71827a5aa0e69879b3f457a9b82fb164",
}

SMALL_GRID_FORMS = (
    ["--format", "table"],
    ["--format", "csv"],
    ["--format", "json", "--inject-offby1"],
)

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
    assert set(GOLDEN_SHA256) == set(SMALL_GRID_SHA256) == set(SMALL_GRIDS) == set(THEOREM_IDS)


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_verify_json_matches_golden_hash(theorem, capsys):
    code = cli.main(["verify", theorem, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[theorem]


def _grid_options(grid: dict) -> list[str]:
    options = []
    for name, value in grid.items():
        option = "--max" if name == "max_value" else "--" + name.replace("_", "-")
        options += [option, ",".join(map(str, value)) if isinstance(value, tuple) else str(value)]
    return options


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_verify_small_grid_forms_match_golden_hash(theorem):
    digest = hashlib.sha256()
    argv = ["verify", theorem, *_grid_options(SMALL_GRIDS[theorem])]
    for form in SMALL_GRID_FORMS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + form)
        digest.update(f"{code}\n{out.getvalue()}\n{err.getvalue()}".encode())
    assert digest.hexdigest() == SMALL_GRID_SHA256[theorem]


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


def _without_residual(value):
    if isinstance(value, dict):
        return {k: _without_residual(v) for k, v in value.items() if k != "residual"}
    return value


def test_quotient_json_without_residual_matches_golden_hash():
    digest = hashlib.sha256()
    for gens in QUOTIENT_INPUTS:
        for d in range(1, 13):
            argv = ["quotient", "--gens", ",".join(map(str, gens)), "--d", str(d)]
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv + ["--format", "json"])
            report = _without_residual(json.loads(out.getvalue()))
            digest.update(f"{code}\n{json.dumps(report, sort_keys=True)}\n".encode())
    assert digest.hexdigest() == QUOTIENT_WITHOUT_RESIDUAL_SHA256


def _report_forms_digest(command: str, runs, formats) -> str:
    digest = hashlib.sha256()
    for options in runs:
        for fmt in formats:
            argv = [command, *options, "--format", fmt]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            digest.update(f"{code}\n{out.getvalue()}\n{err.getvalue()}".encode())
    return digest.hexdigest()


def _report_runs(command: str) -> list[list[str]]:
    runs = []
    for gens in QUOTIENT_INPUTS:
        text = ",".join(map(str, gens))
        if command == "quotient":
            runs += [["--gens", text, "--d", str(d)] for d in range(1, 13)]
        elif command == "invariants":
            runs.append(["--gens", text])
        else:  # the default n (the multiplicity), then each listed member
            runs += [["--gens", text]] + [["--gens", text, "--n", str(n)] for n in gens]
    return runs


@pytest.mark.parametrize("command", sorted(REPORT_SHA256))
def test_report_forms_match_golden_hash(command):
    """quotient in csv (its json and table forms are pinned above), and
    invariants and apery in every form, with their stderr and exit codes."""
    formats = ("csv",) if command == "quotient" else ("json", "table", "csv")
    digest = _report_forms_digest(command, _report_runs(command), formats)
    assert digest == REPORT_SHA256[command]
