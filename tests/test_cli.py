"""End-to-end command-line behavior, driven in process through main()."""

import argparse
import ast
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from functools import cached_property
from pathlib import Path

import pytest

from numsgps import cli, verify
from numsgps.core import (
    NumericalSemigroup,
    PreconditionError,
    TheoremViolationError,
    from_generators,
)
from numsgps.quotient import quotient
from test_golden import GOLDEN_SHA256


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariants_json(capsys):
    code, out, err = run_cli(
        capsys, "invariants", "--gens", "6,7,8", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["generators"] == [6, 7, 8]
    assert report["frobenius"] == 17
    assert report["genus"] == 9
    assert report["apery_at_multiplicity"] == [0, 7, 8, 15, 16, 23]
    assert report["symmetric"] is True
    assert "# seed 0" in err


def test_invariants_table_has_seed_header(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--gens", "3,5")
    assert code == 0
    assert out.splitlines()[0] == "# seed 0"
    assert "frobenius: 7" in out


def test_invariants_rejects_bad_generators(capsys):
    code, _, err = run_cli(capsys, "invariants", "--gens", "4,6")
    assert code == 2
    assert "error" in err.lower()
    code, _, _ = run_cli(capsys, "invariants", "--gens", "nonsense")
    assert code == 2
    code, out, err = run_cli(capsys, "invariants", "--gens", "5000001,5000003,5000005")
    assert (code, out) == (2, "")
    assert err == "error: multiplicity 5000001 exceeds 5000000\n"


def test_a_large_frobenius_is_answered_off_the_table_and_refused_at_the_gap_mask(capsys):
    # the Apery table of <9001, 10007> has 9,001 entries, its gap mask F + 1 = 90,054,000
    code, out, _ = run_cli(capsys, "apery", "--gens", "9001,10007", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert (report["frobenius"], report["genus"]) == (90_053_999, 45_027_000)
    assert sorted(report["apery"]) == [10007 * j for j in range(9001)]
    # a report that reads the mask, of S or of S/d, is refused before any output
    for argv, frobenius in (
        (("quotient", "--gens", "9001,10007", "--d", "7"), 90_053_999),
        (("invariants", "--gens", "5000,5001,5002"), 12_499_999),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: Frobenius number {frobenius} exceeds 5000000\n", argv


def test_quotient_reports_formulas(capsys):
    code, out, _ = run_cli(
        capsys, "quotient", "--gens", "6,7,8", "--d", "3", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["generators"] == [2, 5]
    assert (report["frobenius"], report["genus"]) == (3, 2)
    formulas = report["formulas"]
    assert formulas["genus-via-roots"]["match"] is True
    assert formulas["dsymmetric-frobenius"]["match"] is True
    assert formulas["ap3-quotient-generators"]["match"] is True


def test_quotient_mismatch_exits_one_after_the_full_report(capsys, monkeypatch):
    argv = ("quotient", "--gens", "3,5", "--d", "2", "--format", "json")
    code, clean, _ = run_cli(capsys, *argv)
    assert code == 0
    closed_form = verify.genus_quotient_ed2_closed_form
    monkeypatch.setattr(
        verify, "genus_quotient_ed2_closed_form", lambda a, b, d: closed_form(a, b, d) + 1
    )
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.splitlines()[-1] == "formula mismatch: ed2-genus"
    expected = json.loads(clean)
    expected["formulas"]["ed2-genus"].update(formula=3, match=False)
    assert json.loads(out) == expected


def test_quotient_golden_fixture(capsys):
    code, out, _ = run_cli(
        capsys, "quotient", "--gens", "15,17,19", "--d", "5", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["generators"] == [3, 11, 19]
    assert (report["frobenius"], report["genus"]) == (16, 9)
    assert report["formulas"]["ap3-odd-a-invariants"]["match"] is True


def test_quotient_builds_the_quotient_once(capsys, monkeypatch):
    calls = []

    def counting_quotient(S, d):
        calls.append(d)
        return quotient(S, d)

    # the command and every module its registry entries reach
    for module in (cli, verify):
        monkeypatch.setattr(module, "quotient", counting_quotient)
    for gens, d, filled in (
        ("6,7,8", 3, 3),
        ("10,13,16,19,22,25,28,31,34,37", 2, 3),
        ("12,17,22", 4, 4),
    ):
        calls.clear()
        code, out, _ = run_cli(capsys, "quotient", "--gens", gens, "--d", str(d), "--format", "json")
        assert code == 0
        assert len(json.loads(out)["formulas"]) == filled
        assert calls == [d]


def test_quotient_builds_the_base_gap_mask_once(capsys, monkeypatch):
    # theorem-main folds P_S, and strazzanti tests d-symmetry, twice when S is
    built = []
    build = NumericalSemigroup.__dict__["_gap_mask"].func

    def counting_build(S):
        built.append(S)
        return build(S)

    counting = cached_property(counting_build)
    counting.__set_name__(NumericalSemigroup, "_gap_mask")
    monkeypatch.setattr(NumericalSemigroup, "_gap_mask", counting)
    for gens, d, formulas in (
        ("3001,4007,5003", 2, {"genus-via-roots"}),
        ("6,7,8", 3, {"genus-via-roots", "dsymmetric-frobenius", "ap3-quotient-generators"}),
    ):
        built.clear()
        code, out, _ = run_cli(capsys, "quotient", "--gens", gens, "--d", str(d), "--format", "json")
        assert code == 0
        assert set(json.loads(out)["formulas"]) == formulas
        assert built.count(from_generators(map(int, gens.split(",")))) == 1, gens


def test_quotient_refuses_a_tolerance_as_verify_does(capsys):
    for value in ("0", "-1", "nan"):
        refusals = []
        for argv in (
            ("quotient", "--gens", "6,7,8", "--d", "3"),
            ("verify", "theorem-main", "--cases", "2"),
        ):
            code, out, err = run_cli(capsys, *argv, "--tolerance", value)
            assert (code, out) == (2, "")
            refusals.append(err)
        assert refusals == [f"error: tolerance must be > 0, got {float(value)}\n"] * 2


def test_apery_n_is_bounded(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "apery", "--gens", "3,5", "--n", "10000000")
    assert (code, out) == (2, "")
    assert err == "error: Apery modulus 10000000 exceeds 5000000\n"
    # 100 minimal generators at n = 500,001, where a round robin at n would
    # take 50,000,100 steps, are answered by one gap count per class
    gens = ",".join(map(str, range(1000, 1100)))
    code, out, err = run_cli(capsys, "apery", "--gens", gens, "--n", "500001", "--format", "json")
    assert code == 0
    report = json.loads(out)
    S = from_generators(range(1000, 1100))
    assert (report["n"], len(report["apery"])) == (500_001, 500_001)
    assert (report["frobenius"], report["genus"]) == (S.frobenius, S.genus)
    assert time.perf_counter() - start < 5
    code, out, err = run_cli(capsys, "apery", "--gens", "3,5", "--n", "4")
    assert (code, out) == (2, "")
    assert err == "error: Apery modulus 4 is not a member of <3, 5>\n"


def test_quotient_huge_divisor_exits_two_promptly(capsys):
    start = time.perf_counter()
    code, _, err = run_cli(
        capsys, "quotient", "--gens", "6,7,8", "--d", "100000000000"
    )
    assert code == 2
    assert err.startswith("error:")
    assert time.perf_counter() - start < 5


def test_many_generators_exit_two_before_any_construction(capsys, table_builds):
    # 4,000 generators from 10^6: the first sieve pass, of about 3e6 bits,
    # is estimated at 6.3e7 steps and the round robin at 4e9
    gens = ",".join(map(str, range(10**6, 10**6 + 4000)))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "invariants", "--gens", gens)
    assert (code, out) == (2, "")
    assert err == (
        "error: building <1000000, ...> from 4000 generators takes 62676000 steps, "
        "more than 50000000\n"
    )
    assert time.perf_counter() - start < 1
    assert table_builds == []


def test_out_to_unwritable_path_exits_two(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    code, _, err = run_cli(
        capsys, "quotient", "--gens", "6,7,8", "--d", "10", "--out", str(target)
    )
    assert code == 2
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1
    assert not target.exists()


def test_bad_out_path_fails_before_any_work(tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the command ran before opening --out")

    monkeypatch.setattr(cli, "sweep", no_work)
    monkeypatch.setattr(cli, "quotient", no_work)
    target = str(tmp_path / "missing" / "x")
    for argv in (
        ("verify", "full-ap", "--format", "json", "--out", target),
        ("quotient", "--gens", "6,7,8", "--d", "3", "--out", target),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1


def test_verify_huge_d_max_exits_two_promptly(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "root-identity", "--d-max", "10000000")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1
    assert time.perf_counter() - start < 5


def test_verify_corpus_sweeps_with_huge_cases_exit_two_promptly(capsys):
    for theorem in ("theorem-main", "strazzanti"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", theorem, "--cases", "10000000")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: the {theorem} grid takes ")
        assert time.perf_counter() - start < 1


def test_verify_grids_priced_above_the_cap_exit_two_promptly(capsys):
    # each ran past 8 s, writing records, before its grid was priced
    for theorem, flags in (
        ("full-ap", ["--a-max", "5000"]),
        ("ap3-symmetric", ["--a-max", "100000", "--k-max", "100000"]),
        ("theorem-main", ["--max-gen", "1000", "--cases", "10477"]),
    ):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", theorem, *flags)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: the {theorem} grid takes ")
        assert time.perf_counter() - start < 1


def test_verify_d2_constant_huge_d_max_exits_two(capsys):
    code, out, err = run_cli(capsys, "verify", "d2-constant", "--d-max", "1000000")
    assert (code, out) == (2, "")
    assert err.startswith("error: the d2-constant grid takes ")
    assert len(err.strip().splitlines()) == 1


def test_verify_d2_constant_takes_no_modulus_at_or_above_max(capsys):
    # for d >= 10 no class holds two sample pairs up to 10, so --d-max 61
    # costs and checks what --d-max 9 does
    flags = ("verify", "d2-constant", "--max", "10", "--format", "json")
    code, out, err = run_cli(capsys, *flags, "--d-max", "61")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 49
    assert {record["status"] for record in records} == {"match"}
    assert run_cli(capsys, *flags, "--d-max", "9") == (0, out, err)


def test_verify_a_grid_that_holds_no_case_exits_two(capsys):
    for theorem, flags in (("d2-constant", ["--samples", "1"]), ("full-ap", ["--a-max", "1"])):
        code, out, err = run_cli(capsys, "verify", theorem, *flags)
        assert (code, out) == (2, "")
        assert err == f"error: the {theorem} grid holds no case\n"


def test_apery_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "apery", "--gens", "3,5", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["n"] == 3
    assert report["apery"] == [0, 10, 5]
    assert (report["frobenius"], report["genus"]) == (7, 4)


def test_apery_rejects_nonmember(capsys):
    code, _, err = run_cli(capsys, "apery", "--gens", "3,5", "--n", "4")
    assert code == 2
    assert "error" in err


def test_verify_clean_run_exits_zero(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "sylvester", "--max", "20"
    )
    assert code == 0
    assert "0 mismatch" in out


def test_verify_injected_fault_exits_one(capsys):
    code, _, err = run_cli(
        capsys, "verify", "sylvester", "--max", "20", "--inject-offby1",
        "--format", "json",
    )
    assert code == 1
    assert "mismatch" in err


def test_verify_unknown_format_exits_two(capsys):
    code, out, err = run_cli(capsys, "verify", "sylvester", "--format", "xml")
    assert code == 2
    assert out == ""
    assert "invalid choice: 'xml'" in err


def test_verify_unknown_theorem_exits_two(capsys):
    code, _, _ = run_cli(capsys, "verify", "no-such-theorem")
    assert code == 2


def test_missing_subcommand_exits_two(capsys):
    assert run_cli(capsys)[0] == 2


def _top_level_statements(path):
    return enumerate(ast.parse(path.read_text(), str(path)).body)


def test_every_command_and_name_has_a_use(capsys):
    # commands that printed brute-force data and checked no identity are gone
    for argv in (
        ("pmd", "3", "7", "1"),
        ("sweep-open-problem", "--a", "12", "--k", "1", "--ell", "4", "--d", "2..6"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "invalid choice" in err, argv
    # each top-level name of the package is read by the package or the benchmark
    # somewhere other than its own definition
    root = Path(__file__).resolve().parents[1]
    package = sorted((root / "src" / "numsgps").glob("*.py"))
    readers: dict[str, set] = {}
    for path in package + sorted((root / "perfbench").glob("*.py")):
        for index, statement in _top_level_statements(path):
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                readers.setdefault(name, set()).add((path, index))
    unread = []
    for path in package:
        for index, statement in _top_level_statements(path):
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                names = [statement.name]
            elif isinstance(statement, ast.Assign):
                names = [t.id for t in statement.targets if isinstance(t, ast.Name)]
            elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
                names = [statement.target.id]
            else:
                continue
            for name in names:
                dunder = name.startswith("__") and name.endswith("__")
                if not dunder and readers.get(name, set()) <= {(path, index)}:
                    unread.append(f"{path.name}: {name}")
    assert unread == []


def test_no_module_reads_the_environment():
    # every setting is a command-line flag, so one invocation means one thing
    root = Path(__file__).resolve().parents[1]
    reads = []
    for path in sorted((root / "src" / "numsgps").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                reads.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.alias) and node.name in ("environ", "getenv"):
                reads.append(f"{path.name}:{node.lineno}")
    assert reads == []


def test_verify_json_round_trips_byte_identical(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "theorem-main", "--cases", "8", "--max-gen", "20",
        "--d-max", "3", "--format", "json",
    )
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert lines
    for line in lines:
        assert json.dumps(json.loads(line), sort_keys=True) == line


# A grid for every verify id, large enough that --parallel 2 and 3 cut it
# into several chunks.
CLI_GRIDS = {
    "theorem-main": "--cases 10 --max-gen 20 --d-max 3",
    "ed2-closed-form": "--max 12 --d-max 4",
    "sylvester": "--max 12",
    "d2-constant": "--d-max 4 --max 40 --samples 3",
    "quasipoly": "--k-list 1,2 --d-max 3 --a-max 30",
    "strazzanti": "--cases 20 --max-gen 20 --d-max 4",
    "ap3-symmetric": "--a-max 12 --k-max 3",
    "ap3-even-d": "--a-max 16 --k-max 3",
    "ap3-odd-a": "--a-max 16 --k-max 3",
    "full-ap": "--a-max 12 --k-max 3",
    "full-ap-dk": "--a-max 12 --k-max 3",
    "root-identity": "--d-max 40",
}


def test_verify_output_independent_of_parallelism(capsys):
    assert set(CLI_GRIDS) == set(verify.THEOREM_IDS)
    for theorem, grid in CLI_GRIDS.items():
        for fmt in ("json", "csv", "table"):
            args = ("verify", theorem, *grid.split(), "--format", fmt)
            runs = {run_cli(capsys, *args, "--parallel", p) for p in ("1", "2", "3")}
            assert len(runs) == 1, (theorem, fmt)


def test_verify_seed_changes_cases(capsys):
    args = ("verify", "theorem-main", "--cases", "8", "--max-gen", "20",
            "--d-max", "3", "--format", "json")
    _, a, _ = run_cli(capsys, *args, "--seed", "1")
    _, b, _ = run_cli(capsys, *args, "--seed", "2")
    assert a != b


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "records.json"
    code, _, err = run_cli(
        capsys, "verify", "root-identity", "--d-max", "30",
        "--format", "json", "--out", str(target),
    )
    assert code == 0
    lines = target.read_text().splitlines()
    assert len(lines) == 29
    assert all(json.loads(line)["status"] == "match" for line in lines)
    assert "# seed 0" in err


class CountingRaw(io.RawIOBase):
    """A raw byte sink that counts the writes reaching it."""

    def __init__(self):
        self.writes = 0
        self.size = 0
        self.largest = 0

    def writable(self):
        return True

    def write(self, data):
        self.writes += 1
        self.size += len(data)
        self.largest = max(self.largest, len(data))
        return len(data)


def _sylvester_runs(max_value: int) -> int:
    cases = verify.build_cases(verify.SweepConfig("sylvester", max_value=max_value).resolved())
    return len(list(verify._chunks(cases)))


def test_verify_output_reaches_a_buffered_stream_in_buffer_sized_writes(monkeypatch):
    # a run's text, up to RUN records, can outgrow the 8 KiB buffer and pass
    # straight through, so the writes are bounded per run, not per buffer
    for argv, max_value in (
        (["verify", "sylvester", "--max", "100"], 100),  # table: header and summary on stdout
        (["verify", "sylvester", "--max", "60", "--format", "csv"], 60),
    ):
        raw = CountingRaw()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BufferedWriter(raw, 8192)))
        assert cli.main(argv) == 0
        assert raw.size > 4 * 8192, argv
        assert raw.writes <= _sylvester_runs(max_value) + 2, (argv, raw.writes)


def test_verify_output_reaches_an_unbuffered_stream_in_one_write_per_run(monkeypatch):
    raw = CountingRaw()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, write_through=True))
    for parallel in ("1", "2"):
        raw.writes = 0
        assert cli.main(["verify", "sylvester", "--max", "100", "--parallel", parallel]) == 0
        # the seed header, the empty head of a table and the summary line
        assert raw.writes <= _sylvester_runs(100) + 3, (parallel, raw.writes)


def _whole_rendering(report: dict, fmt: str) -> str:
    """A report rendered in one piece, each value whole."""
    if fmt == "json":
        return cli._dump(report) + "\n"
    if fmt == "csv":
        return "key,value\n" + "".join(f"{key},{cli._cell(report[key])}\n" for key in sorted(report))
    return "".join(f"{key}: {cli._flat(report[key])}\n" for key in sorted(report))


def test_reports_write_gap_lists_as_the_whole_list_would_render(tmp_path, capsys, monkeypatch):
    reports = []
    write_report = cli._Output.report

    def keeping_report(out, report):
        reports.append(report)
        write_report(out, report)

    monkeypatch.setattr(cli._Output, "report", keeping_report)
    block = cli.GAP_BLOCK
    target = tmp_path / "report"
    # 0, 1 and 2 gaps; gap lists that end on the last position of one block
    # and of two, one whose last block starts with a member; and S/2 of
    # 195,058 gaps next to S of 390,116
    for gens, d in (
        ("3,5", 8), ("1", 1), ("2,3", 1), ("2,5", 1), (f"2,{block + 1}", 1),
        (f"2,{2 * block + 1}", 1), (f"2,{block + 3}", 1), ("3001,4007,5003", 2),
    ):
        S = from_generators(map(int, gens.split(",")))
        for command, options, gaps in (
            ("quotient", ["--d", str(d)], quotient(S, d).gaps),
            ("invariants", [], S.gaps),
        ):
            for fmt in ("json", "table", "csv"):
                argv = [command, "--gens", gens, *options, "--format", fmt]
                for out in ([], ["--out", str(target)]):
                    reports.clear()
                    code, stdout, _ = run_cli(capsys, *argv, *out)
                    assert code == 0
                    (report,) = reports
                    assert isinstance(report["gaps"], bytes)
                    expected = _whole_rendering({**report, "gaps": list(gaps)}, fmt)
                    if out:
                        assert (stdout, target.read_text()) == ("", expected), argv
                    else:
                        header = "# seed 0\n" if fmt == "table" else ""
                        assert stdout == header + expected, argv
    # lists of ints are written a block of GAP_BLOCK values at a time: Apery
    # tables of one block, of one value more and of two blocks and one
    # more; a tuple, two ints, one int and a list of bools
    for fmt in ("json", "table", "csv"):
        for n in (block, block + 1, 2 * block + 1):
            argv = ["apery", "--gens", "2,3", "--n", str(n), "--format", fmt]
            reports.clear()
            code, stdout, _ = run_cli(capsys, *argv, "--out", str(target))
            (report,) = reports
            assert (code, len(report["apery"])) == (0, n)
            assert target.read_text() == _whole_rendering(report, fmt), argv
        report = {
            "a": tuple(range(block + 5)), "b": [7, 10**20], "c": [5], "d": [True, False], "e": 3,
        }
        out = cli._Output(argparse.Namespace(format=fmt, seed=0, out=str(target)))
        out.report(report)
        out.close()
        assert target.read_text() == _whole_rendering(report, fmt), fmt


@pytest.mark.parametrize("fmt", ["json", "table", "csv"])
def test_gap_lists_render_across_every_change_of_digit_count_and_chunk(fmt, tmp_path):
    block = cli.GAP_BLOCK
    assert block % 1000 == 0
    target = tmp_path / "report"
    for gaps in (
        # each side of the 1,000-position chunks where the lead gains a digit
        [1, 2, 999, 1000, 1001, 9_999, 10_000, 99_999, 100_000],
        [0, 7, 1_007, 10_007, 100_007, 1_000_007],  # padded entries after every lead
        [5, 2_500],  # the chunk 1000..1999 holds no gap
        [5, 2 * block + 7],  # neither does the whole block after the first
        [3, 999],  # the mask ends on a chunk boundary
        [3, 1_999], [block - 1, block], [3, block - 1],
        list(range(1, 3 * block, 3)),
    ):
        mask = bytearray(gaps[-1] + 1)
        for x in gaps:
            mask[x] = 1
        out = cli._Output(argparse.Namespace(format=fmt, seed=0, out=str(target)))
        out.report({"d": 2, "gaps": bytes(mask), "genus": len(gaps)})
        out.close()
        expected = _whole_rendering({"d": 2, "gaps": gaps, "genus": len(gaps)}, fmt)
        assert target.read_text() == expected, gaps[:4]


def test_a_report_holds_little_more_than_its_gap_masks(tmp_path, capsys):
    # the gap mask of <3001, 4007, 5003> is 772 KB, and its build holds two
    # copies for a moment; that of its S/2 is 386 KB, and the d-symmetry
    # test holds one slice of that size at a time.  Traced peaks: 1.96 and
    # 1.62 MiB
    target = tmp_path / "report"
    for argv, bound_mib, gaps in (
        (["quotient", "--gens", "3001,4007,5003", "--d", "2"], 2.25, 195_058),
        (["invariants", "--gens", "3001,4007,5003"], 2, 390_116),
    ):
        tracemalloc.start()
        try:
            code = cli.main([*argv, "--format", "json", "--out", str(target)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < bound_mib * 2**20, (argv, peak)
        assert len(json.loads(target.read_text())["gaps"]) == gaps


def test_a_report_reaches_an_unbuffered_stream_a_block_at_a_time(monkeypatch):
    raw = CountingRaw()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, write_through=True))
    assert cli.main(["quotient", "--gens", "3001,4007,5003", "--d", "2", "--format", "json"]) == 0
    mask = quotient(from_generators((3001, 4007, 5003)), 2)._gap_mask
    assert raw.size > 1_400_000
    assert raw.writes <= -(-len(mask) // cli.GAP_BLOCK) + 1
    # and so does an Apery table: 40,001 values, 233 KB, in writes of at most
    # GAP_BLOCK values
    raw.writes = raw.size = raw.largest = 0
    assert cli.main(["apery", "--gens", "2,3", "--n", "40001", "--format", "json"]) == 0
    assert raw.size > 200_000 and raw.largest < 2**16
    assert raw.writes <= -(-40_001 // cli.GAP_BLOCK) + 1


def test_a_failing_case_keeps_the_records_before_it(tmp_path, capsys, monkeypatch):
    argv = ("verify", "sylvester", "--max", "5")  # 10 cases: runs of 1, 2, 4 and 3
    clean = {fmt: run_cli(capsys, *argv, "--format", fmt)[1] for fmt in ("json", "table")}
    identity = verify.IDENTITIES["sylvester"]
    third = list(identity.cases(verify.SweepConfig("sylvester", max_value=5).resolved()))[2]

    def failing(case, S, Q):
        if case == third:
            raise TheoremViolationError(f"planted failure at {case}")
        return identity.oracle(case, S, Q)

    # a forked worker sees the patched registry too; the fault is planted on
    # the oracle side, as a formula side's TheoremViolationError is a record
    monkeypatch.setitem(verify.IDENTITIES, "sylvester", identity._replace(oracle=failing))
    failure = f"identity failure: planted failure at {third}"
    for parallel in ("1", "2"):
        for fmt, kept in (("json", 2), ("table", 3)):  # the table's seed header is on stdout
            code, out, err = run_cli(capsys, *argv, "--format", fmt, "--parallel", parallel)
            assert code == 1, (parallel, fmt)
            assert out == "".join(clean[fmt].splitlines(keepends=True)[:kept]), (parallel, fmt)
            assert err.splitlines()[-1] == failure
            assert "match" not in err  # no summary line
        target = tmp_path / f"records-{parallel}.json"
        code, out, err = run_cli(
            capsys, *argv, "--format", "json", "--parallel", parallel, "--out", str(target)
        )
        assert (code, out, err.splitlines()[-1]) == (1, "", failure)
        assert target.read_text() == "".join(clean["json"].splitlines(keepends=True)[:2])


def test_a_failing_case_keeps_the_records_before_it_in_its_pool_chunk(capsys, monkeypatch):
    # runs of 1, 2, 4, ..., 64 cases, at every --parallel: the fault is the
    # second case of the second run, which the second worker checks
    argv = ("verify", "sylvester", "--max", "30", "--format", "json")
    identity = verify.IDENTITIES["sylvester"]
    cases = list(identity.cases(verify.SweepConfig("sylvester", max_value=30).resolved()))
    assert list(verify._chunks(cases))[1] == cases[1:3]

    def failing(case, S, Q):
        if case == cases[2]:
            raise TheoremViolationError(f"planted failure at {case}")
        return identity.oracle(case, S, Q)

    monkeypatch.setitem(verify.IDENTITIES, "sylvester", identity._replace(oracle=failing))
    serial = run_cli(capsys, *argv, "--parallel", "1")
    assert serial[0] == 1 and len(serial[1].splitlines()) == 2
    assert run_cli(capsys, *argv, "--parallel", "2") == serial


def test_a_lost_worker_exits_two_after_the_records_before_its_run(capsys, monkeypatch):
    argv = ("verify", "sylvester", "--max", "30", "--format", "json", "--parallel", "2")
    identity = verify.IDENTITIES["sylvester"]
    cases = list(identity.cases(verify.SweepConfig("sylvester", max_value=30).resolved()))
    runs = list(verify._chunks(cases))
    lost = runs[2][1]  # the third run, which the first worker checks
    parent = os.getpid()

    def dying(case, S, Q):
        if case == lost and os.getpid() != parent:
            os._exit(3)
        return identity.oracle(case, S, Q)

    clean = run_cli(capsys, *argv)[1].splitlines(keepends=True)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setitem(verify.IDENTITIES, "sylvester", identity._replace(oracle=dying))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "".join(clean[:3]))  # the records of the first two runs
    assert err.splitlines()[-1].startswith("error: sweep worker ")
    assert err.count("error") == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class OneLineReader(io.StringIO):
    """A stdout whose reader goes away after the first line."""

    def write(self, text):
        if "\n" in self.getvalue():
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


def test_no_worker_outlives_a_sweep(capsys, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ["verify", "sylvester", "--max", "30", "--format", "json", "--parallel", "2"]
    assert cli.main(argv) == 0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert cli.main([*argv, "--inject-offby1"]) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    monkeypatch.setattr(sys, "stdout", OneLineReader())
    assert cli.main(argv) == 0
    assert len(sys.stdout.getvalue().splitlines()) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    identity = verify.IDENTITIES["sylvester"]

    def failing(case, S, Q):
        if case == (1, 2):
            raise TheoremViolationError(f"planted failure at {case}")
        return identity.oracle(case, S, Q)

    monkeypatch.setattr(sys, "stdout", io.StringIO())
    monkeypatch.setitem(verify.IDENTITIES, "sylvester", identity._replace(oracle=failing))
    assert cli.main(argv) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("theorem", verify.THEOREM_IDS)
def test_a_fault_in_any_id_keeps_the_records_before_it(theorem, capsys, monkeypatch):
    argv = ("verify", theorem, *CLI_GRIDS[theorem].split(), "--format", "json")
    check_case = verify.check_case
    checked = []

    def counting(theorem, case, tolerance, inject):
        records = check_case(theorem, case, tolerance, inject)
        checked.append((case, len(records)))
        return records

    monkeypatch.setattr(verify, "check_case", counting)
    code, clean, _ = run_cli(capsys, *argv)
    assert code == 0 and len(checked) >= 3
    third, kept = checked[2][0], checked[0][1] + checked[1][1]
    before = "".join(clean.splitlines(keepends=True)[:kept])
    for error, exit_code, prefix in (
        (TheoremViolationError, 1, "identity failure"),
        (PreconditionError, 2, "error"),
    ):

        def failing(theorem, case, tolerance, inject):
            if case == third:
                raise error(f"planted failure at {case}")
            return check_case(theorem, case, tolerance, inject)

        # a forked worker sees the patched module too; the fault is planted
        # outside the identity, as a formula side's TheoremViolationError
        # is a record
        monkeypatch.setattr(verify, "check_case", failing)
        for parallel in ("1", "2"):
            code, out, err = run_cli(capsys, *argv, "--parallel", parallel)
            assert (code, out) == (exit_code, before), (error, parallel)
            assert err.splitlines()[-1] == f"{prefix}: planted failure at {third}"


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    # and so does a sweep on forked workers
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = (
        "import os, sys, numsgps.cli as cli; print('multiprocessing' in sys.modules); "
        "cli.main(['verify', 'sylvester', '--max', '30', '--parallel', '2', '--out', os.devnull]); "
        "print('multiprocessing' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "False\nFalse\n")


def test_importing_the_cli_leaves_dataclasses_and_inspect_unloaded():
    # dataclasses pulls in inspect, which pulls in ast, dis, tokenize and linecache
    src = str(Path(cli.__file__).resolve().parents[1])
    names = ["dataclasses", "inspect", "ast", "dis", "tokenize", "linecache"]
    probe = f"import sys, numsgps.cli; print([n for n in {names!r} if n in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n")


def test_neither_the_import_nor_a_quotient_report_loads_fractions_or_decimal():
    src = str(Path(cli.__file__).resolve().parents[1])
    loaded = "print([n for n in ('fractions', 'decimal') if n in sys.modules])"
    report = "cli.main(['quotient', '--gens', '3001,4007,5003', '--d', '2', '--out', os.devnull])"
    for run in ("pass", report):
        probe = f"import os, sys; from numsgps import cli; {run}; {loaded}"
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), run


def test_verify_csv_parses(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "sylvester", "--max", "12", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == list(cli.RECORD_COLUMNS)
    for row in rows[1:]:
        assert len(row) == len(cli.RECORD_COLUMNS)
        assert row[4] == "match"


def test_fit_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "fit", "--k", "1", "--d", "2", "--a", "3..41",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["classes"]["0"] == {"c0": 0, "c1": "-1/2", "c2": "1/4"}
    assert report["classes"]["1"] == {"c0": "1/4", "c1": "-1/2", "c2": "1/4"}
    assert report["leading_coefficient"] == "1/4"


def test_fit_rejects_bad_range(capsys):
    assert run_cli(capsys, "fit", "--k", "1", "--d", "2", "--a", "oops")[0] == 2


def test_corpus_sweep_with_max_gen_two_exits_two_promptly(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "verify", "theorem-main", "--max-gen", "2", "--cases", "1", "--d-max", "2"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert time.perf_counter() - start < 5


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_is_not_an_error(capsys, monkeypatch):
    for argv, expected in (
        (["invariants", "--gens", "3,5"], 0),
        (["verify", "sylvester", "--max", "12"], 0),
        (["verify", "sylvester", "--max", "12", "--format", "json", "--inject-offby1"], 1),
    ):
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == expected, argv
        assert "error" not in err and "Broken pipe" not in err, argv


def test_closed_pipe_ends_the_process_quietly():
    # The reader is gone before the command writes anything, so every
    # write, and the interpreter's own flush at exit, meets a closed pipe.
    src = str(Path(cli.__file__).resolve().parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "from numsgps.cli import entry; entry()",
             "invariants", "--gens", "3,5"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


def _cli_process(*argv, **kwargs):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=src, **kwargs.pop("env", {}))
    return subprocess.Popen(
        [sys.executable, "-c", "from numsgps.cli import entry; entry()", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, **kwargs,
    )


def test_a_reader_that_stops_after_one_line_ends_the_sweep_quietly():
    # the records outgrow the pipe, so the sweep writes into a closed pipe
    for parallel in ("1", "2"):
        argv = ("verify", "sylvester", "--max", "100", "--format", "json", "--parallel", parallel)
        proc = _cli_process(*argv)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0, parallel
        assert json.loads(first)["params"] == {"a": 1, "b": 1}
        assert b"error" not in err and b"Broken pipe" not in err, parallel


def test_unbuffered_stdout_writes_the_same_bytes():
    outputs = []
    for env in ({}, {"PYTHONUNBUFFERED": "1"}):
        proc = _cli_process("verify", "sylvester", "--max", "100", "--format", "json", env=env)
        out, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0, env
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert hashlib.sha256(outputs[1]).hexdigest() == GOLDEN_SHA256["sylvester"]


def test_a_reader_that_stops_inside_a_report_ends_it_quietly():
    # the 1.46 MB report is written in many pieces, all but the first few
    # into a pipe whose reader has gone
    for env in ({}, {"PYTHONUNBUFFERED": "1"}):
        proc = _cli_process("quotient", "--gens", "3001,4007,5003", "--d", "2", "--format", "json", env=env)
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0, env
        assert head.startswith(b'{"base_generators": [3001, 4007, 5003], "d": 2, '), env
        assert b"error" not in err and b"Broken pipe" not in err, env
