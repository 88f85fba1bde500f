"""Sweep machinery: grids, record schema, fault injection, parallelism."""

import json
import math
import os
import time
from collections import Counter
from functools import cached_property

import pytest
from hypothesis import assume, given, settings, strategies as st

from numsgps import cli, roots, verify
from numsgps.core import (
    MAX_FROBENIUS,
    MAX_ROOT_WORK,
    NumericalSemigroup,
    PreconditionError,
    ResourceLimitError,
    from_generators,
)
from numsgps.quotient import quotient
from numsgps.verify import (
    IDENTITIES,
    MATCH,
    MISMATCH,
    SKIPPED,
    SweepConfig,
    THEOREM_IDS,
    _sg,
    build_cases,
    check_case,
    random_corpus,
    run_sweep,
    sweep,
)
from numsgps.roots import DEFAULT_TOLERANCE, fit_quasipolynomial

SMALL_GRIDS = {
    "theorem-main": dict(cases=15, max_gen=25, d_max=4),
    "ed2-closed-form": dict(max_value=20, d_max=5),
    "sylvester": dict(max_value=20),
    "d2-constant": dict(d_max=4, max_value=60, samples=3),
    "quasipoly": dict(k_list=(1, 2), d_max=3, a_max=80),
    "strazzanti": dict(cases=40, max_gen=30, d_max=5),
    "ap3-symmetric": dict(a_max=30, k_max=5),
    "ap3-even-d": dict(a_max=30, k_max=5),
    "ap3-odd-a": dict(a_max=30, k_max=5),
    "full-ap": dict(a_max=20, k_max=5),
    "full-ap-dk": dict(a_max=20, k_max=5),
    "root-identity": dict(d_max=60),
}


def small_config(theorem, **overrides):
    params = dict(SMALL_GRIDS[theorem])
    params.update(overrides)
    return SweepConfig(theorem=theorem, **params)


def test_theorem_id_list_is_stable():
    assert len(THEOREM_IDS) == 12
    assert len(set(THEOREM_IDS)) == 12


def test_unknown_theorem_rejected():
    with pytest.raises(PreconditionError):
        SweepConfig(theorem="no-such-identity").resolved()


def test_every_sweep_clean_on_small_grid():
    for theorem in THEOREM_IDS:
        records = run_sweep(small_config(theorem))
        counts = Counter(record["status"] for record in records)
        assert counts[MISMATCH] == 0, theorem
        assert counts[MATCH] > 0, theorem


def test_every_sweep_detects_injected_fault():
    for theorem in THEOREM_IDS:
        records = run_sweep(small_config(theorem, inject_offby1=True))
        assert any(record["status"] == MISMATCH for record in records), theorem


def test_record_schema_and_json_round_trip():
    records = run_sweep(small_config("theorem-main"))
    for record in records:
        assert set(record) == {
            "theorem", "params", "formula", "oracle", "status", "residual",
        }
        assert record["status"] in (MATCH, MISMATCH, SKIPPED)
        line = json.dumps(record, sort_keys=True)
        assert json.dumps(json.loads(line), sort_keys=True) == line


def test_skipped_records_carry_reason():
    records = run_sweep(small_config("ed2-closed-form"))
    skipped = [r for r in records if r["status"] == SKIPPED]
    assert skipped, "grid should contain shared-factor pairs"
    for record in skipped:
        assert "reason" in record["params"]
        assert record["formula"] is None
        assert record["oracle"] is None


def test_results_independent_of_parallelism():
    for theorem in ("theorem-main", "sylvester"):
        serial = run_sweep(small_config(theorem, parallel=1))
        parallel = run_sweep(small_config(theorem, parallel=3))
        assert serial == parallel, theorem


def test_a_pool_starts_no_more_workers_than_cpus(monkeypatch):
    import multiprocessing

    sizes = []

    class SerialPool:
        """A stand-in for multiprocessing.Pool that maps in this process."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, iterable, chunksize=1):
            return map(func, iterable)

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    cfg = SweepConfig("sylvester", max_value=5)
    assert run_sweep(cfg._replace(parallel=10**6)) == run_sweep(cfg)
    assert len(sizes) == 1 and 1 <= sizes[0] <= (os.cpu_count() or 1)


def test_sweep_yields_each_record_once_its_case_is_checked(monkeypatch):
    cfg = small_config("sylvester")
    expected = run_sweep(cfg)
    calls = []

    def counting(*args):
        calls.append(args)
        return check_case(*args)

    monkeypatch.setattr(verify, "check_case", counting)
    records = sweep(cfg)
    assert calls == []
    assert next(records) == expected[0]
    assert len(calls) == 1
    assert [expected[0], *records] == expected
    assert len(calls) == len(expected)


def test_sweep_refuses_a_grid_before_it_returns():
    with pytest.raises(ResourceLimitError):
        sweep(SweepConfig(theorem="root-identity", d_max=10**12))
    with pytest.raises(PreconditionError):
        sweep(SweepConfig(theorem="sylvester", max_value=0))


def test_corpus_is_seed_deterministic():
    a = random_corpus(7, 30, 40)
    b = random_corpus(7, 30, 40)
    c = random_corpus(8, 30, 40)
    assert a == b
    assert a != c
    assert len(a) == 30
    for gens in a:
        assert 2 <= len(gens) <= 4
        assert all(2 <= g <= 40 for g in gens)


def test_seed_changes_theorem_main_grid():
    r0 = run_sweep(small_config("theorem-main", seed=0))
    r1 = run_sweep(small_config("theorem-main", seed=1))
    assert r0 != r1
    assert all(record["status"] != MISMATCH for record in r0 + r1)


def test_config_validation():
    with pytest.raises(PreconditionError):
        SweepConfig(theorem="sylvester", max_value=0).resolved()
    with pytest.raises(PreconditionError):
        SweepConfig(theorem="sylvester", parallel=0).resolved()


def test_corpus_sweeps_need_max_gen_three():
    # generators are drawn from [2, max_gen], so 2 could never give a pair
    with pytest.raises(PreconditionError):
        SweepConfig(theorem="theorem-main", max_gen=2).resolved()
    assert random_corpus(0, 5, 3) == [(2, 3)] * 5


def test_quasipoly_work_is_bounded():
    # each of the len(k_list) * d_max fits is charged a steps per a <= a_max, a
    # conservative bound on its floor-sum gap counts (at most a - 1 floor sums)
    assert SweepConfig(theorem="quasipoly").resolved().a_max == 300
    largest = max(a for a in range(1_760, 1_780) if 32 * a * (a + 1) // 2 <= MAX_ROOT_WORK)
    assert SweepConfig(theorem="quasipoly", a_max=largest).resolved()
    for a_max in (largest + 1, 10**9):
        with pytest.raises(ResourceLimitError):
            SweepConfig(theorem="quasipoly", a_max=a_max).resolved()
    assert SweepConfig(theorem="quasipoly", k_list=(1,), d_max=1, a_max=9_999).resolved()
    with pytest.raises(ResourceLimitError):
        fit_quasipolynomial(1, 2, (1, 10_000))


def test_sylvester_and_ed2_work_is_bounded():
    # sylvester builds <a, b> in O(a) steps for every a <= b <= max_value
    largest = max(m for m in range(660, 680) if m * (m + 1) * (m + 2) // 6 <= MAX_ROOT_WORK)
    assert SweepConfig(theorem="sylvester", max_value=largest).resolved()
    # ed2 adds one step per case, and a per case for its O(log d) closed form
    # (an over-count that also bounds the case list), to the quotient scans,
    # fewer than ab/d values each; at max 60 that accepts d_max <= 934
    assert SweepConfig(theorem="ed2-closed-form", max_value=100).resolved()
    assert SweepConfig(theorem="ed2-closed-form", d_max=934).resolved()
    for theorem, grid in (
        ("sylvester", dict(max_value=largest + 1)),
        ("sylvester", dict(max_value=10**9)),
        ("ed2-closed-form", dict(max_value=120)),
        ("ed2-closed-form", dict(d_max=935)),
        ("ed2-closed-form", dict(d_max=10**6)),
    ):
        with pytest.raises(ResourceLimitError):
            sweep(SweepConfig(theorem=theorem, **grid))
    # the default grids, and the ones the benchmark passes, stay accepted
    for theorem in THEOREM_IDS:
        assert SweepConfig(theorem=theorem).resolved()
    assert SweepConfig(theorem="ed2-closed-form", max_value=12, d_max=5).resolved()
    assert SweepConfig(theorem="sylvester", max_value=15).resolved()


def test_d2_constant_work_is_bounded():
    # samples pair counts of at most d floor sums, 3 steps each, for each of
    # at most (d - 1)^2 class pairs of each d <= d_max
    def charge(d_max, samples=5):
        return 3 * samples * sum(m * m * (m + 1) for m in range(1, d_max))

    largest = max(d for d in range(2, 100) if charge(d) <= MAX_ROOT_WORK)
    assert largest == 60
    assert SweepConfig(theorem="d2-constant", d_max=largest).resolved().d_max == largest
    for grid in (dict(d_max=largest + 1), dict(d_max=10**6), dict(samples=10**9)):
        with pytest.raises(ResourceLimitError):
            sweep(SweepConfig(theorem="d2-constant", **grid))
    # the default grid and the one the benchmark passes stay accepted
    assert SweepConfig(theorem="d2-constant", d_max=4, max_value=40, samples=3).resolved()


def test_corpus_work_is_bounded_before_the_corpus_is_drawn(monkeypatch):
    # per semigroup, its construction and its d_max - 1 quotients at 350
    # steps each plus max_gen^2 / 300 for their mask reads, and d(d - 1)
    # Horner steps for each d <= d_max; strazzanti evaluates no root and is
    # charged 180 steps, plus the same mask term, for each
    def charge(theorem, max_gen, d_max):
        if theorem == "theorem-main":
            return (350 + max_gen**2 // 300) * d_max + (d_max**3 - d_max) // 3
        return (180 + max_gen**2 // 300) * d_max

    d_maxes = {"theorem-main": 12, "strazzanti": 10}
    largest = {
        (theorem, max_gen): MAX_ROOT_WORK // charge(theorem, max_gen, d_max)
        for theorem, d_max in d_maxes.items()
        for max_gen in (60, 1000)
    }
    assert largest == {
        ("theorem-main", 60): 10_170, ("theorem-main", 1000): 1_116,
        ("strazzanti", 60): 26_041, ("strazzanti", 1000): 1_423,
    }

    def drawn(*args):
        raise AssertionError("random_corpus was called for a refused grid")

    monkeypatch.setattr(verify, "random_corpus", drawn)
    for (theorem, max_gen), cases in largest.items():
        cfg = SweepConfig(theorem=theorem, cases=cases, max_gen=max_gen, d_max=d_maxes[theorem])
        assert cfg.resolved()
        for grid in (dict(cases=cases + 1), dict(cases=10**7), dict(d_max=10**4),
                     dict(max_gen=10**4)):
            with pytest.raises(ResourceLimitError):
                sweep(cfg._replace(**grid))
    for theorem in d_maxes:
        # the default grid and the ones the benchmark passes stay accepted:
        # 1,000 cases at --parallel 2, its short grids of 20 and 60 cases, and
        # the one-case pool probe of its traced run
        for grid in (dict(), dict(cases=1000), dict(cases=20, max_gen=20, d_max=5),
                     dict(cases=60, max_gen=20, d_max=5), dict(cases=1, max_gen=9, d_max=3)):
            assert SweepConfig(theorem=theorem, **grid).resolved()


def test_progression_grids_are_bounded_before_any_pair_is_listed(monkeypatch):
    # the four progression ids charge steps, each at its own rate, for each d
    # of the max(a, k) divisor scan their grid runs for every pair;
    # ap3-symmetric runs no scan and charges 8a steps to build <a, a + k, a + 2k>
    per_d = {"ap3-even-d": 24, "ap3-odd-a": 18, "full-ap": 80, "full-ap-dk": 80}

    def charge(theorem, a_max, k_max):
        pairs = [(a, k) for a in range(1, a_max + 1) for k in range(1, k_max + 1)]
        if theorem == "ap3-symmetric":
            return sum(8 * a for a, k in pairs)
        return per_d[theorem] * sum(max(a, k) for a, k in pairs)

    def listed(*args):
        raise AssertionError("_coprime_pairs was called for a refused grid")

    monkeypatch.setattr(verify, "_coprime_pairs", listed)
    # the largest a_max at k_max 1 and 20, and the largest k_max at a_max 120
    largest = {
        "ap3-symmetric": (3535, 790, 860),
        "ap3-even-d": (2040, 455, 172),
        "ap3-odd-a": (2356, 526, 203),
        "full-ap": (1117, 249, 76),
        "full-ap-dk": (1117, 249, 76),
    }
    for theorem, (a_1, a_20, k_120) in largest.items():
        for a_max, k_max, grown in (
            (a_1, 1, dict(a_max=a_1 + 1)),
            (a_20, 20, dict(a_max=a_20 + 1)),
            (120, k_120, dict(k_max=k_120 + 1)),
        ):
            cfg = SweepConfig(theorem=theorem, a_max=a_max, k_max=k_max)
            assert IDENTITIES[theorem].cost(cfg) == charge(theorem, a_max, k_max) <= MAX_ROOT_WORK
            assert cfg.resolved()
            with pytest.raises(ResourceLimitError):
                sweep(cfg._replace(**grown))
            assert charge(theorem, **{"a_max": a_max, "k_max": k_max, **grown}) > MAX_ROOT_WORK
        # the default grid, the benchmark's short grids and (240, 20) stay accepted
        for a_max, k_max in ((120, 20), (24, 4), (16, 4), (240, 20)):
            assert SweepConfig(theorem=theorem, a_max=a_max, k_max=k_max).resolved()


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_every_grid_field_scaled_up_is_refused_before_any_case(theorem, monkeypatch, capsys):
    def built(*args):
        raise AssertionError("a refused grid built a case")

    monkeypatch.setattr(verify, "random_corpus", built)
    monkeypatch.setattr(verify, "_coprime_pairs", built)
    defaults = IDENTITIES[theorem].defaults
    # every int field but one whose size drives no work: d2-constant takes the
    # first ``samples`` pairs of each class, by least a + b, whatever max_value is
    fields = [
        name for name, value in defaults.items()
        if type(value) is int and (theorem, name) != ("d2-constant", "max_value")
    ]
    assert fields
    for name in fields:
        scaled = {name: defaults[name] * 10**4}
        with pytest.raises(ResourceLimitError, match=f"^the {theorem} grid takes "):
            SweepConfig(theorem=theorem, **scaled).resolved()
        flag = "--max" if name == "max_value" else "--" + name.replace("_", "-")
        start = time.perf_counter()
        assert cli.main(["verify", theorem, flag, str(scaled[name])]) == 2
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: the {theorem} grid takes "), name


@pytest.mark.parametrize(
    "max_value, d_max", [(10, 60), (10, 9), (12, 5), (30, 60), (30, 29), (3, 8), (2, 8), (40, 61)]
)
def test_the_d2_constant_grid_is_the_walk_over_every_d_up_to_d_max(max_value, d_max):
    # every d in 2..d_max, keeping each unit class pair that holds two sample pairs
    walked = [
        (d, a, b, tuple(pairs))
        for d in range(2, d_max + 1)
        for a in range(1, d) if math.gcd(a, d) == 1
        for b in range(1, d) if math.gcd(b, d) == 1
        for pairs in [verify._class_sample_pairs(a, b, d, 5, max_value)]
        if len(pairs) >= 2
    ]
    cfg = SweepConfig(theorem="d2-constant", max_value=max_value, d_max=d_max, samples=5)
    assert build_cases(cfg.resolved()) == walked


@pytest.mark.parametrize(
    "theorem, grid",
    # d2-constant needs 2 sample pairs per class pair; full-ap starts at a = 2
    [("d2-constant", dict(samples=1)), ("full-ap", dict(a_max=1))],
)
def test_a_grid_that_holds_no_case_is_refused(theorem, grid):
    cfg = SweepConfig(theorem=theorem, **grid)
    assert build_cases(cfg.resolved()) == []
    with pytest.raises(PreconditionError, match=f"^the {theorem} grid holds no case$"):
        sweep(cfg)


@pytest.mark.parametrize(
    "theorem, off, error, flags",
    [
        (
            "d2-constant",
            (3, 1, 2),
            "constant differs on class (1, 1) mod 2: (1, 3) gives 0 but (3, 1) gives 1",
            ["--d-max", "4", "--max", "60", "--samples", "3"],
        ),
        (
            "quasipoly",
            (10, 11, 2),
            "fit on class 0 (mod 2) predicts 20 at a = 10, brute force gives 21",
            ["--k-list", "1,2", "--d-max", "3", "--a-max", "80"],
        ),
    ],
)
def test_a_pair_count_off_by_one_is_an_error_record(
    theorem, off, error, flags, monkeypatch, capsys
):
    pair_genus = roots._pair_quotient_genus
    monkeypatch.setattr(
        roots, "_pair_quotient_genus", lambda a, b, d: pair_genus(a, b, d) + ((a, b, d) == off)
    )
    records = run_sweep(small_config(theorem))
    bad = [r for r in records if r["status"] != MATCH]
    assert len(bad) == 1 and len(records) > 1
    assert bad[0]["status"] == MISMATCH
    assert bad[0]["params"]["error"] == error
    assert (bad[0]["formula"], bad[0]["oracle"]) == (None, None)
    assert cli.main(["verify", theorem, "--format", "json", *flags]) == 1
    printed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert printed == records


def test_full_ap_formula_sides_read_no_invariant_off_the_quotient():
    # two_genus on the formula side comes from the closed form's own F, so
    # a Q with the wrong F (here <2, 3>, F = 1) moves the oracle side alone
    wrong = from_generators((2, 3))
    for sides, case in ((verify._full_ap_sides, (6, 5, 3)), (verify._full_ap_dk_sides, (7, 6, 3))):
        a, k, d = case
        S = from_generators(a + i * k for i in range(a))
        formula, oracle, _ = sides(case, S, quotient(S, d))
        assert formula == oracle, case
        assert sides(case, S, wrong)[0] == formula, case


def test_full_ap_dk_sweep_builds_each_semigroup_once(table_builds):
    """The quotients of a sweep build no table; only the construction of
    each progression does, by either path."""
    _sg.cache_clear()
    records = run_sweep(small_config("full-ap-dk"))
    assert len(records) == 120
    assert len(table_builds) == len({(r["params"]["a"], r["params"]["k"]) for r in records}) == 65


def test_full_ap_sweep_takes_the_closed_form_generators_as_they_are(table_builds):
    """One table builds each progression and one round robin finds the
    minimal generators of each brute-force quotient by d >= 2 (by 1 it is
    S); the predicted generators of the closed form need none."""
    _sg.cache_clear()
    records = run_sweep(small_config("full-ap"))
    built = {(r["params"]["a"], r["params"]["k"]) for r in records}
    divided = [r for r in records if r["status"] != SKIPPED and r["params"]["d"] >= 2]
    assert (len(records), len(built), len(divided)) == (196, 65, 66)
    assert len(table_builds) == len(built) + len(divided) == 131


def test_ap3_even_d_sweep_builds_no_predicted_semigroup(table_builds):
    """One table builds each progression and one pass finds the minimal
    generators of each brute-force quotient; the closed form lists its
    generators, and symmetry is read off the quotient's table."""
    _sg.cache_clear()
    records = run_sweep(small_config("ap3-even-d"))
    built = {(r["params"]["a"], r["params"]["k"]) for r in records}
    assert (len(records), len(built)) == (98, 34)
    assert len(table_builds) == len(built) + len(records)


def test_ap3_symmetric_sweep_builds_no_gap_mask(monkeypatch):
    built = []
    build = NumericalSemigroup.__dict__["_gap_mask"].func

    def counting_build(S):
        built.append(S)
        return build(S)

    counting = cached_property(counting_build)
    counting.__set_name__(NumericalSemigroup, "_gap_mask")
    monkeypatch.setattr(NumericalSemigroup, "_gap_mask", counting)
    _sg.cache_clear()
    records = run_sweep(SweepConfig("ap3-symmetric"))
    assert len(records) > 1000 and {r["status"] for r in records} == {MATCH}
    assert built == []


def test_ap3_symmetric_grid_is_admitted_above_the_frobenius_cap(capsys):
    # symmetry is read off the Apery table, so the largest grid at k_max 1
    # is checked, though F(<a, a + 1, a + 2>) passes MAX_FROBENIUS from a = 3163 on
    assert from_generators((3534, 3535, 3536)).frobenius == 6_244_577 > MAX_FROBENIUS
    argv = ["verify", "ap3-symmetric", "--a-max", "3535", "--k-max", "1", "--format", "json"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 3534
    assert err.splitlines()[-1] == "ap3-symmetric: 3534 match, 0 mismatch, 0 skipped"


@pytest.mark.parametrize(
    "count, parallel", [(1, 2), (2, 2), (10, 2), (100, 1), (1_000, 3), (11_000, 2), (12_345, 4)]
)
def test_pool_chunks_grow_from_one_case_to_a_quarter_of_each_workers_share(
    count, parallel, monkeypatch
):
    cases = [(i,) for i in range(count)]
    chunks = list(verify._chunks(cases, parallel))
    sizes = [len(chunk) for chunk in chunks]
    cap = max(1, count // (4 * parallel))
    # one case first, then doubling up to the cap, the last run what is left
    assert sizes[0] == 1
    assert sizes[:-1] == [min(2**i, cap) for i in range(len(sizes) - 1)]
    assert 1 <= sizes[-1] <= min(2 ** (len(sizes) - 1), cap)
    assert [case for chunk in chunks for case in chunk] == cases
    # the case count and --parallel alone fix the runs, whatever the cases and the host
    for cpus in (1, 64):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert [len(chunk) for chunk in verify._chunks([("x",)] * count, parallel)] == sizes


def test_a_pool_checks_the_runs_of_chunks(monkeypatch):
    import multiprocessing

    runs = []

    class SerialPool:
        """A stand-in for multiprocessing.Pool that maps in this process."""

        def __init__(self, processes):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, iterable, chunksize=1):
            for run in iterable:
                runs.append(run)
                yield func(run)

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    cfg = SweepConfig("sylvester", max_value=30, parallel=2)
    cases = build_cases(cfg.resolved())
    blocks = list(sweep(cfg, cli._json_records))
    assert runs == list(verify._chunks(cases, 2)) and len(runs[0]) == 1
    assert [len(statuses) for statuses, _, _ in blocks] == [len(run) for run in runs]
    text = "".join(block for _, block, _ in blocks)
    assert text == cli._json_records(run_sweep(cfg._replace(parallel=1)))
    assert all(fault is None for _, _, fault in blocks)


def test_root_identity_d_max_is_bounded():
    # A sweep to d_max evaluates d_max(d_max - 1)/2 roots in all.
    largest = max(d for d in range(9_990, 10_010) if d * (d - 1) // 2 <= MAX_ROOT_WORK)
    assert SweepConfig(theorem="root-identity", d_max=largest).resolved().d_max == largest
    assert SweepConfig(theorem="root-identity").resolved().d_max == 1000
    for d_max in (largest + 1, 10**12):
        with pytest.raises(ResourceLimitError):
            SweepConfig(theorem="root-identity", d_max=d_max).resolved()
    # d_max of the other sweeps does not drive root evaluations; ed2 pays
    # for its cases, a per case for its closed form and its quotient scans.
    assert SweepConfig(theorem="ed2-closed-form", max_value=12, d_max=largest + 1).resolved()
    with pytest.raises(ResourceLimitError):
        SweepConfig(theorem="ed2-closed-form", max_value=60, d_max=largest + 1).resolved()


# The quotient report entries each identity about S/d fills, by divisor, and
# the fields of the sweep record's sides that each entry shows: none for a
# lone value, one for that field's value, several for the list of them.
INVARIANTS = ("frobenius", "genus")
REPORT_ENTRIES = {
    "theorem-main": lambda d: {"genus-via-roots": ()},
    "ed2-closed-form": lambda d: {"ed2-genus": ()},
    "strazzanti": lambda d: {"dsymmetric-frobenius": ()},
    "ap3-even-d": lambda d: {"ap3-quotient-generators": ("generators",)}
    | ({"ap3-even-divisor-invariants": INVARIANTS} if d % 2 == 0 else {}),
    "ap3-odd-a": lambda d: {"ap3-odd-a-invariants": INVARIANTS},
    "full-ap": lambda d: {"full-ap-generators": ("generators",), "full-ap-invariants": INVARIANTS},
    "full-ap-dk": lambda d: {"full-ap-dk-invariants": INVARIANTS},
}


def record_fields(side, fields):
    if not fields:
        return side
    values = [side[field] for field in fields]
    return values[0] if len(fields) == 1 else values


def case_generators(theorem, case):
    if theorem in ("theorem-main", "strazzanti"):
        return case[0]
    if theorem == "ed2-closed-form":
        return case[:2]
    a, k = case[:2]
    return tuple(a + i * k for i in range(3 if theorem.startswith("ap3") else a))


def test_quotient_identities_are_the_ones_that_fill_reports():
    assert [t for t in THEOREM_IDS if IDENTITIES[t].entries] == list(REPORT_ENTRIES)


def test_quotient_reports_recognise_every_live_sweep_case(capsys):
    """A sweep case that yields a checked record is recognised from (S, d)
    alone, and ``numsgps quotient`` on S and d reports its entries, all
    matching, each showing the same formula and oracle values as the
    case's sweep record; a skipped case, a strazzanti case that is not
    d-symmetric, and S = N (which fixes no k) are not recognised."""
    reports = {}
    for theorem, names in REPORT_ENTRIES.items():
        identity = IDENTITIES[theorem]
        cfg = small_config(theorem).resolved()
        live = 0
        for case in build_cases(cfg):
            S, d = from_generators(case_generators(theorem, case)), case[-1]
            records = check_case(theorem, case, cfg.tolerance, False)
            if not records or records[0]["status"] == SKIPPED or S.frobenius < 0:
                assert identity.case_of(S, d) is None, (theorem, case)
                continue
            live += 1
            recognised = identity.case_of(S, d)
            corpus = theorem in ("theorem-main", "strazzanti")
            assert recognised == ((S.minimal_generators, d) if corpus else case)
            expected = identity.entries(recognised, S, quotient(S, d), DEFAULT_TOLERANCE)
            assert list(expected) == list(names(d)), (theorem, case)
            key = (S.minimal_generators, d)
            if key not in reports:
                gens = ",".join(map(str, S.minimal_generators))
                code = cli.main(["quotient", "--gens", gens, "--d", str(d), "--format", "json"])
                reports[key] = code, json.loads(capsys.readouterr().out)["formulas"]
            code, formulas = reports[key]
            assert code == 0, (theorem, case)
            (record,) = records
            for name, entry in expected.items():
                assert formulas[name] == entry, (theorem, case, name)
                assert entry["match"] is True, (theorem, case, name)
                fields = names(d)[name]
                for side in ("formula", "oracle"):
                    shown = record_fields(record[side], fields)
                    assert entry[side] == shown, (theorem, case, name, side)
                assert entry.get("residual") == record["residual"], (theorem, case, name)
        assert live > 0, theorem


_corpus_grid = dict(
    seed=st.integers(0, 10**6),
    cases=st.integers(1, 12),
    max_gen=st.integers(3, 30),
    d_max=st.integers(2, 6),
)
_ak_grid = dict(a_max=st.integers(1, 24), k_max=st.integers(1, 6))
RANDOM_GRIDS = {
    "theorem-main": _corpus_grid,
    "ed2-closed-form": dict(max_value=st.integers(2, 16), d_max=st.integers(2, 6)),
    "sylvester": dict(max_value=st.integers(1, 25)),
    "d2-constant": dict(
        max_value=st.integers(2, 40), d_max=st.integers(2, 70), samples=st.integers(2, 4)
    ),
    "quasipoly": dict(
        k_list=st.lists(st.integers(1, 5), min_size=1, max_size=2).map(tuple),
        d_max=st.integers(1, 3),
        a_max=st.integers(30, 60),  # every class then holds four admissible samples
    ),
    "strazzanti": _corpus_grid,
    "ap3-symmetric": _ak_grid,
    "ap3-even-d": _ak_grid,
    "ap3-odd-a": _ak_grid,
    "full-ap": _ak_grid,
    "full-ap-dk": _ak_grid,
    "root-identity": dict(d_max=st.integers(2, 80)),
}


@pytest.mark.parametrize("theorem", THEOREM_IDS)
@settings(derandomize=True, deadline=None, database=None, max_examples=25)
@given(data=st.data())
def test_every_sweep_is_clean_on_random_grids(theorem, data):
    cfg = SweepConfig(theorem=theorem, **data.draw(st.fixed_dictionaries(RANDOM_GRIDS[theorem])))
    resolved = cfg.resolved()
    cases = build_cases(resolved)
    assume(cases)
    records = run_sweep(cfg)
    assert {record["status"] for record in records} <= {MATCH, SKIPPED}
    stamped = [
        record
        for case in cases
        for record in check_case(theorem, case, resolved.tolerance, False)
    ]
    assert records == stamped
    assert all(record["theorem"] == theorem for record in records)
