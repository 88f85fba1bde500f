"""Quotients S/d, their gap bookkeeping, and the d-symmetric Frobenius rule."""

import math
import random

import pytest

from numsgps import core
from numsgps.core import (
    NumericalSemigroup,
    PreconditionError,
    contains,
    from_generators,
    gap_residue_counts,
    is_d_symmetric,
)
from numsgps.quotient import frobenius_quotient_dsymmetric, quotient
from oracles import (
    minimal_generators_from_gaps,
    quotient_gaps,
    sieve_invariants,
    sieve_members,
)


def test_golden_quotients():
    cases = [
        ([3, 5], 2, [3, 4, 5], 2, 2),
        ([6, 7, 8], 3, [2, 5], 3, 2),
        ([15, 17, 19], 5, [3, 11, 19], 16, 9),
        ([5, 9, 13, 17, 21], 2, None, 8, 6),
        ([12, 13, 14], 4, [3, 7], 11, 6),
    ]
    for gens, d, expected_gens, frobenius, genus in cases:
        Q = quotient(from_generators(gens), d)
        if expected_gens is not None:
            assert list(Q.minimal_generators) == expected_gens, (gens, d)
        assert Q.frobenius == frobenius, (gens, d)
        assert Q.genus == genus, (gens, d)


def test_minimal_generators_cost_one_round_robin_when_first_read(table_builds):
    """Reading the minimal generators of a quotient builds one table, by
    the round robin or by the sieve, whichever is estimated to cost less;
    the quotient itself builds none."""
    calls = table_builds
    S = from_generators([15, 17, 19])
    assert calls == [("round robin", 15)]
    assert S.minimal_generators == (15, 17, 19)  # kept by the construction
    assert len(calls) == 1
    for d, build in (
        (2, ("sieve", 15)),
        (3, ("sieve", 5)),
        (5, ("round robin", 3)),
        (17, ("sieve", 1)),
    ):
        calls.clear()
        Q = quotient(S, d)
        assert calls == []
        gens = Q.minimal_generators
        assert calls == [build], d
        assert list(gens) == minimal_generators_from_gaps(list(Q.gaps))
        assert Q.minimal_generators == gens
        assert len(calls) == 1
    calls.clear()
    assert quotient(S, 15).minimal_generators == (1,)
    assert calls == [("sieve", 1)]


def test_the_benchmark_quotients_keep_their_minimal_generator_pass(table_builds):
    # <3001, 4007, 5003>/2 (m = 3001, F = 384,636) runs the round robin, about
    # ten times faster there than the sieve, which _sieve_cost prices at 8,085
    # steps against m = 3,001; <120 + 7i : i < 120>/2 (m = 60)
    # runs the sieve.  A refit of _sieve_cost alone would move the first.
    for gens, build, frobenius in (
        ([3001, 4007, 5003], ("round robin", 3001), 384_636),
        ([120 + 7 * i for i in range(120)], ("sieve", 60), 413),
    ):
        Q = quotient(from_generators(gens), 2)
        assert Q.frobenius == frobenius
        table_builds.clear()
        assert Q.minimal_generators[0] == Q.multiplicity
        assert table_builds == [build], gens


def _expected_mask(Q: NumericalSemigroup) -> bytes:
    # a fresh semigroup with the same table builds its mask from the table
    return NumericalSemigroup(Q.apery)._gap_mask


def test_quotient_keeps_the_gap_mask_its_table_gives():
    rng = random.Random(3119)
    S = from_generators([15, 17, 19])  # F = 118
    N = from_generators([1])
    cases = [(S, 1), (S, 119), (S, 1000), (S, 17), (S, 34), (N, 1), (N, 2), (N, 7)]
    while len(cases) < 120:
        gens = sorted(rng.sample(range(2, 60), rng.randint(2, 5)))
        if math.gcd(*gens) == 1:
            cases.append((from_generators(gens), rng.randint(1, 20)))
    for S, d in cases:
        Q = quotient(S, d)
        # S/1 is S; any other quotient keeps the mask it was read from
        assert Q is S if d == 1 else "_gap_mask" in vars(Q), (S, d)
        assert Q._gap_mask == _expected_mask(Q), (S, d)
        assert type(Q._gap_mask) is bytes
        if d > S.frobenius or contains(S, d):
            assert (Q.multiplicity, Q.frobenius, Q._gap_mask) == (1, -1, b""), (S, d)
        # the definitional read of d*x, byte by byte, up to floor(F(S)/d)
        member = sieve_members(list(S.minimal_generators), max(S.frobenius, 0))
        defined = bytes(not member[d * x] for x in range(S.frobenius // d + 1))
        assert Q._gap_mask == defined.rstrip(b"\x00"), (S, d)


def test_both_minimal_generator_paths_agree_on_random_quotients(table_builds):
    rng = random.Random(7741)
    paths = set()
    for _ in range(150):
        gens = sorted(rng.sample(range(2, 90), rng.randint(2, 6)))
        if math.gcd(*gens) != 1:
            continue
        Q = quotient(from_generators(gens), rng.randint(2, 9))
        m, nbits = Q.multiplicity, Q.frobenius + Q.multiplicity + 1
        values = [m, *sorted(Q.apery[1:])]
        by_round_robin = (m, *core._round_robin(values)[1])
        by_sieve = (m, *core._sieve(values, nbits)[1])
        assert by_round_robin == by_sieve, (gens, Q)
        table_builds.clear()
        assert Q.minimal_generators == by_sieve, (gens, Q)
        assert len(table_builds) == 1
        paths.add(table_builds[0][0])
        assert list(by_sieve) == minimal_generators_from_gaps(list(Q.gaps)), (gens, Q)
    assert paths == {"round robin", "sieve"}


def test_quotient_defining_predicate():
    rng = random.Random(8842)
    for _ in range(40):
        gens = sorted(rng.sample(range(2, 40), rng.randint(2, 4)))
        if math.gcd(*gens) != 1:
            continue
        S = from_generators(gens)
        d = rng.randint(1, 8)
        Q = quotient(S, d)
        for x in range(0, S.frobenius + d + 2):
            assert contains(Q, x) == contains(S, d * x), (gens, d, x)


def test_quotient_gaps_match_oracle():
    rng = random.Random(60103)
    for _ in range(40):
        gens = sorted(rng.sample(range(2, 50), rng.randint(2, 4)))
        if math.gcd(*gens) != 1:
            continue
        d = rng.randint(2, 9)
        Q = quotient(from_generators(gens), d)
        assert list(Q.gaps) == quotient_gaps(gens, d), (gens, d)


def test_quotient_d_one_is_identity():
    S = from_generators([6, 7, 8])
    assert quotient(S, 1) == S


def test_quotient_by_member_is_naturals():
    S = from_generators([4, 7])
    assert quotient(S, 4).frobenius == -1
    assert quotient(S, 7).genus == 0
    assert quotient(S, 11).genus == 0  # 11 = 4 + 7


def test_quotient_composition():
    """(S/d)/e = S/(d e)."""
    rng = random.Random(515)
    for _ in range(25):
        gens = sorted(rng.sample(range(2, 35), rng.randint(2, 3)))
        if math.gcd(*gens) != 1:
            continue
        S = from_generators(gens)
        d, e = rng.randint(2, 5), rng.randint(2, 5)
        assert quotient(quotient(S, d), e) == quotient(S, d * e), (gens, d, e)


def test_quotient_validation():
    S = from_generators([3, 5])
    with pytest.raises(PreconditionError):
        quotient(S, 0)
    with pytest.raises(PreconditionError):
        quotient(S, -2)


def test_gap_class_counts_sum_to_genus():
    rng = random.Random(2026)
    for _ in range(30):
        gens = sorted(rng.sample(range(2, 45), rng.randint(2, 4)))
        if math.gcd(*gens) != 1:
            continue
        S = from_generators(gens)
        d = rng.randint(2, 10)
        counts = gap_residue_counts(S, d)
        assert len(counts) == min(d, S.frobenius + 1)
        assert sum(counts) == S.genus, (gens, d)
        # Class 0 holds the gaps divisible by d, one per quotient gap.
        assert counts[0] == quotient(S, d).genus, (gens, d)


def test_dsymmetric_frobenius_rule_examples():
    S = from_generators([3, 5])  # symmetric, F = 7
    # d = 2: least member congruent to 7 mod 2 is 3, (7 - 3) / 2 = 2.
    assert frobenius_quotient_dsymmetric(S, 2) == 2
    assert quotient(S, 2).frobenius == 2
    # d = 7: 7 itself is 0 mod 7 and 0 is a member, (7 - 0) / 7 = 1.
    assert frobenius_quotient_dsymmetric(S, 7) == 1
    assert quotient(S, 7).frobenius == 1


def test_dsymmetric_frobenius_rule_when_d_divides_frobenius():
    """The least member congruent to F modulo d can be 0.

    <13, 17, 20> has F = 75 and is 5-symmetric; the least member congruent
    to 75 mod 5 is 0, giving F/5 = 15.  Starting the scan at 5 instead
    finds member 20 and the wrong answer 11.
    """
    S = from_generators([13, 17, 20])
    assert S.frobenius == 75
    assert is_d_symmetric(S, 5)
    assert frobenius_quotient_dsymmetric(S, 5) == 15
    assert quotient(S, 5).frobenius == 15


def test_dsymmetric_frobenius_rule_random():
    rng = random.Random(40913)
    hits = 0
    for _ in range(300):
        gens = sorted(rng.sample(range(2, 55), rng.randint(2, 4)))
        if math.gcd(*gens) != 1:
            continue
        S = from_generators(gens)
        if S.frobenius < 0:
            continue
        d = rng.randint(2, 10)
        if not is_d_symmetric(S, d):
            continue
        hits += 1
        assert frobenius_quotient_dsymmetric(S, d) == quotient(S, d).frobenius, (
            gens,
            d,
        )
    assert hits > 30


def test_dsymmetric_frobenius_rule_validation():
    S = from_generators([4, 5, 7])  # not 3-symmetric
    with pytest.raises(PreconditionError):
        frobenius_quotient_dsymmetric(S, 3)
    with pytest.raises(PreconditionError):
        frobenius_quotient_dsymmetric(S, 1)
    with pytest.raises(PreconditionError):
        frobenius_quotient_dsymmetric(from_generators([1]), 2)


def test_sieve_oracle_self_check():
    """The oracle itself reproduces textbook values."""
    assert sieve_invariants([3, 5])[:2] == (7, 4)
    assert sieve_invariants([6, 7, 8])[:2] == (17, 9)
    assert sieve_invariants([2, 3])[:2] == (1, 1)
