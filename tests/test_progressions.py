"""Three-term and full arithmetic progression quotients and their closed forms."""

import math
import random

import pytest

from numsgps.core import PreconditionError, from_generators, is_d_symmetric
from numsgps.quotient import quotient
from numsgps.progressions import (
    Ap3Spec,
    FullApSpec,
    ap3_even_d_invariants,
    ap3_odd_a_invariants,
    ap3_quotient_generators,
    ap3_symmetric_iff_even,
    full_ap_d_divides_k,
    full_ap_divisor_identity,
    full_ap_quotient,
    full_ap_quotient_generators,
)


def test_ap3_symmetry_rule_small_cases():
    # <4, 5, 6> is symmetric, <3, 4, 5> and <5, 7, 9> are not.
    assert ap3_symmetric_iff_even(4, 1)
    assert not ap3_symmetric_iff_even(3, 1)
    assert not ap3_symmetric_iff_even(5, 2)
    assert is_d_symmetric(from_generators([4, 5, 6]), 1)
    assert not is_d_symmetric(from_generators([3, 4, 5]), 1)


def test_ap3_symmetry_rule_matches_definition():
    rng = random.Random(6001)
    for _ in range(60):
        a = rng.randint(2, 80)
        k = rng.randint(1, 15)
        if math.gcd(a, k) != 1:
            continue
        S = from_generators([a, a + k, a + 2 * k])
        assert ap3_symmetric_iff_even(a, k) == is_d_symmetric(S, 1), (a, k)


def test_ap3_quotient_generators_worked_example():
    # <20, 21, 22>/5: s = 4, t = 2, generators 4, 4 + 1 + 8 = 13, 4 + 2 + 16 = 22.
    Q = quotient(from_generators([20, 21, 22]), 5)
    assert ap3_quotient_generators(Ap3Spec(20, 1, 5)) == Q.minimal_generators == (4, 13, 22)
    assert is_d_symmetric(Q, 1)


def test_ap3_odd_a_fixture():
    # <15, 17, 19>/5 falls outside the generator theorem (odd a, odd d)
    # but the odd-a closed form still gives (16, 9).
    assert ap3_odd_a_invariants(Ap3Spec(15, 2, 5)) == (16, 9)
    Q = quotient(from_generators([15, 17, 19]), 5)
    assert list(Q.minimal_generators) == [3, 11, 19]
    assert (Q.frobenius, Q.genus) == (16, 9)


def test_ap3_quotient_generators_even_divisor():
    # <12, 13, 14>/4: even d gives the two-generator form <s, k + s t>.
    Q = quotient(from_generators([12, 13, 14]), 4)
    assert ap3_quotient_generators(Ap3Spec(12, 1, 4)) == Q.minimal_generators == (3, 7)


def test_ap3_quotient_generators_drop_the_generators_that_are_not_minimal():
    # s = 1: <4, 5, 6>/4 is N, so k + st = 3 is dropped; s = 2: <6, 7, 8>/3
    # is <2, 5>, as s + 2 delta = 2 + 2 * 3 = 8 is a multiple of s = 2
    for gens, d, expected in (([4, 5, 6], 4, (1,)), ([6, 7, 8], 3, (2, 5))):
        spec = Ap3Spec(gens[0], gens[1] - gens[0], d)
        assert ap3_quotient_generators(spec) == expected, (gens, d)
        assert quotient(from_generators(gens), d).minimal_generators == expected, (gens, d)


def test_ap3_quotient_generators_build_no_semigroup(table_builds):
    specs = [
        Ap3Spec(a, k, d)
        for a in range(3, 41)
        for k in range(1, 8)
        if math.gcd(a, k) == 1
        for d in range(3, a + 1)
        if a % d == 0 and (d % 2 == 0 or a % 2 == 0)
    ]
    generators = {ap3_quotient_generators(spec) for spec in specs}
    assert len(generators) > 50 and {(1,), (2, 5)} <= generators
    assert table_builds == []


def test_ap3_quotient_generators_random_grid():
    rng = random.Random(88)
    hits = 0
    for _ in range(200):
        a = rng.randint(3, 90)
        k = rng.randint(1, 12)
        if math.gcd(a, k) != 1:
            continue
        divisors = [d for d in range(3, a + 1) if a % d == 0]
        if not divisors:
            continue
        d = rng.choice(divisors)
        if d % 2 == 1 and a % 2 == 1:
            continue  # generator theorem: odd divisor needs even a
        hits += 1
        Q = quotient(from_generators([a, a + k, a + 2 * k]), d)
        assert ap3_quotient_generators(Ap3Spec(a, k, d)) == Q.minimal_generators, (a, k, d)
        assert is_d_symmetric(Q, 1), (a, k, d)
    assert hits >= 40


def test_ap3_even_d_closed_form():
    # <12, 13, 14>/4: s = 3, F = (3 - 1)(12 + 2)/2 - 3 = 11, g = (3 - 1)(12)/4 = 6.
    assert ap3_even_d_invariants(Ap3Spec(12, 1, 4)) == (11, 6)
    rng = random.Random(4242)
    for _ in range(60):
        d = 2 * rng.randint(2, 6)
        s = rng.randint(1, 12)
        a = d * s
        k = rng.randint(1, 10)
        if math.gcd(a, k) != 1:
            continue
        Q = quotient(from_generators([a, a + k, a + 2 * k]), d)
        assert ap3_even_d_invariants(Ap3Spec(a, k, d)) == (Q.frobenius, Q.genus), (
            a, k, d,
        )


def test_ap3_odd_a_closed_form():
    rng = random.Random(1117)
    for _ in range(60):
        a = 2 * rng.randint(1, 45) + 1
        k = rng.randint(1, 10)
        if math.gcd(a, k) != 1:
            continue
        divisors = [d for d in range(1, a + 1) if a % d == 0]
        d = rng.choice(divisors)
        spec = Ap3Spec(a, k, d)
        frobenius, genus = ap3_odd_a_invariants(spec)
        Q = quotient(from_generators([a, a + k, a + 2 * k]), d)
        assert (frobenius, genus) == (Q.frobenius, Q.genus), (a, k, d)
        # The family satisfies 2 g - F = (s + 1)/2 with s = a/d.
        assert 2 * genus - frobenius == (a // d + 1) // 2, (a, k, d)


def test_ap3_validation():
    with pytest.raises(PreconditionError):
        Ap3Spec(6, 2, 3)  # gcd(a, k) = 2
    with pytest.raises(PreconditionError):
        Ap3Spec(6, 1, 4)  # d does not divide a
    with pytest.raises(PreconditionError):
        ap3_quotient_generators(Ap3Spec(10, 1, 2))  # needs d >= 3
    with pytest.raises(PreconditionError):
        ap3_quotient_generators(Ap3Spec(15, 1, 5))  # odd d needs even a
    with pytest.raises(PreconditionError):
        ap3_even_d_invariants(Ap3Spec(15, 2, 3))  # needs even d
    with pytest.raises(PreconditionError):
        ap3_odd_a_invariants(Ap3Spec(12, 1, 4))  # needs odd a
    with pytest.raises(PreconditionError):
        ap3_symmetric_iff_even(1, 3)  # a = 1 is the trivial semigroup


def test_full_ap_quotient_is_full_progression():
    # <a, a+k, ..., a+(a-1)k>/d = <s, s+k, ..., s+(s-1)k> with s = a/d.
    spec = FullApSpec(12, 5)
    Q = full_ap_quotient(spec, 4)
    assert list(Q.minimal_generators) == [3, 8, 13]
    base = from_generators([12 + 5 * i for i in range(12)])
    assert Q == quotient(base, 4)
    # the predicted list is already minimal, so it needs no canonical form
    for a in range(1, 25):
        for k in range(1, 8):
            if math.gcd(a, k) != 1:
                continue
            base = from_generators([a + i * k for i in range(a)])
            for d in (d for d in range(1, a + 1) if a % d == 0):
                expected = quotient(base, d).minimal_generators
                assert full_ap_quotient_generators(FullApSpec(a, k), d) == expected, (a, k, d)


def test_full_ap_divisor_identity_closed_form():
    rng = random.Random(9000)
    for _ in range(50):
        a = rng.randint(4, 60)
        k = rng.randint(1, 12)
        if math.gcd(a, k) != 1:
            continue
        divisors = [d for d in range(1, a) if a % d == 0 and a // d >= 2]
        d = rng.choice(divisors)
        s = a // d
        frobenius, genus = full_ap_divisor_identity(FullApSpec(a, k), d)
        assert frobenius == k * (s - 1), (a, k, d)
        assert 2 * genus == (k + 1) * (s - 1), (a, k, d)
        base = from_generators([a + i * k for i in range(a)])
        Q = quotient(base, d)
        assert (frobenius, genus) == (Q.frobenius, Q.genus), (a, k, d)
        # g = (F + s - 1)/2 on this family.
        assert 2 * genus == frobenius + s - 1, (a, k, d)


def test_full_ap_divisor_identity_rejects_degenerate():
    with pytest.raises(PreconditionError):
        full_ap_divisor_identity(FullApSpec(6, 5), 6)  # s = 1 gives N


def test_full_ap_d_divides_k_closed_form():
    rng = random.Random(31337)
    for _ in range(50):
        a = rng.randint(2, 50)
        d = rng.randint(1, 6)
        k = d * rng.randint(1, 8)
        if math.gcd(a, k) != 1:
            continue
        frobenius, genus = full_ap_d_divides_k(FullApSpec(a, k), d)
        assert frobenius == (a - 1) * (k // d), (a, k, d)
        base = from_generators([a + i * k for i in range(a)])
        Q = quotient(base, d)
        assert (frobenius, genus) == (Q.frobenius, Q.genus), (a, k, d)
        # g = (F + a - 1)/2 on this family.
        assert 2 * genus == frobenius + a - 1, (a, k, d)


def test_full_ap_validation():
    with pytest.raises(PreconditionError):
        FullApSpec(4, 2)  # gcd(a, k) = 2
    # a = 1 is the degenerate progression <1> = N; FullApSpec allows it
    # but the closed forms refuse it.
    assert FullApSpec(1, 3) == (1, 3)
    with pytest.raises(PreconditionError):
        full_ap_d_divides_k(FullApSpec(1, 3), 3)
    with pytest.raises(PreconditionError):
        full_ap_quotient(FullApSpec(6, 1), 4)  # 4 does not divide 6
    with pytest.raises(PreconditionError):
        full_ap_d_divides_k(FullApSpec(5, 3), 2)  # 2 does not divide 3

