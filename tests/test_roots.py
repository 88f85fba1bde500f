"""Hilbert-series evaluation at roots of unity, closed forms, and fits."""

import cmath
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from numsgps import roots
from numsgps.core import (
    MAX_ROOT_WORK,
    PreconditionError,
    ResourceLimitError,
    TheoremViolationError,
    from_generators,
    semigroup_polynomial_coeffs,
)
from numsgps.quotient import quotient
from numsgps.roots import (
    IDENTITY_TOLERANCE,
    _floor_sum,
    _genus_via_roots_residual,
    _pair_quotient_genus,
    extract_cabd_constant,
    fit_quasipolynomial,
    genus_quotient_ed2_closed_form,
    genus_quotient_via_roots,
    root_of_unity_identity_check,
    sylvester_invariants,
)
from oracles import quotient_gaps, sieve_invariants


def test_hilbert_at_root_frozen_value():
    # For <3, 5> at the primitive square root of unity (-1):
    # members 0, 3, 5, 6, 7(+) give H(-1) = 1 - 1 - 1 + 1 + 1/2 = 1/2,
    # so g(S/2) = (g(S) + 1/2 - H(-1))/2 = (4 + 1/2 - 1/2)/2 = 2.
    S = from_generators([3, 5])
    value, residual = _genus_via_roots_residual(S, 2)
    assert (value, residual < 1e-12) == (2, True)


def test_hilbert_partial_sums_converge_to_value():
    """Summing t^s over members up to N approaches H(t) at a root."""
    S = from_generators([4, 7])
    d = 6
    # Direct evaluation: sum zeta^x over members below the conductor, then
    # the geometric tail zeta^c / (1 - zeta) for everything above.
    finite = [x for x in range(S.conductor) if x not in S.gaps]
    direct = 0
    for i in range(1, d):
        zeta = cmath.exp(2j * cmath.pi * i / d)
        direct += sum(zeta ** x for x in finite) + zeta ** S.conductor / (1 - zeta)
    value, residual = _genus_via_roots_residual(S, d)
    assert value == quotient(S, d).genus
    assert abs((S.genus + (d - 1) / 2 - direct) / d - value) < 1e-9
    assert residual < 1e-9


@pytest.mark.parametrize(
    "gens, d", [((3, 5), 2), ((3, 5), 7), ((4, 7), 6), ((5, 7, 9), 4), ((6, 7, 8), 12), ((2, 9), 30)]
)
def test_hilbert_at_root_matches_exact_cyclotomic_value(gens, d):
    """H_S(zeta) = P_S(zeta)/(1 - zeta), with P_S reduced exactly modulo the
    cyclotomic polynomial of each root's order, summed into the genus
    formula and evaluated at 30 digits, against the brute-force quotient;
    the float fold must agree.  At <2, 9> and d = 30 > F + 2 the fold reads
    each root as it goes, with no table."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    S = from_generators(list(gens))
    P = sympy.Poly(list(reversed(semigroup_polynomial_coeffs(S))), x)
    total = 0
    for i in range(1, d):
        order = d // math.gcd(i, d)
        reduced = P.rem(sympy.Poly(sympy.cyclotomic_poly(order, x), x))
        zeta = sympy.exp(2 * sympy.pi * sympy.I * sympy.Rational(i, d))
        total += reduced.as_expr().subs(x, zeta) / (1 - zeta)
    exact = complex(((S.genus + sympy.Rational(d - 1, 2) - total) / d).evalf(30))
    genus = quotient(S, d).genus
    assert abs(exact - genus) < 1e-20, (gens, d)
    value, residual = _genus_via_roots_residual(S, d)
    assert (value, residual <= 1e-12) == (genus, True), (gens, d, residual)


def test_root_identity_small_and_large():
    for d in (2, 3, 5, 12, 100, 997):
        deviation = root_of_unity_identity_check(d)
        assert deviation < IDENTITY_TOLERANCE, d


def test_genus_via_roots_matches_quotient():
    rng = random.Random(7025)
    for _ in range(50):
        gens = sorted(rng.sample(range(2, 55), rng.randint(2, 4)))
        if math.gcd(*gens) != 1:
            continue
        S = from_generators(gens)
        d = rng.randint(1, 12)
        assert genus_quotient_via_roots(S, d) == quotient(S, d).genus, (gens, d)


def test_root_evaluation_work_is_bounded():
    S = from_generators([6, 7, 8])  # F = 17, so one pass covers 19 coefficients
    d_max = MAX_ROOT_WORK // 19 + 1
    assert _genus_via_roots_residual(S, 2)[0] == quotient(S, 2).genus
    for d in (d_max + 1, 10**11):
        with pytest.raises(ResourceLimitError):
            _genus_via_roots_residual(S, d)
        with pytest.raises(ResourceLimitError):
            genus_quotient_via_roots(S, d)


def test_root_work_counts_folded_terms_only():
    # F = 772,273, so (F + 2)(d - 1) is past the cap at d = 70, but the
    # 69 roots each take 70 Horner steps; at d = 2,000 each takes 2,000.
    S = from_generators([3001, 4007, 5003])
    assert (S.frobenius + 2) * 69 > MAX_ROOT_WORK
    for d in (70, 2000):
        value, residual = _genus_via_roots_residual(S, d)
        assert value == quotient(S, d).genus
        assert residual < 1e-9


def test_root_work_cap_refuses_before_the_fold(monkeypatch):
    # F = 772,273, so at d = 7,072 the d(d - 1) Horner steps pass the cap
    huge = from_generators([3001, 4007, 5003])
    calls = []
    monkeypatch.setattr(roots, "gap_residue_counts", lambda *args: calls.append(args))
    with pytest.raises(ResourceLimitError):
        _genus_via_roots_residual(huge, 7072)
    assert calls == []


def test_large_order_small_semigroup_allocates_no_root_table():
    # the fold has F + 2 = 19 terms; a list of the 20,000 roots would take about 800 KB
    S = from_generators([6, 7, 8])
    tracemalloc.start()
    try:
        value, residual = _genus_via_roots_residual(S, 20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (value, residual < 1e-9) == (0, True)
    assert peak < 50_000


def test_sylvester_frozen_and_oracle():
    assert sylvester_invariants(3, 5) == (7, 4)
    assert sylvester_invariants(2, 3) == (1, 1)
    rng = random.Random(1202)
    for _ in range(30):
        a = rng.randint(2, 60)
        b = rng.randint(2, 60)
        if math.gcd(a, b) != 1:
            continue
        frobenius, genus, _ = sieve_invariants([a, b])
        assert sylvester_invariants(a, b) == (frobenius, genus), (a, b)


def test_sylvester_validation():
    with pytest.raises(PreconditionError):
        sylvester_invariants(4, 6)
    assert sylvester_invariants(1, 5) == (-1, 0)


def test_ed2_closed_form_examples():
    assert genus_quotient_ed2_closed_form(3, 5, 2) == 2
    assert genus_quotient_ed2_closed_form(5, 7, 3) == 4
    # d larger than the Frobenius number: quotient is all of N.
    assert genus_quotient_ed2_closed_form(2, 3, 5) == 0


def test_ed2_closed_form_matches_bruteforce():
    rng = random.Random(31415)
    checked = 0
    while checked < 60:
        a = rng.randint(2, 50)
        b = rng.randint(2, 50)
        d = rng.randint(2, 12)
        if math.gcd(a, b) != 1 or math.gcd(a, d) != 1 or math.gcd(b, d) != 1:
            continue
        checked += 1
        S = from_generators([a, b])
        assert genus_quotient_ed2_closed_form(a, b, d) == quotient(S, d).genus, (
            a, b, d,
        )


def test_ed2_closed_form_validation():
    with pytest.raises(PreconditionError):
        genus_quotient_ed2_closed_form(4, 6, 5)  # gcd(a, b) = 2
    with pytest.raises(PreconditionError):
        genus_quotient_ed2_closed_form(3, 5, 3)  # gcd(a, d) = 3
    with pytest.raises(PreconditionError):
        genus_quotient_ed2_closed_form(3, 10, 5)  # gcd(b, d) = 5
    with pytest.raises(PreconditionError):
        genus_quotient_ed2_closed_form(3, 5, 1)  # needs d >= 2


def test_pair_quotient_genus_needs_no_coprime_divisor():
    """The exact per-class gap count works for any d, shared factors or not."""
    rng = random.Random(456)
    for _ in range(60):
        a = rng.randint(2, 40)
        b = rng.randint(2, 40)
        if math.gcd(a, b) != 1:
            continue
        d = rng.randint(1, 10)
        S = from_generators([a, b])
        assert _pair_quotient_genus(a, b, d) == quotient(S, d).genus, (a, b, d)


def test_floor_sum_matches_the_direct_sum():
    rng = random.Random(2718)
    grid = [(0, 7, 3, 5), (5, 7, 0, 3), (5, 7, 0, 30), (9, 1, 1000, 1000), (200, 50, 1000, 999)]
    grid += [
        (rng.randint(0, 200), rng.randint(1, 50), rng.randint(0, 1000), rng.randint(0, 1000))
        for _ in range(400)
    ]
    for n, m, a, b in grid:
        assert _floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n)), (n, m, a, b)


def test_pair_quotient_genus_against_the_sieve():
    """Every coprime a, b <= 25 and d <= 30: gcd(a, d) > 1, d > a, d = 1 and
    a = 1 all occur."""
    for a in range(1, 26):
        for b in range(a, 26):
            if math.gcd(a, b) != 1:
                continue
            for d in range(1, 31):
                expected = len(quotient_gaps([a, b], d))
                assert _pair_quotient_genus(a, b, d) == expected, (a, b, d)
                assert _pair_quotient_genus(b, a, d) == expected, (b, a, d)


def test_pair_count_and_ed2_closed_form_agree_at_scale(monkeypatch):
    """Two independent formulas at a near 10^6, where the per-class loop
    took O(a); each pair count runs at most d floor sums."""
    calls = []
    floor_sum = roots._floor_sum

    def counting(n, m, a, b):
        calls.append(m)
        return floor_sum(n, m, a, b)

    monkeypatch.setattr(roots, "_floor_sum", counting)
    for a, b, d, genus in ((1000003, 1000033, 1013, 493600199), (999983, 1000003, 7, 71427428569)):
        assert genus_quotient_ed2_closed_form(a, b, d) == genus
        calls.clear()
        assert _pair_quotient_genus(a, b, d) == genus
        assert 0 < len(calls) <= d


def test_fit_reports_a_held_out_sample_off_by_one(monkeypatch):
    pair_genus = roots._pair_quotient_genus

    def off_at_ten(a, b, d):
        return pair_genus(a, b, d) + (a == 10)

    monkeypatch.setattr(roots, "_pair_quotient_genus", off_at_ten)
    # class 0 mod 2 is fitted at a = 4, 6, 8; a = 10 is held out
    with pytest.raises(TheoremViolationError) as err:
        fit_quasipolynomial(1, 2, (3, 41))
    predicted = Fraction(1, 4) * 100 - Fraction(1, 2) * 10
    assert predicted == pair_genus(10, 11, 2) == 20
    assert str(err.value) == (
        f"fit on class 0 (mod 2) predicts {predicted} at a = 10, brute force gives 21"
    )


def _class_pairs(ra: int, rb: int, d: int, count: int) -> list[tuple[int, int]]:
    """First few pairwise-coprime (a, b) on the residue class, a < b."""
    out = []
    a = ra if ra > 1 else ra + d
    while len(out) < count:
        b = rb if rb > a else rb + ((a - rb) // d + 1) * d
        while len(out) < count and b < a + 6 * d * count:
            if (
                b > a
                and math.gcd(a, b) == 1
                and (d == 1 or (math.gcd(a, d) == 1 and math.gcd(b, d) == 1))
            ):
                out.append((a, b))
            b += d
        a += d
    return out[:count]


def test_extract_cabd_constant_examples():
    # d = 2, residues (1, 1): a = 3, b = 5 gives g = 2, Sylvester term
    # (2)(4)/4 = 2, so the constant is 0.
    value = extract_cabd_constant(1, 1, 2, _class_pairs(1, 1, 2, 6))
    assert value == Fraction(0)
    # d = 1 reduces to the Sylvester count itself.
    assert extract_cabd_constant(0, 0, 1, [(2, 3), (3, 4), (4, 5), (3, 5)]) == 0


def test_extract_cabd_constant_is_constant_across_samples():
    rng = random.Random(777)
    for _ in range(10):
        d = rng.randint(2, 8)
        units = [r for r in range(1, d) if math.gcd(r, d) == 1]
        ra = rng.choice(units)
        rb = rng.choice(units)
        value = extract_cabd_constant(ra, rb, d, _class_pairs(ra, rb, d, 5))
        more = extract_cabd_constant(ra, rb, d, _class_pairs(ra, rb, d, 9))
        assert value == more, (ra, rb, d)


def test_extract_cabd_constant_validation():
    with pytest.raises(PreconditionError):
        extract_cabd_constant(2, 1, 4, [(2, 5), (6, 9)])  # gcd(a, d) = 2
    with pytest.raises(PreconditionError):
        extract_cabd_constant(1, 1, 2, [(3, 5)])  # too few samples
    with pytest.raises(PreconditionError):
        extract_cabd_constant(1, 1, 2, [(3, 5), (4, 7)])  # 4 is off-class


def test_admissible_classes():
    # a class is fitted unless a prime of k divides both r and d
    for k, d, classes in (
        (1, 2, [0, 1]),
        (2, 2, [1]),
        (2, 3, [0, 1, 2]),
        (2, 4, [1, 3]),
        (6, 4, [1, 3]),
        (3, 6, [1, 2, 4, 5]),
        (1, 1, [0]),
    ):
        assert sorted(fit_quasipolynomial(k, d, (1, 100)).per_class) == classes, (k, d)


def test_fit_refuses_a_short_range_before_walking_every_class():
    # class 0 mod d has no member in 1..10; the walk stops there, so d does
    # not scale the memory of the refusal
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError) as err:
            fit_quasipolynomial(1, 2_000_000, (1, 10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(err.value) == (
        "class 0 (mod 2000000) has 0 admissible samples in [1, 10]; "
        "at least 4 are needed (3 to fit, 1 to verify)"
    )
    assert peak < 2**20


def test_fit_constants_match_extract_cabd_constant():
    checked = 0
    for k in (1, 2, 3, 5):
        for d in range(1, 9):
            fit = fit_quasipolynomial(k, d, (1, 120))
            for (ra, rb), constant in fit.cabd_constant.items():
                pairs = [(a, a + k) for a in range(ra or d, 60, d) if math.gcd(a, k) == 1]
                assert constant == extract_cabd_constant(ra, rb, d, pairs), (k, d, ra)
                checked += 1
    assert checked == 50


def test_fit_checks_the_class_constant_on_every_sample(monkeypatch):
    pair_genus = roots._pair_quotient_genus

    def drifting(a, b, d):
        # + (a - r)/d on class r is linear in a: the quadratic is kept, but
        # the genus minus the Sylvester term is no longer constant
        return pair_genus(a, b, d) + a // d

    monkeypatch.setattr(roots, "_pair_quotient_genus", drifting)
    # d = 2 has no class with both residues prime to d, so no constant
    fit = fit_quasipolynomial(1, 2, (3, 41))
    assert fit.cabd_constant == {}
    assert fit.per_class[0] == (Fraction(1, 4), Fraction(0), Fraction(0))
    assert fit.per_class[1] == (Fraction(1, 4), Fraction(0), Fraction(-1, 4))
    # d = 3: class 0 fits; on class (1, 2) the held-out samples still match
    # and a = 1, 4 give the constants 0 and 1
    with pytest.raises(TheoremViolationError) as err:
        fit_quasipolynomial(1, 3, (1, 40))
    assert str(err.value) == (
        "constant differs on class (1, 2) mod 3: (1, 2) gives 0 but (4, 5) gives 1"
    )


def test_fit_quasipolynomial_frozen_k1_d2():
    fit = fit_quasipolynomial(1, 2, (3, 41))
    assert fit.per_class[0] == (Fraction(1, 4), Fraction(-1, 2), Fraction(0))
    assert fit.per_class[1] == (Fraction(1, 4), Fraction(-1, 2), Fraction(1, 4))
    # Verify against a direct value: a = 9 gives g(<9, 10>/2).
    S = from_generators([9, 10])
    c2, c1, c0 = fit.per_class[1]
    assert c2 * 81 + c1 * 9 + c0 == quotient(S, 2).genus


def test_fit_quasipolynomial_frozen_k1_d1():
    fit = fit_quasipolynomial(1, 1, (2, 30))
    # g(<a, a+1>) = (a - 1) a / 2 = a^2/2 - a/2.
    assert fit.per_class[0] == (Fraction(1, 2), Fraction(-1, 2), Fraction(0))


def test_fit_quasipolynomial_k2_d4():
    fit = fit_quasipolynomial(2, 4, (3, 60))
    assert sorted(fit.per_class) == [1, 3]
    for residue in (1, 3):
        assert fit.per_class[residue][0] == Fraction(1, 8), residue


def test_fit_leading_coefficient_always_half_inverse_period():
    rng = random.Random(984)
    for _ in range(6):
        k = rng.choice([1, 2, 3, 5])
        d = rng.randint(1, 8)
        fit = fit_quasipolynomial(k, d, (2, 150))
        for residue, (c2, _, _) in fit.per_class.items():
            assert c2 == Fraction(1, 2 * d), (k, d, residue)


def test_fit_predicts_heldout_values():
    fit = fit_quasipolynomial(3, 5, (2, 120))
    for a in (121, 122, 123, 124, 125, 126):
        if math.gcd(a, 3) != 1:
            continue
        c2, c1, c0 = fit.per_class[a % 5]
        predicted = c2 * a * a + c1 * a + c0
        actual = quotient(from_generators([a, a + 3]), 5).genus
        assert predicted == actual, a


def test_fit_requires_enough_samples():
    with pytest.raises(PreconditionError):
        fit_quasipolynomial(1, 2, (3, 8))  # too narrow for fit plus holdout
