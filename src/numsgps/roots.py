"""Quotient genus through roots of unity, and two-generator closed forms.

Writing H_S(x) = sum_{s in S} x^s and P_S(x) = (1 - x) H_S(x), the genus
of S/d is recovered from the values of H_S at the nontrivial d-th roots
of unity zeta_d^i:

    g(S/d) = (1/d) * [ g(S) + (d - 1)/2 - sum_{i=1}^{d-1} H_S(zeta_d^i) ]

The (d - 1)/2 term is the elementary identity
sum_{n=1}^{d-1} 1/(1 - zeta_d^n) = (d - 1)/2, conjugate roots pairing to 1.
Since zeta_d^d = 1, P_S is first folded modulo x^d - 1 in exact integers:
with G_j the number of gaps in class j mod d, the folded coefficient of
x^j is [j = 0] - G_j + G_{j-1 mod d}, zero from j = F(S) + 2 on.  The
min(d, F(S) + 2) coefficients are evaluated at each root by Horner's rule,
one float exp(2 pi i t / d) per root, so the genus formula's work cap
counts min(d, F(S) + 2)(d - 1) Horner steps and holds d to 7,071 once
F(S) + 2 >= d.
For S = <a, b> the genus of the quotient also has a purely arithmetic
closed form in floor sums of a^{-1} b j / d, and as a function of a on a
fixed residue class it is a quadratic with leading coefficient 1/(2d).
The closed form and the exact gap count behind the fits are Euclid-style
floor sums (Graham, Knuth & Patashnik, Concrete Mathematics, 3.5), by
floor((floor(x/a) + c)/n) = floor((x + ac)/(an)) for integers x, c, and
take O(log d) and O(d log a) steps.
All rational arithmetic is exact (fractions.Fraction); floating point
enters only through the root evaluations, with explicit residual checks.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from typing import TYPE_CHECKING, Iterator

from .core import (
    NumericalSemigroup,
    PrecisionLossError,
    PreconditionError,
    TheoremViolationError,
    _require_positive,
    _require_work,
    gap_residue_counts,
)

if TYPE_CHECKING:  # only the fits load fractions at run time
    from fractions import Fraction

DEFAULT_TOLERANCE = 1e-6
IDENTITY_TOLERANCE = 1e-9


class QuasipolynomialFit(namedtuple("QuasipolynomialFit", "per_class cabd_constant")):
    """Exact quadratic fits of a -> g(<a, a+k>/d) on residue classes mod d.

    ``per_class`` maps a residue r to coefficients (c2, c1, c0) with
    g = c2*a^2 + c1*a + c0 on the class; ``cabd_constant`` maps the
    (a mod d, b mod d) class to the constant C with
    g(<a,b>/d) = (a-1)(b-1)/(2d) + C.
    """

    __slots__ = ()


def _fold_mod(S: NumericalSemigroup, d: int) -> list[int]:
    """P_S modulo x^d - 1 as its coefficients Q_j, 0 <= j < min(d, F(S) + 2).

    Coefficient k of P_S is [k = 0] - gap(k) + gap(k - 1), so summing over
    each class j gives Q_j = [j = 0] - G_j + G_{j-1 mod d}; classes at or
    above F(S) + 2 hold no gap and no gap's successor, so their Q_j is 0.
    """
    G = gap_residue_counts(S, d)
    G += [0] * (min(d, S.frobenius + 2) - len(G))
    return [(j == 0) - g + G[j - 1] for j, g in enumerate(G)]


def root_of_unity_identity_check(d: int) -> float:
    """Deviation of sum 1/(1 - zeta_d^n), n = 1..d-1, from (d-1)/2.

    Returns max(|real - (d-1)/2|, |imag|); exact pairing of conjugate
    roots makes the true value (d-1)/2, so this measures float error only.
    """
    _require_positive("d", d, 2)
    total = sum(1 / (1 - cmath.exp(2j * cmath.pi * n / d)) for n in range(1, d))
    return max(abs(total.real - (d - 1) / 2), abs(total.imag))


def genus_quotient_via_roots(
    S: NumericalSemigroup, d: int, tolerance: float = DEFAULT_TOLERANCE
) -> int:
    """g(S/d) from the root-of-unity formula, rounded to the nearest integer.

    Raises :class:`PrecisionLossError` when the pre-rounding value sits
    farther than ``tolerance`` from every integer.
    """
    value, residual = _genus_via_roots_residual(S, d)
    if residual > tolerance:
        raise PrecisionLossError(
            f"genus formula for {S}/{d} is {residual:.3e} away from an integer "
            f"(tolerance {tolerance:.1e})"
        )
    return value


def _genus_via_roots_residual(S: NumericalSemigroup, d: int) -> tuple[int, float]:
    """(rounded genus, distance of the complex value from that integer)."""
    _require_positive("d", d)
    _require_work(min(d, S.frobenius + 2) * (d - 1), "evaluating {} at the roots of order {}", S, d)
    folded = _fold_mod(S, d)[::-1]  # Horner reads the highest coefficient first
    # the member series diverges on the unit circle, so H_S(zeta^i) is read as
    # P_S(zeta^i)/(1 - zeta^i), for i = 1..d - 1 from one fold
    total = 0
    for i in range(1, d):
        root = cmath.exp(2j * cmath.pi * i / d)
        value = 0
        for q in folded:
            value = value * root + q
        total += value / (1 - root)
    value = (S.genus + (d - 1) / 2 - total) / d
    rounded = round(value.real)
    return rounded, abs(value - rounded)


def sylvester_invariants(a: int, b: int) -> tuple[int, int]:
    """(F, g) of <a, b> for coprime a, b: F = ab - a - b, g = (a-1)(b-1)/2."""
    _require_positive("a", a)
    _require_positive("b", b)
    if math.gcd(a, b) != 1:
        raise PreconditionError(f"a and b must be coprime, got gcd({a}, {b}) = {math.gcd(a, b)}")
    return a * b - a - b, (a - 1) * (b - 1) // 2


def _require_pairwise_coprime(a: int, b: int, d: int) -> None:
    for x, y, names in ((a, b, "a, b"), (a, d, "a, d"), (b, d, "b, d")):
        if math.gcd(x, y) != 1:
            raise PreconditionError(
                f"{names} must be coprime, got gcd({x}, {y}) = {math.gcd(x, y)}"
            )


def genus_quotient_ed2_closed_form(a: int, b: int, d: int) -> int:
    """g(<a, b>/d) for pairwise coprime a, b, d with d >= 2, in pure integer
    arithmetic.

    With a* the inverse of a modulo d in [1, d-1] and q = floor((a-1)/d):

        g = (a-1)(b + d - a*ab)/(2d)
            + q(a*bq + a*b - 2)/2
            + sum over 1 <= j <= a-1, d not dividing j, of floor(a*bj/d)

    Everything is scaled by 2d internally and divided once at the end; the
    division must be exact.
    """
    _require_positive("a", a)
    _require_positive("b", b)
    _require_positive("d", d, 2)
    _require_pairwise_coprime(a, b, d)
    astar = pow(a, -1, d)
    q = (a - 1) // d
    # all j < a, less the q terms j = dt, each floor(a*b dt/d) = a*b t
    tail = _floor_sum(a, d, astar * b, 0) - astar * b * (q * (q + 1) // 2)
    scaled = (
        (a - 1) * (b + d - astar * a * b)
        + d * q * (astar * b * q + astar * b - 2)
        + 2 * d * tail
    )
    if scaled % (2 * d):
        raise TheoremViolationError(
            f"closed form for g(<{a},{b}>/{d}) did not produce an integer"
        )
    genus = scaled // (2 * d)
    if genus < 0:
        raise TheoremViolationError(
            f"closed form for g(<{a},{b}>/{d}) produced {genus} < 0"
        )
    return genus


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{i < n} floor((a i + b)/m) for n >= 0, m >= 1 and a, b >= 0,
    in O(log m) steps: reduce a and b below m, then swap the roles of the
    modulus and the slope, as in Euclid's algorithm."""
    total = 0
    while True:
        if a >= m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        top = a * n + b
        if top < m:
            return total
        n, b = divmod(top, m)
        m, a = a, m


def _pair_quotient_genus(a: int, b: int, d: int) -> int:
    """g(<a, b>/d) by counting gaps of <a, b> divisible by d, per residue
    class modulo a; exact, in at most d floor sums of O(log a) steps.

    Ap(<a,b>, a) = {0, b, 2b, ..., (a-1)b}, so class r = bi mod a holds
    the gaps bi - ja for 1 <= j <= floor(bi/a); those divisible by d
    solve ja = bi (mod d).  With e = gcd(a, d), prime to b, and d' = d/e
    that needs i = et, 1 <= t <= top = floor((a-1)/e), and then
    j = jmin (mod d') for one jmin in [1, d'] fixed by t mod d'.  There are
    floor((floor(bi/a) + d' - jmin)/d') = floor((bi + a(d' - jmin))/(ad'))
    such j, so each class of t mod d' that meets 1..top, from its least
    member t0, is one floor sum: min(d', top) of them in all.
    """
    if math.gcd(a, b) != 1:
        raise PreconditionError(f"a and b must be coprime, got gcd = {math.gcd(a, b)}")
    e = math.gcd(a, d)
    dr = d // e
    a_inv = pow(a // e, -1, dr)
    top = (a - 1) // e
    total = 0
    for t0 in range(1, min(dr, top) + 1):
        jmin = (b * t0 * a_inv) % dr or dr
        total += _floor_sum(
            (top - t0) // dr + 1, a * dr, b * e * dr, b * e * t0 + a * (dr - jmin)
        )
    return total


def extract_cabd_constant(
    a_class: int, b_class: int, d: int, samples: list[tuple[int, int]]
) -> Fraction:
    """The constant C with g(<a,b>/d) = (a-1)(b-1)/(2d) + C on the residue
    class (a_class, b_class) modulo d.

    Each sample pair must be pairwise coprime with d and lie on the class;
    the constant is computed per sample from exact per-class gap counts and
    must agree across all of them, else a :class:`TheoremViolationError`
    names two disagreeing witnesses.
    """
    _require_positive("d", d)
    if len(samples) < 2:
        raise PreconditionError(f"need at least 2 samples, got {len(samples)}")
    for a, b in samples:
        _require_positive("a", a)
        _require_positive("b", b)
        if a % d != a_class % d or b % d != b_class % d:
            raise PreconditionError(
                f"sample ({a}, {b}) is not on class ({a_class}, {b_class}) mod {d}"
            )
        _require_pairwise_coprime(a, b, d)
    return _class_constant(
        a_class, b_class, d, [(a, b, _pair_quotient_genus(a, b, d)) for a, b in samples]
    )


def _class_constant(
    a_class: int, b_class: int, d: int, witnesses: list[tuple[int, int, int]]
) -> Fraction:
    """C = g - (a-1)(b-1)/(2d) from witnesses (a, b, g) of one class:
    2d C = 2d g - (a-1)(b-1) must be one integer for all of them, else a
    :class:`TheoremViolationError` names the first and a disagreeing one."""
    from fractions import Fraction  # here, so that only the fits load fractions and decimal

    (a0, b0, g0), *rest = witnesses
    first = 2 * d * g0 - (a0 - 1) * (b0 - 1)
    for a, b, genus in rest:
        scaled = 2 * d * genus - (a - 1) * (b - 1)
        if scaled != first:
            raise TheoremViolationError(
                f"constant differs on class ({a_class}, {b_class}) mod {d}: "
                f"{(a0, b0)} gives {Fraction(first, 2 * d)} but {(a, b)} gives "
                f"{Fraction(scaled, 2 * d)}"
            )
    return Fraction(first, 2 * d)


def _lagrange3(
    xs: tuple[int, int, int], ys: tuple[int, int, int]
) -> tuple[Fraction, Fraction, Fraction]:
    """Exact (c2, c1, c0) of the quadratic through three points."""
    from fractions import Fraction

    x0, x1, x2 = xs
    y0, y1, y2 = (Fraction(y) for y in ys)
    f01 = (y1 - y0) / (x1 - x0)
    f12 = (y2 - y1) / (x2 - x1)
    c2 = (f12 - f01) / (x2 - x0)
    c1 = f01 - c2 * (x0 + x1)
    c0 = y0 - f01 * x0 + c2 * x0 * x1
    return c2, c1, c0


def _fit_work(a_min: int, a_max: int) -> int:
    """Steps charged to a fit on a_min..a_max: a for each a.  A gap count
    takes at most a - 1 floor sums of O(log a) steps, so this over-counts;
    it is kept so that the grids it admits, and the largest a_max, do not
    change."""
    return (a_max * (a_max + 1) - (a_min - 1) * a_min) // 2


def _fit_residues(k: int, d: int) -> Iterator[int]:
    """The residues r mod d that a fit walks, lazily: a prime of k dividing both d
    and r divides every member of class r, so no a on it has gcd(a, k) = 1;
    every other class holds infinitely many such a, and <a, a+k> is then a
    numerical semigroup."""
    return (r for r in range(d) if math.gcd(k, math.gcd(r, d)) == 1)


def _class_samples(k: int, d: int, r: int, a_min: int, a_max: int) -> list[int]:
    """The a in a_min..a_max on class r mod d with gcd(a, k) = 1."""
    return [a for a in range(a_min + (r - a_min) % d, a_max + 1, d) if math.gcd(a, k) == 1]


def _fit_class(
    k: int, d: int, r: int, a_min: int, a_max: int
) -> tuple[tuple[Fraction, Fraction, Fraction], Fraction | None]:
    """The quadratic (c2, c1, c0) of a -> g(<a, a+k>/d) on class r mod d,
    and the class's genus-minus-Sylvester constant, or None.

    The first three brute-force samples in a_min..a_max fix the quadratic
    by exact interpolation; its leading coefficient must be 1/(2d) and it
    must reproduce every other sample, else a :class:`TheoremViolationError`
    is raised.  A class with fewer than four samples is refused.  The
    constant exists only where r and r + k are prime to d, and must be the
    same on every sample there; elsewhere the difference grows linearly in
    a and no single constant exists.
    """
    from fractions import Fraction

    samples = _class_samples(k, d, r, a_min, a_max)
    if len(samples) < 4:
        raise PreconditionError(
            f"class {r} (mod {d}) has {len(samples)} admissible samples in "
            f"[{a_min}, {a_max}]; at least 4 are needed (3 to fit, 1 to verify)"
        )
    values = {a: _pair_quotient_genus(a, a + k, d) for a in samples}
    pts = tuple(samples[:3])
    c2, c1, c0 = _lagrange3(pts, tuple(values[a] for a in pts))
    if c2 != Fraction(1, 2 * d):
        raise TheoremViolationError(
            f"leading coefficient on class {r} (mod {d}) is {c2}, expected 1/{2 * d}"
        )
    # the held-out samples in integers: den * (c2 a^2 + c1 a + c0)
    den = math.lcm(c2.denominator, c1.denominator, c0.denominator)
    n2, n1, n0 = (c.numerator * (den // c.denominator) for c in (c2, c1, c0))
    for a in samples[3:]:
        if (n2 * a + n1) * a + n0 != den * values[a]:
            predicted = c2 * a * a + c1 * a + c0
            raise TheoremViolationError(
                f"fit on class {r} (mod {d}) predicts {predicted} at a = {a}, "
                f"brute force gives {values[a]}"
            )
    b_class = (r + k) % d
    if math.gcd(r, d) > 1 or math.gcd(b_class, d) > 1:
        return (c2, c1, c0), None
    return (c2, c1, c0), _class_constant(
        r, b_class, d, [(a, a + k, genus) for a, genus in values.items()]
    )


def fit_quasipolynomial(
    k: int, d: int, a_range: tuple[int, int]
) -> QuasipolynomialFit:
    """Fit a -> g(<a, a+k>/d) per residue class of a mod d and verify it.

    The classes are walked one at a time, each by steps of d through the
    range, and each is fitted and verified by ``_fit_class``, so a class
    with too few samples is refused when the walk reaches it.  A class's
    genus-minus-Sylvester constant is recorded where it exists.
    """
    _require_positive("k", k)
    _require_positive("d", d)
    a_min, a_max = a_range
    if a_min < 1 or a_max < a_min:
        raise PreconditionError(f"empty or invalid range {a_range}")
    _require_work(_fit_work(a_min, a_max), "a fit over {}..{}", a_min, a_max)
    per_class: dict[int, tuple[Fraction, Fraction, Fraction]] = {}
    constants: dict[tuple[int, int], Fraction] = {}
    for r in _fit_residues(k, d):
        per_class[r], constant = _fit_class(k, d, r, a_min, a_max)
        if constant is not None:
            constants[(r, (r + k) % d)] = constant
    return QuasipolynomialFit(per_class, constants)
