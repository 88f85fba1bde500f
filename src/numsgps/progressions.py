"""Quotients of semigroups generated by arithmetic progressions.

Two families, always with gcd(a, k) = 1.  The three-term family
<a, a+k, a+2k> has fully explicit quotients by divisors d of a: writing
a = s*d and t = floor(d/2) (so d = 2t or 2t + 1),

    d odd,  a even:  S/d = <s, s + k + ts, s + 2k + 2ts>, symmetric,
                     and <2, 2 + k + 2t> at s = 2;
    d even:          S/d = <s, k + st>, symmetric;
    a odd (d odd):   F and g have closed forms and 2g - F = (s + 1)/2.

The full progression <a, a+k, ..., a+(a-1)k> divides out exactly:
S/d = <s, s+k, ..., s+(s-1)k> for d | a, with F = k(s-1) and
g = (k+1)(s-1)/2, and S/d for d | k keeps the shape with k/d in place
of k.  The remaining mixed cases have no known closed form.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .core import (
    NumericalSemigroup,
    PreconditionError,
    TheoremViolationError,
    _require_positive,
    from_generators,
)


def _validated(spec):
    """``spec`` once its fields are positive integers and gcd(a, k) = 1."""
    for name, v in zip(spec._fields, spec):
        _require_positive(name, v)
    if math.gcd(spec.a, spec.k) != 1:
        raise PreconditionError(
            f"a and k must be coprime, got gcd({spec.a}, {spec.k}) = {math.gcd(spec.a, spec.k)}"
        )
    return spec


class Ap3Spec(namedtuple("Ap3Spec", "a k d")):
    """Parameters (a, k, d) for <a, a+k, a+2k> and a divisor d of a.

    Derived: s = a/d and t = floor(d/2), so d = 2t for even d and
    d = 2t + 1 for odd d.
    """

    __slots__ = ()

    def __new__(cls, a: int, k: int, d: int):
        spec = _validated(super().__new__(cls, a, k, d))
        if a % d:
            raise PreconditionError(f"d = {d} must divide a = {a}")
        return spec

    @property
    def s(self) -> int:
        return self.a // self.d

    @property
    def t(self) -> int:
        return self.d // 2


class FullApSpec(namedtuple("FullApSpec", "a k")):
    """Parameters (a, k) for the full progression <a, a+k, ..., a+(a-1)k>."""

    __slots__ = ()

    def __new__(cls, a: int, k: int):
        return _validated(super().__new__(cls, a, k))


def ap3_symmetric_iff_even(a: int, k: int) -> bool:
    """Predicted symmetry of <a, a+k, a+2k>: symmetric exactly when a is even.

    Needs a >= 2; a = 1 collapses the semigroup to all of N, which is
    vacuously symmetric regardless of parity.
    """
    _require_positive("a", a, 2)
    if math.gcd(a, k) != 1:
        raise PreconditionError(f"a and k must be coprime, got gcd({a}, {k})")
    return a % 2 == 0


def ap3_quotient_generators(spec: Ap3Spec) -> tuple[int, ...]:
    """Minimal generators of <a, a+k, a+2k>/d for d >= 3 dividing a.

    Odd d needs a even (the progression result covers even multiples of
    odd divisors).  With delta = k + ts, odd d gives (s, s + delta,
    s + 2 delta), less s + 2 delta = 2(1 + delta), a multiple of s, at s = 2;
    even d gives (s, k + st), less k + st at s = 1, where d = a gives N.
    """
    if spec.d < 3:
        raise PreconditionError(f"d must be >= 3, got {spec.d}")
    s, t, k = spec.s, spec.t, spec.k
    if spec.d % 2:
        if spec.a % 2:
            raise PreconditionError(f"odd divisor d = {spec.d} requires even a, got a = {spec.a}")
        delta = k + t * s
        return (s, s + delta) if s == 2 else (s, s + delta, s + 2 * delta)
    return (1,) if s == 1 else (s, k + s * t)


def ap3_even_d_invariants(spec: Ap3Spec) -> tuple[int, int]:
    """(F, g) of <a, a+k, a+2k>/d for even d >= 4 dividing a:

        F = (s - 1)(a + 2k)/2 - s        g = (s - 1)(a + 2k - 2)/4
    """
    if spec.d < 4 or spec.d % 2:
        raise PreconditionError(f"d must be even and >= 4, got {spec.d}")
    a, k, s = spec.a, spec.k, spec.s
    f_scaled = (s - 1) * (a + 2 * k)
    if f_scaled % 2:
        raise TheoremViolationError(f"F formula for {spec} is not an integer")
    g_scaled = (s - 1) * (a + 2 * k - 2)
    if g_scaled % 4:
        raise TheoremViolationError(f"g formula for {spec} is not an integer")
    return f_scaled // 2 - s, g_scaled // 4


def ap3_odd_a_invariants(spec: Ap3Spec) -> tuple[int, int]:
    """(F, g) of <a, a+k, a+2k>/d for odd a and any divisor d of a:

        F = ((s-1)t + (s-1)/2)s + (s-1)k - s
        g = (s(s-1)t + (s^2-1)/2 + (s-1)k - (s-1)) / 2

    and the pair satisfies 2g - F = (s + 1)/2.  Scaled integer arithmetic
    throughout; s is odd because a is.
    """
    if spec.a % 2 == 0:
        raise PreconditionError(f"a must be odd, got {spec.a}")
    s, t, k = spec.s, spec.t, spec.k
    f_scaled = (2 * (s - 1) * t + (s - 1)) * s + 2 * (s - 1) * k - 2 * s
    if f_scaled % 2:
        raise TheoremViolationError(f"F formula for {spec} is not an integer")
    frobenius = f_scaled // 2
    g_scaled = 2 * s * (s - 1) * t + (s * s - 1) + 2 * (s - 1) * k - 2 * (s - 1)
    if g_scaled % 4:
        raise TheoremViolationError(f"g formula for {spec} is not an integer")
    genus = g_scaled // 4
    if 2 * genus - frobenius != (s + 1) // 2:
        raise TheoremViolationError(
            f"2g - F = {2 * genus - frobenius} != (s + 1)/2 = {(s + 1) // 2} for {spec}"
        )
    return frobenius, genus


def full_ap_quotient_generators(spec: FullApSpec, d: int) -> tuple[int, ...]:
    """Minimal generators s, s+k, ..., s+(s-1)k of <a, a+k, ..., a+(a-1)k>/d
    for d | a.

    The list is already minimal: gcd(s, k) = 1, so s + ik is the least
    member of its class mod s, and no sum of two or more generators is.
    """
    if not isinstance(d, int) or d < 1 or spec.a % d:
        raise PreconditionError(f"d = {d} must be a positive divisor of a = {spec.a}")
    s = spec.a // d
    return tuple(s + i * spec.k for i in range(s))


def full_ap_quotient(spec: FullApSpec, d: int) -> NumericalSemigroup:
    """<a, a+k, ..., a+(a-1)k>/d for d | a equals <s, s+k, ..., s+(s-1)k>."""
    return from_generators(full_ap_quotient_generators(spec, d))


def full_ap_divisor_identity(spec: FullApSpec, d: int) -> tuple[int, int]:
    """(F, g) of the full-progression quotient by d | a, s = a/d >= 2:

        F = k(s - 1)        g = (k + 1)(s - 1)/2 = (F + s - 1)/2
    """
    if not isinstance(d, int) or d < 1 or spec.a % d:
        raise PreconditionError(f"d = {d} must be a positive divisor of a = {spec.a}")
    s = spec.a // d
    if s == 1:
        raise PreconditionError(
            "degenerate case d = a: the quotient is all of N with F = -1, g = 0"
        )
    frobenius = spec.k * (s - 1)
    g_scaled = (spec.k + 1) * (s - 1)
    if g_scaled % 2:
        raise TheoremViolationError(f"g formula for {spec}/{d} is not an integer")
    genus = g_scaled // 2
    if 2 * genus != frobenius + s - 1:
        raise TheoremViolationError(f"g != (F + s - 1)/2 for {spec}/{d}")
    return frobenius, genus


def full_ap_d_divides_k(spec: FullApSpec, d: int) -> tuple[int, int]:
    """(F, g) of the full-progression quotient by d | k, a >= 2:

        F = (a - 1)k/d        g = (a - 1)(k/d + 1)/2 = (F + a - 1)/2
    """
    if not isinstance(d, int) or d < 1 or spec.k % d:
        raise PreconditionError(f"d = {d} must be a positive divisor of k = {spec.k}")
    if spec.a < 2:
        raise PreconditionError(f"a must be >= 2, got {spec.a}")
    k_red = spec.k // d
    frobenius = (spec.a - 1) * k_red
    g_scaled = (spec.a - 1) * (k_red + 1)
    if g_scaled % 2:
        raise TheoremViolationError(f"g formula for {spec}/{d} is not an integer")
    genus = g_scaled // 2
    if 2 * genus != frobenius + spec.a - 1:
        raise TheoremViolationError(f"g != (F + a - 1)/2 for {spec}/{d}")
    return frobenius, genus

