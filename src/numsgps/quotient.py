"""Quotients of numerical semigroups by a positive integer.

S/d = {x >= 0 : d*x in S} is again a numerical semigroup; its Frobenius
number is at most floor(F(S)/d), so the whole quotient is determined by
membership checks up to that bound; that scan, shared with no closed
form, is the oracle of every sweep.  Its gaps give the canonical form
directly (each class modulo the least non-gap starts just above its
largest gap) with no closure check, since S/d is a semigroup by
definition, and the minimal generators are left until they are read.
The module also carries the Frobenius shortcut for d-symmetric
semigroups.
"""

from __future__ import annotations

from .core import (
    NumericalSemigroup,
    PreconditionError,
    _complement,
    _require_positive,
    contains,
    is_d_symmetric,
)


def quotient(S: NumericalSemigroup, d: int) -> NumericalSemigroup:
    """The quotient S/d = {x : d*x in S} in canonical form.

    Every x > floor(F(S)/d) is a member, so the complement is read off the
    bounded prefix.
    """
    _require_positive("divisor", d)
    if d == 1:
        return S
    if contains(S, d):
        return _complement([])  # 1 in S/d, so the quotient is all of N
    ap, m = S.apery, S.multiplicity
    return _complement([x for x in range(1, S.frobenius // d + 1) if d * x < ap[d * x % m]])


def frobenius_quotient_dsymmetric(S: NumericalSemigroup, d: int) -> int:
    """F(S/d) = (F(S) - x)/d for d-symmetric S, with x the least member of
    S congruent to F(S) modulo d.

    x = 0 is allowed and occurs exactly when d divides F(S); restricting
    x to positive members would overshoot there, since F(S)/d is itself a
    gap of the quotient.  Requires d >= 2 and a proper d-symmetric
    semigroup; the divisibility of F(S) - x by d holds by choice of x.
    A return value of -1 means the quotient is all of the nonnegative
    integers.
    """
    _require_positive("divisor", d, 2)
    F = S.frobenius
    if F < 0:
        raise PreconditionError(
            "the semigroup of all nonnegative integers has no proper quotient structure here"
        )
    if not is_d_symmetric(S, d):
        n = next(n for n in range(d, F + 1, d) if not contains(S, n) and not contains(S, F - n))
        raise PreconditionError(
            f"{S} is not {d}-symmetric: gap {n} has F - {n} = {F - n} outside the semigroup"
        )
    x = F % d
    while not contains(S, x):
        x += d
    return (F - x) // d


__all__ = [
    "quotient",
    "frobenius_quotient_dsymmetric",
]
