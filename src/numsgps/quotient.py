"""Quotients of numerical semigroups by a positive integer.

S/d = {x >= 0 : d*x in S} is again a numerical semigroup, and x is a gap
of it exactly when d*x is a gap of S.  So its gap mask is every d-th byte
of the gap mask of S, one C-level strided slice that is still the
definitional membership test of d*x, and that read, shared with no closed
form, is the oracle of every sweep.  The mask gives the canonical form
directly (each class modulo the least non-gap starts just above its
largest gap) with no closure check, since S/d is a semigroup by
definition; the quotient keeps the mask for its gaps, its d-symmetry and
the root layer, and its minimal generators are left until they are read.
The module also carries the Frobenius shortcut for d-symmetric
semigroups.
"""

from __future__ import annotations

from .core import (
    NumericalSemigroup,
    PreconditionError,
    _from_gap_mask,
    _require_positive,
    contains,
    is_d_symmetric,
)


def quotient(S: NumericalSemigroup, d: int) -> NumericalSemigroup:
    """The quotient S/d = {x : d*x in S} in canonical form.

    Byte x of the gap mask of S/d is byte d*x of the gap mask of S, cut
    after its last gap: every x > floor(F(S)/d) is a member.
    """
    _require_positive("divisor", d)
    if d == 1:
        return S
    mask = S._gap_mask[::d]
    return _from_gap_mask(mask[: mask.rfind(1) + 1])


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

