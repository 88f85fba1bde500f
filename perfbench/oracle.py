"""Independent oracle for the benchmark: a membership sieve on Python integers.

Nothing here imports ``numsgps``.  A semigroup is a bit mask whose bit x is
set when x is a member; closing the mask under adding a generator g is a
run of shift-and-or steps with shifts g, 2g, 4g, ...  The sieve runs up to
the Schur bound min(gens) * max(gens), above every Frobenius number of the
generated semigroup, so F and g are read off the complement of the mask.
For the quotient S/d = {x : d x in S}, bit d x of the gap mask is bit x of
the quotient's gap mask: a strided slice of the mask's binary string.
"""

from __future__ import annotations

import math
from fractions import Fraction


def close(mask: int, g: int, nbits: int) -> int:
    """The mask closed under adding g, truncated to its low ``nbits`` bits."""
    full = (1 << nbits) - 1
    shift = g
    while shift < nbits:
        mask = (mask | (mask << shift)) & full
        shift *= 2
    return mask


class Semigroup:
    """<gens> by sieve: Frobenius number, genus, gaps and quotients."""

    def __init__(self, gens):
        gens = sorted(set(gens))
        if not gens or gens[0] < 1 or math.gcd(*gens) != 1:
            raise ValueError(f"not a numerical semigroup: {gens}")
        self.nbits = gens[0] * gens[-1]
        members = 1
        for g in gens:
            members = close(members, g, self.nbits)
        gap_mask = members ^ ((1 << self.nbits) - 1)
        self.frobenius = gap_mask.bit_length() - 1
        self.genus = gap_mask.bit_count()
        # flags[x] == "1" exactly when x is a gap, for 0 <= x < nbits
        self.flags = format(gap_mask, f"0{self.nbits}b")[::-1]

    def contains(self, x: int) -> bool:
        return x >= 0 and (x >= self.nbits or self.flags[x] == "0")

    def quotient(self, d: int) -> "Quotient":
        return Quotient(self.flags[::d])

    def is_d_symmetric(self, d: int) -> bool:
        """Every gap n divisible by d has F - n in S."""
        F = self.frobenius
        return all(
            self.contains(F - n)
            for n in range(d, F + 1, d)
            if self.flags[n] == "1"
        )


class Quotient:
    """A semigroup given by its gap flags: ``flags[x] == "1"`` iff x is a gap."""

    def __init__(self, flags: str):
        self.flags = flags
        self.frobenius = flags.rfind("1")
        self.genus = flags.count("1")

    @property
    def symmetric(self) -> bool:
        return 2 * self.genus == self.frobenius + 1

    def gaps(self) -> list[int]:
        return [x for x, flag in enumerate(self.flags) if flag == "1"]

    def has_minimal_generators(self, gens) -> bool:
        """True when ``gens`` is exactly the minimal generating set.

        Generators are added in increasing order; one that the smaller ones
        already reach is redundant.  The sieve only needs to reach F + m + 1:
        no minimal generator is larger, and m + 1 members in a row above F,
        m among the generators, prove every larger integer is a member.
        """
        gens = list(gens)
        if not gens or gens != sorted(set(gens)) or gens[0] < 1:
            return False
        F = self.frobenius
        nbits = F + gens[0] + 2
        if gens[-1] >= nbits:
            return False
        mask = 1
        for g in gens:
            if mask >> g & 1:
                return False
            mask = close(mask, g, nbits)
        want = int(self.flags[: F + 1][::-1] or "0", 2) ^ ((1 << (F + 1)) - 1)
        return mask == want | (((1 << nbits) - 1) ^ ((1 << (F + 1)) - 1))


def pair_constant(a: int, b: int, d: int) -> Fraction:
    """C = g(<a, b>/d) - (a - 1)(b - 1)/(2d), by sieve."""
    return Fraction(Semigroup((a, b)).quotient(d).genus) - Fraction(
        (a - 1) * (b - 1), 2 * d
    )


def frac(value: Fraction) -> int | str:
    """The program's JSON rendering of a rational: int, else "num/den"."""
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"
