"""Independent brute-force oracles for the test suite.

Nothing here touches the library's Apery machinery: membership comes from
a direct dynamic-programming sieve, invariants from enumerating the sieve.
Expected values frozen into the tests were produced by these functions.
"""

from __future__ import annotations

import math


def sieve_members(generators: list[int], bound: int) -> list[bool]:
    """member[x] for 0 <= x <= bound, by direct DP over the generators."""
    member = [False] * (bound + 1)
    member[0] = True
    for x in range(1, bound + 1):
        member[x] = any(x >= g and member[x - g] for g in generators)
    return member


def sieve_invariants(generators: list[int]) -> tuple[int, int, list[int]]:
    """(frobenius, genus, gaps) via a sieve up to min(gens) * max(gens).

    The bound is safe: every Apery element of <gens> at the least generator
    m is a sum of at most m - 1 larger generators, so F < m * max(gens).
    """
    gens = sorted(set(generators))
    if math.gcd(*gens) != 1:
        raise ValueError("gcd must be 1")
    bound = gens[0] * gens[-1]
    member = sieve_members(gens, bound)
    gaps = [x for x in range(1, bound + 1) if not member[x]]
    frobenius = gaps[-1] if gaps else -1
    return frobenius, len(gaps), gaps


def sieve_apery(generators: list[int], n: int) -> list[int]:
    """Ap(<gens>, n) by scanning the sieve for per-residue minima."""
    gens = sorted(set(generators))
    bound = max(gens[0] * gens[-1], n) + n + 1
    member = sieve_members(gens, bound)
    out: list[int | None] = [None] * n
    for x in range(bound + 1):
        if member[x] and out[x % n] is None:
            out[x % n] = x
    assert all(v is not None for v in out)
    return out  # type: ignore[return-value]


def minimal_generators_by_enumeration(generators: list[int]) -> list[int]:
    """Drop every generator expressible as a sum of two nonzero members."""
    gens = sorted(set(generators))
    bound = gens[0] * gens[-1] + max(gens)
    member = sieve_members(gens, bound)
    out = []
    for g in gens:
        if not any(member[x] and member[g - x] for x in range(1, g)):
            out.append(g)
    return out


def quotient_gaps(generators: list[int], d: int) -> list[int]:
    """Gaps of <gens>/d straight from the defining predicate d*x in S."""
    frobenius, _, gap_list = sieve_invariants(generators)
    gap_set = set(gap_list)
    return [x for x in range(1, frobenius // d + 1) if d * x in gap_set]


def minimal_generators_from_gaps(gaps: list[int]) -> list[int]:
    """Minimal generators of the semigroup with the given gap set: the
    members that are not a sum of two nonzero members.  Each lies below
    F + 2m (m the least positive member), since x - m is a nonzero member
    past that."""
    gap_set = set(gaps)
    m = next(x for x in range(1, len(gap_set) + 2) if x not in gap_set)
    members = [x for x in range(1, max(gap_set, default=0) + 2 * m + 1) if x not in gap_set]
    member = set(members)
    return [x for x in members if not any(y in member and x - y in member for y in range(1, x))]


def representable(x: int, generators: list[int]) -> bool:
    """Is x a nonnegative integer combination of the generators?"""
    if x < 0:
        return False
    return sieve_members(sorted(set(generators)), x)[x]
