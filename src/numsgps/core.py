"""Exact arithmetic of numerical semigroups.

A numerical semigroup is a cofinite subset of the nonnegative integers
that contains 0 and is closed under addition.  It is built from its
canonical form alone, the per-residue table of least elements modulo the
multiplicity m (the Apery set Ap(S, m)), which fixes m = len(Ap(S, m)),
F(S) = max(Ap(S, m)) - m and g(S) = (1/m) * sum(Ap(S, m)) - (m - 1)/2,
read off once; membership is one comparison against it.  Gaps
and the coefficients of P_S are derived from the table on demand, through
a byte mask of the gaps up to F(S) that is built at most once per
semigroup and kept (immutable) for every later reader: the gap list, P_S,
the d-symmetry test and the per-class gap counts of the root layer.

The table comes from the round robin of Boecker and Liptak (m*e steps)
or from a shift-or sieve on one Python int, whichever is estimated to
cost less; the sieve wins on many generators over a short range, such as
a full progression.  Taking generators in ascending order, either pass
tells which are minimal: ``from_generators`` keeps the ones it found, and
any other semigroup computes them only when first read, over the table's
own entries, by whichever pass costs less.  A complement known to be a
semigroup (the members a sieve pass closed, turned into bytes, or a
quotient, whose mask is every d-th byte of the mask of S) is built from
its gap mask in one pass of C-level counts, with no closure check, and
keeps that mask; Ap[r] = r + n * #{gaps congruent to r mod n} reads the
Apery table at m, or at any other member n, off every mask.  So the
oracle of every quotient is still the membership test of d*x, read in C;
theorem-main's fold reads the same mask of S, while g(S) comes from the
Apery sum, and the test suite pins the mask to an independent
dynamic-programming sieve.

One size rule, MAX_FROBENIUS, bounds what holds an entry per integer or
per class: the gap mask (so F(S)), a sieve pass, and an Apery table (so m
or the modulus n).  Construction is bounded by its steps alone, so what
reads only the table (F, g, membership, symmetry at d = 1) is answered
at any F(S).
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cached_property
from typing import Iterable

# Desk-scale guard on what holds an entry per integer or per class: the gap
# mask is refused above F(S) = MAX_FROBENIUS, a sieve pass runs on at most
# MAX_FROBENIUS + m + 1 bits, and an Apery table holds at most MAX_FROBENIUS
# entries (`apery --gens 4999999,5000000` peaks at 736 MiB RSS, CPython
# 3.11, x86-64).  What builds nothing of size F(S) is not refused for it.
MAX_FROBENIUS = 5_000_000
# Desk-scale guard on the steps one command may take, each about 0.1 us
# (CPython 3.11, x86-64): the d - 1 roots each take min(d, F(S) + 2) Horner
# steps over the folded P_S, a quasipolynomial fit counts gaps in O(a) steps
# per sample a, and construction takes m*e round-robin steps or the
# estimated steps of its sieve passes.  Every verify sweep whose grid drives
# such work is refused above it too.
MAX_ROOT_WORK = 50_000_000


class PreconditionError(ValueError):
    """An operation was called outside its documented domain."""


class NotNumericalSemigroupError(PreconditionError):
    """The input does not define a numerical semigroup."""


class TheoremViolationError(RuntimeError):
    """An identity that must hold exactly failed; indicates a bug."""


class PrecisionLossError(ArithmeticError):
    """A floating-point evaluation drifted too far from an exact value."""


class ResourceLimitError(RuntimeError):
    """Instance exceeds the desk-scale size guards."""


def _require_work(work: float, what: str, *args) -> None:
    """Refuse ``what.format(*args)`` when its estimated ``work`` passes
    MAX_ROOT_WORK steps; the message is formatted only then."""
    if work > MAX_ROOT_WORK:
        what = what.format(*args)
        raise ResourceLimitError(f"{what} takes {round(work)} steps, more than {MAX_ROOT_WORK}")


def _require_positive(name: str, value: int, least: int = 1) -> None:
    if not isinstance(value, int) or value < least:
        if least == 1:
            raise PreconditionError(f"{name} must be a positive integer, got {value}")
        raise PreconditionError(f"{name} must be an integer >= {least}, got {value}")


class NumericalSemigroup:
    """Canonical form of a numerical semigroup, built from its table alone.

    ``apery[r]`` is the least member congruent to r mod the multiplicity
    m = len(apery); the table fixes ``frobenius`` and ``genus``, read off it
    once by :func:`invariants_from_apery`, and equality and hashing read
    only it.  Build one with :func:`from_generators` or from an Apery table.
    ``frobenius`` is -1 when the semigroup is all of the nonnegative
    integers (empty complement).
    """

    def __init__(self, apery: tuple[int, ...]):
        frobenius, genus = invariants_from_apery(apery)
        self.__dict__.update(multiplicity=len(apery), frobenius=frobenius, genus=genus, apery=apery)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: NumericalSemigroup is immutable")

    def __eq__(self, other) -> bool:
        return self.apery == other.apery if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.apery)

    @cached_property
    def minimal_generators(self) -> tuple[int, ...]:
        # Every minimal generator other than m is the least member of its
        # class, so either pass over the table's entries keeps exactly them.
        # Per kept generator the round robin takes about m steps, and a
        # sieve of F + m + 1 bits (every x > F is a member) at most the
        # shifts of m; the table is known, so the sieve skips its read.
        m = self.multiplicity
        values = [m, *sorted(self.apery[1:])]
        nbits = self.frobenius + m + 1
        if _sieve_cost([m], nbits) < m:
            kept = _sieve(values, nbits)[1]
        else:
            kept = _round_robin(values)[1]
        return (m, *kept)

    @property
    def embedding_dimension(self) -> int:
        return len(self.minimal_generators)

    @property
    def conductor(self) -> int:
        return self.frobenius + 1

    @cached_property
    def _gap_mask(self) -> bytes:
        """mask[x] = 1 exactly when 0 <= x <= F(S) is a gap; built once,
        and immutable so that no reader can change what later ones see."""
        if self.frobenius > MAX_FROBENIUS:
            raise ResourceLimitError(f"Frobenius number {self.frobenius} exceeds {MAX_FROBENIUS}")
        m = self.multiplicity
        mask = bytearray(self.frobenius + 1)
        for r in range(1, m):
            mask[r : self.apery[r] : m] = b"\x01" * ((self.apery[r] - r) // m)
        return bytes(mask)

    @cached_property
    def gaps(self) -> tuple[int, ...]:
        return tuple(itertools.compress(itertools.count(), self._gap_mask))

    def __str__(self) -> str:
        return "<" + ", ".join(str(g) for g in self.minimal_generators) + ">"

    def __repr__(self) -> str:
        return (
            f"NumericalSemigroup({list(self.minimal_generators)}, "
            f"F={self.frobenius}, g={self.genus})"
        )


def _round_robin(values: list[int]) -> tuple[tuple[int, ...], list[int]]:
    """Apery table of <values> (ascending, with n = values[0] the
    multiplicity): the least member in each residue class mod n, and the
    values other than n that changed the table (with n, the minimal
    generators).

    In ascending order, g is already a member, and is skipped, exactly when
    dist[g mod n] <= g.  Otherwise every addition cycle r -> r + g (mod n)
    is relaxed once starting from its current minimum, which is exact
    because earlier classes only improve by whole cycles.
    """
    n = values[0]
    infinity = n * values[-1] + 1  # strictly above any reachable value
    dist = [infinity] * n
    dist[0] = 0
    kept = []
    for g in values:
        step = g % n
        if dist[step] <= g:
            continue
        kept.append(g)
        c = math.gcd(step, n)
        cycle_len = n // c
        for start in range(c):
            # Finite entries are congruent to their residue mod n, so the
            # cycle's least value (residues start mod c) names its residue.
            v = min(dist[start::c])
            if v >= infinity:
                continue
            r = v % n
            for _ in range(cycle_len - 1):
                r += step
                if r >= n:
                    r -= n
                v += g
                if v < dist[r]:
                    dist[r] = v
                else:
                    v = dist[r]
    if max(dist) >= infinity:
        raise NotNumericalSemigroupError(
            "residue class unreachable; generators do not have gcd 1 with the modulus"
        )
    return tuple(dist), kept


def _sieve(values: list[int], nbits: int) -> tuple[int, list[int]] | None:
    """The members below ``nbits`` > max(values) of <values> (ascending,
    with m = values[0]), as the bits of one int, and the values other than
    m that were not yet members when reached; or None if the top m bits
    hold a gap, so that the mask cannot fix the Apery set.

    A generator whose bit is set is skipped; any other is added to the mask
    by shifts g, 2g, 4g, ... below nbits.
    """
    mult = values[0]
    full = (1 << nbits) - 1
    members, kept = 1, []
    for g in values:
        if members >> g & 1:
            continue
        if g != mult:
            kept.append(g)
        shift = g
        while shift < nbits:
            members |= (members << shift) & full
            shift *= 2
    if members >> (nbits - mult) != (1 << mult) - 1:
        return None
    return members, kept


def _sieve_cost(values: list[int], nbits: int) -> float:
    """Estimated steps of a sieve pass of ``nbits`` bits.

    Each shift by g, 2g, ... below nbits costs as much as nbits/64 + 8
    64-bit words, and one round-robin step as much as 6 (measured with
    CPython 3.11 on x86-64).
    """
    shifts = sum(((nbits - 1) // g).bit_length() for g in values)
    return shifts * (nbits // 64 + 8) / 6


def _apery_and_kept(values: list[int]) -> tuple[NumericalSemigroup, list[int]]:
    """<values> (ascending) and the values that ``_round_robin(values)``
    keeps, by the cheaper construction.

    The sieve starts at 2 max(values) + m bits, enough when F < 2 max(values),
    and doubles up to MAX_FROBENIUS + m + 1 bits while the passes so far
    and the next one cost less than m(e - 4), the round robin's m*e steps
    less 4 per class, so that failed passes never cost more than the round
    robin they fall back to; the -4 keeps every input of at most four
    generators on the round robin.  A pass that builds the table is read as
    a gap mask, which the semigroup keeps; when none does, the round robin
    builds it.  Before each pass, and before the round robin, the estimated
    steps of the passes run so far and of that step are held to
    MAX_ROOT_WORK.
    """
    mult = values[0]
    what = ("building <{}, ...> from {} generators", mult, len(values))
    budget = mult * (len(values) - 4)
    longest = MAX_FROBENIUS + mult + 1
    nbits = min(2 * values[-1] + mult, longest)
    spent = 0
    while spent + (cost := _sieve_cost(values, nbits)) < budget:
        _require_work(spent + cost, *what)
        spent += cost
        built = _sieve(values, nbits)
        if built is not None:
            bits = bin(built[0])[:1:-1]  # bits[x] == "1": x is a member
            # cut after the last gap, then a gap is byte 1 and a member byte 0
            mask = bits[: bits.rfind("0") + 1].encode().translate(bytes.maketrans(b"01", b"\1\0"))
            return _from_gap_mask(mask), built[1]
        if nbits == longest:
            break
        nbits = min(2 * nbits, longest)
    _require_work(spent + mult * len(values), *what)
    apery, kept = _round_robin(values)
    return NumericalSemigroup(apery), kept


def from_generators(generators: Iterable[int]) -> NumericalSemigroup:
    """Canonical semigroup generated by the given positive integers.

    Duplicates are dropped; the gcd of the set must be 1, otherwise the
    complement would be infinite and a :class:`NotNumericalSemigroupError`
    is raised.  A multiplicity above MAX_FROBENIUS is refused before any
    table is built.
    """
    values = sorted(set(generators))
    if not values:
        raise PreconditionError("at least one generator is required")
    if any(not isinstance(g, int) or g < 1 for g in values):
        raise PreconditionError(f"generators must be positive integers, got {values}")
    if math.gcd(*values) != 1:
        raise NotNumericalSemigroupError(
            f"gcd{tuple(values)} > 1: the complement is infinite, "
            "so this is not a numerical semigroup"
        )
    if values[0] > MAX_FROBENIUS:  # the table holds an int per class
        raise ResourceLimitError(f"multiplicity {values[0]} exceeds {MAX_FROBENIUS}")
    S, kept = _apery_and_kept(values)
    # the minimal generators this pass found, so that reading them does not run it again
    S.__dict__["minimal_generators"] = (values[0], *kept)
    return S


def _apery_from_mask(mask: bytes, n: int) -> tuple[int, ...]:
    """Ap(S, n) at a member n of S, whose gap mask is ``mask``: class r mod
    n holds the gaps r, r + n, ... below its least member, one C-level count
    for each of the min(n, F(S) + 1) classes that can hold a gap; a class
    r > F(S) holds none, so its entry is r."""
    # built from a list, whose length is known; tuple() of a generator raised
    # the peak RSS of a default theorem-main sweep by 0.4 MiB (CPython 3.11)
    table = [r + n * mask[r::n].count(1) for r in range(min(n, len(mask)))]
    return (*table, *range(len(mask), n))


def _from_gap_mask(mask: bytes) -> NumericalSemigroup:
    """The candidate semigroup whose gaps are the set bytes of ``mask``
    (mask[x] = 1 exactly when x is a gap, last byte set; empty for N),
    with no closure check, keeping ``mask`` as its own gap mask.

    The multiplicity m is the first unset byte after 0.  When the
    complement is a semigroup (a quotient, or the members a sieve pass
    closed under its generators) its Apery table at m is its canonical form.
    """
    mult = mask.find(0, 1)
    if mult < 0:  # 1, ..., F are all gaps, or the mask is empty (N)
        mult = len(mask) or 1
    S = NumericalSemigroup(_apery_from_mask(mask, mult))
    S.__dict__["_gap_mask"] = mask
    return S


def contains(S: NumericalSemigroup, x: int) -> bool:
    """Membership test: O(1) against the Apery set at the multiplicity."""
    if x < 0:
        return False
    return x >= S.apery[x % S.multiplicity]


def apery_set(S: NumericalSemigroup, n: int) -> tuple[int, ...]:
    """Ap(S, n) = {s in S : s - n not in S}, as per-residue least members:
    entry r is the least member congruent to r mod n, read off the gap mask
    in O(F(S) + n)."""
    _require_positive("Apery modulus", n)
    if not contains(S, n):
        raise PreconditionError(f"Apery modulus {n} is not a member of {S}")
    if n == S.multiplicity:
        return S.apery
    if n > MAX_FROBENIUS:  # the table holds an int per class, as the mask a byte per gap
        raise ResourceLimitError(f"Apery modulus {n} exceeds {MAX_FROBENIUS}")
    return _apery_from_mask(S._gap_mask, n)


def invariants_from_apery(elements: tuple[int, ...]) -> tuple[int, int]:
    """(Frobenius number, genus) from one Apery set, given as per-residue
    least members, so that its modulus n is its length.

    F(S) = max(Ap) - n and g(S) = sum(Ap)/n - (n-1)/2; the genus is computed
    in scaled integer arithmetic and must come out integral.
    """
    n = len(elements)
    frobenius = max(elements) - n
    doubled = 2 * sum(elements) - n * (n - 1)
    if doubled % (2 * n):
        raise TheoremViolationError(
            f"genus from Apery set mod {n} is not an integer; the table is corrupted"
        )
    return frobenius, doubled // (2 * n)


def is_d_symmetric(S: NumericalSemigroup, d: int) -> bool:
    """True when every gap divisible by d reflects into the semigroup.

    S is d-symmetric when F(S) - n is a member for every gap n that is a
    positive multiple of d: at d = 1, exactly when 2g = F + 1.  For d >= 2,
    exactly when G_0 + G_{F mod d} = floor(F/d) + 1, with G_j the number of
    gaps congruent to j mod d (two C-level counts over the gap mask): for
    each of the floor(F/d) + 1 multiples y of d in [0, F] the sum counts the
    gaps among y and F - y, at least one since F is not a member, so it
    reaches floor(F/d) + 1 exactly when no such pair is two gaps.
    """
    _require_positive("d", d)
    if d == 1:
        return 2 * S.genus == S.frobenius + 1
    mask, F = S._gap_mask, S.frobenius
    return mask[::d].count(1) + mask[F % d :: d].count(1) == F // d + 1


def gap_residue_counts(S: NumericalSemigroup, d: int) -> list[int]:
    """Number of gaps of S in each residue class j mod d, for the
    min(d, F(S) + 1) classes that can hold one; each is one C-level count
    over a stride of the gap mask."""
    _require_positive("d", d)
    mask = S._gap_mask
    return [mask[j::d].count(1) for j in range(min(d, S.frobenius + 1))]


def semigroup_polynomial_coeffs(S: NumericalSemigroup) -> tuple[int, ...]:
    """Coefficients of P_S(x) = 1 - (1 - x) * sum over gaps of x^s.

    P_S is (1 - x) times the member generating function sum_{s in S} x^s,
    cleared of its pole at x = 1; it has degree F(S) + 1 and P_S(1) = 1.
    Coefficient k is [k = 0] - gap(k) + gap(k - 1).
    """
    mask = S._gap_mask
    coeffs = list(map(operator.sub, b"\x00" + mask, mask + b"\x00"))
    coeffs[0] = 1
    return tuple(coeffs)
