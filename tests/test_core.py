"""Core construction, membership, Apery sets, and basic invariants."""

import itertools
import math
import random
import tracemalloc

import pytest

from numsgps import core
from numsgps.core import (
    MAX_FROBENIUS,
    NotNumericalSemigroupError,
    NumericalSemigroup,
    PreconditionError,
    ResourceLimitError,
    TheoremViolationError,
    apery_set,
    contains,
    from_generators,
    gap_residue_counts,
    invariants_from_apery,
    is_d_symmetric,
    semigroup_polynomial_coeffs,
)
from numsgps.quotient import quotient
from oracles import (
    minimal_generators_by_enumeration,
    representable,
    sieve_apery,
    sieve_invariants,
)


def test_naturals_from_single_generator():
    N = from_generators([1])
    assert N.frobenius == -1
    assert N.genus == 0
    assert N.gaps == ()
    assert N.conductor == 0
    assert N.minimal_generators == (1,)
    assert N.multiplicity == 1


def test_a_semigroup_is_built_from_its_table_alone():
    # m, F and g of N, <2, 3> and <m, ..., 2m - 1>, read off their tables
    for apery, invariants in (((0,), (1, -1, 0)), ((0, 3), (2, 1, 1))):
        S = NumericalSemigroup(apery)
        assert (S.multiplicity, S.frobenius, S.genus) == invariants
    for m in range(2, 40):
        S = NumericalSemigroup((0, *range(m + 1, 2 * m)))
        assert (S.multiplicity, S.frobenius, S.genus) == (m, m - 1, m - 1)
        assert S == from_generators(range(m, 2 * m))
    with pytest.raises(AttributeError):
        S.genus = 0
    # 2 * 8 - 3 * 2 = 10 is not a multiple of 2 * 3: no semigroup has this table
    with pytest.raises(TheoremViolationError):
        NumericalSemigroup((0, 5, 3))


def test_three_five_frozen_values():
    S = from_generators([3, 5])
    assert S.frobenius == 7
    assert S.genus == 4
    assert S.gaps == (1, 2, 4, 7)
    assert S.conductor == 8
    assert S.multiplicity == 3
    assert S.embedding_dimension == 2
    assert str(S) == "<3, 5>"


def test_minimal_generators_drop_redundant():
    S = from_generators([6, 9, 20, 27])
    # 27 = 9 + 9 + 9 is redundant; the rest are needed.
    assert S.minimal_generators == (6, 9, 20)
    assert S.embedding_dimension == 3


def test_generator_validation():
    with pytest.raises(PreconditionError):
        from_generators([])
    with pytest.raises(PreconditionError):
        from_generators([0, 3])
    with pytest.raises(PreconditionError):
        from_generators([-2, 3])
    with pytest.raises(NotNumericalSemigroupError):
        from_generators([4, 6])  # gcd 2: complement is infinite


def test_apery_frozen_examples():
    S = from_generators([3, 5])
    ap = apery_set(S, 3)
    assert ap == (0, 10, 5)
    T = from_generators([6, 7, 8])
    ap6 = apery_set(T, 6)
    assert ap6 == (0, 7, 8, 15, 16, 23)
    assert invariants_from_apery(ap6) == (17, 9)


def test_apery_requires_membership():
    S = from_generators([3, 5])
    with pytest.raises(PreconditionError):
        apery_set(S, 4)  # 4 is a gap
    with pytest.raises(PreconditionError):
        apery_set(S, 0)


def test_apery_table_size_is_bounded():
    S = from_generators([3, 5])
    with pytest.raises(ResourceLimitError):
        apery_set(S, MAX_FROBENIUS + 1)  # a member, refused before any work


def test_apery_set_at_a_large_member_is_read_off_the_gap_mask(table_builds):
    # a round robin at n = 500,001 over 100 minimal generators would relax
    # 50,000,100 entries, above MAX_ROOT_WORK; the mask read counts per class
    n = 500_001
    S = from_generators(range(1000, 1100))
    F = S.frobenius
    table_builds.clear()
    ap = apery_set(S, n)
    assert table_builds == []
    # n > F, so class r holds r alone up to F: r if a member, else r + n
    assert ap[: F + 1] == tuple(r + n * (not contains(S, r)) for r in range(F + 1))
    assert ap[F + 1 :] == tuple(range(F + 1, n))
    assert invariants_from_apery(ap) == (F, S.genus)


def test_apery_set_above_the_frobenius_number_slices_at_most_f_plus_one_strides():
    slices = []

    class CountedMask(bytes):
        def __getitem__(self, key):
            if isinstance(key, slice):
                slices.append(key)
            return super().__getitem__(key)

    S = from_generators([7, 11, 13])
    F = S.frobenius
    S.__dict__["_gap_mask"] = CountedMask(S._gap_mask)
    for n in (F + 1, F + 2, 3 * F, 10**5):
        slices.clear()
        ap = apery_set(S, n)
        assert len(slices) <= F + 1, n
        # n > F, so class r holds r alone up to F: r if a member, else r + n
        head = tuple(r + n * (not contains(S, r)) for r in range(F + 1))
        assert ap == head + tuple(range(F + 1, n)), n


def test_a_huge_multiplicity_is_refused_before_the_round_robin(table_builds, monkeypatch):
    # the Apery table holds an int per class, so m above MAX_FROBENIUS is
    # refused from the generators alone
    for gens in ([5_000_001, 5_000_003], [10**12, 10**12 + 1]):
        with pytest.raises(ResourceLimitError, match=f"^multiplicity {gens[0]} exceeds 5000000$"):
            from_generators(gens)
    assert table_builds == []
    # the boundary, with the cap at 100: m = 100 is built, m = 101 is not
    monkeypatch.setattr(core, "MAX_FROBENIUS", 100)
    assert from_generators([100, 101]).apery == tuple(101 * r for r in range(100))
    with pytest.raises(ResourceLimitError, match="^multiplicity 101 exceeds 100$"):
        from_generators([101, 102])
    assert table_builds == [("round robin", 100)]


def test_three_generators_are_refused_by_their_multiplicity_before_any_table(
    table_builds, monkeypatch
):
    # however many generators there are, the multiplicity alone refuses them
    for gens in ([5_000_001, 5_000_003, 5_000_005], [10**12, 10**12 + 1, 10**12 + 3]):
        with pytest.raises(ResourceLimitError, match=f"^multiplicity {gens[0]} exceeds 5000000$"):
            from_generators(gens)
    assert table_builds == []
    monkeypatch.setattr(core, "MAX_FROBENIUS", 100)
    with pytest.raises(ResourceLimitError, match="^multiplicity 101 exceeds 100$"):
        from_generators([101, 102, 103])
    assert table_builds == []
    assert from_generators([100, 101, 102]).frobenius == 4999  # ceil(99 / 2) 100 - 1


def _built_above_the_cap(table_builds, gens, frobenius, genus):
    # built by the round robin alone, with F, g, membership and symmetry read
    # off the table at any F; every reader of the gap mask refuses F >
    # MAX_FROBENIUS, each time
    S = from_generators(gens)
    assert table_builds == [("round robin", gens[0])]
    assert (S.minimal_generators, S.frobenius, S.genus) == (gens, frobenius, genus)
    assert not contains(S, frobenius) and contains(S, frobenius + 1)
    assert is_d_symmetric(S, 1)  # 2g = F + 1 for both inputs below
    readers = (
        lambda: S._gap_mask, lambda: S.gaps, lambda: quotient(S, 2),
        lambda: is_d_symmetric(S, 2), lambda: apery_set(S, gens[1]),
    )
    for read in readers:
        with pytest.raises(ResourceLimitError, match=f"^Frobenius number {frobenius} exceeds 5000000$"):
            read()


def test_two_generators_are_built_at_any_frobenius_and_refused_at_the_mask(
    table_builds, monkeypatch
):
    # F = ab - a - b and g = (F + 1)/2
    _built_above_the_cap(table_builds, (9001, 10007), 90_053_999, 45_027_000)
    # the boundary: F(<2, 101>) = 99 is read with the cap at 99, not at 98
    monkeypatch.setattr(core, "MAX_FROBENIUS", 99)
    assert from_generators([2, 101])._gap_mask == b"\0\1" * 50
    monkeypatch.setattr(core, "MAX_FROBENIUS", 98)
    with pytest.raises(ResourceLimitError, match="^Frobenius number 99 exceeds 98$"):
        from_generators([2, 101]).gaps


def test_the_round_robin_builds_a_table_whose_frobenius_is_above_the_cap(table_builds):
    # <5000, 5001, 5002>: F = 2500 * 5000 - 1 and g = (F + 1)/2
    _built_above_the_cap(table_builds, (5000, 5001, 5002), 12_499_999, 6_250_000)


def test_the_sieve_stops_at_its_length_bound_and_falls_back_to_the_round_robin(
    table_builds, monkeypatch
):
    # Eight consecutive generators from m = 300,000: F = ceil((m - 1)/7) m - 1,
    # about 1.3e10, and the sieve is cheaper than the round robin at every
    # length up to MAX_FROBENIUS + m + 1 bits, its longest pass.  That one
    # fails too, so the round robin builds the table.
    gens = list(range(300_000, 300_008))
    lengths, peaks = [], []
    sieve = core._sieve

    def measured_sieve(values, nbits):
        lengths.append(nbits)
        tracemalloc.start()
        try:
            return sieve(values, nbits)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(core, "_sieve", measured_sieve)
    S = from_generators(gens)
    assert lengths == [900_014, 1_800_028, 3_600_056, MAX_FROBENIUS + gens[0] + 1]
    assert table_builds == [("sieve", None)] * 4 + [("round robin", 300_000)]
    assert S.frobenius == 42_857 * 300_000 - 1
    # a few ints of at most MAX_FROBENIUS + m bits, (MAX_FROBENIUS + m) / 8 bytes each
    assert max(peaks) < MAX_FROBENIUS + gens[0]


def test_large_ordinary_semigroups_build_up_to_the_construction_cap(table_builds):
    # <m, ..., 2m - 1> has F = m - 1 and one sieve pass of 2(2m - 1) + m bits,
    # estimated at 1.2e7 steps for m = 20,000 (a third of a second)
    S = from_generators(range(20_000, 40_000))
    assert (S.frobenius, S.genus) == (19_999, 19_999)
    assert table_builds == [("sieve", 20_000)]
    # m = 41,266 is the largest m whose single pass is estimated within the cap
    largest = list(range(41_266, 2 * 41_266))
    assert core._sieve_cost(largest, 5 * 41_266 - 2) == 49_998_648 <= core.MAX_ROOT_WORK
    table_builds.clear()
    with pytest.raises(ResourceLimitError, match="takes 50000264 steps, more than 50000000$"):
        from_generators(range(41_267, 2 * 41_267))
    assert table_builds == []


def test_many_generators_on_a_short_range_match_the_oracles(table_builds):
    # 8 to 30 generators in [m, 3m): the inputs where the sieve is cheaper
    rng = random.Random(6007)
    draws = 0
    while draws < 40:
        m = rng.randint(8, 40)
        gens = sorted({m, *rng.sample(range(m + 1, 3 * m), rng.randint(7, min(29, 2 * m - 1)))})
        if math.gcd(*gens) != 1:
            continue
        draws += 1
        S = from_generators(gens)
        frobenius, genus, gaps = sieve_invariants(gens)
        assert (S.frobenius, S.genus, S.gaps) == (frobenius, genus, tuple(gaps)), gens
        assert list(S.minimal_generators) == minimal_generators_by_enumeration(gens), gens
    assert sum(path == "sieve" for path, _ in table_builds) >= 30


def test_failed_sieve_passes_cost_less_than_the_round_robin(table_builds, monkeypatch):
    # <600 + 7i : i < e> has F near 600 * 599 / (e - 1), far above 2 max, so
    # the passes from 2 max + m bits fail; they are charged against the
    # round robin's m (e - 4) steps before the next one runs.
    lengths = []
    sieve = core._sieve

    def measured_sieve(values, nbits):
        lengths.append(nbits)
        return sieve(values, nbits)

    monkeypatch.setattr(core, "_sieve", measured_sieve)
    for e in (12, 16):
        gens = [600 + 7 * i for i in range(e)]
        lengths.clear()
        table_builds.clear()
        S = from_generators(gens)
        assert table_builds == [("sieve", None)] * 4 + [("round robin", 600)], e
        assert lengths[0] == 2 * gens[-1] + 600, e
        spent = sum(core._sieve_cost(gens, nbits) for nbits in lengths)
        budget = 600 * (e - 4)
        assert spent < budget <= spent + core._sieve_cost(gens, 2 * lengths[-1]), e
        assert S == NumericalSemigroup(core._round_robin(gens)[0])


def test_apery_of_two_generators_is_multiples():
    """Ap(<a, b>, a) is exactly {0, b, 2b, ..., (a-1)b}."""
    for a, b in [(3, 5), (5, 7), (7, 11), (4, 9), (9, 10)]:
        S = from_generators([a, b])
        ap = apery_set(S, a)
        assert sorted(ap) == sorted((i * b for i in range(a))), (a, b)


def test_contains_matches_membership():
    S = from_generators([6, 7, 8])
    members = {0, 6, 7, 8, 12, 13, 14, 15, 16}
    for x in range(18):
        assert contains(S, x) == (x in members or x >= 18), x
    assert contains(S, 100)
    assert not contains(S, -3)


def test_polynomial_coefficients_frozen():
    # P(t) = 1 + (t - 1) * sum of t^gap, low degree first.
    assert semigroup_polynomial_coeffs(from_generators([3, 5])) == (
        1, -1, 0, 1, -1, 1, 0, -1, 1,
    )
    assert semigroup_polynomial_coeffs(from_generators([2, 3])) == (1, -1, 1)
    assert semigroup_polynomial_coeffs(from_generators([1])) == (1,)


def test_polynomial_at_one_is_one():
    rng = random.Random(4203)
    for _ in range(40):
        gens = sorted(rng.sample(range(2, 40), rng.randint(2, 4)))
        if math.gcd(*gens) != 1:
            continue
        coeffs = semigroup_polynomial_coeffs(from_generators(gens))
        assert sum(coeffs) == 1, gens


def test_random_agreement_with_sieve_oracle(table_builds):
    """Invariants, and Apery sets at generators and at other members, match
    a direct sieve, for semigroups built by either pass and for quotients,
    which are built from a mask; a table at n != m builds no other table."""
    rng = random.Random(91522)
    semigroups = []
    while len(semigroups) < 100:
        count = rng.randint(2, 4)
        gens = sorted(rng.sample(range(2, 61), count))
        if math.gcd(*gens) != 1:
            continue
        S = from_generators(gens)
        frobenius, genus, gaps = sieve_invariants(gens)
        assert S.frobenius == frobenius, gens
        assert S.genus == genus, gens
        assert list(S.gaps) == gaps, gens
        n = rng.choice(gens)
        assert list(apery_set(S, n)) == sieve_apery(gens, n), (gens, n)
        semigroups += [S, quotient(S, rng.randint(2, 6))]
    table_builds.clear()
    for a, k in ((20, 1), (31, 3), (47, 5), (60, 7)):  # full progressions
        semigroups.append(from_generators(a + i * k for i in range(a)))
    assert ("sieve", 20) in table_builds
    for S in semigroups:
        gens = list(S.minimal_generators)  # built here, not in the reads below
        F, m = S.frobenius, S.multiplicity
        others = [x for x in range(m + 1, F + 2 * m) if contains(S, x) and x not in gens]
        for n in [*rng.sample(others, min(3, len(others))), rng.randint(max(F, 0) + 1, F + 40)]:
            table_builds.clear()
            assert list(apery_set(S, n)) == sieve_apery(gens, n), (gens, n)
            assert n == m or table_builds == [], (gens, n)


def test_generator_order_does_not_matter():
    rng = random.Random(77)
    gens = [6, 7, 8, 17]
    base = from_generators(gens)
    for _ in range(8):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert from_generators(shuffled) == base


def test_contains_matches_representability():
    rng = random.Random(5150)
    for _ in range(30):
        gens = sorted(rng.sample(range(2, 30), 3))
        if math.gcd(*gens) != 1:
            continue
        S = from_generators(gens)
        for x in range(0, 2 * S.conductor + 5):
            assert contains(S, x) == representable(x, gens), (gens, x)


def test_minimal_generators_against_enumeration():
    rng = random.Random(3141)
    for _ in range(40):
        gens = sorted(rng.sample(range(2, 50), rng.randint(2, 5)))
        if math.gcd(*gens) != 1:
            continue
        S = from_generators(gens)
        assert list(S.minimal_generators) == minimal_generators_by_enumeration(
            gens
        ), gens


def test_symmetric_iff_genus_count():
    """Symmetry read off the table as 2 g = F + 1 agrees with the definition:
    F - x is a member for every gap x, by the sieve of the oracles."""
    rng = random.Random(2718)
    seen_both = set()
    for _ in range(200):
        gens = sorted(rng.sample(range(2, 40), rng.randint(2, 4)))
        if math.gcd(*gens) != 1:
            continue
        S = from_generators(gens)
        if S.frobenius < 0:
            continue
        frobenius, _, gaps = sieve_invariants(gens)
        symmetric = is_d_symmetric(S, 1)
        assert symmetric == (not set(gaps) & {frobenius - x for x in gaps}), gens
        seen_both.add(symmetric)
    assert seen_both == {True, False}


def test_d_symmetric_examples():
    S = from_generators([3, 5])  # symmetric, hence d-symmetric for every d
    for d in range(1, 9):
        assert is_d_symmetric(S, d)
    T = from_generators([4, 5, 7])  # gaps 1, 2, 3, 6; F = 6
    assert not is_d_symmetric(T, 1)  # 2 g = 8 != F + 1
    assert not is_d_symmetric(T, 3)  # 3 is a gap and 6 - 3 = 3 still a gap
    assert is_d_symmetric(T, 2)  # gaps 2 and 6 reflect to members 4 and 0
    assert is_d_symmetric(T, 4)  # no positive multiple of 4 is a gap
    assert is_d_symmetric(T, 6)  # d = F: the one gap 6 reflects to 0
    # d > F: no positive multiple of d is at most F
    assert all(is_d_symmetric(T, d) for d in range(7, 12))
    N = from_generators([1])  # no gaps: both counts and floor(-1/d) + 1 are 0
    assert all(is_d_symmetric(N, d) for d in range(2, 9))


def test_d_symmetry_is_the_definition():
    seen = set()
    for gens in itertools.combinations(range(5, 14), 3):
        if math.gcd(*gens) != 1:
            continue
        S = from_generators(gens)
        frobenius, _, gap_list = sieve_invariants(gens)
        gaps = set(gap_list)
        for d in range(2, 6):
            # the definition: no gap n, a positive multiple of d, has F - n a gap
            expected = not any({n, frobenius - n} <= gaps for n in range(d, frobenius + 1, d))
            assert is_d_symmetric(S, d) == expected, (gens, d)
            seen.add(expected)
    assert seen == {True, False}


def test_d_symmetric_validation():
    S = from_generators([3, 5])
    with pytest.raises(PreconditionError):
        is_d_symmetric(S, 0)


def test_genus_bounds():
    rng = random.Random(909)
    for _ in range(60):
        gens = sorted(rng.sample(range(2, 45), rng.randint(2, 4)))
        if math.gcd(*gens) != 1:
            continue
        S = from_generators(gens)
        # Every gap is at most F and at least (F + 1)/2 of them exist.
        assert S.genus >= (S.frobenius + 1) / 2, gens
        assert S.genus <= max(S.frobenius, 0), gens


def test_gap_mask_is_built_once_and_immutable():
    S = from_generators([4, 5, 7])  # gaps 1, 2, 3, 6
    mask = S._gap_mask
    assert type(mask) is bytes
    assert mask == bytes([0, 1, 1, 1, 0, 0, 1])
    # every reader sees the one cached object
    assert S.gaps == (1, 2, 3, 6)
    assert semigroup_polynomial_coeffs(S) == (1, -1, 0, 0, 1, 0, -1, 1)
    assert not is_d_symmetric(S, 3)
    assert gap_residue_counts(S, 3) == [2, 1, 1]
    assert S._gap_mask is mask
    with pytest.raises(TypeError):
        mask[1] = 0


def test_construction_passes_are_pinned(table_builds):
    # the passes each input ran before the sieve's table was read as a gap mask
    pinned = {
        tuple(120 + 7 * i for i in range(120)): [("sieve", 120)],
        tuple(range(1000, 1100)): [("sieve", None)] * 2 + [("sieve", 1000)],
        tuple(600 + 7 * i for i in range(12)): [("sieve", None)] * 4 + [("round robin", 600)],
        tuple(600 + 7 * i for i in range(16)): [("sieve", None)] * 4 + [("round robin", 600)],
        (3001, 4007, 5003): [("round robin", 3001)],
        (1001, 1237, 1999, 2503): [("round robin", 1001)],
    }
    for gens, builds in pinned.items():
        table_builds.clear()
        from_generators(gens)
        assert table_builds == builds, gens
    # the minimal-generator pass of each quotient S/d, d = 2..12, of the
    # benchmark's large inputs, so that a refit of _sieve_cost cannot move
    # a pass the benchmark runs without failing here
    rr, sieve = "round robin", "sieve"
    quotient_passes = {
        (3001, 4007, 5003): [
            (rr, 3001), (rr, 2336), (rr, 1752), (rr, 1802), (rr, 1168), (sieve, 2146),
            (rr, 876), (sieve, 1557), (rr, 901), (sieve, 1547), (rr, 584),
        ],
        (1001, 1237, 1999, 2503): [
            (sieve, m) for m in (1001, 746, 750, 600, 373, 143, 375, 497, 300, 91, 250)
        ],
        tuple(120 + 7 * i for i in range(120)): [
            (sieve, m) for m in (60, 40, 30, 24, 20, 120, 15, 18, 12, 16, 10)
        ],
    }
    assert [len(passes) for passes in quotient_passes.values()] == [11] * 3
    for gens, passes in quotient_passes.items():
        S = from_generators(gens)
        for d, build in enumerate(passes, start=2):
            Q = quotient(S, d)
            table_builds.clear()
            assert Q.minimal_generators[0] == Q.multiplicity
            assert table_builds == [build], (gens, d)


def test_a_sieve_built_semigroup_keeps_the_gap_mask_of_its_table(table_builds):
    # the progressions of the default full-ap grids, then one input whose
    # third sieve pass builds the table and one that falls back to the round robin
    inputs = [
        [a + i * k for i in range(a)]
        for a in range(2, 121)
        for k in range(1, 21)
        if math.gcd(a, k) == 1
    ]
    assert len(inputs) == 1478
    inputs += [list(range(1000, 1100)), [600 + 7 * i for i in range(12)]]
    paths = []
    for gens in inputs:
        table_builds.clear()
        S = from_generators(gens)
        paths.append(table_builds[-1][0])
        if paths[-1] == "round robin":
            assert "_gap_mask" not in S.__dict__, gens  # built when first read
            continue
        built_from_table = NumericalSemigroup(core._round_robin(gens)[0])
        assert S == built_from_table, gens
        assert S.__dict__["_gap_mask"] == built_from_table._gap_mask, gens
        for d in range(1, 13):
            Q, expected = quotient(S, d), quotient(built_from_table, d)
            assert (Q, Q._gap_mask) == (expected, expected._gap_mask), (gens, d)
    assert paths[-2:] == ["sieve", "round robin"]
    assert paths.count("sieve") > 1000
