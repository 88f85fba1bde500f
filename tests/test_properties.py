"""Property tests: canonical construction, quotients and the root-of-unity
genus against the brute-force oracles and independent paths on generated
inputs."""

import math
from unittest import mock

from hypothesis import given, settings, strategies as st

from numsgps import core
from numsgps.core import (
    NumericalSemigroup,
    _apery_and_kept,
    _round_robin,
    _sieve,
    from_generators,
    gap_residue_counts,
    is_d_symmetric,
    semigroup_polynomial_coeffs,
)
from numsgps.quotient import quotient
from numsgps.roots import _fold_mod, genus_quotient_via_roots
from oracles import (
    minimal_generators_by_enumeration,
    minimal_generators_from_gaps,
    quotient_gaps,
    sieve_invariants,
    sieve_members,
)

# A fixed example sequence, so the suite runs the same cases every time.
fixed = settings(derandomize=True, deadline=None, database=None)

generator_sets = st.lists(
    st.integers(min_value=2, max_value=60), min_size=1, max_size=6
).filter(lambda gens: math.gcd(*gens) == 1)

# 2 to 40 generators up to 300; the last is the sum of two others, so
# every set has at least one redundant generator.
many_generator_sets = (
    st.lists(st.integers(min_value=2, max_value=150), min_size=1, max_size=39)
    .map(lambda gens: [*gens, gens[0] + gens[-1]])
    .filter(lambda gens: math.gcd(*gens) == 1)
)


@fixed
@given(many_generator_sets)
def test_sieve_and_round_robin_build_the_same_table(gens):
    values = sorted(set(gens))
    m = values[0]
    apery, kept = _round_robin(values)
    frobenius = max(apery) - m
    failed = []

    def sieve(values, nbits):
        built = _sieve(values, nbits)
        if built is None:
            failed.append(nbits)
        return built

    # every pass priced at -inf: the sieve runs at each length until one
    # builds the table, which is read through the gap mask it keeps
    with mock.patch.object(core, "_sieve_cost", return_value=-math.inf), mock.patch.object(
        core, "_sieve", sieve
    ):
        S, sieve_kept = _apery_and_kept(values)
    assert all(nbits <= frobenius + m for nbits in failed)  # a gap among the top m bits
    assert "_gap_mask" in S.__dict__
    assert (S.apery, S.frobenius, sieve_kept) == (apery, frobenius, kept)


@fixed
@given(generator_sets)
def test_minimal_generators_match_enumeration(gens):
    S = from_generators(gens)
    assert list(S.minimal_generators) == minimal_generators_by_enumeration(gens)


@fixed
@given(generator_sets)
def test_d_symmetry_matches_definition(gens):
    S = from_generators(gens)
    frobenius = sieve_invariants(gens)[0]
    member = sieve_members(sorted(set(gens)), max(frobenius, 0))
    for d in range(1, frobenius + 2):
        # every gap n that is a positive multiple of d has F - n in S
        expected = all(
            member[frobenius - n] for n in range(d, frobenius + 1, d) if not member[n]
        )
        assert is_d_symmetric(S, d) == expected, d


@fixed
@given(
    st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=6).filter(
        lambda gens: math.gcd(*gens) == 1
    ),
    st.integers(min_value=1, max_value=24),
)
def test_d_symmetry_matches_definition_at_any_d(gens, d):
    # generators may include 1 (S = N), and d may pass F
    frobenius, _, gap_list = sieve_invariants(gens)
    gaps = set(gap_list)
    expected = not any({n, frobenius - n} <= gaps for n in range(d, frobenius + 1, d))
    assert is_d_symmetric(from_generators(gens), d) == expected


@fixed
@given(generator_sets, st.integers(min_value=1, max_value=15))
def test_quotient_gaps_match_definition(gens, d):
    assert list(quotient(from_generators(gens), d).gaps) == quotient_gaps(gens, d)


@fixed
@given(generator_sets, st.integers(min_value=2, max_value=15))
def test_quotient_is_the_semigroup_of_its_brute_force_gaps(gens, d):
    gaps = quotient_gaps(gens, d)
    Q = quotient(from_generators(gens), d)
    assert Q.gaps == tuple(gaps)
    assert list(Q.minimal_generators) == minimal_generators_from_gaps(gaps)


@fixed
@given(generator_sets, st.integers(min_value=1, max_value=80))
def test_quotient_keeps_the_gap_mask_its_table_gives(gens, d):
    S = from_generators(gens)
    Q = quotient(S, d)
    rebuilt = NumericalSemigroup(Q.apery)
    assert Q is S if d == 1 else "_gap_mask" in vars(Q)
    assert Q._gap_mask == rebuilt._gap_mask
    assert Q.minimal_generators == rebuilt.minimal_generators


@fixed
@given(generator_sets, st.integers(min_value=1, max_value=40))
def test_folded_classes_match_polynomial_coefficients(gens, d):
    S = from_generators(gens)
    class_sums = [0] * d
    for k, c in enumerate(semigroup_polynomial_coeffs(S)):
        class_sums[k % d] += c
    folded = _fold_mod(S, d)
    assert len(folded) == min(d, S.frobenius + 2)
    assert folded + [0] * (d - len(folded)) == class_sums
    gap_sums = [0] * d
    for gap in S.gaps:
        gap_sums[gap % d] += 1
    counts = gap_residue_counts(S, d)
    assert counts + [0] * (d - len(counts)) == gap_sums


@fixed
@given(generator_sets, st.integers(min_value=1, max_value=40))
def test_genus_via_roots_matches_quotient(gens, d):
    S = from_generators(gens)
    assert genus_quotient_via_roots(S, d) == quotient(S, d).genus


@fixed
@given(st.integers(min_value=2, max_value=7), st.integers(min_value=1, max_value=40))
def test_genus_via_roots_beyond_the_frobenius_number(m, d):
    # <m, m + 1, ..., 2m - 1> has F = m - 1, so most d here exceed F + 1.
    S = from_generators(range(m, 2 * m))
    assert genus_quotient_via_roots(S, d) == quotient(S, d).genus
