"""The registry of identities, and the sweeps that check them against brute force.

``IDENTITIES`` defines every identity once, in one shape (``Identity``):
its grid and what the grid costs, and for one case the record's params,
an optional reason to skip it, the closed form's side (``formula``), which
never receives the brute-force quotient, and the side computed by brute
force (``oracle``).  An identity about a quotient S/d also reads its case
off (S, d) alone and names the entries it fills in a ``numsgps quotient``
report.  All else is derived once from these fields: ``check_case``
builds a case's record, whether checked, skipped, perturbed by
``--inject-offby1`` or made from an error, and ``report_entries`` the
report entries; the command line knows no identity of its own.

Records are plain dicts with keys ``theorem``, ``params``, ``formula``,
``oracle``, ``status`` and ``residual`` so they serialize directly to
JSON; rationals are rendered as ``num/den`` strings.  A sweep never stops
at the first failure: the caller decides what to do with mismatches.

The ``inject_offby1`` switch deliberately perturbs the formula side of
every record by one (see ``_perturbed``) so that the surrounding tooling
can prove it would notice a wrong closed form.
"""

from __future__ import annotations

import math
import os
import random
from collections import namedtuple
from functools import lru_cache, partial
from itertools import chain, islice
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator

from .core import (
    NumericalSemigroup,
    PreconditionError,
    TheoremViolationError,
    _require_work,
    from_generators,
    is_d_symmetric,
)
from .progressions import (
    Ap3Spec,
    FullApSpec,
    ap3_even_d_invariants,
    ap3_odd_a_invariants,
    ap3_quotient_generators,
    ap3_symmetric_iff_even,
    full_ap_d_divides_k,
    full_ap_divisor_identity,
    full_ap_quotient_generators,
)
from .quotient import frobenius_quotient_dsymmetric, quotient
from .roots import (
    DEFAULT_TOLERANCE,
    IDENTITY_TOLERANCE,
    _class_samples,
    _fit_class,
    _fit_residues,
    _fit_work,
    _genus_via_roots_residual,
    extract_cabd_constant,
    genus_quotient_ed2_closed_form,
    root_of_unity_identity_check,
    sylvester_invariants,
)

if TYPE_CHECKING:  # only the fits load fractions at run time
    from fractions import Fraction

MATCH = "match"
MISMATCH = "mismatch"
SKIPPED = "skipped-precondition"
# the keys of a record, in the order of its csv row
RECORD_COLUMNS = ("theorem", "params", "formula", "oracle", "status", "residual")


class SweepConfig(namedtuple(
    "SweepConfig",
    "theorem seed cases max_gen max_value d_max a_max k_max k_list samples tolerance parallel"
    " inject_offby1", defaults=(0,) + (None,) * 9 + (1, False),
)):
    """Grid parameters for one verification sweep.

    Fields left as ``None`` pick up the per-theorem defaults in
    ``resolved``; fields irrelevant to the chosen theorem stay ``None``.
    """

    __slots__ = ()

    def resolved(self) -> "SweepConfig":
        """A copy with defaults filled in and every field validated."""
        identity = _identity(self.theorem)
        filled = {
            name: value
            for name, value in identity.defaults.items()
            if getattr(self, name) is None
        }
        cfg = self._replace(**filled)
        for name in ("cases", "max_gen", "max_value", "d_max", "a_max", "k_max", "samples"):
            value = getattr(cfg, name)
            if value is not None and value < 1:
                raise PreconditionError(f"{name} must be >= 1, got {value}")
        if cfg.max_gen is not None and cfg.max_gen < 3:
            # a corpus draws from [2, max_gen] and needs two coprime values
            raise PreconditionError(f"max_gen must be >= 3, got {cfg.max_gen}")
        if cfg.tolerance is not None and not cfg.tolerance > 0:
            raise PreconditionError(f"tolerance must be > 0, got {cfg.tolerance}")
        if cfg.parallel < 1:
            raise PreconditionError(f"parallel must be >= 1, got {cfg.parallel}")
        if cfg.k_list is not None and (
            not cfg.k_list or any(k < 1 for k in cfg.k_list)
        ):
            raise PreconditionError(f"k_list must hold positive integers, got {cfg.k_list}")
        _require_work(identity.cost(cfg), "the {} grid", cfg.theorem)
        return cfg


def random_corpus(seed: int, cases: int, max_gen: int) -> list[tuple[int, ...]]:
    """Deterministic list of generator tuples: 2 to 4 values in [2, max_gen]
    with overall gcd 1.  Duplicates collapse, so a draw can come back with
    fewer distinct generators than requested and is retried."""
    rng = random.Random(seed)
    corpus: list[tuple[int, ...]] = []
    while len(corpus) < cases:
        count = rng.randint(2, 4)
        gens = tuple(sorted({rng.randint(2, max_gen) for _ in range(count)}))
        if len(gens) >= 2 and math.gcd(*gens) == 1:
            corpus.append(gens)
    return corpus


@lru_cache(maxsize=1)  # every grid lists the cases of one semigroup in a row
def _sg(gens: tuple[int, ...]) -> NumericalSemigroup:
    return from_generators(gens)


def _frac(value: Fraction) -> int | str:
    """JSON-friendly rendering: plain int when integral, else num/den."""
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def _corpus_cases(cfg: SweepConfig) -> Iterator[tuple]:
    return (
        (gens, d)
        for gens in random_corpus(cfg.seed, cfg.cases, cfg.max_gen)
        for d in range(2, cfg.d_max + 1)
    )


def _coprime_pairs(cfg: SweepConfig) -> Iterator[tuple[int, int]]:
    return (
        (a, k)
        for a in range(1, cfg.a_max + 1)
        for k in range(1, cfg.k_max + 1)
        if math.gcd(a, k) == 1
    )


def _ap3(a: int, k: int) -> tuple[int, ...]:
    return (a, a + k, a + 2 * k)


@lru_cache(maxsize=1)  # a sweep reads the same progression for each d in turn
def _full_ap(a: int, k: int) -> tuple[int, ...]:
    return tuple(a + i * k for i in range(a))


def _ed2_cases(cfg: SweepConfig) -> Iterator[tuple]:
    return (
        (a, b, d)
        for a in range(2, cfg.max_value + 1)
        for b in range(a + 1, cfg.max_value + 1)
        if math.gcd(a, b) == 1
        for d in range(2, cfg.d_max + 1)
    )


def _ed2_cost(cfg: SweepConfig) -> int:
    """A step per case, a per case for the closed form, and the quotient
    scans: <a, b>/d scans fewer than ab/d values, and 1/d summed over
    2 <= d <= d_max is at most floor(log2 d_max), one per block
    [2^i, 2^(i+1)).  The closed form is an O(log d) floor sum, so its a
    per case over-counts, and a sweep holds no case list for it to bound;
    it stays so that the accepted grids stay as they were (without it,
    --max 60 would accept --d-max 16222, 16.9 M cases)."""
    m = cfg.max_value
    products = ((m * (m + 1) // 2) ** 2 - m * (m + 1) * (2 * m + 1) // 6) // 2  # ab over a < b
    sums = (m + 1) * m * (m - 1) // 6  # a over a < b <= m
    return (cfg.d_max - 1) * (m * (m - 1) // 2 + sums) + products * (cfg.d_max.bit_length() - 1)


def _ed2_skip(a: int, b: int, d: int) -> str | None:
    """Why the closed form does not apply to <a, b>/d, or None."""
    for x, name in ((a, "a"), (b, "b")):
        if math.gcd(x, d) != 1:
            return f"gcd({name}, d) = {math.gcd(x, d)}"
    return None


def _ed2_case(S: NumericalSemigroup, d: int) -> tuple | None:
    gens = S.minimal_generators
    if len(gens) == 2 and d >= 2 and _ed2_skip(*gens, d) is None:
        return (*gens, d)
    return None


def _sylvester_cases(cfg: SweepConfig) -> Iterator[tuple]:
    return (
        (a, b)
        for a in range(1, cfg.max_value + 1)
        for b in range(a, cfg.max_value + 1)
        if math.gcd(a, b) == 1
    )


def _d2_moduli(cfg: SweepConfig) -> range:
    """The moduli of the grid: for d >= max_value a class holds one a and one
    b up to max_value, never two sample pairs, so d stops at max_value - 1."""
    return range(2, min(cfg.d_max, cfg.max_value - 1) + 1)


def _d2_constant_cases(cfg: SweepConfig) -> Iterator[tuple]:
    for d in _d2_moduli(cfg):
        units = [r for r in range(1, d) if math.gcd(r, d) == 1]
        for a_class in units:
            for b_class in units:
                pairs = _class_sample_pairs(
                    a_class, b_class, d, cfg.samples, cfg.max_value
                )
                if len(pairs) >= 2:
                    yield d, a_class, b_class, tuple(pairs)


def _d2_constant_cost(cfg: SweepConfig) -> int:
    """Each modulus d has at most (d - 1)^2 unit class pairs, each with
    ``samples`` pair counts of at most d floor sums; over the n moduli
    2..n + 1 of ``_d2_moduli`` that is samples * sum of m^2 (m + 1), m <= n.
    A floor sum is charged 3 steps, fitted to measured time: the cap then
    admits d_max up to 60 at the default max_value and samples, a sweep about
    as long as the largest accepted fit (about 6 s each on CPython 3.11, x86-64)."""
    n = len(_d2_moduli(cfg))
    return 3 * cfg.samples * ((n * (n + 1) // 2) ** 2 + n * (n + 1) * (2 * n + 1) // 6)


def _class_sample_pairs(
    a_class: int, b_class: int, d: int, count: int, max_value: int
) -> list[tuple[int, int]]:
    """First ``count`` coprime pairs on the class, smallest a+b first."""
    pairs: list[tuple[int, int]] = []
    for total in range(0, 2 * ((max_value - 1) // d) + 1):
        for i in range(0, total + 1):
            j = total - i
            a = a_class + d * i
            b = b_class + d * j
            if a <= max_value and b <= max_value and a != b and math.gcd(a, b) == 1:
                pairs.append((a, b))
                if len(pairs) == count:
                    return pairs
    return pairs


def _d2_constant(case, S) -> Fraction:
    d, a_class, b_class, pairs = case
    return extract_cabd_constant(a_class, b_class, d, list(pairs))


def _quasipoly_cases(cfg: SweepConfig) -> Iterator[tuple]:
    """The classes that the grid's fits walk, up to the first one too short
    to fit, whose check refuses the grid.  Class 1 is too short once
    d > (a_max - 1) / 3, so a k lists at most a_max * d_max classes."""
    for k in cfg.k_list:
        for d in range(1, cfg.d_max + 1):
            for residue in _fit_residues(k, d):
                yield k, d, residue, cfg.a_max
                if len(_class_samples(k, d, residue, 1, cfg.a_max)) < 4:
                    return


def _quasipoly_formula(case, S) -> dict:
    """The class's fit, its constant checked where it has one."""
    k, d, residue, a_max = case
    c2, c1, c0 = _fit_class(k, d, residue, 1, a_max)[0]
    return {"c2": c2, "c1": c1, "c0": c0}


def _quasipoly_oracle(case, S, Q) -> dict:
    from fractions import Fraction  # here, so that only the fits load fractions and decimal

    return {"c2": Fraction(1, 2 * case[1])}


def _dsymmetric_case(S: NumericalSemigroup, d: int) -> tuple | None:
    if d >= 2 and S.frobenius >= 0 and is_d_symmetric(S, d):
        return S.minimal_generators, d
    return None


def _invariants(Q: NumericalSemigroup) -> dict:
    return {"frobenius": Q.frobenius, "genus": Q.genus}


def _ap3_even_d_formula(case, S) -> dict:
    spec = Ap3Spec(*case)
    formula = {"generators": list(ap3_quotient_generators(spec)), "symmetric": True}
    if spec.d % 2 == 0:  # d >= 3 in every case, so d >= 4
        f, g = ap3_even_d_invariants(spec)
        formula.update(frobenius=f, genus=g)
    return formula


def _ap3_even_d_oracle(case, S, Q) -> dict:
    oracle = {"generators": list(Q.minimal_generators), "symmetric": is_d_symmetric(Q, 1)}
    if case[-1] % 2 == 0:
        oracle.update(_invariants(Q))
    return oracle


def _ap3_odd_a_formula(case, S) -> dict:
    spec = Ap3Spec(*case)
    f, g = ap3_odd_a_invariants(spec)
    return {"frobenius": f, "genus": g, "two_g_minus_f": (spec.s + 1) // 2}


def _ap3_odd_a_oracle(case, S, Q) -> dict:
    return {**_invariants(Q), "two_g_minus_f": 2 * Q.genus - Q.frobenius}


def _full_ap_skip(a: int, k: int, d: int) -> str | None:
    """Why the closed form does not apply to the progression by d | a, or None."""
    return "d = a gives the quotient N; closed form needs s >= 2" if d == a else None


def _full_ap_formula(case, S) -> dict:
    a, k, d = case
    spec = FullApSpec(a, k)
    f, g = full_ap_divisor_identity(spec, d)
    return {
        "frobenius": f,
        "genus": g,
        "generators": list(full_ap_quotient_generators(spec, d)),
        "two_genus": f + a // d - 1,
    }


def _full_ap_oracle(case, S, Q) -> dict:
    return {
        **_invariants(Q),
        "generators": list(Q.minimal_generators),
        "two_genus": 2 * Q.genus,
    }


def _full_ap_dk_formula(case, S) -> dict:
    a, k, d = case
    f, g = full_ap_d_divides_k(FullApSpec(a, k), d)
    return {"frobenius": f, "genus": g, "two_genus": f + a - 1}


def _full_ap_dk_oracle(case, S, Q) -> dict:
    return {**_invariants(Q), "two_genus": 2 * Q.genus}


class Identity(namedtuple(
    "Identity",
    "defaults cases cost params formula oracle generators skip case_of shown recognised_only",
    defaults=(None,) * 4 + (False,),
)):
    """One identity: ``defaults`` fill a ``SweepConfig``, ``cases(cfg)``
    makes the grid's cases lazily, those of one semigroup in a row, and
    ``cost(cfg)`` bounds in steps the work of the grid; a grid that costs
    more than ``MAX_ROOT_WORK`` is refused before any case is made.

    A case's record carries ``params(*case)``; ``skip(*case)``, if given,
    is why the case is skipped, without any work, or None.  S is built from
    ``generators(case)`` where the identity reads a semigroup, and Q is S
    divided by the case's last entry d where it is about S/d; each is None
    elsewhere.  ``formula(case, S)`` is the closed form's side, or (side,
    residual) for a side rounded from floating point, and ``oracle(case,
    S, Q)`` the side computed by brute force (see ``check_case``).

    An identity about S/d also has ``case_of(S, d)``, the case that S and d
    are or None when the hypotheses fail, and ``shown``, which maps its
    ``numsgps quotient`` report entries to the keys of the sides that they
    show (see ``report_entries``).  With ``recognised_only``, a case that
    ``case_of`` does not recognise yields no record.
    """

    __slots__ = ()


_AK_GRID = {"a_max": 120, "k_max": 20}


def _divisor_scan(cfg: SweepConfig) -> int:
    """The d of the max(a, k) divisor scan that a progression grid runs,
    summed over its pairs."""
    lo, hi = sorted((cfg.a_max, cfg.k_max))  # max(a, k) over the lo x lo square, then the rest
    return lo * (lo + 1) * (4 * lo - 1) // 6 + lo * (hi * (hi + 1) - lo * (lo + 1)) // 2


def _progression(family, applies, formula, oracle, shown, per_d, skip=None) -> Identity:
    """An identity about S = family(a, k) with gcd(a, k) = 1, divided by d.

    Its grid and the case read off (S, d) share the hypothesis
    ``applies(a, k, d)``; a case that ``skip`` gives a reason for is in
    the grid (its record gives the reason) but is not recognised.  The
    grid costs ``per_d`` steps for each d of its divisor scan, fitted to
    the id's own time.
    """

    def cases(cfg: SweepConfig) -> Iterator[tuple]:
        # every d that applies divides a or k, so it is at most max(a, k)
        return (
            (a, k, d)
            for a, k in _coprime_pairs(cfg)
            for d in range(1, max(a, k) + 1)
            if applies(a, k, d)
        )

    def case_of(S: NumericalSemigroup, d: int) -> tuple | None:
        gens = S.minimal_generators  # gcd(a, k) is their gcd, so it is 1
        if len(gens) < 2:
            return None
        a, k = gens[0], gens[1] - gens[0]
        if family(a, k) != gens or not applies(a, k, d) or (skip and skip(a, k, d)):
            return None
        return a, k, d

    return Identity(
        _AK_GRID, cases, lambda cfg: per_d * _divisor_scan(cfg),
        params=lambda a, k, d: {"a": a, "k": k, "d": d}, formula=formula, oracle=oracle,
        generators=lambda case: family(case[0], case[1]), skip=skip, case_of=case_of, shown=shown,
    )


def _corpus_params(gens: tuple[int, ...], d: int) -> dict:
    return {"gens": list(gens), "d": d}


IDENTITIES: dict[str, Identity] = {
    "theorem-main": Identity(
        {"cases": 500, "max_gen": 60, "d_max": 12, "tolerance": DEFAULT_TOLERANCE},
        _corpus_cases,
        # per semigroup, its construction and its d_max - 1 quotients at 350
        # steps each, plus max_gen^2 / 300 for their O(F) mask reads (fitted
        # to time at max_gen 60, 300, 1000 and 2000), and at most d(d - 1)
        # Horner steps for the roots of each S/d, summed over d <= d_max
        lambda cfg: cfg.cases * (
            350 * cfg.d_max + cfg.max_gen**2 // 300 * cfg.d_max + (cfg.d_max**3 - cfg.d_max) // 3
        ),
        _corpus_params,
        formula=lambda case, S: _genus_via_roots_residual(S, case[-1]),
        oracle=lambda case, S, Q: Q.genus,
        generators=itemgetter(0), case_of=lambda S, d: (S.minimal_generators, d),
        shown={"genus-via-roots": ()},
    ),
    "ed2-closed-form": Identity(
        {"max_value": 60, "d_max": 12}, _ed2_cases, _ed2_cost,
        lambda a, b, d: {"a": a, "b": b, "d": d},
        formula=lambda case, S: genus_quotient_ed2_closed_form(*case),
        oracle=lambda case, S, Q: Q.genus,
        generators=itemgetter(0, 1), skip=_ed2_skip, case_of=_ed2_case,
        shown={"ed2-genus": ()},
    ),
    "sylvester": Identity(
        {"max_value": 100}, _sylvester_cases,
        # building <a, b> takes O(a) steps, summed over a <= b <= max_value
        lambda cfg: cfg.max_value * (cfg.max_value + 1) * (cfg.max_value + 2) // 6,
        lambda a, b: {"a": a, "b": b},
        formula=lambda case, S: list(sylvester_invariants(*case)),
        oracle=lambda case, S, Q: [S.frobenius, S.genus],
        generators=itemgetter(0, 1),
    ),
    "d2-constant": Identity(
        {"d_max": 8, "max_value": 200, "samples": 5}, _d2_constant_cases, _d2_constant_cost,
        lambda d, a_class, b_class, pairs: {
            "d": d, "a_class": a_class, "b_class": b_class, "samples": [list(p) for p in pairs]
        },
        # the oracle is the constant computed again, not yet an independent count
        formula=_d2_constant, oracle=lambda case, S, Q: _d2_constant(case, S),
    ),
    "quasipoly": Identity(
        {"k_list": (1, 2, 3, 5), "d_max": 8, "a_max": 300}, _quasipoly_cases,
        lambda cfg: len(cfg.k_list) * cfg.d_max * _fit_work(1, cfg.a_max),
        lambda k, d, residue, a_max: {"k": k, "d": d, "residue": residue},
        formula=_quasipoly_formula, oracle=_quasipoly_oracle,
    ),
    "strazzanti": Identity(
        {"cases": 500, "max_gen": 60, "d_max": 10}, _corpus_cases,
        # theorem-main's, at 180 steps, with no roots
        lambda cfg: cfg.cases * (180 * cfg.d_max + cfg.max_gen**2 // 300 * cfg.d_max),
        _corpus_params,
        formula=lambda case, S: frobenius_quotient_dsymmetric(S, case[-1]),
        oracle=lambda case, S, Q: Q.frobenius,
        generators=itemgetter(0), case_of=_dsymmetric_case,
        shown={"dsymmetric-frobenius": ()}, recognised_only=True,
    ),
    "ap3-symmetric": Identity(
        _AK_GRID,
        lambda cfg: ((a, k) for a, k in _coprime_pairs(cfg) if a >= 2),
        # per pair, 8a steps to build <a, a + k, a + 2k>, whose symmetry is read
        # off its table; fitted up to 2,000 in a or k
        lambda cfg: 4 * cfg.k_max * cfg.a_max * (cfg.a_max + 1),
        lambda a, k: {"a": a, "k": k},
        formula=lambda case, S: ap3_symmetric_iff_even(*case),
        oracle=lambda case, S, Q: is_d_symmetric(S, 1),
        generators=lambda case: _ap3(*case),
    ),
    "ap3-even-d": _progression(
        _ap3,
        lambda a, k, d: a % d == 0 and d >= 3 and (d % 2 == 0 or a % 2 == 0),
        _ap3_even_d_formula, _ap3_even_d_oracle,
        {"ap3-quotient-generators": ("generators",),
         "ap3-even-divisor-invariants": ("frobenius", "genus")},
        per_d=24,  # k_max = 1 costs most per step: 3.4-4.3 s at (2040, 1)
    ),
    "ap3-odd-a": _progression(
        _ap3, lambda a, k, d: a % 2 == 1 and a % d == 0,
        _ap3_odd_a_formula, _ap3_odd_a_oracle, {"ap3-odd-a-invariants": ("frobenius", "genus")},
        per_d=18,  # k_max = 1 costs most per step: 3.1-4.5 s at (2356, 1)
    ),
    "full-ap": _progression(
        _full_ap, lambda a, k, d: a >= 2 and a % d == 0, _full_ap_formula, _full_ap_oracle,
        {"full-ap-generators": ("generators",), "full-ap-invariants": ("frobenius", "genus")},
        per_d=80,  # 3.7 s at (120, 80) on CPython 3.11, x86-64
        skip=_full_ap_skip,
    ),
    "full-ap-dk": _progression(
        _full_ap, lambda a, k, d: a >= 2 and k % d == 0, _full_ap_dk_formula, _full_ap_dk_oracle,
        {"full-ap-dk-invariants": ("frobenius", "genus")},
        per_d=80,  # full-ap's: it builds the same semigroups
    ),
    "root-identity": Identity(
        {"d_max": 1000, "tolerance": IDENTITY_TOLERANCE},
        lambda cfg: ((d,) for d in range(2, cfg.d_max + 1)),
        lambda cfg: cfg.d_max * (cfg.d_max - 1) // 2,  # case d sums d - 1 roots
        lambda d: {"d": d},
        formula=lambda case, S: root_of_unity_identity_check(*case),
        oracle=lambda case, S, Q: 0.0,
    ),
}

THEOREM_IDS = tuple(IDENTITIES)


def _identity(theorem: str) -> Identity:
    if theorem not in IDENTITIES:
        raise PreconditionError(
            f"unknown theorem id {theorem!r}; expected one of {', '.join(THEOREM_IDS)}"
        )
    return IDENTITIES[theorem]


def build_cases(cfg: SweepConfig) -> Iterator[tuple]:
    """The cases of a resolved config, in deterministic order, each made
    when it is asked for: small tuples of primitives, as anything expensive
    (semigroup construction, quotients) happens in the check."""
    return _identity(cfg.theorem).cases(cfg)


def _formula_side(identity: Identity, case: tuple, S) -> tuple:
    """The formula side of a case and its residual, None unless the formula gives one."""
    side = identity.formula(case, S)
    return side if isinstance(side, tuple) else (side, None)


def _agrees(formula, oracle, residual, tolerance) -> tuple[bool, float | None]:
    """Whether the sides match, and the residual that decided it: a float
    formula side is a deviation, whose distance from the oracle is its
    residual; other sides must be equal on the oracle's keys, as wholes
    where the oracle is no dict, with any residual within the tolerance."""
    if isinstance(formula, float):
        residual = abs(formula - oracle)
        return residual <= tolerance, residual
    if isinstance(oracle, dict) and len(oracle) < len(formula):
        formula = {key: formula[key] for key in oracle}
    return formula == oracle and (residual is None or residual <= tolerance), residual


def _perturbed(side):
    """The formula side as ``--inject-offby1`` shows it: a bool flips, a
    number goes up by one, a list moves each of its entries, and a dict
    its ``genus`` (or a fit's leading coefficient ``c2``) and its bools."""
    if isinstance(side, dict):
        return {
            key: _perturbed(value) if key in ("genus", "c2") or isinstance(value, bool) else value
            for key, value in side.items()
        }
    if isinstance(side, list):
        return [_perturbed(value) for value in side]
    return (not side) if isinstance(side, bool) else side + 1


def _rendered(side):
    """A side as its record shows it: of its values, alone or in a dict, the
    ints, floats and lists as they are and each Fraction as ``_frac`` renders it."""
    plain = (int, float, list)
    if isinstance(side, dict):
        return {k: v if isinstance(v, plain) else _frac(v) for k, v in side.items()}
    return side if isinstance(side, plain) else _frac(side)


def _record(theorem: str, params: dict, formula, oracle, status: str, residual) -> dict:
    return dict(zip(RECORD_COLUMNS, (theorem, params, formula, oracle, status, residual)))


def check_case(theorem: str, case: tuple, tolerance: float | None, inject: bool) -> list[dict]:
    """The record of one case, as a list, empty where ``recognised_only``
    drops the case; pure, safe to run in any process.

    The sides match as ``_agrees`` says.  A ``TheoremViolationError`` of
    the formula side is the case's record: a mismatch with neither side,
    whose params carry the error.
    """
    identity = _identity(theorem)
    params = identity.params(*case)
    reason = identity.skip and identity.skip(*case)
    if reason:
        return [_record(theorem, {**params, "reason": reason}, None, None, SKIPPED, None)]
    S = _sg(identity.generators(case)) if identity.generators else None
    if identity.recognised_only and identity.case_of(S, case[-1]) is None:
        return []
    Q = quotient(S, case[-1]) if identity.shown else None
    try:
        formula, residual = _formula_side(identity, case, S)
    except TheoremViolationError as exc:
        return [_record(theorem, {**params, "error": str(exc)}, None, None, MISMATCH, None)]
    if inject:
        formula = _perturbed(formula)
    oracle = identity.oracle(case, S, Q)
    agrees, residual = _agrees(formula, oracle, residual, tolerance)
    status = MATCH if agrees else MISMATCH
    return [_record(theorem, params, _rendered(formula), _rendered(oracle), status, residual)]


def _shown(side, keys: tuple[str, ...]):
    """What a report entry shows of one side: the lone value for no key,
    the field for one key, the list of the fields for several."""
    if not keys:
        return side
    return side[keys[0]] if len(keys) == 1 else [side[key] for key in keys]


def report_entries(identity: Identity, case: tuple, S, Q, tolerance: float) -> dict:
    """The ``numsgps quotient`` report entries of an identity about S/d at
    its case ``case_of(S, d)``, Q being S/d: for each name of ``shown``,
    what the two sides show of its keys, whether those agree, and the
    residual where the formula gives one.  An entry is left out when the
    formula side lacks one of its keys."""
    formula, residual = _formula_side(identity, case, S)
    oracle = identity.oracle(case, S, Q)
    report = {}
    for name, keys in identity.shown.items():
        if any(key not in formula for key in keys):
            continue
        entry = {"formula": _shown(formula, keys), "oracle": _shown(oracle, keys)}
        entry["match"] = _agrees(entry["formula"], entry["oracle"], residual, tolerance)[0]
        if residual is not None:
            entry["residual"] = residual
        report[name] = entry
    return report


def check_run(theorem: str, tolerance: float | None, inject: bool, render, cases) -> tuple:
    """Check a run of cases in order, in any process: the statuses of their
    records, ``render(records)``, and the exception that stopped the run,
    or None.  A case that raises ends the run, and the records of the
    cases before it still come back."""
    records, fault = [], None
    try:
        for case in cases:
            records += check_case(theorem, case, tolerance, inject)
    except Exception as exc:
        fault = exc
    return [record["status"] for record in records], render(records), fault


# the most cases in one run: a long grid pays one check_run, render and
# write, and on forked workers one pickle, per RUN cases
RUN = 64


def _chunks(cases: Iterable[tuple]) -> Iterator[list[tuple]]:
    """The runs of cases a sweep checks, each cut off ``cases`` when asked
    for: 1, 2, 4, ... cases, doubling up to ``RUN``, so the first record
    waits for one case.  The cases alone fix them, so every ``--parallel``
    and every host splits a grid alike."""
    cases, size = iter(cases), 1
    while run := list(islice(cases, size)):
        yield run
        size = min(2 * size, RUN)


def sweep(cfg: SweepConfig, render=None) -> Iterator:
    """The sweep in deterministic case order, whatever the parallelism degree.

    The config is resolved and the first case made before this returns, so
    a refused grid, or one that holds no case, raises here, before any
    record exists; each later case is made when the sweep reaches it, so
    it holds a few runs of cases, whatever the grid.  With ``render``, a
    function from a list of records to its text, the sweep yields a block
    (statuses, text, exception) per run of cases of ``_chunks``, as
    ``check_run`` returns it, checked and rendered in this process or in a
    forked worker (see ``_blocks``).  A block's exception ends the sweep at
    its case, and its text holds the records of the cases before that one.
    Without ``render`` the sweep yields the records, each once its case and
    every earlier one are checked, and raises where a case raised.
    """
    cfg = cfg.resolved()
    cases = build_cases(cfg)
    first = list(islice(cases, 1))
    if not first:
        raise PreconditionError(f"the {cfg.theorem} grid holds no case")
    blocks = _blocks(cfg, chain(first, cases), render or list)
    return blocks if render else _records(blocks)


def _blocks(cfg: SweepConfig, cases: Iterable[tuple], render) -> Iterator[tuple]:
    """The blocks of the runs of ``cases``, in run order.

    The first run of each worker that ``--parallel`` and the CPUs allow is
    cut off at once, so no worker is forked without a run.  With one worker
    (``--parallel 1``, one CPU, one run, or no ``os.fork``) this process
    checks and renders each run.  Otherwise worker w is forked with a copy
    of the run stream; it checks runs w, w + workers, ... and pickles each
    block into its own pipe, and this process walks its own copy to read
    block j from worker j mod workers.  A worker lost before it sends a
    block raises ``ChildProcessError`` there.  Once the sweep is exhausted,
    reaches a block's exception (before yielding it), raises or is closed,
    its pipes are closed and every worker is sent SIGTERM and reaped.
    """
    run = partial(check_run, cfg.theorem, cfg.tolerance, cfg.inject_offby1, render)
    runs = _chunks(cases)
    cap = min(cfg.parallel, os.cpu_count() or 1) if hasattr(os, "fork") else 1
    head = list(islice(runs, cap))
    workers, runs = len(head), chain(head, runs)
    if workers == 1:
        yield from map(run, runs)
        return
    # imported here, so that a serial sweep never loads them
    import pickle
    import signal

    pids, pipes = [], []
    try:
        for w in range(workers):
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            with open(write, "wb") as sink:
                pid = os.fork()
                if pid == 0:
                    try:
                        for pipe in pipes:  # its own read end and those of earlier workers
                            os.close(pipe.fileno())
                        for block in map(run, islice(runs, w, None, workers)):
                            pickle.dump(block, sink)
                            sink.flush()
                    finally:
                        os._exit(0)  # never back into the caller, nor a flush of inherited stdio
            pids.append(pid)
        for j, _ in enumerate(runs):
            try:
                block = pickle.load(pipes[j % workers])
            except (EOFError, pickle.UnpicklingError):
                raise ChildProcessError(
                    f"sweep worker {pids[j % workers]} ended before sending run {j + 1}"
                ) from None
            if block[2] is not None:
                break  # the sweep ends at this block: stop the workers before handing it on
            yield block
        else:
            return
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
    yield block


def _records(blocks: Iterator[tuple]) -> Iterator[dict]:
    for _, records, fault in blocks:
        yield from records
        if fault is not None:
            raise fault


def run_sweep(cfg: SweepConfig) -> list[dict]:
    """All records of ``sweep(cfg)``, as a list."""
    return list(sweep(cfg))

