"""The registry of identities, and the sweeps that check them against brute force.

``IDENTITIES`` defines every identity once.  For each theorem id it holds
the default grid, the case list of a grid, and the check of one case,
which evaluates the closed form on one side and an independent
brute-force computation on the other and returns records.  The seven
identities about a quotient S/d also read their case off (S, d) alone
(``case_of``, None when the hypotheses fail) and fill the formula entries
of a ``numsgps quotient`` report (``entries``).  Each of them is written
once, as a function ``sides(case, S, Q)`` of the semigroup and its
brute-force quotient, from which ``_about_quotient`` derives both its
check and its report entries; the command line loops over the registry
and knows no identity of its own.

Records are plain dicts with keys ``theorem``, ``params``, ``formula``,
``oracle``, ``status`` and ``residual`` so they serialize directly to
JSON; rationals are rendered as ``num/den`` strings.  A sweep never stops
at the first failure: the caller decides what to do with mismatches.

The ``inject_offby1`` switch deliberately perturbs the formula side of
every record by one (flipping booleans) so that the surrounding tooling
can prove it would notice a wrong closed form; for an identity about S/d
the genus, or the lone value, is the number that moves.
"""

from __future__ import annotations

import math
import os
import random
from collections import namedtuple
from functools import lru_cache, partial
from typing import Iterator

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
    _fit_work,
    _genus_via_roots_residual,
    extract_cabd_constant,
    fit_quasipolynomial,
    genus_quotient_ed2_closed_form,
    root_of_unity_identity_check,
    sylvester_invariants,
)

MATCH = "match"
MISMATCH = "mismatch"
SKIPPED = "skipped-precondition"


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


@lru_cache(maxsize=64)
def _sg(gens: tuple[int, ...]) -> NumericalSemigroup:
    return from_generators(gens)


def _frac(value: Fraction) -> int | str:
    """JSON-friendly rendering: plain int when integral, else num/den."""
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def _record(params: dict, formula, oracle, status: str, residual: float | None = None) -> dict:
    """A record without its ``theorem``, which ``check_case`` sets."""
    return {
        "theorem": None,
        "params": params,
        "formula": formula,
        "oracle": oracle,
        "status": status,
        "residual": residual,
    }


def _compared(params: dict, formula, oracle) -> list[dict]:
    status = MATCH if formula == oracle else MISMATCH
    return [_record(params, formula, oracle, status)]


def _corpus_cases(cfg: SweepConfig) -> list[tuple]:
    return [
        (gens, d)
        for gens in random_corpus(cfg.seed, cfg.cases, cfg.max_gen)
        for d in range(2, cfg.d_max + 1)
    ]


def _coprime_pairs(cfg: SweepConfig) -> list[tuple[int, int]]:
    return [
        (a, k)
        for a in range(1, cfg.a_max + 1)
        for k in range(1, cfg.k_max + 1)
        if math.gcd(a, k) == 1
    ]


def _ap3(a: int, k: int) -> tuple[int, ...]:
    return (a, a + k, a + 2 * k)


@lru_cache(maxsize=64)  # a sweep reads the same progression for each d in turn
def _full_ap(a: int, k: int) -> tuple[int, ...]:
    return tuple(a + i * k for i in range(a))


def _any_case(S: NumericalSemigroup, d: int) -> tuple:
    return S.minimal_generators, d


def _theorem_main_sides(case, S, Q):
    value, residual = _genus_via_roots_residual(S, case[-1])
    return value, Q.genus, residual


def _ed2_cases(cfg: SweepConfig) -> list[tuple]:
    return [
        (a, b, d)
        for a in range(2, cfg.max_value + 1)
        for b in range(a + 1, cfg.max_value + 1)
        if math.gcd(a, b) == 1
        for d in range(2, cfg.d_max + 1)
    ]


def _ed2_cost(cfg: SweepConfig) -> int:
    """A step per case, a per case for the closed form, and the quotient
    scans: <a, b>/d scans fewer than ab/d values, and 1/d summed over
    2 <= d <= d_max is at most floor(log2 d_max), one per block
    [2^i, 2^(i+1)).  The closed form is an O(log d) floor sum, so its a
    per case over-counts; it stays because it also bounds the case list,
    which build_cases holds whole (without it, --max 60 would accept
    --d-max 16222, 16.9 M cases)."""
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


def _ed2_sides(case, S, Q):
    return genus_quotient_ed2_closed_form(*case), Q.genus, None


def _sylvester_cases(cfg: SweepConfig) -> list[tuple]:
    return [
        (a, b)
        for a in range(1, cfg.max_value + 1)
        for b in range(a, cfg.max_value + 1)
        if math.gcd(a, b) == 1
    ]


def _check_sylvester(case, tolerance, inject):
    a, b = case
    bump = 1 if inject else 0
    f, g = sylvester_invariants(a, b)
    S = _sg((a, b))
    return _compared({"a": a, "b": b}, [f + bump, g + bump], [S.frobenius, S.genus])


def _d2_moduli(cfg: SweepConfig) -> range:
    """The moduli of the grid: for d >= max_value a class holds one a and one
    b up to max_value, never two sample pairs, so d stops at max_value - 1."""
    return range(2, min(cfg.d_max, cfg.max_value - 1) + 1)


def _d2_constant_cases(cfg: SweepConfig) -> list[tuple]:
    cases = []
    for d in _d2_moduli(cfg):
        units = [r for r in range(1, d) if math.gcd(r, d) == 1]
        for a_class in units:
            for b_class in units:
                pairs = _class_sample_pairs(
                    a_class, b_class, d, cfg.samples, cfg.max_value
                )
                if len(pairs) >= 2:
                    cases.append((d, a_class, b_class, tuple(pairs)))
    return cases


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


def _check_d2_constant(case, tolerance, inject):
    d, a_class, b_class, pairs = case
    params = {"d": d, "a_class": a_class, "b_class": b_class, "samples": [list(p) for p in pairs]}
    try:
        constant = extract_cabd_constant(a_class, b_class, d, list(pairs))
    except TheoremViolationError as exc:
        params["error"] = str(exc)
        return [_record(params, None, None, MISMATCH)]
    formula = _frac(constant + (1 if inject else 0))
    return _compared(params, formula, _frac(constant))


def _quasipoly_cases(cfg: SweepConfig) -> list[tuple]:
    return [(k, d, cfg.a_max) for k in cfg.k_list for d in range(1, cfg.d_max + 1)]


def _check_quasipoly(case, tolerance, inject):
    from fractions import Fraction  # here, so that only the fits load fractions and decimal

    k, d, a_max = case
    try:
        fit = fit_quasipolynomial(k, d, (1, a_max))
    except TheoremViolationError as exc:
        return [_record({"k": k, "d": d, "error": str(exc)}, None, None, MISMATCH)]
    expected = Fraction(1, 2 * d)
    records = []
    for residue in sorted(fit.per_class):
        c2, c1, c0 = fit.per_class[residue]
        shown = c2 + (1 if inject else 0)
        records.append(
            _record(
                {"k": k, "d": d, "residue": residue},
                {"c2": _frac(shown), "c1": _frac(c1), "c0": _frac(c0)},
                {"c2": _frac(expected)},
                MATCH if shown == expected else MISMATCH,
            )
        )
    return records


def _dsymmetric_case(S: NumericalSemigroup, d: int) -> tuple | None:
    if d >= 2 and S.frobenius >= 0 and is_d_symmetric(S, d):
        return S.minimal_generators, d
    return None


def _strazzanti_sides(case, S, Q):
    return frobenius_quotient_dsymmetric(S, case[-1]), Q.frobenius, None


def _check_ap3_symmetric(case, tolerance, inject):
    a, k = case
    formula = ap3_symmetric_iff_even(a, k) != inject
    oracle = is_d_symmetric(_sg(_ap3(a, k)), 1)
    return _compared({"a": a, "k": k}, formula, oracle)


def _invariants(Q: NumericalSemigroup) -> dict:
    return {"frobenius": Q.frobenius, "genus": Q.genus}


def _ap3_even_d_sides(case, S, Q):
    spec = Ap3Spec(*case)
    formula = {"generators": list(ap3_quotient_generators(spec)), "symmetric": True}
    oracle = {"generators": list(Q.minimal_generators), "symmetric": is_d_symmetric(Q, 1)}
    if spec.d % 2 == 0 and spec.d >= 4:
        f, g = ap3_even_d_invariants(spec)
        formula.update(frobenius=f, genus=g)
        oracle.update(_invariants(Q))
    return formula, oracle, None


def _ap3_odd_a_sides(case, S, Q):
    spec = Ap3Spec(*case)
    f, g = ap3_odd_a_invariants(spec)
    formula = {"frobenius": f, "genus": g, "two_g_minus_f": (spec.s + 1) // 2}
    oracle = {**_invariants(Q), "two_g_minus_f": 2 * Q.genus - Q.frobenius}
    return formula, oracle, None


def _full_ap_skip(a: int, k: int, d: int) -> str | None:
    """Why the closed form does not apply to the progression by d | a, or None."""
    return "d = a gives the quotient N; closed form needs s >= 2" if d == a else None


def _full_ap_sides(case, S, Q):
    a, k, d = case
    spec = FullApSpec(a, k)
    f, g = full_ap_divisor_identity(spec, d)
    formula = {
        "frobenius": f,
        "genus": g,
        "generators": list(full_ap_quotient_generators(spec, d)),
        "two_genus": f + a // d - 1,
    }
    oracle = {
        **_invariants(Q),
        "generators": list(Q.minimal_generators),
        "two_genus": 2 * Q.genus,
    }
    return formula, oracle, None


def _full_ap_dk_sides(case, S, Q):
    a, k, d = case
    f, g = full_ap_d_divides_k(FullApSpec(a, k), d)
    formula = {"frobenius": f, "genus": g, "two_genus": f + a - 1}
    oracle = {**_invariants(Q), "two_genus": 2 * Q.genus}
    return formula, oracle, None


def _check_root_identity(case, tolerance, inject):
    (d,) = case
    deviation = root_of_unity_identity_check(d) + (1.0 if inject else 0.0)
    status = MATCH if deviation <= tolerance else MISMATCH
    return [_record({"d": d}, deviation, 0.0, status, deviation)]


def _no_case(S: NumericalSemigroup, d: int) -> None:
    return None


class Identity(namedtuple(
    "Identity", "defaults cases check cost case_of entries",
    defaults=(_no_case, None),
)):
    """One identity: ``defaults`` fill a ``SweepConfig``, ``cases(cfg)`` lists
    the grid, ``check(case, tolerance, inject)`` returns its records, and
    ``cost(cfg)`` bounds in steps the work of the grid, its case list
    included; a grid that costs more than ``MAX_ROOT_WORK`` is refused
    before any case is built.

    For an identity about S/d, ``case_of(S, d)`` is the case that S and d
    are, or None when the hypotheses fail, and ``entries(case, S, Q,
    tolerance)`` maps report entry names to the formula, the oracle read
    off the brute-force quotient Q, and whether they match.  Both
    ``check`` and ``entries`` are derived from one function of the
    identity, ``sides(case, S, Q)``; see ``_about_quotient``.
    """

    __slots__ = ()


def _perturbed(formula):
    """The formula side as ``--inject-offby1`` shows it: the lone value, or
    the ``genus`` field, goes up by one, and every boolean flips."""
    if not isinstance(formula, dict):
        return formula + 1
    return {
        key: (not value) if isinstance(value, bool) else value + 1 if key == "genus" else value
        for key, value in formula.items()
    }


def _shown(side, keys: tuple[str, ...]):
    """What a report entry shows of one side: the lone value for no key,
    the field for one key, the list of the fields for several."""
    if not keys:
        return side
    return side[keys[0]] if len(keys) == 1 else [side[key] for key in keys]


def _about_quotient(
    sides, shown, *, defaults, cases, cost, case_of, generators, params,
    skip=None, recognised_only=False,
) -> Identity:
    """An identity about S/d whose sweep records and report entries both
    come from ``sides(case, S, Q)``.

    ``sides`` returns the formula side, the oracle side read off the
    brute-force quotient Q, and a float residual or None; the two sides
    are two values, or two dicts with the same keys.  They match when
    they are equal and the residual, if any, is within the tolerance.
    ``shown`` maps each report entry name to the keys of the sides it
    shows; an entry is left out when the formula lacks one of its keys.

    In the sweep, S is built from ``generators(case)`` and the record
    carries ``params(*case)``.  A case that ``skip`` gives a reason for is
    reported as skipped without any work, and with ``recognised_only`` a
    case that ``case_of`` does not recognise yields no record at all.
    """

    def within(residual, tolerance) -> bool:
        return residual is None or residual <= tolerance

    def check(case, tolerance, inject):
        reason = skip(*case) if skip else None
        if reason:
            return [_record({**params(*case), "reason": reason}, None, None, SKIPPED)]
        S, d = _sg(generators(case)), case[-1]
        if recognised_only and case_of(S, d) is None:
            return []
        formula, oracle, residual = sides(case, S, quotient(S, d))
        if inject:
            formula = _perturbed(formula)
        status = MATCH if formula == oracle and within(residual, tolerance) else MISMATCH
        return [_record(params(*case), formula, oracle, status, residual)]

    def entries(case, S, Q, tolerance) -> dict:
        formula, oracle, residual = sides(case, S, Q)
        report = {}
        for name, keys in shown.items():
            if any(key not in formula for key in keys):
                continue
            entry = {"formula": _shown(formula, keys), "oracle": _shown(oracle, keys)}
            entry["match"] = entry["formula"] == entry["oracle"] and within(residual, tolerance)
            if residual is not None:
                entry["residual"] = residual
            report[name] = entry
        return report

    return Identity(defaults, cases, check, cost, case_of, entries)


def _corpus_gens(case: tuple) -> tuple[int, ...]:
    return case[0]


def _corpus_params(gens: tuple[int, ...], d: int) -> dict:
    return {"gens": list(gens), "d": d}


_AK_GRID = {"a_max": 120, "k_max": 20}


def _divisor_scan(cfg: SweepConfig) -> int:
    """The d of the max(a, k) divisor scan that a progression grid runs,
    summed over its pairs."""
    lo, hi = sorted((cfg.a_max, cfg.k_max))  # max(a, k) over the lo x lo square, then the rest
    return lo * (lo + 1) * (4 * lo - 1) // 6 + lo * (hi * (hi + 1) - lo * (lo + 1)) // 2


def _progression(family, applies, sides, shown, per_d, skip=None) -> Identity:
    """An identity about S = family(a, k) with gcd(a, k) = 1, divided by d.

    Its grid and the case read off (S, d) share the hypothesis
    ``applies(a, k, d)``; a case that ``skip`` gives a reason for is in
    the grid (its check reports the reason) but is not recognised.  The
    grid costs ``per_d`` steps for each d of its divisor scan, fitted to
    the id's own time.
    """

    def cases(cfg: SweepConfig) -> list[tuple]:
        # every d that applies divides a or k, so it is at most max(a, k)
        return [
            (a, k, d)
            for a, k in _coprime_pairs(cfg)
            for d in range(1, max(a, k) + 1)
            if applies(a, k, d)
        ]

    def case_of(S: NumericalSemigroup, d: int) -> tuple | None:
        gens = S.minimal_generators  # gcd(a, k) is their gcd, so it is 1
        if len(gens) < 2:
            return None
        a, k = gens[0], gens[1] - gens[0]
        if family(a, k) != gens or not applies(a, k, d) or (skip and skip(a, k, d)):
            return None
        return a, k, d

    return _about_quotient(
        sides, shown, defaults=_AK_GRID, cases=cases, case_of=case_of,
        cost=lambda cfg: per_d * _divisor_scan(cfg),
        generators=lambda case: family(case[0], case[1]),
        params=lambda a, k, d: {"a": a, "k": k, "d": d},
        skip=skip,
    )


IDENTITIES: dict[str, Identity] = {
    "theorem-main": _about_quotient(
        _theorem_main_sides, {"genus-via-roots": ()},
        defaults={"cases": 500, "max_gen": 60, "d_max": 12, "tolerance": DEFAULT_TOLERANCE},
        cases=_corpus_cases, case_of=_any_case, generators=_corpus_gens, params=_corpus_params,
        # per semigroup, its construction and its d_max - 1 quotients at 350
        # steps each, plus max_gen^2 / 300 for their O(F) mask reads (fitted
        # to time at max_gen 60, 300, 1000 and 2000), and at most d(d - 1)
        # Horner steps for the roots of each S/d, summed over d <= d_max
        cost=lambda cfg: cfg.cases * (
            350 * cfg.d_max + cfg.max_gen**2 // 300 * cfg.d_max + (cfg.d_max**3 - cfg.d_max) // 3
        ),
    ),
    "ed2-closed-form": _about_quotient(
        _ed2_sides, {"ed2-genus": ()},
        defaults={"max_value": 60, "d_max": 12}, cases=_ed2_cases, case_of=_ed2_case,
        generators=lambda case: case[:2], params=lambda a, b, d: {"a": a, "b": b, "d": d},
        skip=_ed2_skip, cost=_ed2_cost,
    ),
    "sylvester": Identity(
        {"max_value": 100}, _sylvester_cases, _check_sylvester,
        # building <a, b> takes O(a) steps, summed over a <= b <= max_value
        cost=lambda cfg: cfg.max_value * (cfg.max_value + 1) * (cfg.max_value + 2) // 6,
    ),
    "d2-constant": Identity(
        {"d_max": 8, "max_value": 200, "samples": 5}, _d2_constant_cases, _check_d2_constant,
        cost=_d2_constant_cost,
    ),
    "quasipoly": Identity(
        {"k_list": (1, 2, 3, 5), "d_max": 8, "a_max": 300}, _quasipoly_cases, _check_quasipoly,
        cost=lambda cfg: len(cfg.k_list) * cfg.d_max * _fit_work(1, cfg.a_max),
    ),
    "strazzanti": _about_quotient(
        _strazzanti_sides, {"dsymmetric-frobenius": ()},
        defaults={"cases": 500, "max_gen": 60, "d_max": 10}, cases=_corpus_cases,
        case_of=_dsymmetric_case, generators=_corpus_gens, params=_corpus_params,
        recognised_only=True,
        # theorem-main's, at 180 steps, with no roots
        cost=lambda cfg: cfg.cases * (180 * cfg.d_max + cfg.max_gen**2 // 300 * cfg.d_max),
    ),
    "ap3-symmetric": Identity(
        _AK_GRID,
        lambda cfg: [(a, k) for a, k in _coprime_pairs(cfg) if a >= 2],
        _check_ap3_symmetric,
        # per pair, 8a steps to build <a, a + k, a + 2k>, whose symmetry is read
        # off its table; fitted up to 2,000 in a or k
        lambda cfg: 4 * cfg.k_max * cfg.a_max * (cfg.a_max + 1),
    ),
    "ap3-even-d": _progression(
        _ap3,
        lambda a, k, d: a % d == 0 and d >= 3 and (d % 2 == 0 or a % 2 == 0),
        _ap3_even_d_sides,
        {"ap3-quotient-generators": ("generators",),
         "ap3-even-divisor-invariants": ("frobenius", "genus")},
        per_d=24,  # k_max = 1 costs most per step: 3.4-4.3 s at (2040, 1)
    ),
    "ap3-odd-a": _progression(
        _ap3, lambda a, k, d: a % 2 == 1 and a % d == 0,
        _ap3_odd_a_sides, {"ap3-odd-a-invariants": ("frobenius", "genus")},
        per_d=18,  # k_max = 1 costs most per step: 3.1-4.5 s at (2356, 1)
    ),
    "full-ap": _progression(
        _full_ap, lambda a, k, d: a >= 2 and a % d == 0, _full_ap_sides,
        {"full-ap-generators": ("generators",), "full-ap-invariants": ("frobenius", "genus")},
        per_d=80,  # 3.7 s at (120, 80) on CPython 3.11, x86-64
        skip=_full_ap_skip,
    ),
    "full-ap-dk": _progression(
        _full_ap, lambda a, k, d: a >= 2 and k % d == 0,
        _full_ap_dk_sides, {"full-ap-dk-invariants": ("frobenius", "genus")},
        per_d=80,  # full-ap's: it builds the same semigroups
    ),
    "root-identity": Identity(
        {"d_max": 1000, "tolerance": IDENTITY_TOLERANCE},
        lambda cfg: [(d,) for d in range(2, cfg.d_max + 1)],
        _check_root_identity,
        cost=lambda cfg: cfg.d_max * (cfg.d_max - 1) // 2,  # case d sums d - 1 roots
    ),
}

THEOREM_IDS = tuple(IDENTITIES)


def _identity(theorem: str) -> Identity:
    if theorem not in IDENTITIES:
        raise PreconditionError(
            f"unknown theorem id {theorem!r}; expected one of {', '.join(THEOREM_IDS)}"
        )
    return IDENTITIES[theorem]


def build_cases(cfg: SweepConfig) -> list[tuple]:
    """The case list for a resolved config, in deterministic order.

    Cases are small tuples of primitives so they travel cheaply to worker
    processes; anything expensive (semigroup construction, quotients)
    happens in the check.
    """
    return _identity(cfg.theorem).cases(cfg)


def check_case(theorem: str, case: tuple, tolerance: float | None, inject: bool) -> list[dict]:
    """Records for one case; pure, safe to run in any process."""
    records = _identity(theorem).check(case, tolerance, inject)
    for record in records:
        record["theorem"] = theorem
    return records


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


def _chunks(cases: list[tuple]) -> Iterator[list[tuple]]:
    """The runs of cases a sweep checks: 1, 2, 4, ... cases, doubling up to
    ``RUN``, so the first record waits for one case.  The case list alone
    fixes them, so every ``--parallel`` and every host splits a grid alike."""
    lo, size = 0, 1
    while lo < len(cases):
        yield cases[lo : lo + size]
        lo += size
        size = min(2 * size, RUN)


def sweep(cfg: SweepConfig, render=None) -> Iterator:
    """The sweep in deterministic case order, whatever the parallelism degree.

    The config is resolved and the case list built before this returns,
    so a refused grid, or one that holds no case, raises here, before any
    record exists.  With ``render``, a function from a list of records to
    its text, the sweep yields a block (statuses, text, exception) per run
    of cases of ``_chunks``, as ``check_run`` returns it, checked and
    rendered in this process or in a forked worker (see ``_blocks``).  A
    block's exception ends the sweep at its case, and its text holds the
    records of the cases before that one.  Without ``render`` the sweep
    yields the records, each once its case and every earlier one are
    checked, and raises where a case raised.
    """
    cfg = cfg.resolved()
    cases = build_cases(cfg)
    if not cases:
        raise PreconditionError(f"the {cfg.theorem} grid holds no case")
    blocks = _blocks(cfg, cases, render or list)
    return blocks if render else _records(blocks)


def _blocks(cfg: SweepConfig, cases: list[tuple], render) -> Iterator[tuple]:
    """The blocks of the runs of ``cases``, in run order.

    With one worker (``--parallel 1``, one CPU, one run, or no ``os.fork``)
    this process checks and renders each run.  Otherwise worker w is forked
    with the case list; it checks runs w, w + workers, ... and pickles each
    block into its own pipe, and block j is read from worker j mod
    workers.  A worker lost before it sends a block raises
    ``ChildProcessError`` there.  Once the sweep is exhausted, reaches a
    block's exception (before yielding it), raises or is closed, its pipes
    are closed and every worker is sent SIGTERM and reaped.
    """
    run = partial(check_run, cfg.theorem, cfg.tolerance, cfg.inject_offby1, render)
    runs = list(_chunks(cases))
    workers = min(cfg.parallel, os.cpu_count() or 1, len(runs)) if hasattr(os, "fork") else 1
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
                        for block in map(run, runs[w::workers]):
                            pickle.dump(block, sink)
                            sink.flush()
                    finally:
                        os._exit(0)  # never back into the caller, nor a flush of inherited stdio
            pids.append(pid)
        for j in range(len(runs)):
            try:
                block = pickle.load(pipes[j % workers])
            except (EOFError, pickle.UnpicklingError):
                raise ChildProcessError(
                    f"sweep worker {pids[j % workers]} ended before sending run {j + 1} of {len(runs)}"
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

