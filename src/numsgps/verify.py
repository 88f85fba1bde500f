"""Verification sweeps pitting every closed form against brute force.

Each sweep walks a parameter grid, evaluates a closed-form identity on
one side and an independent brute-force computation on the other, and
emits one record per comparison.  Records are plain dicts with keys
``theorem``, ``params``, ``formula``, ``oracle``, ``status`` and
``residual`` so they serialize directly to JSON; rationals are rendered
as ``num/den`` strings.  A sweep never stops at the first failure: the
caller decides what to do with mismatches.

The ``inject_offby1`` switch deliberately perturbs the formula side of
every record by one (flipping booleans) so that the surrounding tooling
can prove it would notice a wrong closed form.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from multiprocessing import Pool

from .core import (
    NumericalSemigroup,
    PreconditionError,
    ResourceLimitError,
    TheoremViolationError,
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
    full_ap_quotient,
)
from .quotient import frobenius_quotient_dsymmetric, quotient
from .roots import (
    DEFAULT_TOLERANCE,
    IDENTITY_TOLERANCE,
    MAX_ROOT_WORK,
    _genus_via_roots_residual,
    extract_cabd_constant,
    fit_quasipolynomial,
    genus_quotient_ed2_closed_form,
    root_of_unity_identity_check,
    sylvester_invariants,
)

THEOREM_IDS = (
    "theorem-main",
    "ed2-closed-form",
    "sylvester",
    "d2-constant",
    "quasipoly",
    "strazzanti",
    "ap3-symmetric",
    "ap3-even-d",
    "ap3-odd-a",
    "full-ap",
    "full-ap-dk",
    "root-identity",
)

MATCH = "match"
MISMATCH = "mismatch"
SKIPPED = "skipped-precondition"

_DEFAULTS: dict[str, dict[str, object]] = {
    "theorem-main": {
        "cases": 500,
        "max_gen": 60,
        "d_max": 12,
        "tolerance": DEFAULT_TOLERANCE,
    },
    "ed2-closed-form": {"max_value": 60, "d_max": 12},
    "sylvester": {"max_value": 100},
    "d2-constant": {"d_max": 8, "max_value": 200, "samples": 5},
    "quasipoly": {"k_list": (1, 2, 3, 5), "d_max": 8, "a_max": 300},
    "strazzanti": {"cases": 500, "max_gen": 60, "d_max": 10},
    "ap3-symmetric": {"a_max": 120, "k_max": 20},
    "ap3-even-d": {"a_max": 120, "k_max": 20},
    "ap3-odd-a": {"a_max": 120, "k_max": 20},
    "full-ap": {"a_max": 120, "k_max": 20},
    "full-ap-dk": {"a_max": 120, "k_max": 20},
    "root-identity": {"d_max": 1000, "tolerance": IDENTITY_TOLERANCE},
}


@dataclass(frozen=True)
class SweepConfig:
    """Grid and output parameters for one verification sweep.

    Fields left as ``None`` pick up the per-theorem defaults in
    ``resolved``; fields irrelevant to the chosen theorem stay ``None``.
    """

    theorem: str
    seed: int = 0
    cases: int | None = None
    max_gen: int | None = None
    max_value: int | None = None
    d_max: int | None = None
    a_max: int | None = None
    k_max: int | None = None
    k_list: tuple[int, ...] | None = None
    samples: int | None = None
    tolerance: float | None = None
    format: str = "table"
    parallel: int = 1
    inject_offby1: bool = False

    def resolved(self) -> "SweepConfig":
        """A copy with defaults filled in and every field validated."""
        if self.theorem not in THEOREM_IDS:
            raise PreconditionError(
                f"unknown theorem id {self.theorem!r}; "
                f"expected one of {', '.join(THEOREM_IDS)}"
            )
        if self.format not in ("table", "json", "csv"):
            raise PreconditionError(f"unknown output format {self.format!r}")
        filled = {
            name: value
            for name, value in _DEFAULTS[self.theorem].items()
            if getattr(self, name) is None
        }
        cfg = replace(self, **filled)
        for name in ("cases", "max_gen", "max_value", "d_max", "a_max", "k_max", "samples"):
            value = getattr(cfg, name)
            if value is not None and value < 1:
                raise PreconditionError(f"{name} must be >= 1, got {value}")
        if cfg.max_gen is not None and cfg.max_gen < 2:
            raise PreconditionError(f"max_gen must be >= 2, got {cfg.max_gen}")
        if cfg.tolerance is not None and not cfg.tolerance > 0:
            raise PreconditionError(f"tolerance must be > 0, got {cfg.tolerance}")
        if cfg.parallel < 1:
            raise PreconditionError(f"parallel must be >= 1, got {cfg.parallel}")
        if cfg.k_list is not None and (
            not cfg.k_list or any(k < 1 for k in cfg.k_list)
        ):
            raise PreconditionError(f"k_list must hold positive integers, got {cfg.k_list}")
        if cfg.theorem == "root-identity":
            # Case d sums d - 1 roots, so the sweep evaluates d_max(d_max - 1)/2.
            work = cfg.d_max * (cfg.d_max - 1) // 2
            if work > MAX_ROOT_WORK:
                raise ResourceLimitError(
                    f"d_max(d_max - 1)/2 = {work} root evaluations exceeds {MAX_ROOT_WORK}"
                )
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


def _record(
    theorem: str,
    params: dict,
    formula,
    oracle,
    status: str,
    residual: float | None = None,
) -> dict:
    return {
        "theorem": theorem,
        "params": params,
        "formula": formula,
        "oracle": oracle,
        "status": status,
        "residual": residual,
    }


def build_cases(cfg: SweepConfig) -> list[tuple]:
    """The case list for a resolved config, in deterministic order.

    Cases are small tuples of primitives so they travel cheaply to worker
    processes; anything expensive (semigroup construction, quotients)
    happens in the checker.
    """
    t = cfg.theorem
    if t == "theorem-main":
        return [
            (gens, d)
            for gens in random_corpus(cfg.seed, cfg.cases, cfg.max_gen)
            for d in range(2, cfg.d_max + 1)
        ]
    if t == "ed2-closed-form":
        return [
            (a, b, d)
            for a in range(2, cfg.max_value + 1)
            for b in range(a + 1, cfg.max_value + 1)
            if math.gcd(a, b) == 1
            for d in range(2, cfg.d_max + 1)
        ]
    if t == "sylvester":
        return [
            (a, b)
            for a in range(1, cfg.max_value + 1)
            for b in range(a, cfg.max_value + 1)
            if math.gcd(a, b) == 1
        ]
    if t == "d2-constant":
        return _d2_constant_cases(cfg)
    if t == "quasipoly":
        return [
            (k, d, cfg.a_max) for k in cfg.k_list for d in range(1, cfg.d_max + 1)
        ]
    if t == "strazzanti":
        return [
            (gens, d)
            for gens in random_corpus(cfg.seed, cfg.cases, cfg.max_gen)
            for d in range(2, cfg.d_max + 1)
        ]
    if t == "ap3-symmetric":
        return [
            (a, k)
            for a in range(2, cfg.a_max + 1)
            for k in range(1, cfg.k_max + 1)
            if math.gcd(a, k) == 1
        ]
    if t == "ap3-even-d":
        return [
            (a, k, d)
            for a in range(2, cfg.a_max + 1)
            for k in range(1, cfg.k_max + 1)
            if math.gcd(a, k) == 1
            for d in range(3, a + 1)
            if a % d == 0 and (d % 2 == 0 or a % 2 == 0)
        ]
    if t == "ap3-odd-a":
        return [
            (a, k, d)
            for a in range(1, cfg.a_max + 1, 2)
            for k in range(1, cfg.k_max + 1)
            if math.gcd(a, k) == 1
            for d in range(1, a + 1)
            if a % d == 0
        ]
    if t in ("full-ap", "full-ap-dk"):
        divides = (lambda a, k, d: a % d == 0) if t == "full-ap" else (
            lambda a, k, d: k % d == 0
        )
        limit = cfg.a_max if t == "full-ap" else cfg.k_max
        return [
            (a, k, d)
            for a in range(2, cfg.a_max + 1)
            for k in range(1, cfg.k_max + 1)
            if math.gcd(a, k) == 1
            for d in range(1, limit + 1)
            if divides(a, k, d)
        ]
    if t == "root-identity":
        return [(d,) for d in range(2, cfg.d_max + 1)]
    raise PreconditionError(f"unknown theorem id {t!r}")


def _d2_constant_cases(cfg: SweepConfig) -> list[tuple]:
    cases = []
    for d in range(2, cfg.d_max + 1):
        units = [r for r in range(1, d) if math.gcd(r, d) == 1]
        for a_class in units:
            for b_class in units:
                pairs = _class_sample_pairs(
                    a_class, b_class, d, cfg.samples, cfg.max_value
                )
                if len(pairs) >= 2:
                    cases.append((d, a_class, b_class, tuple(pairs)))
    return cases


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


def _check_theorem_main(case, tolerance, inject):
    gens, d = case
    S = _sg(gens)
    value, residual = _genus_via_roots_residual(S, d)
    formula = value + (1 if inject else 0)
    oracle = quotient(S, d).genus
    ok = formula == oracle and residual <= tolerance
    return [
        _record(
            "theorem-main",
            {"gens": list(gens), "d": d},
            formula,
            oracle,
            MATCH if ok else MISMATCH,
            residual,
        )
    ]


def _check_ed2(case, tolerance, inject):
    a, b, d = case
    params = {"a": a, "b": b, "d": d}
    for x, name in ((a, "a"), (b, "b")):
        if math.gcd(x, d) != 1:
            params["reason"] = f"gcd({name}, d) = {math.gcd(x, d)}"
            return [_record("ed2-closed-form", params, None, None, SKIPPED)]
    formula = genus_quotient_ed2_closed_form(a, b, d) + (1 if inject else 0)
    oracle = quotient(_sg((a, b)), d).genus
    status = MATCH if formula == oracle else MISMATCH
    return [_record("ed2-closed-form", params, formula, oracle, status)]


def _check_sylvester(case, tolerance, inject):
    a, b = case
    bump = 1 if inject else 0
    f, g = sylvester_invariants(a, b)
    S = _sg((a, b))
    formula = [f + bump, g + bump]
    oracle = [S.frobenius, S.genus]
    status = MATCH if formula == oracle else MISMATCH
    return [_record("sylvester", {"a": a, "b": b}, formula, oracle, status)]


def _check_d2_constant(case, tolerance, inject):
    d, a_class, b_class, pairs = case
    params = {
        "d": d,
        "a_class": a_class,
        "b_class": b_class,
        "samples": [list(p) for p in pairs],
    }
    try:
        constant = extract_cabd_constant(a_class, b_class, d, list(pairs))
    except TheoremViolationError as exc:
        params["error"] = str(exc)
        return [_record("d2-constant", params, None, None, MISMATCH)]
    formula = _frac(constant + (1 if inject else 0))
    oracle = _frac(constant)
    status = MATCH if formula == oracle else MISMATCH
    return [_record("d2-constant", params, formula, oracle, status)]


def _check_quasipoly(case, tolerance, inject):
    k, d, a_max = case
    try:
        fit = fit_quasipolynomial(k, d, (1, a_max))
    except TheoremViolationError as exc:
        return [
            _record(
                "quasipoly", {"k": k, "d": d, "error": str(exc)}, None, None, MISMATCH
            )
        ]
    expected = Fraction(1, 2 * d)
    records = []
    for residue in sorted(fit.per_class):
        c2, c1, c0 = fit.per_class[residue]
        shown = c2 + (1 if inject else 0)
        records.append(
            _record(
                "quasipoly",
                {"k": k, "d": d, "residue": residue},
                {"c2": _frac(shown), "c1": _frac(c1), "c0": _frac(c0)},
                {"c2": _frac(expected)},
                MATCH if shown == expected else MISMATCH,
            )
        )
    return records


def _check_strazzanti(case, tolerance, inject):
    gens, d = case
    S = _sg(gens)
    if not is_d_symmetric(S, d):
        return []
    formula = frobenius_quotient_dsymmetric(S, d) + (1 if inject else 0)
    oracle = quotient(S, d).frobenius
    status = MATCH if formula == oracle else MISMATCH
    return [_record("strazzanti", {"gens": list(gens), "d": d}, formula, oracle, status)]


def _check_ap3_symmetric(case, tolerance, inject):
    a, k = case
    formula = ap3_symmetric_iff_even(a, k) != inject
    S = _sg((a, a + k, a + 2 * k))
    oracle = is_d_symmetric(S, 1)
    status = MATCH if formula == oracle else MISMATCH
    return [_record("ap3-symmetric", {"a": a, "k": k}, formula, oracle, status)]


def _check_ap3_even_d(case, tolerance, inject):
    a, k, d = case
    spec = Ap3Spec(a, k, d)
    predicted = ap3_quotient_generators(spec)
    Q = quotient(_sg((a, a + k, a + 2 * k)), d)
    formula = {
        "generators": list(predicted.minimal_generators),
        "symmetric": not inject,
    }
    oracle = {
        "generators": list(Q.minimal_generators),
        "symmetric": is_d_symmetric(Q, 1),
    }
    if d % 2 == 0 and d >= 4:
        f, g = ap3_even_d_invariants(spec)
        formula["frobenius"] = f
        formula["genus"] = g + (1 if inject else 0)
        oracle["frobenius"] = Q.frobenius
        oracle["genus"] = Q.genus
    status = MATCH if formula == oracle else MISMATCH
    return [_record("ap3-even-d", {"a": a, "k": k, "d": d}, formula, oracle, status)]


def _check_ap3_odd_a(case, tolerance, inject):
    a, k, d = case
    spec = Ap3Spec(a, k, d)
    f, g = ap3_odd_a_invariants(spec)
    s = spec.s
    Q = quotient(_sg((a, a + k, a + 2 * k)), d)
    bump = 1 if inject else 0
    formula = {
        "frobenius": f,
        "genus": g + bump,
        "two_g_minus_f": (s + 1) // 2,
    }
    oracle = {
        "frobenius": Q.frobenius,
        "genus": Q.genus,
        "two_g_minus_f": 2 * Q.genus - Q.frobenius,
    }
    status = MATCH if formula == oracle else MISMATCH
    return [_record("ap3-odd-a", {"a": a, "k": k, "d": d}, formula, oracle, status)]


def _check_full_ap(case, tolerance, inject):
    a, k, d = case
    spec = FullApSpec(a, k)
    params = {"a": a, "k": k, "d": d}
    s = a // d
    if s == 1:
        params["reason"] = "d = a gives the quotient N; closed form needs s >= 2"
        return [_record("full-ap", params, None, None, SKIPPED)]
    Q = quotient(_sg(tuple(a + i * k for i in range(a))), d)
    predicted = full_ap_quotient(spec, d)
    bump = 1 if inject else 0
    formula = {
        "frobenius": k * (s - 1),
        "genus": (k + 1) * (s - 1) // 2 + bump,
        "generators": list(predicted.minimal_generators),
        "two_genus": Q.frobenius + s - 1,
    }
    oracle = {
        "frobenius": Q.frobenius,
        "genus": Q.genus,
        "generators": list(Q.minimal_generators),
        "two_genus": 2 * Q.genus,
    }
    status = MATCH if formula == oracle else MISMATCH
    return [_record("full-ap", params, formula, oracle, status)]


def _check_full_ap_dk(case, tolerance, inject):
    a, k, d = case
    Q = quotient(_sg(tuple(a + i * k for i in range(a))), d)
    bump = 1 if inject else 0
    formula = {
        "frobenius": (a - 1) * (k // d),
        "genus": (a - 1) * (k // d + 1) // 2 + bump,
        "two_genus": Q.frobenius + a - 1,
    }
    oracle = {
        "frobenius": Q.frobenius,
        "genus": Q.genus,
        "two_genus": 2 * Q.genus,
    }
    status = MATCH if formula == oracle else MISMATCH
    return [_record("full-ap-dk", {"a": a, "k": k, "d": d}, formula, oracle, status)]


def _check_root_identity(case, tolerance, inject):
    (d,) = case
    deviation = root_of_unity_identity_check(d) + (1.0 if inject else 0.0)
    status = MATCH if deviation <= tolerance else MISMATCH
    return [_record("root-identity", {"d": d}, deviation, 0.0, status, deviation)]


_CHECKERS = {
    "theorem-main": _check_theorem_main,
    "ed2-closed-form": _check_ed2,
    "sylvester": _check_sylvester,
    "d2-constant": _check_d2_constant,
    "quasipoly": _check_quasipoly,
    "strazzanti": _check_strazzanti,
    "ap3-symmetric": _check_ap3_symmetric,
    "ap3-even-d": _check_ap3_even_d,
    "ap3-odd-a": _check_ap3_odd_a,
    "full-ap": _check_full_ap,
    "full-ap-dk": _check_full_ap_dk,
    "root-identity": _check_root_identity,
}


def check_case(theorem: str, case: tuple, tolerance: float | None, inject: bool) -> list[dict]:
    """Records for one case; pure, safe to run in any process."""
    if theorem not in _CHECKERS:
        raise PreconditionError(f"unknown theorem id {theorem!r}")
    return _CHECKERS[theorem](case, tolerance, inject)


def _check_case_packed(args: tuple) -> list[dict]:
    return check_case(*args)


def run_sweep(cfg: SweepConfig) -> list[dict]:
    """All records for the sweep, in deterministic case order regardless of
    the parallelism degree."""
    cfg = cfg.resolved()
    cases = build_cases(cfg)
    packed = [(cfg.theorem, case, cfg.tolerance, cfg.inject_offby1) for case in cases]
    if cfg.parallel == 1 or len(cases) < 2:
        batches = map(_check_case_packed, packed)
    else:
        chunk = max(1, len(packed) // (4 * cfg.parallel))
        with Pool(cfg.parallel) as pool:
            batches = pool.map(_check_case_packed, packed, chunksize=chunk)
    return [record for batch in batches for record in batch]


def summarize(records: list[dict]) -> dict[str, int]:
    """Counts by status, with zero entries for the statuses not seen."""
    counts = {MATCH: 0, MISMATCH: 0, SKIPPED: 0}
    for record in records:
        counts[record["status"]] = counts.get(record["status"], 0) + 1
    return counts


__all__ = [
    "MATCH",
    "MISMATCH",
    "SKIPPED",
    "SweepConfig",
    "THEOREM_IDS",
    "build_cases",
    "check_case",
    "random_corpus",
    "run_sweep",
    "summarize",
]
