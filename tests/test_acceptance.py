"""Acceptance suite: every advertised identity at contract scale.

Each test prints one ACCEPTANCE nn: PASS/FAIL line (run pytest with -s to
see them) and fails loudly if its criterion is not met.  Grids and
tolerances here are pinned; loosening them is not a fix for a failure.
"""

import json
import math
import time
from fractions import Fraction

from numsgps import cli
from numsgps.core import from_generators, is_d_symmetric
from numsgps.quotient import frobenius_quotient_dsymmetric, quotient
from numsgps.roots import (
    _genus_via_roots_residual,
    _pair_quotient_genus,
    extract_cabd_constant,
    fit_quasipolynomial,
    genus_quotient_ed2_closed_form,
    root_of_unity_identity_check,
    sylvester_invariants,
)
from numsgps.progressions import (
    ap3_even_d_invariants,
    ap3_odd_a_invariants,
    ap3_quotient_generators,
    ap3_symmetric_iff_even,
    Ap3Spec,
    full_ap_d_divides_k,
    full_ap_divisor_identity,
    full_ap_quotient,
    FullApSpec,
)
from numsgps.verify import random_corpus

_CORPUS_CACHE: dict = {}


def corpus_500():
    if "S" not in _CORPUS_CACHE:
        _CORPUS_CACHE["S"] = [
            from_generators(gens) for gens in random_corpus(0, 500, 60)
        ]
    return _CORPUS_CACHE["S"]


def _report(criterion: int, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion:02d}: {status}{suffix}")
    assert passed, f"criterion {criterion:02d} failed {suffix}"


def test_criterion_01_genus_via_roots_against_bruteforce():
    """500 random semigroups, every d in [2, 12], exact genus agreement."""
    start = time.perf_counter()
    worst_residual = 0.0
    mismatches = 0
    for S in corpus_500():
        for d in range(2, 13):
            value, residual = _genus_via_roots_residual(S, d)
            worst_residual = max(worst_residual, residual)
            if value != quotient(S, d).genus:
                mismatches += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        mismatches == 0 and worst_residual < 1e-6 and elapsed < 30.0,
        f"max residual {worst_residual:.3e}, {elapsed:.1f}s",
    )


def test_criterion_02_ed2_closed_form_full_grid():
    """Every pairwise-coprime (a, b, d) with a, b <= 60 and 2 <= d <= 12."""
    start = time.perf_counter()
    mismatches = 0
    checked = 0
    for a in range(2, 61):
        for b in range(a + 1, 61):
            if math.gcd(a, b) != 1:
                continue
            S = from_generators([a, b])
            for d in range(2, 13):
                if math.gcd(a, d) != 1 or math.gcd(b, d) != 1:
                    continue
                checked += 1
                closed = genus_quotient_ed2_closed_form(a, b, d)
                brute = quotient(S, d).genus
                counted = _pair_quotient_genus(a, b, d)
                if not closed == brute == counted:
                    mismatches += 1
    elapsed = time.perf_counter() - start
    spot = genus_quotient_ed2_closed_form(3, 5, 2)
    _report(
        2,
        mismatches == 0 and spot == 2 and checked > 4000 and elapsed < 20.0,
        f"{checked} triples, {elapsed:.1f}s",
    )


def test_criterion_03_sylvester_all_coprime_pairs_to_100():
    mismatches = 0
    for a in range(1, 101):
        for b in range(a, 101):
            if math.gcd(a, b) != 1:
                continue
            S = from_generators([a, b])
            if sylvester_invariants(a, b) != (S.frobenius, S.genus):
                mismatches += 1
    _report(3, mismatches == 0, "all coprime pairs up to 100")


def test_criterion_04_root_identity_to_1000():
    worst = max(root_of_unity_identity_check(d) for d in range(2, 1001))
    _report(4, worst < 1e-9, f"max deviation {worst:.3e}")


def test_criterion_05_class_constant_never_disagrees():
    """Genus minus the Sylvester term is constant on every residue class."""
    failures = 0
    classes = 0
    for d in range(1, 9):
        units = [r for r in range(d) if math.gcd(r, d) == 1] or [0]
        for ra in units:
            for rb in units:
                samples = []
                for a in range(1, 201):
                    if a % d != ra % d or (d > 1 and math.gcd(a, d) != 1):
                        continue
                    for b in range(a + 1, 201):
                        if b % d != rb % d or math.gcd(a, b) != 1:
                            continue
                        if d > 1 and math.gcd(b, d) != 1:
                            continue
                        samples.append((a, b))
                        break
                    if len(samples) >= 5:
                        break
                if len(samples) < 5:
                    continue
                classes += 1
                try:
                    extract_cabd_constant(ra, rb, d, samples)
                except Exception:
                    failures += 1
    _report(5, failures == 0 and classes > 50, f"{classes} classes checked")


def test_criterion_06_quasipolynomial_fits():
    """k in {1, 2, 3, 5}, d <= 8: every admissible class fits a quadratic
    with leading coefficient exactly 1/(2d) and exact holdout predictions."""
    bad = []
    for k in (1, 2, 3, 5):
        for d in range(1, 9):
            fit = fit_quasipolynomial(k, d, (2, 300))
            # class r holds an a prime to k iff one of r + d, ..., r + kd is
            admissible = [
                r for r in range(d) if any(math.gcd(r + d * j, k) == 1 for j in range(1, k + 1))
            ]
            if sorted(fit.per_class) != admissible:
                bad.append((k, d, "classes"))
            for residue, (c2, _, _) in fit.per_class.items():
                if c2 != Fraction(1, 2 * d):
                    bad.append((k, d, residue))
    _report(6, not bad, f"32 fits over a <= 300{'; bad: ' + str(bad) if bad else ''}")


def test_criterion_07_dsymmetric_frobenius_rule_on_corpus():
    checked = 0
    mismatches = 0
    for S in corpus_500():
        if S.frobenius < 0:
            continue
        for d in range(2, 11):
            if not is_d_symmetric(S, d):
                continue
            checked += 1
            if frobenius_quotient_dsymmetric(S, d) != quotient(S, d).frobenius:
                mismatches += 1
    _report(7, mismatches == 0 and checked > 100, f"{checked} d-symmetric pairs")


def test_criterion_08_ap3_quotient_families():
    """Three-term progressions, a <= 120, k <= 20, every divisor d | a."""
    mismatches = 0
    checked = 0
    for a in range(2, 121):
        for k in range(1, 21):
            if math.gcd(a, k) != 1:
                continue
            base = from_generators([a, a + k, a + 2 * k])
            for d in range(3, a + 1):
                if a % d:
                    continue
                Q = quotient(base, d)
                s = a // d
                if d % 2 == 0 or a % 2 == 0:
                    checked += 1
                    spec = Ap3Spec(a, k, d)
                    predicted = ap3_quotient_generators(spec)
                    if predicted != Q.minimal_generators or not is_d_symmetric(Q, 1):
                        mismatches += 1
                    if d % 2 == 0 and d >= 4:
                        if ap3_even_d_invariants(spec) != (Q.frobenius, Q.genus):
                            mismatches += 1
                if a % 2 == 1:
                    checked += 1
                    f, g = ap3_odd_a_invariants(Ap3Spec(a, k, d))
                    if (f, g) != (Q.frobenius, Q.genus):
                        mismatches += 1
                    if 2 * g - f != (s + 1) // 2:
                        mismatches += 1
    _report(8, mismatches == 0 and checked > 1000, f"{checked} checks")


def test_criterion_09_ap3_symmetry_iff_even():
    mismatches = 0
    for a in range(2, 121):
        for k in range(1, 21):
            if math.gcd(a, k) != 1:
                continue
            S = from_generators([a, a + k, a + 2 * k])
            if ap3_symmetric_iff_even(a, k) != is_d_symmetric(S, 1):
                mismatches += 1
    _report(9, mismatches == 0, "a <= 120, k <= 20")


def test_criterion_10_full_progression_quotients():
    """Full progressions, a <= 120, k <= 20: d | a and d | k closed forms."""
    mismatches = 0
    checked = 0
    for a in range(2, 121):
        for k in range(1, 21):
            if math.gcd(a, k) != 1:
                continue
            spec = FullApSpec(a, k)
            base = from_generators([a + i * k for i in range(a)])
            for d in range(1, a + 1):
                if a % d == 0 and a // d >= 2:
                    checked += 1
                    s = a // d
                    Q = quotient(base, d)
                    f, g = full_ap_divisor_identity(spec, d)
                    if full_ap_quotient(spec, d) != Q:
                        mismatches += 1
                    if (f, g) != (Q.frobenius, Q.genus) or 2 * g != f + s - 1:
                        mismatches += 1
                if d >= 2 and k % d == 0:
                    checked += 1
                    Q = quotient(base, d)
                    f, g = full_ap_d_divides_k(spec, d)
                    if (f, g) != (Q.frobenius, Q.genus) or 2 * g != f + a - 1:
                        mismatches += 1
    _report(10, mismatches == 0 and checked > 2000, f"{checked} checks")


def test_criterion_11_golden_quotient_fixtures():
    fixtures = [
        ([3, 5], 2, [3, 4, 5], 2, 2),
        ([6, 7, 8], 3, [2, 5], 3, 2),
        ([15, 17, 19], 5, [3, 11, 19], 16, 9),
        ([5, 9, 13, 17, 21], 2, None, 8, 6),
    ]
    bad = []
    for gens, d, expected_gens, frobenius, genus in fixtures:
        Q = quotient(from_generators(gens), d)
        if expected_gens is not None and list(Q.minimal_generators) != expected_gens:
            bad.append((gens, d))
        if (Q.frobenius, Q.genus) != (frobenius, genus):
            bad.append((gens, d))
    _report(11, not bad, f"{len(fixtures)} fixtures{'; bad: ' + str(bad) if bad else ''}")


CLI_GRIDS = {
    "theorem-main": ["--cases", "10", "--max-gen", "25", "--d-max", "4"],
    "ed2-closed-form": ["--max", "20", "--d-max", "5"],
    "sylvester": ["--max", "20"],
    "d2-constant": ["--d-max", "4", "--max", "60", "--samples", "3"],
    "quasipoly": ["--k-list", "1,2", "--d-max", "3", "--a-max", "80"],
    "strazzanti": ["--cases", "40", "--max-gen", "30", "--d-max", "5"],
    "ap3-symmetric": ["--a-max", "30", "--k-max", "5"],
    "ap3-even-d": ["--a-max", "30", "--k-max", "5"],
    "ap3-odd-a": ["--a-max", "30", "--k-max", "5"],
    "full-ap": ["--a-max", "20", "--k-max", "5"],
    "full-ap-dk": ["--a-max", "20", "--k-max", "5"],
    "root-identity": ["--d-max", "60"],
}


def test_criterion_12_cli_verify_all_theorems(capsys):
    bad = []
    for theorem, grid in CLI_GRIDS.items():
        argv = ["verify", theorem, "--format", "json", *grid]
        code = cli.main(argv)
        out = capsys.readouterr().out
        records = [json.loads(line) for line in out.splitlines() if line]
        live = [r for r in records if r["status"] != "skipped-precondition"]
        if code != 0 or not live:
            bad.append((theorem, "clean", code))
        inject_code = cli.main(argv + ["--inject-offby1"])
        if inject_code != 1:
            bad.append((theorem, "inject", inject_code))
        capsys.readouterr()
    with capsys.disabled():
        _report(12, not bad, f"12 theorem ids{'; bad: ' + str(bad) if bad else ''}")
