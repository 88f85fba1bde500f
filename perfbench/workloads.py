"""The benchmark's workloads: program invocations and how to check their output.

An operation is one ``verify`` case or one ``quotient`` query.  For every
invocation the benchmark works out, on its own, the cases the program must
report (the grid), and checks each record against ``oracle``.  A case fails
when its invocation exits non-zero, when its record reports a mismatch or is
missing, or when the record disagrees with the oracle.  Output that belongs
to no case (an unknown or repeated record, records out of case order, an
unparseable line) is not an operation and makes the run incorrect instead.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from oracle import Semigroup, frac, pair_constant

MATCH = "match"
SKIPPED = "skipped-precondition"
GENUS_TOLERANCE = 1e-6  # passed to the program as --tolerance
IDENTITY_TOLERANCE = 1e-9
SAMPLED_RECORDS = 40  # oracle checks per progression sweep
QUASIPOLY_POINTS = 2  # sieved points per fitted residue class

# The grids the program uses by default, passed explicitly so that a
# change of defaults cannot change the benchmark.
GRIDS = {
    "theorem-main": {"cases": 500, "max_gen": 60, "d_max": 12, "tolerance": GENUS_TOLERANCE},
    "ed2-closed-form": {"max": 60, "d_max": 12},
    "sylvester": {"max": 100},
    "d2-constant": {"d_max": 8, "max": 200, "samples": 5},
    "quasipoly": {"k_list": (1, 2, 3, 5), "d_max": 8, "a_max": 300},
    "strazzanti": {"cases": 500, "max_gen": 60, "d_max": 10},
    "ap3-even-d": {"a_max": 120, "k_max": 20},
    "full-ap": {"a_max": 120, "k_max": 20},
    "full-ap-dk": {"a_max": 120, "k_max": 20},
    "root-identity": {"d_max": 1000, "tolerance": IDENTITY_TOLERANCE},
}
SHORT_GRIDS = {
    "theorem-main": {"cases": 20, "max_gen": 20, "d_max": 5, "tolerance": GENUS_TOLERANCE},
    "ed2-closed-form": {"max": 12, "d_max": 5},
    "sylvester": {"max": 15},
    "d2-constant": {"d_max": 4, "max": 40, "samples": 3},
    "quasipoly": {"k_list": (1, 2), "d_max": 3, "a_max": 30},
    "strazzanti": {"cases": 20, "max_gen": 20, "d_max": 5},
    "ap3-even-d": {"a_max": 24, "k_max": 4},
    "full-ap": {"a_max": 16, "k_max": 4},
    "full-ap-dk": {"a_max": 16, "k_max": 4},
    "root-identity": {"d_max": 50, "tolerance": IDENTITY_TOLERANCE},
}
P2_CASES = 1000  # corpus size of corpus-sweeps-p2, twice the default

LARGE_INPUTS = (
    (3001, 4007, 5003),
    (1001, 1237, 1999, 2503),
    tuple(120 + 7 * i for i in range(120)),
)
# No input has two generators or three in arithmetic progression, so the
# only closed forms that apply are the ones expected_formulas names.
SHORT_LARGE_INPUTS = ((11, 13, 19), (7, 9, 15), tuple(12 + 7 * i for i in range(12)))


@lru_cache(maxsize=None)
def sieve(gens: tuple[int, ...]) -> Semigroup:
    return Semigroup(gens)


def progression(a: int, k: int) -> tuple[int, ...]:
    return tuple(a + i * k for i in range(a))


def progression_params(gens: tuple[int, ...]) -> tuple[int, int] | None:
    """(a, k) when gens is the full progression <a, a+k, ..., a+(a-1)k>."""
    a = gens[0]
    if len(gens) == a >= 2 and gens == progression(a, gens[1] - a):
        return a, gens[1] - a
    return None


def random_corpus(seed: int, cases: int, max_gen: int) -> list[tuple[int, ...]]:
    """The seeded corpus that ``verify`` draws for theorem-main and
    strazzanti: 2 to 4 values in [2, max_gen], duplicates collapsed,
    redrawn until the gcd is 1."""
    rng = random.Random(seed)
    corpus = []
    while len(corpus) < cases:
        count = rng.randint(2, 4)
        gens = tuple(sorted({rng.randint(2, max_gen) for _ in range(count)}))
        if len(gens) >= 2 and math.gcd(*gens) == 1:
            corpus.append(gens)
    return corpus


def _class_sample_pairs(a_class, b_class, d, count, max_value):
    """First ``count`` coprime pairs on the class mod d, smallest a + b first."""
    pairs = []
    for total in range(2 * ((max_value - 1) // d) + 1):
        for i in range(total + 1):
            a, b = a_class + d * i, b_class + d * (total - i)
            if a <= max_value and b <= max_value and a != b and math.gcd(a, b) == 1:
                pairs.append([a, b])
                if len(pairs) == count:
                    return pairs
    return pairs


def verify_grid(theorem: str, grid: dict, seed: int) -> list[dict]:
    """The inputs of every case, in the program's case order."""
    if theorem in ("theorem-main", "strazzanti"):
        corpus = random_corpus(seed, grid["cases"], grid["max_gen"])
        return [{"gens": list(g), "d": d} for g in corpus for d in range(2, grid["d_max"] + 1)]
    if theorem == "ed2-closed-form":
        n = grid["max"]
        return [
            {"a": a, "b": b, "d": d}
            for a in range(2, n + 1)
            for b in range(a + 1, n + 1)
            if math.gcd(a, b) == 1
            for d in range(2, grid["d_max"] + 1)
        ]
    if theorem == "sylvester":
        n = grid["max"]
        return [
            {"a": a, "b": b}
            for a in range(1, n + 1)
            for b in range(a, n + 1)
            if math.gcd(a, b) == 1
        ]
    if theorem == "d2-constant":
        cases = []
        for d in range(2, grid["d_max"] + 1):
            units = [r for r in range(1, d) if math.gcd(r, d) == 1]
            for ac in units:
                for bc in units:
                    pairs = _class_sample_pairs(ac, bc, d, grid["samples"], grid["max"])
                    if len(pairs) >= 2:
                        cases.append({"d": d, "a_class": ac, "b_class": bc, "samples": pairs})
        return cases
    if theorem == "quasipoly":
        return [{"k": k, "d": d} for k in grid["k_list"] for d in range(1, grid["d_max"] + 1)]
    if theorem == "root-identity":
        return [{"d": d} for d in range(2, grid["d_max"] + 1)]
    a_max, k_max = grid["a_max"], grid["k_max"]
    pairs = [
        (a, k)
        for a in range(2, a_max + 1)
        for k in range(1, k_max + 1)
        if math.gcd(a, k) == 1
    ]
    if theorem == "ap3-even-d":
        return [
            {"a": a, "k": k, "d": d}
            for a, k in pairs
            for d in range(3, a + 1)
            if a % d == 0 and (d % 2 == 0 or a % 2 == 0)
        ]
    if theorem == "full-ap":
        return [{"a": a, "k": k, "d": d} for a, k in pairs for d in range(1, a_max + 1) if a % d == 0]
    if theorem == "full-ap-dk":
        return [{"a": a, "k": k, "d": d} for a, k in pairs for d in range(1, k_max + 1) if k % d == 0]
    raise ValueError(f"no grid for {theorem!r}")


def expected_records(theorem: str, case: dict) -> list[dict]:
    """The params of the records a case must emit: one per fitted residue
    class for quasipoly, none for a strazzanti case that is not d-symmetric."""
    if theorem == "quasipoly":
        k, d = case["k"], case["d"]
        return [dict(case, residue=r) for r in range(d) if math.gcd(k, math.gcd(r, d)) == 1]
    if theorem == "strazzanti" and not sieve(tuple(case["gens"])).is_d_symmetric(case["d"]):
        return []
    return [case]


# Record checks: check(record, params, deep) -> bool.  ``deep`` asks for the
# oracle; without it only the record's own consistency is checked.


def _matched(record) -> bool:
    return record["status"] == MATCH and record["formula"] == record["oracle"]


def _skipped(record) -> bool:
    return (
        record["status"] == SKIPPED
        and record["formula"] is None
        and record["oracle"] is None
        and bool(record["params"].get("reason"))
    )


def _check_theorem_main(record, p, deep):
    residual = record["residual"]
    ok = _matched(record) and isinstance(residual, float) and residual <= GENUS_TOLERANCE
    return ok and (not deep or record["oracle"] == sieve(tuple(p["gens"])).quotient(p["d"]).genus)


def _check_strazzanti(record, p, deep):
    return _matched(record) and (
        not deep or record["oracle"] == sieve(tuple(p["gens"])).quotient(p["d"]).frobenius
    )


def _check_ed2(record, p, deep):
    a, b, d = p["a"], p["b"], p["d"]
    if math.gcd(a, d) != 1 or math.gcd(b, d) != 1:
        return _skipped(record)
    return _matched(record) and (not deep or record["oracle"] == sieve((a, b)).quotient(d).genus)


def _check_sylvester(record, p, deep):
    a, b = p["a"], p["b"]
    if not _matched(record):
        return False
    if not deep:
        return True
    S = sieve((a, b))
    return record["oracle"] == [S.frobenius, S.genus] == [a * b - a - b, (a - 1) * (b - 1) // 2]


def _check_d2_constant(record, p, deep):
    if not _matched(record):
        return False
    if not deep:
        return True
    values = {pair_constant(a, b, p["d"]) for a, b in p["samples"]}
    return len(values) == 1 and record["oracle"] == frac(values.pop())


def _check_quasipoly(record, p, deep):
    k, d, r = p["k"], p["d"], p["residue"]
    c2 = Fraction(1, 2 * d)
    formula = record["formula"]
    if not (
        record["status"] == MATCH
        and record["oracle"] == {"c2": frac(c2)}
        and isinstance(formula, dict)
        and formula.get("c2") == frac(c2)
    ):
        return False
    if not deep:
        return True
    c1, c0 = Fraction(formula["c1"]), Fraction(formula["c0"])
    a_max = deep["a_max"]
    points = [a for a in range(1, a_max + 1) if a % d == r and math.gcd(a, k) == 1]
    rng = random.Random(f"{deep['seed']}:quasipoly:{k}:{d}:{r}")
    for a in rng.sample(points, min(QUASIPOLY_POINTS, len(points))):
        if c2 * a * a + c1 * a + c0 != sieve((a, a + k)).quotient(d).genus:
            return False
    return True


def _check_root_identity(record, p, deep):
    residual = record["residual"]
    return (
        record["status"] == MATCH
        and record["oracle"] == 0.0
        and isinstance(residual, float)
        and record["formula"] == residual
        and 0.0 <= residual <= IDENTITY_TOLERANCE
    )


def _check_ap3_even_d(record, p, deep):
    a, k, d = p["a"], p["k"], p["d"]
    oracle = record["oracle"]
    keys = {"generators", "symmetric"}
    if d % 2 == 0 and d >= 4:
        keys |= {"frobenius", "genus"}
    if not (_matched(record) and isinstance(oracle, dict) and set(oracle) == keys):
        return False
    if not deep:
        return True
    Q = sieve((a, a + k, a + 2 * k)).quotient(d)
    if "frobenius" in oracle and [oracle["frobenius"], oracle["genus"]] != [Q.frobenius, Q.genus]:
        return False
    return oracle["symmetric"] == Q.symmetric and Q.has_minimal_generators(oracle["generators"])


def _check_full_ap(record, p, deep):
    a, k, d = p["a"], p["k"], p["d"]
    if a // d == 1:
        return _skipped(record)
    oracle = record["oracle"]
    if not (_matched(record) and oracle["two_genus"] == 2 * oracle["genus"]):
        return False
    if not deep:
        return True
    Q = sieve(progression(a, k)).quotient(d)
    return [oracle["frobenius"], oracle["genus"]] == [
        Q.frobenius,
        Q.genus,
    ] and Q.has_minimal_generators(oracle["generators"])


def _check_full_ap_dk(record, p, deep):
    oracle = record["oracle"]
    if not (_matched(record) and oracle["two_genus"] == 2 * oracle["genus"]):
        return False
    if not deep:
        return True
    Q = sieve(progression(p["a"], p["k"])).quotient(p["d"])
    return [oracle["frobenius"], oracle["genus"]] == [Q.frobenius, Q.genus]


RECORD_CHECKS = {
    "theorem-main": _check_theorem_main,
    "strazzanti": _check_strazzanti,
    "ed2-closed-form": _check_ed2,
    "sylvester": _check_sylvester,
    "d2-constant": _check_d2_constant,
    "quasipoly": _check_quasipoly,
    "root-identity": _check_root_identity,
    "ap3-even-d": _check_ap3_even_d,
    "full-ap": _check_full_ap,
    "full-ap-dk": _check_full_ap_dk,
}


def _key(params: dict) -> str:
    return json.dumps({k: v for k, v in params.items() if k != "reason"}, sort_keys=True)


@dataclass
class Outcome:
    """What one invocation's output says about its operations."""

    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)


@dataclass
class VerifyInvocation:
    """``numsgps verify <theorem>`` on an explicit grid."""

    theorem: str
    grid: dict
    seed: int
    parallel: int
    sampled: bool  # oracle on a seeded sample of cases instead of all
    inject: bool = False

    def __post_init__(self):
        self.inputs = verify_grid(self.theorem, self.grid, self.seed)
        self.cases = [expected_records(self.theorem, case) for case in self.inputs]
        # the random corpus can repeat a semigroup, so a key can name several cases
        self.index: dict[str, list[int]] = {}
        for n, records in enumerate(self.cases):
            for params in records:
                self.index.setdefault(_key(params), []).append(n)
        if self.sampled:
            rng = random.Random(f"{self.seed}:{self.theorem}")
            count = min(SAMPLED_RECORDS, len(self.cases))
            self.deep = set(rng.sample(range(len(self.cases)), count))
        else:
            self.deep = range(len(self.cases))

    @property
    def name(self) -> str:
        return f"verify {self.theorem}"

    def argv(self) -> list[str]:
        args = ["verify", self.theorem]
        for name, value in self.grid.items():
            if name == "k_list":
                value = ",".join(map(str, value))
            args += ["--" + name.replace("_", "-"), str(value)]
        args += ["--format", "json", "--seed", str(self.seed), "--parallel", str(self.parallel)]
        if self.inject:
            args.append("--inject-offby1")
        return args

    def check(self, stdout: str, returncode: int) -> Outcome:
        outcome = Outcome(attempted=len(self.cases), failed=0)
        check = RECORD_CHECKS[self.theorem]
        deep_args = {"seed": self.seed, "a_max": self.grid.get("a_max")}
        failed, last = set(), -1
        unseen = {key: list(reversed(cases)) for key, cases in self.index.items()}
        for line in stdout.splitlines():
            try:
                record = json.loads(line)
                key = _key(record["params"])
            except (ValueError, KeyError, TypeError, AttributeError):
                outcome.problems.append(f"{self.name}: unparseable line {line[:80]!r}")
                continue
            if record.get("theorem") != self.theorem or not unseen.get(key):
                outcome.problems.append(f"{self.name}: unexpected record {line[:120]}")
                continue
            n = unseen[key].pop()
            if n < last:
                outcome.problems.append(f"{self.name}: record out of case order {line[:120]}")
            last = max(last, n)
            if isinstance(record.get("residual"), float) and self.theorem == "theorem-main":
                outcome.residuals.append(record["residual"])
            try:
                ok = check(record, record["params"], deep_args if n in self.deep else None)
            except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError):
                ok = False
            if not ok:
                failed.add(n)
        failed.update(n for cases in unseen.values() for n in cases)  # missing records
        outcome.failed = len(self.cases) if returncode != 0 else len(failed)
        return outcome


@dataclass
class QuotientInvocation:
    """``numsgps quotient`` on one semigroup and divisor."""

    gens: tuple[int, ...]
    d: int
    seed: int

    @property
    def name(self) -> str:
        return f"quotient d={self.d} gens={self.gens[:4]}"

    def argv(self) -> list[str]:
        return [
            "quotient", "--gens", ",".join(map(str, self.gens)), "--d", str(self.d),
            "--tolerance", str(GENUS_TOLERANCE), "--format", "json",
            "--seed", str(self.seed), "--parallel", "1",
        ]

    def expected_formulas(self, S: Semigroup) -> set[str]:
        names = {"genus-via-roots"}
        if self.d >= 2 and S.is_d_symmetric(self.d):
            names.add("dsymmetric-frobenius")
        full = progression_params(self.gens)
        if full:
            a, k = full
            if a % self.d == 0 and a // self.d >= 2:
                names |= {"full-ap-generators", "full-ap-invariants"}
            if k % self.d == 0:
                names.add("full-ap-dk-invariants")
        return names

    def check(self, stdout: str, returncode: int) -> Outcome:
        outcome = Outcome(attempted=1, failed=0)
        lines = stdout.splitlines()
        try:
            (line,) = lines
            report = json.loads(line)
            formulas = report["formulas"]
            residual = formulas["genus-via-roots"]["residual"]
        except (ValueError, KeyError, TypeError):
            outcome.problems.append(f"{self.name}: expected one JSON report, got {len(lines)} lines")
            outcome.failed = 1
            return outcome
        if isinstance(residual, float):
            outcome.residuals.append(residual)
        if returncode != 0 or not self._report_ok(report, formulas, residual):
            outcome.failed = 1
        return outcome

    def _report_ok(self, report, formulas, residual) -> bool:
        S = sieve(self.gens)
        Q = S.quotient(self.d)
        invariants = [Q.frobenius, Q.genus]
        base = S.quotient(1)
        if not (
            report["d"] == self.d
            and base.has_minimal_generators(report["base_generators"])
            and [report["frobenius"], report["genus"]] == invariants
            and report["gaps"] == Q.gaps()
            and Q.has_minimal_generators(report["generators"])
            and set(formulas) == self.expected_formulas(S)
            and all(entry["match"] is True for entry in formulas.values())
            and all(entry["formula"] == entry["oracle"] for entry in formulas.values())
            and isinstance(residual, float)
            and residual <= GENUS_TOLERANCE
        ):
            return False
        oracle_values = {
            "genus-via-roots": Q.genus,
            "dsymmetric-frobenius": Q.frobenius,
            "full-ap-invariants": invariants,
            "full-ap-dk-invariants": invariants,
            "full-ap-generators": report["generators"],
        }
        return all(formulas[name]["oracle"] == oracle_values[name] for name in formulas)


def build(name: str, seed: int, short: bool = False, inject: bool = False) -> list:
    """The workload's invocations, in the order one round runs them.  Why
    each workload is there is in BENCHMARK.json and README.md."""
    grids = SHORT_GRIDS if short else GRIDS

    def sweeps(theorems, parallel=1, sampled=False, **override):
        return [
            VerifyInvocation(t, dict(grids[t], **override), seed, parallel, sampled, inject)
            for t in theorems
        ]

    if name == "ap-sweeps":
        return sweeps(("full-ap", "full-ap-dk", "ap3-even-d"), sampled=True)
    if name == "corpus-sweeps":
        return sweeps((
            "theorem-main", "strazzanti", "ed2-closed-form", "sylvester",
            "quasipoly", "d2-constant", "root-identity",
        ))
    if name == "large-quotients":
        inputs = SHORT_LARGE_INPUTS if short else LARGE_INPUTS
        divisors = range(2, 5) if short else range(2, 13)
        return [QuotientInvocation(g, d, seed) for g in inputs for d in divisors]
    if name == "corpus-sweeps-p2":
        cases = grids["theorem-main"]["cases"] * 3 if short else P2_CASES
        return sweeps(("theorem-main", "strazzanti"), parallel=2, cases=cases)
    raise KeyError(name)


WORKLOADS = ("ap-sweeps", "corpus-sweeps", "large-quotients", "corpus-sweeps-p2")
