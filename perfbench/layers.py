"""Traced run: one round of a workload, called module by module in process.

The program is imported from the checkout's src.  For every invocation of
the round the run records a span around each call into a public function
of ``core``, ``quotient``, ``roots``, ``progressions``, ``verify`` and
``cli``, on the same inputs the invocation gets:

1. replay: per case, the layer calls the case makes (construction, the
   quotient, root evaluation, closed forms), each called directly;
2. ``verify.build_cases``, then ``verify.check_case`` on every case;
3. ``verify.run_sweep`` on the whole grid;
4. ``cli.main`` with the invocation's arguments, output kept in memory.

A span is (id, name, start, end, parent id); spans stay in memory until
the run ends.  ``cli.emit_s`` is the ``cli.main`` time minus the time of
the layer calls behind it: ``run_sweep`` for a sweep, the replayed calls
for a quotient query.  Peak allocations come from a pass of their own under
tracemalloc, on the workload's largest input, so that allocation tracing
does not slow the timed passes.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import statistics
import sys
import time
import tracemalloc

import workloads

POOL_REPEATS = 5

PER_LAYER = (
    ("core.from_generators_s", "s"),
    ("core.polynomial_coeffs_s", "s"),
    ("core.peak_alloc_mib", "MiB"),
    ("quotient.quotient_s", "s"),
    ("quotient.peak_alloc_mib", "MiB"),
    ("quotient.frobenius_dsymmetric_s", "s"),
    ("roots.genus_via_roots_s", "s"),
    ("roots.closed_forms_s", "s"),
    ("roots.worst_residual", "1"),
    ("progressions.closed_forms_s", "s"),
    ("verify.build_cases_s", "s"),
    ("verify.check_case_s", "s"),
    ("verify.check_case_p50_ms", "ms"),
    ("verify.check_case_p99_ms", "ms"),
    ("verify.run_sweep_s", "s"),
    ("verify.pool_roundtrip_s", "s"),
    ("cli.emit_s", "s"),
)
SPAN_METRICS = {
    "core.from_generators_s": "core.from_generators",
    "core.polynomial_coeffs_s": "core.polynomial_coeffs",
    "quotient.quotient_s": "quotient.quotient",
    "quotient.frobenius_dsymmetric_s": "quotient.frobenius_dsymmetric",
    "roots.genus_via_roots_s": "roots.genus_via_roots",
    "roots.closed_forms_s": "roots.closed_forms",
    "progressions.closed_forms_s": "progressions.closed_forms",
    "verify.build_cases_s": "verify.build_cases",
    "verify.check_case_s": "verify.check_case",
    "verify.run_sweep_s": "verify.run_sweep",
}
# verify's SweepConfig field for each grid flag the benchmark passes
CONFIG_FIELD = {"max": "max_value"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span named ``name``."""
        span = [len(self.spans), name, 0.0, 0.0, self.stack[-1] if self.stack else None]
        self.spans.append(span)
        self.stack.append(span[0])
        span[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self.stack.pop()
            self.last_s = span[3] - span[2]  # of the outermost call that returned

    def durations(self, name: str) -> list[float]:
        return [s[3] - s[2] for s in self.spans if s[1] == name]


class Program:
    """The program's modules, imported from a source tree."""

    def __init__(self, src):
        sys.path.insert(0, str(src))
        # by module path: the package re-exports a function named quotient
        for name in ("cli", "core", "progressions", "quotient", "roots", "verify"):
            setattr(self, name, importlib.import_module(f"numsgps.{name}"))


def _case_semigroup(theorem: str, p: dict) -> tuple[int, ...]:
    if "gens" in p:
        return tuple(p["gens"])
    if theorem in ("ed2-closed-form", "sylvester"):
        return (p["a"], p["b"])
    if theorem == "ap3-even-d":
        return (p["a"], p["a"] + p["k"], p["a"] + 2 * p["k"])
    return workloads.progression(p["a"], p["k"])


def replay_case(t: Tracer, prog: Program, theorem: str, p: dict, built: dict) -> None:
    """The layer calls one sweep case makes, each called directly.  ``built``
    keeps the last semigroup, as verify's construction cache would."""
    core, quo, roots, prog_ap = prog.core, prog.quotient, prog.roots, prog.progressions
    tol = workloads.GENUS_TOLERANCE

    def semigroup():
        gens = _case_semigroup(theorem, p)
        if built.get("gens") != gens:
            built["gens"], built["S"] = gens, t.call("core.from_generators", core.from_generators, gens)
        return built["S"]

    if theorem == "theorem-main":
        S = semigroup()
        if built.get("coeffs") is not S:
            built["coeffs"] = S
            t.call("core.polynomial_coeffs", core.semigroup_polynomial_coeffs, S)
        t.call("roots.genus_via_roots", roots.genus_quotient_via_roots, S, p["d"], tol)
        t.call("quotient.quotient", quo.quotient, S, p["d"])
    elif theorem == "strazzanti":
        S = semigroup()
        if t.call("quotient.frobenius_dsymmetric", core.is_d_symmetric, S, p["d"]):
            t.call("quotient.frobenius_dsymmetric", quo.frobenius_quotient_dsymmetric, S, p["d"])
            t.call("quotient.quotient", quo.quotient, S, p["d"])
    elif theorem == "ed2-closed-form":
        a, b, d = p["a"], p["b"], p["d"]
        if math.gcd(a, d) == 1 and math.gcd(b, d) == 1:
            t.call("roots.closed_forms", roots.genus_quotient_ed2_closed_form, a, b, d)
            t.call("quotient.quotient", quo.quotient, semigroup(), d)
    elif theorem == "sylvester":
        t.call("roots.closed_forms", roots.sylvester_invariants, p["a"], p["b"])
        semigroup()
    elif theorem == "d2-constant":
        pairs = [tuple(s) for s in p["samples"]]
        t.call("roots.closed_forms", roots.extract_cabd_constant, p["a_class"], p["b_class"], p["d"], pairs)
    elif theorem == "quasipoly":
        a_max = built["grid"]["a_max"]
        t.call("roots.closed_forms", roots.fit_quasipolynomial, p["k"], p["d"], (1, a_max))
    elif theorem == "root-identity":
        t.call("roots.closed_forms", roots.root_of_unity_identity_check, p["d"])
    elif theorem == "ap3-even-d":
        a, k, d = p["a"], p["k"], p["d"]
        S = semigroup()
        spec = prog_ap.Ap3Spec(a, k, d)
        t.call("progressions.closed_forms", prog_ap.ap3_quotient_generators, spec)
        Q = t.call("quotient.quotient", quo.quotient, S, d)
        t.call("core.is_d_symmetric", core.is_d_symmetric, Q, 1)
        if d % 2 == 0 and d >= 4:
            t.call("progressions.closed_forms", prog_ap.ap3_even_d_invariants, spec)
    elif theorem == "full-ap":
        a, k, d = p["a"], p["k"], p["d"]
        if a // d >= 2:
            S = semigroup()
            t.call("quotient.quotient", quo.quotient, S, d)
            spec = prog_ap.FullApSpec(a, k)
            t.call("progressions.closed_forms", prog_ap.full_ap_quotient, spec, d)
            t.call("progressions.closed_forms", prog_ap.full_ap_divisor_identity, spec, d)
    elif theorem == "full-ap-dk":
        a, k, d = p["a"], p["k"], p["d"]
        S = semigroup()
        t.call("quotient.quotient", quo.quotient, S, d)
        spec = prog_ap.FullApSpec(a, k)
        t.call("progressions.closed_forms", prog_ap.full_ap_d_divides_k, spec, d)
    else:
        raise KeyError(theorem)


def replay_query(t: Tracer, prog: Program, inv) -> None:
    """The layer calls of one ``quotient`` query, each called directly."""
    core, quo, roots, prog_ap = prog.core, prog.quotient, prog.roots, prog.progressions
    gens, d = inv.gens, inv.d
    S = t.call("core.from_generators", core.from_generators, gens)
    t.call("core.polynomial_coeffs", core.semigroup_polynomial_coeffs, S)
    t.call("roots.genus_via_roots", roots.genus_quotient_via_roots, S, d, workloads.GENUS_TOLERANCE)
    t.call("quotient.quotient", quo.quotient, S, d)
    if t.call("quotient.frobenius_dsymmetric", core.is_d_symmetric, S, d):
        t.call("quotient.frobenius_dsymmetric", quo.frobenius_quotient_dsymmetric, S, d)
    full = workloads.progression_params(gens)
    if full:
        a, k = full
        spec = prog_ap.FullApSpec(a, k)
        if a % d == 0 and a // d >= 2:
            t.call("progressions.closed_forms", prog_ap.full_ap_quotient, spec, d)
            t.call("progressions.closed_forms", prog_ap.full_ap_divisor_identity, spec, d)
        if k % d == 0:
            t.call("progressions.closed_forms", prog_ap.full_ap_d_divides_k, spec, d)


def run_cli(t: Tracer, prog: Program, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = t.call("cli.main", prog.cli.main, argv)
    return code, out.getvalue()


def sweep_config(prog: Program, inv, **override):
    fields = {CONFIG_FIELD.get(k, k): v for k, v in inv.grid.items()}
    fields.update(override)
    return prog.verify.SweepConfig(theorem=inv.theorem, seed=inv.seed, parallel=inv.parallel, **fields)


def peak_allocations(prog: Program, invocations) -> tuple[float, float]:
    """Peak MiB allocated by construction (with the P_S coefficients) and by
    the quotient, on the workload's largest semigroup that a case divides.
    Size is judged by the sieve bound min(gens) * max(gens)."""
    candidates = []
    for inv in invocations:
        if isinstance(inv, workloads.QuotientInvocation):
            candidates.append((inv.gens, inv.d))
        elif inv.theorem not in ("sylvester", "quasipoly", "d2-constant", "root-identity"):
            candidates += [(_case_semigroup(inv.theorem, p), p["d"]) for p in inv.inputs]
    if not candidates:
        return 0.0, 0.0
    gens, d = max(candidates, key=lambda c: (c[0][0] * c[0][-1], c[1] >= 2, -c[1]))
    tracemalloc.start()
    try:
        S = prog.core.from_generators(gens)
        prog.core.semigroup_polynomial_coeffs(S)
        core_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        prog.quotient.quotient(S, d)
        quotient_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return core_peak / 2**20, quotient_peak / 2**20


def run(invocations, src) -> tuple[dict, dict]:
    prog = Program(src)
    t = Tracer()
    attempted = failed = 0
    problems, residuals = [], []
    emit = 0.0
    for inv in invocations:
        if isinstance(inv, workloads.QuotientInvocation):
            t.call("replay", replay_query, t, prog, inv)
            layer_s = t.last_s
        else:
            built = {"grid": inv.grid}
            t.call("replay", lambda: [replay_case(t, prog, inv.theorem, p, built) for p in inv.inputs])
            verify = prog.verify
            cfg = sweep_config(prog, inv).resolved()
            cases = t.call("verify.build_cases", verify.build_cases, cfg)
            for case in cases:
                t.call("verify.check_case", verify.check_case, inv.theorem, case, cfg.tolerance, False)
            t.call("verify.run_sweep", verify.run_sweep, cfg)
            layer_s = t.last_s
        code, stdout = run_cli(t, prog, inv.argv())
        emit += t.last_s - layer_s
        outcome = inv.check(stdout, code)
        attempted += outcome.attempted
        failed += outcome.failed
        problems += outcome.problems
        residuals += outcome.residuals

    # two cases through a two-worker pool: start-up, pickling and teardown
    probe = prog.verify.SweepConfig("theorem-main", seed=0, cases=1, max_gen=9, d_max=3, parallel=2)
    for _ in range(POOL_REPEATS):
        t.call("verify.pool_roundtrip", prog.verify.run_sweep, probe)

    core_peak, quotient_peak = peak_allocations(prog, invocations)
    check_ms = [1000 * s for s in t.durations("verify.check_case")]
    values = {name: sum(t.durations(span)) for name, span in SPAN_METRICS.items()}
    values.update({
        "core.peak_alloc_mib": core_peak,
        "quotient.peak_alloc_mib": quotient_peak,
        "roots.worst_residual": max(residuals, default=0.0),
        "verify.check_case_p50_ms": _quantile(check_ms, 0.50),
        "verify.check_case_p99_ms": _quantile(check_ms, 0.99),
        "verify.pool_roundtrip_s": statistics.median(t.durations("verify.pool_roundtrip")),
        "cli.emit_s": emit,
    })
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER},
    }
    detail = {
        "problems": problems[:50],
        "cli_main_s": sum(t.durations("cli.main")),
        "spans": {"fields": ["id", "name", "start", "end", "parent"], "rows": t.spans},
    }
    return result, detail


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 when the workload made no such call."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
