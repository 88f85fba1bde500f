"""Mutation checks: small faults that the test suite must catch.

Each row of ``MUTANTS`` is (file, old text, new text, what it breaks); the
old text occurs exactly once in its file, which ``test_mutants.py`` checks
on every run.  Run the checks with

    python tests/mutants.py

Each row is applied to a fresh copy of ``src/``, ``tests/``,
``perfbench/`` (whose imports one test reads) and ``bench.py`` (whose
comparison one test runs) in a temporary directory, where
``pytest -x -q`` must report a failing test.  The test file of the
mutated module (``tests/test_core.py`` for ``core.py``) runs first, where
most rows are killed, and the other files after it; rows run two at a
time where the host has two CPUs.  ``test_mutants.py``
is left out there: in the copy it reads the mutated file, where the old
text no longer occurs, so it would fail for every row.  The unmutated
copy must pass first, so that a failure is the row's doing.  The rows
whose suite still passes are listed as survivors, and the exit code is 1
if any survived.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = (
    (
        "src/numsgps/quotient.py",
        "mask = S._gap_mask[::d]",
        "mask = S._gap_mask[1::d]",
        "the quotient reads the mask from byte 1, so byte x of S/d is byte dx + 1 of S",
    ),
    (
        "src/numsgps/quotient.py",
        "mask[: mask.rfind(1) + 1]",
        "mask[: mask.rfind(1)]",
        "the quotient's mask is cut one byte early, dropping its Frobenius number",
    ),
    (
        "src/numsgps/core.py",
        "            shift *= 2\n",
        "            shift *= 3\n",
        "a sieve pass shifts by g, 3g, 9g, ..., so it misses sums of a generator",
    ),
    (
        "src/numsgps/roots.py",
        "(j == 0) - g + G[j - 1]",
        "(j == 0) - g + (G[j - 1] if j else 0)",
        "the fold does not wrap class d - 1 round to Q_0",
    ),
    (
        "src/numsgps/core.py",
        "dist[step] <= g",
        "dist[step] < g",
        "the round robin keeps a generator that is already a member",
    ),
    (
        "src/numsgps/roots.py",
        "for i in range(1, d):",
        "for i in range(2, d):",
        "the root sum skips the primitive root zeta_d",
    ),
    (
        "src/numsgps/roots.py",
        "value = value * root + q",
        "value = value * root - q",
        "Horner's rule evaluates -P_S",
    ),
    (
        "src/numsgps/roots.py",
        "folded = _fold_mod(S, d)[::-1]",
        "folded = _fold_mod(S, d)",
        "Horner's rule reads the fold lowest coefficient first",
    ),
    (
        "src/numsgps/roots.py",
        "for t0 in range(1, min(dr, top) + 1):",
        "for t0 in range(1, min(dr, top)):",
        "the pair gap count drops the last class of t mod d'",
    ),
    (
        "src/numsgps/roots.py",
        "% dr or dr",
        "% dr",
        "the pair gap count lets j start at 0 where it should start at d'",
    ),
    (
        "src/numsgps/roots.py",
        "q * (q + 1) // 2",
        "q * (q - 1) // 2",
        "the ed2 tail takes off the terms j = dt for t < q only",
    ),
    (
        "src/numsgps/roots.py",
        "den * values[a]",
        "values[a]",
        "the fit compares den times its prediction with the unscaled count",
    ),
    (
        "src/numsgps/roots.py",
        "n * (n - 1) // 2 * (a // m)",
        "n * (n + 1) // 2 * (a // m)",
        "the floor sum adds the whole part of the slope once too often",
    ),
    (
        "src/numsgps/roots.py",
        "a_min + (r - a_min) % d",
        "a_min + r % d",
        "the fit walks class a_min + r where it should walk class r",
    ),
    (
        "src/numsgps/roots.py",
        "math.gcd(k, math.gcd(r, d)) > 1",
        "math.gcd(k, r) > 1",
        "the fit skips a class whose residue shares a prime with k that d does not have",
    ),
    (
        "src/numsgps/roots.py",
        "if scaled != first:",
        "if scaled < first:",
        "the class constant check misses samples whose constant is above the first's",
    ),
    (
        "src/numsgps/core.py",
        "r + n * mask[r::n].count(1)",
        "r + n * mask[r + 1::n].count(1)",
        "the Apery read charges class r with the gaps of class r + 1",
    ),
    (
        "src/numsgps/verify.py",
        "if not cases:",
        "if cases is None:",
        "a grid that holds no case sweeps nothing and exits 0",
    ),
    (
        "src/numsgps/verify.py",
        'record["theorem"] = theorem',
        'record["theorem"] = None',
        "check_case leaves every record without its theorem id",
    ),
    (
        "src/numsgps/core.py",
        "*range(len(mask), n)",
        "*range(len(mask) + 1, n)",
        "the Apery table above F(S) starts one class late, dropping entry F + 1",
    ),
    (
        "src/numsgps/verify.py",
        "cfg.max_value - 1",
        "cfg.max_value - 2",
        "the d2-constant grid drops the modulus max - 1, whose classes can hold two pairs",
    ),
    (
        "src/numsgps/cli.py",
        "                    text = sep\n",
        '                    text = ""\n',
        "a report's gap list runs the last gap of one block into the first of the next",
    ),
    (
        "src/numsgps/cli.py",
        "value[lo : lo + GAP_BLOCK]",
        "value[lo : lo + GAP_BLOCK - 1]",
        "a report's gap list drops a gap on the last position of each mask block",
    ),
    (
        "src/numsgps/core.py",
        "frobenius=frobenius",
        "frobenius=max(apery)",
        "a semigroup stores max(Ap) as its Frobenius number, without taking off m",
    ),
    (
        "src/numsgps/core.py",
        "n * (n - 1)",
        "n * (n + 1)",
        "the genus read off a table takes off (n + 1)/2 where it should take off (n - 1)/2",
    ),
    (
        "src/numsgps/verify.py",
        "350 * cfg.d_max",
        "350 * (cfg.d_max - 1)",
        "the theorem-main cost leaves out the construction of each semigroup",
    ),
    (
        "src/numsgps/verify.py",
        "180 * cfg.d_max",
        "180 * (cfg.d_max - 1)",
        "the strazzanti cost leaves out the construction of each semigroup",
    ),
    (
        "src/numsgps/verify.py",
        "350 * cfg.d_max + cfg.max_gen**2",
        "350 * cfg.d_max + cfg.max_gen",
        "the theorem-main cost holds the mask reads at their size for max_gen 60",
    ),
    (
        "src/numsgps/verify.py",
        "180 * cfg.d_max + cfg.max_gen**2",
        "180 * cfg.d_max + cfg.max_gen",
        "the strazzanti cost holds the mask reads at their size for max_gen 60",
    ),
    (
        "src/numsgps/verify.py",
        "lo * (lo + 1) * (4 * lo - 1) // 6",
        "lo * (lo + 1) * (4 * lo + 1) // 6",
        "the progression charge counts the diagonal a = k of the divisor scan twice",
    ),
    (
        "src/numsgps/verify.py",
        "4 * cfg.k_max * cfg.a_max",
        "4 * cfg.a_max",
        "the ap3-symmetric charge builds one progression per a, not one per k",
    ),
    (
        "src/numsgps/verify.py",
        "per_d * _divisor_scan(cfg)",
        "80 * _divisor_scan(cfg)",
        "every progression id is charged full-ap's rate, refusing ap3 grids it runs well inside the cap",
    ),
    (
        "src/numsgps/core.py",
        "return 2 * S.genus == S.frobenius + 1",
        "return 2 * S.genus >= S.frobenius + 1",
        "symmetry at d = 1 holds for every semigroup, as 2g >= F + 1 always does",
    ),
    (
        "src/numsgps/progressions.py",
        "(s, s + delta) if s == 2 else",
        "(s, s + delta) if s == 0 else",
        "an odd divisor at s = 2 keeps s + 2 delta, a multiple of s",
    ),
    (
        "src/numsgps/progressions.py",
        "return (1,) if s == 1 else (s, k + s * t)",
        "return (s, k + s * t)",
        "an even divisor at s = 1 keeps k + st, although S/d is N = <1>",
    ),
    (
        "src/numsgps/verify.py",
        "min(cfg.parallel, os.cpu_count() or 1, len(runs))",
        "min(cfg.parallel, len(runs))",
        "a sweep forks --parallel workers however few CPUs the host has",
    ),
    (
        "src/numsgps/verify.py",
        "size = min(2 * size, RUN)",
        "size = 2 * size",
        "runs double without a cap, so a long grid's last runs hold most of its cases",
    ),
    (
        "src/numsgps/verify.py",
        "            os.waitpid(pid, 0)\n",
        "",
        "a finished sweep leaves its workers unreaped, as zombies",
    ),
    (
        "bench.py",
        'if figures.get(f"{m}_q1", math.inf) <= before.get(f"{m}_q3", -math.inf):',
        "if False:",
        "bench.py --compare names a slower median even inside the old run's spread",
    ),
    (
        "src/numsgps/core.py",
        "nbits // 64 + 8) / 6",
        "nbits // 64 + 8) / 3",
        "a sieve pass is priced at twice its steps, so the round robin takes its inputs",
    ),
    (
        "src/numsgps/core.py",
        "if self.frobenius > MAX_FROBENIUS:",
        "if self.frobenius > MAX_FROBENIUS + 1:",
        "a gap mask of MAX_FROBENIUS + 2 bytes, for F = MAX_FROBENIUS + 1, is built",
    ),
    (
        "src/numsgps/core.py",
        "if values[0] > MAX_FROBENIUS:",
        "if values[0] > MAX_FROBENIUS + 1:",
        "an Apery table of MAX_FROBENIUS + 1 classes is built from the generators",
    ),
    (
        "src/numsgps/core.py",
        "longest = MAX_FROBENIUS + mult + 1",
        "longest = 2 * MAX_FROBENIUS + mult + 1",
        "a sieve pass runs on up to 2 MAX_FROBENIUS + m + 1 bits",
    ),
    (
        "src/numsgps/core.py",
        "    if work > MAX_ROOT_WORK:\n",
        "    if work > 2 * MAX_ROOT_WORK:\n",
        "every work guard admits twice the steps of the cap",
    ),
    (
        "src/numsgps/core.py",
        "F // d + 1",
        "F // d",
        "the d-symmetry test miscounts the multiples of d in [0, F], so no S is d-symmetric",
    ),
    (
        "src/numsgps/core.py",
        "mask[F % d :: d]",
        "mask[(F + 1) % d :: d]",
        "the d-symmetry test counts the gaps of class F + 1 mod d, not those of F - n",
    ),
    (
        "src/numsgps/cli.py",
        'f"{i:03d}"',
        "str(i)",
        "a gap list renders 1000x + i unpadded, so 1007 comes out as 17",
    ),
    (
        "src/numsgps/verify.py",
        "lo, size = 0, 1",
        "lo, size = 0, RUN",
        "the first run holds RUN cases, so the first record waits for them",
    ),
    (
        "src/numsgps/verify.py",
        "        fault = exc\n",
        "        records, fault = [], exc\n",
        "a worker drops the text of the cases before a failing one in its run",
    ),
)


def run(row: int | None) -> tuple[str | None, float]:
    """(the first failing test or None, seconds) for one row, or for none,
    applied to a copy of the repository."""
    with tempfile.TemporaryDirectory() as tmp:
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / part, Path(tmp) / part)
        shutil.copy(ROOT / "bench.py", tmp)
        if row is not None:
            path, old, new, _ = MUTANTS[row]
            target = Path(tmp) / path
            text = target.read_text()
            if text.count(old) != 1:
                raise SystemExit(f"row {row}: old text is not unique in {path}")
            target.write_text(text.replace(old, new))
        # the mutated module's own test file first, then the rest in name order
        own = None if row is None else f"tests/test_{Path(MUTANTS[row][0]).stem}.py"
        files = sorted(f"tests/{path.name}" for path in (ROOT / "tests").glob("test_*.py"))
        files.remove("tests/test_mutants.py")
        files.sort(key=lambda name: name != own)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *files],
            cwd=tmp,
            env={**os.environ, "PYTHONPATH": str(Path(tmp) / "src")},
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        if proc.returncode not in (0, 1):  # 1: a test failed; anything else: the run broke
            raise SystemExit(f"row {row}: pytest exited {proc.returncode}\n{proc.stdout}")
        seconds = time.perf_counter() - start
        if proc.returncode == 0:
            return None, seconds
        lines = proc.stdout.splitlines()
        failed = [line.split()[1] for line in lines if line.startswith(("FAILED ", "ERROR "))]
        return (failed[0] if failed else "pytest exit 1"), seconds


def main() -> int:
    failed, seconds = run(None)
    if failed:
        raise SystemExit("the unmutated suite fails; no row can be judged")
    print(f"unmutated suite passes in {seconds:.1f} s")
    survivors = []
    # each row is its own pytest process, so two run at once on two CPUs
    with ThreadPoolExecutor(min(2, os.cpu_count() or 1)) as pool:
        for row, (killed, seconds) in enumerate(pool.map(run, range(len(MUTANTS)))):
            verdict = f"killed by {killed}" if killed else "SURVIVED"
            print(f"{row}: {verdict} in {seconds:.1f} s: {MUTANTS[row][3]}", flush=True)
            if not killed:
                survivors.append(row)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} killed; survivors: {survivors or 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
