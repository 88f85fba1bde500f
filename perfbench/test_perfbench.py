"""The benchmark's own tests, on small grids (``--short``).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from oracle import Semigroup  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    """Run the benchmark; (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", "--short", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.splitlines()


def result(*args):
    code, lines = bench(*args)
    assert code == 0, lines
    return json.loads(lines[-1])


class OracleTest(unittest.TestCase):
    def test_sylvester(self):
        for a in range(1, 16):
            for b in range(a, 30):
                if math.gcd(a, b) == 1:
                    S = Semigroup((a, b))
                    self.assertEqual(S.frobenius, a * b - a - b)
                    self.assertEqual(S.genus, (a - 1) * (b - 1) // 2)

    def test_six_seven_eight(self):
        S = Semigroup((6, 7, 8))
        self.assertEqual((S.frobenius, S.genus), (17, 9))
        Q = S.quotient(3)  # <2, 5>
        self.assertEqual((Q.frobenius, Q.genus, Q.gaps()), (3, 2, [1, 3]))
        self.assertTrue(Q.has_minimal_generators([2, 5]))
        self.assertFalse(Q.has_minimal_generators([2, 5, 7]))
        self.assertFalse(Q.has_minimal_generators([2, 7]))
        self.assertTrue(S.quotient(6).has_minimal_generators([1]))

    def test_symmetry(self):
        # 1-symmetric is symmetric: 2g = F + 1
        for gens, symmetric in (((3, 5), True), ((6, 7, 8), True), ((3, 4, 5), False), ((5, 7, 9), False)):
            S = Semigroup(gens)
            self.assertEqual(S.is_d_symmetric(1), symmetric, gens)
            self.assertEqual(2 * S.genus == S.frobenius + 1, symmetric, gens)


class CheckTest(unittest.TestCase):
    """A record that disagrees with the oracle, or is missing, is a failed
    operation; a record that belongs to no case makes the run incorrect."""

    @classmethod
    def setUpClass(cls):
        cls.inv = workloads.VerifyInvocation(
            "sylvester", workloads.SHORT_GRIDS["sylvester"], 5, 1, False
        )
        out = run.run_program(cls.inv.argv(), run.program_env())
        assert out["returncode"] == 0, out["stderr"]
        cls.lines = out["stdout"].splitlines()

    def check(self, lines):
        return self.inv.check("\n".join(lines), 0)

    def test_clean(self):
        outcome = self.check(self.lines)
        self.assertEqual((outcome.failed, outcome.problems), (0, []))
        self.assertEqual(outcome.attempted, len(self.lines))

    def test_wrong_value(self):
        record = json.loads(self.lines[-1])
        record["formula"][1] += 1
        record["oracle"][1] += 1  # consistent with itself, not with the oracle
        outcome = self.check(self.lines[:-1] + [json.dumps(record)])
        self.assertEqual((outcome.failed, outcome.problems), (1, []))

    def test_missing_and_unknown_records(self):
        self.assertEqual(self.check(self.lines[1:]).failed, 1)
        record = json.loads(self.lines[0])
        record["params"]["a"] = 1000
        self.assertTrue(self.check(self.lines + [json.dumps(record)]).problems)

    def test_nonzero_exit_fails_every_case(self):
        outcome = self.inv.check("\n".join(self.lines), 1)
        self.assertEqual(outcome.failed, outcome.attempted)


class RunTest(unittest.TestCase):
    def test_clean_runs(self):
        names = {m["name"] for m in SPEC["end_to_end"]}
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                r = result("--workload", workload, "--seed", "7")
                self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(r["correct"])
                self.assertGreater(r["attempted"], 0)
                self.assertEqual(r["failed"], 0)
                self.assertEqual(set(r["metrics"]), names)
                self.assertTrue(all(m["value"] > 0 for m in r["metrics"].values()))

    def test_injected_fault_is_counted(self):
        r = result("--workload", "corpus-sweeps-p2", "--seed", "7", "--inject-offby1")
        self.assertTrue(r["correct"])
        self.assertGreater(r["attempted"], 0)
        self.assertEqual(r["failed"], r["attempted"])

    def test_trace_reports_every_layer_metric(self):
        r = result("--workload", "corpus-sweeps", "--seed", "7", "--trace", "1")
        self.assertEqual((r["correct"], r["failed"]), (True, 0))
        self.assertEqual(set(r["metrics"]), {m["name"] for m in SPEC["per_layer"]})
        trace = json.loads((HERE / "out" / "trace-corpus-sweeps-s7-t1-short.json").read_text())
        self.assertTrue(trace["spans"]["rows"])

    def test_without_sources_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            code, lines = bench("--workload", "ap-sweeps", "--seed", "1", cwd=tmp)
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
