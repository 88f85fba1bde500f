"""Benchmark for numsgps: verify sweeps and large quotients, end to end.

Usage, from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload ap-sweeps --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run starts the program as separate processes, one
at a time, repeating whole rounds of the workload's invocations until the
next round would end after ``--seconds``.  Each end-to-end metric is the
median over the rounds.  With ``--trace 1`` the run instead calls the
program's modules in this process and reports per-layer metrics (see
layers.py).  The last line of standard output is the result as one JSON
object; the result, the environment and the per-round figures are also
written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
LAUNCH = HERE / "launch.py"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_SAMPLES = 15
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import numsgps.cli; "
    "print(time.perf_counter() - t)"
)
ENTRY = "from numsgps.cli import entry; entry()"  # what the console script runs


def program_env() -> dict[str, str]:
    """The environment of every program process: the checkout's sources,
    a fixed hash seed, and no NSG_PARALLEL (--parallel is always given)."""
    env = {k: v for k, v in os.environ.items() if k not in ("NSG_PARALLEL", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(env) -> float:
    """Median time for a fresh interpreter to import numsgps.cli."""
    samples = []
    for n in range(SETUP_SAMPLES + 1):  # the first one also writes bytecode
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise SystemExit(f"cannot import numsgps.cli from {SRC}:\n{proc.stderr}")
        if n:
            samples.append(float(proc.stdout))
    return statistics.median(samples)


def run_program(args, env) -> dict:
    """Run one invocation to its end, through launch.py; its wall time, CPU
    (with reaped pool workers), peak RSS, time to the first stdout line,
    exit code and output."""
    report_r, report_w = os.pipe()
    with open(report_r, "rb") as report, subprocess.Popen(
        [sys.executable, str(LAUNCH), str(report_w), sys.executable, "-c", ENTRY, *args],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        pass_fds=(report_w,),
    ) as proc:
        os.close(report_w)
        err = []
        drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        drain.start()
        chunks, first_line = [], None
        fd = proc.stdout.fileno()
        while chunk := os.read(fd, 1 << 16):
            if first_line is None and b"\n" in chunk:
                first_line = time.monotonic()
            chunks.append(chunk)
        drain.join()
        used = json.loads(report.read() or b"null")
    if used is None:
        raise SystemExit(f"launch.py failed (exit {proc.returncode}): {err[0][-300:]!r}")
    wall = used["end"] - used["start"]
    return {
        "wall_s": wall,
        "cpu_s": used["cpu_s"],
        "peak_rss_mb": used["maxrss_kib"] / 1024,
        "first_record_s": wall if first_line is None else first_line - used["start"],
        "returncode": used["returncode"],
        "stdout": b"".join(chunks).decode(),
        "stderr": err[0].decode(errors="replace"),
    }


def run_round(invocations, env) -> dict:
    """Every invocation of the workload once, each output checked."""
    figures = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "first_record_s": 0.0}
    attempted = failed = 0
    problems, errors = [], []  # errors: invocations whose operations all failed
    for inv in invocations:
        run = run_program(inv.argv(), env)
        figures["wall_s"] += run["wall_s"]
        figures["cpu_s"] += run["cpu_s"]
        figures["peak_rss_mb"] = max(figures["peak_rss_mb"], run["peak_rss_mb"])
        # summed: the first invocation alone is one process, too noisy to compare
        figures["first_record_s"] += run["first_record_s"]
        outcome = inv.check(run["stdout"], run["returncode"])
        attempted += outcome.attempted
        failed += outcome.failed
        problems += outcome.problems
        if run["returncode"] != 0:
            errors.append(f"{inv.name}: exit {run['returncode']}: {run['stderr'][-300:]}")
    return {
        "figures": figures, "attempted": attempted, "failed": failed,
        "problems": problems, "errors": errors,
    }


def measure(invocations, seconds: float) -> tuple[dict, dict]:
    env = program_env()
    setup_s = measure_setup(env)
    start = time.perf_counter()
    rounds = []
    while True:
        began = time.perf_counter()
        rounds.append(run_round(invocations, env))
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
    for name, unit in (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"), ("first_record_s", "s")):
        metrics[name] = {
            "value": statistics.median(r["figures"][name] for r in rounds),
            "unit": unit,
        }
    problems = [p for r in rounds for p in r["problems"]]
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    detail = {
        "rounds": [r["figures"] for r in rounds],
        "problems": problems[:50],
        "errors": [e for r in rounds for e in r["errors"]][:50],
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # small grids, for the benchmark's own tests
    parser.add_argument("--short", action="store_true", help=argparse.SUPPRESS)
    # passed to every verify invocation, to show that failures are counted
    parser.add_argument("--inject-offby1", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "numsgps" / "cli.py").is_file():
        print(f"no numsgps sources under {SRC}", file=sys.stderr)
        return 2
    invocations = workloads.build(args.workload, args.seed, args.short, args.inject_offby1)
    began = time.perf_counter()
    if args.trace:
        import layers

        result, detail = layers.run(invocations, SRC)
    else:
        result, detail = measure(invocations, args.seconds)
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "short": args.short,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "run_s": time.perf_counter() - began,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}{'-short' if args.short else ''}"
    spans = detail.pop("spans", None)
    if spans is not None:
        with open(OUT / f"trace-{stem}.json", "w") as fh:
            json.dump({"env": env, "spans": spans}, fh)
    with open(OUT / f"result-{stem}.json", "w") as fh:
        json.dump({"env": env, "result": result, **detail}, fh, indent=1)
    for line in (detail.get("problems", []) + detail.get("errors", []))[:10]:
        print(f"# {line}", file=sys.stderr)
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
