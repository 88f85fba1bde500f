"""Wall time, CPU and peak RSS of numsgps commands, each in a fresh process.

    python3 bench.py [--out BENCH.json] [--src SRC] [--baseline OLD.json]
    python3 bench.py --compare OLD.json NEW.json

Each line of the result is one command: `python -c pass`, `import
numsgps.cli`, every `verify <id>` at its default grid with `--parallel` 1
and 2, and the json `quotient` and `invariants` reports of <3001, 4007,
5003> at d = 2.  Each run is started through perfbench/launch.py, so its
CPU and peak RSS are its own and not the high-water mark of this process
or of another child.  Each of the REPEAT rounds runs every line once, in
order; a line's figures are the medians over the rounds, each with its
first and third quartile (``wall_s_q1``, ``wall_s_q3``, ...).  Bytecode is
compiled before the first round, so no run pays for compiling the sources.

With --baseline, the result also keeps the baseline's lines, whole, under
"before".  --compare names every figure of NEW whose median is more than
10% worse than in OLD and whose first quartile is above OLD's third, so
that host noise within the spread of either run is not named; a file
without quartiles is compared by medians alone.  It exits 1 if it names
one.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent
LAUNCH = ROOT / "perfbench" / "launch.py"
METRICS = ("wall_s", "cpu_s", "peak_rss_mb")
REPEAT = 5
WORSE = 1.10
ENTRY = "from numsgps.cli import entry; entry()"
REPORT_GENS = "3001,4007,5003"


def command_lines(env) -> dict[str, list[str]]:
    """Each line's name and the command it runs."""
    ids = subprocess.run(
        [sys.executable, "-c", "from numsgps.verify import THEOREM_IDS; print(*THEOREM_IDS)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    lines = {
        "python -c pass": [sys.executable, "-c", "pass"],
        "import numsgps.cli": [sys.executable, "-c", "import numsgps.cli"],
    }
    for parallel in (1, 2):
        for theorem in ids:
            lines[f"verify {theorem} --parallel {parallel}"] = [
                sys.executable, "-c", ENTRY, "verify", theorem,
                "--parallel", str(parallel), "--format", "json",
            ]
    for args in (["quotient", "--gens", REPORT_GENS, "--d", "2"], ["invariants", "--gens", REPORT_GENS]):
        lines[" ".join(args) + " --format json"] = [sys.executable, "-c", ENTRY, *args, "--format", "json"]
    return lines


def run_once(command: list[str], env) -> dict[str, float]:
    """One run of command, its output discarded, through launch.py."""
    report_r, report_w = os.pipe()
    with open(report_r, "rb") as report:
        proc = subprocess.run(
            [sys.executable, str(LAUNCH), str(report_w), *command],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, pass_fds=(report_w,),
        )
        os.close(report_w)
        used = json.loads(report.read() or b"null")
    if used is None or used["returncode"] != 0:
        raise SystemExit(f"{' '.join(command[3:])} failed: {proc.stderr.decode()[-300:]}")
    return {
        "wall_s": used["end"] - used["start"],
        "cpu_s": used["cpu_s"],
        "peak_rss_mb": used["maxrss_kib"] / 1024,
    }


def measure(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    env.update(PYTHONPATH=str(src), PYTHONHASHSEED="0")
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(src)], env=env, check=True)
    lines = command_lines(env)
    runs = {name: [] for name in lines}
    for _ in range(REPEAT):
        for name, command in lines.items():
            runs[name].append(run_once(command, env))
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "repeat": REPEAT,
        "lines": {name: summary(rs) for name, rs in runs.items()},
    }


def summary(rounds: list[dict[str, float]]) -> dict[str, float]:
    """Each metric's median over the rounds, with its quartiles."""
    figures = {}
    for m in METRICS:
        q1, median, q3 = statistics.quantiles([r[m] for r in rounds], n=4)
        figures.update({m: round(median, 4), f"{m}_q1": round(q1, 4), f"{m}_q3": round(q3, 4)})
    return figures


def worse(old: dict, new: dict) -> list[str]:
    """Every figure of a line in both results whose median is more than 10%
    worse in new, less those whose new q1 is not above old's q3."""
    found = []
    for name, figures in new["lines"].items():
        before = old["lines"].get(name)
        for m in METRICS:
            if not before or figures[m] <= before[m] * WORSE:
                continue
            if figures.get(f"{m}_q1", math.inf) <= before.get(f"{m}_q3", -math.inf):
                continue  # the two runs' spreads overlap: noise, not change
            found.append(f"{name}: {m} {before[m]} -> {figures[m]} (+{figures[m] / before[m] - 1:.0%})")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=None, help="write the result here as well as to stdout")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the sources to run (default: ./src)")
    parser.add_argument("--baseline", type=Path, default=None, help="a result to keep the lines of")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (json.loads(path.read_text()) for path in args.compare)
        found = worse(old, new)
        code, text = (1 if found else 0), "\n".join(found or ["no line is more than 10% worse"]) + "\n"
    else:
        result = measure(args.src.resolve())
        if args.baseline:
            result["before"] = json.loads(args.baseline.read_text())["lines"]
        code, text = 0, json.dumps(result, indent=1, sort_keys=True) + "\n"
        if args.out:
            args.out.write_text(text)
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (bench.py ... | head): send what stdout still
        # buffers, and its flush at exit, to the null device, and keep the code
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
