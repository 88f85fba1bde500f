"""bench.py --compare: a line is named only when it moved past the noise."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench.py"
_spec = importlib.util.spec_from_file_location("bench", BENCH)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _result(walls):
    rounds = [{"wall_s": w, "cpu_s": 1.0, "peak_rss_mb": 10.0} for w in walls]
    return {"lines": {"verify x": bench.summary(rounds)}}


def test_compare_names_a_line_only_when_its_spread_clears_the_old_one():
    old = _result((1.0, 1.1, 1.2, 1.3, 1.4))  # median 1.2, q3 1.35
    assert old["lines"]["verify x"]["wall_s_q1"] == 1.05
    noisy = _result((1.1, 1.3, 1.4, 1.5, 1.6))  # median 1.4, 17% worse, but q1 1.2
    moved = _result((1.5, 1.6, 1.7, 1.8, 1.9))  # median 1.7, q1 1.55
    assert bench.worse(old, noisy) == []
    assert bench.worse(old, moved) == ["verify x: wall_s 1.2 -> 1.7 (+42%)"]
    # a file without quartiles, such as BENCH_21.json, is compared by medians
    medians = {"lines": {"verify x": {m: old["lines"]["verify x"][m] for m in bench.METRICS}}}
    assert bench.worse(medians, noisy) == ["verify x: wall_s 1.2 -> 1.4 (+17%)"]
    assert bench.worse(old, old) == []


def test_compare_ends_quietly_with_its_exit_code_when_its_reader_has_gone(tmp_path):
    old, moved = tmp_path / "old.json", tmp_path / "moved.json"
    old.write_text(json.dumps(_result((1.0, 1.1, 1.2, 1.3, 1.4))))
    moved.write_text(json.dumps(_result((1.5, 1.6, 1.7, 1.8, 1.9))))
    for new, code in ((old, 0), (moved, 1)):
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the first write
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH), "--compare", str(old), str(new)],
                stdout=write, stderr=subprocess.PIPE, timeout=60,
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (code, b""), new
