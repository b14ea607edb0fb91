"""The benchmark's smoke mode runs every workload at tiny size and checks
that each metric named in BENCHMARK.json is printed with its unit.  It
checks the schema only; there is no timing bound."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip().splitlines()[-1] == "smoke: ok"
