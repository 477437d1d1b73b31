"""The benchmark's own smoke check passes on this source tree.

``benchmarks/`` reads names that no verb of ``src/`` needs: the ``Mat``
path, the aliases bound with ``# noqa: F401``, ``D3_OVERFLOW_CAP`` and the
``canonical_rep`` calls of the d=7 cross-check, which the traced orbit
ratio divides by. A change that drops one of them breaks the benchmark
while every other test still passes, so the smoke check runs here too."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_check_passes():
    done = subprocess.run([sys.executable, "benchmarks/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "smoke ok"
