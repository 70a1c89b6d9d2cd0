"""The benchmark's own self-test, run as part of the test suite.

A refactor that drops a traced name or changes the pinned per-step counts
of the benchmark fails here, not only when the benchmark runs.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "perfbench" / "selftest.py"


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(SELFTEST)], capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-4000:]
