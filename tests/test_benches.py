"""The layer benchmarks under benches/ still run against the current API.

They are not named `test_*.py`, so the tier-1 run never collects them on
its own; this runs each benchmark once, untimed, in a subprocess.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_layer_benches_run():
    pytest.importorskip("pytest_benchmark")
    benches = sorted(str(p) for p in (ROOT / "benches").glob("bench_*.py"))
    assert benches
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--benchmark-disable", *benches],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
