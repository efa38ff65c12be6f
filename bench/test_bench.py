"""Smoke test of the benchmark itself; run with ``python3 -m pytest bench``."""

import subprocess
import sys
from pathlib import Path


def test_smoke_prints_every_named_metric_with_its_unit():
    run = Path(__file__).with_name("run.py")
    done = subprocess.run([sys.executable, str(run), "--smoke"], capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
