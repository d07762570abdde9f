"""Smoke test of scripts/training_fingerprint.py, which imports tests/conftest.py
and much of the public API, so a change to either can break it."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# 2 config files x 5 sections, 5 training runs, 4 pruned models, the SHA-256
# line, the scale-sensitivity line, 2 modes x 4 plans, 2 infeasible plans,
# then the CLI artifacts: the dataset, 3 checkpoints with their history or
# surgery log, 2 inspect outputs, the teacher checkpoint and history, 4 eval
# reports and the report CSV and JSON, then the manifests of the 12 commands.
FINGERPRINT_LINES = 2 * 5 + 5 + 4 + 1 + 1 + 2 * 4 + 2 + (1 + 3 * 2 + 2 + 2 + 4 + 2) + 12


def test_training_fingerprint_runs():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "training_fingerprint.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == FINGERPRINT_LINES
