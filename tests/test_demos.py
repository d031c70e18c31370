"""Smoke test: the walkthrough scripts under demos/ run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# 03_train_synthetic.py is left out: it trains for about 10 s, while these
# four together take about 1 s.
DEMOS = ["01_tensor_autodiff.py", "02_cbam_gates.py",
         "04_context_factorization.py", "05_profile_model.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
