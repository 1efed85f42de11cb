"""Smoke test of the demos: each runs to exit 0 with no traceback.

Demos 03 (10-13 s: it trains two autoencoders) and 05 (5-6 s: a small
k-fold experiment) are left out to keep the suite fast; test_models and
test_experiments cover the code they run. The four kept take about 3 s.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_balanced_loss_basics", "02_synthetic_data", "04_mixed_metrics", "06_vae_generation"]
WRITES = {"02_synthetic_data": "mixedae_demo_synthetic.csv"}  # into the working directory


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.strip()
    assert [p.name for p in tmp_path.iterdir()] == ([WRITES[name]] if name in WRITES else [])
