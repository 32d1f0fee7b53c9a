"""The benchmark under perfbench/ drives the program through its public
interface (`gtsp.aco.run` records, `load_instance_file`, `exact_solve`); its
self-test fails when a change to that interface breaks what it reads."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
