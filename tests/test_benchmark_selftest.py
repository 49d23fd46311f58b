import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "perfbench" / "selftest.py"


def test_benchmark_checks_accept_real_outputs_and_reject_corruptions():
    # A solver or report change that would make every benchmark operation
    # fail its output check fails here first.
    proc = subprocess.run(
        [sys.executable, str(SELFTEST)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest: ok" in proc.stdout
