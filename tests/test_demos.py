"""Golden stdout of the demos.

Each script under ``demos/`` runs in its own process and must print
exactly the bytes recorded in ``tests/golden/demos/<name>.txt``. The
demos take about 4.5 s together on two cores (2-core Xeon, OpenBLAS),
about 0.65 s of it ``ladder_comparison``. The five-level demos run the
``simulate`` pipeline, so these files also guard it at the weak-coupling
point (T = 1401 samples up to t = 700) with dephasing on and off.

Re-record a golden file only for an intended change of a demo's output:

    PYTHONPATH=src python demos/<name>.py > tests/golden/demos/<name>.txt
"""

import subprocess
import sys

import pytest

from _support import REPO, child_env

GOLDEN = REPO / "tests" / "golden" / "demos"
DEMOS = sorted(p.stem for p in (REPO / "demos").glob("*.py"))


def test_every_demo_has_a_golden_file():
    assert DEMOS
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == DEMOS


@pytest.mark.parametrize("name", DEMOS)
def test_demo_stdout_matches_golden(name):
    proc = subprocess.run(
        [sys.executable, str(REPO / "demos" / f"{name}.py")],
        capture_output=True,
        env=child_env(),
        check=False,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"{name}.txt").read_bytes()
