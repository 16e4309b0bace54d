"""Smoke runs of the scripts under scripts/, each in its own interpreter."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_newton_perturbation_sweep_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "newton_perturbation_sweep.py"),
         "--seeds", "1", "--graphs", "path:4,cycle:4"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split()[:3] == ["graph", "det", "J(L)"]
    assert any(line.startswith("path:4") and "converged" in line for line in lines)
    assert any(line.startswith("cycle:4") and "singular jacobian" in line for line in lines)
    # the det J(L) column: the second field of every outcome row (the
    # distance rows leave it blank)
    dets = {}
    for line in lines[1:]:
        spec, field = line.split()[:2]
        if field != "distance":
            dets.setdefault(spec, set()).add(field)
    assert dets == {"path:4": {"384"}, "cycle:4": {"0"}}
