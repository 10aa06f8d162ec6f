"""scripts/fingerprint.py: reruns print the same fingerprint."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _fingerprint(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "fingerprint.py"), *args],
                          env=env, capture_output=True, text=True, check=True).stdout


def test_two_runs_print_identical_fingerprints():
    args = ("--seeds", "3", "--steps", "2")
    first = _fingerprint(*args)
    lines = first.splitlines()
    # per workload: two loss rows, the state digest and the accuracy
    assert len(lines) == 8
    assert [line.split()[0] for line in lines] == ["finetune_k5"] * 4 + ["joint_k5"] * 4
    assert "loss_dt_d=0x" in lines[4] and "state_sha256=" in lines[6]
    assert _fingerprint(*args) == first
