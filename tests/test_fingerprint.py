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
    # per workload: two loss rows, the state digest, the eval logits' digest and the accuracy
    assert len(lines) == 20
    assert [line.split()[0] for line in lines] == [
        w for w in ("finetune_k5", "joint_k5", "pretrain", "uda") for _ in range(5)]
    assert "loss_dt_d=0x" in lines[5] and "state_sha256=" in lines[7]
    logits = [line.split()[2] for line in lines if "eval_logits_sha256=" in line]
    assert [i for i, line in enumerate(lines) if "eval_logits_sha256=" in line] == [3, 8, 13, 18]
    assert all(len(digest.split("=")[1]) == 64 for digest in logits)
    # the final accuracy of each run, and pretraining's evaluation at step 2
    assert [i for i, line in enumerate(lines) if "eval_acc=" in line] == [4, 9, 11, 14, 19]
    assert _fingerprint(*args) == first


def test_the_float64_shadow_prints_small_deviations():
    lines = _fingerprint("--seeds", "0", "--steps", "1", "--shadow").splitlines()
    shadow = [line for line in lines if " shadow " in line]
    assert [line.split()[0] for line in shadow] == ["finetune_k5", "joint_k5", "pretrain", "uda"]
    for line in shadow:
        assert line.split()[1:4] == ["seed=0", "step=1", "shadow"]
        deviations = [float(term.split("=")[1]) for term in line.split()[4:]]
        assert len(deviations) == 7 and all(0.0 <= d < 1e-3 for d in deviations)
    # the float32 lines are the fingerprint itself
    assert [line for line in lines if " shadow " not in line] == _fingerprint(
        "--seeds", "0", "--steps", "1").splitlines()


def test_seeds_take_refcheck_ranges_and_space_separated_lists():
    args = ("--steps", "1", "--workloads", "finetune_k5")
    ranged = _fingerprint("--seeds", "0-1,3", *args)
    assert [line.split()[1] for line in ranged.splitlines()][::4] == [
        "seed=0", "seed=1", "seed=3"]
    assert _fingerprint("--seeds", "0", "1", "3", *args) == ranged
