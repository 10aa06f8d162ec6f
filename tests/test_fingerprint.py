"""scripts/fingerprint.py: reruns print the same fingerprint, and a tree
compared with a git revision of itself."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "fingerprint.py"


def _with_src():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def _fingerprint(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args], env=_with_src(),
                          capture_output=True, text=True, check=True).stdout


def _against(*args):
    """The script run with ``args`` as documented, with no src/ on PYTHONPATH."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    return subprocess.run([sys.executable, str(SCRIPT), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True)


def _clean_checkout() -> bool:
    """Whether this is a git checkout whose src matches HEAD; both sides run this
    tree's script."""
    try:
        status = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                                capture_output=True, text=True)
    except OSError:
        return False
    return status.returncode == 0 and not status.stdout.strip()


needs_clean_src = pytest.mark.skipif(not _clean_checkout(),
                                     reason="needs a git checkout whose src matches HEAD")


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


def test_the_cli_workload_hashes_every_file_of_a_synth_grid():
    lines = _fingerprint("--workloads", "cli", "--seeds", "2", "--steps", "1").splitlines()
    names = [line.split()[2] for line in lines]
    assert all(line.startswith("cli seed=2 ") and len(line.split("sha256=")[1]) == 64
               for line in lines)
    runs = [f"{m}_k2_seed2" for m in ("target_only", "fine_tune", "full", "adv_only")]
    assert set(names) == {
        "stdout", "pretrain/config.txt", "pretrain/seeds.txt", "pretrain/pretrain_metrics.csv",
        "pretrain/source.ckpt", "transfer/config.txt", "transfer/seeds.txt",
        "transfer/runs.csv", "transfer/aggregate.csv", "uda/config.txt", "uda/seeds.txt",
        "uda/uda.csv", "uda/uda_metrics_seed2.csv", "uda/uda_seed2.ckpt",
        *(f"transfer/{run}.ckpt" for run in runs), *(f"transfer/metrics_{run}.csv" for run in runs)}
    assert len(names) == len(set(names))


@needs_clean_src
def test_head_against_itself_is_identical():
    run = _against("--against", "HEAD", "--seeds", "3", "--steps", "1",
                   "--workloads", "finetune_k5")
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines()[-1] == "4 fingerprint lines, identical"


@needs_clean_src
def test_the_float64_shadow_is_compared_across_revisions():
    # the old wrapper passed on only --seeds, --steps and --workloads
    run = _against("--against=HEAD", "--seeds", "3", "--steps", "1",
                   "--workloads", "finetune_k5", "--shadow")
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines()[-1] == "5 fingerprint lines, identical"


def test_a_bad_revision_is_a_usage_error():
    run = _against("--against", "no-such-revision", "--seeds", "3", "--steps", "1")
    assert run.returncode == 2
    assert "no-such-revision" in run.stderr and "Traceback" not in run.stderr
    assert run.stdout == ""


def test_loading_the_script_leaves_sys_path_alone():
    # it once imported refcheck, whose perfbench/workload.py put this tree's
    # src/ first on sys.path, so a revision's run could import this tree's modules
    code = ("import importlib.util, sys\n"
            "before = list(sys.path)\n"
            f"spec = importlib.util.spec_from_file_location('fingerprint', {str(SCRIPT)!r})\n"
            "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
            "print('xferlearn' in sys.modules, 'workload' in sys.modules, sys.path == before)")
    done = subprocess.run([sys.executable, "-c", code], env=_with_src(), capture_output=True,
                          text=True, check=True)
    assert done.stdout.split() == ["True", "False", "True"]
