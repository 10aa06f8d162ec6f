"""scripts/run_experiment.py: both paper experiments run end to end on the synth fixture."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("experiment", ["transfer", "uda"])
def test_a_synth_experiment_writes_its_table(tmp_path, experiment):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_experiment.py"),
                          experiment, "--synth", "--steps", "2", "--pretrain-steps", "2",
                          "--seeds", "0,1", "--out", str(tmp_path / "out")],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    table = "aggregate.csv" if experiment == "transfer" else "uda.csv"
    with open(tmp_path / "out" / table, newline="") as f:
        rows = list(csv.DictReader(f))
    if experiment == "transfer":  # three methods at k 2 and 5, over both seeds
        assert [(r["method"], r["k"], r["n_seeds"]) for r in rows] == [
            (m, k, "2") for m in ("target_only", "fine_tune", "full") for k in ("2", "5")]
    else:
        assert [r["seed"] for r in rows] == ["0", "1"]
