"""scripts/refcheck.py: the first benchmark steps against perfbench/reference.json."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "refcheck.py"


def _load():
    spec = importlib.util.spec_from_file_location("refcheck", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_four_seeds_pass_and_print_the_worst_deviation_per_step():
    # seed 41 holds the worst step-2 and step-3 deviations, and seed 48 is
    # where a change in the forward's rounding first misses
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(SCRIPT), "--seeds", "0-1,41,48"], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        f"{name} step {step}" for name in ("finetune_k5", "joint_k5") for step in (1, 2, 3)]
    for line, tol in zip(lines, ["0.0001", "0.001", "0.01"] * 2):
        assert line.endswith(f"tolerance {tol}")
        assert float(line.split("worst deviation ")[1].split()[0]) <= float(tol)


def test_a_term_off_the_reference_is_a_miss(monkeypatch, capsys):
    refcheck = _load()
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())

    def run(name, seed, **kwargs):
        rows = [list(row) for row in reference["steps"][name][str(seed)]]
        if name == "joint_k5":
            rows[1][3] += 2e-3  # step 2's tolerance is 1e-3
        return {"failure": None, "rows": rows}

    monkeypatch.setattr(refcheck.workload, "run", run)
    assert refcheck.main(["--seeds", "5"]) == 1
    captured = capsys.readouterr()
    assert "finetune_k5 step 2: worst deviation 0.00e+00" in captured.out
    assert captured.err.startswith("miss: joint_k5 seed 5 step 2 loss_st_src")


def test_seeds_are_comma_separated_seeds_and_ranges():
    refcheck = _load()
    assert refcheck.seed_list("0-1,41,48") == [0, 1, 41, 48]
    assert refcheck.seed_list("5") == [5]
    for bad in ("3-1", "a", "1,,2"):
        with pytest.raises(SystemExit) as exit_info:
            refcheck.main(["--seeds", bad])
        assert exit_info.value.code == 2


def test_seeds_without_a_reference_are_a_usage_error():
    with pytest.raises(SystemExit) as exit_info:
        _load().main(["--seeds", "60-64"])
    assert exit_info.value.code == 2
