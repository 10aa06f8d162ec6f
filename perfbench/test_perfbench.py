"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They run each workload for a step or three, so they take about two minutes.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workload  # noqa: E402
from xferlearn import checkpoint, data, discriminator, layers, losses, metrics  # noqa: E402
from xferlearn import optim, tensor, trainer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WRAPPED = (tensor, layers, layers.EmbeddingNetwork, discriminator,
           discriminator.MultiLayerDiscriminator, losses, optim, optim.Adam, data,
           trainer, trainer.TrainRecord, metrics, checkpoint)
QUICK = {"setups": 1, "setup_seconds": 0.0, "evals": 1}


def _functions():
    """Every function, class and module reachable as an attribute of the wrapped objects."""
    return {(id(owner), key): value for owner in WRAPPED for key, value in vars(owner).items()
            if callable(value) or isinstance(value, types.ModuleType)}


@pytest.mark.parametrize("name, steps", [("finetune_k5", 3), ("joint_k5", 1)])
def test_tracing_leaves_losses_bit_identical_and_restores_attributes(name, steps):
    before = _functions()
    plain = workload.run(name, 0, math.inf, max_steps=steps, **QUICK)
    traced = workload.run(name, 0, math.inf, trace=True, max_steps=steps, **QUICK)
    after = _functions()

    assert len(plain["rows"]) == steps
    assert run.check(plain, run.load_reference()) == []
    assert traced["rows"] == plain["rows"]
    assert traced["eval_accuracy"] == plain["eval_accuracy"]
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    declared = {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead_ratio"}
    assert set(traced["layers"]) == declared


def test_traced_spans_count_the_step_loop():
    rec = workload.run("finetune_k5", 1, math.inf, trace=True, max_steps=2, **QUICK)
    layer = rec["layers"]
    assert 0.0 <= layer["trainer.step.self_s"] < layer["trace.step_s"]
    assert layer["tensor.graph.swept_ratio"] == 1.0
    assert layer["layers.forward.calls"] == 1.0
    assert layer["layers.forward.images"] == 25.0
    assert layer["discriminator.forward.calls"] == 0.0
    # four 3x3 convs at 64 channels on 25 images of 32x32, 16x16, 8x8, 4x4
    fwd = sum(2 * 25 * 64 * c * 9 * s * s for c, s in ((1, 32), (64, 16), (64, 8), (64, 4)))
    assert layer["tensor.conv2d.gflop"] == pytest.approx(3 * fwd / 1e9)


def test_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workload.WORKLOADS)
    assert run.load_reference()["terms"] == list(workload.TERMS)
    assert set(run.load_reference()["steps"]) == set(workload.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.UNITS
    assert SPEC["command"][1] == "perfbench/run.py"


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_single_workload_output_names_the_declared_metrics(trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "finetune_k5", "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "finetune_k5", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_timings_are_scaled_by_the_host_gauge_near_them():
    ref = workload.HostGauge.REFERENCE_S
    # the host runs at half speed until t=100, then at a quarter
    gauge = [[t, 2 * ref] for t in (9.0, 11.0, 13.0)] + [[t, 4 * ref] for t in (199.0, 202.0)]
    rec = {"setup_s": [0.5], "setup_at": [10.0], "step_s": [1.0, 3.0], "step_at": [11.0, 12.0],
           "eval_s": [2.0], "eval_at": [200.0], "eval_images": 100, "peak_rss_mb": 700.0,
           "peak_rss_mb_with_eval": 750.0,
           "eval_accuracy": [0.5], "gauge_reference_s": ref, "gauge": gauge}
    values, how = run.end_to_end(rec)
    assert values == {"setup_s": 0.25, "steps_per_s": 1.0, "step_s_p50": 1.0,
                      "step_s_tail": 1.0, "eval_images_per_s": 200.0, "peak_rss_mb": 700.0}
    assert how["unscaled"]["steps_per_s"] == 0.5


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail_percentile(10) == 50.0
    assert run.tail_percentile(39) == 50.0
    assert run.tail_percentile(40) == 75.0
    assert run.tail_percentile(99) == 75.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(10_000) == 99.9
    xs = [0.3, 0.1, 0.4, 0.2, 0.5]
    assert run.percentile(xs, 50) == statistics.median(xs)
    assert run.percentile(xs, 75) == pytest.approx(0.4)


def _record(rows, **extra):
    rec = {"workload": "finetune_k5", "seed": 0, "rows": rows, "failure": None,
           "setup_digests": ["a", "a"], "eval_accuracy": [0.4, 0.4]}
    rec.update(extra)
    return rec


def test_checks_catch_wrong_losses_and_nondeterminism():
    reference = run.load_reference()
    good = reference["steps"]["finetune_k5"]["0"]
    assert len(good) == 3
    assert run.check(_record(good), reference) == []

    for step in range(3):
        off = [row if i != step else [v * 1.05 for v in row] for i, row in enumerate(good)]
        assert run.check(_record(off), reference) == [
            f"step {step + 1} {term} = {got!r}, reference {want!r}"
            for term, got, want in zip(reference["terms"], off[step], good[step])
            if got != want]
    assert run.check(_record(good[:1] + [[math.nan] * 7]), reference)
    assert run.check(_record(good), reference, others=[_record(good[:1] + [[0.0] * 7])])
    assert run.check(_record(good, setup_digests=["a", "b"]), reference)
    assert run.check(_record(good, eval_accuracy=[0.4, 0.6]), reference)
    assert run.counts([_record(good[:1])], ["a problem"]) == (1, 1)
    failed = _record(good[:1], failure="step 2: boom")
    assert run.counts([failed], run.check(failed, reference)) == (2, 2)
    assert run.counts([_record(good[:1])], []) == (1, 0)


def _flip_conv_kernel_grad(gx, gw, gb):
    """The classic convolution-for-correlation slip in the weight gradient."""
    return gx, None if gw is None else np.ascontiguousarray(gw[..., ::-1, ::-1]), gb


def _shift_pool_grad(gx):
    """Routes each pooled gradient one column away from its argmax."""
    return (np.roll(gx, 1, axis=-1),)


@pytest.mark.parametrize("op, wrong", [("conv2d", _flip_conv_kernel_grad),
                                       ("maxpool2d", _shift_pool_grad)])
def test_a_wrong_backward_fails_the_reference_check(monkeypatch, op, wrong):
    original = getattr(tensor, op)

    def perturbed(*args, **kwargs):
        out = original(*args, **kwargs)
        if out.node is not None:
            bwd = out.node.backward_fn
            out.node.backward_fn = lambda g: wrong(*bwd(g))
        return out

    monkeypatch.setattr(tensor, op, perturbed)
    rec = workload.run("finetune_k5", 0, math.inf, max_steps=3, **QUICK)
    problems = run.check(rec, run.load_reference())
    # the fine-tune step 1 runs before any backward pass, so only later steps differ
    assert problems
    assert all(p.startswith(("step 2 ", "step 3 ")) for p in problems), problems


def _diverging(monkeypatch, how):
    """Makes the fine-tune loss non-finite, or raise, from the second step of each run."""
    calls = []
    supervised_ce = losses.supervised_ce

    def broken(*args, **kwargs):
        calls.append(1)
        out = supervised_ce(*args, **kwargs)
        if len(calls) >= 2:
            if how == "raise":
                raise ValueError("boom")
            out.data = np.full_like(out.data, np.nan)
        return out

    def launch(name, seed, seconds, trace=False):
        calls.clear()
        return workload.run(name, seed, math.inf, trace=trace, max_steps=3, **QUICK)

    monkeypatch.setattr(losses, "supervised_ce", broken)
    monkeypatch.setattr(run, "launch", launch)
    monkeypatch.setattr(run, "benchmark_spec", lambda: {**SPEC, "workloads": SPEC["workloads"][:1]})


@pytest.mark.parametrize("how, error", [("nan", "TrainDivergence"), ("raise", "ValueError")])
def test_a_failing_step_is_reported_as_failed(monkeypatch, capsys, how, error):
    _diverging(monkeypatch, how)
    assert run.main(["--workload", "finetune_k5", "--seed", "0", "--trace", "0"]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert any(f"training failed at step 2: {error}" in line for line in lines)
    assert json.loads(lines[-1]) == {"correct": False, "attempted": 2, "failed": 2,
                                     "metrics": {}}

    assert run.main(["--seed", "0"]) == 1
    table = capsys.readouterr().out
    assert [line.split() for line in table.splitlines() if "steps_failed_ratio" in line] == [
        ["finetune_k5", "steps_failed_ratio", "1", "ratio"]]
