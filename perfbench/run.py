"""Benchmark of xferlearn training at the paper's digit shapes.

One workload, ending in one JSON result line (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload joint_k5 --seed 3 --seconds 35 --trace 0

All workloads, printing every end-to-end metric by name with its unit
(``--trace 1`` adds the per-layer table, ``--record LABEL`` appends the
results and the machine's facts to perfbench/baseline.json):

    python3 perfbench/run.py [--seed 0] [--seconds 35] [--trace 0|1]

Every workload run is one child process (workload.py); runs go one at a
time.  ``--trace 1`` runs the workload untraced and then traced, and
reports the per-layer metrics of the traced run.  Each run's outputs are
checked: finite losses, the first steps' losses against
perfbench/reference.json, identical loss rows across runs at one seed, and
repeatable set-up and evaluation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

UNITS = {
    "setup_s": "s",
    "steps_per_s": "step/s",
    "step_s_p50": "s",
    "step_s_tail": "s",
    "eval_images_per_s": "img/s",
    "peak_rss_mb": "MiB",
}
# steps_failed_ratio is reported as the result's attempted/failed counts and in
# the table; it is 0 on a healthy run, so it has no relative bound
TABLE_ONLY_UNITS = {"steps_failed_ratio": "ratio"}
# per-layer work counts derived from tensor shapes, not measured
COMPUTED = ("tensor.conv2d.gflop", "tensor.conv2d.im2col_mb", "tensor.matmul.gflop")
TAIL_MIN_BEYOND = 10
GAUGE_WINDOW_S = 2.5  # host gauge samples this close to a timing scale it
CHILD_TIMEOUT_S = 60  # beyond --seconds, per child


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest of the usual tail percentiles with at least ten samples beyond it.

    A fixed ladder, so that the percentile a workload reports does not move
    with small changes in its step count; the median below 40 steps.
    """
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if round(n * (100.0 - p) / 100.0, 9) >= TAIL_MIN_BEYOND:
            return p
    return 50.0


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "xferlearn").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def launch(workload: str, seed: int, seconds: float, trace: bool = False) -> dict:
    """Run one workload in a child process and return its raw record."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=seconds + CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_scaled(seconds: list, starts: list, gauge: list, reference: float) -> list:
    """Each timing times ``reference`` over the median gauge sample near it.

    Near means started within GAUGE_WINDOW_S of the timed interval; the
    gauge is the fixed kernel workload.py runs between set-ups, steps and
    evaluations, so this reports every timing at the reference host speed.
    """
    out = []
    for start, dur in zip(starts, seconds):
        near = [d for t, d in gauge if start - GAUGE_WINDOW_S <= t <= start + dur + GAUGE_WINDOW_S]
        out.append(dur * reference / statistics.median(near or [d for _, d in gauge]))
    return out


def end_to_end(rec: dict) -> tuple[dict, dict]:
    """The end-to-end metrics of one untraced record, and how they were taken.

    Timings are in reference-host seconds (``host_scaled``); the record's
    unscaled values are returned with the rest of how they were taken.
    """
    def metrics(setup, steps, evals):
        tail_p = tail_percentile(len(steps))
        return {
            "setup_s": statistics.median(setup),
            "steps_per_s": len(steps) / sum(steps),
            "step_s_p50": statistics.median(steps),
            "step_s_tail": percentile(steps, tail_p),
            "eval_images_per_s": rec["eval_images"] / statistics.median(evals),
            "peak_rss_mb": rec["peak_rss_mb"],
        }

    ref, gauge = rec["gauge_reference_s"], rec["gauge"]
    values = metrics(*(host_scaled(rec[f"{k}_s"], rec[f"{k}_at"], gauge, ref)
                       for k in ("setup", "step", "eval")))
    steps = rec["step_s"]
    how = {"steps": len(steps), "loop_s": sum(steps),
           "tail_percentile": tail_percentile(len(steps)),
           "tail_samples_beyond": len(steps) * (100.0 - tail_percentile(len(steps))) / 100.0,
           "setups": len(rec["setup_s"]), "evals": len(rec["eval_s"]),
           "eval_images": rec["eval_images"], "eval_accuracy": rec["eval_accuracy"],
           "peak_rss_mb_with_eval": rec["peak_rss_mb_with_eval"],
           "gauge_samples": len(gauge), "gauge_median_s": statistics.median(d for _, d in gauge),
           "unscaled": metrics(rec["setup_s"], steps, rec["eval_s"]), "step_s": steps}
    return values, how


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def check(rec: dict, reference: dict, others=()) -> list[str]:
    """Problems with a record's outputs; ``others`` are records of the same seed."""
    problems = []
    name, seed = rec["workload"], rec["seed"]
    if rec["failure"]:
        problems.append(f"training failed at {rec['failure']}")
    if not rec["rows"]:
        problems.append("no step completed")
    for i, row in enumerate(rec["rows"], start=1):
        if not all(math.isfinite(v) for v in row):
            problems.append(f"step {i}: non-finite loss in {row}")
    expected = reference["steps"][name].get(str(seed), [])
    for step, (row, want_row, tol) in enumerate(
            zip(rec["rows"], expected, reference["tolerance"]), start=1):
        for term, got, want in zip(reference["terms"], row, want_row):
            if not math.isclose(got, want, rel_tol=tol, abs_tol=tol):
                problems.append(f"step {step} {term} = {got!r}, reference {want!r}")
    for other in others:
        n = min(len(rec["rows"]), len(other["rows"]))
        if rec["rows"][:n] != other["rows"][:n]:
            problems.append(f"loss rows differ from another run at seed {seed}")
    if len(set(rec["setup_digests"])) != 1:
        problems.append("set-ups wrote different source checkpoints")
    accs = rec["eval_accuracy"]
    if not accs or len(set(accs)) != 1 or not 0.0 <= accs[0] <= 1.0:
        problems.append(f"final evaluations disagree or are out of range: {accs}")
    return problems


def earlier_runs(rec: dict) -> tuple[Path, list]:
    """Loss rows an earlier run of this source tree wrote at this workload and seed."""
    path = OUT / f"rows-{rec['workload']}-seed{rec['seed']}-{source_digest()}.json"
    if path.exists():
        return path, [{"rows": json.loads(path.read_text())}]
    return path, []


def remember(path: Path, recs) -> None:
    longest = max((r["rows"] for r in recs), key=len)
    if path.exists() and len(json.loads(path.read_text())) >= len(longest):
        return
    OUT.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(longest))


def counts(recs, problems) -> tuple[int, int]:
    """Steps attempted and failed.  A step that raises or logs a non-finite loss
    fails a check, and a run whose checks fail counts every step as failed."""
    attempted = max(1, sum(len(r["rows"]) + bool(r["failure"]) for r in recs))
    return attempted, attempted if problems else 0


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """An untraced run (and a traced one), checked against each other, against
    earlier runs of this source tree and against the reference."""
    reference = load_reference()
    runs = [launch(workload, seed, seconds)]
    if trace:
        runs.append(launch(workload, seed, seconds, trace=True))
    path, earlier = earlier_runs(runs[0])
    problems = []
    for i, rec in enumerate(runs):
        problems += check(rec, reference, others=runs[:i] + earlier)
    if not problems:
        remember(path, runs)
    return runs, problems


def timed(rec: dict) -> bool:
    """Whether a record has the step and evaluation times end_to_end needs."""
    return bool(rec["step_s"] and rec["eval_s"])


def layer_metrics(untraced: dict, traced: dict) -> dict:
    values = dict(traced["layers"])
    values["trace.overhead_ratio"] = (end_to_end(untraced)[0]["steps_per_s"]
                                      / end_to_end(traced)[0]["steps_per_s"] - 1.0)
    return values


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def one_workload(args) -> int:
    runs, problems = run_workload(args.workload, args.seed, args.seconds,
                                  trace=bool(args.trace))
    attempted, failed = counts(runs, problems)
    for problem in problems:
        print(f"check failed: {problem}")
    result = {}  # a failed run may have nothing to measure
    if all(timed(r) for r in runs):
        values, how = end_to_end(runs[0])
        if args.trace:
            units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
            layer = layer_metrics(*runs)
            result = {name: {"value": layer[name], "unit": unit} for name, unit in units.items()}
        else:
            result = {name: {"value": values[name], "unit": UNITS[name]} for name in UNITS}
        for name, m in result.items():
            print(f"{args.workload:12s} {name:34s} {m['value']:14.6g} {m['unit']}")
        print(json.dumps({"workload": args.workload, "seed": args.seed, "measured": how,
                          "computed_from_shapes": COMPUTED if args.trace else []}))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0 if not problems else 1


def _blas_threads():
    """Threads the BLAS numpy loaded will use, read from the library itself."""
    import ctypes
    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def machine_facts() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "ram_gib": round(ram / 2**30, 2), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": _blas_threads()}


def everything(args) -> int:
    spec_names = [w["name"] for w in benchmark_spec()["workloads"]]
    units = {**UNITS, **TABLE_ONLY_UNITS}
    results, ok = {}, True
    for workload in spec_names:
        runs, problems = run_workload(workload, args.seed, args.seconds,
                                      trace=bool(args.trace))
        attempted, failed = counts(runs, problems)
        values, how = end_to_end(runs[0]) if timed(runs[0]) else ({}, {})
        values["steps_failed_ratio"] = failed / attempted
        results[workload] = {"values": values, "measured": how, "problems": problems}
        for name, value in values.items():
            print(f"{workload:12s} {name:34s} {value:14.6g} {units[name]}")
        if args.trace and all(timed(r) for r in runs):
            layer = layer_metrics(*runs)
            results[workload]["per_layer"] = layer
            for m in benchmark_spec()["per_layer"]:
                print(f"{workload:12s} {m['name']:34s} {layer[m['name']]:14.6g} {m['unit']}")
        for problem in problems:
            print(f"{workload:12s} check failed: {problem}")
        ok = ok and not problems
    if args.record:
        path = HERE / "baseline.json"
        baseline = json.loads(path.read_text()) if path.exists() else {"runs": []}
        baseline["runs"].append({
            "label": args.record, "date": time.strftime("%Y-%m-%d"),
            "source_digest": source_digest(), "seed": args.seed,
            "seconds": args.seconds, "units": units,
            "computed_from_shapes": COMPUTED,
            "machine": machine_facts(), "workloads": results})
        path.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in benchmark_spec()["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="seconds of training per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="LABEL",
                        help="append the results to perfbench/baseline.json")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = benchmark_spec()["run_seconds"]
    if not (SRC / "xferlearn" / "__init__.py").is_file():
        print(f"error: no xferlearn package under {SRC}", file=sys.stderr)
        return 2
    return one_workload(args) if args.workload else everything(args)


if __name__ == "__main__":
    sys.exit(main())
