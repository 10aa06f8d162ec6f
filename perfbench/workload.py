"""Run one benchmark workload in this process and print its raw record.

    python3 perfbench/workload.py --workload joint_k5 --seed 0 --seconds 35 [--trace]

The inputs are synthesized from the seed with ``data.synth_digits`` at
32x32, and each workload calls one public procedure of ``xferlearn.trainer``.
Nothing in the package is edited.  Step times come from wrapping
``TrainRecord.log``; the start of step 1 is the trainer's own ``time.time()``
call just before its loop, seen by handing the trainer a stand-in for its
``time`` module.  ``--trace`` also wraps the public functions of every module
(see spans.py).  The last line of standard output is one JSON object, which
run.py turns into metrics and checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(ROOT / "src"))

from xferlearn import checkpoint, data, layers, metrics, trainer  # noqa: E402

import spans  # noqa: E402

WORKLOADS = ("finetune_k5", "joint_k5")
TERMS = ("loss_sup", "loss_dt_d", "loss_dt_e", "loss_st_src", "loss_st_sup",
         "loss_st_unsup", "loss_total")

IMAGE_SIZE = 32
SHOTS = 5
PER_CLASS = 40  # source and target pools: 200 images, 175 unlabeled after D2, batch 128
TEST_PER_CLASS = 51  # 255 test images, one evaluate() batch of 256
SETUPS = 3  # at least this many set-ups per run, and SETUP_SECONDS of them;
SETUP_SECONDS = 1.0  # setup_s is their median
EVALS = 5  # final evaluations per run; eval_images_per_s uses their median
MAX_STEPS = 1_000_000
GAUGE_BETWEEN_S = 0.05  # host gauge seconds before each set-up
GAUGE_BEFORE_EVAL_S = 0.2  # and before each evaluation


class _SetupDone(Exception):
    """Raised at the start of step 1 of a set-up that is only timed."""


class _Stop(Exception):
    """Raised after the step that uses up the run's seconds."""


def _config(name: str, seed: int) -> trainer.TrainConfig:
    if name == "finetune_k5":
        return trainer.TrainConfig(seed=seed, alpha=0.0, beta=0.0, steps=MAX_STEPS)
    if name == "joint_k5":
        return trainer.TrainConfig(seed=seed, alpha=0.1, beta=0.1, steps=MAX_STEPS,
                                   disc_taps=("pool4_flat", "fc1"),
                                   head_widths=(500, 500, 500))
    raise ValueError(f"unknown workload {name!r}")


def _setup(name: str, seed: int):
    """Build a run's inputs as a user's run would; returns (train, test, digest).

    ``train()`` calls the workload's trainer procedure, which finishes the
    set-up (clone, discriminator, source prototypes) and enters the loop.
    """
    cfg = _config(name, seed)
    classes = tuple(range(5, 10))  # disjoint from the source's 0-4
    pool = data.filter_classes(data.synth_digits(PER_CLASS, classes, image_size=IMAGE_SIZE,
                                                 seed=seed + 100, domain_shift=True), classes)
    test = data.filter_classes(data.synth_digits(TEST_PER_CLASS, classes, image_size=IMAGE_SIZE,
                                                 seed=seed + 999, domain_shift=True), classes)

    # the CLI's pretrain -> transfer handoff: the source net goes through a checkpoint
    path = OUT / f"source-{os.getpid()}.ckpt"
    net = layers.EmbeddingNetwork(layers.digit_embedding_spec(n_classes=5), seed=seed)
    checkpoint.save_checkpoint(path, net.state_dict())
    source_net = layers.EmbeddingNetwork(layers.digit_embedding_spec(n_classes=5), seed=0)
    source_net.load_state_dict(checkpoint.load_checkpoint(path).tensors)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    path.unlink()

    d2, d3 = data.make_splits(pool, SHOTS, seed)
    if name == "finetune_k5":
        train = lambda: trainer.run_baseline("fine_tune", d2, cfg, source_net=source_net,
                                             reinit_head=True)
    else:
        source = data.synth_digits(PER_CLASS, range(5), image_size=IMAGE_SIZE, seed=seed)
        train = lambda: trainer.adapt_joint(source_net, source, d2, d3, cfg,
                                            reinit_head=True)
    return train, test, digest


class HostGauge:
    """Times a fixed numpy kernel, interleaved with the run, to gauge host speed.

    The machines this runs on share their host, and their speed drifts by
    tens of percent over minutes.  The kernel (an einsum of conv2d's im2col
    shape and a small matmul, independent of the package) slows down with
    the host, so run.py scales each timed set-up, step and evaluation by
    ``REFERENCE_S`` over the median kernel time sampled around it.  Samples
    are taken between them, never inside one.
    """

    REFERENCE_S = 0.02  # kernel seconds on the reference host; defines the time unit

    def __init__(self):
        rng = np.random.default_rng(0)
        self._w = rng.standard_normal((64, 576), dtype=np.float32)
        self._cols = rng.standard_normal((8, 576, 256), dtype=np.float32)
        self._a = rng.standard_normal((128, 576), dtype=np.float32)
        self._b = rng.standard_normal((576, 256), dtype=np.float32)
        self.samples: list[list[float]] = []  # [start, seconds]

    def sample(self, seconds: float) -> None:
        """Run the kernel once, and again until ``seconds`` have passed."""
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            np.einsum("fk,nkp->nfp", self._w, self._cols)
            self._a @ self._b
            now = time.perf_counter()
            self.samples.append([t, now - t])
            if now - start >= seconds:
                return


class StepClock:
    """Times the set-up and every step of a trainer procedure from outside.

    ``install`` makes the trainer read ``time`` from this object and wraps
    ``TrainRecord.log``; the first ``time()`` call of a procedure is its
    start-of-loop timestamp, and each ``log`` call completes a step.  After
    each step the host gauge runs for about 2% of the step's time; the next
    step starts when it is done, so the gauge is in no step.
    """

    GAUGE_SHARE = 0.02

    def __init__(self, seconds: float, max_steps: int, gauge: HostGauge):
        self.seconds = seconds
        self.max_steps = max_steps
        self.gauge = gauge
        self.setup_only = True
        self.loop_start = None
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.rows: list[list[float]] = []
        self.net = None  # target net of the current procedure
        self._patches = spans.Patches()

    def install(self) -> None:
        clock = self
        log = trainer.TrainRecord.log
        clone = trainer.clone_into_target

        def logged(record, step, report, eval_acc=None):
            log(record, step, report, eval_acc)
            now = time.perf_counter()
            clock.ends.append(now)
            clock.rows.append([record.rows[-1][t] for t in TERMS])
            if now - clock.loop_start >= clock.seconds or step >= clock.max_steps:
                raise _Stop
            clock.gauge.sample(clock.GAUGE_SHARE * (now - clock.starts[-1]))
            clock.starts.append(time.perf_counter())

        def cloned(*args, **kwargs):
            clock.net = clone(*args, **kwargs)
            return clock.net

        self._patches.set(trainer, "time", self)
        self._patches.set(trainer.TrainRecord, "log", logged)
        self._patches.set(trainer, "clone_into_target", cloned)

    def uninstall(self) -> None:
        self._patches.restore()

    def time(self) -> float:
        if self.loop_start is None:
            self.loop_start = time.perf_counter()
            if self.setup_only:
                raise _SetupDone
            self.starts.append(self.loop_start)
        return time.time()


def run(name: str, seed: int, seconds: float, trace: bool = False,
        max_steps: int = MAX_STEPS, setups: int = SETUPS, setup_seconds: float = SETUP_SECONDS,
        evals: int = EVALS) -> dict:
    """Set up at least ``setups`` times and for ``setup_seconds``, train for
    ``seconds`` after the last set-up, then evaluate ``evals`` times."""
    OUT.mkdir(parents=True, exist_ok=True)
    gauge = HostGauge()
    clock = StepClock(seconds, max_steps, gauge)
    tracer = spans.Tracer(f"{name}-seed{seed}-pid{os.getpid()}") if trace else None
    setup_s, setup_at, digests, eval_s, eval_at, accuracy = [], [], [], [], [], []
    failure = None
    clock.install()
    try:
        if tracer:
            tracer.install()
        while clock.setup_only:
            gauge.sample(GAUGE_BETWEEN_S)
            clock.setup_only = len(setup_s) + 1 < setups or sum(setup_s) < setup_seconds
            clock.loop_start = None
            start = time.perf_counter()
            train, test, digest = _setup(name, seed)
            digests.append(digest)
            try:
                train()
            except (_SetupDone, _Stop):
                pass
            except Exception as e:  # a step that raises fails, and ends the run
                where = "set-up" if clock.loop_start is None else f"step {len(clock.rows) + 1}"
                failure = f"{where}: {type(e).__name__}: {e}"
            if clock.loop_start is None:
                if failure is None:
                    raise RuntimeError("the trainer never reached its step loop")
                break
            setup_s.append(clock.loop_start - start)
            setup_at.append(start)
        # the training peak; evaluate() runs all test images in one batch
        train_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if failure is None:
            for _ in range(evals):
                gauge.sample(GAUGE_BEFORE_EVAL_S)
                start = time.perf_counter()
                result = metrics.evaluate(clock.net, test)
                eval_s.append(time.perf_counter() - start)
                eval_at.append(start)
                accuracy.append(result.accuracy)
    finally:
        if tracer:
            tracer.uninstall()
        clock.uninstall()

    record = {
        "workload": name, "seed": seed, "trace": trace, "seconds": seconds,
        "setup_s": setup_s, "setup_at": setup_at, "setup_digests": digests,
        "step_s": [b - a for a, b in zip(clock.starts, clock.ends)], "step_at": clock.starts,
        "rows": clock.rows, "failure": failure,
        "eval_images": len(test), "eval_s": eval_s, "eval_at": eval_at,
        "eval_accuracy": accuracy,
        "gauge": gauge.samples, "gauge_reference_s": HostGauge.REFERENCE_S,
        "peak_rss_mb": train_rss,
        "peak_rss_mb_with_eval": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer and clock.ends and eval_s:
        step_spans = tracer.step_spans(clock.starts, clock.ends)
        record["layers"] = tracer.summarize(step_spans, len(setup_s), evals)
        tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl", step_spans)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(run(args.workload, args.seed, args.seconds, trace=args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
