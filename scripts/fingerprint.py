#!/usr/bin/env python3
"""Print a bit-exact fingerprint of short benchmark-shaped training runs.

For each workload and seed it builds the inputs the way the benchmark in
perfbench/ does (the 5-class digit net, 32x32 synth_digits, 5 shots of
target classes 5-9), trains for a few steps through the public trainer API
and prints every loss row as float.hex (with its eval_acc, if any), the SHA-256 of the final
state_dict, the SHA-256 of the test set's logits from the eval-mode
forwards that ``evaluate`` runs (``metrics.eval_forwards``), and the
evaluation accuracy.  finetune_k5 and joint_k5 are the
benchmark's workloads; pretrain (pretrain_source on the source classes,
evaluating every 2 steps) and uda (adapt_unsupervised on the source
classes in the shifted domain, taps pool4_flat, fc1 and fc2) cover the
other two procedures.  The ``cli`` workload, not run by default, drives
the CLI instead: per seed, in a temporary working directory and with
relative output dirs, a synth ``pretrain``, then ``transfer`` with all four
methods at k 2, then ``uda``, each for ``--steps`` steps; it prints the
SHA-256 of every file they write and of their stdout.  It fingerprints
the xferlearn that PYTHONPATH finds, and adds nothing to sys.path.

Two source trees compute the same bits exactly when their fingerprints are
equal.  ``python3 scripts/fingerprint.py --against HEAD~1 --seeds 0-7``
compares them: it reruns this script with its other arguments on REV's
src/, extracted with ``git archive``, and on this tree's as it is on disk
(each first on PYTHONPATH), prints the unified diff and ``N fingerprint
lines, identical`` (or ``DIFFERENT``), and exits 0 when they are identical,
1 when they differ or a side fails, 2 when REV is not a revision or git
cannot run.  Both sides run this tree's script, so a workload added after
REV (``cli``, for one) can still be compared.

With ``--shadow`` each run is repeated under ``tensor.use_float64()``, and
one more line per step gives each loss term's relative deviation from its
float64 value, |float32 - float64| / |float64| (the absolute deviation
where the float64 value is 0).  It tells whether a change moves float32
away from the exact values or only reorders their rounding.
"""

import argparse
import contextlib
import difflib
import hashlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

NO_XFERLEARN = None  # --against needs no xferlearn: it puts a src/ on each side's path
try:
    from xferlearn import cli, data, layers, losses, metrics, tensor, trainer
except ModuleNotFoundError as e:
    NO_XFERLEARN = e

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("finetune_k5", "joint_k5", "pretrain", "uda")
IMAGE_SIZE, SHOTS, PER_CLASS, TEST_PER_CLASS = 32, 5, 40, 51
SOURCE_CLASSES, TARGET_CLASSES = tuple(range(5)), tuple(range(5, 10))


def state_sha256(net) -> str:
    digest = hashlib.sha256()
    for key, arr in sorted(net.state_dict().items()):
        digest.update(f"{key} {arr.dtype.str} {arr.shape}\n".encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def eval_logits_sha256(net, test) -> str:
    digest = hashlib.sha256()
    for _, logits, _ in metrics.eval_forwards(net, test.images):
        digest.update(logits.tobytes())
    return digest.hexdigest()


def run(workload: str, seed: int, steps: int):
    """(trained net, training record, test set) of one short run."""
    source = data.synth_digits(PER_CLASS, SOURCE_CLASSES, image_size=IMAGE_SIZE, seed=seed)
    source_net = layers.EmbeddingNetwork(layers.digit_embedding_spec(n_classes=5), seed=seed)
    if workload == "pretrain":
        cfg = trainer.TrainConfig(seed=seed, pretrain_steps=steps, eval_every=2)
        net, record = trainer.pretrain_source(source, layers.digit_embedding_spec(n_classes=5),
                                              cfg)
        test = data.synth_digits(TEST_PER_CLASS, SOURCE_CLASSES, image_size=IMAGE_SIZE,
                                 seed=seed + 999)
        return net, record, test
    if workload == "uda":
        # the source classes in the shifted domain: a shared label space
        shifted = data.synth_digits(PER_CLASS, SOURCE_CLASSES, image_size=IMAGE_SIZE,
                                    seed=seed + 100, domain_shift=True)
        cfg = trainer.TrainConfig(seed=seed, alpha=0.1, steps=steps,
                                  disc_taps=("pool4_flat", "fc1", "fc2"),
                                  head_widths=(500, 500, 500))
        net, record = trainer.adapt_unsupervised(source_net, source,
                                                 data.UnlabeledDataset(shifted.images), cfg)
        test = data.synth_digits(TEST_PER_CLASS, SOURCE_CLASSES, image_size=IMAGE_SIZE,
                                 seed=seed + 999, domain_shift=True)
        return net, record, test
    pool = data.filter_classes(data.synth_digits(PER_CLASS, TARGET_CLASSES,
                                                 image_size=IMAGE_SIZE, seed=seed + 100,
                                                 domain_shift=True), TARGET_CLASSES)
    test = data.filter_classes(data.synth_digits(TEST_PER_CLASS, TARGET_CLASSES,
                                                 image_size=IMAGE_SIZE, seed=seed + 999,
                                                 domain_shift=True), TARGET_CLASSES)
    d2, d3 = data.make_splits(pool, SHOTS, seed)
    if workload == "finetune_k5":
        cfg = trainer.TrainConfig(seed=seed, alpha=0.0, beta=0.0, steps=steps)
        net, record = trainer.run_baseline("fine_tune", d2, cfg, source_net=source_net,
                                           reinit_head=True)
    else:
        cfg = trainer.TrainConfig(seed=seed, alpha=0.1, beta=0.1, steps=steps,
                                  disc_taps=("pool4_flat", "fc1"),
                                  head_widths=(500, 500, 500))
        net, record = trainer.adapt_joint(source_net, source, d2, d3, cfg, reinit_head=True)
    return net, record, test


def cli_grid(seed: int, steps: int) -> list:
    """(name, SHA-256) of each file that the ``cli`` workload writes, and of its stdout."""
    common = ["--experiment", "synth", "--seed", str(seed), "--seeds", str(seed),
              "--source_classes", "0,1,2", "--head_widths", "64,64",
              "--pretrain_steps", str(steps), "--steps", str(steps)]
    source = ["--checkpoint", "pretrain/source.ckpt"]
    commands = [["pretrain", *common, "--output_dir", "pretrain"],
                ["transfer", *common, *source, "--output_dir", "transfer", "--target_classes",
                 "3,4", "--k_values", "2", "--methods", "target_only,fine_tune,full,adv_only"],
                ["uda", *common, *source, "--output_dir", "uda", "--target_classes", "0,1,2"]]
    stdout, cwd = io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory(prefix="fingerprint-") as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(stdout):
                for argv in commands:
                    if cli.main(argv):
                        raise RuntimeError(f"xferlearn {' '.join(argv)} failed")
        finally:
            os.chdir(cwd)
        files = sorted(path for path in Path(tmp).rglob("*") if path.is_file())
        digests = [(path.relative_to(tmp).as_posix(), hashlib.sha256(path.read_bytes()))
                   for path in files]
    digests.append(("stdout", hashlib.sha256(stdout.getvalue().encode())))
    return [(name, digest.hexdigest()) for name, digest in digests]


def deviation(got: float, exact: float) -> float:
    return abs(got - exact) / abs(exact) if exact else abs(got - exact)


def seed_list(text: str) -> list[int]:
    """Comma-separated seeds 'A' and ranges 'A-B' (both included), e.g. '0-1,41,48',
    as a list of seeds in order."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.strip().partition("-")
        try:
            span = range(int(first), int(last or first) + 1)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected A-B or A, comma-separated, got {part!r}") from None
        if not span:
            raise argparse.ArgumentTypeError(f"empty seed range {part!r}")
        seeds += span
    return seeds


def against(rev: str, argv: list) -> int:
    """The exit status of diffing this script's output on REV's src/ against this tree's."""
    try:
        commit = subprocess.run(["git", "rev-parse", "--verify", "--quiet", "--end-of-options",
                                 f"{rev}^{{commit}}"], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip()
        archive = subprocess.run(["git", "archive", commit, "src"], cwd=ROOT, capture_output=True)
    except OSError as e:
        print(f"error: cannot run git to resolve {rev!r}: {e}", file=sys.stderr)
        return 2
    if not commit or archive.returncode:
        print(f"error: {rev!r} is not a revision of this checkout with a src/", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="fingerprint-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        runs = {}
        for label, src in ((rev, Path(tmp) / "src"), ("this tree", ROOT / "src")):
            path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
            runs[label] = done = subprocess.run([sys.executable, __file__, *argv], text=True,
                                                env=dict(os.environ, PYTHONPATH=path),
                                                capture_output=True)
            if done.returncode:
                print(f"error: fingerprint.py failed in {label}:\n{done.stderr}", file=sys.stderr)
                return 1
    old, new = (done.stdout.splitlines() for done in runs.values())
    diff = list(difflib.unified_diff(old, new, *runs, n=0, lineterm=""))
    for line in diff:
        print(line)
    print(f"{len(old)} fingerprint lines, {'identical' if not diff else 'DIFFERENT'}")
    return 1 if diff else 0


def main(argv=None) -> int:
    # no abbreviations, so that what the reruns get holds no spelling of --against
    against_only = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    against_only.add_argument("--against", metavar="REV", help="diff with REV's src/, e.g. HEAD~1")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False,
                                     parents=[against_only])
    parser.add_argument("--seeds", type=seed_list, nargs="+", default=[[0]],
                        help="seeds A and ranges A-B, comma- or space-separated, e.g. 0-7,41")
    parser.add_argument("--steps", type=int, default=5)
    parser.add_argument("--workloads", nargs="+", choices=(*WORKLOADS, "cli"),
                        default=list(WORKLOADS))
    parser.add_argument("--shadow", action="store_true",
                        help="also print each loss term's deviation from a float64 rerun "
                             "(not for the cli workload)")
    args = parser.parse_args(argv)
    if args.against is not None:
        return against(args.against, against_only.parse_known_args(argv)[1])
    if NO_XFERLEARN:
        parser.error(f"{NO_XFERLEARN}: put a src/ first on PYTHONPATH, or pass --against REV")
    for workload in args.workloads:
        for seed in (seed for part in args.seeds for seed in part):
            if workload == "cli":
                for name, digest in cli_grid(seed, args.steps):
                    print(f"cli seed={seed} {name} sha256={digest}")
                continue
            net, record, test = run(workload, seed, args.steps)
            tag = f"{workload} seed={seed}"
            for row in record.rows:
                terms = " ".join(f"{t}={float(row[t]).hex()}" for t in losses.TERMS)
                if row["eval_acc"] != "":
                    terms += f" eval_acc={row['eval_acc']!r}"
                print(f"{tag} step={row['step']} {terms}")
            print(f"{tag} state_sha256={state_sha256(net)}")
            print(f"{tag} eval_logits_sha256={eval_logits_sha256(net, test)}")
            print(f"{tag} eval_acc={metrics.evaluate(net, test).accuracy!r}")
            if args.shadow:
                with tensor.use_float64():
                    _, exact, _ = run(workload, seed, args.steps)
                for row, want in zip(record.rows, exact.rows):
                    terms = " ".join(f"{t}={deviation(float(row[t]), float(want[t])):.2e}"
                                     for t in losses.TERMS)
                    print(f"{tag} step={row['step']} shadow {terms}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
