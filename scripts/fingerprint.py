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
other two procedures.  Two source trees compute the same
bits exactly when their outputs are equal:

    PYTHONPATH=old/src python3 scripts/fingerprint.py --seeds 0-3 > old.txt
    PYTHONPATH=new/src python3 scripts/fingerprint.py --seeds 0-3 > new.txt
    diff old.txt new.txt

``--seeds`` takes seeds and ranges as scripts/refcheck.py does (``0-7,41``),
and also space-separated (``0 1 2 3``).

With ``--shadow`` each run is repeated under ``tensor.use_float64()``, and
one more line per step gives each loss term's relative deviation from its
float64 value, |float32 - float64| / |float64| (the absolute deviation
where the float64 value is 0).  It tells whether a change moves float32
away from the exact values or only reorders their rounding.
"""

import argparse
import hashlib
import sys

from xferlearn import data, layers, losses, metrics, tensor, trainer

# after xferlearn: importing refcheck puts this tree's src/ first on sys.path
from refcheck import seed_list  # noqa: E402

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


def deviation(got: float, exact: float) -> float:
    return abs(got - exact) / abs(exact) if exact else abs(got - exact)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, nargs="+", default=[[0]],
                        help="seeds A and ranges A-B, comma- or space-separated, e.g. 0-7,41")
    parser.add_argument("--steps", type=int, default=5)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--shadow", action="store_true",
                        help="also print each loss term's deviation from a float64 rerun")
    args = parser.parse_args(argv)
    for workload in args.workloads:
        for seed in (seed for part in args.seeds for seed in part):
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
