#!/usr/bin/env python3
"""Run one of the paper's two experiments: a pretrain, then one CLI command.

transfer: few-shot transfer, SVHN digits 0-4 -> MNIST digits 5-9.  Runs
the target_only, fine_tune and full-model methods over k in {2, 5} and the
seeds, and prints the aggregate table.

uda: the unsupervised domain adaptation ablation, SVHN -> MNIST, all ten
digits.  Adapts the encoder adversarially against unlabeled target images
with the classifier head frozen, and prints source-only vs adapted test
accuracy per seed.

Expects IDX files (SVHN pre-converted to grayscale with
scripts/prepare_svhn.py); see README for the layout.  ``--synth`` runs on
the built-in synthetic fixture instead, at no more than 200 pretrain and
150 adaptation steps.

Usage:
    python scripts/run_experiment.py transfer --data-root DATA --out runs/transfer
    python scripts/run_experiment.py uda --synth --out runs/uda_synth   # no data needed
"""

import argparse
import sys
from pathlib import Path

from xferlearn.cli import main as cli_main

# experiment -> (its config on real data, on the synth fixture, the command after pretrain)
EXPERIMENTS = {
    "transfer": (["--experiment", "digits", "--source_classes", "0,1,2,3,4",
                  "--target_classes", "5,6,7,8,9", "--k_values", "2,5"],
                 ["--source_classes", "0,1,2", "--target_classes", "3,4", "--k_values", "2,5"],
                 ["transfer", "--methods", "target_only,fine_tune,full"]),
    "uda": (["--experiment", "ablation"],
            ["--source_classes", "0,1,2", "--target_classes", "0,1,2"],
            ["uda"]),
}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("experiment", choices=EXPERIMENTS)
    p.add_argument("--data-root", type=Path, default=Path("/root/data"))
    p.add_argument("--out", type=Path, help="default: runs/<experiment>")
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--pretrain-steps", type=int, default=3000)
    p.add_argument("--seeds", default="0,1,2")
    p.add_argument("--synth", action="store_true",
                   help="run on the built-in synthetic fixture instead of real data")
    args = p.parse_args()
    out = args.out or Path("runs", args.experiment)
    real, synth, command = EXPERIMENTS[args.experiment]
    if args.synth:
        common = [*synth, "--experiment", "synth", "--head_widths", "64,64",
                  "--pretrain_steps", str(min(args.pretrain_steps, 200)),
                  "--steps", str(min(args.steps, 150))]
    else:
        common = [*real, "--source_subsample", "10000",
                  "--pretrain_steps", str(args.pretrain_steps), "--steps", str(args.steps)]
        # the source is SVHN's training set; D2, D3 and the test set are MNIST's
        for role, stem in {"source": "svhn-train", "target": "train", "test": "t10k"}.items():
            common += [f"--{role}_images", str(args.data_root / f"{stem}-images-idx3-ubyte"),
                       f"--{role}_labels", str(args.data_root / f"{stem}-labels-idx1-ubyte")]
    common += ["--seeds", args.seeds]

    pre = out / "pretrain"
    code = cli_main(["pretrain", *common, "--output_dir", str(pre)])
    if code != 0:
        return code
    return cli_main([*command, *common, "--output_dir", str(out),
                     "--checkpoint", str(pre / "source.ckpt")])


if __name__ == "__main__":
    sys.exit(main())
