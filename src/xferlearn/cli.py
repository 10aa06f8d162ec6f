"""Command-line entry point.

Subcommands: pretrain, transfer, uda, gradcheck, eval.  Every run writes
its resolved config, metrics CSV, checkpoints, and a seeds manifest into
the output directory, enough to re-run bit-identically.  Reruns are
bit-identical whatever the deterministic flag says; the key is still
accepted so that existing configs and scripts keep working.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import data as D
from . import losses, trainer
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import Config, ConfigError, dump_config, load_config
from .gradcheck import TOLERANCE, run_suite
from .layers import PRESETS, EmbeddingNetwork
from .metrics import Aggregate, aggregate, evaluate

CSV_FIELDS = ["step", *losses.TERMS, "eval_acc"]

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    pass


def _net_spec(cfg: Config, n_classes: int):
    return PRESETS[cfg.experiment](n_classes=n_classes)


def _require(path: str, what: str) -> str:
    if not path:
        raise UsageError(f"missing required path for {what}")
    if not Path(path).exists():
        raise UsageError(f"{what} path does not exist: {path}")
    return path


# data role -> (synth images per class, synth seed offset, synth domain shift, class filter)
_ROLES = {"source": (200, 0, False, "source_classes"),
          "target": (200, 100, True, "target_classes"),
          "test": (50, 999, True, "target_classes")}


def _load_data(cfg: Config, role: str) -> D.LabeledDataset:
    """The labelled set of a data role: "source", "target" (the pool the
    splits come from) or "test".  A class filter numbers its classes 0..C-1,
    like the head's outputs."""
    n, offset, shift, filter_key = _ROLES[role]
    classes = getattr(cfg, filter_key)
    size = _net_spec(cfg, 2).input_shape[-1]
    if cfg.experiment == "synth":
        ds = D.synth_digits(n, classes or (0, 1, 2, 3, 4), image_size=size,
                            seed=cfg.seed + offset, domain_shift=shift)
        return D.filter_classes(ds, classes) if classes else ds
    ds = D.load_idx(_require(getattr(cfg, f"{role}_images"), f"{role} images"),
                    _require(getattr(cfg, f"{role}_labels"), f"{role} labels"), name=role)
    if classes:
        ds = D.filter_classes(ds, classes)
    # the draw reads only len(ds) and the resize is per image: resize only those kept
    if role == "source" and cfg.source_subsample and len(ds) > cfg.source_subsample:
        rng = np.random.default_rng((cfg.seed, 41))
        idx = np.sort(rng.choice(len(ds), size=cfg.source_subsample, replace=False))
        ds = replace(ds, images=ds.images[idx], labels=ds.labels[idx])
    return replace(ds, images=D.resize_bilinear(ds.images, size))


def _in_source_order(ds: D.LabeledDataset, cfg: Config) -> D.LabeledDataset:
    """A target set of ``uda`` labelled in the order of the source head's outputs.

    The loaders number the target classes 0..k-1 in ascending order where
    ``target_classes`` is set, and the source classes 0..C-1 where
    ``source_classes`` is set; otherwise a label is the class id.  Every
    target class is a source class (``cmd_uda`` checks that first).
    """
    ids = np.asarray(sorted(cfg.target_classes))[ds.labels] if cfg.target_classes else ds.labels
    labels = np.searchsorted(sorted(cfg.source_classes), ids) if cfg.source_classes else ids
    return D.LabeledDataset(images=ds.images, labels=labels.astype(np.int64), name=ds.name)


def _write_csv(path: Path, fields, rows) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def _prepare_outdir(cfg: Config, seeds) -> Path:
    """The output directory, holding the config and the seeds the command trains at."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(dump_config(cfg), encoding="utf-8")
    (out / "seeds.txt").write_text("\n".join(str(s) for s in seeds) + "\n")
    return out


def _save_net(path: Path, net: EmbeddingNetwork, cfg: Config, step: int = 0) -> None:
    save_checkpoint(path, net.state_dict(), config_text=dump_config(cfg), step=step)


def _load_net(path, cfg: Config, n_classes: int) -> EmbeddingNetwork:
    net = EmbeddingNetwork(_net_spec(cfg, n_classes), seed=0)
    net.load_state_dict(load_checkpoint(path).tensors)
    return net


# -- subcommands ------------------------------------------------------------


def _check_batch(cfg: Config, size: int, what: str) -> None:
    """A training batch of one image is a usage error on a net with
    batchnorm, which normalises by the batch's own statistics."""
    if size < 2 and any(ls.kind == "batchnorm" for _, ls in _net_spec(cfg, 2).layers):
        raise UsageError(f"{what} gives a training batch of {size} image; batchnorm needs >= 2")


def cmd_pretrain(cfg: Config) -> int:
    d1 = _load_data(cfg, "source")
    spec = _net_spec(cfg, n_classes=len(set(d1.classes)))
    _check_batch(cfg, min(cfg.batch_source, len(d1)), f"batch_source on {len(d1)} images")
    out = _prepare_outdir(cfg, [cfg.seed])
    net, record = trainer.pretrain_source(d1, spec, cfg)
    _write_csv(out / "pretrain_metrics.csv", CSV_FIELDS, record.rows)
    _save_net(out / "source.ckpt", net, cfg, step=cfg.pretrain_steps)
    acc = evaluate(net, d1).accuracy
    print(f"pretrain done: source train accuracy {acc:.4f}, "
          f"checkpoint {out / 'source.ckpt'}")
    return EXIT_OK


def _check_taps(cfg: Config, n_source: int, **kwargs) -> None:
    """trainer.discriminator_taps on the source net, raising a UsageError."""
    try:
        trainer.discriminator_taps(_net_spec(cfg, n_source), cfg, **kwargs)
    except ValueError as e:
        raise UsageError(str(e)) from e


def cmd_transfer(cfg: Config) -> int:
    # a baseline may train from scratch; every adaptation starts from the source net
    uses_source = any(trainer.BASELINES.get(m, True) for m in cfg.methods)
    ckpt_path = _require(cfg.checkpoint, "source checkpoint") if uses_source else None
    d1 = _load_data(cfg, "source")
    pool = _load_data(cfg, "target")
    test = _load_data(cfg, "test")
    n_source = len(set(d1.classes))
    n_target = len(set(pool.classes))
    disjoint = (tuple(cfg.source_classes) != tuple(cfg.target_classes)
                or cfg.experiment == "digits")
    # what would stop a later run, of any method, stops the command before any output
    _check_taps(cfg, n_source, head_classes=n_target, reinit_head=disjoint, embed=True)
    adapts = any(m in trainer.ADAPTATIONS for m in cfg.methods)
    for k in cfg.k_values:
        try:
            D.check_split(pool, k)
        except D.SplitError as e:
            raise UsageError(f"k_values: {e}") from e
        # every method trains on all of D2, an adaptation also on batches of D3
        _check_batch(cfg, k * n_target, f"k_values {k} of {n_target} classes")
        if adapts:
            _check_batch(cfg, min(cfg.batch_unlabeled, len(pool) - k * n_target),
                         f"batch_unlabeled on a D3 of {len(pool) - k * n_target} at k {k}")
    # read and checked once; a run only reads and clones it, so every run shares it
    source_net = _load_net(ckpt_path, cfg, n_source) if uses_source else None
    target_spec = _net_spec(cfg, n_target)
    out = _prepare_outdir(cfg, cfg.seeds)
    per_run = []
    for method in cfg.methods:
        for k in cfg.k_values:
            for seed in cfg.seeds:
                run_cfg = replace(cfg, seed=seed)
                d2, d3 = D.make_splits(pool, k, seed)
                if method in trainer.ADAPTATIONS:
                    net, record = trainer.adapt_joint(
                        source_net, d1, d2, d3, replace(run_cfg, **trainer.ADAPTATIONS[method]),
                        reinit_head=disjoint)
                else:  # a baseline reads only what its kind needs
                    net, record = trainer.run_baseline(method, d2, run_cfg, source_net=source_net,
                                                       net_spec=target_spec, reinit_head=disjoint)
                acc = evaluate(net, test).accuracy
                tag = f"{method}_k{k}_seed{seed}"
                _write_csv(out / f"metrics_{tag}.csv", CSV_FIELDS, record.rows)
                _save_net(out / f"{tag}.ckpt", net, run_cfg, step=run_cfg.steps)
                per_run.append({"method": method, "k": k, "seed": seed, "accuracy": acc})
                print(f"{tag}: test accuracy {acc:.4f}")
    _write_csv(out / "runs.csv", ["method", "k", "seed", "accuracy"], per_run)
    agg_rows = []
    for method in cfg.methods:
        for k in cfg.k_values:
            accs = [r["accuracy"] for r in per_run if r["method"] == method and r["k"] == k]
            agg = aggregate(accs) if len(accs) > 1 else Aggregate(accs[0], stderr="", n_seeds=1)
            agg_rows.append({"method": method, "k": k, **asdict(agg)})
    _write_csv(out / "aggregate.csv", ["method", "k", "mean", "stderr", "n_seeds"], agg_rows)
    print(f"aggregate table: {out / 'aggregate.csv'}")
    return EXIT_OK


def cmd_uda(cfg: Config) -> int:
    ckpt_path = _require(cfg.checkpoint, "source checkpoint")
    d1 = _load_data(cfg, "source")
    pool = _load_data(cfg, "target")
    # adapt_unsupervised scores the target with the source head: one label space
    foreign = sorted(set(cfg.target_classes or pool.classes)
                     - set(cfg.source_classes or d1.classes))
    if foreign:
        raise UsageError(f"uda needs the target classes among the source classes; "
                         f"{foreign} are not")
    n_classes = len(set(d1.classes))
    _check_taps(cfg, n_classes)
    # the source batches run in eval mode; only the unlabeled ones train
    _check_batch(cfg, min(cfg.batch_unlabeled, len(pool)), f"batch_unlabeled on {len(pool)} images")
    test = _in_source_order(_load_data(cfg, "test"), cfg)
    # read, checked and scored once; a run only reads and clones it
    source_net = _load_net(ckpt_path, cfg, n_classes)
    source_acc = evaluate(source_net, test).accuracy
    out = _prepare_outdir(cfg, cfg.seeds)
    rows = []
    for seed in cfg.seeds:
        run_cfg = replace(cfg, seed=seed)
        rng = np.random.default_rng((seed, 53))
        idx = rng.permutation(len(pool))
        d3 = D.UnlabeledDataset(images=pool.images[idx], name="uda-target")
        net, record = trainer.adapt_unsupervised(source_net, d1, d3, run_cfg)
        adapted_acc = evaluate(net, test).accuracy
        _write_csv(out / f"uda_metrics_seed{seed}.csv", CSV_FIELDS, record.rows)
        _save_net(out / f"uda_seed{seed}.ckpt", net, run_cfg, step=run_cfg.steps)
        rows.append({"seed": seed, "source_only": source_acc, "adapted": adapted_acc})
        print(f"seed {seed}: source_only {source_acc:.4f} adapted {adapted_acc:.4f}")
    _write_csv(out / "uda.csv", ["seed", "source_only", "adapted"], rows)
    if len(rows) >= 2:
        src = aggregate([r["source_only"] for r in rows])
        ada = aggregate([r["adapted"] for r in rows])
        print(f"source_only {src.mean:.4f} +/- {src.stderr:.4f}; "
              f"adapted {ada.mean:.4f} +/- {ada.stderr:.4f}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = run_suite(instances=args.instances, seed=args.seed, corrupt=args.corrupt)
    failed = False
    for name, err in results:
        status = "ok" if err <= TOLERANCE else "FAIL"
        if err > TOLERANCE:
            failed = True
        print(f"{name:24s} max rel err {err:.3e}  {status}")
    print(f"{len(results)} ops checked, tolerance {TOLERANCE:g}")
    return EXIT_RUNTIME if failed else EXIT_OK


def cmd_eval(cfg: Config) -> int:
    ckpt_path = _require(cfg.checkpoint, "checkpoint")
    test = _load_data(cfg, "test")
    n_classes = len(set(test.classes))
    net = _load_net(ckpt_path, cfg, n_classes)
    result = evaluate(net, test)
    print(f"accuracy {result.accuracy:.4f} on {result.n_examples} examples")
    for c in sorted(result.per_class):
        print(f"  class {c}: {result.per_class[c]:.4f}")
    return EXIT_OK


def _build_parser():
    parser = argparse.ArgumentParser(prog="xferlearn")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("pretrain", "transfer", "uda", "eval"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key=value config file")
        # any other --key value pair overrides the matching config entry
    g = sub.add_parser("gradcheck")
    g.add_argument("--instances", type=int, default=10)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--corrupt", action="store_true",
                   help="include a deliberately broken rule (self-test)")
    return parser


def _parse_overrides(tokens) -> dict:
    out = {}
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if not tok.startswith("--"):
            raise UsageError(f"expected --key, got {tok!r}")
        if i + 1 >= len(tokens):
            raise UsageError(f"missing value for {tok}")
        out[tok[2:]] = tokens[i + 1]
        i += 2
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args, extra = parser.parse_known_args(argv)
    try:
        if args.command == "gradcheck":
            return cmd_gradcheck(args)
        overrides = _parse_overrides(extra)
        cfg = load_config(args.config, overrides)
        handler = {"pretrain": cmd_pretrain, "transfer": cmd_transfer,
                   "uda": cmd_uda, "eval": cmd_eval}[args.command]
        return handler(cfg)
    except (ConfigError, UsageError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (CheckpointError, D.IdxParseError, D.SplitError,
            trainer.TrainDivergence, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
