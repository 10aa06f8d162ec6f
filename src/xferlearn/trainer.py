"""Training procedures: source pretraining, joint adaptation, baselines,
and the unsupervised-adaptation ablation.

Every procedure sets up, then hands one step function to ``_fit``, the
only step loop: supervised training (pretraining and both baselines) runs
``_supervised_step``, and both adaptation procedures run ``_adapt``,
whose step (``adversarial_step``) runs one discriminator update followed
by one encoder/classifier update; both updates read the same forward pass
of each batch, and there are no inner optimization loops.  The source
encoder stays frozen in eval mode throughout adaptation, so
``SourceTaps`` forwards each source image through it at most once per run.
"""

from __future__ import annotations

import contextlib
import copy
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import losses
from .data import LabeledDataset, UnlabeledDataset, normalize_batch
from .discriminator import DiscriminatorSpec, MultiLayerDiscriminator
from .layers import EmbeddingNetwork, NetworkSpec, clone_into_target
from .metrics import EVAL_BLOCK, evaluate
from .optim import Adam
from .tensor import Tensor, backward, current_dtype, no_grad


class TrainDivergence(RuntimeError):
    pass


@dataclass
class TrainConfig:
    alpha: float = 0.1
    beta: float = 0.1
    tau_st: float = 2.0
    tau_tt: float = 1.0
    gamma: float = 0.1
    fusion: str = "sum"
    lr: float = 1e-3
    batch_source: int = 128
    batch_unlabeled: int = 128
    steps: int = 1000
    pretrain_steps: int = 1000
    eval_every: int = 200
    seed: int = 0
    embed_layer: str = "fc1"
    disc_taps: tuple = ()  # names of encoder taps fed to the discriminator
    head_widths: tuple = (500, 500, 500)
    stop_grad_prototypes: bool = False
    deterministic: bool = True  # read by nothing: runs are bit-identical either way
    grad_clip: float | None = None
    src_proto_per_class: int = 1000

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be >= 0")
        if self.tau_st <= 0 or self.tau_tt <= 0:
            raise ValueError("temperatures must be > 0")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")


@dataclass
class TrainRecord:
    rows: list = field(default_factory=list)  # metrics CSV rows
    wall_clock: float = 0.0

    def log(self, step: int, report: losses.LossReport, eval_acc=None) -> None:
        self.rows.append({
            "step": step,
            "loss_sup": report.sup,
            "loss_dt_d": report.dt_d,
            "loss_dt_e": report.dt_e,
            "loss_st_src": report.st_src,
            "loss_st_sup": report.st_sup,
            "loss_st_unsup": report.st_unsup,
            "loss_total": report.total,
            "eval_acc": "" if eval_acc is None else eval_acc,
        })


def _check_finite(report: losses.LossReport, step: int) -> None:
    """Raise TrainDivergence naming the first non-finite loss term and its step."""
    for term, value in asdict(report).items():
        if not np.isfinite(value):
            raise TrainDivergence(f"loss term {term!r} became non-finite at step {step}")


def _fit(steps: int, train_step) -> TrainRecord:
    """Call ``train_step`` on steps 1..``steps`` and log the
    ``(report, eval_acc)`` each call returns; the clock starts after all set-up."""
    record = TrainRecord()
    t0 = time.time()
    for step in range(1, steps + 1):
        report, eval_acc = train_step(step)
        record.log(step, report, eval_acc)
    record.wall_clock = time.time() - t0
    return record


def _supervised_step(net: EmbeddingNetwork, opt: Adam, x: Tensor, labels,
                     step: int) -> losses.LossReport:
    """One cross-entropy update of ``net`` on the batch ``x``."""
    opt.zero_grads()
    logits, _ = net.forward(x)
    loss = losses.supervised_ce(logits, labels)
    report = losses.LossReport(sup=loss.item(), total=loss.item())
    _check_finite(report, step)
    backward(loss)
    opt.step()
    return report


def pretrain_source(d1: LabeledDataset, net_spec: NetworkSpec, config: TrainConfig):
    """Supervised pretraining on the labeled source set."""
    net = EmbeddingNetwork(net_spec, seed=config.seed)
    opt = Adam(net.parameters(), lr=config.lr, clip=config.grad_clip)
    rng = np.random.default_rng((config.seed, 17))

    def train_step(step):
        idx = rng.choice(len(d1), size=min(config.batch_source, len(d1)), replace=False)
        report = _supervised_step(net, opt, normalize_batch(d1.images[idx]), d1.labels[idx],
                                  step)
        if config.eval_every and step % config.eval_every == 0:
            return report, evaluate(net, d1).accuracy
        return report, None

    return net, _fit(config.pretrain_steps, train_step)


def _target(source_net: EmbeddingNetwork, config: TrainConfig, head_classes: int | None = None,
            reinit_head: bool = False) -> EmbeddingNetwork:
    """Freeze ``source_net`` in eval mode; return its clone in training mode."""
    for p in source_net.parameters():
        p.requires_grad = False
    source_net.eval()
    target_net = clone_into_target(source_net, head_classes=head_classes,
                                   head_seed=config.seed + 3, reinit_head=reinit_head)
    target_net.train()
    return target_net


class SourceTaps:
    """Taps of the frozen source net for the images of ``d1``, kept by index.

    A frozen net runs in eval mode, where every layer acts on one image at
    a time, so an image's taps are fixed for the whole run.  Each image is
    forwarded at most once, in blocks of ``EVAL_BLOCK`` images as
    ``evaluate`` does; each named tap is one ``(len(d1), width)`` array
    whose rows are written as their images are first looked up.
    """

    def __init__(self, source_net: EmbeddingNetwork, d1: LabeledDataset, names):
        for name in names:
            if name not in source_net.spec.taps:
                raise ValueError(f"tap {name!r} not among the source net's taps "
                                 f"{list(source_net.spec.taps)}")
        source_net.eval()
        self.net, self.d1 = source_net, d1
        self.rows = {name: np.empty((len(d1), int(np.prod(source_net.shapes[name]))),
                                    dtype=current_dtype()) for name in names}
        self.seen = np.zeros(len(d1), dtype=bool)

    @no_grad()
    def __call__(self, idx: np.ndarray) -> dict:
        """name -> Tensor of the taps of ``d1`` images ``idx``; the images not
        seen before go through the source net."""
        new = idx[~self.seen[idx]]
        bounds = [*range(0, new.size, EVAL_BLOCK), new.size]
        # a one-image forward takes other BLAS kernels, which sum in another
        # order, so a one-image tail joins the block before it and a lone
        # miss goes through as a pair of itself
        if len(bounds) > 2 and new.size % EVAL_BLOCK == 1:
            del bounds[-2]
        for start, stop in zip(bounds, bounds[1:]):
            block = new[start:stop]
            images = self.d1.images[block if block.size > 1 else np.repeat(block, 2)]
            _, taps = self.net.forward(normalize_batch(images))
            for name, tap in taps:
                if name in self.rows:
                    self.rows[name][block] = tap.data.reshape(len(images), -1)[:block.size]
        self.seen[new] = True
        return {name: Tensor(rows[idx]) for name, rows in self.rows.items()}


def source_prototypes(source: SourceTaps, config: TrainConfig) -> Tensor:
    """Per-class centroids of the frozen source net's ``embed_layer`` taps."""
    d1 = source.d1
    rng = np.random.default_rng((config.seed, 23))
    protos = []
    for c in sorted(set(d1.classes)):
        idx = np.flatnonzero(d1.labels == c)
        if idx.size > config.src_proto_per_class:
            idx = rng.choice(idx, size=config.src_proto_per_class, replace=False)
        protos.append(source(idx)[config.embed_layer].data.mean(axis=0))
    return Tensor(np.stack(protos))


def _build_discriminator(net: EmbeddingNetwork, tap_names, config: TrainConfig
                         ) -> MultiLayerDiscriminator:
    widths = [int(np.prod(net.shapes[name])) for name in tap_names]
    spec = DiscriminatorSpec(tap_widths=widths, head_widths=list(config.head_widths),
                             decay=config.gamma, fusion=config.fusion)
    return MultiLayerDiscriminator(spec, seed=config.seed + 7)


def adversarial_step(step: int, disc: MultiLayerDiscriminator, disc_opt: Adam,
                     enc_opt: Adam, src_taps: dict, unl_taps: dict, tap_names,
                     encoder_objective) -> losses.LossReport:
    """One discriminator update, then one encoder update, on one forward per batch.

    ``src_taps`` and ``unl_taps`` (name -> Tensor dicts) are the taps of
    the source batch and of the unlabeled target batch; the step forwards
    neither net.  The discriminator learns from detached copies of the
    target taps, which changes no target weight, so the encoder update
    reuses the same taps with their graph; the updated discriminator
    scores both batches again.
    ``encoder_objective(l_dt_e, unl_taps, report)`` returns the encoder's
    total loss from the adversarial term and the target taps, filling in
    the report's other terms.  The encoder steps only when that total
    depends on its weights.
    """
    src_flat = [src_taps[n].reshape(src_taps[n].shape[0], -1) for n in tap_names]
    unl_flat = [unl_taps[n].reshape(unl_taps[n].shape[0], -1) for n in tap_names]

    loss_d = losses.domain_loss_D(disc.forward(src_flat),
                                  disc.forward([t.detach() for t in unl_flat]))
    report = losses.LossReport(dt_d=loss_d.item())
    _check_finite(report, step)
    disc_opt.zero_grads()
    backward(loss_d)
    disc_opt.step()

    enc_opt.zero_grads()
    disc_opt.zero_grads()
    # the encoder's gradient comes from the target taps alone: the source
    # scores, and any scores without a graph behind the target taps, need none
    with no_grad():
        d_src = disc.forward(src_flat)
    graph = any(t.requires_grad for t in unl_flat)
    with contextlib.nullcontext() if graph else no_grad():
        l_dt_e = losses.domain_loss_E(d_src, disc.forward(unl_flat))
    report.dt_e = l_dt_e.item()
    total = encoder_objective(l_dt_e, unl_taps, report)
    report.total = total.item()
    _check_finite(report, step)
    if total.requires_grad:
        backward(total)
        enc_opt.step()
    enc_opt.zero_grads()
    disc_opt.zero_grads()
    return report


def _adapt(target_net: EmbeddingNetwork, source: SourceTaps, d3: UnlabeledDataset,
           config: TrainConfig, rng_tag: int, tap_names, target_forward,
           encoder_objective) -> TrainRecord:
    """The adversarial loop of both adaptation procedures.

    Each step draws a source and an unlabeled batch under ``rng_tag``, reads
    the source batch's taps from ``source``, forwards the unlabeled batch
    with ``target_forward`` and runs ``adversarial_step``; the encoder
    optimizer updates the target weights that require a gradient.
    """
    disc = _build_discriminator(target_net, tap_names, config)
    enc_opt = Adam([p for p in target_net.parameters() if p.requires_grad],
                   lr=config.lr, clip=config.grad_clip)
    disc_opt = Adam(disc.parameters(), lr=config.lr, clip=config.grad_clip)
    # the step reads only the taps that ``source`` keeps, so the forward stops
    # at the deepest of them
    last_tap = max(source.rows, key=list(target_net.shapes).index)
    d1 = source.d1
    rng = np.random.default_rng((config.seed, rng_tag))

    def train_step(step):
        src_idx = rng.choice(len(d1), size=min(config.batch_source, len(d1)), replace=False)
        unl_idx = rng.choice(len(d3), size=min(config.batch_unlabeled, len(d3)), replace=False)
        src_taps = source(src_idx)
        _, unl_taps = target_forward(normalize_batch(d3.images[unl_idx]), until=last_tap)
        return adversarial_step(step, disc, disc_opt, enc_opt, src_taps, dict(unl_taps),
                                tap_names, encoder_objective), None

    return _fit(config.steps, train_step)


def adapt_joint(source_net: EmbeddingNetwork, d1: LabeledDataset, d2: LabeledDataset,
                d3: UnlabeledDataset, config: TrainConfig, head_classes: int | None = None,
                reinit_head: bool = False):
    """Joint adaptation: supervised + adversarial + semantic transfer.

    With alpha == beta == 0 this is plain fine-tuning on D2: it runs
    ``run_baseline("fine_tune", ...)`` itself, so the trajectory is the
    fine-tune baseline's under shared seeds.
    """
    if config.alpha == 0 and config.beta == 0:
        return run_baseline("fine_tune", d2, config, source_net=source_net,
                            head_classes=head_classes, reinit_head=reinit_head)
    n_target_classes = head_classes or len(set(d2.classes))
    target_net = _target(source_net, config, n_target_classes, reinit_head)
    tap_names = config.disc_taps or tuple(source_net.spec.taps)
    source = SourceTaps(source_net, d1, (*tap_names, config.embed_layer))
    for name in tap_names:
        src_w, tgt_w = (int(np.prod(net.shapes[name])) for net in (source_net, target_net))
        if src_w != tgt_w:
            raise ValueError(f"tap {name!r} is {src_w} wide in the source net but {tgt_w} "
                             f"in the target net; leave it out of disc_taps")
    src_protos = source_prototypes(source, config)
    x_d2 = normalize_batch(d2.images)  # full-batch D2 every step

    def encoder_objective(l_dt_e, unl_taps, report):
        logits2, taps2 = target_net.forward(x_d2)
        l_sup = losses.supervised_ce(logits2, d2.labels)
        l_st, st_src, st_sup, st_unsup = losses.semantic_total(
            src_protos, dict(taps2)[config.embed_layer], d2.labels,
            unl_taps[config.embed_layer], config.tau_st, config.tau_tt, n_target_classes,
            detach_prototypes=config.stop_grad_prototypes)
        report.sup, report.st_src, report.st_sup, report.st_unsup = (
            t.item() for t in (l_sup, st_src, st_sup, st_unsup))
        return losses.total_objective(l_sup, l_dt_e, l_st, config.alpha, config.beta)

    return target_net, _adapt(target_net, source, d3, config, 31, tap_names,
                              target_net.forward, encoder_objective)


def run_baseline(kind: str, d2: LabeledDataset, config: TrainConfig,
                 source_net: EmbeddingNetwork | None = None,
                 net_spec: NetworkSpec | None = None,
                 head_classes: int | None = None, reinit_head: bool = False):
    """Supervised-only baselines: target_only (from scratch) or fine_tune."""
    n_classes = head_classes or len(set(d2.classes))
    if kind == "target_only":
        if net_spec is None:
            raise ValueError("target_only needs a network spec")
        spec = copy.deepcopy(net_spec)
        spec.layers[-1][1].out_channels = n_classes
        net = EmbeddingNetwork(spec, seed=config.seed + 3)
    elif kind == "fine_tune":
        if source_net is None:
            raise ValueError("fine_tune needs a source checkpoint")
        net = _target(source_net, config, n_classes, reinit_head)
    else:
        raise ValueError(f"unknown baseline {kind!r}")
    opt = Adam(net.parameters(), lr=config.lr, clip=config.grad_clip)
    x_d2 = normalize_batch(d2.images)
    return net, _fit(config.steps,
                     lambda step: (_supervised_step(net, opt, x_d2, d2.labels, step), None))


def adapt_unsupervised(source_net: EmbeddingNetwork, d1: LabeledDataset,
                       d3: UnlabeledDataset, config: TrainConfig):
    """Adversarial-only adaptation with a shared label space.

    The classifier head is copied from the source network and frozen; only
    the target encoder body and the discriminator train.
    """
    target_net = _target(source_net, config)
    head_name = target_net.spec.layers[-1][0]
    for n, t in target_net.params.items():
        if n.startswith(f"{target_net.prefix}{head_name}."):
            t.requires_grad = False
    tap_names = config.disc_taps or tuple(source_net.spec.taps)
    source = SourceTaps(source_net, d1, tap_names)

    def encoder_objective(l_dt_e, unl_taps, report):
        return losses.total_objective(Tensor(0.0), l_dt_e, Tensor(0.0), config.alpha, 0.0)

    # at alpha == 0 the encoder never steps, so its forward records no graph
    target_forward = no_grad()(target_net.forward) if config.alpha == 0 else target_net.forward
    return target_net, _adapt(target_net, source, d3, config, 37, tap_names,
                              target_forward, encoder_objective)
