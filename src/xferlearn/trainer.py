"""Training procedures: source pretraining, joint adaptation, baselines,
and the unsupervised-adaptation ablation.

Every procedure sets up, then hands one step function to ``_fit``, the
only step loop: supervised training (pretraining and both baselines) runs
``_supervised_step``, and both adaptation procedures run ``_adapt``,
whose step (``adversarial_step``) runs one discriminator update followed
by one encoder/classifier update; both updates read the same forward pass
of each batch, and there are no inner optimization loops.  Adaptation
trains a clone of the source net and only reads the caller's net, in eval
mode, so ``SourceTaps`` forwards each source image through it at most once.
"""

from __future__ import annotations

import contextlib
import copy
import time
from dataclasses import asdict, astuple, dataclass, field

import numpy as np

from . import losses
from .data import LabeledDataset, UnlabeledDataset, normalize_batch
from .discriminator import DiscriminatorSpec, MultiLayerDiscriminator
from .layers import EmbeddingNetwork, NetworkSpec, clone_into_target
from .metrics import eval_forwards, evaluate
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
    disc_taps: tuple[str, ...] = ()  # names of encoder taps fed to the discriminator
    head_widths: tuple[int, ...] = (500, 500, 500)
    stop_grad_prototypes: bool = False
    deterministic: bool = True  # read by nothing: runs are bit-identical either way
    grad_clip: float | None = None
    src_proto_per_class: int = 1000

    def __post_init__(self):
        # written so that NaN, for which every comparison is False, fails too
        if not (0 <= self.alpha < np.inf and 0 <= self.beta < np.inf):
            raise ValueError(f"alpha and beta must be finite and >= 0, got {self.alpha}, "
                             f"{self.beta}")
        if not (0 < self.tau_st < np.inf and 0 < self.tau_tt < np.inf):
            raise ValueError(f"temperatures tau_st and tau_tt must be finite and > 0, got "
                             f"{self.tau_st}, {self.tau_tt}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        if self.fusion not in ("sum", "concat"):
            raise ValueError(f"fusion must be sum or concat, got {self.fusion!r}")
        for name in ("steps", "pretrain_steps", "eval_every", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("batch_source", "batch_unlabeled", "src_proto_per_class"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (self.lr > 0 and np.isfinite(self.lr)):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if any(width < 1 for width in self.head_widths):
            raise ValueError(f"head_widths must all be >= 1, got {self.head_widths}")
        if self.grad_clip is not None and not self.grad_clip > 0:
            raise ValueError(f"grad_clip must be None (no clipping) or > 0, got {self.grad_clip}")


@dataclass
class TrainRecord:
    rows: list = field(default_factory=list)  # metrics CSV rows
    wall_clock: float = 0.0

    def log(self, step: int, report: losses.LossReport, eval_acc=None) -> None:
        self.rows.append({"step": step, **dict(zip(losses.TERMS, astuple(report))),
                          "eval_acc": "" if eval_acc is None else eval_acc})


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
    """The clone of ``source_net`` that a run trains; ``source_net`` is left as it was."""
    return clone_into_target(source_net, head_classes=head_classes,
                             head_seed=config.seed + 3, reinit_head=reinit_head)


class SourceTaps:
    """Taps of the source net for the images of ``d1``, kept by index.

    In eval mode every layer of the source net acts on one image at a time,
    so an image's taps are fixed for the whole run.  Each image is
    forwarded at most once, by ``metrics.eval_forwards`` as far as the
    deepest kept tap (``until``); each named tap is one ``(len(d1), width)``
    array whose rows are written as their images are first looked up.
    """

    def __init__(self, source_net: EmbeddingNetwork, d1: LabeledDataset, names):
        self.net, self.d1 = source_net, d1
        self.rows = {name: np.empty((len(d1), int(np.prod(source_net.shapes[name]))),
                                    dtype=current_dtype()) for name in names}
        self.until = max(self.rows, key=list(source_net.shapes).index)
        self.seen = np.zeros(len(d1), dtype=bool)

    def __call__(self, idx: np.ndarray) -> dict:
        """name -> Tensor of the taps of ``d1`` images ``idx``; the images not
        seen before go through the source net."""
        new = idx[~self.seen[idx]]
        for block, _, taps in eval_forwards(self.net, self.d1.images[new], until=self.until):
            for name, kept in self.rows.items():
                kept[new[block]] = taps[name].reshape(len(taps[name]), -1)
        self.seen[new] = True
        return {name: Tensor(rows[idx]) for name, rows in self.rows.items()}


def source_prototypes(source: SourceTaps, config: TrainConfig) -> Tensor:
    """Per-class centroids of the source net's ``embed_layer`` taps."""
    d1 = source.d1
    rng = np.random.default_rng((config.seed, 23))
    protos = []
    for c in sorted(set(d1.classes)):
        idx = np.flatnonzero(d1.labels == c)
        if idx.size > config.src_proto_per_class:
            idx = rng.choice(idx, size=config.src_proto_per_class, replace=False)
        protos.append(source(idx)[config.embed_layer].data.mean(axis=0))
    return Tensor(np.stack(protos))


def discriminator_taps(spec: NetworkSpec, config: TrainConfig, head_classes: int | None = None,
                       reinit_head: bool = False, embed: bool = False) -> tuple:
    """The discriminator's taps for adapting a source net of ``spec`` to a
    head of ``head_classes`` outputs (None: the source head's width).

    ``config.disc_taps``, or else every tap but a new head's (``reinit_head``
    or a changed width): fresh logits are not an adapted feature.  Raises
    ValueError where one of them, or with ``embed`` ``config.embed_layer``,
    is not a tap of the net or is a head tap whose width changes, and where
    the taps are not distinct and shallow to deep, as the discriminator fuses them.
    """
    head_name, head = spec.layers[-1]
    resized = head_classes is not None and head_classes != head.out_channels
    names = config.disc_taps or tuple(
        name for name in spec.taps if not ((reinit_head or resized) and name == head_name))
    for name in (*names, config.embed_layer) if embed else names:
        if name not in spec.taps:
            raise ValueError(f"tap {name!r} not among the source net's taps {list(spec.taps)}")
        if resized and name == head_name:
            raise ValueError(f"tap {name!r} is {head.out_channels} wide in the source net but "
                             f"{head_classes} in the target net; leave it out")
    once = sorted(set(names), key=[name for name, _ in spec.layers].index)
    if list(names) != once:
        raise ValueError(f"discriminator taps {list(names)} must name each tap once, shallow "
                         f"to deep: {once}")
    return names


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
        enc_opt.zero_grads()
        backward(total)
        enc_opt.step()
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
    d1 = source.d1
    rng = np.random.default_rng((config.seed, rng_tag))

    def train_step(step):
        src_idx = rng.choice(len(d1), size=min(config.batch_source, len(d1)), replace=False)
        unl_idx = rng.choice(len(d3), size=min(config.batch_unlabeled, len(d3)), replace=False)
        src_taps = source(src_idx)
        # the step reads only the taps that ``source`` keeps: stop at the deepest
        _, unl_taps = target_forward(normalize_batch(d3.images[unl_idx]), until=source.until)
        return adversarial_step(step, disc, disc_opt, enc_opt, src_taps, dict(unl_taps),
                                tap_names, encoder_objective), None

    return _fit(config.steps, train_step)


def adapt_joint(source_net: EmbeddingNetwork, d1: LabeledDataset, d2: LabeledDataset,
                d3: UnlabeledDataset, config: TrainConfig, reinit_head: bool = False):
    """Joint adaptation: supervised + adversarial + semantic transfer.

    The head has one output per class of D2; ``discriminator_taps`` picks
    and checks the taps the discriminator reads.

    With alpha == beta == 0 this is plain fine-tuning on D2: it runs
    ``run_baseline("fine_tune", ...)`` itself, so the trajectory is the
    fine-tune baseline's under shared seeds.
    """
    if config.alpha == 0 and config.beta == 0:
        return run_baseline("fine_tune", d2, config, source_net=source_net,
                            reinit_head=reinit_head)
    n_target_classes = len(set(d2.classes))
    tap_names = discriminator_taps(source_net.spec, config, n_target_classes, reinit_head,
                                   embed=True)
    target_net = _target(source_net, config, n_target_classes, reinit_head)
    source = SourceTaps(source_net, d1, (*tap_names, config.embed_layer))
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


# The transfer methods, in the order the CLI lists them.  Each baseline is a
# kind of run_baseline, trained on D2 alone, from scratch or from the source
# net; each adaptation runs adapt_joint, which also reads D3 and trains a
# discriminator, with the TrainConfig fields that it fixes.
BASELINES = {"target_only": False, "fine_tune": True}  # kind -> starts from the source net
ADAPTATIONS = {"full": {}, "adv_only": {"beta": 0.0}}
METHODS = (*BASELINES, *ADAPTATIONS)


def run_baseline(kind: str, d2: LabeledDataset, config: TrainConfig,
                 source_net: EmbeddingNetwork | None = None,
                 net_spec: NetworkSpec | None = None, reinit_head: bool = False):
    """Supervised-only baselines: target_only (from scratch) or fine_tune,
    with one output per class of D2."""
    n_classes = len(set(d2.classes))
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
    tap_names = discriminator_taps(source_net.spec, config)
    target_net = _target(source_net, config)
    head_name = target_net.spec.layers[-1][0]
    target_net.params[f"{head_name}.w"].requires_grad = False
    target_net.params[f"{head_name}.b"].requires_grad = False
    source = SourceTaps(source_net, d1, tap_names)

    def encoder_objective(l_dt_e, unl_taps, report):
        return losses.total_objective(Tensor(0.0), l_dt_e, Tensor(0.0), config.alpha, 0.0)

    # at alpha == 0 the encoder never steps, so its forward records no graph
    target_forward = no_grad()(target_net.forward) if config.alpha == 0 else target_net.forward
    return target_net, _adapt(target_net, source, d3, config, 37, tap_names,
                              target_forward, encoder_objective)
