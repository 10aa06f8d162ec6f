"""Loss terms of the joint transfer objective.

Covers the supervised cross entropy, the adversarial discriminator and
encoder losses, prototype/similarity machinery, the entropy-based
semantic transfer terms and their combination, and the weighted total.
All losses are mean-reduced over their batch and reported in nats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import ParameterError, Tensor


@dataclass
class LossReport:
    sup: float = 0.0
    dt_d: float = 0.0
    dt_e: float = 0.0
    st_src: float = 0.0
    st_sup: float = 0.0
    st_unsup: float = 0.0
    total: float = 0.0


def supervised_ce(logits: Tensor, labels) -> Tensor:
    """Mean cross entropy of softmax(logits) against integer labels."""
    labels = np.asarray(labels)
    n, k = logits.shape
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        raise ParameterError(f"labels out of range [0, {k})")
    logp = T.log_softmax(logits)
    onehot = np.zeros((n, k), dtype=T.current_dtype())
    onehot[np.arange(n), labels] = 1.0
    return -(logp * Tensor(onehot)).sum() / float(n)


def domain_loss_D(d_src_logits: Tensor, d_tgt_logits: Tensor) -> Tensor:
    """Discriminator objective: source scored real, target scored fake."""
    return -(T.log_sigmoid(d_src_logits).mean()) - (
        T.log_sigmoid(-1.0 * d_tgt_logits).mean()
    )


def domain_loss_E(d_src_logits: Tensor, d_tgt_logits: Tensor) -> Tensor:
    """Encoder objective: labels inverted (non-saturating form)."""
    return -(T.log_sigmoid(-1.0 * d_src_logits).mean()) - (
        T.log_sigmoid(d_tgt_logits).mean()
    )


def normalize_rows(x: Tensor, eps: float = 0.0) -> Tensor:
    norms = T.sqrt((x * x).sum(axis=-1, keepdims=True))
    if (norms.data <= eps).any():
        raise ParameterError("zero-norm support vector")
    return x / norms


def _transpose(x: Tensor) -> Tensor:
    def bwd(g):
        return (g.T,)

    return T._make(x.data.T, "transpose", (x,), bwd)


def similarity(queries: Tensor, support: Tensor) -> Tensor:
    """Dot products of L2-normalized support rows with unnormalized queries.

    Returns an N x C matrix; row i holds query i's similarity to each
    support row (prototype or labeled example).
    """
    return T.matmul(queries, _transpose(normalize_rows(support)))


def prototypes(embeddings: Tensor, labels, n_classes: int) -> Tensor:
    """Per-class mean embeddings, C x D, classes 0..n_classes-1."""
    labels = np.asarray(labels)
    rows = []
    for c in range(n_classes):
        idx = np.flatnonzero(labels == c)
        if idx.size == 0:
            raise ParameterError(f"class {c} has no support examples")
        rows.append(T.index_select(embeddings, idx, axis=0).mean(axis=0, keepdims=True))
    return T.concat(rows, axis=0)


def entropy_transfer(queries: Tensor, support: Tensor, tau: float) -> Tensor:
    """Mean entropy of the temperature-softmaxed similarity vectors."""
    if tau <= 0:
        raise ParameterError(f"temperature must be > 0, got {tau}")
    sims = similarity(queries, support)
    probs = T.softmax(sims, temperature=tau)
    n = queries.shape[0]
    return T.entropy(probs) / float(n)


def metric_ce(queries: Tensor, labels, protos: Tensor, tau: float = 1.0) -> Tensor:
    """Cross entropy over similarity-to-centroid logits."""
    labels = np.asarray(labels)
    n_classes = protos.shape[0]
    if labels.max(initial=0) >= n_classes or labels.min(initial=0) < 0:
        raise ParameterError("label without a matching prototype")
    sims = similarity(queries, protos)
    if tau != 1.0:
        sims = sims / float(tau)
    return supervised_ce(sims, labels)


def semantic_total(
    src_support: Tensor,
    tgt_labeled: Tensor,
    tgt_labels,
    tgt_unlabeled: Tensor | None,
    tau_st: float = 2.0,
    tau_tt: float = 1.0,
    n_classes: int | None = None,
    detach_prototypes: bool = False,
):
    """Combined semantic loss and its three components.

    Returns (total, st_src, st_sup, st_unsup); missing unlabeled batch
    drops the two entropy terms that need it.  With ``detach_prototypes``
    the target prototypes are means of a detached copy of ``tgt_labeled``,
    so no gradient reaches it through them.
    """
    if n_classes is None:
        n_classes = int(np.asarray(tgt_labels).max()) + 1
    support = tgt_labeled.detach() if detach_prototypes else tgt_labeled
    protos = prototypes(support, tgt_labels, n_classes)
    st_sup = metric_ce(tgt_labeled, tgt_labels, protos)
    if tgt_unlabeled is not None and tgt_unlabeled.shape[0] > 0:
        st_src = entropy_transfer(tgt_unlabeled, src_support, tau_st)
        st_unsup = entropy_transfer(tgt_unlabeled, protos, tau_tt)
        total = st_src + st_sup + st_unsup
    else:
        st_src = Tensor(0.0)
        st_unsup = Tensor(0.0)
        total = st_sup
    return total, st_src, st_sup, st_unsup


def total_objective(l_sup: Tensor, l_dt_e: Tensor, l_st: Tensor,
                    alpha: float, beta: float) -> Tensor:
    """Encoder-side objective: supervised + alpha*adversarial + beta*semantic."""
    if alpha < 0 or beta < 0:
        raise ParameterError(f"alpha and beta must be >= 0, got {alpha}, {beta}")
    total = l_sup
    if alpha:
        total = total + alpha * l_dt_e
    if beta:
        total = total + beta * l_st
    return total
