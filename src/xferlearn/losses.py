"""Loss terms of the joint transfer objective.

Covers the supervised cross entropy, the adversarial discriminator and
encoder losses, prototype/similarity machinery, the entropy-based
semantic transfer terms and their combination, and the weighted total.
All losses are mean-reduced over their batch and reported in nats.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

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


# the column of each LossReport field in a metrics row, in field order
TERMS = tuple(f"loss_{f.name}" for f in fields(LossReport))


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


def normalize_rows(x: Tensor) -> Tensor:
    norms = T.sqrt((x * x).sum(axis=-1, keepdims=True))
    if (norms.data <= 0).any():
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
        rows.append(T.index_select(embeddings, idx).mean(axis=0, keepdims=True))
    return T.concat(rows, axis=0)


def entropy_transfer(queries: Tensor, support: Tensor, tau: float) -> Tensor:
    """Mean entropy of the temperature-softmaxed similarity vectors."""
    if tau <= 0:
        raise ParameterError(f"temperature must be > 0, got {tau}")
    sims = similarity(queries, support)
    probs = T.softmax(sims, temperature=tau)
    n = queries.shape[0]
    return T.entropy(probs) / float(n)


def metric_ce(queries: Tensor, labels, protos: Tensor) -> Tensor:
    """Cross entropy over similarity-to-centroid logits."""
    labels = np.asarray(labels)
    n_classes = protos.shape[0]
    if labels.max(initial=0) >= n_classes or labels.min(initial=0) < 0:
        raise ParameterError("label without a matching prototype")
    return supervised_ce(similarity(queries, protos), labels)


def semantic_total(src_support: Tensor, tgt_labeled: Tensor, tgt_labels,
                   tgt_unlabeled: Tensor, tau_st: float, tau_tt: float, n_classes: int,
                   detach_prototypes: bool = False):
    """Combined semantic loss and its three components.

    Returns (total, st_src, st_sup, st_unsup).  With ``detach_prototypes``
    the target prototypes are means of a detached copy of ``tgt_labeled``,
    so no gradient reaches it through them.
    """
    support = tgt_labeled.detach() if detach_prototypes else tgt_labeled
    protos = prototypes(support, tgt_labels, n_classes)
    st_sup = metric_ce(tgt_labeled, tgt_labels, protos)
    st_src = entropy_transfer(tgt_unlabeled, src_support, tau_st)
    st_unsup = entropy_transfer(tgt_unlabeled, protos, tau_tt)
    return st_src + st_sup + st_unsup, st_src, st_sup, st_unsup


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
