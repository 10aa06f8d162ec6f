"""Accuracy evaluation and multi-seed aggregation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import LabeledDataset, normalize_batch
from .tensor import no_grad


@dataclass
class EvalResult:
    accuracy: float
    n_examples: int
    per_class: dict = field(default_factory=dict)


@dataclass
class Aggregate:
    mean: float
    stderr: float
    n_seeds: int


# images per eval-mode forward: a block's conv activations stay a few MiB
EVAL_BLOCK = 32


def eval_forwards(net, images: np.ndarray, until: str | None = None):
    """Forward ``images`` through ``net`` in eval mode (``training=False``) without
    a graph, in blocks of ``EVAL_BLOCK``; yield ``(rows, out, taps)`` per block.

    ``rows`` is the block's slice of ``images``; ``out`` (the logits, or
    with ``until`` that layer's output) and ``taps`` (name -> array) hold
    its rows alone.  A one-image forward takes other BLAS kernels, which
    sum in another order, so a one-image tail joins the block before it
    and a lone image goes through as a pair of itself.  The net is only
    read: no weight, statistic or flag of it changes.
    """
    bounds = [*range(0, len(images), EVAL_BLOCK), len(images)]
    if len(bounds) > 2 and len(images) % EVAL_BLOCK == 1:
        del bounds[-2]
    for start, stop in zip(bounds, bounds[1:]):
        n = stop - start
        with no_grad():
            out, taps = net.forward(normalize_batch(images[start:stop] if n > 1 else
                                                    images[[start, start]]),
                                    until=until, training=False)
        yield slice(start, stop), out.data[:n], {name: t.data[:n] for name, t in taps}


def evaluate(net, dataset: LabeledDataset) -> EvalResult:
    """Argmax accuracy of net over a labeled dataset (eval mode, first-index ties),
    from the blocks of ``eval_forwards``."""
    if len(dataset) == 0:
        raise ValueError("empty evaluation dataset")
    preds = np.concatenate([np.argmax(out, axis=1)
                            for _, out, _ in eval_forwards(net, dataset.images)])
    labels = dataset.labels
    total = np.bincount(labels)
    correct = np.bincount(labels[preds == labels], minlength=total.size)
    per_class = {c: int(correct[c]) / int(total[c]) for c in np.flatnonzero(total).tolist()}
    return EvalResult(accuracy=int(correct.sum()) / len(dataset), n_examples=len(dataset),
                      per_class=per_class)


def aggregate(accuracies) -> Aggregate:
    """Mean and standard error (sample stddev / sqrt(n)) across seeds."""
    vals = [a.accuracy if isinstance(a, EvalResult) else float(a) for a in accuracies]
    if len(vals) < 2:
        raise ValueError("need >= 2 results for a standard error")
    n = len(vals)
    mean = sum(vals) / n
    var = sum((v - mean) ** 2 for v in vals) / (n - 1)
    return Aggregate(mean=mean, stderr=math.sqrt(var) / math.sqrt(n), n_seeds=n)
