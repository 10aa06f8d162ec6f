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


@no_grad()
def evaluate(net, dataset: LabeledDataset, batch_size: int = EVAL_BLOCK) -> EvalResult:
    """Argmax accuracy of net over a labeled dataset (eval mode, first-index ties).

    The forwards record no graph, so each layer's activations are freed
    as soon as the next layer has run.
    """
    if len(dataset) == 0:
        raise ValueError("empty evaluation dataset")
    was_training = net.training
    net.eval()
    correct = 0
    cls_correct: dict[int, int] = {}
    cls_total: dict[int, int] = {}
    try:
        for start in range(0, len(dataset), batch_size):
            imgs = dataset.images[start : start + batch_size]
            labels = dataset.labels[start : start + batch_size]
            logits, _ = net.forward(normalize_batch(imgs))
            preds = np.argmax(logits.data, axis=1)
            hits = preds == labels
            correct += int(hits.sum())
            for c in np.unique(labels):
                m = labels == c
                cls_correct[int(c)] = cls_correct.get(int(c), 0) + int(hits[m].sum())
                cls_total[int(c)] = cls_total.get(int(c), 0) + int(m.sum())
    finally:
        if was_training:
            net.train()
    per_class = {c: cls_correct[c] / cls_total[c] for c in cls_total}
    return EvalResult(accuracy=correct / len(dataset), n_examples=len(dataset),
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
