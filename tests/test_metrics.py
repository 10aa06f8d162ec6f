"""Evaluation accuracy and multi-seed aggregation."""

import contextlib

import numpy as np
import pytest

from xferlearn import metrics
from xferlearn import tensor as T
from xferlearn.data import LabeledDataset, normalize_batch, synth_digits
from xferlearn.layers import EmbeddingNetwork, digit_embedding_spec, synth_embedding_spec
from xferlearn.metrics import Aggregate, EvalResult, aggregate, evaluate


class TestAggregate:
    def test_frozen_two_seed_example(self):
        agg = aggregate([0.9, 0.94])
        assert abs(agg.mean - 0.92) <= 1e-12
        assert abs(agg.stderr - 0.02) <= 1e-12
        assert agg.n_seeds == 2

    def test_permutation_invariance(self):
        vals = [0.1, 0.5, 0.9, 0.3]
        a = aggregate(vals)
        b = aggregate(vals[::-1])
        assert a.mean == b.mean and abs(a.stderr - b.stderr) <= 1e-15

    def test_accepts_eval_results(self):
        results = [EvalResult(accuracy=0.8, n_examples=10),
                   EvalResult(accuracy=0.6, n_examples=10)]
        assert abs(aggregate(results).mean - 0.7) <= 1e-12

    def test_identical_values_zero_stderr(self):
        assert aggregate([0.5, 0.5, 0.5]).stderr == 0.0

    def test_single_value_rejected(self):
        with pytest.raises(ValueError):
            aggregate([0.9])


class TestEvaluate:
    def _net_and_data(self):
        data = synth_digits(n_per_class=8, classes=range(3), seed=0)
        net = EmbeddingNetwork(synth_embedding_spec(n_classes=3), seed=0)
        return net, data

    def test_accuracy_in_unit_interval_and_counts(self):
        net, data = self._net_and_data()
        res = evaluate(net, data)
        assert 0.0 <= res.accuracy <= 1.0
        assert res.n_examples == len(data)
        assert set(res.per_class) == {0, 1, 2}

    def test_block_size_does_not_change_result(self, monkeypatch):
        net, data = self._net_and_data()
        accuracies = []
        for block in (5, 256):
            monkeypatch.setattr(metrics, "EVAL_BLOCK", block)
            accuracies.append(evaluate(net, data).accuracy)
        assert accuracies[0] == accuracies[1]

    def test_digit_net_logits_do_not_depend_on_the_block(self, monkeypatch):
        data = synth_digits(51, range(5), image_size=32, seed=999, domain_shift=True)
        net = EmbeddingNetwork(digit_embedding_spec(n_classes=5), seed=0)
        logits = {}
        for block in (1, 7, 32, 64, 256):
            monkeypatch.setattr(metrics, "EVAL_BLOCK", block)
            logits[block] = np.concatenate([out for _, out, _ in
                                            metrics.eval_forwards(net, data.images)])
        assert logits[256].shape == (255, 5)
        # 255 = 7 x 32 + 31: whole multiples of 32 rows leave the BLAS the same
        # tail, so every row's bytes are those of the one-block evaluation
        for block in (32, 64):
            np.testing.assert_array_equal(logits[block].view(np.uint32),
                                          logits[256].view(np.uint32))
        # two-row (an image paired with itself) and 7-row products take other
        # BLAS kernels, which sum in another order; they agree to float32 rounding
        for block in (1, 7):
            np.testing.assert_allclose(logits[block], logits[256], rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("n_images, rows", [(33, [33]), (1, [2]), (65, [32, 33])])
    def test_a_one_image_tail_joins_the_block_before_it(self, monkeypatch, n_images, rows):
        # a one-image forward takes other BLAS kernels, so none is ever made
        data = synth_digits(n_per_class=22, classes=range(3), seed=0)
        data = LabeledDataset(images=data.images[:n_images], labels=data.labels[:n_images])
        net = EmbeddingNetwork(synth_embedding_spec(n_classes=3), seed=0)
        with T.no_grad():
            logits, _ = net.forward(normalize_batch(
                data.images[np.resize(np.arange(n_images), max(n_images, 2))]), training=False)
        expected = float((np.argmax(logits.data[:n_images], axis=1) == data.labels).mean())
        forward = net.forward
        seen = []

        def recording(x, until=None, training=True):
            seen.append(x.shape[0])
            return forward(x, until=until, training=training)

        monkeypatch.setattr(net, "forward", recording)
        assert evaluate(net, data).accuracy == expected
        assert seen == rows

    @pytest.mark.parametrize("fails", [False, True])
    def test_forwards_in_eval_mode_and_leaves_the_net_unchanged(self, monkeypatch, fails):
        net, data = self._net_and_data()
        before = {key: a.tobytes() for key, a in net.state_dict().items()}
        forward, modes = net.forward, []

        def recording(x, until=None, **kwargs):
            modes.append(kwargs)
            if fails:
                raise RuntimeError("forward failed")
            return forward(x, until=until, **kwargs)

        monkeypatch.setattr(net, "forward", recording)
        with pytest.raises(RuntimeError, match="forward failed") if fails else \
                contextlib.nullcontext():
            evaluate(net, data)
        assert modes == [{"training": False}]
        assert {key: a.tobytes() for key, a in net.state_dict().items()} == before

    def test_per_class_weighted_mean_equals_accuracy(self):
        net, data = self._net_and_data()
        res = evaluate(net, data)
        counts = {c: int((data.labels == c).sum()) for c in res.per_class}
        weighted = sum(res.per_class[c] * counts[c] for c in counts) / len(data)
        assert abs(weighted - res.accuracy) <= 1e-12

    def test_same_accuracy_as_a_recorded_forward_and_no_graph_left(self, monkeypatch):
        net, data = self._net_and_data()
        logits, _ = net.forward(normalize_batch(data.images), training=False)
        assert logits.node is not None
        expected = float((np.argmax(logits.data, axis=1) == data.labels).mean())

        recorded = []

        class CountingNode(T.GraphNode):
            __slots__ = ()

            def __init__(self, *args):
                recorded.append(args[0])
                super().__init__(*args)

        monkeypatch.setattr(T, "GraphNode", CountingNode)
        assert evaluate(net, data).accuracy == expected
        assert recorded == []
        # recording is back on for the next training forward
        assert net.forward(normalize_batch(data.images[:2]))[0].node is not None
        assert recorded
