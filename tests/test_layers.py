"""Network assembly: shape pass, initialization determinism, taps, cloning."""

import contextlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from xferlearn.layers import (BuildError, EmbeddingNetwork, LayerSpec, NetworkSpec,
                              ablation_embedding_spec, clone_into_target,
                              digit_embedding_spec, infer_shapes, synth_embedding_spec)
from xferlearn import tensor as T
from xferlearn.optim import Adam
from xferlearn.tensor import Tensor, backward, use_float64

# frozen once from the layer table: 4 convs (64ch, 3x3) + 4 bns + fc 64x64 + fc 64x5
DIGIT_PARAM_COUNT = 116421

GOLDEN_LOGITS = np.array(
    [[-0.00949485, 0.01699059, -0.01940294, 0.02306227, -0.03040186],
     [-0.00590625, 0.0150588, -0.02225429, 0.02345675, -0.02840444]],
    dtype=np.float32,
)


class TestShapes:
    def test_digit_network_tap_shapes(self):
        shapes = infer_shapes(digit_embedding_spec())
        assert shapes["pool4_flat"] == (64,)
        assert shapes["fc1"] == (64,)
        assert shapes["fc2"] == (5,)

    def test_ablation_network_flatten_width(self):
        assert infer_shapes(ablation_embedding_spec())["flat"] == (800,)

    def test_inconsistent_spec_names_layer(self):
        spec = NetworkSpec(input_shape=(1, 5, 5), layers=[
            ("pool_bad", LayerSpec("maxpool", kernel=2, stride=2)),
        ])
        with pytest.raises(BuildError, match="pool_bad"):
            infer_shapes(spec)

    def test_symbolic_shapes_match_runtime(self):
        for spec in (digit_embedding_spec(), ablation_embedding_spec()):
            net = EmbeddingNetwork(spec, seed=0)
            c, h, w = spec.input_shape
            # eval-mode batchnorm allows batch of 2
            x = Tensor(np.random.default_rng(0).normal(0, 1, (2, c, h, w)))
            logits, taps = net.forward(x, training=False)
            for name, act in taps:
                assert act.shape[1:] == tuple(
                    (np.prod(net.shapes[name]),) if len(net.shapes[name]) == 1
                    else net.shapes[name]
                )


class TestBuild:
    def test_same_seed_bit_identical(self):
        a = EmbeddingNetwork(digit_embedding_spec(), seed=11)
        b = EmbeddingNetwork(digit_embedding_spec(), seed=11)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name].data, b.params[name].data)

    def test_different_seed_differs(self):
        a = EmbeddingNetwork(digit_embedding_spec(), seed=1)
        b = EmbeddingNetwork(digit_embedding_spec(), seed=2)
        assert any((a.params[n].data != b.params[n].data).any() for n in a.params)

    def test_parameter_count_regression(self):
        net = EmbeddingNetwork(digit_embedding_spec())
        assert sum(p.data.size for p in net.parameters()) == DIGIT_PARAM_COUNT

    def test_biases_zero_batchnorm_identity_init(self):
        net = EmbeddingNetwork(digit_embedding_spec(), seed=0)
        assert (net.params["conv1.b"].data == 0).all()
        assert (net.params["bn1.gamma"].data == 1).all()
        assert (net.params["bn1.beta"].data == 0).all()


class TestForward:
    def test_zero_input_near_uniform_probabilities(self):
        net = EmbeddingNetwork(digit_embedding_spec(), seed=0)
        logits, _ = net.forward(Tensor(np.zeros((3, 1, 32, 32))), training=False)
        assert np.isfinite(logits.data).all()
        probs = np.exp(logits.data) / np.exp(logits.data).sum(axis=-1, keepdims=True)
        assert np.abs(probs - 0.2).max() <= 0.05

    def test_taps_have_batch_leading_dim(self):
        net = EmbeddingNetwork(digit_embedding_spec(), seed=0)
        _, taps = net.forward(Tensor(np.zeros((7, 1, 32, 32))), training=False)
        assert [act.shape[0] for _, act in taps] == [7, 7, 7]

    def test_golden_logits(self):
        rng = np.random.default_rng(42)
        x = rng.normal(0, 1, (2, 1, 32, 32)).astype(np.float32)
        net = EmbeddingNetwork(digit_embedding_spec(), seed=7)
        logits, _ = net.forward(Tensor(x), training=False)
        np.testing.assert_allclose(logits.data, GOLDEN_LOGITS, atol=1e-7)

    def test_eval_forward_is_pure(self):
        net = EmbeddingNetwork(digit_embedding_spec(), seed=3)
        x = Tensor(np.random.default_rng(5).normal(0, 1, (2, 1, 32, 32)))
        a, _ = net.forward(x, training=False)
        b, _ = net.forward(x, training=False)
        np.testing.assert_array_equal(a.data, b.data)

    def test_wrong_input_shape_rejected(self):
        net = EmbeddingNetwork(digit_embedding_spec(), seed=0)
        with pytest.raises(BuildError):
            net.forward(Tensor(np.zeros((2, 1, 28, 28))))


class TestClone:
    def test_clone_is_independent(self):
        src = EmbeddingNetwork(digit_embedding_spec(), seed=0)
        tgt = clone_into_target(src)
        tgt.params["conv1.w"].data += 1.0
        assert (src.params["conv1.w"].data != tgt.params["conv1.w"].data).any()

    def test_same_class_count_copies_head_verbatim(self):
        src = EmbeddingNetwork(digit_embedding_spec(n_classes=5), seed=0)
        tgt = clone_into_target(src, head_classes=5)
        np.testing.assert_array_equal(src.params["fc2.w"].data, tgt.params["fc2.w"].data)

    def test_reinit_head_differs_body_identical(self):
        src = EmbeddingNetwork(digit_embedding_spec(n_classes=5), seed=0)
        tgt = clone_into_target(src, head_classes=5, reinit_head=True, head_seed=99)
        assert (src.params["fc2.w"].data != tgt.params["fc2.w"].data).any()
        for name in src.params:
            if not name.startswith("fc2."):
                np.testing.assert_array_equal(src.params[name].data, tgt.params[name].data)

    def test_new_class_count_resizes_head(self):
        src = EmbeddingNetwork(synth_embedding_spec(n_classes=5), seed=0)
        tgt = clone_into_target(src, head_classes=3)
        assert tgt.params["fc2.w"].data.shape == (32, 3)


class TestStrictLoading:
    def test_transposed_head_weight_rejected(self):
        net = EmbeddingNetwork(digit_embedding_spec(n_classes=5), seed=0)
        state = net.state_dict()
        state["fc2.w"] = state["fc2.w"].T.copy()  # same size, wrong shape
        before = net.params["fc2.w"].data.copy()
        with pytest.raises(BuildError, match=r"'fc2\.w'.*\(64, 5\).*\(5, 64\)"):
            net.load_state_dict(state)
        np.testing.assert_array_equal(net.params["fc2.w"].data, before)

    def test_missing_key_rejected(self):
        net = EmbeddingNetwork(synth_embedding_spec(n_classes=3), seed=0)
        state = net.state_dict()
        del state["bn2.running_var"]
        with pytest.raises(BuildError, match=r"'bn2\.running_var'.*\(16,\)"):
            net.load_state_dict(state)

    def test_extra_key_rejected(self):
        net = EmbeddingNetwork(synth_embedding_spec(n_classes=3), seed=0)
        state = EmbeddingNetwork(synth_embedding_spec(n_classes=3), seed=1).state_dict()
        state["fc3.w"] = np.zeros((32, 3), dtype=np.float32)
        before = net.state_dict()
        with pytest.raises(BuildError, match=r"unexpected keys \['fc3\.w'\]"):
            net.load_state_dict(state)
        for key, value in net.state_dict().items():
            np.testing.assert_array_equal(value, before[key])

    def test_scalar_running_stat_not_broadcast(self):
        net = EmbeddingNetwork(synth_embedding_spec(n_classes=3), seed=0)
        state = net.state_dict()
        state["bn1.running_mean"] = np.float32(0.5)
        with pytest.raises(BuildError, match=r"'bn1\.running_mean'.*\(16,\).*\(\)"):
            net.load_state_dict(state)
        np.testing.assert_array_equal(net.running_stats["bn1"][0], np.zeros(16))


def _channel_major(a):
    return np.ascontiguousarray(a.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)


def _relu_then_pool(spec):
    """The same spec with each block's ReLU moved back in front of its pool."""
    layers = list(spec.layers)
    for i, ((name, ls), (next_name, next_ls)) in enumerate(zip(layers, layers[1:])):
        if ls.kind == "maxpool" and next_ls.kind == "relu":
            layers[i], layers[i + 1] = layers[i + 1], layers[i]
    return NetworkSpec(spec.input_shape, layers, list(spec.taps))


class TestPoolBeforeRelu:
    @pytest.mark.parametrize("spec", [digit_embedding_spec(), ablation_embedding_spec(),
                                      synth_embedding_spec(n_classes=3)])
    def test_presets_pool_before_relu(self, spec):
        names = [name for name, _ in spec.layers]
        relus = [name for name in names if name.startswith("relu")]
        assert relus and all(names[names.index(r) - 1] == f"pool{r[4:]}" for r in relus)

    @pytest.mark.parametrize("size", [32, 16, 8, 4])  # the digit net's four blocks
    def test_relu_of_pool_is_pool_of_relu_bit_for_bit(self, size):
        rng = np.random.default_rng(size)
        # half-steps in [-1.5, 1.5]: exact zeros, ties and all-negative windows abound
        x = (rng.integers(-3, 4, (4, 64, size, size)) * 0.5).astype(np.float32)
        windows = x.reshape(4, 64, size // 2, 2, size // 2, 2)
        windows[0, 0, 0, :, 0, :] = 0.0
        windows[0, 0, 0, :, 1, :] = [[-0.5, -1.0], [-0.5, -1.5]]
        windows[0, 1, 0, :, 0, :] = [[1.0, 1.5], [1.5, 0.0]]
        g = rng.normal(0, 1, (4, 64, size // 2, size // 2)).astype(np.float32)
        results = []
        for first, second in ((T.maxpool2d, T.relu), (T.relu, T.maxpool2d)):
            xt = Tensor(_channel_major(x), requires_grad=True)
            out = second(first(xt))
            backward((out * Tensor(g)).sum())
            results.append((out.data.tobytes(), xt.grad.tobytes()))
        assert results[0] == results[1]

    def test_digit_net_matches_relu_then_pool_bit_for_bit(self, monkeypatch):
        # conv1, bn1 and pool1 as one op needs bn1 directly before pool1, so
        # it is off here: the two nets run the same ops in both orders
        monkeypatch.setattr(EmbeddingNetwork, "_lazy_conv", lambda self, i, until: False)
        x = Tensor(np.random.default_rng(3).normal(0, 1, (4, 1, 32, 32)))
        outs = []
        for spec in (digit_embedding_spec(), _relu_then_pool(digit_embedding_spec())):
            net = EmbeddingNetwork(spec, seed=5)
            logits, taps = net.forward(x)
            backward(T.log_softmax(logits).sum())
            outs.append([logits.data.tobytes()] + [t.data.tobytes() for _, t in taps]
                        + [p.grad.tobytes() for p in net.parameters()])
        assert [n for n, _ in _relu_then_pool(digit_embedding_spec()).layers][2:4] == [
            "relu1", "pool1"]
        assert outs[0] == outs[1]


def _block_calls(monkeypatch):
    """("conv2d", what it returned) for every T.conv2d call from here on:
    "plain", a _LazyConv "computed" inside conv2d, or a "lazy" one left
    uncomputed; and ("batchnorm2d", pool, whether its input reached it
    uncomputed and stayed so) for every T.batchnorm2d: a lazy conv and the
    BN-pool that never computes it are the block op.  batchnorm2d centres
    any _LazyConv in place."""
    calls = []
    conv2d, batchnorm2d = T.conv2d, T.batchnorm2d

    def uncomputed(t):
        return isinstance(t, T._LazyConv) and t.conv is not None

    def conv_spy(*args, **kwargs):
        out = conv2d(*args, **kwargs)
        calls.append(("conv2d", "lazy" if uncomputed(out)
                      else "computed" if isinstance(out, T._LazyConv) else "plain"))
        return out

    def bn_spy(x, *args, **kwargs):
        op = uncomputed(x)
        out = batchnorm2d(x, *args, **kwargs)
        calls.append(("batchnorm2d", kwargs.get("pool", 1), op and uncomputed(x)))
        return out

    monkeypatch.setattr(T, "conv2d", conv_spy)
    monkeypatch.setattr(T, "batchnorm2d", bn_spy)
    return calls


def _away_from_init(net, rng):
    """Set gamma of both signs, nonzero conv biases and betas, and running
    statistics away from the identity."""
    for name, p in net.params.items():
        if name.endswith(".gamma"):
            p.data = (rng.uniform(0.3, 2, p.data.shape)
                      * rng.choice([-1, 1], p.data.shape)).astype(p.data.dtype)
        elif name.endswith((".b", ".beta")):
            p.data = rng.normal(0, 0.5, p.data.shape).astype(p.data.dtype)
    for mean, var in net.running_stats.values():
        mean[...] = rng.normal(0, 0.3, mean.shape)
        var[...] = rng.uniform(0.5, 2, var.shape)


def _no_conv_block_op(monkeypatch):
    """Compute conv1's output before batchnorm2d(pool=) from here on."""
    monkeypatch.setattr(EmbeddingNetwork, "_lazy_conv", lambda self, i, until: False)


CONV, COMPUTED_CONV, LAZY_CONV = ("conv2d", "plain"), ("conv2d", "computed"), ("conv2d", "lazy")
BLOCK_OP, BN_POOL, BN = ("batchnorm2d", 2, True), ("batchnorm2d", 2, False), (
    "batchnorm2d", 1, False)


def _step(net, x, until=None, training=True):
    """Bytes of the output, the taps and the parameter gradients of one forward and backward."""
    for p in net.parameters():
        p.grad = None
    out, taps = net.forward(x, until=until, training=training)
    backward((out * Tensor(np.linspace(-1, 1, out.data.size).reshape(out.shape))).sum())
    return ([out.data.tobytes()] + [t.data.tobytes() for _, t in taps]
            + [p.grad.tobytes() for p in net.parameters() if p.grad is not None])


class TestBatchnormPoolFusion:
    """Forward applies the max pool after every BN inside T.batchnorm2d and
    hands it the conv output as a _LazyConv, its only reader, unless a tap
    or ``until`` hands out an output the fusion would not make or would
    overwrite.  T.conv2d computes that output at once where its input needs
    a gradient; else T.batchnorm2d runs conv, BN and pool as one op in
    training on the images and in eval mode without a graph.  The
    byte-for-byte checks of the BN-pool fusion turn the block op off, so
    that every block's BN-pool is compared with the two ops."""

    X = np.random.default_rng(4).normal(0, 1, (4, 1, 32, 32))

    def test_every_digit_block_fuses_and_reuses_its_conv_output(self, monkeypatch):
        calls = _block_calls(monkeypatch)
        net = EmbeddingNetwork(digit_embedding_spec(), seed=0)
        net.forward(Tensor(self.X))
        assert calls == [LAZY_CONV, BLOCK_OP] + [COMPUTED_CONV, BN_POOL] * 3
        calls.clear()
        net.forward(Tensor(self.X), training=False)  # a recorded graph keeps the two ops
        assert calls == [LAZY_CONV, BN_POOL] + [COMPUTED_CONV, BN_POOL] * 3
        calls.clear()
        with T.no_grad():  # as evaluate and SourceTaps forward
            net.forward(Tensor(self.X), training=False)
        assert calls == [LAZY_CONV, BLOCK_OP] * 4

    @pytest.mark.parametrize("taps, until, want", [
        (("conv2", "bn3", "fc1"), None,
         [LAZY_CONV, BLOCK_OP, CONV, BN_POOL, CONV, BN, COMPUTED_CONV, BN_POOL]),
        (("fc1",), "bn2", [LAZY_CONV, BLOCK_OP, CONV, BN]),
        (("conv2",), "pool2", [LAZY_CONV, BLOCK_OP, CONV, BN_POOL]),
        (("bn1", "pool2"), "pool2", [CONV, BN, COMPUTED_CONV, BN_POOL]),
        (("conv1",), "pool1", [CONV, BN_POOL]),
        (("fc1",), "pool1", [LAZY_CONV, BLOCK_OP]),
    ])
    def test_exposed_layers_are_not_fused_or_overwritten(self, monkeypatch, taps, until, want):
        calls = _block_calls(monkeypatch)
        spec = digit_embedding_spec(taps=taps)
        _step(EmbeddingNetwork(spec, seed=1), Tensor(self.X), until)
        assert calls == want
        _no_conv_block_op(monkeypatch)
        fused = _step(EmbeddingNetwork(spec, seed=1), Tensor(self.X), until)
        monkeypatch.setattr(EmbeddingNetwork, "_fuses_pool", lambda self, i, until: False)
        assert fused == _step(EmbeddingNetwork(spec, seed=1), Tensor(self.X), until)

    def test_an_input_that_needs_a_gradient_keeps_the_two_ops(self, monkeypatch):
        calls = _block_calls(monkeypatch)
        x = Tensor(self.X, requires_grad=True)
        _step(EmbeddingNetwork(digit_embedding_spec(), seed=1), x)
        assert calls == [COMPUTED_CONV, BN_POOL] * 4
        assert x.grad is not None and np.abs(x.grad).max() > 0

    def test_a_graph_free_training_forward_gives_the_recorded_bytes(self, monkeypatch):
        calls = _block_calls(monkeypatch)
        results = []
        for ctx in (contextlib.nullcontext, T.no_grad):
            net = EmbeddingNetwork(digit_embedding_spec(), seed=1)
            with ctx():
                out, taps = net.forward(Tensor(self.X))
            results.append([out.data.tobytes()] + [t.data.tobytes() for _, t in taps]
                           + [a.tobytes() for pair in net.running_stats.values() for a in pair])
        assert calls[:8] == [LAZY_CONV, BLOCK_OP] + [COMPUTED_CONV, BN_POOL] * 3
        # without a graph conv2-4 reach their BN uncomputed, and at 64 channels
        # it computes them and runs the two ops
        assert calls[8:] == [LAZY_CONV, BLOCK_OP] + [LAZY_CONV, BN_POOL] * 3
        assert results[0] == results[1]

    def test_a_tapped_conv_output_keeps_its_bytes(self):
        spec = digit_embedding_spec(taps=("conv1", "conv3"))
        net = EmbeddingNetwork(spec, seed=2)
        alone = [EmbeddingNetwork(spec, seed=2).forward(
            Tensor(self.X), until=name)[0].data.copy() for name in ("conv1", "conv3")]
        logits, taps = net.forward(Tensor(self.X))
        for (name, tap), want in zip(taps, alone):
            np.testing.assert_array_equal(tap.data.view(np.uint32), want.view(np.uint32))
        backward(logits.sum())
        for (name, tap), want in zip(taps, alone):
            np.testing.assert_array_equal(tap.data.view(np.uint32), want.view(np.uint32))

    @pytest.mark.parametrize("spec", [digit_embedding_spec(), synth_embedding_spec(n_classes=3)])
    @pytest.mark.parametrize("training", [True, False])
    def test_fused_forward_matches_the_two_ops_bit_for_bit(self, monkeypatch, spec, training):
        _no_conv_block_op(monkeypatch)
        c, h, w = spec.input_shape
        x = Tensor(np.random.default_rng(5).normal(0, 1, (6, c, h, w)))
        results = []
        for fuse in (True, False):
            if not fuse:
                monkeypatch.setattr(EmbeddingNetwork, "_fuses_pool", lambda self, i, until: False)
            net = EmbeddingNetwork(spec, seed=3)
            for name, (mean, var) in net.running_stats.items():  # away from the identity
                mean += 0.1
                var *= 1.5
            results.append(_step(net, x, training=training)
                           + [a.tobytes() for pair in net.running_stats.values() for a in pair])
        assert results[0] == results[1]

    @pytest.mark.parametrize("spec", [
        digit_embedding_spec(taps=("relu1", "pool2", "relu3", "pool4_flat", "fc1", "fc2")),
        synth_embedding_spec(n_classes=3, taps=("relu1", "flat", "fc1", "fc2"))])
    def test_an_eval_forward_gives_the_same_bytes_with_and_without_a_graph(self, monkeypatch,
                                                                           spec):
        calls = _block_calls(monkeypatch)
        rng = np.random.default_rng(8)
        net = EmbeddingNetwork(spec, seed=4)
        _away_from_init(net, rng)
        blocks = len(net.running_stats)
        c, h, w = spec.input_shape
        for n in (7, 32):
            x = Tensor(rng.normal(0, 1, (n, c, h, w)))
            results = []
            for ctx in (contextlib.nullcontext, T.no_grad):
                calls.clear()
                with ctx():
                    out, taps = net.forward(x, training=False)
                results.append([out.data.tobytes()] + [t.data.tobytes() for _, t in taps])
            assert calls == [LAZY_CONV, BLOCK_OP] * blocks  # the graph-free forward
            assert len(results[1]) == len(spec.taps) + 1 and results[0] == results[1]

    @pytest.mark.parametrize("spec", [digit_embedding_spec(), synth_embedding_spec(n_classes=3)])
    def test_the_block_op_matches_the_two_ops_in_float64(self, monkeypatch, spec):
        c, h, w = spec.input_shape
        x = np.random.default_rng(6).normal(0, 1, (6, c, h, w))
        results = []
        with use_float64():
            for op in (True, False):
                if not op:
                    _no_conv_block_op(monkeypatch)
                net = EmbeddingNetwork(spec, seed=3)
                out, _ = net.forward(Tensor(x))
                backward((out * Tensor(np.linspace(-1, 1, out.data.size).reshape(out.shape)))
                         .sum())
                results.append([out.data] + [p.grad for p in net.parameters()]
                               + [a for pair in net.running_stats.values() for a in pair])
        assert not np.any(results[0][2])  # conv1.b: the bias cancels in BN
        for got, want in zip(*results):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


def test_a_training_forward_calls_conv2d_as_the_benchmark_traces_it(monkeypatch):
    """perfbench/spans.py wraps T.conv2d by name: it counts the calls, takes
    a conv's work from its output shape, charges the call's time to the conv
    forward and wraps the backward of the node it returns."""
    calls, conv2d = [], T.conv2d

    def spy(x, w, *args, **kwargs):
        out = conv2d(x, w, *args, **kwargs)
        calls.append((x.shape, w.shape, out.shape, out.node,
                      isinstance(out, T._LazyConv) and out.conv is not None))
        return out

    monkeypatch.setattr(T, "conv2d", spy)
    EmbeddingNetwork(digit_embedding_spec(), seed=0).forward(Tensor(TestBatchnormPoolFusion.X))
    assert [(x[2], w[:2]) for x, w, *_ in calls] == [(32, (64, 1)), (16, (64, 64)),
                                                     (8, (64, 64)), (4, (64, 64))]
    for i, (x, w, out, node, uncomputed) in enumerate(calls):
        assert out == (x[0], w[0], x[2], x[3])  # 3x3 kernels, padding 1
        assert node.op == "conv2d" and len(node.inputs) == 3
        assert uncomputed == (i == 0)  # conv2-4 are computed inside the call


class TestRunningStatsDtype:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_running_stats_stay_in_the_current_dtype(self, dtype):
        def assert_dtype(net):
            for mean, var in net.running_stats.values():
                assert mean.dtype == dtype and var.dtype == dtype

        with use_float64() if dtype == np.float64 else contextlib.nullcontext():
            net = EmbeddingNetwork(synth_embedding_spec(n_classes=3), seed=0)
            assert_dtype(net)
            assert_dtype(clone_into_target(net, head_classes=2, reinit_head=True))
            # a checkpoint written with float64 statistics is cast on load
            state = {key: a.astype(np.float64) for key, a in net.state_dict().items()}
            state["bn1.running_mean"] = np.full(16, 0.25)
            loaded = EmbeddingNetwork(synth_embedding_spec(n_classes=3), seed=1)
            loaded.load_state_dict(state)
            assert_dtype(loaded)
            np.testing.assert_array_equal(loaded.running_stats["bn1"][0], 0.25)
            opt = Adam(loaded.parameters(), lr=1e-2)
            x = Tensor(np.random.default_rng(0).normal(0, 1, (4, 1, 16, 16)))
            for _ in range(2):
                opt.zero_grads()
                backward(loaded.forward(x)[0].sum())
                opt.step()
            assert_dtype(loaded)
            assert (loaded.running_stats["bn1"][0] != 0.25).all()
            assert loaded.forward(x, training=False)[0].data.dtype == dtype


_STEP_PEAK = """
import tracemalloc
import numpy as np
from xferlearn import layers, tensor
from xferlearn.tensor import Tensor, backward

net = layers.EmbeddingNetwork(layers.digit_embedding_spec(n_classes=5), seed=0)
x = Tensor(np.random.default_rng(0).normal(0, 1, (128, 1, 32, 32)))
tracemalloc.start()
logits, _ = net.forward(x)
backward(tensor.log_softmax(logits).sum())
print(tracemalloc.get_traced_memory()[1])
"""

MIB = 1 << 20


class TestTrainingMemory:
    """The most bytes that numpy holds at once (the ``tracemalloc`` peak) in
    one 128-image digit-net forward and backward in train mode, beyond the
    net and its input.

    The bounds come from the memory arenas that the conv-block ops once
    took their large arrays from: with conv1, bn1 and pool1 run as conv2d
    then batchnorm2d(pool=2), the step touched 103878656 arena bytes and
    held at most 90701824 at once, with block 1's xhat (32 MiB, kept for
    BN1's backward) live at the peak, in conv2's backward.  Each bound is one of those two-op values
    less one full-size block-1 map (32 MiB).  With the three as one op
    (batchnorm2d(pool=2) of a lazy conv1 output) no full-size block-1 map
    exists; the peak was 49157354 bytes when the arenas were deleted.
    """

    def test_the_step_stays_below_the_two_op_peaks(self):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                          env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", _STEP_PEAK], env=env, check=True,
                             capture_output=True, text=True).stdout
        peak = int(out)
        assert peak <= 103878656 - 32 * MIB, peak
        assert peak <= 90701824 - 32 * MIB, peak


class TestEvalMemory:
    """The most bytes that numpy holds at once (the ``tracemalloc`` peak) in
    one 32-image digit-net eval forward without a graph, as ``evaluate``
    runs it, from each conv block's conv2d call to the end of its BN-pool,
    beyond what the block starts with."""

    def test_conv1_never_makes_its_full_size_map(self, monkeypatch):
        net = EmbeddingNetwork(digit_embedding_spec(), seed=0)
        x = Tensor(np.random.default_rng(0).normal(0, 1, (32, 1, 32, 32)))
        conv2d, batchnorm2d, starts, peaks = T.conv2d, T.batchnorm2d, [], []

        def block_starts(*args, **kwargs):
            tracemalloc.reset_peak()
            starts.append(tracemalloc.get_traced_memory()[0])
            return conv2d(*args, **kwargs)

        def block_ends(*args, **kwargs):
            out = batchnorm2d(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1] - starts[-1])
            return out

        monkeypatch.setattr(T, "conv2d", block_starts)
        monkeypatch.setattr(T, "batchnorm2d", block_ends)
        tracemalloc.start()
        try:
            with T.no_grad():
                net.forward(x, training=False)
        finally:
            tracemalloc.stop()
        conv1_map = 32 * 64 * 32 * 32 * 4  # 8 MiB
        # the op holds the 9-wide window columns (1.1 MiB), one 1 MiB block of
        # window products with its folds, and the pooled map (2 MiB): 5.1 MiB
        # at most; conv then BN-pool held the map and the grid's GEMM output,
        # about 17 MiB
        assert len(peaks) == 4 and peaks[0] < conv1_map, peaks
