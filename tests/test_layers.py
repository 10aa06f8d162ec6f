"""Network assembly: shape pass, initialization determinism, taps, cloning."""

import contextlib
import json
import os
import subprocess
import sys
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
            net.eval()
            c, h, w = spec.input_shape
            # eval-mode batchnorm allows batch of 2
            x = Tensor(np.random.default_rng(0).normal(0, 1, (2, c, h, w)))
            logits, taps = net.forward(x)
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
        net.eval()
        logits, _ = net.forward(Tensor(np.zeros((3, 1, 32, 32))))
        assert np.isfinite(logits.data).all()
        probs = np.exp(logits.data) / np.exp(logits.data).sum(axis=-1, keepdims=True)
        assert np.abs(probs - 0.2).max() <= 0.05

    def test_taps_have_batch_leading_dim(self):
        net = EmbeddingNetwork(digit_embedding_spec(), seed=0)
        net.eval()
        _, taps = net.forward(Tensor(np.zeros((7, 1, 32, 32))))
        assert [act.shape[0] for _, act in taps] == [7, 7, 7]

    def test_golden_logits(self):
        rng = np.random.default_rng(42)
        x = rng.normal(0, 1, (2, 1, 32, 32)).astype(np.float32)
        net = EmbeddingNetwork(digit_embedding_spec(), seed=7)
        net.eval()
        logits, _ = net.forward(Tensor(x))
        np.testing.assert_allclose(logits.data, GOLDEN_LOGITS, atol=1e-7)

    def test_eval_forward_is_pure(self):
        net = EmbeddingNetwork(digit_embedding_spec(), seed=3)
        net.eval()
        x = Tensor(np.random.default_rng(5).normal(0, 1, (2, 1, 32, 32)))
        a, _ = net.forward(x)
        b, _ = net.forward(x)
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

    def test_digit_net_matches_relu_then_pool_bit_for_bit(self):
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


def _bn_calls(monkeypatch):
    """The (pool, overwrite_x) of every T.batchnorm2d call from here on."""
    calls = []
    batchnorm2d = T.batchnorm2d

    def spy(*args, **kwargs):
        calls.append((kwargs.get("pool", 1), kwargs.get("overwrite_x", False)))
        return batchnorm2d(*args, **kwargs)

    monkeypatch.setattr(T, "batchnorm2d", spy)
    return calls


def _step(net, x, until=None):
    """Bytes of the output, the taps and the parameter gradients of one forward and backward."""
    for p in net.parameters():
        p.grad = None
    out, taps = net.forward(x, until=until)
    backward((out * Tensor(np.linspace(-1, 1, out.data.size).reshape(out.shape))).sum())
    return ([out.data.tobytes()] + [t.data.tobytes() for _, t in taps]
            + [p.grad.tobytes() for p in net.parameters() if p.grad is not None])


class TestBatchnormPoolFusion:
    """forward applies the max pool after each BN inside T.batchnorm2d, and lets
    it centre the conv output in place, unless a tap or ``until`` hands out
    the output the fusion would not make or would overwrite."""

    X = np.random.default_rng(4).normal(0, 1, (4, 1, 32, 32))

    def test_every_digit_block_fuses_and_reuses_its_conv_output(self, monkeypatch):
        calls = _bn_calls(monkeypatch)
        net = EmbeddingNetwork(digit_embedding_spec(), seed=0)
        net.forward(Tensor(self.X))
        net.eval()
        net.forward(Tensor(self.X))
        assert calls == [(2, True)] * 8

    @pytest.mark.parametrize("taps, until, want", [
        (("conv2", "bn3", "fc1"), None, [(2, True), (2, False), (1, False), (2, True)]),
        (("fc1",), "bn2", [(2, True), (1, False)]),
        (("conv2",), "pool2", [(2, True), (2, False)]),
        (("bn1", "pool2"), "pool2", [(1, False), (2, True)]),
    ])
    def test_exposed_layers_are_not_fused_or_overwritten(self, monkeypatch, taps, until, want):
        calls = _bn_calls(monkeypatch)
        spec = digit_embedding_spec(taps=taps)
        fused = _step(EmbeddingNetwork(spec, seed=1), Tensor(self.X), until)
        assert calls == want
        monkeypatch.setattr(EmbeddingNetwork, "_fuses_pool", lambda self, i, until: False)
        assert fused == _step(EmbeddingNetwork(spec, seed=1), Tensor(self.X), until)

    def test_a_tapped_conv_output_keeps_its_bytes(self):
        net = EmbeddingNetwork(digit_embedding_spec(taps=("conv1", "conv3")), seed=2)
        alone = [EmbeddingNetwork(digit_embedding_spec(), seed=2).forward(
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
            net.training = training
            results.append(_step(net, x) + [a.tobytes() for pair in net.running_stats.values()
                                            for a in pair])
        assert results[0] == results[1]


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
            loaded.eval()
            assert loaded.forward(x)[0].data.dtype == dtype


_ARENA_PEAKS = """
import json
import numpy as np
from xferlearn import layers, tensor
from xferlearn.tensor import Tensor, backward

take, live = tensor._Arena.take, [0]

def counting_take(arena, nbytes):
    block = take(arena, nbytes)
    in_use = sum(n for a in tensor._ARENAS for n, _ in list(a.live.values()))
    live[0] = max(live[0], in_use)
    return block

tensor._Arena.take = counting_take
net = layers.EmbeddingNetwork(layers.digit_embedding_spec(n_classes=5), seed=0)
x = Tensor(np.random.default_rng(0).normal(0, 1, (128, 1, 32, 32)))
logits, _ = net.forward(x)
backward(tensor.log_softmax(logits).sum())
print(json.dumps({"top": max(a.top for a in tensor._ARENAS), "live": live[0]}))
"""

MIB = 1 << 20


class TestTrainingMemory:
    """Arena memory of one 128-image digit-net forward and backward in train mode.

    In a fresh process the arenas are cut the same way on every run, so both
    numbers are exact: ``top``, the end of the highest block ever taken (the
    pages the step touched), and ``live``, the most bytes in use at once.
    Before batchnorm2d applied the pool they were 122753024 and 111673344;
    with it they are 110555136 and 97509376.  The peak in use has moved to
    conv2's backward, where block 1's xhat (32 MiB, kept for BN1's backward)
    and conv2's gradient buffers are live together, so neither number can
    drop by a whole block-1 map.  Each bound is the old value less one pooled
    block-1 map (8 MiB); pooling BN's full-size output again breaks ``live``.
    """

    def test_the_step_stays_below_the_two_op_peaks(self):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                          env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", _ARENA_PEAKS], env=env, check=True,
                             capture_output=True, text=True).stdout
        peaks = json.loads(out)
        assert peaks["top"] <= 122753024 - 8 * MIB, peaks
        assert peaks["live"] <= 111673344 - 8 * MIB, peaks
