"""Multi-layer discriminator: recurrence semantics, decay behavior, stability."""

import numpy as np
import pytest

from xferlearn import tensor as T
from xferlearn.discriminator import (DiscriminatorError, DiscriminatorSpec,
                                     MultiLayerDiscriminator, ablation_discriminator_spec,
                                     digit_discriminator_spec, disc_prob)
from xferlearn.layers import BuildError
from xferlearn.tensor import Tensor, backward


def unrolled_reference(disc, taps_data):
    """Straight-line numpy evaluation of the layered recurrence."""
    spec = disc.spec
    act = (lambda v: np.maximum(v, 0)) if spec.activation == "relu" else (
        lambda v: np.where(v > 0, v, 0.2 * v))

    def lin(name, v):
        return v @ disc.params[f"{name}.w"].data + disc.params[f"{name}.b"].data

    state = None
    for l, tap in enumerate(taps_data):
        if state is None:
            fused = tap
        elif spec.fusion == "sum":
            fused = spec.decay * state + tap
        else:
            fused = np.concatenate([spec.decay * state, tap], axis=-1)
        if l < len(taps_data) - 1:
            state = lin(f"mirror{l + 1}", act(fused))
        else:
            h = act(fused)
    for i in range(1, len(spec.head_widths) + 1):
        h = act(lin(f"head{i}", h))
    return lin("head_out", h)


def make_taps(rng, widths, n=4):
    return [Tensor(rng.normal(0, 1, (n, w))) for w in widths]


class TestRecurrence:
    def test_matches_hand_unrolled_reference(self):
        rng = np.random.default_rng(0)
        spec = DiscriminatorSpec(tap_widths=[6, 4, 3], head_widths=[8, 8], decay=0.3)
        disc = MultiLayerDiscriminator(spec, seed=1)
        taps = make_taps(rng, spec.tap_widths)
        out = disc.forward(taps).data
        ref = unrolled_reference(disc, [t.data for t in taps])
        np.testing.assert_allclose(out, ref, rtol=1e-6, atol=1e-6)

    def test_concat_fusion_matches_reference(self):
        rng = np.random.default_rng(1)
        spec = DiscriminatorSpec(tap_widths=[6, 4, 3], head_widths=[8], decay=0.5,
                                 fusion="concat")
        disc = MultiLayerDiscriminator(spec, seed=2)
        taps = make_taps(rng, spec.tap_widths)
        np.testing.assert_allclose(disc.forward(taps).data,
                                   unrolled_reference(disc, [t.data for t in taps]),
                                   rtol=1e-6, atol=1e-6)

    def test_zero_decay_ignores_shallow_taps(self):
        rng = np.random.default_rng(2)
        spec = DiscriminatorSpec(tap_widths=[6, 6, 6], head_widths=[8], decay=0.0)
        disc = MultiLayerDiscriminator(spec, seed=3)
        taps = make_taps(rng, spec.tap_widths)
        taps[0].requires_grad = True
        taps[0].zero_grad()
        out = disc.forward(taps)
        backward(out.sum())
        np.testing.assert_array_equal(taps[0].grad, np.zeros_like(taps[0].data))

    def test_zero_decay_equals_single_layer_on_deepest_tap(self):
        rng = np.random.default_rng(3)
        spec = DiscriminatorSpec(tap_widths=[6, 4, 3], head_widths=[8, 8], decay=0.0)
        disc = MultiLayerDiscriminator(spec, seed=4)
        taps = make_taps(rng, spec.tap_widths)
        full = disc.forward(taps).data

        # single-layer evaluation: head applied to the activated deepest tap
        h = np.maximum(taps[-1].data, 0)
        for i in (1, 2):
            h = np.maximum(
                h @ disc.params[f"head{i}.w"].data + disc.params[f"head{i}.b"].data, 0)
        single = h @ disc.params["head_out.w"].data + disc.params["head_out.b"].data
        np.testing.assert_allclose(full, single, atol=1e-6)

    def test_batch_permutation_consistency(self):
        rng = np.random.default_rng(4)
        spec = DiscriminatorSpec(tap_widths=[5, 4], head_widths=[6], decay=0.7)
        disc = MultiLayerDiscriminator(spec, seed=5)
        taps = make_taps(rng, spec.tap_widths, n=6)
        perm = rng.permutation(6)
        out = disc.forward(taps).data
        out_p = disc.forward([Tensor(t.data[perm]) for t in taps]).data
        np.testing.assert_allclose(out[perm], out_p, atol=1e-6)

    def test_tap_count_mismatch_rejected(self):
        spec = DiscriminatorSpec(tap_widths=[5, 4], head_widths=[6])
        disc = MultiLayerDiscriminator(spec)
        with pytest.raises(DiscriminatorError, match="expected 2 taps"):
            disc.forward([Tensor(np.zeros((2, 5)))])

    def test_tap_width_mismatch_rejected(self):
        spec = DiscriminatorSpec(tap_widths=[5, 4], head_widths=[6])
        disc = MultiLayerDiscriminator(spec)
        with pytest.raises(DiscriminatorError, match="width"):
            disc.forward([Tensor(np.zeros((2, 5))), Tensor(np.zeros((2, 7)))])


class TestPresets:
    def test_digit_discriminator_structure(self):
        spec = digit_discriminator_spec()
        disc = MultiLayerDiscriminator(spec)
        assert disc.params["mirror1.w"].data.shape == (64, 64)
        assert disc.params["mirror2.w"].data.shape == (64, 5)
        assert disc.params["head1.w"].data.shape == (5, 500)
        assert disc.params["head2.w"].data.shape == (500, 500)
        assert disc.params["head3.w"].data.shape == (500, 500)
        assert disc.params["head_out.w"].data.shape == (500, 1)

    def test_digit_two_tap_variant(self):
        disc = MultiLayerDiscriminator(digit_discriminator_spec(n_taps=2))
        assert disc.params["mirror1.w"].data.shape == (64, 64)
        assert disc.params["head1.w"].data.shape == (64, 500)

    def test_ablation_discriminator_structure(self):
        disc = MultiLayerDiscriminator(ablation_discriminator_spec())
        assert disc.params["mirror1.w"].data.shape == (800, 500)
        assert disc.params["mirror2.w"].data.shape == (500, 10)
        assert disc.params["head1.w"].data.shape == (10, 500)
        assert disc.params["head2.w"].data.shape == (500, 500)
        assert disc.params["head_out.w"].data.shape == (500, 1)

    def test_scalar_output_per_example(self):
        disc = MultiLayerDiscriminator(digit_discriminator_spec())
        rng = np.random.default_rng(6)
        out = disc.forward(make_taps(rng, [64, 64, 5], n=9))
        assert out.shape == (9, 1)

    def test_invalid_decay_rejected(self):
        with pytest.raises(DiscriminatorError):
            DiscriminatorSpec(tap_widths=[4], decay=1.5)


class TestProb:
    def test_zero_logit_is_half(self):
        assert abs(disc_prob(Tensor([0.0])).item() - 0.5) <= 1e-9

    def test_large_logit_saturates_without_overflow(self):
        p = disc_prob(Tensor([50.0])).item()
        assert p >= 1 - 1e-20
        # the stable path for log(1 - p) stays finite
        stable = T.log_sigmoid(Tensor([-50.0])).item()
        assert np.isfinite(stable) and stable < -49

    def test_matches_float64_reference(self):
        from xferlearn.tensor import use_float64
        with use_float64():
            p = disc_prob(Tensor([-3.0])).item()
        assert abs(p - 1.0 / (1.0 + np.exp(3.0))) <= 1e-9


class TestStrictLoading:
    def test_roundtrip_and_wrong_shape_rejected(self):
        spec = DiscriminatorSpec(tap_widths=[6, 4, 3], head_widths=[8], decay=0.5)
        disc = MultiLayerDiscriminator(spec, seed=0)
        state = disc.state_dict()
        other = MultiLayerDiscriminator(spec, seed=1)
        other.load_state_dict(state)
        for name in state:
            np.testing.assert_array_equal(other.params[name].data, state[name])
        bad = dict(state, **{"mirror1.w": state["mirror1.w"].T.copy()})
        with pytest.raises(BuildError, match=r"'mirror1\.w'.*\(6, 4\).*\(4, 6\)"):
            other.load_state_dict(bad)
        del state["head_out.b"]
        with pytest.raises(BuildError, match=r"'head_out\.b'"):
            other.load_state_dict(state)

    def test_extra_key_rejected(self):
        spec = DiscriminatorSpec(tap_widths=[6, 4, 3], head_widths=[8], decay=0.5)
        disc = MultiLayerDiscriminator(spec, seed=0)
        state = MultiLayerDiscriminator(spec, seed=1).state_dict()
        state["mirror9.w"] = np.zeros((3, 3), dtype=np.float32)
        before = disc.state_dict()
        with pytest.raises(BuildError, match=r"unexpected keys \['mirror9\.w'\]"):
            disc.load_state_dict(state)
        for name, value in disc.state_dict().items():
            np.testing.assert_array_equal(value, before[name])
