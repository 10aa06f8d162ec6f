"""Tensor core: op semantics against brute-force oracles, backward rules."""

import math
import platform
import resource
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xferlearn import tensor as T
from xferlearn.tensor import ParameterError, ShapeError, Tensor, backward, grad_check, use_float64


def naive_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


def naive_conv2d(x, w, bias, stride, padding):
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, f, ho, wo))
    for ni in range(n):
        for fi in range(f):
            for oi in range(ho):
                for oj in range(wo):
                    acc = bias[fi]
                    for ci in range(c):
                        for ki in range(kh):
                            for kj in range(kw):
                                acc += xp[ni, ci, oi * stride + ki, oj * stride + kj] * w[fi, ci, ki, kj]
                    out[ni, fi, oi, oj] = acc
    return out


def naive_conv2d_grads(x, w, g, stride, padding):
    """Gradients of sum(g * conv2d(x, w, b)) w.r.t. x, w and b, by the same loops."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for ni in range(n):
        for fi in range(f):
            for oi in range(g.shape[2]):
                for oj in range(g.shape[3]):
                    for ci in range(c):
                        for ki in range(kh):
                            for kj in range(kw):
                                r, q = oi * stride + ki, oj * stride + kj
                                gw[fi, ci, ki, kj] += g[ni, fi, oi, oj] * xp[ni, ci, r, q]
                                gxp[ni, ci, r, q] += g[ni, fi, oi, oj] * w[fi, ci, ki, kj]
    gx = gxp[:, :, padding:padding + h, padding:padding + wd]
    return gx, gw, g.sum(axis=(0, 2, 3))


def naive_maxpool(x, size=2):
    n, c, h, w = x.shape
    out = np.zeros((n, c, h // size, w // size))
    for ni in range(n):
        for ci in range(c):
            for i in range(h // size):
                for j in range(w // size):
                    out[ni, ci, i, j] = x[ni, ci, i * size:(i + 1) * size, j * size:(j + 1) * size].max()
    return out


def naive_maxpool_fold(x, size):
    """np.maximum folded over each window in row-major order, one element at a
    time: the output bytes, signed zeros and NaN included, under np.maximum's
    own tie rule."""
    n, c, h, w = x.shape
    out = np.empty((n, c, h // size, w // size), dtype=x.dtype)
    for ni in range(n):
        for ci in range(c):
            for i in range(h // size):
                for j in range(w // size):
                    win = x[ni, ci, i * size:(i + 1) * size, j * size:(j + 1) * size].reshape(-1)
                    acc = win[0]
                    for v in win[1:]:
                        acc = np.maximum(acc, v)
                    out[ni, ci, i, j] = acc
    return out


def naive_maxpool_grad(x, g, size):
    """Route each window's gradient to its first maximum in row-major order;
    a window holding NaN passes none."""
    gx = np.zeros_like(x)
    n, c, h, w = x.shape
    for ni in range(n):
        for ci in range(c):
            for i in range(h // size):
                for j in range(w // size):
                    win = x[ni, ci, i * size:(i + 1) * size, j * size:(j + 1) * size]
                    if np.isnan(win).any():
                        continue
                    first = next(t for t, v in enumerate(win.reshape(-1)) if v == win.max())
                    ki, kj = divmod(first, size)
                    gx[ni, ci, i * size + ki, j * size + kj] = g[ni, ci, i, j]
    return gx


def naive_batchnorm(x, gamma, beta, rm, rv, training, g, momentum=0.1, eps=1e-5):
    """Output, running statistics and the x/gamma/beta gradients of sum(g * bn(x)),
    channel by channel, with the chain rule written out as in Ioffe & Szegedy (2015)."""
    n, c, h, w = x.shape
    m = n * h * w
    out, gx = np.zeros_like(x), np.zeros_like(x)
    rm, rv = rm.copy(), rv.copy()
    ggamma, gbeta = np.zeros(c), np.zeros(c)
    for ci in range(c):
        xc, gc = x[:, ci], g[:, ci]
        if training:
            mu = xc.sum() / m
            var = ((xc - mu) ** 2).sum() / m
            rm[ci] = (1 - momentum) * rm[ci] + momentum * mu
            rv[ci] = (1 - momentum) * rv[ci] + momentum * var * m / max(m - 1, 1)
        else:
            mu, var = rm[ci], rv[ci]
        std = math.sqrt(var + eps)
        xhat = (xc - mu) / std
        out[:, ci] = gamma[ci] * xhat + beta[ci]
        ggamma[ci], gbeta[ci] = (gc * xhat).sum(), gc.sum()
        dxhat = gc * gamma[ci]
        if training:
            dvar = (dxhat * (xc - mu)).sum() * -0.5 * (var + eps) ** -1.5
            dmu = -dxhat.sum() / std + dvar * (-2.0 * (xc - mu)).sum() / m
            gx[:, ci] = dxhat / std + dvar * 2.0 * (xc - mu) / m + dmu / m
        else:
            gx[:, ci] = dxhat / std
    return out, rm, rv, gx, ggamma, gbeta


def channel_major(a):
    """The same NCHW array with channel-major (C, N, H, W) memory, as the conv body keeps it."""
    return np.ascontiguousarray(a.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)


def is_channel_major(a):
    return a.transpose(1, 0, 2, 3).flags.c_contiguous


LAYOUTS = (np.ascontiguousarray, channel_major)


@st.composite
def conv_geometries(draw):
    """(n, c, f, h, w, kernel, stride, padding) with an integral output and H != W."""
    k, s, p = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(0, 2))
    ho, wo = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    h, w = (ho - 1) * s + k - 2 * p, (wo - 1) * s + k - 2 * p
    assume(h >= 1 and w >= 1 and h != w)
    n, c, f = draw(st.integers(1, 2)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    return n, c, f, h, w, k, s, p


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(Tensor(np.eye(2)), a)
        np.testing.assert_allclose(out.data, [[1, 2], [3, 4]])

    def test_hand_case(self):
        out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.shape == (1, 1)
        assert out.item() == 11.0

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 1, (4, 5))
        b = rng.normal(0, 1, (5, 3))
        out = T.matmul(Tensor(a), Tensor(b)).data
        expected = naive_matmul(a, b)
        np.testing.assert_allclose(out, expected, rtol=1e-6)

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


class TestConv2d:
    def test_identity_kernel(self):
        x = np.arange(9, dtype=float).reshape(1, 1, 3, 3)
        w = np.ones((1, 1, 1, 1))
        out = T.conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(1)))
        np.testing.assert_allclose(out.data, x)

    def test_zero_input_gives_bias(self):
        x = np.zeros((2, 3, 4, 4))
        w = np.random.default_rng(1).normal(0, 1, (2, 3, 3, 3))
        bias = np.array([1.5, -2.0])
        out = T.conv2d(Tensor(x), Tensor(w), Tensor(bias), padding=1).data
        np.testing.assert_allclose(out[:, 0], 1.5, atol=1e-6)
        np.testing.assert_allclose(out[:, 1], -2.0, atol=1e-6)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, (2, 3, 8, 8))
        w = rng.normal(0, 1, (4, 3, 3, 3))
        bias = rng.normal(0, 1, 4)
        out = T.conv2d(Tensor(x), Tensor(w), Tensor(bias), padding=1).data
        expected = naive_conv2d(x, w, bias, 1, 1)
        np.testing.assert_allclose(out, expected, rtol=1e-5, atol=1e-5)

    def test_non_integral_output_rejected(self):
        with pytest.raises(ShapeError, match="non-integral"):
            T.conv2d(Tensor(np.zeros((1, 1, 5, 5))), Tensor(np.zeros((1, 1, 2, 2))),
                     Tensor(np.zeros(1)), stride=2)


    def test_input_gradient_only_where_needed(self):
        rng = np.random.default_rng(12)
        x, kernel, bias = (rng.normal(0, 1, s) for s in ((2, 3, 5, 4), (2, 3, 3, 3), (2,)))
        g = rng.normal(0, 1, (2, 2, 5, 4))
        want_gx, want_gw, want_gb = naive_conv2d_grads(x, kernel, g, 1, 1)
        with use_float64():
            kt, bt = Tensor(kernel, requires_grad=True), Tensor(bias, requires_grad=True)
            # a leaf that needs no gradient, like a batch of images, gets None
            gx, gw, gb = T.conv2d(Tensor(x), kt, bt, padding=1).node.backward_fn(g)
            assert gx is None
            np.testing.assert_allclose(gw, want_gw, rtol=1e-10, atol=1e-10)
            np.testing.assert_allclose(gb, want_gb, rtol=1e-10, atol=1e-10)
            leaf = Tensor(x, requires_grad=True)
            gx, _, _ = T.conv2d(leaf, kt, bt, padding=1).node.backward_fn(g)
            np.testing.assert_allclose(gx, want_gx, rtol=1e-10, atol=1e-10)
            # an input computed from a leaf that needs one gets its gradient too
            inner = T.mul(leaf, Tensor(2.0))
            backward((T.conv2d(inner, kt, bt, padding=1) * Tensor(g)).sum())
        np.testing.assert_allclose(leaf.grad, 2.0 * want_gx, rtol=1e-10, atol=1e-10)


class TestBlockForward:
    """The stride-1, C > 1 forward builds its im2col columns one image block at a time."""

    @staticmethod
    def _im2col_gemm(x, w, b):
        f = w.shape[0]
        cols, ho, wo = T._im2col(T._planes(x, 1), 3, 3, 1)
        out = w.reshape(f, -1) @ cols
        out += b[:, None]
        return out.reshape(f, x.shape[0], ho, wo).transpose(1, 0, 2, 3)

    @pytest.mark.parametrize("size", [16, 8])
    @pytest.mark.parametrize("layout", LAYOUTS, ids=["c_order", "channel_major"])
    def test_bytes_equal_one_im2col_gemm_around_the_block_size(self, size, layout):
        rng = np.random.default_rng(size)
        w = rng.standard_normal((64, 64, 3, 3), dtype=np.float32) * 0.05
        b = rng.standard_normal(64, dtype=np.float32)
        block = T._COLUMN_BUDGET // (64 * 9 * (size + 2) ** 2 * 4)
        assert block > 2
        for n in (1, block - 1, block, block + 1):
            x = layout(rng.standard_normal((n, 64, size, size), dtype=np.float32))
            out = T.conv2d(Tensor(x), Tensor(w), Tensor(b), padding=1).data
            want = self._im2col_gemm(x, w, b)
            assert out.strides == want.strides
            np.testing.assert_array_equal(out.view(np.uint32), want.view(np.uint32))

    def test_transient_memory_stays_within_the_column_budget(self, monkeypatch):
        rng = np.random.default_rng(0)
        x = Tensor(channel_major(rng.standard_normal((128, 64, 16, 16), dtype=np.float32)))
        w = Tensor(rng.standard_normal((64, 64, 3, 3), dtype=np.float32), requires_grad=True)
        b = Tensor(np.zeros(64), requires_grad=True)
        planes = 64 * 128 * 18 * 18 * 4  # saved for the backward
        # conv2d takes its large arrays from arenas, which tracemalloc does
        # not see; the pages they touch are counted here
        arenas = []
        monkeypatch.setattr(T, "_ARENAS", arenas)
        tracemalloc.start()
        try:
            out = T.conv2d(x, w, b, padding=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peak += sum(arena.top for arena in arenas)
        # the whole batch's columns would be 75 MiB; a block's GEMM result is
        # F / (C*kh*kw) = 1/9 of its columns
        assert peak - planes - out.data.nbytes <= T._COLUMN_BUDGET * (1 + 1 / 9) + (64 << 10)


class TestConvOracleProperties:
    @given(conv_geometries(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_output_and_gradients_match_naive_loops(self, geom, seed):
        n, c, f, h, w, k, s, p = geom
        rng = np.random.default_rng(seed)
        x, kernel = rng.normal(0, 1, (n, c, h, w)), rng.normal(0, 1, (f, c, k, k))
        bias = rng.normal(0, 1, f)
        want_out = naive_conv2d(x, kernel, bias, s, p)
        g = rng.normal(0, 1, want_out.shape)
        want_grads = naive_conv2d_grads(x, kernel, g, s, p)
        for layout in LAYOUTS:  # stride 1 with c > 1 takes the shifted-GEMM backward
            with use_float64():
                xt, kt, bt = (Tensor(a, requires_grad=True) for a in (layout(x), kernel, bias))
                out = T.conv2d(xt, kt, bt, stride=s, padding=p)
                backward((out * Tensor(layout(g))).sum())
            np.testing.assert_allclose(out.data, want_out, rtol=1e-10, atol=1e-10)
            for got, want in zip((xt.grad, kt.grad, bt.grad), want_grads):
                np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    @given(conv_geometries(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_im2col_and_col2im_are_adjoint(self, geom, seed):
        n, c, _, h, w, k, s, p = geom
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 1, (n, c, h, w))
        cols, ho, wo = T._im2col(T._planes(x, p), k, k, s)
        y = rng.normal(0, 1, cols.shape)
        back = T._col2im(y, x.shape, k, k, s, p, ho, wo)
        assert back.shape == x.shape
        np.testing.assert_allclose(np.vdot(cols, y), np.vdot(x, back), rtol=1e-10, atol=1e-10)


class TestMaxpoolOracleProperties:
    @given(st.sampled_from([2, 3]), st.integers(1, 2), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 3), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_scan_with_partial_ties(self, size, n, c, ho, wo, levels, seed):
        rng = np.random.default_rng(seed)
        # few distinct levels: windows mix ties with unique maxima
        x = rng.integers(0, levels, (n, c, ho * size, wo * size)).astype(np.float64)
        g = rng.normal(0, 1, (n, c, ho, wo))
        for layout in LAYOUTS:
            with use_float64():
                xt = Tensor(layout(x), requires_grad=True)
                out = T.maxpool2d(xt, size=size, stride=size)
                backward((out * Tensor(layout(g))).sum())
            np.testing.assert_array_equal(out.data, naive_maxpool(x, size))
            np.testing.assert_array_equal(xt.grad, naive_maxpool_grad(x, g, size))

    @given(st.sampled_from([2, 3]), st.integers(1, 2), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 3), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_output_bytes_with_signed_zeros_ties_and_nan(self, size, n, c, ho, wo, seed):
        rng = np.random.default_rng(seed)
        levels = np.array([-0.0, 0.0, -1.0, 1.0, np.nan], dtype=np.float32)
        x = rng.choice(levels, (n, c, ho * size, wo * size), p=[0.3, 0.3, 0.15, 0.15, 0.1])
        g = rng.normal(0, 1, (n, c, ho, wo)).astype(np.float32)
        for layout in LAYOUTS:
            xt = Tensor(layout(x), requires_grad=True)
            out = T.maxpool2d(xt, size=size, stride=size)
            backward((out * Tensor(layout(g))).sum())
            np.testing.assert_array_equal(out.data.view(np.uint32),
                                          naive_maxpool_fold(x, size).view(np.uint32))
            np.testing.assert_array_equal(xt.grad, naive_maxpool_grad(x, g, size))


class TestMaxpool:
    def test_single_window(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        out = T.maxpool2d(Tensor(x))
        assert out.item() == 4.0

    def test_tie_goes_to_first_element(self):
        x = Tensor(np.full((1, 1, 2, 2), 7.0), requires_grad=True)
        out = T.maxpool2d(x)
        assert out.item() == 7.0
        backward(out.sum())
        np.testing.assert_allclose(x.grad.reshape(-1), [1, 0, 0, 0])

    def test_matches_window_scan(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, (1, 1, 4, 4))
        with use_float64():
            out = T.maxpool2d(Tensor(x)).data
        np.testing.assert_array_equal(out, naive_maxpool(x))

    def test_non_divisible_rejected(self):
        with pytest.raises(ShapeError):
            T.maxpool2d(Tensor(np.zeros((1, 1, 5, 4))))

    def test_nan_propagates(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        x[0, 0, 1, 0] = np.nan
        out = T.maxpool2d(Tensor(x)).data
        assert np.isnan(out[0, 0, 0, 0])
        np.testing.assert_array_equal(out.reshape(-1)[1:], [7, 13, 15])

    def test_saves_pick_codes_only_when_recording(self, monkeypatch):
        folds = []
        fold_max = T._fold_max

        def spy(parts, codes):
            folds.append(codes)
            return fold_max(parts, codes)

        monkeypatch.setattr(T, "_fold_max", spy)
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)
        with T.no_grad():
            T.maxpool2d(x)
        T.maxpool2d(Tensor(x.data))  # a leaf that needs no gradient
        assert folds == [False] * 4
        T.maxpool2d(x)
        assert folds[4:] == [True, True]


class TestBatchnorm:
    def test_normalized_input_passthrough(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, (8, 3, 4, 4))
        x = (x - x.mean(axis=(0, 2, 3), keepdims=True)) / x.std(axis=(0, 2, 3), keepdims=True)
        out = T.batchnorm2d(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                            np.zeros(3), np.ones(3), training=True)
        np.testing.assert_allclose(out.data, x, atol=1e-4)

    def test_zero_gamma_gives_beta(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, (4, 2, 3, 3))
        beta = np.array([1.0, -2.0])
        out = T.batchnorm2d(Tensor(x), Tensor(np.zeros(2)), Tensor(beta),
                            np.zeros(2), np.ones(2), training=True).data
        np.testing.assert_allclose(out[:, 0], 1.0, atol=1e-6)
        np.testing.assert_allclose(out[:, 1], -2.0, atol=1e-6)

    def test_output_statistics(self):
        rng = np.random.default_rng(6)
        x = rng.normal(3.0, 2.0, (16, 4, 5, 5))
        out = T.batchnorm2d(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)),
                            np.zeros(4), np.ones(4), training=True).data
        assert np.abs(out.mean(axis=(0, 2, 3))).max() <= 1e-5
        assert np.abs(out.var(axis=(0, 2, 3)) - 1).max() <= 1e-3

    def test_batch_of_one_rejected(self):
        with pytest.raises(ParameterError):
            T.batchnorm2d(Tensor(np.zeros((1, 2, 3, 3))), Tensor(np.ones(2)),
                          Tensor(np.zeros(2)), np.zeros(2), np.ones(2), training=True)


class TestBatchnormOracleProperties:
    @given(st.integers(2, 6), st.integers(1, 4), st.integers(1, 5), st.integers(1, 5),
           st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_formulas(self, n, c, h, w, training, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(rng.normal(0, 2), rng.uniform(0.5, 3), (n, c, h, w))
        gamma, beta = rng.uniform(-2, 2, c), rng.normal(0, 1, c)
        rm, rv = rng.normal(0, 1, c), rng.uniform(0.2, 3, c)
        g = rng.normal(0, 1, (n, c, h, w))
        want = naive_batchnorm(x, gamma, beta, rm, rv, training, g)
        for layout in LAYOUTS:
            with use_float64():
                xt, gt, bt = (Tensor(a, requires_grad=True) for a in (layout(x), gamma, beta))
                got_rm, got_rv = rm.copy(), rv.copy()
                out = T.batchnorm2d(xt, gt, bt, got_rm, got_rv, training=training)
                backward((out * Tensor(layout(g))).sum())
            for got, expected in zip((out.data, got_rm, got_rv, xt.grad, gt.grad, bt.grad), want):
                np.testing.assert_allclose(got, expected, rtol=1e-8, atol=1e-9)


def _bn(training):
    c = 3
    return lambda x: T.batchnorm2d(x, Tensor(np.full(c, 1.5)), Tensor(np.full(c, 0.5)),
                                   np.zeros(c, np.float32), np.ones(c, np.float32),
                                   training=training)


def _conv(c, stride, padding):
    rng = np.random.default_rng(c)
    w, b = Tensor(rng.normal(0, 1, (4, c, 3, 3))), Tensor(rng.normal(0, 1, 4))
    return lambda x: T.conv2d(x, w, b, stride=stride, padding=padding)


class TestChannelMajorLayout:
    """On channel-major input, every op of a conv block returns channel-major
    outputs and input gradients, so no layer transposes or copies it back."""

    @pytest.mark.parametrize("op, c, h, w", [
        (_conv(3, 1, 1), 3, 6, 4),  # shifted-GEMM backward
        (_conv(3, 1, 0), 3, 6, 4),
        (_conv(1, 1, 1), 1, 6, 4),  # im2col columns and _col2im
        (_conv(3, 2, 1), 3, 7, 5),
        (T.maxpool2d, 3, 6, 4),
        (_bn(True), 3, 6, 4),
        (_bn(False), 3, 6, 4),
        (T.relu, 3, 6, 4),
    ], ids=["conv_shifted", "conv_shifted_unpadded", "conv_one_channel", "conv_stride2",
            "maxpool", "batchnorm_train", "batchnorm_eval", "relu"])
    def test_output_and_input_gradient_stay_channel_major(self, op, c, h, w):
        rng = np.random.default_rng(0)
        x = Tensor(channel_major(rng.normal(0, 1, (2, c, h, w)).astype(np.float32)),
                   requires_grad=True)
        out = op(x)
        gx = out.node.backward_fn(channel_major(rng.normal(0, 1, out.shape).astype(np.float32)))[0]
        assert x.data.dtype == out.data.dtype == gx.dtype == np.float32
        assert is_channel_major(out.data)
        assert gx.shape == x.shape and is_channel_major(gx)

    def test_conv_output_is_channel_major_for_contiguous_images(self):
        x = Tensor(np.random.default_rng(1).normal(0, 1, (2, 1, 6, 4)))
        assert is_channel_major(_conv(1, 1, 1)(x).data)


class TestActivations:
    def test_relu_values(self):
        out = T.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(out.data, [0, 0, 2])

    def test_leaky_relu_values(self):
        out = T.leaky_relu(Tensor([-1.0]), 0.2)
        np.testing.assert_allclose(out.data, [-0.2], rtol=1e-6)

    def test_relu_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(7)
        with use_float64():
            x = Tensor(np.where(np.abs(z := rng.normal(0, 1, 10)) < 0.05, 0.5, z))
            err = grad_check(lambda t: T.relu(t).sum(), x)
        assert err <= 1e-4


class TestSoftmaxEntropy:
    def test_constant_input_uniform(self):
        out = T.softmax(Tensor([3.0, 3.0, 3.0, 3.0]), temperature=0.7)
        np.testing.assert_allclose(out.data, 0.25, atol=1e-7)

    def test_large_temperature_approaches_uniform(self):
        out = T.softmax(Tensor([5.0, -3.0, 0.2, 1.0]), temperature=1e6)
        assert np.abs(out.data - 0.25).max() <= 1e-3

    def test_matches_float64_reference(self):
        x = np.array([2.0, 1.0, 0.0, -1.0])
        out = T.softmax(Tensor(x)).data
        ref = np.exp(x - x.max()) / np.exp(x - x.max()).sum()
        np.testing.assert_allclose(out, ref, atol=1e-7)

    def test_rows_sum_to_one_extreme_inputs(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-50, 50, (20, 6))
        out = T.softmax(Tensor(x), temperature=0.5).data
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)

    def test_invalid_temperature(self):
        with pytest.raises(ParameterError):
            T.softmax(Tensor([1.0]), temperature=0.0)

    def test_entropy_one_hot_is_zero(self):
        assert T.entropy(Tensor([0.0, 1.0, 0.0])).item() == 0.0

    def test_entropy_uniform_is_log_k(self):
        with use_float64():
            out = T.entropy(Tensor([0.25] * 4))
        assert abs(out.item() - math.log(4)) <= 1e-9

    def test_entropy_matches_float64_reference(self):
        x = np.array([2.0, 1.0, 0.0, -1.0])
        p = np.exp(x) / np.exp(x).sum()
        with use_float64():
            out = T.entropy(T.softmax(Tensor(x)))
        ref = -(p * np.log(p)).sum()
        assert abs(out.item() - ref) <= 1e-7

    def test_entropy_rejects_negative(self):
        with pytest.raises(ParameterError):
            T.entropy(Tensor([1.2, -0.2]))

    def test_entropy_nondecreasing_in_temperature(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            v = rng.normal(0, 2, 6)
            ents = [T.entropy(T.softmax(Tensor(v), temperature=tau)).item()
                    for tau in (0.25, 0.5, 1, 2, 4, 8)]
            assert all(b >= a - 1e-7 for a, b in zip(ents, ents[1:]))


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        backward(x.sum())
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_zero_scaled_loss_gives_zeros(self):
        x = Tensor(np.ones(4), requires_grad=True)
        loss = (T.exp(x).sum()) * Tensor(0.0)
        backward(loss)
        np.testing.assert_array_equal(x.grad, np.zeros(4))

    def test_non_scalar_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError):
            backward(x + x)

    def test_repeated_backward_accumulates_exactly_twice(self):
        x = Tensor(np.arange(1.0, 5.0), requires_grad=True)
        x.zero_grad()
        backward((x * x).sum())
        once = x.grad.copy()
        backward((x * x).sum())
        np.testing.assert_array_equal(x.grad, 2 * once)

    def test_composite_network_gradients(self):
        # conv -> bn -> relu -> fc -> softmax-CE, checked by finite differences
        rng = np.random.default_rng(10)
        with use_float64():
            w_conv = Tensor(rng.normal(0, 0.5, (2, 1, 3, 3)))
            b_conv = Tensor(np.zeros(2))
            gamma = Tensor(np.ones(2))
            beta = Tensor(np.zeros(2))
            w_fc = Tensor(rng.normal(0, 0.5, (8, 3)))
            x_in = Tensor(rng.normal(0, 1, (4, 1, 2, 2)))
            labels = np.array([0, 1, 2, 0])

            def loss_of(w):
                h = T.conv2d(x_in, w, b_conv, padding=1)
                h = T.batchnorm2d(h, gamma, beta, np.zeros(2), np.ones(2), training=True)
                h = T.relu(h)
                h = T.reshape(h, (4, -1))
                logits = T.matmul(h, w_fc)
                logp = T.log_softmax(logits)
                onehot = np.zeros((4, 3))
                onehot[np.arange(4), labels] = 1
                return -(logp * Tensor(onehot)).sum() / 4.0

            err = grad_check(loss_of, w_conv)
        assert err <= 1e-4


def _owner(a):
    """The array that owns a's memory."""
    return a if a.base is None else a.base


class TestGraphMemory:
    """The graph keeps what each backward reads, not the activations."""

    def _blocks(self, x, blocks, kept):
        """Two conv-BN-pool-ReLU blocks; every activation but the last goes to kept."""
        h = x
        for w, b, gamma, beta in blocks:
            for op in (lambda h: T.conv2d(h, w, b, padding=1),
                       lambda h: T.batchnorm2d(h, gamma, beta, np.zeros(4, np.float32),
                                               np.ones(4, np.float32), training=True),
                       T.maxpool2d, T.relu):
                if h is not x:
                    kept.append(h)
                h = op(h)
        return h

    def _inputs(self):
        rng = np.random.default_rng(0)
        x = Tensor(channel_major(rng.normal(0, 1, (4, 3, 8, 8)).astype(np.float32)),
                   requires_grad=True)
        blocks = [(Tensor(rng.normal(0, 1, (4, c, 3, 3)), requires_grad=True),
                   Tensor(rng.normal(0, 1, 4), requires_grad=True),
                   Tensor(rng.normal(1, 0.1, 4), requires_grad=True),
                   Tensor(rng.normal(0, 0.1, 4), requires_grad=True)) for c in (3, 4)]
        return x, blocks, Tensor(rng.normal(0, 1, (4, 4, 2, 2)))

    def test_activations_die_with_the_next_op_and_gradients_are_unchanged(self):
        grads = []
        for keep in (False, True):
            x, blocks, g = self._inputs()
            kept = []
            out = self._blocks(x, blocks, kept)
            # the conv, BN and pool outputs of both blocks and the first ReLU output
            refs = [weakref.ref(_owner(t.data)) for t in kept]
            assert len(refs) == 7
            if not keep:
                kept.clear()
                assert [r() for r in refs] == [None] * 7
            backward((out * g).sum())
            grads.append([x.grad] + [p.grad for block in blocks for p in block])
        for freed, held in zip(*grads):
            np.testing.assert_array_equal(freed.view(np.uint32), held.view(np.uint32))

    def test_swept_nodes_hold_no_inputs_and_no_backward(self):
        x, blocks, g = self._inputs()
        kept = []
        out = self._blocks(x, blocks, kept)
        loss = (out * g).sum()
        nodes = [t.node for t in kept + [out, loss]]
        assert all(node.inputs and node.backward_fn for node in nodes)
        backward(loss)
        assert all(node.inputs == () and node.backward_fn is None for node in nodes)


class TestGradCheck:
    def test_linear_map_is_exact(self):
        with use_float64():
            c = Tensor(np.array([2.0, -3.0, 0.5]))
            err = grad_check(lambda x: (x * c).sum(), Tensor(np.ones(3)))
        assert err <= 1e-9

    def test_softmax_entropy_chain(self):
        rng = np.random.default_rng(11)
        with use_float64():
            err = grad_check(lambda x: T.entropy(T.softmax(x)),
                             Tensor(rng.normal(0, 1, (2, 4))))
        assert err <= 1e-5


class TestDtypeControl:
    def test_use_float64_switches_and_restores(self):
        assert Tensor([1.0]).data.dtype == np.float32
        with use_float64():
            assert Tensor([1.0]).data.dtype == np.float64
        assert Tensor([1.0]).data.dtype == np.float32

    def test_zero_grad_exact_zeros(self):
        x = Tensor(np.ones(5), requires_grad=True)
        backward(T.exp(x).sum())
        x.zero_grad()
        assert (x.grad == 0.0).all()


class TestNoGrad:
    def _ops(self, x, w):
        return T.relu(T.matmul(x, w)).sum()

    def test_records_nothing_inside_and_resumes_after(self):
        x = Tensor(np.ones((2, 3)))
        w = Tensor(np.full((3, 4), 0.5), requires_grad=True)
        with T.no_grad():
            out = self._ops(x, w)
            assert out.node is None and not out.requires_grad
            assert out.item() == pytest.approx(12.0)
        after = self._ops(x, w)
        assert after.node is not None
        backward(after)
        np.testing.assert_array_equal(w.grad, np.full((3, 4), 2.0))

    def test_recording_resumes_after_an_exception(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError, match="inside"):
            with T.no_grad():
                raise RuntimeError("inside")
        assert T.exp(w).node is not None

    def test_relu_keeps_no_mask_and_the_same_bytes(self, monkeypatch):
        x = np.random.default_rng(0).standard_normal((16, 64, 16, 16), dtype=np.float32)
        x[0, 0, 0, :3] = (0.0, -0.0, np.nan)
        arenas = []  # the output and a mask are arena blocks, which tracemalloc does not see
        monkeypatch.setattr(T, "_ARENAS", arenas)
        with T.no_grad():
            tracemalloc.start()
            try:
                out = T.relu(Tensor(x))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        peak += sum(arena.top for arena in arenas)
        assert out.node is None
        assert peak < out.data.nbytes + out.data.nbytes // 8  # a bool mask is a quarter of it
        recorded = T.relu(Tensor(x, requires_grad=True))
        for got in (out.data, recorded.data):
            np.testing.assert_array_equal(got.view(np.uint32), np.maximum(x, 0).view(np.uint32))

    def test_nested_blocks_restore_the_outer_state(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                pass
            assert T.exp(w).node is None
        assert T.exp(w).node is not None


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="malloc options are glibc's")
class TestMemoryReuse:
    def test_repeated_conv_step_faults_in_no_fresh_pages(self):
        # the padded planes and gradients here are 4-5 MiB each: arena
        # blocks, and above glibc's default mmap threshold
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((64, 64, 16, 16)), requires_grad=True)
        w = Tensor(rng.standard_normal((64, 64, 3, 3)), requires_grad=True)
        b = Tensor(np.zeros(64), requires_grad=True)

        def step():
            backward(T.conv2d(x, w, b, padding=1).sum())

        step()
        step()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(3):
            step()
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 200


def _conv_block_step(x, params):
    """Conv, BN, pool and ReLU, then the backward of a fixed projection; the gradients."""
    w, b, gamma, beta = params
    h = T.conv2d(x, w, b, padding=1)
    h = T.batchnorm2d(h, gamma, beta, np.zeros(64, np.float32), np.ones(64, np.float32),
                      training=True)
    h = T.relu(T.maxpool2d(h))
    proj = Tensor(np.linspace(-1.0, 1.0, h.data.size, dtype=np.float32).reshape(h.shape))
    for p in (x, *params):
        p.grad = None
    backward((h * proj).sum())
    return [p.grad.copy() for p in (x, *params)]


def _conv_block_inputs(n=16):
    rng = np.random.default_rng(0)
    x = Tensor(channel_major(rng.standard_normal((n, 64, 16, 16), dtype=np.float32)),
               requires_grad=True)  # 1 MiB: every conv-block array is a scratch block
    params = [Tensor(rng.standard_normal((64, 64, 3, 3)) * 0.05, requires_grad=True),
              Tensor(rng.standard_normal(64) * 0.1, requires_grad=True),
              Tensor(rng.normal(1.0, 0.1, 64), requires_grad=True),
              Tensor(rng.standard_normal(64) * 0.1, requires_grad=True)]
    return x, params


class TestArena:
    """The conv-block ops take their large arrays from arenas that hold nothing else."""

    def test_a_range_is_taken_again_only_once_every_view_of_its_block_is_gone(self):
        arena = T._Arena(8 << 20)
        block = arena.take(2 << 20)
        view = block.view(np.float32).reshape(512, 1024)[::2].T
        del block
        assert arena.take(2 << 20).ctypes.data != view.ctypes.data  # dropped at once
        assert set(arena.live) == {0}
        del view
        assert not arena.live
        # the best fit: the smallest gap that holds the block, the lowest of equals
        held = [arena.take(1 << 20) for _ in range(4)]
        del held[2], held[0]
        assert arena.take(1 << 20).ctypes.data == np.frombuffer(arena.map, np.uint8).ctypes.data
        assert arena.top == 4 << 20  # no block has gone past the first four

    @pytest.mark.parametrize("order", [(0, 1, 2, 3), (1, 0, 2, 3), (3, 1, 0, 2)])
    def test_an_array_has_the_shape_and_memory_order_asked_for(self, order):
        shape = (8, 64, 32, 32)
        got = T._empty(shape, np.float32, order)
        want = np.empty(np.take(shape, order), np.float32).transpose(np.argsort(order))
        assert got.shape == want.shape and got.strides == want.strides
        assert any(got.base.base.obj is arena.map for arena in T._ARENAS)
        assert _owner(T._empty((4, 4), np.float32)).flags.owndata  # numpy's own memory
        windows = channel_major(np.ones((8, 64, 32, 32), np.float32)).reshape(8, 64, 16, 2, 16, 2)
        for a in (got, windows[..., 1], windows[:, :, :, 0]):
            assert T._like(a, np.bool_).strides == np.empty_like(a, np.bool_).strides

    def test_the_bytes_do_not_depend_on_where_the_arrays_live(self, monkeypatch):
        arena = _conv_block_step(*_conv_block_inputs())
        monkeypatch.setattr(T, "_ARENA_MIN_BYTES", 1 << 62)  # every array from numpy
        heap = _conv_block_step(*_conv_block_inputs())
        for got, want in zip(arena, heap):
            np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_threads_never_share_a_block(self, monkeypatch):
        monkeypatch.setattr(T, "_ARENAS", [])
        errors = []

        def work(k):
            for _ in range(200):
                mine = T._empty((1 << 16,), np.float32)  # 256 KiB: an arena block
                mine.fill(k)
                T._empty((1 << 16,), np.float32).fill(-k)
                if not (mine == k).all():
                    errors.append(k)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(1, 5)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not errors

    def test_each_step_cuts_the_arena_the_same_way_whatever_else_is_allocated(
            self, monkeypatch):
        arenas = []
        monkeypatch.setattr(T, "_ARENAS", arenas)
        take = T._Arena.take
        steps = []

        def spy(arena, nbytes):
            block = take(arena, nbytes)
            steps[-1].append((block.ctypes.data, nbytes))
            return block

        monkeypatch.setattr(T._Arena, "take", spy)
        x, params = _conv_block_inputs()
        rng = np.random.default_rng(1)
        junk = []
        for _ in range(4):
            steps.append([])
            _conv_block_step(x, params)
            # heap memory taken and freed between steps, as other code does
            junk = [np.ones(int(k), np.uint8) for k in rng.integers(1 << 10, 8 << 20, 6)]
        assert len(steps[0]) > 10 and all(step == steps[0] for step in steps)
        assert len(arenas) == 1 and not arenas[0].live
        del junk
