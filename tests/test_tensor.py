"""Tensor core: op semantics against brute-force oracles, backward rules."""

import contextlib
import math
import platform
import resource
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
    """The stride-1 forward builds its im2col columns one image block at a time from the
    shared-padding grid, where an image takes (H + p)(W + p) columns."""

    @staticmethod
    def _im2col_gemm(x, w, b, padding):
        f, _, kh, kw = w.shape
        cols = T._window_columns(T._planes(x, padding), kh, kw, 1)
        ho, wo = cols.shape[-2:]
        cols = cols.reshape(len(cols), -1)
        out = w.reshape(f, -1) @ cols
        out += b[:, None]
        return out.reshape(f, x.shape[0], ho, wo).transpose(1, 0, 2, 3)

    @pytest.mark.parametrize("size, c, f, k, padding", [
        (32, 1, 64, 3, 1),  # conv1 of the digit net
        (16, 64, 64, 3, 1),  # conv2
        (8, 64, 64, 3, 1),  # conv3
        (28, 1, 20, 5, 0),  # conv1 of the ablation net
        (12, 20, 50, 5, 0),  # conv2 of the ablation net
    ], ids=["32", "16", "8", "ablation_conv1", "ablation_conv2"])
    @pytest.mark.parametrize("layout", LAYOUTS, ids=["c_order", "channel_major"])
    def test_bytes_equal_one_im2col_gemm_around_the_block_size(self, size, c, f, k, padding,
                                                               layout):
        rng = np.random.default_rng(size)
        w = rng.standard_normal((f, c, k, k), dtype=np.float32) * 0.05
        b = rng.standard_normal(f, dtype=np.float32)
        block = T._COLUMN_BUDGET // (c * k * k * (size + padding) ** 2 * 4)
        assert block > 2
        for n in (1, block - 1, block, block + 1):
            x = layout(rng.standard_normal((n, c, size, size), dtype=np.float32))
            out = T.conv2d(Tensor(x), Tensor(w), Tensor(b), padding=padding).data
            want = self._im2col_gemm(x, w, b, padding)
            assert out.strides == want.strides
            np.testing.assert_array_equal(out.view(np.uint32), want.view(np.uint32))

    def test_transient_memory_stays_within_the_column_budget(self):
        rng = np.random.default_rng(0)
        x = Tensor(channel_major(rng.standard_normal((128, 64, 16, 16), dtype=np.float32)))
        w = Tensor(rng.standard_normal((64, 64, 3, 3), dtype=np.float32), requires_grad=True)
        b = Tensor(np.zeros(64), requires_grad=True)
        # saved for the backward: 17x17 columns an image and 18 after the last
        grid = 64 * (128 * 17 * 17 + 18) * 4
        tracemalloc.start()
        try:
            out = T.conv2d(x, w, b, padding=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the whole batch's columns would be 75 MiB; a block's GEMM result is
        # F / (C*kh*kw) = 1/9 of its columns
        assert peak - grid - out.data.nbytes <= T._COLUMN_BUDGET * (1 + 1 / 9) + (64 << 10)


class TestGridWeightGradient:
    """The stride-1 weight gradient sums, per image block, one GEMM per kernel row of the
    block's kernel-row columns."""

    @pytest.mark.parametrize("n, size, c, f, k, padding", [
        (14, 16, 64, 64, 3, 1),  # conv2 of the digit net: blocks of 6, 6 and 2 images
        (30, 12, 20, 50, 5, 0),  # conv2 of the ablation net: blocks of 14, 14 and 2
    ], ids=["digit_conv2", "ablation_conv2"])
    def test_bytes_equal_one_gemm_per_block_of_im2col_columns(self, n, size, c, f, k, padding):
        rng = np.random.default_rng(n)
        x = channel_major(rng.standard_normal((n, c, size, size), dtype=np.float32))
        grid = T._Grid(x.shape, k, k, padding)
        g = channel_major(rng.standard_normal((n, f, grid.ho, grid.wo), dtype=np.float32))
        flat, ggrid = T._shifted_grid(x, grid, padding), T._shifted_grid(g, grid, 0)
        block = grid.block(c * k * k, T._COLUMN_BUDGET // 2, 4)
        assert 1 < block < n and n % block  # several blocks, the last one partial
        want = None
        for start, _, cols in T._grid_columns(flat, grid, T._COLUMN_BUDGET // 2):
            first = start * grid.size
            part = cols @ ggrid[:, first:first + cols.shape[1]].T
            want = part if want is None else np.add(want, part, out=want)
        want = np.ascontiguousarray(want.T).reshape(f, c, k, k)
        gw = T._grid_weight_grad(flat, ggrid, grid)
        assert gw.flags.c_contiguous
        _assert_bytes_equal(gw, want)

    @pytest.mark.parametrize("n, size, c, f, k, padding", [
        (14, 16, 64, 64, 3, 1),  # conv2 of the digit net
        # conv1 of the ablation net, in blocks of 53, 53 and 14 images; its bytes
        # are not those of one GEMM per block above: under two OpenBLAS threads a
        # GEMM of kw*C = 5 rows sums otherwise than one of 25
        (120, 28, 1, 20, 5, 0),
    ], ids=["digit_conv2", "ablation_conv1"])
    def test_float32_across_column_blocks_matches_a_float64_oracle(self, n, size, c, f, k,
                                                                   padding):
        rng = np.random.default_rng(5)
        grid = T._Grid((n, c, size, size), k, k, padding)
        block = grid.block(c * k * k, T._COLUMN_BUDGET // 2, 4)
        assert 1 < block < n and n % block  # several blocks, the last one partial
        x = channel_major(rng.standard_normal((n, c, size, size), dtype=np.float32))
        w = rng.standard_normal((f, c, k, k), dtype=np.float32) * 0.05
        g = channel_major(rng.standard_normal((n, f, grid.ho, grid.wo), dtype=np.float32))
        out = T.conv2d(Tensor(x), Tensor(w, requires_grad=True),
                       Tensor(np.zeros(f, np.float32)), padding=padding)
        gw = out.node.backward_fn(g)[1]
        xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        want = np.stack([np.einsum("nfhw,nchw->fc", g.astype(np.float64),
                                   xp[:, :, i:i + grid.ho, j:j + grid.wo])
                         for i in range(k) for j in range(k)], axis=-1).reshape(w.shape)
        assert gw.dtype == np.float32 and gw.shape == w.shape and gw.flags.c_contiguous
        assert np.abs(gw - want).max() <= 100 * np.finfo(np.float32).eps * np.abs(want).max()

    @pytest.mark.parametrize("padding", [0, 1, 3], ids=["p0", "p1", "p3_over_padded"])
    def test_one_image_per_block_matches_the_naive_loops(self, monkeypatch, padding):
        monkeypatch.setattr(T, "_COLUMN_BUDGET", 1)  # every block holds one image
        rng = np.random.default_rng(padding)
        x, w, bias = (rng.normal(0, 1, s) for s in ((3, 2, 4, 5), (2, 2, 3, 3), (2,)))
        want_out = naive_conv2d(x, w, bias, 1, padding)
        g = rng.normal(0, 1, want_out.shape)
        with use_float64():
            xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, bias))
            out = T.conv2d(xt, wt, bt, padding=padding)
            backward((out * Tensor(g)).sum())
        np.testing.assert_allclose(out.data, want_out, rtol=1e-10, atol=1e-10)
        for got, want in zip((xt.grad, wt.grad, bt.grad), naive_conv2d_grads(x, w, g, 1, padding)):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)


def _float64_input_grad(w, g, padding):
    """The input gradient of a stride-1 convolution in float64, one product per kernel offset."""
    n, f, ho, wo = g.shape
    _, c, kh, kw = w.shape
    g64 = g.astype(np.float64).transpose(0, 2, 3, 1)
    gxp = np.zeros((n, ho + kh - 1, wo + kw - 1, c))
    for i in range(kh):
        for j in range(kw):
            gxp[:, i:i + ho, j:j + wo] += g64 @ w[:, :, i, j].astype(np.float64)
    h, wd = ho + kh - 1 - 2 * padding, wo + kw - 1 - 2 * padding
    return gxp[:, padding:padding + h, padding:padding + wd].transpose(0, 3, 1, 2)


class TestGridInputGradient:
    """The stride-1 input gradient: per destination column block, kh GEMMs of the flipped
    kernel's rows with the output gradient's kernel-row columns."""

    # F >= C writes the gradient into the output gradient's grid
    @pytest.mark.parametrize("f", [2, 6], ids=["own_buffer", "in_place"])
    @pytest.mark.parametrize("padding", [0, 1, 3], ids=["p0", "p1", "p3_over_padded"])
    def test_several_destination_blocks_match_the_naive_loops(self, monkeypatch, padding, f):
        rng = np.random.default_rng(10 + padding)
        x, w = rng.normal(0, 1, (3, 4, 5, 6)), rng.normal(0, 1, (f, 4, 3, 3))
        grid = T._Grid(x.shape, 3, 3, padding)
        # destination blocks of 13 float64 columns of 4 channels, the last
        # one narrower; the first reaches back over the start of the grid
        monkeypatch.setattr(T, "_GRAD_BLOCK_BYTES", 13 * 4 * 8)
        assert grid.n * grid.size % 13
        empty = T._empty

        def nan_filled(*args, **kwargs):  # no column may be read before it is written
            out = empty(*args, **kwargs)
            out.fill(np.nan)
            return out

        monkeypatch.setattr(T, "_empty", nan_filled)
        g = rng.normal(0, 1, (3, f, grid.ho, grid.wo))
        with use_float64():
            gx = T._grid_input_grad(w, T._shifted_grid(g, grid, 0), grid)
        assert is_channel_major(gx)
        np.testing.assert_allclose(gx, naive_conv2d_grads(x, w, g, 1, padding)[0],
                                   rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("n", [25, 128])
    def test_float32_across_destination_blocks_matches_a_float64_oracle(self, n):
        rng = np.random.default_rng(n)
        w = rng.standard_normal((64, 64, 3, 3), dtype=np.float32) * 0.05
        g = channel_major(rng.standard_normal((n, 64, 16, 16), dtype=np.float32))
        grid = T._Grid((n, 64, 16, 16), 3, 3, 1)
        assert n * grid.size * 64 * 4 > T._GRAD_BLOCK_BYTES  # several destination blocks
        gx = T._grid_input_grad(w, T._shifted_grid(g, grid, 0), grid)
        want = _float64_input_grad(w, g, 1)
        assert gx.dtype == np.float32 and gx.shape == want.shape and is_channel_major(gx)
        assert np.abs(gx - want).max() <= 100 * np.finfo(np.float32).eps * np.abs(want).max()

    def test_transient_memory_stays_within_the_block_buffers(self):
        rng = np.random.default_rng(0)
        n, c, f, size = 128, 64, 64, 16
        w = rng.standard_normal((f, c, 3, 3), dtype=np.float32)
        grid = T._Grid((n, c, size, size), 3, 3, 1)
        ggrid = T._shifted_grid(rng.standard_normal((n, f, size, size), dtype=np.float32),
                                grid, 0)
        gx = n * c * size * size * 4  # the valid pixels copied out of the grid
        tracemalloc.start()
        try:
            T._grid_input_grad(w, ggrid, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the gradient is made in the output gradient's grid, so no grid-sized
        # array is allocated; the kernel-row columns of a destination block
        # are kw*F/C times its bytes plus (kh-1)*wq columns, and one more
        # block holds a GEMM's term
        rows = 3 * f * 4 * (T._GRAD_BLOCK_BYTES // (c * 4) + 2 * grid.wq)
        assert peak - gx <= rows + T._GRAD_BLOCK_BYTES + (64 << 10)


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
        for layout in LAYOUTS:
            with use_float64():
                xt, kt, bt = (Tensor(a, requires_grad=True) for a in (layout(x), kernel, bias))
                out = T.conv2d(xt, kt, bt, stride=s, padding=p)
                backward((out * Tensor(layout(g))).sum())
            np.testing.assert_allclose(out.data, want_out, rtol=1e-10, atol=1e-10)
            for got, want in zip((xt.grad, kt.grad, bt.grad), want_grads):
                np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)


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
        fold_windows = T._fold_windows

        def spy(cols, codes):
            out, code = fold_windows(cols, codes)
            folds.append(code)
            return out, code

        monkeypatch.setattr(T, "_fold_windows", spy)
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)
        with T.no_grad():
            T.maxpool2d(x)
        T.maxpool2d(Tensor(x.data))  # a leaf that needs no gradient
        assert [code is None for code in folds] == [True, True]
        T.maxpool2d(x)
        assert len(folds) == 3 and folds[2].dtype == np.uint8 and folds[2].shape == (1, 1, 2, 2)
        np.testing.assert_array_equal(folds[2], [[[[3, 3], [3, 3]]]])  # each window's bottom right


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


def _bn_pool_pair(x, gamma, beta, rm, rv, training, g, size, fused, layout=np.ascontiguousarray):
    """Output, running statistics and the x/gamma/beta gradients of sum(g * pooled BN),
    by the pool=size op (fused) or by batchnorm2d then maxpool2d."""
    xt, gt, bt = (Tensor(a, requires_grad=True) for a in (layout(x), gamma, beta))
    rm, rv = rm.copy(), rv.copy()
    if fused:
        out = T.batchnorm2d(xt, gt, bt, rm, rv, training=training, pool=size)
    else:
        out = T.maxpool2d(T.batchnorm2d(xt, gt, bt, rm, rv, training=training), size, size)
    backward((out * Tensor(layout(g))).sum())
    return out.data, rm, rv, xt.grad, gt.grad, bt.grad


def _assert_bytes_equal(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        np.testing.assert_array_equal(a.view(np.uint8), b.view(np.uint8))


class TestBatchnormPool:
    """batchnorm2d(pool=k) gives maxpool2d(batchnorm2d(x)) byte for byte."""

    @given(st.sampled_from([2, 3]), st.integers(2, 3), st.integers(1, 4), st.integers(1, 3),
           st.integers(1, 3), st.integers(1, 6), st.booleans(), st.sampled_from(LAYOUTS),
           st.sampled_from([np.float32, np.float64]), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_bytes_equal_bn_then_pool(self, size, n, c, ho, wo, levels, training, layout,
                                      dtype, seed):
        rng = np.random.default_rng(seed)
        # few distinct levels: windows mix ties with unique extremes, and distinct
        # inputs stay apart after BN, so no pick can move
        x = (rng.integers(0, levels, (n, c, ho * size, wo * size)) * 0.75
             + rng.normal(0, 2)).astype(dtype)
        gamma = rng.uniform(0.25, 2, c) * rng.choice([-1.0, 1.0], c)  # both signs
        beta, rm, rv = rng.normal(0, 1, c), rng.normal(0, 1, c), rng.uniform(0.2, 3, c)
        g = rng.normal(0, 1, (n, c, ho, wo))
        with use_float64() if dtype == np.float64 else contextlib.nullcontext():
            gamma, beta, rm, rv, g = (a.astype(dtype) for a in (gamma, beta, rm, rv, g))
            pair = [_bn_pool_pair(x, gamma, beta, rm, rv, training, g, size, fused, layout)
                    for fused in (True, False)]
        _assert_bytes_equal(*pair)
        if layout is channel_major:
            assert is_channel_major(pair[0][0]) and is_channel_major(pair[0][3])

    @given(st.sampled_from([2, 3]), st.integers(2, 3), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 3), st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_naive_loops(self, size, n, c, ho, wo, training, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(rng.normal(0, 2), rng.uniform(0.5, 3), (n, c, ho * size, wo * size))
        gamma = rng.uniform(0.25, 2, c) * rng.choice([-1.0, 1.0], c)
        beta, rm, rv = rng.normal(0, 1, c), rng.normal(0, 1, c), rng.uniform(0.2, 3, c)
        g = rng.normal(0, 1, (n, c, ho, wo))
        bn, want_rm, want_rv, *_ = naive_batchnorm(x, gamma, beta, rm, rv, training,
                                                  np.zeros_like(x))
        grads = naive_batchnorm(x, gamma, beta, rm, rv, training,
                                naive_maxpool_grad(bn, g, size))[3:]
        with use_float64():
            got = _bn_pool_pair(x, gamma, beta, rm, rv, training, g, size, True)
        want = (naive_maxpool(bn, size), want_rm, want_rv) + grads
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=1e-8, atol=1e-9)

    def test_negative_gamma_pools_the_window_min(self):
        x = np.array([3, 1, 4, 2, 0, 5, 7, 6], np.float32).reshape(2, 1, 2, 2)
        gamma, beta = np.array([-1.5], np.float32), np.array([0.5], np.float32)
        rm, rv = np.zeros(1, np.float32), np.ones(1, np.float32)
        out, _, _, gx, _, _ = _bn_pool_pair(x, gamma, beta, rm, rv, False,
                                            np.ones((2, 1, 1, 1), np.float32), 2, True)
        scale = gamma * (1.0 / np.sqrt(rv + 1e-5))
        np.testing.assert_array_equal(out.reshape(2), np.array([1, 0], np.float32) * scale + beta)
        np.testing.assert_array_equal(gx.reshape(2, 4) != 0, [[0, 1, 0, 0], [1, 0, 0, 0]])

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("beta0", [0.0, -0.0])
    def test_zero_gamma_and_signed_zero_beta_keep_the_two_ops_bytes(self, training, beta0):
        rng = np.random.default_rng(7)
        x = rng.normal(0, 1, (3, 4, 4, 4)).astype(np.float32)
        x[:, 3] = -0.0  # an all-zero channel: xhat is -0 there
        gamma = np.array([0.0, -0.0, 1.5, 0.0], np.float32)
        beta = np.array([beta0, beta0, beta0, 2.0], np.float32)
        g = rng.normal(0, 1, (3, 4, 2, 2)).astype(np.float32)
        rm, rv = np.zeros(4, np.float32), np.ones(4, np.float32)
        pair = [_bn_pool_pair(x, gamma, beta, rm, rv, training, g, 2, fused, channel_major)
                for fused in (True, False)]
        _assert_bytes_equal(*pair)
        out = pair[0][0]
        assert (out[:, :2] == 0).all() and (out[:, 3] == 2.0).all()

    @pytest.mark.parametrize("training", [True, False])
    def test_nan_windows_output_nan_and_pass_no_gradient(self, training):
        rng = np.random.default_rng(8)
        x = rng.normal(0, 1, (2, 3, 4, 6)).astype(np.float32)
        x[0, 0, 1, 1] = np.nan  # window (0, 0, 0, 0)
        x[1, 2, 3, 5] = np.nan  # window (1, 2, 1, 2)
        gamma = np.array([1.0, -0.5, -2.0], np.float32)
        beta = np.array([0.1, 0.2, 0.3], np.float32)
        g = rng.normal(0, 1, (2, 3, 2, 3)).astype(np.float32)
        rm, rv = np.zeros(3, np.float32), np.ones(3, np.float32)
        pair = [_bn_pool_pair(x, gamma, beta, rm, rv, training, g, 2, fused)
                for fused in (True, False)]
        _assert_bytes_equal(*pair)
        out, gx = pair[0][0], pair[0][3]
        if training:  # NaN in a channel's statistics takes the whole channel
            assert np.isnan(out[:, [0, 2]]).all() and not np.isnan(out[:, 1]).any()
        else:
            assert np.isnan(out).sum() == 2 and np.isnan(out[0, 0, 0, 0])
            assert np.isnan(out[1, 2, 1, 2])
            assert (gx[0, 0, :2, :2] == 0).all() and (gx[1, 2, 2:, 4:] == 0).all()

    def test_a_lazy_conv_output_is_centred_in_place(self):
        x, wk, b, gamma, beta, g = (a.astype(np.float32)
                                    for a in _conv_bn_pool_inputs(9, c=3, f=5))
        want = _conv_bn_pool_pair(x, wk, b, gamma, beta, g, 1, 2, False, x_grad=True)
        xt = Tensor(x, requires_grad=True)
        wt, bt, gt, bet = (Tensor(a, requires_grad=True) for a in (wk, b, gamma, beta))
        z = T.conv2d(xt, wt, bt, padding=1, lazy=True)
        conv = z.data.copy()
        rm, rv = np.full(5, 0.25, np.float32), np.full(5, 1.5, np.float32)
        out = T.batchnorm2d(z, gt, bet, rm, rv, training=True, pool=2)
        # z's own memory now holds xhat, times sign(gamma): centred per channel
        assert not np.array_equal(z.data, conv)
        np.testing.assert_allclose(z.data.mean(axis=(0, 2, 3)), 0, atol=1e-5)
        backward((out * Tensor(g)).sum())
        _assert_bytes_equal((out.data, rm, rv, wt.grad, bt.grad, gt.grad, bet.grad, xt.grad),
                            want)
        np.testing.assert_array_equal(gt.data, gamma)
        np.testing.assert_array_equal(bet.data, beta)

    def test_non_divisible_rejected(self):
        with pytest.raises(ShapeError):
            T.batchnorm2d(Tensor(np.zeros((2, 1, 5, 4))), Tensor(np.ones(1)), Tensor(np.zeros(1)),
                          np.zeros(1), np.ones(1), training=True, pool=2)


def _conv_bn_pool_pair(x, w, b, gamma, beta, g, padding, size, op, x_grad=False,
                       training=True):
    """Output, running statistics and the w/b/gamma/beta (and x) gradients of
    sum(g * pooled BN of the conv), by batchnorm2d(pool=size) of a lazy conv
    output (op) or of a plain one."""
    xt = Tensor(x, requires_grad=x_grad)
    wt, bt, gt, bet = (Tensor(a, requires_grad=True) for a in (w, b, gamma, beta))
    rm = np.full(len(b), 0.25, T.current_dtype())
    rv = np.full(len(b), 1.5, T.current_dtype())
    out = T.batchnorm2d(T.conv2d(xt, wt, bt, padding=padding, lazy=op), gt, bet, rm, rv,
                        training=training, pool=size)
    backward((out * Tensor(g)).sum())
    grads = (wt.grad, bt.grad, gt.grad, bet.grad) + ((xt.grad,) if x_grad else ())
    return (out.data, rm, rv) + grads


def _conv_bn_pool_inputs(seed, n=3, c=1, f=10, h=8, w=6, size=2, padding=1):
    rng = np.random.default_rng(seed)
    x = rng.normal(rng.normal(0, 2), rng.uniform(0.5, 3), (n, c, h, w))
    wk = rng.uniform(-1, 1, (f, c, 3, 3))
    b = rng.normal(0, 1, f)
    gamma = rng.uniform(0.25, 2, f) * rng.choice([-1.0, 1.0], f)  # both signs
    beta = rng.normal(0, 1, f)
    ho, wo = h + 2 * padding - 2, w + 2 * padding - 2
    g = rng.normal(0, 1, (n, f, ho // size, wo // size))
    return x, wk, b, gamma, beta, g


class TestConvBnPool:
    """batchnorm2d(conv2d(x, w, b, lazy=True), ..., training=True, pool=k) on
    one-channel images that need no gradient: maxpool2d(batchnorm2d(conv2d(x)),
    k, k) from x's im2col columns, with the bias gradient exactly 0.  At
    C > 1 it computes the conv and runs the two ops."""

    @given(st.sampled_from([1, 3]), st.sampled_from([(1, 2, 8, 6), (0, 3, 8, 5),
                                                     (2, 4, 6, 10)]),
           st.sampled_from(LAYOUTS), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_conv_then_bn_pool_in_float64(self, c, geom, layout, seed):
        padding, size, h, w = geom
        x, wk, b, gamma, beta, g = _conv_bn_pool_inputs(seed, c=c, f=3 * c * 3 + 1, h=h, w=w,
                                                        size=size, padding=padding)
        with use_float64():
            got, want = (_conv_bn_pool_pair(layout(x), wk, b, gamma, beta, g, padding, size, op)
                         for op in (True, False))
        assert is_channel_major(got[0])
        if c > 1:  # the op applies at C = 1 only
            _assert_bytes_equal(got, want)
            return
        assert not got[4].any()  # the bias cancels in BN
        for name, a, e in zip(("out", "running_mean", "running_var", "w", "b", "gamma",
                               "beta"), got, want):
            np.testing.assert_allclose(a, e, rtol=1e-8, atol=1e-9, err_msg=name)

    def test_float32_stays_closer_to_float64_than_the_two_ops(self):
        x, wk, b, gamma, beta, g = _conv_bn_pool_inputs(0, n=16, f=16, h=16, w=16)
        with use_float64():
            exact = _conv_bn_pool_pair(x, wk, b, gamma, beta, g, 1, 2, False)
        f32 = [a.astype(np.float32) for a in (x, wk, b, gamma, beta, g)]
        op, two = (_conv_bn_pool_pair(*f32, 1, 2, flag) for flag in (True, False))
        for i in (0, 3, 5):  # the output and the w and gamma gradients
            assert np.abs(op[i] - exact[i]).max() < np.abs(two[i] - exact[i]).max()
        assert op[0].dtype == np.float32 and not op[4].any()

    def test_no_grad_gives_the_same_output_and_statistics(self):
        x, wk, b, gamma, beta, _ = (a.astype(np.float32) for a in _conv_bn_pool_inputs(1))
        outs = []
        for ctx in (contextlib.nullcontext(), T.no_grad()):
            rm, rv = np.zeros(10, np.float32), np.ones(10, np.float32)
            with ctx:
                z = T.conv2d(Tensor(x), Tensor(wk, requires_grad=True), Tensor(b),
                             padding=1, lazy=True)
                out = T.batchnorm2d(z, Tensor(gamma), Tensor(beta), rm, rv, training=True,
                                    pool=2)
            outs.append((out.data, rm, rv))
        assert out.node is None
        _assert_bytes_equal(*outs)

    def test_a_graph_free_forward_at_c_above_1_keeps_the_two_ops(self):
        x, wk, b, gamma, beta, _ = (a.astype(np.float32) for a in _conv_bn_pool_inputs(1, c=3))
        outs = []
        with T.no_grad():
            for lazy in (True, False):
                rm, rv = np.zeros(10, np.float32), np.ones(10, np.float32)
                z = T.conv2d(Tensor(x), Tensor(wk, requires_grad=True), Tensor(b), padding=1,
                             lazy=lazy)
                assert not lazy or z.conv is not None
                out = T.batchnorm2d(z, Tensor(gamma), Tensor(beta), rm, rv, training=True,
                                    pool=2)
                assert not lazy or z.conv is None  # batchnorm2d computed it
                outs.append((out.data, rm, rv))
        _assert_bytes_equal(*outs)

    @pytest.mark.parametrize("case", ["applies", "zero_gamma", "negative_zero_beta", "nan_image",
                                      "huge_image", "inf_bias", "input_needs_grad",
                                      "eval_mode", "one_image"])
    def test_falls_back_to_conv_then_bn_pool(self, case):
        x, wk, b, gamma, beta, g = (a.astype(np.float32) for a in _conv_bn_pool_inputs(2))
        if case == "zero_gamma":
            gamma[3] = 0.0
        elif case == "negative_zero_beta":
            beta[5] = -0.0
        elif case == "nan_image":
            x[1, 0, 2, 3] = np.nan
        elif case == "huge_image":
            x[0, 0, 0, 0] = np.finfo(np.float32).max  # its centred column would overflow
        elif case == "inf_bias":
            b[0] = np.inf
        elif case == "one_image":
            with pytest.raises(ParameterError):
                _conv_bn_pool_pair(x[:1], wk, b, gamma, beta, g[:1], 1, 2, True)
            return
        x_grad, training = case == "input_needs_grad", case != "eval_mode"
        with np.errstate(all="ignore"):
            pair = [_conv_bn_pool_pair(x, wk, b, gamma, beta, g, 1, 2, op, x_grad, training)
                    for op in (True, False)]
        if case == "applies":  # the op's own bytes differ, so equal bytes show the fallback
            assert not pair[0][4].any() and pair[1][4].any()
        else:
            _assert_bytes_equal(*pair)

    def test_the_op_is_the_bn_node_of_a_conv_node_and_keeps_no_full_size_map(self):
        x, wk, b, gamma, beta, _ = (a.astype(np.float32)
                                    for a in _conv_bn_pool_inputs(3, n=4, f=64, h=32, w=32))
        xt = Tensor(x)
        params = [Tensor(a, requires_grad=True) for a in (wk, b, gamma, beta)]
        z = T.conv2d(xt, params[0], params[1], padding=1, lazy=True)
        assert z.shape == (4, 64, 32, 32)
        out = T.batchnorm2d(z, params[2], params[3], np.zeros(64, np.float32),
                            np.ones(64, np.float32), training=True, pool=2)
        assert z.conv is not None  # the conv output was never computed
        conv = out.node.inputs[0]
        assert out.node.op == "batchnorm2d" and out.node.inputs[1:] == tuple(params[2:])
        assert conv is z.node and conv.op == "conv2d" and conv.inputs == (xt, *params[:2])
        kept = [cell.cell_contents for cell in out.node.backward_fn.__closure__
                if isinstance(cell.cell_contents, np.ndarray)]
        # the centred columns (9 x 4096 pixels) are the largest array kept;
        # the 64 x 4096 map is not
        assert max(a.nbytes for a in kept) == 9 * 4 * 32 * 32 * 4

    def test_a_lazy_output_that_is_read_gives_the_conv_and_its_gradients(self):
        x, wk, b, _, _, _ = (a.astype(np.float32) for a in _conv_bn_pool_inputs(4))
        g = np.random.default_rng(0).normal(0, 1, (3, 10, 8, 6)).astype(np.float32)
        results = []
        for lazy in (True, False):
            wt, bt = Tensor(wk, requires_grad=True), Tensor(b, requires_grad=True)
            z = T.conv2d(Tensor(x), wt, bt, padding=1, lazy=lazy)
            backward((T.relu(z) * Tensor(g)).sum())
            results.append((z.data, wt.grad, bt.grad))
        _assert_bytes_equal(*results)

    def test_an_input_that_needs_a_gradient_is_convolved_inside_conv2d(self):
        x, wk, b, _, _, _ = (a.astype(np.float32) for a in _conv_bn_pool_inputs(6, c=3))
        wt, bt = Tensor(wk, requires_grad=True), Tensor(b, requires_grad=True)
        xt = T.relu(Tensor(x, requires_grad=True))  # as a later block's input
        lazy, plain = (T.conv2d(xt, wt, bt, padding=1, lazy=flag) for flag in (True, False))
        assert isinstance(lazy, T._LazyConv) and lazy.conv is None
        assert lazy.node.op == "conv2d" and lazy.node.inputs == (xt.node, wt, bt)
        _assert_bytes_equal((lazy.data,), (plain.data,))

    @pytest.mark.parametrize("needs_grad", [False, True])
    def test_a_computed_lazy_output_no_longer_holds_its_input(self, needs_grad):
        x, wk, b, _, _, _ = (a.astype(np.float32) for a in _conv_bn_pool_inputs(7))
        xt = T.relu(Tensor(x, requires_grad=True)) if needs_grad else Tensor(x)
        ref = weakref.ref(xt.data)
        z = T.conv2d(xt, Tensor(wk), Tensor(b), padding=1, lazy=True)
        del x, xt
        assert (ref() is None) == needs_grad  # an uncomputed output holds its input
        assert z.data.shape == z.shape
        assert ref() is None

    def test_a_strided_conv_is_computed_and_recorded_at_once(self):
        x, wk, b, _, _, _ = (a.astype(np.float32) for a in _conv_bn_pool_inputs(5, h=9, w=7))
        wt = Tensor(wk, requires_grad=True)
        lazy, plain = (T.conv2d(Tensor(x), wt, Tensor(b), stride=2, padding=1, lazy=flag)
                       for flag in (True, False))
        assert not isinstance(lazy, T._LazyConv) and lazy.node.op == "conv2d"
        _assert_bytes_equal((lazy.data,), (plain.data,))


def _eval_conv_bn_pool(x, w, b, gamma, beta, rm, rv, padding, size, op, graph=False):
    """batchnorm2d(training=False, pool=size) of conv2d's output, lazy (op) or
    computed, and whether the conv output was never computed; with ``graph``
    the conv weight needs a gradient, so the forward records a graph."""
    z = T.conv2d(Tensor(x), Tensor(w, requires_grad=graph), Tensor(b), padding=padding, lazy=op)
    out = T.batchnorm2d(z, Tensor(gamma), Tensor(beta), rm.copy(), rv.copy(), training=False,
                        pool=size)
    return out, isinstance(z, T._LazyConv) and z.conv is not None


def _eval_inputs(seed, n, c, f, h, w, size, padding=1):
    x, wk, b, gamma, beta, _ = _conv_bn_pool_inputs(seed, n=n, c=c, f=f, h=h, w=w, size=size,
                                                    padding=padding)
    rng = np.random.default_rng(seed + 1)
    rm, rv = rng.normal(0, 0.5, f), rng.uniform(0.5, 2, f)
    return [a.astype(np.float32) for a in (x, wk, b, gamma, beta, rm, rv)]


class TestEvalConvPool:
    """batchnorm2d(conv2d(x, w, b, lazy=True), ..., training=False, pool=k)
    without a graph runs the conv, BN and the pool as one op (_conv_pool)
    that never computes the conv output, with the bytes of conv2d then
    batchnorm2d(training=False, pool=k); where it does not apply, it
    computes the conv output and runs the two ops."""

    @pytest.mark.parametrize("c, n, size, h, w, map_budget, column_budget", [
        (1, 7, 2, 8, 6, None, None),  # C = 1, one map block
        (1, 7, 2, 8, 6, 3 * 10 * 4 * 12 * 4, None),  # map blocks of 3, 3 and 1 images in float32
        (1, 1, 2, 8, 6, None, None),
        (3, 7, 2, 8, 6, None, None),  # C > 1, one column block
        (3, 7, 2, 8, 6, None, 2 * 27 * 9 * 7 * 4),  # column blocks of 2, 2, 2 and 1 in float32
        (1, 3, 17, 17, 34, 1 << 12, None),  # 17 x 17 windows
        (3, 3, 17, 17, 34, None, 1 << 12),
    ])
    @pytest.mark.parametrize("seed, dtype", [(0, np.float32), (1, np.float32), (2, np.float64)])
    def test_bytes_equal_conv_then_bn_pool(self, monkeypatch, c, n, size, h, w, map_budget,
                                           column_budget, seed, dtype):
        if map_budget:
            monkeypatch.setattr(T, "_MAP_BUDGET", map_budget)
        if column_budget:
            monkeypatch.setattr(T, "_COLUMN_BUDGET", column_budget)
        inputs = [a.astype(dtype) for a in _eval_inputs(seed, n, c, 10, h, w, size)]
        x, wk, b, gamma, beta, rm, rv = inputs
        assert (gamma < 0).any() and (gamma > 0).any() and b.all()
        with use_float64() if dtype == np.float64 else contextlib.nullcontext():
            (got, applied), (want, _) = (_eval_conv_bn_pool(*inputs, 1, size, op)
                                         for op in (True, False))
        assert applied and got.node is None and got.data.dtype == dtype
        _assert_bytes_equal((got.data,), (want.data,))
        assert is_channel_major(got.data)

    @pytest.mark.parametrize("c", [1, 3])
    def test_nan_and_inf_inputs_keep_the_two_ops_bytes(self, c):
        x, wk, b, gamma, beta, rm, rv = _eval_inputs(2, 3, c, 10, 8, 6, 2)
        x[0, 0, 2, 3] = np.nan
        x[1, c - 1, 5, 0] = np.inf
        x[2, 0, 0, 4] = -np.inf
        with np.errstate(all="ignore"):
            (got, applied), (want, _) = (
                _eval_conv_bn_pool(x, wk, b, gamma, beta, rm, rv, 1, 2, op) for op in (True, False))
        assert applied and np.isnan(want.data).any()
        _assert_bytes_equal((got.data,), (want.data,))

    @pytest.mark.parametrize("case", ["zero_gamma", "negative_zero_beta", "inf_bias", "nan_bias",
                                      "graph"])
    @pytest.mark.parametrize("c", [1, 3])
    def test_falls_back_to_conv_then_bn_pool(self, case, c):
        x, wk, b, gamma, beta, rm, rv = _eval_inputs(3, 3, c, 10, 8, 6, 2)
        if case == "zero_gamma":
            gamma[3] = 0.0
        elif case == "negative_zero_beta":  # the shift beta - mean * scale is -0
            gamma[5], beta[5], rm[5] = 1.0, -0.0, 0.0
        elif case == "inf_bias":
            b[0] = np.inf
        elif case == "nan_bias":
            b[4] = np.nan
        graph = case == "graph"
        with np.errstate(all="ignore"):
            (got, applied), (want, _) = (
                _eval_conv_bn_pool(x, wk, b, gamma, beta, rm, rv, 1, 2, op, graph)
                for op in (True, False))
        assert not applied and (got.node is not None) == graph
        _assert_bytes_equal((got.data,), (want.data,))


class TestPoolCodesPastOneByte:
    """A 17 x 17 pool has 289 positions per window, more than a uint8 code
    can name; the maxima (and the minima that negative gamma pools) sit in the
    last window rows, whose codes are the largest."""

    @staticmethod
    def _spiked(n, c, h, w):
        rng = np.random.default_rng(17)
        x = rng.uniform(0, 1, (n, c, h, w))
        for i, (ni, ci, a, b) in enumerate(np.ndindex(n, c, h // 17, w // 17)):
            row = 17 * a + 15 + i % 2
            x[ni, ci, row, 17 * b + i % 17] = 5.0
            x[ni, ci, row, 17 * b + (i + 3) % 17] = -5.0
        return x

    def test_maxpool2d_routes_to_the_first_maximum_and_none_through_nan(self):
        x = self._spiked(2, 2, 17, 34)
        x[1, 0, 3, 20] = np.nan
        g = np.random.default_rng(0).normal(0, 1, (2, 2, 1, 2))
        for layout in LAYOUTS:
            with use_float64():
                xt = Tensor(layout(x), requires_grad=True)
                out = T.maxpool2d(xt, 17, 17)
                backward((out * Tensor(layout(g))).sum())
            np.testing.assert_array_equal(out.data, naive_maxpool(x, 17))
            np.testing.assert_array_equal(xt.grad, naive_maxpool_grad(x, g, 17))

    @pytest.mark.parametrize("training", [True, False])
    def test_batchnorm2d_pool_matches_naive_loops(self, training):
        x = self._spiked(2, 2, 17, 34)
        gamma, beta = np.array([1.5, -0.5]), np.array([0.25, -1.0])
        rm, rv = np.array([0.1, -0.2]), np.array([0.8, 1.3])
        g = np.random.default_rng(1).normal(0, 1, (2, 2, 1, 2))
        bn, want_rm, want_rv, *_ = naive_batchnorm(x, gamma, beta, rm, rv, training,
                                                  np.zeros_like(x))
        grads = naive_batchnorm(x, gamma, beta, rm, rv, training,
                                naive_maxpool_grad(bn, g, 17))[3:]
        with use_float64():
            got = _bn_pool_pair(x, gamma, beta, rm, rv, training, g, 17, True)
        want = (naive_maxpool(bn, 17), want_rm, want_rv) + grads
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=1e-8, atol=1e-9)

    def test_lazy_conv_op_matches_conv_then_bn_pool_in_float64(self):
        x = self._spiked(2, 1, 17, 34)
        wk = np.random.default_rng(2).uniform(-0.01, 0.01, (2, 1, 3, 3))
        wk[:, 0, 1, 1] = [1.0, 0.5]  # nearly the identity: the spikes stay the extremes
        b, gamma, beta = np.array([0.3, -0.1]), np.array([1.5, -0.5]), np.array([0.25, -1.0])
        g = np.random.default_rng(3).normal(0, 1, (2, 2, 1, 2))
        with use_float64():
            got, want = (_conv_bn_pool_pair(x, wk, b, gamma, beta, g, 1, 17, op)
                         for op in (True, False))
        assert not got[4].any()  # the op applied: its bias gradient is exactly 0
        for name, a, e in zip(("out", "running_mean", "running_var", "w", "b", "gamma",
                               "beta"), got, want):
            np.testing.assert_allclose(a, e, rtol=1e-8, atol=1e-9, err_msg=name)


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
        (_conv(3, 1, 1), 3, 6, 4),  # the shared-padding grid
        (_conv(3, 1, 0), 3, 6, 4),
        (_conv(1, 1, 1), 1, 6, 4),  # one channel, on the grid as well
        (_conv(3, 2, 1), 3, 7, 5),  # the stride-1 output subsampled
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

    def test_relu_keeps_no_mask_and_the_same_bytes(self):
        x = np.random.default_rng(0).standard_normal((16, 64, 16, 16), dtype=np.float32)
        x[0, 0, 0, :3] = (0.0, -0.0, np.nan)
        with T.no_grad():
            tracemalloc.start()
            try:
                out = T.relu(Tensor(x))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
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
        # the grids and gradients here are 4-5 MiB each, above glibc's
        # default mmap threshold
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


class TestEmpty:
    @pytest.mark.parametrize("order", [(0, 1, 2, 3), (1, 0, 2, 3), (3, 1, 0, 2)])
    def test_an_array_has_the_shape_and_memory_order_asked_for(self, order):
        shape = (8, 64, 32, 32)
        got = T._empty(shape, np.float32, order)
        assert got.shape == shape and got.dtype == np.float32
        assert got.transpose(order).flags.c_contiguous  # order[0] outermost
