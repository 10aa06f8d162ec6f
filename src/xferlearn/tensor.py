"""Dense n-d arrays with reverse-mode automatic differentiation.

The graph is recorded dynamically: every op that touches a tensor with
``requires_grad=True`` gives its output a node holding the backward closure,
except inside ``no_grad()``.  A node links to its inputs' nodes, not to their
tensors, and each closure keeps only what its backward reads, so an
activation is freed as soon as the caller and the next op are done with it.
``backward`` sorts the nodes behind the loss depth-first, runs them in
reverse topological order, and drops each node's inputs and closure once it
has run.
Storage is float32 by default; ``use_float64()`` switches the whole module
to double precision for gradient checking.  Importing the module sets
glibc's malloc thresholds so that freed arrays are reused (see
``_reuse_freed_memory``); every array comes from numpy.
"""

from __future__ import annotations

import contextlib
import ctypes
import sys
from typing import Callable, Sequence

import numpy as np

_DTYPE = np.float32
_RECORDING = True  # False inside no_grad()
# im2col bytes per image block of a stride-1 conv forward: a block's columns
# stay near the caches, where numpy's copies run about twice as fast
_COLUMN_BUDGET = 8 << 20
# bytes of the window products of one image block in the conv-pool ops
# (_pooled_products): its GEMM output, pool folds and codes stay in L2 cache
_MAP_BUDGET = 1 << 20
# batchnorm2d's running-statistics momentum and variance epsilon
_BN_MOMENTUM, _BN_EPS = 0.1, 1e-5


def _reuse_freed_memory() -> None:
    """Make glibc malloc keep freed blocks for reuse instead of unmapping them.

    Every training step allocates and frees the same activations, im2col
    columns and gradients, from a few MiB to over 100 MiB each.  By default
    glibc maps blocks above a size threshold afresh and returns freed heap
    tops to the kernel, so each step page-faults its whole working set in
    again.  On a 2-core VM that kernel time was about a fifth of a fine-tune
    step and a third of a 255-image evaluation, and it varied from one run
    to the next with the host's memory state.  With both thresholds at
    1 GiB, freed memory stays in the heap and the next step reuses it.  The
    process keeps its peak footprint instead of shrinking between steps.
    Only glibc has these options; elsewhere this does nothing.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # <malloc.h>
    mallopt(m_trim_threshold, 1 << 30)
    mallopt(m_mmap_threshold, 1 << 30)


_reuse_freed_memory()

def _empty(shape, dtype, order=None) -> np.ndarray:
    """np.empty(shape, dtype) with its axes in memory in ``order``, outermost
    first (default: C order)."""
    if order is None:
        return np.empty(shape, dtype)
    return np.empty([shape[a] for a in order], dtype).transpose(np.argsort(order))


def current_dtype():
    return _DTYPE


@contextlib.contextmanager
def use_float64():
    """Temporarily run every new tensor and op in double precision."""
    global _DTYPE
    prev = _DTYPE
    _DTYPE = np.float64
    try:
        yield
    finally:
        _DTYPE = prev


@contextlib.contextmanager
def no_grad():
    """Record no graph inside the block: every op returns a plain tensor.

    Forwards whose gradients are never taken (evaluation, source-net taps)
    then save nothing for a backward; maxpool2d computes no pick codes.
    Use it as ``with no_grad():`` or as the decorator ``@no_grad()``.
    """
    global _RECORDING
    prev = _RECORDING
    _RECORDING = False
    try:
        yield
    finally:
        _RECORDING = prev


class ShapeError(ValueError):
    pass


class ParameterError(ValueError):
    pass


class GraphNode:
    """One recorded op: its inputs and its backward closure.

    ``inputs`` holds each input's node, or the input itself when it is a leaf.
    ``backward`` empties ``inputs`` and ``backward_fn`` once the node has run.
    """

    __slots__ = ("op", "inputs", "backward_fn")

    def __init__(self, op: str, inputs: Sequence["GraphNode | Tensor"], backward_fn: Callable):
        self.op = op
        self.inputs = tuple(inputs)
        # backward_fn(grad_out) -> tuple of grads aligned with inputs (None allowed)
        self.backward_fn = backward_fn


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=_DTYPE)
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self.node: GraphNode | None = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    # -- operator sugar ------------------------------------------------

    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __truediv__(self, other):
        return div(self, _lift(other))

    def __neg__(self):
        return mul(self, Tensor(-1.0))

    def reshape(self, *shape):
        return reshape(self, shape)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _needs_grad(t: Tensor) -> bool:
    """Whether the backward must reach t: not an input leaf like the images."""
    return t.requires_grad or t.node is not None


def _records(inputs: Sequence[Tensor]) -> bool:
    """Whether an op on these inputs records a graph node."""
    return _RECORDING and any(_needs_grad(t) for t in inputs)


def _make(data, op: str, inputs: Sequence[Tensor], backward_fn) -> Tensor:
    return _record(Tensor(data), op, inputs, backward_fn)


def _record(out: Tensor, op: str, inputs: Sequence[Tensor], backward_fn) -> Tensor:
    """Give out a graph node if an op on these inputs records one."""
    if _records(inputs):
        out.requires_grad = True
        out.node = GraphNode(op, [t if t.node is None else t.node for t in inputs], backward_fn)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- elementwise ops ----------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    a_shape, b_shape = a.data.shape, b.data.shape

    def bwd(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _make(a.data + b.data, "add", (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a_shape, b_shape = a.data.shape, b.data.shape

    def bwd(g):
        return _unbroadcast(g, a_shape), _unbroadcast(-g, b_shape)

    return _make(a.data - b.data, "sub", (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return _make(a.data * b.data, "mul", (a, b), bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        return (
            _unbroadcast(g / b.data, a.data.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
        )

    return _make(a.data / b.data, "div", (a, b), bwd)


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def bwd(g):
        return (g * out_data,)

    return _make(out_data, "exp", (a,), bwd)


def log(a: Tensor) -> Tensor:
    def bwd(g):
        return (g / a.data,)

    return _make(np.log(a.data), "log", (a,), bwd)


def sqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)

    def bwd(g):
        return (g / (2.0 * out_data),)

    return _make(out_data, "sqrt", (a,), bwd)


def relu(a: Tensor) -> Tensor:
    # gradient at exactly 0 is 0
    mask = a.data > 0 if _records((a,)) else None

    def bwd(g):
        return (np.multiply(g, mask, out=np.empty_like(g)),)  # in g's memory order

    return _make(np.maximum(a.data, 0), "relu", (a,), bwd)


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    # gradient at exactly 0 defined as slope
    factor = np.where(a.data > 0, 1.0, slope).astype(a.data.dtype)

    def bwd(g):
        return (g * factor,)

    return _make(np.where(a.data > 0, a.data, slope * a.data), "leaky_relu", (a,), bwd)


def sigmoid(a: Tensor) -> Tensor:
    out_data = np.where(
        a.data >= 0,
        1.0 / (1.0 + np.exp(-np.clip(a.data, -500, 500))),
        np.exp(np.clip(a.data, -500, 500)) / (1.0 + np.exp(np.clip(a.data, -500, 500))),
    )

    def bwd(g):
        return (g * out_data * (1.0 - out_data),)

    return _make(out_data, "sigmoid", (a,), bwd)


def log_sigmoid(a: Tensor) -> Tensor:
    """log(sigmoid(x)) without overflow for large |x|."""
    x = a.data
    out_data = np.where(x >= 0, -np.log1p(np.exp(-np.abs(x))), x - np.log1p(np.exp(-np.abs(x))))

    def bwd(g):
        # d/dx log sigmoid(x) = sigmoid(-x)
        s = np.where(
            x >= 0,
            np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))),
            1.0 / (1.0 + np.exp(-np.abs(x))),
        )
        return (g * s,)

    return _make(out_data, "log_sigmoid", (a,), bwd)


# -- shape ops ----------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    old_shape = a.data.shape

    def bwd(g):
        return (g.reshape(old_shape),)

    return _make(a.data.reshape(shape), "reshape", (a,), bwd)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    sizes = [t.data.shape[axis] for t in tensors]

    def bwd(g):
        return tuple(np.split(g, np.cumsum(sizes)[:-1], axis=axis))

    return _make(np.concatenate([t.data for t in tensors], axis=axis), "concat", tensors, bwd)


def index_select(a: Tensor, indices) -> Tensor:
    idx = np.asarray(indices)

    def bwd(g):
        out = np.zeros_like(a.data)
        np.add.at(out, idx, g)
        return (out,)

    return _make(np.take(a.data, idx, axis=0), "index_select", (a,), bwd)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    in_shape = a.data.shape

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, in_shape).copy(),)
        ax = axis if isinstance(axis, tuple) else (axis,)
        if not keepdims:
            g = np.expand_dims(g, ax)
        return (np.broadcast_to(g, in_shape).copy(),)

    return _make(a.data.sum(axis=axis, keepdims=keepdims), "sum", (a,), bwd)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    in_shape = a.data.shape
    if axis is None:
        count = a.data.size
    else:
        ax = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([in_shape[i] for i in ax]))

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g / count, in_shape).copy(),)
        ax = axis if isinstance(axis, tuple) else (axis,)
        if not keepdims:
            g = np.expand_dims(g, ax)
        return (np.broadcast_to(g / count, in_shape).copy(),)

    return _make(a.data.mean(axis=axis, keepdims=keepdims), "mean", (a,), bwd)


# -- linear algebra -----------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.data.shape} x {b.data.shape}")

    def bwd(g):
        return g @ b.data.T, a.data.T @ g

    return _make(a.data @ b.data, "matmul", (a, b), bwd)


# -- convolution / pooling ----------------------------------------------
# Conv-block tensors have NCHW shapes but channel-major (C, N, H, W) memory:
# conv2d returns a transposed view of its GEMM result, and batchnorm2d,
# maxpool2d and relu keep their input's memory order, so nothing transposes.


def _planes(x: np.ndarray, padding: int) -> np.ndarray:
    """x (N, C, H, W), in any memory order, as zero-padded channel-major planes (C, N, Hp, Wp)."""
    n, c, h, w = x.shape
    planes = np.zeros((c, n, h + 2 * padding, w + 2 * padding), x.dtype)
    planes[:, :, padding:padding + h, padding:padding + w] = x.transpose(1, 0, 2, 3)
    return planes


# bytes of one destination column block of the input gradient (_grid_input_grad)
_GRAD_BLOCK_BYTES = 1 << 20


class _Grid:
    """The shared-padding grid of a stride-1 convolution of N images H x W
    with padding p and a kh x kw kernel.

    An array on the grid, (channels, length), holds an image in each run of
    ``size`` = hq*wq columns, row by row at row pitch wq = max(W + p, Wo):
    input pixel (n, r, c) sits at column n*size + (p + r)*wq + p + c and
    every other column is zero.  The p zero columns in front of a row pad
    both it and the row before it, and the image pitch hq = max(H + p, Ho)
    rows puts p zero rows between images that pad both neighbours, where
    padding each image on both sides would spend (W + 2p)(H + 2p) columns
    on it.  Output pixel (n, oi, oj) sits at column n*size + oi*wq + oj,
    and kernel offset (i, j) reads the input column i*wq + j further on, so
    the im2col columns of a run of output columns are kh*kw contiguous
    slices of the grid, and those of kernel row i are the kw horizontal
    shifts read i*wq columns further on (_row_columns; cf. Cho & Brand,
    2017).  The pitches are at least Wo and Ho, so no two output pixels
    share a column when p > k - 1.
    """

    def __init__(self, shape, kh: int, kw: int, padding: int):
        self.n, _, self.h, self.w = shape
        self.kh, self.kw, self.p = kh, kw, padding
        self.ho, self.wo = self.h + 2 * padding - kh + 1, self.w + 2 * padding - kw + 1
        self.hq, self.wq = max(self.h + padding, self.ho), max(self.w + padding, self.wo)
        self.size = self.hq * self.wq
        # the last output pixel's kernel window ends at this column
        self.length = max(self.n * self.size, self.span(self.n) + (kh - 1) * self.wq + kw - 1)

    def span(self, b: int) -> int:
        """Columns from the first output pixel of b consecutive images to past their last."""
        return (b - 1) * self.size + (self.ho - 1) * self.wq + self.wo

    def block(self, rows: int, budget: int, itemsize: int) -> int:
        """Images per block whose columns, ``rows`` items each, fit ``budget`` bytes."""
        return max(1, min(self.n, budget // (rows * self.size * itemsize)))


def _shifted_grid(a: np.ndarray, grid: _Grid, top: int) -> np.ndarray:
    """a (N, C, h, w), in any memory order, zero-filled onto the grid as
    (C, grid.length): pixel (n, r, c) at row top + r, column top + c of
    image n's hq x wq run.  top = p places the input, top = 0 the output
    gradient."""
    n, c, h, w = a.shape
    flat = np.zeros((c, grid.length), a.dtype)
    images = flat[:, :n * grid.size].reshape(c, n, grid.hq, grid.wq)
    images[:, :, top:top + h, top:top + w] = a.transpose(1, 0, 2, 3)
    return flat


def _grid_columns(flat: np.ndarray, grid: _Grid, budget: int):
    """The im2col columns of the input on the grid, one image block at a time.

    Yields (first image, images, columns (C*kh*kw, span)) for blocks whose
    columns fit ``budget`` bytes.  Column t of a block is the column of
    grid position first*size + t: kh*kw slice copies, one per kernel
    offset.  The columns of positions that hold no output pixel are built
    too.  The buffer is reused, so a block's columns are valid until the
    next is yielded.
    """
    c = flat.shape[0]
    kh, kw, size = grid.kh, grid.kw, grid.size
    k = c * kh * kw
    block = grid.block(k, budget, flat.itemsize)
    cols = _empty((c, kh, kw, grid.span(block)), flat.dtype)
    cols2d = cols.reshape(k, -1)
    for start in range(0, grid.n, block):
        b = min(block, grid.n - start)
        span = grid.span(b)
        for i in range(kh):
            for j in range(kw):
                off = start * size + i * grid.wq + j
                cols[:, i, j, :span] = flat[:, off:off + span]
        yield start, b, cols2d[:, :span]


def _row_columns(a: np.ndarray, grid: _Grid, first: int, span: int, buf: np.ndarray):
    """The kernel-row columns of ``span`` grid positions from ``first``.

    They are the kw shifted copies of a's columns [first, first + span +
    (kh-1)*wq), as (kw*channels, span + (kh-1)*wq): row j*channels + ch
    holds a[ch, first + j + t] in column t, and columns before a's first
    read zero.  Kernel row i's im2col columns of the positions, rows in
    (j, channel) order, are the contiguous slice [i*wq, i*wq + span), so a
    block takes kw copies where its im2col columns take kh*kw.  The result
    is a view of ``buf``, a 1-d array of at least its size.
    """
    ch = a.shape[0]
    width = span + (grid.kh - 1) * grid.wq
    rows = buf[:grid.kw * ch * width].reshape(grid.kw, ch, width)
    for j in range(grid.kw):
        lo = first + j  # a's column that lands in column 0
        head = min(max(-lo, 0), width)
        rows[j, :, :head] = 0
        rows[j, :, head:] = a[:, lo + head:lo + width]
    return rows.reshape(-1, width)


def _block_forward(flat: np.ndarray, grid: _Grid, wmat: np.ndarray, bias: np.ndarray,
                   pool: int = 1):
    """Stride-1 convolution of the input on the grid (C, length): (F, N, Ho, Wo), bias added.

    Images go in blocks whose columns fit _COLUMN_BUDGET (_grid_columns),
    each one GEMM; the outputs of positions that hold no output pixel are
    computed and dropped.  Each output pixel is still the dot product of
    its weight row with its im2col column, so the bytes equal one
    whole-batch im2col GEMM's wherever the BLAS runs the same kernel for
    both.

    With ``pool=k`` it returns the max of each k x k window of the
    products, bias added, (F, N, Ho/k, Wo/k): each block's valid pixels,
    a strided view of its product that splits into windows without a
    copy, are pooled (_pool) before the bias add.  fl(d + b) is monotone
    in d, so for a finite bias that is the pooled conv output byte for
    byte, up to the sign of a zero maximum (see _conv_pool).
    """
    f = wmat.shape[0]
    dtype = np.result_type(flat, wmat)
    out = _empty((f, grid.n, grid.ho // pool, grid.wo // pool), dtype)
    prod = None
    bias = bias[:, None, None, None]
    for start, b, cols in _grid_columns(flat, grid, _COLUMN_BUDGET):
        if prod is None:  # sized by the first block, the largest
            prod = _empty((f, b, grid.hq, grid.wq), dtype)
        np.matmul(wmat, cols, out=prod.reshape(f, -1)[:, :cols.shape[1]])
        valid = prod[:, :b, :grid.ho, :grid.wo]
        if pool > 1:
            valid = _pool(valid, pool, False)[0]
        np.add(valid, bias, out=out[:, start:start + b])
    return out


def _grid_weight_grad(flat: np.ndarray, ggrid: np.ndarray, grid: _Grid) -> np.ndarray:
    """Weight gradient (F, C, kh, kw) of a stride-1 convolution from its input
    on the grid and its output gradient on the grid (_shifted_grid, top 0).

    Per image block, each kernel row i is one GEMM: its im2col columns
    (kw*C, span), a slice of the block's kernel-row columns (_row_columns),
    times the transpose of the block's output-gradient columns (F, span);
    the zeros at positions without an output pixel drop the rest.  Blocks
    are summed in order.  They are the blocks whose im2col columns fit half
    of _COLUMN_BUDGET, so every entry is the same dot product, and the same
    sum over blocks, as one GEMM of each block's _grid_columns; the bytes
    are too wherever the BLAS sums a GEMM of kw*C rows as it does one of
    kh*kw*C rows (not at C = 1 under two OpenBLAS threads).  The kernel-row
    columns are made at the backward's memory peak, on top of both grids,
    and take about a kh-th of the im2col columns' bytes.
    """
    c, f = flat.shape[0], ggrid.shape[0]
    kh, kw, wq, size = grid.kh, grid.kw, grid.wq, grid.size
    dtype = np.result_type(flat, ggrid)
    block = grid.block(c * kh * kw, _COLUMN_BUDGET // 2, flat.itemsize)
    buf = _empty((kw * c * (grid.span(block) + (kh - 1) * wq),), flat.dtype)
    gw = _empty((kh, kw * c, f), dtype)
    part = np.empty((kw * c, f), dtype)
    for start in range(0, grid.n, block):
        first, span = start * size, grid.span(min(block, grid.n - start))
        cols = _row_columns(flat, grid, first, span, buf)
        gt = ggrid[:, first:first + span].T
        for i in range(kh):
            x = cols[:, i * wq:i * wq + span]
            if start == 0:
                np.matmul(x, gt, out=gw[i])
            else:
                np.add(gw[i], np.matmul(x, gt, out=part), out=gw[i])
    return np.ascontiguousarray(gw.reshape(kh, kw, c, f).transpose(3, 2, 0, 1))


def _grid_input_grad(w: np.ndarray, ggrid: np.ndarray, grid: _Grid) -> np.ndarray:
    """Input gradient (N, C, H, W), channel-major, of a stride-1 convolution
    from its output gradient on the grid (_shifted_grid, top 0).

    Input column y takes w[:, :, i, j]ᵀ times output-gradient column
    y - i*wq - j for every kernel offset, so with the kernel flipped, input
    columns are a convolution of the output gradient's kernel-row columns
    (_row_columns) from kh-1 rows and kw-1 columns before them.  The
    gradient is made on the grid in equal destination blocks of columns,
    at most _GRAD_BLOCK_BYTES each: a block is kh GEMMs of the flipped
    kernel's rows (C, kw*F) with the slices of the block's kernel-row
    columns, summed in kernel-row order while the block stays in cache.
    Where C <= F the blocks are written into the first C rows of ``ggrid``,
    which nothing reads afterwards, last block first: a block reads the
    columns from ``back`` before its own to its end, so no block reads a
    column that a block after it has overwritten.
    """
    f, c, kh, kw = w.shape
    n, p, wq = grid.n, grid.p, grid.wq
    length = n * grid.size
    dtype = ggrid.dtype
    # row i: the kernel's row kh-1-i as (C, kw*F), columns (kw-1-j)*F + f
    wf = np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(2, 1, 3, 0),
                              dtype=dtype).reshape(kh, c, kw * f)
    in_place = c <= f
    gxp = ggrid[:c] if in_place else _empty((c, length), dtype)
    # equal blocks: a narrow last one would take the BLAS's small-matrix
    # kernel, whose bytes for a column depend on where the call ends
    blocks = -(-length // max(1, _GRAD_BLOCK_BYTES // (c * dtype.itemsize)))
    width = -(-length // blocks)
    buf = _empty((kw * f * (width + (kh - 1) * wq),), dtype)
    term = _empty((c, width), dtype)
    back = (kh - 1) * wq + kw - 1  # a block reads the output gradient from this far before it
    for start in reversed(range(0, length, width)):
        span = min(width, length - start)
        cols = _row_columns(ggrid, grid, start - back, span, buf)
        dst = gxp[:, start:start + span]
        np.matmul(wf[0], cols[:, :span], out=dst)
        for i in range(1, kh):
            dst += np.matmul(wf[i], cols[:, i * wq:i * wq + span], out=term[:, :span])
    gx = gxp[:, :length].reshape(c, n, grid.hq, wq)[:, :, p:p + grid.h, p:p + grid.w]
    # padding rows or columns lie between the pixels, or gx would keep ggrid alive
    if not gx.flags.c_contiguous or in_place:
        gx = gx.copy()
    return gx.transpose(1, 0, 2, 3)


def conv2d(x: Tensor, w: Tensor, bias: Tensor, stride: int = 1, padding: int = 0,
           lazy: bool = False) -> Tensor:
    """Cross-correlate x (N, C, H, W) with w (F, C, kh, kw) and add the bias.

    x goes onto a shared-padding grid (_Grid) and the forward builds its
    im2col columns per image block from it (_block_forward).  The backward
    keeps only that grid: it takes the weight gradient from the kernel-row
    columns of the same image blocks (_grid_weight_grad), frees the grid,
    and makes the input gradient from the output gradient's kernel-row
    columns (_grid_input_grad).  A strided conv is the stride-1 conv
    subsampled, and its backward scatters g into a zero stride-1 gradient.
    That is stride**2 times the work, but no model has a strided conv.

    ``lazy`` tells that one op reads the output and nothing else.  At
    stride 1 the output is then a _LazyConv, which that op may overwrite.
    Where x needs a gradient it is computed here, as without ``lazy``; else
    it is left uncomputed, and batchnorm2d(..., pool=k) of it may run the
    conv, BN and the pool as one op (_conv_bn_pool, _conv_pool).
    """
    n, c, h, wd = x.data.shape
    f, cw, kh, kw = w.data.shape
    if c != cw:
        raise ShapeError(f"conv2d channel mismatch: input {c} vs kernel {cw}")
    if (h + 2 * padding - kh) % stride or (wd + 2 * padding - kw) % stride:
        raise ShapeError(
            f"conv2d non-integral output for input {x.data.shape}, "
            f"kernel {w.data.shape}, stride {stride}, padding {padding}"
        )
    if lazy and stride == 1:
        shape = (n, f, h + 2 * padding - kh + 1, wd + 2 * padding - kw + 1)
        return _LazyConv(x, w, bias, padding, shape)
    out, bwd = _conv(x, w, bias, stride, padding)
    return _make(out, "conv2d", (x, w, bias), bwd)


def _conv(x: Tensor, w: Tensor, bias: Tensor, stride: int, padding: int):
    """conv2d's output data, channel-major behind NCHW shapes, and its backward."""
    f, _, kh, kw = w.data.shape
    need_gx = _needs_grad(x)
    grid = _Grid(x.data.shape, kh, kw, padding)
    flat = _shifted_grid(x.data, grid, padding)
    out = _block_forward(flat, grid, w.data.reshape(f, -1), bias.data)
    if stride > 1:
        out = np.ascontiguousarray(out[:, :, ::stride, ::stride])

    def bwd(g):
        nonlocal flat
        if stride > 1:  # the stride-1 output's gradient: g at the pixels kept
            full = np.zeros((f, grid.n, grid.ho, grid.wo), g.dtype)
            full[:, :, ::stride, ::stride] = g.transpose(1, 0, 2, 3)
            g = full.transpose(1, 0, 2, 3)
        gb = g.transpose(1, 0, 2, 3).reshape(f, -1).sum(axis=1)
        ggrid = _shifted_grid(g, grid, 0)
        gw = _grid_weight_grad(flat, ggrid, grid)
        flat = None  # this node runs once: free the grid before the input gradient
        if not need_gx:
            return None, gw, gb
        return _grid_input_grad(w.data, ggrid, grid), gw, gb

    return out.transpose(1, 0, 2, 3), bwd


class _ConvGrad:
    """The gradient of an uncomputed _LazyConv, given as the conv's weight
    and bias gradients: all that the conv's backward would make of it,
    since its input needs no gradient.  It has no sum, so a lazy output that
    two ops read fails in the backward instead of adding wrongly."""

    __slots__ = ("w", "b")

    def __init__(self, w: np.ndarray, b: np.ndarray):
        self.w, self.b = w, b


class _LazyConv(Tensor):
    """A stride-1 conv2d output that one op reads and nothing else (conv2d's
    ``lazy``), so that op may centre it in place.

    ``conv`` holds the conv's input, weight, bias and padding until the
    output is computed (_conv), once: in conv2d where the input needs a
    gradient, else when ``data`` is first read.  Computing it drops ``conv``,
    so the input is freed where a plain conv2d frees it.  An uncomputed
    output is what batchnorm2d(..., pool=k) can run as one op with the conv:
    _conv_bn_pool in training, whose gradient for this output is then a
    _ConvGrad, and _conv_pool in eval mode.  The graph node is the conv's
    own: it hands on a _ConvGrad as the weight and bias gradients, and an
    array gradient to the backward of the computed conv.
    """

    __slots__ = ("conv", "_shape", "_value", "_backward")

    def __init__(self, x: Tensor, w: Tensor, bias: Tensor, padding: int, shape):
        self.conv = (x, w, bias, padding)
        self._shape = shape
        self._value = None
        self.grad = None
        self.requires_grad = False
        self.node = None
        computed = self._backward = []  # the computed conv's backward

        def bwd(g):
            if isinstance(g, _ConvGrad):
                return None, g.w, g.b
            return computed[0](g)

        _record(self, "conv2d", (x, w, bias), bwd)
        if _needs_grad(x):
            self._compute()

    def _compute(self) -> None:
        x, w, bias, padding = self.conv
        self._value, bwd = _conv(x, w, bias, 1, padding)
        self.conv = None
        if self.node is not None:
            self._backward.append(bwd)

    @property
    def data(self) -> np.ndarray:
        if self.conv is not None:
            self._compute()
        return self._value

    @property
    def shape(self):
        return self._shape


def _fold_max(parts: Sequence[np.ndarray], codes: bool):
    """np.maximum folded over same-shape arrays in order, in their memory order.

    With codes, also a uint8 array holding, element by element, the index of
    the first part that reaches the maximum: the last part that changed the
    fold, since a part equal to the fold so far leaves it equal.  Else None.
    """
    if len(parts) == 1:
        out = parts[0].copy(order="K")
        return out, np.zeros_like(out, dtype=np.uint8) if codes else None
    out, code = parts[0], None
    for k, part in enumerate(parts[1:], 1):
        new = np.maximum(out, part)
        if codes:
            changed = np.not_equal(new, out)
            if code is None:
                code = changed.view(np.uint8)
            else:
                np.copyto(code, k, where=changed)
        out = new
    return out, code


def _fold_windows(cols: Sequence[np.ndarray], codes: bool):
    """Max of each k x k window, where cols[j][i] holds column j of its row i.

    Folds np.maximum over the columns of each window row, then over the
    rows, which gives the bytes of a row-major fold of the window.  With
    codes, also the picks that _unpool reads: one code per window, row * k
    + col[row], the row-major index of its first maximum (_pool marks the
    windows that hold NaN).  Else the codes are None.
    """
    k = len(cols)
    row_max, col = _fold_max(cols, codes)
    out, row = _fold_max(list(row_max), codes)
    if not codes:
        return out, None
    code = np.multiply(row, k, dtype=np.min_scalar_type(k * k))  # uint8 up to k = 15
    for i in range(k):
        code += np.equal(row, i).view(np.uint8) * col[i]
    return out, code


def _pool(a: np.ndarray, size: int, codes: bool):
    """Max of each non-overlapping size x size window of a (N, C, H, W), and
    with codes its picks (see _fold_windows), size * size where the window
    holds NaN."""
    n, c, h, w = a.shape
    windows = a.reshape(n, c, h // size, size, w // size, size)
    out, code = _fold_windows([np.moveaxis(windows[..., j], 3, 0) for j in range(size)], codes)
    if codes:
        code[np.isnan(out)] = size * size
    return out, code


def _unpool(g: np.ndarray, codes: np.ndarray, shape, layout, size: int) -> np.ndarray:
    """g (N, C, Ho, Wo) scattered onto each window's pick (see _fold_windows)
    in a fresh zero (N, C, H, W) array with its axes in memory in ``layout``.
    Each window position is one multiply of g by a pick mask of g's size."""
    n, c, h, w = shape
    gx = _empty(shape, g.dtype, layout)
    gx_windows = gx.reshape(n, c, h // size, size, w // size, size)  # a view: it splits h and w
    pick = np.empty_like(codes, np.bool_)
    for i in range(size):
        for j in range(size):
            np.equal(codes, i * size + j, out=pick)
            np.multiply(g, pick, out=gx_windows[:, :, :, i, :, j])
    return gx


def _check_pool(shape, size: int) -> None:
    h, w = shape[2:]
    if h % size or w % size:
        raise ShapeError(f"maxpool2d dims {h}x{w} not divisible by stride {size}")


def maxpool2d(x: Tensor, size: int = 2, stride: int = 2) -> Tensor:
    """Non-overlapping max pooling.  A window holding NaN outputs NaN.

    The gradient goes to the first maximum of each window in row-major
    order; a window whose maximum is NaN passes no gradient.  Only when a
    graph is recorded does the forward keep pick codes for the backward
    (see _pool).  It never keeps x.
    """
    if size != stride:
        raise ShapeError("maxpool2d supports size == stride only")
    _check_pool(x.data.shape, size)
    out_data, picks = _pool(x.data, size, _records((x,)))
    shape = x.data.shape
    layout = np.argsort(x.data.strides, kind="stable")[::-1]  # x's axes, outermost first

    def bwd(g):
        return (_unpool(g, picks, shape, layout, size),)

    return _make(out_data, "maxpool2d", (x,), bwd)


def _monotone(mag: np.ndarray, add: np.ndarray) -> bool:
    """Whether v -> v*mag + add, per channel, maps each window's extreme to
    the extreme of its image with the same bytes and NaN exactly where the
    extreme is NaN: mag finite and nonzero, add finite and not -0."""
    return bool(np.isfinite(mag).all() and (mag != 0).all() and np.isfinite(add).all()
                and not (np.signbit(add) & (add == 0)).any())


def _scale_shift(pooled: np.ndarray, mag: np.ndarray, add: np.ndarray) -> np.ndarray:
    """BN of a pooled (N, C, Ho, Wo) map of sign(mag) * v: |mag| * pooled + add."""
    out = pooled.astype(np.result_type(pooled, mag), copy=False)
    out *= np.abs(mag)[:, None, None]
    out += add[:, None, None]
    return out


def _update_running(running_mean, running_var, mean, var, m: int) -> None:
    """Move the running statistics towards a batch's, in place."""
    running_mean *= 1.0 - _BN_MOMENTUM
    running_mean += _BN_MOMENTUM * mean
    # running var uses the unbiased estimate, matching common practice
    running_var *= 1.0 - _BN_MOMENTUM
    running_var += _BN_MOMENTUM * var * m / max(m - 1, 1)


def batchnorm2d(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
                running_var: np.ndarray, training: bool, pool: int = 1) -> Tensor:
    """Per-channel batch normalization over an N x C x H x W tensor.

    Training mode normalizes by the batch statistics (two-pass variance) and
    updates the running stats arrays in place; eval mode is one per-channel
    multiply-add by the running statistics.  The input gradient is the closed
    form of Ioffe & Szegedy (2015).

    With ``pool=k`` it returns ``maxpool2d(batchnorm2d(x), k, k)`` without
    making the full-size BN output.  Per channel BN is a chain of correctly
    rounded monotone ops, v -> v*mag + add, so the window max of its output
    is BN of the window max of its input (of the min where mag < 0), bit for
    bit: the op pools v (xhat in training, x in eval mode), with the sign of
    mag folded in so that one max pool serves every channel, and applies
    |mag| and add to the pooled map.  A pick can differ from the two ops' only
    where rounding ties BN outputs of different inputs.  Where the map is
    not strictly monotone or can make -0 (see _monotone) the op pools BN's
    full-size output instead.  The backward scatters g onto the picks, as
    maxpool2d's does, and then runs BN's in the saved xhat.

    A _LazyConv x has no other reader (conv2d's ``lazy``), so train mode
    centres its data in place into xhat.  With ``pool=k``, an uncomputed
    one runs as one op with the conv where one applies: in training at C = 1
    (_conv_bn_pool), and in eval mode without a graph where the BN-pool
    above applies (_conv_pool, with the two ops' bytes).  Elsewhere reading
    its data computes it, and the op runs on it as on any input.
    """
    n, c, h, w = x.shape
    if pool > 1:
        _check_pool(x.shape, pool)
    if training and n < 2:
        raise ParameterError("batchnorm2d needs batch size >= 2 in train mode")
    lazy = isinstance(x, _LazyConv)
    deferred = lazy and pool > 1 and x.conv is not None
    if training and deferred:
        out = _conv_bn_pool(x, gamma, beta, running_mean, running_var, pool)
        if out is not None:
            return out
    if training:
        mag, add = gamma.data, beta.data
    else:
        inv_std = 1.0 / np.sqrt(running_var + _BN_EPS)
        mag = gamma.data * inv_std  # the scale
        add = beta.data - running_mean * mag  # the shift
    fused = pool > 1 and _monotone(mag, add)
    # -1 where the map falls: those channels are pooled by their min, as the max of -v.
    # The op multiplies by it rather than negating, which keeps a NaN's bytes.
    sign = np.sign(mag) if fused and (mag < 0).any() else None
    if fused and not training and deferred and not _records((x, gamma, beta)):
        pooled = _conv_pool(x, sign, pool)
        if pooled is not None:
            return Tensor(_scale_shift(pooled.transpose(1, 0, 2, 3), mag, add))
    m = n * h * w
    x3 = x.data.reshape(n, c, h * w)
    if training:
        mean = x3.mean(axis=(0, 2))
        # centred copy, scaled in place into xhat below
        xhat = np.subtract(x3, mean[:, None], out=x3 if lazy else None)
        var = np.einsum("ncp,ncp->c", xhat, xhat) / m
        _update_running(running_mean, running_var, mean, var, m)
        inv_std = 1.0 / np.sqrt(var + _BN_EPS)
        # times sign, if any: xhat then holds -xhat where the map falls
        xhat *= (inv_std if sign is None else inv_std * sign.astype(inv_std.dtype))[:, None]
        saved = v = xhat
    else:
        v = x3 if sign is None else x3 * sign.astype(x3.dtype)[:, None]
        saved = x3  # the backward keeps xhat in training and x3 in eval mode, never both
    picks = None
    shape = x.data.shape
    if fused:
        pooled, picks = _pool(v.reshape(shape), pool, _records((x, gamma, beta)))
        out_data = _scale_shift(pooled, mag, add)
    else:
        out_data = v * mag[:, None]
        out_data += add[:, None]
        out_data = out_data.reshape(shape)
        if pool > 1:
            out_data, picks = _pool(out_data, pool, _records((x, gamma, beta)))
    layout = np.argsort(x.data.strides, kind="stable")[::-1]

    def bwd(g):
        if pool > 1:
            g = _unpool(g, picks, shape, layout, pool)
        g3 = g.reshape(n, c, h * w)
        xh = saved if training else (saved - running_mean[:, None]) * inv_std[:, None]
        gbeta = g3.sum(axis=(0, 2))
        ggamma = np.einsum("ncp,ncp->c", g3, xh)  # times sign in training
        s = (gamma.data * inv_std)[:, None]
        if training:  # s*g - s*(ggamma/m)*xhat - s*gbeta/m, in xhat: this node runs once
            dtype = np.result_type(xh, ggamma)
            gx = np.multiply(xh, (ggamma / m)[:, None],
                             out=xh if xh.dtype == dtype else None)
            gx += (gbeta / m)[:, None]
            np.subtract(g3, gx, out=gx)
            gx *= s
        else:
            gx = g3 * s
        if sign is not None and training:
            ggamma *= sign.astype(ggamma.dtype)
        return gx.reshape(n, c, h, w), ggamma, gbeta

    return _make(out_data, "batchnorm2d", (x, gamma, beta), bwd)


def _window_columns(planes: np.ndarray, kh: int, kw: int, pool: int):
    """Stride-1 im2col columns of planes (C, N, Hp, Wp) in pool-window order.

    Returns cols (C*kh*kw, pool, pool, N, Ho/pool, Wo/pool): cols[:, i, j,
    n, a, b] is the column of output pixel (n, pool*a + i, pool*b + j), so
    the columns of each window position are one contiguous block per row
    (_conv_bn_pool).  At pool 1 they are the plain im2col columns, with
    which the convolution is a single 2-D GEMM (Chellapilla et al., 2006).
    """
    c, n, hp, wp = planes.shape
    hq, wq = (hp - kh + 1) // pool, (wp - kw + 1) // pool
    cols = _empty((c, kh, kw, pool, pool, n, hq, wq), planes.dtype)
    for ki in range(kh):
        for kj in range(kw):
            for i in range(pool):
                for j in range(pool):
                    r, s = i + ki, j + kj
                    cols[:, ki, kj, i, j] = planes[:, :, r:r + pool * hq:pool,
                                                   s:s + pool * wq:pool]
    return cols.reshape(c * kh * kw, pool, pool, n, hq, wq)


def _pooled_products(wmat: np.ndarray, cols: np.ndarray, codes: bool):
    """The window max of wmat (F, K) times window columns (_window_columns),
    one block of images at a time.

    Each block of images whose products fit _MAP_BUDGET takes one GEMM per
    window position and is pooled at once (_fold_windows), so its products
    stay in cache.  Yields (first image, images, window max (F, images *
    Ho/pool * Wo/pool), pick codes or None); the buffer is reused, so a
    block's products are gone when the next is yielded.
    """
    k, pool, _, n, hq, wq = cols.shape
    f, q = wmat.shape[0], hq * wq
    block = max(1, min(n, _MAP_BUDGET // (f * pool * pool * q * cols.itemsize)))
    v = _empty((pool, pool, f, block * q), np.result_type(wmat, cols))
    for start in range(0, n, block):
        b = min(block, n - start)
        for i in range(pool):
            for j in range(pool):
                np.matmul(wmat, cols[:, i, j, start:start + b].reshape(k, b * q),
                          out=v[i, j, :, :b * q])
        top, code = _fold_windows([v[:, j, :, :b * q] for j in range(pool)], codes)
        yield start, b, top, code


def _conv_pool(z: _LazyConv, sign: np.ndarray | None, pool: int) -> np.ndarray | None:
    """The max of each pool x pool window of sign * z, per channel, for the
    uncomputed conv output z, as (F, N, Ho/pool, Wo/pool); None where the
    bias is not finite, and then nothing is computed.

    Scaling W's rows and the bias by sign = ±1 scales every product and
    sum by it, exactly, and fl(d + b) is monotone in d.  So the window max
    of sign * (W.x + b) is sign * b added to the window max of the scaled
    products: the op pools the raw products and adds the bias to the
    pooled map.  The NaNs are the products' own, where the bias is finite,
    and a zero maximum may take the other sign, which BN's shift (not -0,
    see _monotone) removes.  At C = 1 the products come from the window
    columns of the images, one GEMM per window position per image block
    (_pooled_products); at C > 1 from the grid's GEMMs (_block_forward).
    """
    x, w, bias, padding = z.conv
    b = bias.data
    if not np.isfinite(b).all():
        return None
    f, c, kh, kw = w.data.shape
    wmat = w.data.reshape(f, -1)
    if sign is not None:
        wmat = wmat * sign.astype(wmat.dtype)[:, None]
        b = b * sign.astype(b.dtype)
    if c > 1:
        grid = _Grid(x.data.shape, kh, kw, padding)
        return _block_forward(_shifted_grid(x.data, grid, padding), grid, wmat, b, pool)
    cols = _window_columns(_planes(x.data, padding), kh, kw, pool)
    n, hq, wq = cols.shape[3:]
    out = _empty((f, n, hq, wq), np.result_type(cols, wmat))
    for start, nb, top, _ in _pooled_products(wmat, cols, False):
        np.add(top.reshape(f, nb, hq, wq), b[:, None, None, None], out=out[:, start:start + nb])
    return out


def _conv_bn_pool(z: _LazyConv, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
                  running_var: np.ndarray, pool: int) -> Tensor | None:
    """batchnorm2d(z, ..., training=True, pool=pool) of the uncomputed conv
    output z of one-channel images, from the im2col columns of the conv's
    input x; None where it does not apply (see below), and then nothing is
    changed.

    Each conv output is y_fp = w_f.x_p + b_f, with x_p the K-wide column of
    pixel p (K = C*kh*kw) and P the number of pixels.  With mu the mean
    column and S the K x K covariance of the columns, both in float64, BN's
    batch mean is w_f.mu + b_f and its variance w_f' S w_f, so
    xhat_fp = inv_std_f w_f.(x_p - mu): the bias drops out and no conv
    output is needed for the statistics.  The forward centres the columns
    in place and, for each block of images whose map fits _MAP_BUDGET,
    makes v = sign(gamma_f) xhat_fp by one GEMM per window position with W's
    rows scaled by sign(gamma_f) inv_std_f, max-pools it at once
    (_pooled_products; channels with gamma < 0 pool their min, as in
    batchnorm2d) and writes |gamma_f| max + beta_f.  It keeps the centred
    columns, one pick code per window (see _fold_windows) and K-sized
    vectors; the full-size map never exists.

    The backward takes the gradient g of the pooled output.  With
    A_f = sum_q g_qf (x_pick(q) - mu), one GEMM of the picks' columns per
    window position, it returns
      g_beta_f  = sum_q g_qf,
      g_gamma_f = inv_std_f w_f.A_f,
      g_w_f     = gamma_f inv_std_f (A_f - g_gamma_f inv_std_f S w_f),
      g_b       = 0 exactly, since the bias cancels in xhat,
    with the last two as z's gradient (a _ConvGrad).

    It does not apply, and batchnorm2d computes z, where x has more than one
    channel: the float64 columns and S are sized for K = 9, and at C = 64
    they would be far larger than the map.  Nor where an image is not
    finite or is so large that a centred column would overflow, S or the
    bias is not finite, or v -> v |gamma| inv_std + beta would not keep the
    pooled bytes (see _monotone): gamma = 0, a non-finite gamma, w or beta,
    or a -0 beta.  Where it applies v is finite, so no window holds NaN.
    """
    x, w, bias, padding = z.conv
    f, c, kh, kw = w.data.shape
    if c > 1:
        return None
    xd = x.data
    n = xd.shape[0]
    k = c * kh * kw
    limit = np.finfo(xd.dtype).max / 2  # then every centred column entry is finite
    if not (xd.max() <= limit and xd.min() >= -limit):  # False on NaN
        return None
    cols = _window_columns(_planes(xd, padding), kh, kw, pool)
    _, _, _, _, hq, wq = cols.shape
    flat = cols.reshape(k, -1)
    m = flat.shape[1]
    mu = flat.mean(axis=1, dtype=np.float64)
    centred = np.subtract(flat, mu[:, None], out=_empty((k, m), np.float64))
    cov = (centred @ centred.T) / m
    wk = w.data.reshape(f, k).astype(np.float64)
    var = np.einsum("fk,kl,fl->f", wk, cov, wk)
    inv_std = 1.0 / np.sqrt(var + _BN_EPS)
    gamma64 = gamma.data.astype(np.float64)
    if not (np.isfinite(cov).all() and np.isfinite(bias.data).all()
            and _monotone(gamma64 * inv_std, beta.data)):
        return None
    _update_running(running_mean, running_var, wk @ mu + bias.data, var, m)
    np.copyto(flat, centred)
    del centred  # 8 bytes a column entry: free it before the map blocks
    dtype = xd.dtype
    wv = (wk * (np.sign(gamma64) * inv_std)[:, None]).astype(dtype)
    mag, add = np.abs(gamma.data).astype(dtype), beta.data.astype(dtype)
    recording = _records((z, gamma, beta))
    q = hq * wq
    out = _empty((f, n, hq, wq), dtype)
    # made ahead of the blocks' temporaries (a lower peak RSS), in _fold_windows's type
    codes = _empty((f, n, hq, wq), np.min_scalar_type(pool * pool)) if recording else None
    for start, b, top, code in _pooled_products(wv, cols, recording):
        dst = out[:, start:start + b]
        np.multiply(top.reshape(f, b, hq, wq), mag[:, None, None, None], out=dst)
        dst += add[:, None, None, None]
        if recording:
            codes[:, start:start + b] = code.reshape(f, b, hq, wq)

    def bwd(g):
        gq = g.transpose(1, 0, 2, 3).reshape(f, n * q)
        gbeta = gq.sum(axis=1, dtype=np.float64)
        flat_codes = codes.reshape(f, n * q)
        mask, picked = np.empty_like(flat_codes, np.bool_), np.empty_like(gq)
        a = np.zeros((f, k))
        for i in range(pool):
            for j in range(pool):
                np.equal(flat_codes, i * pool + j, out=mask)
                np.multiply(gq, mask, out=picked)
                a += picked @ cols[:, i, j].reshape(k, n * q).T
        ggamma = inv_std * np.einsum("fk,fk->f", wk, a)
        gw = (gamma64 * inv_std)[:, None] * (a - (ggamma * inv_std)[:, None] * (wk @ cov))
        gz = _ConvGrad(gw.reshape(w.data.shape).astype(dtype), np.zeros_like(bias.data))
        return gz, ggamma.astype(dtype), gbeta.astype(dtype)

    return _make(out.transpose(1, 0, 2, 3), "batchnorm2d", (z, gamma, beta), bwd)


# -- softmax / entropy ---------------------------------------------------


def softmax(x: Tensor, temperature: float = 1.0) -> Tensor:
    if temperature <= 0:
        raise ParameterError(f"softmax temperature must be > 0, got {temperature}")
    z = (x.data - x.data.max(axis=-1, keepdims=True)) / temperature
    e = np.exp(z)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * out_data).sum(axis=-1, keepdims=True)
        return (out_data * (g - dot) / temperature,)

    return _make(out_data, "softmax", (x,), bwd)


def log_softmax(x: Tensor) -> Tensor:
    z = x.data - x.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    out_data = z - lse
    p = np.exp(out_data)

    def bwd(g):
        return (g - p * g.sum(axis=-1, keepdims=True),)

    return _make(out_data, "log_softmax", (x,), bwd)


def entropy(p: Tensor) -> Tensor:
    """Shannon entropy in nats along the last axis, summed over leading axes.

    0 * ln 0 is taken as 0.  Raises on negative entries or rows that do
    not sum to 1 within 1e-5.
    """
    if (p.data < 0).any():
        raise ParameterError("entropy: negative probability entries")
    sums = p.data.sum(axis=-1)
    if not np.allclose(sums, 1.0, atol=1e-5):
        raise ParameterError("entropy: rows must sum to 1 within 1e-5")
    safe = np.maximum(p.data, 1e-30)
    logs = np.log(safe)
    out_data = -(p.data * logs).sum()

    def bwd(g):
        return (-g * (logs + 1.0),)

    return _make(np.asarray(out_data, dtype=p.data.dtype), "entropy", (p,), bwd)


# -- backward pass -------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Accumulate dloss/dleaf into .grad of every requires_grad leaf.

    Each node behind the loss runs once, in reverse topological order, and
    then drops its inputs and its closure, so what it saved is freed as the
    sweep goes and each forward pass starts fresh.  A node that has run
    passes no gradient on.  Repeated backward calls on re-recorded graphs
    accumulate.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if loss.node is None:
        if loss.requires_grad:
            if loss.grad is None:
                loss.grad = np.zeros_like(loss.data)
            loss.grad += np.ones_like(loss.data)
        return
    # topological order by DFS; recording in creation order guarantees acyclicity
    order: list[GraphNode] = []
    seen: set[int] = set()
    stack = [(loss.node, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for inp in node.inputs:
            if isinstance(inp, GraphNode):
                stack.append((inp, False))

    grads: dict[int, np.ndarray] = {id(loss.node): np.ones_like(loss.data)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is not None and node.backward_fn is not None:
            for inp, ig in zip(node.inputs, node.backward_fn(g)):
                if ig is None:
                    continue
                if isinstance(inp, GraphNode):
                    acc = grads.get(id(inp))
                    grads[id(inp)] = ig if acc is None else acc + ig
                elif inp.requires_grad:
                    if inp.grad is None:
                        inp.grad = np.zeros_like(inp.data)
                    inp.grad += ig
        node.inputs = ()
        node.backward_fn = None


def grad_check(f, x: Tensor) -> float:
    """Max relative error between analytic and central-difference gradients.

    Run inside ``use_float64()`` for meaningful results.  Points where the
    central difference straddles a non-differentiability (maxpool ties)
    are the caller's responsibility to avoid.
    """
    x.requires_grad = True
    x.zero_grad()
    loss = f(x)
    backward(loss)
    analytic = x.grad.copy()

    eps = 1e-4  # central-difference step
    numeric = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    nflat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x).item()
        flat[i] = orig - eps
        fm = f(x).item()
        flat[i] = orig
        nflat[i] = (fp - fm) / (2 * eps)

    denom = np.maximum(1.0, np.abs(analytic))
    return float(np.max(np.abs(analytic - numeric) / denom))
