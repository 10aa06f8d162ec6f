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
``_reuse_freed_memory``); the large arrays of the conv-block ops and of
their backwards come from memory maps of their own instead (see ``_Arena``).
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import mmap
import sys
import threading
import weakref
from typing import Callable, Sequence

import numpy as np

_DTYPE = np.float32
_RECORDING = True  # False inside no_grad()
# im2col bytes per image block of a stride-1 conv forward: a block's columns
# stay near the caches, where numpy's copies run about twice as fast
_COLUMN_BUDGET = 8 << 20


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

# arrays of at least this many bytes that the conv-block ops and their
# backwards make come from _ARENAS
_ARENA_MIN_BYTES = 256 << 10
_ARENA_BYTES = 256 << 20  # address space per arena; only the pages used count as memory


class _Arena:
    """An anonymous memory map apart from glibc's heap, cut best fit into page-aligned blocks.

    A training step makes and frees the same activations, saved tensors and
    gradients.  In glibc's heap (see ``_reuse_freed_memory``) they leave
    holes between steps that whatever else the process allocates may split;
    a later step that no longer fits then extends the heap, and a fine-tune
    run's peak memory grew by one 6 MiB activation at a step that differed
    from run to run.  An arena holds only these arrays, and each step cuts
    it the same way, so a run's memory stops growing after its first steps.
    A block is an array over its range of the map.  Every view of it holds
    it (numpy points a view's base at the array that holds the memory), and
    a weakref callback frees the range once the block is gone.  The map
    asks for transparent huge pages before any page is touched.  numpy asks
    for them on each of its own arrays of 4 MiB or more, so a heap range
    could be marked while some of its pages were in use; the kernel then
    collapsed it in the background, at a time that varied from run to run,
    adding the untouched rest of the range to the memory in use.
    """

    def __init__(self, nbytes: int):
        self.map = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
        if hasattr(mmap, "MADV_HUGEPAGE"):
            self.map.madvise(mmap.MADV_HUGEPAGE)
        self.live: dict[int, tuple] = {}  # offset -> (bytes, weakref) of each block in use
        self.top = 0  # end of the highest block ever taken: the pages touched lie below

    def take(self, nbytes: int) -> np.ndarray | None:
        """A block of ``nbytes`` (a multiple of the page size) in the smallest
        gap between blocks that holds it, the lowest of equal gaps, else after
        the last block; None if that does not fit either."""
        best, end = None, 0  # (gap, offset)
        live = self.live
        for off in sorted(live):
            if off - end >= nbytes and (best is None or off - end < best[0]):
                best = (off - end, end)
            end = off + live.get(off, (0,))[0]  # a block may die meanwhile
        if best is None:
            if len(self.map) - end < nbytes:
                return None
            best = (0, end)
        off = best[1]
        block = np.frombuffer(self.map, dtype=np.uint8, count=nbytes, offset=off)
        live[off] = (nbytes, weakref.ref(block, lambda _, off=off: live.pop(off)))
        self.top = max(self.top, off + nbytes)
        return block


_ARENAS: list[_Arena] = []
_ARENA_LOCK = threading.Lock()  # finding a gap and taking it must not interleave


def _empty(shape, dtype, order=None) -> np.ndarray:
    """np.empty(shape, dtype) with its axes in memory in ``order``, outermost
    first (default: C order); from _ARENAS if it is large."""
    dtype = np.dtype(dtype)
    outer = shape if order is None else [shape[a] for a in order]
    nbytes = math.prod(outer) * dtype.itemsize
    if nbytes < _ARENA_MIN_BYTES:
        out = np.empty(outer, dtype)
    else:
        size = -(-nbytes // mmap.PAGESIZE) * mmap.PAGESIZE
        with _ARENA_LOCK:
            for arena in _ARENAS:
                block = arena.take(size)
                if block is not None:
                    break
            else:
                _ARENAS.append(_Arena(max(size, _ARENA_BYTES)))
                block = _ARENAS[-1].take(size)
        out = block[:nbytes].view(dtype).reshape(outer)
    return out if order is None else out.transpose(sorted(range(len(order)),
                                                          key=order.__getitem__))


def _zeros(shape, dtype) -> np.ndarray:
    out = _empty(shape, dtype)
    out.fill(0)
    return out


def _like(a: np.ndarray, dtype=None) -> np.ndarray:
    """np.empty_like(a, dtype): a's shape, its axes in memory by falling stride."""
    dtype = a.dtype if dtype is None else np.dtype(dtype)
    if a.size * dtype.itemsize < _ARENA_MIN_BYTES:
        return np.empty_like(a, dtype)
    return _empty(a.shape, dtype, sorted(range(a.ndim), key=lambda i: -abs(a.strides[i])))


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

    Forwards whose gradients are never taken (evaluation, frozen encoders)
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


def _records(inputs: Sequence[Tensor]) -> bool:
    """Whether an op on these inputs records a graph node."""
    return _RECORDING and any(t.requires_grad or t.node is not None for t in inputs)


def _make(data, op: str, inputs: Sequence[Tensor], backward_fn) -> Tensor:
    out = Tensor(data)
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
    mask = np.greater(a.data, 0, out=_like(a.data, np.bool_)) if _records((a,)) else None

    def bwd(g):
        return (np.multiply(g, mask, out=_like(g)),)

    return _make(np.maximum(a.data, 0, out=_like(a.data)), "relu", (a,), bwd)


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


def index_select(a: Tensor, indices, axis: int = 0) -> Tensor:
    idx = np.asarray(indices)

    def bwd(g):
        out = np.zeros_like(a.data)
        np.add.at(out, (slice(None),) * axis + (idx,), g)
        return (out,)

    return _make(np.take(a.data, idx, axis=axis), "index_select", (a,), bwd)


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
    planes = _zeros((c, n, h + 2 * padding, w + 2 * padding), x.dtype)
    planes[:, :, padding:padding + h, padding:padding + w] = x.transpose(1, 0, 2, 3)
    return planes


def _unpad(planes: np.ndarray, padding: int) -> np.ndarray:
    """Inverse of _planes: the unpadded part as a channel-major (N, C, H, W) array."""
    if padding:
        inner = planes[:, :, padding:-padding, padding:-padding]
        planes = _empty(inner.shape, inner.dtype)
        np.copyto(planes, inner)
    return planes.transpose(1, 0, 2, 3)


def _im2col(planes: np.ndarray, kh: int, kw: int, stride: int):
    """Unfold planes (C, N, Hp, Wp) into cols (C*kh*kw, N*Ho*Wo), one column per output pixel.

    With this layout the convolution and both of its gradients are single 2-D
    GEMMs (Chellapilla et al., 2006).
    """
    c, n, hp, wp = planes.shape
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    cols = _empty((c, kh, kw, n, ho, wo), planes.dtype)
    for i in range(kh):
        i_end = i + stride * ho
        for j in range(kw):
            j_end = j + stride * wo
            cols[:, i, j] = planes[:, :, i:i_end:stride, j:j_end:stride]
    return cols.reshape(c * kh * kw, n * ho * wo), ho, wo


def _col2im(cols: np.ndarray, x_shape, kh, kw, stride, padding, ho, wo):
    """Adjoint of _im2col: scatter-add (C*kh*kw, N*Ho*Wo) columns back into x_shape."""
    n, c, h, w = x_shape
    cols = cols.reshape(c, kh, kw, n, ho, wo)
    out = np.zeros((c, n, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(kh):
        i_end = i + stride * ho
        for j in range(kw):
            j_end = j + stride * wo
            out[:, :, i:i_end:stride, j:j_end:stride] += cols[:, i, j]
    return _unpad(out, padding)


def _shifted_grads(planes: np.ndarray, w: np.ndarray, g: np.ndarray, need_gx: bool):
    """Weight gradient and padded input gradient of a stride-1 convolution.

    On the flattened padded grid (C, L), L = N*Hp*Wp, output pixel (n, oi, oj)
    sits at column n*Hp*Wp + oi*Wp + oj, and kernel offset (i, j) reads the
    column i*Wp + j further on.  With g zero-filled onto the same grid, each
    offset is one GEMM over contiguous column slices, so neither im2col
    columns nor a col2im scatter are needed (cf. Cho & Brand, 2017).
    """
    c, n, hp, wp = planes.shape
    f, _, kh, kw = w.shape
    length = n * hp * wp
    span = length - (kh - 1) * wp - (kw - 1)  # the last output pixel's column + 1
    grid = _zeros((f, n, hp, wp), g.dtype)
    grid[:, :, :g.shape[2], :g.shape[3]] = g.transpose(1, 0, 2, 3)
    grid = grid.reshape(f, length)[:, :span]
    flat = planes.reshape(c, length)
    gw = np.empty((kh, kw, f, c), dtype=g.dtype)
    wt = w.transpose(2, 3, 1, 0).copy()  # (kh, kw, C, F)
    gxp = _zeros((c, length), g.dtype) if need_gx else None
    term = _empty((c, span), g.dtype) if need_gx else None
    for i in range(kh):
        for j in range(kw):
            off = i * wp + j
            np.matmul(grid, flat[:, off:off + span].T, out=gw[i, j])
            if need_gx:
                gxp[:, off:off + span] += np.matmul(wt[i, j], grid, out=term)
    gw = gw.transpose(2, 3, 0, 1).copy()
    return gw, None if gxp is None else gxp.reshape(c, n, hp, wp)


def _block_forward(planes: np.ndarray, wmat: np.ndarray, bias: np.ndarray, kh: int, kw: int):
    """Stride-1 convolution of padded planes (C, N, Hp, Wp): (F, N, Ho, Wo), bias added.

    Images go in blocks whose columns fit _COLUMN_BUDGET.  On the block's
    flattened padded grid, kernel offset (i, j) of every output pixel is one
    contiguous slice, i*Wp + j further on, so the block's columns are kh*kw
    slice copies and one GEMM; the columns of padding positions are computed
    and dropped.  Each output pixel is still the dot product of its weight
    row with its im2col column, so the bytes equal one whole-batch im2col
    GEMM's wherever the BLAS runs the same kernel for both.
    """
    c, n, hp, wp = planes.shape
    f, k = wmat.shape
    ho, wo = hp - kh + 1, wp - kw + 1
    grid = hp * wp
    tail = (kh - 1) * wp + (kw - 1)  # grid columns after the block's last output pixel
    block = max(1, min(n, _COLUMN_BUDGET // (k * grid * planes.itemsize)))
    flat = planes.reshape(c, n * grid)
    cols = _empty((c, kh, kw, block * grid - tail), planes.dtype)
    cols2d = cols.reshape(k, -1)
    dtype = np.result_type(planes, wmat)
    prod = _empty((f, block, hp, wp), dtype)
    prod2d = prod.reshape(f, -1)
    out = _empty((f, n, ho, wo), dtype)
    bias = bias[:, None, None, None]
    for start in range(0, n, block):
        b = min(block, n - start)
        span = b * grid - tail
        for i in range(kh):
            for j in range(kw):
                off = start * grid + i * wp + j
                cols[:, i, j, :span] = flat[:, off:off + span]
        np.matmul(wmat, cols2d[:, :span], out=prod2d[:, :span])
        np.add(prod[:, :b, :ho, :wo], bias, out=out[:, start:start + b])
    return out


def conv2d(x: Tensor, w: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlate x (N, C, H, W) with w (F, C, kh, kw) and add the bias.

    At stride 1 with C > 1 the forward builds its columns per image block
    from the padded planes (_block_forward) and the backward keeps only those
    planes (_shifted_grads).  Otherwise both are one im2col GEMM, and the
    backward keeps the columns.
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
    planes = _planes(x.data, padding)
    wmat = w.data.reshape(f, -1)
    shifted = stride == 1 and c > 1
    if shifted:
        cols = None  # the backward needs only the planes
        out = _block_forward(planes, wmat, bias.data, kh, kw)
        ho, wo = out.shape[2:]
    else:
        cols, ho, wo = _im2col(planes, kh, kw, stride)
        planes = None
        out = np.matmul(wmat, cols, out=_empty((f, cols.shape[1]), np.result_type(wmat, cols)))
        out += bias.data[:, None]
        out = out.reshape(f, n, ho, wo)
    x_shape = x.data.shape
    need_gx = x.requires_grad or x.node is not None  # not an input leaf like the images

    def bwd(g):
        gmat = g.transpose(1, 0, 2, 3).reshape(f, n * ho * wo)
        gb = gmat.sum(axis=1)
        if shifted:
            gw, gxp = _shifted_grads(planes, w.data, g, need_gx)
            return None if gxp is None else _unpad(gxp, padding), gw, gb
        gw = (gmat @ cols.T).reshape(w.data.shape)
        if not need_gx:
            return None, gw, gb
        return _col2im(wmat.T @ gmat, x_shape, kh, kw, stride, padding, ho, wo), gw, gb

    return _make(out.transpose(1, 0, 2, 3), "conv2d", (x, w, bias), bwd)


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
        new = np.maximum(out, part, out=_like(part))
        if codes:
            changed = np.not_equal(new, out, out=_like(new, np.bool_))
            if code is None:
                code = changed.view(np.uint8)
            else:
                np.copyto(code, k, where=changed)
        out = new
    return out, code


def maxpool2d(x: Tensor, size: int = 2, stride: int = 2) -> Tensor:
    """Non-overlapping max pooling.  A window holding NaN outputs NaN.

    The output folds np.maximum over the columns of each window row, then
    over the rows, which gives the bytes of a row-major fold of the window.
    The gradient goes to the first maximum of each window in row-major
    order; a window whose maximum is NaN passes no gradient.  Only when a
    graph is recorded does the forward keep pick codes for the backward: per
    window row the column of its first maximum, per window the row, and the
    windows that hold NaN if there are any.  It never keeps x.
    """
    if size != stride:
        raise ShapeError("maxpool2d supports size == stride only")
    n, c, h, w = x.data.shape
    if h % stride or w % stride:
        raise ShapeError(f"maxpool2d dims {h}x{w} not divisible by stride {stride}")
    ho, wo = h // stride, w // stride
    windows = x.data.reshape(n, c, ho, size, wo, size)
    codes = _records((x,))
    row_max, cols = _fold_max([windows[..., j] for j in range(size)], codes)
    out_data, rows = _fold_max([row_max[:, :, :, i] for i in range(size)], codes)
    keep = None
    if codes:
        nan = np.isnan(out_data, out=_like(out_data, np.bool_))
        if nan.any():
            keep = np.logical_not(nan, out=nan)
    layout = np.argsort(x.data.strides, kind="stable")[::-1]  # x's axes, outermost first

    def bwd(g):
        g_rows = _like(cols, g.dtype)  # g on each window's first-maximum row
        for i in range(size):
            pick = np.equal(rows, i, out=_like(rows, np.bool_))
            if keep is not None:
                pick &= keep
            np.multiply(g, pick, out=g_rows[:, :, :, i])
        gx = _empty((n, c, h, w), g.dtype, layout)
        gx_windows = gx.reshape(n, c, ho, size, wo, size)  # a view: it splits h and w
        for j in range(size):
            pick = np.equal(cols, j, out=_like(cols, np.bool_))
            np.multiply(g_rows, pick, out=gx_windows[..., j])
        return (gx,)

    return _make(out_data, "maxpool2d", (x,), bwd)


def batchnorm2d(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
                running_var: np.ndarray, training: bool, momentum: float = 0.1,
                eps: float = 1e-5) -> Tensor:
    """Per-channel batch normalization over an N x C x H x W tensor.

    Training mode normalizes by the batch statistics (two-pass variance) and
    updates the running stats arrays in place; eval mode is one per-channel
    multiply-add by the running statistics.  The input gradient is the closed
    form of Ioffe & Szegedy (2015).
    """
    n, c, h, w = x.data.shape
    m = n * h * w
    x3 = x.data.reshape(n, c, h * w)
    if training:
        if n < 2:
            raise ParameterError("batchnorm2d needs batch size >= 2 in train mode")
        mean = x3.mean(axis=(0, 2))
        # centred copy, scaled in place into xhat below
        xhat = np.subtract(x3, mean[:, None], out=_like(x3))
        var = np.einsum("ncp,ncp->c", xhat, xhat) / m
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        # running var uses the unbiased estimate, matching common practice
        running_var *= 1.0 - momentum
        running_var += momentum * var * m / max(m - 1, 1)
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat *= inv_std[:, None]
        out_data = np.multiply(xhat, gamma.data[:, None],
                               out=_like(xhat, np.result_type(xhat, gamma.data)))
        out_data += beta.data[:, None]
        saved = xhat
    else:
        inv_std = 1.0 / np.sqrt(running_var + eps)
        scale = gamma.data * inv_std
        out_data = x3 * scale[:, None]
        out_data += (beta.data - running_mean * scale)[:, None]
        saved = x3  # the backward keeps xhat in training and x3 in eval mode, never both

    def bwd(g):
        g3 = g.reshape(n, c, h * w)
        xh = saved if training else (saved - running_mean[:, None]) * inv_std[:, None]
        gbeta = g3.sum(axis=(0, 2))
        ggamma = np.einsum("ncp,ncp->c", g3, xh)
        s = (gamma.data * inv_std)[:, None]
        if training:  # s*g - s*(ggamma/m)*xhat - s*gbeta/m
            gx = np.multiply(xh, (ggamma / m)[:, None], out=_like(xh, np.result_type(xh, ggamma)))
            gx += (gbeta / m)[:, None]
            np.subtract(g3, gx, out=gx)
            gx *= s
        else:
            gx = g3 * s
        return gx.reshape(n, c, h, w), ggamma, gbeta

    return _make(out_data.reshape(n, c, h, w), "batchnorm2d", (x, gamma, beta), bwd)


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


def log_softmax(x: Tensor, temperature: float = 1.0) -> Tensor:
    if temperature <= 0:
        raise ParameterError(f"softmax temperature must be > 0, got {temperature}")
    z = (x.data - x.data.max(axis=-1, keepdims=True)) / temperature
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    out_data = z - lse
    p = np.exp(out_data)

    def bwd(g):
        return ((g - p * g.sum(axis=-1, keepdims=True)) / temperature,)

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


def grad_check(f, x: Tensor, eps: float = 1e-4) -> float:
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
