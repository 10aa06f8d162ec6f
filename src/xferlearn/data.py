"""Dataset ingestion, split protocol, normalization, and the synthetic fixture.

Real digit data comes in as big-endian IDX files (magic 2051 for images,
2049 for labels).  SVHN is consumed only as pre-converted grayscale IDX;
the conversion recipe is luminance 0.299R + 0.587G + 0.114B with
round-half-up, written with write_idx.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, current_dtype

IDX_IMAGES_MAGIC = 2051
IDX_LABELS_MAGIC = 2049


class IdxParseError(ValueError):
    pass


class SplitError(ValueError):
    pass


@dataclass
class LabeledDataset:
    images: np.ndarray  # N x 1 x H x W uint8
    labels: np.ndarray  # N int64
    name: str = ""
    classes: tuple = ()

    def __post_init__(self):
        if len(self.images) == 0:
            raise ValueError("empty dataset")
        if len(self.images) != len(self.labels):
            raise ValueError(
                f"images/labels length mismatch: {len(self.images)} vs {len(self.labels)}"
            )
        if not self.classes:
            self.classes = tuple(sorted(np.unique(self.labels).tolist()))

    def __len__(self):
        return len(self.images)


@dataclass
class UnlabeledDataset:
    images: np.ndarray
    name: str = ""

    def __post_init__(self):
        if len(self.images) == 0:
            raise ValueError("empty dataset")

    def __len__(self):
        return len(self.images)


# -- IDX I/O ---------------------------------------------------------------


def _read_header(buf: bytes, path: str):
    if len(buf) < 4:
        raise IdxParseError(f"{path}: truncated header")
    magic = struct.unpack(">I", buf[:4])[0]
    ndim = magic & 0xFF
    if magic >> 8 != 0x000008:
        raise IdxParseError(f"{path}: bad magic 0x{magic:08x}")
    dims = struct.unpack(f">{ndim}I", buf[4 : 4 + 4 * ndim])
    return magic, dims, 4 + 4 * ndim


def load_idx(images_path, labels_path=None, name: str = ""):
    """Parse IDX image (and optional label) files into a dataset."""
    with open(images_path, "rb") as f:
        buf = f.read()
    magic, dims, offset = _read_header(buf, str(images_path))
    if magic != IDX_IMAGES_MAGIC:
        raise IdxParseError(f"{images_path}: expected image magic {IDX_IMAGES_MAGIC}, got {magic}")
    n, h, w = dims
    expected = offset + n * h * w
    if len(buf) != expected:
        raise IdxParseError(f"{images_path}: expected {expected} bytes, got {len(buf)}")
    images = np.frombuffer(buf, dtype=np.uint8, offset=offset).reshape(n, 1, h, w)

    if labels_path is None:
        return UnlabeledDataset(images=images, name=name)

    with open(labels_path, "rb") as f:
        lbuf = f.read()
    lmagic, ldims, loffset = _read_header(lbuf, str(labels_path))
    if lmagic != IDX_LABELS_MAGIC:
        raise IdxParseError(f"{labels_path}: expected label magic {IDX_LABELS_MAGIC}, got {lmagic}")
    if ldims[0] != n:
        raise IdxParseError(f"label count {ldims[0]} != image count {n}")
    if len(lbuf) != loffset + n:
        raise IdxParseError(f"{labels_path}: expected {loffset + n} bytes, got {len(lbuf)}")
    labels = np.frombuffer(lbuf, dtype=np.uint8, offset=loffset).astype(np.int64)
    return LabeledDataset(images=images, labels=labels, name=name)


def write_idx(images_path, images: np.ndarray, labels_path=None, labels=None) -> None:
    """Emit IDX files byte-compatible with the MNIST distribution format."""
    n, _, h, w = images.shape
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, h, w))
        f.write(images.astype(np.uint8).tobytes())
    if labels_path is not None:
        with open(labels_path, "wb") as f:
            f.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
            f.write(np.asarray(labels).astype(np.uint8).tobytes())


def rgb_to_grayscale(rgb: np.ndarray) -> np.ndarray:
    """Luminance conversion for SVHN pre-conversion: N x H x W x 3 -> N x 1 x H x W."""
    lum = 0.299 * rgb[..., 0] + 0.587 * rgb[..., 1] + 0.114 * rgb[..., 2]
    return np.floor(lum + 0.5).clip(0, 255).astype(np.uint8)[:, None, :, :]


# -- filtering / splits ------------------------------------------------------


def filter_classes(ds: LabeledDataset, classes) -> LabeledDataset:
    """Keep only the given classes, remapping labels to 0..C-1 in ascending order."""
    classes = sorted(classes)
    if not classes:
        raise SplitError("empty class filter")
    mask = np.isin(ds.labels, classes)
    if not mask.any():
        raise SplitError(f"no examples with classes {classes} in {ds.name!r}")
    remap = {c: i for i, c in enumerate(classes)}
    labels = np.array([remap[c] for c in ds.labels[mask]], dtype=np.int64)
    return LabeledDataset(images=ds.images[mask], labels=labels,
                          name=ds.name, classes=tuple(range(len(classes))))


def make_splits(pool: LabeledDataset, k: int, seed: int) -> tuple:
    """Seeded k-per-class subsample: returns (D2 labeled, D3 unlabeled rest)."""
    rng = np.random.default_rng(seed)
    chosen = []
    for c in sorted(set(pool.classes)):
        idx = np.flatnonzero(pool.labels == c)
        if idx.size < k:
            raise SplitError(f"class {c} has {idx.size} examples, needs >= {k}")
        chosen.append(rng.choice(idx, size=k, replace=False))
    d2_idx = np.sort(np.concatenate(chosen))
    rest = np.setdiff1d(np.arange(len(pool)), d2_idx)
    d2 = LabeledDataset(images=pool.images[d2_idx], labels=pool.labels[d2_idx],
                        name=f"{pool.name}-d2", classes=pool.classes)
    d3 = UnlabeledDataset(images=pool.images[rest], name=f"{pool.name}-d3")
    return d2, d3


# -- normalization ------------------------------------------------------------


def normalize_batch(images: np.ndarray) -> Tensor:
    """uint8 N x 1 x H x W -> float tensor in [-1, 1]."""
    x = images.astype(current_dtype()) / 255.0
    return Tensor((x - 0.5) / 0.5)


def resize_bilinear(images: np.ndarray, size: int) -> np.ndarray:
    """Bilinear resize of uint8 N x 1 x H x W images, clamped to [0, 255]."""
    n, c, h, w = images.shape
    if h == size and w == size:
        return images.copy()
    ys = (np.arange(size) + 0.5) * h / size - 0.5
    xs = (np.arange(size) + 0.5) * w / size - 0.5
    y0 = np.clip(np.floor(ys).astype(int), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, w - 1)
    y1 = np.clip(y0 + 1, 0, h - 1)
    x1 = np.clip(x0 + 1, 0, w - 1)
    wy = np.clip(ys - y0, 0, 1)[None, None, :, None]
    wx = np.clip(xs - x0, 0, 1)[None, None, None, :]
    img = images.astype(np.float64)
    top = img[:, :, y0][:, :, :, x0] * (1 - wx) + img[:, :, y0][:, :, :, x1] * wx
    bot = img[:, :, y1][:, :, :, x0] * (1 - wx) + img[:, :, y1][:, :, :, x1] * wx
    out = top * (1 - wy) + bot * wy
    return np.floor(out + 0.5).clip(0, 255).astype(np.uint8)


# -- synthetic fixture ---------------------------------------------------------


def synth_digits(n_per_class: int, classes, image_size: int = 16, seed: int = 0,
                 domain_shift: bool = False) -> LabeledDataset:
    """Deterministic class-conditional blob images for fast end-to-end tests.

    Each class gets a fixed smooth template; examples add noise and small
    jitter.  ``domain_shift=True`` applies a fixed intensity inversion and
    translation so a second "domain" shares labels but differs in appearance.
    """
    classes = sorted(classes)
    rng = np.random.default_rng(seed)
    grid = np.linspace(-1, 1, image_size)
    yy, xx = np.meshgrid(grid, grid, indexing="ij")
    templates = {}
    for c in classes:
        r = np.random.default_rng(1000 + c)  # templates fixed across seeds
        pattern = np.zeros((image_size, image_size))
        for _ in range(3):
            cy, cx = r.uniform(-0.6, 0.6, 2)
            s = r.uniform(0.15, 0.35)
            pattern += np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * s * s)))
        pattern = pattern / pattern.max()
        templates[c] = pattern

    images = np.empty((n_per_class * len(classes), 1, image_size, image_size), dtype=np.uint8)
    labels = np.empty(n_per_class * len(classes), dtype=np.int64)
    i = 0
    for c in classes:
        for _ in range(n_per_class):
            img = templates[c] + rng.normal(0, 0.08, (image_size, image_size))
            dy, dx = rng.integers(-1, 2, 2)
            img = np.roll(np.roll(img, dy, axis=0), dx, axis=1)
            if domain_shift:
                img = 0.3 + 0.55 * img  # brightness/contrast shift
                img = np.roll(img, 2, axis=1)
            images[i, 0] = (img.clip(0, 1) * 255).astype(np.uint8)
            labels[i] = c
            i += 1
    return LabeledDataset(images=images, labels=labels,
                          name="synth" + ("-shift" if domain_shift else ""),
                          classes=tuple(classes))
