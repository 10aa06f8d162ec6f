"""Binary checkpoint format.

Layout: magic "XFERCKPT", u32 version, u32 tensor count, u32 step; per tensor a
u16 name length + UTF-8 name, u8 rank, u32 per dim, then raw
little-endian float32 data; finally a u32-length-prefixed UTF-8 config
snapshot.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"XFERCKPT"
VERSION = 1


class CheckpointError(ValueError):
    pass


@dataclass
class Checkpoint:
    tensors: dict  # name -> np.ndarray (float32)
    config_text: str = ""
    version: int = VERSION
    step: int = 0


def save_checkpoint(path, tensors: dict, config_text: str = "", step: int = 0) -> None:
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<III", VERSION, len(tensors), step))
        for name, arr in tensors.items():
            arr = np.ascontiguousarray(arr, dtype="<f4")
            nb = name.encode("utf-8")
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b"")
            f.write(arr.tobytes())
        cb = config_text.encode("utf-8")
        f.write(struct.pack("<I", len(cb)))
        f.write(cb)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:8] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {buf[:8]!r}")
    if len(buf) < 20:
        raise CheckpointError(f"{path}: truncated header")
    version, count, step = struct.unpack_from("<III", buf, 8)
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    pos = 20
    tensors = {}
    try:
        for _ in range(count):
            (nlen,) = struct.unpack_from("<H", buf, pos)
            pos += 2
            name = buf[pos : pos + nlen].decode("utf-8")
            pos += nlen
            if name in tensors:
                raise CheckpointError(f"{path}: tensor {name!r} named twice")
            (rank,) = struct.unpack_from("<B", buf, pos)
            pos += 1
            shape = struct.unpack_from(f"<{rank}I", buf, pos) if rank else ()
            pos += 4 * rank
            n = int(np.prod(shape)) if shape else 1
            arr = np.frombuffer(buf, dtype="<f4", count=n, offset=pos).reshape(shape)
            pos += 4 * n
            tensors[name] = arr.copy()
        (clen,) = struct.unpack_from("<I", buf, pos)
        pos += 4
        if pos + clen > len(buf):
            raise CheckpointError(f"{path}: truncated config snapshot")
        config_text = buf[pos : pos + clen].decode("utf-8")
        pos += clen
    except CheckpointError:
        raise
    except (struct.error, ValueError) as e:
        raise CheckpointError(f"{path}: truncated checkpoint ({e})") from e
    if pos != len(buf):
        raise CheckpointError(f"{path}: {len(buf) - pos} trailing bytes")
    return Checkpoint(tensors=tensors, config_text=config_text, version=version, step=step)
