"""Versioned binary checkpoint format shared by both model kinds.

Layout (all integers little-endian):
    magic        8 bytes  b"SQCKPT01"
    kind_len     u8       then kind bytes (ascii, "ast" or "cnn")
    config_len   u32      then utf-8 "key=value" lines echoing the
                          model and training configuration
    n_tensors    u32
    per tensor:  name_len u16, name utf-8, ndim u8, dims u32 * ndim,
                 float32 data row-major
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .atomic import atomic_write

MAGIC = b"SQCKPT01"


class CheckpointError(ValueError):
    pass


def encode_config(echo: dict[str, str]) -> str:
    return "".join(f"{k}={v}\n" for k, v in sorted(echo.items()))


def decode_config(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CheckpointError(f"bad config line {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def save_checkpoint(path, kind: str, config_echo: dict[str, str], tensors: dict[str, np.ndarray]) -> None:
    parts = [MAGIC]
    kind_b = kind.encode("ascii")
    parts.append(struct.pack("<B", len(kind_b)))
    parts.append(kind_b)
    config_b = encode_config(config_echo).encode("utf-8")
    parts.append(struct.pack("<I", len(config_b)))
    parts.append(config_b)
    parts.append(struct.pack("<I", len(tensors)))
    for name, data in tensors.items():
        name_b = name.encode("utf-8")
        arr = np.ascontiguousarray(data, dtype="<f4")
        parts.append(struct.pack("<H", len(name_b)))
        parts.append(name_b)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.tobytes())

    atomic_write(path, b"".join(parts))


def load_checkpoint(path) -> tuple[str, dict[str, str], dict[str, np.ndarray]]:
    """(kind, config echo, name -> tensor). Tensors come back as the
    stored float32, each its own writable array, with no upcast."""
    raw = memoryview(Path(path).read_bytes())
    if len(raw) < len(MAGIC) or raw[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    pos = len(MAGIC)

    def take(n: int) -> memoryview:  # a view: tensor data is copied once, by astype
        nonlocal pos
        if pos + n > len(raw):
            raise CheckpointError(f"{path}: truncated checkpoint")
        chunk = raw[pos : pos + n]
        pos += n
        return chunk

    (kind_len,) = struct.unpack("<B", take(1))
    kind = bytes(take(kind_len)).decode("ascii")
    (config_len,) = struct.unpack("<I", take(4))
    config = decode_config(bytes(take(config_len)).decode("utf-8"))
    (n_tensors,) = struct.unpack("<I", take(4))
    tensors: dict[str, np.ndarray] = {}
    for _ in range(n_tensors):
        (name_len,) = struct.unpack("<H", take(2))
        name = bytes(take(name_len)).decode("utf-8")
        (ndim,) = struct.unpack("<B", take(1))
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim))
        count = int(np.prod(dims)) if ndim else 1
        data = np.frombuffer(take(4 * count), dtype="<f4").reshape(dims)
        tensors[name] = data.astype(np.float32)
    if pos != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - pos} trailing bytes")
    return kind, config, tensors
