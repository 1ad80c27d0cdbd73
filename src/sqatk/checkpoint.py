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

import math
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np

from .atomic import atomic_write

MAGIC = b"SQCKPT01"


class CheckpointError(ValueError):
    pass


def encode_config(echo: dict[str, str]) -> str:
    return "".join(f"{k}={v}\n" for k, v in sorted(echo.items()))


def decode_config(raw: bytes, source, error=CheckpointError) -> dict[str, str]:
    """The key=value lines of utf-8 bytes; blank lines and '#' comment
    lines are skipped. Errors are of type error and name source and the
    line."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{source}: config is not utf-8 text: {exc}") from exc
    out = {}
    for i, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise error(f"{source}: line {i}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def echo_config(config, prefix: str) -> dict[str, str]:
    """prefix + name -> text for every field of a config dataclass: repr
    for scalars, a comma list for tuples."""
    out = {}
    for f in fields(config):
        value = getattr(config, f.name)
        out[prefix + f.name] = ",".join(map(str, value)) if isinstance(value, tuple) else repr(value)
    return out


def parse_config(cls, echo: dict[str, str], prefix: str = "", error=CheckpointError) -> dict:
    """Keyword arguments for config dataclass cls from the prefix + name
    keys present in echo, each converted to the type of its field's
    default; a tuple is a comma list of ints."""
    out = {}
    for f in fields(cls):
        text, convert = echo.get(prefix + f.name), type(f.default)
        if text is not None:
            try:
                out[f.name] = tuple(int(c) for c in text.split(",")) if convert is tuple else convert(text)
            except ValueError as exc:
                raise error(f"config key {prefix}{f.name}: {exc}") from exc
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

    # Undecodable kind or name bytes become U+FFFD, which no kind or
    # parameter name matches, so loading the model fails with a typed error.
    (kind_len,) = struct.unpack("<B", take(1))
    kind = bytes(take(kind_len)).decode("ascii", "replace")
    (config_len,) = struct.unpack("<I", take(4))
    config = decode_config(bytes(take(config_len)), path)
    (n_tensors,) = struct.unpack("<I", take(4))
    tensors: dict[str, np.ndarray] = {}
    for _ in range(n_tensors):
        (name_len,) = struct.unpack("<H", take(2))
        name = bytes(take(name_len)).decode("utf-8", "replace")
        (ndim,) = struct.unpack("<B", take(1))
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim))
        count = math.prod(dims)  # Python ints: corrupt dims cannot overflow to a small count
        if 4 * count > len(raw) - pos:
            raise CheckpointError(f"{path}: tensor {name!r} of shape {dims} overruns the file")
        data = np.frombuffer(take(4 * count), dtype="<f4")
        try:  # over 64 dims, or a zero-size shape whose other dims overflow
            data = data.reshape(dims)
        except ValueError as exc:
            raise CheckpointError(f"{path}: tensor {name!r} of shape {dims} cannot be built: {exc}") from exc
        tensors[name] = data.astype(np.float32)
    if pos != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - pos} trailing bytes")
    return kind, config, tensors
