"""The one file writer every artifact goes through."""

from __future__ import annotations

import os
import secrets
from pathlib import Path


def atomic_write(path: str | os.PathLike, data: str | bytes) -> None:
    """Write data to path via a temp file in the same directory and a
    rename, so a failed write leaves any earlier file intact and no temp
    file behind. Text is written as UTF-8 with no newline translation.

    The temp file gets a random name and is created exclusively, so
    concurrent writers never share one, with mode 0666 less the umask,
    the mode a plain open() would give the file."""
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
