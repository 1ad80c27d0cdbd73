"""The one file writer every artifact goes through, the one reader of
the utf-8 text files the CLI takes in, and the CSV table writer and
reader built on them."""

from __future__ import annotations

import csv
import io
import os
import secrets
from collections.abc import Iterable, Iterator, Sequence
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


def read_text(path: str | os.PathLike, error: type[Exception]) -> str:
    """The utf-8 text of path, newlines as stored; bytes that are not
    utf-8 raise error naming the file."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not utf-8 text: {exc}") from exc


def write_csv(path: str | os.PathLike, header: Sequence[str], rows: Iterable[Sequence],
              preamble: str | None = None) -> None:
    """Write a CSV table atomically: the preamble line if given, then
    the header and rows as csv.writer formats them."""
    buf = io.StringIO()
    if preamble is not None:
        buf.write(preamble + "\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write(path, buf.getvalue())


def read_csv(path: str | os.PathLike, header: Sequence[str], kind: str,
             error: type[Exception]) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) for each non-blank row of the CSV table at
    path, read with read_text. A first row other than header, or a row
    of another field count, raises error naming the file."""
    header = list(header)
    with io.StringIO(read_text(path, error), newline="") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found != header:
            raise error(f"{path}: unexpected {kind} header {found}")
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise error(f"{path}: line {reader.line_num}: {len(row)} fields, expected {len(header)}")
            yield reader.line_num, row
