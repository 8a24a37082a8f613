"""Artifact files: atomic writes, reads that reject truncation, and text input decoding."""

import contextlib
import os


@contextlib.contextmanager
def atomic_write(path):
    """Write a temp file next to ``path``, then move it into place: no half-written artifacts."""
    tmp = f"{os.fspath(path)}.tmp"
    with open(tmp, "wb") as fh:
        yield fh
    os.replace(tmp, path)


def read_exact(fh, n: int, error: type[Exception]) -> bytes:
    """The next ``n`` bytes of ``fh``; raises ``error`` if the file ends first."""
    data = fh.read(n)
    if len(data) != n:
        raise error(f"{fh.name}: truncated file")
    return data


def decode_text(data: bytes, path, error: type[Exception]) -> str:
    """UTF-8 ``data`` read from ``path``, with universal newlines as in text mode
    (CRLF and a lone CR become LF); raises ``error`` naming the file if it is not UTF-8."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_text(path, error: type[Exception]) -> str:
    """The text of the file at ``path``, as ``decode_text`` reads it."""
    with open(path, "rb") as fh:
        return decode_text(fh.read(), path, error)
