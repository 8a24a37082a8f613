"""Binary artifact files: atomic writes and reads that reject truncation."""

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
