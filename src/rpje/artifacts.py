"""Artifact files: one binary layout for every artifact, and text input decoding.

``dataset.bin``, ``paths.bin`` and ``checkpoint.bin`` are each a magic, then a
``struct.Struct`` header whose first field is the format version, then
little-endian arrays, each zero-padded to start at a multiple of its item size.
"""

import mmap
import os
import struct

import numpy as np


def write_arrays(path, magic: bytes, header: struct.Struct, fields: tuple, arrays) -> None:
    """Write ``magic``, ``header`` packed from ``fields``, then ``arrays`` (little-endian
    numpy arrays) aligned, to a temp file moved into place: no half-written artifacts."""
    tmp = f"{os.fspath(path)}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(magic + header.pack(*fields))
        for array in arrays:
            fh.write(bytes(-fh.tell() % array.itemsize))
            fh.write(np.ascontiguousarray(array))
    os.replace(tmp, path)


# Files of this many bytes or more are mapped: glibc's default mmap threshold.
# Memory for a read that large may be handed back to the system when freed, and
# then every read faults in every page again: about 460 minor faults, and 0.45
# ms, per ``explain`` on wide-eval (3,392 entities), against about 20 faults
# mapped. A smaller read comes from memory the heap keeps; mapping a toy file
# cost about 10 us more.
_MAP_FROM = 1 << 17


def read_arrays(path, magic: bytes, header: struct.Struct, layout, error: type[Exception]):
    """(header fields, arrays) of a ``write_arrays`` file: read-only views of its
    bytes at the (dtype, count) pairs ``layout(fields)`` derives from the header.

    Raises ``error`` if the magic differs, if ``layout`` raises it (for a wrong
    version, say), or if the file is shorter or longer than the header says.

    A file of at least ``_MAP_FROM`` bytes is mapped, not read, and the views
    are of the mapping. ``write_arrays`` replaces a file and never rewrites one
    in place, so a mapped file keeps its bytes.
    """
    with open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size < _MAP_FROM:
            data = fh.read()
        else:
            data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    if data[: len(magic)] != magic:
        raise error(f"{path}: not a {magic.decode()} file")
    if len(data) < len(magic) + header.size:
        raise error(f"{path}: truncated file")
    fields = header.unpack_from(data, len(magic))
    try:
        shapes = layout(fields)
    except error as exc:
        raise error(f"{path}: {exc}") from None
    offset, arrays = len(magic) + header.size, []
    for dtype, count in shapes:
        dtype = np.dtype(dtype)
        offset += -offset % dtype.itemsize
        if offset + dtype.itemsize * count > len(data):
            raise error(f"{path}: truncated file")
        arrays.append(np.frombuffer(data, dtype, count, offset))
        offset += dtype.itemsize * count
    if offset != len(data):
        raise error(f"{path}: over-long file")
    return fields, arrays


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
