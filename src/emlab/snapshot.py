"""EMXF field-snapshot container.

A snapshot stores named real scalar fields sampled on one cubic grid in a
single binary file.  Layout, all little-endian:

    magic   4 bytes  b"EMXF"
    version u32      currently 1
    n       u32      grid points per axis
    box     f64      box side length
    count   u32      number of fields
    names   count times (u32 byte length, utf-8 bytes)
    data    count times n^3 f64, C row-major, in name order

Vector fields are stored as one scalar per component (e.g. "u_x", "u_y",
"u_z").  Writes are atomic (atomic_write, which the pipelines' CSV and
JSON outputs use too): the payload goes to a temporary file in the
destination directory which is then renamed over the target.
"""
from __future__ import annotations

import itertools
import os
import struct
import tempfile
from typing import Iterable

import numpy as np

from .grid import GridSpec

__all__ = ["atomic_write", "write_snapshot", "read_snapshot", "EMXF_MAGIC", "EMXF_VERSION"]

EMXF_MAGIC = b"EMXF"
EMXF_VERSION = 1


def atomic_write(path: str | os.PathLike, chunks: Iterable[bytes]) -> None:
    """Write the chunks, one at a time, to a temporary file in the
    destination directory and rename it over path.  On any failure the
    temporary is removed and path is left as it was."""
    dest_dir = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=dest_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_snapshot(path: str | os.PathLike, grid: GridSpec, fields: dict[str, np.ndarray]) -> None:
    """Write named fields to an EMXF file, preserving dict order."""
    if not fields:
        raise ValueError("snapshot needs at least one field")
    for name, arr in fields.items():
        if np.shape(arr) != grid.shape:
            raise ValueError(
                f"field {name!r} has shape {np.shape(arr)}, expected {grid.shape}"
            )
    header = bytearray()
    header += EMXF_MAGIC
    header += struct.pack("<IIdI", EMXF_VERSION, grid.n, float(grid.box), len(fields))
    for name in fields:
        raw = name.encode("utf-8")
        header += struct.pack("<I", len(raw))
        header += raw

    payload = (np.ascontiguousarray(arr, dtype="<f8").tobytes() for arr in fields.values())
    atomic_write(path, itertools.chain([bytes(header)], payload))


def _read_exact(fh, size: int, what: str) -> bytes:
    raw = fh.read(size)
    if len(raw) != size:
        raise ValueError(f"truncated EMXF file: {what} needs {size} bytes, got {len(raw)}")
    return raw


def read_snapshot(path: str | os.PathLike) -> tuple[GridSpec, dict[str, np.ndarray]]:
    """Read an EMXF file back into (grid, ordered name -> field dict).

    Every malformed file, truncated or corrupted anywhere, raises
    ValueError; header counts are checked against the file size before
    anything they size is read.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(4)
        if magic != EMXF_MAGIC:
            raise ValueError(f"not an EMXF file: bad magic {magic!r}")
        version, n, box, count = struct.unpack("<IIdI", _read_exact(fh, 20, "header"))
        if version != EMXF_VERSION:
            raise ValueError(f"unsupported EMXF version {version}")
        grid = GridSpec(n=int(n), box=float(box))
        nbytes = n**3 * 8
        # each field costs at least its 4-byte name length and its payload
        if count < 1 or 24 + count * (4 + nbytes) > size:
            raise ValueError(
                f"truncated or corrupt EMXF file: {count} fields of {n}^3 values"
                f" do not fit in {size} bytes"
            )
        names = []
        for _ in range(count):
            (ln,) = struct.unpack("<I", _read_exact(fh, 4, "field name length"))
            if ln > size - fh.tell():
                raise ValueError(f"corrupt EMXF header: field name length {ln} exceeds the file")
            names.append(_read_exact(fh, ln, "field name").decode("utf-8"))
        if len(set(names)) != len(names):
            raise ValueError(f"corrupt EMXF header: repeated field names {names}")
        if fh.tell() + count * nbytes != size:
            raise ValueError(
                f"EMXF payload is {size - fh.tell()} bytes, expected {count * nbytes}"
                f" ({'truncated' if fh.tell() + count * nbytes > size else 'trailing bytes'})"
            )
        fields: dict[str, np.ndarray] = {}
        for name in names:
            raw = _read_exact(fh, nbytes, f"field {name!r}")
            fields[name] = np.frombuffer(raw, dtype="<f8").reshape(grid.shape).copy()
    return grid, fields
