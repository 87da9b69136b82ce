"""Binary tensor file format ("CPTN") plus a key=value metadata sidecar.

Layout: magic b"CPTN", u32 little-endian version (= 1), u8 scalar kind
(0 real float64, 1 complex float64 with interleaved re/im), u8 order N,
padding to the next 8-byte boundary, N x u64 little-endian dims, then the
J scalars little-endian in column-major order.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .tensor import COMPLEX, DenseTensor

MAGIC = b"CPTN"
VERSION = 1
_HEADER = struct.Struct("<4sIBB6x")  # magic, version, kind, order, pad to 16


class FormatError(ValueError):
    """Malformed or unsupported tensor file."""


def write_tensor(path, tensor: DenseTensor) -> None:
    kind = 1 if tensor.scalar_kind == COMPLEX else 0
    dtype = "<c16" if kind else "<f8"
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, kind, tensor.order))
        fh.write(np.asarray(tensor.dims, dtype="<u8").tobytes())
        fh.write(np.asarray(tensor.data, dtype=dtype, order="F").tobytes(order="F"))


def read_tensor(path) -> DenseTensor:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise FormatError("truncated header")
        magic, version, kind, order = _HEADER.unpack(header)
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}")
        if version != VERSION:
            raise FormatError(f"unsupported version {version}")
        if kind not in (0, 1):
            raise FormatError(f"unknown scalar kind {kind}")
        dims_raw = fh.read(8 * order)
        if len(dims_raw) < 8 * order:
            raise FormatError("truncated dims")
        dims = tuple(int(d) for d in np.frombuffer(dims_raw, dtype="<u8"))
        if max(dims, default=0) > np.iinfo(np.intp).max:
            raise FormatError(f"dims {dims}: a mode exceeds numpy's index range")
        dtype = "<c16" if kind else "<f8"
        count = math.prod(dims)
        payload = fh.read()
    data = np.frombuffer(payload, dtype=dtype)
    if data.size != count:
        raise FormatError(f"expected {count} scalars, found {data.size}")
    return DenseTensor(data.reshape(dims, order="F"))


def write_matrix(path, matrix: np.ndarray) -> None:
    """Store a factor matrix as an order-2 tensor file."""
    write_tensor(path, DenseTensor(np.atleast_2d(matrix)))


def read_matrix(path) -> np.ndarray:
    t = read_tensor(path)
    if t.order != 2:
        raise FormatError(f"expected a matrix, got order {t.order}")
    return t.data


def write_metadata(path, entries: dict) -> None:
    """key=value lines, UTF-8, LF endings, insertion order preserved."""
    lines = [f"{k}={v}" for k, v in entries.items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_metadata(path) -> dict:
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out
