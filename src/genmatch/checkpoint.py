"""Single-file parameter checkpoints.

Layout: an 8-byte magic, a format-version integer, the parameter count,
then one record per parameter (length-prefixed utf-8 name, dtype code,
rank, extents, raw row-major values). Round-tripping double-precision
parameters is bit-exact, so reloaded models reproduce predictions
byte-identically.

A load makes one allocation per parameter: ``read_checkpoint`` reads each
record's values straight into an empty array of the stored shape and
dtype, and the model's ``ParamStore`` takes that array as it is, or casts
it once when the model's dtype differs (a float64 file in a float32 model).
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"GMCHKPT\x00"
FORMAT_VERSION = 1

_DTYPE_CODES = {np.dtype(np.float64): 0, np.dtype(np.float32): 1}
_CODE_DTYPES = {code: dtype for dtype, code in _DTYPE_CODES.items()}


class CheckpointError(ValueError):
    """Base class for unreadable checkpoints."""


class CorruptCheckpointError(CheckpointError):
    pass


class CheckpointVersionError(CheckpointError):
    pass


def write_checkpoint(path, params) -> None:
    """Serialize named parameters (anything with .name and .data)."""
    path = Path(path)
    params = list(params)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(params)))
        for p in params:
            name = p.name.encode("utf-8")
            # not ascontiguousarray, which turns a 0-d array into shape (1,)
            arr = np.asarray(p.data, order="C")
            code = _DTYPE_CODES.get(arr.dtype)
            if code is None:
                raise CheckpointError(f"unsupported dtype {arr.dtype} for {p.name!r}")
            fh.write(struct.pack("<H", len(name)))
            fh.write(name)
            fh.write(struct.pack("<BB", code, arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}q", *arr.shape))
            fh.write(arr)


def read_checkpoint(path) -> dict[str, np.ndarray]:
    """Parse a checkpoint into a name -> array mapping.

    Each array is allocated once, at its stored shape and dtype, and filled
    by one ``readinto`` from the file, after its size is checked against the
    bytes left in the file. Every error names the file.
    """
    path = Path(path)

    def corrupt(message: str) -> CorruptCheckpointError:
        return CorruptCheckpointError(f"{path}: {message}")

    def read_exactly(n: int) -> bytes:
        buf = fh.read(n)
        if len(buf) != n:
            raise corrupt("checkpoint file truncated")
        return buf

    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if read_exactly(len(MAGIC)) != MAGIC:
            raise corrupt("not a checkpoint file")
        version, count = struct.unpack("<II", read_exactly(8))
        if version != FORMAT_VERSION:
            raise CheckpointVersionError(
                f"{path}: unsupported checkpoint version {version} "
                f"(expected {FORMAT_VERSION})")
        state: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", read_exactly(2))
            try:
                name = read_exactly(name_len).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise corrupt(f"a parameter name is not UTF-8: {exc}") from None
            code, ndim = struct.unpack("<BB", read_exactly(2))
            if code not in _CODE_DTYPES:
                raise corrupt(f"unknown dtype code {code} for {name!r}")
            shape = struct.unpack(f"<{ndim}q", read_exactly(8 * ndim))
            if min(shape, default=0) < 0:
                raise corrupt(f"negative extent in the shape {shape} of {name!r}")
            dtype = _CODE_DTYPES[code]
            # Python integers, so a corrupted shape cannot overflow; checked
            # before the allocation, which could ask for terabytes
            nbytes = math.prod(shape) * dtype.itemsize
            if nbytes > size - fh.tell():
                raise corrupt(f"checkpoint file truncated in {name!r}: its shape "
                              f"{shape} needs {nbytes} bytes")
            arr = np.empty(shape, dtype)
            # a flat byte view: memoryview casts reject zero-size arrays
            if fh.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
                raise corrupt(f"checkpoint file truncated in {name!r}")
            if name in state:
                raise corrupt(f"duplicate parameter {name!r}")
            state[name] = arr
        if fh.read(1):
            raise corrupt("trailing bytes after the last parameter")
    return state


def param_fingerprints(params) -> dict[str, str]:
    """sha256 of each parameter's raw bytes (for freeze verification)."""
    return {p.name: hashlib.sha256(np.ascontiguousarray(p.data)).hexdigest()
            for p in params}
