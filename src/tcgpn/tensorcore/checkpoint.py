"""Binary checkpoint format.

Layout: magic bytes "TCGPN001", a little-endian uint32 header length, a
UTF-8 JSON header {"config": ..., "entries": [{path, shape, dtype, offset}]},
then the raw little-endian parameter values. Offsets index into the payload,
which ends with the last entry. Files are written through a temporary file
and renamed into place, so a reader never sees a partial checkpoint.

`atomic_write` and `open_text` serve the package's text formats too.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .params import ParamStore

MAGIC = b"TCGPN001"
_PREFIX = len(MAGIC) + 4  # magic + header length

_DTYPE_CODES = {"<f4": np.dtype("<f4"), "<f8": np.dtype("<f8")}


@contextlib.contextmanager
def atomic_write(path: str | Path, mode: str = "w", **open_kwargs):
    """Open a temporary sibling of `path` for writing and rename it over
    `path` once the block completes. If the block or the rename fails, the
    temporary file is removed and `path` keeps its previous contents."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


@contextlib.contextmanager
def open_text(path: str | Path, error: type[ValueError] = ValueError):
    """Open a UTF-8 text file for reading, with newline="" as csv needs; a
    leading byte-order mark, as spreadsheet programs write, is skipped. A
    byte that does not decode raises `error` with `<path>:<line>: not UTF-8`.
    The line is found in the raw bytes only then, so reading a valid file
    costs nothing extra."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError:
        raw = Path(path).read_bytes()
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raw = raw[:e.start]  # the bytes before the first that does not decode
        line = raw.count(b"\n") + 1
        raise error(f"{path}:{line}: not UTF-8") from None


def save_checkpoint(path: str | Path, params: ParamStore, config: dict | None = None) -> None:
    entries = []
    blobs = []
    offset = 0
    for p, t in params.items():
        code = "<f8" if t.data.dtype == np.float64 else "<f4"
        raw = np.ascontiguousarray(t.data, dtype=_DTYPE_CODES[code]).tobytes()
        entries.append({"path": p, "shape": list(t.shape), "dtype": code, "offset": offset})
        blobs.append(raw)
        offset += len(raw)
    header = json.dumps({"config": config, "entries": entries}).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for raw in blobs:
            fh.write(raw)


def _is_count(v) -> bool:
    return type(v) is int and v >= 0


def _entry(path, i: int, entry, seen) -> tuple[str, tuple[int, ...], np.dtype, int]:
    """Header entry i as (name, shape, dtype, offset). A malformed entry, or a
    name already in `seen`, is a one-line ValueError naming file and entry."""
    if not isinstance(entry, dict) or not {"path", "shape", "dtype", "offset"} <= entry.keys():
        raise ValueError(f"{path}: checkpoint entry {i} needs path, shape, dtype and offset, got {entry!r}")
    name, shape, code, offset = entry["path"], entry["shape"], entry["dtype"], entry["offset"]
    where = f"{path}: checkpoint entry {i} ({name!r})"
    if not isinstance(name, str):
        raise ValueError(f"{where}: path is not a string")
    if name in seen:
        raise ValueError(f"{where}: path listed twice")
    if not isinstance(code, str) or code not in _DTYPE_CODES:
        raise ValueError(f"{where}: unknown dtype code {code!r}")
    if not isinstance(shape, list) or not all(map(_is_count, shape)):
        raise ValueError(f"{where}: shape {shape!r} is not a list of non-negative integers")
    if not _is_count(offset):
        raise ValueError(f"{where}: offset {offset!r} is not a non-negative integer")
    return name, tuple(shape), _DTYPE_CODES[code], offset


def load_checkpoint(path: str | Path) -> tuple[ParamStore, dict | None]:
    raw = Path(path).read_bytes()
    if raw[:len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic {raw[:len(MAGIC)]!r})")
    if len(raw) < _PREFIX:
        raise ValueError(f"{path}: checkpoint header is short")
    (header_len,) = struct.unpack_from("<I", raw, len(MAGIC))
    start = _PREFIX + header_len
    if len(raw) < start:
        raise ValueError(f"{path}: checkpoint header is short ({len(raw) - _PREFIX} of {header_len} bytes)")
    try:
        header = json.loads(raw[_PREFIX:start].decode("utf-8"))
    except ValueError as e:  # JSONDecodeError and UnicodeDecodeError
        raise ValueError(f"{path}: checkpoint header is not JSON ({e})") from None
    if not isinstance(header, dict) or not isinstance(header.get("entries"), list):
        raise ValueError(f"{path}: checkpoint header has no entries list")
    payload = memoryview(raw)[start:]
    arrays: dict[str, np.ndarray] = {}
    end = 0
    for i, entry in enumerate(header["entries"]):
        name, shape, dtype, begin = _entry(path, i, entry, arrays)
        stop = begin + math.prod(shape) * dtype.itemsize
        if stop > len(payload):
            raise ValueError(f"{path}: checkpoint truncated at {name}")
        arrays[name] = np.frombuffer(payload[begin:stop], dtype=dtype).reshape(shape)
        end = max(end, stop)
    if end != len(payload):
        raise ValueError(f"{path}: {len(payload) - end} trailing bytes after the last entry")
    try:
        store = ParamStore.from_arrays(arrays)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    return store, header.get("config")
