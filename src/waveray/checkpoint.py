"""Bit-exact checkpoint serialization.

Layout (integers little-endian):

    magic   b"WRNC"
    u32     format version, 3
    u32     config length, then that many bytes of UTF-8 JSON
    u32     record count
    records u16 name length | name UTF-8 | u8 dtype code | u8 rank
            | u32 extents[rank] | payload, little-endian, C order
    u8[8]   the first 8 bytes of the SHA-256 digest (FIPS 180-4) of every
            byte after the version field and before the digest itself

Each payload keeps its array's dtype: code 0 is float32, code 1 float64;
any other dtype is refused on save.  Optimizer moments ride along as
records named "opt.m/<param>" and "opt.v/<param>"; step counter, epoch,
RNG state and the model config all live in the JSON blob.  A save streams
the file through the digest into a temp file that is renamed into place,
so a crash never leaves a half-written checkpoint behind.  The config, the
record heads and every payload under 1 MiB are joined into pieces of at
most 1 MiB, each hashed once and written once; a larger payload is hashed
and written as the array itself, so the whole file is never copied.

A load never holds the whole file in memory.  It reads the file once: each
record head with a small read and each payload straight into its own new
array, feeding the digest exactly the bytes it parses, and compares the
trailer before it returns.  A file that fails to parse has the rest of its
body hashed first, so a damaged file is refused for its checksum, not for
whatever the damage broke.  Every length is checked against the file's size
before anything is allocated, so a damaged head can make the loader allocate
at most the file's size before the digest refuses it.  A file of any other
format version is refused.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff
from .data import atomic_write_bytes
from .errors import CheckpointError

MAGIC = b"WRNC"
VERSION = 3
DIGEST_SIZE = 8
_CHUNK = 1 << 20  # the most a save joins into one piece, and a drained load reads at once
_DTYPES = (np.dtype("<f4"), np.dtype("<f8"))  # a record's dtype code indexes this
_DTYPE_CODES = {dt.char: code for code, dt in enumerate(_DTYPES)}  # char ignores byte order

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


# no save or load calls this; kept because perfbench/tracer.py wraps it on install
def fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


@dataclass
class CheckpointState:
    """Everything needed to resume: config echo, weights, moments, counters."""

    model_config: dict
    params: dict
    opt_m: dict = field(default_factory=dict)
    opt_v: dict = field(default_factory=dict)
    opt_step: int = 0
    epoch: int = 0
    rng_state: dict = None
    precision: str = "single"
    extra: dict = field(default_factory=dict)


def _pack_record(name: str, arr) -> tuple[bytes, np.ndarray]:
    """Record head and C-order little-endian payload, in the array's own dtype."""
    arr = np.asarray(arr)
    code = _DTYPE_CODES.get(arr.dtype.char)  # char, not name: name is a slow property
    if code is None:
        raise CheckpointError(f"record {name!r}: dtype {arr.dtype} is neither float32 nor float64")
    # asarray, not ascontiguousarray: the latter turns rank 0 into rank 1
    payload = np.asarray(arr, dtype=_DTYPES[code], order="C")
    name_b = name.encode("utf-8")
    if len(name_b) > 0xFFFF:
        raise CheckpointError(f"record name too long: {name!r}")
    if payload.ndim > 0xFF:
        raise CheckpointError(f"record rank too large: {payload.ndim}")
    head = struct.pack(f"<H{len(name_b)}sBB{payload.ndim}I", len(name_b), name_b, code,
                       payload.ndim, *payload.shape)
    return head, payload


def _joined(pieces):
    """The same bytes with each run of pieces under ``_CHUNK`` bytes joined into
    pieces of at most ``_CHUNK`` bytes, so each is hashed and written once, not
    once per head and payload; a piece of ``_CHUNK`` or more passes as it is."""
    batch, size = [], 0
    for piece in pieces:
        n = len(piece) if isinstance(piece, bytes) else piece.nbytes
        if size + n > _CHUNK and batch:
            yield b"".join(batch)
            batch, size = [], 0
        if n >= _CHUNK:
            yield piece
        else:
            batch.append(piece)
            size += n
    yield b"".join(batch)


def save_checkpoint(path, state: CheckpointState) -> None:
    config = {
        "model": state.model_config,
        "opt_step": int(state.opt_step),
        "epoch": int(state.epoch),
        "rng_state": state.rng_state,
        "precision": state.precision,
        "extra": state.extra,
    }
    config_b = json.dumps(config, sort_keys=True).encode("utf-8")
    records = [_pack_record(name, state.params[name]) for name in sorted(state.params)]
    records += [_pack_record(f"opt.m/{name}", state.opt_m[name]) for name in sorted(state.opt_m)]
    records += [_pack_record(f"opt.v/{name}", state.opt_v[name]) for name in sorted(state.opt_v)]
    head = struct.pack("<I", len(config_b)) + config_b + struct.pack("<I", len(records))

    def pieces():
        # streamed: the digest sees each piece as it goes out, and no
        # whole-file copy of the payloads is ever made
        digest = hashlib.sha256()
        yield MAGIC + struct.pack("<I", VERSION)
        for piece in _joined(itertools.chain([head], *records)):
            digest.update(piece)
            yield piece
            del piece  # written by now: freed before the next piece is joined
        yield digest.digest()[:DIGEST_SIZE]

    atomic_write_bytes(path, pieces())


class _Reader:
    """Reads ``fh`` from its position up to byte ``end`` and never past it,
    feeding ``digest`` every byte it reads."""

    def __init__(self, fh, pos: int, end: int, digest, path):
        self.fh = fh
        self.pos = pos
        self.end = end
        self.digest = digest
        self.path = path

    def _truncated(self, n: int) -> CheckpointError:
        return CheckpointError(f"{self.path}: truncated at byte {self.pos} (wanted {n} more)")

    def read(self, n: int) -> bytes:
        if self.pos + n > self.end:  # against the size the file had when opened
            raise self._truncated(n)
        data = self.fh.read(n)
        if len(data) != n:  # the file shrank after its size was taken
            raise self._truncated(n)
        self.digest.update(data)
        self.pos += n
        return data

    def array(self, dtype: np.dtype, shape: tuple) -> np.ndarray:
        count = math.prod(shape)  # Python ints: a huge shape cannot wrap to a small count
        n = count * dtype.itemsize
        if self.pos + n > self.end:  # checked before anything of size n is allocated
            raise self._truncated(n)
        try:
            arr = np.empty(shape, dtype)
        except ValueError as e:  # over 64 extents, or extents numpy cannot multiply out
            raise CheckpointError(f"{self.path}: record shape at byte {self.pos}: {e}") from None
        if self.fh.readinto(arr) != n:  # never hand back uninitialised memory
            raise self._truncated(n)
        self.digest.update(arr)
        self.pos += n
        return arr

    def finish(self) -> None:
        """Hash what is left of the body and compare the stored digest."""
        while self.pos < self.end:
            data = self.fh.read(min(_CHUNK, self.end - self.pos))
            if not data:
                raise self._truncated(self.end - self.pos)
            self.digest.update(data)
            self.pos += len(data)
        stored = self.fh.read(DIGEST_SIZE)
        computed = self.digest.digest()[:DIGEST_SIZE]
        if stored != computed:
            raise CheckpointError(f"{self.path}: checksum mismatch "
                                  f"(stored {stored.hex()}, computed {computed.hex()})")


def _config_diff(expected: dict, found: dict, prefix: str = "") -> list[str]:
    keys = sorted(set(expected) | set(found))
    diffs = []
    for k in keys:
        label = f"{prefix}{k}"
        if k not in expected or k not in found:
            diffs.append(label)
        elif isinstance(expected[k], dict) and isinstance(found[k], dict):
            diffs.extend(_config_diff(expected[k], found[k], prefix=f"{label}."))
        elif expected[k] != found[k]:
            diffs.append(label)
    return diffs


def _open(fh, path, size: int) -> _Reader:
    """Check the file's head; return a reader of its body."""
    if size < len(MAGIC) + 4 + DIGEST_SIZE:
        raise CheckpointError(f"{path}: file too short to be a checkpoint")
    head = fh.read(len(MAGIC) + 4)
    if head[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    (version,) = struct.unpack_from("<I", head, len(MAGIC))
    if version != VERSION:
        raise CheckpointError(f"{path}: format version {version} unsupported; this build reads "
                              f"version {VERSION}; re-save the checkpoint with a matching "
                              f"library version")
    return _Reader(fh, len(head), size - DIGEST_SIZE, hashlib.sha256(), path)


def _read_records(r: _Reader) -> tuple:
    """Parse the config and the records after the version field."""
    path = r.path
    try:
        (n,) = struct.unpack("<I", r.read(4))
        config = json.loads(r.read(n).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: bad config blob: {e}") from None
    if not isinstance(config, dict):
        raise CheckpointError(f"{path}: bad config blob: a JSON {type(config).__name__}, "
                              f"not an object")
    (n_records,) = struct.unpack("<I", r.read(4))
    params: dict = {}
    opt_m: dict = {}
    opt_v: dict = {}
    for _ in range(n_records):
        # three reads a head: the name's length; the name, dtype code and
        # rank; the extents
        (n,) = struct.unpack("<H", r.read(2))
        head = r.read(n + 2)
        try:
            name = head[:n].decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"{path}: bad record name: {e}") from None
        code = head[n]
        if code >= len(_DTYPES):
            raise CheckpointError(f"{path}: record {name!r} has unknown dtype code {code}")
        rank = head[-1]
        arr = r.array(_DTYPES[code], struct.unpack(f"<{rank}I", r.read(4 * rank)))
        group, key = ((opt_m, name[6:]) if name.startswith("opt.m/") else
                      (opt_v, name[6:]) if name.startswith("opt.v/") else (params, name))
        if key in group:
            raise CheckpointError(f"{path}: record {name!r} appears twice")
        group[key] = arr
    if r.pos != r.end:
        raise CheckpointError(f"{path}: {r.end - r.pos} trailing bytes after records")
    return config, params, opt_m, opt_v


def load_checkpoint(path, expected_model_config: dict = None) -> CheckpointState:
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            r = _open(fh, path, os.fstat(fh.fileno()).st_size)
            try:
                config, params, opt_m, opt_v = _read_records(r)
            finally:
                r.finish()  # a damaged file names its checksum before what the damage broke
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from None

    model_config = config.get("model", {})
    if not isinstance(model_config, dict):
        raise CheckpointError(f"{path}: stored model config is a JSON "
                              f"{type(model_config).__name__}, not an object")
    if expected_model_config is not None:
        # compared as stored: the JSON round trip turns tuples into lists
        diffs = _config_diff(json.loads(json.dumps(expected_model_config)), model_config)
        if diffs:
            raise CheckpointError(f"{path}: config mismatch in fields: {', '.join(diffs)}")
    precision = config.get("precision", "single")
    # tested against a tuple, so an unhashable stored value is refused, not a TypeError
    if precision not in tuple(autodiff._DTYPES):
        raise CheckpointError(f"{path}: precision must be 'single' or 'double', got {precision!r}")
    counters = {k: config.get(k, 0) for k in ("opt_step", "epoch")}
    for k, v in counters.items():
        if type(v) is not int or v < 0:  # a bool is not a count
            raise CheckpointError(f"{path}: {k} must be a non-negative integer, got {v!r}")
    return CheckpointState(
        model_config=model_config,
        params=params,
        opt_m=opt_m,
        opt_v=opt_v,
        **counters,
        rng_state=config.get("rng_state"),
        precision=precision,
        extra=config.get("extra", {}),
    )
