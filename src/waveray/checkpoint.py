"""Bit-exact checkpoint serialization.

Layout (integers little-endian):

    magic   b"WRNC"
    u32     format version (currently 2)
    u32     config length, then that many bytes of UTF-8 JSON
    u32     record count
    records u16 name length | name UTF-8 | u8 dtype code | u8 rank
            | u32 extents[rank] | payload, little-endian, C order
    u8[8]   BLAKE2b digest (RFC 7693, 8-byte output) of every byte after
            the version field and before the digest itself

Each payload keeps its array's dtype: code 0 is float32, code 1 float64;
any other dtype is refused on save.  Optimizer moments ride along as
records named "opt.m/<param>" and "opt.v/<param>"; step counter, epoch,
RNG state and the model config all live in the JSON blob.  A save streams
the pieces through the digest into a temp file that is renamed into place,
so a crash never leaves a half-written checkpoint behind.

Version 1 files still load.  They differ only in two places: records have
no dtype code (every payload is float32), and the trailer is the u64
FNV-1a hash of the same bytes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import atomic_write_bytes
from .errors import CheckpointError

MAGIC = b"WRNC"
VERSION = 2
DIGEST_SIZE = 8
_DTYPES = (np.dtype("<f4"), np.dtype("<f8"))  # a v2 record's dtype code indexes this
_DTYPE_CODES = {dt.name: code for code, dt in enumerate(_DTYPES)}

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


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
    code = _DTYPE_CODES.get(arr.dtype.name)
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
        digest = hashlib.blake2b(digest_size=DIGEST_SIZE)
        yield MAGIC + struct.pack("<I", VERSION)
        for piece in itertools.chain([head], *records):
            digest.update(piece)
            yield piece
        yield digest.digest()

    atomic_write_bytes(path, pieces())


def _fnv1a_digest(body) -> bytes:
    return struct.pack("<Q", fnv1a(body))


def _blake2b_digest(body) -> bytes:
    return hashlib.blake2b(body, digest_size=DIGEST_SIZE).digest()


# version -> (digest of the body, whether records carry a dtype code)
_FORMATS = {1: (_fnv1a_digest, False), 2: (_blake2b_digest, True)}


class _Reader:
    """Cursor over ``blob[pos:end]`` that reads in place and never runs past ``end``."""

    def __init__(self, blob: bytes, pos: int, end: int, path):
        self.blob = blob
        self.pos = pos
        self.end = end
        self.path = path

    def _advance(self, n: int) -> int:
        if self.pos + n > self.end:
            raise CheckpointError(f"{self.path}: truncated at byte {self.pos} (wanted {n} more)")
        start = self.pos
        self.pos += n
        return start

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.blob, self._advance(struct.calcsize(fmt)))

    def text(self, n: int) -> str:
        start = self._advance(n)
        return self.blob[start : start + n].decode("utf-8")

    def array(self, dtype: np.dtype, shape: tuple) -> np.ndarray:
        count = math.prod(shape)  # Python ints: a huge shape cannot wrap to a small count
        start = self._advance(count * dtype.itemsize)
        return np.frombuffer(self.blob, dtype, count, start).reshape(shape).copy()


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


def load_checkpoint(path, expected_model_config: dict = None) -> CheckpointState:
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from None
    if len(blob) < len(MAGIC) + 4 + DIGEST_SIZE:
        raise CheckpointError(f"{path}: file too short to be a checkpoint")
    if blob[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    (version,) = struct.unpack_from("<I", blob, len(MAGIC))
    if version not in _FORMATS:
        raise CheckpointError(
            f"{path}: format version {version} unsupported; this build reads versions "
            f"{', '.join(map(str, _FORMATS))}; re-save the checkpoint with a matching "
            f"library version"
        )
    digest_of, has_dtype = _FORMATS[version]
    end = len(blob) - DIGEST_SIZE
    stored = blob[end:]
    computed = digest_of(memoryview(blob)[8:end])
    if stored != computed:
        raise CheckpointError(
            f"{path}: checksum mismatch (stored {stored.hex()}, computed {computed.hex()})"
        )

    r = _Reader(blob, 8, end, path)
    try:
        config = json.loads(r.text(*r.unpack("<I")))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: bad config blob: {e}") from None
    if not isinstance(config, dict):
        raise CheckpointError(f"{path}: bad config blob: a JSON {type(config).__name__}, "
                              f"not an object")
    (n_records,) = r.unpack("<I")
    params: dict = {}
    opt_m: dict = {}
    opt_v: dict = {}
    for _ in range(n_records):
        name = r.text(*r.unpack("<H"))
        (code,) = r.unpack("<B") if has_dtype else (0,)  # version 1 is all float32
        if code >= len(_DTYPES):
            raise CheckpointError(f"{path}: record {name!r} has unknown dtype code {code}")
        (rank,) = r.unpack("<B")
        arr = r.array(_DTYPES[code], r.unpack(f"<{rank}I"))
        if name.startswith("opt.m/"):
            opt_m[name[6:]] = arr
        elif name.startswith("opt.v/"):
            opt_v[name[6:]] = arr
        else:
            params[name] = arr
    if r.pos != end:
        raise CheckpointError(f"{path}: {end - r.pos} trailing bytes after records")

    model_config = config.get("model", {})
    if expected_model_config is not None:
        # compared as stored: the JSON round trip turns tuples into lists
        diffs = _config_diff(json.loads(json.dumps(expected_model_config)), model_config)
        if diffs:
            raise CheckpointError(f"{path}: config mismatch in fields: {', '.join(diffs)}")
    precision = config.get("precision", "single")
    if precision not in ("single", "double"):
        raise CheckpointError(f"{path}: precision must be 'single' or 'double', got {precision!r}")
    return CheckpointState(
        model_config=model_config,
        params=params,
        opt_m=opt_m,
        opt_v=opt_v,
        opt_step=config.get("opt_step", 0),
        epoch=config.get("epoch", 0),
        rng_state=config.get("rng_state"),
        precision=precision,
        extra=config.get("extra", {}),
    )
