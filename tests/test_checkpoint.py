"""Checkpoint container: layout, checksums, version errors."""

import hashlib
import json
import os
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from waveray import checkpoint
from waveray.checkpoint import (
    MAGIC,
    VERSION,
    CheckpointState,
    fnv1a,
    load_checkpoint,
    save_checkpoint,
)
from waveray.errors import CheckpointError
from waveray.model import WaveletClassifier, desk_config


def tiny_state(rng, **overrides):
    params = {
        "head.w": rng.normal(size=(4, 3)).astype(np.float32),
        "head.b": np.zeros(3, dtype=np.float32),
        "stem.kernel": rng.normal(size=(2, 3, 7, 7)).astype(np.float32),
    }
    kwargs = dict(
        model_config={"classes": 3, "rays": 0},
        params=params,
        opt_m={k: np.zeros_like(v) for k, v in params.items()},
        opt_v={k: np.ones_like(v) for k, v in params.items()},
        opt_step=17,
        epoch=4,
        rng_state={"state": 123},
        precision="single",
        extra={"note": "x"},
    )
    kwargs.update(overrides)
    return CheckpointState(**kwargs)


def digest_for(body: bytes) -> bytes:
    """The trailer a file carries over ``body``: the first 8 bytes of SHA-256."""
    return hashlib.sha256(body).digest()[:8]


def forge(body: bytes) -> bytes:
    """A file around ``body``, with a matching trailer."""
    return MAGIC + struct.pack("<I", VERSION) + body + digest_for(body)


def _blob(state) -> bytes:
    config = {"model": state.model_config, "opt_step": state.opt_step, "epoch": state.epoch,
              "rng_state": state.rng_state, "precision": state.precision,
              "extra": state.extra}
    config_b = json.dumps(config, sort_keys=True).encode("utf-8")
    records = [(name, state.params[name]) for name in sorted(state.params)]
    records += [(f"opt.m/{name}", state.opt_m[name]) for name in sorted(state.opt_m)]
    records += [(f"opt.v/{name}", state.opt_v[name]) for name in sorted(state.opt_v)]
    body = struct.pack("<I", len(config_b)) + config_b + struct.pack("<I", len(records))
    for name, arr in records:
        arr = np.asarray(arr)
        payload = arr.astype("<f8" if arr.dtype == np.float64 else "<f4")
        name_b = name.encode("utf-8")
        body += struct.pack("<H", len(name_b)) + name_b
        body += struct.pack("<BB", int(payload.dtype == np.float64), payload.ndim)
        body += struct.pack(f"<{payload.ndim}I", *payload.shape) + payload.tobytes()
    return forge(body)


def file_records(blob: bytes) -> list:
    """(name, dtype code, shape, payload bytes) of every record in a file."""
    pos = 12 + struct.unpack_from("<I", blob, 8)[0]
    (count,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    out = []
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", blob, pos)
        name = blob[pos + 2 : pos + 2 + nlen].decode()
        code, rank = blob[pos + 2 + nlen], blob[pos + 3 + nlen]
        pos += 4 + nlen
        shape = struct.unpack_from(f"<{rank}I", blob, pos)
        pos += 4 * rank
        size = (4, 8)[code] * (int(np.prod(shape)) if rank else 1)
        out.append((name, code, shape, blob[pos : pos + size]))
        pos += size
    assert pos == len(blob) - 8
    return out


class TestFnv1a:
    def test_known_vectors(self):
        # offset basis for the empty string, standard 64-bit test values
        assert fnv1a(b"") == 0xCBF29CE484222325
        assert fnv1a(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a(b"foobar") == 0x85944171F73967E8

    def test_single_bit_changes_hash(self):
        assert fnv1a(b"\x00" * 32) != fnv1a(b"\x00" * 31 + b"\x01")

    def test_save_and_load_never_use_fnv1a(self, tmp_path, rng, monkeypatch):
        def refuse(data):
            raise AssertionError("fnv1a called")

        monkeypatch.setattr(checkpoint, "fnv1a", refuse)
        p = tmp_path / "ck.wrnc"
        save_checkpoint(p, tiny_state(rng))
        assert load_checkpoint(p).opt_step == 17


class TestRoundTrip:
    def test_exact_array_recovery(self, tmp_path, rng):
        state = tiny_state(rng)
        p = tmp_path / "ck.wrnc"
        save_checkpoint(p, state)
        back = load_checkpoint(p)
        assert set(back.params) == set(state.params)
        for name, arr in state.params.items():
            np.testing.assert_array_equal(back.params[name], arr)
            np.testing.assert_array_equal(back.opt_m[name], state.opt_m[name])
            np.testing.assert_array_equal(back.opt_v[name], state.opt_v[name])
        assert back.opt_step == 17
        assert back.epoch == 4
        assert back.rng_state == {"state": 123}
        assert back.precision == "single"
        assert back.extra == {"note": "x"}
        assert back.model_config == {"classes": 3, "rays": 0}

    def test_same_state_is_byte_identical(self, tmp_path, rng):
        state = tiny_state(rng)
        save_checkpoint(tmp_path / "a.wrnc", state)
        save_checkpoint(tmp_path / "b.wrnc", state)
        assert (tmp_path / "a.wrnc").read_bytes() == (tmp_path / "b.wrnc").read_bytes()

    def test_insertion_order_does_not_matter(self, tmp_path, rng):
        state = tiny_state(rng)
        shuffled = tiny_state(rng)
        shuffled.params = dict(reversed(list(state.params.items())))
        shuffled.opt_m = state.opt_m
        shuffled.opt_v = state.opt_v
        save_checkpoint(tmp_path / "a.wrnc", state)
        save_checkpoint(tmp_path / "b.wrnc", shuffled)
        assert (tmp_path / "a.wrnc").read_bytes() == (tmp_path / "b.wrnc").read_bytes()

    def test_scalar_rank_zero_record(self, tmp_path, rng):
        state = tiny_state(rng, params={"x": np.float32(2.5)},
                           opt_m={}, opt_v={})
        p = tmp_path / "s.wrnc"
        save_checkpoint(p, state)
        back = load_checkpoint(p)
        assert back.params["x"].shape == ()
        assert back.params["x"] == np.float32(2.5)

    def test_real_model_state_round_trips(self, tmp_path):
        model = WaveletClassifier(desk_config(rays=1), seed=0)
        state = CheckpointState(model_config=model.config.to_dict(),
                                params=model.state_arrays())
        p = tmp_path / "model.wrnc"
        save_checkpoint(p, state)
        back = load_checkpoint(p, expected_model_config=model.config.to_dict())
        model.load_state(back.params)
        for name, arr in model.state_arrays().items():
            np.testing.assert_array_equal(arr, back.params[name])


class TestCorruption:
    def test_every_flipped_byte_is_caught_or_harmless(self, tmp_path, rng):
        """Flip one byte at a selection of offsets; the loader must either
        raise or (for the checksum trailer itself) raise too, never return
        silently wrong payload bytes."""
        p = tmp_path / "ck.wrnc"
        save_checkpoint(p, tiny_state(rng))
        blob = bytearray(p.read_bytes())
        for offset in list(range(0, len(blob), 37)) + [len(blob) - 1, len(blob) - 8, 4, 8]:
            corrupted = bytearray(blob)
            corrupted[offset] ^= 0x40
            bad = tmp_path / "bad.wrnc"
            bad.write_bytes(bytes(corrupted))
            with pytest.raises(CheckpointError):
                load_checkpoint(bad)

    def test_every_flipped_body_byte_names_checksum(self, tmp_path, rng):
        """The loader parses as it hashes, yet a damaged head is refused for
        its checksum, not for the length, name, code or rank it now reads."""
        state = tiny_state(rng, params={"w": rng.normal(size=(2, 3)).astype(np.float32),
                                        "s": np.float64(2.0)})
        p = tmp_path / "ck.wrnc"
        save_checkpoint(p, state)
        blob = p.read_bytes()
        bad = tmp_path / "bad.wrnc"
        for offset in range(8, len(blob) - 8):
            for flip in (0x40, 0xFF):
                corrupted = bytearray(blob)
                corrupted[offset] ^= flip
                bad.write_bytes(bytes(corrupted))
                with pytest.raises(CheckpointError, match="checksum mismatch"):
                    load_checkpoint(bad)

    def test_flipped_payload_byte_names_checksum(self, tmp_path, rng):
        p = tmp_path / "ck.wrnc"
        save_checkpoint(p, tiny_state(rng))
        blob = bytearray(p.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        p.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.wrnc"
        p.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(p)

    def test_unsupported_version_mentions_resave(self, tmp_path, rng):
        p = tmp_path / "ck.wrnc"
        save_checkpoint(p, tiny_state(rng))
        blob = bytearray(p.read_bytes())
        blob[4:8] = struct.pack("<I", VERSION + 1)
        p.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="re-save"):
            load_checkpoint(p)

    @pytest.mark.parametrize("version", [1, 2])
    def test_older_versions_are_refused(self, tmp_path, rng, version):
        """A file of an older format with a valid trailer of its own kind:
        FNV-1a (u64) for version 1, BLAKE2b-64 for version 2."""
        p = tmp_path / "ck.wrnc"
        # no records, so the body is laid out alike in every version
        save_checkpoint(p, tiny_state(rng, params={}, opt_m={}, opt_v={}))
        body = p.read_bytes()[8:-8]
        trailer = (struct.pack("<Q", fnv1a(body)) if version == 1
                   else hashlib.blake2b(body, digest_size=8).digest())
        p.write_bytes(MAGIC + struct.pack("<I", version) + body + trailer)
        with pytest.raises(CheckpointError, match=f"version {version} unsupported.*re-save"):
            load_checkpoint(p)

    def test_truncated_file(self, tmp_path, rng):
        p = tmp_path / "ck.wrnc"
        save_checkpoint(p, tiny_state(rng))
        blob = p.read_bytes()
        p.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    def test_too_short_file(self, tmp_path):
        p = tmp_path / "ck.wrnc"
        p.write_bytes(MAGIC + b"\x01")
        with pytest.raises(CheckpointError, match="too short"):
            load_checkpoint(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "absent.wrnc")

    def test_trailing_garbage_rejected(self, tmp_path, rng):
        """Extra bytes between the records and the checksum are an error
        even when the checksum is recomputed to match."""
        state = tiny_state(rng)
        p = tmp_path / "ck.wrnc"
        save_checkpoint(p, state)
        body = p.read_bytes()[8:-8] + b"junk"
        p.write_bytes(forge(body))
        with pytest.raises(CheckpointError, match="4 trailing bytes"):
            load_checkpoint(p)

    def test_overflowing_shape_is_truncation(self, tmp_path):
        """Extents whose product wraps a 64-bit element count to 0 still read as
        a truncated file, even under a matching digest."""
        p = tmp_path / "ck.wrnc"
        save_checkpoint(p, CheckpointState({}, {"w": np.zeros((1, 1, 1, 1), np.float32)}))
        blob = p.read_bytes()
        extents_at = len(blob) - 8 - 4 - 16  # four u32 extents, one f4 payload, the digest
        body = blob[8:extents_at] + struct.pack("<4I", *(65536,) * 4) + blob[-12:-8]
        p.write_bytes(forge(body))
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(p)

    def test_bad_record_name_rejected(self, tmp_path):
        p = tmp_path / "ck.wrnc"
        save_checkpoint(p, CheckpointState({}, {"w": np.zeros(1, np.float32)}))
        blob = p.read_bytes()
        name_at = len(blob) - 8 - 4 - 4 - 1 - 1 - 1  # payload, extent, rank, code, name
        assert blob[name_at : name_at + 1] == b"w"
        body = blob[8:name_at] + b"\xff" + blob[name_at + 1 : -8]
        p.write_bytes(forge(body))
        with pytest.raises(CheckpointError, match="bad record name"):
            load_checkpoint(p)

    @pytest.mark.parametrize("name", ["w", "opt.m/w", "opt.v/w"])
    def test_repeated_record_name_rejected(self, tmp_path, name):
        """A second record of one name is an error, not a silent overwrite of
        the first, even under a matching digest."""
        p = tmp_path / "ck.wrnc"
        save_checkpoint(p, CheckpointState({}, {}))
        blob = p.read_bytes()
        assert blob[-12:-8] == struct.pack("<I", 0)  # the record count
        name_b = name.encode()
        record = struct.pack("<H", len(name_b)) + name_b + struct.pack("<BBI", 0, 1, 2)
        body = (blob[8:-12] + struct.pack("<I", 2) + record + np.ones(2, "<f4").tobytes()
                + record + np.full(2, 7, "<f4").tobytes())
        p.write_bytes(forge(body))
        with pytest.raises(CheckpointError, match=f"record '{name}' appears twice"):
            load_checkpoint(p)

    def test_rank_beyond_numpy_is_an_error(self, tmp_path):
        """65 unit extents make a 4-byte payload numpy cannot shape."""
        p = tmp_path / "ck.wrnc"
        save_checkpoint(p, CheckpointState({}, {"w": np.zeros((1, 1, 1, 1), np.float32)}))
        blob = p.read_bytes()
        rank_at = len(blob) - 8 - 4 - 16 - 1
        assert blob[rank_at] == 4
        body = blob[8:rank_at] + struct.pack("<B65I", 65, *(1,) * 65) + blob[-12:-8]
        p.write_bytes(forge(body))
        with pytest.raises(CheckpointError, match="record shape"):
            load_checkpoint(p)


class TestConfigEcho:
    @pytest.mark.parametrize("blob", [b"[]", b'"x"', b"3"])
    def test_non_object_config_blob_rejected(self, tmp_path, blob):
        # a valid digest over JSON that is not an object
        body = struct.pack("<I", len(blob)) + blob + struct.pack("<I", 0)
        p = tmp_path / "ck.wrnc"
        p.write_bytes(forge(body))
        with pytest.raises(CheckpointError, match="bad config blob"):
            load_checkpoint(p)

    def test_mismatch_names_the_fields(self, tmp_path, rng):
        p = tmp_path / "ck.wrnc"
        save_checkpoint(p, tiny_state(rng))
        with pytest.raises(CheckpointError, match="classes"):
            load_checkpoint(p, expected_model_config={"classes": 5, "rays": 0})

    def test_nested_mismatch_uses_dotted_path(self, tmp_path, rng):
        state = tiny_state(rng, model_config={"backbone": {"stem_channels": 8}, "rays": 0})
        p = tmp_path / "ck.wrnc"
        save_checkpoint(p, state)
        with pytest.raises(CheckpointError, match=r"backbone\.stem_channels"):
            load_checkpoint(p, expected_model_config={"backbone": {"stem_channels": 16},
                                                      "rays": 0})

    def test_lists_and_tuples_compare_equal(self, tmp_path, rng):
        state = tiny_state(rng, model_config={"widths": [8, 12, 16]})
        p = tmp_path / "ck.wrnc"
        save_checkpoint(p, state)
        load_checkpoint(p, expected_model_config={"widths": (8, 12, 16)})

    def test_non_object_model_config_is_a_checkpoint_error(self, tmp_path, rng):
        p = tmp_path / "ck.wrnc"
        save_checkpoint(p, tiny_state(rng, model_config=[1, 2]))
        with pytest.raises(CheckpointError, match="model config is a JSON list"):
            load_checkpoint(p, expected_model_config=desk_config().to_dict())

    @pytest.mark.parametrize("field", ["epoch", "opt_step"])
    @pytest.mark.parametrize("value", [[1], -1, True, 1.0, "1", None])
    def test_stored_counters_must_be_non_negative_ints(self, tmp_path, rng, field, value):
        # a valid digest over a bad counter: the file must still be refused
        p = tmp_path / "ck.wrnc"
        p.write_bytes(_blob(tiny_state(rng, **{field: value})))
        with pytest.raises(CheckpointError, match=f"{field} must be a non-negative"):
            load_checkpoint(p)

    def test_matching_config_passes(self, tmp_path, rng):
        p = tmp_path / "ck.wrnc"
        save_checkpoint(p, tiny_state(rng))
        load_checkpoint(p, expected_model_config={"classes": 3, "rays": 0})


class TestLayout:
    def test_header_fields(self, tmp_path, rng):
        p = tmp_path / "ck.wrnc"
        save_checkpoint(p, tiny_state(rng))
        blob = p.read_bytes()
        assert blob[:4] == b"WRNC"
        assert struct.unpack("<I", blob[4:8])[0] == VERSION == 3
        config_len = struct.unpack("<I", blob[8:12])[0]
        config = json.loads(blob[12 : 12 + config_len])
        assert config["epoch"] == 4
        assert config["model"]["classes"] == 3
        # checksum trailer covers exactly the body
        assert blob[-8:] == digest_for(blob[8:-8])

    def test_records_are_sorted_with_moments_last(self, tmp_path, rng):
        p = tmp_path / "ck.wrnc"
        save_checkpoint(p, tiny_state(rng))
        blob = p.read_bytes()
        names = []
        pos = 12 + struct.unpack("<I", blob[8:12])[0]
        (count,) = struct.unpack("<I", blob[pos : pos + 4])
        pos += 4
        for _ in range(count):
            (nlen,) = struct.unpack("<H", blob[pos : pos + 2])
            pos += 2
            names.append(blob[pos : pos + nlen].decode())
            pos += nlen + 1  # skip the dtype code
            rank = blob[pos]
            pos += 1
            shape = struct.unpack(f"<{rank}I", blob[pos : pos + 4 * rank])
            pos += 4 * rank
            pos += 4 * (int(np.prod(shape)) if rank else 1)
        assert names[:3] == ["head.b", "head.w", "stem.kernel"]
        assert names[3:6] == ["opt.m/head.b", "opt.m/head.w", "opt.m/stem.kernel"]
        assert names[6:] == ["opt.v/head.b", "opt.v/head.w", "opt.v/stem.kernel"]

    def test_float32_payloads_are_the_raw_array_bytes(self, tmp_path, rng):
        state = tiny_state(rng)
        p = tmp_path / "ck.wrnc"
        save_checkpoint(p, state)
        records = file_records(p.read_bytes())
        assert len(records) == 9
        for name, code, shape, payload in records:
            kind, _, key = name.rpartition("/")
            arr = {"": state.params, "opt.m": state.opt_m, "opt.v": state.opt_v}[kind][key]
            assert code == 0
            assert shape == arr.shape
            assert payload == arr.astype("<f4").tobytes()


class TestDtypes:
    def test_float64_round_trips_bit_exact(self, tmp_path, rng):
        params = {"w": rng.normal(size=(5, 3)), "s": np.float64(np.pi)}
        state = tiny_state(rng, params=params, precision="double",
                           opt_m={k: v / 3.0 for k, v in params.items()},
                           opt_v={k: v * v for k, v in params.items()})
        p = tmp_path / "d.wrnc"
        save_checkpoint(p, state)
        assert {code for _, code, _, _ in file_records(p.read_bytes())} == {1}
        back = load_checkpoint(p)
        for saved, loaded in ((state.params, back.params), (state.opt_m, back.opt_m),
                              (state.opt_v, back.opt_v)):
            for name, arr in saved.items():
                assert loaded[name].dtype == np.float64
                assert loaded[name].shape == np.shape(arr)
                assert loaded[name].tobytes() == np.asarray(arr).tobytes()

    def test_mixed_and_big_endian_inputs(self, tmp_path, rng):
        w = rng.normal(size=(2, 3))
        state = tiny_state(rng, params={"a": w.astype(">f4"), "b": w.astype(">f8")},
                           opt_m={}, opt_v={})
        p = tmp_path / "m.wrnc"
        save_checkpoint(p, state)
        back = load_checkpoint(p)
        assert back.params["a"].dtype == np.float32
        assert back.params["b"].dtype == np.float64
        np.testing.assert_array_equal(back.params["a"], w.astype(np.float32))
        np.testing.assert_array_equal(back.params["b"], w)

    @pytest.mark.parametrize("dtype", [np.int32, np.float16, np.complex64])
    def test_other_dtypes_are_refused_and_leave_the_old_file(self, tmp_path, rng, dtype):
        p = tmp_path / "ck.wrnc"
        save_checkpoint(p, tiny_state(rng))
        before = p.read_bytes()
        state = tiny_state(rng, params={"x": np.ones(3, dtype=dtype)}, opt_m={}, opt_v={})
        with pytest.raises(CheckpointError, match="'x'"):
            save_checkpoint(p, state)
        assert p.read_bytes() == before
        assert list(tmp_path.iterdir()) == [p]

    def test_unknown_dtype_code_rejected(self, tmp_path, rng):
        p = tmp_path / "ck.wrnc"
        save_checkpoint(p, tiny_state(rng, params={"x": np.float32(1.0)}, opt_m={}, opt_v={}))
        blob = bytearray(p.read_bytes())
        code_at = len(blob) - 8 - 4 - 1 - 1  # payload, rank byte, then the code
        assert blob[code_at] == 0
        blob[code_at] = 7
        body = bytes(blob[8:-8])
        p.write_bytes(forge(body))
        with pytest.raises(CheckpointError, match="dtype code 7"):
            load_checkpoint(p)


class TestStreamingLoad:
    def test_peak_memory_is_the_payload(self, tmp_path, rng):
        """No whole-file buffer and no second copy: while loading, traced
        memory peaks at the arrays themselves plus the small record heads."""
        params = {"a": rng.normal(size=(1024, 1024)).astype(np.float32),
                  "b": rng.normal(size=(256, 1024))}
        state = tiny_state(rng, params=params, opt_m={k: v * 0.5 for k, v in params.items()},
                           opt_v={k: v * v for k, v in params.items()})
        p = tmp_path / "big.wrnc"
        save_checkpoint(p, state)
        total = 3 * sum(arr.nbytes for arr in params.values())
        assert total >= 16 * 2**20
        tracemalloc.start()
        try:
            back = load_checkpoint(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < total + 2 * 2**20, (peak, total)
        np.testing.assert_array_equal(back.opt_v["b"], state.opt_v["b"])

    def test_arrays_own_aligned_writable_memory(self, tmp_path, rng):
        params = {"w": rng.normal(size=(3, 5)).astype(np.float32), "s": np.float64(1.5)}
        state = tiny_state(rng, params=params, opt_m=dict(params), opt_v=dict(params))
        p = tmp_path / "ck.wrnc"
        save_checkpoint(p, state)
        back = load_checkpoint(p)
        for arrays in (back.params, back.opt_m, back.opt_v):
            for arr in arrays.values():
                assert arr.flags.c_contiguous and arr.flags.aligned and arr.flags.writeable
                assert arr.base is None

    def test_oversized_payload_is_truncation_before_allocation(self, tmp_path):
        """A head claiming a 256 MiB payload in a tiny file is refused from
        the file's size: no array of that size is ever allocated."""
        p = tmp_path / "ck.wrnc"
        save_checkpoint(p, CheckpointState({}, {"w": np.zeros((1, 1, 1, 1), np.float32)}))
        blob = p.read_bytes()
        extents_at = len(blob) - 8 - 4 - 16
        body = blob[8:extents_at] + struct.pack("<4I", 64, 1024, 1024, 1) + blob[-12:-8]
        p.write_bytes(forge(body))
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="truncated"):
                load_checkpoint(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak

    def test_file_cut_during_the_load_is_truncation(self, tmp_path, rng, monkeypatch):
        """A file that shrinks after its size was taken leaves a payload short:
        the load fails rather than hand back an array with uninitialised bytes.
        The payload outsizes the reader's buffer, so it is read after the cut."""
        p = tmp_path / "ck.wrnc"
        w = rng.normal(size=(256, 256)).astype(np.float32)
        save_checkpoint(p, tiny_state(rng, params={"w": w}, opt_m={}, opt_v={}))
        size = p.stat().st_size

        class CutOnFirstUpdate:
            def __init__(self):
                self.inner = hashlib.sha256()

            def update(self, data):
                if os.stat(p).st_size == size:
                    os.truncate(p, size - 8 - 2)  # the last payload loses two bytes
                self.inner.update(data)

            def digest(self):
                return self.inner.digest()

        monkeypatch.setattr(checkpoint, "hashlib", SimpleNamespace(sha256=CutOnFirstUpdate))
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(p)

    def test_returned_arrays_are_the_bytes_hashed(self, tmp_path, rng, monkeypatch):
        """An in-place rewrite of the same size once the digest is complete
        cannot reach the result: the arrays are the very bytes that were hashed."""
        state = tiny_state(rng)
        p = tmp_path / "ck.wrnc"
        save_checkpoint(p, state)
        blob = bytearray(p.read_bytes())
        blob[-8 - 4] ^= 0x40  # a byte of the last payload, opt.v/stem.kernel
        rewritten = bytes(blob)

        class RewriteOnDigest:
            def __init__(self):
                self.inner = hashlib.sha256()

            def update(self, data):
                self.inner.update(data)

            def digest(self):
                with open(p, "r+b") as fh:
                    fh.write(rewritten)
                return self.inner.digest()

        monkeypatch.setattr(checkpoint, "hashlib", SimpleNamespace(sha256=RewriteOnDigest))
        back = load_checkpoint(p)
        assert p.read_bytes() == rewritten
        for name, arr in state.opt_v.items():
            np.testing.assert_array_equal(back.opt_v[name], arr)
