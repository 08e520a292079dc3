"""Image codecs, manifests and the synthetic shape generator."""

import numpy as np
import pytest

from waveray.data import (
    SHAPES,
    SyntheticSpec,
    atomic_write_bytes,
    export_map,
    load_dataset,
    read_image,
    read_manifest,
    synth_generate,
    synth_render,
    write_origin_csv,
    write_pnm,
)
from waveray.errors import ConfigError, DataError


class TestPnmCodec:
    def test_ppm_round_trip(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(5, 7, 3)).astype(np.uint8)
        p = tmp_path / "x.ppm"
        write_pnm(p, img)
        back = read_image(p)
        assert back.shape == (3, 5, 7)
        assert back.dtype == np.float32
        np.testing.assert_array_equal((back.transpose(1, 2, 0) * 255).round().astype(np.uint8),
                                      img)

    def test_pgm_round_trip_replicates_channels(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(4, 6)).astype(np.uint8)
        p = tmp_path / "x.pgm"
        write_pnm(p, img)
        back = read_image(p)
        assert back.shape == (3, 4, 6)
        np.testing.assert_array_equal(back[0], back[1])
        np.testing.assert_array_equal(back[0], back[2])

    def test_header_comments_are_skipped(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# a comment\n2 # inline\n2\n255\n" + bytes(4))
        img = read_image(p)
        assert img.shape == (3, 2, 2)

    @pytest.mark.parametrize("header", [
        b"P5#c\n2 2\n255\n",  # a comment right after the magic
        b"P5\n2#c\n2 255\n",  # a number ended by a comment
        b"P5\t2\r2\x0b255\x0c",  # the other four whitespace bytes as separators
    ])
    def test_header_grammar(self, tmp_path, header):
        p = tmp_path / "g.pgm"
        p.write_bytes(header + bytes(4))
        assert read_image(p).shape == (3, 2, 2)

    def test_values_span_unit_interval(self, tmp_path):
        p = tmp_path / "v.pgm"
        p.write_bytes(b"P5\n2 1\n255\n" + bytes([0, 255]))
        img = read_image(p)
        np.testing.assert_allclose(img[0, 0], [0.0, 1.0])

    @pytest.mark.parametrize("blob,match", [
        (b"Q5\n2 2\n255\n" + bytes(4), "magic"),
        (b"P4\n2 2\n255\n" + bytes(4), "magic"),
        (b"P5\n2 2\n", "truncated"),
        (b"P5\n2 2\n128\n" + bytes(4), "maxval"),
        (b"P5\n2 2\n255\n" + bytes(3), "payload"),
        (b"P5\n0 2\n255\n", "extents"),
        (b"P5\n2 2 255", "whitespace"),
        (b"P6 32 255\n", "truncated"),  # 32 is one field, not two
        (b"P5\n2 2 # no newline ends this", "truncated"),
        (b"P5\n2 x 255\n", "malformed header near byte 5"),
    ])
    def test_malformed_files(self, tmp_path, blob, match):
        p = tmp_path / "bad.pgm"
        p.write_bytes(blob)
        with pytest.raises(DataError, match=match):
            read_image(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            read_image(tmp_path / "absent.ppm")

    def test_writers_reject_wrong_dtype(self, tmp_path):
        with pytest.raises(DataError):
            write_pnm(tmp_path / "y.ppm", np.zeros((2, 2, 3), dtype=np.float32))
        with pytest.raises(DataError):
            write_pnm(tmp_path / "y.pgm", np.zeros((2, 2, 1), dtype=np.uint8))


def _write_tiny_dataset(root, labels, extent=16):
    rng = np.random.default_rng(0)
    rows = ["path,label"]
    for i, label in enumerate(labels):
        rel = f"img{i}.ppm"
        write_pnm(root / rel, rng.integers(0, 256, size=(extent, extent, 3)).astype(np.uint8))
        rows.append(f"{rel},{label}")
    (root / "manifest.csv").write_text("\n".join(rows) + "\n")
    return root / "manifest.csv"


class TestManifest:
    def test_reads_entries_and_infers_classes(self, tmp_path):
        m = _write_tiny_dataset(tmp_path, [0, 1, 2, 1])
        root, entries = read_manifest(m)
        assert root == tmp_path
        assert entries == [("img0.ppm", 0), ("img1.ppm", 1), ("img2.ppm", 2), ("img3.ppm", 1)]
        assert load_dataset(m).class_names == ["class0", "class1", "class2"]

    def test_directory_argument_finds_manifest(self, tmp_path):
        _write_tiny_dataset(tmp_path, [0, 1])
        ds = load_dataset(tmp_path)
        assert len(ds) == 2

    def test_header_required(self, tmp_path):
        p = tmp_path / "manifest.csv"
        p.write_text("image,cls\nfoo.ppm,0\n")
        with pytest.raises(DataError, match="path,label"):
            read_manifest(p)

    def test_non_integer_label(self, tmp_path):
        p = tmp_path / "manifest.csv"
        p.write_text("path,label\nfoo.ppm,xyz\n")
        with pytest.raises(DataError, match="integer"):
            read_manifest(p)

    def test_empty_manifest(self, tmp_path):
        p = tmp_path / "manifest.csv"
        p.write_text("path,label\n")
        with pytest.raises(DataError, match="no entries"):
            read_manifest(p)

    def test_paths_may_contain_commas(self, tmp_path):
        sub = tmp_path / "a,b"
        sub.mkdir()
        write_pnm(sub / "x.ppm", np.zeros((4, 4, 3), dtype=np.uint8))
        (tmp_path / "manifest.csv").write_text("path,label\na,b/x.ppm,0\na,b/x.ppm,1\n")
        ds = load_dataset(tmp_path)
        assert ds.images.shape == (2, 3, 4, 4)


class TestLoadDataset:
    def test_shapes_and_labels(self, tmp_path):
        m = _write_tiny_dataset(tmp_path, [0, 1, 0])
        ds = load_dataset(m)
        assert ds.images.shape == (3, 3, 16, 16)
        assert ds.images.dtype == np.float32
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])
        assert ds.extent == 16 and ds.classes == 2

    def test_negative_label_rejected(self, tmp_path):
        m = _write_tiny_dataset(tmp_path, [0, -1])
        with pytest.raises(DataError, match="negative"):
            load_dataset(m)

    def test_sparse_labels_rejected_when_inferring(self, tmp_path):
        m = _write_tiny_dataset(tmp_path, [0, 2])
        with pytest.raises(DataError, match="missing"):
            load_dataset(m)

    def test_explicit_class_count_allows_sparse(self, tmp_path):
        m = _write_tiny_dataset(tmp_path, [0, 2])
        ds = load_dataset(m, classes=4)
        assert ds.classes == 4

    def test_out_of_range_label_with_explicit_classes(self, tmp_path):
        m = _write_tiny_dataset(tmp_path, [0, 3])
        with pytest.raises(DataError, match="out of range"):
            load_dataset(m, classes=3)

    def test_mixed_extents_rejected(self, tmp_path):
        write_pnm(tmp_path / "a.ppm", np.zeros((8, 8, 3), dtype=np.uint8))
        write_pnm(tmp_path / "b.ppm", np.zeros((16, 16, 3), dtype=np.uint8))
        (tmp_path / "manifest.csv").write_text("path,label\na.ppm,0\nb.ppm,1\n")
        with pytest.raises(DataError, match="differs"):
            load_dataset(tmp_path)

    def test_non_square_rejected(self, tmp_path):
        write_pnm(tmp_path / "a.ppm", np.zeros((8, 10, 3), dtype=np.uint8))
        (tmp_path / "manifest.csv").write_text("path,label\na.ppm,0\n")
        with pytest.raises(DataError, match="square"):
            load_dataset(tmp_path)


class TestSyntheticSpec:
    def test_default_is_valid(self):
        SyntheticSpec().validate()

    @pytest.mark.parametrize("patch", [
        {"classes": 1},
        {"classes": 9},
        {"per_class": 0},
        {"extent": 24},
        {"extent": 8},
        {"placement": "corner"},
        {"noise": 0.6},
        {"noise": -0.1},
    ])
    def test_invalid_specs(self, patch):
        with pytest.raises(ConfigError):
            SyntheticSpec(**patch).validate()

    @pytest.mark.parametrize("patch", [{"per_class": 2.5}, {"extent": 32.0}, {"seed": 1.5}])
    def test_wrong_field_types_are_refused_before_writing(self, tmp_path, patch):
        field = next(iter(patch))
        with pytest.raises(ConfigError, match=f"{field} must be of type int"):
            synth_generate(SyntheticSpec(**patch), tmp_path / "out")
        assert not (tmp_path / "out").exists()


class TestSynthRender:
    def test_shape_and_dtype(self):
        img = synth_render(SyntheticSpec(), 0, np.random.default_rng(0))
        assert img.shape == (32, 32, 3)
        assert img.dtype == np.uint8

    def test_all_shape_masks_are_distinct(self):
        """Every class renders a visibly different noiseless silhouette."""
        spec = SyntheticSpec(classes=8, noise=0.0, extent=32)
        seen = []
        for label in range(8):
            img = synth_render(spec, label, np.random.default_rng(3))
            seen.append(img.tobytes())
        assert len(set(seen)) == 8

    def test_noiseless_background_level(self):
        spec = SyntheticSpec(noise=0.0)
        img = synth_render(spec, 0, np.random.default_rng(0))
        corners = img[[0, 0, -1, -1], [0, -1, 0, -1]]
        np.testing.assert_array_equal(corners, np.full((4, 3), 51))  # 0.2 * 255

    def test_center_bias_concentrates_mass(self):
        """At least 90 percent of center-biased draws land in the middle
        half of the canvas (a quarter of its area)."""
        spec = SyntheticSpec(noise=0.0, placement="center")
        rng = np.random.default_rng(42)
        hits = 0
        n = 300
        for i in range(n):
            img = synth_render(spec, 0, rng)
            fg = np.argwhere((img != 51).any(axis=2))
            cy, cx = fg.mean(axis=0)
            if 8 <= cy <= 24 and 8 <= cx <= 24:
                hits += 1
        assert hits / n >= 0.9

    def test_uniform_placement_spreads_mass(self):
        spec = SyntheticSpec(noise=0.0, placement="uniform")
        rng = np.random.default_rng(7)
        centers = []
        for _ in range(200):
            img = synth_render(spec, 0, rng)
            fg = np.argwhere((img != 51).any(axis=2))
            centers.append(fg.mean(axis=0))
        centers = np.array(centers)
        # a center-biased sampler would almost never reach the outer band
        assert (np.abs(centers - 15.5) > 8.0).any()

    def test_shape_table_has_eight_entries(self):
        assert len(SHAPES) == 8
        assert len({name for name, _ in SHAPES}) == 8


class TestSynthGenerate:
    def test_same_spec_is_byte_identical(self, tmp_path):
        spec = SyntheticSpec(classes=3, per_class=4)
        m1 = synth_generate(spec, tmp_path / "a")
        m2 = synth_generate(SyntheticSpec(classes=3, per_class=4), tmp_path / "b")
        files1 = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.ppm"))
        files2 = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*.ppm"))
        assert files1 == files2 and len(files1) == 12
        for rel in files1:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
        assert m1.read_text() == m2.read_text()

    def test_seed_changes_output(self, tmp_path):
        synth_generate(SyntheticSpec(per_class=2), tmp_path / "a")
        synth_generate(SyntheticSpec(per_class=2, seed=1), tmp_path / "b")
        a = (tmp_path / "a" / "images" / "img_00000.ppm").read_bytes()
        b = (tmp_path / "b" / "images" / "img_00000.ppm").read_bytes()
        assert a != b

    def test_manifest_loads_back(self, tmp_path):
        m = synth_generate(SyntheticSpec(classes=4, per_class=3), tmp_path)
        ds = load_dataset(m)
        assert len(ds) == 12
        assert ds.classes == 4
        np.testing.assert_array_equal(np.bincount(ds.labels), [3, 3, 3, 3])


class TestExportHelpers:
    def test_export_map_spans_gray_range(self, tmp_path, rng):
        arr = rng.normal(size=(6, 6))
        p = tmp_path / "m.pgm"
        export_map(arr, p)
        back = (read_image(p)[0] * 255).round().astype(int)
        assert back.min() == 0 and back.max() == 255

    def test_export_map_constant_is_mid_gray(self, tmp_path):
        p = tmp_path / "c.pgm"
        export_map(np.full((4, 4), 3.7), p)
        back = (read_image(p)[0] * 255).round().astype(int)
        np.testing.assert_array_equal(back, np.full((4, 4), 128))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_export_map_rejects_non_finite(self, bad, tmp_path):
        arr = np.linspace(0.0, 1.0, 16).reshape(4, 4)
        arr[1, 2] = bad
        with pytest.raises(DataError, match="NaN or Inf"):
            export_map(arr, tmp_path / "n.pgm")
        assert not (tmp_path / "n.pgm").exists()

    def test_export_map_rejects_higher_rank(self, tmp_path):
        with pytest.raises(DataError):
            export_map(np.zeros((2, 2, 2)), tmp_path / "x.pgm")

    def test_origin_csv_format(self, tmp_path):
        p = tmp_path / "o.csv"
        write_origin_csv(p, [(0, 0, 1.0, 0.0), (0, 1, 0.5, -0.25)])
        lines = p.read_text().splitlines()
        assert lines[0] == "epoch,origin_index,x,y"
        assert lines[1] == "0,0,1.0,0.0"
        assert lines[2] == "0,1,0.5,-0.25"

    def test_atomic_write_replaces_and_leaves_no_temp(self, tmp_path):
        p = tmp_path / "blob.bin"
        atomic_write_bytes(p, b"first")
        atomic_write_bytes(p, b"second")
        assert p.read_bytes() == b"second"
        assert list(tmp_path.iterdir()) == [p]

    def test_atomic_write_joins_chunks(self, tmp_path):
        p = tmp_path / "blob.bin"
        atomic_write_bytes(p, (c for c in (b"ab", bytearray(b"cd"), np.arange(2, dtype="<u2"))))
        assert p.read_bytes() == b"abcd\x00\x00\x01\x00"

    def test_failed_atomic_write_keeps_target_and_removes_temp(self, tmp_path):
        p = tmp_path / "blob.bin"
        atomic_write_bytes(p, b"first")

        def chunks():
            yield b"partial"
            raise RuntimeError("disk on fire")

        with pytest.raises(RuntimeError, match="disk on fire"):
            atomic_write_bytes(p, chunks())
        assert p.read_bytes() == b"first"
        assert list(tmp_path.iterdir()) == [p]
