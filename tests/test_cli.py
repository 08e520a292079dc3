"""End-to-end command line behavior, driven in process through main()."""

import hashlib
import struct

import numpy as np
import pytest

from waveray import cli
from waveray.checkpoint import (
    MAGIC,
    VERSION,
    CheckpointState,
    fnv1a,
    load_checkpoint,
    save_checkpoint,
)
from waveray.cli import _checkpoint_model, build_configs, main, parse_config_file
from waveray.data import load_dataset, write_pnm
from waveray.errors import ConfigError
from waveray.gradcheck import _SCOPES
from waveray.model import ModelConfig, WaveletClassifier, desk_config
from waveray.train import evaluate


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    code = run_cli("synth", "--out", root, "--classes", 2, "--per-class", 4,
                   "--extent", 32, "--seed", 5)
    assert code == 0
    return root


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("run")
    code = run_cli("train", "--data", synth_dir, "--out", out,
                   "--epochs", 2, "--batch-size", 8, "--rays", 1,
                   "--set", "classes=2", "--set", "n_origins=4")
    assert code == 0
    return out


class TestConfigParsing:
    def test_file_with_comments_and_blanks(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# run settings\nepochs = 12  # short\n\nrays=2\npeak_lr = 3e-3\n")
        assert parse_config_file(p) == {"epochs": "12", "rays": "2", "peak_lr": "3e-3"}

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("momentum = 0.9\n")
        with pytest.raises(ConfigError, match="momentum"):
            parse_config_file(p)

    def test_duplicate_key(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("epochs = 1\nepochs = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_file(p)

    def test_missing_equals(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("epochs\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config_file(tmp_path / "nope.cfg")

    def test_build_configs_types(self):
        model, tc = build_configs({
            "preset": "desk",
            "rays": "3",
            "share_ray_fields": "yes",
            "extraction_channels": "8, 12, 16",
            "epochs": "7",
            "peak_lr": "2e-3",
        })
        assert model.rays == 3
        assert model.share_ray_fields is True
        assert model.backbone.extraction_channels == (8, 12, 16)
        assert tc.epochs == 7 and tc.peak_lr == 2e-3

    def test_bad_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            build_configs({"preset": "huge"})

    def test_bad_bool(self):
        with pytest.raises(ConfigError, match="share_ray_fields"):
            build_configs({"share_ray_fields": "maybe"})

    def test_bad_precision(self):
        with pytest.raises(ConfigError, match="precision"):
            build_configs({"precision": "half"})


class TestSynth:
    def test_prints_manifest_and_loads(self, synth_dir, capsys):
        # fixture already ran the command; rerun to capture stdout
        assert run_cli("synth", "--out", synth_dir, "--classes", 2, "--per-class", 4,
                       "--extent", 32, "--seed", 5) == 0
        out = capsys.readouterr().out.strip()
        assert out.endswith("manifest.csv")
        ds = load_dataset(synth_dir)
        assert len(ds) == 8 and ds.extent == 32

    def test_rejects_too_many_classes(self, tmp_path):
        assert run_cli("synth", "--out", tmp_path, "--classes", 9) == 1

    def test_negative_seed_is_an_error_line(self, tmp_path, capsys):
        assert run_cli("synth", "--out", tmp_path, "--seed", -1) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestTrain:
    def test_writes_artifacts_and_metrics(self, trained_dir, capsys):
        for name in ("config.txt", "metrics.csv", "checkpoint_final.wrnc", "origins.csv"):
            assert (trained_dir / name).is_file(), name
        cfg = (trained_dir / "config.txt").read_text()
        assert "rays = 1" in cfg
        assert "n_origins = 4" in cfg
        assert "epochs = 2" in cfg
        lines = (trained_dir / "metrics.csv").read_text().splitlines()
        assert lines[0] == "epoch,loss,top1,top5,weighted_f1,lr,images_per_second"
        assert len(lines) == 3

    def test_flag_beats_file_and_set_beats_flag(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 9\nclasses = 2\nbatch_size = 8\n")
        out = tmp_path / "out"
        code = run_cli("train", "--data", synth_dir, "--out", out,
                       "--config", cfg, "--epochs", 3, "--set", "epochs=1")
        assert code == 0
        assert "epochs = 1" in (out / "config.txt").read_text()

    def test_extent_mismatch_is_config_error(self, synth_dir, tmp_path, capsys):
        code = run_cli("train", "--data", synth_dir, "--out", tmp_path / "x",
                       "--epochs", 1, "--set", "classes=2", "--set", "input_extent=48")
        assert code == 1
        assert "extent" in capsys.readouterr().err

    def test_one_pixel_deepest_map_is_rejected_before_writing(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "x"
        code = run_cli("train", "--data", synth_dir, "--out", out,
                       "--epochs", 1, "--set", "classes=2", "--set", "input_extent=16")
        assert code == 1
        assert "at least 32" in capsys.readouterr().err
        assert not out.exists()

    def test_superset_class_count_is_allowed(self, synth_dir, tmp_path, capsys):
        # a head wider than the labels present is legal; the reverse is
        # caught by the loader and exercised in the data tests
        code = run_cli("train", "--data", synth_dir, "--out", tmp_path / "y",
                       "--epochs", 1, "--batch-size", 8, "--set", "classes=5")
        assert code == 0

    def test_missing_dataset(self, tmp_path, capsys):
        code = run_cli("train", "--data", tmp_path / "absent", "--out", tmp_path / "o",
                       "--epochs", 1)
        assert code == 1

    def test_unknown_set_key(self, synth_dir, tmp_path, capsys):
        code = run_cli("train", "--data", synth_dir, "--out", tmp_path / "o",
                       "--epochs", 1, "--set", "turbo=on")
        assert code == 1
        assert "turbo" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_two(self, synth_dir, tmp_path, capsys):
        code = run_cli("train", "--data", synth_dir, "--out", tmp_path / "o",
                       "--epochs", 3, "--batch-size", 8,
                       "--set", "classes=2", "--peak-lr", "1e18")
        assert code == 2
        assert "non-finite" in capsys.readouterr().err

    def test_double_training_leaves_precision_single(self, synth_dir, tmp_path, capsys):
        assert run_cli("train", "--data", synth_dir, "--out", tmp_path / "o", "--epochs", 1,
                       "--batch-size", 8, "--set", "classes=2",
                       "--set", "precision=double") == 0
        state = load_checkpoint(tmp_path / "o" / "checkpoint_final.wrnc")
        assert all(a.dtype == np.float64 for a in state.params.values())
        assert WaveletClassifier(desk_config(classes=2)).head.w.dtype == np.float32

    @pytest.mark.parametrize("flags,match", [
        (("--batch-size", 0), "batch_size"),
        (("--epochs", 0), "epochs"),
        (("--checkpoint-every", -1), "checkpoint_every"),
        (("--weight-decay", -5), "weight_decay"),
        (("--peak-lr", 0), "peak_lr"),
        (("--set", "warmup_fraction=2"), "warmup_fraction"),
        (("--seed", -1), "seed"),
        (("--set", "seed=-1"), "seed"),
    ])
    def test_bad_loop_sizes_are_config_errors(self, synth_dir, tmp_path, capsys, flags, match):
        code = run_cli("train", "--data", synth_dir, "--out", tmp_path / "o", "--epochs", 1,
                       "--batch-size", 8, "--set", "classes=2", *flags)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and match in err
        assert not (tmp_path / "o" / "config.txt").exists()
        assert not (tmp_path / "o" / "checkpoint_final.wrnc").exists()

    @pytest.mark.parametrize("flag,value,line", [
        ("--seed", 7, "seed = 7"),
        ("--rays", 2, "rays = 2"),
        ("--epochs", 2, "epochs = 2"),
        ("--batch-size", 4, "batch_size = 4"),
        ("--peak-lr", "2e-3", "peak_lr = 0.002"),
        ("--weight-decay", "0.01", "weight_decay = 0.01"),
        ("--checkpoint-every", 1, "checkpoint_every = 1"),
    ])
    def test_named_flag_lands_in_config_txt(self, synth_dir, tmp_path, capsys, flag, value,
                                            line):
        out = tmp_path / "o"
        assert run_cli("train", "--data", synth_dir, "--out", out, "--epochs", 1,
                       "--batch-size", 8, "--set", "classes=2", flag, value) == 0
        assert line in (out / "config.txt").read_text().splitlines()

    @pytest.mark.parametrize("preset,overrides", [
        ("desk", {"refinement_channels": "16,24,32"}),
        ("table1", {"refinement_channels": "64,32,16", "blocks_per_stage": "1",
                    "input_extent": "32"}),
    ])
    def test_config_txt_round_trips(self, synth_dir, tmp_path, capsys, preset, overrides):
        values = {"preset": preset, "classes": "2", "rays": "1", "n_origins": "4",
                  "share_ray_fields": "yes", "epochs": "1", "batch_size": "8",
                  "precision": "double", **overrides}
        out = tmp_path / "o"
        sets = [arg for k, v in values.items() for arg in ("--set", f"{k}={v}")]
        assert run_cli("train", "--data", synth_dir, "--out", out, *sets) == 0
        model, tc = build_configs(values)
        assert model.share_ray_fields is True
        assert model.backbone.stem_channels == (32 if preset == "table1" else 8)
        assert build_configs(parse_config_file(out / "config.txt")) == (model, tc)
        stored = load_checkpoint(out / "checkpoint_final.wrnc").model_config
        assert ModelConfig.from_dict(stored) == model


class TestEval:
    def test_reproduces_final_training_metrics(self, trained_dir, synth_dir, capsys):
        metrics = (trained_dir / "metrics.csv").read_text().splitlines()[-1]
        code = run_cli("eval", "--checkpoint", trained_dir / "checkpoint_final.wrnc",
                       "--data", synth_dir)
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "epoch,loss,top1,top5,weighted_f1,lr,images_per_second"
        got = out[1].split(",")
        want = metrics.split(",")
        assert got[0] == want[0] == "2"
        assert got[1:5] == want[1:5]
        assert got[5] == "0"

    def test_single_checkpoint_rebuilds_in_single(self, trained_dir):
        ckpt = trained_dir / "checkpoint_final.wrnc"
        stored = load_checkpoint(ckpt).params
        model, state = _checkpoint_model(ckpt)
        assert state.precision == "single"
        for name, p in model.parameters().items():
            assert p.dtype == np.float32 and np.array_equal(p.data, stored[name])

    def test_double_checkpoint_evaluates_in_double(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "double"
        assert run_cli("train", "--data", synth_dir, "--out", out, "--epochs", 2,
                       "--batch-size", 8, "--rays", 1, "--set", "classes=2",
                       "--set", "n_origins=4", "--set", "precision=double") == 0
        capsys.readouterr()
        ckpt = out / "checkpoint_final.wrnc"
        state = load_checkpoint(ckpt)
        model, _ = _checkpoint_model(ckpt)
        for name, p in model.parameters().items():
            assert p.dtype == np.float64 and np.array_equal(p.data, state.params[name])
        model = WaveletClassifier(ModelConfig.from_dict(state.model_config), dtype=np.float64)
        model.load_state(state.params)
        want = evaluate(model, load_dataset(synth_dir, classes=2))
        assert run_cli("eval", "--checkpoint", ckpt, "--data", synth_dir) == 0
        got = capsys.readouterr().out.splitlines()[1].split(",")
        assert ",".join(got[1:5]) == want.csv_fields()

    @pytest.mark.parametrize("command", ["eval", "export-maps"])
    @pytest.mark.parametrize("dtype,stored", [(np.float64, "single"), (np.float32, "double")])
    def test_records_of_another_dtype_than_the_precision_are_an_error_line(
            self, trained_dir, synth_dir, tmp_path, capsys, command, dtype, stored):
        state = load_checkpoint(trained_dir / "checkpoint_final.wrnc")
        params = {name: a.astype(dtype) for name, a in state.params.items()}
        p = tmp_path / "mixed.wrnc"
        save_checkpoint(p, CheckpointState(state.model_config, params, precision=stored))
        source = (["--data", synth_dir] if command == "eval"
                  else ["--image", synth_dir / "images" / "img_00000.ppm", "--out", tmp_path / "m"])
        assert run_cli(command, "--checkpoint", p, *source) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and np.dtype(dtype).name in captured.err
        assert not (tmp_path / "m").exists()

    def test_zero_batch_size_is_config_error(self, trained_dir, synth_dir, capsys):
        code = run_cli("eval", "--checkpoint", trained_dir / "checkpoint_final.wrnc",
                       "--data", synth_dir, "--batch-size", 0)
        assert code == 1
        assert "batch_size" in capsys.readouterr().err

    def test_missing_checkpoint(self, synth_dir, tmp_path, capsys):
        code = run_cli("eval", "--checkpoint", tmp_path / "none.wrnc", "--data", synth_dir)
        assert code == 1

    def test_overflowing_record_shape_is_an_error_line(self, synth_dir, tmp_path, capsys):
        p = tmp_path / "huge.wrnc"
        save_checkpoint(p, CheckpointState({}, {"w": np.zeros((1, 1, 1, 1), np.float32)}))
        blob = p.read_bytes()
        extents_at = len(blob) - 8 - 4 - 16  # four u32 extents, one f4 payload, the digest
        body = blob[8:extents_at] + struct.pack("<4I", *(65536,) * 4) + blob[-12:-8]
        p.write_bytes(blob[:8] + body + hashlib.sha256(body).digest()[:8])  # a version-3 trailer
        assert run_cli("eval", "--checkpoint", p, "--data", synth_dir) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "truncated" in err, err

    def test_non_object_config_blob_is_an_error_line(self, synth_dir, tmp_path, capsys):
        body = struct.pack("<I", 2) + b"[]" + struct.pack("<I", 0)
        p = tmp_path / "list.wrnc"
        p.write_bytes(MAGIC + struct.pack("<I", VERSION) + body
                      + hashlib.sha256(body).digest()[:8])
        assert run_cli("eval", "--checkpoint", p, "--data", synth_dir) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bad config blob" in err, err

    @pytest.mark.parametrize("version", [1, 2])
    def test_older_version_is_an_error_line(self, trained_dir, synth_dir, tmp_path, capsys,
                                            version):
        """A trained checkpoint's body under an older version and a valid
        trailer of that version's kind: FNV-1a (u64) or BLAKE2b-64."""
        body = (trained_dir / "checkpoint_final.wrnc").read_bytes()[8:-8]
        trailer = (struct.pack("<Q", fnv1a(body)) if version == 1
                   else hashlib.blake2b(body, digest_size=8).digest())
        p = tmp_path / "old.wrnc"
        p.write_bytes(MAGIC + struct.pack("<I", version) + body + trailer)
        assert run_cli("eval", "--checkpoint", p, "--data", synth_dir) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"version {version} unsupported" in err, err
        assert "re-save" in err

    @pytest.mark.parametrize("mutate", [
        lambda s: setattr(s, "precision", "half"),
        lambda s: s.model_config.update(turbo=True),
        lambda s: s.model_config["backbone"].update(extraction_channels=5),
        lambda s: s.model_config.update(rays="1"),
        lambda s: s.model_config.update(classes=3.0),
        lambda s: s.model_config.update(n_origins=12.0),
        lambda s: s.model_config.update(rays=True),
        lambda s: s.model_config.update(share_ray_fields="no"),
    ], ids=["precision", "unknown-key", "scalar-channels", "string-rays", "float-classes",
            "float-origins", "bool-rays", "string-share"])
    def test_bad_stored_config_is_an_error_line(self, trained_dir, synth_dir, tmp_path, capsys,
                                                mutate):
        # a valid digest over a bad config: the file must still be refused cleanly
        state = load_checkpoint(trained_dir / "checkpoint_final.wrnc")
        mutate(state)
        p = tmp_path / "bad.wrnc"
        save_checkpoint(p, state)
        assert run_cli("eval", "--checkpoint", p, "--data", synth_dir) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestGradcheckCommand:
    def test_op_scope_passes(self, capsys):
        assert run_cli("gradcheck", "--scope", "op") == 0
        out = capsys.readouterr().out
        assert "worst relative error" in out
        assert "FAIL" not in out

    def test_negative_seed_is_an_error_line(self, capsys):
        assert run_cli("gradcheck", "--scope", "op", "--seed", -1) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_impossible_tolerance_exits_three(self, capsys):
        assert run_cli("gradcheck", "--scope", "op", "--tol", "1e-15") == 3
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "FAILED" in captured.err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_unusable_tolerance_is_a_usage_error(self, tol, capsys):
        assert run_cli("gradcheck", "--scope", "op", "--tol", tol) == 1
        assert capsys.readouterr().err.startswith("error: tolerance")

    def test_all_runs_every_scope_in_table_order(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run_scope", lambda scope, **kw: calls.append(scope) or [])
        assert run_cli("gradcheck", "--scope", "all") == 0
        assert calls == list(_SCOPES)


class TestParamCount:
    def test_desk_output_format(self, capsys):
        assert run_cli("param-count", "--set", "classes=4") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "component,parameters"
        rows = dict(line.split(",") for line in lines[1:])
        total = int(rows.pop("total"))
        headless = int(rows.pop("total_without_head"))
        assert total == sum(int(v) for v in rows.values())
        assert headless == total - int(rows["head"])

    def test_rays_flag_changes_total(self, capsys):
        run_cli("param-count")
        base = capsys.readouterr().out
        run_cli("param-count", "--rays", "3")
        with_rays = capsys.readouterr().out
        get = lambda text: int(next(l for l in text.splitlines()
                                    if l.startswith("total,")).split(",")[1])
        assert get(with_rays) > get(base)

    def test_table1_flag(self, capsys):
        assert run_cli("param-count", "--table1") == 0
        out = capsys.readouterr().out
        total = int(next(l for l in out.splitlines() if l.startswith("total,")).split(",")[1])
        assert total > 5_000_000

    @pytest.mark.parametrize("flags", [("--set", "rays=3"), ("--rays", "3")])
    def test_table1_honours_rays_from_set_and_flag(self, flags, capsys):
        assert run_cli("param-count", "--table1", *flags) == 0
        assert "total,11861435" in capsys.readouterr().out.splitlines()

    def test_training_settings_are_ignored(self, tmp_path, capsys):
        assert run_cli("param-count") == 0
        plain = capsys.readouterr().out
        p = tmp_path / "config.txt"
        p.write_text("epochs = 0\npeak_lr = 0\n")
        for flags in (("--set", "epochs=0"), ("--set", "peak_lr=0"), ("--config", p)):
            assert run_cli("param-count", *flags) == 0, flags
            assert capsys.readouterr().out == plain


class TestExportMaps:
    def test_exports_one_file_per_origin(self, trained_dir, synth_dir, tmp_path, capsys):
        image = synth_dir / "images" / "img_00000.ppm"
        out = tmp_path / "maps"
        code = run_cli("export-maps", "--checkpoint", trained_dir / "checkpoint_final.wrnc",
                       "--image", image, "--out", out)
        assert code == 0
        assert (out / "combined.pgm").is_file()
        origin_files = sorted(p.name for p in out.glob("origin_*.pgm"))
        assert origin_files == [f"origin_{i:02d}.pgm" for i in range(4)]
        lines = (out / "origins.csv").read_text().splitlines()
        assert lines[0] == "epoch,origin_index,x,y"
        assert len(lines) == 5

    def test_layer_out_of_range(self, trained_dir, synth_dir, tmp_path, capsys):
        image = synth_dir / "images" / "img_00000.ppm"
        code = run_cli("export-maps", "--checkpoint", trained_dir / "checkpoint_final.wrnc",
                       "--image", image, "--out", tmp_path / "m", "--layer", 7)
        assert code == 1
        assert "layer" in capsys.readouterr().err

    def test_image_of_another_extent_is_an_error_line(self, trained_dir, tmp_path, capsys):
        image = tmp_path / "wide.ppm"
        write_pnm(image, np.zeros((48, 48, 3), np.uint8))  # the checkpoint takes 32x32
        out = tmp_path / "m"
        code = run_cli("export-maps", "--checkpoint", trained_dir / "checkpoint_final.wrnc",
                       "--image", image, "--out", out)
        assert code == 1
        assert "48" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_field_is_an_error_line(self, synth_dir, tmp_path, capsys):
        model = WaveletClassifier(desk_config(rays=3, classes=2))
        params = dict(model.state_arrays())
        params["stage0.ray0.field.origins"] = np.full((12, 2), np.nan, np.float32)
        p = tmp_path / "nan.wrnc"
        save_checkpoint(p, CheckpointState(model.config.to_dict(), params))
        out = tmp_path / "m"
        code = run_cli("export-maps", "--checkpoint", p,
                       "--image", synth_dir / "images" / "img_00000.ppm", "--out", out)
        assert code == 1
        assert "NaN or Inf" in capsys.readouterr().err
        assert not out.exists()

    def test_rayless_checkpoint_rejected(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "run0"
        assert run_cli("train", "--data", synth_dir, "--out", out, "--epochs", 1,
                       "--batch-size", 8, "--rays", 0, "--set", "classes=2") == 0
        capsys.readouterr()
        image = synth_dir / "images" / "img_00000.ppm"
        code = run_cli("export-maps", "--checkpoint", out / "checkpoint_final.wrnc",
                       "--image", image, "--out", tmp_path / "m")
        assert code == 1
        assert "no ray layers" in capsys.readouterr().err


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert run_cli() == 1

    def test_unknown_subcommand(self, capsys):
        assert run_cli("frobnicate") == 1

    def test_malformed_set_pair(self, synth_dir, tmp_path, capsys):
        code = run_cli("train", "--data", synth_dir, "--out", tmp_path / "o",
                       "--epochs", 1, "--set", "epochs")
        assert code == 1
        assert "key=value" in capsys.readouterr().err

    def test_malformed_set_pair_param_count(self, capsys):
        assert run_cli("param-count", "--set", "epochs") == 1
        assert "key=value" in capsys.readouterr().err
