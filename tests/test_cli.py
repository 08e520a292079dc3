"""End-to-end command line behavior, driven in process through main()."""

import pytest

from waveray.cli import build_configs, main, parse_config_file
from waveray.data import load_dataset
from waveray.errors import ConfigError


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

    @pytest.mark.parametrize("flags,match", [
        (("--batch-size", 0), "batch_size"),
        (("--epochs", 0), "epochs"),
        (("--checkpoint-every", -1), "checkpoint_every"),
    ])
    def test_bad_loop_sizes_are_config_errors(self, synth_dir, tmp_path, capsys, flags, match):
        code = run_cli("train", "--data", synth_dir, "--out", tmp_path / "o", "--epochs", 1,
                       "--batch-size", 8, "--set", "classes=2", *flags)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and match in err
        assert not (tmp_path / "o" / "checkpoint_final.wrnc").exists()


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

    def test_zero_batch_size_is_config_error(self, trained_dir, synth_dir, capsys):
        code = run_cli("eval", "--checkpoint", trained_dir / "checkpoint_final.wrnc",
                       "--data", synth_dir, "--batch-size", 0)
        assert code == 1
        assert "batch_size" in capsys.readouterr().err

    def test_missing_checkpoint(self, synth_dir, tmp_path, capsys):
        code = run_cli("eval", "--checkpoint", tmp_path / "none.wrnc", "--data", synth_dir)
        assert code == 1


class TestGradcheckCommand:
    def test_op_scope_passes(self, capsys):
        assert run_cli("gradcheck", "--scope", "op") == 0
        out = capsys.readouterr().out
        assert "worst relative error" in out
        assert "FAIL" not in out

    def test_impossible_tolerance_exits_three(self, capsys):
        assert run_cli("gradcheck", "--scope", "op", "--tol", "1e-15") == 3
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "FAILED" in captured.err


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
