"""Metrics math and the training loop."""

import io
from types import SimpleNamespace

import numpy as np
import pytest

from waveray.autodiff import Tensor
from waveray.checkpoint import load_checkpoint
from waveray.data import Dataset
from waveray.errors import ConfigError, DataError, DivergenceError
from waveray.model import WaveletClassifier, cross_entropy, desk_config
from waveray.train import (
    METRICS_HEADER,
    TrainConfig,
    _top_k_hits,
    _weighted_f1,
    evaluate,
    train,
)


class TestWeightedF1:
    def test_constant_predictor_on_balanced_pairs(self):
        """Always predicting class 0 on a 50/50 split: class 0 scores
        F1 = 2/3, class 1 scores 0, weighted mean 1/3."""
        conf = np.array([[4, 0], [4, 0]])
        np.testing.assert_allclose(_weighted_f1(conf), 1.0 / 3.0, atol=1e-12)

    def test_perfect_predictor(self):
        np.testing.assert_allclose(_weighted_f1(np.diag([3, 5, 2])), 1.0, atol=1e-12)

    def test_three_class_hand_computation(self):
        conf = np.array([[2, 1, 0], [0, 3, 1], [1, 0, 2]])
        # per-class F1: 2/3, 3/4, 2/3; supports 3, 4, 3
        np.testing.assert_allclose(_weighted_f1(conf), 0.7, atol=1e-12)

    def test_absent_class_contributes_zero_without_nan(self):
        conf = np.array([[2, 0], [0, 0]])
        np.testing.assert_allclose(_weighted_f1(conf), 1.0, atol=1e-12)

    def test_empty_confusion_rejected(self):
        with pytest.raises(DataError):
            _weighted_f1(np.zeros((3, 3), dtype=np.int64))


class TestTopK:
    def test_top1_counts_argmax(self):
        z = np.array([[0.1, 0.9], [0.8, 0.2], [0.4, 0.6]])
        assert _top_k_hits(z, np.array([1, 0, 0]), 1) == 2

    def test_top5_on_wide_logits(self, rng):
        z = rng.normal(size=(40, 10))
        labels = rng.integers(0, 10, size=40)
        want = sum(int(label in np.argsort(row)[-5:]) for row, label in zip(z, labels))
        assert _top_k_hits(z, labels, 5) == want

    def test_k_clipped_to_class_count(self, rng):
        z = rng.normal(size=(6, 3))
        labels = rng.integers(0, 3, size=6)
        assert _top_k_hits(z, labels, 5) == 6


class _StubModel:
    """Duck-typed stand-in whose logits are channel means of the input."""

    def __init__(self, classes=3):
        self.config = SimpleNamespace(classes=classes)

    def forward(self, xb):
        return Tensor(xb.data.mean(axis=(2, 3)))


def _stub_dataset(rng, n=10, classes=3, extent=8):
    images = rng.normal(size=(n, classes, extent, extent)).astype(np.float32)
    labels = rng.integers(0, classes, size=n).astype(np.int64)
    return Dataset(images, labels, [f"class{i}" for i in range(classes)])


class TestEvaluate:
    def test_loss_is_exact_mean_across_uneven_batches(self, rng):
        ds = _stub_dataset(rng, n=10)
        model = _StubModel()
        got = evaluate(model, ds, batch_size=3)
        all_logits = model.forward(Tensor(ds.images))
        want = cross_entropy(all_logits, ds.labels).item()
        np.testing.assert_allclose(got.loss, want, rtol=1e-6)

    def test_accuracy_and_f1_match_direct_computation(self, rng):
        ds = _stub_dataset(rng, n=12)
        model = _StubModel()
        got = evaluate(model, ds, batch_size=5)
        z = ds.images.mean(axis=(2, 3))
        pred = z.argmax(axis=1)
        np.testing.assert_allclose(got.top1, (pred == ds.labels).mean(), atol=1e-12)
        assert got.top5 == 1.0  # only three classes
        conf = np.zeros((3, 3), dtype=np.int64)
        np.add.at(conf, (ds.labels, pred), 1)
        np.testing.assert_allclose(got.weighted_f1, _weighted_f1(conf), atol=1e-12)

    def test_batch_size_does_not_change_metrics(self, rng):
        ds = _stub_dataset(rng, n=11)
        model = _StubModel()
        a = evaluate(model, ds, batch_size=2)
        b = evaluate(model, ds, batch_size=64)
        np.testing.assert_allclose(a.loss, b.loss, rtol=1e-6)
        assert (a.top1, a.top5, a.weighted_f1) == (b.top1, b.top5, b.weighted_f1)

    def test_empty_dataset_rejected(self):
        ds = Dataset(np.zeros((0, 3, 8, 8), np.float32), np.zeros(0, np.int64), ["a", "b"])
        with pytest.raises(DataError):
            evaluate(_StubModel(2), ds)


def _real_dataset(rng, n=16, classes=3):
    images = rng.uniform(0.0, 1.0, size=(n, 3, 32, 32)).astype(np.float32)
    labels = (np.arange(n) % classes).astype(np.int64)
    return Dataset(images, labels, [f"class{i}" for i in range(classes)])


def _quick_cfg(**overrides):
    base = dict(epochs=3, batch_size=8, peak_lr=1e-3, weight_decay=0.05, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainLoop:
    def test_same_seed_reproduces_parameters_and_metrics(self, rng):
        ds = _real_dataset(rng)

        def run():
            model = WaveletClassifier(desk_config(rays=0), seed=3)
            history = train(model, ds, _quick_cfg(), log_stream=io.StringIO())
            return model, history

        m1, h1 = run()
        m2, h2 = run()
        for name, arr in m1.state_arrays().items():
            np.testing.assert_array_equal(arr, m2.state_arrays()[name])
        for (e1, a, lr1), (e2, b, lr2) in zip(h1, h2):
            assert (e1, lr1) == (e2, lr2)
            assert a.csv_fields() == b.csv_fields()

    def test_nan_input_raises_divergence_error(self, rng):
        ds = _real_dataset(rng, n=8)
        ds.images[0, 0, 0, 0] = np.nan
        model = WaveletClassifier(desk_config(rays=0), seed=0)
        with pytest.raises(DivergenceError, match=r"step 0 \(epoch 1\)"):
            train(model, ds, _quick_cfg(epochs=1), log_stream=io.StringIO())

    def test_artifacts_written(self, tmp_path, rng):
        ds = _real_dataset(rng, n=8)
        model = WaveletClassifier(desk_config(rays=1), seed=0)
        log = io.StringIO()
        history = train(model, ds, _quick_cfg(epochs=2, checkpoint_every=1),
                        out_dir=tmp_path, log_stream=log)
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[0] == METRICS_HEADER
        assert len(lines) == 3
        assert (tmp_path / "checkpoint_00001.wrnc").is_file()
        assert (tmp_path / "checkpoint_00002.wrnc").is_file()
        assert (tmp_path / "checkpoint_final.wrnc").is_file()
        origins = (tmp_path / "origins.csv").read_text().splitlines()
        assert origins[0] == "epoch,origin_index,x,y"
        # initial snapshot plus one per epoch, 12 origins each
        assert len(origins) == 1 + 3 * 12
        assert "[epoch 1/2]" in log.getvalue()
        assert len(history) == 2

    def test_divergence_keeps_the_finished_epochs(self, tmp_path, rng):
        ds = _real_dataset(rng, n=8)  # one batch per epoch

        class PoisonAfterEpoch1(io.StringIO):
            def write(self, text):
                if text.startswith("[epoch 1/"):
                    ds.images[0, 0, 0, 0] = np.nan  # so epoch 2's batch diverges
                return super().write(text)

        model = WaveletClassifier(desk_config(rays=1), seed=0)
        with pytest.raises(DivergenceError, match=r"step 1 \(epoch 2\)"):
            train(model, ds, _quick_cfg(epochs=3), out_dir=tmp_path,
                  log_stream=PoisonAfterEpoch1())
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[0] == METRICS_HEADER
        assert [line.split(",")[0] for line in lines[1:]] == ["1"]
        origins = (tmp_path / "origins.csv").read_text().splitlines()
        assert origins[0] == "epoch,origin_index,x,y"
        assert [row.split(",")[0] for row in origins[1:]] == ["0"] * 12 + ["1"] * 12
        assert not (tmp_path / "checkpoint_final.wrnc").exists()

    def test_no_origin_csv_without_rays(self, tmp_path, rng):
        ds = _real_dataset(rng, n=8)
        model = WaveletClassifier(desk_config(rays=0), seed=0)
        train(model, ds, _quick_cfg(epochs=1), out_dir=tmp_path, log_stream=io.StringIO())
        assert not (tmp_path / "origins.csv").exists()
        assert (tmp_path / "checkpoint_final.wrnc").is_file()

    def test_checkpoint_restores_evaluation_exactly(self, tmp_path, rng):
        ds = _real_dataset(rng, n=8)
        model = WaveletClassifier(desk_config(rays=0), seed=1)
        history = train(model, ds, _quick_cfg(epochs=2), out_dir=tmp_path,
                        log_stream=io.StringIO())
        final = history[-1][1]

        state = load_checkpoint(tmp_path / "checkpoint_final.wrnc",
                                expected_model_config=model.config.to_dict())
        fresh = WaveletClassifier(desk_config(rays=0), seed=99)
        fresh.load_state(state.params)
        again = evaluate(fresh, ds)
        assert again.csv_fields() == final.csv_fields()
        assert state.epoch == 2
        assert state.opt_step == 2  # one batch per epoch at this size

    def test_empty_dataset_rejected(self):
        ds = Dataset(np.zeros((0, 3, 32, 32), np.float32), np.zeros(0, np.int64), ["a", "b"])
        model = WaveletClassifier(desk_config(rays=0), seed=0)
        with pytest.raises(DataError):
            train(model, ds, _quick_cfg())

    def test_parameters_of_another_precision_are_refused_before_writing(self, tmp_path, rng):
        ds = _real_dataset(rng, n=8)
        model = WaveletClassifier(desk_config(rays=0), seed=0)  # float32
        with pytest.raises(ConfigError, match=r"'double' cannot train \['float32'\] parameters"):
            train(model, ds, _quick_cfg(epochs=1, precision="double"), out_dir=tmp_path / "run",
                  log_stream=io.StringIO())
        assert not (tmp_path / "run").exists()
        assert all(p.dtype == np.float32 for p in model.parameters().values())

    def test_double_run_outside_the_precision_context(self, tmp_path, rng):
        """The model's dtype alone makes a double run: no global switch, and a
        float32 model trained in between changes nothing."""
        ds = _real_dataset(rng, n=8)
        cfg = _quick_cfg(epochs=1, precision="double")
        for run in ("first", "single", "second"):
            dtype = np.float32 if run == "single" else np.float64
            model = WaveletClassifier(desk_config(rays=1), seed=0, dtype=dtype)
            train(model, ds, _quick_cfg(epochs=1) if run == "single" else cfg,
                  out_dir=tmp_path / run, log_stream=io.StringIO())
        state = load_checkpoint(tmp_path / "second" / "checkpoint_final.wrnc")
        assert state.precision == "double"
        assert all(a.dtype == np.float64 for a in state.params.values())
        assert ((tmp_path / "second" / "checkpoint_final.wrnc").read_bytes()
                == (tmp_path / "first" / "checkpoint_final.wrnc").read_bytes())

    def test_numpy_integer_config_fields_are_refused_before_writing(self, tmp_path, rng):
        ds = _real_dataset(rng, n=8)
        with pytest.raises(ConfigError, match="classes"):
            WaveletClassifier(desk_config(classes=ds.labels.max() + 1), seed=0)
        model = WaveletClassifier(desk_config(classes=int(ds.labels.max()) + 1), seed=0)
        with pytest.raises(ConfigError, match="epochs"):
            train(model, ds, _quick_cfg(epochs=np.int64(1)), out_dir=tmp_path / "run",
                  log_stream=io.StringIO())
        assert not (tmp_path / "run").exists()
