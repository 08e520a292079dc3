"""Classifier assembly, loss and parameter accounting."""

import hashlib

import numpy as np
import pytest

from waveray.autodiff import Tape, Tensor, backward, precision
from waveray.errors import ConfigError, DataError, ShapeError
from waveray.model import (
    ModelConfig,
    WaveletClassifier,
    cross_entropy,
    desk_config,
    param_count,
    table1_config,
)


class TestModelConfig:
    def test_presets_validate(self):
        table1_config(0).validate()
        table1_config(3).validate()
        desk_config(2).validate()

    def test_rays_out_of_range(self):
        for k in (-1, 4):
            with pytest.raises(ConfigError, match="rays"):
                desk_config(rays=k).validate()

    def test_too_few_classes(self):
        with pytest.raises(ConfigError, match="classes"):
            desk_config(classes=1).validate()

    def test_extent_must_survive_decimation(self):
        # desk backbone decimates by 16 overall
        for extent in (8, 24, 40):
            with pytest.raises(ConfigError, match="extent"):
                desk_config(input_extent=extent).validate()
        desk_config(input_extent=48).validate()

    def test_dict_round_trip(self):
        cfg = desk_config(rays=2)
        again = ModelConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert isinstance(again.backbone.extraction_channels, tuple)


class TestCrossEntropy:
    def test_two_class_closed_form(self):
        loss = cross_entropy(Tensor(np.array([[0.0, np.log(3.0)]])), np.array([1]))
        np.testing.assert_allclose(loss.item(), np.log(4.0 / 3.0), rtol=1e-6)

    def test_uniform_logits_give_log_k(self):
        loss = cross_entropy(Tensor(np.zeros((4, 7))), np.arange(4))
        np.testing.assert_allclose(loss.item(), np.log(7.0), rtol=1e-6)

    def test_shift_invariance(self, rng):
        z = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        a = cross_entropy(Tensor(z), labels).item()
        b = cross_entropy(Tensor(z + 100.0), labels).item()
        np.testing.assert_allclose(a, b, rtol=1e-5)

    def test_large_logits_stay_finite(self):
        loss = cross_entropy(Tensor(np.array([[1e4, 0.0], [0.0, 1e4]])), np.array([0, 1]))
        assert np.isfinite(loss.item())
        assert loss.item() < 1e-6

    def test_gradient_is_softmax_minus_onehot(self, rng):
        with precision("double"):
            z = rng.normal(size=(6, 5))
            labels = rng.integers(0, 5, size=6)
            logits = Tensor(z, requires_grad=True)
            with Tape() as tape:
                loss = cross_entropy(logits, labels)
            backward(loss, tape)
            p = np.exp(z - z.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            p[np.arange(6), labels] -= 1.0
        np.testing.assert_allclose(logits.grad, p / 6.0, atol=1e-12)

    def test_label_validation(self):
        z = Tensor(np.zeros((2, 3)))
        with pytest.raises(DataError):
            cross_entropy(z, np.array([0.0, 1.0]))
        with pytest.raises(DataError):
            cross_entropy(z, np.array([0, 3]))
        with pytest.raises(DataError):
            cross_entropy(z, np.array([-1, 0]))
        with pytest.raises(ShapeError):
            cross_entropy(z, np.array([0]))
        with pytest.raises(ShapeError):
            cross_entropy(Tensor(np.zeros(3)), np.array([0]))


class TestRayRouting:
    @pytest.mark.parametrize("rays,n_maps", [(0, 0), (1, 1), (2, 2), (3, 3)])
    def test_map_count_tracks_budget(self, rays, n_maps, rng):
        model = WaveletClassifier(desk_config(rays=rays), seed=0)
        logits, aux = model.forward_with_aux(Tensor(rng.normal(size=(2, 3, 32, 32))))
        assert logits.shape == (2, 3)
        assert len(aux["maps"]) == n_maps

    def test_map_resolutions_shrink_with_depth(self, rng):
        model = WaveletClassifier(desk_config(rays=3), seed=0)
        _, aux = model.forward_with_aux(Tensor(rng.normal(size=(1, 3, 32, 32))))
        assert [m.extents for m in aux["maps"]] == [(4, 4), (2, 2), (2, 2)]

    def test_head_input_switches_at_full_budget(self):
        assert WaveletClassifier(desk_config(rays=2), seed=0).head.w.shape == (64, 3)
        assert WaveletClassifier(desk_config(rays=3), seed=0).head.w.shape == (32, 3)

    def test_pooled_aux_matches_head_input(self, rng):
        model = WaveletClassifier(desk_config(rays=0), seed=0)
        _, aux = model.forward_with_aux(Tensor(rng.normal(size=(2, 3, 32, 32))))
        assert aux["pooled"].shape == (2, 64)

    def test_field_count_without_sharing(self):
        model = WaveletClassifier(desk_config(rays=3), seed=0)
        assert len(model.ray_fields()) == 3

    def test_shared_fields_collapse_to_one(self):
        cfg = desk_config(rays=3)
        cfg.share_ray_fields = True
        model = WaveletClassifier(cfg, seed=0)
        assert len(model.ray_fields()) == 1
        origins = [n for n in model.parameters() if n.endswith("origins")]
        assert len(origins) == 1


class TestClassifier:
    def test_input_validation(self, rng):
        model = WaveletClassifier(desk_config(rays=0), seed=0)
        with pytest.raises(ShapeError):
            model.forward(Tensor(np.ones((1, 1, 32, 32))))
        with pytest.raises(ConfigError):
            model.forward(Tensor(np.ones((1, 3, 16, 16))))

    def test_same_seed_same_logits(self, rng):
        x = rng.normal(size=(2, 3, 32, 32))
        a = WaveletClassifier(desk_config(rays=1), seed=7).forward(Tensor(x)).data
        b = WaveletClassifier(desk_config(rays=1), seed=7).forward(Tensor(x)).data
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self, rng):
        x = rng.normal(size=(1, 3, 32, 32))
        a = WaveletClassifier(desk_config(rays=0), seed=0).forward(Tensor(x)).data
        b = WaveletClassifier(desk_config(rays=0), seed=1).forward(Tensor(x)).data
        assert np.abs(a - b).max() > 1e-6

    def test_state_round_trip(self, rng):
        model = WaveletClassifier(desk_config(rays=1), seed=0)
        saved = {k: v.copy() for k, v in model.state_arrays().items()}
        for p in model.parameters().values():
            p.data = p.data + 0.25
        model.load_state(saved)
        for name, arr in model.state_arrays().items():
            np.testing.assert_array_equal(arr, saved[name])

    def test_load_state_rejects_mismatched_keys(self):
        model = WaveletClassifier(desk_config(rays=0), seed=0)
        arrays = model.state_arrays()
        arrays.pop("head.b")
        arrays["bogus"] = np.zeros(3)
        with pytest.raises(ConfigError, match="head.b"):
            model.load_state(arrays)

    def test_load_state_rejects_wrong_shape(self):
        model = WaveletClassifier(desk_config(rays=0), seed=0)
        arrays = dict(model.state_arrays())
        arrays["head.b"] = np.zeros(5)
        with pytest.raises(ConfigError, match="head.b"):
            model.load_state(arrays)

    def test_end_to_end_gradients(self, rng):
        model = WaveletClassifier(desk_config(rays=1), seed=0)
        x = Tensor(rng.normal(size=(2, 3, 32, 32)))
        with Tape() as tape:
            loss = cross_entropy(model.forward(x), np.array([0, 2]))
        backward(loss, tape)
        missing = [n for n, p in model.parameters().items() if p.grad is None]
        assert missing == []


class TestParamCount:
    @pytest.mark.parametrize("preset,rays,share,count,size,digest", [
        (desk_config, 0, False, 53, 13923, "2d367d8b4d5a9b8f"),
        (desk_config, 1, False, 65, 16164, "d6f1695472a3cc15"),
        (desk_config, 2, False, 77, 24693, "a432e3c81b88e540"),
        (desk_config, 3, False, 91, 35206, "cf06c3b355cf9e15"),
        (desk_config, 3, True, 83, 35108, "b46c46897265eed5"),
        (table1_config, 0, False, 109, 11990760, "b9687407c635c4dd"),
        (table1_config, 1, False, 121, 12024153, "999a6bc0cb5ee5cf"),
        (table1_config, 2, False, 133, 14125962, "33f836eca3d03b55"),
        (table1_config, 3, False, 147, 11861435, "05960d4f0859ef56"),
    ])
    def test_parameter_names_are_pinned(self, preset, rays, share, count, size, digest):
        """Checkpoints are keyed by these ordered names: a change here stops
        saved checkpoints from loading."""
        cfg = preset(rays=rays)
        cfg.share_ray_fields = share
        params = WaveletClassifier(cfg, seed=0).parameters()
        assert len(params) == count
        assert sum(p.size for p in params.values()) == size
        assert hashlib.sha256("\n".join(params).encode()).hexdigest()[:16] == digest

    def test_deterministic(self):
        assert param_count(desk_config(rays=2)) == param_count(desk_config(rays=2))

    def test_components_cover_total(self):
        per, total = param_count(desk_config(rays=0))
        assert total == sum(per.values())
        assert {"stem", "extract0", "extract1", "stage0", "stage1", "head"} <= set(per)

    def test_rays_add_parameters(self):
        _, base = param_count(desk_config(rays=0))
        per3, full = param_count(desk_config(rays=3))
        assert full > base
        assert "encoder" in per3

    def test_matches_enumerated_sizes(self):
        model = WaveletClassifier(desk_config(rays=1), seed=0)
        per, total = param_count(desk_config(rays=1))
        assert total == sum(p.size for p in model.parameters().values())
