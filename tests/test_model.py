"""Classifier assembly, loss and parameter accounting."""

import hashlib
import json

import numpy as np
import pytest

from waveray import rays
from waveray.autodiff import Tape, Tensor, backward, precision
from waveray.backbone import BackboneConfig
from waveray.data import Dataset
from waveray.errors import ConfigError, DataError, ShapeError
from waveray.model import (
    ModelConfig,
    WaveletClassifier,
    cross_entropy,
    desk_config,
    param_count,
    table1_config,
)
from waveray.optim import AdamW
from waveray.train import TrainConfig, evaluate


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
        for extent in (8, 16, 24, 40):
            with pytest.raises(ConfigError, match="extent"):
                desk_config(input_extent=extent).validate()
        desk_config(input_extent=48).validate()

    @pytest.mark.parametrize("stages, extent", [(1, 16), (2, 32), (3, 64)])
    def test_smallest_admitted_extent_runs(self, stages, extent, rng):
        cfg = desk_config(rays=3, classes=2)
        cfg.backbone.refinement_stages = stages
        cfg.backbone.refinement_channels = (16, 32, 64, 128)[:stages + 1]
        for smaller in range(8, extent, 8):
            cfg.input_extent = smaller
            with pytest.raises(ConfigError, match="extent"):
                cfg.validate()
        cfg.input_extent = extent
        logits = WaveletClassifier(cfg, seed=0).forward(
            Tensor(rng.normal(size=(1, 3, extent, extent))))
        assert logits.shape == (1, 2) and np.isfinite(logits.data).all()

    @pytest.mark.parametrize("cfg, field", [
        (lambda: desk_config(classes=np.int64(3)), "classes"),
        (lambda: desk_config(rays=True), "rays"),
        (lambda: ModelConfig(share_ray_fields="no"), "share_ray_fields"),
        (lambda: ModelConfig(n_origins=12.0), "n_origins"),
        (lambda: ModelConfig(backbone=BackboneConfig(extraction_channels=(32, 48.0, 64))),
         "extraction_channels"),
    ], ids=["numpy-int", "bool-int", "str-bool", "float-int", "float-in-tuple"])
    def test_field_types_are_checked(self, cfg, field):
        with pytest.raises(ConfigError, match=f"^{field} must be of type"):
            cfg().validate()

    def test_numbers_of_either_kind_fit_a_float_field(self):
        ModelConfig(backbone=BackboneConfig(refinement_channels=[64, 512, 4096])).validate()
        TrainConfig(peak_lr=1, weight_decay=np.float64(0.05)).validate()
        with pytest.raises(ConfigError, match="^peak_lr must be of type float"):
            TrainConfig(peak_lr=True).validate()

    def test_dict_round_trip(self):
        # through JSON, as a checkpoint stores it: tuples come back as lists
        for cfg in (desk_config(rays=2), table1_config(rays=2)):
            again = ModelConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
            assert again == cfg
            assert isinstance(again.backbone.extraction_channels, tuple)
            assert isinstance(again.backbone.refinement_channels, tuple)


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

    def test_empty_batch_is_a_shape_error(self):
        with pytest.raises(ShapeError, match="empty batch"):
            cross_entropy(Tensor(np.zeros((0, 3))), np.zeros(0, dtype=np.int64))


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

    @pytest.mark.parametrize("rays,extents", [
        (1, [(28, 28)]),
        (2, [(28, 28), (14, 14)]),
        (3, [(28, 28), (14, 14), (14, 14)]),
    ])
    def test_table1_rays_run_at_paper_scale(self, rays, extents, rng):
        model = WaveletClassifier(table1_config(rays=rays), seed=0)
        logits, aux = model.forward_with_aux(Tensor(rng.normal(size=(1, 3, 224, 224))))
        assert logits.shape == (1, 1000)
        assert np.isfinite(logits.data).all()
        assert [m.extents for m in aux["maps"]] == extents
        if rays == 3:
            tokens, _ = model.encoder.forward(aux["pyramid"].deepest)
            assert tokens.shape == (1, 196, 256)

    def test_only_the_first_two_stages_get_ray_layers(self, rng):
        cfg = desk_config(rays=3, input_extent=64)
        cfg.backbone.refinement_channels = (16, 32, 64, 128)
        cfg.backbone.refinement_stages = 3
        model = WaveletClassifier(cfg, seed=0)
        _, aux = model.forward_with_aux(Tensor(rng.normal(size=(1, 3, 64, 64))))
        assert len(aux["maps"]) == 3  # stage 0, stage 1 and the encoder
        names = list(model.parameters())
        assert any(n.startswith("stage1.ray") for n in names)
        assert not any(n.startswith("stage2.ray") for n in names)

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

    def test_images_of_another_dtype_are_refused(self, rng):
        """A forward would otherwise promote a float32 model's logits to float64."""
        x = rng.normal(size=(2, 3, 32, 32))
        single = WaveletClassifier(desk_config(rays=3), seed=0)
        dataset = Dataset(x.astype(np.float32), np.array([0, 1]), ["a", "b", "c"])
        with precision("double"):
            with pytest.raises(ConfigError, match="float64.*float32"):
                single.forward(Tensor(x))
            with pytest.raises(ConfigError, match="float64.*float32"):
                evaluate(single, dataset)
            double = WaveletClassifier(desk_config(rays=3), seed=0)
        with pytest.raises(ConfigError, match="float32.*float64"):
            double.forward(Tensor(x))

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

    @pytest.mark.parametrize("edit, match", [
        (lambda a: a.pop("head.b"), "state.*missing \\['head.b'\\]"),
        (lambda a: a.update(bogus=np.zeros(3)), "unexpected \\['bogus'\\]"),
        (lambda a: a.update({"head.b": np.zeros(4)}), "state\\['head.b'\\] has shape \\(4,\\)"),
        (lambda a: a.update({"head.w": np.zeros((3, 64))}), "state\\['head.w'\\] has shape"),
    ], ids=["missing", "unexpected", "b-shape", "w-shape"])
    def test_bad_state_rejected_at_load(self, edit, match):
        model = WaveletClassifier(desk_config(rays=0), seed=0)
        before = {k: v.copy() for k, v in model.state_arrays().items()}
        arrays = {k: v + 1.0 for k, v in before.items()}
        edit(arrays)
        with pytest.raises(ConfigError, match=match):
            model.load_state(arrays)
        for name, arr in model.state_arrays().items():
            np.testing.assert_array_equal(arr, before[name])

    def test_module_paths_are_parameter_names(self):
        model = WaveletClassifier(desk_config(rays=3), seed=0)
        paths = [path for path, _ in model._walk("", set())]
        for path in ("stem", "extract0", "stage0.block0", "stage0.ray0", "stage1.ray0",
                     "encoder.layer0", "head"):
            assert path in paths
        assert not any(p.startswith("backbone.") for p in paths)
        assert model.parameters() == dict(model.named_params())

    def test_end_to_end_gradients(self, rng):
        model = WaveletClassifier(desk_config(rays=1), seed=0)
        x = Tensor(rng.normal(size=(2, 3, 32, 32)))
        with Tape() as tape:
            loss = cross_entropy(model.forward(x), np.array([0, 2]))
        backward(loss, tape)
        missing = [n for n, p in model.parameters().items() if p.grad is None]
        assert missing == []


@pytest.fixture
def computed_maps(monkeypatch):
    """Counts the maps computed from scratch: the extents of every
    ``rays.attenuation`` call, in call order."""
    calls = []
    original = rays.attenuation

    def counted(dist, field, extents):
        calls.append(tuple(extents))
        return original(dist, field, extents)

    monkeypatch.setattr(rays, "attenuation", counted)
    return calls


def _taped_step(model, x):
    model.zero_grads()
    with Tape() as tape:
        loss = cross_entropy(model.forward(x), np.array([1]))
    backward(loss, tape)


def _assert_maps_fresh(model, x):
    """An untaped forward's maps equal maps computed from scratch."""
    _, aux = model.forward_with_aux(x)
    for field, amap in zip(model.ray_fields(), aux["maps"], strict=True):
        h, w = amap.extents
        d = rays.distance_matrix(field.origins, Tensor(rays.pixel_grid(h, w).coords))
        want = rays.attenuation(d, field, extents=(h, w))
        for got, ref in ((amap.per_origin, want.per_origin), (amap.combined, want.combined)):
            assert got.dtype == ref.dtype
            assert np.array_equal(got.data, ref.data)


class TestRayMapMemo:
    """Untaped forwards reuse each field's maps until a parameter value or the
    extent changes; a forward under another precision is refused."""

    def test_untaped_forwards_compute_each_map_once(self, computed_maps, rng):
        model = WaveletClassifier(desk_config(rays=3), seed=0)
        x = Tensor(rng.normal(size=(1, 3, 32, 32)))
        first = model.forward(x).data
        np.testing.assert_array_equal(model.forward(x).data, first)
        assert computed_maps == [(4, 4), (2, 2), (2, 2)]

    def test_shared_field_computes_one_map_per_extent(self, computed_maps, rng):
        cfg = desk_config(rays=3)
        cfg.share_ray_fields = True
        model = WaveletClassifier(cfg, seed=0)
        x = Tensor(rng.normal(size=(1, 3, 32, 32)))
        model.forward(x)
        model.forward(x)
        assert computed_maps == [(4, 4), (2, 2)]

    def test_taped_forwards_compute_every_map(self, computed_maps, rng):
        model = WaveletClassifier(desk_config(rays=3), seed=0)
        x = Tensor(rng.normal(size=(1, 3, 32, 32)))
        model.forward(x)
        _taped_step(model, x)
        _taped_step(model, x)
        assert len(computed_maps) == 9

    def test_load_state_recomputes(self, rng):
        model = WaveletClassifier(desk_config(rays=3), seed=0)
        x = Tensor(rng.normal(size=(1, 3, 32, 32)))
        model.forward(x)
        moved = {k: (v + 0.125).astype(v.dtype) if ".field." in k else v
                 for k, v in model.state_arrays().items()}
        model.load_state(moved)
        _assert_maps_fresh(model, x)

    def test_optimizer_step_recomputes(self, rng):
        model = WaveletClassifier(desk_config(rays=3), seed=0)
        x = Tensor(rng.normal(size=(1, 3, 32, 32)))
        model.forward(x)
        _taped_step(model, x)
        AdamW(model.parameters()).step(lr=0.05)
        _assert_maps_fresh(model, x)

    def test_double_precision_forward_recomputes(self, rng):
        model = WaveletClassifier(desk_config(rays=3), seed=0)
        x = rng.normal(size=(1, 3, 32, 32))
        model.forward(Tensor(x))
        with precision("double"), pytest.raises(ConfigError, match="float64"):
            model.forward(Tensor(x))
        _assert_maps_fresh(model, Tensor(x))

    def test_taped_step_after_untaped_forwards_gives_the_same_gradients(self, rng):
        x = Tensor(rng.normal(size=(1, 3, 32, 32)))
        served = WaveletClassifier(desk_config(rays=3), seed=0)
        served.forward(x)
        served.forward(x)
        _taped_step(served, x)
        fresh = WaveletClassifier(desk_config(rays=3), seed=0)
        _taped_step(fresh, x)
        for name, p in fresh.parameters().items():
            assert np.array_equal(served.parameters()[name].grad, p.grad), name


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
