"""Wavelet decomposition, modulation blocks and the feature pyramid."""

import numpy as np
import pytest
from scipy.ndimage import correlate1d

from waveray import autodiff as ad
from waveray.autodiff import Tape, Tensor, backward, precision
from waveray.backbone import (
    DEFAULT_HIGH,
    DEFAULT_LOW,
    Backbone,
    BackboneConfig,
    ExtractStage,
    ModulationBlock,
    Stem,
    WaveFilterPair,
    WavePool,
    wave_decompose,
)
from waveray.errors import ConfigError, ShapeError


def decompose_oracle(x, low, high, stride):
    """Separable band split via scipy's correlator (reflect padding)."""

    def filt(a, taps, axis):
        full = correlate1d(a, taps, axis=axis, mode="reflect", output=np.float64)
        sl = [slice(None)] * a.ndim
        sl[axis] = slice(0, None, stride)
        return full[tuple(sl)]

    fl, fh = filt(x, low, 3), filt(x, high, 3)
    return (filt(fl, low, 2), filt(fl, high, 2), filt(fh, low, 2), filt(fh, high, 2))


class TestFilterInit:
    def test_low_is_plain_average(self):
        np.testing.assert_allclose(WaveFilterPair().low.data, np.full(3, 1.0 / 3.0), atol=1e-7)

    def test_high_taps(self):
        np.testing.assert_allclose(WaveFilterPair().high.data,
                                   [-0.25, -0.5, 1.5, -0.5, -0.25], atol=1e-7)

    def test_sums(self):
        assert abs(sum(DEFAULT_LOW) - 1.0) < 1e-12
        assert abs(sum(DEFAULT_HIGH)) < 1e-12


class TestWaveDecompose:
    @pytest.mark.parametrize("stride", [1, 2])
    def test_constant_map_concentrates_in_ll(self, stride):
        x = Tensor(np.full((2, 3, 8, 8), 1.7))
        ll, lh, hl, hh = wave_decompose(x, WaveFilterPair(), stride=stride)
        np.testing.assert_allclose(ll.data, np.full_like(ll.data, 1.7), atol=1e-5)
        for band in (lh, hl, hh):
            np.testing.assert_allclose(band.data, np.zeros_like(band.data), atol=1e-5)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("extent", [(8, 8), (6, 10), (12, 4)])
    def test_matches_scipy_oracle(self, rng, stride, extent):
        with precision("double"):
            h, w = extent
            x = rng.normal(size=(2, 3, h, w))
            filters = WaveFilterPair()
            filters.low = Tensor(rng.normal(size=3))
            filters.high = Tensor(rng.normal(size=5))
            got = wave_decompose(Tensor(x), filters, stride=stride)
            want = decompose_oracle(x, filters.low.data, filters.high.data, stride)
        for g, o in zip(got, want):
            np.testing.assert_allclose(g.data, o, atol=1e-12)

    def test_band_order_pins_width_axis_first(self, rng):
        """A map varying only along height has no width-axis high response,
        so HL and HH vanish while LH carries the signal."""
        col = np.arange(8.0) ** 2
        x = Tensor(np.tile(col[None, None, :, None], (1, 1, 1, 8)))
        ll, lh, hl, hh = wave_decompose(x, WaveFilterPair(), stride=1)
        assert np.abs(hl.data).max() < 1e-5
        assert np.abs(hh.data).max() < 1e-5
        assert np.abs(lh.data).max() > 0.1

    def test_stride_two_halves_extents(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 10, 6)))
        for band in wave_decompose(x, WaveFilterPair(), stride=2):
            assert band.shape == (1, 2, 5, 3)

    def test_stride_one_preserves_extents(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 7, 5)))
        for band in wave_decompose(x, WaveFilterPair(), stride=1):
            assert band.shape == (1, 2, 7, 5)

    def test_odd_extent_rejected_at_stride_two(self, rng):
        with pytest.raises(ShapeError, match="even"):
            wave_decompose(Tensor(np.ones((1, 1, 7, 8))), WaveFilterPair(), stride=2)

    def test_taps_receive_gradient(self, rng):
        filters = WaveFilterPair()
        x = Tensor(rng.normal(size=(1, 2, 6, 6)))
        with Tape() as tape:
            ll, lh, hl, hh = wave_decompose(x, filters, stride=2)
            loss = ad.reduce_sum(ad.add(ll, lh))
        backward(loss, tape)
        assert np.abs(filters.low.grad).max() > 0
        assert np.abs(filters.high.grad).max() > 0


class TestStem:
    def test_halves_extents(self, rng):
        stem = Stem(8, rng)
        out = stem.forward(Tensor(rng.normal(size=(2, 3, 16, 20))))
        assert out.shape == (2, 8, 8, 10)

    def test_rejects_wrong_channel_count(self, rng):
        with pytest.raises(ShapeError):
            Stem(8, rng).forward(Tensor(np.ones((1, 4, 16, 16))))

    def test_rejects_small_or_odd_inputs(self, rng):
        stem = Stem(8, rng)
        with pytest.raises(ShapeError):
            stem.forward(Tensor(np.ones((1, 3, 12, 16))))
        with pytest.raises(ShapeError):
            stem.forward(Tensor(np.ones((1, 3, 16, 15))))


class TestExtractStage:
    def test_halves_and_widens(self, rng):
        stage = ExtractStage(4, 6, rng)
        out = stage.forward(Tensor(rng.normal(size=(2, 4, 8, 8))))
        assert out.shape == (2, 6, 4, 4)


class TestModulationBlock:
    def test_zero_gate_is_identity(self, rng):
        block = ModulationBlock(8, rng)
        x = Tensor(rng.normal(size=(2, 8, 4, 4)))
        out = block.forward(x, context_override=Tensor(np.zeros((2, 8, 4, 4))))
        np.testing.assert_array_equal(out.data, x.data)

    def test_context_restores_width_and_extent(self, rng):
        block = ModulationBlock(8, rng)
        h = Tensor(rng.normal(size=(2, 8, 6, 6)))
        ctx = block.context(h)
        assert ctx.shape == (2, 8, 6, 6)

    def test_both_rounds_share_one_filter_pair(self, rng):
        """Perturbing the shared taps must change the context output, and
        the block must expose exactly one low/high pair."""
        block = ModulationBlock(8, rng)
        h = Tensor(rng.normal(size=(1, 8, 6, 6)))
        before = block.context(h).data.copy()
        block.filters.low.data = block.filters.low.data + 0.05
        after = block.context(h).data
        assert np.abs(after - before).max() > 1e-6
        names = [n for n, _ in block.named_params("b")]
        assert names.count("b.filters.low") == 1
        assert sum(".low" in n for n in names) == 1

    def test_forward_is_residual(self, rng):
        block = ModulationBlock(8, rng)
        x = Tensor(rng.normal(size=(1, 8, 4, 4)))
        out = block.forward(x)
        assert out.shape == x.shape
        assert np.abs(out.data - x.data).max() > 0

    def test_indivisible_channels_rejected(self, rng):
        with pytest.raises(ConfigError):
            ModulationBlock(6, rng, bottleneck=4)

    def test_channel_mismatch_rejected(self, rng):
        with pytest.raises(ShapeError):
            ModulationBlock(8, rng).forward(Tensor(np.ones((1, 4, 4, 4))))

    def test_gradients_reach_all_params(self, rng):
        block = ModulationBlock(8, rng)
        x = Tensor(rng.normal(size=(1, 8, 4, 4)))
        with Tape() as tape:
            loss = ad.reduce_sum(block.forward(x))
        backward(loss, tape)
        for name, p in block.named_params("b"):
            assert p.grad is not None, name


class TestWavePool:
    def test_stride_two_halves(self, rng):
        pool = WavePool(4, 6, rng)
        out = pool.forward(Tensor(rng.normal(size=(2, 4, 8, 8))))
        assert out.shape == (2, 6, 4, 4)

    def test_stride_one_preserves(self, rng):
        pool = WavePool(4, 6, rng, stride=1)
        out = pool.forward(Tensor(rng.normal(size=(2, 4, 5, 5))))
        assert out.shape == (2, 6, 5, 5)

    def test_matches_numpy_composition(self, rng):
        """Dual route: scipy band split, manual pair fusion, einsum mix and
        a hand-written channel norm."""
        with precision("double"):
            x = rng.normal(size=(2, 3, 8, 8))
            pool = WavePool(3, 5, rng)
            got = pool.forward(Tensor(x)).data

            ll, lh, hl, hh = decompose_oracle(x, pool.filters.low.data,
                                              pool.filters.high.data, stride=2)
            fused = np.concatenate([ll + hh, lh + hl], axis=1)
            mixed = np.einsum("nchw,oc->nohw", fused, pool.mix.data)
            mu = mixed.mean(axis=1, keepdims=True)
            var = mixed.var(axis=1, keepdims=True)
            xhat = (mixed - mu) / np.sqrt(var + 1e-5)
            want = (xhat * pool.norm.gain.data[:, None, None]
                    + pool.norm.shift.data[:, None, None])
        np.testing.assert_allclose(got, want, atol=1e-10)


class TestBackboneConfig:
    def test_default_is_valid(self):
        BackboneConfig().validate()

    @pytest.mark.parametrize("patch,match", [
        ({"stem_channels": 0}, "stem_channels"),
        ({"extraction_channels": (32, 48)}, "3 entries"),
        ({"extraction_channels": (16, 48, 64)}, "stem emits"),
        ({"refinement_stages": 0}, "refinement stage"),
        ({"refinement_channels": (64, 512)}, "entries"),
        ({"refinement_channels": (48, 512, 4096)}, "extraction ends"),
        ({"blocks_per_stage": 0}, "blocks_per_stage"),
        ({"refinement_channels": (64, 510, 4096)}, "bottleneck"),
        ({"ray_layers_per_stage": -1}, "nonnegative"),
    ])
    def test_invalid_configs(self, patch, match):
        cfg = BackboneConfig(**patch)
        with pytest.raises(ConfigError, match=match):
            cfg.validate()


def small_cfg():
    return BackboneConfig(
        stem_channels=4,
        extraction_channels=(4, 6, 8),
        refinement_channels=(8, 12, 16),
        blocks_per_stage=1,
        refinement_stages=2,
        bottleneck_factor=4,
    )


class TestBackbone:
    def test_pyramid_shapes(self, rng):
        bb = Backbone(small_cfg(), rng)
        pyramid, maps = bb.forward(Tensor(rng.normal(size=(2, 3, 32, 32))))
        assert maps == []
        shapes = [(i, t.shape) for i, t in pyramid]
        # stage 0 is recorded before its halving pool, the last stage after
        # its stride-1 pool, so the pyramid ends at 1/8 then 1/16
        assert shapes == [(0, (2, 8, 4, 4)), (1, (2, 16, 2, 2))]
        assert pyramid.deepest.shape == (2, 16, 2, 2)

    def test_ray_layer_placement(self, rng):
        bb = Backbone(small_cfg(), rng, ray_layer_counts=[1, 1], n_origins=3)
        _, maps = bb.forward(Tensor(rng.normal(size=(1, 3, 32, 32))))
        assert [m.extents for m in maps] == [(4, 4), (2, 2)]

    def test_ray_count_mismatch(self, rng):
        with pytest.raises(ConfigError):
            Backbone(small_cfg(), rng, ray_layer_counts=[1])

    def test_param_names_unique(self, rng):
        bb = Backbone(small_cfg(), rng, ray_layer_counts=[1, 0], n_origins=3)
        names = [n for n, _ in bb.named_params()]
        assert len(names) == len(set(names))
