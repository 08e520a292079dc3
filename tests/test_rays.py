"""Ray fields, attenuation maps and spectral modulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveray import autodiff as ad
from waveray.autodiff import Tape, Tensor, backward
from waveray.errors import ConfigError, ShapeError
from waveray.rays import (
    AttenuationMap,
    RayEncoder,
    RayField,
    RayLayer,
    attenuation,
    distance_matrix,
    init_origins,
    pixel_grid,
    psf,
    spectral_modulate,
)


class TestOrigins:
    def test_unit_norm(self):
        o = init_origins(12)
        np.testing.assert_allclose(np.linalg.norm(o, axis=1), np.ones(12), atol=1e-12)

    def test_even_spacing(self):
        o = init_origins(8)
        angles = np.arctan2(o[:, 1], o[:, 0])
        gaps = np.diff(np.unwrap(angles))
        np.testing.assert_allclose(gaps, np.full(7, 2 * np.pi / 8), atol=1e-12)

    def test_first_origin_on_x_axis(self):
        np.testing.assert_allclose(init_origins(5)[0], [1.0, 0.0], atol=1e-12)

    def test_rejects_zero(self):
        with pytest.raises(ConfigError):
            init_origins(0)


class TestPixelGrid:
    def test_row_major_layout(self):
        g = pixel_grid(2, 3)
        # row i=0 comes first, x varies fastest
        np.testing.assert_allclose(g.coords[0], [-1.0, -1.0])
        np.testing.assert_allclose(g.coords[1], [0.0, -1.0])
        np.testing.assert_allclose(g.coords[2], [1.0, -1.0])
        np.testing.assert_allclose(g.coords[3], [-1.0, 1.0])

    def test_spans_unit_box(self):
        g = pixel_grid(5, 5)
        assert g.coords.min() == -1.0 and g.coords.max() == 1.0

    def test_single_pixel_axis_sits_at_zero(self):
        g = pixel_grid(1, 4)
        np.testing.assert_allclose(g.coords[:, 1], np.zeros(4))

    def test_repeat_calls_share_one_read_only_array(self):
        coords = pixel_grid(3, 5).coords
        assert pixel_grid(3, 5).coords is coords
        assert not coords.flags.writeable

    @pytest.mark.parametrize("h, w", [(0, 3), (3, 0), (-1, 2)])
    def test_empty_extent_rejected(self, h, w):
        with pytest.raises(ShapeError, match="positive"):
            pixel_grid(h, w)


class TestDistanceMatrix:
    def test_matches_pairwise_loop(self, rng):
        o = rng.normal(size=(5, 2))
        c = rng.normal(size=(7, 2))
        got = distance_matrix(Tensor(o), Tensor(c)).data
        for i in range(5):
            for j in range(7):
                want = np.hypot(o[i, 0] - c[j, 0], o[i, 1] - c[j, 1])
                assert abs(got[i, j] - want) < 1e-5

    def test_zero_distance_subgradient_is_zero(self):
        o = Tensor(np.array([[0.5, 0.5]]), requires_grad=True)
        c = Tensor(np.array([[0.5, 0.5], [0.0, 0.0]]))
        with Tape() as tape:
            loss = ad.reduce_sum(distance_matrix(o, c))
        backward(loss, tape)
        assert np.all(np.isfinite(o.grad))
        # only the distinct point contributes
        np.testing.assert_allclose(np.linalg.norm(o.grad), 1.0, rtol=1e-5)

    def test_grid_without_grad_gets_none(self, rng):
        o = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        with Tape() as tape:
            d = distance_matrix(o, Tensor(pixel_grid(4, 4).coords))
        go, gc = tape.nodes[-1].backward(rng.normal(size=d.shape))
        assert go.shape == (3, 2) and gc is None

    def test_origin_gradient_nonzero_for_generic_input(self, rng):
        o = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        c = Tensor(pixel_grid(4, 4).coords)
        w = Tensor(rng.normal(size=(3, 16)))
        with Tape() as tape:
            loss = ad.reduce_sum(ad.mul(distance_matrix(o, c), w))
        backward(loss, tape)
        assert np.abs(o.grad).max() > 1e-6


class TestPsf:
    def test_matches_formula(self, rng):
        d = np.abs(rng.normal(size=(3, 10)))
        sigma = rng.uniform(0.4, 2.0, size=3)
        got = psf(Tensor(d), Tensor(sigma)).data
        want = np.exp(-d**2 / (2 * sigma[:, None] ** 2)) / (2 * np.pi * sigma[:, None] ** 2)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_peak_at_zero_distance(self):
        got = psf(Tensor(np.zeros((1, 4))), Tensor(np.array([0.5]))).data
        np.testing.assert_allclose(got, np.full((1, 4), 1.0 / (2 * np.pi * 0.25)), rtol=1e-5)

    def test_sigma_shape_enforced(self):
        with pytest.raises(ShapeError):
            psf(Tensor(np.zeros((3, 4))), Tensor(np.ones(2)))


def _random_field(gen, n=6):
    field = RayField(n)
    field.origins = Tensor(gen.normal(size=(n, 2)), requires_grad=True)
    field.log_sigma = Tensor(gen.normal(0.0, 0.4, size=n), requires_grad=True)
    field.log_alpha = Tensor(gen.normal(0.0, 0.4, size=n), requires_grad=True)
    field.beta = Tensor(gen.normal(1.0, 0.3, size=1), requires_grad=True)
    return field


class TestAttenuation:
    def test_rows_sum_to_one_across_draws(self):
        for seed in range(20):
            gen = np.random.default_rng(seed)
            field = _random_field(gen)
            d = distance_matrix(field.origins, Tensor(pixel_grid(4, 4).coords))
            amap = attenuation(d, field, extents=(4, 4))
            np.testing.assert_allclose(amap.per_origin.data.sum(axis=1), np.ones(6), atol=1e-6)

    def test_combined_is_mean_of_rows(self, rng):
        field = _random_field(rng)
        d = distance_matrix(field.origins, Tensor(pixel_grid(4, 4).coords))
        amap = attenuation(d, field, extents=(4, 4))
        np.testing.assert_allclose(amap.combined.data, amap.per_origin.data.mean(axis=0),
                                   atol=1e-7)

    def test_flat_logits_give_uniform_map(self):
        """Tiny alpha and huge sigma flatten the logits, so the softmax
        tends to uniform."""
        field = RayField(3)
        field.log_sigma.data[:] = np.log(1e4)
        field.log_alpha.data[:] = np.log(1e-6)
        d = distance_matrix(field.origins, Tensor(pixel_grid(4, 4).coords))
        amap = attenuation(d, field, extents=(4, 4))
        np.testing.assert_allclose(amap.per_origin.data, np.full((3, 16), 1.0 / 16), atol=1e-6)

    def test_rotation_symmetry_of_initial_field(self):
        """With origins on the circle and shared widths, advancing the
        origin index by n/4 rotates its map by a quarter turn."""
        n = 12
        field = RayField(n)
        h = 8
        d = distance_matrix(field.origins, Tensor(pixel_grid(h, h).coords))
        maps = attenuation(d, field, extents=(h, h)).per_origin.data.reshape(n, h, h)
        for k in range(n):
            rotated = np.rot90(maps[k], k=-1)
            np.testing.assert_allclose(maps[(k + n // 4) % n], rotated, atol=1e-6)

    def test_row_count_must_match_field(self, rng):
        field = RayField(4)
        with pytest.raises(ShapeError, match="3 rows"):
            attenuation(Tensor(np.ones((3, 16))), field, extents=(4, 4))

    def test_positivity_survives_arbitrary_log_updates(self):
        field = RayField(3)
        field.log_sigma.data = np.array([-40.0, 0.0, 35.0], dtype=np.float32)
        field.log_alpha.data = np.array([12.0, -7.0, 0.0], dtype=np.float32)
        amap = field.attenuation_map(4, 4)
        assert np.isfinite(amap.per_origin.data).all() and np.isfinite(amap.combined.data).all()
        np.testing.assert_allclose(amap.per_origin.data.sum(axis=1), np.ones(3), rtol=1e-6)


def circular_conv_oracle(f, kernel):
    """Direct O((HW)^2) circular convolution per channel."""
    n, c, h, w = f.shape
    out = np.zeros_like(f)
    for p in range(h):
        for q in range(w):
            acc = np.zeros((n, c), dtype=f.dtype)
            for a in range(h):
                for b in range(w):
                    acc += f[:, :, a, b] * kernel[(p - a) % h, (q - b) % w]
            out[:, :, p, q] = acc
    return out


class TestSpectralModulate:
    def test_all_ones_mask_is_identity(self, rng):
        f = Tensor(rng.normal(size=(2, 3, 8, 8)))
        out = spectral_modulate(f, Tensor(np.ones((8, 8))))
        rel = np.abs(out.data - f.data).max() / np.abs(f.data).max()
        assert rel < 1e-5

    def test_equals_circular_convolution(self, rng):
        f = rng.normal(size=(1, 2, 8, 8))
        mask = rng.normal(size=(8, 8))
        got = spectral_modulate(Tensor(f), Tensor(mask)).data
        kernel = np.fft.ifft2(mask).real
        want = circular_conv_oracle(f, kernel)
        rel = np.abs(got - want).max() / np.abs(want).max()
        assert rel < 1e-10

    def test_mask_extent_mismatch(self, rng):
        with pytest.raises(ShapeError):
            spectral_modulate(Tensor(rng.normal(size=(1, 1, 4, 4))),
                              Tensor(np.ones((4, 8))))

    @pytest.mark.parametrize("extents", [(6, 5), (14, 14)])
    def test_any_extent_equals_circular_convolution(self, extents, rng):
        f = rng.normal(size=(1, 2, *extents))
        mask = rng.normal(size=extents)
        got = spectral_modulate(Tensor(f), Tensor(mask)).data
        want = circular_conv_oracle(f, np.fft.ifft2(mask).real)
        rel = np.abs(got - want).max() / np.abs(want).max()
        assert rel < 1e-10

    def test_dc_only_mask_averages(self, rng):
        """A mask that keeps only the DC bin replaces each map by its mean."""
        f = rng.normal(size=(1, 1, 4, 4))
        mask = np.zeros((4, 4))
        mask[0, 0] = 1.0
        out = spectral_modulate(Tensor(f), Tensor(mask)).data
        np.testing.assert_allclose(out, np.full((1, 1, 4, 4), f.mean()), atol=1e-6)


class TestRayLayer:
    def test_preserves_shape_and_returns_map(self, rng):
        layer = RayLayer(6, n_origins=4, rng=rng)
        x = Tensor(rng.normal(size=(2, 6, 4, 4)))
        out, amap = layer.forward(x)
        assert out.shape == (2, 6, 4, 4)
        assert isinstance(amap, AttenuationMap)
        assert amap.extents == (4, 4)

    def test_channel_mismatch(self, rng):
        layer = RayLayer(6, rng=rng)
        with pytest.raises(ShapeError):
            layer.forward(Tensor(np.ones((1, 5, 4, 4))))

    def test_gradient_reaches_origins(self, rng):
        layer = RayLayer(4, n_origins=3, rng=rng)
        x = Tensor(rng.normal(size=(1, 4, 4, 4)))
        w = Tensor(rng.normal(size=(1, 4, 4, 4)))
        with Tape() as tape:
            out, _ = layer.forward(x)
            loss = ad.reduce_sum(ad.mul(out, w))
        backward(loss, tape)
        assert layer.field.origins.grad is not None
        assert np.abs(layer.field.origins.grad).max() > 0


def _fresh_map(field, h, w):
    d = distance_matrix(field.origins, Tensor(pixel_grid(h, w).coords.astype(field.origins.dtype)))
    return attenuation(d, field, extents=(h, w))


def _assert_same_map(got, want):
    for a, b in ((got.per_origin, want.per_origin), (got.combined, want.combined)):
        assert a.dtype == b.dtype
        assert np.array_equal(a.data, b.data)


class TestAttenuationMapMemo:
    def test_untaped_map_equals_the_chain(self, rng):
        field = _random_field(rng)
        first, again = field.attenuation_map(4, 4), field.attenuation_map(4, 4)
        _assert_same_map(first, _fresh_map(field, 4, 4))
        _assert_same_map(again, _fresh_map(field, 4, 4))
        assert again.extents == (4, 4)
        assert again.combined.requires_grad and again.per_origin.requires_grad

    @pytest.mark.parametrize("name", ["origins", "log_sigma", "log_alpha", "beta"])
    def test_in_place_write_recomputes(self, name, rng):
        field = _random_field(rng)
        field.attenuation_map(4, 4)
        arr = getattr(field, name).data
        arr[(0,) * arr.ndim] += 0.25
        _assert_same_map(field.attenuation_map(4, 4), _fresh_map(field, 4, 4))

    def test_precision_switch_recomputes(self, rng):
        """Casting the field's parameters changes the memo key, and the grid
        follows the origins' dtype."""
        field = _random_field(rng)
        double = field.attenuation_map(4, 4)
        originals = {name: p.data for name, p in field.named_params()}
        for _, p in field.named_params():
            p.data = p.data.astype(np.float32)
        single = field.attenuation_map(4, 4)
        assert single.combined.dtype == np.float32
        _assert_same_map(single, _fresh_map(field, 4, 4))
        for name, p in field.named_params():
            p.data = originals[name]
        _assert_same_map(field.attenuation_map(4, 4), double)

    def test_each_extent_keeps_its_own_map(self, rng):
        field = _random_field(rng)
        field.attenuation_map(4, 4)
        field.attenuation_map(2, 2)
        _assert_same_map(field.attenuation_map(4, 4), _fresh_map(field, 4, 4))
        _assert_same_map(field.attenuation_map(2, 2), _fresh_map(field, 2, 2))

    def test_returned_maps_are_read_only(self, rng):
        field = _random_field(rng)
        for amap in (field.attenuation_map(4, 4), field.attenuation_map(4, 4)):
            for t in (amap.per_origin, amap.combined):
                with pytest.raises(ValueError):
                    t.data[0] = 0.0

    def test_taped_map_reaches_every_field_parameter(self, rng):
        field = _random_field(rng)
        field.attenuation_map(4, 4)
        w = Tensor(rng.normal(size=16))
        with Tape() as tape:
            loss = ad.reduce_sum(ad.mul(field.attenuation_map(4, 4).combined, w))
        backward(loss, tape)
        for t in (field.origins, field.log_sigma, field.log_alpha, field.beta):
            assert t.grad is not None and np.abs(t.grad).max() > 0


class TestRayEncoder:
    def test_token_shape_and_order(self, rng):
        enc = RayEncoder(8, d_model=5, n_layers=0, rng=rng)
        x = Tensor(rng.normal(size=(2, 8, 4, 4)))
        tokens, maps = enc.forward(x)
        assert tokens.shape == (2, 16, 5)
        assert maps == []
        # row-major: token i*W+j must equal the projected pixel (i, j)
        from waveray.ops import pointwise_conv

        proj = pointwise_conv(x, enc.proj.w, enc.proj.b).data
        np.testing.assert_allclose(tokens.data[1, 4 * 2 + 3], proj[1, :, 2, 3], rtol=1e-5)

    def test_layer_count(self, rng):
        enc = RayEncoder(8, d_model=4, n_layers=3, n_origins=3, rng=rng)
        x = Tensor(rng.normal(size=(1, 8, 4, 4)))
        tokens, maps = enc.forward(x)
        assert len(maps) == 3
        assert tokens.shape == (1, 16, 4)

    def test_unshared_by_default(self, rng):
        enc = RayEncoder(8, d_model=4, n_layers=2, n_origins=3, rng=rng)
        assert enc.layers[0].field is not enc.layers[1].field


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 9))
def test_attenuation_rows_always_sum_to_one(seed, n):
    gen = np.random.default_rng(seed)
    field = _random_field(gen, n=n)
    d = distance_matrix(field.origins, Tensor(pixel_grid(4, 4).coords))
    amap = attenuation(d, field, extents=(4, 4))
    np.testing.assert_allclose(amap.per_origin.data.sum(axis=1), np.ones(n), atol=1e-5)
