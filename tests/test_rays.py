"""Ray fields, attenuation maps and spectral modulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveray import autodiff as ad
from waveray.autodiff import Tape, Tensor, backward, precision
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
        with precision("double"):
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
        field = RayField(3, sigma0=1e4, alpha0=1e-6)
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
        with pytest.raises(ShapeError):
            attenuation(Tensor(np.ones((3, 16))), field)

    def test_positivity_survives_arbitrary_log_updates(self):
        field = RayField(3)
        field.log_sigma.data = np.array([-40.0, 0.0, 35.0], dtype=np.float32)
        field.log_alpha.data = np.array([12.0, -7.0, 0.0], dtype=np.float32)
        assert np.all(field.sigma().data > 0)
        assert np.all(field.alpha().data > 0)


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
        with precision("double"):
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

    def test_non_power_of_two_rejected(self, rng):
        with pytest.raises(ShapeError, match="power of two"):
            spectral_modulate(Tensor(rng.normal(size=(1, 1, 6, 4))),
                              Tensor(np.ones((6, 4))))

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
