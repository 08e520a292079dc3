"""The radix-2 transform against a direct DFT and numpy's FFT."""

import numpy as np
import pytest

from waveray.errors import ShapeError
from waveray.fft import fft2_array, ifft2_array


def dft2_oracle(x):
    """Direct O((HW)^2) two-dimensional DFT."""
    h, w = x.shape[-2:]
    out = np.zeros(x.shape, dtype=np.complex128)
    ks = np.arange(h)
    ls = np.arange(w)
    for u in range(h):
        for v in range(w):
            phase = np.exp(-2j * np.pi * (np.outer(ks * u / h, np.ones(w)) + ls * v / w))
            out[..., u, v] = (x * phase).sum(axis=(-2, -1))
    return out


class TestForward:
    @pytest.mark.parametrize("shape", [(4, 4), (8, 4), (2, 16), (1, 1), (2, 1)])
    def test_matches_direct_dft(self, shape, rng):
        x = rng.normal(size=shape)
        got = fft2_array(x)
        want = dft2_oracle(x)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_matches_numpy_on_batches(self, rng):
        x = rng.normal(size=(3, 2, 8, 16))
        np.testing.assert_allclose(fft2_array(x), np.fft.fft2(x), atol=1e-10)

    def test_impulse_gives_flat_spectrum(self):
        x = np.zeros((8, 8))
        x[0, 0] = 1.0
        np.testing.assert_allclose(fft2_array(x), np.ones((8, 8)), atol=1e-12)

    def test_constant_concentrates_at_dc(self):
        spec = fft2_array(np.full((4, 4), 2.0))
        assert abs(spec[0, 0] - 32.0) < 1e-12  # unnormalized: 2 * 16
        spec[0, 0] = 0.0
        assert np.abs(spec).max() < 1e-12

    def test_linearity(self, rng):
        a = rng.normal(size=(8, 8))
        b = rng.normal(size=(8, 8))
        lhs = fft2_array(2.5 * a - 1.5 * b)
        rhs = 2.5 * fft2_array(a) - 1.5 * fft2_array(b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_non_power_of_two_names_axis(self):
        with pytest.raises(ShapeError, match="width"):
            fft2_array(np.zeros((4, 6)))
        with pytest.raises(ShapeError, match="height"):
            fft2_array(np.zeros((6, 4)))


class TestInverse:
    def test_round_trip(self, rng):
        x = rng.normal(size=(2, 8, 8))
        back = ifft2_array(fft2_array(x))
        np.testing.assert_allclose(back.real, x, atol=1e-12)
        np.testing.assert_allclose(back.imag, np.zeros_like(x), atol=1e-12)

    def test_inverse_carries_normalization(self):
        spec = np.zeros((4, 4), dtype=np.complex128)
        spec[0, 0] = 16.0
        np.testing.assert_allclose(ifft2_array(spec).real, np.ones((4, 4)), atol=1e-12)

    def test_matches_numpy(self, rng):
        z = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        np.testing.assert_allclose(ifft2_array(z), np.fft.ifft2(z), atol=1e-12)
