"""Radix-2 FFT over the last two axes.

The forward transform is unnormalized; the inverse carries the full
1/(H*W) factor.  Extents must be powers of two: spectral mixing only ever
runs on maps sized 2^k (the encoder enforces this), which keeps the kernel
a plain iterative butterfly pass, vectorized over all leading axes.

Transforms are computed and returned in complex128 regardless of the
ambient precision; callers cast the real part back.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ShapeError


def _require_pow2(n: int, axis_name: str) -> None:
    if n < 1 or (n & (n - 1)):
        raise ShapeError(f"extent {n} along {axis_name} is not a power of two")


@lru_cache(maxsize=None)
def _bit_reverse(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.intp)
    for i in range(bits):
        rev = (rev << 1) | ((idx >> i) & 1)
    rev.setflags(write=False)
    return rev


def _fft_last_axis(a: np.ndarray, sign: float) -> np.ndarray:
    """In-order iterative Cooley-Tukey along the last axis (power of two)."""
    length = a.shape[-1]
    if length == 1:
        return a.copy()
    out = a[..., _bit_reverse(length)]
    span = 1
    while span < length:
        step = 2 * span
        tw = np.exp((sign * 1j * np.pi / span) * np.arange(span))
        v = out.reshape(*out.shape[:-1], length // step, step)
        odd = v[..., span:] * tw
        even = v[..., :span].copy()
        v[..., :span] = even + odd
        v[..., span:] = even - odd
        span = step
    return out


def fft2_array(arr: np.ndarray) -> np.ndarray:
    """Unnormalized 2-D FFT of the last two axes, as a complex128 array."""
    a = np.asarray(arr).astype(np.complex128)
    if a.ndim < 2:
        raise ShapeError(f"fft2 needs at least 2 dimensions, got shape {a.shape}")
    _require_pow2(a.shape[-1], "width")
    _require_pow2(a.shape[-2], "height")
    a = _fft_last_axis(a, -1.0)
    a = np.swapaxes(_fft_last_axis(np.swapaxes(a, -1, -2), -1.0), -1, -2)
    return np.ascontiguousarray(a)


def ifft2_array(arr: np.ndarray) -> np.ndarray:
    """Inverse of :func:`fft2_array`, including the 1/(H*W) factor."""
    a = np.asarray(arr).astype(np.complex128)
    if a.ndim < 2:
        raise ShapeError(f"ifft2 needs at least 2 dimensions, got shape {a.shape}")
    _require_pow2(a.shape[-1], "width")
    _require_pow2(a.shape[-2], "height")
    a = _fft_last_axis(a, 1.0)
    a = np.swapaxes(_fft_last_axis(np.swapaxes(a, -1, -2), 1.0), -1, -2)
    a /= a.shape[-1] * a.shape[-2]
    return np.ascontiguousarray(a)
