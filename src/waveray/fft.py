"""2-D FFT over the last two axes, at any extent, via scipy's pocketfft.

The forward transform is unnormalized; the inverse carries the full
1/(H*W) factor.  Transforms are computed and returned in complex128
whatever the input's dtype; callers cast the real part back to it.
"""

from __future__ import annotations

import numpy as np
import scipy.fft

from .errors import ShapeError


def fft2_array(arr: np.ndarray) -> np.ndarray:
    """Unnormalized 2-D FFT of the last two axes, as a complex128 array."""
    a = np.asarray(arr, dtype=np.complex128)
    if a.ndim < 2:
        raise ShapeError(f"fft2 needs at least 2 dimensions, got shape {a.shape}")
    return scipy.fft.fft2(a)


def ifft2_array(arr: np.ndarray) -> np.ndarray:
    """Inverse of :func:`fft2_array`, including the 1/(H*W) factor."""
    a = np.asarray(arr, dtype=np.complex128)
    if a.ndim < 2:
        raise ShapeError(f"ifft2 needs at least 2 dimensions, got shape {a.shape}")
    return scipy.fft.ifft2(a)
