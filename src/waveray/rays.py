"""Ray-attenuation encoding.

A bank of learnable origins starts evenly spaced on the unit circle.  Each
origin sees every pixel of a normalized [-1, 1]^2 grid through a Gaussian
point-spread profile combined with exponential decay over the origin-to-
pixel distance; a softmax over pixels turns that into a per-origin
emphasis map, and the mean over origins gives one combined map.  The map
multiplies the feature spectrum elementwise (equivalent to a depthwise
circular convolution), wrapped in a pre-normalized residual layer.

Width (sigma) and decay (alpha) are stored as logs so positivity costs
nothing; the shared gain beta is a plain scalar.

A field's maps depend on its parameters and the grid extents, never on the
image.  With no tape active, :meth:`RayField.attenuation_map` therefore
serves them from a memo keyed on the parameters' dtypes and values, so
serving and evaluation pay for the map once per parameter update instead
of once per forward.  Under a tape the maps are recorded as usual,
so gradients flow to the field.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Affine, LayerNorm, Module, Tensor, _as_tensor, _record_op
from .backbone import _he_pointwise
from .errors import ConfigError, ShapeError
from .fft import fft2_array, ifft2_array
from .ops import pointwise_conv


def init_origins(n: int) -> np.ndarray:
    """n points evenly spaced on the unit circle, starting at (1, 0)."""
    if n < 1:
        raise ConfigError(f"need at least one origin, got {n}")
    angles = 2.0 * np.pi * np.arange(n) / n
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


class PixelGrid(NamedTuple):
    """Row-major normalized pixel centers: index i*W + j holds (x_j, y_i)."""

    coords: np.ndarray


@lru_cache(maxsize=None)
def pixel_grid(h: int, w: int) -> PixelGrid:
    """The h x w grid, built once per extent pair; its coords are read-only."""
    if h < 1 or w < 1:
        raise ShapeError(f"grid extents must be positive, got {h}x{w}")
    xs = np.linspace(-1.0, 1.0, w) if w > 1 else np.zeros(1)
    ys = np.linspace(-1.0, 1.0, h) if h > 1 else np.zeros(1)
    xx, yy = np.meshgrid(xs, ys)
    coords = np.stack([xx.ravel(), yy.ravel()], axis=1)
    coords.setflags(write=False)
    return PixelGrid(coords)


def distance_matrix(origins, coords) -> Tensor:
    """Euclidean distances D[i, j] = |origin_i - coord_j|.

    Differentiable in both point sets; the subgradient at coincident
    points is zero.  A point set that needs no gradient, as the pixel grid
    does not, gets none.
    """
    origins, coords = _as_tensor(origins), _as_tensor(coords)
    if origins.ndim != 2 or origins.shape[1] != 2:
        raise ShapeError(f"origins must be (n, 2), got {origins.shape}")
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise ShapeError(f"coords must be (m, 2), got {coords.shape}")
    diff = origins.data[:, None, :] - coords.data[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    o_requires, c_requires = origins.requires_grad, coords.requires_grad

    def bw(g):
        safe = np.where(dist > 0.0, dist, 1.0)
        u = np.where(dist > 0.0, g / safe, 0.0)
        go = (u[:, :, None] * diff).sum(axis=1) if o_requires else None
        gc = -(u[:, :, None] * diff).sum(axis=0) if c_requires else None
        return go, gc

    return _record_op(dist, (origins, coords), bw)


def psf(dist, sigma) -> Tensor:
    """Normalized 2-D Gaussian profile of the distances, row i using sigma_i.

    K[i, j] = exp(-D[i, j]^2 / (2 sigma_i^2)) / (2 pi sigma_i^2).
    """
    dist, sigma = _as_tensor(dist), _as_tensor(sigma)
    if dist.ndim != 2:
        raise ShapeError(f"dist must be (n, m), got {dist.shape}")
    if sigma.shape != (dist.shape[0],):
        raise ShapeError(f"sigma must be ({dist.shape[0]},), got {sigma.shape}")
    s = ad.reshape(sigma, (dist.shape[0], 1))
    inv_s2 = ad.reciprocal(ad.mul(s, s))
    coef = ad.scale(inv_s2, 1.0 / (2.0 * np.pi))
    expo = ad.exp(ad.scale(ad.mul(ad.mul(dist, dist), inv_s2), -0.5))
    return ad.mul(coef, expo)


class RayField(Module):
    """The learnable state of one ray bank: origins, widths, decays, gain.

    Every bank starts alike: origins evenly spaced on the unit circle, and
    widths, decays and gain all 1 (stored logs 0)."""

    def __init__(self, n_origins: int = 12):
        self.origins = Tensor(init_origins(n_origins), requires_grad=True)
        self.log_sigma = Tensor(np.zeros(n_origins), requires_grad=True)
        self.log_alpha = Tensor(np.zeros(n_origins), requires_grad=True)
        self.beta = Tensor(np.ones(1), requires_grad=True)
        self._maps: dict = {}  # (h, w) -> (key, per-origin, combined); see attenuation_map

    @property
    def n(self) -> int:
        return self.origins.shape[0]

    def attenuation_map(self, h: int, w: int) -> "AttenuationMap":
        """The field's emphasis maps over an h x w pixel grid.

        Under an active tape this records the grid -> distance matrix ->
        attenuation chain, so gradients reach the field.  With no tape the
        maps come from a memo with one entry per extent, so a field shared by
        layers of two extents keeps both.  An entry's key is the dtype, shape
        and bytes of each of the four parameters (the grid takes the origins'
        dtype): keying on values, not on array identity, makes an in-place
        edit (as finite differences do), an optimizer step, a loaded state or
        a cast miss and recompute.  A miss replaces its
        extent's entry, so the memo stays as small as the maps themselves.
        The stored arrays are read-only, because every hit hands the same
        arrays out again, wrapped in fresh tensors.
        """
        taped = ad.active_tape() is not None
        if not taped:
            params = (self.origins, self.log_sigma, self.log_alpha, self.beta)
            key = tuple((p.dtype, p.shape, p.data.tobytes()) for p in params)
            entry = self._maps.get((h, w))
            if entry is not None and entry[0] == key:
                requires = any(p.requires_grad for p in params)
                return AttenuationMap(Tensor._from_op(entry[1], requires),
                                      Tensor._from_op(entry[2], requires), (h, w))
        coords = pixel_grid(h, w).coords.astype(self.origins.dtype, copy=False)
        dist = distance_matrix(self.origins, Tensor(coords))
        amap = attenuation(dist, self, extents=(h, w))
        if not taped:
            amap.per_origin.data.setflags(write=False)
            amap.combined.data.setflags(write=False)
            self._maps[(h, w)] = (key, amap.per_origin.data, amap.combined.data)
        return amap


class AttenuationMap(NamedTuple):
    """Per-origin emphasis maps plus their combination, with grid extents."""

    per_origin: Tensor
    combined: Tensor
    extents: tuple[int, int]


def attenuation(dist, field: RayField, extents: tuple[int, int]) -> AttenuationMap:
    """Softmax-normalized emphasis maps from distances and field state.

    Row i of the logits is PSF(D_i) * beta * exp(-alpha_i * D_i).  The
    softmax runs over pixels, and the maps combine by arithmetic mean.
    """
    dist = _as_tensor(dist)
    n, m = dist.shape
    if field.n != n:
        raise ShapeError(f"distance matrix has {n} rows but the field has {field.n} origins")
    if extents[0] * extents[1] != m:
        raise ShapeError(f"extents {extents} do not cover {m} pixels")

    kmap = psf(dist, ad.exp(field.log_sigma))
    alpha_col = ad.reshape(ad.exp(field.log_alpha), (n, 1))
    decay = ad.exp(ad.neg(ad.mul(alpha_col, dist)))
    logits = ad.mul(ad.mul(kmap, decay), ad.reshape(field.beta, (1, 1)))
    per_origin = ad.softmax(logits, axis=1)
    combined = ad.reduce_mean(per_origin, axis=0)
    return AttenuationMap(per_origin, combined, (int(extents[0]), int(extents[1])))


def spectral_modulate(f, mask) -> Tensor:
    """Multiply the 2-D spectrum of each feature map by a real mask.

    ``f`` is NCHW at any extents; ``mask`` is (H, W), broadcast over
    samples and channels.  Returns the real part of the inverse
    transform, which equals circular convolution of ``f`` with the inverse
    transform of the mask.  Differentiable in both arguments.
    """
    f, mask = _as_tensor(f), _as_tensor(mask)
    if f.ndim != 4:
        raise ShapeError(f"spectral_modulate expects an NCHW tensor, got shape {f.shape}")
    h, w = f.shape[2], f.shape[3]
    if mask.shape != (h, w):
        raise ShapeError(f"mask shape {mask.shape} does not match map extents {(h, w)}")
    m, f_dtype = mask.data, f.dtype
    spec = fft2_array(f.data)
    out = ifft2_array(spec * m).real.astype(f_dtype)

    def bw(g):
        gspec = fft2_array(g)
        gf = ifft2_array(gspec * m).real.astype(f_dtype)
        gm = (spec * np.conj(gspec)).real.sum(axis=(0, 1)) / (h * w)
        return gf, gm.astype(m.dtype)

    return _record_op(out, (f, mask), bw)


class MLP(Module):
    """Channel-mixing pointwise MLP: expand 4x, GELU, project back."""

    def __init__(self, channels: int, rng):
        hidden = 4 * channels
        self.w1 = _he_pointwise(rng, hidden, channels)
        self.b1 = Tensor(np.zeros(hidden), requires_grad=True)
        self.w2 = _he_pointwise(rng, channels, hidden)
        self.b2 = Tensor(np.zeros(channels), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return pointwise_conv(ad.gelu(pointwise_conv(x, self.w1, self.b1)), self.w2, self.b2)


class RayLayer(Module):
    """Residual block: spectral modulation by the ray map, then a
    channel-mixing MLP, both sub-blocks pre-normalized."""

    def __init__(self, channels: int, rng, n_origins: int = 12, field: RayField = None):
        self.channels = channels
        self.field = field if field is not None else RayField(n_origins)
        self.norm1 = LayerNorm(channels)
        self.norm2 = LayerNorm(channels)
        self.mlp = MLP(channels, rng)

    def forward(self, x: Tensor) -> tuple[Tensor, AttenuationMap]:
        if x.shape[1] != self.channels:
            raise ShapeError(f"ray layer built for {self.channels} channels, got {x.shape[1]}")
        h, w = x.shape[2], x.shape[3]
        amap = self.field.attenuation_map(h, w)
        pre = self.norm1.forward(x)
        x = ad.add(x, spectral_modulate(pre, ad.reshape(amap.combined, (h, w))))
        return ad.add(x, self.mlp.forward(self.norm2.forward(x))), amap


class RayEncoder(Module):
    """Projects the deepest pyramid map down to the token width, applies a
    stack of ray layers and emits a row-major token sequence."""

    def __init__(self, in_channels: int, rng, d_model: int = 256, n_layers: int = 3,
                 n_origins: int = 12):
        if n_layers < 0:
            raise ConfigError(f"layer count must be nonnegative, got {n_layers}")
        self.proj = Affine(rng.normal(0.0, np.sqrt(2.0 / in_channels), (d_model, in_channels)),
                           d_model)
        self.layers = [RayLayer(d_model, rng, n_origins=n_origins) for _ in range(n_layers)]

    def forward(self, deepest: Tensor) -> tuple[Tensor, list[AttenuationMap]]:
        x = pointwise_conv(deepest, self.proj.w, self.proj.b)
        maps = []
        for layer in self.layers:
            x, amap = layer.forward(x)
            maps.append(amap)
        n, d, h, w = x.shape
        tokens = ad.reshape(ad.transpose(x, (0, 2, 3, 1)), (n, h * w, d))
        return tokens, maps
