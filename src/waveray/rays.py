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
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .autodiff import Affine, LayerNorm, Module, Tensor, _as_tensor, _record_op
from .errors import ConfigError, ShapeError
from .fft import fft2_array, ifft2_array
from .ops import pointwise_conv


def init_origins(n: int) -> np.ndarray:
    """n points evenly spaced on the unit circle, starting at (1, 0)."""
    if n < 1:
        raise ConfigError(f"need at least one origin, got {n}")
    angles = 2.0 * np.pi * np.arange(n) / n
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


@lru_cache(maxsize=None)
def _grid_coords(h: int, w: int) -> np.ndarray:
    xs = np.linspace(-1.0, 1.0, w) if w > 1 else np.zeros(1)
    ys = np.linspace(-1.0, 1.0, h) if h > 1 else np.zeros(1)
    xx, yy = np.meshgrid(xs, ys)
    coords = np.stack([xx.ravel(), yy.ravel()], axis=1)
    coords.setflags(write=False)
    return coords


class PixelGrid:
    """Row-major normalized pixel centers: index i*W + j holds (x_j, y_i)."""

    __slots__ = ("h", "w", "coords")

    def __init__(self, h: int, w: int):
        if h < 1 or w < 1:
            raise ShapeError(f"grid extents must be positive, got {h}x{w}")
        self.h = h
        self.w = w
        self.coords = _grid_coords(h, w)

    def as_tensor(self) -> Tensor:
        return Tensor(self.coords)


def pixel_grid(h: int, w: int) -> PixelGrid:
    return PixelGrid(h, w)


def distance_matrix(origins, coords) -> Tensor:
    """Euclidean distances D[i, j] = |origin_i - coord_j|.

    Differentiable in both point sets; the subgradient at coincident
    points is zero.
    """
    origins, coords = _as_tensor(origins), _as_tensor(coords)
    if origins.ndim != 2 or origins.shape[1] != 2:
        raise ShapeError(f"origins must be (n, 2), got {origins.shape}")
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise ShapeError(f"coords must be (m, 2), got {coords.shape}")
    diff = origins.data[:, None, :] - coords.data[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))

    def bw(g):
        safe = np.where(dist > 0.0, dist, 1.0)
        u = np.where(dist > 0.0, g / safe, 0.0)
        go = (u[:, :, None] * diff).sum(axis=1)
        gc = -(u[:, :, None] * diff).sum(axis=0)
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
    """The learnable state of one ray bank: origins, widths, decays, gain."""

    def __init__(self, n_origins: int = 12, sigma0: float = 1.0, alpha0: float = 1.0,
                 beta0: float = 1.0):
        if sigma0 <= 0 or alpha0 <= 0:
            raise ConfigError("sigma0 and alpha0 must be positive")
        self.origins = Tensor(init_origins(n_origins), requires_grad=True)
        self.log_sigma = Tensor(np.full(n_origins, np.log(sigma0)), requires_grad=True)
        self.log_alpha = Tensor(np.full(n_origins, np.log(alpha0)), requires_grad=True)
        self.beta = Tensor(np.array([beta0]), requires_grad=True)

    @property
    def n(self) -> int:
        return self.origins.shape[0]

    def sigma(self) -> Tensor:
        return ad.exp(self.log_sigma)

    def alpha(self) -> Tensor:
        return ad.exp(self.log_alpha)


class AttenuationMap:
    """Per-origin emphasis maps plus their combination, with grid extents."""

    __slots__ = ("per_origin", "combined", "extents")

    def __init__(self, per_origin: Tensor, combined: Tensor, extents: tuple[int, int]):
        self.per_origin = per_origin
        self.combined = combined
        self.extents = extents

    def combined_image(self) -> np.ndarray:
        h, w = self.extents
        return self.combined.data.reshape(h, w)

    def per_origin_images(self) -> np.ndarray:
        h, w = self.extents
        return self.per_origin.data.reshape(-1, h, w)


def attenuation(dist, field: RayField, extents=None) -> AttenuationMap:
    """Softmax-normalized emphasis maps from distances and field state.

    Row i of the logits is PSF(D_i) * beta * exp(-alpha_i * D_i).  The
    softmax runs over pixels, and the maps combine by arithmetic mean.
    """
    dist = _as_tensor(dist)
    n, m = dist.shape
    if field.n != n:
        raise ShapeError(f"distance matrix has {n} rows but the field has {field.n} origins")
    if extents is not None and extents[0] * extents[1] != m:
        raise ShapeError(f"extents {extents} do not cover {m} pixels")

    kmap = psf(dist, field.sigma())
    alpha_col = ad.reshape(field.alpha(), (n, 1))
    decay = ad.exp(ad.neg(ad.mul(alpha_col, dist)))
    logits = ad.mul(ad.mul(kmap, decay), ad.reshape(field.beta, (1, 1)))
    per_origin = ad.softmax(logits, axis=1)
    combined = ad.reduce_mean(per_origin, axis=0)
    if extents is None:
        side = int(round(np.sqrt(m)))
        extents = (side, m // side) if side * (m // side) == m else (1, m)
    return AttenuationMap(per_origin, combined, (int(extents[0]), int(extents[1])))


def spectral_modulate(f, mask) -> Tensor:
    """Multiply the 2-D spectrum of each feature map by a real mask.

    ``f`` is NCHW with power-of-two extents; ``mask`` is (H, W), broadcast
    over samples and channels.  Returns the real part of the inverse
    transform, which equals circular convolution of ``f`` with the inverse
    transform of the mask.  Differentiable in both arguments.
    """
    f, mask = _as_tensor(f), _as_tensor(mask)
    if f.ndim != 4:
        raise ShapeError(f"spectral_modulate expects an NCHW tensor, got shape {f.shape}")
    h, w = f.shape[2], f.shape[3]
    if mask.shape != (h, w):
        raise ShapeError(f"mask shape {mask.shape} does not match map extents {(h, w)}")
    spec = fft2_array(f.data)
    out = ifft2_array(spec * mask.data).real.astype(f.dtype)

    def bw(g):
        gspec = fft2_array(g)
        gf = ifft2_array(gspec * mask.data).real.astype(f.dtype)
        gm = (spec * np.conj(gspec)).real.sum(axis=(0, 1)) / (h * w)
        return gf, gm.astype(mask.dtype)

    return _record_op(out, (f, mask), bw)


class MLP(Module):
    """Channel-mixing pointwise MLP: expand 4x, GELU, project back."""

    def __init__(self, channels: int, rng):
        hidden = 4 * channels
        self.w1 = Tensor(rng.normal(0.0, np.sqrt(2.0 / channels), (hidden, channels)),
                         requires_grad=True)
        self.b1 = Tensor(np.zeros(hidden), requires_grad=True)
        self.w2 = Tensor(rng.normal(0.0, np.sqrt(2.0 / hidden), (channels, hidden)),
                         requires_grad=True)
        self.b2 = Tensor(np.zeros(channels), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return pointwise_conv(ad.gelu(pointwise_conv(x, self.w1, self.b1)), self.w2, self.b2)


class RayLayer(Module):
    """Residual block: spectral modulation by the ray map, then a
    channel-mixing MLP, both sub-blocks pre-normalized."""

    def __init__(self, channels: int, n_origins: int = 12, rng=None, field: RayField = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.channels = channels
        self.field = field if field is not None else RayField(n_origins)
        self.norm1 = LayerNorm(channels)
        self.norm2 = LayerNorm(channels)
        self.mlp = MLP(channels, rng)

    def forward(self, x: Tensor) -> tuple[Tensor, AttenuationMap]:
        if x.shape[1] != self.channels:
            raise ShapeError(f"ray layer built for {self.channels} channels, got {x.shape[1]}")
        h, w = x.shape[2], x.shape[3]
        grid = pixel_grid(h, w)
        dist = distance_matrix(self.field.origins, grid.as_tensor())
        amap = attenuation(dist, self.field, extents=(h, w))
        pre = self.norm1.forward(x)
        x = ad.add(x, spectral_modulate(pre, ad.reshape(amap.combined, (h, w))))
        return ad.add(x, self.mlp.forward(self.norm2.forward(x))), amap


class RayEncoder(Module):
    """Projects the deepest pyramid map down to the token width, applies a
    stack of ray layers and emits a row-major token sequence."""

    def __init__(self, in_channels: int, d_model: int = 256, n_layers: int = 3,
                 n_origins: int = 12, rng=None):
        rng = rng if rng is not None else np.random.default_rng(0)
        if n_layers < 0:
            raise ConfigError(f"layer count must be nonnegative, got {n_layers}")
        self.d_model = d_model
        self.proj = Affine(rng.normal(0.0, np.sqrt(2.0 / in_channels), (d_model, in_channels)),
                           d_model)
        self.layers = [RayLayer(d_model, n_origins=n_origins, rng=rng) for _ in range(n_layers)]

    def forward(self, deepest: Tensor) -> tuple[Tensor, list[AttenuationMap]]:
        x = pointwise_conv(deepest, self.proj.w, self.proj.b)
        maps = []
        for layer in self.layers:
            x, amap = layer.forward(x)
            maps.append(amap)
        n, d, h, w = x.shape
        tokens = ad.reshape(ad.transpose(x, (0, 2, 3, 1)), (n, h * w, d))
        return tokens, maps
