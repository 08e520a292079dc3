"""The pyramidal wavelet backbone.

A wide-field stem halves the input, two decimating wavelet extraction
stages quarter it again, and a sequence of refinement stages (modulation
blocks followed by pair-fusion pooling) grows the channel count.  Every
decomposition is separable and depthwise: a short learnable low filter and
a longer zero-sum high filter slide along width then height, shared across
all channels of the owning block.

All refinement pools except the last halve the map; the last one fuses
bands at stride 1, so a two-stage backbone ends at 1/16 of the input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import LayerNorm, Module, Tensor
from .errors import ConfigError, ShapeError
from .ops import conv2d, pointwise_conv, sep_conv1d
from .rays import RayField, RayLayer

DEFAULT_LOW = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
DEFAULT_HIGH = (-0.25, -0.5, 1.5, -0.5, -0.25)


class WaveFilterPair(Module):
    """Learnable low/high tap vectors (lengths 3 and 5), shared by every
    channel of the owning block.

    The low filter starts as a plain average and the high filter as a
    zero-sum difference, so a constant map decomposes to (c, 0, 0, 0)
    before any training.
    """

    def __init__(self):
        self.low = Tensor(np.array(DEFAULT_LOW), requires_grad=True)
        self.high = Tensor(np.array(DEFAULT_HIGH), requires_grad=True)


def wave_decompose(f, filters: WaveFilterPair, stride: int = 1):
    """Two-level separable decomposition into (LL, LH, HL, HH) bands.

    The first subscript names the width-axis filter, the second the
    height-axis filter.  Depthwise with shared taps; symmetric padding
    keeps stride 1 extent-preserving and stride 2 an exact halving of
    even extents.
    """
    if stride == 2 and (f.shape[2] % 2 or f.shape[3] % 2):
        raise ShapeError(
            f"stride-2 decomposition needs even extents, got {f.shape[2]}x{f.shape[3]}"
        )
    fl = sep_conv1d(f, filters.low, axis=3, stride=stride)
    fh = sep_conv1d(f, filters.high, axis=3, stride=stride)
    ll = sep_conv1d(fl, filters.low, axis=2, stride=stride)
    lh = sep_conv1d(fl, filters.high, axis=2, stride=stride)
    hl = sep_conv1d(fh, filters.low, axis=2, stride=stride)
    hh = sep_conv1d(fh, filters.high, axis=2, stride=stride)
    return ll, lh, hl, hh


@dataclass
class BackboneConfig:
    """Channel plan and depth of the backbone.

    ``extraction_channels`` runs (stem out, stage 1 out, stage 2 out);
    ``refinement_channels`` has one more entry than ``refinement_stages``
    and must start where extraction ends.
    """

    stem_channels: int = 32
    extraction_channels: tuple = (32, 48, 64)
    refinement_channels: tuple = (64, 512, 4096)
    blocks_per_stage: int = 6
    refinement_stages: int = 2
    ray_layers_per_stage: int = 1
    bottleneck_factor: int = 4

    def validate(self) -> None:
        ec = tuple(self.extraction_channels)
        rc = tuple(self.refinement_channels)
        if self.stem_channels < 1:
            raise ConfigError(f"stem_channels must be positive, got {self.stem_channels}")
        if len(ec) != 3:
            raise ConfigError(f"extraction_channels needs 3 entries, got {ec}")
        if ec[0] != self.stem_channels:
            raise ConfigError(f"extraction starts at {ec[0]} but the stem emits {self.stem_channels}")
        if self.refinement_stages < 1:
            raise ConfigError(f"need at least one refinement stage, got {self.refinement_stages}")
        if len(rc) != self.refinement_stages + 1:
            raise ConfigError(
                f"refinement_channels needs {self.refinement_stages + 1} entries, got {rc}"
            )
        if rc[0] != ec[-1]:
            raise ConfigError(f"refinement starts at {rc[0]} but extraction ends at {ec[-1]}")
        if any(c < 1 for c in ec + rc):
            raise ConfigError("all channel counts must be positive")
        if self.blocks_per_stage < 1:
            raise ConfigError(f"blocks_per_stage must be positive, got {self.blocks_per_stage}")
        if self.bottleneck_factor < 1:
            raise ConfigError(f"bottleneck_factor must be positive, got {self.bottleneck_factor}")
        for c in rc[:-1]:
            if c % self.bottleneck_factor:
                raise ConfigError(
                    f"stage width {c} is not divisible by the bottleneck factor "
                    f"{self.bottleneck_factor}"
                )
        if self.ray_layers_per_stage < 0:
            raise ConfigError("ray_layers_per_stage must be nonnegative")


def _he_conv(rng, cout: int, cin: int, kh: int, kw: int) -> Tensor:
    std = np.sqrt(2.0 / (cin * kh * kw))
    return Tensor(rng.normal(0.0, std, (cout, cin, kh, kw)), requires_grad=True)


def _he_pointwise(rng, cout: int, cin: int) -> Tensor:
    return Tensor(rng.normal(0.0, np.sqrt(2.0 / cin), (cout, cin)), requires_grad=True)


class Stem(Module):
    """7x7 stride-2 convolution (pad 3) over RGB, then norm and GELU."""

    def __init__(self, channels: int, rng):
        self.kernel = _he_conv(rng, channels, 3, 7, 7)
        self.norm = LayerNorm(channels)

    def forward(self, images: Tensor) -> Tensor:
        if images.ndim != 4 or images.shape[1] != 3:
            raise ShapeError(f"stem expects an Nx3xHxW batch, got shape {images.shape}")
        h, w = images.shape[2], images.shape[3]
        if h < 14 or w < 14 or h % 2 or w % 2:
            raise ShapeError(f"stem needs even extents of at least 14, got {h}x{w}")
        x = conv2d(images, self.kernel, stride=(2, 2), padding=(3, 3))
        return ad.gelu(self.norm.forward(x))


class ExtractStage(Module):
    """Decimating decomposition: four stride-2 bands, concatenated and
    mixed down to the stage's output width, then norm and GELU."""

    def __init__(self, cin: int, cout: int, rng):
        self.filters = WaveFilterPair()
        self.mix = _he_pointwise(rng, cout, 4 * cin)
        self.norm = LayerNorm(cout)

    def forward(self, x: Tensor) -> Tensor:
        bands = wave_decompose(x, self.filters, stride=2)
        x = pointwise_conv(ad.concat(bands, axis=1), self.mix)
        return ad.gelu(self.norm.forward(x))


class ModulationBlock(Module):
    """Pre-normalized residual block gating a value branch with a wavelet
    context branch.

    The context branch bottlenecks the channels by ``bottleneck_factor``,
    then runs two stacked stride-1 decomposition rounds sharing one filter
    pair: the first round splits the bottleneck map into four bands, the
    second re-filters each band along its own low/high path.  Concatenated
    they restore the full width and gate the value branch elementwise.
    """

    def __init__(self, channels: int, rng, bottleneck: int = 4):
        if channels % bottleneck:
            raise ConfigError(f"channels {channels} not divisible by bottleneck {bottleneck}")
        self.channels = channels
        self.norm = LayerNorm(channels)
        self.filters = WaveFilterPair()
        self.context_proj = _he_pointwise(rng, channels // bottleneck, channels)
        self.value_proj = _he_pointwise(rng, channels, channels)
        self.out_proj = _he_pointwise(rng, channels, channels)

    def context(self, h: Tensor) -> Tensor:
        narrow = pointwise_conv(h, self.context_proj)
        bands = wave_decompose(narrow, self.filters, stride=1)
        paths = (
            (self.filters.low, self.filters.low),
            (self.filters.low, self.filters.high),
            (self.filters.high, self.filters.low),
            (self.filters.high, self.filters.high),
        )
        refined = [
            sep_conv1d(sep_conv1d(band, fw, axis=3, stride=1), fh, axis=2, stride=1)
            for band, (fw, fh) in zip(bands, paths)
        ]
        return ad.concat(refined, axis=1)

    def forward(self, x: Tensor, context_override: Tensor = None) -> Tensor:
        if x.shape[1] != self.channels:
            raise ShapeError(f"block built for {self.channels} channels, got {x.shape[1]}")
        h = self.norm.forward(x)
        a = self.context(h) if context_override is None else context_override
        v = pointwise_conv(h, self.value_proj)
        return ad.add(x, pointwise_conv(ad.mul(a, v), self.out_proj))


class WavePool(Module):
    """Pair-fusion pooling: decompose, add complementary bands (LL+HH and
    LH+HL), mix 2C down to the next width, then normalize."""

    def __init__(self, cin: int, cout: int, rng, stride: int = 2):
        self.filters = WaveFilterPair()
        self.mix = _he_pointwise(rng, cout, 2 * cin)
        self.norm = LayerNorm(cout)
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        ll, lh, hl, hh = wave_decompose(x, self.filters, stride=self.stride)
        fused = ad.concat([ad.add(ll, hh), ad.add(lh, hl)], axis=1)
        return self.norm.forward(pointwise_conv(fused, self.mix))


class FeaturePyramid:
    """Stage outputs of one forward pass, shallow to deep."""

    __slots__ = ("entries",)

    def __init__(self, entries: list[tuple[int, Tensor]]):
        self.entries = entries

    @property
    def deepest(self) -> Tensor:
        return self.entries[-1][1]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


class _RefinementStage(Module):
    def __init__(self, cin: int, cout: int, cfg: BackboneConfig, rng, n_ray_layers: int,
                 n_origins: int, shared_field: RayField, last: bool):
        self.blocks = [
            ModulationBlock(cin, rng, cfg.bottleneck_factor) for _ in range(cfg.blocks_per_stage)
        ]
        self.rays = [
            RayLayer(cin, n_origins=n_origins, rng=rng, field=shared_field)
            for _ in range(n_ray_layers)
        ]
        self.pool = WavePool(cin, cout, rng, stride=1 if last else 2)


class Backbone(Module):
    """Stem, extraction and refinement composed into one feature pyramid."""

    def __init__(self, cfg: BackboneConfig, rng, ray_layer_counts=None, n_origins: int = 12,
                 shared_field: RayField = None):
        cfg.validate()
        self.cfg = cfg
        counts = list(ray_layer_counts or [0] * cfg.refinement_stages)
        if len(counts) != cfg.refinement_stages:
            raise ConfigError(
                f"got {len(counts)} ray layer counts for {cfg.refinement_stages} stages"
            )
        self.stem = Stem(cfg.stem_channels, rng)
        ec = tuple(cfg.extraction_channels)
        self.extracts = [ExtractStage(ec[0], ec[1], rng), ExtractStage(ec[1], ec[2], rng)]
        rc = tuple(cfg.refinement_channels)
        last = cfg.refinement_stages - 1
        self.stages = [
            _RefinementStage(rc[i], rc[i + 1], cfg, rng, counts[i], n_origins, shared_field,
                             last=(i == last))
            for i in range(cfg.refinement_stages)
        ]

    def forward(self, images: Tensor) -> tuple[FeaturePyramid, list]:
        x = self.stem.forward(images)
        for stage in self.extracts:
            x = stage.forward(x)
        entries = []
        maps = []
        n_stages = len(self.stages)
        for i, stage in enumerate(self.stages):
            for block in stage.blocks:
                x = block.forward(x)
            for ray in stage.rays:
                x, amap = ray.forward(x)
                maps.append(amap)
            if i < n_stages - 1:
                entries.append((i, x))
                x = stage.pool.forward(x)
            else:
                x = stage.pool.forward(x)
                entries.append((i, x))
        return FeaturePyramid(entries), maps
