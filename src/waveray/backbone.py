"""The wavelet backbone's layers, which :mod:`waveray.model` assembles.

Every decomposition is separable and depthwise: a short learnable low
filter and a longer zero-sum high filter slide along width then height,
shared across all channels of the owning block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import LayerNorm, Module, Tensor
from .errors import ConfigError, ShapeError, check_field_types
from .ops import conv2d, pointwise_conv, sep_conv1d

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

    def decompose(self, f, stride: int = 1, rounds: int = 1, bands=None) -> Tensor:
        """Separable bands of ``f``, stacked on the channel axis, as one tape node.

        A band's path is a (width filter, height filter) pair of indices,
        0 for low and 1 for high.  By default the four bands LL, LH, HL, HH
        come out in that order; see :func:`ops.sep_conv1d` for ``rounds``
        and ``bands``.  Symmetric padding keeps stride 1 extent-preserving
        and stride 2 an exact halving of even extents.
        """
        if stride == 2 and (f.shape[2] % 2 or f.shape[3] % 2):
            raise ShapeError(
                f"stride-2 decomposition needs even extents, got {f.shape[2]}x{f.shape[3]}"
            )
        return sep_conv1d(f, (self.low, self.high), axis=(3, 2), stride=stride, rounds=rounds,
                          bands=bands)


BAND_PATHS = ((0, 0), (0, 1), (1, 0), (1, 1))  # LL, LH, HL, HH


def wave_decompose(f, filters: WaveFilterPair, stride: int = 1):
    """Two-level separable decomposition into (LL, LH, HL, HH) bands.

    The first subscript names the width-axis filter, the second the
    height-axis filter.  Each band is a tensor of its own, the same values
    the stacked :meth:`WaveFilterPair.decompose` computes.
    """
    return tuple(filters.decompose(f, stride, bands=((p,),)) for p in BAND_PATHS)


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
        check_field_types(self)
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
        x = pointwise_conv(self.filters.decompose(x, stride=2), self.mix)
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
        return self.filters.decompose(narrow, stride=1, rounds=2)

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[1] != self.channels:
            raise ShapeError(f"block built for {self.channels} channels, got {x.shape[1]}")
        h = self.norm.forward(x)
        a = self.context(h)
        v = pointwise_conv(h, self.value_proj)
        return ad.add(x, pointwise_conv(ad.mul(a, v), self.out_proj))


PAIRS = (((0, 0), (1, 1)), ((0, 1), (1, 0)))  # LL + HH, LH + HL


class WavePool(Module):
    """Pair-fusion pooling: decompose, add complementary bands (LL+HH and
    LH+HL), mix 2C down to the next width, then normalize."""

    def __init__(self, cin: int, cout: int, rng, stride: int = 2):
        self.filters = WaveFilterPair()
        self.mix = _he_pointwise(rng, cout, 2 * cin)
        self.norm = LayerNorm(cout)
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        fused = self.filters.decompose(x, stride=self.stride, bands=PAIRS)
        return self.norm.forward(pointwise_conv(fused, self.mix))


class FeaturePyramid(list):
    """(stage, map) pairs of one forward pass, shallow to deep."""

    @property
    def deepest(self) -> Tensor:
        return self[-1][1]

