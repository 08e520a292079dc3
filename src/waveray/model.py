"""Classifier assembly: wavelet backbone, optional ray encoder, linear head.

A wide-field stem halves the input, two decimating wavelet extraction
stages quarter it again, and a sequence of refinement stages (modulation
blocks, ray layers, pair-fusion pooling) grows the channel count.  All
refinement pools except the last halve the map; the last one fuses bands
at stride 1, so a two-stage backbone ends at 1/16 of the input.

The ray budget k (0..3) switches layers on in a fixed order: k >= 1 adds
ray layers to the first refinement stage, k >= 2 to the second, and k = 3
adds the token encoder (projection plus one ray layer) between the
backbone and the head.  With k < 3 the head sits on global average
pooling of the deepest map; with k = 3 it sits on mean-pooled tokens.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Affine, Module, Tensor, _as_tensor, _record_op, check_state
from .backbone import BackboneConfig, ExtractStage, FeaturePyramid, ModulationBlock, Stem, WavePool
from .errors import ConfigError, DataError, ShapeError, check_field_types
from .rays import RayEncoder, RayField, RayLayer


@dataclass
class ModelConfig:
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    classes: int = 1000
    input_extent: int = 224
    rays: int = 0
    d_model: int = 256
    n_origins: int = 12
    share_ray_fields: bool = False

    def validate(self) -> None:
        check_field_types(self)
        self.backbone.validate()
        if not 0 <= self.rays <= 3:
            raise ConfigError(f"rays must be between 0 and 3, got {self.rays}")
        if self.classes < 2:
            raise ConfigError(f"need at least two classes, got {self.classes}")
        if self.d_model < 1:
            raise ConfigError(f"d_model must be positive, got {self.d_model}")
        if self.n_origins < 1:
            raise ConfigError(f"n_origins must be positive, got {self.n_origins}")
        # stem /2, extraction /4, then one halving per refinement stage
        # except the last: the input must survive every decimation evenly,
        # and the deepest map needs 2 pixels for the filters' symmetric padding.
        divisor = 8 * (2 ** (self.backbone.refinement_stages - 1))
        if self.input_extent < 2 * divisor or self.input_extent % divisor:
            raise ConfigError(
                f"input extent {self.input_extent} must be a multiple of {divisor} "
                f"and at least {2 * divisor}"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        # JSON stores tuples as lists
        bb = {k: tuple(v) if isinstance(v, list) else v for k, v in dict(d["backbone"]).items()}
        rest = {k: v for k, v in d.items() if k != "backbone"}
        return cls(backbone=BackboneConfig(**bb), **rest)


def table1_config(rays: int = 0, classes: int = 1000) -> ModelConfig:
    """The full-scale configuration, which is the dataclass defaults: 224
    input, 4096-wide deepest stage."""
    return ModelConfig(rays=rays, classes=classes)


def desk_config(rays: int = 0, classes: int = 3, input_extent: int = 32) -> ModelConfig:
    """A small configuration that trains in seconds on a CPU."""
    return ModelConfig(
        backbone=BackboneConfig(
            stem_channels=8,
            extraction_channels=(8, 12, 16),
            refinement_channels=(16, 32, 64),
            blocks_per_stage=2,
            refinement_stages=2,
        ),
        rays=rays,
        d_model=32,
        classes=classes,
        input_extent=input_extent,
    )


def cross_entropy(logits, labels) -> Tensor:
    """Mean cross-entropy of integer labels under row-wise softmax.

    Computed through a log-sum-exp shift, so large logits do not overflow.
    """
    logits = _as_tensor(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be (N, classes), got {logits.shape}")
    n, k = logits.shape
    if n == 0:
        raise ShapeError("cross-entropy of an empty batch is undefined")
    if labels.shape != (n,):
        raise ShapeError(f"labels must have shape ({n},), got {labels.shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise DataError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.min() < 0 or labels.max() >= k:
        raise DataError(f"labels must lie in [0, {k}), got range "
                        f"[{labels.min()}, {labels.max()}]")
    z = logits.data
    m = z.max(axis=1, keepdims=True)
    shifted = z - m
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True)) + m
    picked = z[np.arange(n), labels]
    out = np.asarray((lse.ravel() - picked).mean(), dtype=z.dtype)

    def bw(g):
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(n), labels] -= 1.0
        return (g * p / n,)

    return _record_op(out, (logits,), bw)


class WaveletClassifier(Module):
    """The full model: wavelet backbone, optional encoder, linear head."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        config.validate()
        self.config = config
        rng = np.random.default_rng(seed)
        bb = config.backbone
        shared = RayField(config.n_origins) if (config.share_ray_fields and config.rays) else None
        self.stem = Stem(bb.stem_channels, rng)
        ec, rc = tuple(bb.extraction_channels), tuple(bb.refinement_channels)
        self.extracts = [ExtractStage(ec[0], ec[1], rng), ExtractStage(ec[1], ec[2], rng)]
        self.stages = []
        for i in range(bb.refinement_stages):
            stage = Module()
            stage.blocks = [ModulationBlock(rc[i], rng, bb.bottleneck_factor)
                            for _ in range(bb.blocks_per_stage)]
            stage.rays = [RayLayer(rc[i], rng, n_origins=config.n_origins, field=shared)
                          for _ in range(bb.ray_layers_per_stage if i < min(config.rays, 2) else 0)]
            stage.pool = WavePool(rc[i], rc[i + 1], rng, stride=1 if i == len(rc) - 2 else 2)
            self.stages.append(stage)
        if config.rays >= 3:
            self.encoder = RayEncoder(rc[-1], d_model=config.d_model, n_layers=1,
                                      n_origins=config.n_origins, rng=rng)
            if shared is not None:
                for layer in self.encoder.layers:
                    layer.field = shared
            head_in = config.d_model
        else:
            self.encoder = None
            head_in = rc[-1]
        self.head = Affine(rng.normal(0.0, 0.02, (head_in, config.classes)), config.classes)
        self._params = dict(self.named_params())

    def parameters(self) -> dict[str, Tensor]:
        return self._params

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.grad = None

    def _check_images(self, images: Tensor) -> None:
        e = self.config.input_extent
        if images.ndim != 4 or images.shape[1] != 3:
            raise ShapeError(f"expected an Nx3x{e}x{e} batch, got shape {images.shape}")
        if images.shape[2] != e or images.shape[3] != e:
            raise ConfigError(
                f"model configured for {e}x{e} inputs, got {images.shape[2]}x{images.shape[3]}"
            )

    def forward(self, images) -> Tensor:
        return self.forward_with_aux(images)[0]

    def forward_with_aux(self, images) -> tuple[Tensor, dict]:
        images = _as_tensor(images)
        self._check_images(images)
        if images.dtype != self.head.w.dtype:  # numpy would promote float32 to float64
            raise ConfigError(f"images are {images.dtype}, but the model's parameters are "
                              f"{self.head.w.dtype}")
        x = self.stem.forward(images)
        for stage in self.extracts:
            x = stage.forward(x)
        pyramid = FeaturePyramid()
        maps = []
        for i, stage in enumerate(self.stages):
            for block in stage.blocks:
                x = block.forward(x)
            for ray in stage.rays:
                x, amap = ray.forward(x)
                maps.append(amap)
            if i < len(self.stages) - 1:
                pyramid.append((i, x))
            x = stage.pool.forward(x)
        pyramid.append((i, x))  # the last stage's entry is its pooled map
        if self.encoder is not None:
            tokens, emaps = self.encoder.forward(x)
            maps += emaps
            pooled = ad.reduce_mean(tokens, axis=1)
        else:
            pooled = ad.global_avg_pool(x)
        logits = ad.add(ad.matmul(pooled, self.head.w), self.head.b)
        return logits, {"pyramid": pyramid, "maps": maps, "pooled": pooled}

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data for name, p in self._params.items()}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy in each parameter's array; a bad set raises and changes nothing."""
        check_state("state", self._params, arrays)
        for name, p in self._params.items():
            p.data = np.ascontiguousarray(arrays[name], dtype=p.dtype)
            p.grad = None

    def ray_fields(self) -> list[RayField]:
        """Distinct ray fields, in parameter order."""
        return [obj for _, obj in self._walk("", set()) if isinstance(obj, RayField)]


def param_count(config: ModelConfig) -> tuple[dict[str, int], int]:
    """Per-component parameter counts and the total for a configuration.

    Components follow the top-level parameter name segments (stem,
    extract0, stage0, ..., encoder, head).
    """
    model = WaveletClassifier(config, seed=0)
    per: dict[str, int] = {}
    for name, p in model.parameters().items():
        key = name.split(".", 1)[0]
        per[key] = per.get(key, 0) + p.size
    return per, sum(per.values())
