"""Finite-difference verification of the backward pass.

Every probe builds a scalar loss (a fixed random weighting of an op or
module output) over double-precision leaf inputs, runs one taped backward
pass, then compares sampled coordinates of the analytic gradients against
central differences.  The relative error metric is

    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8)

and a probe passes when its worst sampled coordinate stays below the
tolerance.  Probes that sit on a kink for an unlucky draw (GELU near 0,
distances near coincidence) are redrawn up to three times.

Model parameters are far too numerous to difference exhaustively; probes
sample a handful of coordinates per tensor, which is what makes the whole
suite finish in seconds while still touching every backward rule.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import ops
from .autodiff import Tape, Tensor, backward, precision
from .backbone import (
    Backbone,
    BackboneConfig,
    ExtractStage,
    ModulationBlock,
    Stem,
    WaveFilterPair,
    WavePool,
    wave_decompose,
)
from .errors import ConfigError
from .model import ModelConfig, WaveletClassifier, cross_entropy
from .rays import RayEncoder, RayField, RayLayer, attenuation, distance_matrix, pixel_grid, psf, spectral_modulate

DEFAULT_TOL = 1e-4
DEFAULT_STEP = 1e-5


def _weighting(rng, shape) -> Tensor:
    return Tensor(rng.normal(0.0, 1.0, shape))


def _scalarize(out, rng) -> "callable":
    """Wrap a tensor-valued fn into a fixed random weighted sum."""
    weights = _weighting(rng, out.shape)
    return lambda t: ad.reduce_sum(ad.mul(t, weights))


def finite_diff_check(builder, seed: int = 0, n_samples: int = 8, step: float = DEFAULT_STEP,
                      tol: float = DEFAULT_TOL, attempts: int = 3) -> dict[str, float]:
    """Check one probe; returns worst relative error per input name.

    ``builder(rng)`` returns ``(fn, inputs)`` where ``fn()`` recomputes the
    scalar loss from the current data of the ``inputs`` dict.  Runs in
    double precision regardless of the ambient mode.
    """
    last: dict[str, float] = {}
    with precision("double"):
        for attempt in range(attempts):
            rng = np.random.default_rng(seed + 1000 * attempt)
            fn, inputs = builder(rng)
            for t in inputs.values():
                t.grad = None
            with Tape() as tape:
                loss = fn()
            backward(loss, tape)
            coord_rng = np.random.default_rng(seed + 1000 * attempt + 1)
            report: dict[str, float] = {}
            for name, t in inputs.items():
                if not t.requires_grad:
                    continue
                flat = t.data.reshape(-1)
                grad = (t.grad if t.grad is not None else np.zeros_like(t.data)).reshape(-1)
                count = min(n_samples, flat.size)
                picks = coord_rng.choice(flat.size, size=count, replace=False)
                worst = 0.0
                for i in picks:
                    saved = flat[i]
                    flat[i] = saved + step
                    up = fn().item()
                    flat[i] = saved - step
                    down = fn().item()
                    flat[i] = saved
                    numeric = (up - down) / (2.0 * step)
                    analytic = float(grad[i])
                    err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
                    worst = max(worst, err)
                report[name] = worst
            last = report
            if all(v <= tol for v in report.values()):
                return report
    return last


# ---------------------------------------------------------------------------
# probe registry


def _probe_add(rng):
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(1, 4)), requires_grad=True)  # broadcast path
    s = _scalarize(ad.add(a, b), rng)
    return lambda: s(ad.add(a, b)), {"a": a, "b": b}


def _probe_mul(rng):
    a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 1)), requires_grad=True)
    s = _scalarize(ad.mul(a, b), rng)
    return lambda: s(ad.mul(a, b)), {"a": a, "b": b}


def _probe_exp(rng):
    x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    s = _scalarize(ad.exp(x), rng)
    return lambda: s(ad.exp(x)), {"x": x}


def _probe_reciprocal(rng):
    x = Tensor(rng.uniform(0.5, 2.0, size=(4, 5)), requires_grad=True)
    s = _scalarize(ad.reciprocal(x), rng)
    return lambda: s(ad.reciprocal(x)), {"x": x}


def _probe_matmul(rng):
    a = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
    s = _scalarize(ad.matmul(a, b), rng)
    return lambda: s(ad.matmul(a, b)), {"a": a, "b": b}


def _probe_shape_ops(rng):
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    y = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)

    def run():
        r = ad.reshape(x, (2, 12))
        t = ad.reshape(ad.transpose(y, (0, 2, 1)), (2, 12))
        return ad.concat([r, t], axis=0)

    s = _scalarize(run(), rng)
    return lambda: s(run()), {"x": x, "y": y}


def _probe_reductions(rng):
    x = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)

    def run():
        return ad.add(
            ad.reduce_sum(x, axis=(0, 2)),
            ad.scale(ad.reduce_mean(x, axis=(0, 2)), 2.0),
        )

    s = _scalarize(run(), rng)
    return lambda: s(run()), {"x": x}


def _probe_softmax(rng):
    x = Tensor(rng.normal(size=(4, 7)), requires_grad=True)
    s = _scalarize(ad.softmax(x, axis=1), rng)
    return lambda: s(ad.softmax(x, axis=1)), {"x": x}


def _probe_gelu(rng):
    x = Tensor(rng.normal(size=(3, 6)) * 1.5, requires_grad=True)
    s = _scalarize(ad.gelu(x), rng)
    return lambda: s(ad.gelu(x)), {"x": x}


def _probe_layer_norm(rng):
    x = Tensor(rng.normal(size=(2, 5, 3, 3)), requires_grad=True)
    gain = Tensor(rng.normal(1.0, 0.2, size=5), requires_grad=True)
    shift = Tensor(rng.normal(0.0, 0.2, size=5), requires_grad=True)
    s = _scalarize(ad.layer_norm(x, gain, shift), rng)
    return lambda: s(ad.layer_norm(x, gain, shift)), {"x": x, "gain": gain, "shift": shift}


def _probe_global_avg_pool(rng):
    x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
    s = _scalarize(ad.global_avg_pool(x), rng)
    return lambda: s(ad.global_avg_pool(x)), {"x": x}


def _probe_conv2d(rng):
    x = Tensor(rng.normal(size=(1, 2, 6, 6)), requires_grad=True)
    k = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    run = lambda: ops.conv2d(x, k, stride=(2, 2), padding=(1, 1))
    s = _scalarize(run(), rng)
    return lambda: s(run()), {"x": x, "kernel": k}


def _probe_conv2d_grouped(rng):
    x = Tensor(rng.normal(size=(2, 4, 5, 5)), requires_grad=True)
    k = Tensor(rng.normal(size=(6, 2, 3, 3)), requires_grad=True)
    run = lambda: ops.conv2d(x, k, stride=(1, 1), padding=(1, 1), groups=2)
    s = _scalarize(run(), rng)
    return lambda: s(run()), {"x": x, "kernel": k}


def _probe_pointwise(rng):
    x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=5), requires_grad=True)
    run = lambda: ops.pointwise_conv(x, w, b)
    s = _scalarize(run(), rng)
    return lambda: s(run()), {"x": x, "w": w, "b": b}


def _probe_sep_conv1d(rng):
    x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
    taps = Tensor(rng.normal(size=5), requires_grad=True)

    def run():
        a = ops.sep_conv1d(x, taps, axis=3, stride=1, pad_mode="symmetric")
        return ops.sep_conv1d(a, taps, axis=2, stride=2, pad_mode="zero")

    s = _scalarize(run(), rng)
    return lambda: s(run()), {"x": x, "taps": taps}


def _probe_distance_matrix(rng):
    o = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    c = Tensor(rng.normal(size=(9, 2)), requires_grad=True)
    run = lambda: distance_matrix(o, c)
    s = _scalarize(run(), rng)
    return lambda: s(run()), {"origins": o, "coords": c}


def _probe_spectral_modulate(rng):
    f = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
    m = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    run = lambda: spectral_modulate(f, m)
    s = _scalarize(run(), rng)
    return lambda: s(run()), {"f": f, "mask": m}


def _probe_cross_entropy(rng):
    logits = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    labels = rng.integers(0, 4, size=6)
    return lambda: cross_entropy(logits, labels), {"logits": logits}


def _probe_psf(rng):
    d = Tensor(np.abs(rng.normal(size=(3, 8))) + 0.1, requires_grad=True)
    sigma = Tensor(rng.uniform(0.5, 1.5, size=3), requires_grad=True)
    run = lambda: psf(d, sigma)
    s = _scalarize(run(), rng)
    return lambda: s(run()), {"dist": d, "sigma": sigma}


OP_PROBES = [
    ("add", _probe_add),
    ("mul", _probe_mul),
    ("exp", _probe_exp),
    ("reciprocal", _probe_reciprocal),
    ("matmul", _probe_matmul),
    ("shape_ops", _probe_shape_ops),
    ("reductions", _probe_reductions),
    ("softmax", _probe_softmax),
    ("gelu", _probe_gelu),
    ("layer_norm", _probe_layer_norm),
    ("global_avg_pool", _probe_global_avg_pool),
    ("conv2d", _probe_conv2d),
    ("conv2d_grouped", _probe_conv2d_grouped),
    ("pointwise_conv", _probe_pointwise),
    ("sep_conv1d", _probe_sep_conv1d),
    ("distance_matrix", _probe_distance_matrix),
    ("spectral_modulate", _probe_spectral_modulate),
    ("cross_entropy", _probe_cross_entropy),
    ("psf", _probe_psf),
]


def _probe_stem(rng):
    stem = Stem(4, rng)
    x = Tensor(rng.normal(size=(1, 3, 14, 14)), requires_grad=True)
    run = lambda: stem.forward(x)
    s = _scalarize(run(), rng)
    inputs = {"x": x, **dict(stem.named_params("stem"))}
    return lambda: s(run()), inputs


def _probe_wave_decompose(rng):
    filters = WaveFilterPair()
    filters.low = Tensor(rng.normal(size=3), requires_grad=True)
    filters.high = Tensor(rng.normal(size=5), requires_grad=True)
    x = Tensor(rng.normal(size=(1, 2, 6, 6)), requires_grad=True)

    def run():
        ll, lh, hl, hh = wave_decompose(x, filters, stride=2)
        return ad.concat([ll, lh, hl, hh], axis=1)

    s = _scalarize(run(), rng)
    return lambda: s(run()), {"x": x, "low": filters.low, "high": filters.high}


def _probe_extract_stage(rng):
    stage = ExtractStage(4, 6, rng)
    x = Tensor(rng.normal(size=(1, 4, 8, 8)), requires_grad=True)
    run = lambda: stage.forward(x)
    s = _scalarize(run(), rng)
    return lambda: s(run()), {"x": x, **dict(stage.named_params("ex"))}


def _probe_modulation_block(rng):
    block = ModulationBlock(8, rng)
    x = Tensor(rng.normal(size=(1, 8, 8, 8)), requires_grad=True)
    run = lambda: block.forward(x)
    s = _scalarize(run(), rng)
    return lambda: s(run()), {"x": x, **dict(block.named_params("blk"))}


def _probe_wave_pool(rng):
    pool = WavePool(4, 6, rng, stride=2)
    x = Tensor(rng.normal(size=(1, 4, 6, 6)), requires_grad=True)
    run = lambda: pool.forward(x)
    s = _scalarize(run(), rng)
    return lambda: s(run()), {"x": x, **dict(pool.named_params("pool"))}


def _probe_attenuation(rng):
    field = RayField(4)
    field.origins = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    field.log_sigma = Tensor(rng.normal(0.0, 0.3, size=4), requires_grad=True)
    field.log_alpha = Tensor(rng.normal(0.0, 0.3, size=4), requires_grad=True)
    field.beta = Tensor(rng.normal(1.0, 0.2, size=1), requires_grad=True)
    grid = pixel_grid(4, 4)

    def run():
        d = distance_matrix(field.origins, Tensor(grid.coords))
        amap = attenuation(d, field, extents=(4, 4))
        return amap.combined

    s = _scalarize(run(), rng)
    inputs = dict(field.named_params("field"))
    return lambda: s(run()), inputs


def _probe_ray_layer(rng):
    layer = RayLayer(4, n_origins=3, rng=rng)
    x = Tensor(rng.normal(size=(1, 4, 8, 8)), requires_grad=True)
    run = lambda: layer.forward(x)[0]
    s = _scalarize(run(), rng)
    return lambda: s(run()), {"x": x, **dict(layer.named_params("ray"))}


def _probe_encoder(rng):
    enc = RayEncoder(6, d_model=4, n_layers=1, n_origins=3, rng=rng)
    x = Tensor(rng.normal(size=(1, 6, 4, 4)), requires_grad=True)
    run = lambda: enc.forward(x)[0]
    s = _scalarize(run(), rng)
    return lambda: s(run()), {"x": x, **dict(enc.named_params("enc"))}


BLOCK_PROBES = [
    ("stem", _probe_stem),
    ("wave_decompose", _probe_wave_decompose),
    ("extract_stage", _probe_extract_stage),
    ("modulation_block", _probe_modulation_block),
    ("wave_pool", _probe_wave_pool),
    ("attenuation", _probe_attenuation),
    ("ray_layer", _probe_ray_layer),
    ("encoder", _probe_encoder),
]


def _probe_model(rng):
    cfg = ModelConfig(
        backbone=BackboneConfig(
            stem_channels=4,
            extraction_channels=(4, 4, 8),
            refinement_channels=(8, 8, 8),
            blocks_per_stage=1,
            refinement_stages=2,
        ),
        rays=3,
        d_model=8,
        classes=3,
        input_extent=32,
        n_origins=3,
    )
    model = WaveletClassifier(cfg, seed=int(rng.integers(0, 2**31)))
    images = Tensor(rng.normal(0.5, 0.25, size=(2, 3, 32, 32)), requires_grad=True)
    labels = rng.integers(0, 3, size=2)
    run = lambda: cross_entropy(model.forward(images), labels)
    return run, {"images": images, **model.parameters()}


MODEL_PROBES = [("classifier", _probe_model)]

_SCOPES = {"op": OP_PROBES, "block": BLOCK_PROBES, "model": MODEL_PROBES}


def run_scope(scope: str, seed: int = 0, tol: float = DEFAULT_TOL,
              n_samples: int = 8) -> list[tuple[str, str, float]]:
    """Run every probe of a scope; returns (probe, input, worst error) rows."""
    if scope not in _SCOPES:
        raise ConfigError(f"scope must be one of {sorted(_SCOPES)}, got {scope!r}")
    rows = []
    for name, builder in _SCOPES[scope]:
        report = finite_diff_check(builder, seed=seed, tol=tol, n_samples=n_samples)
        for input_name, err in sorted(report.items()):
            rows.append((name, input_name, err))
    return rows
