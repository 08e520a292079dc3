"""Finite-difference verification of the backward pass.

Every probe builds a scalar loss (a fixed random weighting of an op or
module output) over double-precision leaf inputs, runs one taped backward
pass, then compares sampled coordinates of the analytic gradients against
central differences.  The relative error metric is

    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8)

with differences of step ``STEP``.  A probe passes when its worst sampled
coordinate stays within the tolerance; a non-finite error (a NaN gradient)
counts as infinite.  Probes that sit on a kink for an unlucky draw (GELU
near 0, distances near coincidence) get up to ``ATTEMPTS`` draws.

Model parameters are far too numerous to difference exhaustively; probes
sample ``N_SAMPLES`` coordinates per tensor, which is what makes the whole
suite finish in seconds while still touching every backward rule.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import autodiff as ad
from . import ops
from .autodiff import Tape, Tensor, backward
from .backbone import (
    PAIRS,
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
from .rays import RayEncoder, RayField, RayLayer, distance_matrix, psf, spectral_modulate

DEFAULT_TOL = 1e-4
STEP = 1e-5
N_SAMPLES = 8
ATTEMPTS = 3


def _weighted(out: Tensor, weights) -> Tensor:
    """A probe's scalar loss: its output itself, or the output's weighted sum."""
    return out if weights is None else ad.reduce_sum(ad.mul(out, weights))


def finite_diff_check(builder, seed: int = 0, tol: float = DEFAULT_TOL) -> dict[str, float]:
    """Check one probe; returns worst relative error per input name.

    ``builder(rng)`` returns ``(run, inputs)`` where ``run()`` recomputes the
    probe's output from the current data of the ``inputs`` dict.  A
    non-scalar output is checked through its sum weighted by standard
    normal draws, taken from ``rng`` after the builder's own draws.  Every
    probe here draws its leaves in float64, so the check runs in double
    precision.
    """
    last: dict[str, float] = {}
    for attempt in range(ATTEMPTS):
        rng = np.random.default_rng(seed + 1000 * attempt)
        run, inputs = builder(rng)
        for t in inputs.values():
            t.grad = None
        with Tape() as tape:
            out = run()
            weights = Tensor(rng.normal(0.0, 1.0, out.shape)) if out.ndim else None
            loss = _weighted(out, weights)
        backward(loss, tape)
        coord_rng = np.random.default_rng(seed + 1000 * attempt + 1)
        report: dict[str, float] = {}
        for name, t in inputs.items():
            if not t.requires_grad:
                continue
            flat = t.data.reshape(-1)
            grad = (t.grad if t.grad is not None else np.zeros_like(t.data)).reshape(-1)
            count = min(N_SAMPLES, flat.size)
            picks = coord_rng.choice(flat.size, size=count, replace=False)
            worst = 0.0
            for i in picks:
                saved = flat[i]
                flat[i] = saved + STEP
                up = _weighted(run(), weights).item()
                flat[i] = saved - STEP
                down = _weighted(run(), weights).item()
                flat[i] = saved
                numeric = (up - down) / (2.0 * STEP)
                analytic = float(grad[i])
                err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
                worst = max(worst, err if np.isfinite(err) else np.inf)
            report[name] = worst
        last = report
        if all(v <= tol for v in report.values()):
            return report
    return last


# ---------------------------------------------------------------------------
# probe registry


def _op_probe(op, **draws):
    """A probe of one op over fresh leaves, drawn in keyword order: a shape
    draws ``rng.normal(size=shape)``, a callable ``d`` draws ``d(rng)``.  The
    leaves are passed to ``op`` positionally and named by their keywords."""

    def builder(rng):
        leaves = {name: Tensor(d(rng) if callable(d) else rng.normal(size=d), requires_grad=True)
                  for name, d in draws.items()}
        return lambda: op(*leaves.values()), leaves

    return builder


def _probe_shape_ops(rng):
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    y = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)

    def run():
        r = ad.reshape(x, (2, 12))
        t = ad.reshape(ad.transpose(y, (0, 2, 1)), (2, 12))
        return ad.concat([r, t], axis=0)

    return run, {"x": x, "y": y}


def _probe_reductions(rng):
    x = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)

    def run():
        return ad.add(
            ad.reduce_sum(x, axis=(0, 2)),
            ad.scale(ad.reduce_mean(x, axis=(0, 2)), 2.0),
        )

    return run, {"x": x}


def _probe_sep_conv1d(rng):
    x = Tensor(rng.normal(size=(2, 3, 6, 8)), requires_grad=True)
    low = Tensor(rng.normal(size=3), requires_grad=True)
    high = Tensor(rng.normal(size=5), requires_grad=True)

    def run():
        # one round and two (the modulation context), then stride 2 and summed bands
        a = ops.sep_conv1d(x, (low, high), axis=(3, 2), stride=1)
        b = ops.sep_conv1d(x, (low, high), axis=(3, 2), stride=1, rounds=2)
        return ops.sep_conv1d(ad.add(a, b), (low, high), axis=(2, 3), stride=2, bands=PAIRS)

    return run, {"x": x, "low": low, "high": high}


def _probe_cross_entropy(rng):
    logits = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    labels = rng.integers(0, 4, size=6)
    return lambda: cross_entropy(logits, labels), {"logits": logits}


OP_PROBES = [
    ("add", _op_probe(ad.add, a=(3, 4), b=(1, 4))),  # b takes the broadcast path
    ("mul", _op_probe(ad.mul, a=(2, 3, 4), b=(3, 1))),
    ("exp", _op_probe(ad.exp, x=(4, 5))),
    ("reciprocal", _op_probe(ad.reciprocal, x=lambda rng: rng.uniform(0.5, 2.0, size=(4, 5)))),
    ("matmul", _op_probe(ad.matmul, a=(3, 5), b=(5, 2))),
    ("shape_ops", _probe_shape_ops),
    ("reductions", _probe_reductions),
    ("softmax", _op_probe(partial(ad.softmax, axis=1), x=(4, 7))),
    ("gelu", _op_probe(ad.gelu, x=lambda rng: rng.normal(size=(3, 6)) * 1.5)),
    ("layer_norm", _op_probe(ad.layer_norm, x=(2, 5, 3, 3),
                             gain=lambda rng: rng.normal(1.0, 0.2, size=5),
                             shift=lambda rng: rng.normal(0.0, 0.2, size=5))),
    ("global_avg_pool", _op_probe(ad.global_avg_pool, x=(2, 3, 4, 4))),
    ("conv2d", _op_probe(partial(ops.conv2d, stride=(2, 2), padding=(1, 1)),
                         x=(1, 2, 6, 6), kernel=(3, 2, 3, 3))),
    ("conv2d_grouped", _op_probe(partial(ops.conv2d, stride=(1, 1), padding=(1, 1), groups=2),
                                 x=(2, 4, 5, 5), kernel=(6, 2, 3, 3))),
    ("pointwise_conv", _op_probe(ops.pointwise_conv, x=(2, 3, 4, 4), w=(5, 3), b=(5,))),
    ("sep_conv1d", _probe_sep_conv1d),
    ("distance_matrix", _op_probe(distance_matrix, origins=(4, 2), coords=(9, 2))),
    # an even and an odd extent: the odd width has no self-conjugate Nyquist bin
    ("spectral_modulate", _op_probe(spectral_modulate, f=(2, 3, 6, 5), mask=(6, 5))),
    ("cross_entropy", _probe_cross_entropy),
    ("psf", _op_probe(psf, dist=lambda rng: np.abs(rng.normal(size=(3, 8))) + 0.1,
                      sigma=lambda rng: rng.uniform(0.5, 1.5, size=3))),
]


def _module_probe(make, shape, prefix: str, first: bool = False):
    """A probe of one module: ``make(rng)`` builds it, then an input of ``shape``
    is drawn.  Its parameters are named under ``prefix``; with ``first`` the
    forward returns a pair and the probe checks its first item."""

    def builder(rng):
        module = make(rng)
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        run = (lambda: module.forward(x)[0]) if first else (lambda: module.forward(x))
        return run, {"x": x, **dict(module.named_params(prefix))}

    return builder


def _probe_wave_decompose(rng):
    filters = WaveFilterPair()
    filters.low = Tensor(rng.normal(size=3), requires_grad=True)
    filters.high = Tensor(rng.normal(size=5), requires_grad=True)
    x = Tensor(rng.normal(size=(1, 2, 6, 6)), requires_grad=True)

    def run():
        ll, lh, hl, hh = wave_decompose(x, filters, stride=2)
        return ad.concat([ll, lh, hl, hh], axis=1)

    return run, {"x": x, "low": filters.low, "high": filters.high}


def _probe_context(rng):
    block = ModulationBlock(8, rng)
    block.filters.low = Tensor(rng.normal(size=3), requires_grad=True)
    block.filters.high = Tensor(rng.normal(size=5), requires_grad=True)
    h = Tensor(rng.normal(size=(2, 8, 6, 6)), requires_grad=True)
    return lambda: block.context(h), {"h": h, "context_proj": block.context_proj,
                                      "low": block.filters.low, "high": block.filters.high}


def _probe_attenuation(rng):
    field = RayField(4)
    field.origins = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    field.log_sigma = Tensor(rng.normal(0.0, 0.3, size=4), requires_grad=True)
    field.log_alpha = Tensor(rng.normal(0.0, 0.3, size=4), requires_grad=True)
    field.beta = Tensor(rng.normal(1.0, 0.2, size=1), requires_grad=True)
    return lambda: field.attenuation_map(4, 4).combined, dict(field.named_params("field"))


BLOCK_PROBES = [
    ("stem", _module_probe(lambda rng: Stem(4, rng), (1, 3, 14, 14), "stem")),
    ("wave_decompose", _probe_wave_decompose),
    ("extract_stage", _module_probe(lambda rng: ExtractStage(4, 6, rng), (1, 4, 8, 8), "ex")),
    ("modulation_block", _module_probe(lambda rng: ModulationBlock(8, rng), (1, 8, 8, 8), "blk")),
    ("context", _probe_context),
    ("wave_pool", _module_probe(lambda rng: WavePool(4, 6, rng, stride=2), (1, 4, 6, 6), "pool")),
    ("attenuation", _probe_attenuation),
    ("ray_layer", _module_probe(lambda rng: RayLayer(4, n_origins=3, rng=rng), (1, 4, 8, 8),
                                "ray", first=True)),
    ("encoder", _module_probe(lambda rng: RayEncoder(6, d_model=4, n_layers=1, n_origins=3,
                                                     rng=rng), (1, 6, 4, 4), "enc", first=True)),
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
    model = WaveletClassifier(cfg, seed=int(rng.integers(0, 2**31)), dtype=np.float64)
    images = Tensor(rng.normal(0.5, 0.25, size=(2, 3, 32, 32)), requires_grad=True)
    labels = rng.integers(0, 3, size=2)
    inputs = {"images": images, **model.parameters()}
    return lambda: cross_entropy(model.forward(images), labels), inputs


MODEL_PROBES = [("classifier", _probe_model)]

_SCOPES = {"op": OP_PROBES, "block": BLOCK_PROBES, "model": MODEL_PROBES}


def run_scope(scope: str, seed: int = 0, tol: float = DEFAULT_TOL) -> list[tuple[str, str, float]]:
    """Run every probe of a scope; returns (probe, input, worst error) rows."""
    if scope not in _SCOPES:
        raise ConfigError(f"scope must be one of {sorted(_SCOPES)}, got {scope!r}")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    if not 0.0 < tol < np.inf:
        raise ConfigError(f"tolerance must be a finite number above 0, got {tol}")
    rows = []
    for name, builder in _SCOPES[scope]:
        report = finite_diff_check(builder, seed=seed, tol=tol)
        for input_name, err in sorted(report.items()):
            rows.append((name, input_name, err))
    return rows
