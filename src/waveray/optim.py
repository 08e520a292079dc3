"""AdamW with decoupled weight decay, and a one-cycle cosine schedule.

Adam's moment decays and denominator guard are fixed constants, which
checkpoints do not store.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, GraphError, ShapeError

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class OptimizerState:
    """First/second moment estimates keyed by parameter name, plus the
    shared step counter (starts at 0, incremented once per step)."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0


def adamw_step(params: dict[str, Tensor], state: OptimizerState, lr: float,
               weight_decay: float) -> None:
    """One update: bias-corrected Adam moments plus decoupled decay.

    Decay multiplies the pre-update parameter by (1 - lr * wd); it never
    enters the moment estimates.  Gradients must be populated.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for name, p in params.items():
        g = p.grad
        if g is None:
            raise GraphError(f"parameter {name!r} has no gradient")
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape} ({name})")
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
            state.m[name] = m
            state.v[name] = v
        else:
            v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
        p.data = p.data * (1.0 - lr * weight_decay) - lr * update


class AdamW:
    """Object wrapper holding the parameter dict and moment state."""

    def __init__(self, params: dict[str, Tensor], weight_decay: float = 0.05):
        self.params = params
        self.weight_decay = weight_decay
        self.state = OptimizerState()

    def step(self, lr: float) -> None:
        adamw_step(self.params, self.state, lr, self.weight_decay)

    def export_state(self) -> tuple[dict, dict, int]:
        return self.state.m, self.state.v, self.state.step

    def load_state(self, m: dict, v: dict, step: int) -> None:
        for name, p in self.params.items():
            if name in m:
                self.state.m[name] = np.ascontiguousarray(m[name], dtype=p.dtype)
                self.state.v[name] = np.ascontiguousarray(v[name], dtype=p.dtype)
        self.state.step = int(step)


def one_cycle_cosine_lr(step: int, total_steps: int, peak_lr: float,
                        warmup_fraction: float = 0.1) -> float:
    """Linear warmup from peak/25 to peak, cosine decay to peak/1e4.

    The warmup ends at ``warmup_fraction * total_steps``; the schedule is
    continuous there and reaches the floor exactly at ``total_steps``.
    """
    if total_steps < 1:
        raise ConfigError(f"total_steps must be positive, got {total_steps}")
    if not 0.0 <= warmup_fraction <= 1.0:
        raise ConfigError(f"warmup_fraction must lie in [0, 1], got {warmup_fraction}")
    if peak_lr <= 0.0:
        raise ConfigError(f"peak_lr must be positive, got {peak_lr}")
    if not 0 <= step <= total_steps:
        raise ConfigError(f"step {step} outside [0, {total_steps}]")
    start = peak_lr / 25.0
    floor = peak_lr / 1e4
    warm = warmup_fraction * total_steps
    if step < warm:
        return start + (peak_lr - start) * (step / warm)
    if warm == total_steps:
        return peak_lr
    frac = (step - warm) / (total_steps - warm)
    # plain float: a numpy scalar here would promote float32 parameters
    # to float64 inside the optimizer update
    return float(floor + (peak_lr - floor) * 0.5 * (1.0 + np.cos(np.pi * frac)))
