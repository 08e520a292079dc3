"""AdamW with decoupled weight decay, and a one-cycle cosine schedule.

Adam's moment decays and denominator guard are fixed constants, which
checkpoints do not store.

``adamw_step`` walks each parameter in blocks of ``_BLOCK`` elements and
runs the whole update on one block before the next.  Every operation of the
update is elementwise and correctly rounded, so each element gets the same
bits as a whole-array update would give it.  A step writes the new values
into a fresh array and rebinds ``p.data`` once: an array that a caller took
from ``p.data`` before the step keeps its values.  The moments are updated
in place.  A gradient may have any memory layout; a strided one (the stem
kernel's) is read through one C-order copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, check_state
from .errors import ConfigError, GraphError, ShapeError

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

# Elements per block of the update.  The update is memory-bound: run on whole
# arrays, each of its ~15 numpy operations streams an array of up to 16.8 MB
# through main memory.  A block of p, g, m, v and the new values, plus the few
# temporaries alive at once, is about 1 MiB in float32 and stays in a 2 MiB
# L2 cache, so each element leaves main memory once per array.  Blocks of
# 4096 elements gain nothing, as per-call overhead grows; 16K to 64K do alike.
_BLOCK = 1 << 15

@dataclass
class OptimizerState:
    """First/second moment estimates keyed by parameter name, plus the
    shared step counter (starts at 0, incremented once per step).  Each
    moment is a C-contiguous array of its parameter's shape and dtype."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0


def adamw_step(params: dict[str, Tensor], state: OptimizerState, lr: float,
               weight_decay: float) -> None:
    """One update: bias-corrected Adam moments plus decoupled decay.

    Decay multiplies the pre-update parameter by (1 - lr * wd); it never
    enters the moment estimates.  Every gradient must be populated and of its
    parameter's shape; all are checked before anything changes, so a step
    that raises leaves the parameters, moments and step counter as they were.
    Each parameter is updated block by block (see ``_BLOCK``) into a new
    array, which then replaces ``p.data``.
    """
    for name, p in params.items():
        if p.grad is None:
            raise GraphError(f"parameter {name!r} has no gradient")
        if p.grad.shape != p.shape:
            raise ShapeError(f"gradient shape {p.grad.shape} != parameter shape {p.shape} ({name})")
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    decay = 1.0 - lr * weight_decay
    for name, p in params.items():
        m = state.m.get(name)
        if m is None:
            m = np.zeros(p.shape, p.dtype)
            v = np.zeros(p.shape, p.dtype)
            state.m[name] = m
            state.v[name] = v
        else:
            v = state.v[name]
        new = np.empty(p.shape, p.dtype)
        # new, m and v are C-contiguous, so their flat forms are views that the
        # blocks write through; reshape copies only a strided gradient
        flat_p, flat_g, flat_new = p.data.reshape(-1), p.grad.reshape(-1), new.reshape(-1)
        flat_m, flat_v = m.reshape(-1), v.reshape(-1)
        for start in range(0, flat_p.size, _BLOCK):
            block = slice(start, start + _BLOCK)
            g, mb, vb = flat_g[block], flat_m[block], flat_v[block]
            mb *= BETA1
            mb += (1.0 - BETA1) * g
            vb *= BETA2
            vb += (1.0 - BETA2) * (g * g)
            update = (mb / bc1) / (np.sqrt(vb / bc2) + EPS)
            np.subtract(flat_p[block] * decay, lr * update, out=flat_new[block])
        p.data = new


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
        """Resume from exported moments and step counter.

        ``m`` and ``v`` each hold an entry of the parameter's shape and dtype
        for every parameter and no other, or are both empty (a state before
        the first step); anything else is a ``ConfigError`` and changes
        nothing.  The moments are copied, so later steps never write into the
        caller's arrays.
        """
        if m or v:
            check_state("moment m", self.params, m)
            check_state("moment v", self.params, v)
        self.state.m = {name: np.array(m[name], order="C") for name in self.params if name in m}
        self.state.v = {name: np.array(v[name], order="C") for name in self.params if name in v}
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
