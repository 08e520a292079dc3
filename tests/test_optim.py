"""Optimizer update rule and the learning-rate schedule."""

import numpy as np
import pytest

from waveray.autodiff import Tensor, precision
from waveray.errors import ConfigError, GraphError, ShapeError
from waveray.optim import AdamW, OptimizerState, adamw_step, one_cycle_cosine_lr


def reference_adamw(history, lr, wd, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook update scripted in plain numpy.

    ``history`` maps name -> (p0, [g1, g2, ...]); returns the parameter
    values after applying every listed gradient in order.
    """
    out = {}
    for name, (p0, grads) in history.items():
        p = np.array(p0, dtype=np.float64)
        m = np.zeros_like(p)
        v = np.zeros_like(p)
        for t, g in enumerate(grads, start=1):
            g = np.asarray(g, dtype=np.float64)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * (g * g)
            mhat = m / (1.0 - b1**t)
            vhat = v / (1.0 - b2**t)
            p = p * (1.0 - lr * wd) - lr * mhat / (np.sqrt(vhat) + eps)
        out[name] = p
    return out


class TestAdamW:
    def test_three_param_trace_matches_reference(self, rng):
        lr, wd = 0.01, 0.1
        shapes = {"a": (3,), "b": (2, 2), "c": (1,)}
        with precision("double"):
            params = {k: Tensor(rng.normal(size=s), requires_grad=True)
                      for k, s in shapes.items()}
            history = {k: (params[k].data.copy(), []) for k in params}
            opt = AdamW(params, weight_decay=wd)
            for _ in range(5):
                for k, p in params.items():
                    g = rng.normal(size=shapes[k])
                    p.grad = np.asarray(g, dtype=p.dtype)
                    history[k][1].append(g)
                opt.step(lr)
        want = reference_adamw(history, lr, wd)
        for k, p in params.items():
            np.testing.assert_allclose(p.data, want[k], atol=1e-12)

    def test_zero_gradient_is_pure_decay(self):
        with precision("double"):
            p = Tensor(np.array([2.0, -4.0]), requires_grad=True)
            p.grad = np.zeros(2)
            adamw_step({"p": p}, OptimizerState(), lr=0.1, weight_decay=0.05)
        np.testing.assert_allclose(p.data, [2.0 * 0.995, -4.0 * 0.995], atol=1e-15)

    def test_constant_gradient_moves_at_learning_rate(self):
        """Bias correction makes the very first steps already full-size."""
        with precision("double"):
            p = Tensor(np.array([1.0]), requires_grad=True)
            state = OptimizerState()
            for _ in range(5):
                before = p.data.copy()
                p.grad = np.array([0.7])
                adamw_step({"p": p}, state, lr=1e-3, weight_decay=0.0)
                np.testing.assert_allclose(abs(p.data - before), 1e-3, rtol=1e-6)

    def test_decay_never_touches_moments(self, rng):
        with precision("double"):
            g = rng.normal(size=4)
            runs = []
            for wd in (0.0, 0.5):
                p = Tensor(np.ones(4), requires_grad=True)
                state = OptimizerState()
                p.grad = g.copy()
                adamw_step({"p": p}, state, lr=0.1, weight_decay=wd)
                runs.append(state)
            np.testing.assert_array_equal(runs[0].m["p"], runs[1].m["p"])
            np.testing.assert_array_equal(runs[0].v["p"], runs[1].v["p"])

    def test_missing_gradient_rejected(self):
        p = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(GraphError, match="'p'"):
            adamw_step({"p": p}, OptimizerState(), lr=0.1, weight_decay=0.0)

    def test_gradient_shape_mismatch_rejected(self):
        p = Tensor(np.ones(2), requires_grad=True)
        p.grad = np.ones(3)
        with pytest.raises(ShapeError):
            adamw_step({"p": p}, OptimizerState(), lr=0.1, weight_decay=0.0)

    def test_step_counts_calls_not_parameters(self):
        params = {k: Tensor(np.ones(1), requires_grad=True) for k in "abc"}
        opt = AdamW(params)
        for _ in range(3):
            for p in params.values():
                p.grad = np.ones(1, dtype=p.dtype)
            opt.step(1e-3)
        assert opt.state.step == 3

    def test_state_round_trip_resumes_identically(self, rng):
        with precision("double"):
            init = rng.normal(size=3)
            grads = [rng.normal(size=3) for _ in range(4)]

            def run(n_steps, opt, p, start):
                for g in grads[start:start + n_steps]:
                    p.grad = g.copy()
                    opt.step(0.01)

            p1 = Tensor(init.copy(), requires_grad=True)
            opt1 = AdamW({"p": p1})
            run(4, opt1, p1, 0)

            p2 = Tensor(init.copy(), requires_grad=True)
            opt2 = AdamW({"p": p2})
            run(2, opt2, p2, 0)
            m, v, step = opt2.export_state()
            p3 = Tensor(p2.data.copy(), requires_grad=True)
            opt3 = AdamW({"p": p3})
            opt3.load_state(m, v, step)
            run(2, opt3, p3, 2)
        np.testing.assert_allclose(p3.data, p1.data, atol=1e-15)


class TestSchedule:
    PEAK = 3e-3

    def test_start_knot(self):
        got = one_cycle_cosine_lr(0, 1000, self.PEAK)
        np.testing.assert_allclose(got, self.PEAK / 25.0, atol=1e-18)

    def test_peak_knot(self):
        got = one_cycle_cosine_lr(100, 1000, self.PEAK, warmup_fraction=0.1)
        np.testing.assert_allclose(got, self.PEAK, atol=1e-18)

    def test_floor_knot(self):
        got = one_cycle_cosine_lr(1000, 1000, self.PEAK)
        np.testing.assert_allclose(got, self.PEAK / 1e4, atol=1e-12)

    def test_warmup_midpoint_is_linear(self):
        start = self.PEAK / 25.0
        got = one_cycle_cosine_lr(50, 1000, self.PEAK, warmup_fraction=0.1)
        np.testing.assert_allclose(got, start + (self.PEAK - start) * 0.5, atol=1e-18)

    def test_decay_midpoint_closed_form(self):
        floor = self.PEAK / 1e4
        got = one_cycle_cosine_lr(550, 1000, self.PEAK, warmup_fraction=0.1)
        np.testing.assert_allclose(got, (self.PEAK + floor) / 2.0, atol=1e-15)

    def test_monotone_up_then_down(self):
        values = [one_cycle_cosine_lr(s, 200, 1.0, warmup_fraction=0.25) for s in range(201)]
        warm = 50
        assert all(a < b for a, b in zip(values[:warm], values[1:warm + 1]))
        assert all(a > b for a, b in zip(values[warm:-1], values[warm + 1:]))

    def test_full_warmup_ends_at_peak(self):
        got = one_cycle_cosine_lr(10, 10, 1.0, warmup_fraction=1.0)
        assert got == 1.0

    def test_no_warmup_starts_at_peak(self):
        got = one_cycle_cosine_lr(0, 100, 1.0, warmup_fraction=0.0)
        np.testing.assert_allclose(got, 1.0, atol=1e-18)

    @pytest.mark.parametrize("kwargs", [
        {"step": 0, "total_steps": 0, "peak_lr": 1.0},
        {"step": 5, "total_steps": 10, "peak_lr": 1.0, "warmup_fraction": 1.5},
        {"step": 5, "total_steps": 10, "peak_lr": 0.0},
        {"step": 11, "total_steps": 10, "peak_lr": 1.0},
        {"step": -1, "total_steps": 10, "peak_lr": 1.0},
    ])
    def test_invalid_arguments(self, kwargs):
        with pytest.raises(ConfigError):
            one_cycle_cosine_lr(**kwargs)
