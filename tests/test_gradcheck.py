"""The finite-difference checker itself: it must pass correct gradients
and, just as importantly, flag broken ones."""

import numpy as np
import pytest

from waveray import autodiff as ad
from waveray.autodiff import Tape, Tensor, _record_op, backward
from waveray.errors import ConfigError
from waveray.gradcheck import (
    BLOCK_PROBES,
    DEFAULT_TOL,
    OP_PROBES,
    _SCOPES,
    _op_probe,
    finite_diff_check,
    run_scope,
)
from waveray.model import WaveletClassifier, cross_entropy, table1_config
from waveray.optim import AdamW


def _quadratic_probe(rng):
    x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    return lambda: ad.reduce_sum(ad.mul(x, x)), {"x": x}


def _broken_scale(x, factor):
    """scale() whose backward uses a wrong factor on purpose."""
    x = ad._as_tensor(x)
    return _record_op(x.data * factor, (x,), lambda g: (g * (factor + 0.5),))


def _broken_probe(rng):
    x = Tensor(rng.normal(size=(4,)), requires_grad=True)
    return lambda: ad.reduce_sum(_broken_scale(x, 2.0)), {"x": x}


def _half_broken_probe(rng):
    good = Tensor(rng.normal(size=(3,)), requires_grad=True)
    bad = Tensor(rng.normal(size=(3,)), requires_grad=True)

    def run():
        return ad.add(ad.reduce_sum(ad.mul(good, good)),
                      ad.reduce_sum(_broken_scale(bad, 1.0)))

    return run, {"good": good, "bad": bad}


class TestChecker:
    def test_accepts_correct_gradient(self):
        report = finite_diff_check(_quadratic_probe, seed=0)
        assert set(report) == {"x"}
        assert report["x"] < 1e-8

    def test_flags_injected_error(self):
        report = finite_diff_check(_broken_probe, seed=0)
        # analytic 2.5 vs numeric 2.0 -> relative error 0.2
        assert report["x"] > 0.1

    def test_localizes_the_broken_input(self):
        report = finite_diff_check(_half_broken_probe, seed=0)
        assert report["good"] < 1e-8
        assert report["bad"] > 0.1

    def test_runs_in_double_precision(self):
        """Every probe draws its leaves, module parameters included, in float64."""
        for name, builder in [row for rows in _SCOPES.values() for row in rows]:
            run, inputs = builder(np.random.default_rng(0))
            assert {t.dtype for t in inputs.values()} == {np.dtype(np.float64)}, name
            assert run().dtype == np.float64, name

    def test_restores_perturbed_data(self):
        keeper = {}

        def probe(rng):
            x = Tensor(rng.normal(size=(5,)), requires_grad=True)
            keeper["x"] = x
            keeper["orig"] = x.data.copy()
            return lambda: ad.reduce_sum(ad.mul(x, x)), {"x": x}

        finite_diff_check(probe, seed=0)
        np.testing.assert_array_equal(keeper["x"].data, keeper["orig"])

    def test_constant_inputs_are_skipped(self):
        def probe(rng):
            x = Tensor(rng.normal(size=(3,)), requires_grad=True)
            c = Tensor(rng.normal(size=(3,)))  # no grad requested
            return lambda: ad.reduce_sum(ad.mul(x, c)), {"x": x, "c": c}

        report = finite_diff_check(probe, seed=0)
        assert "c" not in report
        assert report["x"] < 1e-8

    def test_retries_resample_the_inputs(self):
        """A probe that lands on a kink for the first draw but not for
        later draws should still come back clean."""
        calls = []

        def rectify(x):
            x = ad._as_tensor(x)
            return _record_op(np.maximum(x.data, 0.0), (x,),
                              lambda g: (g * (x.data >= 0.0),))

        def probe(rng):
            attempt = len(calls)
            calls.append(attempt)
            if attempt == 0:
                # sitting exactly on the corner: subgradient 1, secant 1/2
                x = Tensor(np.zeros(4), requires_grad=True)
            else:
                x = Tensor(rng.uniform(1.0, 2.0, size=4), requires_grad=True)
            return lambda: ad.reduce_sum(rectify(x)), {"x": x}

        report = finite_diff_check(probe, seed=0)
        assert len(calls) >= 2
        assert report["x"] < 1e-6

    def test_nan_gradient_fails(self):
        def doubled(x):
            """2x, with a backward that returns NaN."""
            return _record_op(x.data * 2.0, (x,), lambda g: (g * np.nan,))

        def probe(rng):
            x = Tensor(rng.normal(size=(3,)), requires_grad=True)
            return lambda: ad.reduce_sum(doubled(x)), {"x": x}

        assert finite_diff_check(probe, seed=0) == {"x": np.inf}


class TestOpProbe:
    def test_leaves_are_drawn_in_keyword_order(self):
        _, leaves = _op_probe(ad.add, a=(2,), b=(3,))(np.random.default_rng(0))
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(2,)), rng.normal(size=(3,))
        assert list(leaves) == ["a", "b"]
        np.testing.assert_array_equal(leaves["a"].data, a)
        np.testing.assert_array_equal(leaves["b"].data, b)
        assert leaves["a"].requires_grad and leaves["b"].requires_grad


class TestScopes:
    def test_unknown_scope_rejected(self):
        with pytest.raises(ConfigError, match="scope"):
            run_scope("everything")

    def test_op_scope_all_pass(self):
        rows = run_scope("op", seed=0)
        probes = {name for name, _, _ in rows}
        assert probes == {name for name, _ in OP_PROBES}
        worst = max(err for _, _, err in rows)
        assert worst < DEFAULT_TOL, rows

    def test_block_scope_all_pass(self):
        rows = run_scope("block", seed=0)
        probes = {name for name, _, _ in rows}
        assert probes == {name for name, _ in BLOCK_PROBES}
        worst = max(err for _, _, err in rows)
        assert worst < DEFAULT_TOL, rows

    def test_rows_name_every_checked_input(self):
        rows = run_scope("op", seed=0)
        conv_inputs = {inp for name, inp, _ in rows if name == "conv2d"}
        assert conv_inputs == {"x", "kernel"}


class TestPaperScale:
    """The whole table-1 classifier with every ray layer, at batch 1, where
    the sampled probes above cannot reach: one taped step per dtype."""

    STEP = 1e-5  # worst error 8.5e-9; steps of 1e-6 and 1e-4 read 2.0e-7 and 1.5e-7
    DIRECTIONAL_TOL = 1e-6
    DRIFT_TOL = 1e-4

    def test_directional_derivative_and_float32_drift(self):
        """Per top-level component: ``<grad, v>`` of the float64 model against a
        central difference along one random unit direction ``v``, and the
        float32 gradient's largest deviation from the float64 one, relative
        to the largest float64 gradient entry."""
        config = table1_config(rays=3, classes=10)
        rng = np.random.default_rng(0)
        images = rng.normal(size=(1, 3, config.input_extent, config.input_extent))
        labels = np.array([3])
        double = WaveletClassifier(config, seed=0, dtype=np.float64)
        single = WaveletClassifier(config, seed=0)
        for model in (double, single):
            with Tape() as tape:
                loss = cross_entropy(model.forward(images), labels)
            backward(loss, tape)
        params = double.parameters()
        components: dict[str, list[str]] = {}
        for name in params:
            components.setdefault(name.split(".", 1)[0], []).append(name)
        assert list(components) == ["stem", "extract0", "extract1", "stage0", "stage1",
                                    "encoder", "head"]

        directional, drift = {}, {}
        for component, names in components.items():
            v = {n: rng.normal(size=params[n].shape) for n in names}
            norm = np.sqrt(sum(np.sum(d * d) for d in v.values()))
            v = {n: d / norm for n, d in v.items()}
            analytic = sum(np.sum(params[n].grad * v[n]) for n in names)
            base = {n: params[n].data for n in names}
            losses = []
            for sign in (1.0, -1.0):
                for n in names:
                    params[n].data = base[n] + sign * self.STEP * v[n]
                losses.append(cross_entropy(double.forward(images), labels).item())
            for n in names:
                params[n].data = base[n]
            numeric = (losses[0] - losses[1]) / (2 * self.STEP)
            directional[component] = abs(analytic - numeric) / max(abs(analytic), abs(numeric))

            g32 = single.parameters()
            deviation = max(np.abs(g32[n].grad - params[n].grad).max() for n in names)
            drift[component] = deviation / max(np.abs(params[n].grad).max() for n in names)

        assert max(directional.values()) <= self.DIRECTIONAL_TOL, directional
        assert max(drift.values()) <= self.DRIFT_TOL, drift

    def test_learns_four_images_within_ten_steps(self):
        """The float32 table-1 rays-3 classifier fits 4 seeded 224x224 images
        of 4 classes: AdamW at lr 1e-3 brings the loss below 1e-2 within 10
        steps, through every kernel's rounding at 28x28 and 14x14."""
        config = table1_config(rays=3, classes=4)
        rng = np.random.default_rng(0)
        images = rng.normal(size=(4, 3, config.input_extent, config.input_extent))
        labels = np.arange(4)
        model = WaveletClassifier(config, seed=0)
        optimizer = AdamW(model.parameters())
        losses = []
        for _ in range(10):
            with Tape() as tape:
                loss = cross_entropy(model.forward(images), labels)
            losses.append(loss.item())
            if losses[-1] < 1e-2:
                break
            backward(loss, tape)
            optimizer.step(lr=1e-3)
        assert losses[-1] < 1e-2, losses
