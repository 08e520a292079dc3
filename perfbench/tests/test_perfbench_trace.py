"""Tests of the benchmark's tracer on a small desk training step.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import waveray  # noqa: E402
from tracer import MODULES, OPS, SCOPES, TimedBackward, Tracer  # noqa: E402

autodiff = importlib.import_module("waveray.autodiff")
model_mod = importlib.import_module("waveray.model")


def _modules():
    return [waveray] + [importlib.import_module(f"waveray.{m}") for m in MODULES]


def _namespaces():
    """Every module and every class the package defines."""
    out = []
    for mod in _modules():
        out.append(mod)
        out.extend(v for v in vars(mod).values()
                   if isinstance(v, type) and v.__module__ == mod.__name__)
    return out


def _snapshot():
    return {(id(ns), attr): value for ns in _namespaces() for attr, value in vars(ns).items()}


def _batch():
    rng = np.random.default_rng(5)
    return rng.random((4, 3, 32, 32), dtype=np.float32), np.array([0, 1, 2, 0])


def _step(images, labels):
    """One desk forward and backward; returns the model, tape and loss."""
    model = model_mod.WaveletClassifier(model_mod.desk_config(rays=3), seed=3)
    with autodiff.Tape() as tape:
        loss = model_mod.cross_entropy(model.forward(images), labels)
    autodiff.backward(loss, tape)
    return model, tape, loss


def test_every_patched_name_is_restored():
    before = _snapshot()
    tracer = Tracer()
    with tracer.installed():
        assert tracer.patched
        _step(*_batch())
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
    assert tracer.patched == []


def test_restored_after_an_exception():
    before = _snapshot()
    with pytest.raises(RuntimeError), Tracer().installed():
        raise RuntimeError("boom")
    after = _snapshot()
    assert all(after[key] is value for key, value in before.items())


def test_names_are_patched_where_callers_look_them_up():
    backbone = importlib.import_module("waveray.backbone")
    ops = importlib.import_module("waveray.ops")
    rays = importlib.import_module("waveray.rays")
    train_mod = importlib.import_module("waveray.train")
    assert train_mod is not waveray.train  # the package attribute is the function
    originals = {
        (backbone, "sep_conv1d"): ops.sep_conv1d,
        (ops, "sep_conv1d"): ops.sep_conv1d,
        (rays, "pointwise_conv"): ops.pointwise_conv,
        (rays, "fft2_array"): rays.fft2_array,
        (train_mod, "backward"): autodiff.backward,
        (train_mod, "evaluate"): train_mod.evaluate,
        (train_mod, "cross_entropy"): model_mod.cross_entropy,
    }
    tracer = Tracer()
    with tracer.installed():
        for (mod, attr), original in originals.items():
            assert getattr(mod, attr) is not original, f"{mod.__name__}.{attr}"
        _step(*_batch())
    for name in ("ops.sep_conv1d", "ops.pointwise_conv", "ops.conv2d", "fft",
                 "rays.spectral_modulate", "model.cross_entropy", "autodiff.backward"):
        assert tracer.calls(name) > 0, name
    for name in ("ops.sep_conv1d", "rays.spectral_modulate", "autodiff.layer_norm"):
        assert tracer.calls(name, "bwd") > 0, name
    for name in SCOPES:
        assert tracer.scope_s(name) > 0.0, name
    assert tracer.calls("fft") == 3 * 4  # 3 ray layers, 2 transforms forward and 2 backward


def test_traced_step_is_bit_identical():
    images, labels = _batch()
    plain_model, _, plain_loss = _step(images, labels)
    tracer = Tracer()
    with tracer.installed():
        traced_model, _, traced_loss = _step(images, labels)
    assert traced_loss.item() == plain_loss.item()
    plain, traced = plain_model.parameters(), traced_model.parameters()
    assert plain.keys() == traced.keys()
    for name in plain:
        np.testing.assert_array_equal(traced[name].grad, plain[name].grad, err_msg=name)


def test_every_node_is_timed_once_across_freed_tapes():
    images, labels = _batch()
    tracer = Tracer()
    nodes = []
    with tracer.installed():
        for _ in range(3):  # each tape is freed before the next: node ids get reused
            _, tape, _ = _step(images, labels)
            assert all(isinstance(n.backward, TimedBackward) for n in tape.nodes)
            assert not any(isinstance(n.backward.fn, TimedBackward) for n in tape.nodes)
            nodes.append(len(tape.nodes))
            del tape
    assert tracer.tape_nodes == sum(nodes)
    timed = sum(tracer.calls(name, "bwd") for name in OPS)
    assert timed == sum(nodes)
