"""Layer-by-layer tracing of the waveray package from outside it.

The tracer changes no file of the package.  While installed it replaces
the package's public functions and module ``forward`` methods with timing
wrappers, at every place callers look a name up: ``backbone.sep_conv1d``
and ``ops.sep_conv1d`` are the same function object under two names, and
both get the wrapper.  On exit every replaced name gets its original
object back.

Three kinds of wrapper:

* an op span times one call of a kernel.  Tape nodes the call appends
  are tagged with the op's name: the node's backward closure is swapped
  for a :class:`TimedBackward`, so the backward pass is timed per op too.
  Nested op spans (``fft`` inside ``spectral_modulate``) are subtracted,
  which makes an op's time a self time.
* a scope span covers a module ``forward`` (stem, block, ray layer, ...).
  Its time is inclusive: the forward call, plus the backward closures of
  every node recorded inside it.
* counters: ``_record_op`` calls and output bytes, tape nodes handed to
  ``backward``, and bytes hashed by the checkpoint checksum.

Timings are kept in memory; :func:`table` renders them after a run.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

MODULES = ("autodiff", "ops", "fft", "backbone", "rays", "model", "optim", "checkpoint",
           "data", "train", "gradcheck", "cli")

_AUTODIFF_OTHER = ("add", "sub", "mul", "scale", "neg", "exp", "reciprocal", "reshape",
                   "transpose", "concat", "reduce_sum", "reduce_mean", "matmul", "softmax",
                   "global_avg_pool")

# Op spans: span name -> the (module, function) pairs it times.
OPS = {
    "ops.sep_conv1d": [("ops", "sep_conv1d")],
    "ops.pointwise_conv": [("ops", "pointwise_conv")],
    "ops.conv2d": [("ops", "conv2d")],
    "autodiff.layer_norm": [("autodiff", "layer_norm")],
    "autodiff.gelu": [("autodiff", "gelu")],
    "autodiff.other": [("autodiff", name) for name in _AUTODIFF_OTHER],
    "autodiff.backward": [("autodiff", "backward")],
    "fft": [("fft", "fft2_array"), ("fft", "ifft2_array")],
    "rays.spectral_modulate": [("rays", "spectral_modulate")],
    "rays.distance_matrix": [("rays", "distance_matrix")],
    "model.cross_entropy": [("model", "cross_entropy")],
    "optim.step": [("optim", "adamw_step")],
    "checkpoint.save": [("checkpoint", "save_checkpoint")],
    "checkpoint.load": [("checkpoint", "load_checkpoint")],
    "checkpoint.fnv1a": [("checkpoint", "fnv1a")],
    "train.evaluate": [("train", "evaluate")],
    "data.load_dataset": [("data", "load_dataset")],
}

# Scope spans: span name -> (module, class or None for a function, attribute).
SCOPES = {
    "model.forward": ("model", "WaveletClassifier", "forward_with_aux"),
    "backbone.stem": ("backbone", "Stem", "forward"),
    "backbone.extract": ("backbone", "ExtractStage", "forward"),
    "backbone.block": ("backbone", "ModulationBlock", "forward"),
    "backbone.pool": ("backbone", "WavePool", "forward"),
    "rays.layer": ("rays", "RayLayer", "forward"),
    "rays.encoder": ("rays", "RayEncoder", "forward"),
    "rays.attenuation": ("rays", None, "attenuation"),
}

FWD = "fwd"
BWD = "bwd"


class TimedBackward:
    """A tape node's backward closure, timed under the op that recorded it.

    The tracer recognises a tagged node by this type, never by ``id(node)``:
    ids are reused once a freed tape's nodes are collected.
    """

    __slots__ = ("tracer", "key", "fn", "scopes")

    def __init__(self, tracer: "Tracer", name: str, fn, scopes: tuple):
        self.tracer = tracer
        self.key = (name, BWD)
        self.fn = fn
        self.scopes = scopes

    def __call__(self, g):
        tracer = self.tracer
        tracer._enter(self.key)
        try:
            return self.fn(g)
        finally:
            elapsed = tracer._leave()
            for scope in self.scopes:
                tracer.scope_bwd[scope] += elapsed


class Tracer:
    """Spans and counters for one traced region; see the module docstring."""

    def __init__(self):
        self._saved: list = []
        self.clear()

    def clear(self) -> None:
        """Drop every recorded span and counter."""
        self.stats: dict = defaultdict(lambda: [0, 0.0, 0.0])  # key -> [calls, incl s, self s]
        self.scope_bwd: dict = defaultdict(float)
        self.covered = 0.0  # seconds inside top-level spans
        self.op_calls = 0
        self.out_bytes = 0
        self.tape_nodes = 0
        self.hashed_bytes = 0
        self._stack: list = []  # open spans: [key, start, child seconds]
        self._scopes: list = []

    # -- spans -------------------------------------------------------------

    def _enter(self, key) -> None:
        self._stack.append([key, time.perf_counter(), 0.0])

    def _leave(self) -> float:
        key, start, child = self._stack.pop()
        elapsed = time.perf_counter() - start
        st = self.stats[key]
        st[0] += 1
        st[1] += elapsed
        st[2] += elapsed - child
        if self._stack:
            self._stack[-1][2] += elapsed
        else:
            self.covered += elapsed
        return elapsed

    def _tag(self, nodes: list, start: int, name: str) -> None:
        scopes = tuple(self._scopes)
        for node in nodes[start:]:
            if not isinstance(node.backward, TimedBackward):
                node.backward = TimedBackward(self, name, node.backward, scopes)

    # -- wrappers ----------------------------------------------------------

    def _op(self, name: str, fn, active_tape):
        key = (name, FWD)
        enter, leave, tag = self._enter, self._leave, self._tag

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tape = active_tape()
            start = len(tape.nodes) if tape is not None else 0
            enter(key)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()
                if tape is not None and len(tape.nodes) > start:
                    tag(tape.nodes, start, name)

        return traced

    def _scope(self, name: str, fn):
        key = (name, FWD)
        enter, leave, scopes = self._enter, self._leave, self._scopes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            scopes.append(name)
            enter(key)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()
                scopes.pop()

        return traced

    def _record_op(self, fn):
        @functools.wraps(fn)
        def counted(out_data, inputs, backward_fn):
            self.op_calls += 1
            self.out_bytes += getattr(out_data, "nbytes", 0)
            return fn(out_data, inputs, backward_fn)

        return counted

    def _backward(self, fn):
        @functools.wraps(fn)
        def counted(loss, tape):
            self.tape_nodes += len(tape.nodes)
            return fn(loss, tape)

        return counted

    def _fnv1a(self, fn):
        @functools.wraps(fn)
        def counted(data):
            self.hashed_bytes += len(data)
            return fn(data)

        return counted

    # -- installing --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, namespaces: list, fn, wrapper) -> None:
        """Point every module attribute holding ``fn`` at ``wrapper``."""
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is fn:
                    self._set(ns, attr, wrapper)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        # import_module, not getattr(waveray, ...): the package attribute
        # ``waveray.train`` is the train() function, not the module.
        mods = {name: importlib.import_module(f"waveray.{name}") for name in MODULES}
        namespaces = [importlib.import_module("waveray"), *mods.values()]
        active_tape = mods["autodiff"].active_tape
        try:
            # counters go on first, so the span wrappers wrap them in turn
            for mod, attr, make in (("autodiff", "_record_op", self._record_op),
                                    ("autodiff", "backward", self._backward),
                                    ("checkpoint", "fnv1a", self._fnv1a)):
                fn = getattr(mods[mod], attr)
                self._replace_everywhere(namespaces, fn, make(fn))
            for name, targets in OPS.items():
                for mod, attr in targets:
                    fn = getattr(mods[mod], attr)
                    self._replace_everywhere(namespaces, fn, self._op(name, fn, active_tape))
            for name, (mod, cls_name, attr) in SCOPES.items():
                if cls_name is None:
                    fn = getattr(mods[mod], attr)
                    self._replace_everywhere(namespaces, fn, self._scope(name, fn))
                else:
                    cls = getattr(mods[mod], cls_name)
                    self._set(cls, attr, self._scope(name, cls.__dict__[attr]))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @property
    def patched(self) -> list:
        """(owner, attribute) pairs currently replaced."""
        return [(owner, attr) for owner, attr, _ in self._saved]

    # -- reading -----------------------------------------------------------

    def calls(self, name: str, phase: str = FWD) -> int:
        return self.stats[(name, phase)][0] if (name, phase) in self.stats else 0

    def incl(self, name: str, phase: str = FWD) -> float:
        return self.stats[(name, phase)][1] if (name, phase) in self.stats else 0.0

    def self_s(self, name: str, phase: str = FWD) -> float:
        return self.stats[(name, phase)][2] if (name, phase) in self.stats else 0.0

    def scope_s(self, name: str) -> float:
        """Inclusive seconds of a scope: its forward spans plus the backward
        closures of the nodes recorded inside it."""
        return self.incl(name) + self.scope_bwd.get(name, 0.0)


def table(tracer: Tracer, units: int, unit_name: str, region_s: float) -> str:
    """Every span, per unit of work, largest self time first."""
    scopes = set(SCOPES)
    rows = []
    for (name, phase), (calls, incl, self_s) in tracer.stats.items():
        if name in scopes:
            incl += tracer.scope_bwd.get(name, 0.0) if phase == FWD else 0.0
            phase = "fwd+bwd"
        rows.append((self_s, name, phase, calls, incl))
    rows.sort(reverse=True)
    lines = [f"{'span':<26}{'phase':<9}{'calls/' + unit_name:>14}{'self ms':>11}"
             f"{'incl ms':>11}{'self share':>12}"]
    for self_s, name, phase, calls, incl in rows:
        lines.append(f"{name:<26}{phase:<9}{calls / units:>14.2f}{1e3 * self_s / units:>11.3f}"
                     f"{1e3 * incl / units:>11.3f}{self_s / region_s:>12.4f}")
    return "\n".join(lines)
