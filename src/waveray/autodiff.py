"""Dense tensors with reverse-mode automatic differentiation.

The execution model is a gradient tape.  While a :class:`Tape` is active,
every differentiable operation appends one node (inputs, output, backward
rule) to it.  Forward execution order is already a topological order of
the data flow, so :func:`backward` walks the node list in reverse exactly
once, pushing gradients from the loss towards every leaf that wants them.
One rule accumulates gradients, for intermediates and leaves alike: a
value's first gradient is stored as it is and later ones are added to it.
Nothing writes into a stored gradient in place.

A node keeps keys, not tensors.  Recording a node gives its output a
serial key, and the node holds, per input, nothing if the input needs no
gradient, the input's key if a node of the same tape produced it, or else
the input tensor itself: a leaf, or a value from another tape, whose
``.grad`` the backward accumulates.  :func:`backward` routes gradients by
key.  Each rule's closure keeps only the arrays its arithmetic reads, plus
shapes and flags, so every other array of the forward is freed as soon as
the forward's own code lets go of it.

A tape is consumed by one backward.  Each node's backward rule runs at most
once and then drops the arrays it saved, and the walk lets go of each
node's inputs and output as soon as it has passed the node, so the saved
arrays are freed while the backward runs.  The tape keeps its nodes; a
second backward on it raises :class:`~waveray.errors.GraphError`.  To sum
the gradients of several passes, record each on a fresh tape and skip
clearing the gradients in between.

No global state picks a dtype.  A leaf tensor keeps float32 or float64
data as it is and stores any other data as float64; operations inherit the
dtype of their inputs, so a graph built from double leaves stays double end
to end.  A model's parameters therefore decide its dtype: float32 to train,
float64 to check gradients.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.special import erf as _erf

from .errors import (
    BroadcastError,
    ConfigError,
    DetachedGraphError,
    GraphError,
    InvalidAxisError,
    NonScalarLossError,
    ShapeError,
)

_DTYPES = {"single": np.float32, "double": np.float64}
_FLOATS = tuple(np.dtype(t) for t in _DTYPES.values())

_TAPES: list = []  # active tapes, innermost last
_KEYS = itertools.count()  # serial keys of recorded op outputs, unique per process


class Tensor:
    """A dense n-dimensional array, optionally tracking gradients.

    Tensors built directly (leaves) keep float32 or float64 data as it is,
    store any other data as float64, and are stored contiguously.  Tensors
    produced by operations keep their computed dtype.  Data is treated as
    immutable once an op has consumed it; only the optimizer rewrites leaf
    ``data``, between recorded steps.
    """

    __slots__ = ("data", "requires_grad", "grad", "_key")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, order="C")  # ascontiguousarray would make rank 0 rank 1
        if arr.dtype not in _FLOATS:
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._key = None  # set when a tape records the op that produced this tensor

    @classmethod
    def _from_op(cls, arr: np.ndarray, requires_grad: bool) -> "Tensor":
        out = object.__new__(cls)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        out.data = arr
        out.requires_grad = requires_grad
        out.grad = None
        out._key = None
        return out

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(())[()])

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"


class Module:
    """Base of every layer: names its parameters by walking its attributes.

    Naming rule: a gradient-requiring Tensor is named after its attribute, a
    Module child prefixes its own names with its attribute, a list ``xs`` of
    modules names its items ``x0``, ``x1``, ..., and an object reached twice
    (a shared RayField) keeps the first name it was reached under.
    Attributes are walked in assignment order, so the constructor fixes the
    parameter order.
    """

    def named_params(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        return [(name, t) for name, t in self._walk(prefix, set()) if isinstance(t, Tensor)]

    def _walk(self, prefix: str, seen: set):
        """Yield (name, object) for every parameter and submodule, depth first."""
        for attr, value in vars(self).items():
            items = ([(f"{attr[:-1]}{i}", v) for i, v in enumerate(value)]
                     if isinstance(value, list) else [(attr, value)])
            for name, obj in items:
                is_param = isinstance(obj, Tensor) and obj.requires_grad
                if id(obj) in seen or not (is_param or isinstance(obj, Module)):
                    continue
                seen.add(id(obj))
                path = f"{prefix}.{name}" if prefix else name
                yield path, obj
                if isinstance(obj, Module):
                    yield from obj._walk(path, seen)


def check_state(label: str, params: dict, arrays: dict) -> None:
    """Raise ``ConfigError`` unless ``arrays`` holds an entry of each parameter's
    name, shape and dtype, and no other; ``label`` names the arrays in the message."""
    missing = sorted(set(params) - set(arrays))
    extra = sorted(set(arrays) - set(params))
    if missing or extra:
        raise ConfigError(f"{label} does not match the parameters: "
                          f"missing {missing}, unexpected {extra}")
    for name, p in params.items():
        arr = np.asarray(arrays[name])
        if arr.shape != p.shape:
            raise ConfigError(f"{label}[{name!r}] has shape {arr.shape}, expected {p.shape}")
        if arr.dtype != p.dtype:
            raise ConfigError(f"{label}[{name!r}] is {arr.dtype}, expected {p.dtype}")


class LayerNorm(Module):
    """Per-channel gain (ones) and shift (zeros) for :func:`layer_norm`."""

    def __init__(self, channels: int):
        self.gain = Tensor(np.ones(channels), requires_grad=True)
        self.shift = Tensor(np.zeros(channels), requires_grad=True)

    def forward(self, x) -> Tensor:
        return layer_norm(x, self.gain, self.shift)


class Affine(Module):
    """A weight ``w`` and a zero-initialized bias ``b`` of ``n_out`` entries;
    the owner decides how they are applied (matmul or pointwise conv)."""

    def __init__(self, weight: np.ndarray, n_out: int):
        self.w = Tensor(weight, requires_grad=True)
        self.b = Tensor(np.zeros(n_out), requires_grad=True)


class _Rule:
    """A node's backward rule, callable once: after its call it drops the
    closure, and with it every array the closure saved."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, g):
        fn, self.fn = self.fn, None
        if fn is None:
            raise GraphError("this node's backward rule has already run")
        return fn(g)


class _Node:
    """One recorded op: per input ``None``, a key or a tensor (see the module
    docstring), the output's key, and the backward rule."""

    __slots__ = ("inputs", "out", "backward")

    def __init__(self, inputs, out, backward):
        self.inputs = inputs
        self.out = out
        self.backward = backward


class Tape:
    """Ordered record of one forward pass, consumed by :func:`backward`."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self.keys: set = set()  # the keys of the outputs its nodes produced

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if _TAPES and _TAPES[-1] is self:
            _TAPES.pop()

    def __len__(self) -> int:
        return len(self.nodes)


def active_tape() -> Tape | None:
    return _TAPES[-1] if _TAPES else None


def backward(loss: Tensor, tape: Tape) -> None:
    """Accumulate d(loss)/d(leaf) into ``.grad`` of every requiring leaf.

    The loss must be a scalar produced on ``tape``.  Intermediate gradients
    are summed over all uses of a value; leaves add to the gradient they
    hold.  This consumes the tape: each node lets go of its inputs, output
    and saved arrays once the walk has passed it, and a second call on the
    same tape raises ``GraphError`` before any gradient changes.
    """
    if loss.data.size != 1:
        raise NonScalarLossError(f"loss must be a scalar, got shape {loss.shape}")
    if any(node.out is None for node in tape.nodes):
        raise GraphError("this tape was consumed by an earlier backward; record a new one")
    if loss._key not in tape.keys:
        raise DetachedGraphError("loss was not produced by an op recorded on this tape")

    grads: dict[int, np.ndarray] = {loss._key: np.ones_like(loss.data)}
    for node in reversed(tape.nodes):
        g = grads.pop(node.out, None)
        inputs = node.inputs
        node.inputs = node.out = None
        if g is None:
            continue
        for t, gi in zip(inputs, node.backward(g)):
            if gi is None or t is None:
                continue
            if isinstance(t, Tensor):
                t.grad = gi if t.grad is None else t.grad + gi
            else:
                acc = grads.get(t)
                grads[t] = gi if acc is None else acc + gi


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x))


def _records(inputs: tuple) -> bool:
    """Whether an op over ``inputs`` appends a node: some input requires a
    gradient and a tape is active.  An op that will not keeps no array
    that only its backward would read."""
    return bool(_TAPES) and any(t.requires_grad for t in inputs)


def _record_op(out_data: np.ndarray, inputs: tuple, backward_fn) -> Tensor:
    out = Tensor._from_op(np.asarray(out_data), any(t.requires_grad for t in inputs))
    if _records(inputs):
        tape = _TAPES[-1]
        keys = tape.keys
        held = tuple(t._key if t._key in keys else t if t.requires_grad else None
                     for t in inputs)
        out._key = next(_KEYS)
        keys.add(out._key)
        tape.nodes.append(_Node(held, out._key, _Rule(backward_fn)))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient back down to ``shape`` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _binary(ufunc, a: Tensor, b: Tensor) -> np.ndarray:
    """``ufunc`` of two operands' data; numpy's broadcast failure becomes a BroadcastError."""
    try:
        return ufunc(a.data, b.data)
    except ValueError:
        raise BroadcastError(
            f"shapes {a.shape} and {b.shape} are not broadcast-compatible"
        ) from None


def _normalize_axis(axis: int, ndim: int) -> int:
    if not -ndim <= axis < ndim:
        raise InvalidAxisError(f"axis {axis} out of range for a {ndim}-d tensor")
    return axis % ndim


# ---------------------------------------------------------------------------
# elementwise ops


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = _binary(np.add, a, b)
    sa, sb = a.shape, b.shape

    def bw(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _record_op(out, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = _binary(np.subtract, a, b)
    sa, sb = a.shape, b.shape

    def bw(g):
        return _unbroadcast(g, sa), _unbroadcast(-g, sb)

    return _record_op(out, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd, sa, sb = a.data, b.data, a.shape, b.shape
    out = _binary(np.multiply, a, b)

    def bw(g):
        return _unbroadcast(g * bd, sa), _unbroadcast(g * ad, sb)

    return _record_op(out, (a, b), bw)


def scale(x, factor: float) -> Tensor:
    x = _as_tensor(x)
    factor = float(factor)
    out = x.data * factor

    def bw(g):
        return (g * factor,)

    return _record_op(out, (x,), bw)


def neg(x) -> Tensor:
    return scale(x, -1.0)


def exp(x) -> Tensor:
    x = _as_tensor(x)
    out = np.exp(x.data)

    def bw(g):
        return (g * out,)

    return _record_op(out, (x,), bw)


def reciprocal(x) -> Tensor:
    """1/x elementwise.  The caller guarantees x is nonzero."""
    x = _as_tensor(x)
    out = 1.0 / x.data

    def bw(g):
        return (-g * out * out,)

    return _record_op(out, (x,), bw)


# ---------------------------------------------------------------------------
# shape ops


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    shape = tuple(int(s) for s in shape)
    try:
        out = x.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"cannot reshape {x.shape} ({x.size} elements) to {shape}") from None
    in_shape = x.shape

    def bw(g):
        return (g.reshape(in_shape),)

    return _record_op(out, (x,), bw)


def transpose(x, axes) -> Tensor:
    x = _as_tensor(x)
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(x.ndim)):
        raise InvalidAxisError(f"axes {axes} is not a permutation of 0..{x.ndim - 1}")
    out = np.transpose(x.data, axes)

    def bw(g):
        return (np.transpose(g, np.argsort(axes)),)

    return _record_op(out, (x,), bw)


def concat(tensors, axis: int) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat needs at least one tensor")
    axis = _normalize_axis(axis, tensors[0].ndim)
    for t in tensors[1:]:
        if t.ndim != tensors[0].ndim:
            raise ShapeError("concat operands must share rank")
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise ShapeError(
            f"concat extents differ off-axis: {[t.shape for t in tensors]}"
        ) from None

    splits = np.cumsum([t.shape[axis] for t in tensors[:-1]])

    def bw(g):
        return np.split(g, splits, axis=axis)

    return _record_op(out, tuple(tensors), bw)


# ---------------------------------------------------------------------------
# reductions


def _axis_tuple(axis, ndim):
    if axis is None:
        return None
    if isinstance(axis, (int, np.integer)):
        axis = (int(axis),)
    return tuple(_normalize_axis(int(a), ndim) for a in axis)


def _spread(g: np.ndarray, ax, keepdims: bool, in_shape: tuple) -> np.ndarray:
    """Broadcast a reduction's output gradient back over the reduced axes."""
    if ax is not None and not keepdims:
        g = np.expand_dims(g, sorted(ax))
    return np.broadcast_to(g, in_shape)


def reduce_sum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    ax = _axis_tuple(axis, x.ndim)
    out = x.data.sum(axis=ax, keepdims=keepdims)
    in_shape = x.shape

    def bw(g):
        return (_spread(g, ax, keepdims, in_shape),)

    return _record_op(out, (x,), bw)


def reduce_mean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    ax = _axis_tuple(axis, x.ndim)
    out = x.data.mean(axis=ax, keepdims=keepdims)
    in_shape = x.shape
    count = x.size if ax is None else int(np.prod([in_shape[a] for a in ax]))

    def bw(g):
        return (_spread(g, ax, keepdims, in_shape) / count,)

    return _record_op(out, (x,), bw)


# ---------------------------------------------------------------------------
# linear algebra and nonlinearities


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects two matrices, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner extents differ: {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data
    out = ad @ bd

    def bw(g):
        return g @ bd.T, ad.T @ g

    return _record_op(out, (a, b), bw)


def softmax(x, axis: int) -> Tensor:
    x = _as_tensor(x)
    axis = _normalize_axis(axis, x.ndim)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        return (s * (g - dot),)

    return _record_op(s, (x,), bw)


_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))
_LN_EPS = 1e-5

# Float32 erf(t) ~ tanh(t * P(t^2)) on t clamped to [-3.9, 3.9].  P's
# coefficients (constant term first) are a least-squares fit of
# atanh(erf(x)) / x as a degree-6 polynomial in x^2 on [1e-4, 3.9], over
# 4000 points weighted by (1 - erf(x)^2) * x, rounded to float32.  The
# constants are 0-d float32 arrays: a ufunc call takes them faster than
# Python floats.
_ERF32_P = tuple(np.array(a, np.float32) for a in (
    1.1283798217773438, 0.10276468843221664, -0.00018245948012918234,
    -0.0006274713086895645, 9.040337317856029e-05, -6.103537089074962e-06,
    1.6599560126451252e-07))
_ERF32_HI, _ERF32_LO = np.array(3.9, np.float32), np.array(-3.9, np.float32)
_INV_SQRT2_32 = np.array(_INV_SQRT2, np.float32)
_ONE_32, _HALF_32 = np.array(1.0, np.float32), np.array(0.5, np.float32)
_CDF32_BLOCK = 1 << 15  # elements per block: the temporaries stay in cache


def _normal_cdf32(d: np.ndarray) -> np.ndarray:
    """Phi(d) for float32 ``d`` as ``0.5 * (1 + erf(d / sqrt(2)))``, with
    ``erf`` from the tanh form above (|error| <= 1.2e-7 against float64).
    It runs in place in the result, a block of elements at a time."""
    src = d.reshape(-1)  # tensor data is C-contiguous
    cdf = np.empty(d.shape, np.float32)
    dst = cdf.reshape(-1)
    s = np.empty(min(src.size, _CDF32_BLOCK), np.float32)
    p = np.empty_like(s)
    for i in range(0, src.size, _CDF32_BLOCK):
        t = dst[i:i + _CDF32_BLOCK]
        sb, pb = s[:t.size], p[:t.size]
        np.multiply(src[i:i + _CDF32_BLOCK], _INV_SQRT2_32, out=t)
        np.minimum(t, _ERF32_HI, out=t)
        np.maximum(t, _ERF32_LO, out=t)
        np.multiply(t, t, out=sb)
        np.multiply(sb, _ERF32_P[6], out=pb)
        np.add(pb, _ERF32_P[5], out=pb)
        for a in _ERF32_P[4::-1]:
            np.multiply(pb, sb, out=pb)
            np.add(pb, a, out=pb)
        np.multiply(t, pb, out=t)
        np.tanh(t, out=t)
        np.add(t, _ONE_32, out=t)
        np.multiply(t, _HALF_32, out=t)
    return cdf


def gelu(x) -> Tensor:
    """Exact (erf-based) GELU, ``d * Phi(d)``.  When its node will be
    recorded, the forward also forms the slope ``cdf + d * pdf``, the one
    array its backward reads.

    Float64 takes ``Phi`` from ``scipy.special.erf``, the reference of the
    gradient checks.  Float32 takes it from :func:`_normal_cdf32`, within
    1.2e-7 of float64: scipy's float32 erf evaluates in double and costs
    20-50 times ``np.exp``.  Its ``np.tanh`` follows numpy's SIMD dispatch,
    so its last bits depend on the machine, as ``np.exp``'s already do."""
    x = _as_tensor(x)
    d = x.data
    if d.dtype == np.float32:
        cdf = _normal_cdf32(d)
    else:
        cdf = 0.5 * (1.0 + _erf(d * _INV_SQRT2))
    slope = None
    if _records((x,)):
        slope = cdf + d * (np.exp(-0.5 * d * d) * _INV_SQRT_2PI)
    out = np.multiply(d, cdf, out=cdf)

    def bw(g):
        return (g * slope,)

    return _record_op(out, (x,), bw)


def layer_norm(x, gain, shift) -> Tensor:
    """Normalize over the channel axis of an NCHW tensor, then scale/shift.

    Statistics are per (sample, row, column) position; ``gain`` and
    ``shift`` are per-channel vectors.  The input is centred into the array
    that becomes the normalized ``xhat``, which is then scaled in place.  A
    recorded node keeps ``xhat`` for its backward; an unrecorded one writes
    its output over ``xhat`` (unless a float64 gain or shift widens a
    float32 input), so it holds two maps besides its input at its peak.
    """
    x, gain, shift = _as_tensor(x), _as_tensor(gain), _as_tensor(shift)
    if x.ndim != 4:
        raise ShapeError(f"layer_norm expects an NCHW tensor, got shape {x.shape}")
    c = x.shape[1]
    if gain.shape != (c,) or shift.shape != (c,):
        raise ShapeError(
            f"gain/shift must have shape ({c},), got {gain.shape} and {shift.shape}"
        )
    # np.add.reduce / c is what ndarray.mean computes, minus its Python
    # wrapper: mean divides by an intp count in float64 and rounds, which
    # for a float32 quotient gives the same bits as dividing in float32.
    mu = np.add.reduce(x.data, axis=1, keepdims=True) / c
    xhat = x.data - mu  # centred here, normalized in place below
    var = np.add.reduce(xhat * xhat, axis=1, keepdims=True) / c
    invstd = 1.0 / np.sqrt(var + _LN_EPS)
    xhat *= invstd
    gcol, scol = gain.data.reshape(1, c, 1, 1), shift.data.reshape(1, c, 1, 1)
    wide = np.result_type(xhat, gcol, scol) != xhat.dtype  # float64 gain or shift on float32
    out = np.multiply(xhat, gcol, out=None if wide or _records((x, gain, shift)) else xhat)
    out = out + scol if wide else np.add(out, scol, out=out)

    def bw(g):
        gxhat = g * gcol
        m1 = gxhat.mean(axis=1, keepdims=True)
        m2 = (gxhat * xhat).mean(axis=1, keepdims=True)
        gx = invstd * (gxhat - m1 - xhat * m2)
        ggain = (g * xhat).sum(axis=(0, 2, 3))
        gshift = g.sum(axis=(0, 2, 3))
        return gx, ggain, gshift

    return _record_op(out, (x, gain, shift), bw)


def global_avg_pool(x) -> Tensor:
    """Mean over the two spatial axes of an NCHW tensor, giving (N, C)."""
    x = _as_tensor(x)
    if x.ndim != 4:
        raise ShapeError(f"global_avg_pool expects an NCHW tensor, got shape {x.shape}")
    return reduce_mean(x, axis=(2, 3))
