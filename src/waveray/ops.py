"""Convolution kernels.

Three flavors cover everything the architecture needs: a general strided,
grouped 2-D convolution (cross-correlation convention, zero padding), a
1x1 channel-mixing convolution, and a depthwise separable 1-D filter bank
whose taps are shared across channels (the workhorse of the wavelet
blocks).

The filter bank takes several tap vectors and several spatial axes at
once and computes every band the wavelet blocks need in one call and one
tape node.  Its path prefixes form a tree, stored level by level as one
stack of maps, so the forward filters all nodes that share a filter with
the same per-tap multiply-adds.  Each level is padded once, for its widest
filter.  The backward runs node by node on maps of a lone call's size.
Per element, the arithmetic is that of the equivalent chain of
single-filter calls, in the same order; every tap gradient is the same
per-node sum, and the input and tap gradients reach the tape in the
chain's reverse order.  Results and gradients thus equal the chain's bit
for bit.  Symmetric padding keeps a constant map constant under an
averaging filter right up to the borders, which the zero-padded general
convolution cannot do.

The two channel-mixing kernels call ``np.matmul`` directly, in the operand
order and memory layout that numpy's ``einsum(..., optimize=True)`` uses for
the same contraction: the second einsum operand goes first, rows or columns
are fused by ``transpose(...).reshape(...)``, and the conv patch matrix is a
C-ordered copy.  At every layer shape of the models their results are thus
bit-identical to the einsum formulation, without its per-call path planning.
Only where einsum squeezes unit extents in several places at once (say a
grouped conv on 1x1 maps) may it lay an operand out otherwise and round a
last bit differently.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .autodiff import Tensor, _as_tensor, _record_op
from .errors import ShapeError


def _pair(v) -> tuple[int, int]:
    if isinstance(v, (int, np.integer)):
        return int(v), int(v)
    a, b = v
    return int(a), int(b)


def conv2d(x, kernel, stride=(1, 1), padding=(0, 0), groups: int = 1) -> Tensor:
    """Strided, grouped 2-D cross-correlation with zero padding.

    ``x`` is NCHW, ``kernel`` is (C_out, C_in/groups, kh, kw).  Output
    extents follow floor((extent + 2*pad - k) / stride) + 1.
    """
    x, kernel = _as_tensor(x), _as_tensor(kernel)
    if x.ndim != 4 or kernel.ndim != 4:
        raise ShapeError(f"conv2d expects NCHW input and OIHW kernel, got {x.shape} and {kernel.shape}")
    n, c, h, w = x.shape
    cout, cin_g, kh, kw = kernel.shape
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    if sh < 1 or sw < 1 or ph < 0 or pw < 0:
        raise ShapeError(f"bad stride {stride!r} or padding {padding!r}")
    if groups < 1 or c % groups or cout % groups:
        raise ShapeError(f"groups={groups} does not divide channels in={c}, out={cout}")
    if cin_g != c // groups:
        raise ShapeError(
            f"kernel expects {cin_g} input channels per group, input provides {c // groups}"
        )
    if kh > h + 2 * ph or kw > w + 2 * pw:
        raise ShapeError(f"kernel {kh}x{kw} exceeds padded input {h + 2 * ph}x{w + 2 * pw}")
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1

    xp = x.data
    if ph or pw:
        xp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
        xp[:, :, ph : ph + h, pw : pw + w] = x.data
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    cout_g = cout // groups
    # (groups, cin_g*kh*kw, n*ho*wo) in C order, as einsum copied it; backward reuses it
    patches = np.ascontiguousarray(
        win.reshape(n, groups, cin_g, ho, wo, kh, kw).transpose(1, 2, 5, 6, 0, 3, 4)
    ).reshape(groups, cin_g * kh * kw, n * ho * wo)
    kg = kernel.data.reshape(groups, cout_g, cin_g * kh * kw)
    out = np.matmul(kg, patches).reshape(cout, n, ho, wo).transpose(1, 0, 2, 3)

    def bw(g):
        gg = g.reshape(n, groups, cout_g, ho, wo)
        g_rows = gg.transpose(1, 0, 3, 4, 2).reshape(groups, n * ho * wo, cout_g)
        g_cols = gg.transpose(1, 2, 0, 3, 4).reshape(groups, cout_g, n * ho * wo)
        gk = np.matmul(patches, g_rows).transpose(0, 2, 1).reshape(kernel.shape)
        gwin = np.matmul(kg.transpose(0, 2, 1), g_cols)
        gwin = gwin.reshape(c, kh, kw, n, ho, wo).transpose(3, 0, 4, 5, 1, 2)
        gxp = np.zeros_like(xp)
        for a in range(kh):
            for b in range(kw):
                gxp[:, :, a : a + sh * (ho - 1) + 1 : sh, b : b + sw * (wo - 1) + 1 : sw] += gwin[
                    ..., a, b
                ]
        gx = gxp[:, :, ph : ph + h, pw : pw + w] if (ph or pw) else gxp
        return np.ascontiguousarray(gx), gk

    return _record_op(out, (x, kernel), bw)


def pointwise_conv(x, weight, bias=None) -> Tensor:
    """1x1 convolution: a per-pixel linear map over channels.

    ``weight`` is (C_out, C_in); ``bias``, when given, is a (C_out,) vector.
    """
    x, weight = _as_tensor(x), _as_tensor(weight)
    if x.ndim != 4:
        raise ShapeError(f"pointwise_conv expects an NCHW tensor, got shape {x.shape}")
    if weight.ndim != 2:
        raise ShapeError(f"pointwise weight must be 2-d, got shape {weight.shape}")
    w2 = weight.data
    cout, cin = w2.shape
    if cin != x.shape[1]:
        raise ShapeError(f"channel mismatch: input has {x.shape[1]}, weight expects {cin}")
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (cout,):
            raise ShapeError(f"bias must have shape ({cout},), got {bias.shape}")

    n, _, h, w = x.shape
    xd = x.data
    x_rows = xd.transpose(0, 2, 3, 1).reshape(n * h * w, cin)
    out = np.matmul(x_rows, w2.T).reshape(n, h, w, cout).transpose(0, 3, 1, 2)
    if bias is not None:
        out = out + bias.data.reshape(1, cout, 1, 1)

    def bw(g):
        x_cols = xd.transpose(1, 0, 2, 3).reshape(cin, n * h * w)
        g_rows = g.transpose(0, 2, 3, 1).reshape(n * h * w, cout)
        g_cols = g.transpose(1, 0, 2, 3).reshape(cout, n * h * w)
        gw = np.matmul(x_cols, g_rows).T
        gx = np.matmul(w2.T, g_cols).reshape(cin, n, h, w).transpose(1, 0, 2, 3)
        if bias is None:
            return gx, gw
        return gx, gw, g.sum(axis=(0, 2, 3))

    return _record_op(out, (x, weight) if bias is None else (x, weight, bias), bw)


def _pad_extents(k: int, stride: int) -> tuple[int, int]:
    """Padding before and after a k-tap filter: ``k - stride`` in all, left-heavy."""
    return (k - stride + 1) // 2, (k - stride) // 2


@functools.lru_cache(maxsize=None)
def _windows(axis: int, start: int, count: int, out_len: int, stride: int) -> tuple:
    """Index tuples of ``count`` strided windows along ``axis``, the first at ``start``."""
    lead = (slice(None),) * axis
    span = stride * (out_len - 1) + 1
    return tuple(lead + (slice(start + t, start + t + span, stride),) for t in range(count))


@functools.lru_cache(maxsize=None)
def _mirror_index(length: int, before: int, after: int) -> np.ndarray:
    idx = np.concatenate(
        [np.arange(before)[::-1], np.arange(length), length - 1 - np.arange(after)]
    )
    idx.setflags(write=False)  # shared by every call through the cache
    return idx


def _stack_index(positions: list[int]):
    """A slice (a view) when the positions are evenly spaced, else the positions."""
    step = positions[1] - positions[0] if len(positions) > 1 else 1
    if step > 0 and positions == list(range(positions[0], positions[-1] + 1, step)):
        return slice(positions[0], positions[-1] + 1, step)
    return np.array(positions)


@dataclass(frozen=True)
class _Group:
    """The nodes of one level that apply bank filter ``f`` (``k`` taps): they
    read the parents at ``src`` and fill the level's positions ``dst``."""

    f: int
    k: int
    before: int  # the filter's own padding
    after: int
    off: int  # where its padding starts inside the level's shared one
    parents: tuple
    src: object  # the parents as one index: a slice where they are evenly spaced
    dst: slice
    ranks: tuple  # record position of each node


@dataclass(frozen=True)
class _Level:
    axis: int  # of the (node, N, C, H, W) stack
    before: int  # the shared padding: the widest of the level's filters
    after: int
    groups: tuple
    parent_terms: tuple  # per parent node: its children's positions, last recorded first


@dataclass(frozen=True)
class _Plan:
    levels: tuple
    band_leaves: tuple  # per band: the leaves it sums, in order
    leaf_terms: tuple  # per leaf: the bands that read it, last band first
    slots: tuple  # inputs and backward outputs, last recorded node first: (is_x, f, rank)


@functools.lru_cache(maxsize=None)
def _bank_plan(lengths: tuple, axes: tuple, stride: int, rounds: int, bands) -> _Plan:
    """Lay out the prefix tree of the bands' paths as one node stack per level.

    A node is a path prefix; its parent is the prefix one filter shorter.
    Within a level, nodes are ordered by filter, then by parent, so each
    filter's nodes fill one slice of the level's stack.  The record order is
    that of the equivalent chain of single-filter calls: the first round
    level by level in lexicographic order, then each later round path by
    path.  Backward accumulates in the reverse of that order.
    """
    if bands is None:
        bands = tuple((p,) for p in itertools.product(range(len(lengths)), repeat=len(axes)))
    if not bands or not all(
        band and all(len(p) == len(axes) and all(0 <= i < len(lengths) for i in p)
                     for p in band)
        for band in bands
    ):
        raise ShapeError(f"bands must list paths of {len(axes)} indices into a bank of "
                         f"{len(lengths)}, got {bands}")
    paths = sorted({p * rounds for band in bands for p in band})
    first = [q for n in range(1, len(axes) + 1) for q in sorted({p[:n] for p in paths})]
    chains = [p[:n] for p in paths for n in range(len(axes) + 1, len(axes) * rounds + 1)]
    rank = {q: i for i, q in enumerate(first + chains)}
    levels = []
    pos = {(): 0}
    for n in range(1, len(axes) * rounds + 1):
        nodes = sorted({p[:n] for p in paths}, key=lambda q: (q[-1], pos[q[:-1]]))
        filters = sorted({q[-1] for q in nodes})
        pads = {f: _pad_extents(lengths[f], stride) for f in filters}
        before = max(b for b, _ in pads.values())
        groups = []
        terms = [[] for _ in pos]
        for f in filters:
            members = [q for q in nodes if q[-1] == f]
            start = nodes.index(members[0])
            for j, q in enumerate(members):
                terms[pos[q[:-1]]].append((rank[q], start + j))
            parents = [pos[q[:-1]] for q in members]
            groups.append(_Group(
                f, lengths[f], *pads[f], before - pads[f][0], tuple(parents),
                _stack_index(parents),
                slice(start, start + len(members)), tuple(rank[q] for q in members),
            ))
        levels.append(_Level(
            axes[(n - 1) % len(axes)] + 1, before, max(a for _, a in pads.values()),
            tuple(groups),
            tuple(tuple(i for _, i in sorted(t, reverse=True)) for t in terms) if n > 1 else (),
        ))
        pos = {q: i for i, q in enumerate(nodes)}
    band_leaves = tuple(tuple(pos[p * rounds] for p in band) for band in bands)
    leaf_terms = tuple(
        tuple(b for b in reversed(range(len(bands))) if leaf in band_leaves[b])
        for leaf in range(len(pos))
    )
    slots = []
    for q in sorted(rank, key=rank.get, reverse=True):
        if len(q) == 1:
            slots.append((True, q[-1], rank[q]))  # the filtered input itself
        slots.append((False, q[-1], rank[q]))
    return _Plan(tuple(levels), band_leaves, leaf_terms, tuple(slots))


def _pad(stack: np.ndarray, level: _Level, pad_mode: str) -> np.ndarray:
    axis, before, after = level.axis, level.before, level.after
    length = stack.shape[axis]
    if pad_mode == "symmetric":
        if before > length or after > length:
            raise ShapeError(
                f"extent {length} too small for symmetric padding ({before}, {after})"
            )
        return stack.take(_mirror_index(length, before, after), axis=axis)
    shape = list(stack.shape)
    shape[axis] += before + after
    padded = np.zeros(shape, dtype=stack.dtype)
    padded[_windows(axis, before, 1, length, 1)[0]] = stack
    return padded


def _sum_in_order(terms: list) -> np.ndarray:
    """((t0 + t1) + t2) + ..., the order a tape sums a value's uses in."""
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def sep_conv1d(x, taps, axis, stride: int = 1, pad_mode: str = "symmetric", rounds: int = 1,
               bands=None) -> Tensor:
    """Depthwise separable 1-D filter bank with taps shared across channels.

    ``taps`` is one tap vector or a bank of them; ``axis`` is one spatial
    axis (2 height, 3 width) or a sequence of them.  A path picks one bank
    filter per listed axis and correlates along each in turn; with
    ``rounds`` > 1 the result is filtered along the same path again, that
    many times in all.  ``bands`` lists the output bands, each a sequence of
    paths (tuples of bank indices) whose results are summed; by default each
    path of the bank is a band of its own, in lexicographic order.  Bands are
    stacked on the channel axis: the output is (N, len(bands) * C, H', W').
    One filter along one axis is the plain depthwise correlation.

    Every pass pads by ``len(taps) - stride`` (left-heavy when odd), so
    stride 1 preserves the extent and stride 2 exactly halves an even
    extent.  ``pad_mode`` is "symmetric" (edge-mirrored, the default for
    the wavelet blocks) or "zero".  Each level of the path tree is padded
    once, for its longest filter, and shorter filters read a slice of that
    pad.  The whole bank is one tape node; its outputs and gradients are
    bit-identical to the equivalent chain of single-filter calls.
    """
    x = _as_tensor(x)
    bank = (taps,) if isinstance(taps, (Tensor, np.ndarray)) else tuple(taps)
    bank = tuple(_as_tensor(t) for t in bank)
    axes = (axis,) if isinstance(axis, (int, np.integer)) else tuple(axis)
    if x.ndim != 4:
        raise ShapeError(f"sep_conv1d expects an NCHW tensor, got shape {x.shape}")
    if not bank or any(t.ndim != 1 or t.size < 1 for t in bank):
        raise ShapeError(f"taps must be nonempty vectors, got shapes {[t.shape for t in bank]}")
    if not axes or any(a not in (2, 3) for a in axes):
        raise ShapeError(f"axis must be 2 (height) or 3 (width), got {axis}")
    if stride not in (1, 2):
        raise ShapeError(f"stride must be 1 or 2, got {stride}")
    if pad_mode not in ("symmetric", "zero"):
        raise ShapeError(f"pad_mode must be 'symmetric' or 'zero', got {pad_mode!r}")
    if rounds < 1:
        raise ShapeError(f"rounds must be at least 1, got {rounds}")
    if bands is not None:
        bands = tuple(tuple(tuple(int(i) for i in p) for p in band) for band in bands)
    plan = _bank_plan(tuple(t.size for t in bank), axes, stride, rounds, bands)
    tap_vals = [t.data for t in bank]
    dtype = np.result_type(x.data, *tap_vals)

    stack = x.data[None]  # (node, N, C, H, W): one node per path prefix
    saved = []
    for level in plan.levels:
        length = stack.shape[level.axis]
        out_len = (length - stride) // stride + 1
        xp = _pad(stack, level, pad_mode)
        shape = list(stack.shape)
        shape[0] = level.groups[-1].dst.stop
        shape[level.axis] = out_len
        stack = np.empty(shape, dtype=dtype)
        for group in level.groups:
            taps_f = tap_vals[group.f]
            xs = xp[group.src]
            dest = stack[group.dst]
            windows = _windows(level.axis, group.off, group.k, out_len, stride)
            np.multiply(taps_f[0], xs[windows[0]], out=dest)
            for t in range(1, group.k):
                dest += taps_f[t] * xs[windows[t]]
        saved.append((xp, length, out_len))

    n, c = x.shape[:2]
    out = np.empty((n, len(plan.band_leaves), c) + stack.shape[3:], dtype=dtype)
    for b, leaves in enumerate(plan.band_leaves):
        out[:, b] = _sum_in_order([stack[leaf] for leaf in leaves])
    out = out.reshape(n, -1, *stack.shape[3:])

    def bw(g):
        g5 = g.reshape(n, len(plan.band_leaves), c, *g.shape[2:])
        node_grads = [_sum_in_order([g5[:, b] for b in terms]) for terms in plan.leaf_terms]
        grads = {}
        for level, (xp, length, out_len) in zip(plan.levels[::-1], saved[::-1]):
            ax = level.axis - 1  # of one node's (N, C, H, W) map
            gxs = [None] * len(node_grads)
            for group in level.groups:
                taps_f = tap_vals[group.f]
                reads = _windows(ax, group.off, group.k, out_len, stride)
                writes = _windows(ax, 0, group.k, out_len, stride)
                # node by node, on maps the size a lone call sees: the tap sums
                # reduce the same arrays, and the maps stay cache-sized
                for j, (parent, r) in enumerate(zip(group.parents, group.ranks)):
                    xs = xp[parent]
                    gg = node_grads[group.dst.start + j]
                    shape = list(xs.shape)
                    shape[ax] = length + group.before + group.after
                    gxp = np.zeros(shape, dtype=xp.dtype)
                    gtaps = np.empty(group.k, dtype=taps_f.dtype)
                    for t in range(group.k):
                        gtaps[t] = np.sum(gg * xs[reads[t]])
                        gxp[writes[t]] += taps_f[t] * gg
                    gx = np.ascontiguousarray(gxp[_windows(ax, group.before, 1, length, 1)[0]])
                    if pad_mode == "symmetric":
                        # fold the mirrored border back onto its sources
                        gm, gpm = np.moveaxis(gx, ax, 0), np.moveaxis(gxp, ax, 0)
                        for m in range(group.before):
                            gm[group.before - 1 - m] += gpm[m]
                        for m in range(group.after):
                            gm[length - 1 - m] += gpm[group.before + length + m]
                    grads[False, r], grads[True, r] = gtaps, gx
                    gxs[group.dst.start + j] = gx
            node_grads = [_sum_in_order([gxs[i] for i in terms]) for terms in level.parent_terms]
        return tuple(grads[is_x, r] for is_x, _, r in plan.slots)

    return _record_op(out, tuple(x if is_x else bank[f] for is_x, f, _ in plan.slots), bw)
