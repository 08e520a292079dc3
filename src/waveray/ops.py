"""Convolution kernels.

Three flavors cover everything the architecture needs: a general strided,
grouped 2-D convolution (cross-correlation convention, zero padding), a
1x1 channel-mixing convolution, and a depthwise separable 1-D filter bank
whose taps are shared across channels (the workhorse of the wavelet
blocks).

The filter bank takes several tap vectors and several spatial axes at
once and computes every band the wavelet blocks need in one call and one
tape node.  Its path prefixes form a tree, stored level by level as one
stack of maps: the forward pads each level once, symmetrically, for its
widest filter, and filters all nodes that share a filter with the same
per-tap multiply-adds.  The backward is that forward's adjoint, run from
the deepest level up: per level and filter, it scatters the filter's
slice of the gradient stack onto the padded parents, with the filtered
axis first so that each tap adds whole blocks, and forms the filter's tap
gradients from one matmul; per level, it folds the mirrored border back
once.  Symmetric padding keeps a constant map constant under an averaging
filter right up to the borders, which the zero-padded general convolution
cannot do.

The two channel-mixing kernels call ``np.matmul`` directly, in the operand
order and memory layout that numpy's ``einsum(..., optimize=True)`` uses for
the same contraction: the second einsum operand goes first, rows or columns
are fused by ``transpose(...).reshape(...)``, and the conv patch matrix is a
C-ordered copy.  At every layer shape of the models their results are thus
bit-identical to the einsum formulation, without its per-call path planning.
Only where einsum squeezes unit extents in several places at once (say a
grouped conv on 1x1 maps) may it lay an operand out otherwise and round a
last bit differently.

The general convolution forms no gradient for an input that needs none,
such as the images under the stem: its backward returns ``None`` there.
Its patch matrix is whole only for a recorded node, whose backward reuses
it.  With no node to record (serving, evaluation), it lowers and multiplies
a block of samples at a time into the preallocated output, so the patches,
k*k times the input, never exist for the whole batch at once.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .autodiff import Tensor, _as_tensor, _record_op, _records
from .errors import ShapeError

# An unrecorded conv2d lowers a block of samples at a time: at most
# _PATCH_BYTES of patches, unless the fewest samples whose output columns
# fill a multiple of _COLUMNS take more.  BLAS computes a GEMM's trailing
# columns with narrower kernels that may round differently, so a block
# boundary must fall where the whole GEMM's tiles do.  On OpenBLAS 0.3.31
# (x86-64, AVX-512), splits at multiples of 64 columns kept every bit over
# a grid of conv shapes at 1 and 2 threads; splits at multiples of 16 did not.
_PATCH_BYTES = 1 << 20
_COLUMNS = 64


def conv2d(x, kernel, stride=(1, 1), padding=(0, 0), groups: int = 1) -> Tensor:
    """Strided, grouped 2-D cross-correlation with zero padding.

    ``x`` is NCHW, ``kernel`` is (C_out, C_in/groups, kh, kw).  Output
    extents follow floor((extent + 2*pad - k) / stride) + 1.  When ``x``
    needs no gradient, as the images do, the backward forms none for it.

    A recorded node lowers the whole batch into one patch matrix, which its
    backward reuses.  An unrecorded one lowers a block of samples at a time
    (see ``_PATCH_BYTES``) and writes each block's product into the output;
    the blocks' products have the whole product's bits.
    """
    x, kernel = _as_tensor(x), _as_tensor(kernel)
    if x.ndim != 4 or kernel.ndim != 4:
        raise ShapeError(f"conv2d expects NCHW input and OIHW kernel, got {x.shape} and {kernel.shape}")
    n, c, h, w = x.shape
    cout, cin_g, kh, kw = kernel.shape
    sh, sw = map(int, stride)
    ph, pw = map(int, padding)
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
    kg = kernel.data.reshape(groups, cout_g, cin_g * kh * kw)
    out = np.empty((n, cout, ho, wo), dtype=np.result_type(kg, xp))
    if _records((x, kernel)) or cout_g == 1:
        # the backward reuses the whole batch's patches; BLAS splits a
        # matrix-vector product (one output channel per group) its own way
        per = max(n, 1)
    else:
        q = _COLUMNS // math.gcd(ho * wo, _COLUMNS)  # the fewest samples that align
        per = max(q, _PATCH_BYTES // (c * kh * kw * ho * wo * xp.itemsize) // q * q)
    for s in range(0, max(n, 1), per):  # an empty batch runs once: the backward reads it
        m = min(per, n - s)
        patches = None  # let the previous block go before this one is formed
        # (groups, cin_g*kh*kw, m*ho*wo) in C order, as einsum copied it
        patches = np.ascontiguousarray(
            win[s : s + m].reshape(m, groups, cin_g, ho, wo, kh, kw).transpose(1, 2, 5, 6, 0, 3, 4)
        ).reshape(groups, cin_g * kh * kw, m * ho * wo)
        out[s : s + m] = np.matmul(kg, patches).reshape(cout, m, ho, wo).transpose(1, 0, 2, 3)
    x_requires, k_shape, xp_shape, dtype = x.requires_grad, kernel.shape, xp.shape, xp.dtype

    def bw(g):
        gg = g.reshape(n, groups, cout_g, ho, wo)
        g_rows = gg.transpose(1, 0, 3, 4, 2).reshape(groups, n * ho * wo, cout_g)
        gk = np.matmul(patches, g_rows).transpose(0, 2, 1).reshape(k_shape)
        if not x_requires:  # the images, say: skip the scatter nothing reads
            return None, gk
        g_cols = gg.transpose(1, 2, 0, 3, 4).reshape(groups, cout_g, n * ho * wo)
        gwin = np.matmul(kg.transpose(0, 2, 1), g_cols)
        gwin = gwin.reshape(c, kh, kw, n, ho, wo).transpose(3, 0, 4, 5, 1, 2)
        gxp = np.zeros(xp_shape, dtype=dtype)
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
    has_bias = bias is not None
    if has_bias:
        out = out + bias.data.reshape(1, cout, 1, 1)

    def bw(g):
        x_cols = xd.transpose(1, 0, 2, 3).reshape(cin, n * h * w)
        g_rows = g.transpose(0, 2, 3, 1).reshape(n * h * w, cout)
        g_cols = g.transpose(1, 0, 2, 3).reshape(cout, n * h * w)
        gw = np.matmul(x_cols, g_rows).T
        gx = np.matmul(w2.T, g_cols).reshape(cin, n, h, w).transpose(1, 0, 2, 3)
        if not has_bias:
            return gx, gw
        return gx, gw, g.sum(axis=(0, 2, 3))

    return _record_op(out, (x, weight, bias) if has_bias else (x, weight), bw)


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


@functools.lru_cache(maxsize=None)
def _bank_plan(lengths: tuple, axes: tuple, stride: int, rounds: int, bands) -> tuple:
    """Lay out the prefix tree of the bands' paths as one node stack per level.

    A node is a path prefix; its parent is the prefix one filter shorter,
    and the input is the root ``()``.  Returns ``(levels, where, leaves)``:

    - ``levels``: per level, the axis of the (node, N, C, H, W) stack, its
      shared padding (the widest filter's) and, per filter, the filter, its
      nodes' parents (a slice where evenly spaced) and the slice of the
      stack its nodes fill.  Nodes are ordered by filter, then by parent;
    - ``where``: each node's level and position in its level's stack;
    - ``leaves``: per band, the leaves it sums, in order.
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
    levels = []
    where = {(): (-1, 0)}
    for n in range(1, len(axes) * rounds + 1):
        nodes = sorted({p[:n] for p in paths}, key=lambda q: (q[-1], where[q[:-1]][1]))
        filters = []
        for f in sorted({q[-1] for q in nodes}):
            mine = [i for i, q in enumerate(nodes) if q[-1] == f]
            parents = _stack_index([where[nodes[i][:-1]][1] for i in mine])
            filters.append((f, parents, slice(mine[0], mine[-1] + 1)))
        pads = [_pad_extents(lengths[f], stride) for f, _, _ in filters]
        levels.append((axes[(n - 1) % len(axes)] + 1, max(b for b, _ in pads),
                       max(a for _, a in pads), tuple(filters)))
        where.update((q, (n - 1, i)) for i, q in enumerate(nodes))
    leaves = tuple(tuple(p * rounds for p in band) for band in bands)
    return tuple(levels), where, leaves


def sep_conv1d(x, taps, axis, stride: int = 1, rounds: int = 1, bands=None) -> Tensor:
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

    Every pass pads symmetrically (edge-mirrored) by ``len(taps) - stride``
    (left-heavy when odd), so stride 1 preserves the extent and stride 2
    exactly halves an even extent.  Each level of the path tree is padded
    once, for its longest filter, and shorter filters read a slice of that
    pad.  The whole bank is one tape node over ``x`` and the bank's tensors.

    The backward mirrors the forward from the deepest level up.  Per level
    it moves the filtered axis of the gradient stack first and, per filter,
    adds ``taps[t]`` times the filter's slice of it onto the padded parents
    as whole blocks; then it folds the mirrored border back onto its
    sources.  A filter's tap gradients come from one product of its
    gradient slice, (out, rest), and its padded parents, (padded, rest):
    tap ``t``'s gradient is the sum of the product's entries at
    ``(j, off + j * stride + t)``.
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
    if rounds < 1:
        raise ShapeError(f"rounds must be at least 1, got {rounds}")
    if bands is not None:
        bands = tuple(tuple(tuple(int(i) for i in p) for p in band) for band in bands)
    levels, where, leaves = _bank_plan(tuple(t.size for t in bank), axes, stride, rounds, bands)
    tap_vals = [t.data for t in bank]
    dtype = np.result_type(x.data, *tap_vals)

    stack = x.data[None]  # (node, N, C, H, W): one node per path prefix
    padded_stacks = []  # per level, what the backward reads of the forward
    for axis_, before, after, filters in levels:
        length = stack.shape[axis_]
        if before > length or after > length:
            raise ShapeError(f"extent {length} too small for symmetric padding ({before}, {after})")
        xp = stack.take(_mirror_index(length, before, after), axis=axis_)
        out_len = (length - stride) // stride + 1
        shape = list(stack.shape)
        shape[0], shape[axis_] = filters[-1][2].stop, out_len
        stack = np.empty(shape, dtype=dtype)
        for f, parents, nodes in filters:
            taps_f = tap_vals[f]
            xs, dest = xp[parents], stack[nodes]
            off = before - _pad_extents(taps_f.size, stride)[0]
            windows = _windows(axis_, off, taps_f.size, out_len, stride)
            np.multiply(taps_f[0], xs[windows[0]], out=dest)
            for t in range(1, taps_f.size):
                dest += taps_f[t] * xs[windows[t]]
        padded_stacks.append(xp)

    n, c = x.shape[:2]
    out = np.empty((n, len(leaves), c) + stack.shape[3:], dtype=dtype)
    for b, band in enumerate(leaves):
        out[:, b] = functools.reduce(np.add, [stack[where[q][1]] for q in band])
    out = out.reshape(n, -1, *stack.shape[3:])

    def bw(g):
        g5 = g.reshape(n, len(leaves), c, *g.shape[2:])
        gstack = np.zeros(shape, dtype=g.dtype)  # the last level's stack
        for b, band in enumerate(leaves):
            for q in band:
                gstack[where[q][1]] += g5[:, b]
        gbank = [np.zeros_like(t) for t in tap_vals]
        for (axis_, before, after, filters), xp in zip(levels[::-1], padded_stacks[::-1]):
            # the filtered axis first, then node, then the rest: each tap adds whole blocks
            gf = np.moveaxis(gstack, axis_, 0)
            out_len, padded = gf.shape[0], xp.shape[axis_]
            gf = np.ascontiguousarray(gf).reshape(out_len, gf.shape[1], -1)
            xf = np.moveaxis(xp, axis_, 0).reshape(padded, xp.shape[0], -1)
            gxp = np.zeros(xf.shape, dtype=gf.dtype)
            span = stride * (out_len - 1) + 1
            for f, parents, nodes in filters:
                taps_f, g_f = tap_vals[f], gf[:, nodes]
                off = before - _pad_extents(taps_f.size, stride)[0]
                # row j of the product pairs output j with every padded position;
                # tap t's gradient is the sum of its entries at off + j * stride + t
                prod = g_f.reshape(out_len, -1) @ xf[:, parents].reshape(padded, -1).T
                diag = sliding_window_view(prod.reshape(-1), taps_f.size)[off :: padded + stride]
                gbank[f] += diag.sum(axis=0)
                for t in range(taps_f.size):
                    gxp[off + t : off + t + span : stride, parents] += taps_f[t] * g_f
            # fold the mirrored border back onto its sources
            end = padded - after
            gxp[before : 2 * before][::-1] += gxp[:before]
            gxp[end - after : end][::-1] += gxp[end:]
            rest = xp.shape[:axis_] + xp.shape[axis_ + 1 :]
            gstack = np.moveaxis(gxp[before:end].reshape((end - before,) + rest), 0, axis_)
        return (np.ascontiguousarray(gstack[0]), *gbank)

    return _record_op(out, (x, *bank), bw)
