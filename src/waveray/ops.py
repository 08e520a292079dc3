"""Convolution kernels.

Three flavors cover everything the architecture needs: a general strided,
grouped 2-D convolution (cross-correlation convention, zero padding), a
1x1 channel-mixing convolution, and a depthwise separable 1-D filter bank
whose taps are shared across channels (the workhorse of the wavelet
blocks).

The filter bank takes several tap vectors and several spatial axes at
once and computes every band the wavelet blocks need in one call and one
tape node.  Its path prefixes form a tree, stored level by level as one
stack of maps.  A filter along an axis is a band matrix with the mirrored
border folded in (lowering a convolution to a matrix product, as in
Chellapilla, Puri & Simard, "High Performance Convolutional Neural
Networks for Document Processing", 2006), so each level runs one matmul
per filter, and so does its backward, from the deepest level up.
Symmetric padding keeps a constant map constant under an averaging filter
right up to the borders, which the zero-padded general convolution cannot
do.

The 1x1 convolution needs no rearrangement: in NCHW each sample's maps are
stored as a (C, H*W) matrix, so the forward is the weight times that matrix
and the input gradient is the transposed weight times the gradient's
(Chetlur et al., "cuDNN: Efficient Primitives for Deep Learning", 2014).
Its output and both gradients come out C-ordered.  At the table-1 layers
this is bit-identical to numpy's einsum; on small desk maps, where OpenBLAS
picks another kernel, it may round a last bit differently.

The general convolution calls ``np.matmul`` directly, in the operand order
and memory layout that numpy's ``einsum(..., optimize=True)`` uses for the
same contraction: the second einsum operand goes first, rows or columns are
fused by ``transpose(...).reshape(...)``, and the patch matrix is a
C-ordered copy.  At every layer shape of the models its results are thus
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
    Each sample's maps are multiplied as stored, so the output, the input
    gradient and the weight gradient are C-contiguous.
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
    out =np.matmul(w2, xd.reshape(n, cin, h * w)).reshape(n, cout, h, w)
    has_bias = bias is not None
    if has_bias:
        out = out + bias.data.reshape(1, cout, 1, 1)

    def bw(g):
        # (C, N*H*W) columns: views at batch 1, one copy of H*W rows otherwise
        x_cols = xd.transpose(1, 0, 2, 3).reshape(cin, n * h * w)
        g_cols = g.transpose(1, 0, 2, 3).reshape(cout, n * h * w)
        gw = g_cols @ x_cols.T
        gx = np.matmul(w2.T, g.reshape(n, cout, h * w)).reshape(n, cin, h, w)
        if not has_bias:
            return gx, gw
        return gx, gw, g.sum(axis=(0, 2, 3))

    return _record_op(out, (x, weight, bias) if has_bias else (x, weight), bw)


@functools.lru_cache(maxsize=None)
def _band_basis(length: int, k: int, stride: int) -> np.ndarray:
    """The (k, out * length) counts that turn k taps into a band matrix.

    Output ``j`` of a k-tap filter along an axis of ``length`` reads padded
    position ``j * stride + t`` with tap ``t``; mirrored at the borders,
    that is one source position.  Row ``t`` marks that source for every
    output, so ``taps @ basis`` is the flattened (out, length) band matrix,
    and where a window reads one source twice its entry is both taps' sum.
    The padding is ``k - stride`` in all, left-heavy; the extent must cover it.
    """
    before, after = (k - stride + 1) // 2, (k - stride) // 2
    if before > length or after > length:
        raise ShapeError(f"extent {length} too small for symmetric padding ({before}, {after})")
    out_len = length // stride
    p = np.arange(out_len) * stride + np.arange(k)[:, None] - before
    src = np.where(p < 0, -1 - p, np.where(p >= length, 2 * length - 1 - p, p))
    basis = np.zeros((k, out_len, length))
    basis[np.arange(k)[:, None], np.arange(out_len), src] = 1.0
    basis = basis.reshape(k, -1)
    basis.setflags(write=False)  # shared by every call through the cache
    return basis


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

    - ``levels``: per level, the axis of the (node, N, C, H, W) stack and,
      per filter, the filter, its nodes' parents (a slice where evenly
      spaced) and the slice of the stack its nodes fill.  Nodes are ordered
      by filter, then by parent;
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
        levels.append((axes[(n - 1) % len(axes)] + 1, tuple(filters)))
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
    exactly halves an even extent.  The whole bank is one tape node over
    ``x`` and the bank's tensors.

    A filter along an axis of length L is one (out, L) band matrix ``M``,
    ``taps @ _band_basis(L, k, stride)``, which folds the mirrored padding
    in.  Per level of the path tree and per filter, the forward is one
    matmul of the parents' stack with ``M`` along the filtered axis: one
    product over all rows along the width, one (out, L) @ (L, W) product
    per map along the height.  The backward runs from the deepest level up,
    one product over all maps per level and filter (along the height, with
    the gradient's height axis moved first): the parents' gradient is
    ``g @ M`` along the filtered axis, and the tap gradients are the basis
    contracted with the (out, L) product of the gradient and the parents'
    stack.  Only a recorded node keeps the level stacks and matrices for
    its backward.
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
    recorded = _records((x, *bank))

    stack = np.ascontiguousarray(x.data)[None]  # (node, N, C, H, W): one node per path prefix
    saved = []  # per level, what the backward reads: the parents' stack and the matrices
    built = {}  # (filter, length) -> band matrix: levels along equal extents share one
    for axis_, filters in levels:
        length = stack.shape[axis_]
        out_len = length // stride
        shape = list(stack.shape)
        shape[0], shape[axis_] = filters[-1][2].stop, out_len
        level = np.empty(shape, dtype=dtype)
        mats = []
        for f, parents, nodes in filters:
            m = built.get((f, length))
            if m is None:
                # summed in float64, so an entry that sums several taps rounds once
                m = tap_vals[f] @ _band_basis(length, tap_vals[f].size, stride)
                m = built[f, length] = m.astype(dtype, copy=False).reshape(out_len, length)
            if axis_ == 4:
                np.matmul(stack[parents].reshape(-1, length), m.T,
                          out=level[nodes].reshape(-1, out_len))
            else:
                np.matmul(m, stack[parents], out=level[nodes])
            mats.append(m)
        if recorded:
            saved.append((stack, mats))
        stack = level

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
        for (axis_, filters), (xs, mats) in zip(levels[::-1], saved[::-1]):
            gxs = np.zeros(xs.shape, dtype=gstack.dtype)
            for (f, parents, nodes), m in zip(filters, mats):
                g_f, x_f = gstack[nodes], xs[parents]
                out_len, length = m.shape
                if axis_ == 4:
                    g_rows = g_f.reshape(-1, out_len)
                    gxs[parents] += (g_rows @ m).reshape(x_f.shape)
                    prod = g_rows.T @ x_f.reshape(-1, length)
                else:  # the height first, then the rest: one product for all maps
                    g_cols = np.ascontiguousarray(g_f.transpose(3, 0, 1, 2, 4)).reshape(out_len, -1)
                    gx_f = (m.T @ g_cols).reshape((length,) + g_f.shape[:3] + g_f.shape[4:])
                    gxs[parents] += gx_f.transpose(1, 2, 3, 0, 4)
                    prod = g_cols @ np.ascontiguousarray(x_f.swapaxes(3, 4)).reshape(-1, length)
                gbank[f] += _band_basis(length, tap_vals[f].size, stride) @ prod.reshape(-1)
            gstack = gxs
        return (gstack[0], *gbank)

    return _record_op(out, (x, *bank), bw)
