"""Convolution kernels.

Three flavors cover everything the architecture needs: a general strided,
grouped 2-D convolution (cross-correlation convention, zero padding), a
1x1 channel-mixing convolution, and a depthwise 1-D filter along a single
spatial axis whose taps are shared across channels (the workhorse of the
wavelet blocks).

The 1-D filter supports symmetric padding so that a constant map stays
constant under an averaging filter right up to the borders, which the
zero-padded general convolution cannot do.

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

    xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if (ph or pw) else x.data
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

    ``weight`` may be (C_out, C_in) or the equivalent (C_out, C_in, 1, 1);
    ``bias``, when given, is a (C_out,) vector.
    """
    x, weight = _as_tensor(x), _as_tensor(weight)
    if x.ndim != 4:
        raise ShapeError(f"pointwise_conv expects an NCHW tensor, got shape {x.shape}")
    if weight.ndim == 4:
        if weight.shape[2:] != (1, 1):
            raise ShapeError(f"4-d pointwise weight must end in (1, 1), got {weight.shape}")
        w2 = weight.data.reshape(weight.shape[0], weight.shape[1])
    elif weight.ndim == 2:
        w2 = weight.data
    else:
        raise ShapeError(f"pointwise weight must be 2-d or 4-d, got shape {weight.shape}")
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
        gw = np.matmul(x_cols, g_rows).T.reshape(weight.shape)
        gx = np.matmul(w2.T, g_cols).reshape(cin, n, h, w).transpose(1, 0, 2, 3)
        if bias is None:
            return gx, gw
        return gx, gw, g.sum(axis=(0, 2, 3))

    return _record_op(out, (x, weight) if bias is None else (x, weight, bias), bw)


def _axis_slice(ndim: int, axis: int, start: int, stop: int, step: int) -> tuple:
    sl = [slice(None)] * ndim
    sl[axis] = slice(start, stop, step)
    return tuple(sl)


def sep_conv1d(x, taps, axis: int, stride: int = 1, pad_mode: str = "symmetric") -> Tensor:
    """Depthwise 1-D correlation along one spatial axis with shared taps.

    Every channel of the NCHW input is filtered with the same 1-D tap
    vector.  Padding totals ``len(taps) - stride`` (left-heavy when odd),
    so stride 1 preserves the extent and stride 2 exactly halves an even
    extent.  ``pad_mode`` is "symmetric" (edge-mirrored, the default for
    the wavelet blocks) or "zero".
    """
    x, taps = _as_tensor(x), _as_tensor(taps)
    if x.ndim != 4:
        raise ShapeError(f"sep_conv1d expects an NCHW tensor, got shape {x.shape}")
    if taps.ndim != 1 or taps.size < 1:
        raise ShapeError(f"taps must be a nonempty vector, got shape {taps.shape}")
    if axis not in (2, 3):
        raise ShapeError(f"axis must be 2 (height) or 3 (width), got {axis}")
    if stride not in (1, 2):
        raise ShapeError(f"stride must be 1 or 2, got {stride}")
    if pad_mode not in ("symmetric", "zero"):
        raise ShapeError(f"pad_mode must be 'symmetric' or 'zero', got {pad_mode!r}")

    k = taps.size
    length = x.shape[axis]
    before = (k - stride + 1) // 2
    after = (k - stride) // 2

    idx = None
    if pad_mode == "symmetric":
        if before > length or after > length:
            raise ShapeError(
                f"extent {length} too small for symmetric padding ({before}, {after})"
            )
        idx = np.concatenate(
            [np.arange(before)[::-1], np.arange(length), length - 1 - np.arange(after)]
        )
        xp = np.take(x.data, idx, axis=axis)
    else:
        pad = [(0, 0)] * 4
        pad[axis] = (before, after)
        xp = np.pad(x.data, pad)

    out_len = (length + before + after - k) // stride + 1
    tap_vals = taps.data
    out = None
    for t in range(k):
        sl = _axis_slice(4, axis, t, t + stride * (out_len - 1) + 1, stride)
        piece = xp[sl]
        out = tap_vals[t] * piece if out is None else out + tap_vals[t] * piece

    def bw(g):
        gtaps = np.empty(k, dtype=taps.dtype)
        gxp = np.zeros_like(xp)
        for t in range(k):
            sl = _axis_slice(4, axis, t, t + stride * (out_len - 1) + 1, stride)
            gtaps[t] = np.sum(g * xp[sl])
            gxp[sl] += tap_vals[t] * g
        if pad_mode == "symmetric":
            gx = np.ascontiguousarray(gxp[_axis_slice(4, axis, before, before + length, 1)])
            # fold the mirrored border columns back onto their sources
            gm = np.moveaxis(gx, axis, 0)
            gpm = np.moveaxis(gxp, axis, 0)
            for j in range(before):
                gm[before - 1 - j] += gpm[j]
            for j in range(after):
                gm[length - 1 - j] += gpm[before + length + j]
        else:
            gx = np.ascontiguousarray(gxp[_axis_slice(4, axis, before, before + length, 1)])
        return gx, gtaps

    return _record_op(out, (x, taps), bw)
