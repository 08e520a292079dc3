"""Convolution ops against brute-force oracles.

The oracles below are deliberately dumb reimplementations: explicit loops
over every output element, no shared code with the library.  Equivalence
runs in double precision so the comparison measures algorithm agreement,
not accumulation order.
"""

import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import correlate1d

from waveray.autodiff import Tape, Tensor, add, backward, concat, gelu, mul, reduce_sum
from waveray.errors import ShapeError
from waveray.model import WaveletClassifier, cross_entropy, desk_config
from waveray import ops
from waveray.ops import conv2d, pointwise_conv, sep_conv1d

try:  # numpy >= 2.4 contracts each einsum pair with one matmul
    from numpy._core.einsumfunc import bmm_einsum  # noqa: F401

    EINSUM_ISSUES_MATMUL = True
except ImportError:
    EINSUM_ISSUES_MATMUL = False


def conv2d_oracle(x, k, stride, padding, groups):
    """Six nested loops over (n, cout, ho, wo, cin_g, kh, kw)."""
    n, c, h, w = x.shape
    cout, cin_g, kh, kw = k.shape
    sh, sw = stride
    ph, pw = padding
    xp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
    xp[:, :, ph : ph + h, pw : pw + w] = x
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    cout_g = cout // groups
    out = np.zeros((n, cout, ho, wo), dtype=x.dtype)
    for ni in range(n):
        for oc in range(cout):
            g = oc // cout_g
            for oy in range(ho):
                for ox in range(wo):
                    acc = 0.0
                    for ic in range(cin_g):
                        for dy in range(kh):
                            for dx in range(kw):
                                acc += (
                                    xp[ni, g * cin_g + ic, oy * sh + dy, ox * sw + dx]
                                    * k[oc, ic, dy, dx]
                                )
                    out[ni, oc, oy, ox] = acc
    return out


def sep_conv1d_oracle(x, taps, axis, stride):
    """Per-position loop along one axis with explicit (mirrored) border handling."""
    k = len(taps)
    before = (k - stride + 1) // 2
    after = (k - stride) // 2
    moved = np.moveaxis(x, axis, -1)
    length = moved.shape[-1]
    padded = np.zeros(moved.shape[:-1] + (length + before + after,), dtype=x.dtype)
    for j in range(length + before + after):
        src = j - before
        if src < 0:
            value = moved[..., -src - 1]
        elif src >= length:
            value = moved[..., 2 * length - src - 1]
        else:
            value = moved[..., src]
        padded[..., j] = value
    out_len = (length + before + after - k) // stride + 1
    out = np.zeros(moved.shape[:-1] + (out_len,), dtype=x.dtype)
    for j in range(out_len):
        for t in range(k):
            out[..., j] += taps[t] * padded[..., j * stride + t]
    return np.moveaxis(out, -1, axis)


def conv2d_grad_oracle(x, k, gout, stride, padding):
    """The forward's six loops, scattering each output gradient back."""
    n, c, h, w = x.shape
    cout, cin_g, kh, kw = k.shape
    sh, sw = stride
    ph, pw = padding
    xp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
    xp[:, :, ph : ph + h, pw : pw + w] = x
    gxp = np.zeros_like(xp)
    gk = np.zeros_like(k)
    cout_g = cout // (c // cin_g)
    for ni in range(n):
        for oc in range(cout):
            g = oc // cout_g
            for oy in range(gout.shape[2]):
                for ox in range(gout.shape[3]):
                    for ic in range(cin_g):
                        for dy in range(kh):
                            for dx in range(kw):
                                src = (ni, g * cin_g + ic, oy * sh + dy, ox * sw + dx)
                                gxp[src] += gout[ni, oc, oy, ox] * k[oc, ic, dy, dx]
                                gk[oc, ic, dy, dx] += gout[ni, oc, oy, ox] * xp[src]
    return gxp[:, :, ph : ph + h, pw : pw + w], gk


def pointwise_grad_oracle(x, w, gout):
    """Per-pixel transposed maps: gx = w^T g, gw = sum of g x^T, gb = sum of g."""
    gx = np.zeros_like(x)
    gw = np.zeros_like(w)
    gb = np.zeros(w.shape[0], dtype=w.dtype)
    for ni in range(x.shape[0]):
        for i in range(x.shape[2]):
            for j in range(x.shape[3]):
                g = gout[ni, :, i, j]
                gx[ni, :, i, j] = w.T @ g
                gw += np.outer(g, x[ni, :, i, j])
                gb += g
    return gx, gw, gb


def pull_back(op, arrays, gout):
    """Run ``op`` on fresh leaves, backpropagate ``gout``; return output and leaf grads."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        out = op(*leaves)
        loss = reduce_sum(mul(out, Tensor(gout)))
    backward(loss, tape)
    return out.data, [t.grad for t in leaves]


class TestConv2dOracle:
    @pytest.mark.parametrize("case", range(12))
    def test_random_configs(self, case):
        gen = np.random.default_rng(100 + case)
        groups = int(gen.choice([1, 1, 2]))
        cin_g = int(gen.integers(1, 4))
        cout = groups * int(gen.integers(1, 4))
        kh, kw = int(gen.integers(1, 4)), int(gen.integers(1, 4))
        sh, sw = int(gen.integers(1, 3)), int(gen.integers(1, 3))
        ph, pw = int(gen.integers(0, 3)), int(gen.integers(0, 3))
        h = int(gen.integers(kh + sh, kh + sh + 5))
        w = int(gen.integers(kw + sw, kw + sw + 5))
        n = int(gen.integers(1, 3))
        x = gen.normal(size=(n, groups * cin_g, h, w))
        k = gen.normal(size=(cout, cin_g, kh, kw))
        got = conv2d(Tensor(x), Tensor(k), stride=(sh, sw), padding=(ph, pw), groups=groups)
        want = conv2d_oracle(x, k, (sh, sw), (ph, pw), groups)
        err = np.abs(got.data - want).max() / max(np.abs(want).max(), 1e-12)
        assert err < 1e-12

    def test_identity_kernel(self):
        x = np.random.default_rng(0).normal(size=(1, 2, 5, 5)).astype(np.float32)
        k = np.zeros((2, 2, 1, 1), dtype=np.float32)
        k[0, 0] = 1.0
        k[1, 1] = 1.0
        out = conv2d(Tensor(x), Tensor(k))
        np.testing.assert_allclose(out.data, x, rtol=1e-6)

    def test_stride_reduces_extent(self):
        x = Tensor(np.ones((1, 1, 8, 8)))
        k = Tensor(np.ones((1, 1, 3, 3)))
        assert conv2d(x, k, stride=(2, 2), padding=(1, 1)).shape == (1, 1, 4, 4)

    def test_channel_mismatch_message_names_shapes(self):
        x = Tensor(np.ones((1, 4, 5, 5)))
        k = Tensor(np.ones((2, 3, 3, 3)))
        with pytest.raises(ShapeError, match="channels"):
            conv2d(x, k)

    def test_kernel_larger_than_padded_input(self):
        with pytest.raises(ShapeError):
            conv2d(Tensor(np.ones((1, 1, 4, 4))), Tensor(np.ones((1, 1, 7, 7))), padding=(1, 1))

    def test_group_count_must_divide(self):
        x = Tensor(np.ones((1, 3, 5, 5)))
        k = Tensor(np.ones((2, 1, 3, 3)))
        with pytest.raises(ShapeError):
            conv2d(x, k, groups=2)

    @pytest.mark.parametrize(
        "xshape, kshape, stride, padding, groups",
        [
            ((1, 3, 10, 10), (8, 3, 7, 7), (2, 2), (3, 3), 1),  # batch 1, stem geometry
            ((3, 2, 1, 1), (4, 2, 1, 1), (1, 1), (0, 0), 1),  # 1x1 maps
            ((2, 2, 1, 1), (3, 2, 3, 3), (1, 1), (1, 1), 1),  # 1x1 maps, padded 3x3
            ((2, 4, 5, 4), (6, 2, 3, 3), (1, 2), (1, 1), 2),
            ((1, 4, 1, 1), (2, 2, 1, 1), (1, 1), (0, 0), 2),  # groups, batch 1, 1x1 map
        ],
    )
    def test_forward_and_backward_match_loop_oracle(self, xshape, kshape, stride, padding, groups):
        gen = np.random.default_rng(sum(xshape) + sum(kshape))
        x = gen.normal(size=xshape)
        k = gen.normal(size=kshape)
        want = conv2d_oracle(x, k, stride, padding, groups)
        gout = gen.normal(size=want.shape)
        out, (gx, gk) = pull_back(
            lambda a, b: conv2d(a, b, stride=stride, padding=padding, groups=groups),
            (x, k), gout)
        want_gx, want_gk = conv2d_grad_oracle(x, k, gout, stride, padding)
        np.testing.assert_allclose(out, want, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gx, want_gx, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gk, want_gk, rtol=1e-12, atol=1e-12)

    def test_float32_stays_float32(self, rng):
        x = rng.normal(size=(2, 4, 6, 6)).astype(np.float32)
        k = rng.normal(size=(6, 2, 3, 3)).astype(np.float32)
        gout = rng.normal(size=(2, 6, 3, 3)).astype(np.float32)
        out, grads = pull_back(
            lambda a, b: conv2d(a, b, stride=(2, 2), padding=(1, 1), groups=2), (x, k), gout)
        assert [a.dtype for a in (out, *grads)] == [np.float32] * 3

    def test_images_without_grad_get_none_and_the_same_kernel_grad(self, rng):
        x = rng.normal(size=(2, 3, 16, 16)).astype(np.float32)  # the stem's geometry
        k = Tensor(rng.normal(size=(8, 3, 7, 7)).astype(np.float32), requires_grad=True)
        gout = rng.normal(size=(2, 8, 8, 8)).astype(np.float32)
        pulled = []
        for images in (Tensor(x), Tensor(x, requires_grad=True)):
            with Tape() as tape:
                conv2d(images, k, stride=(2, 2), padding=(3, 3))
            pulled.append(tape.nodes[-1].backward(gout))
        (gx_off, gk_off), (gx_on, gk_on) = pulled
        assert gx_off is None and gx_on is not None
        assert np.array_equal(gk_off, gk_on)

    def test_grad_matches_oracle_of_shifted_losses(self):
        """Gradient wrt the kernel equals conv of input with the output grad
        (verified here through the oracle on a small case)."""
        gen = np.random.default_rng(7)
        x = Tensor(gen.normal(size=(1, 2, 5, 5)), requires_grad=True)
        k = Tensor(gen.normal(size=(3, 2, 3, 3)), requires_grad=True)
        wsum = Tensor(gen.normal(size=(1, 3, 5, 5)))
        with Tape() as tape:
            out = conv2d(x, k, padding=(1, 1))
            loss = mul(out, wsum)
            from waveray.autodiff import reduce_sum

            loss = reduce_sum(loss)
        backward(loss, tape)
        # numeric check of one coordinate each
        for tensor in (x, k):
            flat = tensor.data.reshape(-1)
            gflat = tensor.grad.reshape(-1)
            idx = 5
            h = 1e-6
            saved = flat[idx]
            flat[idx] = saved + h
            up = (conv2d(x, k, padding=(1, 1)).data * wsum.data).sum()
            flat[idx] = saved - h
            down = (conv2d(x, k, padding=(1, 1)).data * wsum.data).sum()
            flat[idx] = saved
            num = (up - down) / (2 * h)
            assert abs(num - gflat[idx]) / max(abs(num), 1e-8) < 1e-6


class TestConv2dUnrecorded:
    """With no node to record, conv2d lowers a block of samples at a time
    (at most 1 MiB of patches, and a whole multiple of 64 output columns);
    a recorded node lowers the whole batch for its backward.  The blocks'
    GEMMs round as the whole batch's does."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 7, 64])
    @pytest.mark.parametrize("groups", [1, 3, 6])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 2])
    def test_untaped_equals_recorded(self, dtype, n, groups, stride, padding):
        # 6x24x24 inputs and 5x5 kernels: float32 blocks hold 3, 4, 12 or 16
        # samples (stride, padding), so batches 7 and 64 take several blocks;
        # at groups 6, one output channel per group, the whole batch is one block
        gen = np.random.default_rng(n + 10 * groups + 100 * stride + padding)
        x = gen.normal(size=(n, 6, 24, 24)).astype(dtype)
        k = Tensor(gen.normal(size=(6, 6 // groups, 5, 5)).astype(dtype), requires_grad=True)
        args = ((stride, stride), (padding, padding), groups)
        untaped = conv2d(x, k, *args).data
        with Tape() as tape:
            recorded = conv2d(x, k, *args)
        assert len(tape) == 1
        assert untaped.dtype == recorded.dtype == dtype
        assert np.array_equal(untaped, recorded.data)

    def test_blocks_are_lowered_one_at_a_time(self, monkeypatch):
        """A float32 desk stem batch of 64 lowers 6 samples (882 KiB of
        patches) per matmul when untaped, and all 64 in one when recorded."""
        gen = np.random.default_rng(0)
        x = gen.normal(size=(64, 3, 32, 32)).astype(np.float32)
        k = Tensor(gen.normal(size=(8, 3, 7, 7)).astype(np.float32), requires_grad=True)
        widths = []
        matmul = np.matmul

        def spy(a, b, *rest, **kwargs):
            widths.append(b.shape[-1])
            return matmul(a, b, *rest, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        conv2d(x, k, stride=(2, 2), padding=(3, 3))
        untaped, widths[:] = widths[:], []
        with Tape():
            conv2d(x, k, stride=(2, 2), padding=(3, 3))
        assert untaped == [6 * 256] * 10 + [4 * 256]
        assert widths == [64 * 256]

    def test_empty_batch(self):
        k = Tensor(np.ones((4, 3, 3, 3)), requires_grad=True)
        x = Tensor(np.ones((0, 3, 8, 8)), requires_grad=True)
        assert conv2d(x, k, padding=(1, 1)).shape == (0, 4, 8, 8)
        with Tape() as tape:
            loss = reduce_sum(conv2d(x, k, padding=(1, 1)))
        backward(loss, tape)
        assert np.array_equal(k.grad, np.zeros((4, 3, 3, 3))) and x.grad.shape == (0, 3, 8, 8)


class TestPointwiseConv:
    def test_equals_per_pixel_matmul(self, rng):
        x = rng.normal(size=(2, 5, 3, 4))
        w = rng.normal(size=(7, 5))
        b = rng.normal(size=7)
        got = pointwise_conv(Tensor(x), Tensor(w), Tensor(b)).data
        want = np.zeros((2, 7, 3, 4))
        for n in range(2):
            for i in range(3):
                for j in range(4):
                    want[n, :, i, j] = w @ x[n, :, i, j] + b
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_identity_weight(self, rng):
        x = rng.normal(size=(1, 4, 2, 2)).astype(np.float32)
        out = pointwise_conv(Tensor(x), Tensor(np.eye(4)))
        np.testing.assert_allclose(out.data, x, rtol=1e-6)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError, match="channel mismatch"):
            pointwise_conv(Tensor(np.ones((1, 3, 2, 2))), Tensor(np.ones((4, 5))))

    @pytest.mark.parametrize(
        "xshape, cout",
        [
            ((2, 5, 3, 4), 7),
            ((1, 32, 2, 2), 64),  # batch 1 on the 2x2 maps of desk stage 1
            ((3, 4, 1, 1), 6),  # 1x1 maps
            ((1, 4, 1, 1), 6),  # batch 1, 1x1 map
        ],
    )
    @pytest.mark.parametrize("bias", [True, False])
    def test_backward_matches_per_pixel_oracle(self, xshape, cout, bias):
        gen = np.random.default_rng(sum(xshape) + cout)
        x = gen.normal(size=xshape)
        w = gen.normal(size=(cout, xshape[1]))
        b = gen.normal(size=cout)
        gout = gen.normal(size=(xshape[0], cout) + xshape[2:])
        if bias:
            out, (gx, gw, gb) = pull_back(pointwise_conv, (x, w, b), gout)
        else:
            out, (gx, gw) = pull_back(pointwise_conv, (x, w), gout)
        want_gx, want_gw, want_gb = pointwise_grad_oracle(x, w, gout)
        want = np.einsum("oc,nchw->nohw", w, x) + (b[:, None, None] if bias else 0.0)
        np.testing.assert_allclose(out, want, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gx, want_gx, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gw, want_gw, rtol=1e-12, atol=1e-12)
        if bias:
            np.testing.assert_allclose(gb, want_gb, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 64])
    @pytest.mark.parametrize("extent", [1, 2, 14])
    def test_results_are_c_contiguous(self, n, extent):
        """The output, gx and gw come out of their matmuls in C order, so neither the
        next op nor the optimizer copies them."""
        gen = np.random.default_rng(n + extent)
        x = gen.normal(size=(n, 16, extent, extent)).astype(np.float32)
        w = gen.normal(size=(8, 16)).astype(np.float32)
        gout = gen.normal(size=(n, 8, extent, extent)).astype(np.float32)
        out, (gx, gw) = pull_back(pointwise_conv, (x, w), gout)
        assert out.flags.c_contiguous and gx.flags.c_contiguous and gw.flags.c_contiguous

    def test_untaped_forward_allocates_only_its_output(self):
        """A table-1 (2, 1024, 14, 14) -> 4096 mix with no node to record rearranges
        nothing: its traced peak is the output's bytes plus at most 1 MiB."""
        gen = np.random.default_rng(0)
        x = Tensor(gen.normal(size=(2, 1024, 14, 14)).astype(np.float32))
        w = Tensor(gen.normal(size=(4096, 1024)).astype(np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = pointwise_conv(x, w)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert out.shape == (2, 4096, 14, 14)
        assert peak <= out.data.nbytes + (1 << 20)

    def test_float32_stays_float32(self, rng):
        x = rng.normal(size=(2, 5, 3, 3)).astype(np.float32)
        w = rng.normal(size=(4, 5)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        gout = rng.normal(size=(2, 4, 3, 3)).astype(np.float32)
        out, grads = pull_back(pointwise_conv, (x, w, b), gout)
        assert [a.dtype for a in (out, *grads)] == [np.float32] * 4


class TestSepConv1d:
    @pytest.mark.parametrize("axis", [2, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    # symmetric is the only padding mode; the parameter keeps the case ids
    @pytest.mark.parametrize("pad_mode", ["symmetric"])
    @pytest.mark.parametrize("klen", [3, 5])
    def test_matches_loop_oracle(self, axis, stride, pad_mode, klen):
        """Also at filtered extents 2, 3 and 5, where a mirrored window reads
        one source twice (or, with 5 taps on 2, three times)."""
        gen = np.random.default_rng(axis * 100 + stride * 10 + klen)
        taps = gen.normal(size=klen)
        for extent in (8 if axis == 2 else 6, 2, 3, 5):
            shape = [2, 3, 8, 6]
            shape[axis] = extent
            x = gen.normal(size=shape)
            got = sep_conv1d(Tensor(x), Tensor(taps), axis=axis, stride=stride).data
            want = sep_conv1d_oracle(x, taps, axis, stride)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14, err_msg=f"extent {extent}")

    def test_stride1_preserves_extent(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 7, 9)))
        out = sep_conv1d(x, Tensor(np.ones(5)), axis=3, stride=1)
        assert out.shape == (1, 2, 7, 9)

    def test_stride2_halves_even_extent(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 8, 6)))
        assert sep_conv1d(x, Tensor(np.ones(3)), axis=2, stride=2).shape == (1, 2, 4, 6)
        assert sep_conv1d(x, Tensor(np.ones(5)), axis=3, stride=2).shape == (1, 2, 8, 3)

    def test_constant_input_averaging_taps_constant_output(self):
        """Symmetric padding keeps an averaging filter exact at borders."""
        x = Tensor(np.full((1, 1, 4, 4), 3.0))
        taps = Tensor(np.full(3, 1.0 / 3.0))
        out = sep_conv1d(x, taps, axis=3, stride=1)
        np.testing.assert_allclose(out.data, np.full((1, 1, 4, 4), 3.0), rtol=1e-6)

    def test_taps_shared_across_channels(self, rng):
        """Filtering a 2-channel map equals filtering each channel alone."""
        x = rng.normal(size=(1, 2, 6, 6))
        taps = rng.normal(size=3)
        both = sep_conv1d(Tensor(x), Tensor(taps), axis=2).data
        one = sep_conv1d(Tensor(x[:, :1]), Tensor(taps), axis=2).data
        two = sep_conv1d(Tensor(x[:, 1:]), Tensor(taps), axis=2).data
        np.testing.assert_allclose(both, np.concatenate([one, two], axis=1), rtol=1e-6)

    def test_extent_too_small_for_padding(self):
        with pytest.raises(ShapeError):
            sep_conv1d(Tensor(np.ones((1, 1, 1, 1))), Tensor(np.ones(5)), axis=3)

    def test_bad_axis_and_stride(self):
        x = Tensor(np.ones((1, 1, 4, 4)))
        with pytest.raises(ShapeError):
            sep_conv1d(x, Tensor(np.ones(3)), axis=1)
        with pytest.raises(ShapeError):
            sep_conv1d(x, Tensor(np.ones(3)), axis=2, stride=3)


def bank_oracle(x, bank, axes, stride, rounds, bands):
    """Each band as a sum of compositions of scipy correlations, one per pass."""

    def filt(a, taps, axis):
        full = correlate1d(a, taps, axis=axis, mode="reflect", output=np.float64)
        sl = [slice(None)] * a.ndim
        sl[axis] = slice(0, None, stride)
        return full[tuple(sl)]

    out = []
    for band in bands:
        total = 0.0
        for path in band:
            a = x
            for _ in range(rounds):
                for f, axis in zip(path, axes):
                    a = filt(a, bank[f], axis)
            total = total + a
        out.append(total)
    return np.concatenate(out, axis=1)


PAIRS = (((0, 0), (1, 1)), ((0, 1), (1, 0)))
EVERY_PAIR = [[[p]] for p in itertools.product(range(2), repeat=2)]  # one band each


class TestSepConv1dBank:
    # pad_mode: symmetric, the only mode; the column keeps the case ids
    @pytest.mark.parametrize("lengths,axes,stride,rounds,bands,pad_mode", [
        ((3, 5), (3, 2), 1, 1, None, "symmetric"),  # the four stride-1 bands
        ((3, 5), (3, 2), 2, 1, None, "symmetric"),  # decimating extraction
        ((3, 5), (3, 2), 1, 2, None, "symmetric"),  # modulation context
        ((3, 5), (3, 2), 2, 1, PAIRS, "symmetric"),  # pooling pair fusion
        ((3, 5), (3, 2), 2, 2, PAIRS, "symmetric"),
        ((3, 5, 7), (2, 3), 1, 1, None, "symmetric"),  # three filters, nine bands
        ((3, 5, 7), (3, 2), 2, 1, (((2, 0), (0, 2), (1, 1)), ((2, 2),)), "symmetric"),
        ((5,), (2, 2, 3), 2, 1, None, "symmetric"),  # one filter, a repeated axis
        # filter 0 of the second pass reads parents 0, 1 and 3: not a strided slice
        ((3, 5, 7, 3), (3, 2), 1, 1, (((0, 0),), ((1, 0),), ((3, 0),), ((2, 1),)), "symmetric"),
    ])
    def test_matches_correlate1d_compositions(self, lengths, axes, stride, rounds, bands,
                                              pad_mode):
        gen = np.random.default_rng(sum(lengths) + 10 * stride + 100 * rounds)
        x = gen.normal(size=(2, 3, 16, 12))
        bank = [gen.normal(size=k) for k in lengths]
        got = sep_conv1d(Tensor(x), [Tensor(b) for b in bank], axis=axes, stride=stride,
                         rounds=rounds, bands=bands).data
        every = tuple(((p,) for p in itertools.product(range(len(lengths)),
                                                        repeat=len(axes))))
        want = bank_oracle(x, bank, axes, stride, rounds, bands or every)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_default_bands_stack_every_path_in_order(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 8, 8)))
        low, high = Tensor(rng.normal(size=3)), Tensor(rng.normal(size=5))
        stacked = sep_conv1d(x, (low, high), axis=(3, 2)).data
        each = [sep_conv1d(x, (low, high), axis=(3, 2), bands=b).data
                for b in EVERY_PAIR]
        np.testing.assert_array_equal(stacked, np.concatenate(each, axis=1))

    def test_one_filter_one_axis_is_the_plain_call(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 8, 6)))
        taps = Tensor(rng.normal(size=5))
        plain = sep_conv1d(x, taps, axis=2, stride=2).data
        banked = sep_conv1d(x, [taps], axis=[2], stride=2, bands=[[(0,)]]).data
        np.testing.assert_array_equal(plain, banked)

    def test_pair_bands_are_exact_sums(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        low, high = Tensor(rng.normal(size=3)), Tensor(rng.normal(size=5))
        ll, lh, hl, hh = (sep_conv1d(x, (low, high), axis=(3, 2), bands=b).data
                          for b in EVERY_PAIR)
        fused = sep_conv1d(x, (low, high), axis=(3, 2), bands=PAIRS).data
        np.testing.assert_array_equal(fused, np.concatenate([ll + hh, lh + hl], axis=1))

    def test_bank_is_one_tape_node(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 8, 8)), requires_grad=True)
        low = Tensor(rng.normal(size=3), requires_grad=True)
        high = Tensor(rng.normal(size=5), requires_grad=True)
        with Tape() as tape:
            sep_conv1d(x, (low, high), axis=(3, 2), rounds=2)
        assert len(tape) == 1

    @pytest.mark.parametrize("extent, lookups", [((4, 4), 2), ((4, 6), 4)])
    def test_each_band_matrix_is_built_once_per_call(self, monkeypatch, rng, extent, lookups):
        """A rounds-2 block call filters along each axis twice: levels of equal extent
        share one matrix per filter, so a square map needs half the matrices."""
        calls = []
        original = ops._band_basis
        monkeypatch.setattr(ops, "_band_basis",
                            lambda *key: calls.append(key) or original(*key))
        x = Tensor(rng.normal(size=(1, 2, *extent)).astype(np.float32))
        low = Tensor(rng.normal(size=3).astype(np.float32), requires_grad=True)
        high = Tensor(rng.normal(size=5).astype(np.float32), requires_grad=True)
        sep_conv1d(x, (low, high), axis=(3, 2), rounds=2)
        assert len(calls) == lookups

    @pytest.mark.parametrize("bands", [(), ((),), (((0,),),), (((0, 2),),)])
    def test_malformed_bands_rejected(self, bands):
        x = Tensor(np.ones((1, 1, 8, 8)))
        with pytest.raises(ShapeError, match="bands"):
            sep_conv1d(x, (Tensor(np.ones(3)), Tensor(np.ones(5))), axis=(3, 2), bands=bands)

    def test_bad_rounds_and_empty_bank_rejected(self):
        x = Tensor(np.ones((1, 1, 8, 8)))
        with pytest.raises(ShapeError, match="rounds"):
            sep_conv1d(x, Tensor(np.ones(3)), axis=3, rounds=0)
        with pytest.raises(ShapeError, match="taps"):
            sep_conv1d(x, [], axis=3)


def chain_bank(h, bank, axes, stride, rounds, bands):
    """The bank as the chain it stands for: single-filter calls in record order
    (the first round level by level in lexicographic order, then each later
    round path by path), each band's sum as a fold of adds, then a concat."""
    every = tuple((p,) for p in itertools.product(range(len(bank)), repeat=len(axes)))
    bands = bands or every
    paths = sorted({p * rounds for band in bands for p in band})
    node = {(): h}
    for n in range(1, len(axes) + 1):
        for q in sorted({p[:n] for p in paths}):
            node[q] = sep_conv1d(node[q[:-1]], bank[q[-1]], axis=axes[n - 1], stride=stride)
    for p in paths:
        for n in range(len(axes) + 1, len(p) + 1):
            node[p[:n]] = sep_conv1d(node[p[: n - 1]], bank[p[n - 1]],
                                     axis=axes[(n - 1) % len(axes)], stride=stride)
    outs = [functools.reduce(add, [node[p * rounds] for p in band]) for band in bands]
    return outs[0] if len(outs) == 1 else concat(outs, axis=1)


class TestBankGradientsEqualChain:
    """Values equal the chain's bit for bit, and gradients match the chain's
    to rounding when the band input and the taps have other uses: the bank's
    input and tap gradients then join those uses' on the tape."""

    @staticmethod
    def assert_step_matches_chain(extent, stride, rounds, bands, dtype=np.float32):
        def step(bank_call):
            gen = np.random.default_rng(7)
            x = Tensor(gen.normal(size=(2, 3, *extent)).astype(dtype), requires_grad=True)
            low = Tensor(gen.normal(size=3).astype(dtype), requires_grad=True)
            high = Tensor(gen.normal(size=5).astype(dtype), requires_grad=True)
            with Tape() as tape:
                h = gelu(x)  # the band input, also read by the mul below
                first = bank_call(h, (low, high), (3, 2), stride, rounds, bands)
                other = mul(h, Tensor(gen.normal(size=h.shape).astype(dtype)))
                second = bank_call(h, (high, low), (2, 3), stride, rounds, bands)
                terms = [reduce_sum(mul(t, Tensor(gen.normal(size=t.shape).astype(dtype))))
                         for t in (first, other, second)]
                loss = functools.reduce(add, terms)
            backward(loss, tape)
            return loss.data, x.grad, low.grad, high.grad

        def bank(h, taps, axes, stride, rounds, bands):
            return sep_conv1d(h, taps, axis=axes, stride=stride, rounds=rounds, bands=bands)

        got, want = step(bank), step(chain_bank)
        assert got[0].dtype == dtype and np.array_equal(got[0], want[0])
        tol = 1e-13 if dtype == np.float64 else 1e-5  # of each array's largest entry
        for name, a, b in zip(("x", "low", "high"), got[1:], want[1:]):
            assert a.dtype == dtype, name
            assert np.abs(a - b).max() <= tol * np.abs(b).max(), name

    @pytest.mark.parametrize("stride,rounds,bands", [
        (2, 1, None),  # four bands, decimating
        (1, 2, None),  # the modulation context
        (1, 1, PAIRS),
        (2, 1, PAIRS),
        (2, 1, (((1, 0),),)),  # one band
        (2, 1, (((0, 0),), ((0, 0), (1, 1)), ((0, 0), (0, 1)))),  # a leaf read by three bands
    ])
    def test_float32_step(self, stride, rounds, bands):
        self.assert_step_matches_chain((8, 8), stride, rounds, bands)

    @pytest.mark.parametrize("extent,stride,rounds,bands,dtype", [
        ((16, 16), 2, 1, None, np.float32),
        ((4, 4), 1, 2, None, np.float32),
        ((2, 2), 1, 2, None, np.float32),
        ((4, 4), 2, 1, PAIRS, np.float32),
        ((2, 2), 1, 1, PAIRS, np.float32),
        ((6, 10), 2, 1, None, np.float32),
        ((5, 7), 1, 1, None, np.float32),
        ((16, 16), 2, 1, None, np.float64),
        ((4, 4), 1, 2, None, np.float64),
        ((4, 4), 2, 1, PAIRS, np.float64),
    ], ids=["extract0", "context-4x4", "context-2x2", "pool-4x4", "pool-2x2", "stride2-6x10",
            "stride1-5x7", "extract0-float64", "context-4x4-float64", "pool-4x4-float64"])
    def test_model_extents(self, extent, stride, rounds, bands, dtype):
        self.assert_step_matches_chain(extent, stride, rounds, bands, dtype)

    def test_parents_that_are_not_a_strided_slice(self):
        """Filter 0 of the second pass reads parents 0, 1 and 3, so its scatter
        indexes the padded parents with an array."""
        bands = (((0, 0),), ((1, 0),), ((3, 0),), ((2, 1),))
        gen = np.random.default_rng(3)
        x0, gout = gen.normal(size=(2, 3, 12, 10)), gen.normal(size=(2, 12, 12, 10))
        bank0 = [gen.normal(size=k) for k in (3, 5, 7, 3)]

        def grads(call):
            return pull_back(lambda x, *bank: call(x, bank), [x0, *bank0], gout)[1]

        got = grads(lambda x, bank: sep_conv1d(x, bank, axis=(3, 2), bands=bands))
        want = grads(lambda x, bank: chain_bank(x, bank, (3, 2), 1, 1, bands))
        for a, b in zip(got, want):
            assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()


def test_desk_step_calls_no_einsum(monkeypatch):
    """The kernels issue their matmuls directly: no per-call einsum planning on the hot path."""
    model = WaveletClassifier(desk_config(rays=3), seed=0)
    images = np.random.default_rng(0).normal(size=(4, 3, 32, 32)).astype(np.float32)

    def refuse(*args, **kwargs):
        raise AssertionError("np.einsum called during a desk step")

    monkeypatch.setattr(np, "einsum", refuse)
    with Tape() as tape:
        loss = cross_entropy(model.forward(Tensor(images)), np.array([0, 1, 2, 0]))
    backward(loss, tape)
    monkeypatch.undo()
    grads = [p.grad for p in model.parameters().values()]
    assert all(g is not None and np.isfinite(g).all() for g in grads)


@pytest.mark.skipif(not EINSUM_ISSUES_MATMUL, reason="this numpy's einsum lays out its matmul differently")
class TestEinsumBitIdentity:
    """Each kernel issues a documented sequence of matmuls, so float32 results are pinned bit
    for bit (checkpoints and the rounding-sensitive training criteria depend on it).  conv2d
    issues the matmul numpy's einsum issues for the same contraction, in the same layout;
    pointwise_conv multiplies each sample's maps as stored, which equals einsum at the
    table-1 layers and may round a last bit differently on small desk maps."""

    TABLE1_POINTWISE = [(1, 128, 48, 56), (2, 128, 48, 56), (1, 1024, 4096, 14)]

    @pytest.mark.parametrize(
        "n, cin, cout, extent",
        [(n, *s) for n in (1, 64) for s in [(16, 4, 4), (16, 64, 4), (32, 128, 2), (64, 32, 2),
                                             (128, 32, 2), (32, 12, 8)]]  # desk layers
        + TABLE1_POINTWISE,
    )
    def test_pointwise(self, n, cin, cout, extent):
        gen = np.random.default_rng(n + cin + cout)
        x = gen.normal(size=(n, cin, extent, extent)).astype(np.float32)
        w = gen.normal(size=(cout, cin)).astype(np.float32)
        gout = gen.normal(size=(n, cout, extent, extent)).astype(np.float32)
        out, (gx, gw) = pull_back(pointwise_conv, (x, w), gout)
        # the per-sample formulation: W @ maps, W^T @ gradient maps, gradient columns @ x columns^T
        assert np.array_equal(out, np.matmul(w, x.reshape(n, cin, -1)).reshape(out.shape))
        assert np.array_equal(gx, np.matmul(w.T, gout.reshape(n, cout, -1)).reshape(x.shape))
        g_cols = gout.transpose(1, 0, 2, 3).reshape(cout, -1)
        assert np.array_equal(gw, g_cols @ x.transpose(1, 0, 2, 3).reshape(cin, -1).T)
        if (n, cin, cout, extent) in self.TABLE1_POINTWISE:  # table-1 forwards are unchanged
            assert np.array_equal(out, np.einsum("oc,nchw->nohw", w, x, optimize=True))
            assert np.array_equal(gw, np.einsum("nohw,nchw->oc", gout, x, optimize=True))
            assert np.array_equal(gx, np.einsum("nohw,oc->nchw", gout, w, optimize=True))

    @pytest.mark.parametrize("n, extent, cout",
                             [(1, 32, 8), (64, 32, 8), (1, 224, 32), (2, 224, 32)])
    def test_stem_conv2d(self, n, extent, cout):
        """The recorded forward and the untaped one, which lowers 6 desk
        samples or one 224x224 sample at a time, both equal einsum's."""
        gen = np.random.default_rng(n + extent)
        x = gen.normal(size=(n, 3, extent, extent)).astype(np.float32)
        k = gen.normal(size=(cout, 3, 7, 7)).astype(np.float32)
        ho = extent // 2
        gout = gen.normal(size=(n, cout, ho, ho)).astype(np.float32)
        out, (gx, gk) = pull_back(
            lambda a, b: conv2d(a, b, stride=(2, 2), padding=(3, 3)), (x, k), gout)
        untaped = conv2d(x, Tensor(k, requires_grad=True), stride=(2, 2), padding=(3, 3)).data
        xp = np.pad(x, ((0, 0), (0, 0), (3, 3), (3, 3)))
        win = sliding_window_view(xp, (7, 7), axis=(2, 3))[:, :, ::2, ::2][:, None]
        kg, gg = k[None], gout[:, None]
        want = np.einsum("ngihwkl,goikl->ngohw", win, kg, optimize=True)
        assert np.array_equal(out, want[:, 0])
        assert np.array_equal(untaped, want[:, 0])
        want_gk = np.einsum("ngohw,ngihwkl->goikl", gg, win, optimize=True)
        assert np.array_equal(gk, want_gk[0])
        gwin = np.einsum("ngohw,goikl->ngihwkl", gg, kg, optimize=True)[:, 0]
        gxp = np.zeros_like(xp)
        for a in range(7):
            for b in range(7):
                gxp[:, :, a : a + 2 * ho - 1 : 2, b : b + 2 * ho - 1 : 2] += gwin[..., a, b]
        assert np.array_equal(gx, gxp[:, :, 3:-3, 3:-3])
