"""Tape mechanics and the core op set, checked against closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveray import autodiff as ad
from waveray.autodiff import Tape, Tensor, backward
from waveray.errors import (
    BroadcastError,
    DetachedGraphError,
    GraphError,
    InvalidAxisError,
    NonScalarLossError,
    ShapeError,
)


def grads_of(fn, *leaves):
    for leaf in leaves:
        leaf.grad = None
    with Tape() as tape:
        loss = fn()
    backward(loss, tape)
    return [leaf.grad for leaf in leaves]


class TestPrecision:
    """A leaf keeps float32 or float64 data as it is; no global mode exists."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_leaf_keeps_float32_and_float64(self, dtype):
        assert Tensor(np.zeros(3, dtype)).dtype == dtype
        assert Tensor(np.zeros(3, dtype), requires_grad=True).dtype == dtype

    @pytest.mark.parametrize("data", [[1.0, 2.0], [1, 2], np.arange(2), np.zeros(2, bool),
                                      np.zeros(2, np.float16), np.zeros(2, ">f4")],
                             ids=["float-list", "int-list", "int64", "bool", "float16",
                                  "big-endian-float32"])
    def test_other_data_is_stored_as_float64(self, data):
        assert Tensor(data).dtype == np.float64

    def test_ops_inherit_leaf_dtype(self):
        x = Tensor(np.ones(4))
        out = ad.mul(x, x)
        assert out.dtype == np.float64
        single = Tensor(np.ones(4, np.float32))
        assert ad.mul(single, single).dtype == np.float32


class TestTapeMechanics:
    def test_single_op_chain(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        (g,) = grads_of(lambda: ad.reduce_sum(ad.mul(x, x)), x)
        np.testing.assert_allclose(g, [2.0, 4.0, 6.0], rtol=1e-6)

    def test_value_used_twice_accumulates(self):
        # y = x*x + 3x  =>  dy/dx = 2x + 3
        x = Tensor(np.array([2.0]), requires_grad=True)

        def fn():
            return ad.reduce_sum(ad.add(ad.mul(x, x), ad.scale(x, 3.0)))

        (g,) = grads_of(fn, x)
        np.testing.assert_allclose(g, [7.0], rtol=1e-6)

    def test_second_backward_on_a_tape_is_refused(self):
        x = Tensor(np.array([1.0, -1.0]), requires_grad=True)
        with Tape() as tape:
            loss = ad.reduce_sum(ad.mul(x, x))
        backward(loss, tape)
        first = x.grad
        with pytest.raises(GraphError, match="consumed"):
            backward(loss, tape)
        assert x.grad is first
        np.testing.assert_array_equal(first, [2.0, -2.0])

    def test_backward_frees_what_the_nodes_saved(self):
        x = Tensor(np.array([1.0, -1.0]), requires_grad=True)
        with Tape() as tape:
            loss = ad.reduce_sum(ad.mul(x, x))
        backward(loss, tape)
        assert len(tape) == 2
        for node in tape.nodes:
            assert node.inputs is None and node.out is None and node.backward.fn is None

    def test_rank0_leaf_keeps_its_shape(self):
        x = Tensor(np.array(3.0), requires_grad=True)
        assert x.shape == ()
        (g,) = grads_of(lambda: ad.mul(x, x), x)
        assert g.shape == () and g == 6.0

    def test_gradients_route_through_freed_intermediates(self):
        # no node keeps the scaled copies alive, so their memory (and any
        # id() of them) is reused while the tape is still being recorded
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)

        def fn():
            acc = ad.reduce_sum(ad.scale(x, 1.0))
            for i in range(2, 51):
                acc = ad.add(acc, ad.reduce_sum(ad.scale(x, float(i))))
            return acc

        (g,) = grads_of(fn, x)
        np.testing.assert_array_equal(g, [1275.0, 1275.0])

    def test_value_from_another_tape_accumulates_like_a_leaf(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with Tape():
            y = ad.mul(x, x)
        with Tape() as tape:
            loss = ad.reduce_sum(ad.scale(y, 3.0))
        backward(loss, tape)
        np.testing.assert_array_equal(y.grad, [3.0, 3.0])
        assert x.grad is None

    def test_passes_on_fresh_tapes_accumulate(self):
        x = Tensor(np.array([1.0, -1.0]), requires_grad=True)
        for _ in range(2):
            with Tape() as tape:
                loss = ad.reduce_sum(ad.mul(x, x))
            backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [4.0, -4.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            y = ad.mul(x, x)
        with pytest.raises(NonScalarLossError):
            backward(y, tape)

    def test_detached_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            pass
        loss = ad.reduce_sum(x)  # recorded on no tape
        with pytest.raises(DetachedGraphError):
            backward(loss, tape)

    def test_no_tracking_without_tape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = ad.reduce_sum(ad.mul(x, x))
        assert y.requires_grad  # flag propagates
        with Tape() as tape:
            pass
        with pytest.raises(DetachedGraphError):
            backward(y, tape)

    def test_leaves_without_requires_grad_stay_clean(self):
        x = Tensor(np.ones(3), requires_grad=True)
        c = Tensor(np.full(3, 2.0))
        (gx,) = grads_of(lambda: ad.reduce_sum(ad.mul(x, c)), x)
        np.testing.assert_allclose(gx, [2.0, 2.0, 2.0], rtol=1e-6)
        assert c.grad is None

    def test_node_count_matches_op_count(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            y = ad.mul(x, x)
            z = ad.add(y, x)
            ad.reduce_sum(z)
        assert len(tape) == 3

    def test_ops_do_not_mutate_inputs(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        snapshot = x.data.copy()
        with Tape():
            ad.gelu(ad.add(ad.mul(x, x), x))
        np.testing.assert_array_equal(x.data, snapshot)


class TestElementwise:
    def test_add_sub_mul_values(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4))
        np.testing.assert_allclose(ad.add(Tensor(a), Tensor(b)).data, (a + b).astype(np.float32), rtol=1e-6)
        np.testing.assert_allclose(ad.sub(Tensor(a), Tensor(b)).data, (a - b).astype(np.float32), rtol=1e-6)
        np.testing.assert_allclose(ad.mul(Tensor(a), Tensor(b)).data, (a * b).astype(np.float32), rtol=1e-6)

    def test_broadcast_per_channel(self):
        x = Tensor(np.ones((2, 3, 2, 2)), requires_grad=True)
        bias = Tensor(np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1, 1), requires_grad=True)
        (gb,) = grads_of(lambda: ad.reduce_sum(ad.mul(x, bias)), bias)
        # each channel bias multiplies 2*2*2 = 8 ones
        np.testing.assert_allclose(gb.ravel(), [8.0, 8.0, 8.0], rtol=1e-6)

    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul], ids=["add", "sub", "mul"])
    def test_broadcast_mismatch_rejected(self, op):
        with pytest.raises(BroadcastError, match=r"shapes \(2, 3\) and \(4, 3\) are not"):
            op(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 3))))

    def test_exp_matches_numpy(self, rng):
        x = rng.normal(size=7)
        np.testing.assert_allclose(ad.exp(Tensor(x)).data, np.exp(x.astype(np.float32)), rtol=1e-6)

    def test_reciprocal_grad(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        (g,) = grads_of(lambda: ad.reduce_sum(ad.reciprocal(x)), x)
        np.testing.assert_allclose(g, [-0.25], rtol=1e-6)


class TestShapeOps:
    def test_reshape_round_trip_grad(self, rng):
        x = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)))

        def fn():
            return ad.reduce_sum(ad.mul(ad.reshape(x, (3, 4)), w))

        (g,) = grads_of(fn, x)
        np.testing.assert_allclose(g, w.data.reshape(2, 6), rtol=1e-6)

    def test_reshape_bad_size(self):
        with pytest.raises(ShapeError):
            ad.reshape(Tensor(np.ones(6)), (4, 2))

    def test_transpose_inverts_in_backward(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = rng.normal(size=(4, 2, 3))

        def fn():
            return ad.reduce_sum(ad.mul(ad.transpose(x, (2, 0, 1)), Tensor(w)))

        (g,) = grads_of(fn, x)
        np.testing.assert_allclose(g, np.transpose(w, (1, 2, 0)), rtol=1e-6)

    def test_transpose_bad_axes(self):
        with pytest.raises(InvalidAxisError):
            ad.transpose(Tensor(np.ones((2, 3))), (0, 0))

    def test_concat_values_and_split_grad(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        w = rng.normal(size=(2, 8)).astype(np.float32)

        def fn():
            return ad.reduce_sum(ad.mul(ad.concat([a, b], axis=1), Tensor(w)))

        ga, gb = grads_of(fn, a, b)
        np.testing.assert_allclose(ga, w[:, :3], rtol=1e-6)
        np.testing.assert_allclose(gb, w[:, 3:], rtol=1e-6)

    def test_concat_extent_mismatch(self):
        with pytest.raises(ShapeError):
            ad.concat([Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3)))], axis=1)


class TestReductions:
    def test_sum_axis_values(self, rng):
        x = rng.normal(size=(3, 4, 5))
        out = ad.reduce_sum(Tensor(x), axis=(0, 2))
        np.testing.assert_allclose(out.data, x.astype(np.float32).sum(axis=(0, 2)), rtol=1e-5)

    def test_mean_grad_is_uniform(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        (g,) = grads_of(lambda: ad.reduce_mean(x), x)
        np.testing.assert_allclose(g, np.full((3, 4), 1.0 / 12.0), rtol=1e-6)

    def test_keepdims_path(self, rng):
        x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)

        def fn():
            return ad.reduce_sum(ad.mul(x, ad.reduce_mean(x, axis=1, keepdims=True)))

        grads_of(fn, x)  # smoke: no shape blowups
        assert x.grad.shape == (2, 5)


class TestMatmulSoftmaxGelu:
    def test_matmul_values(self, rng):
        a = rng.normal(size=(3, 5))
        b = rng.normal(size=(5, 2))
        out = ad.matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, a.astype(np.float32) @ b.astype(np.float32), rtol=1e-5)

    def test_matmul_rejects_vectors(self):
        with pytest.raises(ShapeError):
            ad.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))

    def test_softmax_known_values(self):
        out = ad.softmax(Tensor(np.array([[0.0, np.log(3.0)]])), axis=1)
        np.testing.assert_allclose(out.data, [[0.25, 0.75]], rtol=1e-6)

    def test_softmax_rows_sum_to_one(self, rng):
        out = ad.softmax(Tensor(rng.normal(size=(4, 9)) * 5), axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(4), atol=1e-6)

    def test_softmax_shift_invariance(self, rng):
        z = rng.normal(size=(2, 6))
        a = ad.softmax(Tensor(z), axis=1).data
        b = ad.softmax(Tensor(z + 100.0), axis=1).data
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_softmax_large_inputs_stay_finite(self):
        out = ad.softmax(Tensor(np.array([[1000.0, 1001.0, 999.0]])), axis=1)
        assert np.all(np.isfinite(out.data))

    def test_softmax_axis_out_of_range(self):
        with pytest.raises(InvalidAxisError):
            ad.softmax(Tensor(np.ones((2, 3))), axis=2)

    def test_gelu_closed_form(self):
        # gelu(0) = 0, gelu(x) -> x for large x, gelu(-x) small
        x = np.array([0.0, 10.0, -10.0])
        out = ad.gelu(Tensor(x)).data
        np.testing.assert_allclose(out, [0.0, 10.0, 0.0], atol=1e-4)

    def test_gelu_midpoint(self):
        # gelu(1) = 1 * Phi(1) with the exact normal CDF
        from scipy.stats import norm

        out = ad.gelu(Tensor(np.array([1.0]))).data
        np.testing.assert_allclose(out, [norm.cdf(1.0)], rtol=1e-6)


def gelu_and_slope(d):
    """GELU's output and slope (the gradient of its sum), recorded."""
    x = Tensor(d, requires_grad=True)
    with Tape() as tape:
        out = ad.gelu(x)
        loss = ad.reduce_sum(out)
    backward(loss, tape)
    return out.data, x.grad


class TestGeluPrecision:
    """Float32 GELU's tanh-form normal CDF against float64, and float64 GELU
    against scipy's erf, bit for bit."""

    def test_float32_against_float64_on_a_dense_grid(self):
        from scipy.special import erf

        d = np.linspace(-8.0, 8.0, 1 << 22, dtype=np.float32)
        wide = d.astype(np.float64)
        exact = 0.5 * (1.0 + erf(wide / np.sqrt(2.0)))
        # Measured: 1.10e-7 on the cdf (scipy's float32 erf: 6.1e-8) and
        # 5.6e-7 on GELU.
        assert np.abs(ad._normal_cdf32(d) - exact).max() <= 1.2e-7
        assert np.abs(ad.gelu(Tensor(d)).data - wide * exact).max() <= 6e-7

    def test_float32_special_values(self):
        d = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0], np.float32)
        with np.errstate(invalid="ignore"):  # the slope at +-inf is inf * 0
            out, slope = gelu_and_slope(d)
        assert out.dtype == slope.dtype == np.float32
        assert np.isnan(out[0]) and out[1] == np.inf
        assert not np.isfinite(out[2])  # divergence stays visible
        assert out[3] == 0.0 and out[4] == 0.0
        assert not np.signbit(out[3]) and np.signbit(out[4])

    def test_float32_is_elementwise_across_blocks(self, rng):
        # 3 x 11200 elements: the first block ends inside the third sample.
        d = rng.normal(0.0, 3.0, size=(3, 7, 40, 40)).astype(np.float32)
        assert d.size > ad._CDF32_BLOCK
        whole = ad.gelu(Tensor(d)).data
        for i in range(len(d)):
            np.testing.assert_array_equal(ad.gelu(Tensor(d[i:i + 1])).data, whole[i:i + 1])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_recorded_and_unrecorded_outputs_agree(self, rng, dtype):
        d = rng.normal(0.0, 3.0, size=(2, 5, 6, 6)).astype(dtype)
        recorded, _ = gelu_and_slope(d)
        np.testing.assert_array_equal(recorded, ad.gelu(Tensor(d)).data)

    def test_float64_is_scipy_erf_bit_for_bit(self, rng):
        from scipy.special import erf

        d = rng.normal(0.0, 3.0, size=(4, 1000))
        expected = d * (0.5 * (1.0 + erf(d * (1.0 / np.sqrt(2.0)))))
        np.testing.assert_array_equal(ad.gelu(Tensor(d)).data, expected)


class TestLayerNormPool:
    def test_layer_norm_moments(self, rng):
        x = Tensor(rng.normal(3.0, 2.0, size=(2, 16, 4, 4)))
        out = ad.layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16))).data
        assert abs(out.mean(axis=1)).max() < 1e-5
        np.testing.assert_allclose(out.std(axis=1), np.ones((2, 4, 4)), atol=1e-2)

    def test_layer_norm_constant_channels_map_to_shift(self):
        x = Tensor(np.full((1, 8, 2, 2), 5.0))
        shift = Tensor(np.full(8, 0.25))
        out = ad.layer_norm(x, Tensor(np.ones(8)), shift).data
        np.testing.assert_allclose(out, np.full((1, 8, 2, 2), 0.25), atol=1e-3)

    def test_layer_norm_gain_shift_shapes_enforced(self):
        x = Tensor(np.ones((1, 4, 2, 2)))
        with pytest.raises(ShapeError):
            ad.layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(4)))

    @staticmethod
    def _layer_norm_reference(x, gain, shift, g):
        """The normalization and its backward, written out-of-place as plain
        numpy: the output and the gradients of x, gain and shift."""
        c = x.shape[1]
        mu = np.add.reduce(x, axis=1, keepdims=True) / c
        centered = x - mu
        var = np.add.reduce(centered * centered, axis=1, keepdims=True) / c
        invstd = 1.0 / np.sqrt(var + 1e-5)
        xhat = centered * invstd
        gcol = gain.reshape(1, c, 1, 1)
        out = xhat * gcol + shift.reshape(1, c, 1, 1)
        gxhat = g * gcol
        m1 = gxhat.mean(axis=1, keepdims=True)
        m2 = (gxhat * xhat).mean(axis=1, keepdims=True)
        gx = invstd * (gxhat - m1 - xhat * m2)
        return out, gx, (g * xhat).sum(axis=(0, 2, 3)), g.sum(axis=(0, 2, 3))

    @pytest.mark.parametrize("dtype, param_dtype", [(np.float32, np.float32),
                                                    (np.float64, np.float64),
                                                    (np.float32, np.float64)])
    def test_layer_norm_unrecorded_equals_recorded(self, rng, dtype, param_dtype):
        """The output written over xhat (no node recorded) has the bits of the
        recorded output, and both have the out-of-place reference's bits and
        dtype; the recorded backward's gradients are the reference's too."""
        x = rng.normal(1.0, 2.0, size=(3, 12, 5, 6)).astype(dtype)
        gain = rng.normal(size=12).astype(param_dtype)
        shift = rng.normal(size=12).astype(param_dtype)
        g = rng.normal(size=x.shape).astype(np.result_type(dtype, param_dtype))
        want, want_gx, want_gg, want_gs = self._layer_norm_reference(x, gain, shift, g)
        untaped = ad.layer_norm(Tensor(x), Tensor(gain, requires_grad=True), Tensor(shift)).data
        leaves = [Tensor(a, requires_grad=True) for a in (x, gain, shift)]
        with Tape() as tape:
            out = ad.layer_norm(*leaves)
            loss = ad.reduce_sum(ad.mul(out, Tensor(g)))
        backward(loss, tape)
        assert untaped.dtype == out.data.dtype == want.dtype
        assert np.array_equal(untaped, out.data)
        assert np.array_equal(out.data, want)
        for leaf, grad in zip(leaves, (want_gx, want_gg, want_gs)):
            assert np.array_equal(leaf.grad, grad)

    def test_global_avg_pool_values(self, rng):
        x = rng.normal(size=(2, 3, 4, 5))
        out = ad.global_avg_pool(Tensor(x.astype(np.float32)))
        np.testing.assert_allclose(out.data, x.astype(np.float32).mean(axis=(2, 3)), rtol=1e-5)

    def test_global_avg_pool_bits(self, rng):
        # the spatial mean and its uniform spread, bit for bit, in float32
        x = rng.normal(size=(2, 64, 14, 14)).astype(np.float32)
        g = rng.normal(size=(2, 64)).astype(np.float32)
        leaf = Tensor(x, requires_grad=True)
        with Tape() as tape:
            out = ad.global_avg_pool(leaf)
            loss = ad.reduce_sum(ad.mul(out, Tensor(g)))
        backward(loss, tape)
        h, w = x.shape[2:]
        assert np.array_equal(out.data, x.mean(axis=(2, 3)))
        assert np.array_equal(leaf.grad, np.broadcast_to(g[:, :, None, None] / (h * w), x.shape))

    def test_global_avg_pool_needs_4d(self):
        with pytest.raises(ShapeError):
            ad.global_avg_pool(Tensor(np.ones((3, 4))))


@settings(max_examples=40, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    seed=st.integers(0, 2**31 - 1),
)
def test_mul_grad_property(shape, seed):
    """d/da sum(a*b) == b for any shapes/values."""
    gen = np.random.default_rng(seed)
    a = Tensor(gen.normal(size=shape), requires_grad=True)
    b = Tensor(gen.normal(size=shape))
    with Tape() as tape:
        loss = ad.reduce_sum(ad.mul(a, b))
    backward(loss, tape)
    np.testing.assert_allclose(a.grad, b.data, rtol=1e-5)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(1, 5),
    cols=st.integers(2, 7),
    seed=st.integers(0, 2**31 - 1),
)
def test_softmax_grad_orthogonal_to_ones(rows, cols, seed):
    """Softmax rows sum to 1, so row gradients must sum to ~0."""
    gen = np.random.default_rng(seed)
    x = Tensor(gen.normal(size=(rows, cols)) * 3, requires_grad=True)
    w = Tensor(gen.normal(size=(rows, cols)))
    with Tape() as tape:
        loss = ad.reduce_sum(ad.mul(ad.softmax(x, axis=1), w))
    backward(loss, tape)
    np.testing.assert_allclose(x.grad.sum(axis=1), np.zeros(rows), atol=1e-4)
