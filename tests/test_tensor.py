import math

import numpy as np
import pytest

from armformer import tensor as T
from armformer.errors import ContractError, ShapeError
from armformer.gradcheck import grad_check
from armformer.tensor import Tensor


from oracles import bilinear_oracle_point, conv2d_oracle


# ----------------------------------------------------------------------
# creation
# ----------------------------------------------------------------------

class TestCreate:
    def test_zeros(self):
        t = Tensor.zeros((2, 2))
        assert t.shape == (2, 2)
        assert np.array_equal(t.data, np.zeros((2, 2)))

    def test_constant_fill(self):
        t = Tensor.full((3,), 1.5)
        assert np.array_equal(t.data, [1.5, 1.5, 1.5])

    def test_trunc_normal_reproducible_and_bounded(self):
        a = Tensor.trunc_normal((64, 64), np.random.default_rng(3))
        b = Tensor.trunc_normal((64, 64), np.random.default_rng(3))
        assert np.array_equal(a.data, b.data)
        assert np.abs(a.data).max() <= 2.0 * 0.02

    @pytest.mark.parametrize("shape", [(), (0,), (2, 0), (-1, 3)])
    def test_bad_shapes_rejected(self, shape):
        with pytest.raises(ShapeError):
            Tensor.zeros(shape)

    def test_data_is_float64_row_major(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.data.dtype == np.float64
        assert t.data.flags["C_CONTIGUOUS"]


# ----------------------------------------------------------------------
# matmul
# ----------------------------------------------------------------------

class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = Tensor(np.eye(2)) @ a
        assert np.allclose(out.data, a.data)

    def test_row_times_column(self):
        out = Tensor([[1.0, 2.0]]) @ Tensor([[3.0], [4.0]])
        assert out.data.shape == (1, 1)
        assert out.item() == 11.0

    def test_zero_annihilation(self):
        out = Tensor.zeros((2, 2)) @ Tensor(np.random.default_rng(0).normal(size=(2, 5)))
        assert np.array_equal(out.data, np.zeros((2, 5)))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 5))
        expect = [[sum(a[i, k] * b[k, j] for k in range(4)) for j in range(5)]
                  for i in range(3)]
        assert np.allclose((Tensor(a) @ Tensor(b)).data, expect, atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            Tensor.zeros((2, 3)) @ Tensor.zeros((4, 2))

    def test_batched_broadcast(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5))
        out = Tensor(a) @ Tensor(b)
        assert out.shape == (2, 3, 5)
        assert np.allclose(out.data, a @ b)


# ----------------------------------------------------------------------
# conv2d
# ----------------------------------------------------------------------

class TestConv2d:
    def test_hand_case_2x2(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        w = Tensor(np.ones((1, 1, 2, 2)))
        out = T.conv2d(x, w)
        assert out.shape == (1, 1, 1, 1)
        assert out.item() == 10.0

    def test_zero_kernel(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 3, 5, 5)))
        out = T.conv2d(x, Tensor.zeros((4, 3, 3, 3)), Tensor.zeros((4,)), padding=1)
        assert np.array_equal(out.data, np.zeros((2, 4, 5, 5)))

    def test_impulse_reproduces_kernel_per_oracle(self):
        x = np.zeros((1, 1, 3, 3))
        x[0, 0, 1, 1] = 1.0
        k = np.arange(9.0).reshape(1, 1, 3, 3)
        out = T.conv2d(Tensor(x), Tensor(k), stride=1, padding=1)
        expect = conv2d_oracle(x, k, stride=1, padding=1)
        assert np.allclose(out.data, expect, atol=1e-12)
        # cross-correlation of a centered impulse yields the 180-degree
        # rotated kernel
        assert np.allclose(out.data[0, 0], k[0, 0, ::-1, ::-1])

    def test_matches_oracle_on_random_shapes(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            groups = int(rng.choice([1, 1, 2, 4]))
            cin = groups * int(rng.integers(1, 4))
            cout = groups * int(rng.integers(1, 4))
            if rng.random() < 0.2:  # depthwise case
                cin = cout = groups = int(rng.integers(2, 5))
            k = int(rng.integers(1, 4))
            stride = int(rng.integers(1, 3))
            pad = int(rng.integers(0, 3))
            h = int(rng.integers(k, k + 4))
            w = int(rng.integers(k, k + 4))
            x = rng.normal(size=(int(rng.integers(1, 3)), cin, h, w))
            wt = rng.normal(size=(cout, cin // groups, k, k))
            b = rng.normal(size=(cout,))
            out = T.conv2d(Tensor(x), Tensor(wt), Tensor(b),
                           stride=stride, padding=pad, groups=groups)
            expect = conv2d_oracle(x, wt, b, stride=stride, padding=pad, groups=groups)
            assert np.allclose(out.data, expect, atol=1e-10)

    def test_group_divisibility_enforced(self):
        with pytest.raises(ShapeError):
            T.conv2d(Tensor.zeros((1, 3, 4, 4)), Tensor.zeros((4, 1, 3, 3)), groups=2)

    def test_too_small_input(self):
        with pytest.raises(ShapeError):
            T.conv2d(Tensor.zeros((1, 1, 2, 2)), Tensor.zeros((1, 1, 5, 5)))


# ----------------------------------------------------------------------
# pooling / channel reduction
# ----------------------------------------------------------------------

class TestPooling:
    def test_global_avg(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert T.pool2d(x, "avg").item() == pytest.approx(2.5, abs=1e-12)

    def test_global_max(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert T.pool2d(x, "max").item() == 4.0

    def test_constant_map(self):
        x = Tensor.full((2, 3, 4, 4), 0.7)
        assert np.allclose(T.pool2d(x, "avg").data, 0.7)
        assert np.allclose(T.pool2d(x, "max").data, 0.7)

    def test_max_gradient_splits_ties_evenly(self):
        x = Tensor.full((2, 3, 4, 5), 0.7, requires_grad=True)
        T.pool2d(x, "max").sum().backward()
        assert np.all(x.grad == 1.0 / (4 * 5))
        x.zero_grad()
        T.reduce_channel(x, "max").sum().backward()
        assert np.all(x.grad == 1.0 / 3)

    def test_reduce_channel_single(self):
        x = Tensor(np.random.default_rng(6).normal(size=(2, 1, 3, 3)))
        assert np.array_equal(T.reduce_channel(x, "avg").data, x.data)
        assert np.array_equal(T.reduce_channel(x, "max").data, x.data)

    def test_reduce_channel_values(self):
        x = Tensor(np.array([1.0, 3.0]).reshape(1, 2, 1, 1))
        assert T.reduce_channel(x, "avg").item() == 2.0
        assert T.reduce_channel(x, "max").item() == 3.0

    def test_reduce_channel_permutation_invariant(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1, 5, 4, 4))
        perm = rng.permutation(5)
        a = T.reduce_channel(Tensor(x), "max").data
        b = T.reduce_channel(Tensor(x[:, perm]), "max").data
        assert np.array_equal(a, b)
        a = T.reduce_channel(Tensor(x), "avg").data
        b = T.reduce_channel(Tensor(x[:, perm]), "avg").data
        assert np.allclose(a, b, atol=1e-12)  # summation order may differ


# ----------------------------------------------------------------------
# bilinear resize
# ----------------------------------------------------------------------

class TestBilinearResize:
    def test_identity_resize(self):
        x = np.random.default_rng(8).normal(size=(2, 3, 5, 7))
        out = T.bilinear_resize(Tensor(x), 5, 7)
        assert np.allclose(out.data, x, atol=1e-12)

    def test_constant_preserved(self):
        x = Tensor.full((1, 2, 3, 3), 4.2)
        out = T.bilinear_resize(x, 7, 5)
        assert np.allclose(out.data, 4.2, atol=1e-12)

    def test_matches_scalar_formula(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(1, 1, 2, 2))
        x[0, 0] = [[0.0, 2.0], [0.0, 2.0]]
        out = T.bilinear_resize(Tensor(x), 2, 4).data[0, 0]
        for oi in range(2):
            for oj in range(4):
                expect = bilinear_oracle_point(x[0, 0], oi, oj, 2, 4)
                assert out[oi, oj] == pytest.approx(expect, abs=1e-12)

    def test_matches_scalar_formula_random(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(1, 1, 4, 3))
        out = T.bilinear_resize(Tensor(x), 6, 7).data[0, 0]
        for oi in range(6):
            for oj in range(7):
                expect = bilinear_oracle_point(x[0, 0], oi, oj, 6, 7)
                assert out[oi, oj] == pytest.approx(expect, abs=1e-12)


# ----------------------------------------------------------------------
# activations / softmax / layer norm
# ----------------------------------------------------------------------

class TestActivations:
    def test_sigmoid_symmetry_point(self):
        assert T.sigmoid(Tensor.zeros((1,))).data[0] == 0.5

    def test_sigmoid_closed_form(self):
        out = T.sigmoid(Tensor([math.log(3.0)]))
        assert out.data[0] == pytest.approx(0.75, abs=1e-12)

    def test_relu_cases(self):
        out = T.relu(Tensor([-3.0, 3.0]))
        assert np.array_equal(out.data, [0.0, 3.0])

    def test_sigmoid_extremes_finite(self):
        out = T.sigmoid(Tensor([-1000.0, 1000.0]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0] == pytest.approx(0.0, abs=1e-12)
        assert out.data[1] == pytest.approx(1.0, abs=1e-12)

    def test_gelu_reference_values(self):
        # tanh approximation evaluated independently
        x = np.array([-1.0, 0.0, 0.5, 2.0])
        c = math.sqrt(2 / math.pi)
        expect = 0.5 * x * (1 + np.tanh(c * (x + 0.044715 * x ** 3)))
        assert np.allclose(T.gelu(Tensor(x)).data, expect, atol=1e-15)


class TestSoftmax:
    def test_uniform_logits(self):
        out = T.softmax(Tensor.zeros((6,)), axis=0)
        assert np.allclose(out.data, 1.0 / 6.0, atol=1e-15)

    def test_closed_form(self):
        out = T.softmax(Tensor([0.0, math.log(3.0)]), axis=0)
        assert np.allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-50, 50, size=(3, 5))
        a = T.softmax(Tensor(x), axis=1).data
        b = T.softmax(Tensor(x + 17.3), axis=1).data
        assert np.allclose(a, b, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            x = rng.uniform(-50, 50, size=(4, 6))
            s = T.softmax(Tensor(x), axis=1).data.sum(axis=1)
            assert np.allclose(s, 1.0, atol=1e-12)

    def test_bad_axis(self):
        with pytest.raises(ShapeError):
            T.softmax(Tensor.zeros((2, 2)), axis=5)


class TestLayerNorm:
    def g(self, d):
        return Tensor.full((d,), 1.0), Tensor.zeros((d,))

    def test_constant_input(self):
        gamma, beta = self.g(4)
        out = T.layer_norm(Tensor.full((2, 4), 3.3), gamma, beta)
        assert np.allclose(out.data, 0.0, atol=1e-9)

    def test_two_point_case(self):
        gamma, beta = self.g(2)
        out = T.layer_norm(Tensor([[1.0, 3.0]]), gamma, beta)
        assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-3)

    def test_gamma_annihilation(self):
        out = T.layer_norm(Tensor([[5.0, -2.0, 0.4]]),
                           Tensor.zeros((3,)), Tensor.full((3,), 7.0))
        assert np.allclose(out.data, 7.0, atol=1e-15)

    def test_param_shape_checked(self):
        with pytest.raises(ShapeError):
            T.layer_norm(Tensor.zeros((2, 4)), Tensor.zeros((3,)), Tensor.zeros((3,)))


# ----------------------------------------------------------------------
# backward mechanics
# ----------------------------------------------------------------------

class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.random.default_rng(13).normal(size=(3, 4)), requires_grad=True)
        x.sum().backward()
        assert np.array_equal(x.grad, np.ones((3, 4)))

    def test_quadratic(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * x).sum().backward()
        assert np.allclose(x.grad, [2.0, 4.0])

    def test_fanout_accumulates(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        (x.sum() + x.sum()).backward()
        assert np.array_equal(x.grad, [2.0, 2.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            (x * x).backward()

    def test_each_node_visited_once(self):
        # diamond graph: d = b + c where b, c both consume a
        x = Tensor([2.0], requires_grad=True)
        calls = []
        b = x * 3.0
        c = x * 5.0
        orig = b._backward

        def counting(g):
            calls.append(1)
            orig(g)

        b._backward = counting
        (b + c).sum().backward()
        assert len(calls) == 1
        assert np.allclose(x.grad, [8.0])

    def test_no_grad_blocks_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with T.no_grad():
            y = x * 2.0
        assert not y.requires_grad and y._parents == ()
        z = Tensor([1.0]) * 2.0  # recording on, but no input requires grad
        assert not z.requires_grad and z._parents == ()

    def test_cross_entropy_matches_closed_form(self):
        logits = Tensor(np.array([0.0, math.log(3.0)]).reshape(1, 2, 1, 1))
        loss = T.softmax_cross_entropy(logits, np.array([[[1]]]))
        assert loss.item() == pytest.approx(-math.log(0.75), abs=1e-12)

    def test_cross_entropy_rejects_bad_labels(self):
        logits = Tensor.zeros((1, 3, 2, 2))
        with pytest.raises(ContractError):
            T.softmax_cross_entropy(logits, np.full((1, 2, 2), 3))

    def test_concat_backward_splits(self):
        a = Tensor(np.ones((1, 2, 2, 2)), requires_grad=True)
        b = Tensor(np.ones((1, 3, 2, 2)), requires_grad=True)
        out = T.concat([a, b], axis=1)
        (out * out).sum().backward()
        assert a.grad.shape == (1, 2, 2, 2)
        assert b.grad.shape == (1, 3, 2, 2)
        assert np.allclose(a.grad, 2.0) and np.allclose(b.grad, 2.0)

    def test_finite_outputs_on_finite_inputs(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.uniform(-10, 10, size=(2, 4, 6, 6)))
        w = Tensor(rng.uniform(-1, 1, size=(4, 4, 3, 3)))
        out = T.gelu(T.conv2d(x, w, padding=1))
        out = T.softmax(out, axis=1)
        assert np.all(np.isfinite(out.data))


# ----------------------------------------------------------------------
# kernel contracts of the allocation-light gelu, softmax and 1x1 conv
# ----------------------------------------------------------------------

def _tap_copy_conv(x, w, bias, stride, padding, groups):
    """A conv whose windows are copied tap by tap into a C-ordered GEMM operand."""
    (b, c, h, wd), (cout, cin_g, kh, kw) = x.shape, w.shape
    oh, ow = (h + 2 * padding - kh) // stride + 1, (wd + 2 * padding - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((b, c, kh, kw, oh, ow))
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
    out = np.matmul(w.reshape(groups, cout // groups, cin_g * kh * kw),
                    cols.reshape(b, groups, cin_g * kh * kw, oh * ow))
    out = out.reshape(b, cout, oh, ow)
    return out if bias is None else out + bias.reshape(1, cout, 1, 1)


class TestKernelContracts:
    @pytest.fixture
    def im2col_calls(self, monkeypatch):
        calls = []  # the (cols, oh, ow) each call returned
        im2col = T._im2col
        monkeypatch.setattr(T, "_im2col", lambda *a: calls.append(im2col(*a)) or calls[-1])
        return calls

    @pytest.mark.parametrize("grad", [False, True])
    @pytest.mark.parametrize("op", ["gelu", "softmax", "conv1x1", "conv3x3"])
    def test_input_data_unchanged(self, op, grad):
        rng = np.random.default_rng(20)
        x = Tensor(rng.normal(size=(2, 4, 5, 5)), requires_grad=grad)
        w = Tensor(rng.normal(size=(6, 2, 1, 1) if op == "conv1x1" else (6, 2, 3, 3)),
                   requires_grad=grad)
        b = Tensor(rng.normal(size=(6,)), requires_grad=grad)
        before = {name: t.data.tobytes() for name, t in (("x", x), ("w", w), ("b", b))}
        run = {"gelu": lambda: T.gelu(x),
               "softmax": lambda: T.softmax(x, axis=1),
               "conv1x1": lambda: T.conv2d(x, w, b, groups=2),
               "conv3x3": lambda: T.conv2d(x, w, b, padding=1, groups=2)}[op]
        out = run()
        if grad:
            (out * out).sum().backward()
        assert not np.shares_memory(out.data, x.data)
        for name, t in (("x", x), ("w", w), ("b", b)):
            assert t.data.tobytes() == before[name], name

    def test_gelu_closed_form_including_tails(self):
        x = np.linspace(-30.0, 30.0, 601)
        c = math.sqrt(2 / math.pi)
        expect = 0.5 * x * (1 + np.tanh(c * (x + 0.044715 * x ** 3)))
        got = T.gelu(Tensor(x)).data
        assert np.allclose(got, expect, rtol=4 * np.finfo(np.float64).eps, atol=1e-15)
        assert got[0] == 0.0 and got[-1] == 30.0

    @pytest.mark.parametrize("groups", [1, 2])
    @pytest.mark.parametrize("with_bias", [False, True])
    def test_pointwise_conv_equals_im2col_route(self, im2col_calls, groups, with_bias):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(2, 4, 3, 5))
        w = rng.normal(size=(6, 4 // groups, 1, 1))
        b = rng.normal(size=(6,)) if with_bias else None
        out = T.conv2d(Tensor(x), Tensor(w), None if b is None else Tensor(b), groups=groups)
        assert len(im2col_calls) == 1
        cols, oh, ow = im2col_calls[0]
        # a pointwise conv copies nothing: its reshaped windows are x itself
        cols_g = cols.reshape(2, groups, 4 // groups, oh * ow)
        assert np.shares_memory(cols_g, x) and cols_g.flags.c_contiguous
        assert np.array_equal(out.data, _tap_copy_conv(x, w, b, 1, 0, groups))
        assert np.allclose(out.data, conv2d_oracle(x, w, b, groups=groups), atol=1e-12)

    def test_strided_pointwise_conv_keeps_im2col(self, im2col_calls):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(1, 4, 5, 6))
        w = rng.normal(size=(4, 2, 1, 1))
        b = rng.normal(size=(4,))
        out = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=2, groups=2)
        assert len(im2col_calls) == 1
        assert out.shape == (1, 4, 3, 3)
        assert np.allclose(out.data, conv2d_oracle(x, w, b, stride=2, groups=2), atol=1e-12)

    @pytest.mark.parametrize("shape, k, stride, padding, groups", [
        ((2, 4, 9, 9), 3, 2, 1, 1),  # a patch embed
        ((2, 4, 8, 1), 3, 1, 1, 4),  # a one-column depthwise conv: the windows overlap
        ((2, 4, 8, 7), 7, 1, 0, 4),  # one output column
        ((2, 12, 5, 1), 1, 2, 0, 4),  # a strided pointwise conv on one column
    ])
    def test_window_view_equals_tap_copy(self, shape, k, stride, padding, groups):
        # reshaping the window view may give a strided view that numpy's matmul
        # would not hand to BLAS; the conv must still run the tap copy's GEMM
        rng = np.random.default_rng(24)
        x = rng.normal(size=shape)
        w = rng.normal(size=(groups, shape[1] // groups, k, k))
        out = T.conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding, groups=groups)
        assert np.array_equal(out.data, _tap_copy_conv(x, w, None, stride, padding, groups))

    @pytest.mark.parametrize("groups", [1, 2])
    def test_pointwise_conv_gradcheck(self, groups):
        rng = np.random.default_rng(23)
        x = Tensor(rng.uniform(-1, 1, size=(2, 4, 3, 3)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, size=(6, 4 // groups, 1, 1)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, size=(6,)), requires_grad=True)
        report = grad_check(lambda: T.gelu(T.conv2d(x, w, b, groups=groups)).sum(),
                            {"x": x, "w": w, "b": b}, epsilon=1e-3, tolerance=1e-4)
        assert report.passed, str(report)
