import math
import os
import subprocess
import sys
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from armformer import ArmFormer, ModelConfig, cross_entropy
from armformer import tensor as T
from armformer.data import synth_dataset
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

    @pytest.mark.parametrize("stride, padding", [(0, 1), (1, -1)])
    def test_stride_and_padding_checked(self, stride, padding):
        with pytest.raises(ShapeError, match="stride >= 1 and padding >= 0"):
            T.conv2d(Tensor.zeros((1, 1, 4, 4)), Tensor.zeros((1, 1, 3, 3)),
                     stride=stride, padding=padding)


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

    @pytest.mark.parametrize("op", [T.pool2d, T.reduce_channel])
    def test_kind_and_rank_checked(self, op):
        with pytest.raises(ContractError):
            op(Tensor.zeros((1, 2, 3, 3)), "sum")
        with pytest.raises(ShapeError):
            op(Tensor.zeros((2, 3, 3)), "avg")


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

    def test_second_backward_adds_leaf_gradients_once(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3.0
        loss = y.sum()
        loss.backward()
        assert loss.grad is None and y.grad is None  # interior gradients are spent
        loss.backward()
        assert np.array_equal(x.grad, [6.0])

    @pytest.mark.parametrize("case", ["add", "reshape", "avg", "max"])
    def test_first_gradients_own_their_buffers(self, case):
        # each op's backward hands its input a view: of its own gradient (add,
        # reshape), of one gradient to two inputs (add), or a broadcast (avg, max)
        rng = np.random.default_rng(15)
        a = Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
        out = {"add": lambda: a + b,
               "reshape": lambda: a.reshape(6, 20),
               "avg": lambda: T.pool2d(a, "avg"),
               "max": lambda: T.reduce_channel(a, "max")}[case]()
        loss = out.sum()
        loss.backward()
        leaves = [t for t in (a, b) if t.grad is not None]
        assert len(leaves) == (2 if case == "add" else 1)
        for t in leaves:
            g = t.grad
            assert g.flags.owndata and g.flags.writeable and g.flags.c_contiguous
            assert g.shape == t.shape
            for other in [u.grad for u in leaves if u is not t] + [a.data, b.data, out.data,
                                                                 loss.data]:
                assert not np.shares_memory(g, other)

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

    @pytest.mark.parametrize("b", [1, 3, 8])
    def test_cross_entropy_equals_one_hot_formula(self, b):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            logits = Tensor(rng.normal(size=(b, 6, 64, 64)) * 3.0, requires_grad=True)
            labels = rng.integers(0, 6, size=(b, 64, 64))
            g = rng.uniform(0.5, 2.0)
            loss = T.softmax_cross_entropy(logits, labels)
            (loss * g).backward()
            value, grad = _one_hot_cross_entropy(logits.data, labels, g)
            assert loss.data.tobytes() == np.asarray(value).tobytes(), seed
            assert _same(logits.grad, grad), seed

    def test_concat_backward_splits(self):
        a = Tensor(np.ones((1, 2, 2, 2)), requires_grad=True)
        b = Tensor(np.ones((1, 3, 2, 2)), requires_grad=True)
        out = T.concat([a, b], axis=1)
        (out * out).sum().backward()
        assert a.grad.shape == (1, 2, 2, 2)
        assert b.grad.shape == (1, 3, 2, 2)
        assert np.allclose(a.grad, 2.0) and np.allclose(b.grad, 2.0)

    @pytest.mark.parametrize("shapes, axis", [
        ([(1, 2, 4, 4), (1, 3, 4, 5)], 1),  # off-axis widths disagree
        ([(1, 2, 4, 4), (1, 3, 6, 4)], 1),  # rows disagree: the axis split across workers
        ([(1, 2, 4, 4), (2, 4, 4)], 1),  # ranks disagree
        ([(1, 2, 4, 4), (1, 3, 4, 4)], 4),  # no such axis
    ], ids=["width", "split_axis", "rank", "axis"])
    def test_concat_rejects_mismatched_shapes(self, monkeypatch, shapes, axis):
        monkeypatch.setattr(T, "TILE_WORKERS", 2)
        monkeypatch.setattr(T, "_SHARE_BYTES", 8)
        with pytest.raises(ShapeError):
            T.concat([Tensor.zeros(shape) for shape in shapes], axis=axis)

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

def _one_hot_cross_entropy(logits, labels, g):
    """Cross-entropy and its logits gradient, seeded with ``g``, through a one-hot array
    of the labels: the reference ``T.softmax_cross_entropy`` keeps the bits of."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    onehot = np.moveaxis(np.eye(logits.shape[1])[labels], -1, 1)
    n = labels.size
    return -(onehot * logp).sum() / n, g * (np.exp(logp) - onehot) / n


def _tap_copy(x, kh, kw, stride, padding):
    """Every conv window of ``x``, copied tap by tap into a C-ordered
    (B, C, kh, kw, OH, OW) array."""
    b, c, h, wd = x.shape
    oh, ow = (h + 2 * padding - kh) // stride + 1, (wd + 2 * padding - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((b, c, kh, kw, oh, ow))
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
    return cols


def _tap_copy_conv(x, w, bias, stride, padding, groups):
    """A conv whose windows are copied tap by tap into a C-ordered GEMM operand."""
    cout, cin_g, kh, kw = w.shape
    cols = _tap_copy(x, kh, kw, stride, padding)
    b, _, _, _, oh, ow = cols.shape
    out = np.matmul(w.reshape(groups, cout // groups, cin_g * kh * kw),
                    cols.reshape(b, groups, cin_g * kh * kw, oh * ow))
    out = out.reshape(b, cout, oh, ow)
    return out if bias is None else out + bias.reshape(1, cout, 1, 1)


def _col2im(cols, shape, stride, padding):
    """Window gradients (B, C, kh, kw, OH, OW) added back onto the input map."""
    b, c, h, w = shape
    _, _, kh, kw, oh, ow = cols.shape
    xp = np.zeros((b, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += cols[:, :, i, j]
    return xp[:, :, padding:padding + h, padding:padding + w]


def _col2im_conv_grads(x, w, g, stride, padding, groups):
    """conv2d's (x, w, bias) gradients for output gradient ``g`` through one
    batch-wide window-gradient GEMM and ``_col2im``."""
    (b, c, _, _), (cout, cin_g, kh, kw) = x.shape, w.shape
    _, _, oh, ow = g.shape
    k = cin_g * kh * kw
    cols = _tap_copy(x, kh, kw, stride, padding)
    w_g = w.reshape(groups, cout // groups, k)
    gg = g.reshape(b, groups, cout // groups, oh * ow)
    dw = np.matmul(gg, np.swapaxes(cols.reshape(b, groups, k, oh * ow), -1, -2)).sum(axis=0)
    dcols = np.matmul(np.swapaxes(w_g, -1, -2), gg).reshape(b, c, kh, kw, oh, ow)
    return _col2im(dcols, x.shape, stride, padding), dw.reshape(w.shape), g.sum(axis=(0, 2, 3))


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

    @pytest.mark.parametrize("op", ["gelu", "layer_norm"])
    def test_backward_keeps_only_row_statistics(self, op):
        rng = np.random.default_rng(23)
        x = Tensor(rng.normal(size=(2, 37, 24)), requires_grad=True)
        gamma, beta = (Tensor(rng.normal(size=(24,)), requires_grad=True) for _ in range(2))
        out = T.gelu(x) if op == "gelu" else T.layer_norm(x, gamma, beta)
        operands = [t.data for t in (x, gamma, beta, out)]
        kept = [c.cell_contents for c in out._backward.__closure__
                if isinstance(c.cell_contents, np.ndarray)]
        assert kept
        for a in kept:  # views of operands, or one value per row of 24
            assert any(np.shares_memory(a, o) for o in operands) or a.size <= 2 * 37, a.shape

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

    @pytest.mark.parametrize("x_shape, w_shape, stride, padding, groups", [
        ((3, 4, 7, 6), (4, 1, 3, 3), 1, 1, 4),  # depthwise 3x3
        ((3, 2, 9, 8), (1, 2, 7, 7), 1, 3, 1),  # CBAM's 2->1 spatial conv
        ((3, 4, 9, 9), (6, 4, 3, 3), 2, 1, 1),  # a later patch embed
        ((3, 3, 17, 18), (5, 3, 7, 7), 4, 3, 1),  # the first patch embed
        ((3, 4, 16, 24), (6, 4, 8, 8), 8, 0, 1),  # a key/value reduction
        ((3, 4, 5, 6), (6, 2, 1, 1), 1, 0, 2),  # pointwise, grouped
        ((3, 4, 6, 5), (2, 2, 3, 3), 1, 1, 2),  # one output, two inputs per group
    ], ids=["depthwise3x3", "cbam7x7", "stride2", "stride4", "stride8", "pointwise_g2",
            "cout_g1_cin_g2"])
    def test_conv_grads_equal_col2im_route(self, monkeypatch, submitted, x_shape, w_shape,
                                           stride, padding, groups):
        rng = np.random.default_rng(25)
        x = Tensor(rng.normal(size=x_shape), requires_grad=True)
        w = Tensor(rng.normal(size=w_shape), requires_grad=True)
        bias = Tensor(rng.normal(size=w_shape[0]), requires_grad=True)
        monkeypatch.setattr(T, "_SHARE_BYTES", 8)  # a slice of images per worker at any size
        for workers in (1, 2):
            monkeypatch.setattr(T, "TILE_WORKERS", workers)
            for t in (x, w, bias):
                t.zero_grad()
            out = T.conv2d(x, w, bias, stride, padding, groups)
            g = rng.normal(size=out.shape)
            loss = (out * Tensor(g)).sum()
            submitted.clear()
            loss.backward()
            assert bool(submitted) == (workers > 1)
            expect = _col2im_conv_grads(x.data, w.data, g, stride, padding, groups)
            for t, e in zip((x, w, bias), expect):
                assert _same(t.grad, e), workers

    @pytest.mark.parametrize("groups", [1, 2])
    def test_pointwise_conv_gradcheck(self, groups):
        rng = np.random.default_rng(23)
        x = Tensor(rng.uniform(-1, 1, size=(2, 4, 3, 3)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, size=(6, 4 // groups, 1, 1)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, size=(6,)), requires_grad=True)
        report = grad_check(lambda: T.gelu(T.conv2d(x, w, b, groups=groups)).sum(),
                            {"x": x, "w": w, "b": b})
        assert report.passed, str(report)


# ----------------------------------------------------------------------
# tiled kernels: no result depends on the tile size
# ----------------------------------------------------------------------

def _ragged_height(n, align):
    """A tile height that splits ``n`` rows into several tiles, the last one shorter."""
    heights = [r for r in range(align, n, align) if n % r]
    return min(heights, key=lambda r: abs(r - n / 3)) if heights else None


class TileBudget:
    """Runs a function with a tile budget making every tile split ragged, or one tile."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.splits = []  # the row slices of every ragged split, call by call

    def whole(self, fn):
        return self._run(fn, lambda n, align: n, [])

    def ragged(self, fn):
        return self._run(fn, lambda n, align: _ragged_height(n, align) or n, self.splits)

    def _run(self, fn, height, splits):
        tiles = T._tiles

        def split(n, row_bytes, align=1, budget=None):
            slices = tiles(n, row_bytes, align, height(n, align) * row_bytes)
            splits.append(slices)
            return slices

        self.monkeypatch.setattr(T, "_tiles", split)
        try:
            return fn()
        finally:
            self.monkeypatch.setattr(T, "_tiles", tiles)

    def was_ragged(self, tiles):
        return len(tiles) > 1 and tiles[-1].stop - tiles[-1].start < tiles[0].stop - tiles[0].start


def _same(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture
def budget(monkeypatch):
    return TileBudget(monkeypatch)


class TestTiles:
    # each op's operand shapes; every operand is random and, with grad, a leaf
    OPS = {
        "softmax": ([(3, 2, 25, 40)], lambda x: T.softmax(x, axis=-1, scale=0.37)),
        "softmax_axis1": ([(5, 4, 6, 7)], lambda x: T.softmax(x, axis=1, scale=0.37)),
        "layer_norm": ([(2, 37, 24), (24,), (24,)], T.layer_norm),
        "gelu": ([(3, 41, 17)], T.gelu),
        "transpose_021": ([(2, 300, 24)], lambda x: T.transpose(x, 0, 2, 1)),
        "transpose_0213": ([(2, 100, 3, 8)], lambda x: T.transpose(x, 0, 2, 1, 3)),
        "transpose_0132": ([(2, 3, 100, 8)], lambda x: T.transpose(x, 0, 1, 3, 2)),
        "add_same": ([(1, 7, 9, 10), (1, 7, 9, 10)], T.add),
        "add_bias": ([(1, 45, 12), (12,)], T.add),
        "add_batch": ([(3, 45, 12), (3, 45, 12)], T.add),
        "mul_channel_gate": ([(1, 7, 9, 10), (1, 7, 1, 1)], T.mul),
        "mul_spatial_gate": ([(1, 7, 9, 10), (1, 1, 9, 10)], T.mul),
        "mul_batch_channel_gate": ([(3, 7, 9, 10), (3, 7, 1, 1)], T.mul),
        "mul_2d_into_3d": ([(7, 90), (1, 7, 90)], T.mul),
        "div": ([(1, 7, 90), (7, 90)], T.div),
        "relu": ([(1, 7, 9, 10)], T.relu),
        "matmul_heads": ([(1, 3, 40, 24), (1, 3, 24, 16)], T.matmul),
        "matmul_rows": ([(1, 1, 50, 24), (1, 1, 24, 16)], T.matmul),
        "matmul_3d_2d": ([(1, 64, 24), (24, 16)], T.matmul),
        "matmul_batch_3d_2d": ([(3, 40, 24), (24, 16)], T.matmul),
        "matmul_ham_16_rows": ([(1, 16, 256), (1, 256, 100)], T.matmul),
        "bilinear_resize": ([(1, 7, 9, 10)], lambda x: T.bilinear_resize(x, 23, 17)),
        "concat": ([(1, 2, 9, 10), (1, 3, 9, 10)], lambda a, b: T.concat([a, b], axis=1)),
        "pool2d_avg": ([(1, 7, 9, 10)], lambda x: T.pool2d(x, "avg")),
        "pool2d_max": ([(2, 7, 9, 10)], lambda x: T.pool2d(x, "max")),
        "reduce_channel_avg": ([(1, 7, 9, 10)], lambda x: T.reduce_channel(x, "avg")),
        "reduce_channel_max": ([(2, 7, 9, 10)], lambda x: T.reduce_channel(x, "max")),
    }
    TILED = ("softmax", "layer_norm", "gelu", "transpose")  # cut into row tiles by _tiles
    WHOLE = {"matmul_ham_16_rows"}  # 16 rows make one share: nothing to split

    @pytest.mark.parametrize("grad", [False, True])
    @pytest.mark.parametrize("op", sorted(OPS))
    def test_op_equals_one_tile(self, budget, monkeypatch, submitted, op, grad):
        shapes, fn = self.OPS[op]
        rng = np.random.default_rng(30)
        xs = [Tensor(rng.normal(size=shape) * 3.0, requires_grad=grad) for shape in shapes]
        with T.no_grad():
            weights = Tensor(rng.normal(size=fn(*xs).shape))

        def run():
            for t in xs:
                t.zero_grad()
            out = fn(*xs)
            if grad:
                (out * weights).sum().backward()
            return [out.data] + [t.grad for t in xs if t.grad is not None]

        monkeypatch.setattr(T, "_SHARE_BYTES", 8 * 16)  # shares of test-sized operands
        monkeypatch.setattr(T, "TILE_WORKERS", 1)
        whole = budget.whole(run)
        for workers in (1, 2):
            monkeypatch.setattr(T, "TILE_WORKERS", workers)
            tiled = budget.ragged(run)
            assert len(whole) == len(tiled) == 1 + len(xs) * grad
            assert all(_same(a, b) for a, b in zip(whole, tiled)), workers
            submitted.clear()
            with T.no_grad():
                budget.ragged(lambda: fn(*xs))
            assert bool(submitted) == (workers > 1 and op not in self.WHOLE)
        assert bool(budget.splits) == op.startswith(self.TILED)
        assert all(budget.was_ragged(t) for t in budget.splits)

    @pytest.mark.parametrize("op", ["add_bias", "mul_channel_gate", "div", "relu",
                                    "matmul_rows", "bilinear_resize", "concat", "pool2d_avg",
                                    "pool2d_max", "reduce_channel_avg", "reduce_channel_max"])
    def test_op_below_share_bytes_submits_nothing(self, monkeypatch, submitted, op):
        shapes, fn = self.OPS[op]
        rng = np.random.default_rng(33)
        xs = [Tensor(rng.normal(size=shape)) for shape in shapes]
        monkeypatch.setattr(T, "TILE_WORKERS", 2)
        fn(*xs)
        assert not submitted
        monkeypatch.setattr(T, "_SHARE_BYTES", 8)
        fn(*xs)
        assert submitted

    @pytest.mark.parametrize("workers", [1, 2])
    def test_zero_rows_give_empty_results(self, monkeypatch, workers):
        monkeypatch.setattr(T, "TILE_WORKERS", workers)
        assert T._cut(0, 2) == []
        x = Tensor(np.zeros((0, 3)), requires_grad=True)
        ones, zeros = Tensor(np.ones(3)), Tensor(np.zeros(3))
        outs = {"gelu": T.gelu(x), "softmax": T.softmax(x, axis=-1),
                "layer_norm": T.layer_norm(x, ones, zeros), "transpose": T.transpose(x, 1, 0)}
        for name, out in outs.items():
            assert out.shape == ((3, 0) if name == "transpose" else (0, 3)), name
            out.sum().backward()
        assert x.grad.shape == (0, 3)

    @pytest.mark.parametrize("align", [1, 4, 16])
    def test_cut_makes_contiguous_slices_of_one_aligned_height(self, align):
        for n in range(1, 101):
            for pieces in range(1, 6):
                cut = T._cut(n, pieces, align)
                heights = [sl.stop - sl.start for sl in cut]
                assert [i for sl in cut for i in range(sl.start, sl.stop)] == list(range(n))
                assert 1 <= len(cut) <= pieces and min(heights) > 0, (n, pieces)
                # n / pieces rounded up to a multiple of align; only the last is shorter
                height = min(n, align * math.ceil(math.ceil(n / pieces) / align))
                assert heights[:-1] == [height] * (len(cut) - 1) and heights[-1] <= height
                assert height % align == 0 or len(cut) == 1, (n, pieces)

    def test_default_model_convs_at_640(self, budget, monkeypatch):
        calls = {}  # one of each conv the default model runs at 640
        conv2d = T.conv2d

        def spy(x, w, bias=None, stride=1, padding=0, groups=1):
            calls[(x.shape, w.shape, stride, padding, groups)] = None
            return conv2d(x, w, bias, stride, padding, groups)

        monkeypatch.setattr(T, "conv2d", spy)
        model = ArmFormer(ModelConfig.default())
        with T.no_grad():
            model(Tensor(np.zeros((1, 3, 640, 640))))
        monkeypatch.setattr(T, "conv2d", conv2d)

        monkeypatch.setattr(T, "TILE_WORKERS", 2)
        rng = np.random.default_rng(31)
        for x_shape, w_shape, stride, padding, groups in calls:
            x = Tensor(rng.normal(size=x_shape))
            w = Tensor(rng.normal(size=w_shape))
            b = Tensor(rng.normal(size=w_shape[0]))
            before = len(budget.splits)
            with T.no_grad():
                whole, tiled = (evaluate(lambda: conv2d(x, w, b, stride, padding, groups).data)
                                for evaluate in (budget.whole, budget.ragged))
            assert _same(whole, tiled), (x_shape, w_shape, stride, padding, groups)
            assert [budget.was_ragged(t) for t in budget.splits[before:]] == [True]
        assert len(calls) == 17

    def test_default_model_matmuls_at_640(self, monkeypatch, submitted):
        calls = {}  # one of each product the default model runs at 640, resizes included
        matmul = T._matmul

        def spy(a, b, rows=True):
            calls[(a.shape, b.shape, b.ndim == 2 and not b.flags.c_contiguous, rows)] = None
            return matmul(a, b, rows)

        monkeypatch.setattr(T, "_matmul", spy)
        model = ArmFormer(ModelConfig.default())
        with T.no_grad():
            model(Tensor(np.zeros((1, 3, 640, 640))))
        monkeypatch.setattr(T, "_matmul", matmul)

        rng = np.random.default_rng(34)
        for a_shape, b_shape, transposed, rows in calls:
            a = rng.normal(size=a_shape)
            b = rng.normal(size=b_shape[::-1]).T if transposed else rng.normal(size=b_shape)
            monkeypatch.setattr(T, "TILE_WORKERS", 1)
            whole = matmul(a, b, rows)
            for workers in (2, 3, 4):
                monkeypatch.setattr(T, "TILE_WORKERS", workers)
                assert _same(whole, matmul(a, b, rows)), (a_shape, b_shape, workers)
        assert len(calls) == 52
        assert len(submitted) > 40  # the large products split: by heads, batch or rows

    @pytest.mark.parametrize("shape", [(3, 333, 517), (1, 1, 333, 517)])
    def test_resize_keeps_bits_at_every_worker_count(self, monkeypatch, shape):
        # at 640x640 a split of this resize's rows changed bits at 2 and 4 workers
        x = np.random.default_rng(35).random(shape)
        monkeypatch.setattr(T, "TILE_WORKERS", 1)
        whole = T._bilinear(x, 640, 640)[0]
        for workers in (2, 3, 4):
            monkeypatch.setattr(T, "TILE_WORKERS", workers)
            assert _same(whole, T._bilinear(x, 640, 640)[0]), workers

    def test_reduced_model_gradients_at_128(self, budget, monkeypatch):
        model = ArmFormer(ModelConfig.reduced(128))
        data = synth_dataset(32, 8, 128)
        images = Tensor(np.stack([image for image, _ in data]))
        labels = np.stack([mask for _, mask in data])

        def step():
            for p in model.parameters():
                p.zero_grad()
            loss = cross_entropy(model(images), labels)
            loss.backward()
            return [loss.data] + [p.grad for p in model.parameters()]

        whole = budget.whole(step)
        for workers in (1, 2):
            monkeypatch.setattr(T, "TILE_WORKERS", workers)
            tiled = budget.ragged(step)
            assert len(whole) == len(tiled) == 1 + len(model.parameters())
            assert all(_same(a, b) for a, b in zip(whole, tiled)), workers
        assert sum(map(budget.was_ragged, budget.splits)) > 40


# ----------------------------------------------------------------------
# tile workers
# ----------------------------------------------------------------------

class TestWorkers:
    @pytest.mark.parametrize("failing", ["first", "last"])
    def test_error_raised_after_every_group_finished(self, monkeypatch, failing):
        monkeypatch.setattr(T, "TILE_WORKERS", 2)
        monkeypatch.setattr(T, "_TILE_BYTES", 8 * 100)  # 10 tiles of 100 values
        x = np.arange(1000.0)
        bad = 0 if failing == "first" else 900  # in the calling thread's group, or a worker's
        finished = []
        gelu_tanh = T._gelu_tanh

        def tanh(d, out):
            if d[0] == bad:
                raise ValueError("tile failed")
            time.sleep(0.02)
            finished.append(d[0])
            return gelu_tanh(d, out)

        monkeypatch.setattr(T, "_gelu_tanh", tanh)
        with pytest.raises(ValueError, match="tile failed"):
            T.gelu(Tensor(x))
        # each group stops at its failing tile; every other group ran to its end
        expect = list(range(500, 1000, 100)) if failing == "first" else list(range(0, 900, 100))
        assert sorted(finished) == [float(v) for v in expect]

    def test_groups_the_pool_has_not_started_run_on_the_calling_thread(self, monkeypatch):
        stalled = []

        class Never(Future):  # a task that never starts; waiting on it fails, not hangs
            def result(self, timeout=None):
                return super().result(timeout=5)

        class Stalled:
            def submit(self, fn, *args):
                stalled.append(Never())
                return stalled[-1]

        model = ArmFormer(ModelConfig.reduced(64))
        data = synth_dataset(35, 2, 64)
        images = Tensor(np.stack([image for image, _ in data]))
        labels = np.stack([mask for _, mask in data])

        def step():
            for p in model.parameters():
                p.zero_grad()
            loss = cross_entropy(model(images), labels)
            loss.backward()
            return [loss.data] + [p.grad for p in model.parameters()]

        monkeypatch.setattr(T, "_SHARE_BYTES", 8)
        monkeypatch.setattr(T, "_TILE_BYTES", 1 << 12)
        monkeypatch.setattr(T, "TILE_WORKERS", 1)
        whole = step()
        monkeypatch.setattr(T, "TILE_WORKERS", 2)
        monkeypatch.setattr(T, "_executor", Stalled)
        taken = step()
        assert all(_same(a, b) for a, b in zip(whole, taken))
        assert len(stalled) > 100 and all(f.cancelled() for f in stalled)

    @pytest.mark.parametrize("cpus, env, workers", [
        (64, {"OPENBLAS_NUM_THREADS": "1"}, T._MAX_WORKERS),
        (None, {"OPENBLAS_NUM_THREADS": "1"}, T._MAX_WORKERS),  # no affinity masks: 64 CPUs
        (1, {"OPENBLAS_NUM_THREADS": "1"}, 1),
        (2, {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"}, 2),
        (2, {"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 2),
        (2, {"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, 2),
        (2, {"OPENBLAS_NUM_THREADS": "2"}, 1),  # BLAS threads of its own: no tile workers
        (2, {"GOTO_NUM_THREADS": "0", "OMP_NUM_THREADS": "4"}, 1),
        (2, {}, 1),  # BLAS takes a thread per CPU
    ])
    def test_tile_workers_from_cpus_and_blas_threads(self, monkeypatch, submitted, cpus, env,
                                                      workers):
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
        assert T._tile_workers() == workers
        # one worker keeps every tile, conv GEMM slabs included, on the calling thread
        monkeypatch.setattr(T, "TILE_WORKERS", T._tile_workers())
        monkeypatch.setattr(T, "_TILE_BYTES", 1 << 10)
        rng = np.random.default_rng(32)
        x = Tensor(rng.normal(size=(1, 4, 16, 16)))
        for w in (rng.normal(size=(6, 4, 1, 1)), rng.normal(size=(6, 4, 3, 3))):
            T.conv2d(x, Tensor(w), padding=w.shape[-1] // 2)
        T.softmax(x, axis=-1)
        assert bool(submitted) == (workers > 1)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity masks")
    def test_import_starts_nothing_and_one_cpu_means_one_worker(self):
        code = ("import os, sys, threading; "
                "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
                "import armformer; from armformer import tensor; "
                "print('concurrent.futures' in sys.modules, threading.active_count(), "
                "tensor.TILE_WORKERS)")
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "1", "1"]
