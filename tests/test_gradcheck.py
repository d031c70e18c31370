"""Finite-difference checks for every differentiable primitive."""

import numpy as np
import pytest

from armformer import tensor as T
from armformer.errors import ContractError
from armformer.gradcheck import grad_check
from armformer.tensor import Tensor

EPS = 1e-3
TOL = 1e-4


def check(fn, params, **kw):
    report = grad_check(fn, params, epsilon=EPS, tolerance=TOL, **kw)
    assert report.passed, str(report)
    return report


def rand(shape, seed, lo=-1.0, hi=1.0):
    return Tensor(np.random.default_rng(seed).uniform(lo, hi, size=shape),
                  requires_grad=True)


class TestHarness:
    def test_quadratic_loss(self):
        x = rand((3,), 0)
        report = grad_check(lambda: (x * x).sum(), {"x": x},
                            epsilon=1e-4, tolerance=1e-6)
        assert report.passed

    def test_constant_function_passes(self):
        x = rand((3,), 1)
        report = check(lambda: Tensor.zeros((1,)).sum() * 1.0, {"x": x})
        assert report.max_rel_error == 0.0

    def test_nondeterministic_fn_rejected(self):
        x = rand((2,), 2)
        state = {"n": 0.0}

        def fn():
            state["n"] += 1.0
            return (x * state["n"]).sum()

        with pytest.raises(ContractError):
            grad_check(fn, {"x": x})

    def test_coordinate_sampling_counts(self):
        x = rand((10, 10), 3)
        report = check(lambda: (x * x).sum(), {"x": x}, max_coords_per_param=7)
        assert report.checked_coords == 7


class TestPrimitiveGrads:
    def test_add_mul_div(self):
        a, b = rand((2, 3), 4), rand((2, 3), 5, lo=0.5, hi=2.0)
        check(lambda: ((a + b) * a / b).sum(), {"a": a, "b": b})

    def test_broadcast_add(self):
        a, b = rand((2, 3, 4), 6), rand((4,), 7)
        check(lambda: (a + b).sum(), {"a": a, "b": b})

    def test_matmul(self):
        a, b = rand((3, 4), 8), rand((4, 2), 9)
        check(lambda: (T.matmul(a, b) * T.matmul(a, b)).sum(), {"a": a, "b": b})

    def test_batched_matmul(self):
        a, b = rand((2, 3, 4), 10), rand((4, 5), 11)
        check(lambda: (T.matmul(a, b) * T.matmul(a, b)).sum(), {"a": a, "b": b})

    def test_conv2d(self):
        x, w, b = rand((2, 3, 5, 5), 12), rand((4, 3, 3, 3), 13), rand((4,), 14)
        check(lambda: (T.conv2d(x, w, b, stride=2, padding=1)
                       * T.conv2d(x, w, b, stride=2, padding=1)).sum(),
              {"x": x, "w": w, "b": b})

    def test_conv2d_grouped(self):
        x, w = rand((1, 4, 4, 4), 15), rand((4, 2, 3, 3), 16)
        check(lambda: (T.conv2d(x, w, padding=1, groups=2) * 1.0).sum(),
              {"x": x, "w": w})

    def test_conv2d_depthwise(self):
        x, w = rand((2, 3, 5, 5), 17), rand((3, 1, 3, 3), 18)
        check(lambda: (T.conv2d(x, w, padding=1, groups=3)
                       * T.conv2d(x, w, padding=1, groups=3)).sum(),
              {"x": x, "w": w})

    def test_pool_global(self):
        x = rand((2, 3, 4, 4), 19)
        check(lambda: (T.pool2d(x, "avg") * 3.0).sum(), {"x": x})
        check(lambda: (T.pool2d(x, "max") * 3.0).sum(), {"x": x})

    def test_reduce_channel(self):
        x = rand((2, 5, 3, 3), 21)
        check(lambda: (T.reduce_channel(x, "avg") * x.sum()).sum(), {"x": x})
        check(lambda: (T.reduce_channel(x, "max") * 2.0).sum(), {"x": x})

    def test_bilinear_resize(self):
        x = rand((1, 2, 4, 5), 22)
        check(lambda: (T.bilinear_resize(x, 7, 3) * T.bilinear_resize(x, 7, 3)).sum(),
              {"x": x})

    def test_activations(self):
        x = rand((3, 4), 23, lo=-2.0, hi=2.0)
        for op in (T.sigmoid, T.relu, T.gelu):
            check(lambda f=op: (f(x) * f(x)).sum(), {"x": x})

    def test_softmax(self):
        x = rand((3, 5), 24, lo=-3.0, hi=3.0)
        w = rand((3, 5), 25)
        check(lambda: (T.softmax(x, axis=1) * w).sum(), {"x": x, "w": w})

    def test_layer_norm(self):
        x, g, b = rand((2, 3, 6), 26), rand((6,), 27), rand((6,), 28)
        check(lambda: (T.layer_norm(x, g, b) * T.layer_norm(x, g, b)).sum(),
              {"x": x, "gamma": g, "beta": b})

    def test_cross_entropy(self):
        x = rand((2, 4, 3, 3), 29, lo=-2.0, hi=2.0)
        labels = np.random.default_rng(30).integers(0, 4, size=(2, 3, 3))
        check(lambda: T.softmax_cross_entropy(x, labels), {"x": x})

    def test_transpose_reshape_concat(self):
        a, b = rand((2, 3, 4), 31), rand((2, 5, 4), 32)
        check(lambda: (T.concat([a, b], axis=1).transpose(0, 2, 1).reshape(2, 32)
                       * 2.0).sum(), {"a": a, "b": b})

    def test_log_exp(self):
        x = rand((3,), 33, lo=0.5, hi=2.0)
        check(lambda: (T.log(x) + T.exp(x)).sum(), {"x": x})

    def test_random_small_shape_sweep(self):
        # every differentiable op on random small shapes (dims <= 6)
        rng = np.random.default_rng(34)
        for trial in range(10):
            b, c = int(rng.integers(1, 3)), int(rng.integers(1, 5))
            h = int(rng.integers(2, 7))
            x = Tensor(rng.uniform(-1, 1, size=(b, c, h, h)), requires_grad=True)
            w = Tensor(rng.uniform(-1, 1, size=(c, c, 3, 3)), requires_grad=True)

            def fn():
                y = T.conv2d(x, w, padding=1)
                y = T.gelu(y)
                y = T.bilinear_resize(y, h + 1, h)
                y = T.softmax(y, axis=1)
                return (y * y).sum()

            check(fn, {"x": x, "w": w}, max_coords_per_param=12, seed=trial)
