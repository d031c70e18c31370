"""Finite-difference checks for every differentiable primitive."""

import numpy as np
import pytest

from armformer import tensor as T
from armformer.errors import ContractError
from armformer.gradcheck import grad_check
from armformer.tensor import Tensor

def check(fn, params, **kw):
    report = grad_check(fn, params, **kw)
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

    def test_batched_matmul(self):
        a, b = rand((2, 3, 4), 10), rand((4, 5), 11)
        check(lambda: (T.matmul(a, b) * T.matmul(a, b)).sum(), {"a": a, "b": b})

    def test_conv2d_grouped(self):
        x, w = rand((1, 4, 4, 4), 15), rand((4, 2, 3, 3), 16)
        check(lambda: (T.conv2d(x, w, padding=1, groups=2) * 1.0).sum(),
              {"x": x, "w": w})

    def test_transpose_reshape_concat(self):
        a, b = rand((2, 3, 4), 31), rand((2, 5, 4), 32)
        check(lambda: (T.concat([a, b], axis=1).transpose(0, 2, 1).reshape(2, 32)
                       * 2.0).sum(), {"a": a, "b": b})

    def test_scaled_softmax(self):
        x = rand((2, 3, 5), 35, lo=-2.0, hi=2.0)
        check(lambda: (T.softmax(x, axis=-1, scale=0.37) * T.softmax(x, axis=1, scale=0.37)).sum(),
              {"x": x})

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
