"""Finite-difference verification of backward passes.

``grad_check`` compares the gradients produced by reverse-mode autodiff
against central differences computed coordinate by coordinate.  It is the
independent oracle behind every "the gradient suite passes" claim in the
tests, so it deliberately re-evaluates the user-supplied function instead of
reusing anything recorded on the graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from . import tensor as T
from .cbam import CBAM
from .decoder import HamConfig, HamDecoder
from .encoder import FeaturePyramid, Stage, StageConfig
from .errors import ContractError
from .model import REDUCED_STAGES, ArmFormer, ModelConfig
from .tensor import Tensor, no_grad


@dataclass
class GradCheckReport:
    epsilon: float
    tolerance: float
    per_param: dict[str, float] = field(default_factory=dict)
    checked_coords: int = 0

    @property
    def max_rel_error(self) -> float:
        return max(self.per_param.values(), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance

    def __str__(self) -> str:
        lines = [f"grad_check eps={self.epsilon:g} tol={self.tolerance:g} "
                 f"coords={self.checked_coords} -> {'PASS' if self.passed else 'FAIL'}"]
        for name, err in sorted(self.per_param.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {name:40s} max_rel_err={err:.3e}")
        return "\n".join(lines)


def _rel_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def rescale_for_check(module, seed: int) -> None:
    """Re-draw a module's weights uniformly in [-0.3, 0.3] before checking.

    The 0.02-std training init parks pre-activations so close to the
    relu/max kinks (after layer-norm amplification) that finite-difference
    secants routinely straddle them; a generic healthy-magnitude operating
    point keeps the function locally smooth without touching the backward
    code under test.  Layer-norm scales stay near their neutral 1.
    """
    rng = np.random.default_rng(seed)
    for name, p in module.named_parameters():
        if name.endswith("gamma"):
            p.data[...] = rng.uniform(0.8, 1.2, size=p.shape)
        else:
            p.data[...] = rng.uniform(-0.3, 0.3, size=p.shape)


def grad_check(fn: Callable[[], Tensor],
               params: Mapping[str, Tensor],
               epsilon: float = 1e-3,
               tolerance: float = 1e-4,
               max_coords_per_param: int | None = None,
               seed: int = 0) -> GradCheckReport:
    """Compare analytic gradients of ``fn`` with central differences.

    ``fn`` must rebuild its graph from the current parameter values on every
    call and return a scalar loss.  Relative error per coordinate is
    ``|a - n| / max(|a|, |n|, 1e-8)``.

    ``max_coords_per_param`` caps the number of coordinates perturbed per
    parameter (a seeded random subset); ``None`` checks every coordinate.
    Full sweeps over large models are quadratic in parameter count, so the
    cap is how whole-network checks stay affordable.

    A coordinate that fails at the base ``epsilon`` is retried up to twice
    with the step shrunk 8x each time, keeping its best error.  A wrong
    backward formula disagrees at every step size, whereas a secant that
    happens to straddle a relu/max kink is rescued as soon as the step no
    longer crosses it, so refinement separates real defects from
    finite-difference artifacts at non-smooth points.
    """
    with no_grad():
        loss_a = fn().item()
        loss_b = fn().item()
    if loss_a != loss_b:
        raise ContractError(
            f"function is not deterministic: {loss_a!r} != {loss_b!r}")
    if not np.isfinite(loss_a):
        raise ContractError(f"loss is not finite: {loss_a!r}")

    for p in params.values():
        p.zero_grad()
        p.requires_grad = True
    loss = fn()
    if loss.requires_grad:  # else no parameter reaches the loss: every gradient is zero
        loss.backward()
    analytic = {name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for name, p in params.items()}

    rng = np.random.default_rng(seed)
    report = GradCheckReport(epsilon=epsilon, tolerance=tolerance)
    for name, p in params.items():
        flat = p.data.reshape(-1)
        coords = np.arange(flat.size)
        if max_coords_per_param is not None and flat.size > max_coords_per_param:
            coords = rng.choice(flat.size, size=max_coords_per_param, replace=False)
        worst = 0.0
        for i in coords:
            saved = flat[i]
            target = analytic[name].reshape(-1)[i]
            best = None
            step = epsilon
            for _ in range(3):  # the base step, then two 8x refinements
                with no_grad():
                    flat[i] = saved + step
                    up = fn().item()
                    flat[i] = saved - step
                    down = fn().item()
                flat[i] = saved
                best = min(_rel_error(target, (up - down) / (2.0 * step)),
                           best if best is not None else np.inf)
                if best <= tolerance:
                    break
                step /= 8.0
            worst = max(worst, best)
            report.checked_coords += 1
        report.per_param[name] = worst
    return report


def gradient_suites(level: str):
    """Yield (name, GradCheckReport) for each suite that ``armformer gradcheck`` runs."""
    rng = np.random.default_rng

    def op_suite():
        x = Tensor(rng(0).uniform(-1, 1, size=(2, 3, 6, 6)), requires_grad=True)
        w = Tensor(rng(1).uniform(-1, 1, size=(4, 3, 3, 3)), requires_grad=True)
        g = Tensor(rng(2).uniform(0.5, 1.5, size=(6,)), requires_grad=True)
        b = Tensor(rng(3).uniform(-1, 1, size=(6,)), requires_grad=True)

        def fn():
            y = T.conv2d(x, w, stride=1, padding=1)
            y = T.gelu(y)
            y = T.bilinear_resize(y, 4, 6)
            y = T.concat([T.reduce_channel(y, "avg"), T.reduce_channel(y, "max")], axis=1)
            z = T.softmax(y.reshape(2, 2, 24), axis=-1).reshape(2, 8, 6)
            z = T.layer_norm(z, g, b)
            return (T.sigmoid(z) * z).sum()

        return grad_check(fn, {"x": x, "w": w, "gamma": g, "beta": b})

    def cbam_suite():
        block = CBAM(4, rng(4), reduction=2, kernel=3)
        rescale_for_check(block, seed=5)
        x = Tensor(rng(6).uniform(-1, 1, size=(2, 4, 5, 5)), requires_grad=True)
        params = dict(block.named_parameters())
        params["input"] = x

        def fn():
            out, _ = block(x)
            return (out * out).sum()

        return grad_check(fn, params)

    def stage_suite():
        # stage 1's kernel 7 and stride 4, but ratio 2, so its 8x8 map keeps 16 keys
        stage = Stage(3, StageConfig(6, 1, 2), (7, 4, 2), rng(7), 16, 7)
        rescale_for_check(stage, seed=8)
        x = Tensor(rng(9).uniform(-1, 1, size=(1, 3, 32, 32)), requires_grad=True)
        params = dict(stage.named_parameters())
        params["input"] = x

        def fn():
            out = stage(x)
            return (out * out).sum()

        return grad_check(fn, params, max_coords_per_param=6)

    def decoder_suite():
        ham = HamConfig(rank=8, iterations=2, context_channels=16)
        dec = HamDecoder((8, 16, 24, 32), 6, ham, rng(10), 16, 7)
        rescale_for_check(dec, seed=11)
        r = rng(12)
        feats = [Tensor(r.uniform(-1, 1, size=(1, c, 8 // 2 ** i, 8 // 2 ** i)),
                        requires_grad=True)
                 for i, c in enumerate((8, 16, 24, 32))]
        params = dict(dec.named_parameters())
        params.update({f"pyramid.f{i + 1}": f for i, f in enumerate(feats)})

        def fn():
            out = dec(FeaturePyramid(*feats))
            return (out * out).mean()

        return grad_check(fn, params, max_coords_per_param=5)

    def model_suite():
        cfg = ModelConfig(stages=REDUCED_STAGES, input_size=32,
                          ham=HamConfig(rank=4, iterations=2, context_channels=64))
        model = ArmFormer(cfg)
        rescale_for_check(model, seed=13)
        x = Tensor(rng(14).uniform(0, 1, size=(1, 3, 32, 32)), requires_grad=True)
        labels = rng(15).integers(0, cfg.num_classes, size=(1, 32, 32))
        params = dict(model.named_parameters())
        params["input"] = x

        def fn():
            return T.softmax_cross_entropy(model(x), labels)

        return grad_check(fn, params, max_coords_per_param=4)

    yield "primitive-ops", op_suite()
    yield "cbam-block", cbam_suite()
    yield "encoder-stage", stage_suite()
    yield "decoder", decoder_suite()
    if level == "full":
        yield "end-to-end-reduced", model_suite()
