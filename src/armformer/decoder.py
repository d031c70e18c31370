"""Lightweight decoder head: fuse the pyramid, gate, factorize, classify.

The pipeline is CBAM -> 1x1 squeeze -> hamburger global context -> CBAM ->
1x1 classifier -> 4x bilinear upsample.  The hamburger step models global
context by non-negative matrix factorization of the (rectified) feature map:
``Z ~ D @ C`` with multiplicative updates, whose reconstruction is added back
residually.  Gradients flow through every round of the unrolled update loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tensor as T
from .cbam import CBAM
from .encoder import FeaturePyramid
from .errors import ConfigError, ShapeError
from .nn import Conv2d, Module
from .tensor import Tensor

_EPS = 1e-7  # keeps the multiplicative-update denominators positive


@dataclass(frozen=True)
class HamConfig:
    """Factorization settings for the global-context block.

    ``rank`` and ``iterations`` trade reconstruction quality against compute;
    the factor matrices are re-initialized from ``seed`` on every forward so
    inference is deterministic and the block carries no learned state.

    The defaults (rank 16, 2 update rounds) keep the head light: at 640x640
    the fused map has 25600 positions, and a rank-64/6-round factorization
    alone would add ~6.3 GMACs, pushing whole-model complexity far past its
    ~10 GMAC budget.
    """

    rank: int = 16
    iterations: int = 2
    context_channels: int = 256
    seed: int = 0

    def __post_init__(self):
        if self.rank < 1 or self.iterations < 1:
            raise ConfigError(f"rank and iterations must be >= 1, got {self}")
        if self.rank >= self.context_channels:
            raise ConfigError(
                f"rank {self.rank} must be below context_channels {self.context_channels}")
        if self.seed < 0:
            raise ConfigError(f"ham seed must be >= 0, got {self.seed}")


def _swap(t: Tensor) -> Tensor:
    axes = list(range(t.ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return t.transpose(*axes)


def fuse_pyramid(p: FeaturePyramid) -> Tensor:
    """Upsample every level to the finest resolution and concat channels."""
    batches = {f.shape[0] for f in p}
    if len(batches) != 1:
        raise ShapeError(f"pyramid batch sizes disagree: {[f.shape for f in p]}")
    h, w = p.f1.shape[2], p.f1.shape[3]
    aligned = [p.f1] + [T.bilinear_resize(f, h, w) for f in (p.f2, p.f3, p.f4)]
    return T.concat(aligned, axis=1)


def _mu_round(z: Tensor, bases: Tensor, codes: Tensor) -> tuple[Tensor, Tensor]:
    # codes <- codes * (D^T Z) / ((D^T D) codes + eps)
    codes = codes * T.matmul(_swap(bases), z) / (
        T.matmul(T.matmul(_swap(bases), bases), codes) + _EPS)
    # bases <- bases * (Z codes^T) / (bases (codes codes^T) + eps)
    bases = bases * T.matmul(z, _swap(codes)) / (
        T.matmul(bases, T.matmul(codes, _swap(codes))) + _EPS)
    return bases, codes


class HamTraceEntry(NamedTuple):
    error: np.ndarray  # per-batch-item squared Frobenius reconstruction error
    bases: np.ndarray
    codes: np.ndarray


def ham_global_context(x: Tensor, cfg: HamConfig,
                       trace: list[HamTraceEntry] | None = None) -> Tensor:
    """Add the rank-``cfg.rank`` NMF reconstruction of relu(x) back onto x.

    When ``trace`` is given, the reconstruction error and factor snapshots
    are appended once for the initial factors and once after each
    multiplicative-update round (``iterations + 1`` entries in total).
    """
    if x.ndim != 4:
        raise ShapeError(f"expected [B,C,H,W], got {x.shape}")
    b, c, h, w = x.shape
    z = T.relu(x).reshape(b, c, h * w)
    rng = np.random.default_rng(cfg.seed)
    bases = Tensor(rng.uniform(0.0, 1.0, size=(c, cfg.rank)))
    codes = Tensor(rng.uniform(0.0, 1.0, size=(cfg.rank, h * w)))

    def record():
        if trace is not None:
            diff = z.data - np.matmul(bases.data, codes.data)
            trace.append(HamTraceEntry((diff * diff).sum(axis=(-2, -1)),
                                       bases.data.copy(), codes.data.copy()))

    record()
    for _ in range(cfg.iterations):
        bases, codes = _mu_round(z, bases, codes)
        record()
    recon = T.matmul(bases, codes).reshape(b, c, h, w)
    return x + recon


class HamDecoder(Module):
    """Dual-CBAM hamburger head over a four-level feature pyramid."""

    def __init__(self, in_channels: tuple[int, int, int, int], num_classes: int,
                 ham: HamConfig, rng: np.random.Generator, cbam_reduction: int, cbam_kernel: int):
        fused = sum(in_channels)
        self.ham = ham
        self.cbam_pre = CBAM(fused, rng, cbam_reduction, cbam_kernel)
        self.squeeze = Conv2d(fused, ham.context_channels, 1, rng)
        self.cbam_post = CBAM(ham.context_channels, rng, cbam_reduction, cbam_kernel)
        self.classifier = Conv2d(ham.context_channels, num_classes, 1, rng)

    def __call__(self, pyramid: FeaturePyramid) -> Tensor:
        fused = fuse_pyramid(pyramid)
        x, _ = self.cbam_pre(fused)
        x = T.relu(self.squeeze(x))
        x = ham_global_context(x, self.ham)
        x, _ = self.cbam_post(x)
        logits = self.classifier(x)
        return T.bilinear_resize(logits, 4 * logits.shape[2], 4 * logits.shape[3])
