"""Four-stage hierarchical transformer backbone with per-stage CBAM.

Each stage tokenizes its input with an overlapped (kernel > stride) strided
convolution, runs pre-norm transformer blocks whose attention downsamples
keys/values by the stage's reduction ratio, reassembles the token grid into a
feature map and refines it with CBAM.  The refined map is both the stage's
pyramid output and the next stage's input.

The default schedule has channels (32, 64, 160, 256).  The fixed stage geometry
puts every schedule's stages at 1/4 .. 1/32 of the input with key/value reduction
ratios 8/4/2/1; any multiple of 32 leaves each stage's map at least that wide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import tensor as T
from .cbam import CBAM
from .errors import ConfigError, ShapeError
from .nn import Conv2d, LayerNorm, Linear, Module
from .tensor import Tensor


# (kernel, stride, sr_ratio) of each stage: its patch embedding, padded by kernel // 2,
# and its attention's key/value reduction; every MiT variant shares this geometry
STAGE_GEOMETRY = ((7, 4, 8), (3, 2, 4), (3, 2, 2), (3, 2, 1))
FFN_EXPANSION = 4


@dataclass(frozen=True)
class StageConfig:
    channels: int
    depth: int
    heads: int

    def __post_init__(self):
        if min(self.channels, self.depth, self.heads) < 1:
            raise ConfigError(f"invalid stage config {self}")
        if self.channels % self.heads:
            raise ConfigError(f"channels {self.channels} not divisible by heads {self.heads}")


DEFAULT_STAGES = (
    StageConfig(32, 2, 1),
    StageConfig(64, 2, 2),
    StageConfig(160, 2, 5),
    StageConfig(256, 2, 8),
)


class FeaturePyramid(NamedTuple):
    f1: Tensor
    f2: Tensor
    f3: Tensor
    f4: Tensor


def tokens_to_map(tokens: Tensor, h: int, w: int) -> Tensor:
    b, n, c = tokens.shape
    if n != h * w:
        raise ShapeError(f"{n} tokens cannot form a {h}x{w} grid")
    return tokens.transpose(0, 2, 1).reshape(b, c, h, w)


def map_to_tokens(x: Tensor) -> tuple[Tensor, int, int]:
    b, c, h, w = x.shape
    return x.reshape(b, c, h * w).transpose(0, 2, 1), h, w


class OverlapPatchEmbed(Module):
    def __init__(self, in_channels: int, channels: int, kernel: int, stride: int,
                 rng: np.random.Generator):
        self.conv = Conv2d(in_channels, channels, kernel, rng, stride=stride, padding=kernel // 2)
        self.norm = LayerNorm(channels)

    def __call__(self, x: Tensor) -> tuple[Tensor, int, int]:
        tokens, h, w = map_to_tokens(self.conv(x))
        return self.norm(tokens), h, w


class EfficientSelfAttention(Module):
    """Scaled dot-product attention with spatially reduced keys/values."""

    def __init__(self, channels: int, heads: int, sr_ratio: int, rng: np.random.Generator):
        self.heads = heads
        self.head_dim = channels // heads
        self.scale = 1.0 / math.sqrt(self.head_dim)
        self.sr_ratio = sr_ratio
        self.q = Linear(channels, channels, rng)
        self.k = Linear(channels, channels, rng)
        self.v = Linear(channels, channels, rng)
        self.proj = Linear(channels, channels, rng)
        if sr_ratio > 1:
            self.sr = Conv2d(channels, channels, sr_ratio, rng, stride=sr_ratio)
            self.sr_norm = LayerNorm(channels)

    def _split_heads(self, t: Tensor) -> Tensor:
        b, n, c = t.shape
        return t.reshape(b, n, self.heads, self.head_dim).transpose(0, 2, 1, 3)

    def __call__(self, tokens: Tensor, h: int, w: int) -> Tensor:
        b, n, c = tokens.shape
        if n != h * w:
            raise ShapeError(f"token count {n} does not match {h}x{w}")
        q = self._split_heads(self.q(tokens))
        kv_src = tokens
        if self.sr_ratio > 1:
            reduced = self.sr(tokens_to_map(tokens, h, w))
            kv_src, _, _ = map_to_tokens(reduced)
            kv_src = self.sr_norm(kv_src)
        k = self._split_heads(self.k(kv_src))
        v = self._split_heads(self.v(kv_src))
        attn = T.softmax(T.matmul(q, k.transpose(0, 1, 3, 2)), axis=-1, scale=self.scale)
        out = T.matmul(attn, v).transpose(0, 2, 1, 3).reshape(b, n, c)
        return self.proj(out)


class MixFFN(Module):
    """Feed-forward block with an interior depthwise 3x3 convolution."""

    def __init__(self, channels: int, rng: np.random.Generator):
        hidden = channels * FFN_EXPANSION
        self.fc1 = Linear(channels, hidden, rng)
        self.dw = Conv2d(hidden, hidden, 3, rng, padding=1, groups=hidden)
        self.fc2 = Linear(hidden, channels, rng)

    def __call__(self, tokens: Tensor, h: int, w: int) -> Tensor:
        x = self.fc1(tokens)
        x, _, _ = map_to_tokens(self.dw(tokens_to_map(x, h, w)))
        return self.fc2(T.gelu(x))


class TransformerBlock(Module):
    def __init__(self, cfg: StageConfig, sr_ratio: int, rng: np.random.Generator):
        self.norm1 = LayerNorm(cfg.channels)
        self.attn = EfficientSelfAttention(cfg.channels, cfg.heads, sr_ratio, rng)
        self.norm2 = LayerNorm(cfg.channels)
        self.ffn = MixFFN(cfg.channels, rng)

    def __call__(self, tokens: Tensor, h: int, w: int) -> Tensor:
        tokens = tokens + self.attn(self.norm1(tokens), h, w)
        return tokens + self.ffn(self.norm2(tokens), h, w)


class Stage(Module):
    def __init__(self, in_channels: int, cfg: StageConfig, geometry: tuple[int, int, int],
                 rng: np.random.Generator, cbam_reduction: int, cbam_kernel: int):
        kernel, stride, sr_ratio = geometry
        self.embed = OverlapPatchEmbed(in_channels, cfg.channels, kernel, stride, rng)
        self.blocks = [TransformerBlock(cfg, sr_ratio, rng) for _ in range(cfg.depth)]
        self.norm = LayerNorm(cfg.channels)
        self.cbam = CBAM(cfg.channels, rng, cbam_reduction, cbam_kernel)

    def __call__(self, x: Tensor) -> Tensor:
        tokens, h, w = self.embed(x)
        for block in self.blocks:
            tokens = block(tokens, h, w)
        refined, _ = self.cbam(tokens_to_map(self.norm(tokens), h, w))
        return refined


class MitEncoder(Module):
    def __init__(self, stages: Sequence[StageConfig], rng: np.random.Generator,
                 cbam_reduction: int, cbam_kernel: int):
        if len(stages) != 4:
            raise ConfigError(f"encoder needs exactly 4 stages, got {len(stages)}")
        in_channels = (3,) + tuple(s.channels for s in stages[:3])  # RGB, then each stage's
        self.stages = [Stage(cin, cfg, geometry, rng, cbam_reduction, cbam_kernel)
                       for cin, cfg, geometry in zip(in_channels, stages, STAGE_GEOMETRY)]

    def __call__(self, image: Tensor) -> FeaturePyramid:
        if image.ndim != 4 or image.shape[1] != 3:
            raise ShapeError(f"expected [B,C,H,W] image, got {image.shape}")
        if image.shape[2] % 32 or image.shape[3] % 32:
            raise ShapeError(f"input spatial dims must be divisible by 32, got {image.shape}")
        feats = []
        x = image
        for stage in self.stages:
            x = stage(x)
            feats.append(x)
        return FeaturePyramid(*feats)
