"""Sequential channel-then-spatial attention gates.

The block computes a per-channel gate from globally pooled descriptors pushed
through a shared bottleneck MLP, rescales the input, then computes a
per-pixel gate from channel-pooled descriptors via a single k x k
convolution.  Both gates are sigmoids, so the output is always an
elementwise attenuation of the input.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .nn import Conv2d, Module
from .tensor import Tensor


class AttentionMaps(NamedTuple):
    channel: Tensor  # [B, C, 1, 1], entries in (0, 1)
    spatial: Tensor  # [B, 1, H, W], entries in (0, 1)


class CBAM(Module):
    """Channel and spatial attention applied multiplicatively, in that order.

    The bottleneck MLP has no biases and is shared between the avg- and
    max-pooled paths; the spatial convolution has no bias, so zero weights
    leave both gates at the neutral 0.5.  ``hidden = max(1, C // reduction)``
    keeps tiny channel counts usable.
    """

    def __init__(self, channels: int, rng: np.random.Generator,
                 reduction: int = 16, kernel: int = 7):
        if kernel % 2 != 1 or kernel < 1:
            raise ConfigError(f"spatial kernel must be odd and positive, got {kernel}")
        if reduction < 1:
            raise ConfigError(f"reduction ratio must be >= 1, got {reduction}")
        self.channels = channels
        hidden = max(1, channels // reduction)
        self.w1 = Tensor.trunc_normal((channels, hidden), rng, requires_grad=True)
        self.w2 = Tensor.trunc_normal((hidden, channels), rng, requires_grad=True)
        self.conv = Conv2d(2, 1, kernel, rng, padding=(kernel - 1) // 2, bias=False)

    def _mlp(self, v: Tensor) -> Tensor:
        return T.matmul(T.relu(T.matmul(v, self.w1)), self.w2)

    def channel_attention(self, f: Tensor) -> Tensor:
        """Gate [B,C,1,1] = sigmoid(MLP(avgpool(f)) + MLP(maxpool(f)))."""
        if f.ndim != 4 or f.shape[1] != self.channels:
            raise ShapeError(f"expected [B,{self.channels},H,W], got {f.shape}")
        b = f.shape[0]
        avg = T.pool2d(f, "avg").reshape(b, self.channels)
        mx = T.pool2d(f, "max").reshape(b, self.channels)
        logits = self._mlp(avg) + self._mlp(mx)
        return T.sigmoid(logits).reshape(b, self.channels, 1, 1)

    def spatial_attention(self, f_prime: Tensor) -> Tensor:
        """Gate [B,1,H,W] from channel-pooled avg/max descriptors."""
        if f_prime.ndim != 4:
            raise ShapeError(f"expected [B,C,H,W], got {f_prime.shape}")
        pooled = T.concat([T.reduce_channel(f_prime, "avg"),
                           T.reduce_channel(f_prime, "max")], axis=1)
        return T.sigmoid(self.conv(pooled))

    def __call__(self, f: Tensor) -> tuple[Tensor, AttentionMaps]:
        m_c = self.channel_attention(f)
        f_prime = f * m_c
        m_s = self.spatial_attention(f_prime)
        return f_prime * m_s, AttentionMaps(channel=m_c, spatial=m_s)
