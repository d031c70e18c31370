"""Minimal layer containers over the tensor core.

``Module`` keeps no registry of its own: ``named_parameters`` scans the
instance attributes in assignment order, first the requires-grad tensors,
then the submodules and lists or tuples of submodules (item ``i`` of ``name``
is prefixed ``name.i.``), skipping ``_``-prefixed names.  That gives every
model a stable, named parameter table — the basis for checkpointing, the
optimizer and the profiler.  Layers draw their initial weights from an
explicitly passed ``numpy.random.Generator`` so that model construction is a
pure function of the seed.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import tensor as T
from .tensor import Tensor


class Module:
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        public = [(name, v) for name, v in vars(self).items() if not name.startswith("_")]
        for name, v in public:
            if isinstance(v, Tensor) and v.requires_grad:
                yield prefix + name, v
        for name, v in public:
            if isinstance(v, Module):
                yield from v.named_parameters(prefix + name + ".")
            elif isinstance(v, (list, tuple)) and all(isinstance(m, Module) for m in v):
                for i, m in enumerate(v):
                    yield from m.named_parameters(f"{prefix}{name}.{i}.")

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())


class Linear(Module):
    """y = x @ W + b with W stored (in_features, out_features)."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        self.weight = Tensor.trunc_normal((in_features, out_features), rng, requires_grad=True)
        self.bias = Tensor.zeros((out_features,), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.matmul(x, self.weight) + self.bias


class Conv2d(Module):
    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 rng: np.random.Generator, stride: int = 1, padding: int = 0,
                 groups: int = 1, bias: bool = True):
        self.stride = stride
        self.padding = padding
        self.groups = groups
        self.weight = Tensor.trunc_normal(
            (out_channels, in_channels // groups, kernel, kernel), rng, requires_grad=True)
        self.bias = Tensor.zeros((out_channels,), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv2d(x, self.weight, self.bias,
                        stride=self.stride, padding=self.padding, groups=self.groups)


class LayerNorm(Module):
    def __init__(self, dim: int):
        self.gamma = Tensor.full((dim,), 1.0, requires_grad=True)
        self.beta = Tensor.zeros((dim,), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gamma, self.beta)
