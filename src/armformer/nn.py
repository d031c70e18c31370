"""Minimal layer containers over the tensor core.

``Module`` tracks parameters and submodules in attribute-assignment order,
which gives every model a stable, named parameter registry — the basis for
checkpointing, the optimizer and the profiler.  Layers draw their initial
weights from an explicitly passed ``numpy.random.Generator`` so that model
construction is a pure function of the seed.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import tensor as T
from .tensor import Tensor


class Module:
    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_modules", {})

    def __setattr__(self, name, value):
        if name.startswith("_"):
            object.__setattr__(self, name, value)
            return
        if isinstance(value, Tensor) and value.requires_grad:
            self._params[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        elif isinstance(value, (list, tuple)) and value and all(
                isinstance(v, Module) for v in value):
            value = ModuleList(value)
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, p in self._params.items():
            yield prefix + name, p
        for name, m in self._modules.items():
            yield from m.named_parameters(prefix + name + ".")

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()


class ModuleList(Module):
    def __init__(self, modules):
        super().__init__()
        self._items = list(modules)
        for i, m in enumerate(self._items):
            self._modules[str(i)] = m

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, i):
        return self._items[i]


class Linear(Module):
    """y = x @ W + b with W stored (in_features, out_features)."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        super().__init__()
        self.weight = Tensor.trunc_normal((in_features, out_features), rng, requires_grad=True)
        self.bias = Tensor.zeros((out_features,), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.matmul(x, self.weight) + self.bias


class Conv2d(Module):
    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 rng: np.random.Generator, stride: int = 1, padding: int = 0,
                 groups: int = 1, bias: bool = True):
        super().__init__()
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
        super().__init__()
        self.gamma = Tensor.full((dim,), 1.0, requires_grad=True)
        self.beta = Tensor.zeros((dim,), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gamma, self.beta)
