"""Dense float64 tensors with reverse-mode automatic differentiation.

Every value flowing through the model is a ``Tensor`` wrapping a C-ordered
float64 numpy array.  Operations record parent links and a backward closure;
``Tensor.backward()`` topologically sorts the implicit graph and visits each
node exactly once, accumulating gradients into ``.grad`` buffers.

Conventions fixed here (and relied on by the tests):

* conv2d is cross-correlation (no kernel flip) with zero padding,
* bilinear_resize samples half-pixel centers (align_corners=False),
* gelu uses the tanh approximation,
* softmax subtracts the per-axis max before exponentiating.

conv2d lowers every kernel through one strided window view of its input, which
the GEMM operand's reshape copies once; a pointwise conv reads ``x`` in place.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractError, ShapeError

_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables graph recording (inference mode)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def _check_shape(shape: Sequence[int]) -> tuple[int, ...]:
    shape = tuple(int(d) for d in shape)
    if not shape:
        raise ShapeError("shape must be non-empty")
    if any(d < 1 for d in shape):
        raise ShapeError(f"all dimensions must be >= 1, got {shape}")
    return shape


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False, _parents: tuple = (), _op: str = ""):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = None
        self._op = _op

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def zeros(cls, shape: Sequence[int], requires_grad: bool = False) -> "Tensor":
        return cls(np.zeros(_check_shape(shape)), requires_grad)

    @classmethod
    def full(cls, shape: Sequence[int], value: float, requires_grad: bool = False) -> "Tensor":
        return cls(np.full(_check_shape(shape), float(value)), requires_grad)

    @classmethod
    def trunc_normal(cls, shape: Sequence[int], rng: np.random.Generator,
                     requires_grad: bool = False) -> "Tensor":
        # Standard normal with resampling of the ~4.6% of draws beyond 2 std,
        # scaled to std 0.02.  The redraw sequence is a pure function of the
        # generator's state, so construction stays bit-reproducible.
        x = rng.standard_normal(_check_shape(shape))
        bad = np.abs(x) > 2.0
        while bad.any():
            x[bad] = rng.standard_normal(int(bad.sum()))
            bad = np.abs(x) > 2.0
        return cls(x * 0.02, requires_grad)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag}, op={self._op!r})"

    # ------------------------------------------------------------------
    # autodiff plumbing
    # ------------------------------------------------------------------

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded graph."""
        if self.data.size != 1:
            raise ContractError(f"backward() requires a scalar loss, got shape {self.shape}")
        order: list[Tensor] = []
        seen = {id(self)}
        stack: list[tuple[Tensor, int]] = [(self, 0)]
        while stack:  # iterative DFS; deep graphs would blow the recursion limit
            node, pi = stack[-1]
            if pi < len(node._parents):
                stack[-1] = (node, pi + 1)
                parent = node._parents[pi]
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append((parent, 0))
            else:
                stack.pop()
                order.append(node)
        self._accumulate(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # operators -----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        return reshape(self, *shape)

    def transpose(self, *axes):
        return transpose(self, *axes)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis, keepdims)


def _wrap(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))


def _make(data: np.ndarray, parents: Iterable[Tensor], op: str, backward) -> Tensor:
    """Assemble an op result, recording the graph only when needed."""
    parents = tuple(p for p in parents if isinstance(p, Tensor))
    needs = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=needs, _parents=parents if needs else (), _op=op)
    if needs:
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


# ----------------------------------------------------------------------
# elementwise and linear algebra
# ----------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _make(data, (a, b), "add", backward)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _make(data, (a, b), "mul", backward)


def div(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _make(data, (a, b), "div", backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy-style broadcasting over leading axes."""
    a, b = _wrap(a), _wrap(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul operands must have at least 2 dimensions")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return _make(data, (a, b), "matmul", backward)


def reshape(x: Tensor, *shape) -> Tensor:
    old = x.shape
    data = x.data.reshape(shape)

    def backward(g):
        x._accumulate(g.reshape(old))

    return _make(data, (x,), "reshape", backward)


def transpose(x: Tensor, *axes) -> Tensor:
    inverse = np.argsort(axes)
    data = x.data.transpose(axes)

    def backward(g):
        x._accumulate(g.transpose(inverse))

    return _make(data, (x,), "transpose", backward)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, sizes, axis=axis)):
            if t.requires_grad:
                t._accumulate(piece)

    return _make(data, tensors, "concat", backward)


def reduce_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            axes = (axis,) if isinstance(axis, int) else axis
            g = np.expand_dims(g, axes)
        x._accumulate(np.broadcast_to(g, x.shape).copy())

    return _make(data, (x,), "sum", backward)


def reduce_mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    return _mean(x, axis, keepdims, "mean")


def _mean(x: Tensor, axis, keepdims: bool, op: str) -> Tensor:
    """Mean over ``axis`` (every axis when None); the gradient spreads evenly."""
    data = x.data.mean(axis=axis, keepdims=keepdims)
    count = x.size // data.size

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        x._accumulate(np.broadcast_to(g / count, x.shape).copy())

    return _make(data, (x,), op, backward)


def log(x: Tensor) -> Tensor:
    data = np.log(x.data)

    def backward(g):
        x._accumulate(g / x.data)

    return _make(data, (x,), "log", backward)


def exp(x: Tensor) -> Tensor:
    data = np.exp(x.data)

    def backward(g):
        x._accumulate(g * data)

    return _make(data, (x,), "exp", backward)


# ----------------------------------------------------------------------
# activations and normalization
# ----------------------------------------------------------------------

def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0.0)

    def backward(g):
        x._accumulate(g * (x.data > 0.0))

    return _make(data, (x,), "relu", backward)


def sigmoid(x: Tensor) -> Tensor:
    # Split by sign to avoid exp overflow on large |x|.
    d = x.data
    e = np.exp(-np.abs(d))
    data = np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def backward(g):
        x._accumulate(g * data * (1.0 - data))

    return _make(data, (x,), "sigmoid", backward)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: Tensor) -> Tensor:
    """Tanh-approximate GELU: 0.5*x*(1 + tanh(c*(x + 0.044715*x^3)))."""
    d = x.data
    # c*(d + 0.044715*d^3) as ((d*d)*0.044715 + 1)*d*c in one buffer: a
    # generic float ``d ** 3`` is an order of magnitude slower than products.
    t = d * d
    t *= 0.044715
    t += 1.0
    t *= d
    t *= _GELU_C
    np.tanh(t, out=t)
    data = t + 1.0
    data *= d
    data *= 0.5

    def backward(g):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * d * d)
        x._accumulate(g * (0.5 * (1.0 + t) + 0.5 * d * (1.0 - t * t) * dinner))

    return _make(data, (x,), "gelu", backward)


def softmax(x: Tensor, axis: int) -> Tensor:
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {x.shape}")
    data = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(data, out=data)
    data /= data.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        x._accumulate(data * (g - dot))

    return _make(data, (x,), "softmax", backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (eps 1e-6), then affine."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm affine params must have shape ({d},)")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-6)
    xhat = (x.data - mu) * inv
    data = gamma.data * xhat + beta.data

    def backward(g):
        if beta.requires_grad:
            beta._accumulate(g.reshape(-1, d).sum(axis=0))
        if gamma.requires_grad:
            gamma._accumulate((g * xhat).reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            dxhat = g * gamma.data
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            x._accumulate(inv * (dxhat - m1 - xhat * m2))

    return _make(data, (x, gamma, beta), "layer_norm", backward)


# ----------------------------------------------------------------------
# convolution and pooling
# ----------------------------------------------------------------------

def _conv_out(size: int, k: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - k) // stride + 1
    if out < 1:
        raise ShapeError(f"window {k} with stride {stride}, padding {padding} "
                         f"does not fit input extent {size}")
    return out


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int):
    """Every conv window of ``x`` as a strided view of shape (B, C, kh, kw, OH, OW)."""
    oh = _conv_out(x.shape[2], kh, stride, padding)
    ow = _conv_out(x.shape[3], kw, stride, padding)
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, :stride * oh:stride, :stride * ow:stride]
    return windows.transpose(0, 1, 4, 5, 2, 3), oh, ow


def _col2im(cols: np.ndarray, shape, stride: int, padding: int) -> np.ndarray:
    b, c, h, w = shape
    _, _, kh, kw, oh, ow = cols.shape
    xp = np.zeros((b, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += cols[:, :, i, j]
    return xp[:, :, padding:padding + h, padding:padding + w]


def conv2d(x: Tensor, w: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0, groups: int = 1) -> Tensor:
    """Grouped 2D cross-correlation with zero padding."""
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError("conv2d expects x[B,C,H,W] and w[Cout,Cin/groups,kh,kw]")
    b, cin, _, _ = x.shape
    cout, cin_g, kh, kw = w.shape
    if cin % groups or cout % groups:
        raise ShapeError(f"channels ({cin} in, {cout} out) not divisible by groups={groups}")
    if cin_g != cin // groups:
        raise ShapeError(f"weight expects {cin_g * groups} input channels, got {cin}")
    if bias is not None and bias.shape != (cout,):
        raise ShapeError(f"bias must have shape ({cout},)")

    cols, oh, ow = _im2col(x.data, kh, kw, stride, padding)
    # (B, G, Cg*kh*kw, OH*OW) x (G, Cout/G, Cg*kh*kw) -> (B, G, Cout/G, OH*OW). On a
    # one-column map the reshape can stay a strided view, which matmul would sum
    # outside BLAS to other bits, so it is copied C-ordered like the rest.
    cols_g = np.ascontiguousarray(cols.reshape(b, groups, cin_g * kh * kw, oh * ow))
    w_g = w.data.reshape(groups, cout // groups, cin_g * kh * kw)
    out = np.matmul(w_g, cols_g).reshape(b, cout, oh, ow)
    if bias is not None:
        out += bias.data.reshape(1, cout, 1, 1)

    def backward(g):
        gg = g.reshape(b, groups, cout // groups, oh * ow)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2, 3)))
        if w.requires_grad:
            dw = np.matmul(gg, np.swapaxes(cols_g, -1, -2)).sum(axis=0)
            w._accumulate(dw.reshape(w.shape))
        if x.requires_grad:
            dcols = np.matmul(np.swapaxes(w_g, -1, -2), gg)
            dcols = dcols.reshape(b, cin, kh, kw, oh, ow)
            x._accumulate(_col2im(dcols, x.shape, stride, padding))

    parents = (x, w) if bias is None else (x, w, bias)
    return _make(out, parents, "conv2d", backward)


def _avg_or_max(x: Tensor, kind: str, axis, op: str) -> Tensor:
    """Mean or max over ``axis``, kept as size 1; a max gradient splits evenly among ties."""
    if kind == "avg":
        return _mean(x, axis, True, op)
    data = x.data.max(axis=axis, keepdims=True)

    def backward(g):
        mask = (x.data == data)
        x._accumulate(g * mask / mask.sum(axis=axis, keepdims=True))

    return _make(data, (x,), op, backward)


def pool2d(x: Tensor, kind: str) -> Tensor:
    """Global average or max pooling to B,C,1,1."""
    if kind not in ("avg", "max"):
        raise ContractError(f"unknown pool kind {kind!r}")
    if x.ndim != 4:
        raise ShapeError("pool2d expects x[B,C,H,W]")
    return _avg_or_max(x, kind, (2, 3), f"pool_{kind}_global")


def reduce_channel(x: Tensor, kind: str) -> Tensor:
    """Per-pixel reduction across the channel axis to B,1,H,W."""
    if kind not in ("avg", "max"):
        raise ContractError(f"unknown reduce kind {kind!r}")
    if x.ndim != 4:
        raise ShapeError("reduce_channel expects x[B,C,H,W]")
    return _avg_or_max(x, kind, 1, f"reduce_{kind}")


def _resize_weights(n_in: int, n_out: int) -> np.ndarray:
    """Dense (n_out, n_in) bilinear weights under half-pixel-center sampling."""
    w = np.zeros((n_out, n_in))
    rows = np.arange(n_out)
    src = (rows + 0.5) * (n_in / n_out) - 0.5
    i0 = np.floor(src)
    frac = src - i0
    i0 = i0.astype(np.int64)
    # where both taps clip to one edge pixel, its weight sums (1 - frac) + frac
    np.add.at(w, (rows, np.clip(i0, 0, n_in - 1)), 1.0 - frac)
    np.add.at(w, (rows, np.clip(i0 + 1, 0, n_in - 1)), frac)
    return w


def _bilinear(x: np.ndarray, out_h: int, out_w: int):
    """Bilinear resize of the last two axes; also returns the row and column weights."""
    h, w = x.shape[-2:]
    wr, wc = _resize_weights(h, out_h), _resize_weights(w, out_w)
    return wr @ x @ wc.T, wr, wc


def bilinear_resize(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Differentiable bilinear resize with half-pixel centers."""
    if x.ndim != 4:
        raise ShapeError("bilinear_resize expects x[B,C,H,W]")
    if out_h < 1 or out_w < 1:
        raise ShapeError("output size must be >= 1")
    data, wr, wc = _bilinear(x.data, out_h, out_w)

    def backward(g):
        x._accumulate(wr.T @ g @ wc)

    return _make(data, (x,), "bilinear_resize", backward)


# ----------------------------------------------------------------------
# loss
# ----------------------------------------------------------------------

def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between softmax(logits) and integer labels.

    Classes lie on axis 1; ``labels`` has the logits' shape without it.  The
    mean runs over every remaining element (batch and spatial positions alike).
    """
    labels = np.asarray(labels)
    if labels.shape != logits.shape[:1] + logits.shape[2:]:
        raise ShapeError(f"labels shape {labels.shape} does not match logits {logits.shape}")
    n_cls = logits.shape[1]
    if labels.min() < 0 or labels.max() >= n_cls:
        raise ContractError(f"labels must lie in [0, {n_cls})")

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    onehot = np.moveaxis(np.eye(n_cls)[labels.astype(np.int64)], -1, 1)
    n = labels.size
    data = -(onehot * logp).sum() / n

    def backward(g):
        p = np.exp(logp)
        logits._accumulate(g * (p - onehot) / n)

    return _make(np.asarray(data), (logits,), "softmax_cross_entropy", backward)
