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

conv2d lowers every kernel through one strided window view of its input.  One
planner, ``_cut``, makes every list of slices.  The multi-pass kernels (conv2d's
window copy and GEMM, softmax, layer_norm, gelu, the transpose copy) work through
their operands in cache-sized tiles of rows (``_tiles``); a pointwise conv reads
``x`` in place, one GEMM per slab of rows, a slab per worker.  The single-pass
forward ops run one share per worker (``_split``): add, mul, div, relu, concat and
the reductions along the result's first axis with an entry per worker (for concat,
other than the one it joins; pool2d's channels and reduce_channel's map rows at
batch 1); matmul by batch/head axis, else by rows; bilinear_resize's two products by
images or channels; conv2d's zero padding by channels.  conv2d's input gradient runs
one slice of images per worker.  An op stays whole where its largest numpy call
would move less than ``_SHARE_BYTES`` per worker (a reduction, four times that).
Where BLAS runs one thread, all of these run on up to ``TILE_WORKERS`` threads.
``run_whole`` runs several tasks at once on those threads (``model.train_step``
runs the forward, loss and backward of each half of a batch as one task).  Inside
a task every op runs whole on the task's thread, its tiles in order, and hands
nothing to the pool, so a task's bits do not depend on ``TILE_WORKERS``.
Elementwise, reduction, concat, batch and tile cuts keep every bit at any size; row
and column cuts of a GEMM with K > 384 (matmul's row shares, conv2d's slabs) are
checked only on the default model's products at 640 and on the resize cases.
Backward recomputes what it needs from an op's operands (layer_norm keeps a mean and
scale per row); only conv2d keeps an intermediate, its window copy, while recording.
A node's first gradient is copied into a buffer of its own, and an interior node's
is freed once its backward has run.  ``Tensor.sum()`` and ``Tensor.mean()`` reduce
every element.
"""

from __future__ import annotations

import math
import os
import threading
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractError, ShapeError

_GRAD_ENABLED = True
# Bytes of operand one tile of a multi-pass kernel covers: under a core's L2, so
# each pass after the first over a tile reads cache rather than memory.
_TILE_BYTES = 1 << 20
# Most threads the tiles of one kernel run on; a constant, so that no host and no
# input can ask for more.
_MAX_WORKERS = 4
# Fewest bytes the largest numpy call in a worker's share of a split op must read
# and write.  Handing a share to the pool and back costs 0.1-0.15 ms on a 2-vCPU
# host (the interpreter lock changes threads several times); a share of 0.75 MB
# of an add, or 0.5 MB of a matmul, ran slower split than whole, and one of
# 1.5 MB or 1 MB faster.  A share of many small calls gains less: CBAM's 7x7
# input gradient, 49 adds of 64 KB per share, ran 3.4 ms whole and 4.5 ms split.
_SHARE_BYTES = 1 << 20


class _Whole(threading.local):
    """Per thread: whether ops run whole on it (inside a ``run_whole`` task)."""

    on = False


_whole = _Whole()


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
            # copied, so no .grad is a view of an operand or of another gradient
            self.grad = np.empty_like(self.data)
            np.copyto(self.grad, g)
        else:
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
                # spent: freed now, and a second backward() starts from nothing here
                node.grad = None

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

    def sum(self):
        return reduce_sum(self)

    def mean(self):
        return reduce_mean(self)


def _wrap(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))


def _records(parents: Iterable) -> bool:
    """Whether an op on ``parents`` records a graph node (and conv2d keeps its windows)."""
    return _GRAD_ENABLED and any(isinstance(p, Tensor) and p.requires_grad for p in parents)


def _make(data: np.ndarray, parents: Iterable[Tensor], op: str, backward) -> Tensor:
    """Assemble an op result, recording the graph only when needed."""
    parents = tuple(p for p in parents if isinstance(p, Tensor))
    needs = _records(parents)
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


def _tile_workers() -> int:
    """Threads the tiled kernels run on: one per CPU this process may use, at most
    ``_MAX_WORKERS``, where BLAS runs one thread; else one.

    BLAS's thread count is the one OpenBLAS takes from the environment as it
    loads: the first positive of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and
    OMP_NUM_THREADS, else one per CPU.  With BLAS threads on the other cores, tile
    threads ran the 640 forward 2-9% slower on a 2-core host.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            blas = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if blas > 0:
            return max(1, min(cpus, _MAX_WORKERS)) if blas == 1 else 1
    return 1  # BLAS takes a thread per CPU


TILE_WORKERS = _tile_workers()
_pool = None  # the ThreadPoolExecutor behind the workers, made on first use
_pool_lock = threading.Lock()


def _executor():
    global _pool
    with _pool_lock:
        if _pool is None:
            # imported here, so that importing the package starts nothing
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(max(1, TILE_WORKERS - 1), "armformer-tiles")
        return _pool


def _run_tiles(tiles: list, body, scratch=None) -> None:
    """Call ``body(tile, buf)`` for every tile, one contiguous group of tiles per worker.

    The calling thread runs the first group, then every group the pool has not
    started by then; the pool runs the others.  There are up to ``TILE_WORKERS``
    groups in all.  Each group's ``buf`` is a fresh ``scratch()`` (or None),
    allocated in the calling thread, so no worker thread's malloc arena keeps it.
    Bodies call numpy only, except ``run_whole``'s tasks, which call ops of this
    module: on a task's thread every op keeps its tiles in one group on that
    thread, so nothing nested reaches the pool.  Every group finishes before this
    returns or raises the error of the first group that failed.
    """
    if not tiles:
        return
    n = min(len(tiles), _width())
    groups = [tiles[len(tiles) * g // n:len(tiles) * (g + 1) // n] for g in range(n)]
    bufs = [scratch() if scratch else None for _ in groups]

    def run(group, buf):  # returns the error that stopped the group, if any
        try:
            for tile in group:
                body(tile, buf)
        except Exception as error:
            return error
        return None

    futures = [_executor().submit(run, group, buf) for group, buf in zip(groups[1:], bufs[1:])]
    errors = [None] * n
    try:
        for g, future in enumerate([None] + futures):
            if future is None or future.cancel():  # not started by the pool: run it here
                errors[g] = run(groups[g], bufs[g])
    finally:
        for g, future in enumerate(futures, 1):
            if not future.cancelled():
                errors[g] = future.result()  # waits for the group
    for error in errors:
        if error is not None:
            raise error


def run_whole(tasks: Sequence[Callable[[], object]]) -> list:
    """Call every task, as many at once as there are tile workers, and return their
    results in order, or raise the error of the first task that failed once every
    task has finished.  The calling thread runs the first task.  Each task's ops run
    whole on its own thread (``_width``)."""
    results = [None] * len(tasks)

    def task(i, _):
        was, _whole.on = _whole.on, True
        try:
            results[i] = tasks[i]()
        finally:
            _whole.on = was

    _run_tiles(list(range(len(tasks))), task)
    return results


def _width() -> int:
    """Workers an op on this thread may use: ``TILE_WORKERS``, or one in a ``run_whole``
    task."""
    return 1 if _whole.on else TILE_WORKERS


def _cut(n: int, pieces: int, align: int = 1) -> list[slice]:
    """``n`` rows cut into at most ``pieces`` slices of one height, ``n / pieces``
    rounded up to a multiple of ``align``; the last slice may be shorter.  No rows
    make no slices."""
    if not n:
        return []
    step = -(-n // pieces // align) * align
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def _workers(n: int, nbytes: int) -> int:
    """Shares to cut ``n`` entries into: one per worker, or fewer, down to one, where a
    worker's share of the ``nbytes`` the work moves would fall below ``_SHARE_BYTES``."""
    return max(1, min(n, _width(), nbytes // _SHARE_BYTES))


def _tiles(n: int, row_bytes: int, align: int = 1, budget: int | None = None) -> list[slice]:
    """``n`` rows of ``row_bytes`` each, cut into tiles of at most ``budget`` bytes,
    ``_TILE_BYTES`` by default: every tile but the last holds the rows that fit, rounded
    down to a multiple of ``align`` but at least ``align``; one tile if all fit."""
    return _cut(n, n, max(align, (budget or _TILE_BYTES) // row_bytes // align * align))


def _split(out: np.ndarray, nbytes: int, fill, *operands: np.ndarray, axis: int | None = None,
           skip: int | None = None) -> np.ndarray:
    """Call ``fill(part, *operand_parts)`` once per share (``_workers`` of ``nbytes``) of
    ``axis``, by default ``out``'s first axis other than ``skip`` with an entry per
    worker; return ``out``.  An operand broadcast into ``out`` that does not span that
    axis (a bias, a per-channel or spatial gate) is passed whole."""
    if axis is None:
        axis = next((i for i, d in enumerate(out.shape) if d >= _width() and i != skip), None)
    pieces = 1 if axis is None else _workers(out.shape[axis], nbytes)
    if pieces == 1:
        fill(out, *operands)
        return out

    def part(x, sl):  # x's entries in slice ``sl`` of ``axis``
        ax = axis - (out.ndim - x.ndim)
        return x if ax < 0 or x.shape[ax] == 1 else x[(slice(None),) * ax + (sl,)]

    _run_tiles(_cut(out.shape[axis], pieces),
               lambda sl, _: fill(part(out, sl), *(part(x, sl) for x in operands)))
    return out


def _elementwise(ufunc, *operands: np.ndarray) -> np.ndarray:
    """``ufunc`` over broadcast operands into a new array, split by ``_split``."""
    out = np.empty(np.broadcast_shapes(*(o.shape for o in operands)))
    return _split(out, out.nbytes + sum(o.nbytes for o in operands),
                  lambda part, *ops: ufunc(*ops, out=part), *operands)


# ----------------------------------------------------------------------
# elementwise and linear algebra
# ----------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = _elementwise(np.add, a.data, b.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _make(data, (a, b), "add", backward)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = _elementwise(np.multiply, a.data, b.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _make(data, (a, b), "mul", backward)


def div(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = _elementwise(np.divide, a.data, b.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _make(data, (a, b), "div", backward)


def _matmul(a: np.ndarray, b: np.ndarray, rows: bool = True) -> np.ndarray:
    """``a @ b`` one share per worker: of the first broadcast batch axis with an entry
    per worker, else of ``a``'s rows, cut by ``_cut`` at a multiple of 16, unless
    ``rows`` is False.

    Each matrix of a batch is a GEMM of its own, so a batch split keeps every
    bit.  OpenBLAS picks the kernel that sums a row by where the row falls in
    its blocking.  Row shares of 16 to 96 rows, and a short last share, changed
    bits at K=400.  One share per worker, cut at a multiple of 16 rows, kept
    every row's bits those of one whole GEMM on every product of the default
    model at 640, at 2, 3 and 4 workers, but not on every shape: a
    single-channel resize from 333x517 to 640x640 changed bits at 2 workers.
    So a resize never splits rows.  (``_split`` cannot cut rows: it would cut
    ``b``'s second-to-last axis, which is K.)
    """
    m = a.shape[-2]
    out = np.empty(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (m, b.shape[-1]))
    nbytes = a.nbytes + b.nbytes + out.nbytes
    axis = next((i for i, d in enumerate(out.shape[:-2]) if d >= _width()), None)
    if axis is not None:
        return _split(out, nbytes, lambda part, a, b: np.matmul(a, b, out=part), a, b, axis=axis)
    pieces = _workers(m, nbytes) if rows else 1
    if pieces == 1:
        return np.matmul(a, b, out=out)

    def share(sl, _):
        np.matmul(a[..., sl, :], b, out=out[..., sl, :])

    _run_tiles(_cut(m, pieces, 16), share)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy-style broadcasting over leading axes."""
    a, b = _wrap(a), _wrap(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul operands must have at least 2 dimensions")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    data = _matmul(a.data, b.data)

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
    if not data.flags.c_contiguous:
        # copied in slabs along the output's longest axis, so the strided side
        # of the copy stays in cache
        view, data = data, np.empty(data.shape)
        axis = int(np.argmax(data.shape))
        at = (slice(None),) * axis

        def copy(sl, _):
            data[at + (sl,)] = view[at + (sl,)]

        _run_tiles(_tiles(data.shape[axis], data.nbytes // data.shape[axis]), copy)

    def backward(g):
        x._accumulate(g.transpose(inverse))

    return _make(data, (x,), "transpose", backward)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    """Join along ``axis``, split by ``_split`` on another axis."""
    tensors = [_wrap(t) for t in tensors]
    parts = [t.data for t in tensors]
    ndim = parts[0].ndim
    if not -ndim <= axis < ndim:
        raise ShapeError(f"concat axis {axis} invalid for shape {parts[0].shape}")
    axis %= ndim
    if len({p.shape[:axis] + p.shape[axis + 1:] for p in parts}) > 1:
        raise ShapeError(f"concat shapes disagree off axis {axis}: {[p.shape for p in parts]}")
    sizes = np.cumsum([p.shape[axis] for p in parts])
    shape = parts[0].shape[:axis] + (int(sizes[-1]),) + parts[0].shape[axis + 1:]
    data = np.empty(shape)
    _split(data, 2 * data.nbytes, lambda part, *ps: np.concatenate(ps, axis=axis, out=part),
           *parts, skip=axis)

    def backward(g):
        for t, piece in zip(tensors, np.split(g, sizes[:-1], axis=axis)):
            if t.requires_grad:
                t._accumulate(piece)

    return _make(data, tensors, "concat", backward)


def _reduce(x: Tensor, kind: str, axis, op: str) -> Tensor:
    """Sum, mean (``"avg"``) or max over the ``axis`` tuple, kept as size 1; to a scalar
    over every element when ``axis`` is None.  Split by ``_split`` on an axis it keeps.
    A max gradient splits evenly among ties."""
    reduce = {"sum": np.sum, "avg": np.mean, "max": np.max}[kind]
    shape = () if axis is None else [1 if i in axis else d for i, d in enumerate(x.shape)]
    # a share of a reduction ran slower split up to 1 MB and no faster at 3.3 MB
    data = _split(np.empty(shape), x.data.nbytes // 4,
                  lambda part, xs: reduce(xs, axis=axis, keepdims=axis is not None, out=part),
                  x.data)

    def backward(g):
        if kind == "avg":
            g = g / (x.size // data.size)
        elif kind == "max":
            mask = x.data == data
            g = mask * (g / mask.sum(axis=axis, keepdims=True))
        x._accumulate(np.broadcast_to(g, x.shape))

    return _make(data, (x,), op, backward)


def reduce_sum(x: Tensor) -> Tensor:
    return _reduce(x, "sum", None, "sum")


def reduce_mean(x: Tensor) -> Tensor:
    return _reduce(x, "avg", None, "mean")


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
    data = _elementwise(np.maximum, x.data, _ZERO)

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
_ZERO = np.float64(0.0)


def _gelu_tanh(d: np.ndarray, out: np.ndarray) -> np.ndarray:
    """tanh(c*(d + 0.044715*d^3)) into ``out``, formed as ((d*d)*0.044715 + 1)*d*c:
    a generic float ``d ** 3`` is an order of magnitude slower than products."""
    np.multiply(d, d, out=out)
    out *= 0.044715
    out += 1.0
    out *= d
    out *= _GELU_C
    return np.tanh(out, out=out)


def gelu(x: Tensor) -> Tensor:
    """Tanh-approximate GELU: 0.5*x*(1 + tanh(c*(x + 0.044715*x^3)))."""
    d = x.data.reshape(-1)
    data = np.empty(d.size)
    tiles = _tiles(d.size, d.itemsize)

    def tile(sl, scratch):
        ds, out = d[sl], data[sl]
        np.add(_gelu_tanh(ds, scratch[:len(ds)]), 1.0, out=out)
        out *= ds
        out *= 0.5

    _run_tiles(tiles, tile, lambda: np.empty(tiles[0].stop))

    def backward(g):
        g = g.reshape(-1)
        t = _gelu_tanh(d, np.empty(d.size))
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * d * d)
        dx = g * (0.5 * (1.0 + t) + 0.5 * d * (1.0 - t * t) * dinner)
        x._accumulate(dx.reshape(x.shape))

    return _make(data.reshape(x.shape), (x,), "gelu", backward)


def softmax(x: Tensor, axis: int, scale: float = 1.0) -> Tensor:
    """softmax(scale * x) along ``axis``."""
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {x.shape}")
    axis %= x.ndim
    # rows are the index over the axes before ``axis``; each is normalized on
    # its own, so a tile of them is reduced along axis 1
    src = x.data.reshape((-1,) + x.shape[axis:])
    data = np.empty(src.shape)

    def tile(sl, _):
        out = data[sl]
        np.multiply(src[sl], scale, out=out)
        out -= out.max(axis=1, keepdims=True)
        np.exp(out, out=out)
        out /= out.sum(axis=1, keepdims=True)

    _run_tiles(_tiles(len(src), math.prod(x.shape[axis:]) * src.itemsize), tile)
    data = data.reshape(x.shape)

    def backward(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        x._accumulate(data * (g - dot) * scale)

    return _make(data, (x,), "softmax", backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (eps 1e-6), then affine."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm affine params must have shape ({d},)")
    src = x.data.reshape(-1, d)
    data = np.empty(src.shape)
    mean, inv = np.empty((len(src), 1)), np.empty((len(src), 1))
    tiles = _tiles(len(src), d * src.itemsize)

    def tile(sl, scratch):
        xs, hs, out = src[sl], scratch[:sl.stop - sl.start], data[sl]
        mean[sl] = xs.mean(axis=-1, keepdims=True)
        np.subtract(xs, mean[sl], out=hs)
        np.multiply(hs, hs, out=out)
        inv[sl] = 1.0 / np.sqrt(out.mean(axis=-1, keepdims=True) + 1e-6)
        hs *= inv[sl]
        np.multiply(gamma.data, hs, out=out)
        out += beta.data

    _run_tiles(tiles, tile, lambda: np.empty((tiles[0].stop, d)))

    def backward(g):
        g = g.reshape(-1, d)
        xhat = (src - mean) * inv
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=0))
        if gamma.requires_grad:
            gamma._accumulate((g * xhat).sum(axis=0))
        if x.requires_grad:
            dxhat = g * gamma.data
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            x._accumulate((inv * (dxhat - m1 - xhat * m2)).reshape(x.shape))

    return _make(data.reshape(x.shape), (x, gamma, beta), "layer_norm", backward)


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
        b, c, h, w = x.shape
        xp = np.zeros((b, c, h + 2 * padding, w + 2 * padding))

        def fill(part, xs):  # one share of the channels per worker
            part[:, :, padding:padding + h, padding:padding + w] = xs

        x = _split(xp, x.nbytes + xp.nbytes, fill, x, axis=1)
    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, :stride * oh:stride, :stride * ow:stride]
    return windows.transpose(0, 1, 4, 5, 2, 3), oh, ow


def _conv_input_grad(g: np.ndarray, w: np.ndarray, shape, stride: int, padding: int,
                     groups: int) -> np.ndarray:
    """conv2d's gradient for ``x`` of ``shape``: each window's gradient added onto a
    zeroed padded map tap by tap, in row-major tap order, one slice of images per
    worker.  A window's gradient is ``w_g^T @ g`` per group; with one output channel
    per group that is the single product ``w * g``, formed tap by tap."""
    b, cin, h, wd = shape
    cout, cin_g, kh, kw = w.shape
    _, _, oh, ow = g.shape
    dxp = np.zeros((b, cin, h + 2 * padding, wd + 2 * padding))
    single = cout == groups
    # a slice's largest call: the window-gradient GEMM, or one tap's add, which reads
    # a product and a block of dx and writes the block
    slices = _cut(b, _workers(b, b * cin * oh * ow * dxp.itemsize * (3 if single else kh * kw)))
    per_slice = slices[0].stop
    if single:
        taps = w.reshape(groups, cin_g, kh, kw)
        gs = g.reshape(b, groups, 1, oh, ow)
        buf_shape = (per_slice, groups, cin_g, oh, ow)
    else:
        w_t = np.swapaxes(w.reshape(groups, cout // groups, cin_g * kh * kw), -1, -2)
        gg = g.reshape(b, groups, cout // groups, oh * ow)
        buf_shape = (per_slice, groups, cin_g * kh * kw, oh * ow)

    def images(sl, buf):
        m = sl.stop - sl.start
        if single:
            dst = dxp[sl].reshape(m, groups, cin_g, *dxp.shape[2:])

            def tap(i, j):
                return np.multiply(gs[sl], taps[:, :, i, j, None, None], out=buf[:m])
        else:
            dst = dxp[sl]
            dcols = np.matmul(w_t, gg[sl], out=buf[:m]).reshape(m, cin, kh, kw, oh, ow)

            def tap(i, j):
                return dcols[:, :, i, j]
        for i in range(kh):
            for j in range(kw):
                dst[..., i:i + stride * oh:stride, j:j + stride * ow:stride] += tap(i, j)

    _run_tiles(slices, images, lambda: np.empty(buf_shape))
    return dxp[:, :, padding:padding + h, padding:padding + wd]


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
    if stride < 1 or padding < 0:
        raise ShapeError(f"conv2d needs stride >= 1 and padding >= 0, got {stride} and {padding}")

    cols, oh, ow = _im2col(x.data, kh, kw, stride, padding)
    # (B, G, Cg*kh*kw, OH*OW) x (G, Cout/G, Cg*kh*kw) -> (B, G, Cout/G, OH*OW), one
    # GEMM per image and slab of output rows into its columns of ``out``.  A slab's
    # windows are copied C-ordered, so its GEMM reads them from cache.  A pointwise
    # conv's windows are x itself, read in place, so its slabs need not fit in
    # cache: an image splits only as far as it takes to give every worker one.
    # OpenBLAS picks the kernel that sums a column by where the column falls in
    # its blocking; slabs cut at a multiple of 16 columns (where the map allows)
    # keep every column's bits those of one whole GEMM.
    k = cin_g * kh * kw
    w_g = w.data.reshape(groups, cout // groups, k)
    out = np.empty((b, groups, cout // groups, oh * ow))
    row_bytes = cin * kh * kw * ow * cols.itemsize
    pointwise = kh == kw == stride == 1 and not padding
    per_image = -(-_workers(b * oh, x.data.nbytes + out.nbytes) // b)  # a slab per worker
    budget = -(-oh // per_image) * row_bytes if pointwise else None
    tiles = _tiles(oh, row_bytes, 16 // math.gcd(ow, 16), budget)
    # Recording keeps every window for backward: copying them again there cut
    # train-128's peak RSS 416 -> 371 MB but cost 6-15% of its p50 latency.
    keep = _records((x, w, bias))
    store = cols if pointwise else np.empty(cols.shape) if keep else None

    def slab(item, buf):
        i, sl = item
        tile = cols[i, ..., sl, :]
        if not pointwise:
            windows = store[i, ..., sl, :] if keep else buf[..., :sl.stop - sl.start, :]
            np.copyto(windows, tile)
            tile = windows
        np.matmul(w_g, tile.reshape(groups, k, -1), out=out[i, ..., sl.start * ow:sl.stop * ow])

    scratch = None if store is not None else lambda: np.empty(cols[0, ..., tiles[0], :].shape)
    _run_tiles([(i, sl) for i in range(b) for sl in tiles], slab, scratch)
    out = out.reshape(b, cout, oh, ow)
    if bias is not None:
        out += bias.data.reshape(1, cout, 1, 1)

    def backward(g):
        cols_g = store.reshape(b, groups, k, oh * ow)
        gg = g.reshape(b, groups, cout // groups, oh * ow)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2, 3)))
        if w.requires_grad:
            dw = np.matmul(gg, np.swapaxes(cols_g, -1, -2)).sum(axis=0)
            w._accumulate(dw.reshape(w.shape))
        if x.requires_grad:
            x._accumulate(_conv_input_grad(g, w.data, x.shape, stride, padding, groups))

    parents = (x, w) if bias is None else (x, w, bias)
    return _make(out, parents, "conv2d", backward)


def _check_map_reduce(x: Tensor, kind: str, name: str) -> None:
    """What ``pool2d`` and ``reduce_channel`` accept: avg or max over x[B,C,H,W]."""
    if kind not in ("avg", "max"):
        raise ContractError(f"unknown {name} kind {kind!r}")
    if x.ndim != 4:
        raise ShapeError(f"{name} expects x[B,C,H,W]")


def pool2d(x: Tensor, kind: str) -> Tensor:
    """Global average or max pooling to B,C,1,1."""
    _check_map_reduce(x, kind, "pool2d")
    return _reduce(x, kind, (2, 3), f"pool_{kind}_global")


def reduce_channel(x: Tensor, kind: str) -> Tensor:
    """Per-pixel reduction across the channel axis to B,1,H,W."""
    _check_map_reduce(x, kind, "reduce_channel")
    return _reduce(x, kind, (1,), f"reduce_{kind}")


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
    """Bilinear resize of the last two axes, as two products that ``_matmul`` splits by
    images or channels; also returns the row and column weights."""
    h, w = x.shape[-2:]
    wr, wc = _resize_weights(h, out_h), _resize_weights(w, out_w)
    return _matmul(_matmul(wr, x, rows=False), wc.T, rows=False), wr, wc


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

    logp = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(logp)
    logp -= np.log(e.sum(axis=1, keepdims=True))
    # True at each position's label class.  The loss sums log p masked to the labels
    # over the whole (B, C, ...) array, the order a one-hot product summed in: a sum
    # of the gathered log p alone changed the loss's last bit.
    classes = np.arange(n_cls).reshape((-1,) + (1,) * (labels.ndim - 1))
    at = np.expand_dims(labels.astype(np.int64), 1) == classes
    n = labels.size
    data = -np.multiply(logp, at, out=e).sum() / n

    def backward(g):
        dx = np.exp(logp)
        dx -= at  # p - 1 at the labels
        dx *= g
        dx /= n
        logits._accumulate(dx)

    return _make(np.asarray(data), (logits,), "softmax_cross_entropy", backward)
