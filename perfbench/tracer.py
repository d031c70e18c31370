"""Layer-by-layer tracing of the armformer package from outside it.

While a ``Tracer`` is entered it replaces the op functions of
``armformer.tensor`` and the file functions of ``armformer.data`` with timing
wrappers.  It also puts spans around ``cross_entropy``, ``Tensor.backward``
and the AdamW step, and makes ``ArmFormer.__call__`` run ``traced_forward``,
which drives the model through its public submodules with a span around
every ``count_flops`` row.  ``predict``, ``train_step`` and ``fit`` run
unchanged.

* A layer span's time is inclusive; the ``count_flops`` rows do not nest, so
  for them it is also their self time.
* An op's time is self time: ops called from inside another op (``reduce_mean``
  calls ``mul``) are subtracted from the caller.
* Every ``conv2d`` and ``matmul`` call adds the MACs implied by its operand
  shapes to the innermost open layer span, so executed MACs can be checked
  against the closed form row by row.
* Op outputs that record a graph node are counted: those are the nodes
  ``Tensor.backward`` visits.
"""

from __future__ import annotations

import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

import numpy as np

import armformer.model as M
from armformer import data as D
from armformer import tensor as T
from armformer.decoder import fuse_pyramid, ham_global_context
from armformer.encoder import FeaturePyramid, tokens_to_map

TENSOR_OPS = ("add", "mul", "div", "matmul", "reshape", "transpose", "concat", "reduce_sum",
              "reduce_mean", "log", "exp", "relu", "sigmoid", "gelu", "softmax", "layer_norm",
              "conv2d", "pool2d", "reduce_channel", "bilinear_resize", "softmax_cross_entropy")
DATA_FUNCS = {"read_ppm": "data.read", "read_pgm": "data.read", "resize_image": "data.resize",
              "resize_nearest": "data.resize", "decode_mask": "data.decode"}
# (owner, attribute, span) for the training phases of ``train_step``
MODEL_PHASES = ((M, "cross_entropy", "model.loss"), (T.Tensor, "backward", "model.backward"),
                (M.AdamW, "step", "model.optimizer"), (M.AdamW, "zero_grad", "model.optimizer"))
# spans that run once per set-up pass or per run, not once per operation
PER_CALL_SPANS = ("model.build", "model.checkpoint_save", "model.checkpoint_load",
                  "metrics.update", "metrics.compute")
SETUP_SPANS = ("data.read", "data.resize", "data.decode")  # reported per set-up pass


class _Span:
    __slots__ = ("tracer", "name", "t0")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.tracer._layers.append(self.name)
        self.t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.tracer.layer_s[self.name] += time.perf_counter() - self.t0
        self.tracer.layer_calls[self.name] += 1
        self.tracer._layers.pop()


class Tracer:
    """Spans and op counters, kept in memory until ``report``."""

    def __init__(self):
        self.layer_s: dict[str, float] = defaultdict(float)
        self.layer_calls: dict[str, int] = defaultdict(int)
        self.macs: dict[str, int] = defaultdict(int)
        self.op_calls: dict[str, int] = defaultdict(int)
        self.op_s: dict[str, float] = defaultdict(float)
        self.op_bytes: dict[str, int] = defaultdict(int)
        self.graph_nodes = 0
        self.bytes_read = 0
        self.checkpoint_bytes = 0
        self._layers: list[str] = []
        self._op_child_s: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    # -- installing wrappers ---------------------------------------------------

    def patch(self, owner, name: str, replacement) -> None:
        """Replace a module or class attribute until the tracer is left."""
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def __enter__(self):
        for name in TENSOR_OPS:
            self.patch(T, name, self._wrap_op(name, getattr(T, name)))
        for name, layer in DATA_FUNCS.items():
            self.patch(D, name, self._wrap_data(layer, getattr(D, name)))
        for owner, name, layer in MODEL_PHASES:
            self.patch(owner, name, self._wrap_span(layer, getattr(owner, name)))
        self.patch(M.ArmFormer, "__call__", self._wrap_span(
            "model.forward", lambda model, images: traced_forward(self, model, images)))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def _wrap_op(self, name: str, fn):
        def traced(*args, **kwargs):
            self._op_child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._op_child_s.pop()
                if self._op_child_s:
                    self._op_child_s[-1] += dt
            self.op_calls[name] += 1
            self.op_s[name] += dt - child
            self.op_bytes[name] += out.data.nbytes
            self.graph_nodes += out.requires_grad
            if name == "matmul":      # [..., M, K] @ [..., K, N]
                self.macs[self._where()] += out.size * args[0].shape[-1]
            elif name == "conv2d":    # per output element: Cin/groups * kh * kw
                w = args[1]
                self.macs[self._where()] += out.size * (w.size // w.shape[0])
            return out
        return traced

    def _wrap_span(self, layer: str, fn):
        def traced(*args, **kwargs):
            with self.span(layer):
                return fn(*args, **kwargs)
        return traced

    def _wrap_data(self, layer: str, fn):
        spanned = self._wrap_span(layer, fn)

        def traced(*args, **kwargs):
            if layer == "data.read":
                self.bytes_read += Path(args[0]).stat().st_size
            return spanned(*args, **kwargs)
        return traced

    def _where(self) -> str:
        return self._layers[-1] if self._layers else "(outside any layer)"

    # -- reporting -------------------------------------------------------------

    def report(self, ops: int, images_per_op: int, setups: int, rows,
               check: "ForwardCheck") -> "TraceReport":
        """Per-operation metrics over ``ops`` traced operations, and a printable table."""
        values: dict[str, float] = {}
        images = ops * images_per_op
        lines = [f"trace: {ops} traced operations of {images_per_op} image(s)",
                 f"{'layer (count_flops row)':<28s} {'ms/op':>9s} {'GMAC/s':>7s} "
                 f"{'MAC/img closed':>14s} {'executed b=1':>14s} {'executed run':>14s}"]
        closed = {r.name: r.flops for r in rows}
        names = ([r.name for r in rows if r.name.startswith("encoder.")] + ["decoder.fuse"]
                 + [r.name for r in rows if r.name.startswith("decoder.")] + ["decoder.upsample"])
        for name in names:
            secs = self.layer_s[name]
            values[f"{name}.ms"] = 1000.0 * secs / ops
            rate = ""
            if name in closed:
                values[f"{name}.gmacs_per_s"] = closed[name] * images / secs / 1e9
                rate = f"{values[f'{name}.gmacs_per_s']:7.3f}"
            lines.append(f"{name:<28s} {values[f'{name}.ms']:9.3f} {rate:>7s} "
                         f"{closed.get(name, 0):14d} {check.macs.get(name, 0) // check.images:14d} "
                         f"{self.macs.get(name, 0) / images:14.1f}")
        mismatched = sorted(n for n in set(closed) | set(check.macs)
                            if check.macs.get(n, 0) != closed.get(n, 0) * check.images)
        batched = sorted(n for n in set(closed) | set(self.macs)
                         if self.macs.get(n, 0) != closed.get(n, 0) * images)
        values["profiler.mac_rows_mismatched"] = len(mismatched)
        values["profiler.executed_gmacs"] = sum(check.macs.values()) / check.images / 1e9
        lines.append(f"executed {sum(check.macs.values()) // check.images} MAC/image at batch 1 "
                     f"against closed form {sum(closed.values())}; "
                     f"profiler.mac_rows_mismatched = {len(mismatched)} {mismatched or ''}")
        if batched:
            lines.append(f"at batch {images_per_op} these rows execute other than "
                         f"{images_per_op} x the one-image closed form: {batched}")
        lines.append(f"{'tensor op':<30s} {'calls/op':>10s} {'self ms/op':>10s} {'MB out/op':>10s}")
        for name in sorted(self.op_calls, key=lambda n: -self.op_s[n]):
            values[f"tensor.{name}.calls"] = self.op_calls[name] / ops
            values[f"tensor.{name}.ms"] = 1000.0 * self.op_s[name] / ops
            values[f"tensor.{name}.mb_out"] = self.op_bytes[name] / ops / 1e6
            lines.append(f"{name:<30s} {self.op_calls[name] / ops:10.1f} "
                         f"{1000.0 * self.op_s[name] / ops:10.3f} "
                         f"{self.op_bytes[name] / ops / 1e6:10.3f}")
        for name in TENSOR_OPS:  # ops this workload never calls read as zero
            for suffix in ("calls", "ms", "mb_out"):
                values.setdefault(f"tensor.{name}.{suffix}", 0.0)
        values["tensor.calls"] = sum(self.op_calls.values()) / ops

        for name in ("model.forward", "model.loss", "model.backward", "model.optimizer"):
            values[f"{name}.ms"] = 1000.0 * self.layer_s[name] / ops
            lines.append(f"{name}.ms = {values[f'{name}.ms']:.4f} per operation")
        for name in PER_CALL_SPANS:
            values[f"{name}.ms"] = 1000.0 * self.layer_s[name] / max(1, self.layer_calls[name])
            lines.append(f"{name}.ms = {values[f'{name}.ms']:.4f} per call "
                         f"({self.layer_calls[name]} calls)")
        for name in SETUP_SPANS:
            values[f"{name}.ms"] = 1000.0 * self.layer_s[name] / setups
            lines.append(f"{name}.ms = {values[f'{name}.ms']:.4f} per set-up pass")
        values["model.backward.nodes"] = self.graph_nodes / ops
        values["model.checkpoint.mb"] = self.checkpoint_bytes / 1e6
        values["data.mb_read"] = self.bytes_read / setups / 1e6
        values["data.off_palette"] = D.decode_stats.off_palette
        lines.append(f"model.backward.nodes = {values['model.backward.nodes']:.1f} per operation; "
                     f"model.checkpoint.mb = {values['model.checkpoint.mb']:.4f}; "
                     f"data.mb_read = {values['data.mb_read']:.6f} per set-up pass; "
                     f"data.off_palette = {values['data.off_palette']} over the run")
        return TraceReport(values, "\n".join(lines))


class TraceReport(NamedTuple):
    values: dict
    text: str


class ForwardCheck(NamedTuple):
    identical: bool
    macs: dict      # executed MACs per layer span over one traced forward
    images: int


def traced_forward(tr: Tracer, model, images):
    """``ArmFormer.__call__`` through its public submodules, one span per row."""
    enc, dec = model.encoder, model.decoder
    feats = []
    x = images
    for i, stage in enumerate(enc.stages, start=1):
        row = f"encoder.stage{i}."
        with tr.span(row + "patch_embed"):
            tokens, h, w = stage.embed(x)
        for block in stage.blocks:
            with tr.span(row + "attention"):
                tokens = tokens + block.attn(block.norm1(tokens), h, w)
            with tr.span(row + "ffn"):
                tokens = tokens + block.ffn(block.norm2(tokens), h, w)
        with tr.span(row + "cbam"):
            x, _ = stage.cbam(tokens_to_map(stage.norm(tokens), h, w))
        feats.append(x)
    with tr.span("decoder.fuse"):
        fused = fuse_pyramid(FeaturePyramid(*feats))
    with tr.span("decoder.cbam_pre"):
        x, _ = dec.cbam_pre(fused)
    with tr.span("decoder.squeeze"):
        x = T.relu(dec.squeeze(x))
    with tr.span("decoder.ham"):
        x = ham_global_context(x, dec.ham)
    with tr.span("decoder.cbam_post"):
        x, _ = dec.cbam_post(x)
    with tr.span("decoder.classifier"):
        logits = dec.classifier(x)
    with tr.span("decoder.upsample"):
        return T.bilinear_resize(logits, 4 * logits.shape[2], 4 * logits.shape[3])


def forward_check(model, images) -> ForwardCheck:
    """Trace one no-grad forward and compare it bit for bit with ``model(images)``."""
    with T.no_grad():
        expected = model(images).data
        with Tracer() as tr:
            got = traced_forward(tr, model, images).data
    return ForwardCheck(bool(np.array_equal(got, expected)), dict(tr.macs), images.shape[0])
