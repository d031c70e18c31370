"""Complexity and speed accounting: parameters, MACs, frames per second.

MAC counting follows one convention throughout (1 multiply-accumulate = 1
FLOP, elementwise work excluded); see FORMULA_SHEET.  The per-layer
parameter counts are closed forms too; the tests assert that their total
equals the live registry's ``Module.num_parameters()``.
"""

from __future__ import annotations

import gc
import platform
import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .encoder import FFN_EXPANSION, STAGE_GEOMETRY
from .errors import ConfigError
from .model import ArmFormer
from .tensor import Tensor

FORMULA_SHEET = """\
MAC counting rules (1 MAC = 1 FLOP; elementwise ops are excluded, i.e.
activations, layer norms, softmax normalization, residual adds, attention
scaling, pooling and bilinear interpolation):
  conv2d:      (k^2 * Cin / groups) * Cout * Hout * Wout
  linear:      in_features * out_features * tokens
  attention:   QK = N_q * N_kv * C   and   AV = N_q * N_kv * C
               (keys/values taken after the spatial-reduction conv,
                which is itself counted under conv2d)
  cbam:        shared-MLP matmuls 4 * C * hidden per image, plus the
               spatial k x k conv over 2 pooled channels
  ham (NMF):   per update round 2*C*R*HW + 2*R^2*HW + 2*C*R^2, times K
               rounds, plus one C*R*HW reconstruction matmul
"""


@dataclass
class LayerCost:
    name: str
    params: int
    flops: int


@dataclass
class ComplexityReport:
    input_hw: tuple[int, int]
    breakdown: list[LayerCost] = field(default_factory=list)
    formula_sheet: str = FORMULA_SHEET

    @property
    def total_params(self) -> int:
        return sum(c.params for c in self.breakdown)

    @property
    def total_flops(self) -> int:
        return sum(c.flops for c in self.breakdown)

    def __str__(self) -> str:
        lines = [f"{'module':<28s} {'params':>12s} {'MACs':>16s}"]
        for c in self.breakdown:
            lines.append(f"{c.name:<28s} {c.params:>12,d} {c.flops:>16,d}")
        lines.append(f"{'total':<28s} {self.total_params:>12,d} {self.total_flops:>16,d}")
        lines.append(f"{'':28s} {self.total_params / 1e6:>10.3f} M "
                     f"{self.total_flops / 1e9:>13.3f} G")
        return "\n".join(lines)

    def key_values(self) -> str:
        lines = [f"input_hw={self.input_hw[0]}x{self.input_hw[1]}"]
        for c in self.breakdown:
            lines.append(f"params.{c.name}={c.params}")
            lines.append(f"flops.{c.name}={c.flops}")
        lines.append(f"total_params={self.total_params}")
        lines.append(f"total_flops={self.total_flops}")
        return "\n".join(lines)


def _conv_cost(k: int, cin: int, cout: int, oh: int, ow: int,
               groups: int = 1, bias: bool = True) -> tuple[int, int]:
    params = (k * k * cin // groups) * cout + (cout if bias else 0)
    flops = (k * k * cin // groups) * cout * oh * ow
    return params, flops


def _linear_cost(cin: int, cout: int, tokens: int) -> tuple[int, int]:
    return cin * cout + cout, cin * cout * tokens


def _cbam_cost(channels: int, reduction: int, kernel: int,
               h: int, w: int) -> tuple[int, int]:
    hidden = max(1, channels // reduction)
    p_mlp = 2 * channels * hidden
    f_mlp = 4 * channels * hidden
    p_conv, f_conv = _conv_cost(kernel, 2, 1, h, w, bias=False)
    return p_mlp + p_conv, f_mlp + f_conv


def count_flops(model: ArmFormer, input_hw: tuple[int, int] | None = None) -> ComplexityReport:
    """Closed-form per-layer params and MACs for one image at ``input_hw``."""
    cfg = model.config
    if input_hw is None:
        input_hw = (cfg.input_size, cfg.input_size)
    h, w = input_hw
    if h <= 0 or w <= 0 or h % 32 or w % 32:
        raise ConfigError(f"input size must be a positive multiple of 32, got {input_hw}")

    report = ComplexityReport(input_hw=input_hw)
    add = report.breakdown.append
    cin = 3
    for i, (s, (kernel, stride, sr)) in enumerate(zip(cfg.stages, STAGE_GEOMETRY), start=1):
        h //= stride  # the padded kernel // 2 conv is exact for inputs divisible by 32
        w //= stride
        n = h * w
        c = s.channels
        p, f = _conv_cost(kernel, cin, c, h, w)
        add(LayerCost(f"encoder.stage{i}.patch_embed", p + 2 * c, f))

        pa = fa = pf = ff = 0
        for _ in range(s.depth):
            n_kv = n
            if sr > 1:
                n_kv = (h // sr) * (w // sr)
                p, f = _conv_cost(sr, c, c, h // sr, w // sr)
                pa += p + 2 * c  # sr conv + its layer norm
                fa += f
            p, f = _linear_cost(c, c, n)      # q
            pa += p; fa += f
            p, f = _linear_cost(c, c, n)      # output projection
            pa += p; fa += f
            for _kv in range(2):              # k, v on reduced tokens
                p, f = _linear_cost(c, c, n_kv)
                pa += p; fa += f
            fa += 2 * n * n_kv * c            # QK and AV
            pa += 2 * c                       # pre-attention layer norm

            hid = c * FFN_EXPANSION
            p, f = _linear_cost(c, hid, n)
            pf += p; ff += f
            p, f = _conv_cost(3, hid, hid, h, w, groups=hid)
            pf += p; ff += f
            p, f = _linear_cost(hid, c, n)
            pf += p; ff += f
            pf += 2 * c                       # pre-ffn layer norm
        add(LayerCost(f"encoder.stage{i}.attention", pa, fa))
        add(LayerCost(f"encoder.stage{i}.ffn", pf, ff))

        p, f = _cbam_cost(c, cfg.cbam_reduction, cfg.cbam_kernel, h, w)
        add(LayerCost(f"encoder.stage{i}.cbam", p + 2 * c, f))  # + stage-final norm
        cin = c

    # decoder operates at the finest pyramid scale
    dh = input_hw[0] // 4
    dw = input_hw[1] // 4
    hw = dh * dw
    fused = sum(s.channels for s in cfg.stages)
    ctx = cfg.ham.context_channels
    p, f = _cbam_cost(fused, cfg.cbam_reduction, cfg.cbam_kernel, dh, dw)
    add(LayerCost("decoder.cbam_pre", p, f))
    p, f = _conv_cost(1, fused, ctx, dh, dw)
    add(LayerCost("decoder.squeeze", p, f))
    r, k = cfg.ham.rank, cfg.ham.iterations
    per_round = 2 * ctx * r * hw + 2 * r * r * hw + 2 * ctx * r * r
    add(LayerCost("decoder.ham", 0, k * per_round + ctx * r * hw))
    p, f = _cbam_cost(ctx, cfg.cbam_reduction, cfg.cbam_kernel, dh, dw)
    add(LayerCost("decoder.cbam_post", p, f))
    p, f = _conv_cost(1, ctx, cfg.num_classes, dh, dw)
    add(LayerCost("decoder.classifier", p, f))
    return report


@dataclass
class SpeedReport:
    warmup: int
    iters: int
    mean_ms: float
    std_ms: float
    input_shape: tuple[int, ...]
    host: str

    @property
    def fps(self) -> float:
        return 1000.0 / self.mean_ms

    def __str__(self) -> str:
        return (f"speed: {self.fps:.2f} FPS  "
                f"(mean {self.mean_ms:.2f} ms, std {self.std_ms:.2f} ms, "
                f"{self.iters} iters after {self.warmup} warmup) "
                f"input={self.input_shape} host={self.host}")

    def key_values(self) -> str:
        return "\n".join([
            f"warmup={self.warmup}", f"iters={self.iters}",
            f"mean_ms={self.mean_ms:.4f}", f"std_ms={self.std_ms:.4f}",
            f"fps={self.fps:.4f}",
            "input_shape=" + "x".join(map(str, self.input_shape)),
            f"host={self.host}",
        ])


def measure_fps(model: ArmFormer, input_hw: tuple[int, int],
                warmup: int = 10, iters: int = 50) -> SpeedReport:
    """Wall-clock single-image inference latency (graph recording off)."""
    if iters < 10:
        raise ConfigError(f"need at least 10 timed iterations, got {iters}")
    if warmup < 0:
        raise ConfigError(f"warmup must be >= 0, got {warmup}")
    x = Tensor(np.random.default_rng(0).uniform(0, 1, size=(1, 3) + tuple(input_hw)))
    times = []
    with T.no_grad():
        for _ in range(warmup):
            model(x)
        gc_was_enabled = gc.isenabled()
        gc.disable()  # as timeit does: a collector pause is not the model's latency
        try:
            for _ in range(iters):
                t0 = time.perf_counter()
                model(x)
                times.append((time.perf_counter() - t0) * 1000.0)
        finally:
            if gc_was_enabled:
                gc.enable()
    times = np.asarray(times)
    host = (f"{platform.machine()} / {platform.system()} / python {platform.python_version()}"
            f" / {T.TILE_WORKERS} tile workers")
    return SpeedReport(warmup=warmup, iters=iters, mean_ms=float(times.mean()),
                       std_ms=float(times.std()), input_shape=(1, 3) + tuple(input_hw),
                       host=host)
