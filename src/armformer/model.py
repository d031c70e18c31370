"""Full model assembly, training loop and checkpoint serialization."""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable, ClassVar, NamedTuple, Sequence

import numpy as np

from . import tensor as T
from .data import NUM_CLASSES
from .decoder import HamConfig, HamDecoder
from .encoder import DEFAULT_STAGES, MitEncoder, StageConfig
from .errors import (CheckpointError, ConfigError, DataError, TrainingError)
from .nn import Module
from .tensor import Tensor

REDUCED_STAGES = (
    StageConfig(8, 1, 1),
    StageConfig(16, 1, 2),
    StageConfig(24, 1, 3),
    StageConfig(32, 1, 4),
)


@dataclass(frozen=True)
class ModelConfig:
    """Every architectural knob, with defaults reproducing the standard
    channel/resolution schedule (32, 64, 160, 256 at 1/4..1/32).  One CBAM
    reduction and kernel apply at all six sites: after each of the four
    encoder stages, and before and after the decoder's global context.
    Each stage's patch kernel, stride and key/value reduction ratio
    (8/4/2/1) are not knobs: ``encoder.STAGE_GEOMETRY`` fixes them.
    """

    stages: tuple[StageConfig, ...] = DEFAULT_STAGES
    cbam_reduction: int = 16
    cbam_kernel: int = 7
    ham: HamConfig = field(default_factory=HamConfig)
    num_classes: ClassVar[int] = NUM_CLASSES  # the label palette fixes the class set
    input_size: int = 640
    seed: int = 0

    def __post_init__(self):
        if len(self.stages) != 4:
            raise ConfigError("exactly 4 encoder stages required")
        if self.cbam_reduction < 1:
            raise ConfigError(f"cbam reduction must be >= 1, got {self.cbam_reduction}")
        if self.cbam_kernel < 1 or self.cbam_kernel % 2 == 0:
            raise ConfigError(f"cbam kernel must be odd and positive, got {self.cbam_kernel}")
        if self.input_size <= 0 or self.input_size % 32:
            raise ConfigError(
                f"input_size must be a positive multiple of 32, got {self.input_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @classmethod
    def default(cls) -> "ModelConfig":
        return cls()

    @classmethod
    def lightweight_cbam(cls) -> "ModelConfig":
        """Cheaper attention variant: reduction 32, kernel 3 at every site."""
        return cls(cbam_reduction=32, cbam_kernel=3)

    @classmethod
    def reduced(cls, input_size: int = 64, seed: int = 0) -> "ModelConfig":
        """Desk-scale configuration for tests, demos and CPU training."""
        return cls(stages=REDUCED_STAGES,
                   ham=HamConfig(rank=8, iterations=2, context_channels=64),
                   input_size=input_size, seed=seed)


class ArmFormer(Module):
    def __init__(self, config: ModelConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.encoder = MitEncoder(config.stages, rng, config.cbam_reduction, config.cbam_kernel)
        self.decoder = HamDecoder(tuple(s.channels for s in config.stages), config.num_classes,
                                  config.ham, rng, config.cbam_reduction, config.cbam_kernel)

    def __call__(self, images: Tensor) -> Tensor:
        return self.decoder(self.encoder(images))

    def predict(self, images: Tensor) -> np.ndarray:
        """Argmax class map [B,H,W] without recording a graph."""
        with T.no_grad():
            logits = self(images)
        return logits.data.argmax(axis=1).astype(np.int64)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean pixel-wise cross-entropy over batch and spatial positions."""
    return T.softmax_cross_entropy(logits, labels)


# ----------------------------------------------------------------------
# optimizer and training loop
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TrainSchedule:
    steps: int
    batch_size: int = 2
    lr: float = 1e-3
    weight_decay: float = 0.01
    seed: int = 0
    eval_every: int = 0  # 0 disables the periodic eval hook

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.eval_every < 0:
            raise ConfigError(f"eval_every must be >= 0, got {self.eval_every}")


class AdamW:
    """Adaptive moments with decoupled weight decay."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: Sequence[tuple[str, Tensor]], lr: float = 1e-3,
                 weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params}

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params:
            g = p.grad
            if g is None:
                continue
            if self.weight_decay:
                p.data -= self.lr * self.weight_decay * p.data
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.zero_grad()


class Batch(NamedTuple):
    images: Tensor      # [B, 3, H, W], values in [0, 1]
    labels: np.ndarray  # [B, H, W], int class ids


def make_batch(samples: Sequence[tuple[np.ndarray, np.ndarray]]) -> Batch:
    images = Tensor(np.stack([img for img, _ in samples]))
    labels = np.stack([lab for _, lab in samples]).astype(np.int64)
    if images.shape[2:] != labels.shape[1:]:
        raise DataError(f"image/label spatial dims disagree: "
                        f"{images.shape} vs {labels.shape}")
    return Batch(images, labels)


# Parts a batch trains as, at once on the tile workers; a batch of one image is one
# part.  On a 2-core host, a reduced-config batch-8 128x128 step took a median 212 ms
# as two halves against 216 ms whole at one worker, and 154 ms as two halves against
# 204 ms as four parts at two workers.  A constant, not the worker count, so trained
# bits depend on the batch size and never on ``TILE_WORKERS``.
HALVES = 2


def train_step(model: ArmFormer, batch: Batch, opt: AdamW,
               replica: ArmFormer | None = None) -> float:
    """One AdamW step on ``batch``; returns its mean pixel loss.

    The batch is cut into at most ``HALVES`` parts that run forward, loss and
    backward at once (``T.run_whole``), each with every op whole on its thread: the
    first on ``model``, on the calling thread, the second on ``replica``, a
    ``model.replica()`` (made here when not given) that shares its weight arrays.
    Each part's loss is weighted by its share of the pixels, the replica's gradients
    are added into the model's, and AdamW steps once.
    """
    pixels = batch.labels.size

    def part(net: ArmFormer, rows: slice) -> float:
        labels = batch.labels[rows]
        loss = cross_entropy(net(Tensor(batch.images.data[rows])), labels) * (labels.size / pixels)
        value = loss.item()
        if np.isfinite(value):
            loss.backward()
        return value

    replica = model.replica() if replica is None else replica
    parts = zip((model, replica), T._cut(len(batch.labels), HALVES))  # one image: one part
    pairs = list(zip(model.parameters(), replica.parameters()))
    try:
        value = sum(T.run_whole([partial(part, net, rows) for net, rows in parts]))
        if not np.isfinite(value):
            raise TrainingError(f"non-finite loss {value!r} at optimizer step {opt.t + 1}; "
                                f"check learning rate and input scaling")
    except BaseException:  # a failed step leaves no part's gradients behind
        for p, r in pairs:
            p.grad = r.grad = None
        raise
    for p, r in pairs:  # the replica's part, if any, added into the model's
        if r.grad is not None:
            p._accumulate(r.grad)
        r.grad = None
    opt.step()
    opt.zero_grad()
    return value


class HistoryEntry(NamedTuple):
    step: int
    loss: float
    metrics: dict | None


def fit(model: ArmFormer, data: Sequence[tuple[np.ndarray, np.ndarray]],
        sched: TrainSchedule,
        eval_fn: Callable[[ArmFormer], dict] | None = None,
        log_fn: Callable[[HistoryEntry], None] | None = None) -> list[HistoryEntry]:
    """Run ``sched.steps`` optimizer steps over shuffled mini-batches.

    Batch order is a pure function of ``sched.seed``.  When ``eval_fn`` is
    given it runs every ``sched.eval_every`` steps (and on the final step)
    and its result is stored in the history.
    """
    if len(data) == 0:
        raise DataError("dataset is empty")
    opt = AdamW([(n, p) for n, p in model.named_parameters()],
                lr=sched.lr, weight_decay=sched.weight_decay)
    replica = model.replica()  # AdamW updates the shared weight arrays in place
    rng = np.random.default_rng(sched.seed)
    order: list[int] = []
    history: list[HistoryEntry] = []
    for step in range(1, sched.steps + 1):
        while len(order) < sched.batch_size:
            order.extend(rng.permutation(len(data)).tolist())
        idx, order = order[:sched.batch_size], order[sched.batch_size:]
        loss = train_step(model, make_batch([data[i] for i in idx]), opt, replica)
        metrics = None
        due = sched.eval_every and (step % sched.eval_every == 0 or step == sched.steps)
        if eval_fn is not None and due:
            metrics = eval_fn(model)
        entry = HistoryEntry(step, loss, metrics)
        history.append(entry)
        if log_fn is not None:
            log_fn(entry)
    return history


# ----------------------------------------------------------------------
# flat config text  (used by checkpoints and the CLI config files)
# ----------------------------------------------------------------------

def _fields(section: str, obj) -> dict[str, object]:
    return {f"{section}.{f.name}": getattr(obj, f.name) for f in fields(obj)}


def _section(flat: dict[str, object], section: str) -> dict[str, object]:
    return {key.partition(".")[2]: value for key, value in flat.items()
            if key.partition(".")[0] == section}


def _flat(cfg: ModelConfig) -> dict[str, object]:
    """Every key a config file may set, mapped to its value in ``cfg``, in file order."""
    flat = {f"model.{name}": getattr(cfg, name) for name in ("input_size", "seed")}
    for i, stage in enumerate(cfg.stages, start=1):
        flat |= _fields(f"stage{i}", stage)
    flat |= {"cbam.reduction": cfg.cbam_reduction, "cbam.kernel": cfg.cbam_kernel}
    return flat | _fields("ham", cfg.ham)


def _overlay(flat: dict[str, object], entries: dict[str, str], kind: str) -> dict[str, object]:
    """``flat``, updated in place: each entry is parsed as the type of the value it replaces."""
    for key, value in entries.items():
        if key not in flat:
            raise ConfigError(f"unknown {kind} key {key!r}")
        try:
            flat[key] = type(flat[key])(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r} ({exc})") from None
    return flat


def config_to_text(cfg: ModelConfig) -> str:
    return "".join(f"{key} = {value}\n" for key, value in _flat(cfg).items())


def parse_flat_text(text: str) -> dict[str, str]:
    """Parse ``section.key = value`` lines; '#' starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def config_from_flat(entries: dict[str, str]) -> ModelConfig:
    """Overlay flat ``section.key`` entries onto the ``model.preset`` configuration."""
    preset = entries.get("model.preset")
    presets = {None: ModelConfig.default, "default": ModelConfig.default,
               "lightweight": ModelConfig.lightweight_cbam, "reduced": ModelConfig.reduced}
    if preset not in presets:
        raise ConfigError(f"unknown model.preset {preset!r}")
    ours = {key: value for key, value in entries.items()  # train.* keys are the schedule's
            if key != "model.preset" and key.partition(".")[0] != "train"}
    flat = _overlay(_flat(presets[preset]()), ours, "config")
    return ModelConfig(
        stages=tuple(StageConfig(**_section(flat, f"stage{i}")) for i in range(1, 5)),
        cbam_reduction=flat["cbam.reduction"], cbam_kernel=flat["cbam.kernel"],
        ham=HamConfig(**_section(flat, "ham")), **_section(flat, "model"))


def schedule_from_flat(entries: dict[str, str]) -> TrainSchedule:
    ours = {key: value for key, value in entries.items() if key.partition(".")[0] == "train"}
    flat = _overlay(_fields("train", TrainSchedule(steps=100)), ours, "schedule")
    return TrainSchedule(**_section(flat, "train"))


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------

CHECKPOINT_MAGIC = b"ARMF"
CHECKPOINT_VERSION = 6


def checkpoint_save(model: ArmFormer) -> bytes:
    """Serialize config text plus the full parameter table.

    Layout (all integers little-endian): magic ``ARMF``, u32 version,
    u32-length-prefixed config text, u32 parameter count, then per parameter
    a u16-length-prefixed name, u8 rank, u32 dims and the raw float64
    payload.  The trailing u64 is the first 8 bytes of the SHA-256 of
    everything before it.
    """
    out = bytearray()
    out += CHECKPOINT_MAGIC
    out += struct.pack("<I", CHECKPOINT_VERSION)
    cfg_bytes = config_to_text(model.config).encode("utf-8")
    out += struct.pack("<I", len(cfg_bytes))
    out += cfg_bytes
    params = list(model.named_parameters())
    out += struct.pack("<I", len(params))
    for name, p in params:
        name_b = name.encode("utf-8")
        out += struct.pack("<H", len(name_b))
        out += name_b
        out += struct.pack("<B", p.ndim)
        out += struct.pack(f"<{p.ndim}I", *p.shape)
        out += np.ascontiguousarray(p.data, dtype="<f8").tobytes()
    out += hashlib.sha256(bytes(out)).digest()[:8]
    return bytes(out)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointError("checkpoint truncated")
        piece = self.data[self.pos:self.pos + n]
        self.pos += n
        return piece

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def checkpoint_load(data: bytes) -> ArmFormer:
    """Rebuild a model bit-exactly from ``checkpoint_save`` output."""
    if len(data) < 16:
        raise CheckpointError("checkpoint too short")
    body, checksum = data[:-8], data[-8:]
    if hashlib.sha256(body).digest()[:8] != checksum:
        raise CheckpointError("checksum mismatch: checkpoint is corrupt")
    r = _Reader(body)
    if r.take(4) != CHECKPOINT_MAGIC:
        raise CheckpointError("bad magic: not a checkpoint file")
    (version,) = r.unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (cfg_len,) = r.unpack("<I")
    try:
        cfg = config_from_flat(parse_flat_text(r.take(cfg_len).decode("utf-8")))
    except (ConfigError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"embedded config invalid: {exc}") from None

    model = ArmFormer(cfg)
    registry = dict(model.named_parameters())
    (count,) = r.unpack("<I")
    if count != len(registry):
        raise CheckpointError(f"parameter count mismatch: file has {count}, "
                              f"model has {len(registry)}")
    for _ in range(count):
        (name_len,) = r.unpack("<H")
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError("parameter name is not valid UTF-8") from None
        (ndim,) = r.unpack("<B")
        shape = r.unpack(f"<{ndim}I")
        if name not in registry:
            raise CheckpointError(f"unknown parameter {name!r} in checkpoint")
        p = registry[name]
        if p.shape != shape:
            raise CheckpointError(f"shape mismatch for {name!r}: "
                                  f"file {shape}, model {p.shape}")
        n = int(np.prod(shape))
        payload = np.frombuffer(r.take(8 * n), dtype="<f8")
        if not np.isfinite(payload).all():
            raise CheckpointError(f"non-finite values in parameter {name!r}")
        p.data[...] = payload.reshape(shape)
    if r.pos != len(body):
        raise CheckpointError("trailing bytes after parameter table")
    return model
