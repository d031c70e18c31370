"""The benchmark's two workloads, each calling what the matching CLI command calls.

* ``infer-640``: ``ArmFormer.predict`` on one 640x640 image at a time, default
  config loaded from a checkpoint, images read from disk (``armformer infer``).
* ``train-128``: reduced config, batch 8, 128x128, training split read from
  disk through ``SegDataset``, then fixed-length ``fit`` episodes
  (``armformer train``).

Inputs come from the workload seed.  The model weights come from the model
config's own seed, so they are the same for every workload seed.  Each
workload first runs a reference probe built from ``REF_SEED``.  The probe is
compared with ``reference.json`` and is also the warm-up operation.
"""

from __future__ import annotations

from contextlib import nullcontext
from pathlib import Path
from time import perf_counter as now

import numpy as np

from armformer import (ArmFormer, ConfusionMatrix, ModelConfig, Tensor, TrainSchedule,
                       checkpoint_load, checkpoint_save, compute_metrics, fit)
from armformer import tensor as T
from armformer.data import CLASS_NAMES, SegDataset, save_dataset, synth_dataset
from tracer import Tracer, forward_check

REF_SEED = 0
REFERENCE_PATH = Path(__file__).parent / "reference.json"
# float64 reassociation (BLAS blocking, thread count, summation order) moves
# these outputs by ~1e-15 of their scale; any change to the computation moves
# them by orders of magnitude more.
TOLERANCE = 1e-9


def logits_digest(logits: np.ndarray, stride: int) -> dict:
    """A strided sample of the logits plus every pixel's squares summed per class."""
    return {"shape": list(logits.shape),
            "sample": logits[:, :, ::stride, ::stride].ravel().tolist(),
            "sumsq": (logits * logits).sum(axis=(0, 2, 3)).tolist()}


def compare_digest(got: dict, ref: dict) -> float:
    """Largest difference between two digests, scaled by each entry's magnitude."""
    worst = 0.0
    for key, expected in ref.items():
        a = np.asarray(got[key], dtype=np.float64)
        b = np.asarray(expected, dtype=np.float64)
        if a.shape != b.shape:
            return float("inf")
        scale = max(float(np.abs(b).max()), np.finfo(np.float64).tiny)
        worst = max(worst, float(np.abs(a - b).max()) / scale)
    return worst


class Workload:
    images_per_op = 1

    def __init__(self, seed: int, workdir: Path, tracer: Tracer):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.model = None
        self.failed_ops = 0
        self.problems: list[str] = []

    def fail(self, message: str) -> None:
        self.failed_ops += 1
        self.problems.append(message)

    def load_split(self, seed: int, name: str) -> list:
        """Write a synthetic split to disk and read it back through ``SegDataset``."""
        root = self.workdir / name
        save_dataset(synth_dataset(seed, self.IMAGES, self.DISK_SIZE), root, (1.0, 0.0, 0.0))
        return SegDataset(root, "train", self.SIZE).load_all()

    def check_total(self, cm: ConfusionMatrix, pixels: int) -> list[str]:
        with self.tracer.span("metrics.compute"):
            compute_metrics(cm, class_names=CLASS_NAMES)
        if cm.total() != pixels:
            return [f"confusion matrix holds {cm.total()} pixels, {pixels} were evaluated"]
        return []


class Infer640(Workload):
    """Deployment setting: batch 1 at 640x640, no graph, no optimizer."""

    SIZE = 640
    DISK_SIZE = 640  # as the model input, so loading reads and decodes but does not resize
    IMAGES = 4  # cycled; the forward's cost does not depend on pixel values

    def setup(self) -> None:
        tr = self.tracer
        with tr.span("model.build"):
            model = ArmFormer(ModelConfig.default())
        path = self.workdir / "model.ckpt"
        with tr.span("model.checkpoint_save"):
            blob = checkpoint_save(model)
            path.write_bytes(blob)
        tr.checkpoint_bytes = len(blob)
        with tr.span("model.checkpoint_load"):
            self.model = checkpoint_load(path.read_bytes())
        self.samples = self.load_split(self.seed, "data")
        self.cm = ConfusionMatrix(self.model.config.num_classes)
        self.pixels = 0
        self.first_pred: dict[int, np.ndarray] = {}

    def probe(self) -> dict:
        image, _ = synth_dataset(REF_SEED, 1, self.SIZE)[0]
        self.probe_x = Tensor(image[None])
        with T.no_grad():  # what predict computes before its argmax
            logits = self.model(self.probe_x).data
        return logits_digest(logits, stride=40)

    def traced_forward_check(self):
        return forward_check(self.model, self.probe_x)

    def run_ops(self, k: int, traced: bool) -> list[float]:
        idx = k % self.IMAGES
        image, labels = self.samples[idx]
        x = Tensor(image[None])
        with self.tracer if traced else nullcontext():
            t0 = now()
            pred = self.model.predict(x)
            latency = now() - t0
            with self.tracer.span("metrics.update") if traced else nullcontext():
                self.cm.update(pred[0], labels)  # raises on class ids out of range
        self.pixels += labels.size
        if pred.shape != (1, self.SIZE, self.SIZE):
            self.fail(f"input {idx}: prediction shape {pred.shape}")
        elif not np.array_equal(self.first_pred.setdefault(idx, pred), pred):
            self.fail(f"input {idx}: prediction changed between repeats")
        return [latency]

    def finish(self) -> list[str]:
        return self.check_total(self.cm, self.pixels)


class Train128(Workload):
    """Graph recording, ``Tensor.backward``, AdamW; the data layer during set-up."""

    SIZE = 128
    DISK_SIZE = 256  # larger than the model input, so every load resizes
    IMAGES = 32
    BATCH = 8
    STEPS = 8  # one episode: a fresh optimizer from the initial weights
    images_per_op = BATCH

    def setup(self) -> None:
        self.data = self.load_split(self.seed, "data")
        with self.tracer.span("model.build"):
            self.model = ArmFormer(ModelConfig.reduced(self.SIZE))
        self.initial = [p.data.copy() for p in self.model.parameters()]
        self.expected = None

    def episode(self, data, seed: int) -> tuple[list[float], list[float]]:
        """Train STEPS steps from the initial weights; return losses and step times."""
        for p, init in zip(self.model.parameters(), self.initial):
            p.data[...] = init
        stamps, losses = [], []

        def log_fn(entry):
            stamps.append(now())
            losses.append(entry.loss)

        t0 = now()
        fit(self.model, data, TrainSchedule(steps=self.STEPS, batch_size=self.BATCH, seed=seed),
            log_fn=log_fn)
        return losses, np.diff([t0] + stamps).tolist()

    def probe(self) -> dict:
        self.probe_data = self.load_split(REF_SEED, "probe")
        losses, _ = self.episode(self.probe_data, REF_SEED)
        if self.seed == REF_SEED:  # the timed episodes repeat the probe
            self.expected = losses
        return {"losses": losses}

    def traced_forward_check(self):
        image, _ = self.probe_data[0]
        return forward_check(self.model, Tensor(image[None]))

    def run_ops(self, k: int, traced: bool) -> list[float]:
        with self.tracer if traced else nullcontext():
            losses, times = self.episode(self.data, self.seed)
        if self.expected is None:
            self.expected = losses
        worst = compare_digest({"losses": losses}, {"losses": self.expected})
        if not worst <= TOLERANCE:
            self.fail(f"episode {k}: losses differ from the first episode's by {worst:.3g}")
        return times

    def finish(self) -> list[str]:
        """Round-trip the trained weights through a checkpoint, then evaluate them."""
        tr = self.tracer
        with tr.span("model.checkpoint_save"):
            blob = checkpoint_save(self.model)
        tr.checkpoint_bytes = len(blob)
        with tr.span("model.checkpoint_load"):
            loaded = checkpoint_load(blob)
        problems = []
        if not all(np.array_equal(a.data, b.data)
                   for a, b in zip(self.model.parameters(), loaded.parameters())):
            problems.append("checkpoint round trip changed the weights")
        cm = ConfusionMatrix(loaded.config.num_classes)
        for image, labels in self.data:
            pred = loaded.predict(Tensor(image[None]))
            with tr.span("metrics.update"):
                cm.update(pred[0], labels)
        return problems + self.check_total(cm, self.IMAGES * self.SIZE * self.SIZE)


WORKLOADS = {"infer-640": Infer640, "train-128": Train128}
