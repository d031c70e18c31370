"""Confusion-matrix segmentation metrics: per-class IoU, recall, F-score.

A class with zero ground-truth and zero predicted pixels is skipped from all
means; any other undefined ratio (0/0 recall for a class that was predicted
but never labeled) is reported as nan and skipped from that mean only.
F-score is computed as 2*TP / (2*TP + FP + FN), which is defined for every
non-skipped class and algebraically equals both 2*prec*rec/(prec+rec) and
2*IoU/(1+IoU).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError


class ConfusionMatrix:
    """Pixel counts indexed [ground truth class, predicted class]."""

    def __init__(self, num_classes: int = 6):
        self.num_classes = num_classes
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)

    def update(self, pred: np.ndarray, gt: np.ndarray) -> "ConfusionMatrix":
        pred = np.asarray(pred)
        gt = np.asarray(gt)
        if pred.shape != gt.shape:
            raise ContractError(f"pred {pred.shape} and gt {gt.shape} shapes differ")
        if pred.size:
            lo = min(pred.min(), gt.min())
            hi = max(pred.max(), gt.max())
            if lo < 0 or hi >= self.num_classes:
                raise ContractError(f"class ids must lie in [0, {self.num_classes})")
            flat = gt.reshape(-1) * self.num_classes + pred.reshape(-1)
            self.counts += np.bincount(
                flat, minlength=self.num_classes ** 2
            ).reshape(self.num_classes, self.num_classes)
        return self

    def total(self) -> int:
        return int(self.counts.sum())

    def pixel_accuracy(self) -> float:
        total = self.total()
        return float(np.trace(self.counts)) / total if total else float("nan")


def _mean(values: np.ndarray) -> float:  # nan only when every entry is nan
    return float(np.nanmean(values)) if not np.all(np.isnan(values)) else float("nan")


@dataclass
class MetricReport:
    class_names: tuple[str, ...]
    iou: np.ndarray      # nan where skipped
    acc: np.ndarray      # per-class recall
    fscore: np.ndarray
    include_background: bool

    @property
    def miou(self) -> float:
        return _mean(self.iou)

    @property
    def macc(self) -> float:
        return _mean(self.acc)

    @property
    def mfscore(self) -> float:
        return _mean(self.fscore)


def compute_metrics(cm: ConfusionMatrix, include_background: bool = True,
                    class_names: tuple[str, ...] | None = None) -> MetricReport:
    counts = cm.counts.astype(np.float64)
    tp = np.diag(counts)
    fp = counts.sum(axis=0) - tp
    fn = counts.sum(axis=1) - tp
    with np.errstate(divide="ignore", invalid="ignore"):
        iou = tp / (tp + fp + fn)
        acc = tp / (tp + fn)
        fscore = 2.0 * tp / (2.0 * tp + fp + fn)
    skipped = (tp + fp + fn) == 0
    for arr in (iou, acc, fscore):
        arr[skipped] = np.nan
    start = 0 if include_background else 1
    names = class_names or tuple(f"class{i}" for i in range(cm.num_classes))
    return MetricReport(class_names=names[start:], iou=iou[start:], acc=acc[start:],
                        fscore=fscore[start:], include_background=include_background)


def format_report(report: MetricReport) -> str:
    """Fixed-width per-class table plus a means row."""
    def cell(v: float) -> str:
        return "     -" if np.isnan(v) else f"{100.0 * v:6.2f}"

    lines = [f"{'class':<12s} {'IoU%':>6s} {'Acc%':>6s} {'Fscore%':>7s}"]
    for name, i, a, f in zip(report.class_names, report.iou, report.acc, report.fscore):
        lines.append(f"{name:<12s} {cell(i)} {cell(a)}  {cell(f)}")
    lines.append(f"{'mean':<12s} {cell(report.miou)} {cell(report.macc)} "
                 f" {cell(report.mfscore)}")
    return "\n".join(lines)


def report_lines(report: MetricReport) -> str:
    """Machine-readable key=value rendering."""
    lines = [f"include_background={str(report.include_background).lower()}"]
    for name, i, a, f in zip(report.class_names, report.iou, report.acc, report.fscore):
        lines.append(f"iou.{name}={i:.6f}")
        lines.append(f"acc.{name}={a:.6f}")
        lines.append(f"fscore.{name}={f:.6f}")
    lines.append(f"miou={report.miou:.6f}")
    lines.append(f"macc={report.macc:.6f}")
    lines.append(f"mfscore={report.mfscore:.6f}")
    return "\n".join(lines)
