import numpy as np
import pytest

from armformer.errors import ContractError
from armformer.metrics import (ConfusionMatrix, compute_metrics, format_report,
                               report_lines)
from oracles import metrics_pixel_loop_oracle


def cm_from(counts):
    cm = ConfusionMatrix(len(counts))
    cm.counts = np.asarray(counts, dtype=np.int64)
    return cm


class TestAccumulation:
    def test_perfect_prediction_only_diagonal(self):
        cm = ConfusionMatrix(6)
        gt = np.random.default_rng(0).integers(0, 6, size=(8, 8))
        cm.update(gt, gt)
        off = cm.counts - np.diag(np.diag(cm.counts))
        assert off.sum() == 0
        assert cm.total() == 64

    def test_hand_counted_two_by_two(self):
        cm = ConfusionMatrix(2)
        gt = np.array([[0, 0], [1, 1]])
        pred = np.array([[0, 1], [1, 1]])
        cm.update(pred, gt)
        assert cm.counts[0, 0] == 1
        assert cm.counts[0, 1] == 1
        assert cm.counts[1, 1] == 2
        assert cm.counts[1, 0] == 0

    def test_accumulation_commutes(self):
        rng = np.random.default_rng(1)
        a = [rng.integers(0, 6, size=(4, 4)) for _ in range(4)]
        b = [rng.integers(0, 6, size=(4, 4)) for _ in range(4)]
        ab = ConfusionMatrix(6).update(a[0], b[0]).update(a[1], b[1])
        ba = ConfusionMatrix(6).update(a[1], b[1]).update(a[0], b[0])
        assert np.array_equal(ab.counts, ba.counts)

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            ConfusionMatrix(6).update(np.zeros((2, 2), int), np.zeros((3, 3), int))

    def test_out_of_range_ids(self):
        with pytest.raises(ContractError):
            ConfusionMatrix(2).update(np.array([2]), np.array([0]))


class TestComputeMetrics:
    def test_perfect_diagonal(self):
        rep = compute_metrics(cm_from([[10, 0], [0, 5]]))
        assert np.allclose(rep.iou, 1.0)
        assert np.allclose(rep.acc, 1.0)
        assert np.allclose(rep.fscore, 1.0)
        assert rep.miou == rep.macc == rep.mfscore == 1.0

    def test_hand_case(self):
        rep = compute_metrics(cm_from([[1, 1], [0, 2]]))
        assert rep.iou[0] == pytest.approx(1 / 2)
        assert rep.acc[0] == pytest.approx(1 / 2)
        assert rep.fscore[0] == pytest.approx(2 / 3)
        assert rep.iou[1] == pytest.approx(2 / 3)
        assert rep.acc[1] == pytest.approx(1.0)
        assert rep.fscore[1] == pytest.approx(4 / 5)
        assert rep.miou == pytest.approx((1 / 2 + 2 / 3) / 2)

    def test_matches_pixel_loop_oracle_exactly(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            pairs = [(rng.integers(0, 6, size=(16, 16)),
                      rng.integers(0, 6, size=(16, 16))) for _ in range(3)]
            cm = ConfusionMatrix(6)
            for pred, gt in pairs:
                cm.update(pred, gt)
            for include_bg in (True, False):
                rep = compute_metrics(cm, include_bg)
                iou, acc, fsc, miou, macc, mf = metrics_pixel_loop_oracle(
                    pairs, 6, include_bg)
                assert np.array_equal(rep.iou, iou, equal_nan=True)
                assert np.array_equal(rep.acc, acc, equal_nan=True)
                assert np.array_equal(rep.fscore, fsc, equal_nan=True)
                assert rep.miou == miou and rep.macc == macc and rep.mfscore == mf

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(5)
        pred = rng.integers(0, 6, size=(20, 20))
        gt = rng.integers(0, 6, size=(20, 20))
        perm = rng.permutation(6)
        base = compute_metrics(ConfusionMatrix(6).update(pred, gt))
        remap = compute_metrics(ConfusionMatrix(6).update(perm[pred], perm[gt]))
        # class c in the base report appears as class perm[c] in the remapped
        assert np.allclose(base.iou, remap.iou[perm], equal_nan=True)
        assert np.allclose(base.acc, remap.acc[perm], equal_nan=True)
        assert np.allclose(base.fscore, remap.fscore[perm], equal_nan=True)

    def test_batch_order_independence(self):
        rng = np.random.default_rng(6)
        shards = [(rng.integers(0, 4, size=(8, 8)), rng.integers(0, 4, size=(8, 8)))
                  for _ in range(5)]
        fwd = ConfusionMatrix(4)
        rev = ConfusionMatrix(4)
        for p, g in shards:
            fwd.update(p, g)
        for p, g in reversed(shards):
            rev.update(p, g)
        a, b = compute_metrics(fwd), compute_metrics(rev)
        assert np.array_equal(a.iou, b.iou, equal_nan=True)

    def test_absent_class_skipped_from_means(self):
        # class 2 never appears in gt or pred
        counts = np.zeros((3, 3), dtype=np.int64)
        counts[0, 0] = 5
        counts[1, 1] = 3
        counts[0, 1] = 2
        rep = compute_metrics(cm_from(counts))
        assert np.isnan(rep.iou[2])
        kept = [v for v in rep.iou if not np.isnan(v)]
        assert rep.miou == pytest.approx(np.mean(kept))

    def test_predicted_but_never_labeled_class(self):
        # gt never contains class 1, but predictions do: IoU defined (0),
        # recall undefined -> excluded from macc only
        counts = np.zeros((2, 2), dtype=np.int64)
        counts[0, 0] = 5
        counts[0, 1] = 3
        rep = compute_metrics(cm_from(counts))
        assert rep.iou[1] == 0.0
        assert np.isnan(rep.acc[1])
        assert rep.macc == pytest.approx(rep.acc[0])
        assert rep.miou == pytest.approx((rep.iou[0] + 0.0) / 2)


class TestReportFormats:
    def test_fixed_width_table(self):
        rep = compute_metrics(cm_from([[4, 1], [2, 3]]),
                              class_names=("background", "handgun"))
        text = format_report(rep)
        lines = text.splitlines()
        assert lines[0].split() == ["class", "IoU%", "Acc%", "Fscore%"]
        assert lines[1].startswith("background")
        assert lines[-1].startswith("mean")

    def test_key_value_lines(self):
        rep = compute_metrics(cm_from([[4, 1], [2, 3]]),
                              class_names=("background", "handgun"))
        text = report_lines(rep)
        entries = dict(ln.split("=", 1) for ln in text.splitlines())
        assert float(entries["miou"]) == pytest.approx(rep.miou, abs=1e-6)
        assert "iou.handgun" in entries
