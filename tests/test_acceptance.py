"""Acceptance suite: one test per numbered criterion, strictest tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The overfit training run (criterion 8) and its determinism twin
(criterion 10) dominate the runtime at roughly a minute each on a desktop
CPU; everything else finishes in seconds.
"""

import math

import numpy as np
import pytest

from armformer import data as D
from armformer import tensor as T
from armformer.cbam import CBAM
from armformer.cli import main
from armformer.decoder import HamConfig, ham_global_context
from armformer.gradcheck import grad_check, gradient_suites
from armformer.metrics import ConfusionMatrix, compute_metrics
from armformer.model import ArmFormer, ModelConfig, cross_entropy
from armformer.profiler import count_flops, _conv_cost, _linear_cost
from armformer.tensor import Tensor
from oracles import metrics_pixel_loop_oracle

TRAIN_CONFIG = """\
model.preset = reduced
train.steps = 300
train.batch_size = 8
train.lr = 0.001
train.weight_decay = 0.01
train.seed = 0
"""


def ok(n, message):
    print(f"criterion {n}: PASS - {message}")


@pytest.fixture(scope="module")
def overfit_run(tmp_path_factory):
    """Synth 8 images at 64x64 (seed 0) and train the reduced config once."""
    root = tmp_path_factory.mktemp("acceptance")
    data_dir = root / "data"
    assert main(["synth", "--out", str(data_dir), "--n", "8", "--size", "64",
                 "--seed", "0", "--splits", "1.0,0.0,0.0"]) == 0
    config = root / "train.cfg"
    config.write_text(TRAIN_CONFIG)
    ckpt = root / "run1.ckpt"
    assert main(["train", "--config", str(config), "--data", str(data_dir),
                 "--out", str(ckpt)]) == 0
    return root, data_dir, config, ckpt


def test_criterion_1_shape_contract():
    channels = (32, 64, 160, 256)
    model = ArmFormer(ModelConfig.default())
    for size, batch in ((64, 2), (640, 1)):
        x = Tensor(np.random.default_rng(0).uniform(0, 1, size=(batch, 3, size, size)))
        with T.no_grad():
            pyramid = model.encoder(x)
            logits = model.decoder(pyramid)
        for level, (f, c) in enumerate(zip(pyramid, channels)):
            scale = 4 * 2 ** level
            assert f.shape == (batch, c, size // scale, size // scale)
        assert logits.shape == (batch, 6, size, size)
    ok(1, "pyramid channels/scales (32,64,160,256)/(1/4..1/32) and "
          "[B,6,H,W] logits at 64 and 640")


def test_criterion_2_cbam_invariants():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        cbam = CBAM(8, rng, reduction=4, kernel=3)
        f = rng.uniform(-4, 4, size=(1, 8, 6, 6))
        out, maps = cbam(Tensor(f))
        for gate in (maps.channel.data, maps.spatial.data):
            assert np.all(gate > 0.0) and np.all(gate < 1.0)
        assert np.all(np.abs(out.data) <= np.abs(f))
        perm_px = rng.permutation(36)
        shuffled = f.reshape(1, 8, 36)[:, :, perm_px].reshape(1, 8, 6, 6)
        a = cbam.channel_attention(Tensor(f)).data
        b = cbam.channel_attention(Tensor(shuffled)).data
        assert np.allclose(a, b, atol=1e-12)
        perm_c = rng.permutation(8)
        a = cbam.spatial_attention(Tensor(f)).data
        b = cbam.spatial_attention(Tensor(f[:, perm_c])).data
        assert np.allclose(a, b, atol=1e-12)
    ok(2, "gate range, attenuation and pooling symmetries over 100 seeds")


def test_criterion_3_gradient_suite():
    def u(shape, seed, lo=-1.0, hi=1.0):
        return Tensor(np.random.default_rng(seed).uniform(lo, hi, size=shape),
                      requires_grad=True)

    a, b = u((3, 4), 0), u((4, 2), 1)
    x4 = u((2, 3, 5, 5), 2)
    w4 = u((4, 3, 3, 3), 3)
    wd = u((3, 1, 3, 3), 4)
    xl = u((2, 6), 8)
    g6, b6 = u((6,), 5, 0.5, 1.5), u((6,), 6)
    labels = np.random.default_rng(7).integers(0, 3, size=(2, 5, 5))
    primitives = {
        "matmul": (lambda: (T.matmul(a, b) * T.matmul(a, b)).sum(), {"a": a, "b": b}),
        "conv2d": (lambda: (T.conv2d(x4, w4, stride=2, padding=1) * 2.0).sum(),
                   {"x": x4, "w": w4}),
        "conv2d_depthwise": (lambda: (T.conv2d(x4, wd, padding=1, groups=3)
                                      * T.conv2d(x4, wd, padding=1, groups=3)).sum(),
                             {"x": x4, "w": wd}),
        "pool_avg": (lambda: (T.pool2d(x4, "avg") * 3.0).sum(), {"x": x4}),
        "pool_max": (lambda: (T.pool2d(x4, "max") * 3.0).sum(), {"x": x4}),
        "reduce_channel_avg": (lambda: (T.reduce_channel(x4, "avg") * 2.0).sum(), {"x": x4}),
        "reduce_channel_max": (lambda: (T.reduce_channel(x4, "max") * 2.0).sum(), {"x": x4}),
        "bilinear_resize": (lambda: (T.bilinear_resize(x4, 7, 3)
                                     * T.bilinear_resize(x4, 7, 3)).sum(), {"x": x4}),
        "sigmoid": (lambda: (T.sigmoid(a) * a).sum(), {"x": a}),
        "relu": (lambda: (T.relu(a) * a).sum(), {"x": a}),
        "gelu": (lambda: (T.gelu(a) * a).sum(), {"x": a}),
        "softmax": (lambda: (T.softmax(a, axis=1) * T.sigmoid(a)).sum(), {"a": a}),
        "layer_norm": (lambda: (T.layer_norm(xl, g6, b6)
                                * T.layer_norm(xl, g6, b6)).sum(),
                       {"x": xl, "gamma": g6, "beta": b6}),
        "cross_entropy": (lambda: T.softmax_cross_entropy(
            T.conv2d(x4, w4, stride=1, padding=1), labels), {"x": x4, "w": w4}),
    }
    worst = 0.0
    for name, (fn, params) in primitives.items():
        report = grad_check(fn, params, epsilon=1e-3, tolerance=1e-4)
        assert report.passed, f"{name}: {report}"
        worst = max(worst, report.max_rel_error)
    for name, report in gradient_suites("full"):
        assert report.passed, f"{name}: {report}"
        worst = max(worst, report.max_rel_error)
    ok(3, f"all primitive ops, CBAM, encoder stage, decoder (K=2/R=8) and "
          f"reduced end-to-end model at eps=1e-3 (worst rel err {worst:.2e})")


def test_criterion_4_loss_identities():
    labels = np.random.default_rng(0).integers(0, 6, size=(2, 4, 4))
    uniform = cross_entropy(Tensor.zeros((2, 6, 4, 4)), labels).item()
    assert abs(uniform - math.log(6)) <= 1e-9

    raw = np.zeros((2, 6, 4, 4))
    for bi in range(2):
        for i in range(4):
            for j in range(4):
                raw[bi, labels[bi, i, j], i, j] = 40.0
    assert cross_entropy(Tensor(raw), labels).item() < 1e-12

    two = cross_entropy(Tensor(np.array([0.0, math.log(3)]).reshape(1, 2, 1, 1)),
                        np.array([[[1]]])).item()
    assert abs(two - (-math.log(0.75))) <= 1e-9
    ok(4, "uniform logits -> ln 6, saturated -> <1e-12, "
          "two-class hand case -> -ln 0.75")


def test_criterion_5_metrics_oracle():
    rng = np.random.default_rng(42)
    for _ in range(200):
        pred = rng.integers(0, 6, size=(16, 16))
        gt = rng.integers(0, 6, size=(16, 16))
        cm = ConfusionMatrix(6).update(pred, gt)
        rep = compute_metrics(cm)
        iou, acc, fsc, miou, macc, mf = metrics_pixel_loop_oracle([(pred, gt)], 6)
        assert np.array_equal(rep.iou, iou, equal_nan=True)
        assert np.array_equal(rep.acc, acc, equal_nan=True)
        assert np.array_equal(rep.fscore, fsc, equal_nan=True)
        assert rep.miou == miou and rep.macc == macc and rep.mfscore == mf
        defined = ~np.isnan(rep.iou)
        ident = 2 * rep.iou[defined] / (1 + rep.iou[defined])
        assert np.all(np.abs(rep.fscore[defined] - ident) <= 1e-12)
    ok(5, "200 random pairs match the pixel-loop oracle exactly; "
          "F = 2*IoU/(1+IoU) holds to 1e-12")


def test_criterion_6_nmf_behavior():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        cfg = HamConfig(rank=5, iterations=6, context_channels=12, seed=seed)
        x = Tensor(rng.uniform(-1.5, 2.5, size=(2, 12, 4, 5)))
        trace = []
        ham_global_context(x, cfg, trace=trace)
        errs = np.stack([t.error for t in trace])
        assert np.all(errs[1:] <= errs[:-1] + 1e-9)
        for entry in trace:
            assert entry.bases.min() >= 0.0 and entry.codes.min() >= 0.0
    ok(6, "reconstruction error non-increasing (1e-9/step) and factors "
          "non-negative over 100 seeds")


def test_criterion_7_mask_codec(overfit_run):
    root, data_dir, _, ckpt = overfit_run
    labels = np.arange(6)
    assert np.array_equal(D.decode_mask(D.encode_mask(labels)), labels)

    for _, lab in D.synth_dataset(seed=3, count=8, size=64):
        assert lab.min() >= 0 and lab.max() < 6
    name = (data_dir / "splits" / "train.txt").read_text().split()[0]
    out = root / "pred.pgm"
    assert main(["infer", "--ckpt", str(ckpt),
                 "--image", str(data_dir / "images" / f"{name}.ppm"),
                 "--out", str(out)]) == 0
    assert set(np.unique(D.read_pgm(out))) <= {0, 51, 102, 153, 204, 255}
    ok(7, "palette round trip exact, synthetic ids in [0,6), "
          "infer emits palette bytes only")


def test_criterion_8_overfit_reproduction(overfit_run, capsys):
    root, data_dir, _, ckpt = overfit_run
    log_lines = (root / "run1.ckpt.log").read_text().splitlines()
    final_loss = float(log_lines[-1].split("loss=")[1].split()[0])
    assert final_loss < 0.05

    assert main(["eval", "--ckpt", str(ckpt), "--data", str(data_dir),
                 "--split", "train"]) == 0
    out = capsys.readouterr().out
    entries = dict(ln.split("=", 1) for ln in out.splitlines() if "=" in ln)
    miou = float(entries["miou"])
    pixacc = float(entries["pixel_accuracy"])
    assert pixacc >= 0.98
    assert miou >= 0.90
    ok(8, f"300-step overfit: loss {final_loss:.4f} < 0.05, "
          f"pixel acc {pixacc:.4f} >= 0.98, mIoU {miou:.4f} >= 0.90")


def test_criterion_9_complexity_accounting():
    assert _conv_cost(3, 1, 1, 8, 8)[1] == 576
    assert _conv_cost(1, 512, 256, 1, 1)[0] == 131328
    assert _linear_cost(32, 64, 100) == (32 * 64 + 64, 32 * 64 * 100)

    model = ArmFormer(ModelConfig.default())
    params = model.num_parameters()
    assert 3_000_000 <= params <= 4_500_000
    report = count_flops(model, (640, 640))
    assert report.total_params == params
    assert 2e9 <= report.total_flops <= 10e9
    ok(9, f"layer formulas exact; params {params / 1e6:.3f}M in [3.0, 4.5]M; "
          f"640x640 MACs {report.total_flops / 1e9:.3f}G in [2, 10]G")


def test_criterion_10_training_determinism(overfit_run):
    root, data_dir, config, ckpt1 = overfit_run
    ckpt2 = root / "run2.ckpt"
    assert main(["train", "--config", str(config), "--data", str(data_dir),
                 "--out", str(ckpt2)]) == 0
    assert ckpt1.read_bytes() == ckpt2.read_bytes()
    log1 = (root / "run1.ckpt.log").read_text()
    log2 = (root / "run2.ckpt.log").read_text()
    assert log1 == log2
    ok(10, "two full training runs produced bit-identical checkpoints "
           "and loss histories")
