"""End-to-end command-line behavior, including exit-code contracts."""

import numpy as np
import pytest

from armformer import data as D
from armformer.cli import main
from armformer.model import ArmFormer


CONFIG_SMALL = """\
# desk-scale training setup
model.preset = reduced
train.steps = 30
train.batch_size = 4
train.lr = 0.002
train.seed = 0
train.eval_every = 10
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One tiny synth dataset + trained checkpoint shared by the fast tests."""
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    assert main(["synth", "--out", str(data_dir), "--n", "10", "--size", "64",
                 "--seed", "0", "--splits", "0.6,0.2,0.2"]) == 0
    config = root / "train.cfg"
    config.write_text(CONFIG_SMALL)
    ckpt = root / "model.ckpt"
    assert main(["train", "--config", str(config), "--data", str(data_dir),
                 "--out", str(ckpt)]) == 0
    return root, data_dir, config, ckpt


class TestUsage:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "subcommand" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["synth", "--n", "4"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_bench_needs_a_source(self, capsys):
        assert main(["bench"]) == 1

    def test_bad_split_fractions(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "d"), "--n", "4",
                     "--splits", "0.5,0.5"]) == 1


class TestSynth:
    def test_directory_contract(self, workspace):
        _, data_dir, _, _ = workspace
        assert (data_dir / "images").is_dir()
        assert (data_dir / "masks").is_dir()
        for split in ("train", "val", "test"):
            assert (data_dir / "splits" / f"{split}.txt").is_file()
        names = (data_dir / "splits" / "train.txt").read_text().split()
        assert len(names) == 6
        mask = D.read_pgm(data_dir / "masks" / f"{names[0]}.pgm")
        assert set(np.unique(mask)) <= set(D.GRAY_VALUES)

    def test_invalid_size_exits_validation(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "x"), "--n", "2",
                     "--size", "60"]) == 3

    @pytest.mark.parametrize("splits", ["-0.5,1.5,0", "nan,0,0"])
    def test_split_fraction_outside_unit_interval(self, tmp_path, capsys, splits):
        out = tmp_path / "x"
        capsys.readouterr()
        assert main(["synth", "--out", str(out), "--n", "4", f"--splits={splits}"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "[0, 1]" in err[0]
        assert not out.exists()


BAD_ARGS = {
    "bench --size 0": "positive multiple of 32", "bench --size -32": "positive multiple of 32",
    "bench --size 48": "positive multiple of 32",
    "synth --n 2 --size 0": "positive multiple of 32",
    "synth --n 2 --size -32": "positive multiple of 32",
    "synth --n 2 --seed -1": "seed must be >= 0",
    "bench --warmup -5": "warmup must be >= 0"}


@pytest.mark.parametrize("args", BAD_ARGS)
def test_bad_size_is_validation_error(tmp_path, capsys, args):
    argv = args.split()
    cfg = tmp_path / "reduced.cfg"
    cfg.write_text("model.preset = reduced\n")
    extra = (["--config", str(cfg), "--warmup", "1", "--iters", "10"] if argv[0] == "bench"
             else ["--out", str(tmp_path / "d")])
    capsys.readouterr()
    # argparse keeps an option's last value, so the row's own flags go last
    assert main(argv[:1] + extra + argv[1:]) == 3
    out, err = capsys.readouterr()
    assert out == ""  # nothing is printed before the failing check
    assert len(err.splitlines()) == 1 and BAD_ARGS[args] in err


class TestTrain:
    def test_checkpoint_and_log_written(self, workspace):
        root, _, _, ckpt = workspace
        assert ckpt.is_file()
        log = root / "model.ckpt.log"
        lines = log.read_text().splitlines()
        assert len(lines) == 30
        assert lines[0].startswith("step=1 loss=")
        assert "miou=" in lines[9]  # eval hook fired at step 10

    def test_missing_config_is_io_error(self, workspace, capsys):
        _, data_dir, _, _ = workspace
        assert main(["train", "--config", "/nonexistent.cfg",
                     "--data", str(data_dir), "--out", "/tmp/x.ckpt"]) == 2

    def test_bad_config_value_is_validation_error(self, workspace, tmp_path, capsys):
        _, data_dir, _, _ = workspace
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("model.preset = reduced\ntrain.lr = -1\n")
        assert main(["train", "--config", str(cfg), "--data", str(data_dir),
                     "--out", str(tmp_path / "x.ckpt")]) == 3
        cfg.write_bytes(b"model.preset = reduced\nmodel.seed = \xff\xfe1\n")
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--data", str(data_dir),
                     "--out", str(tmp_path / "x.ckpt")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "bad.cfg is not UTF-8" in err[0]

    @pytest.mark.parametrize("name", ["validate", "__class__"])
    def test_non_field_schedule_key_is_validation_error(self, workspace, tmp_path,
                                                         capsys, name):
        _, data_dir, _, _ = workspace
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"model.preset = reduced\ntrain.{name} = 1\n")
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--data", str(data_dir),
                     "--out", str(tmp_path / "x.ckpt")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"train.{name}" in err[0]

    def test_removed_ham_key_is_validation_error(self, workspace, tmp_path, capsys):
        _, data_dir, _, _ = workspace
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("model.preset = reduced\nham.one_step_grad = true\n")
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--data", str(data_dir),
                     "--out", str(tmp_path / "x.ckpt")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "ham.one_step_grad" in err[0]

    @pytest.mark.parametrize("line, field", [
        ("model.input_size = 0", "input_size"), ("model.input_size = -32", "input_size"),
        ("model.seed = -1", "seed"), ("ham.seed = -5", "ham seed"),
        ("train.seed = -1", "seed"), ("train.eval_every = -1", "eval_every"),
        ("train.lr = nan", "lr"), ("train.weight_decay = nan", "weight_decay"),
        ("train.weight_decay = inf", "weight_decay"), ("train.weight_decay = -1", "weight_decay")])
    def test_out_of_range_value_is_validation_error(self, workspace, tmp_path, capsys,
                                                     line, field):
        _, data_dir, _, _ = workspace
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"model.preset = reduced\n{line}\n")
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--data", str(data_dir),
                     "--out", str(tmp_path / "x.ckpt"), "--steps", "2"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"{field} must be" in err[0]

    @pytest.mark.parametrize("line, steps", [("train.lr = nan", "2"), ("", "0")])
    def test_schedule_validated_before_data_and_model(self, workspace, tmp_path, capsys,
                                                      monkeypatch, line, steps):
        _, data_dir, _, _ = workspace
        calls = []
        monkeypatch.setattr(D.SegDataset, "load_all", lambda self: calls.append("load_all"))
        monkeypatch.setattr(ArmFormer, "__init__", lambda self, cfg: calls.append("model"))
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"model.preset = reduced\n{line}\n")
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--data", str(data_dir),
                     "--out", str(tmp_path / "x.ckpt"), "--steps", steps]) == 3
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert calls == []

    def test_steps_override(self, workspace, tmp_path):
        _, data_dir, config, _ = workspace
        out = tmp_path / "short.ckpt"
        assert main(["train", "--config", str(config), "--data", str(data_dir),
                     "--out", str(out), "--steps", "2"]) == 0
        assert len((tmp_path / "short.ckpt.log").read_text().splitlines()) == 2


class TestEval:
    def test_eval_prints_table_and_keys(self, workspace, capsys):
        _, data_dir, _, ckpt = workspace
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(data_dir),
                     "--split", "train"]) == 0
        out = capsys.readouterr().out
        assert "class" in out and "mean" in out
        entries = dict(ln.split("=", 1) for ln in out.splitlines() if "=" in ln)
        assert 0.0 <= float(entries["pixel_accuracy"]) <= 1.0
        assert "miou" in entries

    def test_corrupt_checkpoint_is_io_error(self, workspace, tmp_path, capsys):
        _, data_dir, _, ckpt = workspace
        bad = tmp_path / "bad.ckpt"
        blob = bytearray(ckpt.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        bad.write_bytes(bytes(blob))
        assert main(["eval", "--ckpt", str(bad), "--data", str(data_dir)]) == 2

    def test_undecodable_checkpoint_config_is_io_error(self, workspace, tmp_path, capsys):
        import hashlib
        _, data_dir, _, ckpt = workspace
        blob = bytearray(ckpt.read_bytes())
        blob[12] = 0xFF  # first byte of the embedded config text
        body = bytes(blob[:-8])
        bad = tmp_path / "undecodable.ckpt"
        bad.write_bytes(body + hashlib.sha256(body).digest()[:8])
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(bad), "--data", str(data_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_empty_split_is_validation_error(self, workspace, tmp_path, capsys):
        root, data_dir, _, ckpt = workspace
        empty = tmp_path / "emptyset"
        for sub in ("images", "masks", "splits"):
            (empty / sub).mkdir(parents=True)
        (empty / "splits" / "test.txt").write_text("")
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(empty)]) == 3
        (empty / "splits" / "test.txt").write_bytes(b"sample_\xff\xfe\n")
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(empty)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "test.txt is not UTF-8" in err[0]


class TestInfer:
    def test_mask_bytes_restricted_to_palette(self, workspace, tmp_path):
        _, data_dir, _, ckpt = workspace
        name = (data_dir / "splits" / "train.txt").read_text().split()[0]
        out = tmp_path / "pred.pgm"
        assert main(["infer", "--ckpt", str(ckpt),
                     "--image", str(data_dir / "images" / f"{name}.ppm"),
                     "--out", str(out)]) == 0
        mask = D.read_pgm(out)
        assert mask.shape == (64, 64)
        assert set(np.unique(mask)) <= {0, 51, 102, 153, 204, 255}

    def test_pure_function_of_inputs(self, workspace, tmp_path):
        _, data_dir, _, ckpt = workspace
        name = (data_dir / "splits" / "train.txt").read_text().split()[0]
        image = str(data_dir / "images" / f"{name}.ppm")
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        assert main(["infer", "--ckpt", str(ckpt), "--image", image,
                     "--out", str(a)]) == 0
        assert main(["infer", "--ckpt", str(ckpt), "--image", image,
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_resizes_foreign_geometry(self, workspace, tmp_path):
        _, _, _, ckpt = workspace
        rng = np.random.default_rng(0)
        src = tmp_path / "odd.ppm"
        D.write_ppm(src, rng.integers(0, 255, size=(50, 70, 3), dtype=np.uint8))
        out = tmp_path / "odd.pgm"
        assert main(["infer", "--ckpt", str(ckpt), "--image", str(src),
                     "--out", str(out)]) == 0
        assert D.read_pgm(out).shape == (50, 70)

    def test_missing_image_is_io_error(self, workspace, capsys):
        _, _, _, ckpt = workspace
        assert main(["infer", "--ckpt", str(ckpt), "--image", "/nope.ppm",
                     "--out", "/tmp/y.pgm"]) == 2
        assert "nope.ppm" in capsys.readouterr().err


class TestBench:
    def test_bench_from_config(self, workspace, tmp_path, capsys):
        _, _, config, _ = workspace
        assert main(["bench", "--config", str(config), "--size", "64",
                     "--warmup", "1", "--iters", "10"]) == 0
        out = capsys.readouterr().out
        assert "total_params=" in out
        assert "fps=" in out

    @pytest.mark.parametrize("key", ["stage1.patch_stride", "stage4.sr_ratio"])
    def test_removed_geometry_key_is_validation_error(self, tmp_path, capsys, key):
        cfg = tmp_path / "geometry.cfg"
        cfg.write_text(f"model.preset = reduced\n{key} = 2\n")
        capsys.readouterr()
        assert main(["bench", "--config", str(cfg), "--size", "64", "--no-speed"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and key in err[0]

    def test_bench_complexity_only(self, workspace, capsys):
        _, _, _, ckpt = workspace
        assert main(["bench", "--ckpt", str(ckpt), "--no-speed"]) == 0
        out = capsys.readouterr().out
        assert "total_flops=" in out and "fps=" not in out


class TestGradcheckCommand:
    def test_quick_level_passes(self, capsys):
        assert main(["gradcheck", "--level", "quick"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "FAIL" not in out
