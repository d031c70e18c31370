import gc

import numpy as np
import pytest

from armformer import tensor as T
from armformer.errors import ConfigError
from armformer.model import ArmFormer, ModelConfig
from armformer.nn import Module
from armformer.tensor import Tensor
from armformer.profiler import count_flops, measure_fps


class TestParamCounting:
    def test_empty_model_is_zero(self):
        assert Module().num_parameters() == 0

    def test_registry_matches_analytic_for_all_presets(self):
        for cfg in (ModelConfig.default(), ModelConfig.lightweight_cbam(),
                    ModelConfig.reduced()):
            model = ArmFormer(cfg)
            analytic = count_flops(model, (cfg.input_size, cfg.input_size))
            assert analytic.total_params == model.num_parameters()

    def test_breakdown_sums_to_total(self):
        report = count_flops(ArmFormer(ModelConfig.reduced()), (64, 64))
        assert report.total_params == sum(c.params for c in report.breakdown)
        assert report.total_flops == sum(c.flops for c in report.breakdown)


class TestFlopCounting:
    def test_conv_layers_scale_by_four_when_hw_doubles(self):
        model = ArmFormer(ModelConfig.reduced())
        small = {c.name: c.flops for c in count_flops(model, (64, 64)).breakdown}
        big = {c.name: c.flops for c in count_flops(model, (128, 128)).breakdown}
        for name in ("encoder.stage1.patch_embed", "encoder.stage4.patch_embed",
                     "decoder.squeeze", "decoder.classifier"):
            assert big[name] == 4 * small[name]

    def test_input_size_validated(self):
        with pytest.raises(ConfigError):
            count_flops(ArmFormer(ModelConfig.reduced()), (60, 64))

    def test_formula_sheet_ships_with_report(self):
        report = count_flops(ArmFormer(ModelConfig.reduced()), (64, 64))
        assert "MAC" in report.formula_sheet
        assert "conv2d" in report.formula_sheet

    @pytest.mark.parametrize("preset", ["reduced", "default"])
    def test_executed_macs_equal_closed_form(self, monkeypatch, preset):
        model = ArmFormer(getattr(ModelConfig, preset)())
        executed = []

        def counting(name, per_output_element):
            op = getattr(T, name)

            def wrapped(*args, **kwargs):
                out = op(*args, **kwargs)
                executed.append(out.size * per_output_element(*args))
                return out
            monkeypatch.setattr(T, name, wrapped)

        counting("matmul", lambda a, b: a.shape[-1])             # [..., M, K] @ [..., K, N]
        counting("conv2d", lambda x, w, *_: w.size // w.shape[0])  # Cin/groups * kh * kw
        model.predict(Tensor(np.random.default_rng(0).uniform(0, 1, size=(1, 3, 64, 64))))
        assert sum(executed) == count_flops(model, (64, 64)).total_flops

    def test_report_renders(self):
        report = count_flops(ArmFormer(ModelConfig.reduced()), (64, 64))
        text = str(report)
        assert "total" in text and "decoder.ham" in text
        kv = report.key_values()
        assert f"total_params={report.total_params}" in kv


class TestSpeed:
    def test_fps_positive_and_finite(self):
        model = ArmFormer(ModelConfig.reduced(input_size=32))
        report = measure_fps(model, (32, 32), warmup=1, iters=10)
        assert report.fps > 0 and np.isfinite(report.fps)
        assert report.mean_ms > 0
        assert report.iters == 10
        assert report.host  # embeds a machine descriptor
        # and the threads the tiles ran on, so an FPS figure says what produced it
        assert report.host.endswith(f" / {T.TILE_WORKERS} tile workers")

    def test_larger_input_is_slower(self):
        model = ArmFormer(ModelConfig.reduced(input_size=32))
        small = measure_fps(model, (32, 32), warmup=1, iters=10)
        big = measure_fps(model, (96, 96), warmup=1, iters=10)
        assert big.mean_ms > small.mean_ms

    def test_reduced_config_faster_than_default_at_same_size(self):
        toy = measure_fps(ArmFormer(ModelConfig.reduced()), (64, 64),
                          warmup=1, iters=10)
        full = measure_fps(ArmFormer(ModelConfig.default()), (64, 64),
                           warmup=1, iters=10)
        assert toy.mean_ms < full.mean_ms

    @pytest.mark.parametrize("fail_at", [None, 3])
    def test_collector_off_while_timing(self, monkeypatch, fail_at):
        model = ArmFormer(ModelConfig.reduced(input_size=32))
        states = []
        call = ArmFormer.__call__

        def spy(self, images):
            states.append(gc.isenabled())
            if len(states) == fail_at:
                raise RuntimeError("model failed")
            return call(self, images)

        monkeypatch.setattr(ArmFormer, "__call__", spy)
        assert gc.isenabled()
        if fail_at is None:
            measure_fps(model, (32, 32), warmup=1, iters=10)
            assert states == [True] + [False] * 10
        else:
            with pytest.raises(RuntimeError):
                measure_fps(model, (32, 32), warmup=1, iters=10)
            assert states == [True, False, False]
        assert gc.isenabled()

    def test_minimum_iteration_count(self):
        with pytest.raises(ConfigError):
            measure_fps(ArmFormer(ModelConfig.reduced(input_size=32)),
                        (32, 32), iters=5)
        with pytest.raises(ConfigError):
            measure_fps(ArmFormer(ModelConfig.reduced(input_size=32)),
                        (32, 32), warmup=-5, iters=10)

    def test_report_renders(self):
        model = ArmFormer(ModelConfig.reduced(input_size=32))
        report = measure_fps(model, (32, 32), warmup=0, iters=10)
        assert "FPS" in str(report)
        assert "fps=" in report.key_values()
