import math
import sys
import threading

import numpy as np
import pytest

from armformer import model as M
from armformer import tensor as T
from armformer.data import synth_dataset
from armformer.decoder import HamConfig
from armformer.errors import (CheckpointError, ConfigError, ContractError,
                              DataError, TrainingError)
from armformer.model import (AdamW, ArmFormer, ModelConfig, TrainSchedule,
                             checkpoint_load, checkpoint_save, config_from_flat,
                             config_to_text, cross_entropy, fit, make_batch,
                             parse_flat_text, schedule_from_flat, train_step)
from armformer.tensor import Tensor


def toy_config(**kw):
    return ModelConfig.reduced(input_size=64, **kw)


def toy_batch(b=2, size=64, seed=0):
    rng = np.random.default_rng(seed)
    return make_batch([(rng.uniform(0, 1, size=(3, size, size)),
                        rng.integers(0, 6, size=(size, size)))
                       for _ in range(b)])


class TestModelInit:
    def test_same_seed_bit_identical(self):
        a = ArmFormer(toy_config(seed=5))
        b = ArmFormer(toy_config(seed=5))
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            assert np.array_equal(pa.data, pb.data)

    def test_different_seed_differs(self):
        a = ArmFormer(toy_config(seed=1))
        b = ArmFormer(toy_config(seed=2))
        assert any(not np.array_equal(pa.data, pb.data)
                   for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()))

    def test_registry_order_is_stable(self):
        names = [n for n, _ in ArmFormer(toy_config()).named_parameters()]
        assert names == [n for n, _ in ArmFormer(toy_config()).named_parameters()]
        assert names[0].startswith("encoder.stages.0")
        assert names[-1].startswith("decoder.classifier")

    def test_toy_param_count_matches_analytic_sum(self):
        # independent closed-form accounting for the reduced configuration:
        # channels 8/16/24/32, depths 1, heads 1/2/3/4, sr 8/4/2/1, ffn x4,
        # cbam r=16 k=7 everywhere, decoder context 64
        def stage(cin, c, k, sr):
            patch = k * k * cin * c + c + 2 * c
            attn = 4 * (c * c + c) + 2 * c                      # qkvo + norm1
            if sr > 1:
                attn += sr * sr * c * c + c + 2 * c             # sr conv + its norm
            ffn = (c * 4 * c + 4 * c) + (9 * 4 * c + 4 * c) + (4 * c * c + c) + 2 * c
            final_norm = 2 * c
            hidden = max(1, c // 16)
            cbam = 2 * c * hidden + 7 * 7 * 2
            return patch + attn + ffn + final_norm + cbam

        expect = (stage(3, 8, 7, 8) + stage(8, 16, 3, 4)
                  + stage(16, 24, 3, 2) + stage(24, 32, 3, 1))
        fused, ctx = 80, 64
        expect += 2 * fused * (fused // 16) + 98          # decoder pre cbam
        expect += fused * ctx + ctx                       # squeeze
        expect += 2 * ctx * (ctx // 16) + 98              # decoder post cbam
        expect += ctx * 6 + 6                             # classifier
        assert ArmFormer(toy_config()).num_parameters() == expect

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(input_size=100)
        with pytest.raises(ConfigError):
            ModelConfig(cbam_kernel=4)
        with pytest.raises(ConfigError):
            ModelConfig(cbam_reduction=0)

    def test_default_ham_is_ham_config_default(self):
        assert ModelConfig().ham == HamConfig()


class TestForward:
    def test_logit_shape(self):
        model = ArmFormer(toy_config())
        logits = model(toy_batch(b=2).images)
        assert logits.shape == (2, 6, 64, 64)

    def test_forward_deterministic(self):
        model = ArmFormer(toy_config())
        x = toy_batch(b=1).images
        a = model(x).data
        b = model(x).data
        assert np.array_equal(a, b)

    def test_indivisible_input_rejected(self):
        from armformer.errors import ShapeError
        model = ArmFormer(toy_config())
        with pytest.raises(ShapeError):
            model(Tensor.zeros((1, 3, 60, 60)))


class TestCrossEntropy:
    def test_out_of_range_label(self):
        with pytest.raises(ContractError):
            cross_entropy(Tensor.zeros((1, 6, 2, 2)), np.full((1, 2, 2), 6))


class TestAdamW:
    def test_three_step_scalar_trace(self):
        # hand-stepped reference for loss (w - 3)^2 with lr=0.1, no decay
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        w_ref, m_ref, v_ref = 1.0, 0.0, 0.0
        trace = []
        for t in range(1, 4):
            g = 2.0 * (w_ref - 3.0)
            m_ref = b1 * m_ref + (1 - b1) * g
            v_ref = b2 * v_ref + (1 - b2) * g * g
            w_ref -= lr * (m_ref / (1 - b1 ** t)) / (math.sqrt(v_ref / (1 - b2 ** t)) + eps)
            trace.append(w_ref)

        w = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamW([("w", w)], lr=lr, weight_decay=0.0)
        got = []
        for _ in range(3):
            w.zero_grad()
            ((w + (-3.0)) * (w + (-3.0))).sum().backward()
            opt.step()
            got.append(float(w.data[0]))
        assert np.allclose(got, trace, atol=1e-14)

    def test_lr_zero_is_identity(self):
        w = Tensor(np.array([2.0, -1.0]), requires_grad=True)
        opt = AdamW([("w", w)], lr=0.0, weight_decay=0.5)
        w.grad = np.array([1.0, 1.0])
        opt.step()
        assert np.array_equal(w.data, [2.0, -1.0])

    def test_zero_grad_zero_decay_is_identity(self):
        w = Tensor(np.array([2.0, -1.0]), requires_grad=True)
        opt = AdamW([("w", w)], lr=0.1, weight_decay=0.0)
        w.grad = np.zeros(2)
        opt.step()
        assert np.array_equal(w.data, [2.0, -1.0])

    def test_decay_without_grad_skips(self):
        # parameters that never received a gradient are left alone entirely
        w = Tensor(np.array([2.0]), requires_grad=True)
        opt = AdamW([("w", w)], lr=0.1, weight_decay=0.5)
        opt.step()
        assert np.array_equal(w.data, [2.0])


class TestTraining:
    def test_train_step_reduces_loss_over_window(self):
        model = ArmFormer(toy_config(seed=0))
        data = [(np.random.default_rng(i).uniform(0, 1, size=(3, 64, 64)),
                 np.random.default_rng(100 + i).integers(0, 6, size=(64, 64)))
                for i in range(2)]
        sched = TrainSchedule(steps=50, batch_size=2, lr=1e-3, weight_decay=0.0, seed=0)
        history = fit(model, data, sched)
        losses = [h.loss for h in history]
        assert all(np.isfinite(losses))
        assert np.mean(losses[-10:]) < np.mean(losses[:10])

    def test_fit_rejects_zero_steps(self):
        with pytest.raises(ConfigError):
            fit(ArmFormer(toy_config()), [toy_batch()], TrainSchedule(steps=0))

    def test_fit_rejects_empty_dataset(self):
        with pytest.raises(DataError):
            fit(ArmFormer(toy_config()),
                [], TrainSchedule(steps=1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_training_error_on_nonfinite_loss(self):
        model = ArmFormer(toy_config())
        for _, p in model.named_parameters():
            p.data[...] = np.inf
        batch = toy_batch(b=1)
        opt = AdamW([(n, p) for n, p in model.named_parameters()])
        with pytest.raises(TrainingError):
            train_step(model, batch, opt)

    def test_same_seed_identical_history(self):
        data = [(np.random.default_rng(7).uniform(0, 1, size=(3, 64, 64)),
                 np.random.default_rng(8).integers(0, 6, size=(64, 64)))]

        def run():
            model = ArmFormer(toy_config(seed=3))
            sched = TrainSchedule(steps=8, batch_size=1, lr=1e-3, seed=9)
            return [h.loss for h in fit(model, data, sched)], checkpoint_save(model)

        (hist_a, ckpt_a), (hist_b, ckpt_b) = run(), run()
        assert hist_a == hist_b
        assert ckpt_a == ckpt_b

    def test_eval_hook_runs_periodically(self):
        model = ArmFormer(toy_config())
        data = [(np.zeros((3, 64, 64)), np.zeros((64, 64), dtype=np.int64))]
        sched = TrainSchedule(steps=6, batch_size=1, eval_every=3)
        calls = []
        history = fit(model, data, sched,
                      eval_fn=lambda m: calls.append(1) or {"miou": 1.0})
        assert len(calls) == 2
        assert history[2].metrics == {"miou": 1.0}
        assert history[0].metrics is None


class TestSplitStep:
    """A batch trains through ``T.run_whole``: two or more images as two halves at once,
    on the model and a replica; one image as one part, on the model."""

    @pytest.mark.parametrize("b", [2, 3, 8])
    def test_fit_same_bits_at_every_worker_count(self, monkeypatch, b):
        data = synth_dataset(5, 8, 64)

        def run():
            model = ArmFormer(toy_config(seed=2))
            history = fit(model, data, TrainSchedule(steps=2, batch_size=b, seed=4))
            return [h.loss for h in history], checkpoint_save(model)

        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # the halves' threads trade the interpreter often
        try:
            for workers in (1, 2, 3, 4):
                monkeypatch.setattr(T, "TILE_WORKERS", workers)
                runs.append(run())
        finally:
            sys.setswitchinterval(interval)
        assert all(r == runs[0] for r in runs[1:])

    def test_batch_one_is_one_graph(self, monkeypatch):
        monkeypatch.setattr(T, "TILE_WORKERS", 2)
        batch = toy_batch(b=1, seed=3)
        model, twin = ArmFormer(toy_config(seed=6)), ArmFormer(toy_config(seed=6))
        replica = model.replica()
        value = train_step(model, batch, AdamW(list(model.named_parameters())), replica)
        assert all(r.grad is None for r in replica.parameters())
        opt = AdamW(list(twin.named_parameters()))
        loss = cross_entropy(twin(batch.images), batch.labels)
        loss.backward()
        opt.step()
        assert value == loss.item()
        assert all(np.array_equal(p.data, q.data)
                   for p, q in zip(model.parameters(), twin.parameters()))

    def test_halves_match_whole_batch_to_rounding(self, monkeypatch):
        # 2 + 1 images: each half's loss weighted by its share of the pixels
        model, batch = ArmFormer(toy_config(seed=7)), toy_batch(b=3, seed=8)
        loss = cross_entropy(model(batch.images), batch.labels)
        loss.backward()
        whole = [p.grad for p in model.parameters()]
        grads = []
        monkeypatch.setattr(AdamW, "step", lambda opt: grads.extend(p.grad for _, p in opt.params))
        for p in model.parameters():
            p.zero_grad()
        value = train_step(model, batch, AdamW(list(model.named_parameters())))
        assert value == pytest.approx(loss.item(), rel=1e-12)
        assert len(grads) == len(whole)
        scale = max(np.abs(g).max() for g in whole)  # some gradients are 0 up to rounding
        for got, want in zip(grads, whole):
            assert np.allclose(got, want, rtol=1e-9, atol=1e-12 * scale)

    def test_halves_share_weight_arrays_and_no_tensor(self, monkeypatch):
        logits = []

        def spy(out, labels):
            logits.append(out)
            return cross_entropy(out, labels)

        monkeypatch.setattr(M, "cross_entropy", spy)
        model = ArmFormer(toy_config())
        replica = model.replica()
        for p, r in zip(model.parameters(), replica.parameters()):
            assert p is not r and p.data is r.data
        train_step(model, toy_batch(b=3), AdamW(list(model.named_parameters())), replica)
        graphs = []
        for out in sorted(logits, key=lambda t: -t.shape[0]):  # the model's half first
            seen, stack = {id(out): out}, [out]
            while stack:
                for parent in stack.pop()._parents:
                    if id(parent) not in seen:
                        seen[id(parent)] = parent
                        stack.append(parent)
            graphs.append(seen)
        assert sorted(t.shape[0] for t in logits) == [1, 2]
        assert not set(graphs[0]) & set(graphs[1])
        for net, graph in zip((model, replica), graphs):
            assert {id(p) for p in net.parameters()} <= set(graph)
        assert all(r.grad is None for r in replica.parameters())

    @pytest.mark.parametrize("b", [1, 2])
    def test_half_ops_submit_nothing(self, monkeypatch, submitted, b):
        monkeypatch.setattr(T, "TILE_WORKERS", 2)
        monkeypatch.setattr(T, "_SHARE_BYTES", 8)
        monkeypatch.setattr(T, "_TILE_BYTES", 1 << 12)
        model, batch = ArmFormer(toy_config()), toy_batch(b=b)
        cross_entropy(model(batch.images), batch.labels).backward()
        assert len(submitted) > 100  # the same ops outside a part split
        submitted.clear()
        train_step(model, batch, AdamW(list(model.named_parameters())))
        # the second half, if any, and nothing from inside a part
        assert len(submitted) == b - 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [0, 1])
    def test_nonfinite_loss_in_either_half(self, bad):
        model, batch = ArmFormer(toy_config()), toy_batch(b=2)
        batch.images.data[bad] = np.nan
        opt = AdamW(list(model.named_parameters()))
        with pytest.raises(TrainingError, match="non-finite loss nan at optimizer step 1;"):
            train_step(model, batch, opt)
        assert opt.t == 0 and all(p.grad is None for p in model.parameters())

    def test_error_in_pooled_half_reaches_caller(self, monkeypatch):
        monkeypatch.setattr(T, "TILE_WORKERS", 2)
        model = ArmFormer(toy_config())
        opt = AdamW(list(model.named_parameters()))
        replica = model.replica()
        started, encoder = threading.Event(), model.encoder

        def failing(images):  # the replica's half, which the pool runs
            started.set()
            raise ValueError(f"half on {threading.current_thread().name} failed")

        def waiting(images):  # the model's half, on the calling thread
            assert started.wait(timeout=30)
            return encoder(images)

        replica.encoder, model.encoder = failing, waiting
        with pytest.raises(ValueError, match="half on armformer-tiles.* failed"):
            train_step(model, toy_batch(b=2), opt, replica)
        assert opt.t == 0 and all(p.grad is None for p in model.parameters())


class TestCheckpoint:
    def test_roundtrip_idempotent(self):
        model = ArmFormer(toy_config(seed=4))
        blob = checkpoint_save(model)
        again = checkpoint_save(checkpoint_load(blob))
        assert blob == again

    def test_forward_identical_after_load(self):
        model = ArmFormer(toy_config(seed=5))
        x = toy_batch(b=1, seed=2).images
        expect = model(x).data
        loaded = checkpoint_load(checkpoint_save(model))
        assert np.array_equal(loaded(x).data, expect)

    # SHA-256 of the parameter table (count, then name, shape and float64 payload
    # per parameter) as first written; a renamed, reordered, reshaped or
    # re-initialized parameter changes it
    @pytest.mark.parametrize("preset, digest", [
        ("reduced", "603dd93335f8c31ad6ed45a4137855f29f9c590ebf018c384c0ef354bde045e0"),
        ("default", "b05f21219262d53493bd549abd7dee500d0d14bbafd10408c355505bb4fe1716"),
    ])
    def test_parameter_table_pinned(self, preset, digest):
        import hashlib
        blob = checkpoint_save(ArmFormer(getattr(ModelConfig, preset)()))
        cfg_len = int.from_bytes(blob[8:12], "little")
        assert hashlib.sha256(blob[12 + cfg_len:-8]).hexdigest() == digest

    def test_single_corrupt_byte_detected(self):
        blob = bytearray(checkpoint_save(ArmFormer(toy_config())))
        blob[len(blob) // 2] ^= 0x40
        with pytest.raises(CheckpointError):
            checkpoint_load(bytes(blob))

    def test_version_mismatch_detected(self):
        import hashlib
        blob = bytearray(checkpoint_save(ArmFormer(toy_config())))
        blob[4] = 99  # version field follows the 4-byte magic
        body = bytes(blob[:-8])
        blob = body + hashlib.sha256(body).digest()[:8]
        with pytest.raises(CheckpointError, match="version"):
            checkpoint_load(blob)

    @staticmethod
    def _resealed(blob: bytearray) -> bytes:
        import hashlib
        body = bytes(blob[:-8])
        return body + hashlib.sha256(body).digest()[:8]

    def test_undecodable_config_bytes_rejected(self):
        blob = bytearray(checkpoint_save(ArmFormer(toy_config())))
        blob[12] = 0xFF  # first config byte, after magic, version and length
        with pytest.raises(CheckpointError, match="config"):
            checkpoint_load(self._resealed(blob))

    def test_undecodable_parameter_name_rejected(self):
        blob = bytearray(checkpoint_save(ArmFormer(toy_config())))
        cfg_len = int.from_bytes(blob[8:12], "little")
        blob[12 + cfg_len + 4 + 2] = 0xFF  # after the count and the name length
        with pytest.raises(CheckpointError, match="UTF-8"):
            checkpoint_load(self._resealed(blob))

    def test_version_1_rejected_by_version(self):
        blob = bytearray(checkpoint_save(ArmFormer(toy_config())))
        for version in (1, 2, 3, 4, 5):  # earlier layouts carry config keys that are gone
            blob[4:8] = version.to_bytes(4, "little")
            with pytest.raises(CheckpointError,
                               match=f"unsupported checkpoint version {version}"):
                checkpoint_load(self._resealed(blob))

    def test_negative_seed_in_checkpoint_rejected(self):
        blob = checkpoint_save(ArmFormer(toy_config()))
        cfg_len = int.from_bytes(blob[8:12], "little")
        text = blob[12:12 + cfg_len].replace(b"model.seed = 0\n", b"model.seed = -1\n")
        assert len(text) == cfg_len + 1
        forged = (blob[:8] + len(text).to_bytes(4, "little") + text
                  + blob[12 + cfg_len:])
        with pytest.raises(CheckpointError, match="seed must be >= 0"):
            checkpoint_load(self._resealed(bytearray(forged)))

    def test_even_cbam_kernel_in_checkpoint_rejected(self):
        blob = checkpoint_save(ArmFormer(toy_config()))
        cfg_len = int.from_bytes(blob[8:12], "little")
        text = blob[12:12 + cfg_len].replace(b"cbam.kernel = 7\n", b"cbam.kernel = 4\n")
        assert len(text) == cfg_len
        forged = blob[:12] + text + blob[12 + cfg_len:]
        with pytest.raises(CheckpointError, match="cbam kernel must be odd"):
            checkpoint_load(self._resealed(bytearray(forged)))

    def test_zero_stage_channels_in_checkpoint_rejected(self):
        blob = checkpoint_save(ArmFormer(toy_config()))
        cfg_len = int.from_bytes(blob[8:12], "little")
        text = blob[12:12 + cfg_len].replace(b"stage1.channels = 8\n", b"stage1.channels = 0\n")
        assert len(text) == cfg_len and text != blob[12:12 + cfg_len]
        forged = blob[:12] + text + blob[12 + cfg_len:]
        with pytest.raises(CheckpointError, match="invalid stage config"):
            checkpoint_load(self._resealed(bytearray(forged)))

    def test_non_finite_parameter_in_checkpoint_rejected(self):
        model = ArmFormer(toy_config())
        name, p = list(model.named_parameters())[-1]
        p.data.flat[0] = np.nan
        with pytest.raises(CheckpointError, match=f"non-finite values in parameter '{name}'"):
            checkpoint_load(checkpoint_save(model))


class TestConfigText:
    def test_roundtrip_through_flat_text(self):
        for cfg in (ModelConfig.default(), ModelConfig.lightweight_cbam(),
                    ModelConfig.reduced(input_size=96, seed=3)):
            entries = parse_flat_text(config_to_text(cfg))
            assert config_from_flat(entries) == cfg

    def test_preset_and_override(self):
        cfg = config_from_flat({"model.preset": "reduced",
                                "model.seed": "11", "ham.rank": "4"})
        assert cfg.stages[0].channels == 8
        assert cfg.seed == 11 and cfg.ham.rank == 4

    @pytest.mark.parametrize("key", ["model.bogus", "ham.one_step_grad", "ham.eps",
                                     "stage1.patch_stride", "stage2.patch_kernel",
                                     "stage3.patch_padding", "stage4.ffn_expansion",
                                     "cbam.reductions", "cbam.kernels", "model.num_classes"])
    def test_unknown_key_rejected(self, key):
        with pytest.raises(ConfigError, match="unknown config key"):
            config_from_flat({key: "1"})

    def test_entries_left_unchanged(self):
        entries = {"model.preset": "reduced", "model.seed": "3", "train.steps": "5"}
        before = dict(entries)
        config_from_flat(entries)
        assert entries == before

    def test_key_table(self):
        text = config_to_text(ModelConfig.reduced())
        assert len(text.splitlines()) == 20
        assert "cbam.kernel = 7\n" in text
        assert "ham.eps" not in text and "ham.one_step_grad" not in text
        assert "patch_" not in text and "ffn_expansion" not in text and "sr_ratio" not in text
        for cfg in (ModelConfig.default(), ModelConfig.lightweight_cbam()):
            assert len(config_to_text(cfg).splitlines()) == 20
            assert "," not in config_to_text(cfg)
        assert "," not in text

    def test_cbam_keys_reach_all_six_sites(self):
        cfg = config_from_flat({"model.preset": "reduced",
                                "cbam.reduction": "8", "cbam.kernel": "5"})
        model = ArmFormer(cfg)
        sites = [s.cbam for s in model.encoder.stages]
        sites += [model.decoder.cbam_pre, model.decoder.cbam_post]
        assert [b.w1.shape[1] for b in sites] == [1, 2, 3, 4, 10, 8]
        assert all(b.conv.weight.shape == (1, 2, 5, 5) for b in sites)

    @pytest.mark.parametrize("section", ["stage0", "stage5", "stage-2", "stage01"])
    def test_stage_section_out_of_range_rejected(self, section):
        with pytest.raises(ConfigError, match=section):
            config_from_flat({f"{section}.depth": "1"})

    def test_stage_sections_map_to_their_stage(self):
        cfg = config_from_flat({"stage1.depth": "5", "stage4.depth": "7"})
        base = ModelConfig.default()
        assert [s.depth for s in cfg.stages] == [5, base.stages[1].depth,
                                                 base.stages[2].depth, 7]

    @pytest.mark.parametrize("name", ["validate", "__class__"])
    def test_schedule_rejects_non_field_attributes(self, name):
        with pytest.raises(ConfigError, match=name):
            schedule_from_flat({f"train.{name}": "1"})

    def test_comments_and_blank_lines(self):
        entries = parse_flat_text("# comment\n\nmodel.seed = 7  # inline\n")
        assert entries == {"model.seed": "7"}

    def test_lightweight_preset_values(self):
        cfg = ModelConfig.lightweight_cbam()
        assert cfg.cbam_reduction == 32
        assert cfg.cbam_kernel == 3
