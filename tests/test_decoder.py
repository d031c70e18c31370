import numpy as np
import pytest

from armformer.decoder import (HamConfig, HamDecoder, fuse_pyramid,
                               ham_global_context)
from armformer.encoder import FeaturePyramid
from armformer.errors import ConfigError, ShapeError
from armformer.tensor import Tensor


def rng(seed=0):
    return np.random.default_rng(seed)


def toy_pyramid(b=1, base=16, channels=(32, 64, 160, 256), fill=None, seed=0):
    r = rng(seed)
    feats = []
    for i, c in enumerate(channels):
        s = base // (2 ** i)
        if fill is None:
            feats.append(Tensor(r.normal(size=(b, c, s, s))))
        else:
            feats.append(Tensor.full((b, c, s, s), fill[i]))
    return FeaturePyramid(*feats)


class TestHamConfig:
    def test_defaults(self):
        cfg = HamConfig()
        assert cfg.rank == 16 and cfg.iterations == 2
        assert cfg.context_channels == 256

    def test_rank_bounds(self):
        with pytest.raises(ConfigError):
            HamConfig(rank=0)
        with pytest.raises(ConfigError):
            HamConfig(rank=64, context_channels=64)
        with pytest.raises(ConfigError):
            HamConfig(iterations=0)


class TestFusePyramid:
    def test_shapes(self):
        fused = fuse_pyramid(toy_pyramid(b=2))
        assert fused.shape == (2, 512, 16, 16)

    def test_constant_blocks_preserved(self):
        fills = (0.5, -1.0, 2.0, 0.25)
        fused = fuse_pyramid(toy_pyramid(fill=fills)).data
        for block, (lo, hi) in zip(fills, ((0, 32), (32, 96), (96, 256), (256, 512))):
            assert np.allclose(fused[:, lo:hi], block, atol=1e-12)

    def test_zero_pyramid(self):
        fused = fuse_pyramid(toy_pyramid(fill=(0, 0, 0, 0)))
        assert np.array_equal(fused.data, np.zeros_like(fused.data))

    def test_batch_mismatch_rejected(self):
        p = toy_pyramid()
        bad = FeaturePyramid(Tensor.zeros((2, 32, 16, 16)), p.f2, p.f3, p.f4)
        with pytest.raises(ShapeError):
            fuse_pyramid(bad)


class TestHamContext:
    def test_nonpositive_input_is_identity(self):
        cfg = HamConfig(rank=4, iterations=3, context_channels=8)
        x = Tensor(-np.abs(rng(1).normal(size=(2, 8, 4, 4))))
        out = ham_global_context(x, cfg)
        assert np.array_equal(out.data, x.data)

    def test_reconstruction_error_non_increasing(self):
        for seed in range(20):
            cfg = HamConfig(rank=6, iterations=8, context_channels=16, seed=seed)
            x = Tensor(rng(seed).uniform(-1, 2, size=(2, 16, 5, 5)))
            trace = []
            ham_global_context(x, cfg, trace=trace)
            assert len(trace) == cfg.iterations + 1
            errs = np.stack([t.error for t in trace])  # (K+1, B)
            assert np.all(errs[1:] <= errs[:-1] + 1e-9)

    def test_full_rank_tiny_problem_converges(self):
        # rank = min(C, HW): the factorization can represent Z exactly, so a
        # long multiplicative-update run must drive the relative error small
        z = rng(7).uniform(0.1, 1.0, size=(1, 4, 2, 3))  # C=4, HW=6
        cfg = HamConfig(rank=4, iterations=800, context_channels=8, seed=3)
        trace = []
        ham_global_context(Tensor(z), cfg, trace=trace)
        rel = np.sqrt(trace[-1].error[0]) / np.linalg.norm(z.reshape(4, 6))
        assert rel < 1e-2


class TestDecoder:
    def build(self, seed=0):
        ham = HamConfig(rank=8, iterations=2, context_channels=64)
        return HamDecoder((32, 64, 160, 256), 6, ham, rng(seed), 16, 7)

    def test_logits_shape(self):
        dec = self.build()
        logits = dec(toy_pyramid(b=2))
        assert logits.shape == (2, 6, 64, 64)

    def test_zero_pyramid_zero_weights(self):
        dec = self.build()
        for _, p in dec.named_parameters():
            p.data[...] = 0.0
        logits = dec(toy_pyramid(fill=(0, 0, 0, 0)))
        assert np.array_equal(logits.data, np.zeros_like(logits.data))

    def test_pre_context_gate_is_wired(self):
        dec = self.build(seed=4)
        pyramid = toy_pyramid(seed=5)
        import armformer.tensor as T
        from armformer.decoder import ham_global_context as ham
        full = dec(pyramid)
        # ablated forward that skips the pre-context CBAM
        x = T.relu(dec.squeeze(fuse_pyramid(pyramid)))
        x = ham(x, dec.ham)
        x, _ = dec.cbam_post(x)
        ablated = dec.classifier(x)
        ablated = T.bilinear_resize(ablated, 4 * ablated.shape[2], 4 * ablated.shape[3])
        assert not np.allclose(full.data, ablated.data)
