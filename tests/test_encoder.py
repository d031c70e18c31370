import numpy as np
import pytest

from armformer import tensor as T
from armformer.encoder import (DEFAULT_STAGES, STAGE_GEOMETRY, EfficientSelfAttention,
                               MitEncoder, MixFFN, OverlapPatchEmbed, StageConfig)
from armformer.errors import ConfigError, ShapeError
from armformer.tensor import Tensor
from oracles import conv2d_oracle


def rng(seed=0):
    return np.random.default_rng(seed)


def build_encoder(seed=0, stages=DEFAULT_STAGES):
    return MitEncoder(stages, rng(seed), cbam_reduction=16, cbam_kernel=7)


def set_identity_linear(linear):
    linear.weight.data[...] = np.eye(linear.weight.shape[0])
    linear.bias.data[...] = 0.0


class TestStageConfig:
    def test_heads_must_divide_channels(self):
        with pytest.raises(ConfigError):
            StageConfig(30, 2, 4)

    @pytest.mark.parametrize("fields", [(0, 2, 1), (8, 0, 1), (8, 2, 0)])
    def test_non_positive_field_is_config_error(self, fields):
        with pytest.raises(ConfigError, match="invalid stage config"):
            StageConfig(*fields)

    def test_default_schedule(self):
        assert [s.channels for s in DEFAULT_STAGES] == [32, 64, 160, 256]
        assert [stride for _, stride, _ in STAGE_GEOMETRY] == [4, 2, 2, 2]
        assert [sr_ratio for _, _, sr_ratio in STAGE_GEOMETRY] == [8, 4, 2, 1]


class TestPatchEmbed:
    def test_stage1_geometry(self):
        embed = OverlapPatchEmbed(3, 32, 7, 4, rng(1))
        tokens, h, w = embed(Tensor.zeros((2, 3, 64, 64)))
        assert (h, w) == (16, 16)
        assert tokens.shape == (2, 256, 32)

    def test_stage2_geometry(self):
        embed = OverlapPatchEmbed(32, 64, 3, 2, rng(2))
        tokens, h, w = embed(Tensor.zeros((1, 32, 16, 16)))
        assert (h, w) == (8, 8)
        assert tokens.shape == (1, 64, 64)

    def test_zero_network_zero_tokens(self):
        embed = OverlapPatchEmbed(3, 32, 7, 4, rng(3))
        embed.conv.weight.data[...] = 0.0
        embed.conv.bias.data[...] = 0.0
        tokens, _, _ = embed(Tensor.zeros((1, 3, 64, 64)))
        assert np.array_equal(tokens.data, np.zeros_like(tokens.data))


class TestAttention:
    def test_single_token_identity_projections(self):
        attn = EfficientSelfAttention(3, heads=1, sr_ratio=1, rng=rng(4))
        for lin in (attn.q, attn.k, attn.v, attn.proj):
            set_identity_linear(lin)
        tokens = Tensor(np.array([[[0.3, -1.2, 0.8]]]))
        out = attn(tokens, 1, 1)
        assert np.allclose(out.data, tokens.data, atol=1e-12)

    def test_rows_are_probability_distributions(self, monkeypatch):
        attn = EfficientSelfAttention(8, heads=2, sr_ratio=2, rng=rng(5))
        tokens = Tensor(rng(6).normal(size=(2, 16, 8)))
        captured = []
        softmax = T.softmax

        def spy(x, axis, scale=1.0):
            captured.append(softmax(x, axis, scale=scale))
            return captured[-1]

        monkeypatch.setattr(T, "softmax", spy)
        attn(tokens, 4, 4)
        (weights,) = captured
        assert weights.shape == (2, 2, 16, 4)  # 4x4 keys reduced by sr=2
        assert np.allclose(weights.data.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(weights.data > 0)

    def test_two_token_hand_case(self):
        attn = EfficientSelfAttention(2, heads=1, sr_ratio=1, rng=rng(7))
        wq = np.array([[0.5, 0.1], [-0.2, 0.4]])
        wk = np.array([[0.3, -0.1], [0.2, 0.6]])
        wv = np.array([[1.0, 0.0], [0.0, -1.0]])
        attn.q.weight.data[...] = wq
        attn.k.weight.data[...] = wk
        attn.v.weight.data[...] = wv
        for lin in (attn.q, attn.k, attn.v):
            lin.bias.data[...] = 0.0
        set_identity_linear(attn.proj)
        x = np.array([[0.7, -0.3], [1.1, 0.4]])
        q, k, v = x @ wq, x @ wk, x @ wv
        scores = q @ k.T / np.sqrt(2.0)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        expect = (e / e.sum(axis=1, keepdims=True)) @ v
        out = attn(Tensor(x.reshape(1, 2, 2)), 2, 1)
        assert np.allclose(out.data[0], expect, atol=1e-12)

    def test_token_count_checked(self):
        attn = EfficientSelfAttention(4, heads=1, sr_ratio=1, rng=rng(8))
        with pytest.raises(ShapeError):
            attn(Tensor.zeros((1, 5, 4)), 2, 2)


class TestMixFFN:
    def test_zero_network(self):
        ffn = MixFFN(4, rng=rng(9))
        for _, p in ffn.named_parameters():
            p.data[...] = 0.0
        out = ffn(Tensor(rng(10).normal(size=(1, 9, 4))), 3, 3)
        assert np.array_equal(out.data, np.zeros((1, 9, 4)))

    def test_interior_constant_field_matches_depthwise_oracle(self):
        ffn = MixFFN(2, rng=rng(11))
        h = w = 5
        tokens = Tensor(np.tile(np.array([0.4, -0.8]), (1, h * w, 1)))
        out = ffn(tokens, h, w).data[0].reshape(h, w, 2)
        # oracle: replay the pipeline with the nested-loop depthwise conv
        hidden = tokens.data @ ffn.fc1.weight.data + ffn.fc1.bias.data
        grid = hidden.reshape(1, h, w, 8).transpose(0, 3, 1, 2)
        conv = conv2d_oracle(grid, ffn.dw.weight.data, ffn.dw.bias.data,
                             stride=1, padding=1, groups=8)
        c = np.sqrt(2 / np.pi)
        act = 0.5 * conv * (1 + np.tanh(c * (conv + 0.044715 * conv ** 3)))
        expect = (act.transpose(0, 2, 3, 1).reshape(h * w, 8)
                  @ ffn.fc2.weight.data + ffn.fc2.bias.data).reshape(h, w, 2)
        assert np.allclose(out, expect, atol=1e-12)
        # zero padding breaks constancy at the borders but not inside
        interior = out[1:-1, 1:-1]
        assert np.allclose(interior, interior[0, 0], atol=1e-12)

    def test_single_pixel_hand_case(self):
        ffn = MixFFN(2, rng=rng(12))
        x = np.array([[0.9, -0.4]])
        hidden = x @ ffn.fc1.weight.data + ffn.fc1.bias.data
        # at 1x1 spatial extent the depthwise 3x3 sees only its center tap
        center = ffn.dw.weight.data[:, 0, 1, 1]
        conv = hidden * center + ffn.dw.bias.data
        c = np.sqrt(2 / np.pi)
        act = 0.5 * conv * (1 + np.tanh(c * (conv + 0.044715 * conv ** 3)))
        expect = act @ ffn.fc2.weight.data + ffn.fc2.bias.data
        out = ffn(Tensor(x.reshape(1, 1, 2)), 1, 1)
        assert np.allclose(out.data[0], expect, atol=1e-12)


class TestEncoderForward:
    def test_pyramid_shapes_non_square(self):
        enc = build_encoder(seed=15)
        pyramid = enc(Tensor(rng(16).uniform(0, 1, size=(2, 3, 64, 96))))
        for f, c, s in zip(pyramid, (32, 64, 160, 256), (4, 8, 16, 32)):
            assert f.shape == (2, c, 64 // s, 96 // s)

    def test_divisibility_enforced(self):
        with pytest.raises(ShapeError):
            build_encoder()(Tensor.zeros((1, 3, 65, 64)))

    def test_zero_weights_zero_pyramid(self):
        enc = build_encoder(seed=17)
        for name, p in enc.named_parameters():
            if not name.endswith("gamma"):  # keep LN scale at its neutral 1
                p.data[...] = 0.0
        pyramid = enc(Tensor.zeros((1, 3, 64, 64)))
        for f in pyramid:
            assert np.array_equal(f.data, np.zeros_like(f.data))

    def test_deterministic_construction_and_forward(self):
        a, b = build_encoder(seed=18), build_encoder(seed=18)
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb and np.array_equal(pa.data, pb.data)
        x = Tensor(rng(19).uniform(0, 1, size=(1, 3, 64, 64)))
        fa, fb = a(x), b(x)
        for ta, tb in zip(fa, fb):
            assert np.array_equal(ta.data, tb.data)

    def test_four_stages_required(self):
        with pytest.raises(ConfigError):
            MitEncoder(DEFAULT_STAGES[:3], rng(20), 16, 7)
