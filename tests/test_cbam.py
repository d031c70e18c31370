import numpy as np
import pytest

from armformer.cbam import CBAM
from armformer.errors import ConfigError, ShapeError
from armformer.tensor import Tensor
from oracles import sigmoid


def make_cbam(channels, seed=0, reduction=16, kernel=7):
    return CBAM(channels, np.random.default_rng(seed), reduction, kernel)


class TestChannelAttention:
    def test_zero_mlp_gives_half(self):
        cbam = make_cbam(4)
        cbam.w1.data[...] = 0.0
        cbam.w2.data[...] = 0.0
        f = Tensor(np.random.default_rng(1).normal(size=(2, 4, 3, 3)))
        m_c = cbam.channel_attention(f)
        assert m_c.shape == (2, 4, 1, 1)
        assert np.allclose(m_c.data, 0.5, atol=1e-15)

    def test_hand_computed_two_channel_case(self):
        cbam = make_cbam(2, reduction=2)  # hidden width 1
        p, q, r, s = 0.3, -0.2, 0.7, 0.4
        cbam.w1.data[...] = np.array([[p], [q]])
        cbam.w2.data[...] = np.array([[r, s]])
        a, b = 1.5, 2.5
        f = Tensor(np.array([a, b]).reshape(1, 2, 1, 1))
        # with H=W=1 avg and max pooling agree, so the shared MLP runs twice
        hidden = max(p * a + q * b, 0.0)
        expect = [sigmoid(2 * hidden * r), sigmoid(2 * hidden * s)]
        got = cbam.channel_attention(f).data.reshape(2)
        assert np.allclose(got, expect, atol=1e-12)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            make_cbam(4).channel_attention(Tensor.zeros((1, 3, 2, 2)))


class TestSpatialAttention:
    def test_zero_kernel_gives_half(self):
        cbam = make_cbam(3)
        cbam.conv.weight.data[...] = 0.0
        f = Tensor(np.random.default_rng(4).normal(size=(2, 3, 4, 4)))
        m_s = cbam.spatial_attention(f)
        assert m_s.shape == (2, 1, 4, 4)
        assert np.allclose(m_s.data, 0.5, atol=1e-15)

    def test_constant_input_all_ones_kernel(self):
        cbam = make_cbam(1, kernel=3)
        cbam.conv.weight.data[...] = 1.0
        c = 0.35
        m_s = cbam.spatial_attention(Tensor.full((1, 1, 3, 3), c)).data[0, 0]
        # avg and max channel pools both equal c, so the 2-channel concat
        # feeds 2*c per covered tap; interior covers all 9, corners cover 4
        assert m_s[1, 1] == pytest.approx(sigmoid(18 * c), abs=1e-12)
        assert m_s[0, 0] == pytest.approx(sigmoid(8 * c), abs=1e-12)
        assert m_s[0, 1] == pytest.approx(sigmoid(12 * c), abs=1e-12)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            make_cbam(4, kernel=4)


class TestApply:
    def test_zero_input_stays_zero(self):
        cbam = make_cbam(4, seed=7)
        out, maps = cbam(Tensor.zeros((2, 4, 3, 3)))
        assert np.array_equal(out.data, np.zeros((2, 4, 3, 3)))
        assert np.allclose(maps.channel.data, 0.5)

    def test_matches_manual_composition(self):
        cbam = make_cbam(4, seed=10)
        f = Tensor(np.random.default_rng(11).normal(size=(2, 4, 5, 5)))
        out, maps = cbam(f)
        f_prime = f.data * cbam.channel_attention(f).data
        manual = f_prime * cbam.spatial_attention(Tensor(f_prime)).data
        assert np.allclose(out.data, manual, atol=1e-14)

    def test_channel_before_spatial_order_pinned(self):
        # applying the stages in the reverse order must give a different
        # result for generic weights
        cbam = make_cbam(4, seed=12)
        f = Tensor(np.random.default_rng(13).normal(size=(1, 4, 5, 5)))
        out, _ = cbam(f)
        f_s = f.data * cbam.spatial_attention(f).data
        reversed_out = f_s * cbam.channel_attention(Tensor(f_s)).data
        assert not np.allclose(out.data, reversed_out)

    def test_shape_error_propagates(self):
        with pytest.raises(ShapeError):
            make_cbam(4)(Tensor.zeros((1, 5, 3, 3)))
