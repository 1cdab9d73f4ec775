import numpy as np
import pytest

from ldekit.frontend import (
    Conv1d,
    ConvSpec,
    Frontend,
    LengthError,
    ResidualBlock,
    StageSpec,
    _act_backward,
    _activate,
)
from ldekit.ndcore import Rng

from fdcheck import assert_grad_close, central_diff


def tiny_spec(activation="tanh"):
    return ConvSpec(in_dim=3,
                    stages=[StageSpec(4, 1, True), StageSpec(4, 1, True)],
                    kernel=3, activation=activation)


class TestConv1d:
    def test_same_padding_keeps_length_stride1(self):
        conv = Conv1d("c", 2, 5, 3, 1, Rng(0))
        for length in (1, 2, 7, 100):
            y, _ = conv.forward(np.random.default_rng(0).normal(size=(1, 2, length)))
            assert y.shape == (1, 5, length)

    def test_stride2_gives_ceil_half(self):
        conv = Conv1d("c", 2, 2, 3, 2, Rng(1))
        for length, expected in ((2, 1), (3, 2), (8, 4), (9, 5), (200, 100)):
            y, _ = conv.forward(np.zeros((1, 2, length)))
            assert y.shape[2] == expected

    def test_linear_layer_gradient_is_exact(self):
        # conv is linear in weights and input, so finite differences with
        # any h recover the gradient to rounding error
        rng = np.random.default_rng(2)
        conv = Conv1d("c", 2, 3, 3, 1, Rng(2))
        x = rng.normal(size=(1, 2, 6))
        probe = rng.normal(size=(1, 3, 6))

        def phi():
            y, _ = conv.forward(x)
            return float((probe * y).sum())

        y, cache = conv.forward(x)
        conv.weight.zero_grad()
        conv.bias.zero_grad()
        dx = conv.backward(cache, probe)
        assert_grad_close(dx, central_diff(phi, x), 1e-9, "conv input")
        assert_grad_close(conv.weight.grad, central_diff(phi, conv.weight.value),
                          1e-9, "conv weight")
        assert_grad_close(conv.bias.grad, central_diff(phi, conv.bias.value),
                          1e-9, "conv bias")

    def test_zero_upstream_grad(self):
        conv = Conv1d("c", 2, 2, 3, 2, Rng(3))
        x = np.ones((1, 2, 8))
        y, cache = conv.forward(x)
        dx = conv.backward(cache, np.zeros_like(y))
        assert np.all(dx == 0)
        assert np.all(conv.weight.grad == 0)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_weight_gradient_matches_einsum_reference(self, stride):
        rng = np.random.default_rng(4)
        conv = Conv1d("c", 5, 7, 3, stride, Rng(4))
        x = rng.normal(size=(6, 5, 41))
        y, cache = conv.forward(x)
        dy = rng.normal(size=y.shape)
        conv.backward(cache, dy)
        # im2col of the zero-padded input, contracted over batch and time
        out_len = y.shape[2]
        left = max((out_len - 1) * stride + 3 - 41, 0) // 2
        xp = np.zeros((6, 5, (out_len - 1) * stride + 3))
        xp[:, :, left:left + 41] = x
        patches = np.stack([xp[:, :, k:k + stride * (out_len - 1) + 1:stride]
                            for k in range(3)], axis=2).reshape(6, 15, out_len)
        expected = np.einsum("bol,bml->om", dy, patches).reshape(7, 5, 3)
        err = np.max(np.abs(conv.weight.grad - expected))
        assert err <= 1e-12 * np.max(np.abs(expected))


class TestResidualBlock:
    def test_zero_weights_is_identity(self):
        block = ResidualBlock("b", 3, 3, 3, 1, "relu", rng=None)
        x = np.random.default_rng(4).normal(size=(2, 3, 10))
        y, _ = block.forward(x)
        assert np.array_equal(y, x)

    def test_zero_weights_downsample_is_strided_input(self):
        block = ResidualBlock("b", 3, 5, 3, 2, "relu", rng=None)
        x = np.random.default_rng(5).normal(size=(1, 3, 11))
        y, _ = block.forward(x)
        assert y.shape == (1, 5, 6)
        assert np.array_equal(y[:, :3, :], x[:, :, ::2])
        assert np.all(y[:, 3:, :] == 0)

    def test_gradcheck(self):
        rng = np.random.default_rng(6)
        block = ResidualBlock("b", 2, 3, 3, 2, "tanh", Rng(6))
        x = rng.normal(size=(1, 2, 7))
        probe = rng.normal(size=(1, 3, 4))

        def phi():
            y, _ = block.forward(x)
            return float((probe * y).sum())

        _, cache = block.forward(x)
        for p in block.params():
            p.zero_grad()
        dx = block.backward(cache, probe)
        assert_grad_close(dx, central_diff(phi, x), 1e-5, "block input")
        for p in block.params():
            assert_grad_close(p.grad, central_diff(phi, p.value), 1e-5, p.name)

    def test_relu_gradient_from_the_output_is_the_mask_form(self):
        # backward reads ReLU's output y, not a mask of its input x: bit
        # for bit the mask form dy * (x > 0), also where x is 0.0 or -0.0
        # and for negative dy, whose masked zeros carry a sign
        x = np.array([[[0.0, -0.0, 1.5, -2.0, 5e-324, -5e-324],
                       [-0.0, 0.0, -1e-300, 1e-300, 3.0, -0.0]]])
        dy = np.random.default_rng(8).normal(size=x.shape)
        for grad in (dy, -dy):
            got = _act_backward("relu", _activate("relu", x), grad)
            assert got.tobytes() == (grad * (x > 0)).tobytes()
        # a zero-weight block: conv1's output, the second activation's
        # input, is exact zeros, and x holds signed zeros
        probe = np.random.default_rng(9).normal(size=(1, 3, 3))
        block = ResidualBlock("b", 2, 3, 3, 2, "relu", rng=None)
        ref = ResidualBlock("b", 2, 3, 3, 2, "relu", rng=None)
        _, cache = block.forward(x)
        dx = block.backward(cache, probe)
        mask1 = x > 0
        h1, cc1 = ref.conv1.forward(x * mask1)
        mask2 = h1 > 0
        _, cc2 = ref.conv2.forward(h1 * mask2)
        da1 = ref.conv1.backward(
            cc1, ref.conv2.backward(cc2, probe) * mask2)
        want = da1 * mask1
        want[:, :, ::2] += probe[:, :2]
        assert not mask2.any()
        assert dx.tobytes() == want.tobytes()
        for p, q in zip(block.params(), ref.params()):
            assert p.grad.tobytes() == q.grad.tobytes(), p.name

    def test_relu_gradcheck(self):
        rng = np.random.default_rng(7)
        block = ResidualBlock("b", 2, 2, 3, 1, "relu", Rng(7))
        x = rng.normal(size=(1, 2, 6)) + 0.3  # keep pre-activations off zero
        probe = rng.normal(size=(1, 2, 6))

        def phi():
            y, _ = block.forward(x)
            return float((probe * y).sum())

        _, cache = block.forward(x)
        for p in block.params():
            p.zero_grad()
        dx = block.backward(cache, probe)
        assert_grad_close(dx, central_diff(phi, x), 1e-5, "relu block input")
        for p in block.params():
            assert_grad_close(p.grad, central_diff(phi, p.value), 1e-5, p.name)


class TestFrontend:
    def test_length_contract_over_range(self):
        spec = ConvSpec(in_dim=1, stages=[StageSpec(1, 1, True),
                                          StageSpec(1, 1, True)], kernel=3,
                        activation="linear")
        fe = Frontend(spec, Rng(8))
        lengths = list(range(spec.min_length, 65)) + [100, 127, 128, 333, 512,
                                                      999, 1000, 2048, 4000]
        for length in lengths:
            y, _ = fe.forward_batch(np.zeros((1, 1, length)))
            # each downsampling stage halves the length, rounding up
            expected = length
            for st in spec.stages:
                if st.downsample:
                    expected = -(-expected // 2)
            assert y.shape[2] == expected, length

    def test_two_downsamples_200_to_50(self):
        fe = Frontend(tiny_spec(), Rng(9))
        y, _ = fe.forward_batch(np.zeros((1, 3, 200)))
        assert y.shape == (1, 4, 50)

    def test_too_short_input_names_minimum(self):
        fe = Frontend(tiny_spec(), Rng(10))
        with pytest.raises(LengthError, match="minimum 4"):
            fe.forward_batch(np.zeros((1, 3, 3)))

    def test_deterministic_given_parameters(self):
        fe = Frontend(tiny_spec(), Rng(11))
        x = np.random.default_rng(11).normal(size=(1, 3, 20))
        a, _ = fe.forward_batch(x)
        b, _ = fe.forward_batch(x)
        assert np.array_equal(a, b)
        assert np.isfinite(a).all()

    def test_composed_gradcheck_tiny_spec(self):
        rng = np.random.default_rng(12)
        fe = Frontend(tiny_spec("tanh"), Rng(12))
        x = rng.normal(size=(1, 3, 16))
        probe = rng.normal(size=(1, 4, 4))

        def phi():
            y, _ = fe.forward_batch(x)
            return float((probe * y).sum())

        _, caches = fe.forward_batch(x)
        for p in fe.params():
            p.zero_grad()
        dx = fe.backward_batch(caches, probe)
        assert_grad_close(dx, central_diff(phi, x), 1e-4, "frontend input")
        for p in fe.params():
            assert_grad_close(p.grad, central_diff(phi, p.value), 1e-4, p.name)

    def test_batch_matches_singles(self):
        fe = Frontend(tiny_spec(), Rng(13))
        rng = np.random.default_rng(13)
        xs = rng.normal(size=(4, 3, 24))
        batch, _ = fe.forward_batch(xs)
        for i in range(4):
            single, _ = fe.forward_batch(xs[i:i + 1])
            assert np.max(np.abs(batch[i] - single[0])) <= 1e-12

    def test_channel_shrink_rejected(self):
        with pytest.raises(ValueError):
            ConvSpec(in_dim=2, stages=[StageSpec(8, 1, True),
                                       StageSpec(4, 1, True)])

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            ConvSpec(in_dim=2, stages=[StageSpec(4, 1, False)], kernel=2)
