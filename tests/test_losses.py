import dataclasses

import numpy as np
import pytest

from odlc import autodiff as ad
from odlc import gradcheck, losses
from odlc.lossnet import ClassifierLayout, ClassifierParams
from oracles import (add_const, feature_loss_direct, gaussian_window_direct, luma_direct,
                     ms_ssim_composed, msssim_direct, msssim_weights_direct, ssim_maps_direct)
from test_autodiff import closure_arrays, pool_input, reused_garbage


def img(seed, h=32, w=32, dtype=np.float32):
    return np.random.default_rng(seed).random((3, h, w)).astype(dtype)


class TestLossConfig:
    def test_alpha_range(self):
        with pytest.raises(losses.LossError, match="alpha"):
            losses.LossConfig(alpha=1.5)

    def test_layer_ids_required_with_alpha(self):
        with pytest.raises(losses.LossError, match="layer_ids"):
            losses.LossConfig(alpha=0.5, layer_ids=())

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_lambda_h_positive_and_finite(self, value):
        with pytest.raises(losses.LossError, match=f"lambda_h .* got {value}"):
            losses.LossConfig(lambda_h=value)

    def test_holds_only_the_objective(self):
        assert [f.name for f in dataclasses.fields(losses.LossConfig)] == \
            ["alpha", "lambda_h", "layer_ids"]


class TestPyramid:
    @pytest.mark.parametrize("side,scales", [(11, 1), (21, 1), (22, 2), (43, 2), (44, 3),
                                             (64, 3), (88, 4), (175, 4), (176, 5), (999, 5)])
    def test_scale_count_by_side(self, side, scales):
        assert len(losses._pyramid_weights(side)) == scales

    def test_weights_sum_to_one(self):
        w = losses._pyramid_weights(176)
        assert len(w) == 5 and abs(sum(w) - 1.0) < 1e-9

    @pytest.mark.parametrize("scales", [1, 2, 3, 4, 5])
    def test_weights_equal_the_direct_oracle(self, scales):
        want = tuple(msssim_weights_direct(scales).tolist())
        assert losses._pyramid_weights(losses.WINDOW * 2 ** (scales - 1)) == want

    def test_scale_reduction_renormalizes(self):
        w = losses._pyramid_weights(56)
        assert len(w) == 3 and abs(sum(w) - 1.0) < 1e-9


class TestUnpool:
    @pytest.mark.parametrize("coarse,shape", [((5, 6), (11, 13)), ((4, 3), (9, 7)),
                                              ((3, 7), (7, 14)), ((6, 2), (12, 5))])
    def test_bit_equal_to_broadcast_form(self, coarse, shape):
        h, w = coarse
        g = pool_input(coarse, np.float64)
        want = np.zeros(shape)
        want[: 2 * h, : 2 * w].reshape(h, 2, w, 2)[...] = (0.25 * g)[:, None, :, None]
        reused_garbage(shape, np.float64)
        got = ad._unpool2(g, shape)
        np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))


class TestSsimScale:
    """16-px images: the pyramid has one level, so MS-SSIM is the full SSIM mean."""

    def test_identical_images(self):
        x = img(0, 16, 16)
        assert losses.ms_ssim(x, x).item() == pytest.approx(1.0, abs=1e-6)

    def test_constant_images_closed_form(self):
        a, b = 0.2, 0.4
        x = np.full((3, 16, 16), a, dtype=np.float64)
        y = np.full((3, 16, 16), b, dtype=np.float64)
        c1 = (0.01 * 1.0) ** 2  # (K1 * data range)^2; the variances vanish
        want = (2 * a * b + c1) / (a * a + b * b + c1)
        assert losses.ms_ssim(x, y).item() == pytest.approx(want, abs=1e-9)

    def test_matches_direct_oracle(self):
        x, y = img(1, 16, 16, np.float64), img(2, 16, 16, np.float64)
        _, ssim_map = ssim_maps_direct(luma_direct(x), luma_direct(y))
        assert losses.ms_ssim(x, y).item() == pytest.approx(ssim_map.mean(), abs=1e-6)

    def test_too_small_rejected(self):
        with pytest.raises(losses.LossError, match="window"):
            losses.ms_ssim(img(0, 8, 8), img(1, 8, 8))


class TestMsSsim:
    def test_self_similarity(self):
        x = img(3, 192, 192)
        assert losses.ms_ssim(x, x).item() == pytest.approx(1.0, abs=1e-6)

    def test_symmetry_exact(self):
        x, y = img(4, 192, 192), img(5, 192, 192)
        assert losses.ms_ssim(x, y).item() == losses.ms_ssim(y, x).item()

    def test_matches_direct_oracle_192(self):
        x, y = img(6, 192, 192, np.float64), img(7, 192, 192, np.float64)
        got = losses.ms_ssim(x, y).item()
        assert got == pytest.approx(msssim_direct(x, y, 5), abs=1e-5)

    def test_matches_direct_oracle_reduced_scales(self):
        x, y = img(8, 64, 64, np.float64), img(9, 64, 64, np.float64)
        got = losses.ms_ssim(x, y).item()
        assert got == pytest.approx(msssim_direct(x, y, 3), abs=1e-6)

    def test_too_small_for_scales_rejected(self):
        # the smaller side governs: 10 px is below the window whatever the width
        with pytest.raises(losses.LossError, match="window"):
            losses.ms_ssim(img(0, 10, 64), img(1, 10, 64))

    def test_shapes_must_agree(self):
        with pytest.raises(losses.LossError, match="shapes differ"):
            losses.ms_ssim(img(0, 32, 32), img(1, 32, 48))

    def test_monotone_under_noise(self):
        x = img(11, 64, 64)
        noise = np.random.default_rng(10).standard_normal(x.shape)
        scores = []
        for amp in np.linspace(0.0, 0.4, 20):
            y = np.clip(x + amp * noise, 0, 1).astype(np.float32)
            scores.append(losses.ms_ssim(x, y).item())
        # statistically decreasing across the 20 amplitudes
        diffs = np.diff(scores)
        assert scores[0] > scores[-1]
        assert (diffs <= 1e-4).mean() >= 0.9


class TestHumanDistortion:
    def test_zero_at_identity(self):
        x = img(12, 64, 64)
        assert losses.human_distortion(x, x).item() == pytest.approx(0.0, abs=1e-6)

    def test_range(self):
        for s in range(6):
            v = losses.human_distortion(img(s, 32, 32), img(100 + s, 32, 32)).item()
            assert 0.0 <= v < 1.0

    def test_gradient_matches_fd_40px_2scales(self):
        x = ad.Tensor(img(13, 40, 40))
        y = ad.Tensor(img(14, 40, 40), requires_grad=True)
        assert len(losses._pyramid_weights(40)) == 2
        err = gradcheck.check_gradients(lambda: losses.human_distortion(x, y), [y],
                                        dtype=np.float32, sample=80, seed=3)
        assert err < 1e-3


def input_grads(loss, x, y):
    """(value, dloss/dx, dloss/dy) of loss(x, y) on float64 copies of x and y."""
    xt, yt = ad.Tensor(x.copy(), requires_grad=True), ad.Tensor(y.copy(), requires_grad=True)
    with ad.Tape() as tape:
        out = loss(xt, yt)
    ad.backward(out, tape)
    return out.item(), xt.grad, yt.grad


def max_rel(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def composed(complement):
    """The composed graph of `ms_ssim` (``complement``: of `human_distortion`)."""
    def loss(x, y):
        product = ms_ssim_composed(x, y, len(losses._pyramid_weights(min(x.shape[1:]))))
        return add_const(ad.scale(product, -1.0), 1.0) if complement else product
    return loss


def shared_and_opposed(shape, shared, opposed, seed=3):
    """x and y share a smooth sinusoid and carry a white-noise part of
    opposite sign: the noise sets the finest scale, the sinusoid the
    coarse ones."""
    _, h, w = shape
    i, j = np.mgrid[0:h, 0:w]
    s = np.sin(2 * np.pi * i / 40) * np.cos(2 * np.pi * j / 50)
    n = np.random.default_rng(seed).uniform(-1.0, 1.0, shape)
    return 0.5 + opposed * n + shared * s, 0.5 - opposed * n + shared * s


class TestWindow:
    """The tiled banded-matrix window against the direct 11x11 filter."""

    # one tile, a full tile plus a remainder, three tiles with a remainder
    @pytest.mark.parametrize("hw", [(30, 21), (losses._TILE + 17, 50), (3 * losses._TILE + 5, 141)])
    def test_matches_direct_filter(self, hw):
        m = np.random.default_rng(40).random((2,) + hw)
        view = np.lib.stride_tricks.sliding_window_view(m, (11, 11), axis=(1, 2))
        want = np.tensordot(view, gaussian_window_direct(11, 1.5), axes=([3, 4], [0, 1]))
        np.testing.assert_allclose(losses._window(m), want, rtol=0, atol=1e-15)

    def test_adjoint(self):
        rng = np.random.default_rng(41)
        a = rng.random((2, 2 * losses._TILE + 15, 97))
        d = rng.standard_normal((2, a.shape[1] - 10, a.shape[2] - 10))
        lhs, rhs = np.vdot(losses._window(a), d), np.vdot(a, losses._window_adjoint(d))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


class TestFusedMsSsim:
    """The one-record MS-SSIM op, in float64, against the direct oracle
    (values) and the composed graph of primitive ops (gradients)."""

    # 3 and 2 scales, 1 and 3 channels, odd sides whose last row or column
    # no pooling reads; 4 scales whose finest spans three tiles of the
    # window on each axis
    SHAPES = [(3, 64, 64), (1, 45, 38), (3, 47, 44), (1, 23, 22), (1, 150, 141)]

    @staticmethod
    def pair(shape, seed=30):
        rng = np.random.default_rng(seed)
        x = rng.random(shape)
        return x, np.clip(x + 0.2 * rng.standard_normal(shape), 0.0, 1.0)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_value_matches_direct_oracle(self, shape):
        x, y = self.pair(shape)
        want = msssim_direct(x, y, len(losses._pyramid_weights(min(shape[1:]))))
        assert abs(losses.ms_ssim(x, y).item() - want) < 1e-12
        assert abs(losses.human_distortion(x, y).item() - (1.0 - want)) < 1e-12

    @pytest.mark.parametrize("complement", [False, True])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_gradients_match_composed_graph(self, shape, complement):
        x, y = self.pair(shape)
        value, gx, gy = input_grads(lambda a, b: losses.ms_ssim(a, b, complement=complement), x, y)
        want, wx, wy = input_grads(composed(complement), x, y)
        assert abs(value - want) < 1e-12
        assert max_rel(gx, wx) < 1e-10 and max_rel(gy, wy) < 1e-10

    def test_term_below_floor_at_one_scale_passes_no_gradient_there(self):
        # opposed noise drives the finest cs mean below zero; the shared
        # sinusoid keeps the two coarser terms well above the floor
        x, y = shared_and_opposed((1, 64, 64), shared=0.3, opposed=0.2)
        cs_map, _ = ssim_maps_direct(luma_direct(x), luma_direct(y))
        assert cs_map.mean() < losses._TERM_FLOOR
        value, gx, gy = input_grads(losses.ms_ssim, x, y)
        want, wx, wy = input_grads(composed(False), x, y)
        assert abs(value - want) < 1e-12
        assert np.abs(gy).max() > 0
        assert max_rel(gx, wx) < 1e-10 and max_rel(gy, wy) < 1e-10

    def test_every_term_below_floor_gives_zero_gradient(self):
        x = np.random.default_rng(31).random((3, 47, 44))
        y = 1.0 - x  # cs = -1 + O(C2) at every scale
        value, gx, gy = input_grads(losses.ms_ssim, x, y)
        assert value == pytest.approx(losses._TERM_FLOOR, rel=1e-12)  # floor^(sum of weights)
        _, wx, wy = input_grads(composed(False), x, y)
        for g in (gx, gy, wx, wy):
            np.testing.assert_array_equal(g, 0.0)

    def test_one_record_per_call(self):
        x = img(32, 64, 64)
        y = ad.Tensor(img(33, 64, 64), requires_grad=True)
        with ad.Tape() as tape:
            losses.human_distortion(x, y)
        assert len(tape) <= 3

    @pytest.mark.parametrize("channels", [1, 3])
    def test_record_holds_nothing_larger_than_a_scale_map(self, channels):
        # the VJP reads each scale's luma images (the largest: H x W float64)
        # and its window-sized statistics; never the stacked [x, y, x^2, y^2,
        # xy] maps or their filtered stack
        x = img(34, 64, 48)[:channels]
        y = ad.Tensor(img(35, 64, 48)[:channels], requires_grad=True)
        with ad.Tape() as tape:
            losses.ms_ssim(x, y)
        (_, inputs, vjps), = tape.records
        held = [a for a in closure_arrays(vjps).values() if a is not y.data]
        assert held and max(a.nbytes for a in held) <= 64 * 48 * 8

    def test_dtypes_must_agree(self):
        with pytest.raises(losses.LossError, match="dtypes differ"):
            losses.ms_ssim(img(0, 32, 32), img(1, 32, 32, np.float64))

    def test_channel_count_checked(self):
        with pytest.raises(losses.LossError, match="1- or 3-channel"):
            losses.ms_ssim(img(0, 32, 32)[:2], img(1, 32, 32)[:2])


class TestHumanDistortionPrecision:
    """float32 d_H near convergence, relative to the float64 oracle on the
    same float32 inputs: a smooth 64 px sinusoid image and one noise draw."""

    @pytest.mark.parametrize("sd", [0.03, 0.01, 0.003, 0.001])
    def test_relative_error_below_1e_5(self, sd):
        i, j = np.mgrid[0:64, 0:64]
        x = np.stack([0.5 + 0.3 * np.sin(2 * np.pi * (i / 37 + j / 53) + c) for c in range(3)])
        y = x + sd * np.random.default_rng(7).standard_normal(x.shape)
        x, y = x.astype(np.float32), y.astype(np.float32)
        want = 1.0 - msssim_direct(x, y, 3)
        got = losses.human_distortion(x, y)
        assert got.dtype == np.float32
        assert abs(got.item() - want) <= 1e-5 * want


@pytest.fixture(scope="module")
def toy_net():
    layout = ClassifierLayout(widths=(4, 6), classes=3, input_resolution=16)
    net = ClassifierParams(layout, seed=5)
    for p in net.parameters():
        p.tensor.data = p.value.astype(np.float64)
    net.dtype = np.float64
    net.freeze()
    return net


class TestFeatureDistortion:
    def test_zero_at_identity(self, toy_net):
        x = img(15, 16, 16, np.float64)
        ids = ("1.1", "2.1")
        assert losses.feature_distortion(x, x, toy_net, ids).item() == 0.0

    def test_constant_offset_normalization(self):
        # a single layer whose maps differ by c everywhere: gamma * (CHW) * c^2 = c^2
        class StubNet:
            def features(self, x, layer_ids):
                base = np.zeros((2, 4, 4), dtype=np.float64)
                val = float(x.data.reshape(-1)[0]) if isinstance(x, ad.Tensor) else float(np.asarray(x).reshape(-1)[0])
                return [ad.Tensor(base + val)]

        c = 0.7
        x = np.full((3, 4, 4), 0.0)
        y = np.full((3, 4, 4), c)
        got = losses.feature_distortion(x, y, StubNet(), ("1.1",)).item()
        assert got == pytest.approx(c * c, rel=1e-12)

    def test_matches_nested_loop_oracle(self, toy_net):
        x, y = img(16, 16, 16, np.float64), img(17, 16, 16, np.float64)
        ids = ("1.1", "2.1")
        got = losses.feature_distortion(x, y, toy_net, ids).item()
        fx = [m.data for m in toy_net.features(ad.Tensor(x), ids)]
        fy = [m.data for m in toy_net.features(ad.Tensor(y), ids)]
        assert got == pytest.approx(feature_loss_direct(fx, fy), abs=1e-6)

    def test_unknown_layer_rejected(self, toy_net):
        with pytest.raises(Exception, match="unknown layer"):
            losses.feature_distortion(img(0, 16, 16), img(1, 16, 16), toy_net, ("9.9",))

    def test_symmetry_and_nonnegativity(self, toy_net):
        x, y = img(18, 16, 16, np.float64), img(19, 16, 16, np.float64)
        ids = ("1.1",)
        a = losses.feature_distortion(x, y, toy_net, ids).item()
        b = losses.feature_distortion(y, x, toy_net, ids).item()
        assert a >= 0 and a == pytest.approx(b, rel=1e-12)


class TestObserverDistortion:
    def test_alpha_zero_exact_endpoint(self):
        cfg = losses.LossConfig(alpha=0.0)
        x, y = img(20), img(21)
        want = losses.human_distortion(x, y).item() * cfg.lambda_h
        got = losses.observer_distortion(x, y, cfg)[0].item()  # no lossnet needed
        assert got == pytest.approx(want, rel=1e-6)

    def test_alpha_one_exact_endpoint(self, toy_net):
        cfg = losses.LossConfig(alpha=1.0, layer_ids=("1.1", "2.1"))
        x, y = img(22, 16, 16, np.float64), img(23, 16, 16, np.float64)
        want = losses.feature_distortion(x, y, toy_net, cfg.layer_ids).item()
        assert losses.observer_distortion(x, y, cfg, toy_net)[0].item() == want

    def test_arithmetic_example(self):
        # alpha=1/2, d_H=0.1, d_C=250, lambda=5000 -> 0.5*5000*0.1 + 0.5*250 = 375
        assert 0.5 * 5000 * 0.1 + 0.5 * 250 == 375.0

    def test_affine_in_alpha(self, toy_net):
        base = losses.LossConfig(alpha=0.0, layer_ids=("1.1", "2.1"))
        x, y = img(24, 16, 16, np.float64), img(25, 16, 16, np.float64)
        lo = losses.observer_distortion(x, y, base, toy_net)[0].item()
        hi = losses.observer_distortion(
            x, y, losses.LossConfig(alpha=1.0, layer_ids=base.layer_ids), toy_net)[0].item()
        mid = losses.observer_distortion(
            x, y, losses.LossConfig(alpha=0.5, layer_ids=base.layer_ids),
            toy_net)[0].item()
        assert mid == pytest.approx((lo + hi) / 2.0, abs=1e-6)

    def test_missing_lossnet_rejected(self):
        cfg = losses.LossConfig(alpha=0.5)
        with pytest.raises(losses.LossError, match="lossnet"):
            losses.observer_distortion(img(0), img(1), cfg)

    def test_frozen_lossnet_grads_stay_zero(self, toy_net):
        cfg = losses.LossConfig(alpha=0.5, layer_ids=("1.1", "2.1"))
        x = ad.Tensor(img(26, 16, 16, np.float64))
        y = ad.Tensor(img(27, 16, 16, np.float64), requires_grad=True)
        toy_net.zero_grads()
        with ad.Tape() as tape:
            loss = losses.observer_distortion(x, y, cfg, toy_net)[0]
        ad.backward(loss, tape)
        assert y.grad is not None and np.abs(y.grad).max() > 0
        for p in toy_net.parameters():
            np.testing.assert_array_equal(p.grad, np.zeros_like(p.grad))
