import dataclasses

import numpy as np
import pytest

from odlc import autodiff as ad
from odlc import gradcheck, losses
from odlc.lossnet import ClassifierLayout, ClassifierParams
from oracles import feature_loss_direct, msssim_direct, ssim_maps_direct, luma_direct


def img(seed, h=32, w=32, dtype=np.float32):
    return np.random.default_rng(seed).random((3, h, w)).astype(dtype)


class TestLossConfig:
    def test_alpha_range(self):
        with pytest.raises(losses.LossError, match="alpha"):
            losses.LossConfig(alpha=1.5)

    def test_layer_ids_required_with_alpha(self):
        with pytest.raises(losses.LossError, match="layer_ids"):
            losses.LossConfig(alpha=0.5, layer_ids=())

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

    def test_scale_reduction_renormalizes(self):
        w = losses._pyramid_weights(56)
        assert len(w) == 3 and abs(sum(w) - 1.0) < 1e-9


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


@pytest.fixture(scope="module")
def toy_net():
    layout = ClassifierLayout(widths=(4, 6), classes=3, input_resolution=16)
    drawn = ClassifierParams(layout, seed=5)
    net = ClassifierParams(layout, arrays={p.name: p.value.astype(np.float64)
                                           for p in drawn.parameters()})
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
