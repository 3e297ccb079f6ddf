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

    def test_default_weights_sum_to_one(self):
        cfg = losses.LossConfig()
        assert abs(sum(cfg.scale_weights) - 1.0) < 1e-9

    def test_layer_ids_required_with_alpha(self):
        with pytest.raises(losses.LossError, match="layer_ids"):
            losses.LossConfig(alpha=0.5, layer_ids=())

    def test_scale_reduction_renormalizes(self):
        cfg = losses.LossConfig().for_min_side(56)
        assert cfg.scales == 3
        assert abs(sum(cfg.scale_weights) - 1.0) < 1e-9

    def test_bad_weight_sum_rejected(self):
        with pytest.raises(losses.LossError, match="sum"):
            losses.LossConfig(scales=2, scale_weights=(0.6, 0.6))


class TestSsimScale:
    def test_identical_images(self):
        x = img(0)
        _, full = losses.ssim_scale(x, x)
        assert full.item() == pytest.approx(1.0, abs=1e-6)

    def test_constant_images_closed_form(self):
        a, b = 0.2, 0.4
        cfg = losses.LossConfig()
        x = np.full((3, 16, 16), a, dtype=np.float64)
        y = np.full((3, 16, 16), b, dtype=np.float64)
        cs, full = losses.ssim_scale(x, y, cfg)
        c1 = (cfg.k1 * cfg.data_range) ** 2
        want = (2 * a * b + c1) / (a * a + b * b + c1)
        assert cs.item() == pytest.approx(1.0, abs=1e-9)  # variances vanish
        assert full.item() == pytest.approx(want, abs=1e-9)

    def test_matches_direct_oracle(self):
        x, y = img(1, dtype=np.float64), img(2, dtype=np.float64)
        cs, full = losses.ssim_scale(x, y)
        cs_map, ssim_map = ssim_maps_direct(luma_direct(x), luma_direct(y))
        assert cs.item() == pytest.approx(cs_map.mean(), abs=1e-6)
        assert full.item() == pytest.approx(ssim_map.mean(), abs=1e-6)

    def test_too_small_rejected(self):
        with pytest.raises(losses.LossError, match="window"):
            losses.ssim_scale(img(0, 8, 8), img(1, 8, 8))


class TestMsSsim:
    def test_self_similarity(self):
        x = img(3, 192, 192)
        assert losses.ms_ssim(x, x).item() == pytest.approx(1.0, abs=1e-6)

    def test_symmetry_exact(self):
        x, y = img(4, 192, 192), img(5, 192, 192)
        assert losses.ms_ssim(x, y).item() == losses.ms_ssim(y, x).item()

    def test_matches_direct_oracle_192(self):
        cfg = losses.LossConfig()
        x, y = img(6, 192, 192, np.float64), img(7, 192, 192, np.float64)
        got = losses.ms_ssim(x, y, cfg).item()
        want = msssim_direct(x, y, cfg.scales, cfg.scale_weights)
        assert got == pytest.approx(want, abs=1e-5)

    def test_matches_direct_oracle_reduced_scales(self):
        cfg = losses.LossConfig().for_min_side(64)
        x, y = img(8, 64, 64, np.float64), img(9, 64, 64, np.float64)
        got = losses.ms_ssim(x, y, cfg).item()
        want = msssim_direct(x, y, cfg.scales, cfg.scale_weights)
        assert got == pytest.approx(want, abs=1e-6)

    def test_too_small_for_scales_rejected(self):
        with pytest.raises(losses.LossError, match="scales"):
            losses.ms_ssim(img(0, 64, 64), img(1, 64, 64))  # 5 scales need 176px

    def test_monotone_under_noise(self):
        cfg = losses.LossConfig().for_min_side(64)
        x = img(11, 64, 64)
        noise = np.random.default_rng(10).standard_normal(x.shape)
        scores = []
        for amp in np.linspace(0.0, 0.4, 20):
            y = np.clip(x + amp * noise, 0, 1).astype(np.float32)
            scores.append(losses.ms_ssim(x, y, cfg).item())
        # statistically decreasing across the 20 amplitudes
        diffs = np.diff(scores)
        assert scores[0] > scores[-1]
        assert (diffs <= 1e-4).mean() >= 0.9


class TestHumanDistortion:
    def test_zero_at_identity(self):
        cfg = losses.LossConfig().for_min_side(64)
        x = img(12, 64, 64)
        assert losses.human_distortion(x, x, cfg).item() == pytest.approx(0.0, abs=1e-6)

    def test_range(self):
        cfg = losses.LossConfig().for_min_side(32)
        for s in range(6):
            v = losses.human_distortion(img(s, 32, 32), img(100 + s, 32, 32), cfg).item()
            assert 0.0 <= v < 1.0

    def test_gradient_matches_fd_80px_2scales(self):
        cfg = losses.LossConfig(scales=2)
        x = ad.Tensor(img(13, 80, 80))
        y = ad.Tensor(img(14, 80, 80), requires_grad=True)
        err = gradcheck.check_gradients(lambda: losses.human_distortion(x, y, cfg), [y],
                                        dtype=np.float32, sample=80, seed=3)
        assert err < 1e-3


@pytest.fixture(scope="module")
def toy_net():
    net = ClassifierParams(ClassifierLayout(widths=(4, 6), classes=3, input_resolution=16),
                           seed=5, dtype=np.float64)
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
        cfg = losses.LossConfig(alpha=0.0).for_min_side(32)
        x, y = img(20), img(21)
        want = losses.human_distortion(x, y, cfg).item() * cfg.lambda_h
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
        base = losses.LossConfig(alpha=0.0, scales=1, layer_ids=("1.1", "2.1"))
        x, y = img(24, 16, 16, np.float64), img(25, 16, 16, np.float64)
        lo = losses.observer_distortion(x, y, base, toy_net)[0].item()
        hi = losses.observer_distortion(
            x, y, losses.LossConfig(alpha=1.0, layer_ids=base.layer_ids), toy_net)[0].item()
        mid = losses.observer_distortion(
            x, y, losses.LossConfig(alpha=0.5, scales=1, layer_ids=base.layer_ids),
            toy_net)[0].item()
        assert mid == pytest.approx((lo + hi) / 2.0, abs=1e-6)

    def test_missing_lossnet_rejected(self):
        cfg = losses.LossConfig(alpha=0.5)
        with pytest.raises(losses.LossError, match="lossnet"):
            losses.observer_distortion(img(0), img(1), cfg)

    def test_frozen_lossnet_grads_stay_zero(self, toy_net):
        cfg = losses.LossConfig(alpha=0.5, scales=1, layer_ids=("1.1", "2.1"))
        x = ad.Tensor(img(26, 16, 16, np.float64))
        y = ad.Tensor(img(27, 16, 16, np.float64), requires_grad=True)
        toy_net.zero_grads()
        with ad.Tape() as tape:
            loss = losses.observer_distortion(x, y, cfg, toy_net)[0]
        ad.backward(loss, tape)
        assert y.grad is not None and np.abs(y.grad).max() > 0
        for p in toy_net.parameters():
            np.testing.assert_array_equal(p.grad, np.zeros_like(p.grad))
