import numpy as np
import pytest

from odlc import evaluation, losses, trainer
from odlc.codec import CodecLayout, CodecParams
from odlc.evaluation import CurvePoint, EvalConfig
from odlc.lossnet import ClassifierLayout, ClassifierParams

MICRO = CodecLayout(enc_widths=(4, 6, 8, 8), dec_widths=(8, 8, 8, 4), bottleneck=4, t_max=8)


def red_mean_classifier(res=16):
    """Hand-built 2-class net: label 0 iff mean of the red channel > 0.25."""
    net = ClassifierParams(ClassifierLayout(widths=(4,), classes=2, input_resolution=res),
                           seed=0, norm_mean=[0, 0, 0], norm_std=[1, 1, 1])
    k = np.zeros_like(net.blocks[0][0].value)
    k[0, 0, 1, 1] = 1.0  # feature 0 = relu(R) = R for [0,1] inputs
    net.blocks[0][0].value = k
    net.blocks[0][1].value = np.zeros(4, dtype=np.float32)
    w = np.zeros_like(net.head_w.value)
    w[0, 0] = 1.0
    w[1, 0] = -1.0
    b = np.zeros_like(net.head_b.value)
    b[1] = 0.5
    net.head_w.value = w
    net.head_b.value = b
    net.freeze()
    return net


def rgb_image(r, g, b, res=16):
    img = np.empty((3, res, res), dtype=np.float32)
    img[0], img[1], img[2] = r, g, b
    return img


def identity_stub(img, iters):
    return img, iters * img.shape[1] * img.shape[2]


class Labeled:
    def __init__(self, images, labels):
        self.images, self.labels = images, labels
        self.class_count = max(labels) + 1

    def __len__(self):
        return len(self.images)

    def image(self, i):
        return self.images[i]

    def label(self, i):
        return self.labels[i]


@pytest.fixture(scope="module")
def classifier():
    return red_mean_classifier()


@pytest.fixture(scope="module")
def balanced_images():
    bright = [rgb_image(0.9, 0.1 * i, 0.5) for i in range(5)]
    dark = [rgb_image(0.05, 0.1 * i, 0.5) for i in range(5)]
    return bright + dark


class TestPreservation:
    def test_identity_stub_is_one(self, classifier, balanced_images):
        assert evaluation.preservation_rate(identity_stub, classifier,
                                            balanced_images, 2) == 1.0

    def test_constant_stub_matches_direct_count(self, classifier, balanced_images):
        constant = rgb_image(0.9, 0.5, 0.5)

        def stub(img, iters):
            return constant, 16

        got = evaluation.preservation_rate(stub, classifier, balanced_images, 1)
        # direct count oracle: constant decodes always classify as label 0
        from odlc.lossnet import classify
        before = [classify(im, classifier)[0] for im in balanced_images]
        assert got == before.count(0) / len(before) == 0.5  # 1/k on the balanced set

    def test_three_of_four(self, classifier):
        imgs = [rgb_image(0.9, 0.0, 0.5), rgb_image(0.8, 0.0, 0.5),
                rgb_image(0.1, 0.0, 0.5), rgb_image(0.9, 1.0, 0.5)]

        def stub(img, iters):  # flips red only where the green marker is set
            if img[1].mean() > 0.5:
                return rgb_image(1.0 - img[0].mean(), 1.0, 0.5), 16
            return img, 16

        assert evaluation.preservation_rate(stub, classifier, imgs, 1) == 0.75

    def test_empty_set_rejected(self, classifier):
        with pytest.raises(evaluation.EvalError, match="empty"):
            evaluation.preservation_rate(identity_stub, classifier, [], 1)


class TestEvalConfig:
    def test_scomp_ge_sinf(self):
        with pytest.raises(evaluation.EvalError, match="s_comp"):
            EvalConfig(s_comp=32, s_inf=56)

    def test_curve_point_bpp_positive(self):
        with pytest.raises(evaluation.EvalError, match="positive"):
            CurvePoint(level=1, bpp=0.0, value=0.5, n=1)


class TestAccuracyCurve:
    def test_identity_stub_matches_uncompressed(self, classifier, balanced_images):
        labels = [0] * 5 + [1] * 5
        ds = Labeled(balanced_images, labels)
        cfg = EvalConfig(s_comp=16, s_inf=16, grid=(1, 2))
        curves = evaluation.eval_accuracy_curve(identity_stub, classifier, ds, cfg)
        for p in curves["preservation"]:
            assert p.value == 1.0
        for p in curves["accuracy"]:
            assert p.value == 1.0  # the crafted net is exact on these images
        assert [p.level for p in curves["accuracy"]] == [1, 2]
        assert all(p.n == 10 for p in curves["accuracy"])

    def test_bpp_is_mean_over_images(self, classifier):
        imgs = [rgb_image(0.9, 0.0, 0.0), rgb_image(0.9, 1.0, 0.0)]
        ds = Labeled(imgs, [0, 0])
        per_image = {0.0: int(0.10 * 16 * 16), 1.0: int(0.20 * 16 * 16)}

        def stub(img, iters):
            return img, per_image[float(img[1, 0, 0])]

        cfg = EvalConfig(s_comp=16, s_inf=16, grid=(1,))
        curves = evaluation.eval_accuracy_curve(stub, classifier, ds, cfg)
        want = (per_image[0.0] + per_image[1.0]) / (2 * 16 * 16)
        assert curves["accuracy"][0].bpp == pytest.approx(want)
        assert want == pytest.approx(0.15, abs=0.005)

    def test_classifier_resolution_must_match(self, classifier, balanced_images):
        ds = Labeled(balanced_images, [0] * 10)
        with pytest.raises(evaluation.EvalError, match="s_inf"):
            evaluation.eval_accuracy_curve(identity_stub, classifier, ds,
                                           EvalConfig(s_comp=64, s_inf=56))


class TestQualityCurve:
    def test_identity_stub_msssim_one(self, balanced_images):
        ds = Labeled(balanced_images, [0] * 10)
        pts = evaluation.eval_quality_curve(identity_stub, ds, EvalConfig(s_comp=16, s_inf=16, grid=(1, 3)))
        for p in pts:
            assert p.value == pytest.approx(1.0, abs=1e-6)

    def test_constant_resolution_skips_resize(self):
        seen = []

        def spy(img, iters):
            seen.append(img.shape)
            return img, 100
        imgs = [np.random.default_rng(i).random((3, 48, 48)).astype(np.float32)
                for i in range(3)]
        ds = Labeled(imgs, [0] * 3)
        evaluation.eval_quality_curve(spy, ds, EvalConfig(s_comp=64, s_inf=32, grid=(1,)))
        assert set(seen) == {(3, 48, 48)}  # native size kept (the Kodak rule)

    def test_single_image_bpp_exact(self):
        params = CodecParams(MICRO, seed=4)
        img = np.random.default_rng(0).random((3, 32, 32)).astype(np.float32)
        ds = Labeled([img], [0])
        pts = evaluation.eval_quality_curve(params, ds, EvalConfig(s_comp=32, s_inf=32, grid=(2,)))
        from odlc.codec import compress
        assert pts[0].bpp == compress(img, 2, params).bpp

    def test_curve_bpp_matches_bit_law(self):
        params = CodecParams(MICRO, seed=4)
        imgs = [np.random.default_rng(i).random((3, 32, 32)).astype(np.float32)
                for i in range(3)]
        ds = Labeled(imgs, [0] * 3)
        pts = evaluation.eval_quality_curve(params, ds, EvalConfig(s_comp=32, s_inf=32, grid=(1, 2)))
        for p in pts:
            assert p.bpp == p.level * 4 * 2 * 2 / (32 * 32)


class TestSweep:
    def test_cross_product_and_skips(self, classifier, balanced_images):
        ds = Labeled(balanced_images, [0] * 5 + [1] * 5)
        a = CodecParams(CodecLayout(enc_widths=(2, 2, 4, 4), dec_widths=(4, 4, 4, 4),
                                    bottleneck=2, t_max=4), seed=1)
        ckpts = {0.0: a, 0.5: None, 1.0: a}
        cfg = EvalConfig(s_comp=16, s_inf=16)
        rows, skipped = evaluation.tradeoff_sweep(ckpts, classifier, ds, (1, 2), cfg)
        assert skipped == [0.5]
        assert len(rows) == 2 * 2  # present alphas x iteration counts
        alphas = sorted({r[0] for r in rows})
        assert alphas == [0.0, 1.0]
        for r in rows:
            assert 0.0 <= r[4] <= 1.0 and 0.0 <= r[5] <= 1.0

    def test_needs_two_checkpoints(self, classifier, balanced_images):
        ds = Labeled(balanced_images, [0] * 10)
        with pytest.raises(evaluation.EvalError, match="2 alpha"):
            evaluation.tradeoff_sweep({0.0: CodecParams(MICRO, seed=0), 1.0: None},
                                      classifier, ds, (1,), EvalConfig(s_comp=16, s_inf=16))


class TestAblation:
    def test_row_count_and_finite_decreasing_loss(self, classifier):
        rng = np.random.default_rng(0)
        from odlc.datasets import ShapesDataset, ShapesSpec
        train = ShapesDataset(ShapesSpec(seed=4, split="train", size=16, classes=3,
                                         resolution=16))
        val = Labeled([rng.random((3, 16, 16)).astype(np.float32) for _ in range(4)],
                      [0] * 4)
        f_l = ClassifierParams(ClassifierLayout(widths=(4, 8), classes=3,
                                                input_resolution=16), seed=3)
        f_l.freeze()
        tiny = CodecLayout(enc_widths=(2, 2, 4, 4), dec_widths=(4, 4, 4, 4),
                           bottleneck=2, t_max=4)
        cfg = trainer.TrainConfig.desk(resize_side=16, crop_size=16, unroll_steps=1,
                                       epochs=2, batch_size=4, val_interval=0, seed=2)
        sets = [("1.1",), ("2.1",), ("1.1", "2.1")]
        rows, logs = evaluation.ablate_layers(
            sets, train, val, f_l, classifier, losses.LossConfig(alpha=1.0),
            cfg, (1, 2), EvalConfig(s_comp=16, s_inf=16), layout=tiny)
        assert len(rows) == len(sets) * 2
        for tag, log in logs.items():
            vals = [r[1] for r in log]
            assert all(np.isfinite(v) for v in vals)
            assert vals[-1] < vals[0]  # overfitting 16 images reduces the loss
        tags = [r[0] for r in rows]
        assert "1.1+2.1" in tags


def bitstream_roundtrip(params):
    """The per-level compress -> decompress path, as a stub: the oracle of
    the prefix-decoded core."""
    from odlc.codec import compress, decompress

    def stub(img, iters):
        bs = compress(img, iters, params)
        return decompress(bs, params), bs.payload_bits
    return stub


@pytest.fixture(scope="module")
def micro():
    return CodecParams(MICRO, seed=5, norm_mean=[0.45, 0.5, 0.55], norm_std=[0.25, 0.3, 0.2])


class TestPrefixCore:
    LEVELS = (3, 1, 3)  # unsorted, with a duplicate

    def test_each_level_is_its_own_bitstream(self, micro):
        from odlc.codec import compress, decompress
        img = np.random.default_rng(8).random((3, 20, 36)).astype(np.float32)  # padded to 32x48
        outs = evaluation._decodes(micro, img, self.LEVELS)
        assert len(outs) == len(self.LEVELS)
        for t, (decoded, bits) in zip(self.LEVELS, outs):
            bs = compress(img, t, micro)
            want = decompress(bs, micro)
            np.testing.assert_array_equal(decoded, want)
            assert decoded.dtype == want.dtype
            assert bits == bs.payload_bits and type(bits) is int
        assert evaluation.roundtrip(micro, img, 2)[1] == compress(img, 2, micro).payload_bits

    def test_curves_equal_the_bitstream_path(self, micro, classifier, balanced_images):
        ds = Labeled(balanced_images[3:7], [0, 0, 1, 1])
        cfg = EvalConfig(s_comp=16, s_inf=16, grid=self.LEVELS)
        old = bitstream_roundtrip(micro)
        assert (evaluation.eval_quality_curve(micro, ds, cfg)
                == evaluation.eval_quality_curve(old, ds, cfg))
        assert (evaluation.eval_accuracy_curve(micro, classifier, ds, cfg)
                == evaluation.eval_accuracy_curve(old, classifier, ds, cfg))
        for t in self.LEVELS:
            assert (evaluation.preservation_rate(micro, classifier, balanced_images, t)
                    == evaluation.preservation_rate(old, classifier, balanced_images, t))
        rows, _ = evaluation.tradeoff_sweep({0.0: micro, 1.0: old}, classifier, ds,
                                            self.LEVELS, cfg)
        assert [r[1:] for r in rows[:3]] == [r[1:] for r in rows[3:]]

    def test_quality_curve_encodes_each_image_once(self, micro, monkeypatch):
        from odlc import codec
        calls = []
        progressive = codec.progressive_from_normalized

        def counting(xn, iterations, params, *args, **kwargs):
            calls.append(iterations)
            return progressive(xn, iterations, params, *args, **kwargs)
        monkeypatch.setattr(codec, "progressive_from_normalized", counting)
        imgs = [np.random.default_rng(i).random((3, 32, 32)).astype(np.float32)
                for i in range(3)]
        evaluation.eval_quality_curve(micro, Labeled(imgs, [0] * 3),
                                      EvalConfig(s_comp=32, s_inf=32, grid=(1, 2, 3, 4)))
        assert calls == [4, 4, 4]

    def test_stub_called_once_per_image_and_level(self, classifier, balanced_images):
        calls = []

        def spy(img, iters):
            calls.append((round(float(img[1, 0, 0]), 3), iters))
            return img, 16
        ds = Labeled(balanced_images[:4], [0] * 4)
        evaluation.eval_accuracy_curve(spy, classifier, ds,
                                       EvalConfig(s_comp=16, s_inf=16, grid=self.LEVELS))
        assert sorted(calls) == sorted((g, t) for g in (0.0, 0.1, 0.2, 0.3)
                                       for t in self.LEVELS)

    def test_row_order_and_duplicate_levels(self, micro, classifier, balanced_images):
        ds = Labeled(balanced_images[:2], [0, 0])
        cfg = EvalConfig(s_comp=16, s_inf=16, grid=self.LEVELS)
        pts = evaluation.eval_quality_curve(micro, ds, cfg)
        assert [p.level for p in pts] == list(self.LEVELS)
        assert pts[0] == pts[2]
        other = CodecParams(MICRO, seed=6)
        rows, _ = evaluation.tradeoff_sweep({1.0: other, 0.0: micro}, classifier, ds,
                                            self.LEVELS, cfg)
        assert [(r[0], r[1]) for r in rows] == [(0.0, 3), (0.0, 1), (0.0, 3),
                                                (1.0, 3), (1.0, 1), (1.0, 3)]
        assert rows[0] == rows[2] and rows[3] == rows[5]


class TestLevelChecks:
    @pytest.mark.parametrize("t_list", [(), (0,), (1, -2), (1.5,), (True,)])
    def test_sweep_rejects_bad_t_list(self, micro, classifier, balanced_images, t_list):
        ds = Labeled(balanced_images[:2], [0, 0])
        with pytest.raises(evaluation.EvalError, match="t_list"):
            evaluation.tradeoff_sweep({0.0: micro, 1.0: micro}, classifier, ds, t_list,
                                      EvalConfig(s_comp=16, s_inf=16))

    @pytest.mark.parametrize("grid", [(), (0, 1), ("2",)])
    def test_config_rejects_bad_grid(self, grid):
        with pytest.raises(evaluation.EvalError, match="grid"):
            EvalConfig(grid=grid)

    def test_sweep_rejects_empty_val_set(self, micro, classifier):
        with pytest.raises(evaluation.EvalError, match="empty validation set"):
            evaluation.tradeoff_sweep({0.0: micro, 1.0: micro}, classifier, Labeled([], [0]),
                                      (1,), EvalConfig(s_comp=16, s_inf=16))

    def test_ablation_rejects_empty_t_list_before_training(self, classifier):
        with pytest.raises(evaluation.EvalError, match="t_list"):
            evaluation.ablate_layers([("1.1",)], None, None, None, classifier,
                                     losses.LossConfig(alpha=1.0), None, (),
                                     EvalConfig(s_comp=16, s_inf=16))

    def test_core_keeps_the_compress_checks(self, micro):
        from odlc.codec import CodecError
        img = np.zeros((3, 16, 16), dtype=np.float32)
        with pytest.raises(CodecError, match="outside the trained range"):
            evaluation._decodes(micro, img, (1, MICRO.t_max + 1))
        with pytest.raises(CodecError, match="3xHxW"):
            evaluation._decodes(micro, img[0], (1,))
        with pytest.raises(CodecError, match="u16"):
            evaluation._decodes(micro, np.zeros((3, 1, 0x10000), dtype=np.float32), (1,))


def test_ablation_classifies_clean_crops_once(classifier, monkeypatch):
    from odlc import lossnet
    from odlc.datasets import ShapesDataset, ShapesSpec
    train = ShapesDataset(ShapesSpec(seed=4, split="train", size=4, classes=3, resolution=16))
    val = Labeled([np.random.default_rng(i).random((3, 16, 16)).astype(np.float32)
                   for i in range(3)], [0] * 3)
    f_l = ClassifierParams(ClassifierLayout(widths=(4, 8), classes=3, input_resolution=16),
                           seed=3)
    f_l.freeze()
    tiny = CodecLayout(enc_widths=(2, 2, 4, 4), dec_widths=(4, 4, 4, 4), bottleneck=2, t_max=4)
    cfg = trainer.TrainConfig.desk(resize_side=16, crop_size=16, unroll_steps=1, epochs=1,
                                   batch_size=4, val_interval=0, seed=2)
    calls = []
    classify = lossnet.classify

    def counting(x, params):
        calls.append(params)
        return classify(x, params)
    monkeypatch.setattr(lossnet, "classify", counting)
    rows, _ = evaluation.ablate_layers([("1.1",), ("2.1",)], train, val, f_l, classifier,
                                       losses.LossConfig(alpha=1.0), cfg, (1, 2, 1),
                                       EvalConfig(s_comp=16, s_inf=16), layout=tiny)
    assert [(r[0], r[1]) for r in rows] == [("1.1", 1), ("1.1", 2), ("1.1", 1),
                                           ("2.1", 1), ("2.1", 2), ("2.1", 1)]
    assert len(calls) == 3 + 2 * 3 * 3  # clean crops once, then one per decode
