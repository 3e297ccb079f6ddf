import os
from collections import Counter

import numpy as np
import pytest

from odlc import evaluation, parallel, trainer
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
    net.blocks[0][0].value[...] = k
    net.blocks[0][1].value[...] = np.zeros(4, dtype=np.float32)
    w = np.zeros_like(net.head_w.value)
    w[0, 0] = 1.0
    w[1, 0] = -1.0
    b = np.zeros_like(net.head_b.value)
    b[1] = 0.5
    net.head_w.value[...] = w
    net.head_b.value[...] = b
    net.freeze()
    return net


def rgb_image(r, g, b, res=16):
    img = np.empty((3, res, res), dtype=np.float32)
    img[0], img[1], img[2] = r, g, b
    return img


def identity_stub(img, iters):
    return img, iters * img.shape[1] * img.shape[2]


@pytest.fixture
def stubs(monkeypatch):
    """The protocols take a stub callable (image, iters) -> (decoded,
    payload_bits) as their codec: one call per image and level."""
    monkeypatch.setattr(evaluation, "_decodes",
                        lambda codec, img, levels: [codec(img, t) for t in levels])


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


def preservation(codec, classifier, images, iters: int) -> float:
    """Label preservation at one level: the accuracy curve's preservation
    point on 16 px images (no resize, no crop)."""
    ds = Labeled(images, [0] * max(len(images), 1))
    [point] = evaluation.eval_accuracy_curve(codec, classifier, ds, (iters,),
                                             EvalConfig(s_comp=16))["preservation"]
    return point.value


@pytest.mark.usefixtures("stubs")
class TestPreservation:
    def test_identity_stub_is_one(self, classifier, balanced_images):
        assert preservation(identity_stub, classifier, balanced_images, 2) == 1.0

    def test_constant_stub_matches_direct_count(self, classifier, balanced_images):
        constant = rgb_image(0.9, 0.5, 0.5)

        def stub(img, iters):
            return constant, 16

        got = preservation(stub, classifier, balanced_images, 1)
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

        assert preservation(stub, classifier, imgs, 1) == 0.75

    def test_empty_set_rejected(self, classifier):
        with pytest.raises(evaluation.EvalError, match="empty"):
            preservation(identity_stub, classifier, [], 1)


class TestEvalConfig:
    @pytest.mark.parametrize("s_comp", [0, -16, 2049, 64.0, True, "64"],
                             ids=["zero", "negative", "above-cap", "float", "bool", "str"])
    def test_s_comp_is_an_int_in_range(self, s_comp):
        with pytest.raises(evaluation.EvalError, match=r"s_comp must be an int in 1\.\.2048"):
            EvalConfig(s_comp=s_comp)

    def test_s_comp_cap_is_the_codec_and_dataset_side(self):
        from odlc import codec, datasets
        assert EvalConfig(s_comp=2048).s_comp == evaluation._MAX_S_COMP == 2048
        assert evaluation._MAX_S_COMP ** 2 == codec.MAX_PADDED_PIXELS
        assert evaluation._MAX_S_COMP == datasets._MAX_RESOLUTION

    def test_curve_point_bpp_positive(self):
        with pytest.raises(evaluation.EvalError, match="positive"):
            CurvePoint(level=1, bpp=0.0, value=0.5, n=1)


class TestAccuracyCurve:
    def test_identity_stub_matches_uncompressed(self, stubs, classifier, balanced_images):
        labels = [0] * 5 + [1] * 5
        ds = Labeled(balanced_images, labels)
        curves = evaluation.eval_accuracy_curve(identity_stub, classifier, ds, (1, 2),
                                                EvalConfig(s_comp=16))
        for p in curves["preservation"]:
            assert p.value == 1.0
        for p in curves["accuracy"]:
            assert p.value == 1.0  # the crafted net is exact on these images
        assert [p.level for p in curves["accuracy"]] == [1, 2]
        assert all(p.n == 10 for p in curves["accuracy"])

    def test_bpp_is_mean_over_images(self, stubs, classifier):
        imgs = [rgb_image(0.9, 0.0, 0.0), rgb_image(0.9, 1.0, 0.0)]
        ds = Labeled(imgs, [0, 0])
        per_image = {0.0: int(0.10 * 16 * 16), 1.0: int(0.20 * 16 * 16)}

        def stub(img, iters):
            return img, per_image[float(img[1, 0, 0])]

        curves = evaluation.eval_accuracy_curve(stub, classifier, ds, (1,), EvalConfig(s_comp=16))
        want = (per_image[0.0] + per_image[1.0]) / (2 * 16 * 16)
        assert curves["accuracy"][0].bpp == pytest.approx(want)
        assert want == pytest.approx(0.15, abs=0.005)

    def test_classifier_resolution_must_match(self, classifier, balanced_images):
        ds = Labeled(balanced_images, [0] * 10)
        with pytest.raises(evaluation.EvalError, match="s_comp 8 is below the classifier's"):
            evaluation.eval_accuracy_curve(identity_stub, classifier, ds, (1,),
                                           EvalConfig(s_comp=8))


class TestQualityCurve:
    def test_identity_stub_msssim_one(self, stubs, balanced_images):
        ds = Labeled(balanced_images, [0] * 10)
        pts = evaluation.eval_quality_curve(identity_stub, ds, (1, 3), EvalConfig(s_comp=16))
        for p in pts:
            assert p.value == pytest.approx(1.0, abs=1e-6)

    def test_constant_resolution_skips_resize(self, stubs):
        seen = []

        def spy(img, iters):
            seen.append(img.shape)
            return img, 100
        imgs = [np.random.default_rng(i).random((3, 48, 48)).astype(np.float32)
                for i in range(3)]
        ds = Labeled(imgs, [0] * 3)
        evaluation.eval_quality_curve(spy, ds, (1,), EvalConfig(s_comp=64))
        assert set(seen) == {(3, 48, 48)}  # native size kept (the Kodak rule)

    def test_single_image_bpp_exact(self):
        params = CodecParams(MICRO, seed=4)
        img = np.random.default_rng(0).random((3, 32, 32)).astype(np.float32)
        ds = Labeled([img], [0])
        pts = evaluation.eval_quality_curve(params, ds, (2,), EvalConfig(s_comp=32))
        from odlc.codec import compress
        assert pts[0].bpp == compress(img, 2, params).bpp

    def test_curve_bpp_matches_bit_law(self):
        params = CodecParams(MICRO, seed=4)
        imgs = [np.random.default_rng(i).random((3, 32, 32)).astype(np.float32)
                for i in range(3)]
        ds = Labeled(imgs, [0] * 3)
        pts = evaluation.eval_quality_curve(params, ds, (1, 2), EvalConfig(s_comp=32))
        for p in pts:
            assert p.bpp == p.level * 4 * 2 * 2 / (32 * 32)


class TestSweep:
    def test_cross_product_and_skips(self, classifier, balanced_images):
        ds = Labeled(balanced_images, [0] * 5 + [1] * 5)
        a = CodecParams(CodecLayout(enc_widths=(2, 2, 4, 4), dec_widths=(4, 4, 4, 4),
                                    bottleneck=2, t_max=4), seed=1)
        ckpts = {0.0: a, 0.5: None, 1.0: a}
        rows, skipped = evaluation.tradeoff_sweep(ckpts, classifier, ds, (1, 2),
                                                  EvalConfig(s_comp=16))
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
                                      classifier, ds, (1,), EvalConfig(s_comp=16))


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
            sets, train, val, f_l, classifier, cfg, (1, 2), EvalConfig(s_comp=16), layout=tiny)
        assert len(rows) == len(sets) * 2
        for tag, log in logs.items():
            vals = [r[1] for r in log]
            assert all(np.isfinite(v) for v in vals)
            assert vals[-1] < vals[0]  # overfitting 16 images reduces the loss
        tags = [r[0] for r in rows]
        assert "1.1+2.1" in tags


def bitstream_decodes(codec, img, levels):
    """The per-level compress -> decompress path: the oracle of the
    prefix-decoded core."""
    from odlc.codec import compress, decompress
    out = []
    for t in levels:
        bs = compress(img, t, codec)
        out.append((decompress(bs, codec), bs.payload_bits))
    return out


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

    def test_curves_equal_the_bitstream_path(self, micro, classifier, balanced_images,
                                             monkeypatch):
        ds = Labeled(balanced_images[3:7], [0, 0, 1, 1])
        cfg = EvalConfig(s_comp=16)
        ckpts = {0.0: micro, 1.0: CodecParams(MICRO, seed=6)}

        def protocols():
            return (evaluation.eval_quality_curve(micro, ds, self.LEVELS, cfg),
                    evaluation.eval_accuracy_curve(micro, classifier, ds, self.LEVELS, cfg),
                    evaluation.tradeoff_sweep(ckpts, classifier, ds, self.LEVELS, cfg))
        prefix = protocols()
        monkeypatch.setattr(evaluation, "_decodes", bitstream_decodes)
        assert protocols() == prefix

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
        evaluation.eval_quality_curve(micro, Labeled(imgs, [0] * 3), (1, 2, 3, 4),
                                      EvalConfig(s_comp=32))
        assert calls == [4, 4, 4]

    def test_every_protocol_decodes_once_per_image(self, micro, classifier, balanced_images,
                                                   monkeypatch):
        """As a multiset: the traces run through parallel.map, which fixes
        no call order across its threads."""
        calls = []
        decodes = evaluation._decodes

        def spy(codec, img, levels):
            calls.append((codec, round(float(img[1, 0, 0]), 3), tuple(levels)))
            return decodes(codec, img, levels)
        monkeypatch.setattr(evaluation, "_decodes", spy)
        other = CodecParams(MICRO, seed=6)
        monkeypatch.setattr(trainer, "train_codec", lambda *a, **k: (other, [], None))
        ds = Labeled(balanced_images[:3], [0] * 3)
        cfg = EvalConfig(s_comp=16)
        greens = (0.0, 0.1, 0.2)

        def each(*codecs):
            return Counter((c, g, self.LEVELS) for c in codecs for g in greens)
        evaluation.eval_quality_curve(micro, ds, self.LEVELS, cfg)
        assert Counter(calls) == each(micro)
        calls.clear()
        evaluation.eval_accuracy_curve(micro, classifier, ds, self.LEVELS, cfg)
        assert Counter(calls) == each(micro)
        calls.clear()
        evaluation.tradeoff_sweep({1.0: other, 0.0: micro}, classifier, ds, self.LEVELS, cfg)
        assert Counter(calls) == each(micro, other)
        calls.clear()
        evaluation.ablate_layers([("1.1",), ("2.1",)], None, ds, None, classifier, None,
                                 self.LEVELS, cfg, layout=MICRO)
        assert Counter(calls) == each(other, other)

    def test_every_protocol_returns_the_same_rows_on_one_and_two_workers(
            self, micro, classifier, balanced_images, monkeypatch):
        other = CodecParams(MICRO, seed=6)
        monkeypatch.setattr(trainer, "train_codec", lambda *a, **k: (other, [], None))
        ds = Labeled(balanced_images[2:7], [0, 1, 0, 1, 1])
        cfg = EvalConfig(s_comp=16)

        def protocols(cores):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
            out = (evaluation.eval_quality_curve(micro, ds, self.LEVELS, cfg),
                   evaluation.eval_accuracy_curve(micro, classifier, ds, self.LEVELS, cfg),
                   evaluation.tradeoff_sweep({1.0: other, 0.0: micro}, classifier, ds,
                                             self.LEVELS, cfg),
                   evaluation.ablate_layers([("1.1",), ("2.1",)], None, ds, None, classifier,
                                            None, self.LEVELS, cfg, layout=MICRO)[0])
            return out, parallel.last_region()

        serial, one = protocols({0})
        threaded, two = protocols({0, 1})
        assert one.startswith("workers=1 ")
        if parallel._openblas() is not None:
            assert two == "workers=2 blas=openblas-pinned"
        assert threaded == serial

    def test_row_order_and_duplicate_levels(self, micro, classifier, balanced_images):
        ds = Labeled(balanced_images[:2], [0, 0])
        cfg = EvalConfig(s_comp=16)
        pts = evaluation.eval_quality_curve(micro, ds, self.LEVELS, cfg)
        assert [p.level for p in pts] == list(self.LEVELS)
        assert pts[0] == pts[2]
        other = CodecParams(MICRO, seed=6)
        rows, _ = evaluation.tradeoff_sweep({1.0: other, 0.0: micro}, classifier, ds,
                                            self.LEVELS, cfg)
        assert [(r[0], r[1]) for r in rows] == [(0.0, 3), (0.0, 1), (0.0, 3),
                                                (1.0, 3), (1.0, 1), (1.0, 3)]
        assert rows[0] == rows[2] and rows[3] == rows[5]


class TestLevelChecks:
    @staticmethod
    def _protocols(micro, classifier, ds, cfg):
        """Each protocol, as a function of its levels."""
        return {
            "quality": lambda levels: evaluation.eval_quality_curve(micro, ds, levels, cfg),
            "accuracy": lambda levels: evaluation.eval_accuracy_curve(micro, classifier, ds,
                                                                      levels, cfg),
            "sweep": lambda levels: evaluation.tradeoff_sweep({0.0: micro, 1.0: micro},
                                                              classifier, ds, levels, cfg),
            "ablation": lambda levels: evaluation.ablate_layers([("1.1",)], ds, ds, None,
                                                                classifier, None, levels, cfg),
        }

    @staticmethod
    def _no_work(monkeypatch):
        """Spies on the decode core and on training; returns their calls."""
        calls = []
        monkeypatch.setattr(evaluation, "_decodes", lambda *a: calls.append("decode"))
        monkeypatch.setattr(trainer, "train_codec", lambda *a, **k: calls.append("train"))
        return calls

    @pytest.mark.parametrize("levels", [(), (0,), (1, -2), (1.5,), (True,), ("2",)],
                             ids=["empty", "zero", "negative", "float", "bool", "str"])
    @pytest.mark.parametrize("protocol", ["quality", "accuracy", "sweep", "ablation"])
    def test_every_protocol_rejects_bad_levels_before_any_encode(
            self, protocol, levels, micro, classifier, balanced_images, monkeypatch):
        calls = self._no_work(monkeypatch)
        run = self._protocols(micro, classifier, Labeled(balanced_images[:2], [0, 0]),
                              EvalConfig(s_comp=16))[protocol]
        with pytest.raises(evaluation.EvalError,
                           match=r"levels must be non-empty$|level .+ is not an int >= 1$"):
            run(levels)
        assert calls == []

    def test_sweep_rejects_empty_val_set(self, micro, classifier):
        with pytest.raises(evaluation.EvalError, match="empty validation set"):
            evaluation.tradeoff_sweep({0.0: micro, 1.0: micro}, classifier, Labeled([], [0]),
                                      (1,), EvalConfig(s_comp=16))

    @pytest.mark.parametrize("protocol", ["accuracy", "sweep", "ablation"])
    def test_classifier_resolution_checked_before_any_encode(self, protocol, micro, classifier,
                                                             balanced_images, monkeypatch):
        calls = self._no_work(monkeypatch)
        run = self._protocols(micro, classifier, Labeled(balanced_images, [0] * 10),
                              EvalConfig(s_comp=12))[protocol]  # the classifier reads 16 px
        with pytest.raises(evaluation.EvalError,
                           match="s_comp 12 is below the classifier's input side 16$"):
            run((1,))
        assert calls == []

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
    rows, _ = evaluation.ablate_layers([("1.1",), ("2.1",)], train, val, f_l, classifier, cfg,
                                       (1, 2, 1), EvalConfig(s_comp=16), layout=tiny)
    assert [(r[0], r[1]) for r in rows] == [("1.1", 1), ("1.1", 2), ("1.1", 1),
                                           ("2.1", 1), ("2.1", 2), ("2.1", 1)]
    assert len(calls) == 3 + 2 * 3 * 3  # clean crops once, then one per decode
