import dataclasses
import re

import numpy as np
import pytest

from odlc import autodiff as ad
from odlc import cli, codec, imageops, losses, lossnet, trainer
from odlc.codec import CodecLayout, CodecParams, reconstruct_progressive
from odlc.lossnet import ClassifierLayout, ClassifierParams
from odlc.datasets import ShapesDataset, ShapesSpec
from oracles import adam_trajectory_direct

MICRO = CodecLayout(enc_widths=(4, 6, 8, 8), dec_widths=(8, 8, 8, 4), bottleneck=4, t_max=8)
TAPS = ("1.1", "2.1")
NORM = ((0.45, 0.5, 0.55), (0.25, 0.3, 0.2))


@pytest.fixture(scope="module")
def toy_net():
    net = ClassifierParams(ClassifierLayout(widths=(4, 8), classes=2, input_resolution=32),
                           seed=4)
    net.freeze()
    return net


class TestTrainConfig:
    def test_paper_constants_are_defaults(self):
        cfg = trainer.TrainConfig()
        assert cfg.learning_rate == 4e-4
        assert cfg.batch_size == 4
        assert cfg.epochs == 3
        assert cfg.unroll_steps == 8
        assert (trainer.Adam.beta1, trainer.Adam.beta2, trainer.Adam.eps) == (0.9, 0.999, 1e-8)

    def test_entropy_term_structurally_rejected(self, tmp_path, capsys):
        # no rate weight exists, so a config file cannot ask for one
        cfgfile = tmp_path / "t.cfg"
        cfgfile.write_text("beta = 0.1\n")
        rc = cli.main(["train-codec", "--data", "shapes:seed=1,split=train,n=4,classes=2,res=32",
                       "--out", str(tmp_path / "run"), "--seed", "0", "--config", str(cfgfile)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "unknown config key 'beta'" in err and "Traceback" not in err

    def test_desk_profile(self):
        cfg = trainer.TrainConfig.desk()
        assert (cfg.resize_side, cfg.crop_size, cfg.unroll_steps) == (64, 56, 4)

    @pytest.mark.parametrize("field,value", [
        ("learning_rate", float("nan")), ("learning_rate", float("inf")), ("learning_rate", 0.0),
        ("grad_clip", float("nan")), ("grad_clip", float("inf")), ("grad_clip", -1.0),
        ("crop_size", 0), ("crop_size", -4), ("val_interval", -1),
    ])
    def test_bad_numbers_rejected(self, field, value):
        with pytest.raises(trainer.TrainError, match=f"{field} must be"):
            trainer.TrainConfig.desk(**{field: value})
        with pytest.raises(trainer.TrainError, match=f"{field} must be"):
            dataclasses.replace(trainer.TrainConfig.desk(), **{field: value})

    def test_edge_numbers_accepted(self):
        cfg = trainer.TrainConfig.desk(learning_rate=1e-30, grad_clip=0.0, crop_size=1,
                                       val_interval=0)
        assert (cfg.grad_clip, cfg.crop_size, cfg.val_interval) == (0.0, 1, 0)

    def test_nan_learning_rate_flag_exits_1_without_a_checkpoint(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = cli.main(["train-codec", "--data", "shapes:seed=0,n=4,res=64", "--batch-size", "4",
                       "--epochs", "1", "--unroll-steps", "1", "--learning-rate", "nan",
                       "--out", str(out), "--seed", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "odlc train-codec: learning_rate must be finite and > 0, got nan\n"
        assert not (out / "codec_final.ckpt").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_overflowing_update_exits_1_without_a_checkpoint(self, tmp_path, capsys):
        """A learning rate this large sends Adam's float32 update to inf in
        one step; the run stops before the epoch checkpoint is written."""
        out = tmp_path / "run"
        rc = cli.main(["train-codec", "--data", "shapes:seed=0,n=4,res=64", "--batch-size", "4",
                       "--epochs", "1", "--unroll-steps", "1", "--learning-rate", "1e39",
                       "--out", str(out), "--seed", "0"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "odlc train-codec: parameter enc.conv_in.kernel became non-finite by step 1\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("line,message", [
        ("learning_rate = inf", "learning_rate must be finite and > 0, got inf"),
        ("crop_size = -4", "crop_size must be >= 1, got -4"),
    ])
    def test_bad_number_in_config_file_exits_1(self, line, message, tmp_path, capsys):
        cfgfile = tmp_path / "t.cfg"
        cfgfile.write_text(line + "\n")
        out = tmp_path / "run"
        rc = cli.main(["train-codec", "--data", "shapes:seed=0,n=4,res=64", "--batch-size", "4",
                       "--epochs", "1", "--unroll-steps", "1", "--out", str(out), "--seed", "0",
                       "--config", str(cfgfile)])
        assert rc == 1
        assert capsys.readouterr().err == f"odlc train-codec: {message}\n"
        assert not out.exists()


class TestPreprocess:
    def test_resize_skipped_when_smallest_side_matches(self):
        cfg = trainer.TrainConfig()
        x = np.random.default_rng(0).random((3, 512, 256), dtype=np.float32)
        out = trainer.augment_geometry(x, "val", None, cfg)
        # no resample: the center 224 crop of the original
        np.testing.assert_array_equal(out, imageops.center_crop(x, 224))

    def test_flip_involution(self):
        x = np.random.default_rng(1).random((3, 8, 9), dtype=np.float32)
        np.testing.assert_array_equal(imageops.hflip(imageops.hflip(x)), x)

    def test_normalize_denormalize_identity(self):
        x = np.random.default_rng(2).random((3, 16, 16), dtype=np.float32)
        mean = np.array([0.4, 0.5, 0.6], dtype=np.float32)
        std = np.array([0.2, 0.3, 0.25], dtype=np.float32)
        back = imageops.denormalize(imageops.normalize(x, mean, std), mean, std)
        np.testing.assert_allclose(back, x, atol=1e-6)

    def test_too_small_after_resize_rejected(self):
        cfg = trainer.TrainConfig.desk(normalization=([0.0] * 3, [1.0] * 3))
        # resize keeps smallest side at 64, other side shrinks below crop? no:
        # aspect keeps both >= 64 >= crop; instead crop > resize_side is the error path
        with pytest.raises(trainer.TrainError):
            trainer.TrainConfig.desk(crop_size=80)

    def test_train_split_needs_rng(self):
        cfg = trainer.TrainConfig.desk()
        x = np.zeros((3, 64, 64), dtype=np.float32)
        with pytest.raises(trainer.TrainError, match="generator"):
            trainer.augment_geometry(x, "train", None, cfg)

    def test_random_crop_and_flip_deterministic_given_rng(self):
        cfg = trainer.TrainConfig.desk()
        x = np.random.default_rng(3).random((3, 80, 70), dtype=np.float32)
        a = trainer.augment_geometry(x, "train", np.random.default_rng(9), cfg)
        b = trainer.augment_geometry(x, "train", np.random.default_rng(9), cfg)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (3, 56, 56)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = ad.Parameter("p", np.array([1.0, -2.0]))
        opt = trainer.Adam([p], lr=0.1)
        before = p.value.copy()
        opt.step()  # grads are zero buffers
        np.testing.assert_array_equal(p.value, before)

    def test_first_step_is_lr_sign(self):
        p = ad.Parameter("p", np.array([1.0, 1.0]), dtype=np.float64)
        p.grad[...] = np.array([0.3, -0.07])
        opt = trainer.Adam([p], lr=0.01)
        opt.step()
        np.testing.assert_allclose(p.value, [1.0 - 0.01, 1.0 + 0.01], atol=1e-6)

    def test_quadratic_trajectory_matches_reference(self):
        # f(theta) = 0.5 * sum(a * theta^2), grad = a * theta
        a = np.array([1.0, 3.0, 0.25])
        theta0 = np.array([1.0, -2.0, 4.0])
        p = ad.Parameter("p", theta0, dtype=np.float64)
        opt = trainer.Adam([p], lr=0.05)
        for _ in range(100):
            p.grad[...] = a * p.value
            opt.step()
        want = adam_trajectory_direct(theta0, lambda th: a * th, 0.05, 0.9, 0.999, 1e-8, 100)
        np.testing.assert_allclose(p.value, want, atol=1e-6)

    def test_non_finite_gradient_rejected(self):
        p = ad.Parameter("p", np.ones(2))
        p.grad[...] = np.array([np.nan, 0.0])
        opt = trainer.Adam([p], lr=0.1)
        before = p.value.copy()
        with pytest.raises(trainer.NonFiniteGradientError, match="p"):
            opt.step()
        np.testing.assert_array_equal(p.value, before)  # step rejected

    def test_clip_global_norm(self):
        p1 = ad.Parameter("a", np.zeros(1))
        p2 = ad.Parameter("b", np.zeros(1))
        p1.grad[...] = [3.0]
        p2.grad[...] = [4.0]
        norm = trainer.clip_global_norm([p1, p2], 1.0)
        assert norm == pytest.approx(5.0)
        assert np.hypot(p1.grad[0], p2.grad[0]) == pytest.approx(1.0)


class TestStepLoss:
    def test_all_unrolled_steps_supervised(self):
        params = CodecParams(MICRO, seed=1)
        x = np.random.default_rng(0).random((3, 32, 32), dtype=np.float32)
        cfg = losses.LossConfig(alpha=0.0)
        loss, _ = trainer.step_loss(x, 3, params, cfg, rng=np.random.default_rng(1))
        replay = codec.progressive_from_normalized(codec.normalized_input(x, params), 3, params,
                                                   rng=np.random.default_rng(1))
        terms = [losses.observer_distortion(
                     x, imageops.denormalize(xhat.data, params.norm_mean, params.norm_std),
                     cfg)[0].item() for xhat, _ in replay]
        assert len(terms) == 3  # one distortion term per unrolling step
        assert loss.item() == pytest.approx(np.mean(terms), rel=1e-6)

    def test_step_loss_equals_observer_distortion(self):
        params = CodecParams(MICRO, seed=2)
        x = np.random.default_rng(1).random((3, 32, 32), dtype=np.float32)
        cfg = losses.LossConfig(alpha=0.0)
        loss, _ = trainer.step_loss(x, 1, params, cfg)
        [(xhat, _)] = codec.progressive_from_normalized(codec.normalized_input(x, params), 1,
                                                        params)
        y01 = imageops.denormalize(xhat.data, params.norm_mean, params.norm_std)
        want = losses.observer_distortion(x.astype(np.float32), y01, cfg)[0].item()
        assert loss.item() == pytest.approx(want, rel=1e-5)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_components_follow_alpha(self, alpha, toy_net):
        params = CodecParams(MICRO, seed=3)
        x = np.random.default_rng(2).random((3, 32, 32), dtype=np.float32)
        cfg = losses.LossConfig(alpha=alpha, layer_ids=TAPS)
        loss, info = trainer.step_loss(x, 3, params, cfg, lossnet=toy_net,
                                       rng=np.random.default_rng(4))
        assert np.isfinite(info["d_h"]) == (alpha < 1.0)
        assert np.isfinite(info["d_c"]) == (alpha > 0.0)
        if alpha != 0.5:
            return
        d_h, d_c = [], []
        replay = codec.progressive_from_normalized(codec.normalized_input(x, params), 3, params,
                                                   rng=np.random.default_rng(4))
        for recon, _ in replay:
            y01 = imageops.denormalize(recon.data, params.norm_mean, params.norm_std)
            d_h.append(losses.human_distortion(x, y01).item())
            d_c.append(losses.feature_distortion(x, y01, toy_net, TAPS).item())
        want = np.mean([(1 - alpha) * cfg.lambda_h * h + alpha * c for h, c in zip(d_h, d_c)])
        assert loss.item() == pytest.approx(want, rel=1e-5)
        assert info["d_h"] == pytest.approx(np.mean(d_h), rel=1e-5)
        assert info["d_c"] == pytest.approx(np.mean(d_c), rel=1e-5)

    def test_clean_image_taps_computed_once(self, toy_net, monkeypatch):
        # T=4 at alpha=1: phi(x) once plus phi(x_hat_t) per step, 5 forwards, not 8
        calls = []
        features = toy_net.features

        def counted(x, layer_ids):
            calls.append(x)
            return features(x, layer_ids)
        monkeypatch.setattr(toy_net, "features", counted)
        x = np.random.default_rng(5).random((3, 32, 32), dtype=np.float32)
        cfg = losses.LossConfig(alpha=1.0, layer_ids=TAPS)
        trainer.step_loss(x, 4, CodecParams(MICRO, seed=4), cfg, lossnet=toy_net)
        assert len(calls) == 5

    def test_backward_peak_within_forward_memory(self, traced):
        # backward frees each record once replayed, so its peak stays near
        # what the forward left on the tape instead of adding a gradient
        # per activation (about twice that when nothing is freed)
        params = CodecParams(CodecLayout(), seed=0)
        net = ClassifierParams(ClassifierLayout(), seed=1)
        net.freeze()
        params.zero_grads()  # the persistent buffers are not backward's to count
        x = np.random.default_rng(5).random((3, 64, 64), dtype=np.float32)
        cfg = losses.LossConfig(alpha=0.5)
        with traced() as t:
            with ad.Tape() as tape:
                loss, _ = trainer.step_loss(x, 4, params, cfg, lossnet=net,
                                            rng=np.random.default_rng(6))
            held = t.held
            t.reset_peak()
            ad.backward(loss, tape)
        assert t.peak <= 1.1 * held, (t.peak, held)


class FixedDataset:
    def __init__(self, images, labels=None):
        self.images = images
        self.labels = labels or [0] * len(images)
        self.class_count = max(self.labels) + 1

    def __len__(self):
        return len(self.images)

    def image(self, i):
        return self.images[i]

    def label(self, i):
        return self.labels[i]


def overflowing_adam(at_step):
    """An Adam whose update sends one parameter to inf at step ``at_step``."""
    class Overflowing(trainer.Adam):
        def step(self):
            super().step()
            if self.t == at_step:
                self.params[3].value[...] = np.inf
    return Overflowing


class TestTrainCodec:
    def _sets(self, n=8, res=32):
        rng = np.random.default_rng(0)
        imgs = [rng.random((3, res, res), dtype=np.float32) for _ in range(n)]
        return FixedDataset(imgs)

    def _cfg(self, **kw):
        base = dict(resize_side=32, crop_size=32, unroll_steps=2, epochs=1,
                    batch_size=4, val_interval=0, seed=5)
        base.update(kw)
        return trainer.TrainConfig.desk(**base)

    def test_deterministic_given_seed(self, tmp_path):
        ds = self._sets()
        cfg = self._cfg()
        lc = losses.LossConfig(alpha=0.0)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        p1, log1, _ = trainer.train_codec(ds, ds, lc, cfg, layout=MICRO, out_dir=str(out1))
        p2, log2, _ = trainer.train_codec(ds, ds, lc, cfg, layout=MICRO, out_dir=str(out2))
        assert [r[1] for r in log1] == [r[1] for r in log2]
        assert (out1 / "codec_final.ckpt").read_bytes() == (out2 / "codec_final.ckpt").read_bytes()

    def test_alpha_needs_lossnet(self):
        ds = self._sets()
        with pytest.raises(trainer.TrainError, match="loss network"):
            trainer.train_codec(ds, ds, losses.LossConfig(alpha=1.0), self._cfg(), layout=MICRO)

    def test_divergence_aborts_with_diagnostic(self):
        bad = FixedDataset([np.full((3, 32, 32), np.nan, dtype=np.float32)] * 4)
        with pytest.raises(trainer.TrainingDiverged, match="step 1"):
            trainer.train_codec(bad, bad, losses.LossConfig(alpha=0.0), self._cfg(),
                                layout=MICRO)

    def test_loss_finite_and_logged(self):
        ds = self._sets()
        _, log, _ = trainer.train_codec(ds, ds, losses.LossConfig(alpha=0.0), self._cfg(),
                                        layout=MICRO)
        assert len(log) == 2
        for row in log:
            assert np.isfinite(row[1])
            assert np.isfinite(row[2])  # d_H active at alpha=0
            assert np.isnan(row[3])  # d_C inactive at alpha=0

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_val_log_reports_the_objective(self, alpha, toy_net):
        ds = self._sets()
        cfg = self._cfg(val_interval=2)
        lc = losses.LossConfig(alpha=alpha, layer_ids=TAPS)
        params, log, val_log = trainer.train_codec(ds, ds, lc, cfg, lossnet=toy_net,
                                                   layout=MICRO)
        assert len(log) == 2 and len(val_log) == 1
        objective, scores = [], []
        for i in range(len(ds)):
            img = trainer.augment_geometry(ds.image(i), "val", None, cfg)
            trace = reconstruct_progressive(img, 2, params)
            objective.append(np.mean([
                losses.observer_distortion(img, trace.decoded(t), lc, toy_net)[0].item()
                for t in (1, 2)]))
            scores.append(losses.ms_ssim(img, trace.decoded()).item())
        assert val_log[0] == (2, float(np.mean(objective)), float(np.mean(scores)))

    def test_unroll_steps_beyond_layout_rejected(self):
        ds = self._sets()
        with pytest.raises(trainer.TrainError, match="t_max"):
            trainer.train_codec(ds, ds, losses.LossConfig(alpha=0.0),
                                self._cfg(unroll_steps=9), layout=MICRO)

    def test_divergence_names_the_last_good_checkpoint(self, tmp_path):
        class GoesBad(FixedDataset):
            calls = 0

            def image(self, i):  # finite for the first epoch, NaN after it
                self.calls += 1
                img = self.images[i]
                return img if self.calls <= len(self) else np.full_like(img, np.nan)

        ds = GoesBad(self._sets(n=4).images)
        cfg = self._cfg(epochs=2, normalization=NORM)
        with pytest.raises(trainer.TrainingDiverged,
                           match=r"at step 2; last good checkpoint: .*codec_epoch1\.ckpt"):
            trainer.train_codec(ds, ds, losses.LossConfig(alpha=0.0), cfg, layout=MICRO,
                                out_dir=str(tmp_path))

    @pytest.mark.parametrize("saving", [True, False])
    def test_parameter_overflow_names_the_last_good_checkpoint(self, tmp_path, monkeypatch,
                                                               saving):
        monkeypatch.setattr(trainer, "Adam", overflowing_adam(2))
        ds = self._sets(n=4)
        cfg = self._cfg(epochs=2, normalization=NORM)
        out = tmp_path / "run"
        last_good = f"; last good checkpoint: {out / 'codec_epoch1.ckpt'}" if saving else ""
        with pytest.raises(trainer.TrainingDiverged,
                           match=rf"^parameter \S+ became non-finite by step 2{re.escape(last_good)}$"):
            trainer.train_codec(ds, ds, losses.LossConfig(alpha=0.0), cfg, layout=MICRO,
                                out_dir=str(out) if saving else None)
        if saving:
            assert list(out.iterdir()) == [out / "codec_epoch1.ckpt"]
        else:
            assert not out.exists()

    def test_parameter_overflow_stops_at_its_step(self, tmp_path, monkeypatch):
        # 8 images at batch 4: two steps per epoch, and the first overflows
        monkeypatch.setattr(trainer, "Adam", overflowing_adam(1))
        ds = self._sets(n=8)
        out, steps = tmp_path / "run", []
        with pytest.raises(trainer.TrainingDiverged,
                           match=r"^parameter \S+ became non-finite by step 1$"):
            trainer.train_codec(ds, ds, losses.LossConfig(alpha=0.0),
                                self._cfg(normalization=NORM), layout=MICRO, out_dir=str(out),
                                progress=lambda step, row: steps.append(step))
        assert steps == [] and not out.exists()


def img(seed, res):
    return np.random.default_rng(seed).random((3, res, res), dtype=np.float32)


class TestTrainClassifier:
    def test_empty_dataset_rejected(self):
        cfg = trainer.TrainConfig.desk(normalization=NORM)
        with pytest.raises(trainer.TrainError, match="0 images smaller than one batch"):
            trainer.train_classifier(FixedDataset([], [1]), cfg)

    def test_smaller_than_one_batch_rejected(self):
        ds = FixedDataset([img(i, 64) for i in range(3)], [0, 1, 0])
        with pytest.raises(trainer.TrainError, match="3 images smaller than one batch of 4"):
            trainer.train_classifier(ds, trainer.TrainConfig.desk(batch_size=4))

    def test_degenerate_labels_rejected(self):
        ds = FixedDataset([img(i, 64) for i in range(4)], [7] * 4)
        ds.class_count = 3  # label 7 lies outside the 3-class layout
        with pytest.raises(trainer.TrainError, match="degenerate label"):
            trainer.train_classifier(ds, trainer.TrainConfig.desk())

    def test_single_example_overfits(self):
        ds = FixedDataset([img(42, 32)], [2])
        cfg = trainer.TrainConfig.desk(resize_side=32, crop_size=32, batch_size=1,
                                       epochs=500, learning_rate=2e-3)
        layout = ClassifierLayout(widths=(4, 8), classes=4, input_resolution=32)
        params, log = trainer.train_classifier(ds, cfg, layout=layout)
        assert log[-1][1] < 1e-2

    def test_fixed_seed_reproducible(self, tmp_path):
        ds = ShapesDataset(ShapesSpec(seed=3, split="train", size=16, classes=4, resolution=32))
        cfg = trainer.TrainConfig.desk(resize_side=32, crop_size=32, batch_size=4, epochs=2,
                                       seed=7)
        layout = ClassifierLayout(widths=(4, 8), classes=4, input_resolution=32)
        p1, log1 = trainer.train_classifier(ds, cfg, layout=layout)
        p2, log2 = trainer.train_classifier(ds, cfg, layout=layout)
        assert [r[1] for r in log1] == [r[1] for r in log2]
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        p1.save(a)
        p2.save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_parameter_overflow_stops_at_its_step(self, monkeypatch):
        monkeypatch.setattr(trainer, "Adam", overflowing_adam(1))
        ds = ShapesDataset(ShapesSpec(seed=3, split="train", size=8, classes=4, resolution=32))
        cfg = trainer.TrainConfig.desk(resize_side=32, crop_size=32, batch_size=4, epochs=1,
                                       normalization=NORM)
        layout = ClassifierLayout(widths=(4,), classes=4, input_resolution=32)
        with pytest.raises(trainer.TrainingDiverged,
                           match=r"^parameter head\.bias became non-finite by step 1$"):
            trainer.train_classifier(ds, cfg, layout=layout)

    def test_frozen_after_training(self):
        ds = ShapesDataset(ShapesSpec(seed=3, split="train", size=8, classes=4, resolution=32))
        cfg = trainer.TrainConfig.desk(resize_side=32, crop_size=32, batch_size=4, epochs=1)
        layout = ClassifierLayout(widths=(4,), classes=4, input_resolution=32)
        params, _ = trainer.train_classifier(ds, cfg, layout=layout)
        assert all(not p.tensor.requires_grad for p in params.parameters())

    def test_one_row_per_step_and_the_codec_normalization(self):
        # 9 images at batch 4: 2 steps per epoch, the ninth image dropped
        ds = ShapesDataset(ShapesSpec(seed=8, split="train", size=9, classes=3, resolution=48))
        cfg = trainer.TrainConfig.desk(resize_side=32, crop_size=32, batch_size=4, epochs=2)
        layout = ClassifierLayout(widths=(4,), classes=3, input_resolution=32)
        params, log = trainer.train_classifier(ds, cfg, layout=layout)
        assert [row[0] for row in log] == [1, 2, 3, 4]
        assert all(np.isfinite(row[1]) and row[2] == cfg.learning_rate for row in log)
        # fitted on the resized 32 px images, not on the raw 48 px ones
        mean, std = trainer.fit_normalization(ds, cfg)
        np.testing.assert_array_equal(params.norm_mean, mean)
        np.testing.assert_array_equal(params.norm_std, std)
        raw_mean, _ = imageops.channel_stats(ds.image(i) for i in range(len(ds)))
        assert not np.array_equal(params.norm_mean, raw_mean)

    def test_evaluate_accuracy_counts_top1(self):
        ds = ShapesDataset(ShapesSpec(seed=3, split="val", size=6, classes=3, resolution=32))
        cfg = trainer.TrainConfig.desk(resize_side=32, crop_size=32)
        net = ClassifierParams(ClassifierLayout(widths=(4,), classes=3, input_resolution=32),
                               seed=2)
        hits = [lossnet.classify(imageops.center_crop(ds.image(i), 32), net)[0] == ds.label(i)
                for i in range(len(ds))]
        assert trainer.evaluate_accuracy(net, ds, cfg) == sum(hits) / len(ds)
