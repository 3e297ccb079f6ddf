import argparse
import os
import sys
from dataclasses import replace

import numpy as np
import pytest

from odlc import bitstream, checkpoint, cli, configio, datasets, evaluation, parallel, ppm, trainer
from odlc.codec import CodecLayout, CodecParams, compress
from odlc.losses import LossConfig
from odlc.lossnet import ClassifierLayout, ClassifierParams

MICRO = CodecLayout(enc_widths=(4, 6, 8, 8), dec_widths=(8, 8, 8, 4), bottleneck=4, t_max=8)


def run(*argv):
    return cli.main(list(argv))


# Every option of every command as flag -> (dest, type, default), and the
# config-file keys the command reads. A new knob has to be added here.
_SEED = {"--seed": ("seed", int, None)}
_DATA_OUT = {"--data": ("data", None, None), "--out": ("out", None, None)}
_EVAL = {**_DATA_OUT, "--s-comp": ("s_comp", int, 64)}
_TRAINING = {"--val-data": ("val_data", None, None), "--config": ("config", None, None),
             "--epochs": ("epochs", int, None), "--batch-size": ("batch_size", int, None),
             "--learning-rate": ("learning_rate", float, None), **_SEED}
_UNROLL = {"--unroll-steps": ("unroll_steps", int, None)}
_MODEL = {"--model": ("model", None, None)}
_CLASSIFIER = {"--classifier": ("classifier", None, None)}
_GRID = {"--grid": ("grid", None, "1,2,3,4")}
_ITERS = {"--iters": ("iters", None, "1,2,3,4")}
_CLASSIFIER_KEYS = {"batch_size", "crop_size", "epochs", "learning_rate", "resize_side"}
_CODEC_KEYS = _CLASSIFIER_KEYS | {"unroll_steps", "val_interval"}
CLI_SURFACE = {
    "gen-data": ({"--out": ("out", None, None), "--split": ("split", None, "train"),
                  "--n": ("n", int, 2000), "--classes": ("classes", int, 10),
                  "--res": ("res", int, 64), **_SEED}, set()),
    "train-classifier": ({**_DATA_OUT, **_TRAINING}, _CLASSIFIER_KEYS),
    "train-codec": ({**_DATA_OUT, **_TRAINING, **_UNROLL,
                     "--alpha": ("alpha", float, None), "--layers": ("layers", None, None),
                     "--lossnet": ("lossnet", None, None), "--verbose": ("verbose", None, False)},
                    _CODEC_KEYS | {"alpha", "lambda_h", "layer_ids"}),
    "compress": ({"--in": ("infile", None, None), **_MODEL, "--iters": ("iters", int, None),
                  "--out": ("out", None, None)}, set()),
    "decompress": ({"--in": ("infile", None, None), **_MODEL, "--out": ("out", None, None)},
                   set()),
    "eval-quality": ({**_EVAL, **_MODEL, **_GRID}, set()),
    "eval-accuracy": ({**_EVAL, **_MODEL, **_CLASSIFIER, **_GRID}, set()),
    "sweep": ({**_EVAL, "--models": ("models", None, None), **_CLASSIFIER, **_ITERS}, set()),
    "ablate-layers": ({**_EVAL, **_TRAINING, **_UNROLL, "--sets": ("sets", None, None),
                       "--lossnet": ("lossnet", None, None), **_CLASSIFIER, **_ITERS},
                      _CODEC_KEYS),
    "gradcheck": ({"--dtype": ("dtype", None, "f32"), **_SEED}, set()),
}


def test_cli_surface():
    parser = cli.build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {}
    for command, sp in sub.choices.items():
        options = {"/".join(a.option_strings): (a.dest, a.type, a.default)
                   for a in sp._actions if a.dest != "help"}
        surface[command] = (options, set(sp.get_default("config_keys") or ()))
    assert surface == CLI_SURFACE


class TestConfigIO:
    def test_read_kv(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("alpha = 0.5\n# comment\nepochs=2  # trailing\n\nlayer_ids = 1.1,5.1\n")
        kv = configio.read_kv(p)
        assert kv == {"alpha": "0.5", "epochs": "2", "layer_ids": "1.1,5.1"}

    def test_read_kv_rejects_bad_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("just a line\n")
        with pytest.raises(configio.ConfigError, match="key = value"):
            configio.read_kv(p)

    def test_read_kv_rejects_a_key_given_twice(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("alpha = 0\n# comment\nepochs = 2\nalpha = 1\n")
        with pytest.raises(configio.ConfigError,
                           match=r"c\.cfg:4: key 'alpha' is given twice, first at line 1"):
            configio.read_kv(p)

    def test_apply_kv_unknown_key(self):
        from odlc.trainer import TrainConfig
        with pytest.raises(configio.ConfigError, match="unknown config key"):
            configio.apply_kv(TrainConfig.desk(), {"nope": "1"})

    def test_loss_keys_from_file(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("alpha = 0.5\nlayer_ids = 1.1, 5.1\nlambda_h = 2500\nepochs = 2\n")
        args = cli.build_parser().parse_args(["train-codec", "--data", "d", "--out", "o",
                                              "--seed", "0", "--config", str(p)])
        kv = cli._config_kv(args)
        assert cli._loss_cfg(args, kv) == LossConfig(alpha=0.5, layer_ids=("1.1", "5.1"),
                                                     lambda_h=2500.0)
        assert cli._train_cfg(args, kv).epochs == 2

    def test_flags_override_file_before_validation(self, tmp_path):
        # the file alone is invalid (alpha > 0 without taps); --layers mends it
        p = tmp_path / "c.cfg"
        p.write_text("alpha = 0.5\nlayer_ids =\n")
        args = cli.build_parser().parse_args(["train-codec", "--data", "d", "--out", "o",
                                              "--seed", "0", "--config", str(p),
                                              "--alpha", "0.25", "--layers", "2.1"])
        assert cli._loss_cfg(args, cli._config_kv(args)) == LossConfig(alpha=0.25,
                                                                       layer_ids=("2.1",))

    def test_train_codec_reads_config_once(self, tmp_path, monkeypatch):
        p = tmp_path / "c.cfg"
        p.write_text("alpha = 0.5\nlayer_ids = 1.1\nepochs = 2\n")
        reads, read_kv = [], configio.read_kv
        monkeypatch.setattr(configio, "read_kv", lambda path: reads.append(path) or read_kv(path))
        rc = run("train-codec", "--data", "shapes:seed=1,split=train,n=4,classes=2,res=32",
                 "--out", str(tmp_path / "run"), "--seed", "0", "--config", str(p),
                 "--lossnet", str(tmp_path / "missing.ckpt"))
        assert rc == 1 and reads == [str(p)]

    def test_unsettable_key_named(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("normalization = 0.5,0.5\n")
        rc = run("train-codec", "--data", "shapes:seed=1,split=train,n=4,classes=2,res=32",
                 "--out", str(tmp_path / "run"), "--seed", "0", "--config", str(p))
        assert rc == 1
        err = capsys.readouterr().err
        assert "'normalization'" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_lambda_h_exits_1_before_creating_the_directory(self, value, tmp_path,
                                                                       capsys, monkeypatch):
        def render(*args):
            raise AssertionError("rendered an image")

        monkeypatch.setattr(datasets, "render_shape_image", render)
        p = tmp_path / "c.cfg"
        p.write_text(f"lambda_h = {value}\n")
        rc = run("train-codec", "--data", "shapes:seed=1,split=train,n=4,classes=2,res=32",
                 "--out", str(tmp_path / "run"), "--seed", "0", "--config", str(p))
        assert rc == 1
        assert capsys.readouterr().err == \
            f"odlc train-codec: lambda_h must be positive and finite, got {value}\n"
        assert not (tmp_path / "run").exists()

    def test_bad_value_names_its_key(self):
        from odlc.trainer import TrainConfig
        with pytest.raises(configio.ConfigError, match="'epochs'"):
            configio.apply_kv(TrainConfig.desk(), {"epochs": "two"})

    def test_write_csv(self, tmp_path):
        p = tmp_path / "t.csv"
        configio.write_csv(p, ("a", "b"), [(1, 0.5), (2, 0.25)])
        assert p.read_text() == "a,b\n1,0.5\n2,0.25\n"


class TestConfigKeys:
    """Each command accepts exactly the config-file keys it reads."""

    def _run_with(self, tmp_path, capsys, line, *argv):
        p = tmp_path / "c.cfg"
        p.write_text(line + "\n")
        rc = run(*argv, "--config", str(p))
        return rc, capsys.readouterr().err

    @pytest.mark.parametrize("line", ["alpha = 0.5", "unroll_steps = 2", "grad_clip = 1",
                                      "adam.beta1 = 0.8"])
    def test_train_classifier(self, line, tmp_path, capsys):
        rc, err = self._run_with(tmp_path, capsys, line, "train-classifier",
                                 "--data", "shapes:seed=1,split=train,n=4,classes=2,res=32",
                                 "--out", str(tmp_path / "c.ckpt"), "--seed", "0")
        key = line.split(" = ")[0]
        assert rc == 1 and "Traceback" not in err
        assert f"unknown config key '{key}' for train-classifier" in err
        known = err.split("known:")[1]
        assert "'crop_size'" in known and "'adam.beta1'" not in known
        assert "'unroll_steps'" not in known and "'alpha'" not in known
        assert not (tmp_path / "c.ckpt").exists()

    def test_train_codec_refuses_grad_clip_before_any_render(self, tmp_path, capsys,
                                                             monkeypatch):
        # the clip is trainer.GRAD_CLIP, not a config value
        def no_render(*args):
            raise AssertionError("an image was rendered")
        monkeypatch.setattr(datasets.ShapesDataset, "image", no_render)
        rc, err = self._run_with(tmp_path, capsys, "grad_clip = 5", "train-codec",
                                 "--data", "shapes:seed=1,split=train,n=4,classes=2,res=32",
                                 "--out", str(tmp_path / "run"), "--seed", "0")
        assert rc == 1 and "unknown config key 'grad_clip' for train-codec" in err
        assert not (tmp_path / "run").exists()

    def test_train_codec_seed_comes_from_the_flag(self, tmp_path, capsys):
        rc, err = self._run_with(tmp_path, capsys, "seed = 9", "train-codec",
                                 "--data", "shapes:seed=1,split=train,n=4,classes=2,res=32",
                                 "--out", str(tmp_path / "run"), "--seed", "3")
        assert rc == 1 and "unknown config key 'seed' for train-codec" in err
        known = err.split("known:")[1]
        assert "'alpha'" in known and "'unroll_steps'" in known and "'seed'" not in known

    @pytest.mark.parametrize("line", ["lambda_h = 7", "layer_ids = 1.1", "seed = 9"])
    def test_ablate_layers(self, line, tmp_path, capsys):
        # the config is checked before any checkpoint is opened
        rc, err = self._run_with(tmp_path, capsys, line, "ablate-layers", "--sets", "1.1",
                                 "--lossnet", str(tmp_path / "none.ckpt"),
                                 "--classifier", str(tmp_path / "none.ckpt"),
                                 "--data", "shapes:seed=1,split=train,n=4,classes=2,res=32",
                                 "--out", str(tmp_path / "a.csv"), "--seed", "0")
        key = line.split(" = ")[0]
        assert rc == 1 and f"unknown config key '{key}' for ablate-layers" in err
        assert "'unroll_steps'" in err.split("known:")[1]


class TestCliBasics:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run("compress", "--bogus", "x")
        assert exc.value.code == 2

    def test_missing_seed_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("gen-data", "--out", str(tmp_path / "d"), "--n", "2")
        assert exc.value.code == 2

    def test_domain_error_exits_1(self, tmp_path, capsys):
        model = tmp_path / "m.ckpt"
        CodecParams(MICRO, seed=0).save(model)
        rc = run("compress", "--in", str(tmp_path / "missing.ppm"),
                 "--model", str(model), "--iters", "2", "--out", str(tmp_path / "o"))
        assert rc == 1
        assert "compress" in capsys.readouterr().err

    def test_decompress_beyond_t_max_exits_1(self, tmp_path, capsys):
        model = tmp_path / "m.ckpt"
        CodecParams(replace(MICRO, t_max=2), seed=0).save(model)
        bs_path = tmp_path / "x.odlc"
        img = np.random.default_rng(0).random((3, 32, 32), dtype=np.float32)
        bitstream.write_file(bs_path, compress(img, 5, CodecParams(MICRO, seed=0)))
        rc = run("decompress", "--in", str(bs_path), "--model", str(model),
                 "--out", str(tmp_path / "y.ppm"))
        assert rc == 1
        assert "5 iterations" in capsys.readouterr().err
        assert not (tmp_path / "y.ppm").exists()

    def test_checkpoint_missing_meta_key_exits_1(self, tmp_path, capsys):
        model = tmp_path / "m.ckpt"
        CodecParams(MICRO, seed=0).save(model)
        _, meta, tensors = checkpoint.load(model)
        del meta["t_max"]
        checkpoint.save(model, "codec", meta, tensors)
        src = tmp_path / "x.ppm"
        ppm.write_ppm(src, np.zeros((3, 32, 32), dtype=np.float32))
        rc = run("compress", "--in", str(src), "--model", str(model), "--iters", "1",
                 "--out", str(tmp_path / "o"))
        assert rc == 1
        assert "meta key 't_max'" in capsys.readouterr().err

    @pytest.mark.parametrize("manifest", [
        b'{"meta":{}}',                                                 # no tensor table
        b'{"meta":{},"tensors":{"w":[1]}}',                             # table not a list
        b'{"meta":{},"tensors":[{"name":"w","dtype":"f32"}]}',          # entry without shape
        b'{"meta":{},"tensors":[{"name":"w","shape":[-1],"dtype":"f32"}]}',
        b'{"meta":{},"tensors":[{"name":"w","shape":[1099511627776],"dtype":"f32"}]}',
    ])
    def test_malformed_checkpoint_exits_1(self, manifest, tmp_path, capsys):
        model = tmp_path / "bad.ckpt"
        model.write_bytes(checkpoint.HEADER_PREFIX + b"codec\n" + manifest + b"\n" + bytes(4))
        src = tmp_path / "x.ppm"
        ppm.write_ppm(src, np.zeros((3, 32, 32), dtype=np.float32))
        rc = run("compress", "--in", str(src), "--model", str(model), "--iters", "1",
                 "--out", str(tmp_path / "o"))
        assert rc == 1
        assert "bad.ckpt" in capsys.readouterr().err

    @pytest.mark.parametrize("reserved", [0x01, 0xFF])
    def test_decompress_reserved_byte_exits_1(self, reserved, tmp_path, capsys):
        model = tmp_path / "m.ckpt"
        params = CodecParams(MICRO, seed=0)
        params.save(model)
        raw = bytearray(compress(np.zeros((3, 32, 32), dtype=np.float32), 1, params).to_bytes())
        raw[bitstream.HEADER_LEN - 1] = reserved
        bs_path = tmp_path / "x.odlc"
        bs_path.write_bytes(bytes(raw))
        rc = run("decompress", "--in", str(bs_path), "--model", str(model),
                 "--out", str(tmp_path / "y.ppm"))
        assert rc == 1
        assert "reserved header byte" in capsys.readouterr().err
        assert not (tmp_path / "y.ppm").exists()


class TestGenData:
    def test_materializes_with_manifest(self, tmp_path):
        out = tmp_path / "data"
        assert run("gen-data", "--out", str(out), "--n", "6", "--classes", "3",
                   "--res", "16", "--seed", "4") == 0
        assert (out / "labels.txt").exists()
        assert (out / "manifest.txt").exists()
        assert len(list(out.glob("*.ppm"))) == 6

    @pytest.mark.parametrize("res", ["0", "-3", "100000"])
    def test_resolution_out_of_range_exits_1_before_rendering(self, res, tmp_path, capsys,
                                                              monkeypatch, traced):
        def render(*args):
            raise AssertionError("rendered an image")

        monkeypatch.setattr(datasets, "render_shape_image", render)
        with traced() as t:
            rc = run("gen-data", "--out", str(tmp_path / "data"), "--n", "2", "--res", res,
                     "--seed", "0")
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"odlc gen-data: resolution must be in 1..2048, got {res}\n"
        assert t.peak < 1 << 20
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("classes", ["1", "11"])
    def test_class_count_out_of_range_exits_1_before_creating_the_directory(
            self, classes, tmp_path, capsys):
        rc = run("gen-data", "--out", str(tmp_path / "data"), "--n", "2", "--classes", classes,
                 "--seed", "0")
        assert rc == 1
        assert capsys.readouterr().err == \
            f"odlc gen-data: classes must be in 2..10, got {classes}\n"
        assert not (tmp_path / "data").exists()


class TestRoundTrip:
    def test_compress_decompress_files(self, tmp_path, capsys):
        model = tmp_path / "m.ckpt"
        params = CodecParams(MICRO, seed=2)
        params.save(model)
        img = np.random.default_rng(1).integers(0, 256, (3, 40, 40)) / 255.0
        src = tmp_path / "x.ppm"
        ppm.write_ppm(src, img.astype(np.float32))
        bs_path = tmp_path / "x.odlc"
        out_path = tmp_path / "y.ppm"
        assert run("compress", "--in", str(src), "--model", str(model),
                   "--iters", "3", "--out", str(bs_path)) == 0
        printed = capsys.readouterr().out
        assert "bpp" in printed
        assert run("decompress", "--in", str(bs_path), "--model", str(model),
                   "--out", str(out_path)) == 0
        decoded = ppm.read_ppm(out_path)
        assert decoded.shape == (3, 40, 40)
        # byte-identical re-runs
        bs2 = tmp_path / "x2.odlc"
        run("compress", "--in", str(src), "--model", str(model),
            "--iters", "3", "--out", str(bs2))
        assert bs_path.read_bytes() == bs2.read_bytes()

    def test_printed_bpp_matches_library(self, tmp_path, capsys):
        model = tmp_path / "m.ckpt"
        params = CodecParams(MICRO, seed=2)
        params.save(model)
        img = (np.random.default_rng(3).integers(0, 256, (3, 33, 47)) / 255.0).astype(np.float32)
        src = tmp_path / "x.ppm"
        ppm.write_ppm(src, img)
        run("compress", "--in", str(src), "--model", str(model),
            "--iters", "2", "--out", str(tmp_path / "x.odlc"))
        out = capsys.readouterr().out
        want = compress(ppm.read_ppm(src), 2, params).bpp
        assert f"{want:.6g}" in out


class TestTrainAndEvalCli:
    def test_train_classifier_and_eval_accuracy(self, tmp_path, capsys):
        cfgfile = tmp_path / "t.cfg"
        cfgfile.write_text("resize_side = 32\ncrop_size = 32\nepochs = 2\nbatch_size = 4\n")
        cls_path = tmp_path / "cls.ckpt"
        rc = run("train-classifier", "--data", "shapes:seed=1,split=train,n=24,classes=3,res=32",
                 "--val-data", "shapes:seed=1,split=val,n=12,classes=3,res=32",
                 "--out", str(cls_path), "--seed", "3", "--config", str(cfgfile))
        assert rc == 0
        assert cls_path.exists() and (tmp_path / "cls.ckpt.manifest.txt").exists()
        assert "val accuracy" in capsys.readouterr().out
        loaded = ClassifierParams.load(cls_path)
        assert loaded.layout.classes == 3

    def test_train_classifier_smaller_than_one_batch_exits_1(self, tmp_path, capsys):
        out = tmp_path / "cls.ckpt"
        rc = run("train-classifier", "--data", "shapes:seed=1,split=train,n=3,classes=2,res=64",
                 "--batch-size", "4", "--out", str(out), "--seed", "0")
        assert rc == 1
        assert "3 images smaller than one batch of 4" in capsys.readouterr().err
        assert not out.exists()

    def test_resize_side_over_the_codec_side_exits_1_before_rendering(self, tmp_path, capsys,
                                                                      monkeypatch):
        def render(*args):
            raise AssertionError("rendered an image")

        monkeypatch.setattr(datasets, "render_shape_image", render)
        cfgfile = tmp_path / "t.cfg"
        cfgfile.write_text("resize_side = 2049\n")
        out = tmp_path / "cls.ckpt"
        rc = run("train-classifier", "--data", "shapes:seed=1,split=train,n=4,classes=2,res=16",
                 "--out", str(out), "--seed", "0", "--config", str(cfgfile))
        assert rc == 1
        assert capsys.readouterr().err == \
            "odlc train-classifier: resize_side must be in 1..2048, got 2049\n"
        assert not out.exists()

    def test_eval_accuracy_refuses_a_negative_label_before_any_encode(self, tmp_path, capsys,
                                                                      monkeypatch):
        def no_encode(*args):
            raise AssertionError("encoded an image")

        monkeypatch.setattr(evaluation, "eval_accuracy_curve", no_encode)
        data = datasets.materialize(datasets.parse_spec("shapes:seed=1,n=4,classes=2,res=16"),
                                    str(tmp_path / "data"))
        labels = os.path.join(data, "labels.txt")
        lines = open(labels).read().splitlines()
        lines[1] = lines[1].split()[0] + " -1"
        with open(labels, "w") as f:
            f.write("\n".join(lines) + "\n")
        model, cls = tmp_path / "m.ckpt", tmp_path / "c.ckpt"
        CodecParams(MICRO, seed=2).save(model)
        ClassifierParams(ClassifierLayout(widths=(4,), classes=2, input_resolution=16),
                         seed=0).save(cls)
        out = tmp_path / "a.csv"
        rc = run("eval-accuracy", "--model", str(model), "--classifier", str(cls),
                 "--data", data, "--s-comp", "16", "--out", str(out))
        assert rc == 1
        assert capsys.readouterr().err == \
            f"odlc eval-accuracy: {labels}:2: label -1 is negative\n"
        assert not out.exists()

    def test_unknown_data_spec_key_exits_1_before_training(self, tmp_path, capsys,
                                                          monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained")
        monkeypatch.setattr(trainer, "train_classifier", no_training)
        out = tmp_path / "cls.ckpt"
        rc = run("train-classifier", "--data", "shapes:seed=0,size=4", "--batch-size", "4",
                 "--out", str(out), "--seed", "0")
        assert rc == 1
        assert "unknown shapes spec key 'size'" in capsys.readouterr().err
        assert not out.exists()

    def test_train_codec_then_curves_and_sweep(self, tmp_path):
        data = "shapes:seed=2,split=train,n=8,classes=3,res=48"
        val = "shapes:seed=2,split=val,n=4,classes=3,res=48"
        cfgfile = tmp_path / "t.cfg"
        cfgfile.write_text("resize_side = 48\ncrop_size = 48\nepochs = 1\n"
                           "unroll_steps = 2\nbatch_size = 4\nval_interval = 0\n")
        out = tmp_path / "run"
        rc = run("train-codec", "--data", data, "--val-data", val, "--alpha", "0",
                 "--out", str(out), "--seed", "5", "--config", str(cfgfile))
        assert rc == 0
        ckpt = out / "codec_final.ckpt"
        assert ckpt.exists()
        assert (out / "train_log.csv").read_text().startswith("step,loss,d_H,d_C,lr,wall_time")
        assert (out / "manifest.txt").exists()

        csv = tmp_path / "q.csv"
        rc = run("eval-quality", "--model", str(ckpt), "--data", val, "--grid", "1,2",
                 "--s-comp", "48", "--out", str(csv))
        assert rc == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "level,bpp,metric,n"
        assert len(lines) == 3

        # classifier at 48px for sweep
        cls48 = tmp_path / "c48.ckpt"
        net = ClassifierParams(ClassifierLayout(widths=(4, 8), classes=3,
                                                input_resolution=48), seed=1)
        net.freeze()
        net.save(cls48)
        sweep_csv = tmp_path / "s.csv"
        rc = run("sweep", "--models", f"0={ckpt},1={ckpt}", "--classifier", str(cls48),
                 "--data", val, "--iters", "1,2", "--s-comp", "48", "--out", str(sweep_csv))
        assert rc == 0
        lines = sweep_csv.read_text().strip().splitlines()
        assert lines[0] == "alpha,iters,bpp,msssim,preservation,accuracy"
        assert len(lines) == 5

    def test_sweep_with_empty_iters_exits_1(self, tmp_path, capsys):
        model = tmp_path / "m.ckpt"
        CodecParams(MICRO, seed=2).save(model)
        cls = tmp_path / "c.ckpt"
        ClassifierParams(ClassifierLayout(widths=(4,), classes=3, input_resolution=16),
                         seed=0).save(cls)
        out = tmp_path / "s.csv"
        rc = run("sweep", "--models", f"0={model},1={model}", "--classifier", str(cls),
                 "--data", "shapes:seed=3,split=val,n=2,classes=3,res=16", "--iters", "",
                 "--s-comp", "16", "--out", str(out))
        assert rc == 1
        err = capsys.readouterr().err
        assert "tradeoff_sweep: levels must be non-empty" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("models", ["0a.ckpt", "x=a.ckpt,1=b.ckpt"])
    def test_sweep_malformed_model_pair_exits_1(self, models, tmp_path, capsys):
        out = tmp_path / "s.csv"
        rc = run("sweep", "--models", models, "--classifier", str(tmp_path / "c.ckpt"),
                 "--data", "shapes:seed=3,split=val,n=2,classes=3,res=16", "--out", str(out))
        assert rc == 1
        err = capsys.readouterr().err
        bad = models.split(",")[0]
        assert f"--models: {bad!r} is not an ALPHA=PATH pair" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("models,message", [
        ("0=a.ckpt,0.0=b.ckpt,1=c.ckpt", "--models: alpha 0.0 is given twice"),
        ("nan=a.ckpt,1=c.ckpt", "--models: alpha nan is not in [0, 1]"),
        ("0=a.ckpt,1.5=c.ckpt", "--models: alpha 1.5 is not in [0, 1]"),
    ], ids=["repeated", "nan", "above-1"])
    def test_sweep_bad_alpha_exits_1_before_any_load(self, models, message, tmp_path, capsys,
                                                    monkeypatch):
        def no_load(*args):
            raise AssertionError("a checkpoint was loaded")
        monkeypatch.setattr(CodecParams, "load", no_load)
        monkeypatch.setattr(ClassifierParams, "load", no_load)
        for name in ("a", "b", "c"):
            (tmp_path / f"{name}.ckpt").write_bytes(b"")
        monkeypatch.chdir(tmp_path)
        rc = run("sweep", "--models", models, "--classifier", "a.ckpt",
                 "--data", "shapes:seed=3,split=val,n=2,classes=3,res=16", "--out", "s.csv")
        assert rc == 1
        assert capsys.readouterr().err == f"odlc sweep: {message}\n"
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("s_comp", ["0", "2049"])
    @pytest.mark.parametrize("argv", [
        ("eval-quality", "--model", "m.ckpt"),
        ("eval-accuracy", "--model", "m.ckpt", "--classifier", "c.ckpt"),
        ("sweep", "--models", "0=m.ckpt,1=m.ckpt", "--classifier", "c.ckpt"),
        ("ablate-layers", "--sets", "1.1", "--lossnet", "c.ckpt", "--classifier", "c.ckpt",
         "--seed", "0"),
    ], ids=lambda argv: argv[0])
    def test_s_comp_out_of_range_exits_1_before_any_load(self, argv, s_comp, tmp_path, capsys,
                                                        monkeypatch):
        def no_load(*args):
            raise AssertionError("a checkpoint was loaded")
        monkeypatch.setattr(CodecParams, "load", no_load)
        monkeypatch.setattr(ClassifierParams, "load", no_load)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "m.ckpt").write_bytes(b"")
        rc = run(*argv, "--data", "shapes:seed=3,split=val,n=2,classes=3,res=16",
                 "--s-comp", s_comp, "--out", "out.csv")
        assert rc == 1
        assert capsys.readouterr().err == (
            f"odlc {argv[0]}: s_comp must be an int in 1..2048, got {s_comp}\n")
        assert os.listdir(tmp_path) == ["m.ckpt"]

    @pytest.mark.parametrize("argv", [
        ("eval-quality", "--model", "m.ckpt", "--grid"),
        ("eval-accuracy", "--model", "m.ckpt", "--classifier", "c.ckpt", "--grid"),
        ("sweep", "--models", "0=m.ckpt,1=m.ckpt", "--classifier", "c.ckpt", "--iters"),
        ("ablate-layers", "--sets", "1.1", "--lossnet", "c.ckpt", "--classifier", "c.ckpt",
         "--seed", "0", "--iters"),
    ], ids=lambda argv: argv[0])
    def test_non_int_level_exits_1_before_any_load(self, argv, tmp_path, capsys, monkeypatch):
        def no_load(*args):
            raise AssertionError("a checkpoint was loaded")
        monkeypatch.setattr(CodecParams, "load", no_load)
        monkeypatch.setattr(ClassifierParams, "load", no_load)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "m.ckpt").write_bytes(b"")
        rc = run(*argv, "1,x", "--data", "shapes:seed=3,split=val,n=2,classes=3,res=16",
                 "--out", "out.csv")
        assert rc == 1
        assert capsys.readouterr().err == (
            f"odlc {argv[0]}: {argv[-1]} must be comma-separated iteration counts to measure, "
            f"each an int >= 1, got '1,x'\n")
        assert os.listdir(tmp_path) == ["m.ckpt"]

    @pytest.mark.parametrize("argv", [
        ("train-classifier", "--data", "shapes:n=4,res=16", "--val-data", "shapes:bogus=1",
         "--seed", "0"),
        ("eval-quality", "--model", "m.ckpt", "--data", "shapes:bogus=1"),
        ("eval-accuracy", "--model", "m.ckpt", "--classifier", "c.ckpt",
         "--data", "shapes:bogus=1"),
        ("sweep", "--models", "0=m.ckpt,1=m.ckpt", "--classifier", "c.ckpt",
         "--data", "shapes:bogus=1"),
        ("ablate-layers", "--sets", "1.1", "--lossnet", "c.ckpt", "--classifier", "c.ckpt",
         "--seed", "0", "--data", "shapes:n=4,res=16", "--val-data", "shapes:bogus=1"),
    ], ids=lambda argv: argv[0])
    def test_bad_data_spec_exits_1_before_any_load_or_training(self, argv, tmp_path, capsys,
                                                              monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a checkpoint was loaded or a training ran")
        monkeypatch.setattr(checkpoint.ParamSet, "load", classmethod(refuse))
        monkeypatch.setattr(trainer, "train_classifier", refuse)
        monkeypatch.setattr(trainer, "train_codec", refuse)
        monkeypatch.chdir(tmp_path)
        rc = run(*argv, "--out", "out")
        assert rc == 1
        assert capsys.readouterr().err == (
            f"odlc {argv[0]}: unknown shapes spec key 'bogus'; "
            f"known: seed, split, n, classes, res\n")
        assert os.listdir(tmp_path) == []

    def test_eval_accuracy_cli(self, tmp_path):
        model = tmp_path / "m.ckpt"
        CodecParams(MICRO, seed=2).save(model)
        cls = tmp_path / "c.ckpt"
        net = ClassifierParams(ClassifierLayout(widths=(4,), classes=3,
                                                input_resolution=32), seed=0)
        net.freeze()
        net.save(cls)
        out = tmp_path / "acc.csv"
        rc = run("eval-accuracy", "--model", str(model), "--classifier", str(cls),
                 "--data", "shapes:seed=3,split=val,n=6,classes=3,res=48",
                 "--grid", "1", "--s-comp", "48", "--out", str(out))
        assert rc == 0
        assert out.exists()
        assert (tmp_path / "acc_preservation.csv").exists()


    def test_ablate_layers_s_comp_below_classifier_side_exits_1_before_training(
            self, tmp_path, capsys, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("a codec was trained")
        monkeypatch.setattr(trainer, "train_codec", no_training)
        net = tmp_path / "c32.ckpt"
        ClassifierParams(ClassifierLayout(widths=(4,), classes=3, input_resolution=32),
                         seed=0).save(net)
        out = tmp_path / "a.csv"
        rc = run("ablate-layers", "--sets", "1.1", "--lossnet", str(net),
                 "--classifier", str(net), "--data", "shapes:seed=3,split=val,n=2,classes=3,res=64",
                 "--s-comp", "24", "--out", str(out), "--seed", "0")
        assert rc == 1
        err = capsys.readouterr().err
        assert err == ("odlc ablate-layers: ablate_layers: s_comp 24 is below the "
                       "classifier's input side 32\n")
        assert not out.exists()


class TestManifest:
    """A run manifest records the argv given to cli.main and every file read."""

    @staticmethod
    def _read(path):
        return path.read_text().splitlines()

    def test_sweep_lists_the_codec_checkpoints(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["host-program", "--unrelated"])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        a, b, cls = tmp_path / "a.ckpt", tmp_path / "b.ckpt", tmp_path / "c.ckpt"
        CodecParams(MICRO, seed=1).save(a)
        CodecParams(MICRO, seed=2).save(b)
        ClassifierParams(ClassifierLayout(widths=(4,), classes=3, input_resolution=16),
                         seed=0).save(cls)
        data = "shapes:seed=3,split=val,n=2,classes=3,res=16"
        argv = ["sweep", "--models", f"0={a},0.5={tmp_path / 'missing.ckpt'},1={b}",
                "--classifier", str(cls), "--data", data, "--iters", "1",
                "--s-comp", "16", "--out", str(tmp_path / "s.csv")]
        assert cli.main(argv) == 0
        lines = self._read(tmp_path / "s.csv.manifest.txt")
        assert lines[0] == "command: " + " ".join(argv)
        inputs = [ln for ln in lines if ln.startswith("input: ")]
        assert inputs == [f"input: {p} sha256={configio.file_digest(p)}" for p in (a, b, cls)] \
            + [f"input: {data}"]
        region = "workers=2 blas=openblas-pinned" if parallel._openblas() is not None \
            else "workers=1 blas=not-pinned"
        assert f"parallel: {region}" in lines
        # a command that runs no map, in the same process, reports none
        assert cli.main(["gen-data", "--out", str(tmp_path / "gen"), "--n", "2",
                         "--classes", "2", "--res", "16", "--seed", "0"]) == 0
        assert "parallel: unused" in self._read(tmp_path / "gen" / "manifest.txt")

    def test_ablate_layers_lists_its_config(self, tmp_path, monkeypatch):
        monkeypatch.setattr(trainer, "train_codec",
                            lambda *args, **kwargs: (CodecParams(MICRO, seed=0), [], []))
        net = tmp_path / "c.ckpt"
        ClassifierParams(ClassifierLayout(widths=(4,), classes=3, input_resolution=16),
                         seed=0).save(net)
        cfgfile = tmp_path / "t.cfg"
        cfgfile.write_text("epochs = 1\n")
        argv = ["ablate-layers", "--sets", "1.1", "--lossnet", str(net), "--classifier",
                str(net), "--data", "shapes:seed=3,split=val,n=2,classes=3,res=16",
                "--iters", "1", "--s-comp", "16", "--config", str(cfgfile),
                "--out", str(tmp_path / "a.csv"), "--seed", "0"]
        assert cli.main(argv) == 0
        lines = self._read(tmp_path / "a.csv.manifest.txt")
        assert lines[0] == "command: " + " ".join(argv)
        assert [ln.split(":")[0] for ln in lines if ln.startswith("config.")] == [
            "config.train", "config.eval"]
        assert f"input: {cfgfile} sha256={configio.file_digest(cfgfile)}" in lines

    def test_folder_input_digests_its_files(self, tmp_path):
        def manifest_input(folder):
            path = tmp_path / f"{folder.name}.manifest.txt"
            configio.write_manifest(path, "cmd", {}, 0, [str(folder)], "0")
            [line] = [ln for ln in self._read(path) if ln.startswith("input: ")]
            return line
        folders = [tmp_path / name for name in ("a", "b", "c")]
        for folder in folders:
            (folder / "sub").mkdir(parents=True)
            (folder / "labels.txt").write_text("sub/x.ppm 0\n")
            (folder / "sub" / "x.ppm").write_bytes(b"P6 1 1 255 \x00\x00\x00")
        (folders[2] / "sub" / "x.ppm").write_bytes(b"P6 1 1 255 \x00\x00\x01")
        a, b, c = (manifest_input(folder) for folder in folders)
        assert a.startswith(f"input: {folders[0]} sha256=")
        assert a.split("sha256=")[1] == b.split("sha256=")[1] != c.split("sha256=")[1]


class TestGradcheckCli:
    def test_f32_suite_passes(self, capsys):
        assert run("gradcheck", "--dtype", "f32", "--seed", "1") == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
