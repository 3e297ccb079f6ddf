import os
from dataclasses import replace

import numpy as np
import pytest

from odlc import bitstream, checkpoint, cli, configio, ppm
from odlc.codec import CodecLayout, CodecParams, compress
from odlc.lossnet import ClassifierLayout, ClassifierParams

MICRO = CodecLayout(enc_widths=(4, 6, 8, 8), dec_widths=(8, 8, 8, 4), bottleneck=4, t_max=8)


def run(*argv):
    return cli.main(list(argv))


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

    def test_apply_kv_nested(self):
        from odlc.trainer import TrainConfig
        cfg = configio.apply_kv(TrainConfig.desk(),
                                {"epochs": "7", "adam.beta1": "0.8", "crop_size": "48"})
        assert cfg.epochs == 7 and cfg.adam.beta1 == 0.8 and cfg.crop_size == 48

    def test_apply_kv_unknown_key(self):
        from odlc.trainer import TrainConfig
        with pytest.raises(configio.ConfigError, match="unknown config key"):
            configio.apply_kv(TrainConfig.desk(), {"nope": "1"})

    def test_write_csv(self, tmp_path):
        p = tmp_path / "t.csv"
        configio.write_csv(p, ("a", "b"), [(1, 0.5), (2, 0.25)])
        assert p.read_text() == "a,b\n1,0.5\n2,0.25\n"


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
                 "--s-comp", "48", "--s-inf", "48", "--out", str(csv))
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
                 "--data", val, "--iters", "1,2", "--s-comp", "48", "--s-inf", "48",
                 "--out", str(sweep_csv))
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
                 "--s-comp", "16", "--s-inf", "16", "--out", str(out))
        assert rc == 1
        err = capsys.readouterr().err
        assert "t_list must be non-empty" in err and "Traceback" not in err
        assert not out.exists()

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
                 "--grid", "1", "--s-comp", "48", "--s-inf", "32", "--out", str(out))
        assert rc == 0
        assert out.exists()
        assert (tmp_path / "acc_preservation.csv").exists()


class TestGradcheckCli:
    def test_f32_suite_passes(self, capsys):
        assert run("gradcheck", "--dtype", "f32", "--seed", "1") == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
