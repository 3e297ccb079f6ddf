"""Command-line surface.

Usage errors exit 2 (argparse); contract violations from any module exit
1 with the diagnostic on stderr. Randomized commands require --seed so
every run is reproducible; train/eval runs drop a run manifest next to
their outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import __version__
from . import bitstream, configio, datasets, evaluation, gradcheck, losses, parallel, ppm, trainer
from .codec import CodecParams, compress as codec_compress, decompress as codec_decompress
from .lossnet import ClassifierParams


def _manifest(out_path, args, configs, inputs):
    path = out_path + ".manifest.txt" if not os.path.isdir(out_path) \
        else os.path.join(out_path, "manifest.txt")
    configio.write_manifest(path, command=" ".join(args.argv), configs=configs,
                            seed=getattr(args, "seed", None), inputs=inputs,
                            tool_version=__version__, parallel=parallel.last_region())


# The config-file keys each command reads. The seed comes from --seed and
# the normalization is fitted, so neither is a file key.
_LOSS_KEYS = tuple(f.name for f in dataclasses.fields(losses.LossConfig))
_CLASSIFIER_KEYS = ("learning_rate", "batch_size", "epochs", "resize_side", "crop_size")
_CODEC_TRAIN_KEYS = _CLASSIFIER_KEYS + ("unroll_steps", "grad_clip", "val_interval")


def _config_kv(args) -> dict:
    kv = configio.read_kv(args.config) if args.config else {}
    for key in kv:
        if key not in args.config_keys:
            raise configio.ConfigError(f"unknown config key {key!r} for {args.command}; "
                                       f"known: {sorted(args.config_keys)}")
    return kv


def _train_cfg(args, kv) -> trainer.TrainConfig:
    kv = {k: v for k, v in kv.items() if k not in _LOSS_KEYS}
    cfg = configio.apply_kv(trainer.TrainConfig.desk(seed=args.seed), kv)
    for name in ("epochs", "batch_size", "unroll_steps", "learning_rate"):
        v = getattr(args, name, None)
        if v is not None:
            cfg = dataclasses.replace(cfg, **{name: v})
    return cfg


def _loss_cfg(args, kv) -> losses.LossConfig:
    """The loss keys of the config file ``kv``, overridden by --alpha and --layers."""
    kv = {k: v for k, v in kv.items() if k in _LOSS_KEYS}
    if getattr(args, "alpha", None) is not None:
        kv["alpha"] = repr(args.alpha)
    if getattr(args, "layers", None):
        kv["layer_ids"] = args.layers
    return configio.apply_kv(losses.LossConfig(), kv)


def cmd_gen_data(args):
    spec = datasets.ShapesSpec(seed=args.seed, split=args.split, size=args.n,
                               classes=args.classes, resolution=args.res)
    out = datasets.materialize(datasets.ShapesDataset(spec), args.out)
    _manifest(out, args, {"dataset": spec}, [])
    print(f"wrote {args.n} images to {out}")
    return 0


def cmd_train_classifier(args):
    cfg = _train_cfg(args, _config_kv(args))
    train_set = datasets.parse_spec(args.data, default_split="train")
    params, log = trainer.train_classifier(train_set, cfg)
    params.save(args.out)
    if args.val_data:
        val_set = datasets.parse_spec(args.val_data, default_split="val")
        acc = trainer.evaluate_accuracy(params, val_set, cfg)
        print(f"val accuracy: {acc:.4f}")
    _manifest(args.out, args, {"train": cfg}, [args.config, args.data, args.val_data])
    print(f"saved classifier to {args.out} ({len(log)} log rows)")
    return 0


def cmd_train_codec(args):
    kv = _config_kv(args)
    cfg = _train_cfg(args, kv)
    loss_cfg = _loss_cfg(args, kv)
    train_set = datasets.parse_spec(args.data, default_split="train")
    val_set = datasets.parse_spec(args.val_data or args.data, default_split="val")
    net = ClassifierParams.load(args.lossnet) if args.lossnet else None
    os.makedirs(args.out, exist_ok=True)

    def progress(step, row):
        if args.verbose and step % 50 == 0:
            print(f"step {row[0]}: loss {row[1]:.5f}", flush=True)

    params, log, _ = trainer.train_codec(train_set, val_set, loss_cfg, cfg,
                                         lossnet=net, out_dir=args.out,
                                         progress=progress)
    _manifest(args.out, args, {"train": cfg, "loss": loss_cfg},
              [args.config, args.lossnet, args.data, args.val_data])
    print(f"final loss {log[-1][1]:.5f} after {log[-1][0]} steps; "
          f"checkpoints in {args.out}")
    return 0


def cmd_compress(args):
    img = ppm.read_ppm(args.infile)
    params = CodecParams.load(args.model)
    bs = codec_compress(img, args.iters, params)
    bitstream.write_file(args.out, bs)
    print(f"{bs.payload_bits} payload bits, {bs.bpp:.6g} bpp")
    return 0


def cmd_decompress(args):
    bs = bitstream.read_file(args.infile)
    params = CodecParams.load(args.model)
    ppm.write_ppm(args.out, codec_decompress(bs, params))
    print(f"decoded {bs.header.width}x{bs.header.height} at T={bs.header.iterations}")
    return 0


def _grid(text, flag):
    """The levels that ``flag`` gives as ``text``; empty items are skipped."""
    try:
        return tuple(int(v) for v in text.split(",") if v)
    except ValueError:
        raise configio.ConfigError(f"{flag} must be {_LEVELS_HELP}, got {text!r}") from None


def cmd_eval_quality(args):
    cfg = evaluation.EvalConfig(s_comp=args.s_comp)
    levels = _grid(args.grid, "--grid")
    params = CodecParams.load(args.model)
    val_set = datasets.parse_spec(args.data, default_split="val")
    points = evaluation.eval_quality_curve(params, val_set, levels, cfg)
    configio.write_csv(args.out, evaluation.CURVE_HEADER, [dataclasses.astuple(p) for p in points])
    _manifest(args.out, args, {"eval": cfg}, [args.model, args.data])
    for p in points:
        print(f"T={p.level}: bpp {p.bpp:.4f} msssim {p.value:.4f} (n={p.n})")
    return 0


def cmd_eval_accuracy(args):
    cfg = evaluation.EvalConfig(s_comp=args.s_comp)
    levels = _grid(args.grid, "--grid")
    params = CodecParams.load(args.model)
    classifier = ClassifierParams.load(args.classifier)
    val_set = datasets.parse_spec(args.data, default_split="val")
    curves = evaluation.eval_accuracy_curve(params, classifier, val_set, levels, cfg)
    base, ext = os.path.splitext(args.out)
    for metric, points in curves.items():
        path = args.out if metric == "accuracy" else f"{base}_{metric}{ext}"
        configio.write_csv(path, evaluation.CURVE_HEADER, [dataclasses.astuple(p) for p in points])
        for p in points:
            print(f"{metric} T={p.level}: bpp {p.bpp:.4f} value {p.value:.4f}")
    _manifest(args.out, args, {"eval": cfg}, [args.model, args.classifier, args.data])
    return 0


def cmd_sweep(args):
    cfg = evaluation.EvalConfig(s_comp=args.s_comp)
    levels = _grid(args.iters, "--iters")
    paths = {}
    for pair in args.models.split(","):
        try:
            alpha, path = pair.split("=", 1)
            alpha = float(alpha)
        except ValueError:
            raise configio.ConfigError(f"--models: {pair!r} is not an ALPHA=PATH pair "
                                       f"(e.g. 0=a.ckpt,1=b.ckpt)") from None
        if not 0.0 <= alpha <= 1.0:
            raise configio.ConfigError(f"--models: alpha {alpha} is not in [0, 1]")
        if alpha in paths:
            raise configio.ConfigError(f"--models: alpha {alpha} is given twice")
        paths[alpha] = path
    loaded = [path for path in paths.values() if os.path.exists(path)]
    checkpoints = {a: CodecParams.load(p) if p in loaded else None for a, p in paths.items()}
    classifier = ClassifierParams.load(args.classifier)
    val_set = datasets.parse_spec(args.data, default_split="val")
    rows, skipped = evaluation.tradeoff_sweep(checkpoints, classifier, val_set, levels, cfg)
    configio.write_csv(args.out, evaluation.SWEEP_HEADER, rows)
    _manifest(args.out, args, {"eval": cfg}, [*loaded, args.classifier, args.data])
    for a in skipped:
        print(f"warning: no checkpoint for alpha={a}, rows skipped", file=sys.stderr)
    print(f"wrote {len(rows)} sweep rows to {args.out}")
    return 0


def cmd_ablate_layers(args):
    cfg = _train_cfg(args, _config_kv(args))
    eval_cfg = evaluation.EvalConfig(s_comp=args.s_comp)
    levels = _grid(args.iters, "--iters")
    f_l = ClassifierParams.load(args.lossnet)
    classifier = ClassifierParams.load(args.classifier)
    train_set = datasets.parse_spec(args.data, default_split="train")
    val_set = datasets.parse_spec(args.val_data or args.data, default_split="val")
    sets = [tuple(f_l.layer_names()) if chunk == "all" else tuple(chunk.split(","))
            for chunk in args.sets.split("|")]
    rows, _ = evaluation.ablate_layers(sets, train_set, val_set, f_l, classifier, cfg, levels,
                                       eval_cfg)
    configio.write_csv(args.out, evaluation.ABLATION_HEADER, rows)
    _manifest(args.out, args, {"train": cfg, "eval": eval_cfg},
              [args.config, args.lossnet, args.classifier, args.data, args.val_data])
    print(f"wrote {len(rows)} ablation rows to {args.out}")
    return 0


def cmd_gradcheck(args):
    dtype = np.float64 if args.dtype == "f64" else np.float32
    rows = sorted(gradcheck.run_op_suite(dtype, seed=args.seed))
    failed = 0
    for name, err, tol, ok in rows:
        print(f"{'PASS' if ok else 'FAIL'} {name}: max rel err {err:.3e} (tol {tol:g})")
        failed += 0 if ok else 1
    print(f"{len(rows) - failed}/{len(rows)} gradient suites passed [{args.dtype}]")
    return 0 if failed == 0 else 1


_LEVELS_HELP = "comma-separated iteration counts to measure, each an int >= 1"


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="odlc",
                                description="observer-dependent lossy image codec")
    p.add_argument("--version", action="version", version=f"odlc {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def seeded(sp):
        sp.add_argument("--seed", type=int, required=True,
                        help="rng seed (required: runs must be reproducible)")

    def data_out(sp):
        sp.add_argument("--data", required=True, help="dataset spec or folder")
        sp.add_argument("--out", required=True)

    def eval_common(sp):
        data_out(sp)
        sp.add_argument("--s-comp", dest="s_comp", type=int, default=64,
                        help="image side after resize and center crop, before encoding (1..2048)")

    def training(sp, unroll_steps=False, evaluated=False):
        (eval_common if evaluated else data_out)(sp)
        sp.add_argument("--val-data", default=None)
        sp.add_argument("--config", default=None, help="key = value config file")
        sp.add_argument("--epochs", type=int, default=None)
        sp.add_argument("--batch-size", dest="batch_size", type=int, default=None)
        sp.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
        if unroll_steps:
            sp.add_argument("--unroll-steps", dest="unroll_steps", type=int, default=None)
        seeded(sp)

    sp = sub.add_parser("gen-data", help="materialize the procedural dataset")
    sp.add_argument("--out", required=True)
    sp.add_argument("--split", default="train", choices=sorted(datasets._SPLIT_TAGS))
    sp.add_argument("--n", type=int, default=2000)
    sp.add_argument("--classes", type=int, default=10)
    sp.add_argument("--res", type=int, default=64)
    seeded(sp)
    sp.set_defaults(fn=cmd_gen_data)

    sp = sub.add_parser("train-classifier", help="train a desk-scale classifier")
    training(sp)
    sp.set_defaults(fn=cmd_train_classifier, config_keys=_CLASSIFIER_KEYS)

    sp = sub.add_parser("train-codec", help="train the codec at one alpha (--out: a directory)")
    training(sp, unroll_steps=True)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--layers", default=None, help="comma-separated tap ids, e.g. 1.1,5.1")
    sp.add_argument("--lossnet", default=None, help="classifier checkpoint for alpha > 0")
    sp.add_argument("--verbose", action="store_true")
    sp.set_defaults(fn=cmd_train_codec, config_keys=_CODEC_TRAIN_KEYS + _LOSS_KEYS)

    sp = sub.add_parser("compress", help="image -> bitstream")
    sp.add_argument("--in", dest="infile", required=True, help="P6 PPM input")
    sp.add_argument("--model", required=True)
    sp.add_argument("--iters", type=int, required=True, help="encoder iterations (quality level)")
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_compress)

    sp = sub.add_parser("decompress", help="bitstream -> image")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--model", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_decompress)

    sp = sub.add_parser("eval-quality", help="(bpp, MS-SSIM) curve")
    sp.add_argument("--model", required=True)
    sp.add_argument("--grid", default="1,2,3,4", help=_LEVELS_HELP)
    eval_common(sp)
    sp.set_defaults(fn=cmd_eval_quality)

    sp = sub.add_parser("eval-accuracy", help="(bpp, accuracy/preservation) curves")
    sp.add_argument("--model", required=True)
    sp.add_argument("--classifier", required=True)
    sp.add_argument("--grid", default="1,2,3,4", help=_LEVELS_HELP)
    eval_common(sp)
    sp.set_defaults(fn=cmd_eval_accuracy)

    sp = sub.add_parser("sweep", help="alpha x iterations trade-off table")
    sp.add_argument("--models", required=True,
                    help="comma-separated alpha=checkpoint pairs, e.g. 0=a.ckpt,1=b.ckpt")
    sp.add_argument("--classifier", required=True)
    sp.add_argument("--iters", default="1,2,3,4", help=_LEVELS_HELP)
    eval_common(sp)
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("ablate-layers", help="train alpha=1 codecs per tap set")
    sp.add_argument("--sets", required=True,
                    help="pipe-separated tap sets, e.g. '1.1|5.1|1.1,5.1|all'")
    sp.add_argument("--lossnet", required=True)
    sp.add_argument("--classifier", required=True)
    sp.add_argument("--iters", default="1,2,3,4", help=_LEVELS_HELP)
    training(sp, unroll_steps=True, evaluated=True)
    sp.set_defaults(fn=cmd_ablate_layers, config_keys=_CODEC_TRAIN_KEYS)

    sp = sub.add_parser("gradcheck", help="finite-difference gradient suites")
    sp.add_argument("--dtype", choices=("f32", "f64"), default="f32")
    seeded(sp)
    sp.set_defaults(fn=cmd_gradcheck)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    args.argv = argv
    parallel.reset_region()
    try:
        return args.fn(args)
    except (ValueError, OSError) as e:
        print(f"odlc {args.command}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
