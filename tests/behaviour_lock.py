"""Behaviour lock: sha256 digests of everything a refactor must keep.

Run from the repository root:

    PYTHONPATH=src python3 tests/behaviour_lock.py > lock.txt

and diff the output of two trees. Each line is "<digest> <what>". The
script uses only public names (no private helpers). pytest does not
collect it.

Covered: seeded codec and classifier checkpoints (and save -> load ->
save); bitstreams and decodes of 64 px and 256 px images at T = 1..8;
the eval-quality, eval-accuracy and sweep CSVs of two small seeded codec
checkpoints; step_loss losses, d_H / d_C and every codec gradient at
alpha in {0, 0.5, 1}; the checkpoints of 3-step train_codec runs; an
eval_quality_curve on an unsorted grid with a repeated level; the
ablate_layers rows of two tap sets; and two classifiers trained through
`odlc train-classifier`, one on images whose smallest side equals the
desk resize side and one on images that are resized first; and rendered
shape images at 1, 73, 74, 128 and 256 px.

BLAS is pinned to one thread before numpy is imported, and the first
line of output says so: threaded GEMM sums in another order, which moves
the train-classifier digests with the machine's core count. The CLI's own
messages go to stderr with the temporary directory printed as <tmp>, so
two runs of one tree print identical bytes on both streams.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # imported after the thread pin

from odlc import autodiff as ad
from odlc import bitstream, cli, codec, datasets, evaluation, losses, trainer
from odlc.codec import CodecLayout, CodecParams
from odlc.datasets import ShapesDataset, ShapesSpec
from odlc.lossnet import ClassifierLayout, ClassifierParams

MICRO = CodecLayout(enc_widths=(4, 6, 8, 8), dec_widths=(8, 8, 8, 4), bottleneck=4, t_max=8)
NORM = ([0.45, 0.5, 0.55], [0.25, 0.3, 0.2])
ALPHAS = (0.0, 0.5, 1.0)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_sha(path) -> str:
    with open(path, "rb") as f:
        return sha(f.read())


def emit(digest: str, what: str):
    print(f"{digest} {what}", flush=True)


def image(seed: int, res: int) -> np.ndarray:
    return np.random.default_rng(seed).random((3, res, res), dtype=np.float32)


def lock_checkpoints(tmp):
    for seed in (0, 1):
        for kind, params in (
                ("codec", CodecParams(CodecLayout(), seed=seed, norm_mean=NORM[0],
                                      norm_std=NORM[1])),
                ("classifier", ClassifierParams(ClassifierLayout(), seed=seed,
                                                norm_mean=NORM[0], norm_std=NORM[1]))):
            a, b = os.path.join(tmp, f"{kind}{seed}.ckpt"), os.path.join(tmp, "again.ckpt")
            params.save(a)
            type(params).load(a).save(b)
            emit(file_sha(a), f"checkpoint {kind} seed={seed}")
            emit(file_sha(b), f"checkpoint {kind} seed={seed} save-load-save")


def lock_bitstreams(label, params, res, seeds):
    for seed in seeds:
        x = image(100 + seed, res)
        for t in range(1, 9):
            bs = codec.compress(x, t, params)
            raw = bs.to_bytes()
            emit(sha(raw), f"bitstream {label} {res}px img={seed} T={t}")
            out = codec.decompress(bitstream.Bitstream.from_bytes(raw), params)
            emit(sha(out.tobytes()), f"decode {label} {res}px img={seed} T={t}")


def frozen_lossnet() -> ClassifierParams:
    net = ClassifierParams(ClassifierLayout(), seed=11)
    net.freeze()
    return net


def lock_step_loss(net):
    x = image(7, 32)
    for alpha in ALPHAS:
        cfg = losses.LossConfig(alpha=alpha)
        params = CodecParams(MICRO, seed=3, norm_mean=NORM[0], norm_std=NORM[1])
        params.zero_grads()
        with ad.Tape() as tape:
            loss, info = trainer.step_loss(x, 3, params, cfg, lossnet=net,
                                           rng=np.random.default_rng(5))
        ad.backward(loss, tape)
        comps = np.array([loss.item(), info["d_h"], info["d_c"]], dtype=np.float64)
        emit(sha(loss.data.tobytes()), f"step_loss alpha={alpha} loss={loss.item()!r}")
        emit(sha(comps.tobytes()), f"step_loss alpha={alpha} d_h={info['d_h']!r} "
                                   f"d_c={info['d_c']!r}")
        grads = hashlib.sha256()
        for p in params.parameters():
            grads.update(p.name.encode() + b"\0" + p.grad.tobytes())
        emit(grads.hexdigest(), f"step_loss alpha={alpha} codec gradients")


def train_briefly(net, alpha, tmp) -> CodecParams:
    ds = ShapesDataset(ShapesSpec(seed=4, split="train", size=6, classes=10, resolution=32))
    cfg = trainer.TrainConfig.desk(resize_side=32, crop_size=32, unroll_steps=2, epochs=1,
                                   batch_size=2, val_interval=0, seed=9)
    params, log, _ = trainer.train_codec(ds, ds, losses.LossConfig(alpha=alpha), cfg,
                                         lossnet=net if alpha > 0 else None, layout=MICRO)
    path = os.path.join(tmp, f"trained{alpha}.ckpt")
    params.save(path)
    emit(file_sha(path), f"train_codec alpha={alpha} checkpoint ({len(log)} steps)")
    return params


def run_cli(tmp, *argv):
    said = io.StringIO()
    with contextlib.redirect_stdout(said):  # keep stdout to digest lines
        rc = cli.main(list(argv))
    sys.stderr.write(said.getvalue().replace(tmp, "<tmp>"))
    if rc != 0:
        raise SystemExit(f"odlc {argv[0]} exited {rc}")


def lock_eval_csvs(tmp):
    a = os.path.join(tmp, "eval_a.ckpt")
    b = os.path.join(tmp, "eval_b.ckpt")
    cls = os.path.join(tmp, "eval_cls.ckpt")
    CodecParams(MICRO, seed=21, norm_mean=NORM[0], norm_std=NORM[1]).save(a)
    CodecParams(MICRO, seed=22).save(b)
    ClassifierParams(ClassifierLayout(), seed=23).save(cls)
    data = "shapes:seed=6,split=val,n=4,classes=10,res=64"
    out = os.path.join(tmp, "quality.csv")
    run_cli(tmp, "eval-quality", "--model", a, "--data", data, "--out", out, "--grid", "1,2,3")
    emit(file_sha(out), "eval-quality csv")
    out = os.path.join(tmp, "accuracy.csv")
    run_cli(tmp, "eval-accuracy", "--model", a, "--classifier", cls, "--data", data,
            "--out", out, "--grid", "1,2,3")
    for name in sorted(os.listdir(tmp)):
        if name.startswith("accuracy") and name.endswith(".csv"):
            emit(file_sha(os.path.join(tmp, name)), f"eval-accuracy {name}")
    out = os.path.join(tmp, "sweep.csv")
    run_cli(tmp, "sweep", "--models", f"0={a},1={b}", "--classifier", cls, "--data", data,
            "--out", out, "--iters", "1,2,3")
    emit(file_sha(out), "sweep csv")


def lock_protocols(net):
    val = ShapesDataset(ShapesSpec(seed=6, split="val", size=8, classes=10, resolution=32))
    codec_params = CodecParams(MICRO, seed=24, norm_mean=NORM[0], norm_std=NORM[1])
    points = evaluation.eval_quality_curve(codec_params, val, (3, 1, 2, 3),
                                          evaluation.EvalConfig(s_comp=32))
    emit(sha(repr(points).encode()), "eval_quality_curve grid=(3, 1, 2, 3)")
    train = ShapesDataset(ShapesSpec(seed=5, split="train", size=4, classes=10, resolution=32))
    classifier = ClassifierParams(ClassifierLayout(widths=(8, 16), classes=3,
                                                   input_resolution=32), seed=25)
    classifier.freeze()
    train_cfg = trainer.TrainConfig.desk(resize_side=32, crop_size=32, unroll_steps=2, epochs=2,
                                         batch_size=2, val_interval=0, seed=9)
    rows, logs = evaluation.ablate_layers([("1.1",), ("1.1", "3.1")], train, val, net,
                                          classifier, train_cfg, (1, 2),
                                          evaluation.EvalConfig(s_comp=32), layout=MICRO)
    emit(sha(repr(rows).encode()), f"ablate_layers rows {rows!r}")
    losses_only = {tag: [row[:-1] for row in log] for tag, log in logs.items()}  # no wall time
    emit(sha(repr(losses_only).encode()), "ablate_layers training losses")


def lock_trained_classifiers(tmp):
    for n, res in ((8, 64), (9, 48)):
        data = f"shapes:seed=8,split=train,n={n},classes=3,res={res}"
        out = os.path.join(tmp, f"classifier_{res}px.ckpt")
        run_cli(tmp, "train-classifier", "--data", data, "--out", out, "--seed", "4",
                "--epochs", "2", "--batch-size", "4")
        emit(file_sha(out), f"train-classifier {data} epochs=2 batch=4 seed=4")


def lock_rendered_images():
    for res in (1, 73, 74, 128, 256):
        digest = hashlib.sha256()
        for i in range(10):
            img, _ = datasets.render_shape_image(0, "train", i, 10, res)
            digest.update(img.tobytes())
        emit(digest.hexdigest(), f"render_shape_image seed=0 split=train {res}px images 0..9")


def main() -> int:
    print(f"blas_threads={BLAS_THREADS} (OPENBLAS, OMP and MKL_NUM_THREADS)", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        lock_checkpoints(tmp)
        full = [CodecParams(CodecLayout(), seed=s, norm_mean=NORM[0], norm_std=NORM[1])
                for s in (0, 1)]
        for i, params in enumerate(full):
            lock_bitstreams(f"seeded{i}", params, 64, (0, 1))
        lock_bitstreams("seeded0", full[0], 256, (0,))
        net = frozen_lossnet()
        lock_step_loss(net)
        for alpha in ALPHAS:
            trained = train_briefly(net, alpha, tmp)
            lock_bitstreams(f"trained{alpha}", trained, 64, (0,))
        lock_eval_csvs(tmp)
        lock_protocols(net)
        lock_trained_classifiers(tmp)
    lock_rendered_images()
    return 0


if __name__ == "__main__":
    sys.exit(main())
