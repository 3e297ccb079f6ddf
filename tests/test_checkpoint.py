import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from odlc import autodiff as ad
from odlc import checkpoint as ckpt
from odlc import cli, ppm
from odlc.codec import CodecLayout, CodecParams
from odlc.lossnet import ClassifierLayout, ClassifierParams

NORM = ([0.45, 0.5, 0.55], [0.25, 0.3, 0.2])
MICRO = CodecLayout(enc_widths=(4, 6, 8, 8), dec_widths=(8, 8, 8, 4), bottleneck=4, t_max=8)

# sha256 of the default-layout checkpoints written by
# Params(Layout(), seed=s, norm_mean=NORM[0], norm_std=NORM[1]).save(path),
# recorded before save/load moved into checkpoint.save_params/load_params
GOLDEN = {
    ("codec", 0): "0377bdee0a9864b3d7d15e116a44959184e4b85ffafa8af429444fbd5e7de024",
    ("codec", 1): "1d6e8a742ffa6231a5748853292aaf1709cb47e331b0033219171f7bbec78d52",
    ("classifier", 0): "42f9921d7e68edc8501c9589b3e95ea08f1b3c70ac5f12c4955c42579ffb7fe5",
    ("classifier", 1): "e80dd49c6eb22062686a97c8c00f89dbd433b7d20b32d2bdb32ebc0a18363ae1",
}
KINDS = {"codec": (CodecParams, CodecLayout), "classifier": (ClassifierParams, ClassifierLayout)}
SMALL = {"codec": MICRO, "classifier": ClassifierLayout(widths=(4, 6), classes=3)}

# well-formed files whose layout meta cannot make a network
DEGENERATE = [
    ("classifier", {"widths": []}),
    ("classifier", {"kernel": 0}),
    ("codec", {"enc_widths": [0, 0, 0, 0]}),
    ("codec", {"kernel": 0}),
    ("codec", {"kernel": 2}),
    ("codec", {"dec_widths": [8, 8, True, 4]}),
    ("classifier", {"widths": [4, -6]}),
    ("classifier", {"classes": 1}),
]
DEGENERATE_IDS = [f"{kind}-{k}={v}" for kind, edit in DEGENERATE for k, v in edit.items()]


def write_raw(path, manifest, data=b"", kind=b"codec"):
    text = manifest if isinstance(manifest, str) else json.dumps(manifest)
    path.write_bytes(ckpt.HEADER_PREFIX + kind + b"\n" + text.encode() + b"\n" + data)


def small_checkpoint(path):
    ckpt.save(path, "codec", {"t_max": 2},
              {"w": np.arange(6, dtype=np.float32).reshape(2, 3), "b": np.ones(2)})


class TestAtomicSave:
    def test_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        small_checkpoint(path)
        before = path.read_bytes()

        class FailsAfterHeader:
            def __init__(self, f):
                self.f, self.writes = f, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, b):
                self.writes += 1
                if self.writes > 1:
                    raise OSError("disk full")
                return self.f.write(b)

        monkeypatch.setattr(ckpt, "open", lambda p, mode: FailsAfterHeader(open(p, mode)),
                            raising=False)
        with pytest.raises(OSError, match="disk full"):
            ckpt.save(path, "codec", {"t_max": 3}, {"w": np.zeros(4)})
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert ckpt.load(path, "codec")[1] == {"t_max": 2}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]

    def test_save_replaces_the_file(self, tmp_path):
        path = tmp_path / "m.ckpt"
        small_checkpoint(path)
        ckpt.save(path, "codec", {"t_max": 3}, {"w": np.zeros(4)})
        assert ckpt.load(path, "codec")[1] == {"t_max": 3}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_refused_before_writing(self, bad, tmp_path):
        path = tmp_path / "m.ckpt"
        small_checkpoint(path)
        before = path.read_bytes()
        b = np.ones(3, dtype=np.float32)
        b[1] = bad
        with pytest.raises(ckpt.CheckpointError, match="tensor b holds non-finite values"):
            ckpt.save(path, "codec", {"t_max": 3}, {"w": np.zeros(4), "b": b})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]


class TestGolden:
    @pytest.mark.parametrize("kind,seed", sorted(GOLDEN))
    def test_seeded_checkpoint_bytes(self, kind, seed, tmp_path):
        params_cls, layout_cls = KINDS[kind]
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        params_cls(layout_cls(), seed=seed, norm_mean=NORM[0], norm_std=NORM[1]).save(a)
        assert hashlib.sha256(a.read_bytes()).hexdigest() == GOLDEN[kind, seed]
        params_cls.load(a).save(b)
        assert b.read_bytes() == a.read_bytes()


class TestParserRejects:
    """Every malformed file is a CheckpointError naming the file."""

    def test_no_tensor_table(self, tmp_path):
        write_raw(tmp_path / "m.ckpt", {"meta": {}})
        with pytest.raises(ckpt.CheckpointError, match="m.ckpt: bad manifest: no tensor table"):
            ckpt.load(tmp_path / "m.ckpt")

    def test_tensor_table_not_a_list(self, tmp_path):
        write_raw(tmp_path / "m.ckpt", {"meta": {}, "tensors": {"w": [2]}})
        with pytest.raises(ckpt.CheckpointError, match="no tensor table"):
            ckpt.load(tmp_path / "m.ckpt")

    @pytest.mark.parametrize("entry", [
        {"name": "w", "dtype": "f32"},                    # no shape
        {"name": "w", "shape": [2, -1], "dtype": "f32"},  # negative dimension
        {"name": "w", "shape": [2.0], "dtype": "f32"},    # float dimension
        {"name": "w", "shape": [True], "dtype": "f32"},   # bool dimension
        {"name": 3, "shape": [2], "dtype": "f32"},        # non-str name
        {"shape": [2], "dtype": "f32"},                   # no name
        "w",                                              # not a dict
    ])
    def test_bad_table_entry(self, entry, tmp_path):
        write_raw(tmp_path / "m.ckpt", {"meta": {}, "tensors": [entry]}, bytes(8))
        with pytest.raises(ckpt.CheckpointError, match="bad tensor table entry"):
            ckpt.load(tmp_path / "m.ckpt")

    def test_unsupported_dtype(self, tmp_path):
        write_raw(tmp_path / "m.ckpt",
                  {"meta": {}, "tensors": [{"name": "w", "shape": [2], "dtype": "f64"}]},
                  bytes(16))
        with pytest.raises(ckpt.CheckpointError, match="unsupported tensor dtype"):
            ckpt.load(tmp_path / "m.ckpt")

    def test_duplicate_tensor_name(self, tmp_path):
        entry = {"name": "w", "shape": [1], "dtype": "f32"}
        write_raw(tmp_path / "m.ckpt", {"meta": {}, "tensors": [entry, entry]}, bytes(8))
        with pytest.raises(ckpt.CheckpointError, match="duplicate tensor w"):
            ckpt.load(tmp_path / "m.ckpt")

    def test_huge_declared_shape_reads_nothing(self, tmp_path):
        write_raw(tmp_path / "m.ckpt",
                  {"meta": {}, "tensors": [{"name": "w", "shape": [1 << 40], "dtype": "f32"}]},
                  bytes(8))
        with pytest.raises(ckpt.CheckpointError, match="truncated tensor data"):
            ckpt.load(tmp_path / "m.ckpt")

    def test_truncated_data(self, tmp_path):
        path = tmp_path / "m.ckpt"
        small_checkpoint(path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ckpt.CheckpointError, match="truncated tensor data"):
            ckpt.load(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "m.ckpt"
        small_checkpoint(path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ckpt.CheckpointError, match="1 trailing bytes"):
            ckpt.load(path)

    def test_non_ascii_kind(self, tmp_path):
        write_raw(tmp_path / "m.ckpt", {"meta": {}, "tensors": []}, kind=b"c\xffdec")
        with pytest.raises(ckpt.CheckpointError, match="non-ASCII"):
            ckpt.load(tmp_path / "m.ckpt")

    def test_deeply_nested_manifest(self, tmp_path):
        write_raw(tmp_path / "m.ckpt", "[" * 100000 + "]" * 100000)
        with pytest.raises(ckpt.CheckpointError, match="bad manifest"):
            ckpt.load(tmp_path / "m.ckpt")

    @settings(max_examples=200)
    @given(data=st.data())
    def test_mutated_or_truncated_file(self, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "m.ckpt"
        small_checkpoint(path)
        raw = bytearray(path.read_bytes())
        if data.draw(st.booleans(), label="truncate"):
            raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="cut")]
        else:
            for _ in range(data.draw(st.integers(1, 4), label="flips")):
                i = data.draw(st.integers(0, len(raw) - 1), label="at")
                raw[i] = data.draw(st.one_of(st.integers(0, 255),
                                             st.sampled_from(b'0-9a"[]{},:')), label="byte")
        path.write_bytes(bytes(raw))
        try:
            out = ckpt.load(path)
        except ckpt.CheckpointError:
            return
        kind, meta, tensors = out
        assert isinstance(kind, str) and isinstance(meta, dict) and isinstance(tensors, dict)


def edited_checkpoint(path, kind, meta_edit=None, tensor_edit=None):
    """A small seeded checkpoint of ``kind``, with its meta and tensors edited."""
    params_cls, _ = KINDS[kind]
    params_cls(SMALL[kind], seed=0).save(path)
    _, meta, tensors = ckpt.load(path)
    if meta_edit:
        meta_edit(meta)
    if tensor_edit:
        tensor_edit(tensors)
    ckpt.save(path, kind, dict(meta), tensors)
    return path


class TestLoadParams:
    def test_layout_error_names_file(self, tmp_path):
        path = tmp_path / "m.ckpt"
        edited_checkpoint(path, "codec", meta_edit=lambda m: m.update(dec_widths=[3, 3, 3, 3]))
        with pytest.raises(ckpt.CheckpointError, match="m.ckpt: bad layout meta.*divisible"):
            CodecParams.load(path)

    def test_layout_wrong_type_names_file(self, tmp_path):
        path = tmp_path / "m.ckpt"
        edited_checkpoint(path, "codec", meta_edit=lambda m: m.update(enc_widths=[4, 6, "8", 8]))
        with pytest.raises(ckpt.CheckpointError, match="m.ckpt: bad layout meta"):
            CodecParams.load(path)

    def test_norm_stats_need_three_channels(self, tmp_path):
        path = tmp_path / "m.ckpt"
        edited_checkpoint(path, "codec", meta_edit=lambda m: m.update(norm_std=[0.5]))
        with pytest.raises(ckpt.CheckpointError, match="3 channels"):
            CodecParams.load(path)

    def test_tensor_shape_mismatch_names_file(self, tmp_path):
        path = tmp_path / "m.ckpt"
        edited_checkpoint(path, "codec", tensor_edit=lambda t: t.update(
            {"dec.conv_out.bias": np.zeros(4, dtype=np.float32)}))
        with pytest.raises(ckpt.CheckpointError, match="m.ckpt: parameter dec.conv_out.bias"):
            CodecParams.load(path)

    def test_missing_tensor_names_it(self, tmp_path):
        path = tmp_path / "m.ckpt"
        edited_checkpoint(path, "codec", tensor_edit=lambda t: t.pop("enc.conv_in.bias"))
        with pytest.raises(ckpt.CheckpointError, match="missing tensor enc.conv_in.bias"):
            CodecParams.load(path)

    def test_classifier_load_freezes(self, tmp_path):
        path = tmp_path / "c.ckpt"
        ClassifierParams(ClassifierLayout(widths=(4,), classes=2), seed=0).save(path)
        net = ClassifierParams.load(path)
        assert not any(p.tensor.requires_grad for p in net.parameters())

    def test_extra_tensor_rejected(self, tmp_path):
        path = edited_checkpoint(tmp_path / "m.ckpt", "codec", tensor_edit=lambda t: t.update(
            {"enc.conv_extra.bias": np.zeros(2, dtype=np.float32)}))
        with pytest.raises(ckpt.CheckpointError, match="m.ckpt: extra tensor enc.conv_extra.bias"):
            CodecParams.load(path)

    def test_load_runs_no_random_init(self, tmp_path, monkeypatch):
        saved = [params_cls(SMALL[kind], seed=4, norm_mean=NORM[0], norm_std=NORM[1])
                 for kind, (params_cls, _) in KINDS.items()]
        for i, params in enumerate(saved):
            params.save(tmp_path / f"{i}.ckpt")

        def no_draw(*args):
            raise AssertionError("load ran a random init")
        monkeypatch.setattr(ad, "xavier_uniform", no_draw)
        for i, params in enumerate(saved):
            loaded = type(params).load(tmp_path / f"{i}.ckpt")
            assert loaded.layout == params.layout and loaded.dtype == np.float32
            np.testing.assert_array_equal(loaded.norm_std, params.norm_std)
            assert [p.name for p in loaded.parameters()] == [p.name for p in params.parameters()]
            for p, q in zip(loaded.parameters(), params.parameters()):
                np.testing.assert_array_equal(p.value, q.value)

    def test_load_fills_the_gru_stacked_buffers(self, tmp_path):
        layout = CodecLayout(enc_widths=(4, 6, 8, 8), dec_widths=(8, 8, 8, 4), bottleneck=4)
        saved = CodecParams(layout, seed=2)
        saved.save(tmp_path / "m.ckpt")
        loaded = CodecParams.load(tmp_path / "m.ckpt")
        for gru, ref in zip(loaded.enc_grus + loaded.dec_grus, saved.enc_grus + saved.dec_grus):
            for stack, names in ((gru.wx, ("wxu", "wxr", "wxc")), (gru.b, ("bu", "br", "bc")),
                                 (gru.wh, ("whu", "whr"))):
                want = np.concatenate([getattr(ref, n).value for n in names])
                np.testing.assert_array_equal(stack, want)
                assert all(getattr(gru, n).value.base is stack for n in names)

    def test_load_holds_no_gradient_buffers(self, tmp_path, traced):
        # the file is read once into the parameters; a gradient buffer is
        # allocated only when training first touches it
        path = tmp_path / "m.ckpt"
        CodecParams(CodecLayout(), seed=0).save(path)
        size = path.stat().st_size
        with traced() as t:
            loaded = CodecParams.load(path)
        assert t.peak <= 2.1 * size and t.held <= 1.1 * size
        assert all(p.tensor.grad is None for p in loaded.parameters())

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_one_copy_of_the_tensors(self, kind, tmp_path, traced):
        # save writes from the parameter buffers and load reads straight
        # into them: the file's tensors pass through memory once
        params_cls, layout_cls = KINDS[kind]
        params = params_cls(layout_cls(), seed=0)
        path = tmp_path / "m.ckpt"
        params.save(path)
        size = path.stat().st_size
        with traced() as saving:
            params.save(path)
        with traced() as loading:
            params_cls.load(path)
        assert saving.peak <= 0.05 * size
        assert loading.peak <= 1.1 * size

    def test_reordered_table_loads_by_name(self, tmp_path):
        path = tmp_path / "m.ckpt"
        saved = CodecParams(MICRO, seed=1, norm_mean=NORM[0], norm_std=NORM[1])
        saved.save(path)
        kind, meta, tensors = ckpt.load(path)
        ckpt.save(path, kind, dict(meta), dict(reversed(tensors.items())))
        assert list(ckpt.load(path)[2]) == list(reversed(tensors))
        loaded = CodecParams.load(path)
        assert [p.name for p in loaded.parameters()] == [p.name for p in saved.parameters()]
        for p, q in zip(loaded.parameters(), saved.parameters()):
            assert p.value.tobytes() == q.value.tobytes()

    @pytest.mark.parametrize("reader", [ckpt.load, CodecParams.load], ids=["raw", "params"])
    def test_file_shorter_than_its_size_check(self, reader, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        CodecParams(MICRO, seed=0).save(path)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-6])
        # the file shrinks between the size check and the read
        monkeypatch.setattr(ckpt.os, "fstat", lambda fd: SimpleNamespace(st_size=size))
        with pytest.raises(ckpt.CheckpointError,
                           match=r"m\.ckpt: truncated tensor data: tensor dec\.conv_out\.bias "
                                 r"ends after 6 of 12 bytes"):
            reader(path)

    @pytest.mark.parametrize("kind,edit", DEGENERATE, ids=DEGENERATE_IDS)
    def test_degenerate_layout_meta(self, kind, edit, tmp_path):
        path = edited_checkpoint(tmp_path / "m.ckpt", kind, meta_edit=lambda m: m.update(edit))
        with pytest.raises(ckpt.CheckpointError, match="m.ckpt: bad layout meta"):
            KINDS[kind][0].load(path)

    @pytest.mark.parametrize("kind,edit", DEGENERATE, ids=DEGENERATE_IDS)
    def test_degenerate_layout_meta_exits_1(self, kind, edit, tmp_path, capsys):
        model = edited_checkpoint(tmp_path / "m.ckpt", kind, meta_edit=lambda m: m.update(edit))
        if kind == "codec":
            src = tmp_path / "x.ppm"
            ppm.write_ppm(src, np.zeros((3, 32, 32), dtype=np.float32))
            argv = ["compress", "--in", str(src), "--model", str(model), "--iters", "1"]
        else:
            argv = ["sweep", "--models", f"0={tmp_path / 'none.ckpt'}", "--classifier", str(model),
                    "--data", "shapes:seed=1,split=val,n=2,classes=3,res=32"]
        assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "m.ckpt: bad layout meta" in err and "Traceback" not in err


# layout fields as a hostile file may hold them: half of the edits are
# valid ints up to 2^40, which reach the tensor table check; the rest may
# hold anything
_INT = st.one_of(st.integers(1, 9), st.integers(1, 1 << 40))
_ANY = st.one_of(_INT, st.integers(-2, 0), st.booleans(), st.none(),
                 st.floats(allow_nan=False), st.text(max_size=2), st.lists(_INT, max_size=6))
_ODD = st.integers(0, 1 << 39).map(lambda k: 2 * k + 1)


def _edits(**fields):
    valid = st.fixed_dictionaries({}, optional=fields)
    return st.one_of(valid, st.fixed_dictionaries({}, optional={k: _ANY for k in fields}))


_META_EDITS = {
    "codec": _edits(enc_widths=st.lists(_INT, min_size=4, max_size=4),
                    dec_widths=st.lists(_INT.map(lambda w: 4 * w), min_size=4, max_size=4),
                    bottleneck=st.integers(1, 255), kernel=_ODD, t_max=st.integers(1, 8)),
    "classifier": _edits(widths=st.lists(_INT, min_size=1, max_size=6), kernel=_ODD,
                         classes=st.integers(2, 1 << 40)),
}


class TestLayoutMetaFuzz:
    """Whatever layout a well-formed file declares, loading returns or
    raises CheckpointError, and allocates within a small multiple of the
    file size: the file bounds the load."""

    @settings(max_examples=150)
    @given(data=st.data())
    def test_load_bounded_by_file(self, data, tmp_path_factory, traced):
        kind = data.draw(st.sampled_from(sorted(KINDS)), label="kind")
        edit = data.draw(_META_EDITS[kind], label="meta")
        path = edited_checkpoint(tmp_path_factory.mktemp("fuzz") / "m.ckpt", kind,
                                 meta_edit=lambda m: m.update(edit))
        size = path.stat().st_size
        with traced() as t:
            try:
                KINDS[kind][0].load(path)
            except ckpt.CheckpointError:
                pass
        assert t.peak < 4 * size + (1 << 20)
