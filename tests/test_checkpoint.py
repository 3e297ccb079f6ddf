import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from odlc import checkpoint as ckpt
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


def write_raw(path, manifest, data=b"", kind=b"codec"):
    text = manifest if isinstance(manifest, str) else json.dumps(manifest)
    path.write_bytes(ckpt.HEADER_PREFIX + kind + b"\n" + text.encode() + b"\n" + data)


def small_checkpoint(path):
    ckpt.save(path, "codec", {"t_max": 2},
              {"w": np.arange(6, dtype=np.float32).reshape(2, 3), "b": np.ones(2)})


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


class TestLoadParams:
    def _resave(self, path, meta_edit=None, tensor_edit=None):
        _, meta, tensors = ckpt.load(path)
        if meta_edit:
            meta_edit(meta)
        if tensor_edit:
            tensor_edit(tensors)
        ckpt.save(path, "codec", dict(meta), tensors)

    def test_layout_error_names_file(self, tmp_path):
        path = tmp_path / "m.ckpt"
        CodecParams(MICRO, seed=0).save(path)
        self._resave(path, meta_edit=lambda m: m.update(dec_widths=[3, 3, 3, 3]))
        with pytest.raises(ckpt.CheckpointError, match="m.ckpt: bad layout meta.*divisible"):
            CodecParams.load(path)

    def test_layout_wrong_type_names_file(self, tmp_path):
        path = tmp_path / "m.ckpt"
        CodecParams(MICRO, seed=0).save(path)
        self._resave(path, meta_edit=lambda m: m.update(enc_widths=[4, 6, "8", 8]))
        with pytest.raises(ckpt.CheckpointError, match="m.ckpt: bad layout meta"):
            CodecParams.load(path)

    def test_norm_stats_need_three_channels(self, tmp_path):
        path = tmp_path / "m.ckpt"
        CodecParams(MICRO, seed=0).save(path)
        self._resave(path, meta_edit=lambda m: m.update(norm_std=[0.5]))
        with pytest.raises(ckpt.CheckpointError, match="3 channels"):
            CodecParams.load(path)

    def test_tensor_shape_mismatch_names_file(self, tmp_path):
        path = tmp_path / "m.ckpt"
        CodecParams(MICRO, seed=0).save(path)
        self._resave(path, tensor_edit=lambda t: t.update(
            {"dec.conv_out.bias": np.zeros(4, dtype=np.float32)}))
        with pytest.raises(ckpt.CheckpointError, match="m.ckpt: parameter dec.conv_out.bias"):
            CodecParams.load(path)

    def test_missing_tensor_names_it(self, tmp_path):
        path = tmp_path / "m.ckpt"
        CodecParams(MICRO, seed=0).save(path)
        self._resave(path, tensor_edit=lambda t: t.pop("enc.conv_in.bias"))
        with pytest.raises(ckpt.CheckpointError, match="missing tensor enc.conv_in.bias"):
            CodecParams.load(path)

    def test_classifier_load_freezes(self, tmp_path):
        path = tmp_path / "c.ckpt"
        ClassifierParams(ClassifierLayout(widths=(4,), classes=2), seed=0).save(path)
        net = ClassifierParams.load(path)
        assert not any(p.tensor.requires_grad for p in net.parameters())
