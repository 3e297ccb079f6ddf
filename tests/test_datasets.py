import re

import numpy as np
import pytest

from odlc import codec, datasets, imageops
from odlc.datasets import ShapesDataset, ShapesSpec
from oracles import render_shape_image_reference, resize_bilinear_gather, shape_mask_reference

RENDER_RESOLUTIONS = (1, 2, 8, 48, 64, 73, 74, 80, 128, 256)


class TestGenerator:
    def test_deterministic(self):
        a, la = datasets.render_shape_image(5, "train", 17)
        b, lb = datasets.render_shape_image(5, "train", 17)
        np.testing.assert_array_equal(a, b)
        assert la == lb

    def test_value_range_and_shape(self):
        img, _ = datasets.render_shape_image(0, "val", 3, resolution=48)
        assert img.shape == (3, 48, 48)
        assert img.dtype == np.float32
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_splits_disjoint(self):
        a, _ = datasets.render_shape_image(5, "train", 0)
        b, _ = datasets.render_shape_image(5, "val", 0)
        assert not np.array_equal(a, b)

    def test_labels_balanced(self):
        ds = ShapesDataset(ShapesSpec(size=40, classes=10))
        counts = np.bincount([ds.label(i) for i in range(40)], minlength=10)
        assert (counts == 4).all()

    def test_all_classes_render_distinct_shapes(self):
        # same index drawing conditions, different class bodies
        masks = []
        for cls in range(10):
            rng = np.random.default_rng(123)
            masks.append(datasets._shape_mask(cls, 32, rng))
        for m in masks:
            assert 0 < m.sum() < m.size
        for i in range(10):
            for j in range(i + 1, 10):
                assert not np.array_equal(masks[i], masks[j])

    def test_unknown_split_rejected(self):
        with pytest.raises(datasets.DatasetError, match="split"):
            datasets.render_shape_image(0, "nope", 0)

    @pytest.mark.parametrize("res", [64, 73])
    def test_mask_bands_equal_the_dense_mask(self, monkeypatch, res):
        # 1000-element bands: 7 and 6 rows, the last band short
        monkeypatch.setattr(datasets, "_MASK_BAND", 1000)
        for cls in range(10):
            got = datasets._shape_mask(cls, res, np.random.default_rng(cls))
            want = shape_mask_reference(cls, res, np.random.default_rng(cls))
            assert got.dtype == bool and np.array_equal(got, want), cls

    def test_every_class_peaks_like_the_disk(self, traced):
        # at 512 px the noise and the resize set the peak, not the mask's
        # float64 grids, which took the star to 1.25x the disk's
        datasets.render_shape_image(0, "train", 0, 10, 512)  # first-call allocations

        def peak(cls):
            with traced() as t:
                datasets.render_shape_image(0, "train", cls, 10, 512)
            return t.peak
        peaks = [peak(cls) for cls in range(10)]
        assert max(peaks) <= 1.02 * peaks[0]

    @pytest.mark.parametrize("res", RENDER_RESOLUTIONS)
    def test_bit_equal_to_the_reference_renderer(self, res):
        for split in ("train", "val"):
            for i in range(10):  # every class
                got, label = datasets.render_shape_image(2, split, i, 10, res)
                want, want_label = render_shape_image_reference(2, split, i, 10, res)
                assert label == want_label
                assert got.dtype == np.float32 and got.flags.c_contiguous
                assert got.tobytes() == want.tobytes(), (split, i)

    @pytest.mark.parametrize("res", [0, -3, 2049])
    def test_resolution_outside_1_to_2048_rejected(self, res):
        with pytest.raises(datasets.DatasetError,
                           match=f"resolution must be in 1..2048, got {res}"):
            datasets.render_shape_image(0, "train", 0, resolution=res)
        with pytest.raises(datasets.DatasetError, match="resolution"):
            ShapesSpec(resolution=res)
        with pytest.raises(datasets.DatasetError, match="resolution"):
            datasets.parse_spec(f"shapes:res={res}")
        assert ShapesSpec(resolution=1).resolution == 1
        assert ShapesSpec(resolution=2048).resolution == 2048

    @pytest.mark.parametrize("key,value,match", [
        ("classes", 1, "classes must be in 2..10, got 1"),
        ("classes", 11, "classes must be in 2..10, got 11"),
        ("split", "bogus", "unknown split 'bogus'"),
    ])
    def test_spec_checks_classes_and_split(self, key, value, match):
        with pytest.raises(datasets.DatasetError, match=match):
            ShapesSpec(**{key: value})
        with pytest.raises(datasets.DatasetError, match=match):
            datasets.parse_spec(f"shapes:{key}={value}")

    def test_resolution_cap_is_the_side_of_the_codec_cap(self):
        assert datasets._MAX_RESOLUTION ** 2 == codec.MAX_PADDED_PIXELS


class TestResizeBilinear:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape,size", [
        ((3, 5, 5), (96, 96)), ((3, 64, 64), (224, 224)), ((3, 64, 48), (17, 90)),
        ((3, 100, 37), (64, 64)), ((1, 7, 9), (3, 40)), ((2, 9, 4), (1, 1)),
    ], ids=["up", "up-large", "down-up", "down", "one-channel", "to-1x1"])
    def test_bit_equal_to_four_gathers(self, shape, size, dtype):
        img = np.random.default_rng(3).random(shape).astype(dtype)
        got = imageops.resize_bilinear(img, *size)
        want = resize_bilinear_gather(img, *size)
        assert got.shape == (shape[0], *size)
        assert got.dtype == np.float32 and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    def test_peak_within_twice_the_output(self, traced):
        grid = np.random.default_rng(0).random((3, 5, 5)).astype(np.float32)
        with traced() as t:
            out = imageops.resize_bilinear(grid, 1024, 1024)
        assert t.peak <= 2.05 * out.nbytes

    @pytest.mark.parametrize("size", [(0, 4), (4, 0), (-3, -3)])
    def test_empty_or_negative_target_rejected(self, size):
        with pytest.raises(ValueError, match="at least 1x1"):
            imageops.resize_bilinear(np.zeros((3, 5, 5), np.float32), *size)


class TestChannelStats:
    def test_equal_in_c_and_fortran_order(self):
        imgs = [datasets.render_shape_image(0, "train", i, 10, 48)[0] for i in range(9)]
        c_order = imageops.channel_stats(imgs)
        f_order = imageops.channel_stats(np.asfortranarray(img) for img in imgs)
        for got, want in zip(f_order, c_order):
            assert got.dtype == np.float32
            assert got.tobytes() == want.tobytes()


class TestSpecParsing:
    def test_shapes_spec(self):
        ds = datasets.parse_spec("shapes:seed=9,split=val,n=12,classes=5,res=32")
        assert isinstance(ds, ShapesDataset)
        assert len(ds) == 12 and ds.class_count == 5 and ds.spec.resolution == 32
        assert ds.spec.split == "val" and ds.spec.seed == 9
        assert datasets.parse_spec("shapes", "val").spec == ShapesSpec(split="val")

    @pytest.mark.parametrize("text,match", [
        ("shapes:seed=0,size=4",
         "unknown shapes spec key 'size'; known: seed, split, n, classes, res"),
        ("shapes:n=4,split=val,colour=red", "unknown shapes spec key 'colour'"),
        ("shapes:seed=zero", "seed='zero' is not an int"),
        ("shapes:n=4.5", "n='4.5' is not an int"),
        ("shapes:res=", "res='' is not an int"),
    ], ids=["unknown-key", "unknown-key-among-known", "str-seed", "float-n", "empty-res"])
    def test_bad_key_or_value_named(self, text, match):
        with pytest.raises(datasets.DatasetError, match=re.escape(match)):
            datasets.parse_spec(text)

    def test_bad_spec_rejected(self):
        with pytest.raises(datasets.DatasetError):
            datasets.parse_spec("shapes:bogus")
        with pytest.raises(datasets.DatasetError, match="neither"):
            datasets.parse_spec("/no/such/dir")


class TestMaterialize:
    def test_round_trip_through_folder(self, tmp_path):
        ds = ShapesDataset(ShapesSpec(seed=2, split="train", size=6, classes=3, resolution=16))
        root = datasets.materialize(ds, str(tmp_path / "data"))
        folder = datasets.FolderDataset(root)
        assert len(folder) == 6
        assert folder.class_count == 3
        for i in range(6):
            assert folder.label(i) == ds.label(i)
            # byte-quantized round trip: equal after the same 8-bit mapping
            want = np.floor(np.clip(ds.image(i), 0, 1) * 255 + 0.5) / 255.0
            np.testing.assert_allclose(folder.image(i), want.astype(np.float32), atol=1e-7)

    def test_missing_labels_rejected(self, tmp_path):
        with pytest.raises(datasets.DatasetError, match="labels"):
            datasets.FolderDataset(str(tmp_path))

    def test_non_int_label_names_its_line(self, tmp_path):
        (tmp_path / "labels.txt").write_text("# name label\na.ppm 0\nb.ppm cat\n")
        with pytest.raises(datasets.DatasetError,
                           match=r"labels\.txt:3: label 'cat' is not an int"):
            datasets.FolderDataset(str(tmp_path))
