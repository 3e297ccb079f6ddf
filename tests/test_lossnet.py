import numpy as np
import pytest

from odlc import autodiff as ad
from odlc import checkpoint as ckpt
from odlc import lossnet, losses
from oracles import conv2d_direct


def img(seed, res=64):
    return np.random.default_rng(seed).random((3, res, res), dtype=np.float32)


@pytest.fixture(scope="module")
def net():
    return lossnet.ClassifierParams(lossnet.ClassifierLayout(), seed=1)


class TestForwardFeatures:
    def test_deterministic(self, net):
        x = img(0)
        a = net.features(x, ("1.1", "5.1"))
        b = net.features(x, ("1.1", "5.1"))
        for m1, m2 in zip(a, b):
            np.testing.assert_array_equal(m1.data, m2.data)

    def test_tap_count_and_shapes(self, net):
        maps = net.features(img(1), ("1.1", "5.1"))
        assert len(maps) == 2
        assert maps[0].shape == (16, 64, 64)
        assert maps[1].shape == (128, 4, 4)
        # taps come back in request order, not layer order
        assert [m.shape for m in net.features(img(1), ("5.1", "1.1"))] == [(128, 4, 4),
                                                                           (16, 64, 64)]

    def test_downsampling_schedule(self, net):
        maps = net.features(img(2), net.layer_names())
        for i, m in enumerate(maps):
            assert m.shape[1] == 64 // 2 ** i

    def test_unknown_layer_rejected(self, net):
        with pytest.raises(lossnet.LossnetError, match="unknown layer"):
            net.features(img(0), ("6.1",))

    def test_one_block_matches_conv_relu_oracle(self):
        toy = lossnet.ClassifierParams(
            lossnet.ClassifierLayout(widths=(2,), classes=2, input_resolution=5),
            seed=0, norm_mean=[0, 0, 0], norm_std=[1, 1, 1])
        rng = np.random.default_rng(3)
        kern = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
        bias = rng.standard_normal(2).astype(np.float32)
        toy.blocks[0][0].value[...] = kern
        toy.blocks[0][1].value[...] = bias
        x = rng.random((3, 5, 5)).astype(np.float32)
        got = toy.features(ad.Tensor(x), ("1.1",))[0].data
        want = np.maximum(conv2d_direct(x, kern, bias, stride=1, padding="same"), 0.0)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_logits_are_the_head_over_the_last_tap(self, net):
        x = img(8, 56)
        last = net.features(x, ("5.1",))[0]
        want = ad.dense(ad.global_avg_pool(last), net.head_w.tensor, net.head_b.tensor)
        np.testing.assert_array_equal(net.logits(x).data, want.data)

    @pytest.mark.parametrize("taps, convs", [(("1.1",), 2), (("2.1", "1.1"), 4),
                                             (("1.1", "5.1"), 10), ((), 0)])
    def test_stops_after_the_deepest_tap(self, net, monkeypatch, taps, convs):
        x, y = img(3, 32), img(4, 32)
        want = dict(zip(net.layer_names(), net.features(x, net.layer_names())))
        calls = []
        conv2d = ad.conv2d

        def counting(*args, **kwargs):
            calls.append(1)
            return conv2d(*args, **kwargs)
        monkeypatch.setattr(ad, "conv2d", counting)
        got = net.features(x, taps)
        assert len(got) == len(taps) and len(calls) == convs // 2
        for lid, tap in zip(taps, got):
            np.testing.assert_array_equal(tap.data, want[lid].data)
        if taps:
            calls.clear()
            losses.feature_distortion(x, y, net, taps)
            assert len(calls) == convs


class TestClassify:
    def test_resolution_enforced(self, net):
        with pytest.raises(lossnet.LossnetError, match="expected"):
            lossnet.classify(img(0, 32), net)

    def test_zero_head_label_zero(self):
        n = lossnet.ClassifierParams(lossnet.ClassifierLayout(input_resolution=32), seed=2)
        n.head_w.value[...] = np.zeros_like(n.head_w.value)
        n.head_b.value[...] = np.zeros_like(n.head_b.value)
        label, logits = lossnet.classify(img(5, 32), n)
        assert label == 0  # all-equal logits tie-break to the lowest index
        np.testing.assert_array_equal(logits, np.zeros(10, dtype=np.float32))

    def test_constant_logit_shift_keeps_label(self, net):
        x = img(6, 56)
        label, _ = lossnet.classify(x, net)
        shifted = lossnet.ClassifierParams(net.layout, seed=1,
                                           norm_mean=net.norm_mean, norm_std=net.norm_std)
        shifted.head_b.value[...] = shifted.head_b.value + 3.25
        label2, _ = lossnet.classify(x, shifted)
        assert label2 == label

    def test_head_permutation_covariance(self, net):
        x = img(7, 56)
        _, logits = lossnet.classify(x, net)
        perm = np.random.default_rng(0).permutation(10)
        permuted = lossnet.ClassifierParams(net.layout, seed=1,
                                            norm_mean=net.norm_mean, norm_std=net.norm_std)
        permuted.head_w.value[...] = net.head_w.value[perm]
        permuted.head_b.value[...] = net.head_b.value[perm]
        label_p, logits_p = lossnet.classify(x, permuted)
        np.testing.assert_allclose(logits_p, logits[perm], rtol=1e-6)
        assert label_p == int(np.argmax(logits[perm]))


class TestPersistence:
    def test_save_load_identical_outputs(self, net, tmp_path):
        path = tmp_path / "cls.ckpt"
        net.save(path)
        again = lossnet.ClassifierParams.load(path)
        x = img(9, 56)
        assert lossnet.classify(x, net)[0] == lossnet.classify(x, again)[0]
        np.testing.assert_allclose(lossnet.classify(x, net)[1],
                                   lossnet.classify(x, again)[1], rtol=1e-6)

    def test_missing_meta_key_names_it(self, net, tmp_path):
        path = tmp_path / "cls.ckpt"
        net.save(path)
        _, meta, tensors = ckpt.load(path)
        del meta["classes"]
        ckpt.save(path, "classifier", meta, tensors)
        with pytest.raises(ckpt.CheckpointError, match="meta key 'classes'"):
            lossnet.ClassifierParams.load(path)
