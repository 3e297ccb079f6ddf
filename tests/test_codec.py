from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from odlc import autodiff as ad
from odlc import checkpoint as ckpt
from odlc import codec, evaluation, losses, trainer
from odlc.bitstream import (Bitstream, BitstreamError, BitstreamHeader, ceil16, pack_bits,
                            unpack_bits)

MICRO = codec.CodecLayout(enc_widths=(4, 6, 8, 8), dec_widths=(8, 8, 8, 4),
                          bottleneck=4, t_max=8)
MICRO_CB32 = codec.CodecLayout(enc_widths=(4, 6, 8, 8), dec_widths=(8, 8, 8, 4),
                               bottleneck=32, t_max=8)


@pytest.fixture(scope="module")
def params():
    return codec.CodecParams(MICRO, seed=3)


def image(seed=0, h=32, w=32):
    return np.random.default_rng(seed).random((3, h, w), dtype=np.float32)


def first_step(x, params):
    """One unrolling step through fresh halves: (delta_1 = x_hat_1, codes_1)."""
    h, w = x.shape[1:]
    codes = codec.binarize(codec._Encoder(params, h, w)(x))
    return codec._Decoder(params, h, w)(codes), codes


class TestBinarize:
    def test_deterministic_signs(self):
        z = ad.Tensor(np.array([0.7, -0.3, 0.0], dtype=np.float32))
        out = codec.binarize(z)
        np.testing.assert_array_equal(out.data, [1.0, -1.0, 1.0])  # sign(0) = +1

    def test_out_of_range_rejected(self):
        with pytest.raises(codec.CodecError, match="outside"):
            codec.binarize(ad.Tensor(np.array([1.2], dtype=np.float32)))

    def test_nan_rejected(self):
        with pytest.raises(codec.CodecError, match="activation nan outside"):
            codec.binarize(ad.Tensor(np.array([0.5, np.nan, -0.5], dtype=np.float32)))

    @pytest.mark.parametrize("z,seed", [(0.0, 11), (0.5, 12), (-0.5, 13)])
    def test_stochastic_unbiased(self, z, seed):
        n = 10_000
        t = ad.Tensor(np.full(n, z, dtype=np.float32))
        out = codec.binarize(t, np.random.default_rng(seed))
        tol = 3.0 * np.sqrt(1.0 - z * z) / np.sqrt(n)
        assert abs(out.data.mean() - z) <= max(tol, 0.03)

    def test_straight_through_identity(self):
        # dL/dz is dL/db = 2b/n, passed through the quantizer unchanged
        z = ad.Tensor(np.random.default_rng(0).uniform(-1, 1, (4, 4)).astype(np.float32),
                      requires_grad=True)
        with ad.Tape() as tape:
            b = codec.binarize(z)
            loss = ad.mean(ad.square(b))
        ad.backward(loss, tape)
        np.testing.assert_array_equal(z.grad, 2.0 * b.data / b.size)

    def test_straight_through_matches_identity_for_linear_loss(self):
        # mean() is linear, so the full input gradient must match the
        # quantizer-free graph exactly
        data = np.random.default_rng(1).uniform(-0.9, 0.9, (3, 3)).astype(np.float32)
        x1 = ad.Tensor(data.copy(), requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.mean(codec.binarize(ad.tanh(x1)))
        ad.backward(loss, tape)
        x2 = ad.Tensor(data.copy(), requires_grad=True)
        with ad.Tape() as tape2:
            loss2 = ad.mean(ad.tanh(x2))
        ad.backward(loss2, tape2)
        np.testing.assert_array_equal(x1.grad, x2.grad)


class TestCodecStep:
    def test_zero_decoder_means_zero_delta(self):
        p = codec.CodecParams(MICRO, seed=1)
        for param in p.parameters():
            if param.name.startswith("dec."):
                param.value[...] = np.zeros_like(param.value)
        delta, _ = first_step(ad.Tensor(image(2)), p)
        np.testing.assert_array_equal(delta.data, np.zeros((3, 32, 32), dtype=np.float32))

    def test_bit_count_64px(self):
        p = codec.CodecParams(MICRO_CB32, seed=1)
        _, bits = first_step(ad.Tensor(image(0, 64, 64)), p)
        assert bits.data.size == 32 * 4 * 4 == 512

    def test_deterministic_repeat(self, params):
        x = ad.Tensor(image(5))

        def run():
            d, b = first_step(x, params)
            return d.data, b.data

        d1, b1 = run()
        d2, b2 = run()
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_array_equal(b1, b2)


class TestDoor:
    """`normalized_input` is the one check of an image entering the codec."""

    ENTRIES = {
        "compress": lambda x, p: codec.compress(x, 1, p),
        "reconstruct_progressive": lambda x, p: codec.reconstruct_progressive(x, 1, p),
        "step_loss": lambda x, p: trainer.step_loss(x, 1, p, losses.LossConfig(alpha=0.0)),
        "evaluation._decodes": lambda x, p: evaluation._decodes(p, x, (1,)),
    }

    @pytest.mark.parametrize("shape", [(1, 32, 32), (4, 32, 32), (3, 0, 32), (32, 32)])
    def test_every_encode_entry_rejects_alike(self, shape, params):
        x = np.zeros(shape, dtype=np.float32)
        messages = {}
        for name, entry in self.ENTRIES.items():
            with pytest.raises(codec.CodecError) as err:
                entry(x, params)
            messages[name] = str(err.value)
        assert len(set(messages.values())) == 1, messages

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_every_encode_entry_rejects_non_finite_pixels(self, value, params):
        x = image(6)
        x[1, 5, 7] = value
        for entry in self.ENTRIES.values():
            with pytest.raises(codec.CodecError, match="1 non-finite pixel values"):
                entry(x, params)

    def test_small_image_padded_empty_rejected(self, params):
        # below 16x16 an image is padded to one code cell, not refused
        x = np.zeros((3, 8, 8), dtype=np.float32)
        assert codec.normalized_input(x, params).shape == (3, 16, 16)
        with pytest.raises(codec.CodecError, match="dimensions 0x8 outside"):
            codec.normalized_input(x[:, :0], params)


class TestReconstruct:
    def test_t1_single_delta(self, params):
        xn = codec.normalized_input(image(1), params)
        [(xhat, _)] = codec.progressive_from_normalized(xn, 1, params)
        delta, _ = first_step(xn, params)
        np.testing.assert_array_equal(xhat.data, delta.data)

    def test_trace_invariants_exact(self, params):
        # replay each step on r_t = x - x_hat_{t-1} (r_1 = x) from the
        # generator's own estimates: x_hat_t = x_hat_{t-1} + delta_t exactly,
        # with delta_t from a decoder whose running estimate is reset to zero
        xn = codec.normalized_input(image(2), params)
        encode, decode = codec._Encoder(params, 32, 32), codec._Decoder(params, 32, 32)
        prev = None
        steps = list(codec.progressive_from_normalized(xn, 4, params))
        assert len(steps) == 4
        for xhat, bits in steps:
            r = xn.data if prev is None else xn.data - prev
            assert np.isfinite(r).all()
            want_bits = codec.binarize(encode(ad.Tensor(r)))
            decode.xhat = None
            delta = decode(want_bits)
            want = delta.data if prev is None else prev + delta.data
            np.testing.assert_array_equal(xhat.data, want)
            np.testing.assert_array_equal(bits.data, want_bits.data)
            prev = xhat.data

    def test_padding_and_crop(self, params):
        assert codec.normalized_input(image(3, 40, 50), params).shape == (3, 48, 64)
        tr = codec.reconstruct_progressive(image(3, 40, 50), 2, params)
        assert len(tr.decodes) == 2
        out = tr.decoded()
        assert out.shape == (3, 40, 50)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_decoded_refuses_steps_outside_the_trace(self, params):
        tr = codec.reconstruct_progressive(image(3), 3, params)
        for t in (0, -1, 4):
            with pytest.raises(codec.CodecError, match=f"decode {t} outside 1..3"):
                tr.decoded(t)
        assert tr.decoded(1) is tr.decodes[0] and tr.decoded() is tr.decoded(3)

    def test_iteration_bounds(self, params):
        with pytest.raises(codec.CodecError, match="outside"):
            codec.reconstruct_progressive(image(0), 0, params)
        with pytest.raises(codec.CodecError, match="outside"):
            codec.reconstruct_progressive(image(0), 9, params)


class TestCompressDecompress:
    def test_bpp_law_224(self):
        p = codec.CodecParams(MICRO_CB32, seed=0)
        x = image(0, 224, 224)
        bs8 = codec.compress(x, 8, p)
        assert bs8.payload_bits == 8 * 32 * 14 * 14 == 50176
        assert bs8.bpp == 1.0
        bs1 = codec.compress(x, 1, p)
        assert bs1.bpp == 0.125

    def test_bpp_law_64(self, params):
        p = codec.CodecParams(MICRO_CB32, seed=0)
        bs = codec.compress(image(0, 64, 64), 2, p)
        assert bs.payload_bits == 2 * 32 * 4 * 4 == 1024
        assert bs.bpp == 0.25

    @settings(max_examples=10)
    @given(h=st.integers(17, 70), w=st.integers(17, 70), t=st.integers(1, 4))
    def test_bit_count_law_property(self, h, w, t):
        p = codec.CodecParams(MICRO, seed=2)
        bs = codec.compress(image(1, h, w), t, p)
        assert bs.payload_bits == t * 4 * (-(-h // 16)) * (-(-w // 16))

    def test_t_beyond_trained_rejected(self, params):
        with pytest.raises(codec.CodecError, match="trained range"):
            codec.compress(image(0), 9, params)

    def test_round_trip_bit_identical(self, params):
        x = image(7)
        b1 = codec.compress(x, 3, params)
        b2 = codec.compress(x, 3, params)
        assert b1.to_bytes() == b2.to_bytes()
        y1 = codec.decompress(b1, params)
        y2 = codec.decompress(Bitstream.from_bytes(b1.to_bytes()), params)
        np.testing.assert_array_equal(y1, y2)

    def test_decompress_equals_trace(self, params):
        x = image(8, 48, 32)
        bs = codec.compress(x, 3, params)
        tr = codec.reconstruct_progressive(x, 3, params)
        np.testing.assert_array_equal(codec.decompress(bs, params), tr.decoded(3))

    def test_truncated_stream_matches_prefix(self, params):
        x = image(9)
        full, t_cut = 4, 2
        bs = codec.compress(x, full, params)
        hdr = bs.header
        cut = BitstreamHeader(width=hdr.width, height=hdr.height, iterations=t_cut,
                              c_b=hdr.c_b)
        bits = unpack_bits(bs.payload, hdr.payload_bits)
        cut_payload = pack_bits([bits[: cut.payload_bits]])
        truncated = Bitstream(header=cut, payload=cut_payload)
        tr = codec.reconstruct_progressive(x, full, params)
        np.testing.assert_array_equal(codec.decompress(truncated, params), tr.decoded(t_cut))

    def test_random_bits_valid_header_decodes(self, params):
        rng = np.random.default_rng(13)
        codes = [np.where(rng.random((4, 2, 2)) < 0.5, -1.0, 1.0).astype(np.float32)
                 for _ in range(3)]
        bs = Bitstream.from_codes(codes, width=32, height=32)
        out = codec.decompress(bs, params)
        assert out.shape == (3, 32, 32)
        assert np.isfinite(out).all()

    def test_cb_mismatch_rejected(self, params):
        p32 = codec.CodecParams(MICRO_CB32, seed=0)
        bs = codec.compress(image(0), 1, p32)
        with pytest.raises(BitstreamError, match="dimension mismatch"):
            codec.decompress(bs, params)

    def test_iterations_beyond_t_max_rejected(self):
        bs = codec.compress(image(0), 5, codec.CodecParams(MICRO, seed=0))
        short = codec.CodecParams(replace(MICRO, t_max=2), seed=0)
        with pytest.raises(BitstreamError, match="5 iterations.*at most 2"):
            codec.decompress(bs, short)

    def test_oversize_header_fails_before_any_state(self, params, monkeypatch):
        def no_state(*args, **kwargs):
            raise AssertionError("decoder state allocated")
        monkeypatch.setattr(codec, "_zero_states", no_state)
        hdr = BitstreamHeader(width=65535, height=65535, iterations=1, c_b=4)
        with pytest.raises(BitstreamError, match="cap of 4194304"):
            codec.decompress(Bitstream(header=hdr, payload=b""), params)

    def test_compress_refuses_what_decompress_would(self, params, monkeypatch):
        def no_encode(*args, **kwargs):
            raise AssertionError("encoder ran")
        monkeypatch.setattr(codec, "progressive_from_normalized", no_encode)
        # 2050 pads to 2064, and 2064^2 > 2^22; a broadcast view allocates nothing
        x = np.broadcast_to(np.float32(0.5), (3, 2050, 2050))
        with pytest.raises(codec.CodecError, match="cap of 4194304"):
            codec.compress(x, 1, params)
        assert ceil16(2048) ** 2 == codec.MAX_PADDED_PIXELS

    def test_compress_peak_does_not_grow_with_iterations(self, traced):
        p = codec.CodecParams(codec.CodecLayout(), seed=3)
        x = image(0, 64, 64)
        codec.compress(x, 1, p)  # first-call allocations stay out of the peaks

        def peak(t):
            with traced() as mem:
                codec.compress(x, t, p)
            return mem.peak
        assert peak(8) <= 1.02 * peak(2)

    @staticmethod
    def peaks_per_pixel(traced, side, iters) -> tuple:
        """Tracemalloc peaks of compress and decompress, bytes per pixel."""
        p = codec.CodecParams(codec.CodecLayout(), seed=3)
        x = image(0, side, side)
        bs = codec.compress(x, iters, p)
        codec.decompress(bs, p)  # first-call allocations stay out of the peaks

        def peak(fn, *args):
            with traced() as t:
                fn(*args)
            return t.peak / (side * side)
        return peak(codec.compress, x, iters, p), peak(codec.decompress, bs, p)

    @pytest.mark.parametrize("iters,enc_bound,dec_bound", [(1, 208, 141), (2, 263, 201)],
                             ids=["T1", "T2"])
    def test_peak_bytes_per_pixel_256px(self, traced, iters, enc_bound, dec_bound):
        # compress and decompress read 199 and 135 B/px at T = 1 and 251
        # and 192 at T = 2; the bounds leave under 5 % headroom, so a cell
        # that builds its whole gate array (T = 1: ~273 and ~235) or
        # products that pad their whole input (T = 1: ~205 and ~167; T = 2:
        # ~265 and ~192) fail them
        enc, dec = self.peaks_per_pixel(traced, 256, iters)
        assert enc <= enc_bound and dec <= dec_bound

    def test_peak_bytes_per_pixel_512px(self, traced):
        # T = 2 reads 218 and 172 B/px; whole padded inputs read ~232 and ~172
        enc, dec = self.peaks_per_pixel(traced, 512, 2)
        assert enc <= 228 and dec <= 180

    def test_decoder_state_alone(self, params):
        # decompress builds the decoder half alone: its four states and no x_hat
        decode = codec._Decoder(params, 32, 64)
        assert decode.xhat is None
        assert [h.shape for h in decode.h] == [(8, 2, 4), (8, 4, 8), (8, 8, 16), (4, 16, 32)]
        assert [h.shape for h in codec._Encoder(params, 32, 64).h] == [(6, 8, 16), (8, 4, 8),
                                                                        (8, 2, 4)]

    def test_missing_meta_key_names_it(self, params, tmp_path):
        path = tmp_path / "codec.ckpt"
        params.save(path)
        _, meta, tensors = ckpt.load(path)
        del meta["t_max"]
        ckpt.save(path, "codec", meta, tensors)
        with pytest.raises(ckpt.CheckpointError, match="meta key 't_max'"):
            codec.CodecParams.load(path)

    def test_save_load_round_trip(self, params, tmp_path):
        path = tmp_path / "codec.ckpt"
        params.save(path)
        again = codec.CodecParams.load(path)
        x = image(4)
        np.testing.assert_array_equal(codec.compress(x, 2, params).to_bytes(),
                                      codec.compress(x, 2, again).to_bytes())


class TestFullCodecGradient:
    def test_finite_differences_t2_16px(self, monkeypatch):
        # the straight-through contract differentiates the codec as if the
        # quantizer were the identity, so finite differences run without it
        monkeypatch.setattr(codec, "binarize", lambda z, rng=None: z)
        lay = codec.CodecLayout(enc_widths=(2, 2, 4, 4), dec_widths=(4, 4, 4, 4),
                                bottleneck=2, t_max=4)
        p = codec.CodecParams(lay, seed=6)
        x01 = image(21, 16, 16)
        xn = ad.Tensor(((x01 - 0.5) / 0.5).astype(np.float32))
        target = ad.Tensor(xn.data.copy())

        def build():
            loss = None
            for rec, _ in codec.progressive_from_normalized(xn, 2, p):
                term = ad.mean(ad.square(ad.sub(rec, target)))
                loss = term if loss is None else ad.add(loss, term)
            return ad.scale(loss, 0.5)

        from odlc import gradcheck
        wrt = [q.tensor for q in p.parameters()]
        err = gradcheck.check_gradients(build, wrt, dtype=np.float32)
        assert err < 1e-3
