import numpy as np
import pytest
from hypothesis import given, strategies as st

from odlc import autodiff as ad
from odlc import gradcheck, lossnet, trainer
from oracles import conv2d_direct, conv_gru_cell_composed, mul


def t(data, **kw):
    return ad.Tensor(np.asarray(data, dtype=np.float32), **kw)


def closure_arrays(vjps) -> dict:
    """id -> array of every buffer the VJP closures reach, each view
    resolved to the array that owns its memory."""
    held, seen, todo = {}, set(), list(vjps)
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while obj.base is not None:
                obj = obj.base
            held[id(obj)] = obj
        elif isinstance(obj, (tuple, list)):
            todo.extend(obj)
        elif callable(obj) and getattr(obj, "__closure__", None):
            todo.extend(cell.cell_contents for cell in obj.__closure__)
    return held


class TestConv2d:
    def test_1x1_identity_kernel(self):
        x = t(np.random.default_rng(0).random((4, 5, 6)))
        eye = t(np.eye(4, dtype=np.float32).reshape(4, 4, 1, 1))
        out = ad.conv2d(x, eye, t(np.zeros(4)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_constant_field_all_ones_kernel(self):
        c = 0.37
        x = t(np.full((1, 5, 5), c))
        k = t(np.ones((1, 1, 3, 3)))
        out = ad.conv2d(x, k, t(np.zeros(1)))
        assert out.data[0, 2, 2] == pytest.approx(9 * c, rel=1e-6)

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.random((2, 4, 4))
        k = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        got = ad.conv2d(t(x), t(k), t(b)).data
        want = conv2d_direct(x, k, b, stride=1, padding="same")
        np.testing.assert_allclose(got, want, atol=1e-6)

    @pytest.mark.parametrize("stride,padding", [(1, "same"), (2, "same"), (1, "valid"), (2, "valid")])
    def test_oracle_grid(self, stride, padding):
        rng = np.random.default_rng(stride * 17 + len(padding))
        x = rng.random((3, 7, 6))
        k = rng.standard_normal((2, 3, 3, 3)) * 0.5
        b = rng.standard_normal(2)
        got = ad.conv2d(t(x), t(k), t(b), stride=stride, padding=padding).data
        want = conv2d_direct(x, k, b, stride=stride, padding=padding)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, atol=1e-5)

    # k in {1,3,5,11} x stride {1,2,3} x same/valid x odd, even, non-square
    GRID = [(k, s, pad, hw) for k in (1, 3, 5, 11) for s in (1, 2, 3)
            for pad in ("same", "valid") for hw in ((11, 11), (12, 12), (11, 16), (14, 13))]

    @staticmethod
    def _case(k, stride, hw):
        rng = np.random.default_rng(1000 * k + 10 * stride + hw[0] + 7 * hw[1])
        x = rng.standard_normal((2,) + hw)
        kern = rng.standard_normal((3, 2, k, k))
        return rng, x, kern

    @pytest.mark.parametrize("k,stride,padding,hw", GRID)
    def test_forward_matches_oracle(self, k, stride, padding, hw):
        rng, x, kern = self._case(k, stride, hw)
        b = rng.standard_normal(3)
        got = ad.conv2d(t(x), t(kern), t(b), stride=stride, padding=padding).data
        want = conv2d_direct(x, kern, b, stride=stride, padding=padding)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-4)

    @pytest.mark.parametrize("k,stride,padding,hw", GRID)
    def test_vjps_satisfy_adjoint_identity(self, k, stride, padding, hw):
        # conv is bilinear: <conv(x,K), g> = <x, vjp_x(g)> = <K, vjp_k(g)>
        rng, x, kern = self._case(k, stride, hw)
        xt = ad.Tensor(x, requires_grad=True)
        kt = ad.Tensor(kern, requires_grad=True)
        with ad.Tape() as tape:
            out = ad.conv2d(xt, kt, stride=stride, padding=padding)
        g = rng.standard_normal(out.shape)
        (_, _, (vjp_x, vjp_k)), = tape.records
        dx, dk = vjp_x(g), vjp_k(g)
        assert dx.shape == x.shape and dk.shape == kern.shape
        lhs = float(np.sum(out.data * g))
        assert float(np.sum(x * dx)) == pytest.approx(lhs, rel=1e-12, abs=1e-12)
        assert float(np.sum(kern * dk)) == pytest.approx(lhs, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("stride,padding", [(1, "same"), (1, "valid"), (2, "same"), (3, "same")])
    def test_tape_keeps_no_column_matrix(self, stride, padding):
        # the VJP closures may hold x.data and the kernel, never the k*k
        # times larger column matrix or the padded input
        rng = np.random.default_rng(stride)
        x = ad.Tensor(rng.random((4, 16, 16), dtype=np.float32), requires_grad=True)
        kern = ad.Tensor(rng.random((5, 4, 3, 3), dtype=np.float32), requires_grad=True)
        bias = ad.Tensor(np.zeros(5, dtype=np.float32), requires_grad=True)
        with ad.Tape() as tape:
            ad.conv2d(x, kern, bias, stride=stride, padding=padding)
        (_, _, vjps), = tape.records
        held = closure_arrays(vjps)
        assert sum(a.nbytes for a in held.values()) <= x.data.nbytes + kern.data.nbytes

    def test_same_padding_output_size(self):
        x = t(np.zeros((1, 7, 5)))
        k = t(np.zeros((1, 1, 3, 3)))
        out = ad.conv2d(x, k, stride=2)
        assert out.shape == (1, 4, 3)  # ceil(7/2), ceil(5/2)

    def test_channel_mismatch_names_dimension(self):
        x = t(np.zeros((4, 5, 5)))
        k = t(np.zeros((2, 3, 3, 3)))
        with pytest.raises(ad.ShapeError, match="3 input channels.*4"):
            ad.conv2d(x, k)

    def test_even_kernel_rejected(self):
        with pytest.raises(ad.ShapeError, match="odd"):
            ad.conv2d(t(np.zeros((1, 5, 5))), t(np.zeros((1, 1, 2, 2))))


def gru_params(seed, c_in, c_h, stride=1, dtype=np.float32):
    params = ad.make_parameters(ad.GruParams.shapes("g", c_in, c_h, 3), seed, dtype=dtype,
                                stacks=ad.GruParams.stacks("g"))
    return ad.GruParams.of(params, "g", stride), list(params.values())


class TestConvGru:
    def _zero_params(self, c_in=2, c_h=3, stride=1):
        p, params = gru_params(0, c_in, c_h, stride=stride)
        for q in params:
            q.value[...] = np.zeros_like(q.value)
        return p

    def test_all_zero_params_zero_hidden(self):
        p = self._zero_params()
        x = t(np.random.default_rng(1).random((2, 6, 6)))
        h = t(np.zeros((3, 6, 6)))
        out = ad.conv_gru_cell(x, h, p)
        np.testing.assert_array_equal(out.data, np.zeros((3, 6, 6)))

    def test_saturated_update_gate_keeps_hidden(self):
        rng = np.random.default_rng(2)
        p, _ = gru_params(rng, 2, 3)
        p.bu.value[...] = np.full(3, -1000.0, dtype=np.float32)  # force u ~ 0
        x = t(rng.random((2, 6, 6)))
        h = t(rng.random((3, 6, 6)))
        out = ad.conv_gru_cell(x, h, p)
        np.testing.assert_allclose(out.data, h.data, atol=1e-3)

    def test_spatial_misalignment_rejected(self):
        p = self._zero_params(stride=2)
        x = t(np.zeros((2, 8, 8)))
        h = t(np.zeros((3, 8, 8)))  # stride 2 expects 4x4 hidden
        with pytest.raises(ad.ShapeError, match="misaligned"):
            ad.conv_gru_cell(x, h, p)

    def test_gradients_match_finite_differences(self):
        case = gradcheck.GruCase(np.random.default_rng(5), np.float32,
                                 c_in=2, c_h=3, hw=(6, 6), stride=2)
        err = gradcheck.check_gradients(case.build, case.wrt, dtype=np.float32)
        assert err < 1e-3

    # (stride, hidden: "grad" needs grad, "const" does not, "zero" is the
    # state at t = 1, input needs grad)
    ORACLE_CASES = [(1, "grad", True), (2, "grad", True), (1, "zero", True), (2, "zero", True),
                    (1, "const", True), (2, "grad", False)]

    @pytest.mark.parametrize("stride,hidden,x_grad", ORACLE_CASES)
    def test_fused_matches_composed_oracle(self, stride, hidden, x_grad):
        rng = np.random.default_rng(100 * stride + 10 * len(hidden) + x_grad)
        params = ad.make_parameters(ad.GruParams.shapes("g", 3, 4, 3), rng, np.float64,
                                    stacks=ad.GruParams.stacks("g"))
        p = ad.GruParams.of(params, "g", stride)
        hshape = (4, -(-9 // stride), -(-7 // stride))
        x = ad.Tensor(rng.standard_normal((3, 9, 7)), requires_grad=x_grad)
        h = ad.Tensor(np.zeros(hshape) if hidden == "zero" else rng.standard_normal(hshape),
                      requires_grad=hidden == "grad")
        weights = ad.Tensor(rng.standard_normal(hshape))
        leaves = [x, h] + [q.tensor for q in params.values()]

        def run(cell):
            for leaf in leaves:
                leaf.grad = None
            with ad.Tape() as tape:
                out = cell(x, h, p)
                records = len(tape)
                loss = ad.mean(mul(out, weights))
            ad.backward(loss, tape)
            return out.data, [leaf.grad for leaf in leaves], records

        got, got_grads, records = run(ad.conv_gru_cell)
        want, want_grads, _ = run(conv_gru_cell_composed)
        assert records == 1
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert len(want_grads) == 11
        # a zero state leaves the h-side kernels off the record: their
        # gradient there is exactly zero
        off_record = [p.whu.tensor, p.whr.tensor, p.whc.tensor] if hidden == "zero" else []
        for leaf, a, b in zip(leaves, got_grads, want_grads):
            if not leaf.requires_grad:
                assert a is None and b is None
                continue
            if any(leaf is q for q in off_record):
                assert a is None and not b.any()
                continue
            assert a.shape == b.shape
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    @pytest.mark.parametrize("stride,zero", [(1, False), (2, False), (2, True)])
    def test_record_holds_inputs_gates_and_reset_hidden_only(self, stride, zero):
        # besides x, h and the parameter buffers themselves, the record keeps
        # [u; r; c] and r*h (which is zero, and not kept, for a zero state):
        # no columns, no kernel copies, no temporaries
        p, params = gru_params(4, 2, 3, stride=stride)
        rng = np.random.default_rng(4)
        x = t(rng.random((2, 12, 10)), requires_grad=True)
        hshape = (3, 12 // stride, 10 // stride)
        h = t(np.zeros(hshape) if zero else rng.random(hshape))
        with ad.Tape() as tape:
            ad.conv_gru_cell(x, h, p)
        (_, _, vjps), = tape.records
        owned = {id(a) for a in (x.data, h.data, p.wx, p.wh, p.whc.value)}
        other = [a.nbytes for i, a in closure_arrays(vjps).items() if i not in owned]
        assert sorted(other) == ([] if zero else [h.data.nbytes]) + [3 * h.data.nbytes]

    def test_gate_writes_land_in_the_stacked_buffers(self):
        p, params = gru_params(3, 2, 3)
        p.wxr.value[...] = np.full((3, 2, 3, 3), 0.25)
        p.whr.value[...] = np.full((3, 3, 3, 3), -0.5)
        p.bc.value[...] = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(p.wx[3:6], 0.25)
        np.testing.assert_array_equal(p.wh[3:6], -0.5)
        np.testing.assert_array_equal(p.b[6:], [1.0, 2.0, 3.0])
        before = p.wx.copy()
        for q in params:
            q.grad = np.ones_like(q.value)
        trainer.Adam(params, lr=0.01).step()
        np.testing.assert_allclose(p.wx, before - 0.01, rtol=1e-5)
        for stack, names in ((p.wx, ("wxu", "wxr", "wxc")), (p.b, ("bu", "br", "bc")),
                             (p.wh, ("whu", "whr"))):
            want = np.concatenate([getattr(p, n).value for n in names])
            np.testing.assert_array_equal(stack, want)

    def test_unstacked_gate_parameters_rejected(self):
        params = ad.make_parameters(ad.GruParams.shapes("g", 2, 3, 3), 0)
        with pytest.raises(ad.ShapeError, match="stacked buffer"):
            ad.GruParams.of(params, "g")


class TestBandedProduct:
    """Forward conv products build their columns in row bands of at most
    BAND_BYTES, each starting on a 16-column boundary, and write each band
    into their output; in float32 that is the whole product, bit for bit."""

    @staticmethod
    def bands(monkeypatch) -> list:
        """The (r0, r1, wq) of every phase split, and so of every column
        build, from here on."""
        seen, split = [], ad._phase_split

        def spy(xd, k, s, wq, links, r0, r1):
            seen.append((r0, r1, wq))
            return split(xd, k, s, wq, links, r0, r1)
        monkeypatch.setattr(ad, "_phase_split", spy)
        return seen

    @staticmethod
    def assert_banded(bands, ho):
        """More than one band, tiling rows 0..ho, each on a 16-column boundary."""
        assert len(bands) > 1
        assert [r0 for r0, _, _ in bands] == [0] + [r1 for _, r1, _ in bands[:-1]]
        assert bands[-1][1] == ho
        assert all(r0 * wq % 16 == 0 for r0, _, wq in bands)

    @staticmethod
    def whole_product(kern, xd, stride, c_out):
        """kern @ the whole column matrix, cropped to (C_out, ho, wo)."""
        ho, wo, wq, links = ad._conv_geometry(*xd.shape[1:], 3, stride, "same")
        wide = kern @ ad._conv_columns(xd, 3, stride, ho, wq, links)
        return wide.reshape(c_out, ho, wq)[:, :, :wo], ho, wq, links

    def conv2d_matches_whole(self, monkeypatch, c_in, c_out, h, w, stride, seed):
        rng = np.random.default_rng(seed)
        x = t(rng.standard_normal((c_in, h, w)).astype(np.float32))
        kern = t(rng.standard_normal((c_out, c_in, 3, 3)).astype(np.float32))
        bias = t(rng.standard_normal(c_out).astype(np.float32))
        crop, ho, _, _ = self.whole_product(kern.data.reshape(c_out, -1), x.data, stride, c_out)
        want = crop + bias.data[:, None, None]
        bands = self.bands(monkeypatch)
        got = ad.conv2d(x, kern, bias, stride=stride).data
        assert got.shape == want.shape and got.base is None
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))
        self.assert_banded(bands, ho)

    def product_matches_whole(self, monkeypatch, c_in, c_out, h, w, stride, mode):
        rng = np.random.default_rng(c_in + c_out + h)
        xd = rng.standard_normal((c_in, h, w)).astype(np.float32)
        kern = rng.standard_normal((c_out, c_in * 9)).astype(np.float32)
        crop, ho, wq, links = self.whole_product(kern, xd, stride, c_out)
        out = rng.standard_normal(crop.shape).astype(np.float32)
        bias = rng.standard_normal(c_out).astype(np.float32) if mode == "bias" else None
        if mode == "accumulate":
            want = out + crop
        else:
            want = crop if bias is None else crop + bias[:, None, None]
        bands = self.bands(monkeypatch)
        got = ad._banded_product(kern, xd, 3, stride, ho, wq, links, out, bias,
                                 accumulate=mode == "accumulate")
        assert got is out
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))
        self.assert_banded(bands, ho)
        return bands

    # the codec's plain convs at full size: dec.conv_out (8 -> 3) and
    # enc.conv_in (3 -> 32, stride 2); conv_in's whole matrix fits one
    # default band below 512 px, so there it runs in 1 MiB bands
    @pytest.mark.parametrize("h,w", [(256, 256), (512, 512), (144, 400)])
    @pytest.mark.parametrize("c_in,c_out,stride", [(8, 3, 1), (3, 32, 2)],
                             ids=["conv_out", "conv_in"])
    def test_codec_convs(self, monkeypatch, c_in, c_out, stride, h, w):
        if c_in == 3 and h < 512:
            monkeypatch.setattr(ad, "BAND_BYTES", 1 << 20)
        self.conv2d_matches_whole(monkeypatch, c_in, c_out, h, w, stride, h + w + c_in)

    # the classifier's blocks at a 224 px input; block 5, at 14 px, fits one band
    @pytest.mark.parametrize("block", range(4))
    def test_classifier_convs_at_224px(self, monkeypatch, block):
        chans = (3,) + lossnet.ClassifierLayout().widths
        side = 224 >> block
        self.conv2d_matches_whole(monkeypatch, chans[block], chans[block + 1], side, side, 1,
                                  block)

    # wq = 39, 42, 44, 48: bands of a multiple of 16, 8, 4 and 1 rows
    @pytest.mark.parametrize("w", [37, 40, 42, 46])
    def test_every_band_starts_on_16_columns(self, monkeypatch, w):
        monkeypatch.setattr(ad, "BAND_BYTES", 1 << 16)
        self.conv2d_matches_whole(monkeypatch, 8, 16, 96, w, 1, w)

    # dec.gru4 of the default layout at 256 px, all at 128x128: the x-path
    # (16 -> 3*32) writes with its bias, the h-path (32 -> 2*32) and the
    # candidate (32 -> 32) add into what is there
    @pytest.mark.parametrize("c_in,c_out,mode", [(16, 96, "bias"), (32, 64, "accumulate"),
                                                 (32, 32, "accumulate")])
    def test_dec_gru4_at_256px(self, monkeypatch, c_in, c_out, mode):
        self.product_matches_whole(monkeypatch, c_in, c_out, 128, 128, 1, mode)

    @pytest.mark.parametrize("mode", ["plain", "bias", "accumulate"])
    @pytest.mark.parametrize("h,stride", [(100, 1), (203, 2)])
    def test_short_last_band(self, monkeypatch, h, stride, mode):
        bands = self.product_matches_whole(monkeypatch, 32, 64, h, 72, stride, mode)
        assert bands[-1][1] - bands[-1][0] < bands[0][1] - bands[0][0]

    def test_taped_cell_matches_whole_columns(self, monkeypatch):
        # at 64x64 both paths of a 16 -> 32 cell need 2 or more bands
        p, params = gru_params(7, 16, 32)
        rng = np.random.default_rng(7)
        x = t(rng.standard_normal((16, 64, 64)).astype(np.float32), requires_grad=True)
        h = t(rng.standard_normal((32, 64, 64)).astype(np.float32), requires_grad=True)
        weights = t(rng.standard_normal((32, 64, 64)).astype(np.float32))
        leaves = [x, h] + [q.tensor for q in params]
        assert ad.BAND_BYTES // (32 * 9 * 66 * 4) < 64

        def run():
            for leaf in leaves:
                leaf.grad = None
            with ad.Tape() as tape:
                out = ad.conv_gru_cell(x, h, p)
                loss = ad.mean(mul(out, weights))
            ad.backward(loss, tape)
            return [out.data] + [leaf.grad for leaf in leaves]

        banded = run()
        monkeypatch.setattr(ad, "BAND_BYTES", 1 << 40)  # one band: the whole matrix
        whole = run()
        for a, b in zip(banded, whole):
            np.testing.assert_array_equal(a.view(np.uint32), b.view(np.uint32))


class TestBandedCell:
    """A cell that will not be recorded runs whole in row bands: each band's
    gates, r h and, one band behind, its candidate and h'. Its output is the
    recorded cell's, bit for bit in float32."""

    # dec.gru4 and enc.gru1 of the default layout at 256 px, and both
    # strides on a non-square input
    CASES = {"dec.gru4": (16, 32, 128, 128, 1), "enc.gru1": (32, 64, 128, 128, 2),
             "144x400-s1": (16, 32, 144, 400, 1), "144x400-s2": (32, 64, 144, 400, 2)}

    @staticmethod
    def cell(case, dtype, zero_state):
        c_in, c_h, h, w, stride = case
        p, _ = gru_params(c_in + h + w, c_in, c_h, stride, dtype)
        rng = np.random.default_rng(c_h + h + w)
        x = ad.Tensor(rng.standard_normal((c_in, h, w)).astype(dtype))
        state = np.zeros((c_h, -(-h // stride), -(-w // stride)), dtype)
        if not zero_state:
            state[...] = rng.standard_normal(state.shape)
        return x, ad.Tensor(state), p

    @staticmethod
    def recorded(x, h, p):
        """The cell's forward as a tape records it: its gates whole."""
        x.requires_grad = True
        try:
            with ad.Tape() as tape:
                out = ad.conv_gru_cell(x, h, p)
            assert len(tape) == 1
        finally:
            x.requires_grad = False
        return out.data

    @pytest.mark.parametrize("zero_state", [True, False], ids=["zero", "state"])
    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_float32_bit_for_bit(self, monkeypatch, case, zero_state):
        x, h, p = self.cell(case, np.float32, zero_state)
        want = self.recorded(x, h, p)
        bands = TestBandedProduct.bands(monkeypatch)
        reused_garbage(h.shape, np.float32)  # an r h row read early is NaN, not the last run's
        got = ad.conv_gru_cell(x, h, p).data
        assert got.flags.c_contiguous
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))
        # no band spans all output rows, so every product runs in several
        # and none copies its whole input
        assert bands and all(r1 - r0 < h.shape[1] for r0, r1, _ in bands)
        assert all(r0 * wq % 16 == 0 for r0, _, wq in bands)

    @pytest.mark.parametrize("zero_state", [True, False], ids=["zero", "state"])
    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_float64_within_an_ulp(self, case, zero_state):
        # the float64 GEMM's column-tail kernel may sum a band's last
        # columns in another order where the two runs' bands differ
        x, h, p = self.cell(case, np.float64, zero_state)
        want = self.recorded(x, h, p)
        reused_garbage(h.shape, np.float64)
        np.testing.assert_array_max_ulp(ad.conv_gru_cell(x, h, p).data, want, maxulp=1)

    def test_halo_wider_than_a_band(self, monkeypatch):
        # k = 5 reads r h 2 rows below a band; 24 + 4 = 32-column grids
        # align to 1 row, and tiny bands hold 1 row each
        monkeypatch.setattr(ad, "BAND_BYTES", 1)
        params = ad.make_parameters(ad.GruParams.shapes("g", 3, 4, 5), 5,
                                    stacks=ad.GruParams.stacks("g"))
        p = ad.GruParams.of(params, "g")
        rng = np.random.default_rng(5)
        x = t(rng.standard_normal((3, 9, 28)))
        h = t(rng.standard_normal((4, 9, 28)))
        want = self.recorded(x, h, p)
        bands = TestBandedProduct.bands(monkeypatch)
        reused_garbage(h.shape, np.float32)
        got = ad.conv_gru_cell(x, h, p).data
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))
        assert {r1 - r0 for r0, r1, _ in bands} == {1}

    def test_dec_gru4_peak_at_256px(self, traced):
        # the output and r h are the only whole arrays: 3.26x the output,
        # where whole gates (3x alone) and a padded r h read 6.0x
        x, h, p = self.cell(self.CASES["dec.gru4"], np.float32, False)
        ad.conv_gru_cell(x, h, p)  # first-call allocations stay out of the peak
        with traced() as mem:
            out = ad.conv_gru_cell(x, h, p)
        assert mem.peak <= 3.5 * out.data.nbytes


def pool_input(shape, dtype, seed=0):
    """Values over many binades, so that sums taken in another order round
    differently."""
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) * np.exp(rng.uniform(-6.0, 6.0, shape))).astype(dtype)


def reused_garbage(shape, dtype):
    """Free a NaN-filled array of ``shape``, so that the next allocation of
    that size is likely to get its memory back, not fresh zero pages."""
    junk = np.full(shape, np.nan, dtype=dtype)
    del junk


class TestPool2:
    SHAPES = [(6, 8), (7, 5), (3, 9, 10), (2, 3, 4, 5), (1, 2, 2)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_pair_sums_bit_for_bit(self, shape, dtype):
        a = pool_input(shape, dtype)
        ho, wo = shape[-2] // 2, shape[-1] // 2
        v = a[..., : 2 * ho, : 2 * wo]
        want = (v[..., 0::2, 0::2] + v[..., 0::2, 1::2]) + (v[..., 1::2, 0::2] + v[..., 1::2, 1::2])
        want /= 4
        got = ad._pool2(a)
        assert got.dtype == dtype and got.shape == shape[:-2] + (ho, wo)
        np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_unpool2_is_its_adjoint(self, shape, dtype, tol):
        a = pool_input(shape, dtype)
        g = pool_input(shape[:-2] + (shape[-2] // 2, shape[-1] // 2), dtype, seed=1)
        pooled_g = np.vdot(ad._pool2(a).astype(np.float64), g)
        a_unpooled = np.vdot(a.astype(np.float64), ad._unpool2(g, shape))
        assert pooled_g == pytest.approx(a_unpooled, rel=tol)


class TestAvgPool2:
    # the lossnet's relu outputs at 56 px and 64 px, then odd sides
    SHAPES = [(16, 56, 56), (32, 28, 28), (64, 14, 14), (96, 7, 7),
              (16, 64, 64), (32, 32, 32), (64, 16, 16), (96, 8, 8), (3, 7, 5), (3, 5, 7)]

    # numpy's mean(axis=(2, 4)) of the 5-d view sums each block as
    # (a00 + a01) + (a10 + a11) on a C-contiguous input whose pooled map is
    # at least 2x2; on a 1x1 map it sums in sequence
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_forward_bit_equal_to_numpy_mean(self, shape, dtype):
        data = pool_input(shape, dtype)
        c, h, w = shape
        ho, wo = h // 2, w // 2
        want = data[:, : 2 * ho, : 2 * wo].reshape(c, ho, 2, wo, 2).mean(axis=(2, 4))
        got = ad.avg_pool2(ad.Tensor(data)).data
        assert got.dtype == dtype and got.flags.c_contiguous
        np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(3, 7, 5), (3, 5, 7), (2, 6, 9), (4, 8, 8)])
    def test_vjp_bit_equal_to_repeat_form(self, shape, dtype):
        c, h, w = shape
        ho, wo = h // 2, w // 2
        x = ad.Tensor(pool_input(shape, dtype), requires_grad=True)
        with ad.Tape() as tape:
            ad.avg_pool2(x)
        (_, _, (vjp,)), = tape.records
        g = pool_input((c, ho, wo), dtype, seed=1)
        want = np.zeros(shape, dtype=dtype)
        want[:, : 2 * ho, : 2 * wo] = (np.repeat(np.repeat(g, 2, axis=1), 2, axis=2)
                                       * np.asarray(0.25, dtype=dtype))
        reused_garbage(shape, dtype)
        got = vjp(g)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))

    @pytest.mark.parametrize("shape", [(3, 1, 5), (3, 5, 1), (2, 1, 1)])
    def test_below_2x2_rejected(self, shape):
        with pytest.raises(ad.ShapeError, match="too small"):
            ad.avg_pool2(t(np.zeros(shape)))


class TestDepthToSpace:
    def test_r1_identity(self):
        x = t(np.random.default_rng(0).random((3, 4, 5)))
        out = ad.depth_to_space(x, 1)
        np.testing.assert_array_equal(out.data, x.data)

    def test_4x1x1_becomes_1x2x2(self):
        x = t(np.arange(4, dtype=np.float32).reshape(4, 1, 1))
        out = ad.depth_to_space(x, 2)
        assert out.shape == (1, 2, 2)
        assert sorted(out.data.reshape(-1).tolist()) == [0.0, 1.0, 2.0, 3.0]

    def test_round_trip_bit_identical(self):
        x = t(np.random.default_rng(3).random((8, 3, 5)).astype(np.float32))
        back = ad._s2d_data(ad.depth_to_space(x, 2).data, 2)
        np.testing.assert_array_equal(back, x.data)

    @given(co=st.integers(1, 3), r=st.integers(1, 3), h=st.integers(1, 4), w=st.integers(1, 4),
           seed=st.integers(0, 100))
    def test_inverse_pair_property(self, co, r, h, w, seed):
        data = np.random.default_rng(seed).random((co * r * r, h, w)).astype(np.float32)
        x = t(data)
        rt = ad._s2d_data(ad.depth_to_space(x, r).data, r)
        np.testing.assert_array_equal(rt, data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_bit_equal_to_transpose_forms(self, r, dtype):
        co, h, w = 3, 4, 7
        data = pool_input((co * r * r, h, w), dtype)
        want = data.reshape(co, r, r, h, w).transpose(0, 3, 1, 4, 2).reshape(co, h * r, w * r)
        got = ad.depth_to_space(ad.Tensor(data), r).data
        assert got.dtype == dtype and got.flags.c_contiguous
        np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))
        fine = pool_input((co, h * r, w * r), dtype, seed=1)
        want = fine.reshape(co, h, r, w, r).transpose(0, 2, 4, 1, 3).reshape(co * r * r, h, w)
        got = ad._s2d_data(fine, r)
        assert got.dtype == dtype and got.flags.c_contiguous
        np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))

    def test_non_divisible_channels_rejected(self):
        with pytest.raises(ad.ShapeError, match="not divisible"):
            ad.depth_to_space(t(np.zeros((6, 2, 2))), 2)


class TestSigmoid:
    @staticmethod
    def _where_formula(xd):
        t = np.exp(-np.abs(xd))
        t /= 1.0 + t
        return np.where(xd >= 0, 1.0 - t, t)

    @pytest.mark.parametrize("dtype,uint", [(np.float32, np.uint32), (np.float64, np.uint64)])
    def test_blend_matches_where_bit_for_bit(self, dtype, uint):
        rng = np.random.default_rng(41)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-30, -1e-30,
                            88.0, -88.0, 800.0, -800.0], dtype=dtype)
        for xd in (special, (rng.standard_normal((64, 16, 16)) * 6).astype(dtype)):
            got = ad._sigmoid_into(xd, np.empty_like(xd))
            want = self._where_formula(xd)
            assert got.dtype == want.dtype == dtype
            np.testing.assert_array_equal(got.view(uint), want.view(uint))

    @pytest.mark.parametrize("in_place", [False, True])
    @pytest.mark.parametrize("dtype,uint", [(np.float32, np.uint32), (np.float64, np.uint64)])
    def test_chunks_match_where_bit_for_bit(self, dtype, uint, in_place):
        # three whole chunks and a ragged fourth, with the special values
        # on either side of each chunk boundary
        chunk = ad.SIGMOID_CHUNK
        rng = np.random.default_rng(43)
        flat = (rng.standard_normal(3 * chunk + 123) * 6).astype(dtype)
        for i in range(1, 4):
            flat[i * chunk - 3 : i * chunk + 3] = [0.0, -0.0, np.inf, -np.inf, np.nan, 88.0]
        xd = flat.reshape(3, -1)
        want = self._where_formula(xd)
        out = xd.copy() if in_place else np.empty_like(xd)
        got = ad._sigmoid_into(out if in_place else xd, out)
        assert got is out and got.shape == xd.shape
        np.testing.assert_array_equal(got.view(uint), want.view(uint))


class TestElementwise:
    def test_fixed_points(self):
        assert ad.tanh(t([0.0])).item() == 0.0
        assert ad._sigmoid_into(np.zeros(1), np.empty(1)).item() == 0.5

    def test_mean_of_constant(self):
        assert ad.mean(t(np.full((3, 4), 2.5))).item() == pytest.approx(2.5, abs=1e-7)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ad.ShapeError, match="shapes differ"):
            ad.add(t(np.zeros((2, 3))), t(np.zeros((3, 2))))

    def test_composite_gradient_matches_fd(self):
        rng = np.random.default_rng(11)
        u = t(rng.uniform(-1, 1, (3, 4)))
        v = t(rng.uniform(-1, 1, (3, 4)))

        def build():
            return ad.mean(ad.square(ad.add(ad.tanh(mul(u, v)), ad.scale(u, 0.3))))

        assert gradcheck.check_gradients(build, [u, v], dtype=np.float32) < 1e-3


class TestBackward:
    def test_sum_gives_all_ones(self):
        p = ad.Parameter("p", np.random.default_rng(0).random((3, 4)))
        with ad.Tape() as tape:
            loss = ad.scale(ad.mean(p.tensor), p.tensor.size)  # sum
        ad.backward(loss, tape)
        np.testing.assert_array_equal(p.grad, np.ones((3, 4), dtype=np.float32))

    def test_mse_closed_form(self):
        rng = np.random.default_rng(1)
        p = ad.Parameter("p", rng.random((4, 5)))
        target = ad.Tensor(rng.random((4, 5)).astype(np.float32))
        with ad.Tape() as tape:
            loss = ad.mean(ad.square(ad.sub(p.tensor, target)))
        ad.backward(loss, tape)
        want = 2.0 * (p.value - target.data) / p.value.size
        np.testing.assert_allclose(p.grad, want, rtol=1e-6, atol=1e-8)

    def test_non_scalar_loss_rejected(self):
        p = ad.Parameter("p", np.ones((2, 2)))
        with ad.Tape() as tape:
            y = ad.square(p.tensor)
        with pytest.raises(ad.ShapeError, match="scalar"):
            ad.backward(y, tape)

    def test_unreached_parameters_keep_zero_grad(self):
        used = ad.Parameter("used", np.ones(3))
        idle = ad.Parameter("idle", np.ones(3))
        with ad.Tape() as tape:
            loss = ad.mean(used.tensor)
        ad.backward(loss, tape)
        np.testing.assert_array_equal(idle.grad, np.zeros(3, dtype=np.float32))

    def test_fanout_accumulates_once(self):
        # z = x*x + x*x: dz/dx = 4x; a double-visited record would give 8x
        x = t([3.0], requires_grad=True)
        with ad.Tape() as tape:
            y = mul(x, x)
            z = ad.add(y, y)
        assert len(tape) == 2
        ad.backward(z, tape)
        np.testing.assert_allclose(x.grad, [12.0])

    def test_op_output_grads_dropped_leaf_and_parameter_grads_kept(self):
        x = t([1.0, -2.0], requires_grad=True)
        p = ad.Parameter("p", [3.0, 0.5])
        with ad.Tape() as tape:
            y = mul(x, p.tensor)
            loss = ad.mean(ad.square(y))
        ad.backward(loss, tape)
        assert y.grad is None and loss.grad is None
        np.testing.assert_allclose(x.grad, [9.0, -0.5])  # mean((xp)^2): x p^2 and p x^2
        np.testing.assert_allclose(p.grad, [3.0, 2.0])
        assert tape.records == [None, None, None]  # consumed, length kept

    def test_second_backward_on_a_tape_raises(self):
        x = t([2.0], requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.square(x)
        ad.backward(loss, tape)
        with pytest.raises(ad.TapeError, match="already replayed"):
            ad.backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [4.0])

    def test_forward_deterministic(self):
        rng = np.random.default_rng(4)
        x = rng.random((3, 8, 8)).astype(np.float32)
        k = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)

        def run():
            return ad.conv2d(ad.Tensor(x.copy()), ad.Tensor(k.copy()), stride=2).data

        np.testing.assert_array_equal(run(), run())


class TestGradientSuite:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_op_three_instances(self, dtype):
        rows = [row for seed in (20, 21, 22) for row in gradcheck.run_op_suite(dtype, seed=seed)]
        bad = [(n, e) for n, e, _, ok in rows if not ok]
        assert not bad, f"gradient failures: {bad}"
