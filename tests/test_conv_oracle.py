"""Reference oracle for conv, its gradients and conv_transpose.

The reference conv is a float64 direct sum: one strided slice of the
padded input per kernel offset, contracted with that offset's weights.
Its weight gradient contracts the same slices with the output gradient.
The input gradient is the earlier construction: dilate the output
gradient by the stride, pad it by k - 1 - p, and correlate it with the
spatially flipped, channel-swapped kernel.  The shipped path runs a
stride-1 conv as GEMMs on shifted slabs of the padded input, for the
forward pass, both gradients and conv_transpose; its input gradient is
that same construction on the forward kernel.  A strided conv gathers
im2col columns and scatters W^T g back onto the input windows with
col2im.  im2col and col2im, which serve every stride, stay the oracles
of the stride-1 path.  All must agree on every conv shape the STT and
the UAR models use, in float64 and in float32.
"""

import numpy as np
import pytest

from tcrtomo import autodiff as ad
from tcrtomo.autodiff import Tensor
from tcrtomo.stt import SttConfig
from tcrtomo.uar import UarConfig

# ------------------------------------------------------- reference path


def _ref_windows(x, ksize, stride, pad):
    """(offset, strided slice of the float64 padded x) per kernel offset."""
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0)) + tuple(pad))
    out_sp = tuple((n - k) // s + 1
                   for n, k, s in zip(xp.shape[2:], ksize, stride))
    for offset in np.ndindex(*ksize):
        win = tuple(slice(i, i + (o - 1) * s + 1, s)
                    for i, o, s in zip(offset, out_sp, stride))
        yield offset, xp[(slice(None), slice(None)) + win]


def ref_conv(x, w, stride, pad):
    """Correlation of x (N, C, *sp) with w (Co, C, *k), summed in float64."""
    out = 0.0
    for offset, xs in _ref_windows(x, w.shape[2:], stride, pad):
        wo = w[(slice(None), slice(None)) + offset].astype(np.float64)
        out = out + np.moveaxis(np.tensordot(wo, xs, axes=([1], [1])), 0, 1)
    return out


def ref_conv_weight_grad(x, g, w_shape, stride, pad):
    """d<g, conv(x, w)>/dw: each offset's slice contracted with g."""
    dw = np.zeros(w_shape)
    axes = [0] + list(range(2, g.ndim))
    for offset, xs in _ref_windows(x, w_shape[2:], stride, pad):
        dw[(slice(None), slice(None)) + offset] = np.tensordot(
            g.astype(np.float64), xs, axes=(axes, axes))
    return dw


def _ref_dilate(g, stride):
    if all(s == 1 for s in stride):
        return g
    sp = g.shape[2:]
    new_sp = tuple((n - 1) * s + 1 for n, s in zip(sp, stride))
    out = np.zeros(g.shape[:2] + new_sp, dtype=g.dtype)
    sel = (slice(None), slice(None)) + tuple(slice(None, None, s) for s in stride)
    out[sel] = g
    return out


def ref_conv_input_grad(g, w, stride, pad, in_sp):
    """Gradient w.r.t. the conv input == transposed convolution of g."""
    ksize = w.shape[2:]
    gd = _ref_dilate(g, stride)
    tpad = []
    for n, k, s, p, dn in zip(in_sp, ksize, stride, pad, gd.shape[2:]):
        before = k - 1 - p[0]
        after = n + p[0] - dn
        if before < 0 or after < 0:
            raise ValueError(
                f"padding {p} exceeds kernel {k}; transpose undefined")
        tpad.append((before, after))
    nd = len(ksize)
    wf = np.flip(w, axis=tuple(range(2, 2 + nd)))
    wf = np.ascontiguousarray(np.swapaxes(wf, 0, 1))
    return ref_conv(gd, wf, (1,) * nd, tuple(tpad))


def ref_conv_transpose(a, w, stride, pad, output_size=None):
    if output_size is None:
        output_size = tuple(
            (n - 1) * s + k - p[0] - p[1]
            for n, s, k, p in zip(a.shape[2:], stride, w.shape[2:], pad))
    return ref_conv_input_grad(a, w, stride, pad, output_size)


# ---------------------------------------------------------- conv shapes

_CAUSAL = ((1, 2, 2), ((2, 0), (1, 1), (1, 1)))
_SAME2 = ((1, 1), ((1, 1), (1, 1)))
_SAME3 = ((1, 1, 1), ((1, 1), (1, 1), (1, 1)))


def _stt_shapes(batch=2, slots=3):
    """(input shape, weight shape, stride, padding) of each desk STT conv."""
    cfg = SttConfig(model_dim=64, heads=4, layers=2, image_size=32)
    c0, c1, c2 = cfg.enc_channels
    d, g, size, n = cfg.model_dim, cfg.grid, cfg.image_size, batch * slots
    plain = ((1, 1), ((0, 0), (0, 0)))
    return {
        "enc0": ((batch, 1, slots, size, size), (c0, 1, 3, 3, 3)) + _CAUSAL,
        "enc1": ((batch, c0, slots, size // 2, size // 2), (c1, c0, 3, 3, 3))
        + _CAUSAL,
        "enc2": ((batch, c1, slots, size // 4, size // 4), (c2, c1, 3, 3, 3))
        + _CAUSAL,
        "embed": ((batch, c2, slots, g, g), (d, c2, 1, 1, 1), (1, 1, 1),
                  ((0, 0), (0, 0), (0, 0))),
        "dec0": ((n, d, g, g), (c2, d, 3, 3)) + _SAME2,
        "skip1": ((n, d, g, g), (c1, d, 1, 1)) + plain,
        "dec1": ((n, c2 + c1, 2 * g, 2 * g), (c1, c2 + c1, 3, 3)) + _SAME2,
        "skip2": ((n, d, g, g), (c0, d, 1, 1)) + plain,
        "dec2": ((n, c1 + c0, 4 * g, 4 * g), (c0, c1 + c0, 3, 3)) + _SAME2,
        "head": ((n, c0 + 1, size, size), (1, c0 + 1, 1, 1)) + plain,
    }


def _paper_shapes():
    """The paper-scale decoder's first conv, C >> Co, on one slot."""
    cfg = SttConfig(model_dim=512, heads=8, layers=6, image_size=64)
    d, c2, g = cfg.model_dim, cfg.enc_channels[2], cfg.grid
    return {"paper-dec0": ((1, d, g, g), (c2, d, 3, 3)) + _SAME2}


def _uar_shapes(size=32, steps=4, offsets=47):
    """Same-padded 3x3 convs of the UAR generator and critic, 2-D and 3-D,
    and the dual nets' convs over the data box (angles, offsets) of a
    3-angle and a 20-angle scan.  The gamma nets take 4 (dual) or 3
    (primal) channels in and give 1 out; the critic's first conv takes
    the one-channel image."""
    cfg = UarConfig()
    gc, cc = cfg.gamma_channels, cfg.critic_channels
    return {
        "uar2d-critic-in": ((1, 1, size, size), (cc[0], 1, 3, 3)) + _SAME2,
        "uar2d-gamma-in": ((1, 4, size, size), (gc, 4, 3, 3)) + _SAME2,
        "uar2d-primal-in": ((1, 3, size, size), (gc, 3, 3, 3)) + _SAME2,
        "uar2d-gamma-mid": ((1, gc, size, size), (gc, gc, 3, 3)) + _SAME2,
        "uar2d-gamma-out": ((1, gc, size, size), (1, gc, 3, 3)) + _SAME2,
        "uar2d-critic": ((1, cc[1], size, size), (cc[2], cc[1], 3, 3)) + _SAME2,
        "uar2d-dual-in-a3": ((1, 4, 3, offsets), (gc, 4, 3, 3)) + _SAME2,
        "uar2d-dual-mid-a20": ((1, gc, 20, offsets), (gc, gc, 3, 3)) + _SAME2,
        "uar2d-dual-out-a20": ((1, gc, 20, offsets), (1, gc, 3, 3)) + _SAME2,
        "uar3d-gamma-out": ((1, gc, steps, size, size), (1, gc, 3, 3, 3))
        + _SAME3,
        "uar3d-critic": ((1, cc[0], steps, size, size), (cc[1], cc[0], 3, 3, 3))
        + _SAME3,
    }


SHAPES = {**_stt_shapes(), **_paper_shapes(), **_uar_shapes()}
TOLERANCE = {np.float64: 1e-12, np.float32: 1e-5}


def _rel_err(got, ref):
    assert got.shape == ref.shape
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def _case(name, dtype, seed):
    x_shape, w_shape, stride, pad = SHAPES[name]
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(x_shape).astype(dtype)
    w = rng.standard_normal(w_shape).astype(dtype)
    out_sp = ad._conv_out_shape(x_shape[2:], w_shape[2:], stride, pad)
    g = rng.standard_normal((x_shape[0], w_shape[0]) + out_sp).astype(dtype)
    return x, w, g, stride, pad


def _conv(nd):
    return ad.conv2d if nd == 2 else ad.conv3d


def _conv_t(nd):
    return ad.conv_transpose2d if nd == 2 else ad.conv_transpose3d


# ----------------------------------------------------------------- tests


@pytest.mark.parametrize("dtype", [np.float64, np.float32],
                         ids=["float64", "float32"])
@pytest.mark.parametrize("name", list(SHAPES))
def test_input_grad_matches_reference(name, dtype):
    x, w, g, stride, pad = _case(name, dtype, 0)
    xt = Tensor(x, requires_grad=True)
    out = _conv(x.ndim - 2)(xt, Tensor(w), stride=stride, padding=pad)
    out.backward(g)
    ref = ref_conv_input_grad(g, w, stride, pad, x.shape[2:])
    assert xt.grad.dtype == dtype
    assert _rel_err(xt.grad, ref) <= TOLERANCE[dtype]


@pytest.mark.parametrize("dtype", [np.float64, np.float32],
                         ids=["float64", "float32"])
@pytest.mark.parametrize("name", [n for n, s in SHAPES.items()
                                  if all(v == 1 for v in s[2])])
def test_stride1_input_grad_matches_col2im(name, dtype):
    x, w, g, stride, pad = _case(name, dtype, 9)
    got = ad._conv_input_grad(g, w, stride, pad, x.shape[2:])
    ref = ad._col2im(g, w, stride, pad, x.shape[2:])
    assert got.dtype == ref.dtype == dtype
    assert _rel_err(got, ref) <= TOLERANCE[dtype]


@pytest.mark.parametrize("dtype", [np.float64, np.float32],
                         ids=["float64", "float32"])
@pytest.mark.parametrize("name", [n for n, s in SHAPES.items()
                                  if all(v == 1 for v in s[2])])
def test_stride1_slabs_match_im2col(name, dtype):
    """Forward, weight gradient, input gradient and conv_transpose's
    backward of the stride-1 path against _im2col's columns through
    _conv_gemm and _conv_dw."""
    x, w, g, stride, pad = _case(name, dtype, 12)
    conv, conv_t = _conv(x.ndim - 2), _conv_t(x.ndim - 2)
    ksize, in_sp = w.shape[2:], x.shape[2:]
    cols, out_sp = ad._im2col(ad._pad_input(x, pad), ksize, stride)
    tpad = [(k - 1 - p[0], k - 1 - p[1]) for k, p in zip(ksize, pad)]
    g_cols, _ = ad._im2col(ad._pad_input(g, tpad), ksize, stride)
    wf = np.flip(w, axis=tuple(range(2, w.ndim))).swapaxes(0, 1)
    tol = TOLERANCE[dtype]

    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    out = conv(xt, wt, stride=stride, padding=pad)
    out.backward(g)
    assert _rel_err(out.data, ad._conv_gemm(w, cols, out_sp)) <= tol
    assert _rel_err(wt.grad, ad._conv_dw(cols, g, w.shape)) <= tol
    assert _rel_err(xt.grad, ad._conv_gemm(wf, g_cols, in_sp)) <= tol

    at, wt = Tensor(g, requires_grad=True), Tensor(w, requires_grad=True)
    conv_t(at, wt, stride=stride, padding=pad, output_size=in_sp).backward(x)
    assert _rel_err(at.grad, ad._conv_gemm(w, cols, out_sp)) <= tol
    assert _rel_err(wt.grad, ad._conv_dw(cols, g, w.shape)) <= tol


def test_stride1_conv_gathers_no_columns(monkeypatch):
    """A stride-1 conv and conv_transpose, forward and backward, never
    call _im2col, and the forward tapes the padded input, not columns."""
    monkeypatch.setattr(ad, "_im2col", None)
    for name in ("uar2d-gamma-mid", "uar3d-gamma-out", "dec1", "head"):
        x, w, g, stride, pad = _case(name, np.float32, 13)
        conv, conv_t = _conv(x.ndim - 2), _conv_t(x.ndim - 2)
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        out = conv(xt, wt, stride=stride, padding=pad)
        closure = dict(zip(out._backward.__code__.co_freevars,
                           out._backward.__closure__))
        taped = closure["cols"].cell_contents
        assert taped.shape == ad._pad_input(x, pad).shape
        out.backward(g)
        at, wt = Tensor(g, requires_grad=True), Tensor(w, requires_grad=True)
        conv_t(at, wt, stride=stride, padding=pad,
               output_size=x.shape[2:]).backward(x)
        assert xt.grad is not None and at.grad is not None


@pytest.mark.parametrize("stride", [1, 2])
def test_kernel_larger_than_padded_input_rejected(stride):
    """Checked before either path runs, naming input, kernel and padding."""
    pad = ((0, 0), (1, 0))
    for c in (1, 16):
        x, w = Tensor(np.ones((1, c, 2, 2))), Tensor(np.ones((16, c, 3, 3)))
        with pytest.raises(ValueError, match=(
                rf"kernel \(3, 3\) .* input \(1, {c}, 2, 2\) padded by "
                r"\(\(0, 0\), \(1, 0\)\)")):
            ad.conv2d(x, w, stride=stride, padding=pad)
        # padded by one more row it fits: one output cell
        assert ad.conv2d(x, w, stride=stride, padding=((1, 0), (1, 0))).shape \
            == (1, 16, 1, 1)
        with pytest.raises(ValueError, match=r"kernel \(3, 3\) .* output"):
            ad.conv_transpose2d(Tensor(np.ones((1, 16, 1, 1))), w,
                                stride=stride, padding=pad, output_size=(2, 2))


def test_stride1_input_grad_with_padding_wider_than_kernel():
    """Padding past k - 1 crops g instead of padding it (the reference
    construction above rejects it; col2im does not)."""
    rng = np.random.default_rng(11)
    pad = ((3, 0), (1, 4))
    x_shape, w_shape = (2, 3, 5, 6), (4, 3, 3, 2)
    out_sp = ad._conv_out_shape(x_shape[2:], w_shape[2:], (1, 1), pad)
    g = rng.standard_normal((2, 4) + out_sp)
    w = rng.standard_normal(w_shape)
    got = ad._conv_input_grad(g, w, (1, 1), pad, x_shape[2:])
    ref = ad._col2im(g, w, (1, 1), pad, x_shape[2:])
    assert _rel_err(got, ref) <= TOLERANCE[np.float64]


@pytest.mark.parametrize("dtype", [np.float64, np.float32],
                         ids=["float64", "float32"])
@pytest.mark.parametrize("name", list(SHAPES))
def test_conv_transpose_matches_reference(name, dtype):
    x, w, g, stride, pad = _case(name, dtype, 1)
    conv_t = _conv_t(x.ndim - 2)
    got = conv_t(Tensor(g), Tensor(w), stride=stride, padding=pad,
                 output_size=x.shape[2:]).data
    ref = ref_conv_transpose(g, w, stride, pad, x.shape[2:])
    assert _rel_err(got, ref) <= TOLERANCE[dtype]
    got = conv_t(Tensor(g), Tensor(w), stride=stride, padding=pad).data
    assert _rel_err(got, ref_conv_transpose(g, w, stride, pad)) \
        <= TOLERANCE[dtype]


@pytest.mark.parametrize("dtype", [np.float64, np.float32],
                         ids=["float64", "float32"])
@pytest.mark.parametrize("name", list(SHAPES))
def test_forward_matches_reference(name, dtype):
    x, w, _, stride, pad = _case(name, dtype, 4)
    out = _conv(x.ndim - 2)(Tensor(x), Tensor(w), stride=stride, padding=pad)
    assert out.data.dtype == dtype
    assert _rel_err(out.data, ref_conv(x, w, stride, pad)) <= TOLERANCE[dtype]


@pytest.mark.parametrize("dtype", [np.float64, np.float32],
                         ids=["float64", "float32"])
@pytest.mark.parametrize("name", list(SHAPES))
def test_weight_grad_matches_reference(name, dtype):
    x, w, g, stride, pad = _case(name, dtype, 5)
    wt = Tensor(w, requires_grad=True)
    _conv(x.ndim - 2)(Tensor(x), wt, stride=stride, padding=pad).backward(g)
    ref = ref_conv_weight_grad(x, g, w.shape, stride, pad)
    assert wt.grad.dtype == dtype
    assert _rel_err(wt.grad, ref) <= TOLERANCE[dtype]


@pytest.mark.parametrize("dtype", [np.float64, np.float32],
                         ids=["float64", "float32"])
@pytest.mark.parametrize("name", list(SHAPES))
def test_conv_transpose_backward_matches_reference(name, dtype):
    """conv_transpose(a, w) is the adjoint of conv(., w), so its input
    gradient is conv(G, w) and its weight gradient that of <a, conv(G, w)>."""
    x, w, g, stride, pad = _case(name, dtype, 6)
    at = Tensor(g, requires_grad=True)
    wt = Tensor(w, requires_grad=True)
    _conv_t(x.ndim - 2)(at, wt, stride=stride, padding=pad,
                        output_size=x.shape[2:]).backward(x)
    assert _rel_err(at.grad, ref_conv(x, w, stride, pad)) <= TOLERANCE[dtype]
    ref = ref_conv_weight_grad(x, g, w.shape, stride, pad)
    assert _rel_err(wt.grad, ref) <= TOLERANCE[dtype]


def _strided_views(x):
    """The values of x as non-contiguous views: channel axis innermost in
    memory (so the decoder's tokens reach its convs when it decodes one
    slot), and every other element of a buffer twice as long."""
    last = np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 1, -1)), -1, 1)
    buf = np.zeros(x.shape[:-1] + (2 * x.shape[-1],), dtype=x.dtype)
    buf[..., ::2] = x
    views = [v for v in (last, buf[..., ::2]) if not v.flags.c_contiguous]
    assert views and all(np.array_equal(v, x) for v in views)
    return views


@pytest.mark.parametrize("name", list(SHAPES))
def test_sample_result_independent_of_batch_and_layout(name):
    """Each sample of a batch convolves bitwise as it would alone, and a
    strided view of the input convolves bitwise as its contiguous copy."""
    x_shape, w_shape, stride, pad = SHAPES[name]
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3,) + x_shape[1:]).astype(np.float32)
    w = Tensor(rng.standard_normal(w_shape).astype(np.float32))
    b = Tensor(rng.standard_normal(w_shape[0]).astype(np.float32))
    conv = _conv(x.ndim - 2)

    def run(a):
        return conv(Tensor(a), w, b, stride=stride, padding=pad).data

    batch = run(x)
    for a in [x] + _strided_views(x):
        assert np.array_equal(run(a), batch)
        for i in range(len(x)):
            assert np.array_equal(run(a[i:i + 1]), batch[i:i + 1])


def _check_input_grad_skipped(monkeypatch, name, counted):
    """A conv backward calls `counted` once, with the input's spatial
    shape, when the input needs a gradient, and not at all otherwise; the
    weight and bias gradients are the same either way."""
    calls = []
    real = getattr(ad, counted)

    def counting(*args):
        calls.append(args[-1])
        return real(*args)

    monkeypatch.setattr(ad, counted, counting)
    x, w, g, stride, pad = _case(name, np.float32, 2)
    b = np.random.default_rng(3).standard_normal(w.shape[0]).astype(np.float32)

    def weight_grads(input_needs_grad):
        wt = Tensor(w, requires_grad=True)
        bt = Tensor(b, requires_grad=True)
        xt = Tensor(x, requires_grad=input_needs_grad)
        _conv(x.ndim - 2)(xt, wt, bt, stride=stride, padding=pad).backward(g)
        assert (xt.grad is not None) == input_needs_grad
        return wt.grad, bt.grad

    w_full, b_full = weight_grads(True)
    assert calls == [x.shape[2:]]
    calls.clear()
    w_skip, b_skip = weight_grads(False)
    assert calls == []
    assert np.array_equal(w_full, w_skip)
    assert np.array_equal(b_full, b_skip)


def test_backward_skips_input_grad_nobody_needs(monkeypatch):
    # enc0 is strided: its input gradient is col2im's
    _check_input_grad_skipped(monkeypatch, "enc0", "_col2im")


def test_stride1_backward_skips_input_grad_nobody_needs(monkeypatch):
    monkeypatch.setattr(ad, "_col2im", None)  # stride 1 never scatters
    _check_input_grad_skipped(monkeypatch, "uar3d-gamma-out",
                              "_conv_input_grad")


def test_forward_tapes_columns_only_for_the_weight_gradient():
    x, w, g, stride, pad = _case("uar2d-gamma-mid", np.float32, 10)

    def taped_cols(weight_needs_grad):
        out = ad.conv2d(Tensor(x, requires_grad=True),
                        Tensor(w, requires_grad=weight_needs_grad),
                        stride=stride, padding=pad)
        closure = dict(zip(out._backward.__code__.co_freevars,
                           out._backward.__closure__))
        return closure["cols"].cell_contents

    assert taped_cols(True) is not None
    assert taped_cols(False) is None


def test_conv_transpose_backward_skips_grads_nobody_needs(monkeypatch):
    calls = []
    for fn in ("_conv_dw", "_conv_gemm"):
        real = getattr(ad, fn)
        monkeypatch.setattr(
            ad, fn, lambda *args, _fn=fn, _real=real:
            calls.append(_fn) or _real(*args))
    x, w, g, stride, pad = _case("dec1", np.float32, 8)

    def grads(input_needs_grad, weight_needs_grad):
        at = Tensor(g, requires_grad=input_needs_grad)
        wt = Tensor(w, requires_grad=weight_needs_grad)
        out = ad.conv_transpose2d(at, wt, stride=stride, padding=pad,
                                  output_size=x.shape[2:])
        # dec1 is stride 1, so the forward is a _conv_gemm too: count the
        # backward's calls only
        calls.clear()
        out.backward(x)
        return at.grad, wt.grad

    a_full, w_full = grads(True, True)
    assert calls == ["_conv_dw", "_conv_gemm"]
    a_only, w_none = grads(True, False)
    assert calls == ["_conv_gemm"] and w_none is None
    assert np.array_equal(a_only, a_full)
    a_none, w_only = grads(False, True)
    assert calls == ["_conv_dw"] and a_none is None
    assert np.array_equal(w_only, w_full)
