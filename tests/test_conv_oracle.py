"""Reference oracle for the conv input gradient and conv_transpose.

The reference below is the earlier construction: dilate the output
gradient by the stride, pad it by k - 1 - p, and correlate it with the
spatially flipped, channel-swapped kernel.  The shipped path scatters
W^T g back onto the input windows with col2im.  Both must agree on every
conv shape the STT and the UAR models use, in float64 and in float32.
"""

import numpy as np
import pytest

from tcrtomo import autodiff as ad
from tcrtomo.autodiff import Tensor
from tcrtomo.stt import SttConfig
from tcrtomo.uar import UarConfig

# ------------------------------------------------------- reference path


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
    return ad._conv_forward(gd, wf, (1,) * nd, tuple(tpad))[0]


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


def _uar_shapes(size=32, steps=4):
    """Same-padded 3x3 convs of the UAR generator and critic, 2-D and 3-D."""
    cfg = UarConfig()
    gc, cc = cfg.gamma_channels, cfg.critic_channels
    return {
        "uar2d-gamma-in": ((1, 4, size, size), (gc, 4, 3, 3)) + _SAME2,
        "uar2d-gamma-mid": ((1, gc, size, size), (gc, gc, 3, 3)) + _SAME2,
        "uar2d-critic": ((1, cc[1], size, size), (cc[2], cc[1], 3, 3)) + _SAME2,
        "uar3d-gamma-out": ((1, gc, steps, size, size), (1, gc, 3, 3, 3))
        + _SAME3,
        "uar3d-critic": ((1, cc[0], steps, size, size), (cc[1], cc[0], 3, 3, 3))
        + _SAME3,
    }


SHAPES = {**_stt_shapes(), **_uar_shapes()}
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


def test_backward_skips_input_grad_nobody_needs(monkeypatch):
    calls = []
    real = ad._col2im

    def counting(*args):
        calls.append(args[-1])
        return real(*args)

    monkeypatch.setattr(ad, "_col2im", counting)
    x, w, g, stride, pad = _case("enc0", np.float32, 2)
    b = np.random.default_rng(3).standard_normal(w.shape[0]).astype(np.float32)

    def weight_grads(input_needs_grad):
        wt = Tensor(w, requires_grad=True)
        bt = Tensor(b, requires_grad=True)
        xt = Tensor(x, requires_grad=input_needs_grad)
        ad.conv3d(xt, wt, bt, stride=stride, padding=pad).backward(g)
        assert (xt.grad is not None) == input_needs_grad
        return wt.grad, bt.grad

    w_full, b_full = weight_grads(True)
    assert calls == [x.shape[2:]]
    calls.clear()
    w_skip, b_skip = weight_grads(False)
    assert calls == []
    assert np.array_equal(w_full, w_skip)
    assert np.array_equal(b_full, b_skip)
