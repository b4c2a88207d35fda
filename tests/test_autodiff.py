"""Tape mechanics and finite-difference gradient checks for every op."""

import tracemalloc

import numpy as np
import pytest
from scipy.special import erf

from tcrtomo import autodiff as ad
from tcrtomo.autodiff import Tensor
from tcrtomo.errors import TapeError


def t64(arr, rg=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=rg)


def rand(shape, seed=0, scale=1.0):
    return scale * np.random.default_rng(seed).standard_normal(shape)


# ------------------------------------------------------------------- tape

def test_backward_accumulates_and_releases():
    x = t64([1.0, 2.0])
    y = ad.tsum(ad.mul(x, x))
    y.backward()
    assert np.allclose(x.grad, [2.0, 4.0])
    with pytest.raises(TapeError):
        y.backward()


def test_no_grad_suppresses_graph():
    x = t64([1.0])
    with ad.no_grad():
        y = ad.mul(x, x)
    assert y._parents == ()
    assert not y.requires_grad


def test_backward_needs_scalar():
    x = t64([1.0, 2.0])
    y = ad.mul(x, x)
    with pytest.raises(ValueError):
        y.backward()


def test_diamond_graph_accumulates_once_per_path():
    # z = (x*x) + (x*x) computed through two branches sharing x
    x = t64([1.5])
    a = ad.mul(x, x)
    b = ad.mul(x, 2.0)
    z = ad.tsum(ad.add(a, b))
    z.backward()
    assert np.allclose(x.grad, [2 * 1.5 + 2.0])


def test_scalar_coercion_keeps_dtype():
    x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    y = ad.add(ad.mul(x, 2.0), 1.0)
    assert y.dtype == np.float32


# ---------------------------------------------------------- gradcheck: ops

def test_grad_elementwise_ops():
    x = t64(rand((3, 4), 1))
    y = t64(rand((3, 4), 2))
    ad.gradcheck(lambda: ad.tsum(ad.mul(ad.add(x, y), ad.sub(x, y))), [x, y])


def test_grad_broadcast_add_mul():
    x = t64(rand((2, 3, 4), 3))
    b = t64(rand((4,), 4))
    ad.gradcheck(lambda: ad.tsum(ad.mul(ad.add(x, b), b)), [x, b])


def test_grad_scale_sqrt():
    x = t64(np.abs(rand((5,), 5)) + 0.5)
    ad.gradcheck(lambda: ad.tsum(ad.sqrt(ad.scale(x, 2.0))), [x])


def test_grad_relu_leaky_gelu():
    raw = rand((4, 5), 6)
    # keep samples away from the kink at 0 so central differences are valid
    raw = raw + 0.1 * np.sign(raw)
    x = t64(raw)
    ad.gradcheck(lambda: ad.tsum(ad.leaky_relu(x, 0.1)), [x])
    ad.gradcheck(lambda: ad.tsum(ad.gelu(x)), [x])


def test_leaky_relu_slope_in_the_payload_dtype():
    # the slope array is built in float32: a float64 one cast down would
    # peak at 12 bytes per element, the f64 array and its f32 copy
    x = Tensor(rand((1, 32, 32, 32), 7).astype(np.float32), requires_grad=True)
    tracemalloc.start()
    try:
        out = ad.leaky_relu(x, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / x.data.size < 10
    slope = np.where(x.data > 0, 1.0, 0.2).astype(np.float32)
    assert out.data.dtype == np.float32
    assert np.array_equal(out.data, x.data * slope)
    ad.tsum(out).backward()
    assert np.array_equal(x.grad, slope)


def ref_leaky_relu(a, slope):
    """Reference rectifier: a node that tapes its input's slope factor
    for the backward."""
    typed = a.data.dtype.type
    factor = np.where(a.data > 0, typed(1.0), typed(slope))

    def backward(g):
        ad._accum(a, g * factor)

    return ad._make(a.data * factor, (a,), backward)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("slope", [0.0, 0.2])
def test_leaky_relu_matches_taped_factor_bitwise(dtype, slope):
    """Slope from the output equals the taped input factor bit for bit,
    forward and backward, on random values and every special value."""
    tiny = np.finfo(dtype).smallest_subnormal
    special = np.array([0.0, -0.0, tiny, -tiny, np.inf, -np.inf, np.nan,
                        -np.nan], dtype=dtype)
    x = np.concatenate([rand((200,), 31).astype(dtype), special])
    g = np.concatenate([rand((200,), 32).astype(dtype),
                        np.array([1.0, -1.0] * 4, dtype=dtype)])
    bits = np.uint32 if dtype == np.float32 else np.uint64
    got, ref = Tensor(x, requires_grad=True), Tensor(x, requires_grad=True)
    with np.errstate(invalid="ignore"):  # -inf * 0 at slope 0
        out, want = ad.leaky_relu(got, slope), ref_leaky_relu(ref, slope)
    assert out.data.dtype == dtype
    assert np.array_equal(out.data.view(bits), want.data.view(bits))
    out.backward(g)
    want.backward(g)
    assert np.array_equal(got.grad.view(bits), ref.grad.view(bits))


def test_leaky_relu_tapes_only_its_output():
    x = Tensor(rand((4, 6), 33).astype(np.float32), requires_grad=True)
    out = ad.leaky_relu(x, 0.2)
    held = [c.cell_contents for c in out._backward.__closure__
            if isinstance(c.cell_contents, np.ndarray)]
    assert len(held) == 1 and held[0] is out.data


@pytest.mark.parametrize("slope", [-0.1, -1e-300, float("nan")])
def test_leaky_relu_rejects_a_negative_slope(slope):
    x = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
    with pytest.raises(ValueError, match=f"slope .*{slope}"):
        ad.leaky_relu(x, slope)
    with pytest.raises(ValueError, match=f"slope .*{slope}"):
        ad.conv2d(Tensor(np.ones((1, 1, 3, 3), np.float32)),
                  ad.reshape(x, (1, 1, 2, 3)), slope=slope)


# --------------------------------------- gelu kernel against scipy's erf

def erf_gelu(x):
    """The scipy-erf gelu that the kernel replaced, in float64:
    (x Phi(x), Phi(x) + x phi(x))."""
    x = np.asarray(x, dtype=np.float64)
    cdf = 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
    return x * cdf, cdf + x * np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


def gelu_and_slope(x):
    t = Tensor(x, requires_grad=True)
    y = ad.gelu(t)
    y.backward(np.ones_like(y.data))
    return y.data, t.grad


def assert_gelu_near_erf(x, tol):
    """Forward and backward within tol * max(1, |x|) of the oracle."""
    y, slope = gelu_and_slope(x)
    assert (y.shape, y.dtype, slope.dtype) == (x.shape, x.dtype, x.dtype)
    scale = tol * np.maximum(1.0, np.abs(np.asarray(x, dtype=np.float64)))
    want_y, want_slope = erf_gelu(x)
    assert np.all(np.abs(y - want_y) <= scale)
    assert np.all(np.abs(slope - want_slope) <= scale)


@pytest.mark.parametrize("dtype, tol", [(np.float32, 2e-7),
                                        (np.float64, 1.5e-8)])
def test_gelu_matches_erf_oracle(dtype, tol):
    """float32 within 2e-7 * max(1, |x|); float64 shows the approximation
    alone, 1.2e-8 in Phi, on a dense grid over [-12, 12] and normal draws."""
    x = np.concatenate([np.linspace(-12.0, 12.0, 2_400_001),
                        rand(1_000_000, 11), rand(100_000, 12, scale=4.0)])
    assert_gelu_near_erf(x.astype(dtype), tol)


def test_gelu_propagates_nan():
    x = np.array([np.nan, 0.5, -3.0, np.nan, 0.0], dtype=np.float32)
    y, slope = gelu_and_slope(x)
    nan = np.isnan(x)
    assert np.array_equal(np.isnan(y), nan)
    assert np.array_equal(np.isnan(slope), nan)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_gelu_block_edges(offset):
    """Sizes around one block, and a value's result does not depend on
    where in a block it falls (bitwise causality rests on that)."""
    n = ad._GELU_BLOCK + offset
    x = rand(n, 13, scale=3.0).astype(np.float32)
    assert_gelu_near_erf(x, 2e-7)
    y, slope = gelu_and_slope(x)
    for shift in (1, 7, n - 3):
        y_tail, slope_tail = gelu_and_slope(x[shift:])
        assert np.array_equal(y_tail, y[shift:])
        assert np.array_equal(slope_tail, slope[shift:])


def test_gelu_empty_scalar_and_transposed():
    empty = np.zeros((0, 3), dtype=np.float32)
    assert gelu_and_slope(empty)[0].shape == (0, 3)
    assert_gelu_near_erf(np.array(-0.7, dtype=np.float32), 2e-7)
    x = rand((300, 500), 14, scale=2.0).astype(np.float32).T
    assert not x.flags.c_contiguous
    assert_gelu_near_erf(x, 2e-7)
    for got, want in zip(gelu_and_slope(x),
                         gelu_and_slope(np.ascontiguousarray(x))):
        assert np.array_equal(got, want)


def test_gelu_tapes_one_array(monkeypatch):
    """The backward keeps the slope and nothing else; off the tape the
    slope is not computed."""
    x = Tensor(rand((4, 6), 15).astype(np.float32), requires_grad=True)
    held = [c.cell_contents for c in ad.gelu(x)._backward.__closure__
            if isinstance(c.cell_contents, np.ndarray)]
    assert len(held) == 1 and held[0].shape == x.shape
    kernel, slopes = ad._gelu_kernel, []

    def spy(a, with_slope):
        slopes.append(with_slope)
        return kernel(a, with_slope)

    monkeypatch.setattr(ad, "_gelu_kernel", spy)
    ad.gelu(Tensor(x.data))
    with ad.no_grad():
        ad.gelu(x)
    ad.gelu(x)
    assert slopes == [False, False, True]


def test_grad_reshape_transpose_slice_concat():
    x = t64(rand((2, 6), 7))
    y = t64(rand((2, 6), 8))

    def fn():
        a = ad.reshape(x, (3, 4))
        b = ad.transpose(ad.reshape(y, (4, 3)), (1, 0))
        c = ad.concat([a, b], axis=0)
        return ad.tsum(ad.mul(ad.tslice(c, (slice(1, 4), slice(None, 2))),
                              ad.tslice(c, (slice(2, 5), slice(1, 3)))))

    ad.gradcheck(fn, [x, y])


def test_grad_broadcast_to():
    x = t64(rand((1, 3), 9))
    ad.gradcheck(lambda: ad.tsum(ad.mul(ad.broadcast_to(x, (4, 3)), 1.5)), [x])


def test_grad_reductions():
    x = t64(rand((3, 4, 2), 10))
    ad.gradcheck(lambda: ad.tsum(x), [x])
    ad.gradcheck(lambda: ad.tsum(ad.tmean(x, axis=(1, 2))), [x])
    ad.gradcheck(lambda: ad.tmean(x), [x])


def test_grad_matmul_batched():
    a = t64(rand((2, 3, 4), 13))
    b = t64(rand((2, 4, 5), 14))
    ad.gradcheck(lambda: ad.tsum(ad.matmul(a, b)), [a, b])
    # broadcast batch: (3,4) @ (2,4,5)
    c = t64(rand((3, 4), 15))
    ad.gradcheck(lambda: ad.tsum(ad.matmul(c, b)), [c, b])


def test_grad_softmax():
    x = t64(rand((3, 5), 16))
    w = t64(rand((3, 5), 17))
    ad.gradcheck(lambda: ad.tsum(ad.mul(ad.softmax_lastaxis(x), w)), [x])


def test_grad_layer_norm():
    x = t64(rand((4, 6), 18))
    g = t64(1.0 + 0.1 * rand((6,), 19))
    b = t64(0.1 * rand((6,), 20))
    w = t64(rand((4, 6), 21))
    ad.gradcheck(lambda: ad.tsum(ad.mul(ad.layer_norm(x, g, b), w)), [x, g, b])


def test_layer_norm_normalizes():
    x = Tensor(rand((5, 8), 22).astype(np.float64))
    out = ad.layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
    assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-10)
    assert np.allclose(out.data.std(axis=-1), 1.0, atol=1e-3)


# --------------------------------------------------------- convolution ops

def test_conv2d_matches_direct_loop():
    rng = np.random.default_rng(23)
    x = rng.standard_normal((2, 3, 6, 7))
    w = rng.standard_normal((4, 3, 3, 3))
    out = ad.conv2d(Tensor(x), Tensor(w), stride=(2, 1),
                    padding=((1, 1), (0, 2))).data
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (0, 2)))
    ho = (6 + 2 - 3) // 2 + 1
    wo = (7 + 2 - 3) // 1 + 1
    ref = np.zeros((2, 4, ho, wo))
    for n in range(2):
        for co in range(4):
            for i in range(ho):
                for j in range(wo):
                    patch = xp[n, :, 2 * i:2 * i + 3, j:j + 3]
                    ref[n, co, i, j] = np.sum(patch * w[co])
    assert np.allclose(out, ref, atol=1e-10)


@pytest.mark.parametrize("stride, pad", [
    ((2, 1), ((1, 0), (1, 1))),
    ((1, 1), ((3, 3), (3, 3))),  # padding beyond k - 1
], ids=["stride2", "pad3"])
def test_grad_conv2d(stride, pad):
    x = t64(rand((2, 2, 5, 6), 24))
    w = t64(rand((3, 2, 3, 3), 25))
    b = t64(rand((3,), 26))
    ad.gradcheck(
        lambda: ad.tsum(ad.conv2d(x, w, b, stride=stride, padding=pad)),
        [x, w, b])


def test_grad_conv3d_causal_padding():
    x = t64(rand((1, 2, 4, 5, 5), 27))
    w = t64(rand((3, 2, 3, 3, 3), 28))
    b = t64(rand((3,), 29))
    # left-heavy time padding: output at time t sees inputs <= t only
    ad.gradcheck(
        lambda: ad.tsum(ad.conv3d(x, w, b, stride=(1, 2, 2),
                                  padding=((2, 0), (1, 1), (1, 1)))),
        [x, w, b])


def test_conv3d_left_padding_is_causal():
    rng = np.random.default_rng(30)
    x = rng.standard_normal((1, 1, 5, 4, 4)).astype(np.float32)
    w = rng.standard_normal((2, 1, 3, 3, 3)).astype(np.float32)
    out1 = ad.conv3d(Tensor(x), Tensor(w),
                     padding=((2, 0), (1, 1), (1, 1))).data
    x2 = x.copy()
    x2[:, :, 3:] += 7.0  # perturb times 3, 4
    out2 = ad.conv3d(Tensor(x2), Tensor(w),
                     padding=((2, 0), (1, 1), (1, 1))).data
    assert np.array_equal(out1[:, :, :3], out2[:, :, :3])
    assert not np.array_equal(out1[:, :, 3:], out2[:, :, 3:])


def test_grad_conv_transpose2d():
    x = t64(rand((2, 3, 3, 4), 31))
    w = t64(rand((3, 2, 3, 3), 32))
    ad.gradcheck(
        lambda: ad.tsum(ad.conv_transpose2d(x, w, stride=2,
                                            padding=((1, 1), (1, 0)))),
        [x, w])


@pytest.mark.parametrize("x_shape, k, stride, pad", [
    ((1, 2, 7, 8), (3, 3), (2, 2), ((1, 0), (1, 1))),
    ((1, 2, 7, 8), (3, 3), (1, 1), ((3, 3), (3, 3))),  # padding beyond k - 1
    ((2, 2, 4, 6, 5), (3, 3, 3), (1, 2, 2), ((2, 0), (1, 1), (1, 1))),
], ids=["2d-stride2", "2d-pad3", "3d-causal"])
def test_conv_transpose_is_conv_adjoint(x_shape, k, stride, pad):
    # <conv(x), y> == <x, convT(y)> for matching shapes
    rng = np.random.default_rng(33)
    x = rng.standard_normal(x_shape)
    w = rng.standard_normal((3, x_shape[1]) + k)
    conv, conv_t = ((ad.conv2d, ad.conv_transpose2d) if len(k) == 2
                    else (ad.conv3d, ad.conv_transpose3d))
    cx = conv(Tensor(x), Tensor(w), stride=stride, padding=pad).data
    y = rng.standard_normal(cx.shape)
    ty = conv_t(Tensor(y), Tensor(w), stride=stride, padding=pad,
                output_size=x_shape[2:]).data
    assert np.vdot(cx, y) == pytest.approx(np.vdot(x, ty), rel=1e-10)


def test_conv_transpose_rejects_unreachable_output_size():
    y, w = Tensor(np.ones((1, 1, 4, 4))), Tensor(np.ones((1, 1, 3, 3)))
    opts = dict(stride=2, padding=((1, 1), (1, 1)))
    # conv2d maps 7x7 and 8x8 back to 4x4, but 9x9 to 5x5
    for size in ((7, 7), (8, 8)):
        assert ad.conv_transpose2d(y, w, output_size=size, **opts).shape[2:] == size
    with pytest.raises(ValueError, match=r"\(9, 9\).*\(4, 4\).*\(5, 5\)"):
        ad.conv_transpose2d(y, w, output_size=(9, 9), **opts)
    with pytest.raises(ValueError, match="output size"):
        ad.conv_transpose3d(Tensor(np.ones((1, 1, 1, 1, 1))),
                            Tensor(np.ones((1, 1, 1, 1, 1))),
                            padding=((1, 1), (0, 0), (0, 0)))


@pytest.mark.parametrize("op, nd", [(ad.conv_transpose2d, 2),
                                   (ad.conv_transpose3d, 3),
                                   (ad.conv2d, 2), (ad.conv3d, 3)])
def test_conv_rejects_wrong_rank(op, nd):
    """Input and weight must both have nd + 2 axes."""
    x, w = np.ones((1, 1) + (4,) * nd), np.ones((1, 1) + (3,) * nd)
    for bad_x, bad_w in ((x[..., 0], w), (x[..., None], w),
                         (x, w[..., 0]), (x, w[..., None])):
        with pytest.raises(ValueError, match=f"{nd + 2} axes"):
            op(Tensor(bad_x), Tensor(bad_w))


def test_backward_skips_operands_without_grad(monkeypatch):
    """matmul and conv compute no gradient for an operand needing none."""
    a = Tensor(rand((3, 4), 5), requires_grad=True)
    b = Tensor(rand((4, 2), 6))
    ad.tsum(ad.matmul(a, b)).backward()
    assert a.grad is not None and b.grad is None
    weight_grads = []
    conv_dw = ad._conv_dw
    monkeypatch.setattr(ad, "_conv_dw",
                        lambda *args: weight_grads.append(1) or conv_dw(*args))
    x = Tensor(rand((1, 2, 5, 5), 7), requires_grad=True)
    w = Tensor(rand((3, 2, 3, 3), 8))
    ad.tsum(ad.conv2d(x, w)).backward()
    assert x.grad is not None and w.grad is None and not weight_grads
    w.requires_grad = True
    ad.tsum(ad.conv2d(x, w)).backward()
    assert w.grad is not None and weight_grads == [1]


def test_grad_conv_transpose3d():
    x = t64(rand((1, 2, 3, 3, 3), 34))
    w = t64(rand((2, 2, 2, 3, 3), 35))
    ad.gradcheck(
        lambda: ad.tsum(ad.conv_transpose3d(
            x, w, stride=(1, 2, 2),
            padding=((1, 0), (1, 1), (1, 1)))),
        [x, w])


def test_grad_upsample2x():
    x = t64(rand((2, 3, 4, 5), 36))
    k = t64(rand((2, 3, 8, 10), 37))
    ad.gradcheck(lambda: ad.tsum(ad.mul(ad.upsample2x(x), k)), [x])


def test_upsample2x_nearest_values():
    x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
    up = ad.upsample2x(x).data
    assert np.array_equal(up[0, 0], np.array(
        [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]], dtype=np.float32))


# ----------------------------------------------------------- rope/attention

def test_rope_preserves_norm_and_position_zero():
    rng = np.random.default_rng(38)
    x = rng.standard_normal((5, 2, 8))
    out = ad.rope_apply(Tensor(x, dtype=np.float64), np.arange(5)).data
    assert np.allclose(np.linalg.norm(out, axis=-1),
                       np.linalg.norm(x, axis=-1))
    assert np.allclose(out[0], x[0])  # position 0 is the identity


def test_rope_relative_phase():
    # dot products depend only on the position difference
    rng = np.random.default_rng(39)
    q = rng.standard_normal((1, 1, 16))
    k = rng.standard_normal((1, 1, 16))

    def dot_at(pq, pk):
        rq = ad.rope_apply(Tensor(q, dtype=np.float64), [pq]).data
        rk = ad.rope_apply(Tensor(k, dtype=np.float64), [pk]).data
        return float(np.sum(rq * rk))

    assert dot_at(3, 1) == pytest.approx(dot_at(7, 5), rel=1e-10)
    assert dot_at(2, 2) == pytest.approx(dot_at(9, 9), rel=1e-10)


def test_grad_rope():
    x = t64(rand((4, 2, 6), 40))
    w = t64(rand((4, 2, 6), 41))
    ad.gradcheck(lambda: ad.tsum(ad.mul(ad.rope_apply(x, np.arange(4)), w)),
                 [x])


def test_rope_odd_head_dim_rejected():
    with pytest.raises(ValueError):
        ad.rope_apply(t64(rand((3, 1, 5), 42)), np.arange(3))


def test_causal_attention_masks_future():
    rng = np.random.default_rng(43)
    q = rng.standard_normal((1, 6, 2, 4)).astype(np.float32)
    k = rng.standard_normal((1, 6, 2, 4)).astype(np.float32)
    v = rng.standard_normal((1, 6, 2, 4)).astype(np.float32)
    base = ad.causal_attention(Tensor(q), Tensor(k), Tensor(v)).data
    k2, v2 = k.copy(), v.copy()
    k2[:, 4:] += 5.0
    v2[:, 4:] -= 3.0
    pert = ad.causal_attention(Tensor(q), Tensor(k2), Tensor(v2)).data
    assert np.array_equal(base[:, :4], pert[:, :4])  # bitwise
    assert not np.array_equal(base[:, 4:], pert[:, 4:])


def test_causal_attention_single_window():
    # window=1 attends to self only -> output equals v
    rng = np.random.default_rng(44)
    q = rng.standard_normal((5, 2, 4))
    v = rng.standard_normal((5, 2, 4))
    out = ad.causal_attention(Tensor(q, dtype=np.float64),
                              Tensor(q, dtype=np.float64),
                              Tensor(v, dtype=np.float64), window=1).data
    assert np.allclose(out, v, atol=1e-12)


def test_causal_attention_rejects_bad_window():
    x = t64(rand((3, 1, 4), 45))
    with pytest.raises(ValueError):
        ad.causal_attention(x, x, x, window=0)


@pytest.mark.parametrize("window", [None, 1, 2, 3])
def test_causal_attention_queries_at_last_key_slots(window):
    """Two queries against six keys are the last two rows of the full
    six-slot attention; the mask is the matching tail of the full one."""
    rng = np.random.default_rng(50)
    q, k, v = (t64(rng.standard_normal((3, 6, 2, 4))) for _ in range(3))
    full = ad.causal_attention(q, k, v, window=window).data
    last2 = (slice(None), slice(4, 6))
    tail = ad.causal_attention(ad.tslice(q, last2), k, v, window=window).data
    assert np.allclose(tail, full[:, 4:], rtol=1e-12, atol=1e-12)
    assert np.array_equal(ad.causal_mask(2, window, keys=6),
                          ad.causal_mask(6, window)[4:])
    with pytest.raises(ValueError):  # more queries than keys
        ad.causal_attention(q, ad.tslice(k, last2), ad.tslice(v, last2))


def test_grad_causal_attention():
    q = t64(rand((2, 4, 2, 4), 46, 0.5))
    k = t64(rand((2, 4, 2, 4), 47, 0.5))
    v = t64(rand((2, 4, 2, 4), 48, 0.5))
    ad.gradcheck(lambda: ad.tsum(ad.causal_attention(q, k, v)), [q, k, v])
    q2 = t64(rand((2, 4, 2, 4), 49, 0.5))
    ad.gradcheck(lambda: ad.tsum(ad.causal_attention(q2, k, v, window=2)),
                 [q2])
    q3 = t64(rand((2, 2, 2, 4), 50, 0.5))
    ad.gradcheck(lambda: ad.tsum(ad.causal_attention(q3, k, v, window=3)),
                 [q3, k, v])
