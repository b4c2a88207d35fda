"""Reference oracle for matmul with a 3-D or 4-D left operand and a 2-D
right one (every dense layer applied to a batch of token sequences).

The reference below is the earlier construction: numpy's batched matmul,
one GEMM per leading index, and the weight gradient summed over the
leading axes by _unbroadcast.  The shipped path folds the leading axes
into the rows of one GEMM.  Both sum the same products in float32 but
BLAS may block them differently, so they must agree within 1e-5 relative;
in float64 the gradients are also checked by finite differences.  Where
both operands are batched, matmul keeps the reference construction and
must match it bitwise.
"""

import numpy as np
import pytest

from tcrtomo import autodiff as ad
from tcrtomo.autodiff import Tensor

RTOL = 1e-5


def ref_matmul(a, b, g):
    """Forward and both gradients the way matmul computed them before."""
    out = a @ b
    ga = ad._unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape)
    gb = ad._unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape)
    return out, ga, gb


def shipped_matmul(a, b, g):
    ta = Tensor(a, requires_grad=True)
    tb = Tensor(b, requires_grad=True)
    out = ad.matmul(ta, tb)
    out.backward(g)
    return out.data, ta.grad, tb.grad


def assert_close(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    err = np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-30)
    assert err <= RTOL, f"relative error {err:.2e} > {RTOL:.0e}"


def operands(lead, s, d, o, dtype, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(lead + (s, d)).astype(dtype)
    b = (0.05 * rng.standard_normal((d, o))).astype(dtype)
    g = rng.standard_normal(lead + (s, o)).astype(dtype)
    return a, b, g


@pytest.mark.parametrize("s", [1, 2, 3, 11])
@pytest.mark.parametrize("lead, d, o", [
    ((64,), 64, 192),      # desk STT qkv: 64 patches
    ((16,), 96, 384),      # 16 patches, mlp1-shaped
    ((2, 9), 48, 24),      # 4-D: batch x patches
], ids=["3d-qkv", "3d-mlp1", "4d"])
def test_folded_matches_batched_float32(lead, d, o, s):
    a, b, g = operands(lead, s, d, o, np.float32, seed=s)
    for got, want in zip(shipped_matmul(a, b, g), ref_matmul(a, b, g)):
        assert_close(got, want)


@pytest.mark.parametrize("s", [1, 2, 3, 11])
def test_folded_gradcheck_float64(s):
    a, b, g = operands((2, 3), s, 5, 4, np.float64, seed=10 + s)
    ta = Tensor(a, requires_grad=True)
    tb = Tensor(b, requires_grad=True)
    w = Tensor(g)
    ad.gradcheck(lambda: ad.tsum(ad.mul(ad.matmul(ta, tb), w)), [ta, tb],
                 eps=1e-6, rtol=1e-6)


@pytest.mark.parametrize("a_shape, b_shape", [
    ((6, 3, 8), (6, 8, 5)),          # per-patch weights
    ((2, 4, 3, 8), (2, 4, 8, 5)),    # attention q k^T / att v
    ((2, 4, 3, 8), (4, 8, 5)),       # b broadcast over the batch
    ((3, 8), (6, 8, 5)),             # a broadcast over b's batch
    ((3, 8), (8, 5)),                # plain 2-D
])
def test_batched_operands_unchanged_bitwise(a_shape, b_shape):
    rng = np.random.default_rng(30)
    a = rng.standard_normal(a_shape).astype(np.float32)
    b = rng.standard_normal(b_shape).astype(np.float32)
    g = rng.standard_normal(np.broadcast_shapes(
        a_shape[:-2], b_shape[:-2]) + (a_shape[-2], b_shape[-1])).astype(
            np.float32)
    for got, want in zip(shipped_matmul(a, b, g), ref_matmul(a, b, g)):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
