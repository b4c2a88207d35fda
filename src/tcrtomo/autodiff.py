"""Minimal reverse-mode automatic differentiation on numpy arrays.

A Tensor wraps an ndarray plus an optional backward closure and parent
links; ops build the graph dynamically.  backward() topologically sorts the
graph, walks it once, accumulates gradients into .grad (plain ndarrays), and
then releases the tape: a second backward through the same graph raises
TapeError unless retain_graph=True was passed.

Payloads default to float32; explicit reductions (sum/mean/losses, norm
statistics) accumulate in float64 before casting back.  float64 payloads are
fully supported, which is what the finite-difference gradient checks use.

Convolutions are GEMMs, one per sample in the forward pass, so a sample's
result never depends on the batch it came in.  A conv with stride 1 on
every axis reads shifted slabs of its zero-padded input: on the input
flattened over its spatial axes, each kernel offset's columns are one
contiguous run per channel, and the output is computed over the padded
row width, then cropped.  Whichever side has fewer channels is stacked
over the kernel offsets for one GEMM, and that temporary is never kept:
the forward tapes only the padded input, 1/prod(k) the size of im2col
columns.  A strided conv (the STT encoders) gathers im2col columns,
(C*prod(k), N*P) in (C, *k, N, *out) order, and tapes them.  Either way
the forward keeps what its GEMMs read only when the weight needs a
gradient, the one reader of it.  A conv's input gradient (skipped when
the input needs none) is also the forward pass of conv_transpose2d/3d,
whose backward is a plain conv.  At stride 1 it is itself a stride-1
conv, of the output gradient with the flipped, channel-swapped kernel;
a strided conv's goes through col2im, the adjoint of im2col, which
scatters W^T g back onto the input windows.
The transposes are first-class ops so gradient-of-gradient graphs (e.g. a
gradient penalty) can be built on tape.

gelu is a numpy kernel, not scipy's erf: max(x, 0) - |x| Phi(-|x|) with a
polynomial erfc, run over cache-sized blocks, within 2e-7 * max(1, |x|)
of the exact value in float32, forward and backward.
"""

import contextlib
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import TapeError

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents",
                 "_released")

    def __init__(self, data, requires_grad=False, dtype=None):
        if isinstance(data, Tensor):
            raise TypeError("wrap ndarrays, not Tensors")
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._parents = ()
        self._released = False

    # ---------------------------------------------------------- bookkeeping

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def __repr__(self):
        return (f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, "
                f"requires_grad={self.requires_grad})")

    # -------------------------------------------------------------- algebra

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __neg__(self):
        return scale(self, -1.0)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("division by Tensor not supported; use reciprocal ops")
        return scale(self, 1.0 / other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return tslice(self, key)

    # ------------------------------------------------------------- backward

    def backward(self, grad=None, retain_graph=False):
        if self._released:
            raise TapeError("backward through a released graph; "
                            "pass retain_graph=True to keep the tape")
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    f"backward without gradient needs a scalar, got shape {self.shape}")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match {self.shape}")

        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node._released:
                raise TapeError("graph contains released nodes")
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))

        # intermediate grads are per-walk scratch; only leaves accumulate
        # across backward calls
        for node in topo:
            if node._parents:
                node.grad = None
        if self._parents:
            self.grad = grad
        else:
            self.grad = grad if self.grad is None else self.grad + grad
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if not retain_graph and node._parents:
                node._backward = None
                node._parents = ()
                node._released = True
                node.grad = None


def _as_tensor(x, like=None):
    if isinstance(x, Tensor):
        return x
    if isinstance(x, np.ndarray):
        return Tensor(x)
    # python scalars and lists adopt the companion dtype to avoid upcasts
    dtype = like.dtype if like is not None else np.float32
    return Tensor(np.asarray(x), dtype=dtype)


def _pair(a, b):
    if isinstance(a, Tensor):
        return a, _as_tensor(b, like=a)
    if isinstance(b, Tensor):
        return _as_tensor(a, like=b), b
    return _as_tensor(a), _as_tensor(b)


def _make(data, parents, backward):
    """Create an op result; tracks the tape only when useful."""
    track = _grad_enabled and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=track)
    if track:
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _needs_grad(t):
    return t.requires_grad or bool(t._parents)


def _accum(t, g):
    if _needs_grad(t):
        g = np.asarray(g, dtype=t.data.dtype)
        t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g, shape):
    """Reduce a broadcasted gradient back to the original shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ts) in enumerate(zip(g.shape, shape)) if ts == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ------------------------------------------------------------ element-wise

def add(a, b):
    a, b = _pair(a, b)
    out_data = a.data + b.data

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), backward)


def sub(a, b):
    a, b = _pair(a, b)
    out_data = a.data - b.data

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, -_unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), backward)


def mul(a, b):
    a, b = _pair(a, b)
    out_data = a.data * b.data

    def backward(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), backward)


def scale(a, s):
    a = _as_tensor(a)
    s = float(s)

    def backward(g):
        _accum(a, g * s)

    return _make(a.data * s, (a,), backward)


def sqrt(a):
    a = _as_tensor(a)
    root = np.sqrt(a.data)

    def backward(g):
        _accum(a, g * (0.5 / root))

    return _make(root, (a,), backward)


def leaky_relu(a, slope=0.1):
    a = _as_tensor(a)
    typed = a.data.dtype.type  # the slope in the payload's dtype, no cast
    factor = np.where(a.data > 0, typed(1.0), typed(slope))

    def backward(g):
        _accum(a, g * factor)

    return _make(a.data * factor, (a,), backward)


_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Phi(-|x|) = exp(-x^2/2) Q(s) with s = p|x| / (1 + p|x|): p is Abramowitz
# & Stegun 7.1.26's, taken on |x| rather than |x|/sqrt(2), and Q (ascending
# coefficients) is a minimax fit of exp(x^2/2) Phi(-|x|) on s in [0, 1),
# weighted by exp(-x^2/2) (Lawson's reweighted least squares on Chebyshev
# nodes), off by at most 1.2e-8 in Phi.  Unlike A&S's t = 1 - s, s is
# small, and so rounds small, where Phi changes fastest.
_GELU_P = 0.3275911 / math.sqrt(2.0)
_GELU_Q = (0.5000000112, -1.722240542, 2.937064121, -3.10568915,
           1.890184966, -0.4265606308, -0.1073394272)
# elements per block: the kernel's 23 elementwise passes (29 with the
# slope) then run on a block and scratch arrays that stay in L2 cache
_GELU_BLOCK = 1 << 16


def _gelu_kernel(x, with_slope):
    """gelu(x), and gelu'(x) = Phi(x) + x phi(x) if with_slope (else None).

    Evaluated block by block in x's dtype as max(x, 0) - |x| Phi(-|x|),
    which cancels nothing.  The exp term is sqrt(2 pi) phi(x), so the slope
    costs no second exp.  A NaN or infinite x gives NaN.
    """
    flat = np.ascontiguousarray(x).reshape(-1)
    out = np.empty_like(flat)
    slope = np.empty_like(flat) if with_slope else None
    scratch = [np.empty(min(flat.size, _GELU_BLOCK), flat.dtype)
               for _ in range(4)]
    for lo in range(0, flat.size, _GELU_BLOCK):
        xb = flat[lo:lo + _GELU_BLOCK]
        ab, sb, eb, qb = (buf[:xb.size] for buf in scratch)
        np.abs(xb, out=ab)
        np.multiply(ab, _GELU_P, out=qb)
        np.add(qb, 1.0, out=sb)
        np.divide(qb, sb, out=sb)
        with np.errstate(over="ignore"):            # x^2 -> inf, exp -> 0
            np.multiply(xb, xb, out=eb)
        eb *= -0.5
        np.exp(eb, out=eb)
        np.multiply(sb, _GELU_Q[-1], out=qb)
        for c in _GELU_Q[-2:0:-1]:
            qb += c
            qb *= sb
        qb += _GELU_Q[0]
        qb *= eb                                    # Phi(-|x|)
        if with_slope:
            sl = slope[lo:lo + _GELU_BLOCK]
            np.subtract(0.5, qb, out=sl)
            np.copysign(sl, xb, out=sl)             # Phi(x) - 1/2
            np.multiply(xb, eb, out=sb)
            sb *= _INV_SQRT_2PI                     # x phi(x)
            sl += sb
            sl += 0.5
        ob = out[lo:lo + _GELU_BLOCK]
        np.maximum(xb, 0.0, out=ob)
        ab *= qb
        ob -= ab
    if with_slope:
        slope = slope.reshape(x.shape)
    return out.reshape(x.shape), slope


def gelu(a):
    """Gaussian-error-function gelu, x * Phi(x), as a numpy erfc kernel.

    Within 2e-7 * max(1, |x|) of the exact value in float32, forward and
    backward (1.5e-7 at worst on a dense grid over [-12, 12]); float32
    rounding, not the erfc approximation (1.2e-8 in Phi), sets that bound.
    See _gelu_kernel.  The tape keeps one array, the slope.
    """
    a = _as_tensor(a)
    out, slope = _gelu_kernel(a.data, _grad_enabled and a.requires_grad)

    def backward(g):
        _accum(a, g * slope)

    return _make(out, (a,), backward)


# ---------------------------------------------------------------- reshapes

def reshape(a, shape):
    a = _as_tensor(a)

    def backward(g):
        _accum(a, g.reshape(a.data.shape))

    return _make(a.data.reshape(shape), (a,), backward)


def transpose(a, axes):
    a = _as_tensor(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def backward(g):
        _accum(a, g.transpose(inv))

    return _make(a.data.transpose(axes), (a,), backward)


def tslice(a, key):
    a = _as_tensor(a)

    def backward(g):
        buf = np.zeros_like(a.data)
        buf[key] += g
        _accum(a, buf)

    return _make(a.data[key], (a,), backward)


def concat(tensors, axis=0):
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accum(t, piece)

    return _make(np.concatenate([t.data for t in tensors], axis=axis),
                 tuple(tensors), backward)


def broadcast_to(a, shape):
    a = _as_tensor(a)

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))

    return _make(np.broadcast_to(a.data, shape).copy(), (a,), backward)


# -------------------------------------------------------------- reductions

def tsum(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    out = np.sum(a.data, axis=axis, keepdims=keepdims, dtype=np.float64)
    out = np.asarray(out, dtype=a.data.dtype)

    def backward(g):
        if axis is None:
            _accum(a, np.broadcast_to(g, a.data.shape))
            return
        gg = g
        if not keepdims:
            gg = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(gg, a.data.shape))

    return _make(out, (a,), backward)


def tmean(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    if axis is None:
        count = a.data.size
    else:
        ax = (axis,) if isinstance(axis, int) else tuple(axis)
        count = int(np.prod([a.data.shape[i] for i in ax]))
    out = np.mean(a.data, axis=axis, keepdims=keepdims, dtype=np.float64)
    out = np.asarray(out, dtype=a.data.dtype)

    def backward(g):
        if axis is None:
            _accum(a, np.broadcast_to(g / count, a.data.shape))
            return
        gg = g
        if not keepdims:
            gg = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(gg / count, a.data.shape))

    return _make(out, (a,), backward)


def mse_loss(a, b):
    """Mean of squared differences over all elements."""
    a, b = _pair(a, b)
    if a.data.shape != b.data.shape:
        raise ValueError(f"shape mismatch: {a.data.shape} vs {b.data.shape}")
    diff = a.data - b.data
    out = np.asarray(np.mean(diff * diff, dtype=np.float64), dtype=a.data.dtype)
    n = diff.size

    def backward(g):
        gd = (2.0 / n) * g * diff
        _accum(a, gd)
        _accum(b, -gd)

    return _make(out, (a, b), backward)


def softmax_lastaxis(a):
    a = _as_tensor(a)
    x = a.data
    m = np.max(x, axis=-1, keepdims=True)
    e = np.exp(x - m)
    s = e / np.sum(e, axis=-1, keepdims=True)

    def backward(g):
        dot = np.sum(g * s, axis=-1, keepdims=True)
        _accum(a, (g - dot) * s)

    return _make(s, (a,), backward)


def layer_norm(a, gamma, beta, eps=1e-5):
    """Normalize the last axis; gamma/beta are 1-D learned scale/shift."""
    a = _as_tensor(a)
    gamma = _as_tensor(gamma, like=a)
    beta = _as_tensor(beta, like=a)
    d = a.data.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ValueError(
            f"scale/shift shapes {gamma.data.shape}/{beta.data.shape} "
            f"do not match feature size ({d},)")
    x64 = a.data.astype(np.float64)
    mu = x64.mean(axis=-1, keepdims=True)
    var = x64.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = ((x64 - mu) * inv).astype(a.data.dtype)
    out = xhat * gamma.data + beta.data

    def backward(g):
        _accum(beta, g.reshape(-1, d).sum(axis=0))
        _accum(gamma, (g * xhat).reshape(-1, d).sum(axis=0))
        gx = g * gamma.data
        m1 = np.mean(gx, axis=-1, keepdims=True)
        m2 = np.mean(gx * xhat, axis=-1, keepdims=True)
        _accum(a, ((gx - m1 - xhat * m2) * inv).astype(a.data.dtype))

    return _make(out, (a, gamma, beta), backward)


# ------------------------------------------------------------------ matmul

def matmul(a, b):
    """a @ b with numpy's broadcasting rules.

    When a has 3 or more axes and b is 2-D (a dense layer applied to a
    batch of sequences), a's leading axes fold into the rows of one GEMM,
    forward and backward, instead of one GEMM per leading index that
    re-reads b each time.
    """
    a, b = _pair(a, b)
    if a.data.ndim >= 3 and b.data.ndim == 2:
        a2 = a.data.reshape(-1, a.data.shape[-1])
        out = (a2 @ b.data).reshape(a.data.shape[:-1] + b.data.shape[1:])

        def backward(g):
            g2 = g.reshape(-1, g.shape[-1])
            if _needs_grad(a):
                _accum(a, (g2 @ b.data.T).reshape(a.data.shape))
            if _needs_grad(b):
                _accum(b, a2.T @ g2)

        return _make(out, (a, b), backward)
    out = a.data @ b.data

    def backward(g):
        if b.data.ndim == 1:
            raise ValueError("matmul backward needs 2-D+ operands")
        if _needs_grad(a):
            ga = g @ np.swapaxes(b.data, -1, -2)
            _accum(a, _unbroadcast(ga, a.data.shape))
        if _needs_grad(b):
            gb = np.swapaxes(a.data, -1, -2) @ g
            _accum(b, _unbroadcast(gb, b.data.shape))

    return _make(out, (a, b), backward)


# ----------------------------------------------------------- convolutions

def _norm_stride_pad(stride, pad, nd):
    if isinstance(stride, int):
        stride = (stride,) * nd
    stride = tuple(int(s) for s in stride)
    if len(pad) != nd or any(len(p) != 2 for p in pad):
        raise ValueError(f"padding must be {nd} (before, after) pairs, got {pad}")
    pad = tuple((int(p[0]), int(p[1])) for p in pad)
    if any(s < 1 for s in stride):
        raise ValueError(f"strides must be >= 1, got {stride}")
    if any(p < 0 for pr in pad for p in pr):
        raise ValueError(f"padding must be >= 0, got {pad}")
    return stride, pad


def _pad_input(x, pad):
    """x zero-padded on its spatial axes: one zeros buffer, one slice copy."""
    if all(p == (0, 0) for p in pad):
        return x
    sp = x.shape[2:]
    xp = np.zeros(x.shape[:2] + tuple(n + p[0] + p[1] for n, p in zip(sp, pad)),
                  dtype=x.dtype)
    xp[(slice(None), slice(None))
       + tuple(slice(p[0], p[0] + n) for n, p in zip(sp, pad))] = x
    return xp


def _im2col(xp, ksize, stride):
    """(N, C, *sp) -> (C*prod(k), N*P) columns, plus the output spatial shape.

    Row (c, *offset) holds, for every sample and output cell, the input
    value that kernel tap sees; the rows are gathered in (C, *k, N, *out)
    order, so the innermost run of the copy is one strided output row of
    the input.  The result is always C-contiguous: the GEMMs below then
    see one memory layout whatever view the input came as, which keeps
    their rounding independent of it.
    """
    nd = len(ksize)
    axes = tuple(range(2, 2 + nd))
    win = sliding_window_view(xp, ksize, axis=axes)
    sel = (slice(None), slice(None)) + tuple(slice(None, None, s) for s in stride)
    win = win[sel]
    out_sp = win.shape[2:2 + nd]
    # (N, C, *out, *k) -> (C, *k, N, *out)
    order = (1,) + tuple(range(2 + nd, 2 + 2 * nd)) + (0,) + axes
    cols = np.ascontiguousarray(win.transpose(order))
    return cols.reshape(-1, xp.shape[0] * int(np.prod(out_sp))), out_sp


def _conv_out_shape(in_sp, ksize, stride, pad):
    return tuple((n + p[0] + p[1] - k) // s + 1
                 for n, k, s, p in zip(in_sp, ksize, stride, pad))


def _check_kernel_fits(what, shape, ksize, pad):
    """Raise ValueError unless the kernel fits the padded spatial axes."""
    padded = tuple(n + p[0] + p[1] for n, p in zip(shape[2:], pad))
    if any(k > n for k, n in zip(ksize, padded)):
        raise ValueError(
            f"kernel {tuple(ksize)} is larger than the {what} {tuple(shape)} "
            f"padded by {pad} (spatial {padded})")


def _lower(x, ksize, stride, pad):
    """What a conv's GEMMs read, and the output's spatial shape.

    At stride 1 on every axis that is the zero-padded input itself, made
    C-contiguous: the GEMMs read shifted slabs of it (see _slab_gemm), so
    nothing is gathered to keep.  A strided conv's are _im2col's columns.
    """
    xp = _pad_input(x, pad)
    if any(s != 1 for s in stride):
        return _im2col(xp, ksize, stride)
    out_sp = tuple(n - k + 1 for n, k in zip(xp.shape[2:], ksize))
    return np.ascontiguousarray(xp), out_sp


def _slab_layout(sp, out_sp):
    """Element strides of a C-contiguous spatial shape sp, and the span
    of a stride-1 conv's slabs on it: the flat distance from the first
    output cell to the last, plus one."""
    flat = tuple(math.prod(sp[i + 1:]) for i in range(len(sp)))
    return flat, sum((o - 1) * f for o, f in zip(out_sp, flat)) + 1


def _strided(a, shape, strides):
    """View of the C-contiguous a with the given shape and element strides."""
    return np.ndarray(shape, a.dtype, a, 0,
                      tuple(s * a.itemsize for s in strides))


def _cells(y, flat, out_sp):
    """The C-contiguous y (A, B, span), computed over the padded row
    width, as a view of its output cells (A, B, *out_sp): the cells past
    each row's end are cropped."""
    return _strided(y, y.shape[:2] + tuple(out_sp),
                    (y.shape[1] * y.shape[2], y.shape[2]) + flat)


def _slabs(xp, flat, ksize, span):
    """View (N, C, *k, span) of xp: [n, c, *o] is channel c's slab at
    kernel offset o, so (C, *k) flattened is the row order of W as
    (Co, C*prod(k))."""
    n, c = xp.shape[:2]
    size = math.prod(xp.shape[2:])
    return _strided(xp, (n, c) + tuple(ksize) + (span,),
                    (c * size, size) + flat + (1,))


def _shifts(flat, ksize):
    """Flat index of each kernel offset, in kernel order."""
    return [sum(o * f for o, f in zip(off, flat))
            for off in np.ndindex(*ksize)]


def _slab_gemm(w, xp, out_sp):
    """Stride-1 conv of the padded, C-contiguous xp (N, C, *sp): (N, Co, *out).

    Counted over the padded row width (by the flat index j in sp of its
    first input cell), output cell j reads channel c at j + shift(o) for
    kernel offset o.  So an offset's columns are one slab per channel:
    `span` contiguous values from shift(o).  The cells past each output
    row's end read across the row's end; they are computed and cropped.
    Whichever side has fewer channels is stacked over the offsets, so the
    temporary is prod(k)*min(C, Co) rows and nothing of it is kept:
    with C <= Co the slabs (_slabs), copied as (C*prod(k), span) per sample;
    with C > Co the weights, as (prod(k)*Co, C) times the whole input,
    whose offset blocks are then summed at their shifts.  Each sample is
    its own GEMM, as in _conv_gemm.
    """
    n, c = xp.shape[:2]
    co, ksize = w.shape[0], w.shape[2:]
    flat, span = _slab_layout(xp.shape[2:], out_sp)
    if c <= co:
        stacked = np.ascontiguousarray(_slabs(xp, flat, ksize, span))
        y = np.matmul(w.reshape(co, -1), stacked.reshape(n, -1, span))
    else:
        w_rows = np.moveaxis(w, (0, 1), (-2, -1)).reshape(-1, c)  # (*o, co)
        stacked = np.matmul(w_rows, xp.reshape(n, c, -1))
        stacked = stacked.reshape(n, -1, co, stacked.shape[-1])
        y = stacked[:, 0, :, :span].copy()    # offset 0 is shifted by 0
        for k, s in enumerate(_shifts(flat, ksize)[1:], 1):
            y += stacked[:, k, :, s:s + span]
    del stacked  # freed before the cropped copy is allocated
    return np.ascontiguousarray(_cells(y, flat, out_sp))


def _slab_dw(xp, g, w_shape):
    """Weight gradient of _slab_gemm, stacking the same side.

    g (N, Co, *out) is laid on its cells of a zeroed (Co, N, span) and
    contracted over samples and cells, in one GEMM, with the slabs copied
    as (C*prod(k), N*span) (C <= Co), or with the input after g is laid
    at every offset's shift (C > Co).
    """
    n, c = xp.shape[:2]
    co, ksize = w_shape[0], w_shape[2:]
    flat, span = _slab_layout(xp.shape[2:], g.shape[2:])
    gy = np.zeros((co, n, span), dtype=g.dtype)
    _cells(gy, flat, g.shape[2:])[...] = g.swapaxes(0, 1)
    if c <= co:
        slabs = np.moveaxis(_slabs(xp, flat, ksize, span), 0, -2)
        slabs = np.ascontiguousarray(slabs).reshape(-1, n * span)
        return (slabs @ gy.reshape(co, -1).T).T.reshape(w_shape)
    size = math.prod(xp.shape[2:])
    z = np.zeros((math.prod(ksize), co, n, size), dtype=g.dtype)
    for k, s in enumerate(_shifts(flat, ksize)):
        z[k, :, :, s:s + span] = gy
    xf = np.ascontiguousarray(xp.reshape(n, c, size).swapaxes(0, 1))
    dw = (z.reshape(-1, n * size) @ xf.reshape(c, -1).T).reshape(
        tuple(ksize) + (co, c))
    return np.ascontiguousarray(np.moveaxis(dw, (-2, -1), (0, 1)))


def _conv_gemm(w, cols, out_sp):
    """W times what _lower built, one GEMM per sample: (N, Co, *out).

    A padded input (stride 1) goes to _slab_gemm.  From _im2col's columns
    each sample's (C*prod(k), P) block is a strided view of them.  Either
    way a sample's rounding is that of the same conv run on it alone,
    whatever the batch size.
    """
    if cols.ndim != 2:
        return _slab_gemm(w, cols, out_sp)
    co, p = w.shape[0], int(np.prod(out_sp))
    per_sample = cols.reshape(cols.shape[0], -1, p).transpose(1, 0, 2)
    out = np.matmul(w.reshape(co, -1), per_sample)
    return out.reshape(out.shape[:2] + tuple(out_sp))


def _conv_forward(x, w, stride, pad):
    """conv of x by w, (N, Co, *out), and what its GEMMs read (_lower)."""
    cols, out_sp = _lower(x, w.shape[2:], stride, pad)
    return _conv_gemm(w, cols, out_sp), cols


def _conv_dw(cols, g, w_shape):
    """Weight gradient from what _lower built: _slab_dw for a padded
    input, else one GEMM of the columns with g as (Co, N*P)."""
    if cols.ndim != 2:
        return _slab_dw(cols, g, w_shape)
    n, co = g.shape[:2]
    g2 = np.ascontiguousarray(g.reshape(n, co, -1).transpose(1, 0, 2))
    return (cols @ g2.reshape(co, -1).T).T.reshape(w_shape)


def _col2im(g, w, stride, pad, in_sp):
    """Scatter the columns W^T g back onto the padded input, then crop it.

    The adjoint of _im2col followed by the weight matmul, used for strided
    convs only (see _conv_input_grad): for each kernel offset, that
    offset's (C, *out, N) block of W^T g (the rows _im2col gathered for
    it) is one GEMM, added onto the strided window _im2col read.  One block
    at a time keeps the full column matrix, k times the input's size, from
    being allocated.  Unlike _im2col's columns the batch axis is innermost
    here, so that a window row is one contiguous run.
    """
    co, c = w.shape[:2]
    gt = np.moveaxis(g, 0, -1).reshape(co, -1)
    wt = np.ascontiguousarray(np.moveaxis(w, (0, 1), (-1, -2)))  # (*k, C, Co)
    block = (c,) + g.shape[2:] + g.shape[:1]
    padded = tuple(m + p[0] + p[1] for m, p in zip(in_sp, pad))
    xp = np.zeros(block[:1] + padded + block[-1:], dtype=np.result_type(g, w))
    for offset in np.ndindex(*w.shape[2:]):
        win = tuple(slice(i, i + (o - 1) * s + 1, s)
                    for i, o, s in zip(offset, g.shape[2:], stride))
        xp[(slice(None),) + win] += (wt[offset] @ gt).reshape(block)
    crop = tuple(slice(p[0], p[0] + m) for m, p in zip(in_sp, pad))
    return np.ascontiguousarray(np.moveaxis(xp[(slice(None),) + crop], -1, 0))


def _conv_input_grad(g, w, stride, pad, in_sp):
    """Input gradient of a conv of w: (N, C, *in_sp) from g (N, Co, *out).

    At stride 1 on every axis this is a stride-1 conv of g, padded by
    k - 1 - p on each side (cropped where p > k - 1), with the spatially
    flipped, channel-swapped kernel: _slab_gemm's GEMMs on shifted slabs
    of the padded g.  A strided conv's gradient would need g dilated by
    the stride first, which multiplies the work; it keeps _col2im.
    """
    if any(s != 1 for s in stride):
        return _col2im(g, w, stride, pad, in_sp)
    ksize = w.shape[2:]
    tpad = [(k - 1 - p[0], k - 1 - p[1]) for k, p in zip(ksize, pad)]
    g = g[(slice(None), slice(None))
          + tuple(slice(max(-b, 0), n - max(-a, 0))
                  for n, (b, a) in zip(g.shape[2:], tpad))]
    cols, out_sp = _lower(g, ksize, stride,
                          [(max(b, 0), max(a, 0)) for b, a in tpad])
    wf = np.flip(w, axis=tuple(range(2, w.ndim))).swapaxes(0, 1)
    return _conv_gemm(wf, cols, out_sp)


def _conv_operands(a, w, nd, op):
    """a and w as Tensors, checked to have nd + 2 axes each."""
    a = _as_tensor(a)
    w = _as_tensor(w, like=a)
    if a.data.ndim != nd + 2 or w.data.ndim != nd + 2:
        raise ValueError(f"{op} input and weight must have {nd + 2} axes, "
                         f"got shapes {a.data.shape} and {w.data.shape}")
    return a, w


def _conv_nd(a, w, b, stride, pad, nd):
    a, w = _conv_operands(a, w, nd, f"conv{nd}d")
    if a.data.shape[1] != w.data.shape[1]:
        raise ValueError(
            f"input channels {a.data.shape[1]} != weight channels {w.data.shape[1]}")
    stride, pad = _norm_stride_pad(stride, pad, nd)
    _check_kernel_fits("input", a.data.shape, w.data.shape[2:], pad)
    out, cols = _conv_forward(a.data, w.data, stride, pad)
    if not _needs_grad(w):
        cols = None  # only the weight gradient reads them
    parents = [a, w]
    if b is not None:
        b = _as_tensor(b, like=a)
        if b.data.shape != (w.data.shape[0],):
            raise ValueError(
                f"bias shape {b.data.shape} != ({w.data.shape[0]},)")
        out = out + b.data.reshape((1, -1) + (1,) * nd)
        parents.append(b)

    def backward(g):
        if b is not None:
            _accum(b, g.sum(axis=(0,) + tuple(range(2, 2 + nd))))
        if cols is not None:
            _accum(w, _conv_dw(cols, g, w.data.shape))
        if _needs_grad(a):
            _accum(a, _conv_input_grad(g, w.data, stride, pad,
                                       a.data.shape[2:]))

    return _make(out, tuple(parents), backward)


def conv2d(a, w, b=None, stride=1, padding=((0, 0), (0, 0))):
    """2-D convolution (correlation): a (N,C,H,W), w (Co,C,kh,kw)."""
    return _conv_nd(a, w, b, stride, padding, 2)


def conv3d(a, w, b=None, stride=1, padding=((0, 0), (0, 0), (0, 0))):
    """3-D convolution: a (N,C,D,H,W), w (Co,C,kd,kh,kw).  Causal-in-time
    encoders pass left-heavy padding on the first spatial axis."""
    return _conv_nd(a, w, b, stride, padding, 3)


def _conv_transpose_nd(a, w, stride, pad, nd, output_size):
    a, w = _conv_operands(a, w, nd, f"conv_transpose{nd}d")
    stride, pad = _norm_stride_pad(stride, pad, nd)
    if a.data.shape[1] != w.data.shape[0]:
        raise ValueError(
            f"input channels {a.data.shape[1]} != weight out-channels "
            f"{w.data.shape[0]}")
    ksize, in_sp = w.data.shape[2:], a.data.shape[2:]
    if output_size is None:
        output_size = tuple((n - 1) * s + k - p[0] - p[1]
                            for n, s, k, p in zip(in_sp, stride, ksize, pad))
    output_size = tuple(int(v) for v in output_size)
    _check_kernel_fits("output", a.data.shape[:1] + w.data.shape[1:2]
                       + output_size, ksize, pad)
    got = _conv_out_shape(output_size, ksize, stride, pad)
    if min(output_size) < 1 or got != in_sp:
        raise ValueError(
            f"output size {output_size} does not fit input size {in_sp}: "
            f"conv{nd}d with stride {stride}, padding {pad} maps it to {got}")
    out = _conv_input_grad(a.data, w.data, stride, pad, output_size)

    def backward(g):
        cols, g_sp = _lower(g, ksize, stride, pad)
        if _needs_grad(w):
            _accum(w, _conv_dw(cols, a.data, w.data.shape))
        if _needs_grad(a):
            _accum(a, _conv_gemm(w.data, cols, g_sp))

    return _make(out, (a, w), backward)


def conv_transpose2d(a, w, stride=1, padding=((0, 0), (0, 0)),
                     output_size=None):
    """Adjoint of conv2d w.r.t. its input, differentiable in a and w.
    output_size must be a size conv2d maps to a's (default: the smallest)."""
    return _conv_transpose_nd(a, w, stride, padding, 2, output_size)


def conv_transpose3d(a, w, stride=1, padding=((0, 0), (0, 0), (0, 0)),
                     output_size=None):
    return _conv_transpose_nd(a, w, stride, padding, 3, output_size)


def upsample2x(a):
    """Nearest-neighbor x2 upsampling of (N, C, H, W)."""
    a = _as_tensor(a)
    if a.data.ndim != 4:
        raise ValueError(f"upsample2x expects 4 axes, got shape {a.data.shape}")
    out = np.repeat(np.repeat(a.data, 2, axis=2), 2, axis=3)

    def backward(g):
        n, c, h2, w2 = g.shape
        _accum(a, g.reshape(n, c, h2 // 2, 2, w2 // 2, 2).sum(axis=(3, 5)))

    return _make(out, (a,), backward)


def linear_map(a, fwd, adj):
    """Differentiable application of an external linear map.

    ``fwd`` maps ``a.data`` to the output array and ``adj`` must be its
    exact adjoint; the backward pass is then ``adj(grad)``.  Lets sparse
    or matrix-free operators participate in a loss graph.  Results and
    gradients are cast to ``a``'s dtype.
    """
    a = _as_tensor(a)
    out = np.asarray(fwd(a.data)).astype(a.data.dtype, copy=False)

    def backward(g):
        _accum(a, np.asarray(adj(g)))

    return _make(out, (a,), backward)


# ------------------------------------------------------ attention plumbing

def rope_angles(positions, d_head, base=10000.0):
    """Rotation phases: positions x theta_i, theta_i = base^(-2i/d)."""
    if d_head % 2 != 0:
        raise ValueError(f"head size must be even for rotary pairs, got {d_head}")
    positions = np.asarray(positions, dtype=np.float64)
    i = np.arange(d_head // 2, dtype=np.float64)
    theta = base ** (-2.0 * i / d_head)
    return positions[:, None] * theta[None, :]


def rope_apply(a, positions, base=10000.0):
    """Rotary position encoding on (..., seq, heads, d_head).

    Pairs (2i, 2i+1) rotate by angle position * base^(-2i/d); relative
    phases between two positions depend only on their distance.
    """
    a = _as_tensor(a)
    d = a.data.shape[-1]
    seq = a.data.shape[-3]
    positions = np.asarray(positions)
    if positions.shape != (seq,):
        raise ValueError(
            f"positions shape {positions.shape} does not match sequence {seq}")
    ang = rope_angles(positions, d, base)
    cos = np.cos(ang)[:, None, :].astype(a.data.dtype)  # (seq, 1, d/2)
    sin = np.sin(ang)[:, None, :].astype(a.data.dtype)
    x = a.data
    xe = x[..., 0::2]
    xo = x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = xe * cos - xo * sin
    out[..., 1::2] = xe * sin + xo * cos

    def backward(g):
        ge = g[..., 0::2]
        go = g[..., 1::2]
        gx = np.empty_like(g)
        gx[..., 0::2] = ge * cos + go * sin
        gx[..., 1::2] = -ge * sin + go * cos
        _accum(a, gx)

    return _make(out, (a,), backward)


def causal_mask(seq, window=None, dtype=np.float32, keys=None):
    """Additive mask: 0 where key <= query (within window), -inf elsewhere.

    seq queries sit at the last positions of keys consecutive key
    positions (default: keys = seq, queries and keys at the same slots).
    """
    if window is not None and window < 1:
        raise ValueError(f"attention window must be >= 1, got {window}")
    keys = seq if keys is None else keys
    if keys < seq:
        raise ValueError(f"{seq} queries need at least as many keys, got {keys}")
    i = np.arange(keys - seq, keys)[:, None]
    j = np.arange(keys)[None, :]
    allowed = j <= i
    if window is not None:
        allowed &= j > i - window
    m = np.where(allowed, 0.0, -np.inf).astype(dtype)
    return m


def causal_attention(q, k, v, window=None):
    """softmax(mask(q k^T / sqrt(d))) v over (..., seq, heads, d_head).

    k and v may hold more slots than q: the queries are then the last
    slots of the key sequence, and the earlier keys (say, a cache of
    slots already seen) are attended to under the same causal mask.
    The mask zeroes attention weights exactly, so outputs at sequence slot
    i are bitwise independent of slots > i.
    """
    q = _as_tensor(q)
    k = _as_tensor(k, like=q)
    v = _as_tensor(v, like=q)
    qs, ks = q.data.shape, k.data.shape
    if (ks != v.data.shape or qs[:-3] != ks[:-3] or qs[-2:] != ks[-2:]
            or qs[-3] > ks[-3]):
        raise ValueError(
            f"q/k/v shapes do not fit: {qs} {ks} {v.data.shape}; k and v "
            "must match q except for holding at least as many slots")
    seq, heads, d = qs[-3:]
    nd = q.data.ndim
    perm = tuple(range(nd - 3)) + (nd - 2, nd - 3, nd - 1)  # seq<->heads
    qh = transpose(q, perm)
    kh = transpose(k, perm)
    vh = transpose(v, perm)
    logits = scale(matmul(qh, transpose(kh, tuple(range(nd - 2)) + (nd - 1, nd - 2))),
                   1.0 / math.sqrt(d))
    mask = causal_mask(seq, window, dtype=q.data.dtype, keys=ks[-3])
    att = softmax_lastaxis(add(logits, Tensor(mask, dtype=q.data.dtype)))
    out = matmul(att, vh)
    return transpose(out, perm)


# --------------------------------------------------------- gradient checks

def gradcheck(fn, tensors, eps=1e-3, rtol=1e-3, max_coords=None, seed=0):
    """Central finite-difference check of d fn / d tensors.

    fn must return a scalar Tensor.  Checks every coordinate (or a random
    subset of max_coords per tensor) in the tensors' own dtype; use float64
    payloads to measure math rather than float32 rounding.  Returns the
    worst relative error.
    """
    rng = np.random.default_rng(seed)
    for t in tensors:
        t.grad = None
    out = fn()
    out.backward(retain_graph=True)
    worst = 0.0
    for t in tensors:
        if t.grad is None:
            raise ValueError("tensor did not receive a gradient")
        if not t.data.flags.c_contiguous:
            raise ValueError("gradcheck needs contiguous tensor payloads")
        flat = t.data.reshape(-1)
        n = flat.size
        coords = (np.arange(n) if max_coords is None or max_coords >= n
                  else rng.choice(n, size=max_coords, replace=False))
        for c in coords:
            orig = flat[c]
            with no_grad():
                flat[c] = orig + eps
                f_plus = float(fn().data)
                flat[c] = orig - eps
                f_minus = float(fn().data)
                flat[c] = orig
            fd = (f_plus - f_minus) / (2.0 * eps)
            an = float(t.grad.reshape(-1)[c])
            denom = max(abs(fd), abs(an), 1.0)
            worst = max(worst, abs(fd - an) / denom)
    if worst > rtol:
        raise AssertionError(f"gradient check failed: {worst:.3e} > {rtol:.0e}")
    return worst
