"""Parameter initialization and small apply-helpers for the learned models.

Parameters live in flat dicts mapping a dotted name to an autodiff Tensor.
Initializers follow common practice: truncated normal (std 0.02) for
linear and attention projections, fan-in scaled normals for convolutions,
ones/zeros for normalization scale/shift.
"""

import numpy as np

from .autodiff import Tensor, add, matmul

__all__ = [
    "trunc_normal",
    "kaiming_conv",
    "add_linear",
    "add_conv",
    "add_layer_norm",
    "linear",
]


def trunc_normal(rng, shape, std=0.02):
    """Normal samples with entries outside +-2 std redrawn.

    Deterministic given the generator state. Returns float32.
    """
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while np.any(bad):
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out.astype(np.float32)


def kaiming_conv(rng, out_channels, in_channels, kernel):
    """Fan-in scaled normal init for a conv weight (out, in, *kernel)."""
    kernel = tuple(int(k) for k in kernel)
    fan_in = in_channels * int(np.prod(kernel))
    std = float(np.sqrt(2.0 / fan_in))
    w = rng.normal(0.0, std, size=(out_channels, in_channels) + kernel)
    return w.astype(np.float32)


def _store(params, name, array):
    if name in params:
        raise ValueError(f"duplicate parameter name {name!r}")
    params[name] = Tensor(array, requires_grad=True)


def add_linear(params, rng, name, in_dim, out_dim):
    """Register weight (in, out) and bias for a dense layer."""
    _store(params, name + ".w", trunc_normal(rng, (in_dim, out_dim)))
    _store(params, name + ".b", np.zeros(out_dim, dtype=np.float32))


def add_conv(params, rng, name, in_channels, out_channels, kernel):
    """Register weight (out, in, *kernel) and bias for a conv layer; the
    length of the kernel tuple gives the rank."""
    _store(params, name + ".w", kaiming_conv(rng, out_channels, in_channels, kernel))
    _store(params, name + ".b", np.zeros(out_channels, dtype=np.float32))


def add_layer_norm(params, name, dim):
    _store(params, name + ".g", np.ones(dim, dtype=np.float32))
    _store(params, name + ".b", np.zeros(dim, dtype=np.float32))


def linear(x, params, name):
    """Apply a dense layer to the last axis of x."""
    return add(matmul(x, params[name + ".w"]), params[name + ".b"])
