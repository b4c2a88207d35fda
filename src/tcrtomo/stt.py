"""Causal spatial-temporal transformer for frame refinement and prediction.

One architecture serves two roles: a refinement model cleaning up the two
initial algebraic reconstructions, and a prediction model proposing the
next frame from the reconstruction history. Given T input frames the
model returns T+1 frames: slots 0..T-1 re-estimate the inputs, slot T is
the next-frame prediction produced by an appended query slot initialized
as a copy of the last input frame.

Stages: causal 3-D conv encoder (temporal kernels left-padded so features
at time t never see frames after t), patch embedding to the model
dimension, per-patch temporal attention (spatial patches ride the batch
axis) with rotary position embeddings and a causal mask, and a per-slot
2-D conv decoder whose skip connections all consume 1x1 projections of
the final transformer feature map, plus the raw input frame at full
resolution.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import (Tensor, add, causal_attention, concat, conv2d, conv3d,
                       gelu, layer_norm, no_grad, reshape, rope_apply,
                       transpose, tslice, upsample2x)
from .errors import ConfigError
from .layers import (add_conv2d, add_conv3d, add_layer_norm, add_linear,
                     linear)
from .spec import check_fields, fields_from_dict, fields_to_dict, spec

__all__ = [
    "SttConfig",
    "init_stt_params",
    "stt_param_count",
    "stt_apply",
    "stt_forward",
    "refine",
    "predict_next",
    "rollout",
    "bochner_distance",
]


@dataclass(frozen=True)
class SttConfig:
    """Shape parameters of the spatial-temporal transformer.

    model_dim must divide evenly into heads; image_size must be divisible
    by 8 (three stride-2 encoder stages). window=None means unbounded
    causal context; an integer bounds how far back attention reaches.
    """

    model_dim: int = spec(64, minimum=1)
    heads: int = spec(4, minimum=1)
    layers: int = spec(2, minimum=1)
    image_size: int = spec(64)
    max_context: int = spec(64, minimum=1)
    window: int | None = spec(None, minimum=1)
    enc_channels: tuple[int, ...] = spec((16, 32, 64), minimum=1, length=3)

    def __post_init__(self):
        check_fields(self)
        if self.model_dim % self.heads != 0:
            raise ConfigError("/model_dim", "must be divisible by heads")
        if self.image_size % 8 != 0:
            raise ConfigError("/image_size", "must be divisible by 8")

    @property
    def grid(self):
        return self.image_size // 8

    to_dict = fields_to_dict
    from_dict = classmethod(fields_from_dict)


def init_stt_params(cfg, seed=0):
    """Fresh parameter dict for the given config, deterministic in seed."""
    rng = np.random.default_rng(seed)
    c0, c1, c2 = cfg.enc_channels
    d = cfg.model_dim
    params = {}
    add_conv3d(params, rng, "enc0", 1, c0, (3, 3, 3))
    add_conv3d(params, rng, "enc1", c0, c1, (3, 3, 3))
    add_conv3d(params, rng, "enc2", c1, c2, (3, 3, 3))
    add_conv3d(params, rng, "embed", c2, d, (1, 1, 1))
    for i in range(cfg.layers):
        add_layer_norm(params, f"blk{i}.ln1", d)
        add_linear(params, rng, f"blk{i}.qkv", d, 3 * d)
        add_linear(params, rng, f"blk{i}.proj", d, d)
        add_layer_norm(params, f"blk{i}.ln2", d)
        add_linear(params, rng, f"blk{i}.mlp1", d, 4 * d)
        add_linear(params, rng, f"blk{i}.mlp2", 4 * d, d)
    add_layer_norm(params, "final_ln", d)
    add_conv2d(params, rng, "dec0", d, c2, (3, 3))
    add_conv2d(params, rng, "skip1", d, c1, (1, 1))
    add_conv2d(params, rng, "dec1", c2 + c1, c1, (3, 3))
    add_conv2d(params, rng, "skip2", d, c0, (1, 1))
    add_conv2d(params, rng, "dec2", c1 + c0, c0, (3, 3))
    add_conv2d(params, rng, "head", c0 + 1, 1, (1, 1))
    return params


def stt_param_count(cfg):
    """Closed-form number of scalars in init_stt_params(cfg)."""
    c0, c1, c2 = cfg.enc_channels
    d = cfg.model_dim
    n = c0 * 27 + c0 + c1 * c0 * 27 + c1 + c2 * c1 * 27 + c2
    n += d * c2 + d
    per_block = (2 * d) + (d * 3 * d + 3 * d) + (d * d + d) \
        + (2 * d) + (4 * d * d + 4 * d) + (4 * d * d + d)
    n += cfg.layers * per_block + 2 * d
    n += c2 * d * 9 + c2
    n += c1 * d + c1
    n += c1 * (c2 + c1) * 9 + c1
    n += c0 * d + c0
    n += c0 * (c1 + c0) * 9 + c0
    n += 1 * (c0 + 1) + 1
    return n


_CAUSAL_PAD = ((2, 0), (1, 1), (1, 1))
_SAME_PAD = ((1, 1), (1, 1))


def stt_apply(params, cfg, frames):
    """Differentiable batched forward pass.

    frames: Tensor or array of shape (B, T, H, W). Returns a Tensor of
    shape (B, T+1, H, W). Used directly by the training loops; the public
    single-sequence wrappers below run it without taping.
    """
    if not isinstance(frames, Tensor):
        frames = Tensor(np.asarray(frames, dtype=np.float32))
    if frames.ndim != 4:
        raise ValueError(f"expected (B, T, H, W) input, got shape {frames.shape}")
    b, t, h, w = frames.shape
    if t < 1:
        raise ValueError("need at least one input frame")
    if t > cfg.max_context:
        raise ValueError(f"sequence length {t} exceeds max context {cfg.max_context}")
    if h != cfg.image_size or w != cfg.image_size:
        raise ValueError(
            f"frame size {h}x{w} does not match configured {cfg.image_size}")
    if not np.all(np.isfinite(frames.data)):
        raise ValueError("non-finite values in input frames")

    d = cfg.model_dim
    heads = cfg.heads
    dk = d // heads
    g = cfg.grid
    s = t + 1

    query = tslice(frames, (slice(None), slice(t - 1, t)))
    seq = concat([frames, query], axis=1)

    v = reshape(seq, (b, 1, s, h, w))
    v = gelu(conv3d(v, params["enc0.w"], params["enc0.b"],
                    stride=(1, 2, 2), padding=_CAUSAL_PAD))
    v = gelu(conv3d(v, params["enc1.w"], params["enc1.b"],
                    stride=(1, 2, 2), padding=_CAUSAL_PAD))
    v = gelu(conv3d(v, params["enc2.w"], params["enc2.b"],
                    stride=(1, 2, 2), padding=_CAUSAL_PAD))
    v = conv3d(v, params["embed.w"], params["embed.b"])

    tok = transpose(v, (0, 3, 4, 2, 1))
    tok = reshape(tok, (b * g * g, s, d))

    positions = list(range(s))
    for i in range(cfg.layers):
        hn = layer_norm(tok, params[f"blk{i}.ln1.g"], params[f"blk{i}.ln1.b"])
        qkv = linear(hn, params, f"blk{i}.qkv")
        q = reshape(tslice(qkv, (slice(None), slice(None), slice(0, d))),
                    (b * g * g, s, heads, dk))
        k = reshape(tslice(qkv, (slice(None), slice(None), slice(d, 2 * d))),
                    (b * g * g, s, heads, dk))
        va = reshape(tslice(qkv, (slice(None), slice(None), slice(2 * d, 3 * d))),
                     (b * g * g, s, heads, dk))
        q = rope_apply(q, positions)
        k = rope_apply(k, positions)
        att = causal_attention(q, k, va, window=cfg.window)
        att = reshape(att, (b * g * g, s, d))
        tok = add(tok, linear(att, params, f"blk{i}.proj"))
        hn = layer_norm(tok, params[f"blk{i}.ln2.g"], params[f"blk{i}.ln2.b"])
        hn = linear(gelu(linear(hn, params, f"blk{i}.mlp1")), params, f"blk{i}.mlp2")
        tok = add(tok, hn)
    tok = layer_norm(tok, params["final_ln.g"], params["final_ln.b"])

    z = reshape(tok, (b, g, g, s, d))
    z = transpose(z, (0, 3, 4, 1, 2))
    z = reshape(z, (b * s, d, g, g))

    u = upsample2x(gelu(conv2d(z, params["dec0.w"], params["dec0.b"],
                               padding=_SAME_PAD)))
    s1 = upsample2x(gelu(conv2d(z, params["skip1.w"], params["skip1.b"])))
    u = concat([u, s1], axis=1)
    u = upsample2x(gelu(conv2d(u, params["dec1.w"], params["dec1.b"],
                               padding=_SAME_PAD)))
    s2 = upsample2x(upsample2x(gelu(conv2d(z, params["skip2.w"],
                                           params["skip2.b"]))))
    u = concat([u, s2], axis=1)
    u = upsample2x(gelu(conv2d(u, params["dec2.w"], params["dec2.b"],
                               padding=_SAME_PAD)))
    raw = reshape(seq, (b * s, 1, h, w))
    out = conv2d(concat([u, raw], axis=1), params["head.w"], params["head.b"])
    return reshape(out, (b, s, h, w))


def stt_forward(params, cfg, frames):
    """Single-sequence inference: (T, H, W) array in, (T+1, H, W) array out."""
    frames = np.asarray(frames, dtype=np.float32)
    if frames.ndim != 3:
        raise ValueError(f"expected (T, H, W) input, got shape {frames.shape}")
    with no_grad():
        out = stt_apply(params, cfg, frames[None])
    return out.data[0]


def refine(params, cfg, noisy_pair):
    """Re-estimate both frames of an initial reconstruction pair."""
    noisy_pair = np.asarray(noisy_pair, dtype=np.float32)
    if noisy_pair.ndim != 3 or noisy_pair.shape[0] != 2:
        raise ValueError("refine expects exactly 2 frames")
    return stt_forward(params, cfg, noisy_pair)[:2]


def predict_next(params, cfg, history):
    """Next-frame estimate from the reconstruction history (slot T)."""
    history = np.asarray(history, dtype=np.float32)
    if history.ndim != 3 or history.shape[0] < 1:
        raise ValueError("history must contain at least one frame")
    return stt_forward(params, cfg, history)[-1]


def rollout(params, cfg, init_frames, n_steps):
    """Autoregressive continuation: append n_steps predicted frames."""
    frames = [np.asarray(f, dtype=np.float32) for f in init_frames]
    if not frames:
        raise ValueError("need at least one initial frame")
    for _ in range(int(n_steps)):
        frames.append(predict_next(params, cfg, np.stack(frames)))
    return np.stack(frames)


def bochner_distance(a, b, p=2):
    """Sequence distance (sum_t ||a(t) - b(t)||_p^p)^(1/p)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.ndim < 1:
        raise ValueError("expected a frame sequence, got a scalar")
    p = float(p)
    if p < 1:
        raise ValueError("p must be at least 1")
    diff = np.abs(a - b).reshape(a.shape[0], -1)
    return float(np.sum(diff ** p) ** (1.0 / p))
