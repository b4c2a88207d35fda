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
resolution. The three stages are _encode, _blocks and _decode; _run, the
one way they run, checks the frames, appends the query slot when asked
and runs the slots a caller reads.

stt_apply (taped, batched) runs all T+1 slots: the reference, through
stt_forward and predict_next. refine and the refinement trainer run the
pair alone; the prediction trainer runs T+1 slots and decodes slot T.
Predictor streams one sequence, as the pipeline and rollout do: it keeps
each block's attended keys and values but the query slot's, so a push
runs the two new slots, decodes the last and copies no cache.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .autodiff import (Tensor, add, causal_attention, concat, conv2d, conv3d,
                       gelu, layer_norm, no_grad, reshape, rope_apply,
                       transpose, tslice, upsample2x)
from .errors import ConfigError
from .layers import add_conv, add_layer_norm, add_linear, linear
from .spec import check_fields, fields_from_dict, fields_to_dict, spec

__all__ = [
    "SttConfig",
    "init_stt_params",
    "stt_param_shapes",
    "check_stt_params",
    "stt_apply",
    "Predictor",
    "stt_forward",
    "refine",
    "predict_next",
    "rollout",
]


@dataclass(frozen=True)
class SttConfig:
    """Shape parameters of the spatial-temporal transformer.

    model_dim must divide evenly into heads; image_size must be divisible
    by 8 (three stride-2 encoder stages). window=None means unbounded
    causal context; an integer bounds how far back attention reaches.
    No field caps the sequence length.
    """

    model_dim: int = spec(64, minimum=1)
    heads: int = spec(4, minimum=1)
    layers: int = spec(2, minimum=1)
    image_size: int = spec(64)
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

    @classmethod
    def from_dict(cls, d):
        """Inverse of to_dict. Checkpoints written while the model had a
        history cap also carry "max_context"; that one key is dropped."""
        return fields_from_dict(
            cls, {k: v for k, v in d.items() if k != "max_context"})


def _stt_layers(cfg, conv, dense, norm):
    """Declare every tensor of the model once, in init order:
    conv(name, in_channels, out_channels, kernel), dense(name, in_dim,
    out_dim) and norm(name, dim) each stand for one layer."""
    c0, c1, c2 = cfg.enc_channels
    d = cfg.model_dim
    conv("enc0", 1, c0, (3, 3, 3))
    conv("enc1", c0, c1, (3, 3, 3))
    conv("enc2", c1, c2, (3, 3, 3))
    conv("embed", c2, d, (1, 1, 1))
    for i in range(cfg.layers):
        norm(f"blk{i}.ln1", d)
        dense(f"blk{i}.qkv", d, 3 * d)
        dense(f"blk{i}.proj", d, d)
        norm(f"blk{i}.ln2", d)
        dense(f"blk{i}.mlp1", d, 4 * d)
        dense(f"blk{i}.mlp2", 4 * d, d)
    norm("final_ln", d)
    conv("dec0", d, c2, (3, 3))
    conv("skip1", d, c1, (1, 1))
    conv("dec1", c2 + c1, c1, (3, 3))
    conv("skip2", d, c0, (1, 1))
    conv("dec2", c1 + c0, c0, (3, 3))
    conv("head", c0 + 1, 1, (1, 1))


def init_stt_params(cfg, seed=0):
    """Fresh parameter dict for the given config, deterministic in seed."""
    rng = np.random.default_rng(seed)
    params = {}
    _stt_layers(cfg, partial(add_conv, params, rng),
                partial(add_linear, params, rng),
                partial(add_layer_norm, params))
    return params


def stt_param_shapes(cfg):
    """Name -> shape of every tensor init_stt_params(cfg) makes, in its
    order, without drawing any weights."""
    shapes = {}

    def conv(name, in_channels, out_channels, kernel):
        shapes[name + ".w"] = (out_channels, in_channels) + kernel
        shapes[name + ".b"] = (out_channels,)

    def dense(name, in_dim, out_dim):
        shapes[name + ".w"] = (in_dim, out_dim)
        shapes[name + ".b"] = (out_dim,)

    def norm(name, dim):
        shapes[name + ".g"] = shapes[name + ".b"] = (dim,)

    _stt_layers(cfg, conv, dense, norm)
    return shapes


def check_stt_params(params, cfg, label, image_size):
    """The one check that a checkpoint fits a run: raise ConfigError at
    `<label>.image_size` unless cfg.image_size is image_size, and at
    `<label>.params/<name>` unless params holds exactly the tensors of
    stt_param_shapes(cfg), each of its shape."""
    if cfg.image_size != image_size:
        raise ConfigError(f"{label}.image_size",
                          f"checkpoint is {cfg.image_size}, "
                          f"the run needs {image_size}")
    shapes = stt_param_shapes(cfg)
    for name, shape in shapes.items():
        if name not in params:
            raise ConfigError(f"{label}.params/{name}",
                              "checkpoint lacks this tensor")
        if tuple(params[name].shape) != shape:
            raise ConfigError(f"{label}.params/{name}",
                              f"checkpoint has shape {tuple(params[name].shape)}, "
                              f"the model needs {shape}")
    extra = sorted(set(params) - set(shapes))
    if extra:
        raise ConfigError(f"{label}.params/{extra[0]}",
                          "checkpoint has a tensor the model does not use")


# Temporal kernel 3, left-padded, in each of the three encoder convs: the
# tokens of a slot depend on it and the 3 * 2 = 6 slots before it.
_CAUSAL_PAD = ((2, 0), (1, 1), (1, 1))
_ENCODER_REACH = 3 * _CAUSAL_PAD[0][0]
_SAME_PAD = ((1, 1), (1, 1))


def _check_frames(cfg, frames):
    """Size and finiteness of (..., H, W) frames, of any number."""
    h, w = frames.shape[-2:]
    if h != cfg.image_size or w != cfg.image_size:
        raise ValueError(
            f"frame size {h}x{w} does not match configured {cfg.image_size}")
    if not np.all(np.isfinite(frames)):
        raise ValueError("non-finite values in input frames")


def _encode(params, cfg, seq):
    """Causal conv encoder plus embedding: slot frames (B, s, H, W) ->
    tokens (B*g*g, s, d), one sequence of s slots per spatial patch."""
    b, s, h, w = seq.shape
    g = cfg.grid
    v = reshape(seq, (b, 1, s, h, w))
    v = gelu(conv3d(v, params["enc0.w"], params["enc0.b"],
                    stride=(1, 2, 2), padding=_CAUSAL_PAD))
    v = gelu(conv3d(v, params["enc1.w"], params["enc1.b"],
                    stride=(1, 2, 2), padding=_CAUSAL_PAD))
    v = gelu(conv3d(v, params["enc2.w"], params["enc2.b"],
                    stride=(1, 2, 2), padding=_CAUSAL_PAD))
    v = conv3d(v, params["embed.w"], params["embed.b"])
    tok = transpose(v, (0, 3, 4, 2, 1))
    return reshape(tok, (b * g * g, s, cfg.model_dim))


def _blocks(params, cfg, tok, positions, cache=None):
    """Attention blocks on tokens (N, s, d) at the given slot positions.

    cache, if given, holds one (k, v) pair per block: the roped keys and
    values (N, c, heads, d/heads) of the c slots right before
    positions[0], which the new slots attend to as well. Returns the
    tokens and each block's attended (k, v): the cache, then the new slots.
    """
    n, s, d = tok.shape
    heads = cfg.heads
    kv = []
    for i in range(cfg.layers):
        hn = layer_norm(tok, params[f"blk{i}.ln1.g"], params[f"blk{i}.ln1.b"])
        qkv = linear(hn, params, f"blk{i}.qkv")
        q, k, va = (reshape(tslice(qkv, (slice(None), slice(None),
                                         slice(j * d, (j + 1) * d))),
                            (n, s, heads, d // heads)) for j in range(3))
        q = rope_apply(q, positions)
        k = rope_apply(k, positions)
        if cache is not None:
            k = concat([cache[i][0], k], axis=1)
            va = concat([cache[i][1], va], axis=1)
        kv.append((k, va))
        att = causal_attention(q, k, va, window=cfg.window)
        att = reshape(att, (n, s, d))
        tok = add(tok, linear(att, params, f"blk{i}.proj"))
        hn = layer_norm(tok, params[f"blk{i}.ln2.g"], params[f"blk{i}.ln2.b"])
        hn = linear(gelu(linear(hn, params, f"blk{i}.mlp1")), params, f"blk{i}.mlp2")
        tok = add(tok, hn)
    return tok, kv


def _decode(params, cfg, tok, seq):
    """Per-slot decoder: tokens (B*g*g, s, d) and the slot frames
    (B, s, H, W), whose raw pixels feed the head -> frames (B, s, H, W)."""
    b, s, h, w = seq.shape
    g, d = cfg.grid, cfg.model_dim
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


def _run(params, cfg, seq, positions, cache=None, decode=None, query=False):
    """Check the slot frames seq (B, s, H, W), array or Tensor, and with
    query append a copy of the last (the query slot). Encode them, run the
    blocks on the last len(positions) slots at those positions (and the
    cache, see _blocks), and decode the last `decode` of them (all when
    None). Returns the frames and each block's attended (k, v)."""
    _check_frames(cfg, seq.data if isinstance(seq, Tensor) else seq)
    if query:
        seq = concat([seq, tslice(seq, (slice(None), slice(-1, None)))], axis=1)
    ran = (slice(None), slice(-len(positions), None))
    tok, kv = _blocks(params, cfg, tslice(_encode(params, cfg, seq), ran),
                      positions, cache)
    out = (slice(None), slice(None if decode is None else -decode, None))
    return _decode(params, cfg, tslice(tok, out), tslice(seq, out)), kv


def stt_apply(params, cfg, frames):
    """Differentiable batched forward pass.

    frames: Tensor or array of shape (B, T, H, W). Returns a Tensor of
    shape (B, T+1, H, W); through stt_forward, the reference for refine,
    the streaming Predictor and the trainers' slot sets.
    """
    if not isinstance(frames, Tensor):
        frames = Tensor(np.asarray(frames, dtype=np.float32))
    if frames.ndim != 4:
        raise ValueError(f"expected (B, T, H, W) input, got shape {frames.shape}")
    t = frames.shape[1]
    if t < 1:
        raise ValueError("need at least one input frame")
    return _run(params, cfg, frames, np.arange(t + 1), query=True)[0]


class Predictor:
    """Streaming next-frame prediction along one sequence.

    push(frames) appends one frame (H, W), or several (n, H, W), to the
    history and returns slot T of stt_forward on the whole history, up to
    float32 rounding. Appending leaves every earlier slot's keys and
    values unchanged (the mask is causal), so a push runs only the new
    slots (the old query slot, now real, and the new query slot) through
    the blocks against each block's cached roped K/V, encodes them with
    the _ENCODER_REACH slots they depend on, and decodes the last. The
    cache, views of the K/V attention read less the query slot, grows by
    one slot per frame, unless cfg.window caps it at `window` slots.
    """

    def __init__(self, params, cfg):
        self.params = params
        self.cfg = cfg
        self.length = 0
        self._recent = np.zeros((0, cfg.image_size, cfg.image_size),
                                dtype=np.float32)
        self._cache = None

    def push(self, frames):
        frames = np.asarray(frames, dtype=np.float32)
        if frames.ndim == 2:
            frames = frames[None]
        if frames.ndim != 3 or frames.shape[0] < 1:
            raise ValueError(f"expected (H, W) or (n, H, W) frames, "
                             f"got shape {frames.shape}")
        # before the concatenation, which a wrong frame size would break
        _check_frames(self.cfg, frames)
        t = self.length + frames.shape[0]

        real = np.concatenate([self._recent, frames])
        with no_grad():
            out, kv = _run(self.params, self.cfg, real[None],
                           np.arange(self.length, t + 1), self._cache, 1,
                           query=True)

        window = self.cfg.window
        keep = (slice(None), slice(None if window is None else -window - 1, -1))
        self._cache = [(k.data[keep], v.data[keep]) for k, v in kv]
        self._recent = real[-_ENCODER_REACH:]
        self.length = t
        return out.data[0, 0]


def stt_forward(params, cfg, frames):
    """Single-sequence inference: (T, H, W) array in, (T+1, H, W) array out."""
    frames = np.asarray(frames, dtype=np.float32)
    if frames.ndim != 3:
        raise ValueError(f"expected (T, H, W) input, got shape {frames.shape}")
    with no_grad():
        out = stt_apply(params, cfg, frames[None])
    return out.data[0]


def refine(params, cfg, noisy_pair):
    """Re-estimate an initial pair: stt_forward's slots 0, 1, no query slot."""
    noisy_pair = np.asarray(noisy_pair, dtype=np.float32)
    if noisy_pair.ndim != 3 or noisy_pair.shape[0] != 2:
        raise ValueError("refine expects exactly 2 frames")
    with no_grad():
        return _run(params, cfg, noisy_pair[None], np.arange(2))[0].data[0]


def predict_next(params, cfg, history):
    """Next-frame estimate from the reconstruction history (slot T), run
    over the whole history; the reference for Predictor.push."""
    history = np.asarray(history, dtype=np.float32)
    if history.ndim != 3 or history.shape[0] < 1:
        raise ValueError("history must contain at least one frame")
    return stt_forward(params, cfg, history)[-1]


def rollout(params, cfg, init_frames, n_steps):
    """Autoregressive continuation: append n_steps predicted frames,
    streamed through one Predictor (the first step runs the same stages
    over the same slots as predict_next on init_frames)."""
    frames = [np.asarray(f, dtype=np.float32) for f in init_frames]
    if not frames:
        raise ValueError("need at least one initial frame")
    predictor = Predictor(params, cfg)
    new = np.stack(frames)
    for _ in range(int(n_steps)):
        new = predictor.push(new)
        frames.append(new)
    return np.stack(frames)
