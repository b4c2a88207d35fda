"""Adversarially trained unrolled primal-dual baseline.

A generator unrolls learned primal-dual updates around the fixed scan
operator, starting from filtered backprojection; a small convolutional
critic scores images.  Training alternates a Wasserstein-style critic
loss with gradient penalty against a generator loss balancing data
fidelity and the critic score, in three phases: critic warmup, generator
warmup, adversarial.  Batch size is 1 throughout, so every expectation
collapses to a single-sample estimate.

Two modes share the code: "static2d" treats single frames with 2-D
convolutions, "dynamic3d" treats whole sequences with 3-D convolutions.
Per-step sinograms of a sequence can have different angle counts, so the
dynamic data volume is a (T, max_angles, n_offsets) box; each step fills
the first rows of its slice and the padding rows stay zero on both the
measurement and the forward-projection channel, carrying no gradient
back to the image.
"""

import os
from dataclasses import dataclass

import numpy as np

from .autodiff import (Tensor, add, broadcast_to, concat, conv2d, conv3d,
                       conv_transpose2d, conv_transpose3d, leaky_relu,
                       linear_map, matmul, mul, no_grad, reshape, scale,
                       sqrt, sub, tmean, transpose, tsum)
from .checkpoint import save_checkpoint
from .errors import ConfigError
from .geometry import fbp, operator_for_angles
from .layers import add_conv, add_linear, linear
from .optim import init_adamw
from .spec import check_fields, fields_to_dict, spec
from .training import _update, write_log

__all__ = [
    "MODES",
    "UarConfig",
    "UarTrainConfig",
    "init_uar_params",
    "generator_params",
    "critic_params",
    "StaticScanOperator",
    "SequenceScanOperator",
    "uar_generator",
    "uar_reconstruct",
    "critic_value",
    "reg_loss",
    "gen_loss",
    "train_uar",
]

MODES = ("static2d", "dynamic3d")

# slope of every leaky rectifier in the generator and critic
LEAKY_SLOPE = 0.2

# guards the gradient-norm sqrt at exactly zero input gradient
_GRAD_NORM_EPS = 1e-12

# initial value of every unrolled layer's trainable step sizes sigma, tau
STEP_INIT = 0.01

# Adam settings of the critic and generator optimisers (no weight decay)
ADAM_BETAS = (0.5, 0.99)
ADAM_EPS = 1e-8


def _check_mode(mode):
    if mode not in MODES:
        raise ConfigError("mode", f"must be one of {MODES}, got {mode!r}")


@dataclass(frozen=True)
class UarConfig:
    """Network shape; channel widths are desk defaults, depth follows L=20."""

    unroll: int = spec(20, minimum=1)
    gamma_channels: int = spec(32, minimum=1)
    critic_channels: tuple[int, ...] = spec((16, 16, 32, 32, 32, 32),
                                            minimum=1, length=6)
    critic_hidden: int = spec(64, minimum=1)

    def __post_init__(self):
        check_fields(self)

    to_dict = fields_to_dict


@dataclass(frozen=True)
class UarTrainConfig:
    """Three-phase protocol: 5 + 5 warmup epochs, 10 adversarial epochs."""

    phase1_epochs: int = spec(5, minimum=0)
    phase2_epochs: int = spec(5, minimum=0)
    phase3_epochs: int = spec(10, minimum=0)
    lr_warmup: float = spec(1e-5, above=0.0)
    lr_adversarial: float = spec(2e-5, above=0.0)
    alpha: float = spec(0.1, minimum=0.0)
    lambda_gp: float = spec(10.0, minimum=0.0)
    seed: int = 0
    out_dir: str | None = None
    log_path: str | None = None

    def __post_init__(self):
        check_fields(self)
        if self.phase1_epochs + self.phase2_epochs + self.phase3_epochs < 1:
            raise ConfigError("/phase1_epochs",
                              "at least one phase needs epochs")


# ------------------------------------------------------------- parameters

def init_uar_params(mode, cfg=None, seed=0):
    """Initialize generator ("gen.*") and critic ("reg.*") parameters.

    Per unrolled layer l the generator owns an unshared dual net d{l}
    (channels 4 -> width -> width -> 1: state, step-size channel,
    projected image, measured data), an unshared primal net p{l}
    (3 -> width -> width -> 1), and trainable step sizes sigma{l}/tau{l},
    both starting at STEP_INIT.  The last conv c2 of every dual and primal
    net starts at zero, weight and bias, so each residual branch is a no-op
    at init and a random-init generator returns its FBP exactly: Fixup's
    zero-init of each residual branch's last layer (Zhang, Dauphin & Ma
    2019).  Without it the unrolled updates compound with depth.  c2 still
    draws its weights first, so every other tensor keeps its random draws.
    The critic is one same-padded conv per cfg.critic_channels entry,
    global average pooling, and two dense layers down to a scalar.
    """
    _check_mode(mode)
    cfg = cfg if cfg is not None else UarConfig()
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 404]))
    kernel = (3,) * (2 if mode == "static2d" else 3)
    params = {}
    gc = cfg.gamma_channels
    for layer in range(cfg.unroll):
        add_conv(params, rng, f"gen.d{layer}.c0", 4, gc, kernel)
        add_conv(params, rng, f"gen.d{layer}.c1", gc, gc, kernel)
        add_conv(params, rng, f"gen.d{layer}.c2", gc, 1, kernel)
        add_conv(params, rng, f"gen.p{layer}.c0", 3, gc, kernel)
        add_conv(params, rng, f"gen.p{layer}.c1", gc, gc, kernel)
        add_conv(params, rng, f"gen.p{layer}.c2", gc, 1, kernel)
        for net in ("d", "p"):  # the c2 bias is zero like every conv bias
            params[f"gen.{net}{layer}.c2.w"].data.fill(0.0)
        params[f"gen.sigma{layer}"] = Tensor(
            np.full((1,), STEP_INIT, dtype=np.float32), requires_grad=True)
        params[f"gen.tau{layer}"] = Tensor(
            np.full((1,), STEP_INIT, dtype=np.float32), requires_grad=True)
    in_ch = 1
    for j, ch in enumerate(cfg.critic_channels):
        add_conv(params, rng, f"reg.c{j}", in_ch, ch, kernel)
        in_ch = ch
    add_linear(params, rng, "reg.fc1", in_ch, cfg.critic_hidden)
    add_linear(params, rng, "reg.fc2", cfg.critic_hidden, 1)
    return params


def generator_params(params):
    """The "gen." subset, sharing the same Tensor objects."""
    return {k: v for k, v in params.items() if k.startswith("gen.")}


def critic_params(params):
    """The "reg." subset, sharing the same Tensor objects."""
    return {k: v for k, v in params.items() if k.startswith("reg.")}


def _conv_ndim(params, name):
    return params[name].data.ndim - 2


def _unroll_depth(params):
    depth = sum(1 for k in params if k.startswith("gen.sigma"))
    if depth < 1:
        raise ValueError("parameter dict holds no generator layers")
    return depth


def _critic_depth(params):
    return sum(1 for k in params if k.startswith("reg.c") and k.endswith(".w"))


def _same_pads(w):
    return tuple((k // 2, (k - 1) // 2) for k in w.data.shape[2:])


def _conv_same(x, w, b):
    op = conv2d if w.data.ndim == 4 else conv3d
    return op(x, w, b, stride=1, padding=_same_pads(w))


def _gamma_apply(params, prefix, x):
    """3-conv net with leaky rectifiers between layers, linear output."""
    h = leaky_relu(_conv_same(x, params[f"{prefix}.c0.w"],
                              params[f"{prefix}.c0.b"]), LEAKY_SLOPE)
    h = leaky_relu(_conv_same(h, params[f"{prefix}.c1.w"],
                              params[f"{prefix}.c1.b"]), LEAKY_SLOPE)
    return _conv_same(h, params[f"{prefix}.c2.w"], params[f"{prefix}.c2.b"])


# -------------------------------------------------------- scan operators

class StaticScanOperator:
    """Single-frame scan: one forward/adjoint pair plus its FBP inverse."""

    def __init__(self, op):
        self.op = op
        self.image_shape = tuple(op.in_shape)
        self.data_shape = tuple(op.out_shape)

    def forward(self, x):
        return self.op.forward(x)

    def adjoint(self, y):
        return self.op.adjoint(y)

    def fbp(self, psi):
        return fbp(psi, self.op.angles, self.op.offsets, self.op.in_shape[0])


class SequenceScanOperator:
    """Whole-sequence scan over per-step operators with a padded data box.

    Data arrays are (n_steps, max_angles, n_offsets); step t occupies the
    first n_angles(t) rows of its slice.  forward() writes zeros into the
    padding rows and adjoint() never reads them, so padded entries carry
    neither measurements nor gradients.
    """

    def __init__(self, ops):
        ops = list(ops)
        if not ops:
            raise ValueError("sequence operator needs at least one step")
        img = tuple(ops[0].in_shape)
        n_det = ops[0].out_shape[1]
        for t, op in enumerate(ops):
            if tuple(op.in_shape) != img or op.out_shape[1] != n_det:
                raise ValueError(
                    f"step {t} operator shapes {op.in_shape}/{op.out_shape} do "
                    f"not match step 0 ({img}, n_offsets {n_det})")
        self.ops = ops
        self.image_shape = (len(ops),) + img
        self.max_angles = max(op.out_shape[0] for op in ops)
        self.data_shape = (len(ops), self.max_angles, n_det)

    def forward(self, x):
        x = np.asarray(x)
        out = np.zeros(self.data_shape, dtype=np.float64)
        for t, op in enumerate(self.ops):
            out[t, :op.out_shape[0]] = op.forward(x[t])
        return out

    def adjoint(self, y):
        y = np.asarray(y)
        out = np.empty(self.image_shape, dtype=np.float64)
        for t, op in enumerate(self.ops):
            out[t] = op.adjoint(y[t, :op.out_shape[0]])
        return out

    def fbp(self, psi):
        psi = np.asarray(psi)
        size = self.image_shape[-1]
        return np.stack([
            fbp(psi[t, :op.out_shape[0]], op.angles, op.offsets, size)
            for t, op in enumerate(self.ops)])

    def pad(self, frames):
        """Stack per-step sinogram frames into the padded data box."""
        if len(frames) != len(self.ops):
            raise ValueError(
                f"{len(frames)} frames for {len(self.ops)} operator steps")
        out = np.zeros(self.data_shape, dtype=np.float64)
        for t, frame in enumerate(frames):
            frame = np.asarray(frame)
            if frame.shape != self.ops[t].out_shape:
                raise ValueError(
                    f"step {t} frame shape {frame.shape} does not match "
                    f"operator {self.ops[t].out_shape}")
            out[t, :frame.shape[0]] = frame
        return out


def _operator_apply(x, aop, forward):
    """Apply the scan operator inside the graph; batched (1, 1, ...) layout."""
    if forward:
        core = reshape(x, aop.image_shape)
        out = linear_map(core, aop.forward, aop.adjoint)
        return reshape(out, (1, 1) + aop.data_shape)
    core = reshape(x, aop.data_shape)
    out = linear_map(core, aop.adjoint, aop.forward)
    return reshape(out, (1, 1) + aop.image_shape)


def _const_channel(step_param, spatial):
    """Broadcast a (1,) step-size parameter to a (1, 1, *spatial) channel."""
    flat = reshape(step_param, (1, 1) + (1,) * len(spatial))
    return broadcast_to(flat, (1, 1) + tuple(spatial))


# ------------------------------------------------------------- generator

def uar_generator(params, psi, aop):
    """Unrolled primal-dual reconstruction as a differentiable graph.

    Starts at h = 0 and the FBP image of psi, then per layer feeds the
    dual net (old dual state, step channel, projection of the current
    image, data) and the primal net (current image, step channel,
    backprojected old dual state); both updates are residual.  Returns
    the final image node of shape (1, 1, *image_shape).
    """
    psi = np.asarray(psi)
    if psi.shape != tuple(aop.data_shape):
        raise ValueError(
            f"data shape {psi.shape} does not match operator {aop.data_shape}")
    nd = _conv_ndim(params, "gen.p0.c0.w")
    if len(aop.image_shape) != nd:
        raise ValueError(
            f"{nd}-D generator cannot reconstruct a {len(aop.image_shape)}-D "
            f"image of shape {aop.image_shape}")
    depth = _unroll_depth(params)
    dtype = params["gen.p0.c0.w"].data.dtype
    theta = Tensor(aop.fbp(psi).astype(dtype)[None, None])
    dual = Tensor(np.zeros((1, 1) + aop.data_shape, dtype=dtype))
    data = Tensor(psi.astype(dtype)[None, None])
    for layer in range(depth):
        projected = _operator_apply(theta, aop, forward=True)
        backprojected = _operator_apply(dual, aop, forward=False)
        sigma = _const_channel(params[f"gen.sigma{layer}"], aop.data_shape)
        tau = _const_channel(params[f"gen.tau{layer}"], aop.image_shape)
        dual_in = concat([dual, sigma, projected, data], axis=1)
        primal_in = concat([theta, tau, backprojected], axis=1)
        new_dual = add(dual, _gamma_apply(params, f"gen.d{layer}", dual_in))
        theta = add(theta, _gamma_apply(params, f"gen.p{layer}", primal_in))
        dual = new_dual
    return theta


def uar_reconstruct(params, psi, aop):
    """Generator output as a plain array in the image shape (no tape)."""
    with no_grad():
        out = uar_generator(params, psi, aop)
    return out.data.reshape(aop.image_shape)


# ---------------------------------------------------------------- critic

def _critic_input(params, x):
    nd = _conv_ndim(params, "reg.c0.w")
    if isinstance(x, Tensor):
        t = x
    else:
        dtype = params["reg.c0.w"].data.dtype
        t = Tensor(np.asarray(x, dtype=dtype))
    if t.data.ndim == nd:
        t = reshape(t, (1, 1) + t.data.shape)
    if t.data.ndim != nd + 2 or t.data.shape[:2] != (1, 1):
        raise ValueError(
            f"critic input must be (1, 1, *spatial) or bare {nd}-D, got "
            f"shape {t.data.shape}")
    return t


def _critic_layers(params, a):
    """Pre-activations of the convs and, after the global mean pool, the
    first dense layer; each layer takes the one before leaky-rectified."""
    pre = []
    for j in range(_critic_depth(params)):
        pre.append(_conv_same(a, params[f"reg.c{j}.w"], params[f"reg.c{j}.b"]))
        a = leaky_relu(pre[-1], LEAKY_SLOPE)
    pooled = tmean(a, axis=tuple(range(2, a.data.ndim)))
    pre.append(linear(pooled, params, "reg.fc1"))
    return pre


def critic_value(params, x):
    """Critic score: leaky-rectified convs, global mean pool, 2 dense."""
    pre = _critic_layers(params, _critic_input(params, x))
    hidden = leaky_relu(pre[-1], LEAKY_SLOPE)
    return reshape(linear(hidden, params, "reg.fc2"), ())


def _critic_input_grad_norm(params, x):
    """Norm of d(critic)/d(input) at x, as a graph over critic weights.

    The tape is first-order, so the input gradient is built explicitly:
    a no-tape forward records the leaky-relu slopes at each layer (locally
    constant, hence detached), then the gradient chains backwards through
    the dense layers, the mean pool, and transposed convolutions.  The
    result stays differentiable with respect to the critic parameters.
    """
    one, slope = np.array([1.0, LEAKY_SLOPE],
                          dtype=params["reg.c0.w"].data.dtype)
    with no_grad():
        a = _critic_input(params, x)
        masks = [Tensor(np.where(p.data > 0, one, slope))
                 for p in _critic_layers(params, a)]
    spatial = a.data.shape[2:]
    nd = len(spatial)
    conv_t = conv_transpose2d if nd == 2 else conv_transpose3d
    # output scalar -> dense layers
    g = transpose(params["reg.fc2.w"], (1, 0))
    g = mul(g, masks[-1])
    g = matmul(g, transpose(params["reg.fc1.w"], (1, 0)))
    # mean pool spreads the channel gradient evenly over the cells
    channels = g.data.shape[1]
    g = reshape(g, (1, channels) + (1,) * nd)
    g = scale(broadcast_to(g, (1, channels) + spatial),
              1.0 / int(np.prod(spatial)))
    # conv stack, output side back to the input image
    for j in reversed(range(_critic_depth(params))):
        w = params[f"reg.c{j}.w"]
        g = mul(g, masks[j])
        g = conv_t(g, w, stride=1, padding=_same_pads(w))
    return sqrt(add(tsum(mul(g, g)), _GRAD_NORM_EPS))


# ---------------------------------------------------------------- losses

def reg_loss(params, gt_sample, gen_sample, eps_mix, lambda_gp=10.0,
             parts=None):
    """Critic loss: score(gt) - score(generated) + gradient penalty.

    The penalty evaluates the critic's input gradient at the convex mix
    eps_mix * gt + (1 - eps_mix) * generated and drives its norm to 1.
    Both samples enter as fixed arrays; only critic weights are trained
    through this loss.  parts, when given, receives the float terms.
    """
    if not 0.0 <= eps_mix <= 1.0:
        raise ValueError(f"eps_mix must lie in [0, 1], got {eps_mix}")
    gt = np.asarray(gt_sample.data if isinstance(gt_sample, Tensor)
                    else gt_sample, dtype=np.float64)
    gen = np.asarray(gen_sample.data if isinstance(gen_sample, Tensor)
                     else gen_sample, dtype=np.float64)
    if gt.shape != gen.shape:
        raise ValueError(
            f"sample shapes differ: {gt.shape} vs {gen.shape}")
    r_gt = critic_value(params, gt)
    r_gen = critic_value(params, gen)
    loss = sub(r_gt, r_gen)
    gp_value = 0.0
    if lambda_gp != 0.0:
        mix = eps_mix * gt + (1.0 - eps_mix) * gen
        gnorm = _critic_input_grad_norm(params, mix)
        excess = sub(gnorm, 1.0)
        penalty = scale(mul(excess, excess), lambda_gp)
        gp_value = float(penalty.data)
        loss = add(loss, penalty)
    if parts is not None:
        parts["r_gt"] = float(r_gt.data)
        parts["r_gen"] = float(r_gen.data)
        parts["gp"] = gp_value
    return loss


def gen_loss(params, critic, psi, aop, alpha=0.1, parts=None, theta=None):
    """Generator loss: squared data misfit plus alpha times the critic.

    params holds the generator weights, critic the critic weights; psi
    and aop define the sample.  alpha = 0 degenerates to pure data
    fidelity.  parts, when given, receives the float terms.  theta, when
    given, is the taped uar_generator(params, psi, aop) already built.
    """
    if theta is None:
        theta = uar_generator(params, psi, aop)
    projected = _operator_apply(theta, aop, forward=True)
    dtype = theta.data.dtype
    data = Tensor(np.asarray(psi, dtype=dtype)[None, None])
    diff = sub(projected, data)
    datafit = tsum(mul(diff, diff))
    critic_term = 0.0
    loss = datafit
    if alpha != 0.0:
        score = critic_value(critic, theta)
        critic_term = float(score.data)
        loss = add(datafit, scale(score, alpha))
    if parts is not None:
        parts["datafit"] = float(datafit.data)
        parts["critic"] = critic_term
    return loss


# -------------------------------------------------------------- training

def _build_pools(dataset, mode, rng):
    """Ground-truth and measurement pools in the mode's sample shape.

    Static mode slices one random time step out of each item (the same
    index for its gt frame and its sinogram); dynamic mode keeps whole
    sequences.  Unpairing happens later through independent index draws.
    """
    size = dataset.geometry.image_size
    gt_pool, psi_pool = [], []
    for gt, sino in zip(dataset.gt, dataset.sinograms):
        n_steps = min(len(sino.frames), gt.shape[0])
        if mode == "static2d":
            t = int(rng.integers(n_steps))
            op = StaticScanOperator(
                operator_for_angles(sino.angles[t], sino.offsets, size))
            gt_pool.append(np.asarray(gt[t], dtype=np.float32))
            psi_pool.append((np.asarray(sino.frames[t], dtype=np.float64), op))
        else:
            aop = SequenceScanOperator(
                [operator_for_angles(a, sino.offsets, size)
                 for a in sino.angles])
            gt_pool.append(np.asarray(gt, dtype=np.float32))
            psi_pool.append((aop.pad(sino.frames), aop))
    return gt_pool, psi_pool


def train_uar(dataset, mode, cfg=None, model_cfg=None, sampler_trace=None):
    """Three-phase adversarial training; returns (params, log rows).

    Phase 1 trains the critic against FBP images, phase 2 warms the
    generator up, phase 3 alternates one critic and one generator update
    per draw.  Ground-truth and measurement indices are drawn from
    independent streams, so no loss ever sees a matched pair.
    sampler_trace, when given a list, records (phase, gt_idx, psi_idx)
    per draw (-1 marks an unused pool).
    """
    _check_mode(mode)
    cfg = cfg if cfg is not None else UarTrainConfig()
    model_cfg = model_cfg if model_cfg is not None else UarConfig()
    n = len(dataset)
    if n < 1:
        raise ConfigError("dataset", "needs at least one item per epoch")
    rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 303]))
    gt_pool, psi_pool = _build_pools(dataset, mode, rng)
    params = init_uar_params(mode, model_cfg, seed=cfg.seed)
    gen = generator_params(params)
    reg = critic_params(params)
    # the critic's arrays without gradient: generator updates fill no .grad
    critic = {k: Tensor(t.data) for k, t in reg.items()}
    opt_reg = init_adamw(reg, betas=ADAM_BETAS, eps=ADAM_EPS,
                         weight_decay=0.0)
    opt_gen = init_adamw(gen, betas=ADAM_BETAS, eps=ADAM_EPS,
                         weight_decay=0.0)

    schedule = ([(1, cfg.lr_warmup)] * cfg.phase1_epochs
                + [(2, cfg.lr_warmup)] * cfg.phase2_epochs
                + [(3, cfg.lr_adversarial)] * cfg.phase3_epochs)
    log = []
    for epoch, (phase, lr) in enumerate(schedule):
        reg_losses, gen_losses, fits, gps, skipped = [], [], [], [], 0
        for _ in range(n):
            # phase 2 trains the generator alone and draws no gt sample
            i_gt = -1 if phase == 2 else int(rng.integers(n))
            i_psi = int(rng.integers(n))
            if sampler_trace is not None:
                sampler_trace.append((phase, i_gt, i_psi))
            psi, aop = psi_pool[i_psi]
            parts = {}
            theta = None
            if phase != 2:
                eps_mix = float(rng.random())
                if phase == 1:
                    fake = aop.fbp(psi).astype(np.float32)
                else:
                    # one generator pass: its output is the critic's fake
                    # sample, then the generator loss's graph, which
                    # scores it with the critic as updated below
                    theta = uar_generator(gen, psi, aop)
                    fake = theta.data.reshape(aop.image_shape)
                loss = reg_loss(reg, gt_pool[i_gt], fake, eps_mix,
                                cfg.lambda_gp, parts=parts)
                skipped += _update(reg, opt_reg, loss, lr)
                reg_losses.append(float(loss.data))
                gps.append(parts["gp"])
            if phase != 1:
                loss = gen_loss(gen, critic, psi, aop, cfg.alpha, parts=parts,
                                theta=theta)
                skipped += _update(gen, opt_gen, loss, lr)
                gen_losses.append(float(loss.data))
                fits.append(parts["datafit"])
        # loss is the generator's where it trains, else the critic's
        row = {"epoch": epoch, "split": f"phase{phase}",
               "loss": float(np.mean(gen_losses or reg_losses)), "lr": lr,
               "skipped": skipped}
        if phase == 3:
            row["loss_reg"] = float(np.mean(reg_losses))
        if fits:
            row["datafit"] = float(np.mean(fits))
        if gps:
            row["gp"] = float(np.mean(gps))
        log.append(row)
    if cfg.out_dir is not None:
        extra = {"kind": "uar", "mode": mode, "model": model_cfg.to_dict()}
        save_checkpoint(os.path.join(cfg.out_dir, "final"), params, extra=extra)
    if cfg.log_path is not None:
        write_log(cfg.log_path, log)
    return params, log
