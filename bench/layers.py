"""Per-layer metrics of the traced run.

Spans are taken from the benchmark's side: the pipeline stages from the
timestamps of `tcr_reconstruct`'s trace events, everything else from
timed calls into one public function per layer. Solver work is counted
by a `LinearOperator` that wraps the cached projector and counts calls.

Geometry, solver, STT and checkpoint probes run at the workload's own
scale. The training layers (autodiff, optim, training, uar) are probed at
desk scale on every workload, the only scale at which training runs.
"""

import os
import statistics
from time import perf_counter

import numpy as np

from tcrtomo.autodiff import Tensor, conv2d, conv3d, scale, tslice, tsum
from tcrtomo.checkpoint import load_checkpoint
from tcrtomo.geometry import (LinearOperator, MatrixOperator, RadonOperator,
                              angle_schedule, fbp, operator_for_angles,
                              operator_norm)
from tcrtomo.optim import adamw_step, init_adamw
from tcrtomo.phantoms import generate_dataset
from tcrtomo.pipeline import solve_step
from tcrtomo.stt import init_stt_params, predict_next, stt_apply
from tcrtomo.training import landweber_pairs
from tcrtomo.uar import (StaticScanOperator, UarConfig, critic_params,
                         gen_loss, generator_params, init_uar_params,
                         reg_loss, uar_reconstruct)

from workloads import WORKLOADS

STAGES = ("initial", "refine", "predict", "solve")


class CountingOperator(LinearOperator):
    """Forwards to a wrapped operator and counts forward/adjoint calls."""

    def __init__(self, inner):
        self.inner = inner
        self.in_shape = inner.in_shape
        self.out_shape = inner.out_shape
        self.forwards = 0
        self.adjoints = 0

    def forward(self, x):
        self.forwards += 1
        return self.inner.forward(x)

    def adjoint(self, y):
        self.adjoints += 1
        return self.inner.adjoint(y)

    def norm_ata(self):
        return self.inner.norm_ata()


def time_ms(fn, repeats=3, min_s=0.05):
    """Median ms per call over `repeats` batches, after one warm-up call.

    A batch repeats the call until it lasts about min_s, so short calls
    are not dominated by timer resolution.
    """
    t0 = perf_counter()
    fn()
    batch = max(1, int(min_s / max(perf_counter() - t0, 1e-7)))
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(batch):
            fn()
        samples.append((perf_counter() - t0) / batch)
    return 1e3 * statistics.median(samples)


# -------------------------------------------------------------- pipeline

def pipeline_spans(units):
    """Per-sequence stage time from the trace events of traced calls.

    A stage runs from its event to the next event or the call's return.
    Returns medians over the calls, in ms, plus predict/solve shares.
    """
    rows = []
    for u in units:
        stamps = [t for t, _ in u["events"]] + [u["end"]]
        row = dict.fromkeys(STAGES, 0.0)
        for (t, ev), t_next in zip(u["events"], stamps[1:]):
            row[ev[0]] += 1e3 * (t_next - t)
        row["total"] = 1e3 * (u["end"] - u["start"])
        rows.append(row)
    med = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    out = {f"pipeline.{s}_ms": med[s] for s in STAGES}
    out["pipeline.predict_share"] = statistics.median(
        r["predict"] / r["total"] for r in rows)
    out["pipeline.solve_share"] = statistics.median(
        r["solve"] / r["total"] for r in rows)
    return out


def loop_solves(w, unit):
    """(op, psi, prior, alpha, beta) of every loop step t >= 2 of a call."""
    cfg = w.recon_config()
    sino, result = unit["sino"], unit["result"]
    for t in range(2, len(sino.frames)):
        op = operator_for_angles(sino.angles[t], sino.offsets, w.image_size)
        yield (op, sino.frames[t], result.predictions[t - 1].astype(np.float64),
               cfg.alpha_rest, cfg.beta_rest)


def solver_work(w, unit):
    """Re-solve a traced call's loop steps: time per iteration, counts."""
    cfg = w.recon_config()
    solves = list(loop_solves(w, unit))
    t0 = perf_counter()
    iters = sum(solve_step(op, psi, prior, a, b, cfg)[1].iterations
                for op, psi, prior, a, b in solves)
    elapsed = perf_counter() - t0
    forwards = adjoints = counted_iters = 0
    for op, psi, prior, a, b in solves:
        counter = CountingOperator(op)
        counted_iters += solve_step(counter, psi, prior, a, b,
                                    cfg)[1].iterations
        forwards += counter.forwards
        adjoints += counter.adjoints
    return {
        "solvers.ms_per_iter": 1e3 * elapsed / iters,
        "solvers.iters_per_solve": counted_iters / len(solves),
        "solvers.forward_per_iter": forwards / counted_iters,
        "solvers.adjoint_per_iter": adjoints / counted_iters,
    }


# ------------------------------------------------------ workload scale

def geometry_layer(w, sino):
    geom = w.geometry()
    out = {}
    for n_ang, t in ((3, 2), (20, 0)):
        op = operator_for_angles(sino.angles[t], sino.offsets, w.image_size)
        dense = MatrixOperator(op.matrix.toarray(), in_shape=op.in_shape)
        x = np.ones(op.in_shape)
        y = np.ones(op.out_shape)
        for kind, o in (("sparse", op), ("dense", dense)):
            out[f"geometry.forward_us.{kind}.a{n_ang}"] = \
                1e3 * time_ms(lambda o=o: o.forward(x))
            out[f"geometry.adjoint_us.{kind}.a{n_ang}"] = \
                1e3 * time_ms(lambda o=o: o.adjoint(y))
    schedule = [angle_schedule(geom, t) for t in range(geom.n_steps)]
    build, norm = [], []
    for _ in range(3):
        t0 = perf_counter()
        ops = [RadonOperator(a, geom.offsets, w.image_size) for a in schedule]
        t1 = perf_counter()
        for o in ops:
            operator_norm(o)
        build.append(t1 - t0)
        norm.append(perf_counter() - t1)
    out["geometry.operator_build_ms"] = 1e3 * statistics.median(build)
    out["geometry.norm_ata_ms"] = 1e3 * statistics.median(norm)
    out["geometry.fbp_ms"] = time_ms(
        lambda: fbp(sino.frames[2], sino.angles[2], sino.offsets,
                    w.image_size))
    return out


def stt_layer(params, cfg, frames):
    history = np.asarray(frames, dtype=np.float32)
    first = time_ms(lambda: predict_next(params, cfg, history[:1]))
    last = time_ms(lambda: predict_next(params, cfg, history[:-1]))
    return {"stt.predict_ms_first": first, "stt.predict_ms_last": last,
            "stt.predict_growth": last / first}


def checkpoint_layer(work):
    path = os.path.join(work, "predict")
    return {"checkpoint.load_ms": time_ms(
        lambda: load_checkpoint(path, requires_grad=False))}


# ---------------------------------------------------------- desk scale

def _zero_grads(params):
    for t in params.values():
        t.grad = None


def _timed_backward(forward, leaves, repeats=3):
    """Median ms of a taped forward and of its backward pass.

    The backward pass is seeded with ones; the first pass is a warm-up.
    """
    fwd, bwd = [], []
    for _ in range(repeats + 1):
        for t in leaves:
            t.grad = None
        t0 = perf_counter()
        out = forward()
        t1 = perf_counter()
        out.backward(np.ones(out.shape, dtype=out.dtype))
        t2 = perf_counter()
        fwd.append(t1 - t0)
        bwd.append(t2 - t1)
    return 1e3 * statistics.median(fwd[1:]), 1e3 * statistics.median(bwd[1:])


def _conv_inputs(cfg, batch, slots):
    """Input shape of each STT conv layer for a (batch, slots) forward."""
    c0, c1, c2 = cfg.enc_channels
    d, g, n = cfg.model_dim, cfg.grid, batch * slots
    size = cfg.image_size
    return {
        "enc0": (batch, 1, slots, size, size),
        "enc1": (batch, c0, slots, size // 2, size // 2),
        "enc2": (batch, c1, slots, size // 4, size // 4),
        "dec0": (n, d, g, g),
        "dec1": (n, c2 + c1, 2 * g, 2 * g),
        "dec2": (n, c1 + c0, 4 * g, 4 * g),
    }


def conv_layers(params, cfg, batch, slots, rng):
    """Forward and backward ms of each STT conv at its training shape.

    enc0 reads the raw frames, which need no gradient in training, so its
    input is not marked for one; every other conv input is.
    """
    out = {}
    for name, shape in _conv_inputs(cfg, batch, slots).items():
        x = Tensor(rng.standard_normal(shape).astype(np.float32),
                   requires_grad=name != "enc0")
        w, b = params[f"{name}.w"], params[f"{name}.b"]
        if name.startswith("enc"):
            def conv(x=x, w=w, b=b):
                return conv3d(x, w, b, stride=(1, 2, 2),
                              padding=((2, 0), (1, 1), (1, 1)))
        else:
            def conv(x=x, w=w, b=b):
                return conv2d(x, w, b, padding=((1, 1), (1, 1)))
        (out[f"autodiff.conv.{name}.fwd_ms"],
         out[f"autodiff.conv.{name}.bwd_ms"]) = _timed_backward(
            conv, (x, w, b))
    return out


def training_layers(seed):
    """autodiff, optim, training and uar probes on desk-scale inputs."""
    desk = WORKLOADS["train-desk"]
    cfg = desk.stt_config()
    rng = np.random.default_rng([seed, 5])
    data = generate_dataset(desk.geometry(), 8, seed=seed, split="probe")
    params = init_stt_params(cfg, seed=[seed, 5])
    out = {}

    batch = np.stack([g[:2] for g in data.gt]).astype(np.float32)
    target = Tensor(batch)

    def refine_loss():
        pred = tslice(stt_apply(params, cfg, batch),
                      (slice(None), slice(0, 2)))
        diff = pred - target
        return scale(tsum(diff * diff), 0.5 / len(batch))

    out["autodiff.stt_fwd_ms"], out["autodiff.backward_ms"] = \
        _timed_backward(refine_loss, params.values())
    out.update(conv_layers(params, cfg, len(batch), 3, rng))

    state = init_adamw(params)
    for t in params.values():
        t.grad = rng.standard_normal(t.shape).astype(np.float32)
    out["optim.adamw_step_ms"] = time_ms(
        lambda: adamw_step(params, state, 1e-5))
    out["training.landweber_pairs_ms"] = time_ms(
        lambda: landweber_pairs(data)) / len(data)

    sino = data.sinograms[0]
    aop = StaticScanOperator(operator_for_angles(
        sino.angles[2], sino.offsets, desk.image_size))
    psi = sino.frames[2]
    uar = init_uar_params("static2d", UarConfig(), seed=seed)
    gen, reg = generator_params(uar), critic_params(uar)
    out["uar.generator_fwd_ms"] = time_ms(
        lambda: uar_reconstruct(gen, psi, aop))
    fake = uar_reconstruct(gen, psi, aop)
    gt = data.gt[0][2]
    opt_reg = init_adamw(reg, betas=(0.5, 0.99), weight_decay=0.0)
    opt_gen = init_adamw(gen, betas=(0.5, 0.99), weight_decay=0.0)

    def reg_step():
        _zero_grads(uar)
        reg_loss(reg, gt, fake, 0.5, 10.0).backward()
        adamw_step(reg, opt_reg, 2e-5)

    def gen_step():
        _zero_grads(uar)
        gen_loss(gen, reg, psi, aop, 0.1).backward()
        adamw_step(gen, opt_gen, 2e-5)

    out["uar.reg_step_ms"] = time_ms(reg_step)
    out["uar.gen_step_ms"] = time_ms(gen_step)
    return out
