"""Workload definitions, seeded inputs, program set-up and the timed loops.

Everything here drives public functions of `tcrtomo` only. Inputs are
made from the seed by `make_inputs` and written to a work directory; the
measuring process reads them back, so the program sees nothing but the
generated files.

The pipeline, training and UAR modules are imported where they are used,
so a process that only sets up does not pay for importing them.
"""

import json
import os
import statistics
from dataclasses import asdict, dataclass
from time import perf_counter

import numpy as np

from tcrtomo.checkpoint import load_checkpoint, save_checkpoint
from tcrtomo.datasets import Dataset, read_dataset, write_dataset
from tcrtomo.geometry import ScanGeometry, operator_for_angles
from tcrtomo.phantoms import generate_dataset
from tcrtomo.stt import SttConfig, init_stt_params


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    kind "recon" runs `tcr_reconstruct` over the n_items sequences in a
    cycle. Kind "train" runs one epoch of each trainer per round on the
    first train_items items, the UAR on the first uar_items only; all
    n_items enter the Landweber residual.
    """

    name: str
    kind: str
    image_size: int
    n_steps: int
    n_offsets: int
    model_dim: int
    heads: int
    layers: int
    n_items: int
    solver: str = "L1"
    beta: float = 0.0
    train_items: int = 0
    uar_items: int = 0

    def geometry(self):
        return ScanGeometry(self.image_size, self.n_steps, 20, 3,
                            self.n_offsets)

    def stt_config(self):
        return SttConfig(model_dim=self.model_dim, heads=self.heads,
                         layers=self.layers, image_size=self.image_size)

    def recon_config(self):
        from tcrtomo.pipeline import ReconConfig

        return ReconConfig(self.image_size, solver=self.solver,
                           beta_init=self.beta, beta_rest=self.beta)


# Solver choice follows what each scale stresses: FISTA keeps the desk
# sequence projector-bound, PDHG with the 19.4 M-parameter paper STT makes
# the predictor dominate and is the only workload covering L1TV.
WORKLOADS = {
    "recon-desk": Workload("recon-desk", "recon", 32, 8, 47, 64, 4, 2,
                           n_items=16, solver="L1"),
    "recon-paper": Workload("recon-paper", "recon", 64, 10, 100, 512, 8, 6,
                            n_items=2, solver="L1TV", beta=0.01),
    "train-desk": Workload("train-desk", "train", 32, 8, 47, 64, 4, 2,
                           n_items=128, train_items=16, uar_items=4),
}

MODEL_ROLES = ("refine", "predict")

# STT weights are drawn from this fixed seed, not the workload seed: timing
# does not depend on them, and with one draw the residual ratio compares
# solves of different phantoms instead of differently scaled random priors.
WEIGHT_SEED = 0


# ----------------------------------------------------------------- inputs

def make_inputs(w, seed, work):
    """Write the seed's sequences, random-init checkpoints and the spec."""
    ds = generate_dataset(w.geometry(), w.n_items, seed=seed, split="bench")
    write_dataset(ds, os.path.join(work, "data"))
    cfg = w.stt_config()
    for k, role in enumerate(MODEL_ROLES):
        params = init_stt_params(cfg, seed=[WEIGHT_SEED, k])
        save_checkpoint(os.path.join(work, role), params,
                        extra={"model": cfg.to_dict()})
    with open(os.path.join(work, "spec.json"), "w", encoding="utf-8") as fh:
        json.dump(asdict(w), fh)


def read_spec(work):
    with open(os.path.join(work, "spec.json"), encoding="utf-8") as fh:
        return Workload(**json.load(fh))


def load_model(work, role):
    params, extra, _ = load_checkpoint(os.path.join(work, role),
                                       requires_grad=False)
    return params, SttConfig.from_dict(extra["model"])


# ----------------------------------------------------------------- set-up

def setup(w, work):
    """Program set-up before the first timed call, timed as a whole.

    Reading the generated inputs is not part of it. Set-up is the
    checkpoint loads (both models for reconstruction, the frozen
    refinement model for training), the operator-cache fill and the
    `norm_ata` estimate of every angle set the inputs use.
    Returns (seconds, data, models).
    """
    data = read_dataset(os.path.join(work, "data"))
    roles = MODEL_ROLES if w.kind == "recon" else ("refine",)
    t0 = perf_counter()
    models = {role: load_model(work, role) for role in roles}
    for sino in data.sinograms:
        for angles in sino.angles:
            operator_for_angles(angles, sino.offsets, w.image_size).norm_ata()
    return perf_counter() - t0, data, models


# ------------------------------------------------------- reconstruction

def relative_residuals(sino, frames, size):
    """||A x_t - psi_t|| / ||psi_t|| for every step of one sequence."""
    out = []
    for t, x in enumerate(frames):
        op = operator_for_angles(sino.angles[t], sino.offsets, size)
        psi = sino.frames[t]
        out.append(float(np.linalg.norm(op.forward(x) - psi)
                         / np.linalg.norm(psi)))
    return out


def residual_ratios(result):
    """Final over starting discrepancy of every solve of one sequence."""
    return [e["report"].discrepancies[-1] / e["report"].discrepancies[0]
            for e in result.reports]


def failed_frames(result):
    """Steps whose frame is non-finite or whose solve lost data fidelity.

    Every solve starts at its prior, so ending with a larger discrepancy
    than the prior's breaks the data-fidelity guarantee.
    """
    bad = {t for t, x in enumerate(result.reconstructions)
           if not np.all(np.isfinite(x))}
    for entry in result.reports:
        d = entry["report"].discrepancies
        if not d[-1] <= d[0]:
            bad.add(entry["step"])
    return bad


def run_recon(w, sinograms, models, seconds, min_units, traced=False):
    """Closed loop of `tcr_reconstruct` calls, one sequence at a time.

    Runs until `seconds` have passed and at least `min_units` sequences
    are done. Frame latencies come from the timestamps of the program's
    own trace events. In traced mode every second call runs without the
    trace callback, which measures the callback's cost, and the traced
    calls keep their events and results for the per-layer metrics.
    """
    from tcrtomo.pipeline import tcr_reconstruct

    cfg = w.recon_config()
    size = w.image_size
    refine_model, predict_model = models["refine"], models["predict"]
    seq_s, frame_ms, ratios, residuals = [], [], [], []
    plain_s, traced_units = [], []
    attempted = failed = frames = 0
    start = perf_counter()
    i = 0
    while i < min_units or perf_counter() - start < seconds:
        sino = sinograms[i % len(sinograms)]
        n_frames = len(sino.frames)
        use_trace = not (traced and i % 2 == 1)
        events = []
        record = (lambda ev: events.append((perf_counter(), ev))) \
            if use_trace else None
        t0 = perf_counter()
        try:
            result = tcr_reconstruct(sino, cfg, refine_model, predict_model,
                                     trace=record)
        except Exception:  # noqa: BLE001 - a failed call is counted, not fatal
            result = None
        t1 = perf_counter()
        first_cycle = i < len(sinograms)
        i += 1
        attempted += n_frames
        if result is None:
            failed += n_frames
            continue
        failed += len(failed_frames(result))
        frames += n_frames
        seq_s.append(t1 - t0)
        if first_cycle:
            ratios.extend(residual_ratios(result))
            residuals.extend(relative_residuals(sino, result.reconstructions,
                                                size))
        if not use_trace:
            plain_s.append(t1 - t0)
            continue
        stamps = [t for t, ev in events if ev[0] == "predict"] + [t1]
        frame_ms.extend(1e3 * np.diff(stamps)[1:])
        if traced:
            traced_units.append({"start": t0, "end": t1, "events": events,
                                 "sino": sino, "result": result})
    return {
        "attempted": attempted, "failed": failed, "items": frames,
        "busy_s": sum(seq_s), "unit_s": seq_s, "item_ms": frame_ms,
        "residual_ratio": mean_or_nan(ratios),
        "rel_residual": mean_or_nan(residuals),
        "plain_unit_s": plain_s,
        "traced_unit_s": [u["end"] - u["start"] for u in traced_units],
        "traced_units": traced_units,
    }


# --------------------------------------------------------------- training

_LOSS_KEYS = ("loss", "loss_reg", "gp", "datafit")


def losses_finite(log):
    return all(np.isfinite(float(row[k])) for row in log for k in _LOSS_KEYS
               if row.get(k, "") != "")


def landweber_residual(data, size):
    """Mean relative residual of the Landweber pairs the trainers consume.

    Landweber starts from zero, so this is also their residual ratio.
    """
    from tcrtomo.training import landweber_pairs

    pairs = landweber_pairs(data)
    res = [relative_residuals(sino, pairs[i], size)
           for i, sino in enumerate(data.sinograms)]
    return float(np.mean(res))


def subset(data, n):
    return Dataset(data.geometry, data.gt[:n], data.sinograms[:n])


def run_train(w, data, models, seconds, min_units, traced=False):
    """Closed loop of training rounds: one epoch of each trainer per round.

    Samples are refinement items, prediction rollout steps (one per sample
    per `on_step` event) and UAR draws (`sampler_trace` entries). In
    traced mode every second round runs without those two hooks, which
    measures their cost; its sample counts repeat the previous round's,
    since every round does the same work.
    """
    from tcrtomo.training import (TrainConfig, prediction_train_config,
                                  train_prediction, train_refinement)
    from tcrtomo.uar import UarTrainConfig, train_uar

    refine_params, refine_cfg = models["refine"]
    uar_data = subset(data, w.uar_items)
    data = subset(data, w.train_items)
    # Trainer seeds stay at their defaults: the UAR seed picks each item's
    # time step, and a 20-angle step costs several times a 3-angle one, so
    # tying it to the input seed would change the work per round.
    cfg_refine = TrainConfig(epochs=1)
    cfg_predict = prediction_train_config(epochs=1)
    cfg_uar = UarTrainConfig(phase1_epochs=1, phase2_epochs=1,
                             phase3_epochs=1)
    counts = {"refine": len(data), "predict": 0, "uar": 0}
    calls = {name: [] for name in counts}
    round_s, round_ms_per_item, plain_s, traced_s = [], [], [], []
    attempted = failed = items = 0
    start = perf_counter()
    i = 0
    while i < min_units or perf_counter() - start < seconds:
        use_trace = not (traced and i % 2 == 1)
        steps, draws = [], []
        on_step = (lambda ev: steps.append((perf_counter(), ev))) \
            if use_trace else None
        trainers = (
            ("refine", lambda: train_refinement(data, cfg_refine, refine_cfg)),
            ("predict", lambda: train_prediction(
                data, refine_params, refine_cfg, cfg_predict, refine_cfg,
                on_step=on_step)),
            ("uar", lambda: train_uar(uar_data, "static2d", cfg_uar,
                                      sampler_trace=draws if use_trace
                                      else None)),
        )
        total = 0.0
        n_round = 0
        for name, call in trainers:
            attempted += 1
            t0 = perf_counter()
            try:
                _, log = call()
                ok = losses_finite(log)
            except Exception:  # noqa: BLE001 - a failed call is counted
                ok = False
            dt = perf_counter() - t0
            if use_trace and name == "predict":
                counts["predict"] = sum(len(ev["samples"]) for _, ev in steps)
            if use_trace and name == "uar":
                counts["uar"] = len(draws)
            if not ok:
                failed += 1
                continue
            calls[name].append((dt, counts[name]))
            total += dt
            n_round += counts[name]
        i += 1
        round_s.append(total)
        round_ms_per_item.append(1e3 * total / max(n_round, 1))
        items += n_round
        (traced_s if use_trace else plain_s).append(total)
    return {
        "attempted": attempted, "failed": failed, "items": items,
        "busy_s": sum(round_s), "unit_s": round_s,
        "item_ms": round_ms_per_item, "calls": calls,
        "plain_unit_s": plain_s, "traced_unit_s": traced_s,
    }


def median_or_nan(values):
    return float(statistics.median(values)) if values else float("nan")


def mean_or_nan(values):
    return float(np.mean(values)) if len(values) else float("nan")
