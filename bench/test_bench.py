"""Smoke tests of the benchmark at a tiny size.

    python3 -m pytest -q bench/test_bench.py

Each workload runs end to end (set-up processes, measuring process,
summary) once untraced and once traced, on inputs small enough to take
seconds. The solver counts must repeat exactly, and a NaN in the last
measured frame must be recorded as a failed operation.
"""

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402

bench.limit_threads()
bench.import_package()

import workloads as wl  # noqa: E402
from tcrtomo.phantoms import generate_dataset  # noqa: E402
from tcrtomo.stt import init_stt_params  # noqa: E402

TINY = dict(image_size=16, n_steps=4, n_offsets=23, model_dim=16, heads=2,
            layers=1, n_items=2)
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
COUNTS = ("solvers.iters_per_solve", "solvers.forward_per_iter",
          "solvers.adjoint_per_iter")


def tiny(name):
    w = wl.WORKLOADS[name]
    return replace(w, **TINY, train_items=min(w.train_items, 2),
                   uar_items=min(w.uar_items, 1))


_RUNS = {}


def tiny_run(name, trace, seed=1):
    """(detail, result) of one tiny run, cached across tests."""
    key = (name, trace, seed)
    if key not in _RUNS:
        args = bench.parse_args(
            ["--workload", name, "--seed", str(seed), "--seconds", "0",
             "--trace", str(trace)], wl.WORKLOADS)
        _RUNS[key] = bench.run(tiny(name), args, bench.limit_threads())
    return _RUNS[key]


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == \
        sorted(wl.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} \
        == bench.END_TO_END


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_every_metric_reported(name, trace):
    detail, result = tiny_run(name, trace)
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in listed)
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert detail["failed_frac"] == 0.0
    assert detail["env"]["nproc"] >= 1 and detail["env"]["seed"] == 1


@pytest.mark.parametrize("name", ["recon-desk", "recon-paper"])
def test_solver_counts_repeat_exactly(name):
    first = tiny_run(name, 1, seed=1)[1]["metrics"]
    again = tiny_run(name, 1, seed=2)[1]["metrics"]
    for key in COUNTS:
        assert first[key]["value"] == again[key]["value"], key
    # ratios of whole call counts, not timings
    iters = first["solvers.iters_per_solve"]["value"]
    for key in COUNTS[1:]:
        calls = first[key]["value"] * iters
        assert round(calls) > 0 and abs(calls - round(calls)) < 1e-9, key


def test_nan_last_frame_is_a_failure():
    w = tiny("recon-desk")
    data = generate_dataset(w.geometry(), 1, seed=3)
    sino = data.sinograms[0]
    sino.frames[-1] = np.full_like(sino.frames[-1], np.nan)
    cfg = w.stt_config()
    models = {role: (init_stt_params(cfg, seed=k), cfg)
              for k, role in enumerate(wl.MODEL_ROLES)}
    run = wl.run_recon(w, [sino], models, 0.0, min_units=1)
    assert run["attempted"] == w.n_steps
    assert run["failed"] >= 1
