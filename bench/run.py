"""tcrtomo benchmark: end-to-end and per-layer figures for three workloads.

    python3 bench/run.py --workload recon-desk --seed 1 --seconds 25 --trace 0

Run from the repository root. The package is imported from `src/` of the
same tree and nowhere else. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the line
before it is a JSON record of the environment and the workload-specific
figures. With `--trace 0` the metrics are the end-to-end ones, with
`--trace 1` the per-layer ones. See bench/README.md.

Inputs are made from the seed in a scratch directory under bench/.work/.
Set-up is timed in five fresh processes (four that only set up, then
the measuring one), one at a time, and reported as their median.

numpy and the package are imported inside functions, after
`limit_threads` has set the thread variables they read at import time.
"""

import argparse
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_ROOT = BENCH / ".work"

CONFIRM_SEED = 7
SETUP_RUNS = 5
# every run, set-up included, must end well within 180 s
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "item_ms_p50": ("ms", "lower"),
    "residual_ratio": ("1", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def per_layer_unit(name):
    """Unit of a per-layer metric: the ms or us word in its name, else 1."""
    words = set(re.split(r"[._]", name))
    return next((u for u in ("ms", "us") if u in words), "1")


def limit_threads():
    """Pin BLAS/OpenMP to one thread; return the cores this process may use.

    On a small shared machine two BLAS threads made the same paper-scale
    STT call take anywhere from 0.8 to 1.8 s; one thread held it within
    about 10%. One closed-loop stream on one thread is what gets measured.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def import_package():
    """Import tcrtomo from this tree's src/, or explain why not."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import tcrtomo
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import tcrtomo from {ROOT / 'src'}: "
                         f"{exc}") from exc
    if Path(tcrtomo.__file__).resolve().parents[1] != ROOT / "src":
        raise SystemExit(f"bench: tcrtomo resolved to {tcrtomo.__file__}, "
                         f"not to this tree")
    return tcrtomo


def git_commit():
    """HEAD commit of the tree, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(nproc, seed):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS + ("TCR_THREADS",)},
        "commit": git_commit(),
        "seed": seed,
        "confirm_seed": CONFIRM_SEED,
    }


# ----------------------------------------------------------- child side

def measure(work, seconds, trace, seed):
    """Set up, run the workload's closed loop, and collect its figures."""
    import numpy as np

    import workloads as wl

    w = wl.read_spec(work)
    setup_s, data, models = wl.setup(w, work)
    if w.kind == "recon":
        run = wl.run_recon(w, data.sinograms, models, seconds,
                           min_units=len(data.sinograms), traced=trace)
        ratio = run["residual_ratio"]
    else:
        try:
            ratio = wl.landweber_residual(data, w.image_size)
        except Exception:  # noqa: BLE001 - counted as a failed operation
            ratio = float("nan")
        run = wl.run_train(w, data, models, seconds, min_units=1,
                           traced=trace)
        # the Landweber pairs behind the ratio count as one operation
        run["attempted"] += 1
        run["failed"] += int(not np.isfinite(ratio))
    out = {
        "setup_s": setup_s,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "e2e": {
            "items_per_s": run["items"] / run["busy_s"],
            "item_ms_p50": wl.median_or_nan(run["item_ms"]),
            "residual_ratio": ratio,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "detail": workload_detail(w, run),
    }
    if trace:
        out["layers"] = layer_metrics(w, work, seed, data, models, run)
    return out


def workload_detail(w, run):
    """The figures each workload is known by, under their own names."""
    import numpy as np

    detail = {"unit_s": run["unit_s"],
              "failed_frac": run["failed"] / run["attempted"]}
    if w.kind == "recon":
        lat = np.asarray(run["item_ms"])
        detail.update(frames_per_s=run["items"] / run["busy_s"],
                      seq_s_p50=float(np.median(run["unit_s"])),
                      frame_ms_p50=float(np.median(lat)),
                      frame_samples=int(lat.size),
                      rel_residual=run["rel_residual"])
        # a percentile is reported only with at least ten samples above it
        if lat.size >= 100:
            detail["frame_ms_p90"] = float(np.percentile(lat, 90))
    else:
        detail["round_s_p50"] = float(np.median(run["unit_s"]))
        for name, label in (("refine", "train_refine_samples_per_s"),
                            ("predict", "train_predict_steps_per_s"),
                            ("uar", "train_uar_draws_per_s")):
            calls = run["calls"][name]
            detail[label] = (sum(n for _, n in calls)
                             / sum(dt for dt, _ in calls)) if calls else None
    return detail


def layer_metrics(w, work, seed, data, models, run):
    import layers
    import workloads as wl

    if w.kind == "recon":
        units = run["traced_units"]
    else:
        # training reconstructs nothing: pipeline and solver spans come
        # from reconstructing two of its items with its desk models
        models = dict(models, predict=wl.load_model(work, "predict"))
        units = wl.run_recon(w, data.sinograms[:2], models, 0.0, min_units=3,
                             traced=True)["traced_units"]
    out = layers.pipeline_spans(units)
    plain, traced = run["plain_unit_s"], run["traced_unit_s"]
    out["trace_overhead_frac"] = (statistics.median(traced)
                                  / statistics.median(plain) - 1.0
                                  if plain and traced else 0.0)
    out.update(layers.solver_work(w, units[0]))
    out.update(layers.geometry_layer(w, data.sinograms[0]))
    out.update(layers.stt_layer(*models["predict"], data.gt[0]))
    out.update(layers.checkpoint_layer(work))
    out.update(layers.training_layers(seed))
    return out


def child_main(args):
    import workloads as wl

    if args.child == "setup":
        setup_s, _, _ = wl.setup(wl.read_spec(args.work), args.work)
        result = {"setup_s": setup_s}
    else:
        result = measure(args.work, args.seconds, bool(args.trace), args.seed)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------- parent side

def spawn(mode, work, args, deadline):
    """Run one child to completion and return its JSON result."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
           "--work", work, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - perf_counter()))
    if proc.returncode != 0:
        raise SystemExit(f"bench: {mode} process failed "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(w, args, nproc):
    """Generate inputs, run the set-up and measuring processes, summarize."""
    import workloads as wl

    deadline = perf_counter() + DEADLINE_S
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as work:
        wl.make_inputs(w, args.seed, work)
        setups = [spawn("setup", work, args, deadline)["setup_s"]
                  for _ in range(SETUP_RUNS - 1)]
        child = spawn("measure", work, args, deadline)
    setups.append(child["setup_s"])
    values = dict(child["e2e"], setup_s=statistics.median(setups))
    if args.trace:
        values = child["layers"]
        units = {k: per_layer_unit(k) for k in values}
    else:
        units = {k: END_TO_END[k][0] for k in END_TO_END}
    metrics = {k: {"value": float(values[k]), "unit": units[k]}
               for k in sorted(units)}
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    detail = dict(child["detail"], workload=w.name, setup_samples_s=setups,
                  env=environment(nproc, args.seed))
    result = {"correct": child["failed"] == 0 and finite,
              "attempted": child["attempted"], "failed": child["failed"],
              "metrics": metrics}
    return detail, result


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(workloads))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", choices=("setup", "measure"),
                   help=argparse.SUPPRESS)
    p.add_argument("--work", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child is None and args.workload is None:
        p.error("--workload is required")
    return args


def main(argv=None):
    nproc = limit_threads()
    import_package()
    import workloads as wl

    args = parse_args(argv, wl.WORKLOADS)
    if args.child:
        return child_main(args)
    detail, result = run(wl.WORKLOADS[args.workload], args, nproc)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
