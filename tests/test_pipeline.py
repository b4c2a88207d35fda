from dataclasses import replace

import numpy as np
import pytest

from tcrtomo.datasets import Sinogram
from tcrtomo.errors import ConfigError, NumericalError
from tcrtomo.geometry import MatrixOperator, ScanGeometry, operator_for_angles
from tcrtomo.phantoms import generate_dataset
from tcrtomo.pipeline import (ReconConfig, _initial_recon, aggregate_metrics,
                              evaluate, load_result, save_result,
                              select_alphas, solve_step, tcr_reconstruct)
from tcrtomo.solvers import l1_tcr_fista, l1_tv_tcr_pdhg, l2_tcr
from tcrtomo.stt import (Predictor, SttConfig, init_stt_params, predict_next,
                         refine)
from tcrtomo.training import landweber_pairs

MODEL_CFG = SttConfig(model_dim=16, heads=2, layers=1, image_size=16,
                      enc_channels=(2, 3, 4))


@pytest.fixture(scope="module")
def setup():
    geom = ScanGeometry(image_size=16, n_steps=10, n_angles_init=8,
                        n_angles_rest=3, n_offsets=23)
    ds = generate_dataset(geom, 2, seed=21)
    refine_model = (init_stt_params(MODEL_CFG, seed=1), MODEL_CFG)
    predict_model = (init_stt_params(MODEL_CFG, seed=2), MODEL_CFG)
    return geom, ds, refine_model, predict_model


def _cfg(**kw):
    kw.setdefault("image_size", 16)
    return ReconConfig(**kw)


class TestStructure:
    def test_frame_and_prior_counts(self, setup):
        _, ds, rm, pm = setup
        res = tcr_reconstruct(ds.sinograms[0], _cfg(), rm, pm)
        assert res.reconstructions.shape == (10, 16, 16)
        assert res.predictions.shape == (9, 16, 16)
        assert res.refined.shape == (2, 16, 16)
        assert res.initial.shape == (2, 16, 16)
        # one solve per frame: frame 0 against its refined estimate, the
        # loop over t = 1..9 against predictions
        phases = [(r["step"], r["phase"]) for r in res.reports]
        assert phases == [(0, "init")] + [(t, "loop") for t in range(1, 10)]

    def test_metrics_rows_when_gt_given(self, setup):
        """The reconstruction scores nothing itself; evaluate, given the
        ground truth, makes one row per step."""
        _, ds, rm, pm = setup
        res = tcr_reconstruct(ds.sinograms[0], _cfg(), rm, pm)
        assert res.metrics == []
        rows = evaluate(res, ds.gt[0])["frames"]
        assert len(rows) == 10
        assert "psnr" in rows[0] and "psnr_prior" not in rows[0]
        assert "psnr_prior" in rows[5]

    def test_trace_proves_causal_dataflow(self, setup):
        _, ds, rm, pm = setup
        events = []
        tcr_reconstruct(ds.sinograms[0], _cfg(), rm, pm, trace=events.append)
        predicts = [e for e in events if e[0] == "predict"]
        assert [e[1] for e in predicts] == list(range(1, 10))
        for e in predicts:
            assert e[2] == tuple(range(e[1]))
        solves = [e for e in events if e[0] == "solve"]
        # each frame is solved once, on its own step's measurements
        assert solves == [("solve", 0, "init")] + [("solve", t, "loop")
                                                   for t in range(1, 10)]
        # strict sequential interleaving: predict t comes right after the
        # solve of t - 1 and right before the solve of t
        order = [e for e in events if e[0] in ("predict", "solve")]
        assert order[::2] == solves and order[1::2] == predicts

    def test_trace_reads_the_history_from_the_predictor(self, setup,
                                                         monkeypatch):
        """The predict event's history is what the predictor holds, not
        the loop index: a predictor that takes each frame twice holds
        2(t - 1) frames before step t's push, so the event lists those and
        the frame being pushed, 0..2t-2."""
        import tcrtomo.pipeline as pipeline

        class Doubling(Predictor):
            def push(self, frames):
                return super().push(np.stack([frames, frames]))

        monkeypatch.setattr(pipeline, "Predictor", Doubling)
        _, ds, rm, pm = setup
        events = []
        tcr_reconstruct(ds.sinograms[0], _cfg(), rm, pm, trace=events.append)
        predicts = [e for e in events if e[0] == "predict"]
        assert [e[1] for e in predicts] == list(range(1, 10))
        for _, t, history in predicts:
            assert history == tuple(range(2 * t - 1))

    def test_predictor_work_per_step_is_constant(self, setup, monkeypatch):
        """Each step feeds two slots of tokens through every dense layer
        and decodes one slot, whatever the history length, and its prior
        is predict_next on the history within float32 rounding. The
        refinement feeds and decodes its two frames, with no query slot."""
        import tcrtomo.stt as stt
        _, ds, rm, pm = setup
        step, rows, decoded = [None], {}, {}
        real_linear, real_conv2d = stt.linear, stt.conv2d

        def linear(x, params, name):
            if step[0] is not None:
                rows.setdefault(step[0], []).append(
                    int(np.prod(x.shape[:-1])))
            return real_linear(x, params, name)

        def conv2d(x, *args, **kwargs):
            if step[0] is not None:
                decoded.setdefault(step[0], set()).add(x.shape[0])
            return real_conv2d(x, *args, **kwargs)

        def trace(event):
            step[0] = event[1] if event[0] in ("refine", "predict") else None

        monkeypatch.setattr(stt, "linear", linear)
        monkeypatch.setattr(stt, "conv2d", conv2d)
        res = tcr_reconstruct(ds.sinograms[0], _cfg(), rm, pm, trace=trace)
        per_step = [2 * MODEL_CFG.grid ** 2] * (4 * MODEL_CFG.layers)
        assert rows == {t: per_step for t in [(0, 1)] + list(range(1, 10))}
        assert decoded == {(0, 1): {2}, **{t: {1} for t in range(1, 10)}}

        monkeypatch.undo()
        for t in range(1, 10):
            want = predict_next(pm[0], pm[1],
                                res.reconstructions[:t].astype(np.float32))
            got = res.predictions[t - 1]
            assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))

    def test_windowed_model_streams_a_long_scan(self, setup, monkeypatch):
        """A window=2 prediction model reconstructs 70 steps, the 10-step
        scan tiled seven times: its cache never holds more than two slots,
        and the step-69 prior is predict_next on the whole history."""
        import tcrtomo.pipeline as pipeline
        _, ds, rm, _ = setup
        sino = ds.sinograms[0]
        long_scan = Sinogram(sino.frames * 7, sino.angles * 7, sino.offsets)
        cfg = replace(MODEL_CFG, window=2)
        pm = (init_stt_params(cfg, seed=2), cfg)
        slots = []

        class Watched(Predictor):
            def push(self, frames):
                out = super().push(frames)
                slots.append({k.shape[1] for kv in self._cache for k in kv})
                return out

        monkeypatch.setattr(pipeline, "Predictor", Watched)
        res = tcr_reconstruct(long_scan, _cfg(), rm, pm)
        assert res.reconstructions.shape == (70, 16, 16)
        assert slots == [{1}] + [{2}] * 68
        want = predict_next(*pm, res.reconstructions[:69].astype(np.float32))
        got = res.predictions[68]
        assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))

    def test_future_measurement_perturbation_cannot_reach_past(self, setup):
        _, ds, rm, pm = setup
        sino = ds.sinograms[0]
        res1 = tcr_reconstruct(sino, _cfg(), rm, pm)

        import copy
        sino2 = copy.deepcopy(sino)
        for s in range(3, 10):
            sino2.frames[s] = sino2.frames[s] + 1.0
        res2 = tcr_reconstruct(sino2, _cfg(), rm, pm)
        assert np.array_equal(res1.reconstructions[:3],
                              res2.reconstructions[:3])
        assert np.array_equal(res1.predictions[:2], res2.predictions[:2])
        assert not np.array_equal(res1.reconstructions[3],
                                  res2.reconstructions[3])

    def test_too_short_sinogram(self, setup):
        _, ds, rm, pm = setup
        import copy
        sino = copy.deepcopy(ds.sinograms[0])
        sino.frames = sino.frames[:1]
        sino.angles = sino.angles[:1]
        with pytest.raises(ValueError, match="2 time steps"):
            tcr_reconstruct(sino, _cfg(), rm, pm)

    @pytest.mark.parametrize("step", [2, 9])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_frame_fails_at_its_step(self, setup, step, bad):
        _, ds, rm, pm = setup
        import copy
        sino = copy.deepcopy(ds.sinograms[0])
        sino.frames[step][0, 0] = bad
        with pytest.raises(NumericalError, match=f"at step {step}: psi"):
            tcr_reconstruct(sino, _cfg(), rm, pm)


def _two_init_solves_reconstruct(sino, cfg, refine_model, predict_model):
    """Reference loop that solves frame 1 twice: frames 0 and 1 against
    their refined estimates ("init"), then the loop from t = 1 against
    predictions, whose solve of frame 1 overwrites the first one."""
    n_frames, size = len(sino.frames), cfg.image_size
    ops = [operator_for_angles(a, sino.offsets, size) for a in sino.angles]
    initial = np.stack([_initial_recon(ops[t], sino.frames[t], cfg)[0]
                        for t in range(2)])
    refined = refine(*refine_model, initial.astype(np.float32))
    recon = np.zeros((n_frames, size, size))
    reports = []

    def solve(t, phase, prior):
        alpha = cfg.alpha_init if t < 2 else cfg.alpha_rest
        beta = cfg.beta_init if t < 2 else cfg.beta_rest
        recon[t], rep = solve_step(ops[t], sino.frames[t], prior, alpha,
                                   beta, cfg)
        reports.append({"step": t, "phase": phase, "report": rep})

    for t in range(2):
        solve(t, "init", refined[t].astype(np.float64))
    predictions = np.zeros((n_frames - 1, size, size), dtype=np.float32)
    predictor = Predictor(*predict_model)
    for t in range(1, n_frames):
        predictions[t - 1] = predictor.push(recon[t - 1].astype(np.float32))
        solve(t, "loop", predictions[t - 1].astype(np.float64))
    return recon, predictions, refined, initial, reports


class TestOneSolvePerFrame:
    """Dropping the overwritten solve of frame 1 changes no output."""

    @pytest.mark.parametrize("solver", ["L2", "L1", "L1TV"])
    def test_matches_two_init_solves_bitwise(self, setup, solver):
        _, ds, rm, pm = setup
        beta = 0.05 if solver == "L1TV" else 0.0
        cfg = _cfg(solver=solver, alpha_init=0.05, alpha_rest=0.2,
                   beta_init=beta, beta_rest=2 * beta)
        sino = ds.sinograms[1]
        res = tcr_reconstruct(sino, cfg, rm, pm)
        recon, predictions, refined, initial, reports = \
            _two_init_solves_reconstruct(sino, cfg, rm, pm)
        for got, want in ((res.reconstructions, recon),
                          (res.predictions, predictions),
                          (res.refined, refined), (res.initial, initial)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

        def key(entry):
            return entry["step"], entry["phase"], repr(entry["report"])

        kept = [key(e) for e in reports
                if (e["step"], e["phase"]) != (1, "init")]
        assert len(kept) == len(reports) - 1 == len(res.reports) == 10
        assert [key(e) for e in res.reports] == kept


class TestBootstrapParity:
    def test_training_pairs_are_the_default_initial_frames(self, setup):
        """Under the default ReconConfig, reconstruction starts from the
        Landweber pairs the refinement model is trained on, bit for bit."""
        _, ds, rm, pm = setup
        pairs = landweber_pairs(ds)
        assert pairs.dtype == np.float32 and len(pairs) == 2
        for pair, sino in zip(pairs, ds.sinograms):
            initial = tcr_reconstruct(sino, _cfg(), rm, pm).initial
            assert np.array_equal(pair, initial.astype(np.float32))


class TestAlphaZeroEquivalence:
    @pytest.mark.parametrize("solver", ["L2", "L1", "L1TV"])
    def test_alpha_zero_reproduces_plain_solver_bitwise(self, setup, solver):
        _, ds, rm, pm = setup
        sino = ds.sinograms[1]
        beta = 0.05 if solver == "L1TV" else 0.0
        cfg = _cfg(solver=solver, alpha_init=0.0, alpha_rest=0.0,
                   beta_init=beta, beta_rest=beta)
        res = tcr_reconstruct(sino, cfg, rm, pm)
        for t in range(10):
            op = operator_for_angles(sino.angles[t], sino.offsets, 16)
            prior = (res.refined[0] if t == 0
                     else res.predictions[t - 1]).astype(np.float64)
            # the prior must be irrelevant at alpha 0: hand the plain
            # solver a different anchor but the same starting point
            dummy = np.full((16, 16), 0.123)
            if solver == "L2":
                x, _ = l2_tcr(op, sino.frames[t], dummy, 0.0, x0=prior,
                              max_iter=19)
            elif solver == "L1":
                x, _ = l1_tcr_fista(op, sino.frames[t], dummy, 0.0,
                                    x0=prior, max_iter=200)
            else:
                x, _ = l1_tv_tcr_pdhg(op, sino.frames[t], dummy, 0.0, beta,
                                      x0=prior, max_iter=400)
            assert np.array_equal(res.reconstructions[t], x), f"step {t}"


class TestLimitBehavior:
    @pytest.mark.parametrize("solver", ["L2", "L1", "L1TV"])
    def test_huge_alpha_pins_solution_to_prior(self, solver):
        rng = np.random.default_rng(3)
        op = MatrixOperator(np.eye(9), in_shape=(3, 3))
        x_true = rng.uniform(0.2, 0.8, size=(3, 3))
        psi = op.forward(x_true)
        prior = x_true + 0.005
        cfg = ReconConfig(image_size=16, solver=solver, beta_init=0.01,
                          beta_rest=0.01)
        x, _ = solve_step(op, psi, prior, 1e3, 0.01, cfg)
        assert np.max(np.abs(x - prior)) <= 1e-2

    def test_discrepancy_never_worse_than_prior(self, setup):
        _, ds, rm, pm = setup
        sino = ds.sinograms[0]
        for solver in ("L2", "L1"):
            cfg = _cfg(solver=solver, alpha_init=0.05, alpha_rest=0.05)
            res = tcr_reconstruct(sino, cfg, rm, pm)
            for entry in res.reports:
                t = entry["step"]
                op = operator_for_angles(sino.angles[t], sino.offsets, 16)
                if entry["phase"] == "init":
                    prior = res.refined[t].astype(np.float64)
                else:
                    prior = res.predictions[t - 1].astype(np.float64)
                d_prior = np.linalg.norm(op.forward(prior) - sino.frames[t])
                d_recon = np.linalg.norm(
                    op.forward(res.reconstructions[t]) - sino.frames[t])
                assert d_recon <= d_prior + 1e-12, (solver, t)


class TestSelectAlphas:
    def test_singleton_grids_pass_through(self, setup):
        _, ds, rm, pm = setup
        got = select_alphas(ds, _cfg(solver="L2"), [0.07], [0.3], rm, pm)
        assert got == (0.07, 0.3)

    def test_matches_brute_force(self, setup):
        _, ds, rm, pm = setup
        cfg = _cfg(solver="L2")
        grid_i, grid_r = [0.01, 0.5], [0.01, 0.5]
        got = select_alphas(ds, cfg, grid_i, grid_r, rm, pm)

        from dataclasses import replace
        best = None
        for ai in grid_i:
            for ar in grid_r:
                trial = replace(cfg, alpha_init=ai, alpha_rest=ar)
                errs = []
                for i, sino in enumerate(ds.sinograms):
                    res = tcr_reconstruct(sino, trial, rm, pm)
                    errs.append(np.mean(
                        (res.reconstructions - ds.gt[i].astype(np.float64)) ** 2))
                key = (np.mean(errs), -ar, -ai)
                if best is None or key < best[0]:
                    best = (key, (ai, ar))
        assert got == best[1]

    def test_deterministic(self, setup):
        _, ds, rm, pm = setup
        cfg = _cfg(solver="L2")
        a = select_alphas(ds, cfg, [0.05, 0.2], [0.1], rm, pm)
        b = select_alphas(ds, cfg, [0.05, 0.2], [0.1], rm, pm)
        assert a == b

    def test_empty_grid_rejected(self, setup):
        _, ds, rm, pm = setup
        with pytest.raises(ValueError):
            select_alphas(ds, _cfg(), [], [0.1], rm, pm)


class TestEvaluate:
    def test_perfect_reconstruction(self, setup):
        _, ds, rm, pm = setup
        res = tcr_reconstruct(ds.sinograms[0], _cfg(), rm, pm)
        gt = np.asarray(ds.gt[0], dtype=np.float64)
        res.reconstructions = gt.copy()
        table = evaluate(res, gt)
        for row in table["frames"]:
            assert row["ssim"] == pytest.approx(1.0)
        assert table["recon_ssim_mean"] == pytest.approx(1.0)

    def test_aggregate_is_mean_of_frames(self, setup):
        _, ds, rm, pm = setup
        res = tcr_reconstruct(ds.sinograms[0], _cfg(), rm, pm)
        table = evaluate(res, ds.gt[0])
        psnrs = [r["psnr"] for r in table["frames"]]
        assert table["recon_psnr_mean"] == pytest.approx(np.mean(psnrs),
                                                         abs=1e-6)
        assert table["last_psnr"] == psnrs[-1]

    def test_shape_mismatch(self, setup):
        _, ds, rm, pm = setup
        res = tcr_reconstruct(ds.sinograms[0], _cfg(), rm, pm)
        with pytest.raises(ValueError):
            evaluate(res, np.zeros((3, 16, 16)))

    def test_aggregate_metrics_across_sequences(self):
        tables = [{"recon_psnr_mean": 20.0, "recon_ssim_mean": 0.8,
                   "prior_psnr_mean": 18.0, "prior_ssim_mean": 0.7,
                   "last_psnr": 19.0, "last_ssim": 0.75},
                  {"recon_psnr_mean": 30.0, "recon_ssim_mean": 0.9,
                   "prior_psnr_mean": 28.0, "prior_ssim_mean": 0.8,
                   "last_psnr": 29.0, "last_ssim": 0.85}]
        out = aggregate_metrics(tables)
        assert out["recon_psnr_mean"] == pytest.approx(25.0)
        assert out["recon_psnr_std"] == pytest.approx(5.0)
        assert out["last_psnr_mean"] == pytest.approx(24.0)


class TestConfigAndPersistence:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            _cfg(solver="TV2")
        with pytest.raises(ConfigError):
            _cfg(alpha_init=-0.1)
        with pytest.raises(ConfigError):
            _cfg(max_iter_l1=0)
        with pytest.raises(ConfigError):
            _cfg(init_mode="fbp")

    def test_model_mismatch_errors(self, setup):
        _, ds, rm, pm = setup
        big = SttConfig(model_dim=16, heads=2, layers=1, image_size=32,
                        enc_channels=(2, 3, 4))
        bad_model = (init_stt_params(big, seed=0), big)
        with pytest.raises(ConfigError, match="image_size"):
            tcr_reconstruct(ds.sinograms[0], _cfg(), bad_model, pm)
        incomplete = ({}, MODEL_CFG)
        with pytest.raises(ConfigError, match="lacks"):
            tcr_reconstruct(ds.sinograms[0], _cfg(), incomplete, pm)

    def test_result_roundtrip(self, setup, tmp_path):
        _, ds, rm, pm = setup
        res = tcr_reconstruct(ds.sinograms[0], _cfg(), rm, pm)
        res.metrics = evaluate(res, ds.gt[0])["frames"]
        save_result(tmp_path / "out", res, extra={"solver": "L1"})
        loaded, meta = load_result(tmp_path / "out")
        assert meta["extra"]["solver"] == "L1"
        assert np.allclose(loaded.reconstructions,
                           res.reconstructions.astype(np.float32), atol=1e-7)
        assert np.array_equal(loaded.predictions, res.predictions)
        assert len(loaded.metrics) == 10
        assert meta["stop_reasons"] == [r["report"].stop_reason
                                        for r in res.reports]
        assert meta["iterations"] == [r["report"].iterations
                                      for r in res.reports]

    def test_init_tv_mode_runs(self, setup):
        _, ds, rm, pm = setup
        cfg = _cfg(init_mode="tv", max_iter_pdhg=60)
        res = tcr_reconstruct(ds.sinograms[0], cfg, rm, pm)
        assert np.all(np.isfinite(res.initial))
