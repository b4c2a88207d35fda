import numpy as np
import pytest

from tcrtomo.errors import ConfigError, NumericalError
from tcrtomo.geometry import MatrixOperator, ScanGeometry, operator_for_angles
from tcrtomo.phantoms import generate_dataset
from tcrtomo.pipeline import (ReconConfig, aggregate_metrics,
                              default_alpha_grid, evaluate, load_result,
                              save_result, select_alphas, solve_step,
                              tcr_reconstruct)
from tcrtomo.solvers import l1_tcr_fista, l1_tv_tcr_pdhg, l2_tcr
from tcrtomo.stt import SttConfig, init_stt_params

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
        # two init-phase solves plus the sequential loop over t = 1..9
        phases = [(r["step"], r["phase"]) for r in res.reports]
        assert phases[:2] == [(0, "init"), (1, "init")]
        assert phases[2:] == [(t, "loop") for t in range(1, 10)]

    def test_metrics_rows_when_gt_given(self, setup):
        _, ds, rm, pm = setup
        res = tcr_reconstruct(ds.sinograms[0], _cfg(), rm, pm,
                              gt=ds.gt[0])
        assert len(res.metrics) == 10
        assert "psnr" in res.metrics[0] and "psnr_prior" not in res.metrics[0]
        assert "psnr_prior" in res.metrics[5]

    def test_trace_proves_causal_dataflow(self, setup):
        _, ds, rm, pm = setup
        events = []
        tcr_reconstruct(ds.sinograms[0], _cfg(), rm, pm, trace=events.append)
        predicts = [e for e in events if e[0] == "predict"]
        assert [e[1] for e in predicts] == list(range(1, 10))
        for e in predicts:
            assert e[2] == tuple(range(e[1]))
        solves = [e for e in events if e[0] == "solve"]
        # each solve consumes only its own step's measurements
        assert [e[1] for e in solves] == [0, 1] + list(range(1, 10))
        # strict sequential interleaving: predict t immediately precedes
        # the loop solve of t
        order = [e for e in events if e[0] in ("predict", "solve")]
        for i, e in enumerate(order):
            if e[0] == "predict":
                assert order[i + 1] == ("solve", e[1], "loop")

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
            if t < 2:
                x0 = res.reconstructions[t] if t == 1 else None
                prior = res.refined[t].astype(np.float64)
            else:
                prior = res.predictions[t - 1].astype(np.float64)
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
            if t == 1:
                # step 1 is solved twice; the final value comes from the
                # loop re-solve whose x0 is the step-1 prediction
                x, _ = (l2_tcr(op, sino.frames[t], dummy, 0.0,
                               x0=res.predictions[0].astype(np.float64),
                               max_iter=19) if solver == "L2" else
                        l1_tcr_fista(op, sino.frames[t], dummy, 0.0,
                                     x0=res.predictions[0].astype(np.float64),
                                     max_iter=200) if solver == "L1" else
                        l1_tv_tcr_pdhg(op, sino.frames[t], dummy, 0.0, beta,
                                       x0=res.predictions[0].astype(np.float64),
                                       max_iter=400))
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

    def test_default_grid_shape(self):
        grid = default_alpha_grid()
        assert len(grid) == 25
        assert grid[0] == pytest.approx(1e-3)
        assert grid[-1] == pytest.approx(1.0)
        ratios = grid[1:] / grid[:-1]
        assert np.allclose(ratios, ratios[0])


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
        short = SttConfig(model_dim=16, heads=2, layers=1, image_size=16,
                          max_context=4, enc_channels=(2, 3, 4))
        short_model = (init_stt_params(short, seed=0), short)
        with pytest.raises(ConfigError, match="max_context"):
            tcr_reconstruct(ds.sinograms[0], _cfg(), rm, short_model)
        incomplete = ({}, MODEL_CFG)
        with pytest.raises(ConfigError, match="lacks"):
            tcr_reconstruct(ds.sinograms[0], _cfg(), incomplete, pm)

    def test_result_roundtrip(self, setup, tmp_path):
        _, ds, rm, pm = setup
        res = tcr_reconstruct(ds.sinograms[0], _cfg(), rm, pm, gt=ds.gt[0])
        save_result(tmp_path / "out", res, extra={"solver": "L1"})
        loaded, meta = load_result(tmp_path / "out")
        assert meta["extra"]["solver"] == "L1"
        assert np.allclose(loaded.reconstructions,
                           res.reconstructions.astype(np.float32), atol=1e-7)
        assert np.array_equal(loaded.predictions, res.predictions)
        assert len(loaded.metrics) == 10
        assert len(meta["stop_reasons"]) == len(res.reports)

    def test_init_tv_mode_runs(self, setup):
        _, ds, rm, pm = setup
        cfg = _cfg(init_mode="tv", max_iter_pdhg=60)
        res = tcr_reconstruct(ds.sinograms[0], cfg, rm, pm)
        assert np.all(np.isfinite(res.initial))
