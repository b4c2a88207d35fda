from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest

from tcrtomo.autodiff import (Tensor, causal_attention, conv3d, gelu,
                              gradcheck, layer_norm, matmul, mul, no_grad,
                              reshape, rope_apply, scale, sub, tmean,
                              transpose, tslice, tsum)
from tcrtomo.errors import ConfigError
from tcrtomo.stt import (Predictor, SttConfig, _run, check_stt_params,
                         init_stt_params, predict_next, refine, rollout,
                         stt_apply, stt_forward, stt_param_shapes)

DESK = SttConfig(model_dim=64, heads=4, layers=2, image_size=32)
TINY = SttConfig(model_dim=16, heads=2, layers=1, image_size=16,
                 enc_channels=(2, 3, 4))


def _params64(cfg, seed=0):
    params = init_stt_params(cfg, seed=seed)
    return {k: Tensor(v.data.astype(np.float64), requires_grad=True)
            for k, v in params.items()}


class TestConfig:
    def test_divisibility_checks(self):
        with pytest.raises(ValueError):
            SttConfig(model_dim=65, heads=4)
        with pytest.raises(ValueError):
            SttConfig(image_size=36)
        with pytest.raises(ValueError):
            SttConfig(window=0)

    def test_roundtrip(self):
        cfg = SttConfig(model_dim=32, heads=2, layers=1, image_size=16,
                        window=4, enc_channels=(4, 8, 16))
        assert SttConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_drops_only_the_old_history_cap(self):
        cfg = SttConfig(model_dim=32, heads=2, layers=1, image_size=16)
        assert "max_context" not in cfg.to_dict()
        assert SttConfig.from_dict({**cfg.to_dict(), "max_context": 4}) == cfg
        with pytest.raises(TypeError, match="max_contxt"):
            SttConfig.from_dict({**cfg.to_dict(), "max_contxt": 4})

    def test_checkpoint_must_fit_the_run(self):
        cfg = SttConfig(model_dim=16, heads=2, layers=1, image_size=16,
                        enc_channels=(2, 3, 4))
        params = init_stt_params(cfg)
        check_stt_params(params, cfg, "predict", 16)
        with pytest.raises(ConfigError, match="predict.image_size") as err:
            check_stt_params(params, cfg, "predict", 32)
        assert err.value.path == "predict.image_size"
        del params["head.b"]
        with pytest.raises(ConfigError, match="lacks") as err:
            check_stt_params(params, cfg, "refine", 16)
        assert err.value.path == "refine.params/head.b"


class TestShapes:
    def test_output_has_one_extra_slot(self):
        cfg = SttConfig()
        params = init_stt_params(cfg, seed=1)
        x = np.random.default_rng(0).normal(size=(2, 64, 64)).astype(np.float32)
        out = stt_forward(params, cfg, x)
        assert out.shape == (3, 64, 64)
        assert out.dtype == np.float32
        assert np.all(np.isfinite(out))

    def test_any_length_in_range(self):
        params = init_stt_params(DESK, seed=2)
        rng = np.random.default_rng(1)
        for t in (1, 3, 5):
            x = rng.normal(size=(t, 32, 32)).astype(np.float32)
            assert stt_forward(params, DESK, x).shape == (t + 1, 32, 32)

    def test_context_and_finiteness_errors(self):
        cfg = SttConfig(model_dim=16, heads=2, layers=1, image_size=16,
                        enc_channels=(2, 3, 4))
        params = init_stt_params(cfg)
        y = np.zeros((2, 16, 16), dtype=np.float32)
        y[1, 3, 3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            stt_forward(params, cfg, y)
        with pytest.raises(ValueError):
            stt_forward(params, cfg, np.zeros((2, 8, 8), dtype=np.float32))

    def test_param_count_closed_form(self):
        def closed_form(cfg):
            c0, c1, c2 = cfg.enc_channels
            d = cfg.model_dim
            encoder = 27 * (c0 + c0 * c1 + c1 * c2) + c0 + c1 + c2
            embed = c2 * d + d
            block = 12 * d * d + 13 * d
            decoder = (9 * (d * c2 + (c2 + c1) * c1 + (c1 + c0) * c0)
                       + d * (c1 + c0) + c2 + 2 * (c1 + c0) + (c0 + 2))
            return encoder + embed + cfg.layers * block + 2 * d + decoder

        paper = SttConfig(model_dim=512, heads=8, layers=6, image_size=64)
        assert closed_form(paper) == 19_372_498
        for cfg in (DESK,
                    SttConfig(model_dim=16, heads=2, layers=1, image_size=16,
                              enc_channels=(2, 3, 4)),
                    SttConfig(model_dim=96, heads=8, layers=3, image_size=32)):
            params = init_stt_params(cfg)
            assert sum(t.data.size for t in params.values()) == closed_form(cfg)

    @pytest.mark.parametrize("cfg", [
        SttConfig(model_dim=16, heads=2, layers=1, image_size=16,
                  enc_channels=(2, 3, 4)),
        DESK,
        SttConfig(model_dim=512, heads=8, layers=6, image_size=64),
    ], ids=["tiny", "desk", "paper"])
    def test_shape_table_matches_init(self, cfg):
        params = init_stt_params(cfg)
        shapes = stt_param_shapes(cfg)
        assert list(shapes) == list(params)
        assert shapes == {k: v.shape for k, v in params.items()}

    def test_forward_stays_float32(self):
        params = init_stt_params(DESK, seed=3)
        x = Tensor(np.zeros((1, 2, 32, 32), dtype=np.float32))
        out = stt_apply(params, DESK, x)
        assert out.dtype == np.float32


class TestCausality:
    def test_future_frame_cannot_touch_past_slots(self):
        params = init_stt_params(DESK, seed=4)
        rng = np.random.default_rng(2)
        x1 = rng.normal(size=(4, 32, 32)).astype(np.float32)
        x2 = x1.copy()
        x2[2:] = rng.normal(size=(2, 32, 32)).astype(np.float32)
        out1 = stt_forward(params, DESK, x1)
        out2 = stt_forward(params, DESK, x2)
        assert np.array_equal(out1[0], out2[0])
        assert np.array_equal(out1[1], out2[1])
        assert not np.array_equal(out1[2], out2[2])

    def test_last_frame_change_preserves_all_earlier_slots(self):
        params = init_stt_params(DESK, seed=5)
        rng = np.random.default_rng(3)
        x1 = rng.normal(size=(5, 32, 32)).astype(np.float32)
        x2 = x1.copy()
        x2[4] += 1.0
        out1 = stt_forward(params, DESK, x1)
        out2 = stt_forward(params, DESK, x2)
        assert np.array_equal(out1[:4], out2[:4])

    def test_determinism_across_calls(self):
        params = init_stt_params(DESK, seed=6)
        x = np.random.default_rng(4).normal(size=(3, 32, 32)).astype(np.float32)
        a = stt_forward(params, DESK, x)
        b = stt_forward(params, DESK, x)
        assert np.array_equal(a, b)

    def test_init_deterministic_in_seed(self):
        p1 = init_stt_params(DESK, seed=9)
        p2 = init_stt_params(DESK, seed=9)
        assert sorted(p1) == sorted(p2)
        for k in p1:
            assert np.array_equal(p1[k].data, p2[k].data)


class TestRopeShiftEndToEnd:
    def test_block0_logits_depend_on_relative_position_only(self):
        cfg = SttConfig(model_dim=32, heads=4, layers=2, image_size=16,
                        enc_channels=(4, 6, 8))
        params = _params64(cfg, seed=7)
        rng = np.random.default_rng(5)
        frame = rng.normal(size=(16, 16))
        t = 10
        x = Tensor(np.broadcast_to(frame, (1, t, 16, 16)).astype(np.float64).copy())

        # replicate the token pipeline: static input flushes the causal
        # receptive field, so token content at slots >= 6 is identical and
        # logits there may differ only through rope positions
        s = t + 1
        seq = Tensor(np.concatenate([x.data, x.data[:, -1:]], axis=1))
        v = reshape(seq, (1, 1, s, 16, 16))
        pad = ((2, 0), (1, 1), (1, 1))
        v = gelu(conv3d(v, params["enc0.w"], params["enc0.b"], stride=(1, 2, 2), padding=pad))
        v = gelu(conv3d(v, params["enc1.w"], params["enc1.b"], stride=(1, 2, 2), padding=pad))
        v = gelu(conv3d(v, params["enc2.w"], params["enc2.b"], stride=(1, 2, 2), padding=pad))
        v = conv3d(v, params["embed.w"], params["embed.b"])
        g = cfg.grid
        tok = reshape(transpose(v, (0, 3, 4, 2, 1)), (g * g, s, cfg.model_dim))
        content = tok.data[:, 6:, :]
        assert np.allclose(content - content[:, :1, :], 0, atol=1e-12)

        h = layer_norm(tok, params["blk0.ln1.g"], params["blk0.ln1.b"])
        d = cfg.model_dim
        dk = d // cfg.heads
        qkv = matmul(h, params["blk0.qkv.w"]).data + params["blk0.qkv.b"].data
        q = qkv[..., :d].reshape(g * g, s, cfg.heads, dk)
        k = qkv[..., d:2 * d].reshape(g * g, s, cfg.heads, dk)
        qr = rope_apply(Tensor(q), list(range(s))).data
        kr = rope_apply(Tensor(k), list(range(s))).data
        logits = np.einsum("pmhd,pnhd->phmn", qr, kr) / np.sqrt(dk)

        # compare logit (m, n) to (m+2, n+2) for slots with shared content
        for m in range(6, s - 2):
            for n in range(6, m + 1):
                a = logits[:, :, m, n]
                b = logits[:, :, m + 2, n + 2]
                assert np.all(np.abs(a - b) <= 1e-5 * np.maximum(np.abs(a), 1e-8))


class TestGradients:
    def test_full_model_gradcheck(self):
        cfg = SttConfig(model_dim=8, heads=2, layers=1, image_size=8,
                        enc_channels=(2, 3, 4))
        params = _params64(cfg, seed=8)
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(1, 2, 8, 8)), requires_grad=True)
        target = rng.normal(size=(1, 3, 8, 8))

        def loss():
            d = sub(stt_apply(params, cfg, x), Tensor(target))
            return tmean(mul(d, d))

        checked = [x, params["enc0.w"], params["embed.w"],
                   params["blk0.qkv.w"], params["blk0.mlp1.b"],
                   params["final_ln.g"], params["dec1.w"], params["skip2.w"],
                   params["head.w"], params["head.b"]]
        gradcheck(loss, checked, eps=1e-4, rtol=2e-3, max_coords=4, seed=0)

    def test_loss_on_selected_slots_backprops(self):
        cfg = SttConfig(model_dim=16, heads=2, layers=1, image_size=16,
                        enc_channels=(2, 3, 4))
        params = init_stt_params(cfg, seed=10)
        x = np.random.default_rng(7).normal(size=(1, 2, 16, 16)).astype(np.float32)
        out = stt_apply(params, cfg, x)
        pred = tslice(out, (slice(None), slice(2, 3)))
        loss = tsum(pred * pred)
        loss.backward()
        assert params["head.w"].grad is not None
        assert np.all(np.isfinite(params["head.w"].grad))

    @staticmethod
    def _runner_against_stt_apply(size, window, n, run, ref):
        """Losses of a trainer's runner call run(params, cfg, x) and of the
        stt_apply path ref(out) it replaces, on one batch of n frames;
        every parameter gradient of the two agrees within 1e-5 of its
        largest entry."""
        cfg = replace(DESK if size == 32 else TINY, window=window)
        params = init_stt_params(cfg, seed=16)
        rng = np.random.default_rng(n)
        x = rng.normal(size=(3, n, size, size)).astype(np.float32)
        outs = (run(params, cfg, x), ref(stt_apply(params, cfg, x)))
        target = Tensor(rng.normal(size=outs[0].shape).astype(np.float32))
        results = []
        for out in outs:
            assert out.shape == target.shape
            diff = out - target
            loss = scale(tsum(diff * diff), 1 / 3)
            for p in params.values():
                p.grad = None
            loss.backward()
            results.append((loss.item(),
                            {k: p.grad.copy() for k, p in params.items()}))
        (got, grads), (want, ref_grads) = results
        for k, g in ref_grads.items():
            err = np.max(np.abs(grads[k] - g))
            assert err <= 1e-5 * np.max(np.abs(g)), (k, err)
        return got, want

    @pytest.mark.parametrize("window", [None, 2], ids=["unwindowed", "window2"])
    @pytest.mark.parametrize("size", [16, 32])
    def test_refinement_runner_matches_stt_apply(self, size, window):
        """The refinement trainer runs the pair without the query slot: its
        loss equals stt_apply's slots 0, 1 within float32 rounding (a
        2-slot encoder GEMM may round differently at 16 px), and every
        gradient within 1e-5 of its largest entry."""
        got, want = self._runner_against_stt_apply(
            size, window, 2,
            lambda params, cfg, x: _run(params, cfg, x, np.arange(2))[0],
            lambda out: tslice(out, (slice(None), slice(0, 2))))
        assert abs(got - want) <= 1e-6 * abs(want)

    @pytest.mark.parametrize("t", [2, 4, 7])
    @pytest.mark.parametrize("window", [None, 2], ids=["unwindowed", "window2"])
    @pytest.mark.parametrize("size", [16, 32])
    def test_prediction_runner_matches_stt_apply(self, size, window, t):
        """The prediction trainer runs T+1 slots and decodes slot T only:
        its loss equals stt_apply's slot T bitwise, and every gradient
        within 1e-5 of its largest entry."""
        def run(params, cfg, x):
            seq = np.concatenate([x, x[:, -1:]], axis=1)
            return _run(params, cfg, seq, np.arange(t + 1), decode=1)[0]

        got, want = self._runner_against_stt_apply(
            size, window, t, run,
            lambda out: tslice(out, (slice(None), slice(t, t + 1))))
        assert got == want

    @pytest.mark.parametrize("taped", [True, False], ids=["taped", "no_grad"])
    def test_query_slot_is_the_last_frame_appended(self, taped):
        """_run(..., query=True) is _run on the frames with the last slot
        appended by hand, bit for bit: frames, attended K/V and, on the
        tape, every parameter gradient."""
        params = init_stt_params(TINY, seed=17)
        x = np.random.default_rng(17).normal(size=(2, 3, 16, 16)).astype(
            np.float32)
        by_hand = np.concatenate([x, x[:, -1:]], axis=1)
        runs = []
        for seq, query in ((x, True), (by_hand, False)):
            for p in params.values():
                p.grad = None
            with nullcontext() if taped else no_grad():
                out, kv = _run(params, TINY, seq, np.arange(4), query=query)
            grads = []
            if taped:
                tsum(out * out).backward()
                grads = [p.grad for p in params.values()]
            runs.append([out.data] + [a.data for pair in kv for a in pair]
                        + grads)
        got, want = runs
        assert len(got) == len(want) == 3 + (len(params) if taped else 0)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestWrappers:
    @pytest.mark.parametrize("cfg", [DESK, replace(DESK, window=1)],
                             ids=["unwindowed", "window1"])
    def test_refine_slots(self, cfg):
        """refine runs without the query slot; slots 0 and 1 cannot see
        it, so they equal stt_forward's bit for bit."""
        params = init_stt_params(cfg, seed=11)
        pair = np.random.default_rng(8).normal(size=(2, 32, 32)).astype(np.float32)
        ref = refine(params, cfg, pair)
        assert ref.shape == (2, 32, 32)
        full = stt_forward(params, cfg, pair)
        assert np.array_equal(ref, full[:2])
        with pytest.raises(ValueError):
            refine(params, cfg, np.zeros((3, 32, 32), dtype=np.float32))

    def test_refine_slots_small_grid(self):
        """At 16 px the last encoder conv runs a GEMM of 8 columns instead
        of 12, which BLAS may round differently: equal within float32."""
        cfg = SttConfig(model_dim=16, heads=2, layers=1, image_size=16,
                        enc_channels=(2, 3, 4))
        params = init_stt_params(cfg, seed=11)
        pair = np.random.default_rng(8).normal(size=(2, 16, 16)).astype(
            np.float32)
        full = stt_forward(params, cfg, pair)[:2]
        err = np.max(np.abs(refine(params, cfg, pair) - full))
        assert err <= 1e-6 * np.max(np.abs(full))

    def test_predict_next_slot(self):
        params = init_stt_params(DESK, seed=12)
        hist = np.random.default_rng(9).normal(size=(2, 32, 32)).astype(np.float32)
        pred = predict_next(params, DESK, hist)
        assert pred.shape == (32, 32)
        full = stt_forward(params, DESK, hist)
        assert np.array_equal(pred, full[2])
        with pytest.raises(ValueError):
            predict_next(params, DESK, np.zeros((0, 32, 32), dtype=np.float32))

    def test_rollout_length_and_prefix(self):
        params = init_stt_params(DESK, seed=13)
        rng = np.random.default_rng(10)
        init = rng.normal(size=(2, 32, 32)).astype(np.float32)
        seq = rollout(params, DESK, init, 4)
        assert seq.shape == (6, 32, 32)
        assert np.array_equal(seq[:2], init)
        assert np.array_equal(seq[2], predict_next(params, DESK, init))


class TestPredictor:
    """Streaming oracle: every push equals predict_next on the same
    history within float32 rounding."""

    @pytest.mark.parametrize("window", [None, 2, 3])
    def test_push_matches_predict_next(self, window):
        cfg = SttConfig(model_dim=64, heads=4, layers=2, image_size=32,
                        window=window)
        params = init_stt_params(cfg, seed=14)
        x = np.random.default_rng(13).normal(size=(10, 32, 32)).astype(
            np.float32)
        predictor = Predictor(params, cfg)
        for t in range(1, 11):
            got = predictor.push(x[t - 1])
            want = predict_next(params, cfg, x[:t])
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))
            cached = {k.shape[1] for pair in predictor._cache for k in pair}
            assert cached == {t if window is None else min(t, window)}

    def test_unwindowed_stream_beyond_ten_frames(self):
        """64 frames pushed one at a time without a window: after push t
        every cached K/V holds exactly t slots, and pushes 16, 32 and 64
        equal predict_next on the same history within 1e-5."""
        params = init_stt_params(TINY, seed=16)
        x = np.random.default_rng(16).normal(size=(64, 16, 16)).astype(
            np.float32)
        predictor = Predictor(params, TINY)
        for t in range(1, 65):
            got = predictor.push(x[t - 1])
            assert {k.shape[1] for pair in predictor._cache
                    for k in pair} == {t}
            if t in (16, 32, 64):
                want = predict_next(params, TINY, x[:t])
                assert np.max(np.abs(got - want)) <= 1e-5 * np.max(
                    np.abs(want))

    def test_rope_phases_hold_at_large_positions(self):
        """The same 16 frames give the same prior after 0 and after 2000
        leading frames: a window=3 model reads them only through relative
        phases, which rope_angles keeps in float64. The qkv weights are
        scaled so that attention is far from uniform; at random init the
        logits are ~1e-4 and the prior would not depend on position at
        all. With the phases rounded to float32 the two priors differ by
        1.3e-5 relative; here by 7.5e-8."""
        cfg = SttConfig(model_dim=32, heads=4, layers=2, image_size=16,
                        window=3, enc_channels=(2, 3, 4))
        params = init_stt_params(cfg, seed=9)
        for i in range(cfg.layers):
            params[f"blk{i}.qkv.w"].data *= 100
        rng = np.random.default_rng(109)
        tail = rng.normal(size=(16, 16, 16)).astype(np.float32)
        lead = rng.normal(size=(2000, 16, 16)).astype(np.float32)

        def last_prior(n_lead):
            predictor = Predictor(params, cfg)
            for start in range(0, n_lead, 250):
                predictor.push(lead[start:start + 250])
            for frame in tail:
                prior = predictor.push(frame)
            assert predictor.length == n_lead + 16
            return prior

        want, got = last_prior(0), last_prior(2000)
        assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))

    def test_push_several_frames_then_one(self):
        params = init_stt_params(DESK, seed=15)
        x = np.random.default_rng(14).normal(size=(5, 32, 32)).astype(
            np.float32)
        predictor = Predictor(params, DESK)
        assert np.array_equal(predictor.push(x[:4]),
                              predict_next(params, DESK, x[:4]))
        got = predictor.push(x[4])
        want = predict_next(params, DESK, x)
        assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))

    def test_input_checks(self):
        cfg = SttConfig(model_dim=16, heads=2, layers=1, image_size=16,
                        enc_channels=(2, 3, 4))
        params = init_stt_params(cfg)
        predictor = Predictor(params, cfg)
        frame = np.zeros((16, 16), dtype=np.float32)
        bad = frame.copy()
        bad[3, 3] = np.inf
        with pytest.raises(ValueError, match="finite"):
            predictor.push(bad)
        with pytest.raises(ValueError, match="frame size"):
            predictor.push(np.zeros((8, 8), dtype=np.float32))
        with pytest.raises(ValueError):
            predictor.push(np.zeros((0, 16, 16), dtype=np.float32))
        predictor.push(np.stack([frame, frame]))
        predictor.push(frame)
        with pytest.raises(ValueError, match="finite"):
            predictor.push(np.stack([frame, bad]))
        # a rejected push leaves the stream where it was
        assert predictor.length == 3
        assert {k.shape[1] for pair in predictor._cache for k in pair} == {3}
        got = predictor.push(frame)
        want = predict_next(params, cfg, np.zeros((4, 16, 16), np.float32))
        assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))
