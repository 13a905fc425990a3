"""Bad input at the package's boundaries gets a typed error or a documented
degenerate path: non-finite K/V, compacted attention rows in replay, and
truncated or mismatched weights."""

import numpy as np
import pytest

from tokenskip.cli import main
from tokenskip.filtering import FilterEngine, head_similarity
from tokenskip.model import (
    _HEADER,
    MAX_MODEL_VALUES,
    DecodeSession,
    ModelConfig,
    init_weights,
    load_weights,
    save_weights,
)
from tokenskip.numerics import DegenerateInputError, cosine_similarity
from tokenskip.policy import ConfigError, PruneConfig
from tokenskip.replay import replay
from tokenskip.trace import TraceEvent, TraceHeader, TraceRecorder


class TestNonFiniteKV:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_cosine_rejects_non_finite(self, bad):
        with pytest.raises(DegenerateInputError):
            cosine_similarity(np.array([1.0, bad]), np.array([1.0, 1.0]))
        with pytest.raises(DegenerateInputError):
            cosine_similarity(np.array([1.0, 1.0]), np.array([bad, 1.0]))

    def test_nan_head_is_degenerate_with_zero_similarity(self):
        anchors = np.ones((2, 4))
        current = np.ones((2, 4))
        current[1, 2] = np.nan
        mean, var, degenerate = head_similarity(anchors, current)
        assert degenerate
        assert (mean, var) == (0.5, 0.25)   # heads score 1.0 and 0.0

    def test_nan_token_is_degenerate_and_not_skipped(self):
        prune = PruneConfig(tail_fraction=1.0, warmup_steps=0,
                            tau_init=0.5, p_global=0.5)
        engine = FilterEngine(1, 2, 4, prune)
        token = np.ones((2, 4), dtype=np.float32)
        # Every step is a decode step: its rank is its index.
        for step in range(3):
            skipped, _ = engine.process(0, 0, (token, token), step, step)
        corrupt = np.full((2, 4), np.nan, dtype=np.float32)
        skipped, report = engine.process(0, 0, (corrupt, corrupt), 3, 3)
        assert not skipped
        assert report.degenerate and report.s_kv == 0.0


class TestCompactedRows:
    def _record(self, cache_on_skip):
        cfg = ModelConfig(n_layers=4, n_heads=4, d_model=32, d_head=8, d_ff=48,
                          max_seq=96, seed=22)
        prune = PruneConfig(tail_fraction=0.5, p_global=0.25,
                            warmup_steps=6, tau_init=0.35, cache_on_skip=cache_on_skip)
        rec = TraceRecorder(cfg.n_layers, cfg.n_heads, cfg.d_head,
                            generator_params={"prefill_steps": "3"})
        live = DecodeSession(cfg, prune, mode="filtered", record=True).decode(
            [9, 8, 7], 60, recorder=rec)
        return prune, live, rec.header(), rec.events

    def test_dropped_cache_gives_no_mass_metrics(self):
        prune, live, header, events = self._record("drop")
        assert any(e.attn.shape[1] != e.step + 1 for e in events)
        result = replay(header, events, prune)
        assert result.global_mass_lost is None
        assert all(row["mass_lost"] == "" for row in result.summary)
        key = [(r.step, r.layer, r.s_kv, r.tau, r.skipped, r.flops_saved) for r in live.reports]
        assert key == [(r.step, r.layer, r.s_kv, r.tau, r.skipped, r.flops_saved)
                       for r in result.reports]

    def test_kept_cache_keeps_mass_metrics(self):
        prune, live, header, events = self._record("keep")
        assert any(r.skipped for r in live.reports)
        assert all(e.attn.shape[1] == e.step + 1 for e in events)
        result = replay(header, events, prune)
        assert result.global_mass_lost > 0.0
        assert [row["layer"] for row in result.summary[:-1]] == [0, 1, 2, 3]
        assert all(isinstance(row["mass_lost"], float) for row in result.summary)


class TestWeightsBoundary:
    CFG = ModelConfig(n_layers=2, n_heads=2, d_model=16, d_head=8, d_ff=24,
                      vocab_size=32, max_seq=16, seed=12)

    @pytest.mark.parametrize("cut", [0, 20, 500, -1])
    def test_truncated_blob_is_a_value_error(self, cut):
        blob = save_weights(init_weights(self.CFG))
        with pytest.raises(ValueError, match="truncated weights blob"):
            load_weights(blob[:cut])

    def test_mismatched_config_rejected(self):
        weights = init_weights(self.CFG)
        other = ModelConfig(n_layers=3, n_heads=2, d_model=16, d_head=8, d_ff=24,
                            vocab_size=32, max_seq=16, seed=12)
        with pytest.raises(ConfigError, match="n_layers 2 in the weights, 3 in the session"):
            DecodeSession(other, weights=weights)
        DecodeSession(self.CFG, weights=weights)   # the matching config is accepted

    def test_a_blob_header_past_the_model_cap_is_refused(self, tmp_path, capsys):
        """The blob's length bounds its arrays, but not the KV cache and
        position table its header's max_seq sizes: a max_seq past the model
        cap is a ConfigError, raised before any allocation, and exits 2."""
        blob = save_weights(init_weights(self.CFG))
        fields = list(_HEADER.unpack_from(blob))
        fields[8] = 2**32 - 1   # max_seq
        huge = _HEADER.pack(*fields) + blob[_HEADER.size:]
        with pytest.raises(ConfigError, match=f"above the cap of {MAX_MODEL_VALUES}$"):
            load_weights(huge)
        path = tmp_path / "w.bin"
        path.write_bytes(huge)
        assert main(["generate", "--steps", "1", "--load-weights", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"above the cap of {MAX_MODEL_VALUES}" in err and "Traceback" not in err

    @pytest.mark.parametrize("cut", [20, 500])
    def test_cli_truncated_blob_exits_1(self, tmp_path, capsys, cut):
        blob = tmp_path / "w.bin"
        assert main(["generate", "--steps", "1", "--seed", "3",
                     "--save-weights", str(blob)]) == 0
        blob.write_bytes(blob.read_bytes()[:cut])
        capsys.readouterr()
        assert main(["generate", "--steps", "1", "--seed", "3",
                     "--load-weights", str(blob)]) == 1
        err = capsys.readouterr().err
        assert "truncated weights blob" in err and "Traceback" not in err

    # Per array name, as the error gives it, the array and an index in it:
    # the embedding, one layer's matrix and the final norm's bias.
    NON_FINITE = {
        "embed": lambda w: (w.embed, (0, 0)),
        "layer 1 w1": lambda w: (w.layers[1].w1, (2, 3)),
        "lnf_b": lambda w: (w.lnf_b, -1),
    }

    def _poison(self, weights, name, bad):
        arr, index = self.NON_FINITE[name](weights)
        arr[index] = bad

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", NON_FINITE)
    def test_non_finite_blob_is_a_value_error(self, name, bad):
        weights = init_weights(self.CFG)
        self._poison(weights, name, bad)
        with pytest.raises(ValueError, match=f"^weights blob: {name} holds a non-finite value$"):
            load_weights(save_weights(weights))

    @pytest.mark.parametrize("name, bad", [("embed", np.nan), ("layer 1 w1", np.inf),
                                           ("lnf_b", -np.inf)])
    def test_cli_non_finite_blob_exits_1(self, tmp_path, capsys, name, bad):
        """A non-finite weight is refused as the blob loads, before any
        decode: no recording, report or summary is written."""
        blob = tmp_path / "w.bin"
        assert main(["generate", "--steps", "1", "--seed", "3",
                     "--save-weights", str(blob)]) == 0
        weights = load_weights(blob.read_bytes())
        self._poison(weights, name, bad)
        blob.write_bytes(save_weights(weights))
        capsys.readouterr()
        outputs = {flag: tmp_path / f"out{flag}" for flag in ("--record", "--report", "--summary")}
        assert main(["generate", "--steps", "2", "--seed", "3", "--mode", "filtered",
                     "--load-weights", str(blob),
                     *(arg for flag, path in outputs.items() for arg in (flag, str(path)))]) == 1
        err = capsys.readouterr().err
        assert f"{name} holds a non-finite value" in err and "Traceback" not in err
        assert not any(path.exists() for path in outputs.values())

    def test_cli_mismatched_weights_exit_2(self, tmp_path, capsys):
        blob = tmp_path / "w.bin"
        assert main(["generate", "--steps", "1", "--seed", "3",
                     "--save-weights", str(blob)]) == 0
        capsys.readouterr()
        assert main(["generate", "--steps", "1", "--seed", "3", "--load-weights", str(blob),
                     "--n-layers", "6"]) == 2
        assert "n_layers 4 in the weights, 6 in the session" in capsys.readouterr().err


class TestNonFiniteAnchor:
    """A non-finite token is reported as degenerate and not skipped, but it
    never reaches its (layer, seq) anchor, so later tokens are scored as if it
    had not been seen."""

    N_HEADS, D_HEAD, N_STEPS, BAD_STEP = 2, 4, 8, 3

    def _prune(self, anchor_mode):
        return PruneConfig(tail_fraction=1.0, warmup_steps=0,
                           tau_init=-1.0, p_global=0.5, anchor_mode=anchor_mode)

    def _stream(self, bad, target="k"):
        rng = np.random.default_rng(41)
        ks = rng.standard_normal((self.N_STEPS, self.N_HEADS, self.D_HEAD)).astype(np.float32)
        vs = rng.standard_normal((self.N_STEPS, self.N_HEADS, self.D_HEAD)).astype(np.float32)
        (ks if target == "k" else vs)[self.BAD_STEP, 1, 2] = bad
        return ks, vs

    def _check(self, reports):
        by_step = {r.step: r for r in reports}
        assert sorted(by_step) == list(range(1, self.N_STEPS))
        bad = by_step[self.BAD_STEP]
        assert bad.degenerate and not bad.skipped
        for step in range(self.BAD_STEP + 1, self.N_STEPS):
            assert not by_step[step].degenerate
            assert np.isfinite(by_step[step].s_kv)
        # tau_init=-1 with warm-up 0: every finite token past the first skips.
        assert all(by_step[s].skipped for s in by_step if s != self.BAD_STEP)

    @pytest.mark.parametrize("anchor_mode", ["ema", "exact_mean"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("target", ["k", "v"])
    def test_live_engine_leaves_anchor_untouched(self, anchor_mode, bad, target):
        ks, vs = self._stream(bad, target)
        engine = FilterEngine(1, self.N_HEADS, self.D_HEAD, self._prune(anchor_mode))
        reports = []
        anchor_before = None
        for step in range(self.N_STEPS):
            _, report = engine.process(0, 0, (ks[step], vs[step]), step, step)
            if report is not None:
                reports.append(report)
            if step == self.BAD_STEP - 1:
                anchor_before = [a.copy() for a in engine.anchors(0, 0)]
            if step == self.BAD_STEP:
                for got, want in zip(engine.anchors(0, 0), anchor_before):
                    np.testing.assert_array_equal(got, want)
        self._check(reports)
        if anchor_mode == "exact_mean":
            keep = [s for s in range(self.N_STEPS) if s != self.BAD_STEP]
            anchor_k, anchor_v = engine.anchors(0, 0)
            np.testing.assert_allclose(anchor_k, ks[keep].astype(np.float64).mean(axis=0),
                                       atol=1e-12)
            np.testing.assert_allclose(anchor_v, vs[keep].astype(np.float64).mean(axis=0),
                                       atol=1e-12)

    @pytest.mark.parametrize("anchor_mode", ["ema", "exact_mean"])
    def test_replay_leaves_anchor_untouched(self, anchor_mode):
        ks, vs = self._stream(np.nan)
        header = TraceHeader(n_layers=1, n_heads=self.N_HEADS, d_head=self.D_HEAD,
                             n_steps=self.N_STEPS, source="synthetic", generator_params={})
        events = [TraceEvent(seq=0, step=s, layer=0, k=ks[s], v=vs[s])
                  for s in range(self.N_STEPS)]
        result = replay(header, events, self._prune(anchor_mode))
        self._check(result.reports)
        assert result.ledger.conserved()

    def test_non_finite_first_token_does_not_initialize_the_anchor(self):
        ks, vs = self._stream(np.nan)
        engine = FilterEngine(1, self.N_HEADS, self.D_HEAD, self._prune("exact_mean"))
        assert engine.process(0, 0, (ks[self.BAD_STEP], vs[0]), 0, 0) == (False, None)
        assert engine.anchors(0, 0) is None
        assert engine.process(0, 0, (ks[1], vs[1]), 1, 1) == (False, None)
        np.testing.assert_array_equal(engine.anchors(0, 0)[0], ks[1])
        _, report = engine.process(0, 0, (ks[2], vs[2]), 2, 2)
        assert not report.degenerate
        np.testing.assert_array_equal(engine.anchors(0, 0)[0],
                                      ks[1] + (ks[2].astype(np.float64) - ks[1]) / 2)

    def test_zero_token_is_degenerate_and_still_folded_in(self):
        engine = FilterEngine(1, self.N_HEADS, self.D_HEAD, self._prune("ema"))
        token = np.ones((self.N_HEADS, self.D_HEAD), dtype=np.float32)
        zero = np.zeros_like(token)
        for step, (k, v) in enumerate([(token, token), (zero, token)]):
            _, report = engine.process(0, 0, (k, v), step, step)
        assert report.degenerate
        np.testing.assert_array_equal(engine.anchors(0, 0)[0], np.full(token.shape, 0.9))
