"""Bad input at the package's boundaries gets a typed error or a documented
degenerate path: non-finite K/V, compacted attention rows in replay, and
truncated or mismatched weights."""

import numpy as np
import pytest

from tokenskip.cli import main
from tokenskip.filtering import FilterEngine, head_similarity
from tokenskip.model import DecodeSession, ModelConfig, init_weights, load_weights, save_weights
from tokenskip.numerics import DegenerateInputError, cosine_similarity
from tokenskip.policy import ConfigError, PruneConfig
from tokenskip.replay import TraceCompatibilityError, replay
from tokenskip.trace import TraceRecorder


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
        prune = PruneConfig(focus="uniform", tail_fraction=1.0, warmup_steps=0,
                            tau_init=0.5, p_global=0.5)
        engine = FilterEngine(1, 2, 4, prune)
        token = np.ones((2, 4), dtype=np.float32)
        for step in range(3):
            engine.begin_step()
            skipped, _ = engine.process(0, 0, token, token, step, enact=True)
            engine.end_step()
        corrupt = np.full((2, 4), np.nan, dtype=np.float32)
        engine.begin_step()
        skipped, report = engine.process(0, 0, corrupt, corrupt, 3, enact=True)
        assert not skipped
        assert report.degenerate and report.s_kv == 0.0


class TestCompactedRows:
    def _record(self, cache_on_skip):
        cfg = ModelConfig(n_layers=4, n_heads=4, d_model=32, d_head=8, d_ff=48,
                          max_seq=96, seed=22)
        prune = PruneConfig(focus="tail", tail_fraction=0.5, p_global=0.25,
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
        assert result.mass_by_layer == {}
        assert all(row["mass_lost"] == "" for row in result.summary)
        with pytest.raises(TraceCompatibilityError, match="compacted"):
            replay(header, events, prune, require_attn=True)
        key = [(r.step, r.layer, r.s_kv, r.tau, r.skipped, r.flops_saved) for r in live.reports]
        assert key == [(r.step, r.layer, r.s_kv, r.tau, r.skipped, r.flops_saved)
                       for r in result.reports]

    def test_kept_cache_keeps_mass_metrics(self):
        prune, live, header, events = self._record("keep")
        assert any(r.skipped for r in live.reports)
        assert all(e.attn.shape[1] == e.step + 1 for e in events)
        result = replay(header, events, prune, require_attn=True)
        assert result.global_mass_lost > 0.0
        assert set(result.mass_by_layer) == set(range(4))


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

    def test_cli_mismatched_weights_exit_2(self, tmp_path, capsys):
        blob = tmp_path / "w.bin"
        assert main(["generate", "--steps", "1", "--seed", "3",
                     "--save-weights", str(blob)]) == 0
        capsys.readouterr()
        assert main(["generate", "--steps", "1", "--seed", "3", "--load-weights", str(blob),
                     "--n-layers", "6"]) == 2
        assert "n_layers 4 in the weights, 6 in the session" in capsys.readouterr().err
