import math
import tracemalloc

import numpy as np
import pytest

from tokenskip.model import DecodeSession, ModelConfig
from tokenskip.policy import ConfigError, PruneConfig
from tokenskip.replay import replay
from tokenskip.trace import (
    MAX_TRACE_VALUES,
    TraceFormatError,
    TraceRecorder,
    read_trace,
    synthesize,
    write_trace,
)


def entropy(row):
    p = np.asarray(row, dtype=np.float64)
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


class TestSynthesize:
    def test_cardinality(self):
        header, events = synthesize("repetitive", 3, 2, 8, 10, seed=1, n_seqs=2)
        assert len(events) == 2 * 10 * 3
        assert header.n_steps == 10
        assert header.n_seqs == 2

    def test_zero_steps_header_only(self):
        header, events = synthesize("random", 2, 2, 8, 0, seed=1)
        assert events == []
        assert header.n_steps == 0

    def test_deterministic_for_seed(self, tmp_path):
        a = synthesize("depth_concentrated", 2, 2, 8, 12, seed=5)
        b = synthesize("depth_concentrated", 2, 2, 8, 12, seed=5)
        pa, pb = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        write_trace(pa, a[0], a[1])
        write_trace(pb, b[0], b[1])
        assert pa.read_bytes() == pb.read_bytes()

    def test_rows_sum_to_one(self):
        for pattern in ("repetitive", "random", "depth_concentrated"):
            _, events = synthesize(pattern, 2, 3, 8, 16, seed=2)
            for e in events:
                np.testing.assert_allclose(e.attn.sum(axis=1), np.ones(3), atol=1e-5)
                assert e.attn.shape == (3, e.step + 1)

    def test_fully_repetitive_similarity_is_exactly_one(self):
        header, events = synthesize("repetitive", 1, 2, 8, 24, seed=3,
                                    dict_size=1, noise=0.0)
        prune = PruneConfig(tail_fraction=1.0, warmup_steps=0,
                            eta=1e-12, tau_init=2.0)
        result = replay(header, events, prune)
        assert result.reports  # from the second step onward
        for r in result.reports:
            assert r.s_k == 1.0 and r.s_v == 1.0 and r.s_kv == 1.0

    def test_random_pattern_has_near_zero_pairwise_cosine(self):
        _, events = synthesize("random", 1, 1, 64, 200, seed=4)
        ks = np.stack([e.k[0] for e in events])
        rng = np.random.default_rng(40)
        sims = []
        for _ in range(1000):
            i, j = rng.integers(0, len(ks), size=2)
            if i == j:
                continue
            a, b = ks[i], ks[j]
            sims.append(float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b))))
        assert abs(float(np.mean(sims))) < 0.05

    def test_depth_concentrated_entropy_strictly_decreasing(self):
        n_layers = 8
        _, events = synthesize("depth_concentrated", n_layers, 2, 16, 48, seed=6)
        by_layer = {l: [] for l in range(n_layers)}
        for e in events:
            if e.step >= 8:  # skip tiny caches where entropy is noisy
                by_layer[e.layer].append(np.mean([entropy(row) for row in e.attn]))
        means = [float(np.mean(by_layer[l])) for l in range(n_layers)]
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_invalid_pattern_rejected(self):
        with pytest.raises(ValueError):
            synthesize("bogus", 1, 1, 4, 4, seed=0)

    @pytest.mark.parametrize("pattern", ["depth_concentrated", "repetitive"])
    @pytest.mark.parametrize("t0", [0.0, -1.0, math.nan])
    def test_a_non_positive_t0_is_rejected_naming_it(self, pattern, t0):
        with pytest.raises(ConfigError, match="t0 must be positive"):
            synthesize(pattern, 2, 2, 4, 4, seed=0, t0=t0)

    @pytest.mark.parametrize("pattern", ["depth_concentrated", "repetitive", "random"])
    def test_a_negative_sink_count_is_rejected_naming_it(self, pattern):
        with pytest.raises(ConfigError, match="sink_count must be non-negative, got -1"):
            synthesize(pattern, 2, 2, 4, 6, seed=0, sink_count=-1)

    def test_an_oversized_trace_is_refused_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=f"16000001040000000000 float32 values, "
                                                  f"above the cap of {MAX_TRACE_VALUES}"):
                synthesize("random", 8, 4, 16, 10**9, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        # The attention rows count too: 2 * 12000 K/V values and
        # 12000 * 12001 / 2 row values.
        with pytest.raises(ConfigError, match="72030000 float32 values"):
            synthesize("random", 1, 1, 1, 12000, seed=0)

    def test_invalid_dims_rejected(self):
        with pytest.raises(ValueError):
            synthesize("random", 0, 1, 4, 4, seed=0)


class TestTraceIO:
    def test_round_trip_preserves_arrays_exactly(self, tmp_path):
        header, events = synthesize("repetitive", 2, 2, 4, 6, seed=7)
        path = tmp_path / "t.ndjson"
        write_trace(path, header, events)
        header2, events2 = read_trace(path)
        assert header2.n_layers == header.n_layers
        assert header2.generator_params["pattern"] == "repetitive"
        assert len(events2) == len(events)
        for a, b in zip(events, events2):
            np.testing.assert_array_equal(a.k, b.k)
            np.testing.assert_array_equal(a.v, b.v)
            np.testing.assert_array_equal(a.attn, b.attn)

    def test_header_must_come_first(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"type": "event", "seq": 0, "step": 0, "layer": 0}\n')
        with pytest.raises(TraceFormatError, match="line 1"):
            read_trace(path)

    def test_appended_text_is_refused(self, tmp_path):
        """A line appended to a trace lies past the body the header sizes."""
        header, events = synthesize("random", 1, 1, 4, 2, seed=8)
        path = tmp_path / "t.trace"
        write_trace(path, header, events)
        with open(path, "a") as fh:
            fh.write("{broken\n")
        with pytest.raises(TraceFormatError,
                           match="^event 2: body holds 8 bytes past the header's 2 events$"):
            read_trace(path)

    # write_trace refuses what read_trace would; test_trace_format.py reads
    # such files, written raw.
    def test_out_of_order_events_rejected(self, tmp_path):
        header, events = synthesize("random", 2, 1, 4, 2, seed=9)
        path = tmp_path / "t.ndjson"
        with pytest.raises(TraceFormatError, match="order"):
            write_trace(path, header, list(reversed(events)))
        assert not path.exists()

    def test_shape_mismatch_rejected(self, tmp_path):
        header, events = synthesize("random", 1, 2, 4, 1, seed=10)
        events[0].k = events[0].k[:, :2]
        path = tmp_path / "t.ndjson"
        with pytest.raises(TraceFormatError, match="shape"):
            write_trace(path, header, events)
        assert not path.exists()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.ndjson"
        path.write_text("")
        with pytest.raises(TraceFormatError):
            read_trace(path)


class TestRecording:
    def _record(self, tmp_path, mode="dense", steps=1, prompt=(5,), seed=11, prune=None):
        cfg = ModelConfig(n_layers=2, n_heads=2, d_model=16, d_head=8, d_ff=24,
                          max_seq=32, seed=seed)
        sess = DecodeSession(cfg, prune, mode=mode, record=True)
        rec = TraceRecorder(cfg.n_layers, cfg.n_heads, cfg.d_head, source="toy_model",
                            generator_params={"prefill_steps": str(len(prompt))})
        res = sess.decode(list(prompt), steps, recorder=rec)
        path = tmp_path / "rec.ndjson"
        rec.save(path)
        return cfg, res, path

    def test_event_cardinality(self, tmp_path):
        # one prompt byte + one decode step = 2 recorded steps over 2 layers
        _, _, path = self._record(tmp_path, steps=1)
        header, events = read_trace(path)
        assert header.n_steps == 2
        assert len(events) == 4

    def test_zero_step_prompt_only(self, tmp_path):
        cfg, res, path = self._record(tmp_path, steps=0, prompt=(5, 6))
        header, events = read_trace(path)
        assert header.n_steps == 2
        assert len(events) == 4

    def test_round_trip_rows_reproduce(self, tmp_path):
        """Deterministic regeneration reproduces the recorded attention rows."""
        cfg, res, path = self._record(tmp_path, steps=4, prompt=(3, 4), seed=13)
        header, events = read_trace(path)
        cfg2 = ModelConfig(n_layers=2, n_heads=2, d_model=16, d_head=8, d_ff=24,
                           max_seq=32, seed=13)
        sess = DecodeSession(cfg2, None, mode="dense", record=True)
        rec = TraceRecorder(2, 2, 8, generator_params={"prefill_steps": "2"})
        sess.decode([3, 4], 4, recorder=rec)
        assert len(rec.events) == len(events)
        for a, b in zip(rec.events, events):
            np.testing.assert_allclose(a.attn, b.attn, atol=1e-5)
            np.testing.assert_array_equal(a.k, b.k)

    def test_recording_filtered_run_includes_rows_for_skips(self, tmp_path):
        prune = PruneConfig(tail_fraction=1.0, warmup_steps=0,
                            tau_init=-1.0, p_global=1.0)  # skip everything decidable
        cfg, res, path = self._record(tmp_path, mode="filtered", steps=6,
                                      prompt=(1, 2), prune=prune)
        _, events = read_trace(path)
        assert any(r.skipped for r in res.reports)
        assert all(e.attn is not None for e in events)


class TestReplay:
    def _trace(self, **kw):
        args = dict(pattern="repetitive", n_layers=4, n_heads=2, d_head=8,
                    n_steps=64, seed=20)
        args.update(kw)
        return synthesize(**args)

    def test_zero_budget_zero_skips_zero_mass(self):
        header, events = self._trace()
        result = replay(header, events, PruneConfig(p_global=0.0, tail_fraction=1.0))
        assert result.global_skip_ratio == 0.0
        assert result.global_mass_lost == 0.0
        assert all(not r.skipped for r in result.reports)

    def test_deterministic(self):
        header, events = self._trace()
        prune = PruneConfig(warmup_steps=4, tau_init=0.5)
        a = replay(header, events, prune)
        b = replay(header, events, prune)
        assert a.summary == b.summary
        assert [(r.s_kv, r.tau, r.skipped) for r in a.reports] == \
               [(r.s_kv, r.tau, r.skipped) for r in b.reports]

    def test_out_of_scope_layers_never_skip(self):
        header, events = self._trace(n_steps=128)
        prune = PruneConfig(tail_fraction=0.5, p_global=0.25,
                            warmup_steps=8, tau_init=0.6)
        result = replay(header, events, prune)
        for row in result.summary[:2]:  # layers 0 and 1 are out of scope
            assert row["skipped"] == 0 and row["eligible"] == 0

    def test_fully_repetitive_converges_to_target(self):
        header, events = synthesize("repetitive", 1, 2, 8, 1500, seed=21,
                                    dict_size=1, noise=0.0, with_attn=False)
        prune = PruneConfig(p_global=0.5, tail_fraction=1.0,
                            warmup_steps=16, tau_init=0.9)
        result = replay(header, events, prune)
        ratio = result.summary[0]["skip_ratio"]
        assert abs(ratio - 0.5) <= 0.02

    def test_flops_conservation(self):
        header, events = self._trace(n_steps=200)
        prune = PruneConfig(warmup_steps=8, tau_init=0.5, tail_fraction=1.0, p_global=0.4)
        result = replay(header, events, prune)
        assert any(r.skipped for r in result.reports)
        assert result.ledger.conserved()

    def test_live_filtered_decode_equals_replay_of_its_trace(self, tmp_path):
        """The filter consumes only K/V, so replaying a recorded live session
        reproduces its decisions bit for bit."""
        cfg = ModelConfig(n_layers=4, n_heads=4, d_model=32, d_head=8, d_ff=48,
                          max_seq=96, seed=22)
        prune = PruneConfig(tail_fraction=0.5, p_global=0.25,
                            warmup_steps=6, tau_init=0.35)
        sess = DecodeSession(cfg, prune, mode="filtered", record=True)
        rec = TraceRecorder(cfg.n_layers, cfg.n_heads, cfg.d_head,
                            generator_params={"prefill_steps": "3"})
        live = sess.decode([9, 8, 7], 60, recorder=rec)
        path = tmp_path / "live.ndjson"
        rec.save(path)
        header, events = read_trace(path)
        result = replay(header, events, prune)
        assert any(r.skipped for r in live.reports)

        live_key = [(r.step, r.layer, r.s_kv, r.tau, r.shadow, r.skipped, r.flops_saved)
                    for r in live.reports]
        replay_key = [(r.step, r.layer, r.s_kv, r.tau, r.shadow, r.skipped, r.flops_saved)
                      for r in result.reports]
        assert live_key == replay_key

    def test_summary_structure(self):
        header, events = self._trace()
        result = replay(header, events, PruneConfig())
        assert [row["layer"] for row in result.summary] == [0, 1, 2, 3, "global"]
        gl = result.summary[-1]
        assert gl["eligible"] == 63 * 4  # bootstrap step yields no decision

    def test_mass_lost_zero_without_skips_and_grows_with_skips(self):
        header, events = self._trace(n_steps=256)
        gentle = replay(header, events, PruneConfig(p_global=0.1, tail_fraction=1.0, tau_init=0.7))
        harsh = replay(header, events, PruneConfig(p_global=0.6, tail_fraction=1.0, tau_init=0.3,
                                                   warmup_steps=4))
        assert harsh.global_skip_ratio > gentle.global_skip_ratio
        assert harsh.global_mass_lost >= gentle.global_mass_lost
        assert 0.0 <= gentle.global_mass_lost <= 1.0

    def test_missing_rows_block_mass_metrics(self):
        header, events = synthesize("repetitive", 1, 2, 8, 16, seed=23, with_attn=False)
        result = replay(header, events, PruneConfig())
        assert result.global_mass_lost is None
        assert all(row["mass_lost"] == "" for row in result.summary)

    def test_multi_seq_replay_keeps_anchors_separate(self):
        header, events = self._trace(n_seqs=2, n_steps=48)
        prune = PruneConfig(tail_fraction=1.0, warmup_steps=4,
                            tau_init=0.5)
        result = replay(header, events, prune)
        seqs = {r.seq for r in result.reports}
        assert seqs == {0, 1}
        # both sequences produce the same number of decisions
        from collections import Counter
        counts = Counter(r.seq for r in result.reports)
        assert counts[0] == counts[1]


def test_events_and_reports_carry_no_per_instance_dict(tmp_path):
    # Slotted records: one object each, which a replay makes per decision
    # and a trace per event, with no __dict__ beside it.
    header, events = synthesize("repetitive", 2, 2, 4, 20, seed=3)
    path = tmp_path / "t.trace"
    write_trace(path, header, events)
    _, read = read_trace(path)
    reports = replay(header, read, PruneConfig(tail_fraction=1.0, warmup_steps=0)).reports
    assert reports
    for record in (events[0], read[0], reports[0]):
        assert not hasattr(record, "__dict__")
