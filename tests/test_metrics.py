import io

import numpy as np
import pytest
import scipy.stats

from tokenskip.metrics import (
    FlopsLedger,
    FlopsModel,
    correlation_entries,
    flops_saved,
    future_attention_mass,
    mass_lost_by_layer,
    pearson,
    spearman,
    write_correlation_csv,
)
from tokenskip.reporting import StepReport, summarize, write_summary_csv
from tokenskip.trace import TraceEvent


def make_report(layer=0, step=1, skipped=False, s_kv=0.5, alpha=0.5, saved=0, seq=0):
    return StepReport(seq=seq, step=step, layer=layer, s_k=s_kv, s_v=s_kv, var_k=0.01,
                      var_v=0.01, alpha=alpha, s_kv=s_kv, tau=0.9, shadow=False,
                      skipped=skipped, flops_saved=saved)


class TestFlopsModel:
    def test_minimal_closed_form(self):
        # n_heads=1, d_head=1, d_model=1: q=o=2, kv=4, attn/pos=4, softmax/pos=5,
        # overhead = 2*((6+4) + 5 + 3) + 12 = 48
        m = FlopsModel.from_dims(1, 1)
        assert m.q_proj_flops == 2 and m.o_proj_flops == 2 and m.kv_proj_flops == 4
        assert m.attn_per_pos_flops == 4 and m.softmax_per_pos_flops == 5
        assert m.filter_overhead_flops == 48
        assert m.attention_cost(1) == 2 + 2 + 9
        assert flops_saved(True, 1, m) == 13 - 48
        assert flops_saved(False, 1, m) == -48

    def test_savings_increase_with_cache_length(self):
        m = FlopsModel.from_dims(4, 16)
        costs = [m.attention_cost(L) for L in range(1, 50)]
        assert all(b > a for a, b in zip(costs, costs[1:]))

    def test_ledger_identity_mixed_decisions(self):
        m = FlopsModel.from_dims(2, 4)
        ledger = FlopsLedger()
        rng = np.random.default_rng(70)
        L = 0
        for _ in range(200):
            L += 1
            if rng.random() < 0.4:
                ledger.charge_skip(L, m)
                L -= 1  # drop policy: cache did not grow
            else:
                ledger.charge_keep(L, m, decided=bool(rng.random() < 0.8))
        assert ledger.conserved()

    def test_charge_event_writes_the_decided_delta(self):
        m = FlopsModel.from_dims(2, 4)
        ledger = FlopsLedger()
        skip, keep = make_report(skipped=True), make_report()
        ledger.charge_event(5, m, True, skip)
        ledger.charge_event(5, m, False, keep)
        ledger.charge_event(5, m, False, None)  # undecided: no overhead, no report
        assert skip.flops_saved == flops_saved(True, 5, m)
        assert keep.flops_saved == flops_saved(False, 5, m)
        assert ledger.overhead == 2 * m.filter_overhead_flops
        assert ledger.actual == m.skip_cost() + 2 * m.kept_cost(5)
        assert ledger.conserved()


class TestCorrelationStats:
    def test_perfect_monotone_is_exactly_one(self):
        x = [1.0, 2.0, 5.0, 9.0, 12.0]
        up = [0.1, 0.4, 0.5, 0.8, 0.9]
        assert spearman(x, up) == 1.0
        assert spearman(x, [-v for v in up]) == -1.0

    def test_matches_scipy_without_ties(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            x = rng.standard_normal(40)
            y = rng.standard_normal(40)
            assert spearman(x, y) == pytest.approx(
                scipy.stats.spearmanr(x, y).statistic, abs=1e-12)
            assert pearson(x, y) == pytest.approx(
                scipy.stats.pearsonr(x, y).statistic, abs=1e-12)

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(72)
        for _ in range(50):
            x = rng.integers(0, 5, size=30).astype(float)
            y = rng.integers(0, 5, size=30).astype(float)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            assert spearman(x, y) == pytest.approx(
                scipy.stats.spearmanr(x, y).statistic, abs=1e-12)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            spearman([1.0], [2.0])
        with pytest.raises(ValueError):
            pearson([1.0, 1.0], [2.0, 3.0])


class TestFutureMass:
    def test_hand_computed(self):
        rows = {
            0: np.array([[1.0]]),
            1: np.array([[0.3, 0.7]]),
            2: np.array([[0.2, 0.5, 0.3]]),
        }
        mass = future_attention_mass(rows)
        # position 0 seen by queries 1 and 2: (0.3 + 0.2) / 2
        assert mass[0][0] == pytest.approx(0.25, abs=1e-12)
        # position 1 seen by query 2 only
        assert mass[1][0] == pytest.approx(0.5, abs=1e-12)
        # position 2 has no later queries
        assert 2 not in mass


class TestAttentionMassLost:
    def _events(self, T, heads=2):
        rng = np.random.default_rng(73)
        events = []
        for t in range(T):
            raw = rng.uniform(0.1, 1.0, size=(heads, t + 1))
            events.append(TraceEvent(seq=0, step=t, layer=0, k=None, v=None,
                                     attn=raw / raw.sum(axis=1, keepdims=True)))
        return events

    def _mass(self, events, skipped_steps):
        """Global mass lost of one decision per event over one layer."""
        reports = [make_report(step=e.step, skipped=e.step in skipped_steps) for e in events]
        return summarize(reports, 1, mass_lost_by_layer(events, reports))[-1]["mass_lost"]

    def test_zero_skips(self):
        assert self._mass(self._events(5), set()) == 0.0

    def test_skip_everything_is_exactly_one(self):
        T = 6
        assert self._mass(self._events(T), set(range(T))) == pytest.approx(1.0, abs=1e-9)

    def test_monotone_in_skip_set(self):
        T = 8
        events = self._events(T)
        values = []
        dropped = set()
        for p in range(T):
            dropped.add(p)
            values.append(self._mass(events, dropped))
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_zero_decisions_convention(self):
        assert mass_lost_by_layer([], []) is None
        events = self._events(1)  # a first observation gets no decision
        assert mass_lost_by_layer(events, []) == {}
        assert summarize([], 1, {})[-1]["mass_lost"] == 0.0


class TestCorrelationEntries:
    def test_constructed_inverse_relation_gives_minus_one(self):
        # token t's score increases with t; later queries attend mostly to the
        # lowest-score positions, so future mass strictly decreases with score
        T = 12
        scores = {(0, t, 0): t / T for t in range(T)}
        rows = {}
        for q in range(T):
            w = np.array([[T - p for p in range(q + 1)]], dtype=np.float64)
            rows[(0, q, 0)] = w / w.sum()
        entries = correlation_entries(scores, rows)
        assert len(entries) == 1
        assert entries[0].spearman == -1.0
        assert entries[0].n == T - 1

    def test_small_samples_omitted(self):
        scores = {(0, t, 0): float(t) for t in range(5)}
        rows = {(0, q, 0): np.ones((1, q + 1)) / (q + 1) for q in range(5)}
        assert correlation_entries(scores, rows) == []

    def test_alignment_mismatch_raises(self):
        scores = {(0, 1, 0): 0.5}
        rows = {(0, 1, 0): np.ones((1, 3)) / 3}  # row covers 3 positions at step 1
        with pytest.raises(ValueError, match="alignment"):
            correlation_entries(scores, rows)

    def test_csv_output(self):
        scores = {(0, t, 0): t / 20 for t in range(20)}
        rows = {}
        for q in range(20):
            w = np.array([[20 - p for p in range(q + 1)]], dtype=np.float64)
            rows[(0, q, 0)] = w / w.sum()
        buf = io.StringIO()
        write_correlation_csv(correlation_entries(scores, rows), buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "layer,head,n,spearman,pearson"
        assert lines[1].startswith("0,0,19,-1.0,")


class TestAggregateReport:
    """The one per-layer and global summary of a decision stream."""

    def test_single_keep_decision(self):
        rows = summarize([make_report()], n_layers=1)
        assert len(rows) == 2  # layer row + global row
        assert rows[0]["skip_ratio"] == 0.0
        assert rows[0]["eligible"] == 1
        assert rows[1]["layer"] == "global"

    def test_matches_spreadsheet_oracle(self):
        reports = [
            make_report(layer=0, step=1, skipped=False, s_kv=0.2, alpha=0.4, saved=-10),
            make_report(layer=0, step=2, skipped=True, s_kv=0.8, alpha=0.6, saved=90),
            make_report(layer=1, step=1, skipped=True, s_kv=0.5, alpha=0.5, saved=40),
            make_report(layer=1, step=2, skipped=True, s_kv=0.7, alpha=0.5, saved=60),
        ]
        rows = summarize(reports, n_layers=4)
        assert [r["layer"] for r in rows] == [0, 1, 2, 3, "global"]
        by_layer = {r["layer"]: r for r in rows}
        assert by_layer[0]["skip_ratio"] == 0.5
        assert by_layer[0]["mean_s_kv"] == pytest.approx(0.5)
        assert by_layer[0]["mean_alpha"] == pytest.approx(0.5)
        assert by_layer[0]["flops_saved"] == 80
        assert by_layer[1]["skip_ratio"] == 1.0
        assert by_layer[2]["eligible"] == 0 and by_layer[2]["mean_s_kv"] == ""
        # 2 decided steps x 4 layers = 8 global decisions, 3 skips
        assert by_layer["global"]["eligible"] == 8
        assert by_layer["global"]["skip_ratio"] == pytest.approx(3 / 8)
        assert by_layer["global"]["flops_saved"] == 180

    def test_global_ratio_composition(self):
        # tail focus on half the layers at per-layer ratio r gives global r/2
        reports = []
        for step in range(1, 41):
            for layer in (2, 3):
                reports.append(make_report(layer=layer, step=step,
                                           skipped=(step % 2 == 0)))
        rows = summarize(reports, n_layers=4)
        gl = next(r for r in rows if r["layer"] == "global")
        per_layer = next(r for r in rows if r["layer"] == 2)["skip_ratio"]
        assert gl["skip_ratio"] == pytest.approx(per_layer * 0.5)

    def test_empty_stream_gives_zero_rows(self):
        rows = summarize([], n_layers=2)
        assert [r["layer"] for r in rows] == [0, 1, "global"]
        for row in rows:
            assert row["eligible"] == row["skipped"] == row["flops_saved"] == 0
            assert row["skip_ratio"] == 0.0
            assert row["mean_s_kv"] == row["mean_alpha"] == row["mass_lost"] == ""

    def test_csv_write(self):
        buf = io.StringIO()
        write_summary_csv(summarize([make_report()], n_layers=1), buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == ("layer,eligible,skipped,skip_ratio,mean_s_kv,mean_alpha,"
                            "mass_lost,flops_saved")
        assert len(lines) == 3
