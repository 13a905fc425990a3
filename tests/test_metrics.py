import csv
import io
from collections import defaultdict
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenskip.metrics import FlopsLedger, FlopsModel, flops_saved, mass_lost_by_layer
from tokenskip.policy import PruneConfig
from tokenskip.replay import replay
from tokenskip.reporting import StepReport, csv_cells, summarize, write_summary_csv
from tokenskip.trace import TraceEvent, synthesize


def make_report(layer=0, step=1, skipped=False, s_kv=0.5, alpha=0.5, saved=0, seq=0):
    return StepReport(seq=seq, step=step, layer=layer, s_k=s_kv, s_v=s_kv, var_k=0.01,
                      var_v=0.01, alpha=alpha, s_kv=s_kv, tau=0.9, shadow=False,
                      skipped=skipped, flops_saved=saved)


class TestFlopsModel:
    def test_minimal_closed_form(self):
        # n_heads=1, d_head=1, d_model=1: q=o=2, kv=4, attn/pos=4, softmax/pos=5,
        # overhead = 2*((6+4) + 5 + 3) + 12 = 48
        m = FlopsModel(1, 1)
        assert m.q_proj_flops == 2 and m.o_proj_flops == 2 and m.kv_proj_flops == 4
        assert m.attn_per_pos_flops == 4 and m.softmax_per_pos_flops == 5
        assert m.filter_overhead_flops == 48
        assert m.attention_cost(1) == 2 + 2 + 9
        assert flops_saved(True, 1, m) == 13 - 48
        assert flops_saved(False, 1, m) == -48

    def test_savings_increase_with_cache_length(self):
        m = FlopsModel(4, 16)
        costs = [m.attention_cost(L) for L in range(1, 50)]
        assert all(b > a for a, b in zip(costs, costs[1:]))

    def test_ledger_identity_mixed_decisions(self):
        m = FlopsModel(2, 4)
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
        m = FlopsModel(2, 4)
        ledger = FlopsLedger()
        skip, keep = make_report(skipped=True), make_report()
        ledger.charge_event(5, m, True, skip, False)
        ledger.charge_event(5, m, False, keep, False)
        ledger.charge_event(5, m, False, None, False)  # undecided: no overhead, no report
        assert skip.flops_saved == flops_saved(True, 5, m)
        assert keep.flops_saved == flops_saved(False, 5, m)
        assert ledger.overhead == 2 * m.filter_overhead_flops
        assert ledger.actual == m.skip_cost() + 2 * m.kept_cost(5)
        assert ledger.conserved()

    # An event at cache length 5 if kept: only a skip that the cache drops
    # (cache_on_skip "drop") leaves its (seq, layer) at 4. keep_on_skip
    # changes the returned length, never the charge.
    @pytest.mark.parametrize("skipped, decided, keep_on_skip, after", [
        pytest.param(False, True, False, 5, id="keep"),
        pytest.param(False, False, False, 5, id="undecided_keep"),
        pytest.param(True, True, True, 5, id="skip_under_keep"),
        pytest.param(True, True, False, 4, id="skip_under_drop"),
    ])
    def test_charge_event_returns_the_cache_length_after_the_event(self, skipped, decided,
                                                                  keep_on_skip, after):
        m = FlopsModel(2, 4)
        report = make_report(skipped=skipped) if decided else None
        ledger, flipped = FlopsLedger(), FlopsLedger()
        length = ledger.charge_event(5, m, skipped, report, keep_on_skip)
        flipped.charge_event(5, m, skipped, report, not keep_on_skip)
        assert type(length) is int and length == after
        assert ledger == flipped

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2000), st.integers(1, 16), st.integers(1, 128))
    def test_keeps_in_closed_form_equal_one_charge_per_event(self, n, n_heads, d_head):
        m = FlopsModel(n_heads, d_head)
        closed, stepped = FlopsLedger(), FlopsLedger()
        closed.charge_keeps(n, m)
        for cache_len in range(1, n + 1):
            stepped.charge_event(cache_len, m, False, None, False)
        assert closed == stepped
        assert closed.conserved()


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

    def test_a_skip_loses_its_own_column_and_later_rows_lose_it_too(self):
        rows = [[1.0], [0.4, 0.6], [0.2, 0.3, 0.5]]
        events = [TraceEvent(seq=0, step=t, layer=0, k=None, v=None,
                             attn=np.array([row], dtype=np.float32))
                  for t, row in enumerate(rows)]
        reports = [make_report(step=t, skipped=t == 1) for t in range(3)]
        # Step 1's own column (0.6) and step 2's mass on column 1 (0.3); not
        # the whole skipped row (1.0 + 0.3).
        want = float(np.float32(0.6)) + float(np.float32(0.3))
        assert mass_lost_by_layer(events, reports) == {0: want}

    @staticmethod
    def _per_event_mass_lost(events, reports):
        """The oracle: one pass over the events in their order, each event's
        loss added to its layer's sum as the event comes."""
        skipped_steps = defaultdict(set)
        for r in reports:
            if r.skipped:
                skipped_steps[(r.seq, r.layer)].add(r.step)
        dropped_cols = {key: np.fromiter(steps, dtype=np.intp, count=len(steps))
                        for key, steps in skipped_steps.items()}
        lost = defaultdict(float)
        last = {}
        for e in events:
            key = (e.seq, e.layer)
            steps = skipped_steps.get(key)
            if steps is None:
                continue
            prev = last.get(key)
            if prev is not None and prev[0] == e.step - 1 and e.step not in steps:
                cols = prev[1]
            else:
                cols = dropped_cols[key]
                cols = cols[cols <= e.step]
            last[key] = (e.step, cols)
            if cols.size:
                attn = e.attn
                lost[e.layer] += float(np.add.reduce(attn[:, cols], axis=None)) / attn.shape[0]
        return dict(lost)

    @pytest.mark.parametrize("order", ["step, seq, layer", "shuffled"])
    def test_each_layers_losses_add_in_event_order(self, order):
        # Two sequences, their events out of trace (seq, step, layer) order.
        header, events = synthesize("repetitive", 4, 2, 8, 60, seed=21, n_seqs=2)
        reports = replay(header, events, PruneConfig(p_global=0.5)).reports
        assert sum(r.skipped for r in reports) > 20
        # Rows scaled from 1e-12 to 1, so each layer's float64 sum of losses
        # rounds, and so depends on the order they are added in.
        rng = np.random.default_rng(21)
        for e in events:
            e.attn = (rng.uniform(0.1, 1.0, e.attn.shape)
                      * 10.0 ** rng.uniform(-12.0, 0.0)).astype(np.float32)
        trace_order = self._per_event_mass_lost(events, reports)
        if order == "shuffled":
            events = [events[i] for i in rng.permutation(len(events))]
        else:
            events = sorted(events, key=attrgetter("step", "seq", "layer"))
        want = self._per_event_mass_lost(events, reports)
        assert len(want) == 2 and want != trace_order
        # repr: the sums bit for bit, and the layers in the same order.
        assert repr(mass_lost_by_layer(events, reports)) == repr(want)

    @pytest.mark.parametrize("prune", [PruneConfig(p_global=0.5, anchor_mode="exact_mean"),
                                       PruneConfig(p_global=0.5, cache_on_skip="keep")],
                             ids=["exact_mean", "keep"])
    def test_other_replays_match_the_oracle(self, prune):
        header, events = synthesize("repetitive", 4, 2, 8, 60, seed=21, n_seqs=2)
        reports = replay(header, events, prune).reports
        assert sum(r.skipped for r in reports) > 20
        want = self._per_event_mass_lost(events, reports)
        assert len(want) == 2
        assert repr(mass_lost_by_layer(events, reports)) == repr(want)

    def test_a_short_row_after_losses_gives_none_and_blank_cells(self):
        events = self._events(8)
        reports = [make_report(step=e.step, skipped=e.step in (1, 2)) for e in events]
        assert mass_lost_by_layer(events[:7], reports)[0] > 0.5
        # The last event's row is the only short one: compacted, as a
        # recording that drops skipped tokens leaves it.
        events[7].attn = events[7].attn[:, :-1]
        assert mass_lost_by_layer(events, reports) is None
        buf = io.StringIO()
        write_summary_csv(summarize(reports, 2, mass_lost_by_layer(events, reports)), buf)
        rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
        assert len(rows) == 3 and all(row["mass_lost"] == "" for row in rows)

    def test_zero_decisions_convention(self):
        assert mass_lost_by_layer([], []) is None
        events = self._events(1)  # a first observation gets no decision
        assert mass_lost_by_layer(events, []) == {}
        assert summarize([], 1, {})[-1]["mass_lost"] == 0.0


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


class TestReportJson:
    def test_one_report_line_is_pinned(self):
        report = StepReport(seq=1, step=7, layer=2, s_k=0.25, s_v=-0.5, var_k=0.01, var_v=0.0,
                            alpha=0.75, s_kv=0.125, tau=float("inf"), shadow=False,
                            skipped=True, flops_saved=-48, degenerate=False)
        assert report.to_json() == (
            '{"seq": 1, "step": 7, "layer": 2, "s_k": 0.25, "s_v": -0.5, "var_k": 0.01, '
            '"var_v": 0.0, "alpha": 0.75, "s_kv": 0.125, "tau": "inf", "shadow": false, '
            '"skipped": true, "flops_saved": -48, "degenerate": false}')
        assert report.tau == float("inf")  # the report itself is left as it was


class TestCsvCells:
    def test_floats_as_their_repr(self):
        row = {"a": 0.1 + 0.2, "b": -0.0, "c": float("nan"), "d": 1e-17}
        assert csv_cells(row, "abcd") == ["0.30000000000000004", "-0.0", "nan", "1e-17"]

    def test_ints_and_blanks_as_they_are(self):
        row = {"layer": "global", "eligible": 7, "mass_lost": ""}
        assert csv_cells(row, ["layer", "eligible", "mass_lost"]) == ["global", 7, ""]

    def test_columns_pick_and_order_the_cells(self):
        row = summarize([make_report(skipped=True, saved=12)], n_layers=1)[-1]
        assert csv_cells(row, ["flops_saved", "skip_ratio"]) == [12, "1.0"]
        assert csv_cells(row, []) == []
