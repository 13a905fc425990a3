"""Block-scored decisions: FilterEngine.score_steps over a block of steps,
then one FilterEngine.decide call per (step, layer), equals scoring one row
at a time (score_row, the live kernel) before the same decide calls, bit for
bit; one decide call over a run of steps equals one call per step; each
layer's decisions are its own; and replay (which scores each block of steps
in one call, then decides each layer's run of the block in one call) keeps
its reports and summaries."""

import dataclasses
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenskip import filtering
from tokenskip.filtering import FilterEngine, MisconfigurationError
from tokenskip.model import PREFILL_CHUNK, DecodeSession, ModelConfig
from tokenskip.policy import PruneConfig
from tokenskip.replay import BLOCK_STEPS, TraceCompatibilityError, replay
from tokenskip.reporting import StepReport
from tokenskip.trace import synthesize

SEQS = 3


@st.composite
def step_runs(draw):
    """A small engine config and a few steps of (layer, seq) rows, drawn from
    a few prototypes (so some rows are similar enough to skip), with zero,
    NaN and infinite heads or whole tokens mixed in."""
    # n_heads reaches 8, where the across-head sums turn pairwise.
    n_layers, n_heads, d_head = draw(st.integers(1, 3)), draw(st.integers(1, 10)), draw(
        st.integers(1, 6))
    config = PruneConfig(
        p_global=draw(st.sampled_from([0.0, 0.25, 0.5])), tail_fraction=1.0,
        anchor_mode=draw(st.sampled_from(["ema", "exact_mean"])),
        warmup_steps=draw(st.integers(0, 2)),
        tau_init=draw(st.sampled_from([-1.0, 0.0, 0.5, 0.9])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prototypes = rng.standard_normal((3, 2, n_heads, d_head))
    all_keys = [(layer, seq) for layer in range(n_layers) for seq in range(SEQS)]
    steps = []
    for _ in range(draw(st.integers(1, 5))):
        # Repeating the last step's keys makes runs of steps.
        keys = steps[-1][0] if steps and draw(st.booleans()) else draw(
            st.lists(st.sampled_from(all_keys), min_size=1, max_size=min(6, len(all_keys)),
                     unique=True))
        kv = (prototypes[rng.integers(0, 3, len(keys))]
              + 0.05 * rng.standard_normal((len(keys), 2, n_heads, d_head))).astype(np.float32)
        for row in range(len(keys)):
            special = draw(st.sampled_from([None, None, None, "zero", 0.0, np.nan, np.inf,
                                            -np.inf]))
            if special == "zero":
                kv[row] = 0.0
            elif special is not None:
                kv[row, draw(st.integers(0, 1)), draw(st.integers(0, n_heads - 1))] = special
        steps.append((keys, kv, draw(st.booleans())))
    return (n_layers, n_heads, d_head, config), all_keys, steps


def anchor_bits(engine, key):
    kv = engine.anchors(*key)
    return None if kv is None else (kv[0].tobytes(), kv[1].tobytes())


@settings(deadline=None, max_examples=150)
@given(step_runs())
def test_a_step_batch_decides_like_one_score_row_call_per_row(run):
    dims, all_keys, steps = run
    batched, single = FilterEngine(*dims), FilterEngine(*dims)
    evidence = iter(batched.score_steps([keys for keys, *_ in steps],
                                        np.concatenate([kv for _, kv, *_ in steps])))
    decoded = 0  # decode steps passed: the next decode step's rank
    for step, (keys, kv, prefill) in enumerate(steps):
        rank = -1 if prefill else decoded
        decoded += not prefill
        step_evidence = [next(evidence) for _ in keys]
        got, want = {}, {}
        # One decide call per layer of the step, its rows in the step's order.
        for layer in sorted({layer for layer, _ in keys}):
            rows = [i for i, key in enumerate(keys) if key[0] == layer]
            got.update(zip(rows, batched.decide(
                layer, [(step, rank, keys[i][1], step_evidence[i]) for i in rows])))
            want.update(zip(rows, single.decide(
                layer, [(step, rank, keys[i][1], single.score_row(layer, keys[i][1], kv[i]))
                        for i in rows])))
        assert repr(sorted(got.items())) == repr(sorted(want.items()))
        for layer in batched.active_layers:
            a, b = batched.layers[layer], single.layers[layer]
            assert repr((a.tau, a.var_k, a.var_v)) == repr((b.tau, b.var_k, b.var_v))
    for key in all_keys:
        assert anchor_bits(batched, key) == anchor_bits(single, key)


def layer_state(engine, layer):
    st = engine.layers[layer]
    return repr((st.tau, st.var_k, st.var_v, st.ratio_sum, st.ratio_steps))


@pytest.mark.parametrize("anchor_mode", ["ema", "exact_mean"])
def test_one_decide_call_over_a_run_of_steps_equals_one_call_per_step(anchor_mode):
    # 3 sequences, the last from step 7 on, and a tenth of the events gone:
    # steps of one to three rows per layer, and first observations (no
    # evidence) inside runs. Steps 0 and 1 are the prompt, and warm-up ends
    # at step 5, so runs also cross into applied decisions.
    header, events = synthesize("repetitive", 2, 2, 8, 40, seed=12, n_seqs=3,
                                with_attn=False)
    header.generator_params["prefill_steps"] = "2"
    rng = np.random.default_rng(12)
    events = sorted((e for e in events
                     if not (e.seq == 2 and e.step < 7) and rng.random() < 0.9),
                    key=lambda e: (e.step, e.layer, e.seq))
    steps = sorted({e.step for e in events})
    assert steps == list(range(40))
    prune = PruneConfig(anchor_mode=anchor_mode, tail_fraction=1.0, warmup_steps=3,
                        p_global=0.5)
    dims = (header.n_layers, header.n_heads, header.d_head, prune)
    evidence = iter(FilterEngine(*dims).score_steps(
        [[(e.layer, e.seq) for e in events if e.step == step] for step in steps],
        np.array([(e.k, e.v) for e in events], dtype=np.float32)))
    rows = {layer: [] for layer in range(header.n_layers)}
    for e in events:
        rows[e.layer].append((e.step, e.step - 2, e.seq, next(evidence)))
    runs, per_step = FilterEngine(*dims), FilterEngine(*dims)
    first_observations, decided = 0, []
    for layer, layer_rows in rows.items():
        # Runs of 1, 2, 3, 5, 8, 13 and 8 steps, in turn.
        start = 0
        for n in [1, 2, 3, 5, 8, 13, 8]:
            run = [row for row in layer_rows if start <= row[0] < start + n]
            start += n
            want = []
            for step in sorted({row[0] for row in run}):
                want += per_step.decide(layer, [row for row in run if row[0] == step])
            got = runs.decide(layer, run)
            assert repr(got) == repr(want)
            assert layer_state(runs, layer) == layer_state(per_step, layer)
            first_observations += any(row[3] is None for row in run[1:])
            decided += got
        assert start == 40
    assert first_observations >= 2
    assert any(skip for skip, _ in decided)
    assert max(Counter(row[0] for row in rows[0]).values()) == 3


def test_a_repeated_row_in_one_batch_is_rejected():
    engine = FilterEngine(1, 2, 4, PruneConfig(tail_fraction=1.0))
    kv = np.ones((2, 2, 2, 4), dtype=np.float32)
    with pytest.raises(ValueError, match="more than once"):
        engine.score_steps([[(0, 0), (0, 0)]], kv)
    # The same key in two steps of a block is the usual case.
    assert engine.score_steps([[(0, 0)], [(0, 0)]], kv)[0] is None


def test_a_bad_batch_leaves_the_engine_untouched():
    engine = FilterEngine(2, 2, 4, PruneConfig(tail_fraction=0.5))
    kv = np.ones((2, 2, 2, 4), dtype=np.float32)
    with pytest.raises(MisconfigurationError):
        engine.score_steps([[(1, 0)], [(0, 0)]], kv)
    with pytest.raises(ValueError, match="K/V array"):
        engine.score_steps([[(1, 0)]], kv)
    assert engine.anchors(1, 0) is None
    engine.score_steps([[(1, 0)]], kv[:1])
    with pytest.raises(ValueError, match="K/V array"):
        engine.score_steps([[(1, 0)]], np.ones((1, 2, 2, 3), dtype=np.float32))


def row_replay(header, events, prune):
    """The reports of a replay that scores one score_row call per event and
    decides each (step, layer) in one decide call, in (step, seq, layer)
    order: the oracle of the block-scored replay."""
    engine = FilterEngine(header.n_layers, header.n_heads, header.d_head, prune)
    reports = []
    decoded = 0  # decode steps passed: the next decode step's rank
    for step in sorted({e.step for e in events}):
        rank = -1 if step < header.prefill_steps else decoded
        decoded += rank >= 0
        step_reports = []
        for layer in engine.active_layers:
            rows = sorted((e for e in events if e.step == step and e.layer == layer),
                          key=lambda e: e.seq)
            decisions = engine.decide(layer, [
                (step, rank, e.seq, engine.score_row(layer, e.seq, (e.k, e.v))) for e in rows])
            step_reports += [report for _, report in decisions if report is not None]
        reports += sorted(step_reports, key=lambda r: (r.seq, r.layer))
    return reports


def assert_replay_matches_process(header, events, prune):
    got = [dataclasses.replace(r, flops_saved=0) for r in replay(header, events, prune).reports]
    want = row_replay(header, events, prune)
    assert len(got) == len(want)
    # Report by report, so that a failure names one short report instead of
    # diffing the whole replay as one string.
    first = next((i for i, (a, b) in enumerate(zip(got, want)) if repr(a) != repr(b)), None)
    assert first is None, f"report {first} differs: {got[first]!r} != {want[first]!r}"


F32 = np.finfo(np.float32)
# Head values at the edges of process's input domain: float32's largest and
# smallest magnitudes, whose squared norms stay inside the double range, and
# non-finite values, whose dot products raise floating-point flags (0 x inf,
# inf - inf) that must not become warnings.
HEAD_VALUES = {
    "float32 extremes": (F32.max, -F32.max, F32.smallest_subnormal, -F32.smallest_subnormal),
    "non-finite": (np.inf, -np.inf, np.nan),
}


# Step 3 of a trace whose steps 0 and 1 are the prompt holds only
# unfiltered-layer events, or none: with warm-up 3, decode rank 3 is the first
# to skip, step 5 if step 3 counts and step 6 if it is missing.
GAPS = {"unfiltered-only step": 5, "missing step": 6}


@pytest.mark.parametrize("anchor_mode, case", [
    pytest.param(mode, case, id=f"{mode}-{case}" if case else mode)
    for case in (None, *HEAD_VALUES, *GAPS) for mode in ("ema", "exact_mean")])
def test_replay_of_ragged_steps_decides_like_process(anchor_mode, case):
    header, events = synthesize("repetitive", 4, 2, 8, 40, seed=5, n_seqs=3)
    rng = np.random.default_rng(5)
    # Steps with some (seq, layer) events missing, some steps with none of
    # the filtered layers, and a few sequences that start late.
    kept = [e for e in events
            if rng.random() < 0.7 and not (e.seq == 2 and e.step < 9)]
    assert len({(e.step, e.layer) for e in kept}) < len({(e.step, e.layer) for e in events})
    if case in GAPS:
        # Steps 0-5 of seqs 0 and 1 whole but for step 3, whose filtered
        # layers (2 and 3) or every layer have no event.
        header.generator_params["prefill_steps"] = "2"
        kept = [e for e in events if e.step < 6 and e.seq < 2 and not (
            e.step == 3 and (e.layer >= 2 or case == "missing step"))] + [
            e for e in kept if e.step >= 6]
    # About one event in six gets a head of one of the values, whole or in
    # one element, in its key or its value.
    for e in kept:
        if case in HEAD_VALUES and rng.random() < 0.17:
            side = "k" if rng.random() < 0.5 else "v"
            row = getattr(e, side).copy()
            head = rng.integers(header.n_heads)
            value = HEAD_VALUES[case][rng.integers(len(HEAD_VALUES[case]))]
            if rng.random() < 0.5:
                row[head] = value
            else:
                row[head, rng.integers(header.d_head)] = value
            setattr(e, side, row)
    prune = PruneConfig(anchor_mode=anchor_mode, warmup_steps=3)
    assert_replay_matches_process(header, kept, prune)
    if case in GAPS:
        reports = replay(header, kept, prune).reports
        assert min(r.step for r in reports if not r.shadow) == GAPS[case]


@pytest.mark.parametrize("anchor_mode", ["ema", "exact_mean"])
@pytest.mark.parametrize("n_seqs", [1, 2, 3])
def test_each_filtered_layer_decides_on_its_own(n_seqs, anchor_mode):
    """Replaying a trace without one filtered layer's events leaves every
    other filtered layer's reports as they were."""
    header, events = synthesize("repetitive", 4, 2, 8, 40, seed=11, n_seqs=n_seqs)
    prune = PruneConfig(anchor_mode=anchor_mode, tail_fraction=1.0, p_global=0.5)
    full = replay(header, events, prune).reports
    assert any(r.skipped for r in full)
    for dropped in range(4):
        without = replay(header, [e for e in events if e.layer != dropped], prune).reports
        # Report by report: a failure names the first report that differs.
        assert list(map(repr, without)) == [repr(r) for r in full if r.layer != dropped]


@pytest.mark.parametrize("anchor_mode", ["ema", "exact_mean"])
def test_replay_of_a_trace_longer_than_one_block_decides_like_process(anchor_mode):
    n_steps = 2 * BLOCK_STEPS + 5
    header, events = synthesize("repetitive", 4, 2, 8, n_steps, seed=6, n_seqs=2,
                                with_attn=False)
    assert_replay_matches_process(header, events, PruneConfig(anchor_mode=anchor_mode))


@pytest.mark.parametrize("anchor_mode", ["ema", "exact_mean"])
def test_a_first_token_that_is_not_finite_gets_no_anchor(anchor_mode):
    header, events = synthesize("repetitive", 2, 2, 8, 12, seed=7, n_seqs=2, with_attn=False)
    # (layer 1, seq 0): the first two tokens are non-finite, then one in the
    # middle; (layer 1, seq 1): a zero first token, degenerate but folded in.
    corrupt = {(0, 0, 1): np.nan, (0, 1, 1): np.inf, (0, 6, 1): -np.inf, (1, 0, 1): 0.0}
    for e in events:
        if (e.seq, e.step, e.layer) in corrupt:
            e.k = e.k.copy()
            e.k[0] = corrupt[e.seq, e.step, e.layer]
            if corrupt[e.seq, e.step, e.layer] == 0.0:
                e.k[:], e.v = 0.0, np.zeros_like(e.v)
    prune = PruneConfig(anchor_mode=anchor_mode, warmup_steps=0)
    assert_replay_matches_process(header, events, prune)
    reports = replay(header, events, prune).reports
    steps = [r.step for r in reports if (r.seq, r.layer) == (0, 1)]
    # Step 2 is the first finite token, so step 3 is the first decision.
    assert steps == list(range(3, 12))
    assert [r.degenerate for r in reports if (r.seq, r.layer) == (0, 1)][3] is True
    assert [r.step for r in reports if (r.seq, r.layer) == (1, 1)] == list(range(1, 12))


def run_fold_events(case):
    """One block of a 2-sequence trace, altered so that score_steps folds
    anchors per run of steps around the named case."""
    header, events = synthesize("repetitive", 4, 2, 8, BLOCK_STEPS, seed=9, n_seqs=2,
                                with_attn=False)
    if case == "second sequence from step 30":
        # The key list changes mid-block, with a first observation of every
        # row of seq 1 right after the run of steps 1-29.
        return header, [e for e in events if e.seq == 0 or e.step >= 30]
    if case == "non-finite row at step 40":
        # Splits the run into steps 1-39 and 41-63 around one per-row step.
        for e in events:
            if (e.seq, e.step, e.layer) == (0, 40, 3):
                e.k = e.k.copy()
                e.k[1, 2] = np.nan
        return header, events
    if case == "run of one step":
        # Steps 20 and 22 lack one row, so step 21 is a run of its own.
        return header, [e for e in events
                        if not (e.step in (20, 22) and (e.seq, e.layer) == (1, 2))]
    # A first observation (seq 1, layer 3) right after a run, in a step whose
    # other rows have anchors; in the second case one of them (seq 0, layer
    # 3) is non-finite, so step 50 also holds a row that does not fold.
    assert case in ("first observation after a run",
                    "first observation and non-finite row in one step")
    if case == "first observation and non-finite row in one step":
        for e in events:
            if (e.seq, e.step, e.layer) == (0, 50, 3):
                e.v = e.v.copy()
                e.v[0, 3] = np.inf
    return header, [e for e in events if e.step >= 50 or (e.seq, e.layer) != (1, 3)]


# Each case's runs, in steps. A step outside a run folds its rows that have
# an anchor and are finite as a run of one step; step 0 folds none.
RUN_STEPS = {"second sequence from step 30": [29, 1, 33],
             "non-finite row at step 40": [39, 1, 23],
             "run of one step": [19, 1, 1, 1, 41], "first observation after a run": [49, 1, 13],
             "first observation and non-finite row in one step": [49, 1, 13]}


@pytest.mark.parametrize("anchor_mode", ["ema", "exact_mean"])
@pytest.mark.parametrize("case", sorted(RUN_STEPS))
def test_a_run_of_steps_folds_like_process(case, anchor_mode, monkeypatch):
    runs = []
    fold_run = FilterEngine._fold_run

    def counted(engine, slots, kv, refs):
        runs.append(len(kv) // len(slots))
        return fold_run(engine, slots, kv, refs)

    monkeypatch.setattr(FilterEngine, "_fold_run", counted)
    header, events = run_fold_events(case)
    assert_replay_matches_process(header, events, PruneConfig(anchor_mode=anchor_mode,
                                                             warmup_steps=2))
    assert runs == RUN_STEPS[case]


def test_replay_scores_each_block_in_one_kernel_call_and_never_calls_process(monkeypatch):
    calls = {"head_similarity": 0, "process": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(filtering, "head_similarity",
                        counting("head_similarity", filtering.head_similarity))
    monkeypatch.setattr(FilterEngine, "process", counting("process", FilterEngine.process))
    n_steps = 2 * BLOCK_STEPS + 5
    header, events = synthesize("repetitive", 4, 2, 8, n_steps, seed=8, n_seqs=2,
                                with_attn=False)
    replay(header, events, PruneConfig())
    assert calls == {"head_similarity": math.ceil(n_steps / BLOCK_STEPS), "process": 0}


def test_replay_and_prefill_make_one_decide_call_per_filtered_layer_and_block(monkeypatch):
    calls = []
    decide = FilterEngine.decide

    def counted(engine, layer, rows):
        calls.append((layer, rows[0][0], rows[-1][0]))
        return decide(engine, layer, rows)

    monkeypatch.setattr(FilterEngine, "decide", counted)
    n_steps = 2 * BLOCK_STEPS + 5
    header, events = synthesize("repetitive", 4, 2, 8, n_steps, seed=8, n_seqs=2,
                                with_attn=False)
    layers = FilterEngine(4, 2, 8, PruneConfig()).active_layers
    replay(header, events, PruneConfig())
    # Each call spans its block's steps, first to last.
    assert sorted(calls) == [(layer, first, min(first + BLOCK_STEPS, n_steps) - 1)
                             for layer in layers for first in range(0, n_steps, BLOCK_STEPS)]
    calls.clear()
    n_prompt = 2 * PREFILL_CHUNK + 3
    session = DecodeSession(ModelConfig(max_seq=n_prompt), PruneConfig(), mode="filtered")
    session.prefill(list(range(n_prompt)))
    assert sorted(calls) == [(layer, first, min(first + PREFILL_CHUNK, n_prompt) - 1)
                             for layer in session.engine.active_layers
                             for first in range(0, n_prompt, PREFILL_CHUNK)]


def test_exact_mean_anchors_are_each_sequences_own_mean():
    # Sequence r starts at step 2 - r, so from step 2 on each step folds
    # rows with different counts: step 2 beside a first observation, the
    # later steps as runs.
    engine = FilterEngine(1, 3, 4, PruneConfig(tail_fraction=1.0, anchor_mode="exact_mean"))
    streams = np.random.default_rng(104).standard_normal((3, 6, 2, 3, 4)).astype(np.float32)
    seen = [0, 0, 0]
    for step in range(6):
        seqs = [r for r in range(3) if step >= 2 - r]
        engine.score_steps([[(0, r) for r in seqs]],
                           np.stack([streams[r, seen[r]] for r in seqs]))
        for r in seqs:
            seen[r] += 1
            want = streams[r, :seen[r]].astype(np.float64).mean(axis=0)
            np.testing.assert_allclose(np.stack(engine.anchors(0, r)), want, atol=1e-12)
    assert seen == [4, 5, 6]


def test_replay_rejects_a_repeated_event():
    header, events = synthesize("repetitive", 2, 2, 4, 6, seed=1)
    with pytest.raises(TraceCompatibilityError, match="appears twice"):
        replay(header, events + [events[5]], PruneConfig())


@pytest.mark.parametrize("field, value", [("layer", 9), ("layer", -1), ("step", 6),
                                          ("step", -1), ("seq", 2), ("seq", -1)])
def test_replay_rejects_an_event_outside_the_headers_ranges(field, value):
    # 4 layers, 6 steps, 2 sequences: the event read_trace would refuse.
    header, events = synthesize("repetitive", 4, 2, 4, 6, seed=1, n_seqs=2)
    ids = {"seq": 1, "step": 5, "layer": 3, field: value}
    stray = dataclasses.replace(events[0], **ids)
    with pytest.raises(TraceCompatibilityError,
                       match=rf"\(seq={ids['seq']}, step={ids['step']}, "
                             rf"layer={ids['layer']}\) lies outside"):
        replay(header, [e for e in events if (e.seq, e.step, e.layer) != (1, 5, 3)]
               + [stray], PruneConfig())



@pytest.mark.parametrize("row", [np.full((1, 5), 5.0, np.float32),
                                 np.full(4, 0.25, np.float32),
                                 np.full((4, 1, 1), 1.0, np.float32)],
                         ids=["one_head", "one_axis", "three_axes"])
def test_replay_rejects_an_attention_row_of_the_wrong_shape(row):
    # read_trace refuses these rows; in memory, a 1-head row at layer 3
    # would otherwise move that layer's mass_lost with no error.
    header, events = synthesize("repetitive", 4, 4, 8, 40, seed=3)
    assert replay(header, events, PruneConfig()).summary
    bad = [dataclasses.replace(e, attn=row) if e.layer == 3 else e for e in events]
    with pytest.raises(TraceCompatibilityError, match=r"layer=3\) has an attention row"):
        replay(header, bad, PruneConfig())

# sha256 of the reports (by repr) and the summary of fixed synthetic replays,
# recorded before decisions were batched by step or scored by block. The
# reports and summaries they hash are checked in, in data/golden_replays.json,
# by "<pattern>/<n_seqs>/<anchor_mode>", each report as its fields in order.
GOLDEN = {
    ("repetitive", 1, "ema"): "ddc552b2082c926b43920adfcd23552a801fa72d3942856d5521ed5902c86aa6",
    ("repetitive", 1, "exact_mean"):
        "d8c6c83b07c85dfa2950964b41fd1d4c3574392d83b0fc1e52583d3843853023",
    ("repetitive", 2, "ema"): "5c2caea10545e963250ab5c2a136e599bf81759e49b2f2f387218ca9b3ce2de9",
    ("repetitive", 2, "exact_mean"):
        "630837aed327d0211cc71c520554fdcaa69aab2fbcef2c3bc27a8c27c1be250a",
    ("random", 1, "ema"): "ae70c4a75c8a2ba8eaa1a52733a6d7236df4ddbfb16a22a0b5319348ca12ff98",
    ("random", 1, "exact_mean"): "82232fcda3ff9418a219cc30f81cd642a61769369b3104262f978b9c0d53469c",
    ("random", 2, "ema"): "c0f41204d4ea8d2385cd833ca0ccef6c2a2de4a07e87b8fb072de29f661be44f",
    ("random", 2, "exact_mean"): "7119e244e2d9f82a5fc0abff447890a83803ab97f8f4fc1b58cc77a2b904842c",
    ("depth_concentrated", 1, "ema"):
        "af51aba2e56b4e950bfeb5c6c677675f3c5c051d8dbb662781634e896557691f",
    ("depth_concentrated", 1, "exact_mean"):
        "720d4cf5ea24fe933549dec19fb84bf5cd95dc36c53001b558aa44677880639b",
    ("depth_concentrated", 2, "ema"):
        "8c32e563106bb743327db4fbf23ad52e158c8a16a6e442886fc0116e26694530",
    ("depth_concentrated", 2, "exact_mean"):
        "97756c0932d4eec46aeb48d3d3b7d13359ce6ac52932ff44137943fbe69c4720",
}


GOLDEN_REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "golden_replays.json").read_text())

# The float fields, whose last bits can move with the BLAS kernel OpenBLAS
# picks for the CPU (the evidence comes out of its dot products); every other
# field, tau and the summary's counts among them, must match exactly.
REPORT_FLOATS = ("s_k", "s_v", "var_k", "var_v", "alpha", "s_kv")
SUMMARY_FLOATS = ("mean_s_kv", "mean_alpha", "mass_lost")
FLOAT_TOLERANCE = 1e-5   # absolute


def assert_close_except_floats(got, want, floats, where) -> None:
    """got against want, a dict of the same keys: the fields named in floats
    within FLOAT_TOLERANCE (or both the same non-float), the rest exactly."""
    assert {k: v for k, v in got.items() if k not in floats} == \
        {k: v for k, v in want.items() if k not in floats}, where
    for name in floats:
        a, b = got[name], want[name]
        if isinstance(b, float):
            assert isinstance(a, float) and abs(a - b) <= FLOAT_TOLERANCE, (where, name, a, b)
        else:
            assert a == b, (where, name)


@pytest.mark.parametrize("pattern, n_seqs, anchor_mode", sorted(GOLDEN))
def test_replay_reports_and_summary_match_their_golden_digest(pattern, n_seqs, anchor_mode):
    """The checked-in reports and summary still hash to the digest, and a
    replay matches them: floats within FLOAT_TOLERANCE, all else exactly."""
    reference = GOLDEN_REFERENCE[f"{pattern}/{n_seqs}/{anchor_mode}"]
    reports = [StepReport(*row) for row in reference["reports"]]
    text = "\n".join([repr(r) for r in reports] + [repr(reference["summary"])])
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[pattern, n_seqs, anchor_mode]
    header, events = synthesize(pattern, 4, 4, 16, 40, seed=3, n_seqs=n_seqs)
    result = replay(header, events, PruneConfig(anchor_mode=anchor_mode))
    assert len(result.reports) == len(reports)
    for got, want in zip(result.reports, reports):
        assert_close_except_floats(dataclasses.asdict(got), dataclasses.asdict(want),
                                   REPORT_FLOATS, (want.seq, want.step, want.layer))
    assert len(result.summary) == len(reference["summary"])
    for got, want in zip(result.summary, reference["summary"]):
        assert_close_except_floats(got, want, SUMMARY_FLOATS, want["layer"])
