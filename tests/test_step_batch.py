"""Block-scored decisions: FilterEngine.score_steps over a block of steps,
then FilterEngine.decide row by row, equals one process call per row in the
same order, bit for bit, and replay (which scores each block of steps in one
call) keeps its reports and summaries."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenskip import filtering
from tokenskip.filtering import FilterEngine, MisconfigurationError
from tokenskip.policy import PruneConfig
from tokenskip.replay import BLOCK_STEPS, TraceCompatibilityError, replay
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
def test_a_step_batch_decides_like_one_process_call_per_row(run):
    dims, all_keys, steps = run
    batched, single = FilterEngine(*dims), FilterEngine(*dims)
    evidence = iter(batched.score_steps([keys for keys, *_ in steps],
                                        np.concatenate([kv for _, kv, *_ in steps])))
    for step, (keys, kv, prefill) in enumerate(steps):
        batched.begin_step(prefill=prefill)
        single.begin_step(prefill=prefill)
        got = [batched.decide(layer, seq, next(evidence), step) for layer, seq in keys]
        want = [single.process(layer, seq, kv[i], step)
                for i, (layer, seq) in enumerate(keys)]
        assert repr(got) == repr(want)
        batched.end_step()
        single.end_step()
        for layer in batched.active_layers:
            a, b = batched.layers[layer], single.layers[layer]
            assert repr((a.tau, a.var_k, a.var_v)) == repr((b.tau, b.var_k, b.var_v))
    for key in all_keys:
        assert anchor_bits(batched, key) == anchor_bits(single, key)


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


def process_replay(header, events, prune):
    """The reports of a replay that decides one process call per event, in
    (step, seq, layer) order: the oracle of the block-scored replay."""
    engine = FilterEngine(header.n_layers, header.n_heads, header.d_head, prune)
    reports = []
    for step in sorted({e.step for e in events}):
        engine.begin_step(prefill=step < header.prefill_steps)
        for e in sorted((e for e in events if e.step == step), key=lambda e: (e.seq, e.layer)):
            if e.layer in engine.layers:
                _, report = engine.process(e.layer, e.seq, (e.k, e.v), step)
                if report is not None:
                    reports.append(report)
        engine.end_step()
    return reports


def assert_replay_matches_process(header, events, prune):
    got = [dataclasses.replace(r, flops_saved=0) for r in replay(header, events, prune).reports]
    want = process_replay(header, events, prune)
    assert len(got) == len(want)
    # Report by report, so that a failure names one short report instead of
    # diffing the whole replay as one string.
    first = next((i for i, (a, b) in enumerate(zip(got, want)) if repr(a) != repr(b)), None)
    assert first is None, f"report {first} differs: {got[first]!r} != {want[first]!r}"


@pytest.mark.parametrize("anchor_mode", ["ema", "exact_mean"])
def test_replay_of_ragged_steps_decides_like_process(anchor_mode):
    header, events = synthesize("repetitive", 4, 2, 8, 40, seed=5, n_seqs=3)
    rng = np.random.default_rng(5)
    # Steps with some (seq, layer) events missing, some steps with none of
    # the filtered layers, and a few sequences that start late.
    kept = [e for e in events
            if rng.random() < 0.7 and not (e.seq == 2 and e.step < 9)]
    assert len({(e.step, e.layer) for e in kept}) < len({(e.step, e.layer) for e in events})
    assert_replay_matches_process(header, kept, PruneConfig(anchor_mode=anchor_mode,
                                                             warmup_steps=3))


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


# sha256 of the reports (by repr) and the summary of fixed synthetic replays,
# recorded before decisions were batched by step or scored by block.
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


@pytest.mark.parametrize("pattern, n_seqs, anchor_mode", sorted(GOLDEN))
def test_replay_reports_and_summary_match_their_golden_digest(pattern, n_seqs, anchor_mode):
    header, events = synthesize(pattern, 4, 4, 16, 40, seed=3, n_seqs=n_seqs)
    result = replay(header, events, PruneConfig(anchor_mode=anchor_mode))
    text = "\n".join([repr(r) for r in result.reports] + [repr(result.summary)])
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[pattern, n_seqs, anchor_mode]
