"""Step-batched decisions: FilterEngine.decide_step over a step's rows equals
one process call per row in the same order, bit for bit, and replay (which
decides each step in one batch) keeps its reports and summaries."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenskip.filtering import FilterEngine, MisconfigurationError, update_anchor_mean
from tokenskip.policy import PruneConfig
from tokenskip.replay import TraceCompatibilityError, replay
from tokenskip.trace import synthesize

SEQS = 3


@st.composite
def step_runs(draw):
    """A small engine config and a few steps of (layer, seq) rows, drawn from
    a few prototypes (so some rows are similar enough to skip), with zero,
    NaN and infinite heads or whole tokens mixed in."""
    n_layers, n_heads, d_head = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(
        st.integers(1, 6))
    config = PruneConfig(
        p_global=draw(st.sampled_from([0.0, 0.25, 0.5])), focus="uniform",
        anchor_mode=draw(st.sampled_from(["ema", "exact_mean"])),
        variance_mode=draw(st.sampled_from(["instant", "ema"])),
        warmup_steps=draw(st.integers(0, 2)),
        tau_init=draw(st.sampled_from([-1.0, 0.0, 0.5, 0.9])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prototypes = rng.standard_normal((3, 2, n_heads, d_head))
    all_keys = [(layer, seq) for layer in range(n_layers) for seq in range(SEQS)]
    steps = []
    for _ in range(draw(st.integers(1, 5))):
        keys = draw(st.lists(st.sampled_from(all_keys), min_size=1,
                             max_size=min(6, len(all_keys)), unique=True))
        kv = (prototypes[rng.integers(0, 3, len(keys))]
              + 0.05 * rng.standard_normal((len(keys), 2, n_heads, d_head))).astype(np.float32)
        for row in range(len(keys)):
            special = draw(st.sampled_from([None, None, None, "zero", 0.0, np.nan, np.inf,
                                            -np.inf]))
            if special == "zero":
                kv[row] = 0.0
            elif special is not None:
                kv[row, draw(st.integers(0, 1)), draw(st.integers(0, n_heads - 1))] = special
        steps.append((keys, kv, draw(st.booleans()), draw(st.booleans())))
    return (n_layers, n_heads, d_head, config), all_keys, steps


def anchor_bits(engine, key):
    kv = engine.anchors(*key)
    return None if kv is None else (kv[0].tobytes(), kv[1].tobytes())


@settings(deadline=None, max_examples=150)
@given(step_runs())
def test_a_step_batch_decides_like_one_process_call_per_row(run):
    dims, all_keys, steps = run
    batched, single = FilterEngine(*dims), FilterEngine(*dims)
    for step, (keys, kv, prefill, enact) in enumerate(steps):
        batched.begin_step(prefill=prefill)
        single.begin_step(prefill=prefill)
        got = batched.decide_step(keys, kv, step, enact)
        want = [single.process(layer, seq, kv[i, 0], kv[i, 1], step, enact)
                for i, (layer, seq) in enumerate(keys)]
        assert repr(got) == repr(want)
        batched.end_step()
        single.end_step()
        for layer in batched.active_layers:
            assert batched.counters(layer) == single.counters(layer)
            a, b = batched.layers[layer], single.layers[layer]
            assert repr((a.tau, a.var_k, a.var_v)) == repr((b.tau, b.var_k, b.var_v))
    for key in all_keys:
        assert anchor_bits(batched, key) == anchor_bits(single, key)


def test_a_repeated_row_in_one_batch_is_rejected():
    engine = FilterEngine(1, 2, 4, PruneConfig(focus="uniform"))
    kv = np.ones((2, 2, 2, 4), dtype=np.float32)
    engine.begin_step()
    with pytest.raises(ValueError, match="more than once"):
        engine.decide_step([(0, 0), (0, 0)], kv, 0, enact=True)


def test_a_bad_batch_leaves_the_engine_untouched():
    engine = FilterEngine(2, 2, 4, PruneConfig(focus="tail", tail_fraction=0.5))
    kv = np.ones((2, 2, 2, 4), dtype=np.float32)
    engine.begin_step()
    with pytest.raises(MisconfigurationError):
        engine.decide_step([(1, 0), (0, 0)], kv, 0, enact=True)
    with pytest.raises(ValueError, match="K/V array"):
        engine.decide_step([(1, 0)], kv, 0, enact=True)
    assert engine.anchors(1, 0) is None


def test_update_anchor_mean_takes_per_row_counts():
    rng = np.random.default_rng(3)
    anchors, currents = rng.standard_normal((2, 5, 2, 3, 4))
    counts = [1, 2, 3, 7, 100]
    batched = update_anchor_mean(anchors, currents, counts)
    for row, count in enumerate(counts):
        assert batched[row].tobytes() == update_anchor_mean(
            anchors[row], currents[row], count).tobytes()


def test_replay_rejects_a_repeated_event():
    header, events = synthesize("repetitive", 2, 2, 4, 6, seed=1)
    with pytest.raises(TraceCompatibilityError, match="appears twice"):
        replay(header, events + [events[5]], PruneConfig())


# sha256 of the reports (by repr) and the summary of fixed synthetic replays,
# recorded before decisions were batched by step.
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
