"""Properties over small random model and prune configs: a replay of a live
decode's recorded trace makes the same decisions, and both ledgers conserve
FLOPs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from tokenskip.model import DecodeSession, ModelConfig
from tokenskip.policy import PruneConfig
from tokenskip.replay import replay
from tokenskip.trace import TraceRecorder


@st.composite
def live_runs(draw):
    n_heads, d_head = draw(st.integers(1, 3)), draw(st.integers(2, 8))
    prompt = draw(st.lists(st.integers(0, 255), min_size=1, max_size=6))
    n_steps = draw(st.integers(0, 40))
    model = ModelConfig(n_layers=draw(st.integers(1, 4)), n_heads=n_heads,
                        d_model=n_heads * d_head, d_head=d_head, d_ff=draw(st.integers(4, 24)),
                        max_seq=len(prompt) + n_steps, seed=draw(st.integers(0, 2**31 - 1)))
    p_global = draw(st.sampled_from([0.0, 0.25, 0.5, 0.75]))
    prune = PruneConfig(
        p_global=p_global,
        tail_fraction=draw(st.sampled_from([t for t in (0.25, 0.5, 1.0) if t >= p_global])),
        warmup_steps=draw(st.integers(0, 4)),
        tau_init=draw(st.sampled_from([-1.0, 0.0, 0.3, 0.9])),
        focus=draw(st.sampled_from(["tail", "head", "uniform"])),
        anchor_mode=draw(st.sampled_from(["ema", "exact_mean"])),
        cache_on_skip=draw(st.sampled_from(["drop", "keep"])),
    )
    return model, prune, prompt, n_steps


def decisions(reports):
    return [(r.seq, r.step, r.layer, r.skipped, r.s_kv) for r in reports]


@settings(deadline=None, max_examples=40)
@given(live_runs())
def test_replay_of_a_live_trace_makes_the_same_decisions(run):
    model, prune, prompt, n_steps = run
    recorder = TraceRecorder(model.n_layers, model.n_heads, model.d_head,
                             generator_params={"prefill_steps": str(len(prompt))})
    live = DecodeSession(model, prune, mode="filtered", record=True).decode(
        prompt, n_steps, recorder=recorder)
    result = replay(recorder.header(), recorder.events, prune)
    assert decisions(result.reports) == decisions(live.reports)
    assert live.flops.conserved()
    assert result.ledger.conserved()
