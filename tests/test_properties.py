"""Properties over small random model and prune configs: a replay of a live
decode's recorded trace makes the same decisions, and both ledgers conserve
FLOPs. Properties of the fusion and the threshold controller: the fusion
weight lies in [0, 1] and the fused score between its inputs, and the
threshold stays clamped, keeps +inf, and never falls as the skip ratio
rises."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from tokenskip.filtering import fuse
from tokenskip.model import DecodeSession, ModelConfig
from tokenskip.policy import PruneConfig, update_threshold
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
    assert vars(result.ledger) == vars(live.flops)
    assert live.flops.conserved()
    assert result.ledger.conserved()


similarities = st.floats(-1.0, 1.0)
# A head variance of cosines in [-1, 1] lies in [0, 1].
variances = st.floats(0.0, 1.0)
ratios = st.floats(0.0, 1.0)
etas = st.floats(1e-6, 1.0)


@given(similarities, similarities, variances, variances)
def test_fusion_weight_lies_in_unit_interval_and_score_between_its_inputs(
        s_k, s_v, var_k, var_v):
    score = fuse(s_k, s_v, var_k, var_v)
    assert 0.0 <= score.alpha <= 1.0
    # alpha * s_k + (1 - alpha) * s_v rounds three times, so it may leave the
    # interval by a few ulps of 1 (for s_k == s_v as well).
    slack = 4 * math.ulp(1.0)
    assert min(s_k, s_v) - slack <= score.s_kv <= max(s_k, s_v) + slack


@given(similarities, similarities, variances, variances)
def test_single_feature_modes_return_that_feature(s_k, s_v, var_k, var_v):
    assert fuse(s_k, s_v, var_k, var_v, mode="key_only").s_kv == s_k
    assert fuse(s_k, s_v, var_k, var_v, mode="value_only").s_kv == s_v


@given(st.floats(allow_nan=False, allow_infinity=False), ratios, ratios, etas)
def test_threshold_stays_clamped(tau, rho_current, rho_target, eta):
    assert -1.0 <= update_threshold(tau, rho_current, rho_target, eta) <= 1.0 + eta


@given(ratios, ratios, etas)
def test_threshold_keeps_the_never_skip_sentinel(rho_current, rho_target, eta):
    assert update_threshold(math.inf, rho_current, rho_target, eta) == math.inf


@given(st.floats(-2.0, 2.0), ratios, ratios, ratios, etas)
def test_threshold_never_falls_as_the_skip_ratio_rises(tau, rho_a, rho_b, rho_target, eta):
    low, high = sorted((rho_a, rho_b))
    assert (update_threshold(tau, low, rho_target, eta)
            <= update_threshold(tau, high, rho_target, eta))
