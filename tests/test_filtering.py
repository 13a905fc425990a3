import math

import numpy as np
import pytest

from tokenskip.filtering import (
    EPS_VAR,
    FilterEngine,
    MisconfigurationError,
    fuse,
    head_similarity,
    update_anchor,
)
from tokenskip.numerics import cosine_similarity
from tokenskip.policy import PruneConfig


def drive(engine, layer, stream, prefill=0, seq=0):
    """Feed (K, V) pairs one step at a time, the first prefill of them as
    prompt steps; returns (skips, reports)."""
    skips, reports = [], []
    decoded = 0  # decode steps passed: the next decode step's rank
    for step, (k, v) in enumerate(stream):
        rank = -1 if step < prefill else decoded
        skip, rep = engine.process(layer, seq, (k, v), step, rank)
        decoded += rank >= 0
        skips.append(skip)
        if rep is not None:
            reports.append(rep)
    return skips, reports


def single_layer_engine(d_head=4, **prune_kwargs) -> FilterEngine:
    kwargs = dict(tail_fraction=1.0, warmup_steps=0)
    kwargs.update(prune_kwargs)
    return FilterEngine(1, 2, d_head, PruneConfig(**kwargs))


class TestUpdateAnchor:
    def test_fixed_point(self):
        a = np.array([0.5, -2.0])
        for gamma in (0.3, 0.9):
            np.testing.assert_allclose(update_anchor(a, a, gamma), a, atol=1e-12)

    @pytest.mark.parametrize("gamma", [0.8, 0.9, 0.95])
    def test_matches_closed_form_geometric_weights(self, gamma):
        rng = np.random.default_rng(101)
        xs = rng.standard_normal((100, 8))
        anchor = xs[0]   # the engine starts an anchor at its first observation
        for x in xs[1:]:
            anchor = update_anchor(anchor, x, gamma)
        # independently: gamma^(T-1) x_1 + sum_{t>=2} (1-gamma) gamma^(T-t) x_t
        T = len(xs)
        expected = (gamma ** (T - 1)) * xs[0].astype(np.float64)
        for t in range(1, T):
            expected += (1 - gamma) * (gamma ** (T - 1 - t)) * xs[t].astype(np.float64)
        np.testing.assert_allclose(anchor, expected, atol=1e-6)

    def test_gamma_range_enforced(self):
        with pytest.raises(ValueError):
            update_anchor(np.ones(2), np.ones(2), 1.0)


class TestHeadSimilarity:
    def test_identical_heads(self):
        a = np.random.default_rng(103).standard_normal((4, 8))
        mean, var, degen = head_similarity(a, a.copy())
        assert mean == 1.0
        assert var == 0.0
        assert not degen

    def test_half_and_half(self):
        # head 0 aligned (similarity 1), head 1 orthogonal (similarity 0)
        anchors = np.array([[1.0, 0.0], [1.0, 0.0]])
        currents = np.array([[1.0, 0.0], [0.0, 1.0]])
        mean, var, _ = head_similarity(anchors, currents)
        assert mean == pytest.approx(0.5, abs=1e-12)
        assert var == pytest.approx(0.25, abs=1e-12)

    def test_matches_per_head_loop(self):
        rng = np.random.default_rng(104)
        for _ in range(30):
            a = rng.standard_normal((4, 16))
            b = rng.standard_normal((4, 16))
            mean, var, _ = head_similarity(a, b)
            sims = [cosine_similarity(a[h], b[h]) for h in range(4)]
            assert mean == pytest.approx(np.mean(sims), abs=1e-9)
            assert var == pytest.approx(np.var(sims), abs=1e-9)

    def test_zero_norm_head_degrades_gracefully(self):
        anchors = np.array([[1.0, 0.0], [0.0, 0.0]])
        currents = np.array([[1.0, 0.0], [1.0, 1.0]])
        mean, var, degen = head_similarity(anchors, currents)
        assert degen
        assert mean == pytest.approx(0.5, abs=1e-12)


class TestFuse:
    def test_equal_variances_balance(self):
        assert fuse(0.8, 0.2, 0.03, 0.03).alpha == 0.5
        assert fuse(0.8, 0.2, 0.0, 0.0).alpha == 0.5

    def test_equal_similarities_pass_through(self):
        rng = np.random.default_rng(105)
        for _ in range(50):
            s = float(rng.uniform(-1, 1))
            vk, vv = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
            assert fuse(s, s, vk, vv).s_kv == pytest.approx(s, abs=1e-12)

    def test_lower_variance_side_gets_more_weight(self):
        # var_k = 0.01 < var_v = 0.04: the key similarity dominates
        score = fuse(1.0, 0.0, 0.01, 0.04)
        assert score.alpha == pytest.approx(0.8, abs=1e-4)

    def test_alpha_in_unit_interval_on_grid(self):
        grid = np.linspace(0.0, 2.0, 101)
        for vk in grid:
            for vv in grid:
                a = fuse(0.3, -0.3, float(vk), float(vv)).alpha
                assert 0.0 <= a <= 1.0

    def test_alpha_monotone_in_variances(self):
        vks = np.linspace(0.0, 1.0, 50)
        # non-increasing in var_k at fixed var_v
        alphas = [fuse(0.0, 0.0, float(vk), 0.2).alpha for vk in vks]
        assert all(a >= b - 1e-15 for a, b in zip(alphas, alphas[1:]))
        # non-decreasing in var_v at fixed var_k
        alphas = [fuse(0.0, 0.0, 0.2, float(vv)).alpha for vv in vks]
        assert all(a <= b + 1e-15 for a, b in zip(alphas, alphas[1:]))

    def test_fused_score_contained_in_similarity_interval(self):
        rng = np.random.default_rng(106)
        for _ in range(10_000):
            sk, sv = rng.uniform(-1, 1, size=2)
            vk, vv = rng.uniform(0, 2, size=2)
            s = fuse(float(sk), float(sv), float(vk), float(vv))
            lo, hi = min(sk, sv), max(sk, sv)
            assert lo - 1e-12 <= s.s_kv <= hi + 1e-12
            assert -1.0 <= s.s_kv <= 1.0

    def test_single_feature_modes(self):
        s = fuse(0.9, -0.1, 0.5, 0.001, mode="key_only")
        assert s.alpha == 1.0 and s.s_kv == 0.9
        s = fuse(0.9, -0.1, 0.5, 0.001, mode="value_only")
        assert s.alpha == 0.0 and s.s_kv == -0.1

    def test_regularizer_magnitude(self):
        assert EPS_VAR == 1e-6


def anchor_bytes_held(n_layers, n_heads, d_head, tail_fraction=1.0, n_seqs=1):
    """Bytes of the anchors an engine holds after three steps over random
    K/V, and the number of layers it filters."""
    engine = FilterEngine(n_layers, n_heads, d_head, PruneConfig(tail_fraction=tail_fraction))
    rng = np.random.default_rng(5)
    for step in range(3):
        for layer in engine.active_layers:
            for seq in range(n_seqs):
                k, v = rng.standard_normal((2, n_heads, d_head)).astype(np.float32)
                engine.process(layer, seq, (k, v), step, step)
    held = sum(a.nbytes for layer in engine.active_layers for seq in range(n_seqs)
               for a in engine.anchors(layer, seq))
    return held, len(engine.active_layers)


class TestAnchorMemory:
    """One float64 key and value anchor per head: 16 * n_heads * d_head bytes
    per filtered (layer, seq), and nothing else."""

    def test_large_model_shape(self):
        # 40 layers, 40 heads, d_head 128: full depth then half depth
        assert anchor_bytes_held(40, 40, 128) == (3_276_800, 40)
        assert anchor_bytes_held(40, 40, 128, tail_fraction=0.5) == (1_638_400, 20)  # ~1.6 MB

    def test_minimal(self):
        assert anchor_bytes_held(1, 1, 1) == (16, 1)

    def test_toy_with_batch(self):
        assert anchor_bytes_held(4, 4, 16, n_seqs=2) == (8192, 4)

    def test_equals_the_anchors_a_running_engine_holds(self):
        held, n_active = anchor_bytes_held(4, 4, 16, tail_fraction=0.5, n_seqs=2)
        assert held == 16 * 4 * 16 * n_active * 2


def random_unit_heads(rng, n_heads, d_head):
    g = rng.standard_normal((n_heads, d_head))
    return (g / np.linalg.norm(g, axis=1, keepdims=True)).astype(np.float32)


class TestSkipDecision:
    def test_layer_outside_scope_is_misconfiguration(self):
        engine = FilterEngine(4, 2, 4, PruneConfig(tail_fraction=0.5))
        with pytest.raises(MisconfigurationError):
            engine.process(0, 0, (np.ones((2, 4)), np.ones((2, 4))), 0, 0)

    def test_kv_of_other_dims_rejected(self):
        engine = single_layer_engine()  # 2 heads of 4
        wide = np.ones((2, 8), dtype=np.float32)
        with pytest.raises(ValueError, match="shape"):
            engine.process(0, 0, (wide, wide), 0, 0)
        with pytest.raises(ValueError, match="shape"):
            engine.score_steps([[(0, 0)]], np.ones((1, 2, 2, 8)))
        engine.process(0, 0, (np.ones((2, 4)), np.ones((2, 4))), 0, 0)
        assert engine.anchors(0)[0].shape == (2, 4)

    def test_infinite_tau_never_skips_but_still_reports(self):
        engine = single_layer_engine(tau_init=math.inf, p_global=0.5, tail_fraction=1.0)
        rng = np.random.default_rng(107)
        stream = [(random_unit_heads(rng, 2, 4),) * 2 for _ in range(50)]
        skips, reports = drive(engine, 0, stream)
        assert not any(skips)
        assert len(reports) == 49  # first observation only initializes
        assert all(math.isinf(r.tau) for r in reports)

    def test_perfect_redundancy_skips(self):
        k = random_unit_heads(np.random.default_rng(108), 2, 4)
        engine = single_layer_engine(tau_init=0.5, p_global=0.5, tail_fraction=1.0)
        stream = [(k, k) for _ in range(10)]
        skips, reports = drive(engine, 0, stream)
        # identical tokens: similarity exactly 1 from the second step onward
        assert all(r.s_k == 1.0 and r.s_v == 1.0 and r.s_kv == 1.0 for r in reports)
        assert any(skips)

    def test_random_unit_vectors_rarely_skip(self):
        rng = np.random.default_rng(109)
        # Monte-Carlo oracle for cosine concentration in d=64: the score of
        # independent unit vectors is centered at 0 with sd ~= 1/8, so scores
        # above 0.5 have probability well under one percent.
        d = 64
        sims = []
        for _ in range(2000):
            a = rng.standard_normal(d)
            b = rng.standard_normal(d)
            sims.append(float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b))))
        assert abs(np.mean(sims)) < 0.02
        assert np.mean(np.abs(np.asarray(sims)) > 0.5) < 0.001

        # eta ~ 0 pins tau at 0.5 so this observes the decision rule itself,
        # not the budget controller pulling tau toward the median score
        engine = single_layer_engine(d_head=d, tau_init=0.5, p_global=0.5, tail_fraction=1.0,
                                     eta=1e-12)
        stream = [(random_unit_heads(rng, 2, d), random_unit_heads(rng, 2, d))
                  for _ in range(300)]
        skips, reports = drive(engine, 0, stream)
        mean_skv = np.mean([r.s_kv for r in reports])
        assert abs(mean_skv) < 0.05
        assert sum(skips) <= 6  # cosine concentration keeps scores far below 0.5

    def test_decision_invariant_under_power_of_two_head_scaling(self):
        rng = np.random.default_rng(110)
        n_heads, d = 4, 8
        stream = [(rng.standard_normal((n_heads, d)).astype(np.float32),
                   rng.standard_normal((n_heads, d)).astype(np.float32))
                  for _ in range(120)]
        scales = np.array([0.5, 2.0, 4.0, 0.25], dtype=np.float32)[:, None]

        def run(scaled):
            engine = FilterEngine(1, n_heads, d, PruneConfig(
                warmup_steps=4, tau_init=0.6, p_global=0.5, tail_fraction=1.0))
            seq = [((k * scales).astype(np.float32), (v * scales).astype(np.float32))
                   if scaled else (k, v) for k, v in stream]
            return drive(engine, 0, seq)

        skips_base, reports_base = run(False)
        skips_scaled, reports_scaled = run(True)
        assert skips_base == skips_scaled
        for a, b in zip(reports_base, reports_scaled):
            assert a.s_kv == b.s_kv  # bit-level equality
            assert a.skipped == b.skipped

    def test_warmup_safety_and_counter_consistency(self):
        rng = np.random.default_rng(111)
        warmup = 12
        engine = single_layer_engine(warmup_steps=warmup, tau_init=0.0, p_global=0.5,
                                     tail_fraction=1.0)
        k = random_unit_heads(rng, 2, 4)
        stream = [(k, k) for _ in range(40)]  # maximally redundant
        skips, reports = drive(engine, 0, stream)
        for r in reports:
            if r.step < warmup:
                assert r.shadow and not r.skipped
        assert any(r.skipped for r in reports if r.step >= warmup)

    def test_shadow_decisions_match_enabled_engine(self):
        rng = np.random.default_rng(112)
        stream = [(random_unit_heads(rng, 2, 8) + 0.4, random_unit_heads(rng, 2, 8) + 0.4)
                  for _ in range(60)]

        def would_skips(warmup):
            engine = single_layer_engine(d_head=8, warmup_steps=warmup, tau_init=0.3,
                                         p_global=0.4, tail_fraction=1.0)
            _, reports = drive(engine, 0, stream)
            return [(r.s_kv > r.tau) for r in reports], [r.tau for r in reports]

        shadow_flags, shadow_taus = would_skips(warmup=30)
        enabled_flags, enabled_taus = would_skips(warmup=0)
        assert shadow_taus == enabled_taus
        assert shadow_flags == enabled_flags

    def test_zero_budget_never_enacts(self):
        rng = np.random.default_rng(113)
        engine = single_layer_engine(p_global=0.0, tau_init=0.0, tail_fraction=1.0)
        k = random_unit_heads(rng, 2, 4)
        skips, reports = drive(engine, 0, [(k, k)] * 30)
        assert not any(skips)
        assert all(not r.skipped for r in reports)

    def test_degenerate_heads_flagged_not_fatal(self):
        engine = single_layer_engine(tail_fraction=1.0)
        zero = np.zeros((2, 4), dtype=np.float32)
        ok = np.ones((2, 4), dtype=np.float32)
        engine.process(0, 0, (ok, ok), 0, 0)
        _, rep = engine.process(0, 0, (zero, zero), 1, 1)
        assert rep.degenerate

    def test_exact_mean_anchor_mode(self):
        rng = np.random.default_rng(115)
        xs = [random_unit_heads(rng, 2, 4) for _ in range(20)]
        engine = single_layer_engine(anchor_mode="exact_mean", tail_fraction=1.0)
        for step, x in enumerate(xs):
            engine.process(0, 0, (x, x), step, step)
        anchor_k, _ = engine.anchors(0, 0)
        np.testing.assert_allclose(anchor_k, np.mean(xs, axis=0), atol=1e-6)
