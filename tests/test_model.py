import math

import numpy as np
import pytest

from tokenskip.model import (
    MAX_MODEL_VALUES,
    DecodeSession,
    KVCache,
    LayerWeights,
    ModelConfig,
    SequenceLengthError,
    attention_forward,
    init_weights,
    load_weights,
    project_kv,
    save_weights,
    sinusoidal_positions,
)
from tokenskip.policy import ConfigError, PruneConfig


def brute_force_attention(weights, layer, query_hidden, cache):
    """Independent oracle: explicit loops and float64 softmax over the full
    dense matrices, no shared code with the engine's einsum path."""
    c = weights.config
    lw = weights.layers[layer]
    q_full = np.zeros(c.d_model)
    for i in range(c.d_model):
        q_full[i] = sum(float(lw.wq[i, j]) * float(query_hidden[j]) for j in range(c.d_model))
    k, v = cache.view(layer)
    L = k.shape[1]
    ctx = np.zeros((c.n_heads, c.d_head))
    for h in range(c.n_heads):
        q = q_full[h * c.d_head:(h + 1) * c.d_head]
        scores = np.zeros(L)
        for j in range(L):
            scores[j] = sum(q[t] * float(k[h, j, t]) for t in range(c.d_head)) / math.sqrt(c.d_head)
        exps = np.exp(scores - scores.max())
        probs = exps / exps.sum()
        for j in range(L):
            for t in range(c.d_head):
                ctx[h, t] += probs[j] * float(v[h, j, t])
    flat = ctx.reshape(c.d_model)
    out = np.zeros(c.d_model)
    for i in range(c.d_model):
        out[i] = sum(float(lw.wo[i, j]) * flat[j] for j in range(c.d_model))
    return out


class TestModelConfig:
    def test_dimension_consistency_enforced(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_heads=4, d_head=16, d_model=60)
        with pytest.raises(ConfigError):
            ModelConfig(max_seq=0)

    def test_defaults_consistent(self):
        c = ModelConfig()
        assert c.d_model == c.n_heads * c.d_head

    def test_a_model_past_the_value_cap_is_refused_naming_its_total(self):
        """A 1-wide, 1-layer model holds 13 weights (embedding, final norm
        and the layer's 10) and 3 values per position (key, value, position
        table): at the cap it is accepted, one position past it refused."""
        dims = dict(n_layers=1, n_heads=1, d_model=1, d_head=1, d_ff=1, vocab_size=1)
        at_cap = (MAX_MODEL_VALUES - 13) // 3
        assert 13 + 3 * at_cap == MAX_MODEL_VALUES
        ModelConfig(**dims, max_seq=at_cap)
        with pytest.raises(ConfigError, match=(
                f"^the weights, KV cache and position table hold {MAX_MODEL_VALUES + 3} "
                f"float32 values, above the cap of {MAX_MODEL_VALUES}$")):
            ModelConfig(**dims, max_seq=at_cap + 1)


class TestProjectKV:
    def test_zero_hidden_gives_zero_kv(self):
        w = init_weights(ModelConfig(seed=1))
        k, v = project_kv(w, 0, np.zeros(64, dtype=np.float32))
        assert not k.any() and not v.any()

    def test_identity_projection_single_head(self):
        cfg = ModelConfig(n_layers=1, n_heads=1, d_model=8, d_head=8, d_ff=8,
                          vocab_size=16, max_seq=8)
        w = init_weights(cfg)
        w.layers[0].wkv[0] = np.eye(8, dtype=np.float32)
        hidden = np.arange(8, dtype=np.float32)
        k, _ = project_kv(w, 0, hidden)
        np.testing.assert_array_equal(k.reshape(-1), hidden)

    def test_matches_naive_matmul(self):
        rng = np.random.default_rng(200)
        w = init_weights(ModelConfig(seed=2))
        for _ in range(20):
            hidden = rng.standard_normal(64).astype(np.float32)
            k, v = project_kv(w, 1, hidden)
            naive_k = np.array([
                sum(float(w.layers[1].wk[i, j]) * float(hidden[j]) for j in range(64))
                for i in range(64)])
            np.testing.assert_allclose(k.reshape(-1), naive_k, atol=1e-5)
            assert k.shape == (4, 16) and v.shape == (4, 16)


class TestAttentionForward:
    def test_requires_nonempty_cache(self):
        cfg = ModelConfig()
        w = init_weights(cfg)
        with pytest.raises(ValueError):
            attention_forward(w, 0, np.zeros(64, dtype=np.float32), KVCache(cfg))

    def test_single_entry_softmax_is_identity(self):
        cfg = ModelConfig(seed=3)
        w = init_weights(cfg)
        cache = KVCache(cfg)
        rng = np.random.default_rng(201)
        k = rng.standard_normal((4, 16)).astype(np.float32)
        v = rng.standard_normal((4, 16)).astype(np.float32)
        cache.append(0, k, v)
        q_hidden = rng.standard_normal(64).astype(np.float32)
        out = attention_forward(w, 0, q_hidden, cache)
        expected = (w.layers[0].wo @ v.reshape(64)).astype(np.float32)
        np.testing.assert_allclose(out, expected, atol=1e-6)

    def test_duplicate_entries_match_single(self):
        cfg = ModelConfig(seed=4)
        w = init_weights(cfg)
        rng = np.random.default_rng(202)
        k = rng.standard_normal((4, 16)).astype(np.float32)
        v = rng.standard_normal((4, 16)).astype(np.float32)
        q_hidden = rng.standard_normal(64).astype(np.float32)
        single = KVCache(cfg)
        single.append(0, k, v)
        double = KVCache(cfg)
        double.append(0, k, v)
        double.append(0, k, v)
        np.testing.assert_allclose(attention_forward(w, 0, q_hidden, single),
                                   attention_forward(w, 0, q_hidden, double), atol=1e-6)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(203)
        for trial in range(200):
            n_layers = int(rng.integers(1, 3))
            n_heads = int(rng.integers(1, 3))
            d_head = int(rng.integers(2, 5))
            cfg = ModelConfig(n_layers=n_layers, n_heads=n_heads, d_head=d_head,
                              d_model=n_heads * d_head, d_ff=8, vocab_size=16,
                              max_seq=8, seed=trial)
            w = init_weights(cfg)
            cache = KVCache(cfg)
            layer = int(rng.integers(0, n_layers))
            for _ in range(int(rng.integers(1, 9))):
                cache.append(layer, rng.standard_normal((n_heads, d_head)).astype(np.float32),
                             rng.standard_normal((n_heads, d_head)).astype(np.float32))
            q_hidden = rng.standard_normal(cfg.d_model).astype(np.float32)
            got = attention_forward(w, layer, q_hidden, cache)
            want = brute_force_attention(w, layer, q_hidden, cache)
            np.testing.assert_allclose(got, want, atol=1e-5)

    def test_weights_rows_sum_to_one(self):
        cfg = ModelConfig(seed=5)
        w = init_weights(cfg)
        cache = KVCache(cfg)
        rng = np.random.default_rng(204)
        for _ in range(5):
            cache.append(0, rng.standard_normal((4, 16)).astype(np.float32),
                         rng.standard_normal((4, 16)).astype(np.float32))
        _, rows = attention_forward(w, 0, rng.standard_normal(64).astype(np.float32),
                                    cache, return_weights=True)
        assert rows.shape == (4, 5)
        np.testing.assert_allclose(rows.sum(axis=1), np.ones(4), atol=1e-5)


class TestKVCache:
    def test_overflow_raises(self):
        cfg = ModelConfig(max_seq=2)
        cache = KVCache(cfg)
        k = np.zeros((4, 16), dtype=np.float32)
        cache.append(0, k, k)
        cache.append(0, k, k)
        with pytest.raises(SequenceLengthError):
            cache.append(0, k, k)

    def test_monotone_growth_on_keep_and_policy_on_skip(self):
        cfg = ModelConfig(n_layers=2, max_seq=64, seed=6)
        rng = np.random.default_rng(204)
        for policy, grows in (("drop", 0), ("keep", 1)):
            prune = PruneConfig(cache_on_skip=policy, tail_fraction=1.0,
                                warmup_steps=0, tau_init=0.5)
            sess = DecodeSession(cfg, prune, mode="filtered")
            lens = []
            hidden = rng.standard_normal(64).astype(np.float32)
            # The first token only sets the anchors: it is kept.
            before = sess.cache.lens[0]
            out = sess.block_forward(0, hidden, step=0)
            assert not out.skipped
            assert sess.cache.lens[0] == before + 1
            lens.append(sess.cache.lens[0])
            # The same token again has similarity 1 > tau: a real skip.
            before = sess.cache.lens[0]
            out = sess.block_forward(0, hidden, step=1)
            assert sess.cache.lens[0] == before + grows
            assert out.skipped
            lens.append(sess.cache.lens[0])
            assert all(b >= a for a, b in zip(lens, lens[1:]))


class TestBlockSemantics:
    def _session(self, **prune_kwargs):
        cfg = ModelConfig(n_layers=8, n_heads=4, d_model=64, d_head=16, d_ff=96,
                          max_seq=128, seed=7)
        defaults = dict(tail_fraction=1.0)
        defaults.update(prune_kwargs)
        return DecodeSession(cfg, PruneConfig(**defaults), mode="filtered")

    def test_skip_residual_identity(self):
        rng = np.random.default_rng(205)
        sess = self._session(warmup_steps=0, tau_init=0.5)
        from tokenskip.model import ffn_forward
        from tokenskip.numerics import layer_norm
        for layer in range(8):
            hidden = rng.standard_normal(64).astype(np.float32)
            sess.block_forward(layer, hidden, step=0)  # sets the anchors
            out = sess.block_forward(layer, hidden, step=1)
            assert out.skipped
            lw = sess.weights.layers[layer]
            expected = hidden + ffn_forward(sess.weights, layer,
                                            layer_norm(hidden, lw.ln2_g, lw.ln2_b))
            assert np.array_equal(out.hidden, expected.astype(np.float32))

    def test_infinite_threshold_matches_dense_generation(self):
        cfg = ModelConfig(n_layers=8, n_heads=4, d_model=64, d_head=16, d_ff=96,
                          max_seq=128, seed=8)
        weights = init_weights(cfg)
        prompt = [3, 1, 4, 1, 5]
        prune = PruneConfig(tau_init=math.inf, tail_fraction=1.0,
                            p_global=0.5, warmup_steps=0)
        dense = DecodeSession(cfg, None, mode="dense", weights=weights)
        filt = DecodeSession(cfg, prune, mode="filtered", weights=weights)
        r_dense = dense.decode(prompt, 64)
        r_filt = filt.decode(prompt, 64)
        assert r_dense.tokens == r_filt.tokens
        assert not any(r.skipped for r in r_filt.reports)
        np.testing.assert_array_equal(dense.cache._k, filt.cache._k)


class TestDecode:
    def _cfg(self, **kw):
        base = dict(n_layers=4, n_heads=4, d_model=64, d_head=16, d_ff=96,
                    max_seq=64, seed=9)
        base.update(kw)
        return ModelConfig(**base)

    def test_empty_prompt_rejected(self):
        sess = DecodeSession(self._cfg(), PruneConfig(), mode="filtered")
        with pytest.raises(ConfigError):
            sess.decode([], 4)

    def test_length_budget_enforced(self):
        sess = DecodeSession(self._cfg(max_seq=8), PruneConfig(), mode="filtered")
        with pytest.raises(SequenceLengthError):
            sess.decode([1, 2, 3], 6)

    def test_zero_steps_echoes_prompt_with_prefill_reports(self):
        sess = DecodeSession(self._cfg(), PruneConfig(tail_fraction=1.0),
                             mode="filtered")
        res = sess.decode([10, 11, 12], 0)
        assert res.tokens == [10, 11, 12]
        assert res.reports  # prefill telemetry only
        assert all(r.shadow and not r.skipped for r in res.reports)
        # first position only initializes anchors: 2 scored positions x 4 layers
        assert len(res.reports) == 8

    def test_p_global_zero_matches_dense_tokens(self):
        cfg = self._cfg()
        weights = init_weights(cfg)
        prune = PruneConfig(p_global=0.0, tail_fraction=1.0,
                            warmup_steps=0, tau_init=0.0)
        dense = DecodeSession(cfg, None, mode="dense", weights=weights)
        filt = DecodeSession(cfg, prune, mode="filtered", weights=weights)
        assert dense.decode([1, 2], 24).tokens == filt.decode([1, 2], 24).tokens

    def test_deterministic_for_fixed_seed(self):
        cfg = self._cfg()
        prune = PruneConfig(warmup_steps=2, tau_init=0.4)

        def run():
            sess = DecodeSession(cfg, prune, mode="filtered")
            res = sess.decode([7, 8, 9], 24)
            return res.tokens, [(r.step, r.layer, r.s_kv, r.skipped, r.tau)
                                for r in res.reports]

        t1, rep1 = run()
        t2, rep2 = run()
        assert t1 == t2
        assert rep1 == rep2  # bit-identical telemetry

    def test_every_decode_step_reports_in_scope_layers(self):
        cfg = self._cfg()
        prune = PruneConfig(tail_fraction=0.5)
        sess = DecodeSession(cfg, prune, mode="filtered")
        res = sess.decode([1, 2, 3], 10)
        decode_positions = range(3, 13)
        seen = {(r.step, r.layer) for r in res.reports}
        for pos in decode_positions:
            for layer in (2, 3):
                assert (pos, layer) in seen

    def test_flops_conservation_within_run(self):
        cfg = self._cfg()
        prune = PruneConfig(warmup_steps=2, tau_init=0.3, tail_fraction=1.0, p_global=0.5)
        sess = DecodeSession(cfg, prune, mode="filtered")
        res = sess.decode([1, 2, 3], 30)
        assert sum(1 for r in res.reports if r.skipped) > 0
        assert res.flops.conserved()

    def test_cross_run_conservation_with_cache_kept(self):
        # with cache_on_skip=keep the cache trajectory matches a dense run, so
        # the dense run's actual compute equals the filtered run's accounting
        cfg = self._cfg()
        weights = init_weights(cfg)
        prune = PruneConfig(warmup_steps=2, tau_init=0.3, tail_fraction=1.0, p_global=0.5,
                            cache_on_skip="keep")
        dense = DecodeSession(cfg, None, mode="dense", weights=weights)
        filt = DecodeSession(cfg, prune, mode="filtered", weights=weights)
        rd = dense.decode([1, 2, 3], 30)
        rf = filt.decode([1, 2, 3], 30)
        assert sum(1 for r in rf.reports if r.skipped) > 0
        assert rd.flops.actual == rf.flops.actual + rf.flops.saved_net + rf.flops.overhead


class TestWeightsSerialization:
    def test_round_trip(self):
        cfg = ModelConfig(n_layers=2, n_heads=2, d_model=16, d_head=8, d_ff=24,
                          vocab_size=32, max_seq=16, seed=12)
        w = init_weights(cfg)
        blob = save_weights(w)
        w2 = load_weights(blob)
        assert w2.config == cfg
        np.testing.assert_array_equal(w.embed, w2.embed)
        for a, b in zip(w.layers, w2.layers):
            for name in ("ln1_g", "ln1_b", "wq", "wk", "wv", "wo", "ln2_g",
                         "ln2_b", "w1", "w2"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            load_weights(b"XXXX" + b"\x00" * 64)


class TestPositions:
    def test_sinusoid_shape_and_range(self):
        enc = sinusoidal_positions(32, 64)
        assert enc.shape == (32, 64)
        assert np.all(np.abs(enc) <= 1.0 + 1e-6)

    def test_sessions_on_one_weights_share_a_read_only_table(self):
        cfg = ModelConfig(n_layers=2, n_heads=2, d_model=16, d_head=8, d_ff=32,
                          max_seq=40, seed=4)
        weights = init_weights(cfg)
        first = DecodeSession(cfg, PruneConfig(), mode="filtered", weights=weights)
        second = DecodeSession(cfg, None, mode="dense", weights=weights)
        assert first.positions is second.positions is weights.positions
        assert weights.positions.tobytes() == sinusoidal_positions(40, 16).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            weights.positions[0, 0] = 1.0
        # A session on its own weights decodes the same tokens.
        own = DecodeSession(cfg, PruneConfig(), mode="filtered")
        assert first.decode([3, 1, 4], 12).tokens == own.decode([3, 1, 4], 12).tokens
