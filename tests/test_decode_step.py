"""The live decode step, pinned to reference arithmetic written out here: the
separate wk @ x and wv @ x products, the attention scale built per call, one
product per head over the cache's chunk-aligned width, the float32 casts
after every sum and product, a layer norm over NumPy scalars, and the cache
written into its 4-D arrays. DecodeSession.decode must leave
exactly what this reference leaves (tokens, every report field, the ledger,
the cache and the recorded events, byte for byte), so a change to a kernel
that prefill and the per-position path share cannot drift unseen. Also the
padded attention columns against zeros, stale K/V and a float64 softmax, the
compact recorded rows, the stacked K/V weights, the cache's shape checks and
the n_steps check."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenskip.cli import main
from tokenskip.model import (
    PREFILL_CHUNK,
    DecodeSession,
    KVCache,
    ModelConfig,
    attention_forward,
    init_weights,
    load_weights,
    project_kv,
    save_weights,
)
from tokenskip.numerics import softmax
from tokenskip.policy import ConfigError, PruneConfig
from tokenskip.trace import TraceRecorder

# Everything a decode leaves behind, in comparable bytes: tokens, every report
# field, the ledger, the caches, the filter's state and the recorded events.
from test_prefill import state

# (prune, mode, record). The filtered ones skip from their third generated
# token on (tail_fraction 1, a low tau_init, a short warm-up).
CONFIGS = {
    "dense": (None, "dense", False),
    "ema_drop_record": (PruneConfig(warmup_steps=2, tail_fraction=1.0, p_global=0.5,
                                    tau_init=0.0), "filtered", True),
    "ema_keep": (PruneConfig(warmup_steps=2, tail_fraction=1.0, p_global=0.5, tau_init=0.0,
                             cache_on_skip="keep"), "filtered", False),
    "exact_mean_keep_record": (PruneConfig(warmup_steps=2, tail_fraction=1.0, p_global=0.5,
                                           tau_init=0.0, anchor_mode="exact_mean",
                                           cache_on_skip="keep"), "filtered", True),
    "exact_mean_drop": (PruneConfig(warmup_steps=2, tail_fraction=1.0, p_global=0.5,
                                    tau_init=0.0, anchor_mode="exact_mean"), "filtered", False),
}

# (n_heads, d_head): one head of 8, eight heads of 4, and the bench's 4 x 16.
SHAPES = ((1, 8), (8, 4), (4, 16))

PROMPT_LEN, N_STEPS = 9, 20


def model(n_heads: int, d_head: int, seed: int = 0) -> ModelConfig:
    return ModelConfig(n_layers=4, n_heads=n_heads, d_head=d_head, d_model=n_heads * d_head,
                       d_ff=40, max_seq=PROMPT_LEN + N_STEPS, seed=seed)


# -- the reference step ----------------------------------------------------------


def ref_layer_norm(x, gain, bias, eps=1e-5):
    x64 = np.asarray(x, dtype=np.float64)
    centred = x64 - np.add.reduce(x64, axis=None) / x64.size
    var = np.add.reduce(centred * centred, axis=None) / x64.size
    return (centred / np.sqrt(var + eps) * gain + bias).astype(np.float32)


def ref_append(cache, layer, k, v):
    n = cache.lens[layer]
    cache._k[layer, :, n, :] = k
    cache._v[layer, :, n, :] = v
    cache.lens[layer] = n + 1


def ref_width(c, m):
    """The columns a query at cache length m reads: m rounded up to a whole
    number of prefill chunks, at most max_seq."""
    chunks = (m + PREFILL_CHUNK - 1) // PREFILL_CHUNK
    return min(chunks * PREFILL_CHUNK, c.max_seq)


def ref_probs(c, lw, ln1, keys, m):
    """The attention row of ln1's query over keys, an (n_heads, width,
    d_head) array whose first m columns are the query's own: per head one
    keys @ q product, the columns past m at -inf, one softmax over the
    width."""
    q = (lw.wq @ ln1).reshape(c.n_heads, c.d_head)
    scores = np.stack([keys[h] @ q[h] for h in range(c.n_heads)])
    scores = scores / np.float32(np.sqrt(c.d_head))
    scores[:, m:] = -np.inf
    return softmax(scores)


def ref_block(session, layer, hidden, step, rank):
    """One block as the reference computes it, on the session's own cache,
    filter engine and ledger, its decision at the given rank among decode
    steps. Returns (hidden, report, k, v, attention row)."""
    c, cache, engine = session.config, session.cache, session.engine
    lw = session.weights.layers[layer]
    x = hidden
    ln1 = ref_layer_norm(x, lw.ln1_g, lw.ln1_b)
    k = (lw.wk @ ln1).reshape(c.n_heads, c.d_head)
    v = (lw.wv @ ln1).reshape(c.n_heads, c.d_head)
    skip, report = False, None
    if engine is not None and layer in engine.layers:
        skip, report = engine.process(layer, 0, np.array((k, v), dtype=np.float32), step,
                                      rank)
    cache_len_if_kept = cache.lens[layer] + 1
    row = None
    if skip:
        if session.record:
            # The cache as it would hold the skip: its own K/V after the
            # past ones, zeros after that.
            m = cache.lens[layer] + 1
            keys = np.zeros((c.n_heads, ref_width(c, m), c.d_head), dtype=np.float32)
            keys[:, :m - 1] = cache._k[layer, :, :m - 1]
            keys[:, m - 1] = k
            row = np.array(ref_probs(c, lw, ln1, keys, m)[:, :m])
        if session.prune.cache_on_skip == "keep":
            ref_append(cache, layer, k, v)
    else:
        ref_append(cache, layer, k, v)
        m = cache.lens[layer]
        w = ref_width(c, m)
        probs = ref_probs(c, lw, ln1, cache._k[layer, :, :w], m)
        ctx = np.stack([probs[h] @ cache._v[layer, h, :w] for h in range(c.n_heads)])
        ctx = ctx.reshape(c.d_model).astype(np.float32)
        x = (x + (lw.wo @ ctx).astype(np.float32)).astype(np.float32)
        row = np.array(probs[:, :m]) if session.record else None
    session.ledger.charge_event(cache_len_if_kept, session.flops_model, skip, report,
                                session.keep_on_skip)
    ln2 = ref_layer_norm(x, lw.ln2_g, lw.ln2_b)
    h = np.maximum(lw.w1 @ ln2, np.float32(0.0))
    x = (x + (lw.w2 @ h).astype(np.float32)).astype(np.float32)
    return x, report, k, v, row


def ref_position(session, token, position, recorder, rank):
    """Every block for one position, its decisions at the given rank among
    decode steps (negative for a prompt position)."""
    w = session.weights
    hidden = (w.embed[token] + session.positions[position]).astype(np.float32)
    reports = []
    for layer in range(session.config.n_layers):
        hidden, report, k, v, row = ref_block(session, layer, hidden, position, rank)
        if report is not None:
            reports.append(report)
        recorder.add_event(seq=0, step=position, layer=layer, k=k, v=v, attn=row)
    return hidden, reports


def ref_decode(session, prompt, n_steps, recorder):
    """Greedy decode, every position through the reference blocks: the
    prompt's at rank -1, each generated token's at the count of decode steps
    before it."""
    reports = []
    for pos, tok in enumerate(prompt):
        hidden, rs = ref_position(session, tok, pos, recorder, rank=-1)
        reports.extend(rs)
    tokens = list(prompt)
    w = session.weights
    for s in range(n_steps):
        logits = w.embed @ ref_layer_norm(hidden, w.lnf_g, w.lnf_b)
        nxt = int(np.argmax(logits))
        tokens.append(nxt)
        hidden, rs = ref_position(session, nxt, len(prompt) + s, recorder, rank=s)
        reports.extend(rs)
    return tokens, reports


# -- comparison ------------------------------------------------------------------


def both_ways(config, weights, prune, mode, record, prompt, n_steps):
    states = []
    for reference in (False, True):
        session = DecodeSession(config, prune, mode=mode, weights=weights, record=record)
        recorder = TraceRecorder(config.n_layers, config.n_heads, config.d_head)
        if reference:
            tokens, reports = ref_decode(session, prompt, n_steps, recorder)
        else:
            result = session.decode(prompt, n_steps, recorder=recorder)
            tokens, reports = result.tokens, result.reports
        states.append(dict(state(session, tokens, reports, recorder),
                           skipped=sum(r.skipped for r in reports)))
    return states


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_decode_equals_reference_step(config_name, shape):
    prune, mode, record = CONFIGS[config_name]
    config = model(*shape, seed=len(config_name))
    weights = init_weights(config)
    prompt = np.random.default_rng(shape).integers(0, 256, PROMPT_LEN).tolist()
    got, want = both_ways(config, weights, prune, mode, record, prompt, N_STEPS)
    assert got.keys() == want.keys()
    for key in got:
        assert got[key] == want[key], key
    if mode == "filtered":
        assert got["skipped"] > 0  # the skip branch ran


@pytest.mark.parametrize("config_name", ["dense", "ema_drop_record", "exact_mean_keep_record"])
def test_decode_reads_the_norms_of_its_weights_as_the_session_starts(config_name):
    """A session casts every norm's gain and bias to float64 once, when it
    is built. Each norm gets gains and biases of its own, set after
    init_weights: a cast made with the weights, or of another norm's array,
    gives other tokens and reports than the reference, which reads the
    float32 weights at every step."""
    prune, mode, record = CONFIGS[config_name]
    config = model(4, 16, seed=11)
    weights = init_weights(config)
    rng = np.random.default_rng(2024)
    norms = [(lw.ln1_g, lw.ln1_b) for lw in weights.layers]
    norms += [(lw.ln2_g, lw.ln2_b) for lw in weights.layers] + [(weights.lnf_g, weights.lnf_b)]
    for gain, bias in norms:
        gain[...] = rng.uniform(0.25, 4.0, gain.shape)
        bias[...] = rng.uniform(-2.0, 2.0, bias.shape)
    prompt = rng.integers(0, 256, PROMPT_LEN).tolist()
    got, want = both_ways(config, weights, prune, mode, record, prompt, N_STEPS)
    for key in got:
        assert got[key] == want[key], key
    if mode == "filtered":
        assert got["skipped"] > 0


# -- the padded attention columns ------------------------------------------------

# (cache length, max_seq): either side of the chunk edges, and a max_seq that
# is not a multiple of PREFILL_CHUNK.
PADDED_LENGTHS = ((63, 192), (64, 192), (65, 192), (128, 192), (129, 192), (70, 100),
                  (99, 100))


@pytest.mark.parametrize("m, max_seq", PADDED_LENGTHS)
def test_padded_columns_change_no_bit_and_softmax_is_the_own_columns(m, max_seq):
    config = ModelConfig(n_layers=1, n_heads=4, d_head=8, d_model=32, d_ff=8,
                         max_seq=max_seq, seed=m)
    weights = init_weights(config)
    rng = np.random.default_rng([m, max_seq])
    hidden = rng.standard_normal(config.d_model).astype(np.float32)
    kv = rng.standard_normal((2, max_seq, 4, 8)).astype(np.float32)
    cache = KVCache(config)
    cache.append_rows(0, kv[0, :m], kv[1, :m])
    out, row = attention_forward(weights, 0, hidden, cache, return_weights=True)
    # A dropped skip leaves its K/V past the length: append, then shorten.
    cache.append_rows(0, kv[0, m:], kv[1, m:])
    cache.lens[0] = m
    assert cache._k[0, :, m:].any()
    stale_out, stale_row = attention_forward(weights, 0, hidden, cache, return_weights=True)
    assert stale_out.tobytes() == out.tobytes() and stale_row.tobytes() == row.tobytes()

    lw = weights.layers[0]
    q = (lw.wq.astype(np.float64) @ hidden).reshape(4, 8)
    k, v = (np.swapaxes(a[:m], 0, 1).astype(np.float64) for a in kv)
    scores = np.einsum("hld,hd->hl", k, q) / np.sqrt(8.0)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    want = lw.wo.astype(np.float64) @ np.einsum("hl,hld->hd", probs, v).reshape(-1)
    assert row.shape == (4, m)
    assert np.abs(row - probs).max() < 1e-6
    assert np.abs(out - want).max() < 1e-6


def test_recorded_rows_are_compact_owned_arrays():
    """A recorded row holds its own (n_heads, columns) float32 data, so the
    recorder keeps no padded probability array alive."""
    prune = PruneConfig(warmup_steps=2, tail_fraction=1.0, p_global=0.5, tau_init=0.0,
                        cache_on_skip="keep")
    config = ModelConfig(n_layers=2, n_heads=4, d_head=8, d_model=32, d_ff=8, max_seq=100)
    session = DecodeSession(config, prune, mode="filtered", record=True)
    recorder = TraceRecorder(config.n_layers, config.n_heads, config.d_head)
    result = session.decode(list(range(70)), 30, recorder=recorder)
    assert any(r.skipped for r in result.reports)  # the skip's row too
    assert len(recorder.events) == 200
    for e in recorder.events:
        assert e.attn.shape == (4, e.step + 1) and e.attn.dtype == np.float32
        assert e.attn.flags.c_contiguous and e.attn.flags.owndata


# -- stacked K/V weights ---------------------------------------------------------


def _u32(arr):
    return np.ascontiguousarray(arr, dtype=np.float32).view(np.uint32)


@settings(max_examples=60, deadline=None)
@given(n_heads=st.integers(1, 8), d_head=st.integers(1, 17), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_project_kv_is_wk_and_wv_bit_for_bit(n_heads, d_head, seed, scale):
    config = ModelConfig(n_layers=1, n_heads=n_heads, d_head=d_head, d_model=n_heads * d_head,
                         d_ff=4, vocab_size=4, max_seq=2, seed=seed % 1000)
    weights = init_weights(config)
    lw = weights.layers[0]
    hidden = (np.random.default_rng(seed).standard_normal(config.d_model) * scale).astype(
        np.float32)
    kv = project_kv(weights, 0, hidden)
    assert kv.shape == (2, n_heads, d_head) and kv.dtype == np.float32
    # Separate copies: the products of plain (d_model, d_model) matrices.
    assert np.array_equal(_u32(kv[0].reshape(-1)), _u32(lw.wk.copy() @ hidden))
    assert np.array_equal(_u32(kv[1].reshape(-1)), _u32(lw.wv.copy() @ hidden))


def test_wk_and_wv_are_views_of_one_stacked_array():
    weights = init_weights(model(4, 16))
    for lw in weights.layers:
        assert lw.wkv.shape == (2, 64, 64)
        assert np.shares_memory(lw.wk, lw.wkv) and np.shares_memory(lw.wv, lw.wkv)
        # Read-only: a write goes through wkv, so no stale copy can exist.
        for name in ("wk", "wv"):
            with pytest.raises(AttributeError):
                setattr(lw, name, getattr(lw, name).copy())
    # The serialized layout is unchanged: wq, wk, wv, wo, ... in that order.
    again = load_weights(save_weights(weights))
    for a, b in zip(weights.layers, again.layers):
        assert a.wk.tobytes() == b.wk.tobytes() and a.wv.tobytes() == b.wv.tobytes()


# -- boundary checks -------------------------------------------------------------


def test_negative_n_steps_is_rejected_before_any_state_changes():
    config = model(2, 4)
    session = DecodeSession(config, PruneConfig(tail_fraction=1.0), mode="filtered")
    recorder = TraceRecorder(config.n_layers, config.n_heads, config.d_head)
    with pytest.raises(ConfigError, match="n_steps"):
        session.decode([1, 2, 3], -3, recorder=recorder)
    assert session.cache.lens == [0] * config.n_layers
    assert not recorder.events
    assert session.ledger.conserved() and session.ledger.dense_equiv == 0
    # The session is untouched, so it can still decode.
    assert len(session.decode([1, 2, 3], 2).tokens) == 5


def test_generate_with_negative_steps_exits_2(capsys):
    assert main(["generate", "--steps", "-3", "--prompt-bytes", "abc"]) == 2
    captured = capsys.readouterr()
    assert "n_steps" in captured.err and "generated" not in captured.out


@pytest.mark.parametrize("k_shape, v_shape", [((4,), (2, 4)), ((2, 4), (4,)), ((1, 4), (1, 4)),
                                              ((2, 4, 1), (2, 4, 1)), ((2, 8), (2, 8))])
def test_append_rejects_kv_that_is_not_one_row_per_head(k_shape, v_shape):
    cache = KVCache(model(2, 4))
    with pytest.raises(ValueError, match="shape"):
        cache.append(0, np.ones(k_shape, np.float32), np.ones(v_shape, np.float32))
    assert cache.lens[0] == 0 and not cache._k.any() and not cache._v.any()


@pytest.mark.parametrize("k_shape, v_shape", [((3, 4), (3, 4)), ((3, 2, 8), (3, 2, 8)),
                                              ((3, 1, 4), (3, 1, 4)), ((3, 2, 4), (2, 2, 4)),
                                              ((2, 4), (3, 2, 4)), ((3, 2, 4, 1), (3, 2, 4, 1))])
def test_append_rows_rejects_kv_that_is_not_rows_by_heads(k_shape, v_shape):
    cache = KVCache(model(2, 4))
    with pytest.raises(ValueError, match="shape"):
        cache.append_rows(0, np.ones(k_shape, np.float32), np.ones(v_shape, np.float32))
    assert cache.lens[0] == 0 and not cache._k.any() and not cache._v.any()
    cache.append_rows(0, np.ones((3, 2, 4), np.float32), np.ones((3, 2, 4), np.float32))
    assert cache.lens[0] == 3
