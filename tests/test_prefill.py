"""Chunked prefill: DecodeSession.decode runs the prompt PREFILL_CHUNK positions
at a time, and must leave exactly what running each prompt position through
the blocks alone (run_position, the reference) leaves: tokens, every
report field, the ledger, the cache, the filter's state and the recorded
events, byte for byte. Also the stacked kernels it is built from, pinned
bitwise to their one-vector forms."""

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenskip.model import (
    PREFILL_CHUNK,
    DecodeSession,
    ModelConfig,
    SequenceLengthError,
    _matvecs,
    init_weights,
)
from tokenskip.numerics import layer_norm, layer_norm_rows
from tokenskip.policy import ConfigError, PruneConfig
from tokenskip.trace import TraceRecorder

# Across the pairwise-sum branches of a softmax row (8 and 128 columns) and
# the chunk edges.
PROMPT_LENGTHS = (1, 7, 8, 9, 63, 64, 65, 128, 129, 200)

# (prune, mode, record): both anchor modes, the three fusions, both
# cache_on_skip values, record on and off, and a dense session.
CONFIGS = {
    "dense": (None, "dense", False),
    "ema_kv_drop": (PruneConfig(warmup_steps=2), "filtered", True),
    "exact_mean_key_only_keep": (PruneConfig(warmup_steps=2, anchor_mode="exact_mean",
                                             fusion="key_only", cache_on_skip="keep",
                                             p_global=0.4), "filtered", False),
    "ema_value_only_keep": (PruneConfig(warmup_steps=2, fusion="value_only",
                                        cache_on_skip="keep", tail_fraction=1.0),
                            "filtered", True),
    "exact_mean_kv_drop": (PruneConfig(warmup_steps=0, anchor_mode="exact_mean",
                                       p_global=0.5, tau_init=0.0), "filtered", False),
}


def model(prompt_len: int, seed: int = 0, n_heads: int = 4, n_steps: int = 12) -> ModelConfig:
    return ModelConfig(n_layers=4, n_heads=n_heads, d_model=n_heads * 8, d_head=8, d_ff=48,
                       max_seq=prompt_len + n_steps, seed=seed)


def prompt_of(length: int, seed: int = 0) -> list:
    return np.random.default_rng([seed, length]).integers(0, 256, length).tolist()


def run_position(session, token, position, rank, recorder=None):
    """One position through every block, its filter decisions at the given
    rank among decode steps (negative for a prompt position): the blocks of
    forward_position. Returns (hidden, reports)."""
    hidden = (session.weights.embed[token] + session.positions[position]).astype(np.float32)
    reports = []
    for layer in range(session.config.n_layers):
        out = session.block_forward(layer, hidden, step=position, rank=rank)
        hidden = out.hidden
        if out.report is not None:
            reports.append(out.report)
        if recorder is not None:
            recorder.add_event(seq=0, step=position, layer=layer, k=out.kv[0], v=out.kv[1],
                               attn=out.attn_row)
    return hidden, reports


def reference_decode(session, prompt, n_steps, recorder=None):
    """decode's generation loop, with every position run through
    run_position: the prompt's at rank -1, each generated token's at the
    count of decode steps before it."""
    reports = []
    for pos, tok in enumerate(prompt):
        hidden, rs = run_position(session, tok, pos, -1, recorder)
        reports.extend(rs)
    tokens = list(prompt)
    for s in range(n_steps):
        nxt = int(np.argmax(session.logits(hidden)))
        tokens.append(nxt)
        hidden, rs = run_position(session, nxt, len(prompt) + s, s, recorder)
        reports.extend(rs)
    return tokens, reports


def _bits(value):
    """A field value with floats as their bytes: NaN signs and -0.0 count."""
    return struct.pack("<d", value) if isinstance(value, float) else value


def _array_bits(arr):
    if arr is None:
        return None
    return arr.dtype.str, arr.shape, np.ascontiguousarray(arr).tobytes()


def state(session, tokens, reports, recorder):
    """Everything a decode leaves behind, in comparable bytes."""
    out = {
        "tokens": tokens,
        "reports": [tuple(_bits(getattr(r, f.name)) for f in dataclasses.fields(r))
                    for r in reports],
        "ledger": {name: _bits(value) for name, value in vars(session.ledger).items()},
        "cache_lens": list(session.cache.lens),
        "cache": [tuple(_array_bits(a) for a in session.cache.view(layer))
                  for layer in range(session.config.n_layers)],
        "events": [(e.seq, e.step, e.layer, _array_bits(e.k), _array_bits(e.v),
                    _array_bits(e.attn)) for e in recorder.events],
    }
    engine = session.engine
    if engine is not None:
        out["engine"] = (
            [(layer, {name: ([_bits(v) for v in value] if isinstance(value, list)
                             else _bits(value)) for name, value in vars(st).items()})
             for layer, st in engine.layers.items()],
            [None if engine.anchors(layer) is None
             else tuple(_array_bits(a) for a in engine.anchors(layer))
             for layer in range(session.config.n_layers)],
        )
    return out


def both_ways(config, weights, prune, mode, record, prompt, n_steps):
    """The state after decode, and after the per-position reference, from
    two fresh sessions over the same weights."""
    states = []
    for chunked in (True, False):
        session = DecodeSession(config, prune, mode=mode, weights=weights, record=record)
        recorder = TraceRecorder(config.n_layers, config.n_heads, config.d_head)
        if chunked:
            result = session.decode(prompt, n_steps, recorder=recorder)
            assert result.flops is session.ledger
            tokens, reports = result.tokens, result.reports
        else:
            tokens, reports = reference_decode(session, prompt, n_steps, recorder)
        states.append(state(session, tokens, reports, recorder))
    return states


def assert_same(chunked, reference):
    assert chunked.keys() == reference.keys()
    for key in chunked:
        assert chunked[key] == reference[key], key


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("prompt_len", PROMPT_LENGTHS)
def test_decode_equals_per_position_prefill(prompt_len, config_name):
    prune, mode, record = CONFIGS[config_name]
    config = model(prompt_len, seed=prompt_len)
    chunked, reference = both_ways(config, init_weights(config), prune, mode, record,
                                   prompt_of(prompt_len), 12)
    assert_same(chunked, reference)
    if prune is not None and prompt_len > 1:
        # The last prompt position was decided at the last layer.
        assert any(r[:3] == (0, prompt_len - 1, 3) for r in chunked["reports"])


@given(prompt_len=st.integers(1, 2 * PREFILL_CHUNK + 10), n_steps=st.integers(0, 8),
       n_heads=st.integers(1, 9), seed=st.integers(0, 2**31 - 1),
       config_name=st.sampled_from(sorted(CONFIGS)), record=st.booleans())
@settings(max_examples=25, deadline=None)
def test_decode_equals_per_position_prefill_on_random_models(prompt_len, n_steps, n_heads, seed,
                                                              config_name, record):
    prune, mode, _ = CONFIGS[config_name]
    config = model(prompt_len, seed=seed, n_heads=n_heads, n_steps=n_steps)
    chunked, reference = both_ways(config, init_weights(config), prune, mode, record,
                                   prompt_of(prompt_len, seed), n_steps)
    assert_same(chunked, reference)


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_a_session_decodes_once(config_name):
    """A second decode would restart positions at 0 over the first one's
    caches and anchors: it raises, as does a second prefill, and neither
    changes the caches, the ledger, the filter or the recording."""
    prune, mode, record = CONFIGS[config_name]
    config = model(300, n_steps=0)
    session = DecodeSession(config, prune, mode=mode, record=record)
    recorder = TraceRecorder(config.n_layers, config.n_heads, config.d_head)
    session.decode(prompt_of(70), 40, recorder=recorder)
    before = state(session, [], [], recorder)
    with pytest.raises(ConfigError, match="decodes once"):
        session.decode(prompt_of(3), 4, recorder=recorder)
    with pytest.raises(ConfigError, match="decodes once"):
        session.prefill(prompt_of(3), recorder=recorder)
    assert state(session, [], [], recorder) == before


@pytest.mark.parametrize("bad_pos", [0, 5, 30, 63, 64, 70, 99])
@pytest.mark.parametrize("config_name", ["dense", "ema_kv_drop", "exact_mean_key_only_keep"])
def test_non_finite_embedding_mid_prompt(bad_pos, config_name):
    """A non-finite value row makes the rows after it NaN; the rows before it
    in the same chunk must keep the bits they have per position (no
    0 x inf in their context sums)."""
    prune, mode, record = CONFIGS[config_name]
    prompt = prompt_of(100)
    config = model(len(prompt))
    weights = init_weights(config)
    weights.embed[prompt[bad_pos], 3] = np.inf
    with np.errstate(all="ignore"):
        chunked, reference = both_ways(config, weights, prune, mode, record, prompt, 6)
    assert_same(chunked, reference)


@pytest.mark.parametrize("bad", [256, 10_000, -1, -256])
@pytest.mark.parametrize("where", [0, 40, 99])
def test_out_of_vocabulary_prompt_changes_nothing(bad, where):
    prompt = prompt_of(100)
    prompt[where] = bad
    config = model(len(prompt))
    session = DecodeSession(config, PruneConfig(), mode="filtered")
    recorder = TraceRecorder(config.n_layers, config.n_heads, config.d_head)
    before = state(session, [], [], recorder)
    with pytest.raises(ConfigError, match=f"token {bad} outside vocabulary"):
        session.decode(prompt, 4, recorder=recorder)
    with pytest.raises(ConfigError, match=f"token {bad} outside vocabulary"):
        session.prefill(prompt, recorder=recorder)
    assert state(session, [], [], recorder) == before
    assert session.prompt_len == 0


@pytest.mark.parametrize("tokens", [[1.0, 2.0], [True, False], [[1, 2]], ["a"]])
def test_non_integer_prompt_tokens_are_rejected(tokens):
    session = DecodeSession(model(4), mode="dense")
    with pytest.raises(ConfigError, match="integers"):
        session.prefill(tokens)
    assert session.cache.lens == [0] * 4


def test_prefill_checks_the_cache_before_any_append():
    config = model(8, n_steps=0)
    session = DecodeSession(config, PruneConfig(), mode="filtered")
    with pytest.raises(SequenceLengthError, match="does not fit"):
        session.prefill(prompt_of(9))
    assert session.cache.lens == [0] * 4
    session.prefill(prompt_of(8))
    assert session.cache.lens == [8] * 4


# -- the stacked kernels -------------------------------------------------------

floats = st.floats(-1e6, 1e6, allow_nan=False, width=32)


@given(rows=st.integers(1, 12), width=st.integers(1, 300), seed=st.integers(0, 2**31 - 1),
       scale=st.sampled_from([1e-3, 1.0, 1e3]), offset=floats)
@settings(max_examples=200, deadline=None)
def test_layer_norm_rows_equals_layer_norm_per_row(rows, width, seed, scale, offset):
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal((rows, width)) * scale + offset).astype(np.float32)
    gain = rng.standard_normal(width).astype(np.float32)
    bias = rng.standard_normal(width).astype(np.float32)
    got = layer_norm_rows(x, gain, bias)
    assert got.dtype == np.float32 and got.shape == x.shape
    for row, want in zip(got, x):
        assert row.tobytes() == layer_norm(want, gain, bias).tobytes()


@given(rows=st.integers(1, 70), n_out=st.integers(1, 160), n_in=st.integers(1, 160),
       seed=st.integers(0, 2**31 - 1))
@settings(max_examples=150, deadline=None)
def test_stacked_matvec_equals_matvec_per_row(rows, n_out, n_in, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n_out, n_in)).astype(np.float32)
    x = rng.standard_normal((rows, n_in)).astype(np.float32)
    got = _matvecs(w, x)
    assert got.dtype == np.float32 and got.shape == (rows, n_out)
    for row, want in zip(got, x):
        assert row.tobytes() == (w @ want).tobytes()
