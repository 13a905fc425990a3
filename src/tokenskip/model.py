"""Toy multi-head decoder hosting the skip filter.

Pre-norm blocks (attention sublayer, FFN sublayer, residual adds) over a
byte-level vocabulary with sinusoidal positions and greedy decoding. The
filter sits between the K/V projection and the attention computation; on a
skip, the attention contribution is exactly zero and the residual passes the
input through unchanged, while the FFN still executes.

A generated token runs one position at a time (forward_position, then
block_forward per layer), at decode rank position - prompt_len, and each
filtered layer decides it as a run of one step (FilterEngine.process). The
prompt runs in chunks of PREFILL_CHUNK positions (DecodeSession.prefill): a
prompt position's rank is negative, so it never skips, and none waits on a
sampled token, so each layer runs once over all of a chunk's rows; the filter
then scores the chunk with FilterEngine.score_steps and makes one decide call
per filtered layer over the chunk's run of positions. Both charge each event
by FlopsLedger.charge_event, the one keep/skip rule, which returns the cache
length after it. Every stacked kernel gives the bits of its one-position
form: layer_norm_rows reduces each row as layer_norm does; _matvecs makes one
BLAS gemv per row, as W @ x does (x @ W.T would be one gemm, with other bits).

Attention reads the cache at a chunk-aligned width (KVCache.padded_view): a
query at cache length m reads min(ceil(m / PREFILL_CHUNK) * PREFILL_CHUNK,
max_seq) columns, sets the scores of those past m to -inf, and takes one
softmax over the whole width. Per head, the scores are one BLAS gemv of the
keys by the query and the context one gemv of the probabilities by the
values. A chunk starts at a multiple of PREFILL_CHUNK, so all its rows have
the width of the decode step at its last position: the stacked products make
one gemv of that same shape per (row, head), the softmax reduces each row as
a one-row call does, and a chunk equals its positions run one at a time, bit
for bit. The columns past m hold zeros, a later row of the chunk or a dropped
skip's K/V, which is always finite (a non-finite token is never skipped), so
their zero weights add exact zeros to the context. Only a chunk with a
non-finite value row, where 0 x inf would be NaN in the rows before it, runs
its context per row over a copy of the values with that row's future columns
zeroed, as the cache holds them when the row runs alone.

The KV cache (KVCache) is one (n_layers, 2, n_heads, max_seq, d_head) array,
keys over values: decode appends project_kv's (2, n_heads, d_head) block as
it is, and prefill a chunk's (rows, 2, n_heads, d_head) blocks in one
assignment. Each layer's key and value halves keep the (n_heads, max_seq,
d_head) C-order rows that attention's per-head gemv reads.

A generated token's step makes few NumPy calls and no float32-to-float32
copies. Its layer norms (two per layer and the final one) take float64
gains and biases, which each DecodeSession casts from the float32 weights
once, exactly, as it starts: layer_norm's in-place float64 steps then run
without a cast per call, with the bits the float32 arrays give. Each
layer's key and value projections are one (2, d_model, d_model) array,
LayerWeights.wkv, so project_kv makes both in one batched product: one BLAS
gemv per half, the bits of wk @ x and of wv @ x. (A single
(2 d_model, d_model) gemv is cheaper but blocks its rows differently: with
OpenBLAS 0.3.31's SkylakeX and Haswell kernels it changes bits for some
d_model that is not a multiple of 4.) Prefill uses the same stacked array.
The attention scale, sqrt(d_head) in float32, is computed once per Weights
(attn_scale), and the scores divide by it in place; so is the read-only
position table (positions), which every session on those weights shares.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from .filtering import FilterEngine
from .metrics import FlopsLedger, FlopsModel
from .numerics import layer_norm, layer_norm_rows, softmax, substream
from .policy import ConfigError, PruneConfig

WEIGHTS_MAGIC = b"TKSK"
WEIGHTS_VERSION = 1

# Prompt positions run through the layers per prefill chunk: one stacked
# kernel per layer for the whole chunk, whose float32 score and probability
# arrays stay small (256 KB each at 4 heads over 256 cached positions).
PREFILL_CHUNK = 64
# The cap on the float32 values of a model's weights, KV cache and position
# table: a config past it is refused before anything is allocated.
MAX_MODEL_VALUES = 2**28


class SequenceLengthError(RuntimeError):
    """The KV cache is full; the generation exceeded max_seq."""


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int = 4
    n_heads: int = 4
    d_model: int = 64
    d_head: int = 16
    d_ff: int = 128
    vocab_size: int = 256
    max_seq: int = 256
    seed: int = 0

    def __post_init__(self):
        for name in ("n_layers", "n_heads", "d_model", "d_head", "d_ff", "vocab_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.max_seq < 1:
            raise ConfigError("max_seq must be >= 1")
        if self.d_model != self.n_heads * self.d_head:
            raise ConfigError("d_model must equal n_heads * d_head")
        # The embedding, the final norm, each layer's weights, the KV cache
        # (keys over values per layer) and the position table.
        layer = sum(math.prod(shape) for shape in _layer_shapes(self).values())
        values = (self.d_model * (self.vocab_size + 2 + (2 * self.n_layers + 1) * self.max_seq)
                  + self.n_layers * layer)
        if values > MAX_MODEL_VALUES:
            raise ConfigError(f"the weights, KV cache and position table hold {values} float32 "
                              f"values, above the cap of {MAX_MODEL_VALUES}")


def _layer_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Each LayerWeights field's shape, in blob order: the one statement of a
    layer's layout, which init_weights, the weights blob and ModelConfig's
    cap read. A 1-D field is a norm's gain (_g) or bias (_b); a matrix is
    drawn with its last axis as fan-in."""
    d, f = config.d_model, config.d_ff
    return {"ln1_g": (d,), "ln1_b": (d,), "wq": (d, d), "wkv": (2, d, d), "wo": (d, d),
            "ln2_g": (d,), "ln2_b": (d,), "w1": (f, d), "w2": (d, f)}


@dataclass
class LayerWeights:
    """One block's weights. The key and value projections are one
    (2, d_model, d_model) array, keys over values: wk and wv are its two
    halves, read-only attributes that return views of it, so no separate
    copy can go stale."""

    ln1_g: np.ndarray
    ln1_b: np.ndarray
    wq: np.ndarray
    wkv: np.ndarray
    wo: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray
    w1: np.ndarray
    w2: np.ndarray

    @property
    def wk(self) -> np.ndarray:
        return self.wkv[0]

    @property
    def wv(self) -> np.ndarray:
        return self.wkv[1]


@dataclass
class Weights:
    config: ModelConfig
    embed: np.ndarray
    layers: list[LayerWeights]
    lnf_g: np.ndarray
    lnf_b: np.ndarray
    # Computed once and shared by every session on these weights: the
    # attention scores' divisor, sqrt(d_head) in float32, and the read-only
    # (max_seq, d_model) sinusoidal position table.
    attn_scale: np.float32 = field(init=False, repr=False, compare=False)
    positions: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.attn_scale = np.float32(np.sqrt(self.config.d_head))
        self.positions = sinusoidal_positions(self.config.max_seq, self.config.d_model)
        self.positions.flags.writeable = False


def _gaussian(rng, shape, fan_in) -> np.ndarray:
    return (rng.standard_normal(shape) / np.sqrt(fan_in)).astype(np.float32)


def init_weights(config: ModelConfig) -> Weights:
    """Seeded random init, entries ~ N(0, 1/fan_in), norms at gain 1 and bias
    0. No training in scope. Each layer's matrices are drawn in _layer_shapes
    order (wq, wkv, wo, w1, w2), then the embedding; one (2, d, d) wkv draw
    is the wk draw then the wv draw, bit for bit."""
    rng = substream(config.seed, "weights")
    d = config.d_model
    layers = []
    for _ in range(config.n_layers):
        arrays = {}
        for name, shape in _layer_shapes(config).items():
            arrays[name] = (_gaussian(rng, shape, shape[-1]) if len(shape) > 1
                            else np.full(shape, 1.0 if name.endswith("_g") else 0.0,
                                         dtype=np.float32))
        layers.append(LayerWeights(**arrays))
    return Weights(
        config=config,
        embed=_gaussian(rng, (config.vocab_size, d), d),
        layers=layers,
        lnf_g=np.ones(d, dtype=np.float32),
        lnf_b=np.zeros(d, dtype=np.float32),
    )


def sinusoidal_positions(max_seq: int, d_model: int) -> np.ndarray:
    pos = np.arange(max_seq, dtype=np.float64)[:, None]
    i = np.arange(d_model, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (2.0 * (i // 2)) / d_model)
    enc = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return enc.astype(np.float32)


# -- weight serialization -------------------------------------------------------

_HEADER = struct.Struct("<4sI7Iq")


def _weight_arrays(w: Weights):
    yield w.embed
    for lw in w.layers:
        for name in _layer_shapes(w.config):
            yield getattr(lw, name)  # wkv's bytes are wk's, then wv's
    yield w.lnf_g
    yield w.lnf_b


def save_weights(w: Weights) -> bytes:
    c = w.config
    blob = [_HEADER.pack(WEIGHTS_MAGIC, WEIGHTS_VERSION, c.n_layers, c.n_heads, c.d_model,
                         c.d_head, c.d_ff, c.vocab_size, c.max_seq, c.seed)]
    for arr in _weight_arrays(w):
        blob.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    return b"".join(blob)


def load_weights(blob: bytes) -> Weights:
    if len(blob) < _HEADER.size:
        raise ValueError(f"truncated weights blob: {len(blob)} bytes, "
                         f"shorter than the {_HEADER.size}-byte header")
    magic, version, n_layers, n_heads, d_model, d_head, d_ff, vocab, max_seq, seed = \
        _HEADER.unpack_from(blob, 0)
    if magic != WEIGHTS_MAGIC:
        raise ValueError("not a weights blob: bad magic")
    if version != WEIGHTS_VERSION:
        raise ValueError(f"unsupported weights version {version}")
    config = ModelConfig(n_layers=n_layers, n_heads=n_heads, d_model=d_model, d_head=d_head,
                         d_ff=d_ff, vocab_size=vocab, max_seq=max_seq, seed=seed)
    offset = _HEADER.size

    def take(name, shape):
        nonlocal offset
        n = int(np.prod(shape))
        if offset + 4 * n > len(blob):
            raise ValueError(f"truncated weights blob: {len(blob)} bytes, "
                             f"an array needs bytes {offset} to {offset + 4 * n}")
        arr = np.frombuffer(blob, dtype="<f4", count=n, offset=offset).reshape(shape).copy()
        if not np.isfinite(arr).all():
            raise ValueError(f"weights blob: {name} holds a non-finite value")
        offset += 4 * n
        return arr

    embed = take("embed", (vocab, d_model))
    layers = [LayerWeights(**{name: take(f"layer {i} {name}", shape)
                              for name, shape in _layer_shapes(config).items()})
              for i in range(n_layers)]
    lnf_g = take("lnf_g", (d_model,))
    lnf_b = take("lnf_b", (d_model,))
    if offset != len(blob):
        raise ValueError("trailing bytes in weights blob")
    return Weights(config=config, embed=embed, layers=layers, lnf_g=lnf_g, lnf_b=lnf_b)


# -- KV cache --------------------------------------------------------------------


class KVCache:
    """Append-only per-layer, per-head store of key/value vectors: one
    float32 (n_layers, 2, n_heads, max_seq, d_head) array, keys over values,
    a (2, n_heads, d_head) block per position (see the module docstring)."""

    def __init__(self, config: ModelConfig):
        self._kv = np.zeros((config.n_layers, 2, config.n_heads, config.max_seq, config.d_head),
                            dtype=np.float32)
        self._block_shape = (2, config.n_heads, config.d_head)
        self.lens = [0] * config.n_layers
        self.max_seq = config.max_seq

    def append(self, layer: int, kv: np.ndarray) -> None:
        """Append one position's (2, n_heads, d_head) K/V block; any other
        shape (which would broadcast) raises ValueError."""
        if kv.shape != self._block_shape:
            raise ValueError(f"expected K/V of shape {self._block_shape}, got {kv.shape}")
        n = self.lens[layer]
        if n >= self.max_seq:
            raise SequenceLengthError(f"layer {layer} cache is full at {self.max_seq}")
        self._kv[layer, :, :, n] = kv
        self.lens[layer] = n + 1

    def append_rows(self, layer: int, kv_rows: np.ndarray) -> None:
        """Append (rows, 2, n_heads, d_head) K/V blocks, as one append call
        per row would; any other shape raises ValueError."""
        if kv_rows.shape[1:] != self._block_shape:
            raise ValueError(f"expected K/V of shape (rows,) + {self._block_shape}, "
                             f"got {kv_rows.shape}")
        n = self.lens[layer]
        end = n + len(kv_rows)
        if end > self.max_seq:
            raise SequenceLengthError(f"layer {layer} cache would hold {end} positions, "
                                      f"more than {self.max_seq}")
        self._kv[layer, :, :, n:end] = kv_rows.transpose(1, 2, 0, 3)
        self.lens[layer] = end

    def padded_view(self, layer: int):
        """The layer's keys and values over the columns a query at its length
        m reads: m rounded up to a multiple of PREFILL_CHUNK, at most
        max_seq. The columns past m hold zeros, later rows of a prefill
        chunk or a dropped skip's stale K/V."""
        w = min(-(-self.lens[layer] // PREFILL_CHUNK) * PREFILL_CHUNK, self.max_seq)
        kv = self._kv[layer, :, :, :w]
        return kv[0], kv[1]


# -- forward ops -----------------------------------------------------------------


def project_kv(weights: Weights, layer: int, hidden: np.ndarray) -> np.ndarray:
    """Key/value projections of one hidden vector, split into heads: one
    (2, n_heads, d_head) array, keys over values, which unpacks as (k, v).
    One batched product makes the gemv of wk @ hidden and that of
    wv @ hidden, so each half has their bits."""
    c = weights.config
    return (weights.layers[layer].wkv @ hidden).reshape(2, c.n_heads, c.d_head)


def attention_forward(weights: Weights, layer: int, query_hidden: np.ndarray, cache: KVCache,
                      return_weights: bool = False):
    """Scaled dot-product attention of one query over the cached positions.

    The current token's K/V must already be appended. The query reads the
    cache's padded_view and masks the columns past its length with -inf, so
    it attends to past and current positions only. With return_weights, the
    attention row is an owned (n_heads, length) float32 array, not a view
    that would keep the padded probabilities alive.
    """
    c = weights.config
    m = cache.lens[layer]
    if m < 1:
        raise ValueError("attention requires at least one cached position")
    lw = weights.layers[layer]
    q = (lw.wq @ query_hidden).reshape(c.n_heads, c.d_head, 1)
    k, v = cache.padded_view(layer)
    scores = np.matmul(k, q)[..., 0]
    scores /= weights.attn_scale
    scores[:, m:] = -np.inf
    probs = softmax(scores)
    out = lw.wo @ np.matmul(probs[:, None], v).reshape(c.d_model)
    if return_weights:
        return out, probs[:, :m].copy()
    return out


_ZERO = np.float32(0.0)


def ffn_forward(weights: Weights, layer: int, x: np.ndarray) -> np.ndarray:
    lw = weights.layers[layer]
    h = lw.w1 @ x
    np.maximum(h, _ZERO, out=h)
    return lw.w2 @ h


def _matvecs(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """w @ row for each row of rows, in one call: NumPy makes one BLAS gemv per
    row, the bits of w @ row (rows @ w.T is one gemm, with other bits). A
    stacked (2, n, d) w takes rows of shape (rows, 1, d)."""
    return np.matmul(w, rows[..., None])[..., 0]


@dataclass
class BlockOutput:
    hidden: np.ndarray
    skipped: bool
    report: object = None
    attn_row: np.ndarray | None = None
    kv: np.ndarray | None = None  # (2, n_heads, d_head), keys over values


@dataclass
class DecodeResult:
    tokens: list[int]
    reports: list
    flops: FlopsLedger = field(default_factory=FlopsLedger)


class DecodeSession:
    """One generation of one sequence: weights, caches, filter state. A dense
    session takes no prune config and runs no filter.

    Weights are immutable and may be shared across sessions; everything else
    is confined to this session. The session reads the norms' gains and
    biases once, as it starts (see layer_norms).
    """

    def __init__(self, config: ModelConfig, prune: PruneConfig | None = None,
                 mode: str = "dense", weights: Weights | None = None, record: bool = False):
        if mode not in ("dense", "filtered"):
            raise ConfigError("session mode must be 'dense' or 'filtered'")
        if (prune is None) != (mode == "dense"):
            raise ConfigError("filtered mode requires a prune config; dense mode takes none")
        if weights is not None and weights.config != config:
            diff = ", ".join(f"{f.name} {getattr(weights.config, f.name)} in the weights, "
                             f"{getattr(config, f.name)} in the session"
                             for f in fields(ModelConfig)
                             if getattr(weights.config, f.name) != getattr(config, f.name))
            raise ConfigError(f"weights do not match the model config: {diff}")
        self.config = config
        self.prune = prune
        self.mode = mode
        self.weights = weights if weights is not None else init_weights(config)
        self.cache = KVCache(config)
        self.positions = self.weights.positions
        # Every norm's gain and bias as float64, cast once (exactly) per
        # session: each layer's (ln1_g, ln1_b, ln2_g, ln2_b), then the final
        # norm's pair. layer_norm's float64 steps then take them as they are,
        # with the bits a float32 gain gives, instead of casting on each call.
        self.layer_norms = [tuple(a.astype(np.float64)
                                  for a in (lw.ln1_g, lw.ln1_b, lw.ln2_g, lw.ln2_b))
                            for lw in self.weights.layers]
        self.final_norm = (self.weights.lnf_g.astype(np.float64),
                           self.weights.lnf_b.astype(np.float64))
        self.flops_model = FlopsModel(config.n_heads, config.d_head)
        self.ledger = FlopsLedger()
        self.record = record
        self.keep_on_skip = prune is not None and prune.cache_on_skip == "keep"
        # A position's rank among decode steps, which the filter's warm-up
        # counts, is position - prompt_len: negative for a prompt position.
        self.prompt_len = 0
        self.engine = None
        if prune is not None:
            self.engine = FilterEngine(config.n_layers, config.n_heads, config.d_head, prune)

    def block_forward(self, layer: int, hidden: np.ndarray, step: int = 0,
                      rank: int = 0) -> BlockOutput:
        """One pre-norm block: filter decision, attention or skip, then FFN.
        rank is the position's rank among decode steps, negative for a
        prompt position. The K/V is appended when the token is kept in the
        cache or recorded, and attention runs when it is not skipped or is
        recorded; then FlopsLedger.charge_event, the keep/skip rule, charges
        it and sets the cache length, which takes a dropped skip back off."""
        weights, cache = self.weights, self.cache
        ln1_g, ln1_b, ln2_g, ln2_b = self.layer_norms[layer]
        ln1 = layer_norm(hidden, ln1_g, ln1_b)
        kv = project_kv(weights, layer, ln1)

        skip, report = False, None
        if self.engine is not None and layer in self.engine.layers:
            skip, report = self.engine.process(layer, 0, kv, step, rank)

        cache_len_if_kept = cache.lens[layer] + 1
        if not skip or self.keep_on_skip or self.record:
            cache.append(layer, kv)
        attn_row = None
        if self.record:
            attn_out, attn_row = attention_forward(weights, layer, ln1, cache, return_weights=True)
        elif not skip:
            attn_out = attention_forward(weights, layer, ln1, cache)
        cache.lens[layer] = self.ledger.charge_event(cache_len_if_kept, self.flops_model, skip,
                                                     report, self.keep_on_skip)
        # A skip adds nothing: the residual passes the input through untouched.
        x = hidden if skip else hidden + attn_out

        ln2 = layer_norm(x, ln2_g, ln2_b)
        x = x + ffn_forward(weights, layer, ln2)
        return BlockOutput(hidden=x, skipped=skip, report=report, attn_row=attn_row, kv=kv)

    def forward_position(self, token: int, position: int, recorder=None):
        """Run one generated token through every block, at decode rank
        position - prompt_len; returns (hidden, reports)."""
        if not 0 <= token < self.config.vocab_size:
            raise ConfigError(f"token {token} outside vocabulary")
        hidden = self.weights.embed[token] + self.positions[position]
        reports = []
        rank = position - self.prompt_len
        for layer in range(self.config.n_layers):
            out = self.block_forward(layer, hidden, position, rank)
            hidden = out.hidden
            if out.report is not None:
                reports.append(out.report)
            if recorder is not None:
                # Positional, and indexed: a keyword call, or unpacking the
                # array by iteration, costs more, once per layer.
                kv = out.kv
                recorder.add_event(0, position, layer, kv[0], kv[1], out.attn_row)
        return hidden, reports

    def prefill(self, tokens, recorder=None):
        """Run prompt tokens, at positions 0, 1, ..., through every block,
        PREFILL_CHUNK positions at a time. Returns the last position's hidden
        state and the filter's reports, with the cache, engine, ledger and
        recorder effects of running each position through the blocks alone
        as a prefill step, bit for bit (the per-position reference in
        tests/test_prefill.py).

        A session prefills once. Before any state changes, a session whose
        cache already holds positions, an empty prompt or a token outside the
        vocabulary raises ConfigError, and a prompt longer than max_seq
        raises SequenceLengthError."""
        if any(self.cache.lens):
            raise ConfigError("a session decodes once: its cache already holds positions")
        ids = np.asarray(tokens)
        if ids.size == 0:
            raise ConfigError("prompt must be non-empty")
        if ids.ndim != 1 or ids.dtype.kind not in "iu":
            raise ConfigError("prompt tokens must be a sequence of integers")
        bad = (ids < 0) | (ids >= self.config.vocab_size)
        if bad.any():
            raise ConfigError(f"token {ids[bad][0]} outside vocabulary")
        if len(ids) > self.config.max_seq:
            raise SequenceLengthError("the prompt does not fit in the cache")
        self.prompt_len = len(ids)
        reports = []
        for start in range(0, len(ids), PREFILL_CHUNK):
            hidden, chunk_reports = self._prefill_chunk(ids[start:start + PREFILL_CHUNK],
                                                        start, recorder)
            reports.extend(chunk_reports)
        return hidden, reports

    def _prefill_chunk(self, ids: np.ndarray, start: int, recorder):
        """One prefill chunk: every layer over all of its rows, then the
        filter's two passes (score_steps over the chunk, then per filtered
        layer one decide call over the chunk's run of positions, which
        applies that layer's barrier after each position), then per position
        and layer the charge by FlopsLedger.charge_event, block_forward's
        keep/skip rule, and the recorder. No prompt position skips, so every
        layer's cache holds start positions before the chunk. Returns the
        last row's hidden state and the chunk's reports."""
        c = self.config
        rows = len(ids)
        x = self.weights.embed[ids] + self.positions[start:start + rows]
        kv = []
        attn_rows = []
        for layer, lw in enumerate(self.weights.layers):
            ln1_g, ln1_b, ln2_g, ln2_b = self.layer_norms[layer]
            ln1 = layer_norm_rows(x, ln1_g, ln1_b)
            # (rows, 2, n_heads, d_head): each row's project_kv, bit for bit.
            kv.append(_matvecs(lw.wkv, ln1[:, None]).reshape(rows, 2, c.n_heads, c.d_head))
            self.cache.append_rows(layer, kv[-1])
            attn, probs = self._attention_rows(layer, ln1, start)
            attn_rows.append(probs)
            x = x + attn
            ln2 = layer_norm_rows(x, ln2_g, ln2_b)
            h = _matvecs(lw.w1, ln2)
            np.maximum(h, _ZERO, out=h)
            x = x + _matvecs(lw.w2, h)

        engine = self.engine
        active = () if engine is None else engine.active_layers
        # Each filtered layer's reports over the chunk, one per row.
        layer_reports = {}
        if active:
            stacked = np.stack([kv[layer] for layer in active], axis=1)
            evidence = engine.score_steps([[(layer, 0) for layer in active]] * rows,
                                          stacked.reshape((-1,) + stacked.shape[2:]))
            positions = range(start, start + rows)
            for i, layer in enumerate(active):
                # A prompt position (a negative rank) is shadow: never skipped.
                decisions = engine.decide(layer, [
                    (pos, pos - self.prompt_len, 0, row_evidence)
                    for pos, row_evidence in zip(positions, evidence[i::len(active)])])
                layer_reports[layer] = [report for _, report in decisions]
        reports = []
        for t in range(rows):
            pos = start + t
            for layer in range(c.n_layers):
                report = None
                if layer in layer_reports:
                    report = layer_reports[layer][t]
                    if report is not None:
                        reports.append(report)
                self.ledger.charge_event(pos + 1, self.flops_model, False, report,
                                         self.keep_on_skip)
                if recorder is not None:
                    probs = attn_rows[layer]
                    row = kv[layer][t]
                    recorder.add_event(0, pos, layer, row[0], row[1],
                                       None if probs is None else probs[t, :, :pos + 1].copy())
        return x[-1], reports

    def _attention_rows(self, layer: int, ln1: np.ndarray, n: int):
        """attention_forward of each row of ln1, the row t query at cache
        length n + t + 1, with the chunk's K/V already appended and n a
        multiple of PREFILL_CHUNK, so every row reads the same padded_view.
        Returns the outputs and, when recording, the attention rows (zero
        past each row's own columns), else None."""
        c = self.config
        lw = self.weights.layers[layer]
        rows = len(ln1)
        q = _matvecs(lw.wq, ln1).reshape(rows, c.n_heads, c.d_head, 1)
        k, v = self.cache.padded_view(layer)
        scores = np.matmul(k, q)[..., 0]
        scores /= self.weights.attn_scale
        future = np.arange(k.shape[1]) > np.arange(n, n + rows)[:, None]
        np.copyto(scores, -np.inf, where=future[:, None, :])
        probs = softmax(scores)
        if np.isfinite(v[:, n:n + rows]).all():
            ctx = np.matmul(probs[:, :, None], v)
        else:
            # 0 x inf is NaN: each row reads the values with its future
            # columns zeroed, as the cache holds them when it runs alone.
            ctx = np.stack([np.matmul(probs[t, :, None], np.where(future[t, :, None], _ZERO, v))
                            for t in range(rows)])
        out = _matvecs(lw.wo, ctx.reshape(rows, c.d_model))
        return out, (probs if self.record else None)

    def logits(self, hidden: np.ndarray) -> np.ndarray:
        h = layer_norm(hidden, *self.final_norm)
        return self.weights.embed @ h

    def decode(self, prompt_tokens, n_steps: int, recorder=None) -> DecodeResult:
        """Greedy decoding: prefill the prompt, then generate n_steps tokens.
        A session decodes once: a second call raises ConfigError and changes
        nothing, as does a negative n_steps.

        The prompt runs through prefill, PREFILL_CHUNK positions at a time,
        and each generated token through forward_position. Tokens, reports,
        ledger, cache and recorded events are those of the per-position
        prefill in tests/test_prefill.py, bit for bit: every row of a chunk
        reads the cache at its decode step's width (see the module
        docstring)."""
        prompt = list(prompt_tokens)
        if n_steps < 0:
            raise ConfigError(f"n_steps must be non-negative, got {n_steps}")
        if len(prompt) + n_steps > self.config.max_seq:
            raise SequenceLengthError("prompt length + n_steps exceeds max_seq")
        hidden, reports = self.prefill(prompt, recorder=recorder)
        tokens = list(prompt)
        for s in range(n_steps):
            nxt = int(self.logits(hidden).argmax())
            tokens.append(nxt)
            hidden, rs = self.forward_position(nxt, len(prompt) + s, recorder=recorder)
            reports.extend(rs)
        return DecodeResult(tokens=tokens, reports=reports, flops=self.ledger)
