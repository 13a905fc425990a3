"""Toy multi-head decoder hosting the skip filter.

Pre-norm blocks (attention sublayer, FFN sublayer, residual adds) over a
byte-level vocabulary with sinusoidal positions and greedy decoding. The
filter sits between the K/V projection and the attention computation; on a
skip, the attention contribution is exactly zero and the residual passes the
input through unchanged, while the FFN still executes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, fields

import numpy as np

from .filtering import FilterEngine
from .metrics import FlopsLedger, FlopsModel
from .numerics import layer_norm, softmax, substream
from .policy import ConfigError, PruneConfig

WEIGHTS_MAGIC = b"TKSK"
WEIGHTS_VERSION = 1


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


@dataclass
class LayerWeights:
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray
    w1: np.ndarray
    w2: np.ndarray


@dataclass
class Weights:
    config: ModelConfig
    embed: np.ndarray
    layers: list[LayerWeights]
    lnf_g: np.ndarray
    lnf_b: np.ndarray


def _gaussian(rng, shape, fan_in) -> np.ndarray:
    return (rng.standard_normal(shape) / np.sqrt(fan_in)).astype(np.float32)


def init_weights(config: ModelConfig) -> Weights:
    """Seeded random init, entries ~ N(0, 1/fan_in). No training in scope."""
    rng = substream(config.seed, "weights")
    d, f, v = config.d_model, config.d_ff, config.vocab_size
    layers = []
    for _ in range(config.n_layers):
        layers.append(LayerWeights(
            ln1_g=np.ones(d, dtype=np.float32), ln1_b=np.zeros(d, dtype=np.float32),
            wq=_gaussian(rng, (d, d), d), wk=_gaussian(rng, (d, d), d),
            wv=_gaussian(rng, (d, d), d), wo=_gaussian(rng, (d, d), d),
            ln2_g=np.ones(d, dtype=np.float32), ln2_b=np.zeros(d, dtype=np.float32),
            w1=_gaussian(rng, (f, d), d), w2=_gaussian(rng, (d, f), f),
        ))
    return Weights(
        config=config,
        embed=_gaussian(rng, (v, d), d),
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
        for name in ("ln1_g", "ln1_b", "wq", "wk", "wv", "wo", "ln2_g", "ln2_b", "w1", "w2"):
            yield getattr(lw, name)
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

    def take(shape):
        nonlocal offset
        n = int(np.prod(shape))
        if offset + 4 * n > len(blob):
            raise ValueError(f"truncated weights blob: {len(blob)} bytes, "
                             f"an array needs bytes {offset} to {offset + 4 * n}")
        arr = np.frombuffer(blob, dtype="<f4", count=n, offset=offset).reshape(shape).copy()
        offset += 4 * n
        return arr

    d, f, v = d_model, d_ff, vocab
    embed = take((v, d))
    layers = []
    for _ in range(n_layers):
        layers.append(LayerWeights(
            ln1_g=take((d,)), ln1_b=take((d,)), wq=take((d, d)), wk=take((d, d)),
            wv=take((d, d)), wo=take((d, d)), ln2_g=take((d,)), ln2_b=take((d,)),
            w1=take((f, d)), w2=take((d, f)),
        ))
    lnf_g = take((d,))
    lnf_b = take((d,))
    if offset != len(blob):
        raise ValueError("trailing bytes in weights blob")
    return Weights(config=config, embed=embed, layers=layers, lnf_g=lnf_g, lnf_b=lnf_b)


# -- KV cache --------------------------------------------------------------------


class KVCache:
    """Append-only per-layer, per-head store of key/value vectors."""

    def __init__(self, config: ModelConfig):
        shape = (config.n_layers, config.n_heads, config.max_seq, config.d_head)
        self._k = np.zeros(shape, dtype=np.float32)
        self._v = np.zeros(shape, dtype=np.float32)
        self.lens = [0] * config.n_layers
        self.max_seq = config.max_seq

    def append(self, layer: int, k_heads: np.ndarray, v_heads: np.ndarray) -> None:
        n = self.lens[layer]
        if n >= self.max_seq:
            raise SequenceLengthError(f"layer {layer} cache is full at {self.max_seq}")
        self._k[layer, :, n, :] = k_heads
        self._v[layer, :, n, :] = v_heads
        self.lens[layer] = n + 1

    def view(self, layer: int):
        n = self.lens[layer]
        return self._k[layer, :, :n, :], self._v[layer, :, :n, :]


# -- forward ops -----------------------------------------------------------------


def project_kv(weights: Weights, layer: int, hidden: np.ndarray):
    """Key/value projections of one hidden vector, split into heads."""
    c = weights.config
    lw = weights.layers[layer]
    k = (lw.wk @ hidden).reshape(c.n_heads, c.d_head)
    v = (lw.wv @ hidden).reshape(c.n_heads, c.d_head)
    return k, v


def attention_forward(weights: Weights, layer: int, query_hidden: np.ndarray, cache: KVCache,
                      return_weights: bool = False):
    """Scaled dot-product attention of one query over the cached positions.

    The current token's K/V must already be appended; causality holds by
    construction because the cache only contains past and current positions.
    """
    c = weights.config
    if cache.lens[layer] < 1:
        raise ValueError("attention requires at least one cached position")
    lw = weights.layers[layer]
    q = (lw.wq @ query_hidden).reshape(c.n_heads, c.d_head)
    k, v = cache.view(layer)
    scores = np.einsum("hld,hd->hl", k, q) / np.float32(np.sqrt(c.d_head))
    probs = softmax(scores)
    ctx = np.einsum("hl,hld->hd", probs, v).reshape(c.d_model).astype(np.float32)
    out = (lw.wo @ ctx).astype(np.float32)
    if return_weights:
        return out, probs.astype(np.float32)
    return out


def attention_row_if_kept(weights: Weights, layer: int, query_hidden: np.ndarray,
                          cache: KVCache, k_new: np.ndarray, v_new: np.ndarray) -> np.ndarray:
    """Ground-truth attention row a skipped token would have produced, over the
    cache as if its K/V were appended. Does not mutate the cache."""
    c = weights.config
    lw = weights.layers[layer]
    q = (lw.wq @ query_hidden).reshape(c.n_heads, c.d_head)
    k_old, _ = cache.view(layer)
    k = np.concatenate([k_old, k_new[:, None, :]], axis=1)
    scores = np.einsum("hld,hd->hl", k, q) / np.float32(np.sqrt(c.d_head))
    return softmax(scores).astype(np.float32)


def ffn_forward(weights: Weights, layer: int, x: np.ndarray) -> np.ndarray:
    lw = weights.layers[layer]
    h = np.maximum(lw.w1 @ x, np.float32(0.0))
    return (lw.w2 @ h).astype(np.float32)


@dataclass
class BlockOutput:
    hidden: np.ndarray
    skipped: bool
    report: object = None
    attn_row: np.ndarray | None = None
    kv: tuple | None = None


@dataclass
class DecodeResult:
    tokens: list[int]
    reports: list
    flops: FlopsLedger = field(default_factory=FlopsLedger)


class DecodeSession:
    """One generation: weights, caches, filter state, telemetry.

    Weights are immutable and may be shared across sessions; everything else
    is confined to this session.
    """

    def __init__(self, config: ModelConfig, prune: PruneConfig | None = None,
                 mode: str = "dense", weights: Weights | None = None, record: bool = False):
        if mode not in ("dense", "filtered"):
            raise ConfigError("session mode must be 'dense' or 'filtered'")
        if mode == "filtered" and prune is None:
            raise ConfigError("filtered mode requires a prune config")
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
        self.positions = sinusoidal_positions(config.max_seq, config.d_model)
        self.flops_model = FlopsModel.from_dims(config.n_heads, config.d_head, config.d_model)
        self.ledger = FlopsLedger()
        self.record = record
        self.engine = None
        if prune is not None:
            self.engine = FilterEngine(config.n_layers, config.n_heads, config.d_head, prune)

    def block_forward(self, layer: int, hidden: np.ndarray, seq: int = 0,
                      step: int = 0) -> BlockOutput:
        """One pre-norm block: filter decision, attention or skip, then FFN.

        A dense session still runs the filter on its layers, as shadow
        telemetry: it never skips and pays no decision overhead."""
        lw = self.weights.layers[layer]
        x = hidden
        ln1 = layer_norm(x, lw.ln1_g, lw.ln1_b)
        k_heads, v_heads = project_kv(self.weights, layer, ln1)

        skip = False
        report = None
        filtered = self.mode == "filtered"
        if self.engine is not None and layer in self.engine.layers:
            skip, report = self.engine.process(layer, seq, k_heads, v_heads, step,
                                               enact=filtered)

        cache_len_if_kept = self.cache.lens[layer] + 1
        attn_row = None
        if skip:
            if self.record:
                attn_row = attention_row_if_kept(self.weights, layer, ln1, self.cache,
                                                 k_heads, v_heads)
            if self.prune.cache_on_skip == "keep":
                self.cache.append(layer, k_heads, v_heads)
            # Attention contribution is exactly zero: the residual passes the
            # input through untouched, no arithmetic applied.
        else:
            self.cache.append(layer, k_heads, v_heads)
            if self.record:
                attn_out, attn_row = attention_forward(self.weights, layer, ln1, self.cache,
                                                       return_weights=True)
            else:
                attn_out = attention_forward(self.weights, layer, ln1, self.cache)
            x = (x + attn_out).astype(np.float32)
        self.ledger.charge_event(cache_len_if_kept, self.flops_model, skip,
                                 report if filtered else None)

        ln2 = layer_norm(x, lw.ln2_g, lw.ln2_b)
        x = (x + ffn_forward(self.weights, layer, ln2)).astype(np.float32)
        return BlockOutput(hidden=x, skipped=skip, report=report, attn_row=attn_row,
                           kv=(k_heads, v_heads))

    def forward_position(self, token: int, position: int, prefill: bool,
                         recorder=None, seq: int = 0):
        """Run one token through every block; returns (hidden, reports)."""
        if not 0 <= token < self.config.vocab_size:
            raise ConfigError(f"token {token} outside vocabulary")
        hidden = (self.weights.embed[token] + self.positions[position]).astype(np.float32)
        reports = []
        if self.engine is not None:
            self.engine.begin_step(prefill=prefill)
        for layer in range(self.config.n_layers):
            out = self.block_forward(layer, hidden, seq=seq, step=position)
            hidden = out.hidden
            if out.report is not None:
                reports.append(out.report)
            if recorder is not None:
                recorder.add_event(seq=seq, step=position, layer=layer,
                                   k=out.kv[0], v=out.kv[1], attn=out.attn_row)
        if self.engine is not None:
            self.engine.end_step(frozen=(self.mode == "dense"))
        return hidden, reports

    def logits(self, hidden: np.ndarray) -> np.ndarray:
        h = layer_norm(hidden, self.weights.lnf_g, self.weights.lnf_b)
        return self.weights.embed @ h

    def decode(self, prompt_tokens, n_steps: int, recorder=None) -> DecodeResult:
        """Greedy decoding: prefill the prompt, then generate n_steps tokens."""
        prompt = list(prompt_tokens)
        if not prompt:
            raise ConfigError("prompt must be non-empty")
        if len(prompt) + n_steps > self.config.max_seq:
            raise SequenceLengthError("prompt length + n_steps exceeds max_seq")
        reports = []
        hidden = None
        for pos, tok in enumerate(prompt):
            hidden, rs = self.forward_position(tok, pos, prefill=True, recorder=recorder)
            reports.extend(rs)
        tokens = list(prompt)
        for s in range(n_steps):
            nxt = int(np.argmax(self.logits(hidden)))
            tokens.append(nxt)
            hidden, rs = self.forward_position(nxt, len(prompt) + s, prefill=False,
                                               recorder=recorder)
            reports.extend(rs)
        return DecodeResult(tokens=tokens, reports=reports, flops=self.ledger)
