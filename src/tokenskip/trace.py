"""KV trace files: recording, reading, and synthetic generation.

NDJSON, one object per line, header first. Traces decouple policy evaluation
from the toy model: each event carries the per-head key/value a token produced
at one layer, plus (optionally) the exact attention row its query produced
over the cache, as ground truth for loss proxies.

Format, version 2 (written):
  header: {"type": "header", "format_version": 2, "n_layers": int,
           "n_heads": int, "d_head": int, "n_steps": int,
           "source": "toy_model" | "synthetic" | "external",
           "generator_params": {str: str}}
  event:  {"type": "event", "seq": int, "step": int, "layer": int,
           "k": array of shape [n_heads, d_head], "v": like k,
           "attn": array of shape [n_heads, cache_len] or null}
  array:  {"shape": [rows, cols], "f32": str}, where f32 is the base64 of
          the rows * cols little-endian float32 values in row-major order.
Version 1 (read only) is the same except that each array is a nested JSON
list of decimal floats, [[float] * cols] * rows.

Events are ordered by (seq, step, layer), with 0 <= seq < n_seqs,
0 <= step < n_steps and 0 <= layer < n_layers; every value is finite.
generator_params is a free-form string map; recognized keys include
"n_seqs" (default 1), "prefill_steps" (positions that replay must treat as
prompt) and the synthesis parameters.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field

import numpy as np

from .numerics import softmax, substream

FORMAT_VERSION = 2
READ_VERSIONS = (1, 2)
SOURCES = ("toy_model", "synthetic", "external")
PATTERNS = ("repetitive", "random", "depth_concentrated")


class TraceFormatError(ValueError):
    """Malformed or inconsistent trace file; message carries the line number."""


@dataclass(frozen=True)
class TraceHeader:
    n_layers: int
    n_heads: int
    d_head: int
    n_steps: int
    source: str
    generator_params: dict
    format_version: int = FORMAT_VERSION

    def __post_init__(self):
        if self.source not in SOURCES:
            raise TraceFormatError(f"unknown trace source {self.source!r}")
        if min(self.n_layers, self.n_heads, self.d_head) < 1:
            raise TraceFormatError("trace dimensions must be positive")

    @property
    def n_seqs(self) -> int:
        return _whole(self.generator_params.get("n_seqs", "1"), "n_seqs")

    @property
    def prefill_steps(self) -> int:
        return _whole(self.generator_params.get("prefill_steps", "0"), "prefill_steps")


@dataclass
class TraceEvent:
    seq: int
    step: int
    layer: int
    k: np.ndarray
    v: np.ndarray
    attn: np.ndarray | None = None


def _array2d(values, name, lineno) -> np.ndarray:
    """Decode one version 1 array: a nested list of decimal floats."""
    try:
        arr = np.asarray(values, dtype=np.float32)
    except (TypeError, ValueError) as exc:
        raise TraceFormatError(f"line {lineno}: {name} must be a 2-D float array") from exc
    if arr.ndim != 2:
        raise TraceFormatError(f"line {lineno}: {name} must be a 2-D float array")
    return arr


def _encode_f32(arr) -> dict:
    a = np.ascontiguousarray(arr, dtype="<f4")
    return {"shape": list(a.shape), "f32": base64.b64encode(a.tobytes()).decode("ascii")}


def _decode_f32(obj, name, lineno) -> np.ndarray:
    """Decode one version 2 array: a shape and base64 float32 bytes."""
    try:
        rows, cols = (int(n) for n in obj["shape"])
        data = base64.b64decode(obj["f32"], validate=True)
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceFormatError(f"line {lineno}: {name} must be a 2-D float32 array") from exc
    if min(rows, cols) < 0 or len(data) != 4 * rows * cols:
        raise TraceFormatError(
            f"line {lineno}: {name} holds {len(data)} bytes, not shape [{rows}, {cols}]")
    # astype copies into a writable native float32 array.
    return np.frombuffer(data, dtype="<f4").reshape(rows, cols).astype(np.float32)


def write_trace(path, header: TraceHeader, events) -> int:
    """Write header + events in format version 2, whatever version the
    header was read from; returns the number of events written."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "type": "header",
            "format_version": FORMAT_VERSION,
            "n_layers": header.n_layers,
            "n_heads": header.n_heads,
            "d_head": header.d_head,
            "n_steps": header.n_steps,
            "source": header.source,
            "generator_params": {str(k): str(v) for k, v in header.generator_params.items()},
        }))
        fh.write("\n")
        for e in events:
            obj = {
                "type": "event",
                "seq": e.seq,
                "step": e.step,
                "layer": e.layer,
                "k": _encode_f32(e.k),
                "v": _encode_f32(e.v),
                "attn": None if e.attn is None else _encode_f32(e.attn),
            }
            fh.write(json.dumps(obj))
            fh.write("\n")
            n += 1
    return n


def _whole(value, name: str) -> int:
    """A header count as an int: a fractional number is an error, never
    truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise TraceFormatError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _parse_header(obj, lineno) -> tuple[TraceHeader, tuple[int, int, int]]:
    """The header, and the exclusive upper bounds of (seq, step, layer)."""
    version = obj.get("format_version")
    if version not in READ_VERSIONS:
        raise TraceFormatError(f"line {lineno}: unsupported format_version {version}")
    try:
        header = TraceHeader(
            n_layers=_whole(obj["n_layers"], "n_layers"),
            n_heads=_whole(obj["n_heads"], "n_heads"),
            d_head=_whole(obj["d_head"], "d_head"),
            n_steps=_whole(obj["n_steps"], "n_steps"),
            source=obj["source"], generator_params=dict(obj.get("generator_params", {})),
            format_version=version,
        )
        if header.prefill_steps < 0:
            raise TraceFormatError("prefill_steps must be non-negative")
        return header, (header.n_seqs, header.n_steps, header.n_layers)
    except TraceFormatError as exc:
        raise TraceFormatError(f"line {lineno}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceFormatError(f"line {lineno}: malformed header ({exc!r})") from exc


def read_trace(path) -> tuple[TraceHeader, list[TraceEvent]]:
    """Read and validate a trace file of format version 1 or 2: header first,
    dimensions fixed, ids inside the header's ranges, events ordered by
    (seq, step, layer), values finite, attention rows normalized. The
    returned header's format_version is the version the file holds."""
    header = None
    events: list[TraceEvent] = []
    last_key = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(obj, dict):
                raise TraceFormatError(f"line {lineno}: record must be a JSON object")
            kind = obj.get("type")
            if header is None:
                if kind != "header":
                    raise TraceFormatError(f"line {lineno}: first record must be the header")
                header, limits = _parse_header(obj, lineno)
                decode = _array2d if header.format_version == 1 else _decode_f32
                expected = (header.n_heads, header.d_head)
                continue
            if kind != "event":
                raise TraceFormatError(f"line {lineno}: unknown record type {kind!r}")
            try:
                key = (int(obj["seq"]), int(obj["step"]), int(obj["layer"]))
                k_obj, v_obj = obj["k"], obj["v"]
            except (KeyError, TypeError, ValueError) as exc:
                raise TraceFormatError(f"line {lineno}: malformed event ({exc!r})") from exc
            k = decode(k_obj, "k", lineno)
            v = decode(v_obj, "v", lineno)
            for name, value, limit in zip(("seq", "step", "layer"), key, limits):
                if not 0 <= value < limit:
                    raise TraceFormatError(
                        f"line {lineno}: {name} {value} outside the header's range [0, {limit})")
            if k.shape != expected or v.shape != expected:
                raise TraceFormatError(
                    f"line {lineno}: K/V shape {k.shape} does not match header {expected}")
            if not (np.isfinite(k).all() and np.isfinite(v).all()):
                raise TraceFormatError(f"line {lineno}: K/V values must be finite")
            attn = None
            if obj.get("attn") is not None:
                attn = decode(obj["attn"], "attn", lineno)
                if attn.shape[0] != header.n_heads:
                    raise TraceFormatError(f"line {lineno}: attn head count mismatch")
                if not np.isfinite(attn).all():
                    raise TraceFormatError(f"line {lineno}: attn values must be finite")
                if np.any(attn < 0) or np.any(np.abs(attn.sum(axis=1) - 1.0) > 1e-5):
                    raise TraceFormatError(
                        f"line {lineno}: attn rows must be non-negative and sum to 1")
            if last_key is not None and key <= last_key:
                raise TraceFormatError(f"line {lineno}: events out of (seq, step, layer) order")
            last_key = key
            events.append(TraceEvent(seq=key[0], step=key[1], layer=key[2], k=k, v=v, attn=attn))
    if header is None:
        raise TraceFormatError("line 1: empty trace file")
    return header, events


class TraceRecorder:
    """Accumulates events during a decode session, then writes the file."""

    def __init__(self, n_layers: int, n_heads: int, d_head: int,
                 source: str = "toy_model", generator_params: dict | None = None):
        self.n_layers = n_layers
        self.n_heads = n_heads
        self.d_head = d_head
        self.source = source
        self.generator_params = dict(generator_params or {})
        self.events: list[TraceEvent] = []

    def add_event(self, seq, step, layer, k, v, attn=None):
        self.events.append(TraceEvent(seq=seq, step=step, layer=layer,
                                      k=np.asarray(k, dtype=np.float32),
                                      v=np.asarray(v, dtype=np.float32),
                                      attn=None if attn is None else
                                      np.asarray(attn, dtype=np.float32)))

    def header(self) -> TraceHeader:
        n_steps = 1 + max((e.step for e in self.events), default=-1)
        n_seqs = 1 + max((e.seq for e in self.events), default=0)
        params = dict(self.generator_params)
        params.setdefault("n_seqs", str(n_seqs))
        return TraceHeader(n_layers=self.n_layers, n_heads=self.n_heads, d_head=self.d_head,
                           n_steps=n_steps, source=self.source, generator_params=params)

    def save(self, path) -> int:
        return write_trace(path, self.header(), self.events)


# -- synthetic generators --------------------------------------------------------


def _unit_rows(rng, shape_rows: int, d: int) -> np.ndarray:
    g = rng.standard_normal((shape_rows, d))
    return (g / np.linalg.norm(g, axis=1, keepdims=True)).astype(np.float32)


def _skewed_probs(dict_size: int) -> np.ndarray:
    p = 1.0 / (1.0 + np.arange(dict_size, dtype=np.float64))
    return p / p.sum()


def synthesize(pattern: str, n_layers: int, n_heads: int, d_head: int, n_steps: int,
               seed: int, n_seqs: int = 1, dict_size: int = 8, noise: float = 0.1,
               repeat_prob: float = 0.5, q_scale: float = 4.0, t0: float = 4.0,
               decay: float = 0.45, sink_gain: float = 1.2, sink_count: int = 4,
               key_noise: float = 0.0, value_noise: float = 0.0,
               with_attn: bool = True) -> tuple[TraceHeader, list[TraceEvent]]:
    """Generate a synthetic trace with exact attention ground truth.

    repetitive: tokens draw per-head K/V prototypes from a small dictionary
    (skewed frequencies, bursty repeats), so a controllable share of tokens is
    redundant. Queries point at prototypes with probability inverse to their
    token frequency: novel content attracts attention, repeated content does
    not.

    random: i.i.d. unit-scale Gaussian K/V, the no-redundancy baseline.

    depth_concentrated: the repetitive stream shared across layers, with two
    depth effects applied to the query stream: a temperature schedule
    t(l) = t0 * exp(-decay * l) that sharpens rows with depth, and a growing
    pull toward the first sink_count positions (whose keys carry a shared sink
    component), the way deep layers park attention on a few early tokens.
    Row entropy decreases strictly with layer index.

    key_noise / value_noise inject extra per-head noise into the stored keys
    (values). The noise lives in head dimensions the queries never touch
    (think positional components carried only by keys), so it degrades that
    feature's reliability as a redundancy signal without changing the
    attention ground truth.
    """
    if pattern not in PATTERNS:
        raise ValueError(f"pattern must be one of {PATTERNS}")
    if min(n_layers, n_heads, d_head, n_seqs) < 1 or n_steps < 0:
        raise ValueError("invalid trace dimensions")
    if not 0.0 <= repeat_prob < 1.0:
        raise ValueError("repeat_prob must be in [0, 1)")
    if dict_size < 1:
        raise ValueError("dict_size must be positive")

    rng = substream(seed, "synth")
    scale = np.float32(1.0 / np.sqrt(d_head))
    events: list[TraceEvent] = []

    for seq in range(n_seqs):
        if pattern == "random":
            k_stream = (rng.standard_normal((n_layers, n_steps, n_heads, d_head)) * scale
                        ).astype(np.float32)
            v_stream = (rng.standard_normal((n_layers, n_steps, n_heads, d_head)) * scale
                        ).astype(np.float32)
            q_stream = (rng.standard_normal((n_layers, n_steps, n_heads, d_head)) * scale
                        * q_scale * np.sqrt(d_head)).astype(np.float32)
        else:
            shared = pattern == "depth_concentrated"
            base_layers = 1 if shared else n_layers
            # Prototypes and queries live in the leading half of the head
            # dimensions. Injected key/value noise goes into the trailing
            # half, which queries never touch: it corrupts the similarity
            # signal (like key-only positional components) while leaving the
            # attention ground truth intact.
            span = max(1, d_head // 2) if (key_noise > 0.0 or value_noise > 0.0) else d_head
            proto_k = np.zeros((dict_size, n_heads, d_head), dtype=np.float32)
            proto_v = np.zeros((dict_size, n_heads, d_head), dtype=np.float32)
            for h in range(n_heads):
                proto_k[:, h, :span] = _unit_rows(rng, dict_size, span)
                proto_v[:, h, :span] = _unit_rows(rng, dict_size, span)
            sink_dir = np.zeros((n_heads, d_head), dtype=np.float32)
            for h in range(n_heads):
                sink_dir[h, :span] = _unit_rows(rng, 1, span)[0]
            probs = _skewed_probs(dict_size)
            idx = np.empty(n_steps, dtype=np.int64)
            for t in range(n_steps):
                if t > 0 and rng.random() < repeat_prob:
                    idx[t] = idx[t - 1]
                else:
                    idx[t] = rng.choice(dict_size, p=probs)
            # Queries favor rare prototypes (inverse token frequency): novel
            # content attracts attention, so heavily repeated tokens carry
            # little future mass.
            q_probs = 1.0 / probs
            q_probs /= q_probs.sum()
            qidx = rng.choice(dict_size, p=q_probs, size=n_steps)
            k_stream = np.empty((base_layers, n_steps, n_heads, d_head), dtype=np.float32)
            v_stream = np.empty_like(k_stream)
            q_stream = np.empty_like(k_stream)
            for bl in range(base_layers):
                kn = np.zeros((n_steps, n_heads, d_head))
                vn = np.zeros((n_steps, n_heads, d_head))
                qn = np.zeros((n_steps, n_heads, d_head))
                kn[..., :span] = rng.standard_normal((n_steps, n_heads, span)) * noise * scale
                vn[..., :span] = rng.standard_normal((n_steps, n_heads, span)) * noise * scale
                qn[..., :span] = rng.standard_normal((n_steps, n_heads, span)) * noise * scale
                if key_noise > 0.0:
                    kn[..., span:] += rng.standard_normal(
                        (n_steps, n_heads, d_head - span)) * key_noise * scale
                if value_noise > 0.0:
                    vn[..., span:] += rng.standard_normal(
                        (n_steps, n_heads, d_head - span)) * value_noise * scale
                k_stream[bl] = proto_k[idx] + kn
                v_stream[bl] = proto_v[idx] + vn
                q_stream[bl] = (proto_k[qidx] + qn) * q_scale * np.sqrt(d_head)
                if shared and sink_count > 0:
                    end = min(sink_count, n_steps)
                    k_stream[bl, :end] += 1.5 * sink_dir
            if shared:
                k_stream = np.broadcast_to(k_stream, (n_layers, n_steps, n_heads, d_head))
                v_stream = np.broadcast_to(v_stream, (n_layers, n_steps, n_heads, d_head))
                q_stream = np.broadcast_to(q_stream, (n_layers, n_steps, n_heads, d_head))

        temps = np.ones(n_layers, dtype=np.float64)
        sink_pull = np.zeros(n_layers, dtype=np.float64)
        if pattern == "depth_concentrated":
            temps = t0 * np.exp(-decay * np.arange(n_layers, dtype=np.float64))
            if n_layers > 1:
                sink_pull = sink_gain * np.arange(n_layers, dtype=np.float64) / (n_layers - 1)

        for step in range(n_steps):
            for layer in range(n_layers):
                attn = None
                if with_attn:
                    k_hist = k_stream[layer, : step + 1]      # (step+1, H, D)
                    q = q_stream[layer, step].astype(np.float64)
                    if sink_pull[layer] > 0.0:
                        q = q + sink_pull[layer] * q_scale * np.sqrt(d_head) * sink_dir
                    q = (q / temps[layer]).astype(np.float32)
                    scores = np.einsum("lhd,hd->hl", k_hist, q) / np.float32(np.sqrt(d_head))
                    attn = softmax(scores).astype(np.float32)
                events.append(TraceEvent(
                    seq=seq, step=step, layer=layer,
                    k=k_stream[layer, step].copy(), v=v_stream[layer, step].copy(),
                    attn=attn,
                ))

    params = {
        "pattern": pattern, "n_seqs": str(n_seqs), "dict_size": str(dict_size),
        "noise": repr(noise), "repeat_prob": repr(repeat_prob), "q_scale": repr(q_scale),
        "t0": repr(t0), "decay": repr(decay), "sink_gain": repr(sink_gain),
        "sink_count": str(sink_count), "key_noise": repr(key_noise),
        "value_noise": repr(value_noise), "seed": str(seed), "prefill_steps": "0",
    }
    header = TraceHeader(n_layers=n_layers, n_heads=n_heads, d_head=d_head, n_steps=n_steps,
                         source="synthetic", generator_params=params)
    return header, events
