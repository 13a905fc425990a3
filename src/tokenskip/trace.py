"""KV trace files: recording, reading, and synthetic generation.

Traces decouple policy evaluation from the toy model: each event carries the
per-head key/value a token produced at one layer, plus (optionally) the exact
attention row its query produced over the cache, as ground truth for loss
proxies.

Format, version 3: a JSON header line, then a binary body.
  line 1: {"type": "header", "format_version": 3, "n_layers": int,
           "n_heads": int, "d_head": int, "n_steps": int, "n_events": int,
           "source": "toy_model" | "synthetic" | "external",
           "generator_params": {str: str}}
  body:   from the byte after line 1's "\\n" to the end of the file, three
          little-endian arrays back to back:
    ids   (n_events, 4) int64, one row per event: seq, step, layer, and the
          column count of its attention row, -1 for an event without one;
    kv    (n_events, 2, n_heads, d_head) float32, each event's key over its
          value;
    attn  each event's (n_heads, cols) float32 attention row over the cache,
          in event order.
  The header and the id table fix the body's length: a shorter or longer
  body is malformed.

Events are ordered by (seq, step, layer), with 0 <= seq < n_seqs,
0 <= step < n_steps and 0 <= layer < n_layers; every value is finite, and
every attention row is non-negative and sums to 1 within 1e-5;
n_layers * n_heads * d_head is at most MAX_ANCHOR_VALUES, and n_steps and
n_seqs at most 2**63, so that every id fits int64. generator_params is a
free-form string map; recognized keys include "n_seqs" (default 1) and
"prefill_steps" (positions that replay must treat as prompt), both
non-negative, and the synthesis parameters. Other format versions, the
NDJSON version 2 among them, are refused at line 1.

Both directions run the same header, id-table and value checks, the values
READ_CHUNK events at a time on the float32 arrays of the file. read_trace
reads the body with one readinto, checks the whole id table and the body's
length, then each chunk's values in a few NumPy calls. The events it returns
hold writable float32 views into the bytes read, and no two of their k, v
and attn overlap.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .numerics import softmax, substream
from .policy import ConfigError

FORMAT_VERSION = 3
SOURCES = ("toy_model", "synthetic", "external")
PATTERNS = ("repetitive", "random", "depth_concentrated")
# Events per chunk: read_trace and write_trace check values, and write_trace
# writes, this many events at a time.
READ_CHUNK = 64
# The cap on n_layers * n_heads * d_head, one sequence's key anchors over all
# layers (the bench's models hold 256). Replay sizes its tables from these, so
# a header past the cap is malformed rather than a failed allocation.
MAX_ANCHOR_VALUES = 2**22
# The cap on the float32 values a synthetic trace holds, its K/V and attention
# rows (256 MiB): synthesize refuses a trace past it before anything is
# allocated. Its float64 streams and event copies take a few times that.
MAX_TRACE_VALUES = 2**26
_IDS = ("seq", "step", "layer")
_ID_ROW = 32   # bytes per row of the id table


class TraceFormatError(ValueError):
    """Malformed or inconsistent trace file, or a header or events that
    write_trace refuses. The message names line 1 for the header, or the
    index of the event in the body or in write_trace's input."""


@dataclass(frozen=True)
class TraceHeader:
    n_layers: int
    n_heads: int
    d_head: int
    n_steps: int
    source: str
    generator_params: dict

    def __post_init__(self):
        if self.source not in SOURCES:
            raise TraceFormatError(f"unknown trace source {self.source!r}")
        if min(self.n_layers, self.n_heads, self.d_head) < 1:
            raise TraceFormatError("trace dimensions must be positive")

    @property
    def n_seqs(self) -> int:
        return _whole(self.generator_params.get("n_seqs", "1"), "n_seqs", text=True)

    @property
    def prefill_steps(self) -> int:
        return _whole(self.generator_params.get("prefill_steps", "0"), "prefill_steps",
                      text=True)


# Slotted: one object per event, with no __dict__ beside it.
@dataclass(slots=True)
class TraceEvent:
    seq: int
    step: int
    layer: int
    k: np.ndarray
    v: np.ndarray
    attn: np.ndarray | None = None


def _f32(arrays, axis=None) -> np.ndarray:
    """The arrays' values in one C-ordered little-endian float32 array (empty
    for none), cast as np.asarray(a, "<f4") casts: each array's values in
    row-major order back to back, or the arrays joined along axis 0."""
    return np.ascontiguousarray(
        np.concatenate([*arrays] or [()], axis=axis, dtype="<f4", casting="unsafe"))


def _check_ids(key, limits, i: int) -> None:
    """Each of event i's (seq, step, layer) must be an int inside
    [0, limit): a fraction, string or boolean is never truncated or coerced
    into an id."""
    for name, value, limit in zip(_IDS, key, limits):
        if type(value) is not int:
            raise TraceFormatError(f"event {i}: {name} must be an integer, got {value!r}")
        if not 0 <= value < limit:
            raise TraceFormatError(
                f"event {i}: {name} {value} outside the header's range [0, {limit})")


def _first_bad_id(ids, limits) -> int:
    """The index of the first row of the (m, 4) id table whose ids lie
    outside the header's ranges, or are not after the row before in
    (seq, step, layer) order, or whose column count is below -1; m if none."""
    seq, step, layer, cols = ids.T
    n_seqs, n_steps, n_layers = limits
    ok = ((seq >= 0) & (seq < n_seqs) & (step >= 0) & (step < n_steps)
          & (layer >= 0) & (layer < n_layers) & (cols >= -1))
    ok[1:] &= ((seq[1:] > seq[:-1])
               | (seq[1:] == seq[:-1]) & ((step[1:] > step[:-1])
                                          | (step[1:] == step[:-1]) & (layer[1:] > layer[:-1])))
    return len(ok) if ok.all() else int(np.argmin(ok))


def _check_events_from(events: list, start: int, limits, expected: tuple) -> None:
    """Raise for the first fault of the events from index start on, in each
    event k or v not 2-D, an id (_check_ids), the K/V shape, attn not 2-D or
    not of n_heads rows, then the order; values are left to _checked_attn."""
    for i in range(start, len(events)):
        e = events[i]
        for name, arr in (("k", e.k), ("v", e.v)):
            if arr.ndim != 2:
                raise TraceFormatError(f"event {i}: {name} must be a 2-D float32 array")
        key = (e.seq, e.step, e.layer)
        _check_ids(key, limits, i)
        if e.k.shape != expected or e.v.shape != expected:
            shape = e.k.shape if e.k.shape != expected else e.v.shape
            raise TraceFormatError(
                f"event {i}: K/V shape {shape} does not match header {expected}")
        if e.attn is not None:
            if e.attn.ndim != 2:
                raise TraceFormatError(f"event {i}: attn must be a 2-D float32 array")
            if e.attn.shape[0] != expected[0]:
                raise TraceFormatError(f"event {i}: attn head count mismatch")
        if i and key <= (events[i - 1].seq, events[i - 1].step, events[i - 1].layer):
            raise TraceFormatError(f"event {i}: events out of (seq, step, layer) order")


def _id_table(events: list, limits, expected: tuple) -> tuple[np.ndarray, int]:
    """The id table of the events before the first one that read_trace
    would reject for its ids, order or shapes, and that event's index. One
    pass tests the ids' types (the table would store True as 1) and the
    shapes; _first_bad_id checks the table's ranges and order."""
    rows = []
    for e in events:
        seq, step, layer, attn = e.seq, e.step, e.layer, e.attn
        if not (type(seq) is int and type(step) is int and type(layer) is int
                and e.k.shape == expected and e.v.shape == expected
                and (attn is None or (attn.ndim == 2 and attn.shape[0] == expected[0]))):
            break
        rows.append((seq, step, layer, -1 if attn is None else attn.shape[1]))
    try:
        ids = np.array(rows, dtype="<i8").reshape(len(rows), 4)
    except OverflowError:
        # An id past int64 is outside the header's range: the table ends there.
        del rows[next(i for i, r in enumerate(rows) if not -2**63 <= min(r) <= max(r) < 2**63):]
        ids = np.array(rows, dtype="<i8").reshape(len(rows), 4)
    return ids, _first_bad_id(ids, limits)


def write_trace(path, header: TraceHeader, events) -> int:
    """Write header + events in format version 3; returns the number of
    events written.

    The header line, ids, order, shapes (_id_table) and each chunk's values
    (_checked_attn, on the float32 arrays written) are checked as read_trace
    checks them: a fault raises TraceFormatError naming line 1 or the first
    bad event. The body streams into a new file beside the path's target, each
    chunk's K/V and rows encoded once and written at their offsets, and that
    file replaces the target, keeping its mode, once every check has passed:
    a rejected write leaves the path as it was, and a crash no torn file."""
    events = list(events)
    head = {
        "type": "header",
        "format_version": FORMAT_VERSION,
        "n_layers": header.n_layers,
        "n_heads": header.n_heads,
        "d_head": header.d_head,
        "n_steps": header.n_steps,
        "n_events": len(events),
        "source": header.source,
        "generator_params": {str(k): str(v) for k, v in header.generator_params.items()},
    }
    checked, limits, n = _parse_header(head)
    n_heads, d_head = checked.n_heads, checked.d_head
    ids, first = _id_table(events, limits, (n_heads, d_head))
    line = json.dumps(head).encode("ascii") + b"\n"
    kv_start = len(line) + _ID_ROW * n
    rows_start = kv_start + 8 * n_heads * d_head * n
    columns = [0, *np.cumsum(np.maximum(ids[:, 3], 0)).tolist()]
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        raise OSError(f"{path} is not a regular file, which write_trace would replace")
    part = f"{target}.{os.getpid()}.part"
    fh = open(part, "xb")
    try:
        with fh:
            if os.path.exists(target):
                shutil.copymode(target, part)
            fh.write(line)
            fh.write(ids)
            for start in range(0, first, READ_CHUNK):
                stop = min(start + READ_CHUNK, first)
                kv = _f32([a for e in events[start:stop] for a in (e.k, e.v)], axis=0)
                rows = _f32([e.attn for e in events[start:stop] if e.attn is not None])
                _checked_attn(kv.reshape(-1, 2, n_heads, d_head), rows, ids[start:stop, 3],
                              n_heads, start)
                fh.seek(kv_start + 8 * n_heads * d_head * start)
                fh.write(kv)
                fh.seek(rows_start + 4 * n_heads * columns[start])
                fh.write(rows)
            _check_events_from(events, first, limits, (n_heads, d_head))
        os.replace(part, target)
    except BaseException:
        os.remove(part)
        raise
    return n


def _whole(value, name: str, text: bool = False) -> int:
    """A header count as an int: a JSON integer or integral number, or with
    text a plain decimal string, -?[0-9]+. Anything else is an error, never
    truncated or coerced: a fraction, a boolean, a string without text, or
    one that only int() reads, such as " 2 ", "+2", "0_2" or a non-ASCII
    digit."""
    if text and isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        return int(value)
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise TraceFormatError(f"{name} must be an integer, got {value!r}")


def _header_object(line: bytes) -> dict:
    """The header object of line, the file's first line as bytes."""
    if not line:
        raise TraceFormatError("line 1: empty trace file")
    try:
        obj = json.loads(line.decode("utf-8"))
    except UnicodeDecodeError:
        raise TraceFormatError("line 1: not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"line 1: invalid JSON ({exc.msg})") from exc
    if not isinstance(obj, dict):
        raise TraceFormatError("line 1: record must be a JSON object")
    if obj.get("type") != "header":
        raise TraceFormatError("line 1: first record must be the header")
    return obj


def _parse_header(obj) -> tuple[TraceHeader, tuple[int, int, int], int]:
    """The header of line 1's object, the exclusive upper bounds of
    (seq, step, layer), and the event count."""
    found = obj.get("format_version")
    # The JSON integer only: == alone would take 3.0 for 3.
    if type(found) is not int or found != FORMAT_VERSION:
        raise TraceFormatError(f"line 1: unsupported format_version {found}")
    try:
        header = TraceHeader(
            n_layers=_whole(obj["n_layers"], "n_layers"),
            n_heads=_whole(obj["n_heads"], "n_heads"),
            d_head=_whole(obj["d_head"], "d_head"),
            n_steps=_whole(obj["n_steps"], "n_steps"),
            source=obj["source"], generator_params=dict(obj.get("generator_params", {})),
        )
        for name in ("prefill_steps", "n_seqs"):
            if getattr(header, name) < 0:
                raise TraceFormatError(f"{name} must be non-negative")
        if max(header.n_steps, header.n_seqs) > 2**63:
            raise TraceFormatError("n_steps and n_seqs must be at most 2**63, the int64 id range")
        size = header.n_layers * header.n_heads * header.d_head
        if size > MAX_ANCHOR_VALUES:
            raise TraceFormatError(
                f"n_layers * n_heads * d_head is {size}, above the cap of {MAX_ANCHOR_VALUES}")
        n_events = _whole(obj["n_events"], "n_events")
        if n_events < 0:
            raise TraceFormatError("n_events must be non-negative")
        return header, (header.n_seqs, header.n_steps, header.n_layers), n_events
    except TraceFormatError as exc:
        raise TraceFormatError(f"line 1: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceFormatError(f"line 1: malformed header ({exc!r})") from exc


def _checked_attn(kv, rows, cols, n_heads: int, start: int) -> list:
    """Check the values of a chunk of events and return each event's
    attention row, a view into rows, or None.

    kv is the chunk's (m, 2, n_heads, d_head) K/V, rows its attention rows
    back to back in one flat float32 array, and cols its column counts in
    the id table, -1 for an event without a row. The values are checked by
    one isfinite over the K/V, one isfinite and one >= 0 over the rows, and
    one row sum per run of consecutive events with the same width. A row sum
    over an (m, H, L) block equals each event's own attn.sum(axis=1) bit for
    bit; np.add.reduceat or a float64 sum would group the additions
    differently and could flip a row near the 1e-5 tolerance. A chunk that
    fails is checked again event by event, and the error names the first bad
    one, start being the index of the chunk's first event."""
    widths = cols.tolist()
    attn = [None] * len(widths)
    blocks = []
    offset = 0
    with_attn = (i for i, width in enumerate(widths) if width >= 0)
    for width, run in groupby(with_attn, key=widths.__getitem__):
        members = list(run)
        size = len(members) * n_heads * width
        block = rows[offset:offset + size].reshape(len(members), n_heads, width)
        offset += size
        blocks.append(block)
        for i, row in zip(members, block):
            attn[i] = row
    ok = np.isfinite(kv).all() and np.isfinite(rows).all() and (rows >= 0).all()
    if ok and blocks:
        sums = np.concatenate([b.sum(axis=-1).ravel() for b in blocks])
        ok = not (np.abs(sums - 1.0) > 1e-5).any()
    if not ok:
        _raise_first_fault(start, kv, attn)
    return attn


def _raise_first_fault(start: int, kv, attn) -> None:
    """Check a chunk's values event by event and raise for the first bad one."""
    for i, ((k, v), a) in enumerate(zip(kv, attn), start):
        for name, arr in (("k", k), ("v", v), ("attn", a)):
            if arr is not None and not np.isfinite(arr).all():
                raise TraceFormatError(f"event {i}: {name} values must be finite")
        if a is not None and (np.any(a < 0) or np.any(np.abs(a.sum(axis=1) - 1.0) > 1e-5)):
            raise TraceFormatError(f"event {i}: attn rows must be non-negative and sum to 1")


def _checked_ids(body, n: int, limits) -> np.ndarray:
    """The (m, 4) id table at the start of body, m = n or the whole rows
    body holds if fewer. Raise for the first row whose ids lie outside the
    header's ranges or out of order, or whose column count is below -1."""
    m = min(n, len(body) // _ID_ROW)
    ids = np.frombuffer(body, dtype="<i8", count=4 * m).reshape(m, 4)
    i = _first_bad_id(ids, limits)
    if i < m:
        _check_ids(tuple(ids[i, :3].tolist()), limits, i)
        if ids[i, 3] < -1:
            raise TraceFormatError(f"event {i}: attn column count {ids[i, 3]} is below -1")
        raise TraceFormatError(f"event {i}: events out of (seq, step, layer) order")
    return ids


def _row_columns(size: int, n: int, n_heads: int, d_head: int, cols) -> list[int]:
    """Where each event's attention row starts among the rows, counted in
    columns of n_heads values, then where the last one ends. Raise unless a
    body of size bytes holds exactly the id table, the K/V block and the
    rows of n events whose column counts are cols."""
    table = _ID_ROW * n
    rows_start = table + 8 * n_heads * d_head * n
    if size < table:
        raise TraceFormatError(f"event {size // _ID_ROW}: body truncated in its id row")
    if size < rows_start:
        raise TraceFormatError(
            f"event {(size - table) // (8 * n_heads * d_head)}: body truncated in its K/V")
    # Each count is capped just past the columns the body has room for, so
    # the sums cannot wrap before they first pass that room.
    room = (size - rows_start) // (4 * n_heads)
    ends = np.cumsum(np.minimum(np.maximum(cols, 0), room + 1))
    past = ends > room
    if past.any():
        raise TraceFormatError(f"event {int(np.argmax(past))}: body truncated in its attn row")
    end = rows_start + 4 * n_heads * (int(ends[-1]) if n else 0)
    if size > end:
        raise TraceFormatError(
            f"event {n}: body holds {size - end} bytes past the header's {n} events")
    return [0] + ends.tolist()


def _read_body(fh, obj) -> tuple[TraceHeader, list[TraceEvent]]:
    """Read the body, fh just past its header line obj. The checks
    run in this order, and the first to fail raises: the header (naming line
    1), the id table (naming its first bad row), the body's length (naming
    the event it ends in, or if longer the first event past n_events), then
    the values, chunk by chunk (naming the first bad event)."""
    header, limits, n = _parse_header(obj)
    n_heads, d_head = header.n_heads, header.d_head
    body = bytearray(max(0, os.fstat(fh.fileno()).st_size - fh.tell()))
    del body[fh.readinto(body):]
    ids = _checked_ids(body, n, limits)
    columns = _row_columns(len(body), n, n_heads, d_head, ids[:, 3])
    if not n:
        return header, []
    kv_start = _ID_ROW * n
    kv = np.frombuffer(body, dtype="<f4", count=2 * n_heads * d_head * n,
                       offset=kv_start).reshape(n, 2, n_heads, d_head)
    rows = np.frombuffer(body, dtype="<f4", offset=kv_start + kv.nbytes)
    # The id columns, not one list per event.
    seqs, steps, layers = ids[:, :3].T.tolist()
    events: list[TraceEvent] = []
    for start in range(0, n, READ_CHUNK):
        stop = min(start + READ_CHUNK, n)
        chunk_kv = kv[start:stop]
        attn = _checked_attn(chunk_kv, rows[n_heads * columns[start]:n_heads * columns[stop]],
                             ids[start:stop, 3], n_heads, start)
        events += map(TraceEvent, seqs[start:stop], steps[start:stop], layers[start:stop],
                      chunk_kv[:, 0], chunk_kv[:, 1], attn)
    return header, events


def read_trace(path) -> tuple[TraceHeader, list[TraceEvent]]:
    """Read and validate a trace file of format version 3: dimensions fixed
    by the header, ids inside the header's ranges, events ordered by
    (seq, step, layer), values finite, attention rows normalized.

    The events' k, v and attn are writable float32 views. An error names
    line 1 for a fault in the header line, a file of another format version
    among them, or else the first bad event of the body."""
    with open(path, "rb") as fh:
        return _read_body(fh, _header_object(fh.readline()))


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

    A bad argument raises ConfigError, naming it: a non-finite noise,
    q_scale, t0, decay, sink_gain, key_noise or value_noise among them, and a
    negative noise, sink_gain, sink_count, key_noise or value_noise. So does
    a trace of more than MAX_TRACE_VALUES float32 values, before any is
    allocated.
    """
    if pattern not in PATTERNS:
        raise ConfigError(f"pattern must be one of {PATTERNS}")
    if min(n_layers, n_heads, d_head, n_seqs) < 1 or n_steps < 0:
        raise ConfigError("invalid trace dimensions")
    if not 0.0 <= repeat_prob < 1.0:
        raise ConfigError("repeat_prob must be in [0, 1)")
    if dict_size < 1:
        raise ConfigError("dict_size must be positive")
    if not t0 > 0.0:
        raise ConfigError(f"t0 must be positive, got {t0!r}")
    if sink_count < 0:
        raise ConfigError(f"sink_count must be non-negative, got {sink_count!r}")
    # A NaN or negative key noise, value noise or sink gain fails a `> 0.0`
    # test below and would be dropped while the header records it; a
    # non-finite q_scale or decay would show only as a non-finite attention row.
    for name, value in (("noise", noise), ("q_scale", q_scale), ("t0", t0), ("decay", decay),
                        ("sink_gain", sink_gain), ("key_noise", key_noise),
                        ("value_noise", value_noise)):
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")
    for name, value in (("noise", noise), ("sink_gain", sink_gain), ("key_noise", key_noise),
                        ("value_noise", value_noise)):
        if value < 0.0:
            raise ConfigError(f"{name} must be non-negative, got {value!r}")

    # Each event's key and value, and with_attn its (n_heads, step + 1) row.
    values = 2 * n_seqs * n_layers * n_steps * n_heads * d_head
    if with_attn:
        values += n_seqs * n_layers * n_heads * n_steps * (n_steps + 1) // 2
    if values > MAX_TRACE_VALUES:
        raise ConfigError(f"the trace holds {values} float32 values, above the cap of "
                          f"{MAX_TRACE_VALUES}")

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
