"""KV trace files: recording, reading, and synthetic generation.

Traces decouple policy evaluation from the toy model: each event carries the
per-head key/value a token produced at one layer, plus (optionally) the exact
attention row its query produced over the cache, as ground truth for loss
proxies.

Format, version 3 (written and read): a JSON header line, then a binary body.
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

Format, version 2 (read only): NDJSON, one object per line. The first
non-blank line is the same header without n_events; each event is a line
  {"type": "event", "seq": int, "step": int, "layer": int,
   "k": array of shape [n_heads, d_head], "v": like k,
   "attn": array of shape [n_heads, cache_len] or null}
where an array is {"shape": [rows, cols], "f32": str}, f32 being the base64
of the rows * cols little-endian float32 values in row-major order.
write_trace(new, *read_trace(old)) rewrites a version 2 file as version 3.

In both versions events are ordered by (seq, step, layer), with
0 <= seq < n_seqs, 0 <= step < n_steps and 0 <= layer < n_layers; every value
is finite, and every attention row is non-negative and sums to 1 within
1e-5. generator_params is a free-form string map; recognized keys include
"n_seqs" (default 1), "prefill_steps" (positions that replay must treat as
prompt) and the synthesis parameters.

Both directions work READ_CHUNK events at a time. write_trace checks events
before it opens the file, so a rejected write creates no file and leaves an
existing one untouched, then writes the id table and each chunk's K/V and
rows. read_trace reads a version 3 body with one readinto, checks the whole
id table and the body's length, then each chunk's values in a few NumPy
calls; it checks a version 2 file's lines as it reads them, and their values
a chunk at a time. The events it returns hold writable float32 views into
the bytes read, and no two of their k, v and attn overlap.
"""

from __future__ import annotations

import base64
import json
import os
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .numerics import softmax, substream
from .policy import ConfigError

FORMAT_VERSION = 3
SOURCES = ("toy_model", "synthetic", "external")
PATTERNS = ("repetitive", "random", "depth_concentrated")
# Events per chunk: read_trace checks values and write_trace checks
# finiteness and writes this many events at a time.
READ_CHUNK = 64
_IDS = ("seq", "step", "layer")
_ID_ROW = 32   # bytes per row of the version 3 id table


class TraceFormatError(ValueError):
    """Malformed or inconsistent trace file. The message names the line of
    the header or of a version 2 record, or the index of the event in a
    version 3 body or in write_trace's input."""


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


@dataclass
class TraceEvent:
    seq: int
    step: int
    layer: int
    k: np.ndarray
    v: np.ndarray
    attn: np.ndarray | None = None


def _f32(arrays) -> np.ndarray:
    """The arrays' values, each in row-major order, back to back in one
    little-endian float32 array, cast as np.asarray(a, "<f4") casts."""
    return np.concatenate(arrays, axis=None, dtype="<f4", casting="unsafe")


def _decode_f32(obj, name, lineno) -> tuple[int, int, bytes]:
    """Decode one version 2 array, a shape and base64 float32 bytes, to
    (rows, cols, little-endian float32 bytes)."""
    try:
        rows, cols = obj["shape"]
        data = base64.b64decode(obj["f32"], validate=True)
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceFormatError(f"line {lineno}: {name} must be a 2-D float32 array") from exc
    # JSON integers only: a fraction, string or boolean is never coerced into a size.
    if type(rows) is not int or type(cols) is not int:
        raise TraceFormatError(f"line {lineno}: {name} must be a 2-D float32 array")
    if min(rows, cols) < 0 or len(data) != 4 * rows * cols:
        raise TraceFormatError(
            f"line {lineno}: {name} holds {len(data)} bytes, not shape [{rows}, {cols}]")
    return rows, cols, data


def _check_ids(key, limits, where: str, index: int) -> None:
    """Each of (seq, step, layer) must be an int inside [0, limit): a
    fraction, string or boolean is never truncated or coerced into an id."""
    seq, step, layer = key
    n_seqs, n_steps, n_layers = limits
    if (type(seq) is int and type(step) is int and type(layer) is int
            and 0 <= seq < n_seqs and 0 <= step < n_steps and 0 <= layer < n_layers):
        return
    for name, value, limit in zip(_IDS, key, limits):
        if type(value) is not int:
            raise TraceFormatError(
                f"{where} {index}: {name} must be an integer, got {value!r}")
        if not 0 <= value < limit:
            raise TraceFormatError(
                f"{where} {index}: {name} {value} outside the header's range [0, {limit})")


def _check_layout(e, i: int, key, limits, expected: tuple) -> None:
    """Raise for the first fault that _parse_event would report for event i,
    one of whose arrays has the wrong shape, in _parse_event's order."""
    for name, arr in (("k", e.k), ("v", e.v)):
        if arr.ndim != 2:
            raise TraceFormatError(f"event {i}: {name} must be a 2-D float32 array")
    _check_ids(key, limits, "event", i)
    if e.k.shape != expected or e.v.shape != expected:
        shape = e.k.shape if e.k.shape != expected else e.v.shape
        raise TraceFormatError(f"event {i}: K/V shape {shape} does not match header {expected}")
    if e.attn.ndim != 2:
        raise TraceFormatError(f"event {i}: attn must be a 2-D float32 array")
    raise TraceFormatError(f"event {i}: attn head count mismatch")


def _check_events(header: TraceHeader, events: list) -> None:
    """Raise TraceFormatError, with read_trace's message, naming the first
    event that read_trace would reject for its ids, order or shapes, or for a
    k, v or attn value that is not finite once cast to float32. Attention row
    sums go unchecked: that costs about three times the shape and order checks."""
    limits = n_seqs, n_steps, n_layers = (header.n_seqs, header.n_steps, header.n_layers)
    expected = (header.n_heads, header.d_head)
    last_key = None
    for start in range(0, len(events), READ_CHUNK):
        chunk = events[start:start + READ_CHUNK]
        # One check over the whole chunk, cast as write_trace casts.
        finite = np.isfinite(_f32(
            [a for e in chunk for a in ((e.k, e.v) if e.attn is None else (e.k, e.v, e.attn))]
        )).all()
        for i, e in enumerate(chunk, start):
            key = seq, step, layer = (e.seq, e.step, e.layer)
            if (e.k.shape != expected or e.v.shape != expected
                    or (e.attn is not None and (e.attn.ndim != 2
                                                or e.attn.shape[0] != expected[0]))):
                _check_layout(e, i, key, limits, expected)
            # The id table needs the type check: it would store True as 1
            # and the string "0" as 0. _check_ids is called only for a bad
            # key, to raise with its message.
            if not (type(seq) is int and type(step) is int and type(layer) is int
                    and 0 <= seq < n_seqs and 0 <= step < n_steps and 0 <= layer < n_layers):
                _check_ids(key, limits, "event", i)
            if last_key is not None and key <= last_key:
                raise TraceFormatError(f"event {i}: events out of (seq, step, layer) order")
            last_key = key
            if not finite:
                for name, arr in (("k", e.k), ("v", e.v), ("attn", e.attn)):
                    if arr is not None and not np.isfinite(np.asarray(arr, dtype="<f4")).all():
                        raise TraceFormatError(f"event {i}: {name} values must be finite")


def write_trace(path, header: TraceHeader, events) -> int:
    """Write header + events in format version 3; returns the number of
    events written.

    Every event is checked first (see _check_events): a bad one raises
    TraceFormatError naming its index, and then no file is created and an
    existing one is left as it was. After the header line and the id table,
    the K/V block and then the rows are written READ_CHUNK events at a
    time, one write per chunk."""
    events = list(events)
    _check_events(header, events)
    ids = np.array([(e.seq, e.step, e.layer, -1 if e.attn is None else e.attn.shape[1])
                    for e in events], dtype="<i8").reshape(len(events), 4)
    chunks = [events[start:start + READ_CHUNK] for start in range(0, len(events), READ_CHUNK)]
    with open(path, "wb") as fh:
        fh.write(json.dumps({
            "type": "header",
            "format_version": FORMAT_VERSION,
            "n_layers": header.n_layers,
            "n_heads": header.n_heads,
            "d_head": header.d_head,
            "n_steps": header.n_steps,
            "n_events": len(events),
            "source": header.source,
            "generator_params": {str(k): str(v) for k, v in header.generator_params.items()},
        }).encode("ascii"))
        fh.write(b"\n")
        fh.write(ids)
        for chunk in chunks:
            fh.write(_f32([a for e in chunk for a in (e.k, e.v)]))
        for chunk in chunks:
            rows = [e.attn for e in chunk if e.attn is not None]
            if rows:
                fh.write(_f32(rows))
    return len(events)


def _whole(value, name: str, text: bool = False) -> int:
    """A header count as an int: a JSON integer or integral number, or with
    text a string of one. A fraction, a boolean or (without text) a string
    is an error, never truncated or coerced."""
    if text and isinstance(value, str):
        return int(value)
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise TraceFormatError(f"{name} must be an integer, got {value!r}")


def _parse_header(obj, lineno, version) -> tuple[TraceHeader, tuple[int, int, int], int]:
    """The header, the exclusive upper bounds of (seq, step, layer), and
    the event count (version 3 only; 0 for version 2)."""
    found = obj.get("format_version")
    # The JSON integer only: == alone would take 2.0 for 2.
    if type(found) is not int or found != version:
        raise TraceFormatError(f"line {lineno}: unsupported format_version {found}")
    try:
        header = TraceHeader(
            n_layers=_whole(obj["n_layers"], "n_layers"),
            n_heads=_whole(obj["n_heads"], "n_heads"),
            d_head=_whole(obj["d_head"], "d_head"),
            n_steps=_whole(obj["n_steps"], "n_steps"),
            source=obj["source"], generator_params=dict(obj.get("generator_params", {})),
        )
        if header.prefill_steps < 0:
            raise TraceFormatError("prefill_steps must be non-negative")
        n_events = _whole(obj["n_events"], "n_events") if version == FORMAT_VERSION else 0
        if n_events < 0:
            raise TraceFormatError("n_events must be non-negative")
        return header, (header.n_seqs, header.n_steps, header.n_layers), n_events
    except TraceFormatError as exc:
        raise TraceFormatError(f"line {lineno}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceFormatError(f"line {lineno}: malformed header ({exc!r})") from exc


def _check_utf8(line: str, lineno: int) -> None:
    """A line read with surrogateescape holds a lone surrogate for each byte
    that is not UTF-8; such a line cannot be encoded back."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        raise TraceFormatError(f"line {lineno}: not UTF-8 text") from None


def _record(line: str, lineno: int) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
    if not isinstance(obj, dict):
        raise TraceFormatError(f"line {lineno}: record must be a JSON object")
    return obj


def _parse_event(obj, lineno, header, limits, last_key) -> tuple:
    """The per-line checks of one version 2 event record, in order: record
    type, ids, K/V shape, attn head count and event order. Returns (lineno,
    key, k bytes, v bytes, attn cols or None, attn bytes or None);
    _chunk_events checks the values."""
    kind = obj.get("type")
    if kind != "event":
        raise TraceFormatError(f"line {lineno}: unknown record type {kind!r}")
    try:
        key = (obj["seq"], obj["step"], obj["layer"])
        k_obj, v_obj = obj["k"], obj["v"]
    except KeyError as exc:
        raise TraceFormatError(f"line {lineno}: malformed event ({exc!r})") from exc
    k_rows, k_cols, k = _decode_f32(k_obj, "k", lineno)
    v_rows, v_cols, v = _decode_f32(v_obj, "v", lineno)
    _check_ids(key, limits, "line", lineno)
    expected = (header.n_heads, header.d_head)
    if (k_rows, k_cols) != expected or (v_rows, v_cols) != expected:
        shape = (k_rows, k_cols) if (k_rows, k_cols) != expected else (v_rows, v_cols)
        raise TraceFormatError(
            f"line {lineno}: K/V shape {shape} does not match header {expected}")
    cols = data = None
    if obj.get("attn") is not None:
        rows, cols, data = _decode_f32(obj["attn"], "attn", lineno)
        if rows != header.n_heads:
            raise TraceFormatError(f"line {lineno}: attn head count mismatch")
    if last_key is not None and key <= last_key:
        raise TraceFormatError(f"line {lineno}: events out of (seq, step, layer) order")
    return lineno, key, k, v, cols, data


def _checked_attn(kv, rows, widths: list, n_heads: int, where) -> list:
    """Check the values of a chunk of events and return each event's
    attention row, a view into rows, or None.

    kv is the chunk's (m, 2, n_heads, d_head) K/V, rows its attention rows
    back to back in one flat float32 array, and widths each event's column
    count, None for an event without a row. The values are checked by one
    isfinite over the K/V, one isfinite and one >= 0 over the rows, and one
    row sum per run of consecutive events with the same width. A row sum
    over an (m, H, L) block equals each event's own attn.sum(axis=1) bit for
    bit; np.add.reduceat or a float64 sum would group the additions
    differently and could flip a row near the 1e-5 tolerance. A chunk that
    fails is checked again event by event, and the error names the first
    bad one as where(j), j its index in the chunk."""
    attn = [None] * len(widths)
    blocks = []
    offset = 0
    with_attn = (i for i, cols in enumerate(widths) if cols is not None)
    for cols, run in groupby(with_attn, key=widths.__getitem__):
        members = list(run)
        size = len(members) * n_heads * cols
        block = rows[offset:offset + size].reshape(len(members), n_heads, cols)
        offset += size
        blocks.append(block)
        for i, row in zip(members, block):
            attn[i] = row
    ok = np.isfinite(kv).all() and np.isfinite(rows).all() and (rows >= 0).all()
    if ok and blocks:
        sums = np.concatenate([b.sum(axis=-1).ravel() for b in blocks])
        ok = not (np.abs(sums - 1.0) > 1e-5).any()
    if not ok:
        _raise_first_fault(where, kv, attn)
    return attn


def _raise_first_fault(where, kv, attn) -> None:
    """Check a chunk's values one event at a time and raise for the first
    bad one."""
    for j, (pair, a) in enumerate(zip(kv, attn)):
        if not np.isfinite(pair).all():
            raise TraceFormatError(f"{where(j)}: K/V values must be finite")
        if a is not None:
            if not np.isfinite(a).all():
                raise TraceFormatError(f"{where(j)}: attn values must be finite")
            if np.any(a < 0) or np.any(np.abs(a.sum(axis=1) - 1.0) > 1e-5):
                raise TraceFormatError(
                    f"{where(j)}: attn rows must be non-negative and sum to 1")


def _chunk_events(header: TraceHeader, pending: list) -> list[TraceEvent]:
    """Check the values of a chunk of parsed version 2 event lines, then
    build their events. The chunk's K/V is one float32 array and its
    attention rows another, each made from the lines' bytes in one join; a
    failing chunk's error names its first bad line."""
    if not pending:
        return []
    kv = np.frombuffer(bytearray().join([b for p in pending for b in (p[2], p[3])]),
                       dtype="<f4").reshape(len(pending), 2, header.n_heads, header.d_head)
    rows = np.frombuffer(bytearray().join([p[5] for p in pending if p[4] is not None]),
                         dtype="<f4")
    attn = _checked_attn(kv, rows, [p[4] for p in pending], header.n_heads,
                         lambda j: f"line {pending[j][0]}")
    return [TraceEvent(*p[1], k, v, a) for p, k, v, a in zip(pending, kv[:, 0], kv[:, 1], attn)]


def _read_lines(path) -> tuple[TraceHeader, list[TraceEvent]]:
    """Read a version 2 file. An error names the first bad line: before a
    line's own error is raised, the chunk read so far is checked, so an
    earlier line's bad value is named first. A line that is not UTF-8 text
    is malformed like one that is not JSON."""
    header = None
    events: list[TraceEvent] = []
    pending: list[tuple] = []
    last_key = None
    # surrogateescape keeps universal newlines and turns each byte that is
    # not UTF-8 into a lone surrogate in its own line; isascii() (O(1) on
    # ASCII text) spares every all-ASCII line the encode check.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                if not line.isascii():
                    _check_utf8(line, lineno)
                obj = _record(line, lineno)
                if header is None:
                    if obj.get("type") != "header":
                        raise TraceFormatError(f"line {lineno}: first record must be the header")
                    header, limits, _ = _parse_header(obj, lineno, 2)
                    continue
                parsed = _parse_event(obj, lineno, header, limits, last_key)
            except TraceFormatError:
                _chunk_events(header, pending)
                raise
            last_key = parsed[1]
            pending.append(parsed)
            if len(pending) == READ_CHUNK:
                events += _chunk_events(header, pending)
                pending = []
    if header is None:
        raise TraceFormatError("line 1: empty trace file")
    events += _chunk_events(header, pending)
    return header, events


def _checked_ids(body, n: int, limits) -> np.ndarray:
    """The (m, 4) id table at the start of body, m = n or the whole rows
    body holds if fewer. Raise for the first row whose ids lie outside the
    header's ranges or out of order, or whose column count is below -1."""
    m = min(n, len(body) // _ID_ROW)
    ids = np.frombuffer(body, dtype="<i8", count=4 * m).reshape(m, 4)
    seq, step, layer, cols = ids.T
    n_seqs, n_steps, n_layers = limits
    ok = ((seq >= 0) & (seq < n_seqs) & (step >= 0) & (step < n_steps)
          & (layer >= 0) & (layer < n_layers) & (cols >= -1))
    ok[1:] &= ((seq[1:] > seq[:-1])
               | (seq[1:] == seq[:-1]) & ((step[1:] > step[:-1])
                                          | (step[1:] == step[:-1]) & (layer[1:] > layer[:-1])))
    if not ok.all():
        i = int(np.argmin(ok))
        _check_ids(tuple(ids[i, :3].tolist()), limits, "event", i)
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
    """Read a version 3 body, fh just past its header line obj. The checks
    run in this order, and the first to fail raises: the header (naming line
    1), the id table (naming its first bad row), the body's length (naming
    the event it ends in, or if longer the first event past n_events), then
    the values, chunk by chunk (naming the first bad event)."""
    header, limits, n = _parse_header(obj, 1, FORMAT_VERSION)
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
    keys = ids[:, :3].tolist()
    widths = [None if c < 0 else c for c in ids[:, 3].tolist()]
    events: list[TraceEvent] = []
    for start in range(0, n, READ_CHUNK):
        stop = min(start + READ_CHUNK, n)
        chunk_kv = kv[start:stop]
        attn = _checked_attn(chunk_kv, rows[n_heads * columns[start]:n_heads * columns[stop]],
                             widths[start:stop], n_heads,
                             lambda j, start=start: f"event {start + j}")
        events += [TraceEvent(*key, k, v, a) for key, k, v, a
                   in zip(keys[start:stop], chunk_kv[:, 0], chunk_kv[:, 1], attn)]
    return header, events


def _v3_header(line: bytes) -> dict | None:
    """The header object of line if it is a version 3 header, else None."""
    try:
        obj = json.loads(line)
    except ValueError:
        return None
    if not isinstance(obj, dict) or obj.get("type") != "header":
        return None
    version = obj.get("format_version")
    return obj if type(version) is int and version == FORMAT_VERSION else None


def read_trace(path) -> tuple[TraceHeader, list[TraceEvent]]:
    """Read and validate a trace file of format version 3 or 2: dimensions
    fixed by the header, ids inside the header's ranges, events ordered by
    (seq, step, layer), values finite, attention rows normalized.

    A file whose first line is a version 3 header is read as version 3; any
    other is read as version 2. The events' k, v and attn are writable
    float32 views. An error names the first bad line of a version 2 file,
    or the header's line or the first bad event of a version 3 file."""
    with open(path, "rb") as fh:
        obj = _v3_header(fh.readline())
        if obj is not None:
            return _read_body(fh, obj)
    return _read_lines(path)


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

    A bad argument raises ConfigError.
    """
    if pattern not in PATTERNS:
        raise ConfigError(f"pattern must be one of {PATTERNS}")
    if min(n_layers, n_heads, d_head, n_seqs) < 1 or n_steps < 0:
        raise ConfigError("invalid trace dimensions")
    if not 0.0 <= repeat_prob < 1.0:
        raise ConfigError("repeat_prob must be in [0, 1)")
    if dict_size < 1:
        raise ConfigError("dict_size must be positive")

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
