"""The trace file format: the version 3 layout write_trace writes, the
checks read_trace applies to it, and the same checks write_trace applies
before it replaces a file."""

import dataclasses
import json
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tokenskip.cli import main
from tokenskip.model import DecodeSession, ModelConfig
from tokenskip.policy import PruneConfig
from tokenskip.trace import (
    MAX_ANCHOR_VALUES,
    PATTERNS,
    READ_CHUNK,
    SOURCES,
    TraceEvent,
    TraceFormatError,
    TraceHeader,
    TraceRecorder,
    read_trace,
    synthesize,
    write_trace,
)


def _v3_header(header, n_events):
    return {
        "type": "header", "format_version": 3, "n_layers": header.n_layers,
        "n_heads": header.n_heads, "d_head": header.d_head, "n_steps": header.n_steps,
        "n_events": n_events, "source": header.source,
        "generator_params": {str(k): str(v) for k, v in header.generator_params.items()},
    }


def write_v3_sections(path, head, ids, kv, rows, tail=b""):
    """A version 3 file from its header object and body arrays, unchecked."""
    path.write_bytes(json.dumps(head).encode() + b"\n" + np.asarray(ids, "<i8").tobytes()
                     + np.asarray(kv, "<f4").tobytes() + np.asarray(rows, "<f4").tobytes() + tail)


def write_v3_raw(path, header, events):
    """Write a format version 3 trace, as laid out in the trace module's
    docstring, with plain NumPy and no checks: the reference for
    write_trace's bytes, and the way to build files that hold bad events,
    which write_trace refuses to write."""
    f32 = [np.ascontiguousarray(a, dtype="<f4") for e in events for a in (e.k, e.v)]
    rows = [np.ascontiguousarray(e.attn, dtype="<f4") for e in events if e.attn is not None]
    write_v3_sections(
        path, _v3_header(header, len(events)),
        [(e.seq, e.step, e.layer, -1 if e.attn is None else np.shape(e.attn)[1]) for e in events],
        np.concatenate([a.ravel() for a in f32]) if f32 else [],
        np.concatenate([a.ravel() for a in rows]) if rows else [])
    return len(events)


def v3_sections(path):
    """A version 3 file's header object, and writable copies of its body's
    id table, K/V block and rows, read by the documented layout."""
    head, body = path.read_bytes().split(b"\n", 1)
    head = json.loads(head)
    n, h, d = head["n_events"], head["n_heads"], head["d_head"]
    ids = np.frombuffer(body, "<i8", count=4 * n).reshape(n, 4).copy()
    kv = np.frombuffer(body, "<f4", count=2 * n * h * d, offset=32 * n).reshape(n, 2, h, d).copy()
    rows = np.frombuffer(body, "<f4", offset=32 * n + 8 * n * h * d).copy()
    return head, ids, kv, rows


DATA = Path(__file__).parent / "data" / "repetitive.trace"


def bits(arr):
    return np.ascontiguousarray(arr, dtype=np.float32).view(np.uint32)


def assert_same_events(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert (x.seq, x.step, x.layer) == (y.seq, y.step, y.layer)
        np.testing.assert_array_equal(bits(x.k), bits(y.k))
        np.testing.assert_array_equal(bits(x.v), bits(y.v))
        assert (x.attn is None) == (y.attn is None)
        if x.attn is not None:
            np.testing.assert_array_equal(bits(x.attn), bits(y.attn))


class TestVersion3Layout:
    def test_body_is_the_id_table_then_kv_then_rows(self, tmp_path):
        header, events = synthesize("repetitive", 2, 3, 4, 3, seed=1)
        events[4] = dataclasses.replace(events[4], attn=None)
        path = tmp_path / "t.trace"
        write_trace(path, header, events)
        head, ids, kv, rows = v3_sections(path)
        assert (head["format_version"], head["n_events"]) == (3, len(events))
        widths = [-1 if e.attn is None else e.attn.shape[1] for e in events]
        np.testing.assert_array_equal(
            ids, [(e.seq, e.step, e.layer, w) for e, w in zip(events, widths)])
        np.testing.assert_array_equal(bits(kv), bits([(e.k, e.v) for e in events]))
        np.testing.assert_array_equal(
            bits(rows), bits(np.concatenate([e.attn.ravel() for e in events
                                             if e.attn is not None])))

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "t.trace"
        write_trace(path, *synthesize("random", 1, 1, 4, 1, seed=4))
        head, ids, kv, rows = v3_sections(path)
        head["format_version"] = 4
        write_v3_sections(path, head, ids, kv, rows)
        with pytest.raises(TraceFormatError, match="^line 1: unsupported format_version 4$"):
            read_trace(path)
        assert main(["replay", "--trace", str(path), "--out", str(tmp_path / "s.csv")]) == 2

    # Versions 0 to 2 are not read, and null stands for a missing version;
    # true is not the JSON integer 1, and 3.0 and "3" are not the JSON
    # integer 3.
    @pytest.mark.parametrize("version", [0, 1, True, 2.0, 3.0, "3", None])
    def test_other_versions_fail_at_the_header(self, tmp_path, version):
        path = tmp_path / "t.trace"
        write_trace(path, *synthesize("random", 1, 1, 4, 2, seed=2))
        head, ids, kv, rows = v3_sections(path)
        head["format_version"] = version
        write_v3_sections(path, head, ids, kv, rows)
        with pytest.raises(TraceFormatError, match="^line 1: unsupported format_version"):
            read_trace(path)
        assert main(["replay", "--trace", str(path), "--out", str(tmp_path / "s.csv")]) == 2

    # line 1: (its bytes given a valid header line, the message after "line 1: ")
    HEADER_LINES = {
        "bad_byte": (lambda line: line.replace(b'"type"', b'"ty\xffpe"', 1), "not UTF-8 text"),
        "invalid_json": (lambda line: b"{broken", r"invalid JSON \(Expecting property name"),
        "array": (lambda line: b"[1, 2]", "record must be a JSON object"),
        "string": (lambda line: b'"header"', "record must be a JSON object"),
        "event_record": (lambda line: b'{"type": "event", "seq": 0}',
                         "first record must be the header"),
    }

    @pytest.mark.parametrize("case", sorted(HEADER_LINES))
    def test_a_bad_header_line_fails_at_line_1(self, tmp_path, case):
        change, message = self.HEADER_LINES[case]
        path = tmp_path / "t.trace"
        write_trace(path, *synthesize("random", 1, 1, 4, 2, seed=2))
        line, body = path.read_bytes().split(b"\n", 1)
        path.write_bytes(change(line) + b"\n" + body)
        with pytest.raises(TraceFormatError, match=f"^line 1: {message}"):
            read_trace(path)
        assert main(["replay", "--trace", str(path), "--out", str(tmp_path / "s.csv")]) == 2

    def test_raw_utf8_text_in_generator_params_reads(self, tmp_path):
        header, events = synthesize("random", 1, 1, 4, 2, seed=2)
        path = tmp_path / "t.trace"
        write_trace(path, header, events)
        head, ids, kv, rows = v3_sections(path)
        head["generator_params"]["note"] = "café"
        line = json.dumps(head, ensure_ascii=False).encode("utf-8")
        assert "é".encode("utf-8") in line
        path.write_bytes(line + b"\n" + path.read_bytes().split(b"\n", 1)[1])
        got_header, got = read_trace(path)
        assert got_header.generator_params["note"] == "café"
        assert_same_events(got, events)

    def test_a_checked_in_file_reads(self):
        """tests/data/repetitive.trace holds this synthesize call's trace."""
        header, events = synthesize("repetitive", 2, 2, 4, 6, seed=11, n_seqs=2)
        got_header, got = read_trace(DATA)
        assert got_header == header
        assert_same_events(got, events)


def _corrupt(events, index, **changes):
    e = events[index]
    events[index] = TraceEvent(**{**dataclasses.asdict(e), **changes})
    return index


def _with_nan(arr, value=np.nan):
    out = np.array(arr, dtype=np.float32)
    out[0, -1] = value
    return out


class TestReadTraceRejects:
    """2 layers, 2 sequences, 3 steps: 12 events."""

    def _trace(self):
        return synthesize("repetitive", 2, 2, 4, 3, seed=6, n_seqs=2)

    CASES = {
        "nan_k": (0, lambda e: {"k": _with_nan(e.k)}, "k values must be finite"),
        "inf_v": (5, lambda e: {"v": _with_nan(e.v, np.inf)}, "v values must be finite"),
        "nan_attn": (7, lambda e: {"attn": _with_nan(e.attn)}, "attn values must be finite"),
        "layer_past_header": (11, lambda e: {"layer": 7}, "layer 7 outside"),
        "negative_seq": (0, lambda e: {"seq": -3}, "seq -3 outside"),
        "negative_step": (0, lambda e: {"step": -1}, "step -1 outside"),
        "negative_layer": (0, lambda e: {"layer": -1}, "layer -1 outside"),
        "step_past_header": (11, lambda e: {"step": 3}, "step 3 outside"),
        "seq_past_header": (11, lambda e: {"seq": 2}, "seq 2 outside"),
        "seq_goes_back": (11, lambda e: {"seq": 0}, r"events out of \(seq, step, layer\) order"),
        "repeated_key": (1, lambda e: {"layer": 0}, r"events out of \(seq, step, layer\) order"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bad_event_is_named(self, tmp_path, case):
        header, events = self._trace()
        index, change, message = self.CASES[case]
        _corrupt(events, index, **change(events[index]))
        path = tmp_path / "t.trace"
        write_v3_raw(path, header, events)
        with pytest.raises(TraceFormatError, match=f"^event {index}: {message}"):
            read_trace(path)

    def test_valid_trace_reads(self, tmp_path):
        header, events = self._trace()
        path = tmp_path / "t.trace"
        write_v3_raw(path, header, events)
        assert_same_events(read_trace(path)[1], events)

    @pytest.mark.parametrize("prefill_steps", ["abc", "-5", "1.5"])
    def test_bad_prefill_steps_rejected_at_the_header(self, tmp_path, prefill_steps):
        header, events = self._trace()
        params = {**header.generator_params, "prefill_steps": prefill_steps}
        path = tmp_path / "t.trace"
        write_v3_raw(path, dataclasses.replace(header, generator_params=params), events)
        with pytest.raises(TraceFormatError, match="line 1: "):
            read_trace(path)
        assert main(["replay", "--trace", str(path), "--out", str(tmp_path / "s.csv")]) == 2

    def _edited_header(self, tmp_path, edit):
        """A valid trace file whose header object edit() changed in place."""
        header, events = self._trace()
        path = tmp_path / "t.trace"
        write_trace(path, header, events)
        head, body = path.read_bytes().split(b"\n", 1)
        obj = json.loads(head)
        edit(obj)
        path.write_bytes(json.dumps(obj).encode() + b"\n" + body)
        return header, path

    # A fraction would truncate; true would read as 1 layer and "4" as
    # d_head 4; strings stay valid inside generator_params only.
    @pytest.mark.parametrize("field, value", [
        ("n_layers", 2.9), ("n_heads", 1.5), ("d_head", 4.5), ("n_steps", 3.5),
        ("n_layers", float("nan")), ("n_steps", float("inf")),
        ("prefill_steps", 2.7), ("n_seqs", 1.9),
        ("n_layers", True), ("n_heads", True), ("d_head", True), ("n_steps", True),
        ("n_layers", "2"), ("n_heads", "2"), ("d_head", "4"), ("n_steps", "3"),
        ("n_seqs", True), ("prefill_steps", False)])
    def test_non_integer_header_counts_are_rejected_not_coerced(self, tmp_path, field, value):
        def edit(obj):
            (obj["generator_params"] if field in ("prefill_steps", "n_seqs") else obj)[field] = value

        _, path = self._edited_header(tmp_path, edit)
        with pytest.raises(TraceFormatError,
                           match=f"^line 1: {field} must be an integer, got {value!r}$"):
            read_trace(path)
        assert main(["replay", "--trace", str(path), "--out", str(tmp_path / "s.csv")]) == 2

    # int() reads each of these as 2: spaces, an underscore, a plus sign,
    # an Arabic-Indic digit two.
    @pytest.mark.parametrize("value", [" 2 ", "0_2", "+2", "\u0662"])
    @pytest.mark.parametrize("field", ["n_seqs", "prefill_steps"])
    def test_a_count_string_must_be_plain_decimal(self, tmp_path, field, value):
        def edit(obj):
            obj["generator_params"][field] = value

        header, path = self._edited_header(tmp_path, edit)
        message = f"^line 1: {field} must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(TraceFormatError, match=message):
            read_trace(path)
        params = {**header.generator_params, field: value}
        out = tmp_path / "w.trace"
        with pytest.raises(TraceFormatError, match=message):
            write_trace(out, dataclasses.replace(header, generator_params=params),
                        self._trace()[1])
        assert not out.exists()

    # With events present, a negative n_seqs must fail at line 1, not at the
    # first event outside the range [0, n_seqs).
    def test_a_negative_n_seqs_is_refused_at_the_header(self, tmp_path):
        def edit(obj):
            obj["generator_params"]["n_seqs"] = "-1"

        _, path = self._edited_header(tmp_path, edit)
        with pytest.raises(TraceFormatError, match="^line 1: n_seqs must be non-negative$"):
            read_trace(path)

    @pytest.mark.parametrize("field", ["n_layers", "n_heads", "d_head", "n_steps", "n_events"])
    def test_integral_header_numbers_are_read(self, tmp_path, field):
        def edit(obj):
            obj[field] = float(obj[field])
            obj["generator_params"]["prefill_steps"] = 1

        header, path = self._edited_header(tmp_path, edit)
        got, events = read_trace(path)
        assert got == dataclasses.replace(
            header, generator_params={**header.generator_params, "prefill_steps": 1})
        assert (len(events), got.prefill_steps) == (12, 1)


# -- chunk boundaries ------------------------------------------------------------


def _long_trace():
    """2 layers x (READ_CHUNK + 1) steps: 2 * READ_CHUNK + 2 events, so event
    indices READ_CHUNK - 1 and READ_CHUNK straddle the first chunk boundary
    and the last event starts a third chunk."""
    return synthesize("repetitive", 2, 2, 4, READ_CHUNK + 1, seed=41)


def _scaled(arr, factor):
    out = np.array(arr, dtype=np.float32)
    out[0] *= np.float32(factor)
    return out


def _negated(arr):
    out = np.array(arr, dtype=np.float32)
    out[-1, 0] = -0.5
    return out


# kind: (the changes that make event i of events bad, the error message
# after "event i: ")
EDGE_FAULTS = {
    "nan_k": (lambda ev, i: {"k": _with_nan(ev[i].k)}, "k values must be finite"),
    "inf_v": (lambda ev, i: {"v": _with_nan(ev[i].v, np.inf)}, "v values must be finite"),
    "nan_attn": (lambda ev, i: {"attn": _with_nan(ev[i].attn)}, "attn values must be finite"),
    "negative_attn": (lambda ev, i: {"attn": _negated(ev[i].attn)},
                      "attn rows must be non-negative and sum to 1"),
    "unnormalized_attn": (lambda ev, i: {"attn": _scaled(ev[i].attn, 1.001)},
                          "attn rows must be non-negative and sum to 1"),
    "layer_past_header": (lambda ev, i: {"layer": 2}, "layer 2 outside"),
    "out_of_order": (lambda ev, i: {"seq": ev[i - 1].seq, "step": ev[i - 1].step,
                                    "layer": ev[i - 1].layer},
                     r"events out of \(seq, step, layer\) order"),
}
EDGE_INDICES = (0, READ_CHUNK - 1, READ_CHUNK, READ_CHUNK + 1, 2 * READ_CHUNK + 1)


def _write_with_faults(path, faults):
    """The long trace, written raw, with each event index in faults
    (index -> kind) made bad by that fault."""
    header, events = _long_trace()
    for index, kind in faults.items():
        _corrupt(events, index, **EDGE_FAULTS[kind][0](events, index))
    write_v3_raw(path, header, events)


class TestChunkEdges:
    """Faults at and around the boundaries of read_trace's chunks."""

    # The first event has no predecessor to be out of order with.
    @pytest.mark.parametrize("kind, index", [
        (kind, index) for kind in sorted(EDGE_FAULTS) for index in EDGE_INDICES
        if (kind, index) != ("out_of_order", 0)])
    def test_single_fault_names_its_event(self, tmp_path, kind, index):
        path = tmp_path / "t.trace"
        _write_with_faults(path, {index: kind})
        with pytest.raises(TraceFormatError, match=f"^event {index}: {EDGE_FAULTS[kind][1]}"):
            read_trace(path)

    # The whole id table is checked before any value, so of an id fault and
    # a value fault the id fault is named (test_ids_are_checked_before_values).
    @pytest.mark.parametrize("faults", [
        {10: "nan_k", READ_CHUNK + 30: "nan_attn"},                   # two value faults
        {20: "layer_past_header", READ_CHUNK + 5: "out_of_order"},    # two id faults
        {30: "unnormalized_attn", READ_CHUNK + 2: "inf_v"},
        {READ_CHUNK - 1: "negative_attn", READ_CHUNK: "nan_k"},       # across the boundary
    ])
    def test_of_two_faults_in_different_chunks_the_first_is_named(self, tmp_path, faults):
        path = tmp_path / "t.trace"
        _write_with_faults(path, faults)
        first = min(faults)
        with pytest.raises(TraceFormatError,
                           match=f"^event {first}: {EDGE_FAULTS[faults[first]][1]}"):
            read_trace(path)

    # Without rows at odd events, each row's neighbours in the rows array
    # are those of the even events two apart.
    @pytest.mark.parametrize("odd_rows", [True, False])
    def test_arrays_are_writable_float32_and_do_not_overlap(self, tmp_path, odd_rows):
        header, events = _long_trace()
        if not odd_rows:
            events = [e if i % 2 == 0 else dataclasses.replace(e, attn=None)
                      for i, e in enumerate(events)]
        path = tmp_path / "t.trace"
        write_trace(path, header, events)
        _, got = read_trace(path)
        _, fresh = read_trace(path)
        assert_same_events(got, events)
        arrays = [arr for e in got for arr in (e.k, e.v, e.attn) if arr is not None]
        for arr in arrays:
            assert arr.dtype == np.float32 and arr.flags.writeable
        # Sorted by address, each array ends before the next one starts.
        spans = sorted((a.ctypes.data, a.ctypes.data + a.nbytes) for a in arrays)
        assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))
        edited = (0, READ_CHUNK - 1, READ_CHUNK, len(got) - 1)
        for i in edited:
            got[i].k[...] = 7.0
            got[i].v[...] = 8.0
            if got[i].attn is not None:
                got[i].attn[...] = 9.0
        for i, (a, b) in enumerate(zip(got, fresh)):
            if i in edited:
                assert (a.k == 7.0).all() and (a.v == 8.0).all()
                assert a.attn is None or (a.attn == 9.0).all()
            else:
                assert_same_events([a], [b])


@settings(max_examples=100, deadline=None)
@given(m=st.integers(1, 6), heads=st.integers(1, 4), cols=st.integers(1, 300),
       lead=st.integers(0, 7), seed=st.integers(0, 2**32 - 1))
def test_run_stacked_row_sums_equal_per_event_sums_bitwise(m, heads, cols, lead, seed):
    """read_trace sums the rows of m same-shape events as one (m, H, L) block
    of the body's bytes, at any offset in it; each event's sums must equal
    its own array's attn.sum(axis=1) bit for bit."""
    rng = np.random.default_rng(seed)
    rows = [rng.random((heads, cols), dtype=np.float32) for _ in range(m)]
    joined = bytearray().join([b"\0" * 4 * lead] + [r.tobytes() for r in rows])
    block = np.frombuffer(joined, dtype="<f4")[lead:].reshape(m, heads, cols)
    sums = block.sum(axis=-1)
    for r, s in zip(rows, sums):
        np.testing.assert_array_equal(bits(s), bits(r.sum(axis=1)))


# A drift of 1e-5 give or take a few float32 ulps of 1.0 (1.2e-7 each).
near_tolerance = st.tuples(st.sampled_from([-1e-5, 1e-5]), st.floats(-4e-7, 4e-7)).map(sum)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 5), cols=st.integers(1, 200),
       drift=st.lists(near_tolerance, min_size=5, max_size=5),
       seed=st.integers(0, 2**32 - 1))
def test_rows_near_the_tolerance_are_judged_as_one_event_would_be(m, cols, drift, seed):
    """Rows whose sums sit within a few ulps of 1 +- 1e-5: read_trace and
    write_trace both refuse the trace exactly when one of its events fails
    the check on its own row sums, and name that event."""
    rng = np.random.default_rng(seed)
    events = []
    for step in range(m):
        w = rng.random((2, cols)) + 1e-3
        attn = (w / w.sum(axis=1, keepdims=True) * (1.0 + drift[step])).astype(np.float32)
        events.append(TraceEvent(seq=0, step=step, layer=0, k=np.zeros((2, 4), np.float32),
                                 v=np.zeros((2, 4), np.float32), attn=attn))
    header = TraceHeader(n_layers=1, n_heads=2, d_head=4, n_steps=m, source="synthetic",
                         generator_params={})
    bad = [i for i, e in enumerate(events)
           if np.any(np.abs(e.attn.sum(axis=1) - 1.0) > 1e-5)]
    with tempfile.TemporaryDirectory() as tmp:
        raw, path = Path(tmp) / "raw.trace", Path(tmp) / "t.trace"
        write_v3_raw(raw, header, events)
        if bad:
            for call in (lambda: read_trace(raw), lambda: write_trace(path, header, events)):
                with pytest.raises(TraceFormatError, match=f"^event {bad[0]}: attn rows"):
                    call()
            assert not path.exists()
        else:
            write_trace(path, header, events)
            assert path.read_bytes() == raw.read_bytes()
            assert_same_events(read_trace(path)[1], events)


# -- property tests --------------------------------------------------------------

# Every finite float32, including -0.0, +0.0 and subnormals.
finite_f32 = st.floats(width=32, allow_nan=False, allow_infinity=False, allow_subnormal=True)
param_text = st.text(max_size=8)


@st.composite
def traces(draw):
    n_layers = draw(st.integers(1, 3))
    n_heads = draw(st.integers(1, 3))
    d_head = draw(st.integers(1, 4))
    n_steps = draw(st.integers(1, 4))
    n_seqs = draw(st.integers(1, 2))
    params = draw(st.dictionaries(param_text, param_text, max_size=3))
    params["n_seqs"] = str(n_seqs)
    header = TraceHeader(n_layers=n_layers, n_heads=n_heads, d_head=d_head, n_steps=n_steps,
                         source=draw(st.sampled_from(SOURCES)), generator_params=params)
    keys = sorted(draw(st.sets(st.tuples(st.integers(0, n_seqs - 1),
                                         st.integers(0, n_steps - 1),
                                         st.integers(0, n_layers - 1)), max_size=6)))
    kv = st.lists(finite_f32, min_size=n_heads * d_head, max_size=n_heads * d_head).map(
        lambda xs: np.array(xs, dtype=np.float32).reshape(n_heads, d_head))
    events = []
    for seq, step, layer in keys:
        attn = None
        if draw(st.booleans()):
            cols = draw(st.integers(1, 5))
            weights = draw(st.lists(st.floats(0.0, 1.0, width=32, allow_subnormal=True),
                                    min_size=n_heads * cols, max_size=n_heads * cols))
            w = np.array(weights, dtype=np.float64).reshape(n_heads, cols)
            w[:, 0] += 1e-3   # every row has some mass to normalize
            attn = (w / w.sum(axis=1, keepdims=True)).astype(np.float32)
        events.append(TraceEvent(seq=seq, step=step, layer=layer,
                                 k=draw(kv), v=draw(kv), attn=attn))
    return header, events


# -- write_trace -----------------------------------------------------------------


def _recorded_trace():
    """The trace of a filtered toy-model session: a prompt of 3 and 20
    generated positions over 2 layers."""
    cfg = ModelConfig(n_layers=2, n_heads=2, d_model=16, d_head=8, d_ff=24, max_seq=32, seed=23)
    session = DecodeSession(cfg, PruneConfig(tail_fraction=1.0), mode="filtered", record=True)
    recorder = TraceRecorder(cfg.n_layers, cfg.n_heads, cfg.d_head,
                             generator_params={"prefill_steps": "3"})
    session.decode([3, 1, 4], 20, recorder=recorder)
    return recorder


def _swapped(events, i):
    """Swap events i and i + 1: the new event i + 1 is out of order."""
    events[i], events[i + 1] = events[i + 1], events[i]
    return i + 1


def _repeated(events, i):
    """Insert a copy of event i after it: the copy is out of order."""
    events.insert(i + 1, events[i])
    return i + 1


class TestWriteTrace:
    @staticmethod
    def _assert_round_trip(path, header, events):
        """write_trace (given a one-pass iterator) writes the documented
        layout's bytes, and read_trace gives back the header and the events'
        float32 values bit for bit."""
        assert write_trace(path, header, iter(events)) == len(events)
        raw = path.with_suffix(".raw")
        write_v3_raw(raw, header, events)
        assert path.read_bytes() == raw.read_bytes()
        got_header, got = read_trace(path)
        assert got_header == header
        assert_same_events(got, events)

    @settings(max_examples=60, deadline=None)
    @given(traces())
    def test_round_trip_on_any_valid_trace(self, trace):
        with tempfile.TemporaryDirectory() as tmp:
            self._assert_round_trip(Path(tmp) / "t.trace", *trace)

    @pytest.mark.parametrize("with_attn", [True, False])
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_round_trip_on_synthesized_traces(self, tmp_path, pattern, with_attn):
        header, events = synthesize(pattern, 3, 2, 8, 50, seed=31, n_seqs=2,
                                    with_attn=with_attn)
        self._assert_round_trip(tmp_path / "t.trace", header, events)

    def test_round_trip_on_a_recorded_session(self, tmp_path):
        recorder = _recorded_trace()
        self._assert_round_trip(tmp_path / "t.trace", recorder.header(), recorder.events)

    def test_round_trip_of_zero_events(self, tmp_path):
        header, events = synthesize("random", 2, 2, 4, 0, seed=3)
        assert events == []
        self._assert_round_trip(tmp_path / "t.trace", header, events)
        assert (tmp_path / "t.trace").read_bytes().endswith(b"}\n")

    # Array inputs the traces() strategy never draws, each holding the same
    # float32 values as the array it was made from.
    LAYOUTS = {
        "float64": lambda a: a.astype(np.float64),
        "fortran": np.asfortranarray,
        "strided": lambda a: np.repeat(a, 2, axis=1)[:, ::2],
        "big_endian": lambda a: a.astype(">f4"),
    }

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_round_trip_on_other_array_layouts(self, tmp_path, layout):
        header, events = synthesize("repetitive", 2, 2, 4, 6, seed=37)
        change = self.LAYOUTS[layout]
        events = [dataclasses.replace(e, k=change(e.k), v=change(e.v), attn=change(e.attn))
                  for e in events]
        k = events[-1].k
        assert k.dtype != np.float32 or not k.flags.c_contiguous
        self._assert_round_trip(tmp_path / "t.trace", header, events)

    def test_round_trip_across_chunk_edges_with_and_without_attn(self, tmp_path):
        """200 events, odd steps with an attention row of varying width and
        even steps without, so events READ_CHUNK - 1 | READ_CHUNK and
        2 * READ_CHUNK - 1 | 2 * READ_CHUNK differ in attn across each edge."""
        rng = np.random.default_rng(43)
        events = []
        for step in range(200):
            attn = None
            if step % 2:
                w = rng.random((2, 1 + step % 7)) + 1e-3
                attn = (w / w.sum(axis=1, keepdims=True)).astype(np.float32)
            events.append(TraceEvent(seq=0, step=step, layer=0,
                                     k=rng.standard_normal((2, 4)).astype(np.float32),
                                     v=rng.standard_normal((2, 4)).astype(np.float32),
                                     attn=attn))
        header = TraceHeader(n_layers=1, n_heads=2, d_head=4, n_steps=200, source="external",
                             generator_params={})
        for edge in (READ_CHUNK, 2 * READ_CHUNK):
            assert (events[edge - 1].attn is None) != (events[edge].attn is None)
        self._assert_round_trip(tmp_path / "t.trace", header, events)

    # case: (field, the bad value given the event, the error message after "event N: ")
    BAD = {
        "bool_layer": ("layer", lambda e: True, "layer must be an integer, got True"),
        "float_step": ("step", lambda e: float(e.step), "step must be an integer"),
        "str_seq": ("seq", lambda e: str(e.seq), "seq must be an integer, got '0'"),
        "int64_layer": ("layer", lambda e: np.int64(e.layer), "layer must be an integer"),
        "negative_step": ("step", lambda e: -1, r"step -1 outside the header's range \[0, "),
        "seq_past_header": ("seq", lambda e: 1, r"seq 1 outside the header's range \[0, 1\)"),
        "layer_past_header": ("layer", lambda e: 2, r"layer 2 outside the header's range"),
        "step_past_header": ("step", lambda e: READ_CHUNK + 1, f"step {READ_CHUNK + 1} outside"),
        "seq_past_int64": ("seq", lambda e: 2**70, f"seq {2**70} outside"),
        "fractional_step": ("step", lambda e: e.step + 0.5, r"step must be an integer, got \d+\.5$"),
        "fractional_layer": ("layer", lambda e: e.layer + 0.9, "layer must be an integer"),
        "false_seq": ("seq", lambda e: False, "seq must be an integer, got False$"),
        "none_step": ("step", lambda e: None, "step must be an integer, got None$"),
        "negative_layer": ("layer", lambda e: -1, r"layer -1 outside the header's range"),
        "k_short": ("k", lambda e: e.k[:, :2], r"K/V shape \(2, 2\) does not match header"),
        "v_rows": ("v", lambda e: np.zeros((3, 4), np.float32),
                   r"K/V shape \(3, 4\) does not match header \(2, 4\)$"),
        "attn_heads": ("attn", lambda e: e.attn[:1], "attn head count mismatch$"),
        "nan_k": ("k", lambda e: _with_nan(e.k), "k values must be finite"),
        "inf_v": ("v", lambda e: _with_nan(e.v, np.inf), "v values must be finite"),
        "nan_attn": ("attn", lambda e: _with_nan(e.attn), "attn values must be finite"),
        "neg_inf_attn": ("attn", lambda e: _with_nan(e.attn, -np.inf),
                         "attn values must be finite"),
        "negative_attn": ("attn", lambda e: _negated(e.attn),
                          "attn rows must be non-negative and sum to 1$"),
        "unnormalized_attn": ("attn", lambda e: _scaled(e.attn, 1.001),
                              "attn rows must be non-negative and sum to 1$"),
    }

    @pytest.mark.parametrize("index", [0, READ_CHUNK - 1, READ_CHUNK, 2 * READ_CHUNK + 1])
    @pytest.mark.parametrize("case", sorted(BAD))
    def test_bad_event_is_refused_before_any_file_changes(self, tmp_path, case, index):
        header, events = _long_trace()
        name, change, message = self.BAD[case]
        _corrupt(events, index, **{name: change(events[index])})
        match = f"^event {index}: {message}"
        path = tmp_path / "new.ndjson"
        with pytest.raises(TraceFormatError, match=match):
            write_trace(path, header, events)
        assert not path.exists()
        old = tmp_path / "old.ndjson"
        write_trace(old, *synthesize("random", 1, 1, 4, 2, seed=5))
        before = old.read_bytes()
        with pytest.raises(TraceFormatError, match=match):
            write_trace(old, header, events)
        assert old.read_bytes() == before
        assert os.listdir(tmp_path) == ["old.ndjson"]

    def _refused_with_faults(self, path, faults):
        """write_trace on the long trace with each event index in faults
        (index -> case of BAD) made bad; the first bad event is named."""
        header, events = _long_trace()
        for index, case in faults.items():
            name, change, _ = self.BAD[case]
            _corrupt(events, index, **{name: change(events[index])})
        first = min(faults)
        with pytest.raises(TraceFormatError, match=f"^event {first}: {self.BAD[faults[first]][2]}"):
            write_trace(path, header, events)
        assert not path.exists()

    # Unlike read_trace, which checks the whole id table first, write_trace
    # names the first bad event whatever its faults.
    @pytest.mark.parametrize("faults", [
        {READ_CHUNK + 1: "nan_k", READ_CHUNK + 6: "fractional_step"},
        {3: "nan_attn", READ_CHUNK - 4: "layer_past_header"},
        {0: "inf_v", READ_CHUNK - 1: "k_short"},
        {40: "neg_inf_attn", 41: "attn_heads"},
        {7: "negative_attn", 9: "seq_past_header"},
    ])
    def test_a_value_fault_beats_a_later_id_or_shape_fault_in_its_chunk(self, tmp_path, faults):
        self._refused_with_faults(tmp_path / "t.trace", faults)

    @pytest.mark.parametrize("faults", [
        {10: "nan_k", READ_CHUNK + 30: "nan_attn"},
        {20: "layer_past_header", READ_CHUNK + 5: "bool_layer"},
        {30: "k_short", READ_CHUNK + 2: "inf_v"},
        {READ_CHUNK - 1: "fractional_step", READ_CHUNK: "nan_k"},
        {READ_CHUNK - 1: "unnormalized_attn", READ_CHUNK: "step_past_header"},
    ])
    def test_of_two_faults_in_different_chunks_the_first_is_named(self, tmp_path, faults):
        self._refused_with_faults(tmp_path / "t.trace", faults)

    def test_of_two_bad_events_the_first_is_named(self, tmp_path):
        header, events = _long_trace()
        _corrupt(events, READ_CHUNK + 3, step=0.5)
        _corrupt(events, 5, v=_with_nan(events[5].v))
        with pytest.raises(TraceFormatError, match="^event 5: v values must be finite"):
            write_trace(tmp_path / "t.ndjson", header, events)

    # case: (a change to the events that returns the index of the event it
    # makes bad, the message after "event N: "); a version 3 file cannot
    # hold a bad shape, and read_trace's order check is in EDGE_FAULTS.
    LAYOUT = {
        "kv_rows": (lambda ev, i: _corrupt(ev, i, v=np.zeros((3, 4), np.float32)),
                    r"K/V shape \(3, 4\) does not match header \(2, 4\)"),
        "one_d_k": (lambda ev, i: _corrupt(ev, i, k=ev[i].k.ravel()),
                    "k must be a 2-D float32 array"),
        "k_cols": (lambda ev, i: _corrupt(ev, i, k=np.zeros((2, 5), np.float32)),
                   r"K/V shape \(2, 5\) does not match header \(2, 4\)"),
        "one_d_attn": (lambda ev, i: _corrupt(ev, i, attn=ev[i].attn.ravel()),
                       "attn must be a 2-D float32 array"),
        "attn_rows": (lambda ev, i: _corrupt(ev, i, attn=np.vstack([ev[i].attn,
                                                                   ev[i].attn[:1]])),
                      "attn head count mismatch"),
        "swapped": (_swapped, r"events out of \(seq, step, layer\) order"),
        "repeated": (_repeated, r"events out of \(seq, step, layer\) order"),
    }

    @pytest.mark.parametrize("case", sorted(LAYOUT))
    def test_layout_fault_is_refused(self, tmp_path, case):
        header, events = _long_trace()
        change, message = self.LAYOUT[case]
        index = change(events, READ_CHUNK - 1)
        path = tmp_path / "t.ndjson"
        with pytest.raises(TraceFormatError, match=f"^event {index}: {message}"):
            write_trace(path, header, events)
        assert not path.exists()

    def test_a_failed_write_leaves_no_file_behind(self, tmp_path):
        """An error other than a refusal, here a K/V value that cannot be
        cast to float32 after a chunk was written, removes the new file too."""
        header, events = _long_trace()
        _corrupt(events, READ_CHUNK + 1, k=np.full((2, 4), "x", dtype=object))
        old = tmp_path / "t.trace"
        write_trace(old, *synthesize("random", 1, 1, 4, 2, seed=5))
        before = old.read_bytes()
        with pytest.raises(ValueError, match="could not convert"):
            write_trace(old, header, events)
        assert old.read_bytes() == before
        assert os.listdir(tmp_path) == ["t.trace"]

    def test_a_write_through_a_symlink_replaces_its_target(self, tmp_path):
        target, link = tmp_path / "t.trace", tmp_path / "link.trace"
        write_trace(target, *synthesize("random", 1, 1, 4, 2, seed=5))
        link.symlink_to(target)
        header, events = _long_trace()
        write_trace(link, header, events)
        assert link.is_symlink()
        assert_same_events(read_trace(target)[1], events)

    def test_a_rewrite_keeps_the_file_mode(self, tmp_path):
        path = tmp_path / "t.trace"
        write_trace(path, *synthesize("random", 1, 1, 4, 2, seed=5))
        path.chmod(0o600)
        write_trace(path, *_long_trace())
        assert path.stat().st_mode & 0o777 == 0o600

    def test_a_path_that_is_not_a_regular_file_is_refused(self, tmp_path):
        """write_trace replaces its target, which must not be a device, FIFO
        or directory: such a path is refused before anything is created."""
        fifo = tmp_path / "t.fifo"
        os.mkfifo(fifo)
        with pytest.raises(OSError, match="is not a regular file"):
            write_trace(fifo, *_long_trace())
        assert fifo.is_fifo() and os.listdir(tmp_path) == ["t.fifo"]

    def test_recorder_save_refuses_a_non_finite_event(self, tmp_path):
        recorder = _recorded_trace()
        recorder.events[7].attn = _with_nan(recorder.events[7].attn, np.inf)
        with pytest.raises(TraceFormatError, match="^event 7: attn values must be finite"):
            recorder.save(tmp_path / "t.ndjson")
        assert not (tmp_path / "t.ndjson").exists()

    # A header read_trace would refuse: (its change, the message after "line 1: ").
    # json.dumps cannot write an np.int64 at all.
    BAD_HEADERS = {
        "true_layers": ({"n_layers": True}, "n_layers must be an integer, got True"),
        "fractional_steps": ({"n_steps": 2.5}, "n_steps must be an integer, got 2.5"),
        "int64_steps": ({"n_steps": np.int64(3)}, "n_steps must be an integer, got"),
        "negative_prefill": ({"generator_params": {"prefill_steps": "-1"}},
                             "prefill_steps must be non-negative"),
        "negative_seqs": ({"generator_params": {"n_seqs": "-1"}}, "n_seqs must be non-negative"),
        "past_the_cap": ({"d_head": MAX_ANCHOR_VALUES // 4 + 1},
                         f"n_layers \\* n_heads \\* d_head is {MAX_ANCHOR_VALUES + 4}, above"),
    }

    @pytest.mark.parametrize("case", sorted(BAD_HEADERS))
    def test_a_header_that_would_not_read_is_refused_before_the_file_opens(self, tmp_path,
                                                                          case):
        header, events = synthesize("random", 1, 4, 1, 3, seed=5)
        changes, message = self.BAD_HEADERS[case]
        bad = dataclasses.replace(header, **changes)
        path = tmp_path / "new.trace"
        with pytest.raises(TraceFormatError, match=f"^line 1: {message}"):
            write_trace(path, bad, events)
        assert not path.exists()
        old = tmp_path / "old.trace"
        write_trace(old, header, events)
        before = old.read_bytes()
        with pytest.raises(TraceFormatError, match=f"^line 1: {message}"):
            write_trace(old, bad, events)
        assert old.read_bytes() == before

    # The header fields a TraceHeader can hold as a number that is not an
    # int; generator_params are written as strings.
    @pytest.mark.parametrize("field, value", [
        ("n_layers", 2.9), ("n_heads", 1.5), ("d_head", 4.5), ("n_steps", 3.5),
        ("n_layers", float("nan")), ("n_steps", float("inf")),
        ("n_layers", True), ("n_heads", True), ("d_head", True), ("n_steps", True)])
    def test_non_integer_header_counts_are_refused_not_coerced(self, tmp_path, field, value):
        header, events = synthesize("random", 1, 4, 1, 3, seed=5)
        path = tmp_path / "t.trace"
        with pytest.raises(TraceFormatError,
                           match=f"^line 1: {field} must be an integer, got {value!r}$"):
            write_trace(path, dataclasses.replace(header, **{field: value}), events)
        assert not path.exists()


@st.composite
def one_value_fault(draw):
    """A valid trace of at least one event, and the same trace with one
    value fault at one event: a non-finite k, v or attn value, a negative
    attn entry, or an attn row scaled by 1 plus a drift within a few ulps of
    +-1e-5, which may or may not take its sum past the tolerance."""
    header, clean = draw(traces().filter(lambda trace: trace[1]))
    events = list(clean)
    i = draw(st.integers(0, len(events) - 1))
    kinds = ["k", "v"] + (["attn", "negative", "drift"] if events[i].attn is not None else [])
    kind = draw(st.sampled_from(kinds))
    name = kind if kind in ("k", "v") else "attn"
    arr = np.array(getattr(events[i], name), dtype=np.float32)
    row, col = draw(st.integers(0, arr.shape[0] - 1)), draw(st.integers(0, arr.shape[1] - 1))
    if kind == "negative":
        arr[row, col] = -draw(st.floats(0.0, 1.0, width=32, exclude_min=True))
    elif kind == "drift":
        arr[row] *= np.float32(1.0 + draw(near_tolerance))
    else:
        arr[row, col] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    _corrupt(events, i, **{name: arr})
    return header, clean, events


@settings(max_examples=100, deadline=None)
@given(one_value_fault())
def test_write_trace_refuses_exactly_what_read_trace_refuses(fault):
    """write_trace refuses the events exactly when read_trace refuses the
    same events written raw, with the same message; a refused write leaves
    the directory as it was, and the file it would have replaced intact."""
    header, clean, events = fault
    with tempfile.TemporaryDirectory() as tmp:
        raw, path = Path(tmp) / "raw.trace", Path(tmp) / "t.trace"
        write_v3_raw(raw, header, events)
        write_trace(path, header, clean)
        before = path.read_bytes()
        messages = []
        for call in (lambda: read_trace(raw), lambda: write_trace(path, header, events)):
            try:
                call()
                messages.append(None)
            except TraceFormatError as exc:
                messages.append(str(exc))
        assert messages[0] == messages[1]
        if messages[0] is None:
            assert path.read_bytes() == raw.read_bytes()
        else:
            assert path.read_bytes() == before
            assert sorted(os.listdir(tmp)) == ["raw.trace", "t.trace"]


# -- version 3 bodies ------------------------------------------------------------


def _row_span(ids, i, n_heads):
    """Where event i's attention row lies in the rows array, in float32 values."""
    start = int(np.maximum(ids[:i, 3], 0).sum()) * n_heads
    return start, start + int(ids[i, 3]) * n_heads


def _edited_body(edit):
    """A fault that edit(head, ids, kv, row, i) makes in the sections of the
    long trace written by write_trace; row is a view of event i's attention
    row in rows."""
    def make(path, i):
        write_trace(path, *_long_trace())
        head, ids, kv, rows = v3_sections(path)
        start, stop = _row_span(ids, i, head["n_heads"])
        edit(head, ids, kv, rows[start:stop].reshape(head["n_heads"], -1), i)
        write_v3_sections(path, head, ids, kv, rows)
    return make


def _truncated(path, i):
    """The long trace cut in the middle of event i's attention row."""
    write_trace(path, *_long_trace())
    head, ids, _, rows = v3_sections(path)
    start, stop = _row_span(ids, i, head["n_heads"])
    data = path.read_bytes()
    path.write_bytes(data[:len(data) - 4 * (rows.size - (start + stop) // 2)])


def _trailing(path, i):
    """The long trace's first i events, then 4 more bytes."""
    header, events = _long_trace()
    write_trace(path, header, events[:i])
    with open(path, "ab") as fh:
        fh.write(b"\0" * 4)


def _n_events_is_i(head, ids, kv, row, i):
    head["n_events"] = i


def _layer_past_header(head, ids, kv, row, i):
    ids[i, 2] = 2


def _out_of_order(head, ids, kv, row, i):
    ids[i, :3] = ids[i - 1, :3]


def _cols_below_minus_one(head, ids, kv, row, i):
    ids[i, 3] = -2


def _inf_v(head, ids, kv, row, i):
    kv[i, 1, -1, -1] = np.inf


def _negative_row(head, ids, kv, row, i):
    """A negative entry; where the row has a second column, that column
    makes up for it, so the row still sums to 1."""
    if row.shape[1] > 1:
        row[-1, 1] += row[-1, 0] + np.float32(0.5)
    row[-1, 0] = -0.5


def _scaled_row(head, ids, kv, row, i):
    row[0] *= np.float32(1.001)


# kind: (writes the long trace with a fault at event i, the message after
# "event i: ", formatted with i)
V3_FAULTS = {
    "truncated": (_truncated, "body truncated in its attn row"),
    "trailing_bytes": (_trailing, "body holds 4 bytes past the header's {i} events"),
    "wrong_n_events": (_edited_body(_n_events_is_i),
                       r"body holds \d+ bytes past the header's {i} events"),
    "id_out_of_range": (_edited_body(_layer_past_header),
                        r"layer 2 outside the header's range \[0, 2\)"),
    "out_of_order": (_edited_body(_out_of_order), r"events out of \(seq, step, layer\) order"),
    "cols_below_minus_one": (_edited_body(_cols_below_minus_one),
                             "attn column count -2 is below -1"),
    "non_finite_kv": (_edited_body(_inf_v), "v values must be finite"),
    "negative_row": (_edited_body(_negative_row), "attn rows must be non-negative and sum to 1"),
    "unnormalized_row": (_edited_body(_scaled_row),
                         "attn rows must be non-negative and sum to 1"),
}
V3_INDICES = (0, READ_CHUNK - 1, READ_CHUNK, 2 * READ_CHUNK + 1)


class TestVersion3Body:
    """Faults in a version 3 body: 130 events, the last one alone in the
    third chunk."""

    # The first event has no predecessor to be out of order with.
    @pytest.mark.parametrize("kind, index", [
        (kind, index) for kind in sorted(V3_FAULTS) for index in V3_INDICES
        if (kind, index) != ("out_of_order", 0)])
    def test_single_fault_names_its_event(self, tmp_path, kind, index):
        make, message = V3_FAULTS[kind]
        path = tmp_path / "t.trace"
        make(path, index)
        with pytest.raises(TraceFormatError,
                           match=f"^event {index}: {message.format(i=index)}$"):
            read_trace(path)
        assert main(["replay", "--trace", str(path), "--out", str(tmp_path / "s.csv")]) == 2

    @pytest.mark.parametrize("value, message", [
        (-1, "n_events must be non-negative"),
        (None, "n_events must be an integer, got None"),
        (float("nan"), "n_events must be an integer, got nan"),
        (True, "n_events must be an integer, got True"),
        ("130", "n_events must be an integer, got '130'"),
        (129.5, "n_events must be an integer, got 129.5")])
    def test_bad_n_events_fails_at_the_header(self, tmp_path, value, message):
        path = tmp_path / "t.trace"
        _edited_body(lambda head, ids, kv, row, i: head.update(n_events=value))(path, 0)
        with pytest.raises(TraceFormatError, match=f"^line 1: {message}$"):
            read_trace(path)

    def test_missing_n_events_fails_at_the_header(self, tmp_path):
        path = tmp_path / "t.trace"
        _edited_body(lambda head, ids, kv, row, i: head.pop("n_events"))(path, 0)
        with pytest.raises(TraceFormatError, match="^line 1: malformed header"):
            read_trace(path)

    # cut: (bytes of the body kept, the event and section named); the long
    # trace's K/V block starts at byte 130 * 32 and holds 64 bytes per event.
    @pytest.mark.parametrize("keep, named", [
        (0, "event 0: body truncated in its id row"),
        (5 * 32 + 3, "event 5: body truncated in its id row"),
        (130 * 32, "event 0: body truncated in its K/V"),
        (130 * 32 + 7 * 64 + 1, "event 7: body truncated in its K/V"),
        (130 * 32 + 130 * 64, "event 0: body truncated in its attn row")])
    def test_a_cut_names_the_event_and_section_it_falls_in(self, tmp_path, keep, named):
        path = tmp_path / "t.trace"
        write_trace(path, *_long_trace())
        data = path.read_bytes()
        path.write_bytes(data[:data.index(b"\n") + 1 + keep])
        with pytest.raises(TraceFormatError, match=f"^{named}$"):
            read_trace(path)

    def test_counts_past_the_body_are_cut_short_not_allocated(self, tmp_path):
        path = tmp_path / "t.trace"
        write_trace(path, *_long_trace())
        head, ids, _, _ = v3_sections(path)
        head["n_events"] = 10**15
        write_v3_sections(path, head, ids[:5], [], [])
        with pytest.raises(TraceFormatError, match="^event 5: body truncated in its id row$"):
            read_trace(path)
        write_trace(path, *_long_trace())
        head, ids, kv, rows = v3_sections(path)
        ids[3, 3] = 2**62
        write_v3_sections(path, head, ids, kv, rows)
        with pytest.raises(TraceFormatError, match="^event 3: body truncated in its attn row$"):
            read_trace(path)

    def test_an_empty_body_reads_whatever_its_dims(self, tmp_path):
        """Only n_layers * n_heads * d_head is capped: step and sequence
        counts far past any table replay could hold read and replay, as
        replay allocates nothing by them."""
        header = TraceHeader(n_layers=2, n_heads=4, d_head=8, n_steps=2**62, source="external",
                             generator_params={"n_seqs": str(2**40)})
        path = tmp_path / "t.trace"
        write_trace(path, header, [])
        assert read_trace(path) == (header, [])
        assert main(["replay", "--trace", str(path), "--out", str(tmp_path / "s.csv")]) == 0

    # Ids are int64: a step or sequence count past 2**63 admits ids the id
    # table cannot hold. Each case's last in-range event is such an id.
    @pytest.mark.parametrize("n_steps, n_seqs", [(2**70, 1), (2**63 + 1, 1), (1, 2**64),
                                                 (1, 2**63 + 1)])
    def test_counts_past_the_int64_ids_are_refused_both_ways(self, tmp_path, n_steps, n_seqs):
        message = "^line 1: n_steps and n_seqs must be at most 2\\*\\*63"
        header = TraceHeader(n_layers=1, n_heads=1, d_head=2, n_steps=n_steps,
                             source="external", generator_params={"n_seqs": str(n_seqs)})
        last = TraceEvent(seq=n_seqs - 1, step=min(n_steps - 1, 2**64), layer=0,
                          k=np.ones((1, 2), np.float32), v=np.ones((1, 2), np.float32))
        path = tmp_path / "t.trace"
        with pytest.raises(TraceFormatError, match=message):
            write_trace(path, header, [last])
        assert not path.exists()
        write_trace(path, dataclasses.replace(header, n_steps=1, generator_params={}), [])
        head, ids, kv, rows = v3_sections(path)
        head.update(n_steps=n_steps, generator_params={"n_seqs": str(n_seqs)})
        write_v3_sections(path, head, ids, kv, rows)
        with pytest.raises(TraceFormatError, match=message):
            read_trace(path)
        out = tmp_path / "s.csv"
        assert main(["replay", "--trace", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    def test_counts_of_2_to_the_63_hold_the_largest_int64_ids(self, tmp_path):
        header = TraceHeader(n_layers=1, n_heads=1, d_head=2, n_steps=2**63,
                             source="external", generator_params={"n_seqs": str(2**63)})
        last = TraceEvent(seq=2**63 - 1, step=2**63 - 1, layer=0,
                          k=np.ones((1, 2), np.float32), v=np.ones((1, 2), np.float32))
        path = tmp_path / "t.trace"
        write_trace(path, header, [last])
        assert_same_events(read_trace(path)[1], [last])
        assert main(["replay", "--trace", str(path), "--out", str(tmp_path / "s.csv")]) == 0

    def test_an_empty_body_at_the_cap_reads_and_replays(self, tmp_path):
        """n_layers * n_heads * d_head at MAX_ANCHOR_VALUES reads; replay's
        tables for it are allocated but never filled."""
        header = TraceHeader(n_layers=1, n_heads=2**11, d_head=MAX_ANCHOR_VALUES // 2**11,
                             n_steps=0, source="external", generator_params={})
        path = tmp_path / "t.trace"
        write_trace(path, header, [])
        assert read_trace(path) == (header, [])
        assert main(["replay", "--trace", str(path), "--out", str(tmp_path / "s.csv")]) == 0

    @pytest.mark.parametrize("n_heads", [MAX_ANCHOR_VALUES + 1, 2**62])
    def test_dimensions_past_the_cap_fail_at_the_header(self, tmp_path, n_heads):
        path = tmp_path / "t.trace"
        write_trace(path, TraceHeader(n_layers=1, n_heads=1, d_head=1, n_steps=0,
                                      source="external", generator_params={}), [])
        head, ids, kv, rows = v3_sections(path)
        head["n_heads"] = n_heads
        write_v3_sections(path, head, ids, kv, rows)
        with pytest.raises(TraceFormatError, match=(
                f"^line 1: n_layers \\* n_heads \\* d_head is {n_heads}, "
                f"above the cap of {MAX_ANCHOR_VALUES}$")):
            read_trace(path)
        assert main(["replay", "--trace", str(path), "--out", str(tmp_path / "s.csv")]) == 2

    # Each factor alone, and a product past the cap of factors below it.
    @pytest.mark.parametrize("dims", [(MAX_ANCHOR_VALUES + 1, 1, 1), (1, 1, MAX_ANCHOR_VALUES + 1),
                                      (2**8, 2**8, 2**6 + 1)])
    def test_a_product_past_the_cap_fails_at_the_header(self, tmp_path, dims):
        path = tmp_path / "t.trace"
        write_trace(path, TraceHeader(n_layers=1, n_heads=1, d_head=1, n_steps=0,
                                      source="external", generator_params={}), [])
        head, ids, kv, rows = v3_sections(path)
        head.update(zip(("n_layers", "n_heads", "d_head"), dims))
        write_v3_sections(path, head, ids, kv, rows)
        with pytest.raises(TraceFormatError, match=(
                f"^line 1: n_layers \\* n_heads \\* d_head is {int(np.prod(dims))}, above")):
            read_trace(path)

    def test_of_two_value_faults_in_different_chunks_the_first_is_named(self, tmp_path):
        path = tmp_path / "t.trace"
        write_trace(path, *_long_trace())
        head, ids, kv, rows = v3_sections(path)
        kv[READ_CHUNK + 3, 0, 0, 0] = np.nan
        start, stop = _row_span(ids, 10, head["n_heads"])
        rows[start] = -1.0
        write_v3_sections(path, head, ids, kv, rows)
        with pytest.raises(TraceFormatError,
                           match="^event 10: attn rows must be non-negative and sum to 1$"):
            read_trace(path)

    def test_ids_are_checked_before_values(self, tmp_path):
        """As read_trace documents: the whole id table, then the body's
        length, then the values, chunk by chunk."""
        path = tmp_path / "t.trace"
        write_trace(path, *_long_trace())
        head, ids, kv, rows = v3_sections(path)
        kv[3, 0, 0, 0] = np.nan
        ids[100, 0] = 1
        write_v3_sections(path, head, ids, kv, rows)
        with pytest.raises(TraceFormatError, match=r"^event 100: seq 1 outside"):
            read_trace(path)


def test_a_v2_file_fails_at_line_1(tmp_path):
    """Format version 2 is no longer read: its NDJSON header line is refused,
    and replay exits 2 without writing a CSV."""
    header, events = synthesize("random", 1, 1, 4, 1, seed=4)
    head = _v3_header(header, len(events))
    del head["n_events"]
    head["format_version"] = 2
    path = tmp_path / "t.ndjson"
    path.write_text(json.dumps(head) + "\n" + json.dumps(
        {"type": "event", "seq": 0, "step": 0, "layer": 0, "k": None, "v": None}) + "\n")
    with pytest.raises(TraceFormatError, match="^line 1: unsupported format_version 2$"):
        read_trace(path)
    csv = tmp_path / "s.csv"
    assert main(["replay", "--trace", str(path), "--out", str(csv)]) == 2
    assert not csv.exists()
