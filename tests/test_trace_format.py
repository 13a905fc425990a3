"""The trace file format: the version 2 layout, the checks read_trace
applies, and the checks write_trace applies before it writes."""

import base64
import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tokenskip.cli import main
from tokenskip.model import DecodeSession, ModelConfig
from tokenskip.policy import PruneConfig
from tokenskip.trace import (
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


def _raw_f32(arr):
    a = np.ascontiguousarray(arr, dtype="<f4")
    return {"shape": list(a.shape), "f32": base64.b64encode(a.tobytes()).decode("ascii")}


def raw_event_record(e):
    """One version 2 event line, by json.dumps, with no checks."""
    return json.dumps({
        "type": "event", "seq": e.seq, "step": e.step, "layer": e.layer,
        "k": _raw_f32(e.k), "v": _raw_f32(e.v),
        "attn": None if e.attn is None else _raw_f32(e.attn),
    })


def write_v2_raw(path, header, events):
    """Write a format version 2 trace with one json.dumps per record and no
    checks on the events: the reference for write_trace's bytes, and the way
    to build files that hold bad events, which write_trace refuses to write."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "type": "header", "format_version": 2, "n_layers": header.n_layers,
            "n_heads": header.n_heads, "d_head": header.d_head, "n_steps": header.n_steps,
            "source": header.source,
            "generator_params": {str(k): str(v) for k, v in header.generator_params.items()},
        }))
        fh.write("\n")
        for e in events:
            fh.write(raw_event_record(e))
            fh.write("\n")
            n += 1
    return n


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


class TestVersion2Layout:
    def test_arrays_are_base64_float32_with_shape(self, tmp_path):
        header, events = synthesize("repetitive", 2, 3, 4, 3, seed=1)
        path = tmp_path / "t.ndjson"
        write_trace(path, header, events)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + len(events)
        assert json.loads(lines[0])["format_version"] == 2
        obj = json.loads(lines[-1])
        e = events[-1]
        for name, arr in (("k", e.k), ("v", e.v), ("attn", e.attn)):
            assert obj[name]["shape"] == list(arr.shape)
            raw = base64.b64decode(obj[name]["f32"])
            np.testing.assert_array_equal(np.frombuffer(raw, dtype="<f4").reshape(arr.shape),
                                          arr)

    # Version 1 is no longer read; true and 2.0 are not the JSON integer 2.
    @pytest.mark.parametrize("version", [1, True, 2.0])
    def test_other_versions_fail_at_the_header(self, tmp_path, version):
        header, events = synthesize("random", 1, 1, 4, 2, seed=2)
        path = tmp_path / "t.ndjson"
        write_trace(path, header, events)
        lines = path.read_text().splitlines()
        head = json.loads(lines[0])
        head["format_version"] = version
        path.write_text("\n".join([json.dumps(head)] + lines[1:]) + "\n")
        with pytest.raises(TraceFormatError, match="^line 1: unsupported format_version"):
            read_trace(path)
        assert main(["replay", "--trace", str(path), "--out", str(tmp_path / "s.csv")]) == 2

    def test_unknown_version_rejected(self, tmp_path):
        header, events = synthesize("random", 1, 1, 4, 1, seed=4)
        path = tmp_path / "t.ndjson"
        write_trace(path, header, events)
        lines = path.read_text().splitlines()
        head = json.loads(lines[0])
        head["format_version"] = 3
        path.write_text("\n".join([json.dumps(head)] + lines[1:]) + "\n")
        with pytest.raises(TraceFormatError, match="line 1: unsupported format_version 3"):
            read_trace(path)

    @pytest.mark.parametrize("array", [
        {"shape": [1, 4], "f32": base64.b64encode(b"\0" * 12).decode()},   # short data
        {"shape": [1, 4], "f32": "not base64!"},
        {"shape": [4], "f32": base64.b64encode(b"\0" * 16).decode()},
        [[0.1, 0.2, 0.3, 0.4]],                                            # a v1 array
        # Shape entries that are not JSON integers are never coerced to (1, 4).
        {"shape": [1.0, 4.0], "f32": base64.b64encode(b"\0" * 16).decode()},
        {"shape": [1.7, 4], "f32": base64.b64encode(b"\0" * 16).decode()},
        {"shape": ["1", "4"], "f32": base64.b64encode(b"\0" * 16).decode()},
        {"shape": [True, 4], "f32": base64.b64encode(b"\0" * 16).decode()},
        {"shape": "14", "f32": base64.b64encode(b"\0" * 16).decode()},
    ])
    def test_malformed_v2_array_names_line(self, tmp_path, array):
        header, events = synthesize("random", 1, 1, 4, 2, seed=5)
        path = tmp_path / "t.ndjson"
        write_trace(path, header, events)
        lines = path.read_text().splitlines()
        obj = json.loads(lines[2])
        obj["v"] = array
        path.write_text("\n".join(lines[:2] + [json.dumps(obj)]) + "\n")
        with pytest.raises(TraceFormatError, match="line 3: v "):
            read_trace(path)


def _corrupt(events, index, **changes):
    e = events[index]
    events[index] = TraceEvent(**{**dataclasses.asdict(e), **changes})
    return index + 2  # the header is line 1


def _with_nan(arr, value=np.nan):
    out = np.array(arr, dtype=np.float32)
    out[0, -1] = value
    return out


class TestReadTraceRejects:
    """2 layers, 2 sequences, 3 steps: 12 events on lines 2 to 13."""

    def _trace(self):
        return synthesize("repetitive", 2, 2, 4, 3, seed=6, n_seqs=2)

    CASES = {
        "nan_k": (0, lambda e: {"k": _with_nan(e.k)}, "K/V values must be finite"),
        "inf_v": (5, lambda e: {"v": _with_nan(e.v, np.inf)}, "K/V values must be finite"),
        "nan_attn": (7, lambda e: {"attn": _with_nan(e.attn)}, "attn values must be finite"),
        "layer_past_header": (11, lambda e: {"layer": 7}, "layer 7 outside"),
        "negative_seq": (0, lambda e: {"seq": -3}, "seq -3 outside"),
        "negative_step": (0, lambda e: {"step": -1}, "step -1 outside"),
        "negative_layer": (0, lambda e: {"layer": -1}, "layer -1 outside"),
        "step_past_header": (11, lambda e: {"step": 3}, "step 3 outside"),
        "seq_past_header": (11, lambda e: {"seq": 2}, "seq 2 outside"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bad_event_names_line(self, tmp_path, case):
        header, events = self._trace()
        index, change, message = self.CASES[case]
        lineno = _corrupt(events, index, **change(events[index]))
        path = tmp_path / "t.ndjson"
        write_v2_raw(path, header, events)
        with pytest.raises(TraceFormatError, match=f"line {lineno}: {message}"):
            read_trace(path)

    # Each bad id would truncate or coerce to the event's own id.
    ID_CASES = {
        "fractional_step": (4, "step", lambda e: e.step + 0.7),
        "fractional_layer": (5, "layer", lambda e: e.layer + 0.9),
        "integral_float_seq": (7, "seq", lambda e: float(e.seq)),
        "string_step": (3, "step", lambda e: str(e.step)),
        "true_layer": (1, "layer", lambda e: bool(e.layer)),
        "false_seq": (0, "seq", lambda e: bool(e.seq)),
    }

    @pytest.mark.parametrize("case", sorted(ID_CASES))
    def test_non_integer_event_id_names_line(self, tmp_path, case):
        header, events = self._trace()
        index, name, change = self.ID_CASES[case]
        lineno = _corrupt(events, index, **{name: change(events[index])})
        path = tmp_path / "t.ndjson"
        write_v2_raw(path, header, events)
        with pytest.raises(TraceFormatError, match=f"line {lineno}: {name} must be an integer"):
            read_trace(path)
        assert main(["replay", "--trace", str(path), "--out", str(tmp_path / "s.csv")]) == 2

    def test_valid_trace_reads(self, tmp_path):
        header, events = self._trace()
        path = tmp_path / "t.ndjson"
        write_v2_raw(path, header, events)
        assert_same_events(read_trace(path)[1], events)

    @pytest.mark.parametrize("prefill_steps", ["abc", "-5", "1.5"])
    def test_bad_prefill_steps_rejected_at_the_header(self, tmp_path, prefill_steps):
        header, events = self._trace()
        params = {**header.generator_params, "prefill_steps": prefill_steps}
        path = tmp_path / "t.ndjson"
        write_trace(path, dataclasses.replace(header, generator_params=params), events)
        with pytest.raises(TraceFormatError, match="line 1: "):
            read_trace(path)
        assert main(["replay", "--trace", str(path), "--out", str(tmp_path / "s.csv")]) == 2

    def _edited_header(self, tmp_path, edit):
        """A valid trace file whose header object edit() changed in place."""
        header, events = self._trace()
        path = tmp_path / "t.ndjson"
        write_trace(path, header, events)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        obj = json.loads(lines[0])
        edit(obj)
        lines[0] = json.dumps(obj) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        return header, path

    @pytest.mark.parametrize("field, value", [
        ("n_layers", 2.9), ("n_heads", 1.5), ("d_head", 4.5), ("n_steps", 3.5),
        ("n_layers", float("nan")), ("n_steps", float("inf")),
        ("prefill_steps", 2.7), ("n_seqs", 1.9)])
    def test_fractional_header_counts_are_rejected_not_truncated(self, tmp_path, field, value):
        def edit(obj):
            (obj["generator_params"] if field in ("prefill_steps", "n_seqs") else obj)[field] = value

        _, path = self._edited_header(tmp_path, edit)
        with pytest.raises(TraceFormatError, match=f"line 1: {field} must be an integer"):
            read_trace(path)
        assert main(["replay", "--trace", str(path), "--out", str(tmp_path / "s.csv")]) == 2

    def test_integral_header_numbers_are_read(self, tmp_path):
        def edit(obj):
            obj["n_steps"] = float(obj["n_steps"])
            obj["generator_params"]["prefill_steps"] = 1

        header, path = self._edited_header(tmp_path, edit)
        got, _ = read_trace(path)
        assert (got.n_steps, got.prefill_steps) == (header.n_steps, 1)

    @pytest.mark.parametrize("record", ["[1, 2]", '{"type": "event", "seq": 0}'])
    def test_malformed_record_names_line(self, tmp_path, record):
        header, events = self._trace()
        path = tmp_path / "t.ndjson"
        write_trace(path, header, events[:1])
        with open(path, "a") as fh:
            fh.write(record + "\n")
        with pytest.raises(TraceFormatError, match="line 3"):
            read_trace(path)


# -- chunk boundaries ------------------------------------------------------------


def _long_trace():
    """2 layers x (READ_CHUNK + 1) steps: 2 * READ_CHUNK + 2 events, so event
    indices READ_CHUNK - 1 and READ_CHUNK straddle the first chunk boundary
    and the last event starts a third chunk. Event i is on line i + 2."""
    return synthesize("repetitive", 2, 2, 4, READ_CHUNK + 1, seed=41)


def _record_of(e, **changes):
    return raw_event_record(dataclasses.replace(e, **changes))


def _with_bad_k_base64(e):
    obj = json.loads(raw_event_record(e))
    obj["k"]["f32"] = "not base64!"
    return json.dumps(obj)


def _scaled(arr, factor):
    out = np.array(arr, dtype=np.float32)
    out[0] *= np.float32(factor)
    return out


def _negated(arr):
    out = np.array(arr, dtype=np.float32)
    out[-1, 0] = -0.5
    return out


# kind: (the bad line for event i of events, the error message after "line N: ")
EDGE_FAULTS = {
    "nan_k": (lambda ev, i: _record_of(ev[i], k=_with_nan(ev[i].k)),
              "K/V values must be finite"),
    "inf_v": (lambda ev, i: _record_of(ev[i], v=_with_nan(ev[i].v, np.inf)),
              "K/V values must be finite"),
    "nan_attn": (lambda ev, i: _record_of(ev[i], attn=_with_nan(ev[i].attn)),
                 "attn values must be finite"),
    "negative_attn": (lambda ev, i: _record_of(ev[i], attn=_negated(ev[i].attn)),
                      "attn rows must be non-negative and sum to 1"),
    "unnormalized_attn": (lambda ev, i: _record_of(ev[i], attn=_scaled(ev[i].attn, 1.001)),
                          "attn rows must be non-negative and sum to 1"),
    "fractional_step": (lambda ev, i: _record_of(ev[i], step=ev[i].step + 0.5),
                        "step must be an integer"),
    "layer_past_header": (lambda ev, i: _record_of(ev[i], layer=2), "layer 2 outside"),
    "kv_shape": (lambda ev, i: _record_of(ev[i], k=ev[i].k[:, :2]),
                 r"K/V shape \(2, 2\) does not match header \(2, 4\)"),
    "attn_heads": (lambda ev, i: _record_of(ev[i], attn=ev[i].attn[:1]),
                   "attn head count mismatch"),
    "out_of_order": (lambda ev, i: _record_of(ev[i], seq=ev[i - 1].seq, step=ev[i - 1].step,
                                              layer=ev[i - 1].layer),
                     r"events out of \(seq, step, layer\) order"),
    "invalid_json": (lambda ev, i: "{broken", "invalid JSON"),
    "bad_base64": (lambda ev, i: _with_bad_k_base64(ev[i]), "k must be a 2-D float32 array"),
}
EDGE_INDICES = (0, READ_CHUNK - 1, READ_CHUNK, READ_CHUNK + 1, 2 * READ_CHUNK + 1)


def _write_with_faults(path, faults):
    """The long trace, written raw, with the line of each event index in
    faults (index -> kind) replaced by that fault's bad line."""
    header, events = _long_trace()
    write_v2_raw(path, header, events)
    lines = path.read_text(encoding="utf-8").splitlines()
    for index, kind in faults.items():
        lines[index + 1] = EDGE_FAULTS[kind][0](events, index)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestChunkEdges:
    """Faults at and around the boundaries of read_trace's chunks."""

    # The first event has no predecessor to be out of order with.
    @pytest.mark.parametrize("kind, index", [
        (kind, index) for kind in sorted(EDGE_FAULTS) for index in EDGE_INDICES
        if (kind, index) != ("out_of_order", 0)])
    def test_single_fault_names_its_line(self, tmp_path, kind, index):
        path = tmp_path / "t.ndjson"
        _write_with_faults(path, {index: kind})
        with pytest.raises(TraceFormatError, match=f"^line {index + 2}: {EDGE_FAULTS[kind][1]}"):
            read_trace(path)

    @pytest.mark.parametrize("faults", [
        {10: "nan_k", READ_CHUNK + 30: "nan_attn"},                # two value faults
        {20: "fractional_step", READ_CHUNK + 5: "inf_v"},          # a line fault first
        {30: "unnormalized_attn", READ_CHUNK + 2: "invalid_json"},  # a value fault first
        {READ_CHUNK - 1: "negative_attn", READ_CHUNK: "nan_k"},    # across the boundary
    ])
    def test_of_two_faults_in_different_chunks_the_first_is_named(self, tmp_path, faults):
        path = tmp_path / "t.ndjson"
        _write_with_faults(path, faults)
        first = min(faults)
        with pytest.raises(TraceFormatError,
                           match=f"^line {first + 2}: {EDGE_FAULTS[faults[first]][1]}"):
            read_trace(path)

    @pytest.mark.parametrize("faults", [
        {READ_CHUNK + 1: "nan_k", READ_CHUNK + 6: "fractional_step"},
        {3: "unnormalized_attn", READ_CHUNK - 4: "layer_past_header"},
        {0: "nan_attn", READ_CHUNK - 1: "invalid_json"},
        {40: "inf_v", 41: "kv_shape"},
    ])
    def test_a_value_fault_beats_a_later_line_fault_in_its_chunk(self, tmp_path, faults):
        path = tmp_path / "t.ndjson"
        _write_with_faults(path, faults)
        first = min(faults)
        with pytest.raises(TraceFormatError,
                           match=f"^line {first + 2}: {EDGE_FAULTS[faults[first]][1]}"):
            read_trace(path)

    def test_arrays_are_writable_float32_and_do_not_overlap(self, tmp_path):
        header, events = _long_trace()
        path = tmp_path / "t.ndjson"
        write_trace(path, header, events)
        _, got = read_trace(path)
        _, fresh = read_trace(path)
        assert_same_events(got, events)
        for e in got:
            for arr in (e.k, e.v, e.attn):
                assert arr.dtype == np.float32 and arr.flags.writeable
        edited = (0, READ_CHUNK - 1, READ_CHUNK, len(got) - 1)
        for i in edited:
            got[i].k[...] = 7.0
            got[i].v[...] = 8.0
            got[i].attn[...] = 9.0
        for i, (a, b) in enumerate(zip(got, fresh)):
            if i in edited:
                assert (a.k == 7.0).all() and (a.v == 8.0).all() and (a.attn == 9.0).all()
            else:
                assert_same_events([a], [b])


class TestLineText:
    """Bytes that are not UTF-8, line endings and non-ASCII text."""

    @staticmethod
    def _raw_lines(path):
        header, events = _long_trace()
        write_v2_raw(path, header, events)
        return events, path.read_bytes().splitlines(keepends=True)

    @pytest.mark.parametrize("lineno", [1, READ_CHUNK + 2])
    def test_a_bad_byte_names_its_line(self, tmp_path, lineno):
        path = tmp_path / "t.ndjson"
        _, lines = self._raw_lines(path)
        lines[lineno - 1] = lines[lineno - 1].replace(b'"type"', b'"ty\xffpe"', 1)
        path.write_bytes(b"".join(lines))
        with pytest.raises(TraceFormatError, match=f"^line {lineno}: not UTF-8 text$"):
            read_trace(path)
        assert main(["replay", "--trace", str(path), "--out", str(tmp_path / "s.csv")]) == 2

    def test_a_value_fault_beats_a_later_bad_byte_in_its_chunk(self, tmp_path):
        path = tmp_path / "t.ndjson"
        events, lines = self._raw_lines(path)
        lines[11] = (_record_of(events[10], k=_with_nan(events[10].k)) + "\n").encode()
        lines[21] = lines[21].replace(b'"type"', b'"\xc3("', 1)
        path.write_bytes(b"".join(lines))
        with pytest.raises(TraceFormatError, match="^line 12: K/V values must be finite"):
            read_trace(path)

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
    def test_crlf_and_lone_cr_line_endings_read(self, tmp_path, newline):
        path = tmp_path / "t.ndjson"
        events, lines = self._raw_lines(path)
        path.write_bytes(b"".join(line.rstrip(b"\n") + newline for line in lines))
        assert_same_events(read_trace(path)[1], events)

    def test_raw_utf8_text_in_generator_params_reads(self, tmp_path):
        path = tmp_path / "t.ndjson"
        events, lines = self._raw_lines(path)
        head = json.loads(lines[0])
        head["generator_params"]["note"] = "caf\u00e9"
        lines[0] = (json.dumps(head, ensure_ascii=False) + "\n").encode("utf-8")
        assert "é".encode("utf-8") in lines[0]
        path.write_bytes(b"".join(lines))
        header, got = read_trace(path)
        assert header.generator_params["note"] == "café"
        assert_same_events(got, events)


@settings(max_examples=100, deadline=None)
@given(m=st.integers(1, 6), heads=st.integers(1, 4), cols=st.integers(1, 300),
       lead=st.integers(0, 7), seed=st.integers(0, 2**32 - 1))
def test_run_stacked_row_sums_equal_per_event_sums_bitwise(m, heads, cols, lead, seed):
    """read_trace sums the rows of m same-shape events as one (m, H, L) block
    of a buffer joined from the lines' bytes, at any offset in it; each
    event's sums must equal its own array's attn.sum(axis=1) bit for bit."""
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
    """Rows whose sums sit within a few ulps of 1 +- 1e-5: read_trace rejects
    the trace exactly when one of its events fails the check on its own row
    sums."""
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
        path = Path(tmp) / "t.ndjson"
        write_v2_raw(path, header, events)
        if bad:
            with pytest.raises(TraceFormatError, match=f"^line {bad[0] + 2}: attn rows"):
                read_trace(path)
        else:
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


class TestRoundTripProperties:
    @settings(max_examples=60, deadline=None)
    @given(traces())
    def test_v2_round_trip_is_bit_exact(self, trace):
        header, events = trace
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.ndjson"
            assert write_trace(path, header, events) == len(events)
            header2, events2 = read_trace(path)
        assert header2 == header
        assert_same_events(events, events2)


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
    def _assert_raw_bytes(path, header, events):
        """write_trace (given a one-pass iterator) writes what the raw
        json.dumps writer writes, byte for byte."""
        assert write_trace(path, header, iter(events)) == len(events)
        raw = path.with_suffix(".raw")
        write_v2_raw(raw, header, events)
        assert path.read_bytes() == raw.read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(traces())
    def test_bytes_equal_json_dumps_on_any_valid_trace(self, trace):
        with tempfile.TemporaryDirectory() as tmp:
            self._assert_raw_bytes(Path(tmp) / "t.ndjson", *trace)

    @pytest.mark.parametrize("with_attn", [True, False])
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_bytes_equal_json_dumps_on_synthesized_traces(self, tmp_path, pattern, with_attn):
        header, events = synthesize(pattern, 3, 2, 8, 50, seed=31, n_seqs=2,
                                    with_attn=with_attn)
        self._assert_raw_bytes(tmp_path / "t.ndjson", header, events)

    def test_bytes_equal_json_dumps_on_a_recorded_session(self, tmp_path):
        recorder = _recorded_trace()
        assert recorder.save(tmp_path / "t.ndjson") == len(recorder.events)
        write_v2_raw(tmp_path / "t.raw", recorder.header(), recorder.events)
        assert (tmp_path / "t.ndjson").read_bytes() == (tmp_path / "t.raw").read_bytes()

    # Array inputs the traces() strategy never draws, each holding the same
    # float32 values as the array it was made from.
    LAYOUTS = {
        "float64": lambda a: a.astype(np.float64),
        "fortran": np.asfortranarray,
        "strided": lambda a: np.repeat(a, 2, axis=1)[:, ::2],
        "big_endian": lambda a: a.astype(">f4"),
    }

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_bytes_equal_json_dumps_on_other_array_layouts(self, tmp_path, layout):
        header, events = synthesize("repetitive", 2, 2, 4, 6, seed=37)
        change = self.LAYOUTS[layout]
        events = [dataclasses.replace(e, k=change(e.k), v=change(e.v), attn=change(e.attn))
                  for e in events]
        k = events[-1].k
        assert k.dtype != np.float32 or not k.flags.c_contiguous
        self._assert_raw_bytes(tmp_path / "t.ndjson", header, events)

    def test_bytes_equal_json_dumps_across_chunk_edges_with_and_without_attn(self, tmp_path):
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
        self._assert_raw_bytes(tmp_path / "t.ndjson", header, events)

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
        "nan_k": ("k", lambda e: _with_nan(e.k), "k values must be finite"),
        "inf_v": ("v", lambda e: _with_nan(e.v, np.inf), "v values must be finite"),
        "nan_attn": ("attn", lambda e: _with_nan(e.attn), "attn values must be finite"),
        "neg_inf_attn": ("attn", lambda e: _with_nan(e.attn, -np.inf),
                         "attn values must be finite"),
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

    def test_of_two_bad_events_the_first_is_named(self, tmp_path):
        header, events = _long_trace()
        _corrupt(events, READ_CHUNK + 3, step=0.5)
        _corrupt(events, 5, v=_with_nan(events[5].v))
        with pytest.raises(TraceFormatError, match="^event 5: v values must be finite"):
            write_trace(tmp_path / "t.ndjson", header, events)

    # case: (a change to the events that returns the index of the event it
    # makes bad, the message after "event N: " and after read_trace's "line N: ")
    LAYOUT = {
        "kv_rows": (lambda ev, i: _corrupt(ev, i, v=np.zeros((3, 4), np.float32)) - 2,
                    r"K/V shape \(3, 4\) does not match header \(2, 4\)"),
        "one_d_k": (lambda ev, i: _corrupt(ev, i, k=ev[i].k.ravel()) - 2,
                    "k must be a 2-D float32 array"),
        "k_cols": (lambda ev, i: _corrupt(ev, i, k=np.zeros((2, 5), np.float32)) - 2,
                   r"K/V shape \(2, 5\) does not match header \(2, 4\)"),
        "one_d_attn": (lambda ev, i: _corrupt(ev, i, attn=ev[i].attn.ravel()) - 2,
                       "attn must be a 2-D float32 array"),
        "attn_rows": (lambda ev, i: _corrupt(ev, i, attn=np.vstack([ev[i].attn,
                                                                   ev[i].attn[:1]])) - 2,
                      "attn head count mismatch"),
        "swapped": (_swapped, r"events out of \(seq, step, layer\) order"),
        "repeated": (_repeated, r"events out of \(seq, step, layer\) order"),
    }

    @pytest.mark.parametrize("case", sorted(LAYOUT))
    def test_layout_fault_is_refused_as_read_trace_refuses_it(self, tmp_path, case):
        header, events = _long_trace()
        change, message = self.LAYOUT[case]
        index = change(events, READ_CHUNK - 1)
        path = tmp_path / "t.ndjson"
        with pytest.raises(TraceFormatError, match=f"^event {index}: {message}"):
            write_trace(path, header, events)
        assert not path.exists()
        write_v2_raw(path, header, events)
        with pytest.raises(TraceFormatError, match=f"^line {index + 2}: {message}"):
            read_trace(path)

    def test_recorder_save_refuses_a_non_finite_event(self, tmp_path):
        recorder = _recorded_trace()
        recorder.events[7].attn = _with_nan(recorder.events[7].attn, np.inf)
        with pytest.raises(TraceFormatError, match="^event 7: attn values must be finite"):
            recorder.save(tmp_path / "t.ndjson")
        assert not (tmp_path / "t.ndjson").exists()

