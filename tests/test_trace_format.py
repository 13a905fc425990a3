"""Trace file formats: the version 2 layout, reading version 1 files, and the
checks read_trace applies to both."""

import base64
import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tokenskip.cli import main
from tokenskip.policy import PruneConfig
from tokenskip.replay import replay
from tokenskip.trace import (
    SOURCES,
    TraceEvent,
    TraceFormatError,
    TraceHeader,
    read_trace,
    synthesize,
    write_trace,
)


def _v1_rows(arr):
    return [[float(x) for x in row] for row in np.asarray(arr, dtype=np.float32)]


def write_v1(path, header, events):
    """Write a format version 1 trace: every float as decimal JSON text."""
    lines = [json.dumps({
        "type": "header", "format_version": 1, "n_layers": header.n_layers,
        "n_heads": header.n_heads, "d_head": header.d_head, "n_steps": header.n_steps,
        "source": header.source,
        "generator_params": {str(k): str(v) for k, v in header.generator_params.items()},
    })]
    for e in events:
        lines.append(json.dumps({
            "type": "event", "seq": e.seq, "step": e.step, "layer": e.layer,
            "k": _v1_rows(e.k), "v": _v1_rows(e.v),
            "attn": None if e.attn is None else _v1_rows(e.attn),
        }))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


WRITERS = {1: write_v1, 2: write_trace}


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


def decisions(result):
    return [(r.seq, r.step, r.layer, r.s_kv, r.tau, r.shadow, r.skipped, r.flops_saved)
            for r in result.reports]


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

    def test_header_reports_version_read(self, tmp_path):
        header, events = synthesize("random", 1, 1, 4, 2, seed=2)
        for version, write in WRITERS.items():
            path = tmp_path / f"v{version}.ndjson"
            write(path, header, events)
            got, _ = read_trace(path)
            assert got == dataclasses.replace(header, format_version=version)

    def test_v1_header_is_rewritten_as_v2(self, tmp_path):
        header, events = synthesize("random", 1, 1, 4, 2, seed=3)
        write_v1(tmp_path / "v1.ndjson", header, events)
        header1, events1 = read_trace(tmp_path / "v1.ndjson")
        write_trace(tmp_path / "v2.ndjson", header1, events1)
        header2, events2 = read_trace(tmp_path / "v2.ndjson")
        assert header2.format_version == 2
        assert_same_events(events1, events2)

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

    @pytest.mark.parametrize("version", sorted(WRITERS))
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bad_event_names_line(self, tmp_path, version, case):
        header, events = self._trace()
        index, change, message = self.CASES[case]
        lineno = _corrupt(events, index, **change(events[index]))
        path = tmp_path / "t.ndjson"
        WRITERS[version](path, header, events)
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

    @pytest.mark.parametrize("version", sorted(WRITERS))
    @pytest.mark.parametrize("case", sorted(ID_CASES))
    def test_non_integer_event_id_names_line(self, tmp_path, version, case):
        header, events = self._trace()
        index, name, change = self.ID_CASES[case]
        lineno = _corrupt(events, index, **{name: change(events[index])})
        path = tmp_path / "t.ndjson"
        WRITERS[version](path, header, events)
        with pytest.raises(TraceFormatError, match=f"line {lineno}: {name} must be an integer"):
            read_trace(path)
        assert main(["replay", "--trace", str(path), "--out", str(tmp_path / "s.csv")]) == 2

    @pytest.mark.parametrize("version", sorted(WRITERS))
    def test_valid_trace_reads(self, tmp_path, version):
        header, events = self._trace()
        path = tmp_path / "t.ndjson"
        WRITERS[version](path, header, events)
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
        assert header2 == dataclasses.replace(header, format_version=2)
        assert_same_events(events, events2)

    @settings(max_examples=60, deadline=None)
    @given(traces())
    def test_v1_text_reads_back_to_same_arrays(self, trace):
        header, events = trace
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.ndjson"
            write_v1(path, header, events)
            header1, events1 = read_trace(path)
        assert header1 == dataclasses.replace(header, format_version=1)
        assert_same_events(events, events1)

    @settings(max_examples=15, deadline=None)
    @given(pattern=st.sampled_from(["repetitive", "random", "depth_concentrated"]),
           seed=st.integers(0, 2**16), n_seqs=st.integers(1, 2),
           p_global=st.sampled_from([0.25, 0.4]),
           anchor_mode=st.sampled_from(["ema", "exact_mean"]))
    def test_v1_and_v2_replay_to_same_decisions(self, pattern, seed, n_seqs, p_global,
                                                anchor_mode):
        header, events = synthesize(pattern, 4, 2, 8, 24, seed=seed, n_seqs=n_seqs)
        prune = PruneConfig(p_global=p_global, anchor_mode=anchor_mode, warmup_steps=4,
                            tau_init=0.5)
        with tempfile.TemporaryDirectory() as tmp:
            results = []
            for version, write in WRITERS.items():
                path = Path(tmp) / f"v{version}.ndjson"
                write(path, header, events)
                results.append(replay(*read_trace(path), prune))
        v1, v2 = results
        assert decisions(v1) == decisions(v2)
        assert v1.summary == v2.summary
        assert v1.global_mass_lost == v2.global_mass_lost


def test_cli_replay_of_v1_file_matches_its_v2_rewrite(tmp_path):
    header, events = synthesize("depth_concentrated", 4, 2, 8, 40, seed=7)
    write_v1(tmp_path / "v1.ndjson", header, events)
    write_trace(tmp_path / "v2.ndjson", *read_trace(tmp_path / "v1.ndjson"))
    for version in (1, 2):
        assert main(["replay", "--trace", str(tmp_path / f"v{version}.ndjson"),
                     "--out", str(tmp_path / f"v{version}.csv"),
                     "--report", str(tmp_path / f"v{version}.reports")]) == 0
    assert (tmp_path / "v1.csv").read_bytes() == (tmp_path / "v2.csv").read_bytes()
    assert (tmp_path / "v1.reports").read_bytes() == (tmp_path / "v2.reports").read_bytes()
