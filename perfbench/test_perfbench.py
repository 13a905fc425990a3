"""Tests of the benchmark itself, at tiny sizes so they run in seconds."""

import dataclasses
import json
import os

import pytest

from perfbench import bench, tracer

with open(os.path.join(os.path.dirname(__file__), os.pardir, "BENCHMARK.json"),
          encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


@pytest.fixture(autouse=True)
def unscaled(monkeypatch):
    """Skip the reference kernel and its collections: they only cost time here."""
    monkeypatch.setattr(bench.Reference, "seconds", lambda self: bench.Reference.NOMINAL_S)
    monkeypatch.setattr(bench.gc, "collect", lambda: 0)


def tiny(name):
    return dataclasses.replace(bench.WORKLOADS[name], n_layers=2, n_heads=2, d_head=4, d_ff=8,
                               max_seq=24, prompt_len=4, trace_positions=12,
                               check_positions=12)


def run(name, tmp_path, trace=False):
    return bench.run_workload(tiny(name), seed=3, seconds=0.01, trace=trace,
                              out_dir=str(tmp_path))


def test_reference_scale_is_nominal_over_kernel_time(monkeypatch):
    monkeypatch.setattr(bench.Reference, "seconds", lambda self: 2 * bench.Reference.NOMINAL_S)
    assert bench.Reference().around(lambda: "out") == ("out", 0.5)


def test_workloads_match_benchmark_json():
    assert sorted(bench.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_runs_and_emits_every_metric(name, trace, tmp_path):
    result = run(name, tmp_path, trace)
    assert result["correct"], result["record"]["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    metrics = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["values"]) == {m["name"] for m in metrics}
    line = bench.result_line(result, metrics)
    for m in metrics:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v > 0 for v in result["values"].values())
    else:
        assert os.path.exists(tmp_path / f"spans_{name}_seed3.npz")


def test_flops_ratios_do_not_depend_on_the_run_length(tmp_path):
    w = dataclasses.replace(tiny("live_small"), n_prompts=2)
    short, long = (bench.run_workload(w, seed=3, seconds=seconds, trace=False,
                                      out_dir=str(tmp_path)) for seconds in (0.01, 1.0))
    assert long["record"]["decode_ops"] > short["record"]["decode_ops"]
    for name in ("flops_ratio", "replay_flops_ratio"):
        assert long["values"][name] == short["values"][name]


def test_traced_run_restores_the_unwrapped_functions(tmp_path):
    before = [(owner, attr, tracer._current(owner, attr))
              for t in tracer.targets() for owner, attr in t.owners]
    result = run("live_small", tmp_path, trace=True)
    assert result["values"]["model.decode.calls"] > 0
    assert all(tracer._current(owner, attr) is fn for owner, attr, fn in before)
    assert tracer.wrapped() == []


def test_untraced_run_fails_its_check_if_functions_are_wrapped(tmp_path):
    assert run("live_small", tmp_path)["failed"] == 0
    with tracer.Tracer():
        result = run("live_small", tmp_path)
    assert result["failed"] == 1
    assert "unwrapped" in result["record"]["failures"][0]


def test_corrupted_tokens_count_as_failed_operations(tmp_path, monkeypatch):
    decode = bench.model_mod.DecodeSession.decode

    def corrupting_decode(self, prompt_tokens, n_steps, recorder=None):
        result = decode(self, prompt_tokens, n_steps, recorder)
        if self.mode == "filtered" and n_steps:
            result.tokens[-1] = (result.tokens[-1] + 1) % self.config.vocab_size
        return result

    monkeypatch.setattr(bench.model_mod.DecodeSession, "decode", corrupting_decode)
    result = run("live_small", tmp_path)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["failed"] < result["attempted"]
