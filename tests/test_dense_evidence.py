"""A dense session runs no filter: it takes no prune config and makes no
decisions. The filter's evidence on a dense run has one route: record the run,
then replay the recording with tau_init=+inf, which skips nothing.

The route is pinned to what a dense session's own shadow telemetry reported
before it was removed. The digests below were computed at commit d01dddf,
the last one at which a dense DecodeSession took a PruneConfig and ran the
filter on its layers without acting on it, from the reports of that
telemetry: DecodeSession(config, prune, mode="dense").decode(...).reports.
Only tau, shadow and flops_saved can differ between the two routes, so the
digests cover every other field.

The rows they hash are checked in, in data/dense_evidence.json, and each
test first checks that the file still hashes to its digest. A run is then
compared with the file: the ids, the degenerate flag and the row count
exactly, the six float fields within FLOAT_TOLERANCE. The float fields come
out of float32 attention and BLAS dot products, whose last bits move with the
attention kernel's shape and with the BLAS kernel OpenBLAS picks for the CPU;
the decisions they feed do not."""

import csv
import dataclasses
import hashlib
import json
import math
import struct
from pathlib import Path

import pytest

from tokenskip.cli import main
from tokenskip.model import DecodeSession, ModelConfig, init_weights
from tokenskip.policy import ConfigError, PruneConfig
from tokenskip.replay import replay
from tokenskip.trace import TraceRecorder, read_trace

EVIDENCE = ("seq", "step", "layer", "s_k", "s_v", "var_k", "var_v", "alpha", "s_kv",
            "degenerate")

CONFIGS = {
    "ema_kv": PruneConfig(tail_fraction=1.0, warmup_steps=2),
    "exact_mean_key_only_keep": PruneConfig(anchor_mode="exact_mean", fusion="key_only",
                                            cache_on_skip="keep"),
    "ema_value_only": PruneConfig(fusion="value_only", gamma=0.8, tail_fraction=1.0),
}

PROMPT = [9, 8, 7, 100, 31, 42, 5, 250, 17, 64]
N_STEPS = 40

# The telemetry digests at commit d01dddf, by (config, model seed): 196
# decisions each over four filtered layers, 98 over two.
TELEMETRY = {
    ("ema_kv", 0): "2758d5ad2ad248a001a53afb36090667f01caa03a9209a8a0a9727dd092dfca9",
    ("ema_kv", 1): "7d72428e3de67b44693daf8ed9828097efacd13b487ddb4c18187ec8969388b3",
    ("ema_kv", 2): "07f27c7bf030ff8c4e2bd50aab10235b881c7d602d56087f340576b0b0d34026",
    ("exact_mean_key_only_keep", 0):
        "9150eca781b388f726bcded8996db085b32b095fdd17a5f7ddd764b9540ae243",
    ("exact_mean_key_only_keep", 1):
        "322bc7381b27c383c3a3b37ddc6e9c9016f925477f19312221bfbd065442739a",
    ("exact_mean_key_only_keep", 2):
        "5d4fb5a060a395ecfe89cae1a670e98f89307c2beb3c6ed96ec3ed98062fb0e0",
    ("ema_value_only", 0): "8c92e858de73af36fb8f7e687ca0056a59c4cbb73c13d4972e7b4e33a1609750",
    ("ema_value_only", 1): "5e1b6a1393c1777d67b4b88410fa3f23ceaa4189efde5c407b96008f1fd765b0",
    ("ema_value_only", 2): "fdaa1f4952fdef6f0462524a70846d12df7f75e3d06134e5b0c3f78543263a5f",
}

# ema_kv on model(3) with a zero key head at layer 2 and a zero value head at
# layer 3: the 98 decisions of those layers are degenerate.
DEGENERATE_TELEMETRY = "2ff759268b25d967ce811604b46a61944f10b882eb915416b757028e5a0be455"

# generate --steps 24 --prompt-bytes "dense evidence" --seed 4 --mode dense
# --report, at commit d01dddf: 74 decisions.
CLI_TELEMETRY = "c855aa9e21679000cfc394e4bd3754d6a35e29c8be37e5393e55238d293e9c35"

# The tokens model(5) generated after PROMPT in a dense session, and its
# ledger, at commit d01dddf: the same with and without a prune config.
DENSE_TOKENS = [192] * 7 + [127] * 6 + [248] * 2 + [164] * 25
DENSE_FLOPS = 2393200

# The rows behind every digest above, by case: "<config>/<seed>",
# "degenerate" and "cli".
REFERENCE = json.loads((Path(__file__).parent / "data" / "dense_evidence.json").read_text())

# Absolute, on s_k, s_v, var_k, var_v, alpha and s_kv.
FLOAT_TOLERANCE = 1e-5


def model(seed: int) -> ModelConfig:
    return ModelConfig(n_layers=4, n_heads=4, d_model=32, d_head=8, d_ff=48, max_seq=64,
                       seed=seed)


def evidence_digest(rows) -> str:
    """SHA-256 over each decision's EVIDENCE tuple: the ids as int64, the
    floats as their float64 bytes, the flag as one byte."""
    h = hashlib.sha256()
    for row in rows:
        h.update(struct.pack("<3q6d?", *row))
    return h.hexdigest()


def assert_matches_reference(rows, case: str, digest: str) -> None:
    """rows against the checked-in rows of case, which must hash to digest:
    ids, flag and count exactly, the float fields within FLOAT_TOLERANCE."""
    want = [tuple(row) for row in REFERENCE[case]]
    assert evidence_digest(want) == digest
    rows = list(rows)
    assert len(rows) == len(want)
    for got, ref in zip(rows, want):
        assert got[:3] + got[9:] == ref[:3] + ref[9:], ref[:3]
        drift = max(abs(a - b) for a, b in zip(got[3:9], ref[3:9]))
        assert drift <= FLOAT_TOLERANCE, (ref[:3], got[3:9], ref[3:9])


def replayed_evidence(config, weights, prune, tmp_path) -> list:
    """Record a dense decode of PROMPT, replay it at tau_init=+inf, and return
    the replay's EVIDENCE tuples."""
    session = DecodeSession(config, None, mode="dense", weights=weights, record=True)
    recorder = TraceRecorder(config.n_layers, config.n_heads, config.d_head,
                             generator_params={"prefill_steps": str(len(PROMPT))})
    assert session.decode(PROMPT, N_STEPS, recorder=recorder).reports == []
    path = tmp_path / "dense.trace"
    recorder.save(path)
    result = replay(*read_trace(path), dataclasses.replace(prune, tau_init=math.inf))
    assert result.reports and not any(r.skipped for r in result.reports)
    return [tuple(getattr(r, name) for name in EVIDENCE) for r in result.reports]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_replay_at_infinite_tau_gives_the_dense_telemetry_evidence(config_name, seed,
                                                                   tmp_path):
    config = model(seed)
    rows = replayed_evidence(config, init_weights(config), CONFIGS[config_name], tmp_path)
    assert_matches_reference(rows, f"{config_name}/{seed}", TELEMETRY[config_name, seed])


def test_replay_at_infinite_tau_gives_degenerate_evidence_too(tmp_path):
    config = model(3)
    weights = init_weights(config)
    weights.layers[2].wkv[0][8:16] = 0.0
    weights.layers[3].wkv[1][0:8] = 0.0
    rows = replayed_evidence(config, weights, CONFIGS["ema_kv"], tmp_path)
    assert sum(row[-1] for row in rows) == 98
    assert_matches_reference(rows, "degenerate", DEGENERATE_TELEMETRY)


def test_the_cli_route_gives_the_dense_telemetry_evidence(tmp_path):
    trace, report = tmp_path / "d.trace", tmp_path / "d.ndjson"
    assert main(["generate", "--steps", "24", "--prompt-bytes", "dense evidence", "--seed", "4",
                 "--mode", "dense", "--record", str(trace)]) == 0
    assert main(["replay", "--trace", str(trace), "--tau-init", "inf", "--out",
                 str(tmp_path / "d.csv"), "--report", str(report)]) == 0
    rows = [json.loads(line) for line in report.read_text().splitlines()]
    assert len(rows) == 74
    assert_matches_reference((tuple(r[name] for name in EVIDENCE) for r in rows), "cli",
                             CLI_TELEMETRY)


def test_a_dense_session_takes_no_prune_config():
    with pytest.raises(ConfigError, match="dense mode takes none"):
        DecodeSession(model(0), PruneConfig(), mode="dense")
    with pytest.raises(ConfigError, match="filtered mode requires a prune config"):
        DecodeSession(model(0), None, mode="filtered")


def test_a_dense_decode_makes_no_decisions_and_keeps_its_tokens():
    session = DecodeSession(model(5), None, mode="dense")
    result = session.decode(PROMPT, N_STEPS)
    assert session.engine is None
    assert result.reports == []
    assert result.tokens == PROMPT + DENSE_TOKENS
    ledger = result.flops
    assert (ledger.actual, ledger.dense_equiv, ledger.overhead) == (DENSE_FLOPS, DENSE_FLOPS, 0)
    assert ledger.conserved()


def test_generate_dense_prints_no_decisions_and_writes_empty_reports(tmp_path, capsys):
    report, summary = tmp_path / "r.ndjson", tmp_path / "s.csv"
    assert main(["generate", "--steps", "6", "--prompt-bytes", "ab", "--mode", "dense",
                 "--report", str(report), "--summary", str(summary)]) == 0
    assert "decisions=0 skipped=0 flops_saved_net=0 overhead=0" in capsys.readouterr().out
    assert report.read_text() == ""
    with open(summary, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["layer"] for row in rows] == ["0", "1", "2", "3", "global"]
    assert all(row["eligible"] == "0" for row in rows)
