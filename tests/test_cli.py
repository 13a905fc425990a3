import argparse
import csv
import json
from dataclasses import fields

import pytest

from tokenskip.cli import _build_config, build_parser, main, parse_grid
from tokenskip.model import MAX_MODEL_VALUES, ModelConfig
from tokenskip.policy import ConfigError, PruneConfig
from tokenskip.trace import read_trace


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestExitCodes:
    def test_unknown_flag_exits_2_with_usage(self, capsys):
        # unknown flags, those of removed config fields included, are rejected
        for argv in (("synth", "--pattern", "random", "--out", "x", "--bogus-flag", "1"),
                     ("replay", "--trace", "t", "--out", "x", "--fusion-formula", "literal_eq2")):
            with pytest.raises(SystemExit) as exc:
                run_cli(*argv)
            assert exc.value.code == 2
            assert "usage" in capsys.readouterr().err

    def test_invalid_pattern_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("synth", "--pattern", "nope", "--out", "x")
        assert exc.value.code == 2

    def test_config_error_returns_2(self, tmp_path, capsys):
        rc = run_cli("generate", "--steps", "1", "--p-global", "0.9",
                     "--tail-fraction", "0.5")
        assert rc == 2
        assert "p_global" in capsys.readouterr().err

    @pytest.mark.parametrize("line, field", [("gamma = abc", "gamma"),
                                             ("warmup_steps = 2.5", "warmup_steps"),
                                             ("variance_mode = instant", "variance_mode")])
    def test_non_numeric_prune_config_value_exits_2_naming_the_field(self, tmp_path, capsys,
                                                                     line, field):
        cfg = tmp_path / "prune.cfg"
        cfg.write_text(line + "\n")
        rc = run_cli("generate", "--steps", "1", "--prune-config", str(cfg))
        err = capsys.readouterr().err
        assert rc == 2
        assert field in err and "runtime error" not in err

    def test_non_numeric_model_config_value_exits_2_naming_the_field(self, tmp_path, capsys):
        cfg = tmp_path / "model.cfg"
        cfg.write_text("n_layers = abc\n")
        rc = run_cli("generate", "--steps", "1", "--model-config", str(cfg))
        err = capsys.readouterr().err
        assert rc == 2
        assert "n_layers" in err and "runtime error" not in err

    # Each file takes only its own config's fields.
    @pytest.mark.parametrize("flag, key", [("--model-config", "gamma"),
                                           ("--prune-config", "n_layers"),
                                           ("--config", "bogus_key")])
    def test_unknown_config_file_key_exits_2_naming_it(self, tmp_path, capsys, flag, key):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} = 1\n")
        rc = run_cli("generate", "--steps", "1", flag, str(cfg))
        err = capsys.readouterr().err
        assert rc == 2
        assert f"field: {key}" in err and "runtime error" not in err

    # A billion steps is past the trace's value cap, refused before any
    # allocation, not a MemoryError.
    @pytest.mark.parametrize("argv", [("--steps", "-3"), ("--layers", "0"),
                                      ("--repeat-prob", "1.0"), ("--dict-size", "0"),
                                      ("--steps", "1000000000")])
    def test_bad_synth_argument_exits_2_and_writes_no_file(self, tmp_path, capsys, argv):
        out = tmp_path / "x"
        assert run_cli("synth", "--pattern", "random", *argv, "--out", str(out)) == 2
        assert "runtime error" not in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("t0", ["0", "-1", "nan"])
    def test_a_non_positive_t0_exits_2_naming_it(self, tmp_path, capsys, t0):
        out = tmp_path / "y"
        assert run_cli("synth", "--pattern", "depth_concentrated", "--t0", t0,
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "t0 must be positive" in err and "event" not in err
        assert not out.exists()

    # Each of these was dropped or mirrored silently, or failed later as "event
    # 0: attn values must be finite", while the header recorded the argument.
    @pytest.mark.parametrize("flag, value, problem", [
        ("--noise", "nan", "finite"), ("--noise", "-0.1", "non-negative"),
        ("--q-scale", "nan", "finite"), ("--q-scale", "inf", "finite"),
        ("--t0", "inf", "finite"), ("--decay", "nan", "finite"), ("--decay", "inf", "finite"),
        ("--sink-gain", "nan", "finite"), ("--sink-gain", "-1", "non-negative"),
        ("--sink-count", "-1", "non-negative"),
        ("--key-noise", "nan", "finite"), ("--key-noise", "-1", "non-negative"),
        ("--value-noise", "nan", "finite"), ("--value-noise", "-0.5", "non-negative"),
    ])
    def test_a_non_finite_or_negative_synth_parameter_exits_2_naming_it(
            self, tmp_path, capsys, flag, value, problem):
        out = tmp_path / "s"
        assert run_cli("synth", "--pattern", "depth_concentrated", "--steps", "8", flag, value,
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        name = flag[2:].replace("-", "_")
        assert f"{name} must be {problem}" in err and "event" not in err
        assert not out.exists()

    def test_a_zero_noise_is_valid(self, tmp_path):
        out = tmp_path / "z"
        assert run_cli("synth", "--pattern", "depth_concentrated", "--steps", "8", "--noise", "0",
                       "--key-noise", "0", "--value-noise", "0", "--sink-gain", "0",
                       "--out", str(out)) == 0
        assert out.exists()

    def test_replay_with_a_nan_eta_exits_2_and_writes_no_file(self, tmp_path, capsys):
        trace = tmp_path / "t.trace"
        assert run_cli("synth", "--pattern", "random", "--steps", "8", "--out", str(trace)) == 0
        out = tmp_path / "q.csv"
        assert run_cli("replay", "--trace", str(trace), "--eta", "nan", "--out", str(out)) == 2
        assert "eta must be in (0, 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_a_repeated_config_key_exits_2_and_writes_no_file(self, tmp_path, capsys):
        trace = tmp_path / "t.trace"
        assert run_cli("synth", "--pattern", "random", "--steps", "8", "--out", str(trace)) == 0
        cfg = tmp_path / "c.cfg"
        cfg.write_text("p_global=0.1\np_global = 0.4\n")
        out = tmp_path / "q.csv"
        assert run_cli("replay", "--trace", str(trace), "--config", str(cfg),
                       "--out", str(out)) == 2
        assert "line 2: duplicate key 'p_global' (first on line 1)" in capsys.readouterr().err
        assert not out.exists()

    def test_a_trace_that_does_not_fit_the_replay_exits_2(self, tmp_path, capsys,
                                                           monkeypatch):
        # read_trace refuses a 1-head row in a 4-head trace; events made in
        # memory reach replay's own check, which exits 2 as well.
        trace = tmp_path / "t.trace"
        assert run_cli("synth", "--pattern", "random", "--steps", "8", "--out", str(trace)) == 0
        header, events = read_trace(trace)
        events[3].attn = events[3].attn[:1]
        monkeypatch.setattr("tokenskip.cli.trace_mod.read_trace", lambda path: (header, events))
        out = tmp_path / "r.csv"
        assert run_cli("replay", "--trace", str(trace), "--out", str(out)) == 2
        assert "has an attention row of shape (1, " in capsys.readouterr().err
        assert not out.exists()

    def test_missing_trace_file_is_runtime_error(self, tmp_path):
        rc = run_cli("replay", "--trace", str(tmp_path / "nope.ndjson"),
                     "--out", str(tmp_path / "s.csv"))
        assert rc == 1


class TestSynthCommand:
    def test_writes_trace(self, tmp_path):
        out = tmp_path / "t.ndjson"
        rc = run_cli("synth", "--pattern", "repetitive", "--layers", "2", "--heads", "2",
                     "--d-head", "8", "--steps", "6", "--seed", "4", "--out", str(out))
        assert rc == 0
        header, events = read_trace(out)
        assert (header.n_layers, header.n_steps, len(events)) == (2, 6, 2 * 6)

    def test_zero_steps_header_only(self, tmp_path):
        out = tmp_path / "t.ndjson"
        assert run_cli("synth", "--pattern", "random", "--steps", "0",
                       "--out", str(out)) == 0
        assert read_trace(out)[1] == []

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        for path in (a, b):
            run_cli("synth", "--pattern", "depth_concentrated", "--steps", "12",
                    "--seed", "9", "--out", str(path))
        assert a.read_bytes() == b.read_bytes()


class TestReports:
    @staticmethod
    def _strict(line):
        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        return json.loads(line, parse_constant=refuse)

    @pytest.mark.parametrize("command", ["replay", "generate"])
    def test_an_infinite_tau_report_is_strict_json(self, tmp_path, command):
        trace, report = tmp_path / "t.trace", tmp_path / "r.ndjson"
        if command == "replay":
            assert run_cli("synth", "--pattern", "repetitive", "--layers", "2", "--heads", "2",
                           "--d-head", "8", "--steps", "24", "--seqs", "2",
                           "--out", str(trace)) == 0
            argv = ("replay", "--trace", str(trace), "--out", str(tmp_path / "s.csv"))
        else:
            argv = ("generate", "--steps", "8", "--mode", "filtered")
        assert run_cli(*argv, "--tau-init", "inf", "--report", str(report)) == 0
        lines = report.read_text().splitlines()
        assert lines and all(self._strict(line)["tau"] == "inf" for line in lines)


class TestGenerateCommand:
    def test_zero_steps_valid(self, tmp_path):
        rep = tmp_path / "rep.ndjson"
        summ = tmp_path / "s.csv"
        rc = run_cli("generate", "--steps", "0", "--prompt-bytes", "abc",
                     "--tail-fraction", "1.0",
                     "--report", str(rep), "--summary", str(summ), "--seed", "1")
        assert rc == 0
        assert rep.read_text().strip()
        assert read_csv(summ)[0][0] == "layer"

    @pytest.mark.parametrize("cache_on_skip", ["drop", "keep"])
    def test_live_summary_equals_replay_summary(self, tmp_path, cache_on_skip):
        trace, live, replayed, rep = (tmp_path / name for name in
                                      ("t.ndjson", "a.csv", "b.csv", "r.ndjson"))
        prune = ("--warmup-steps", "4", "--tau-init", "0.5", "--cache-on-skip", cache_on_skip)
        assert run_cli("generate", "--steps", "24", "--prompt-bytes", "hey", "--seed", "5",
                       "--mode", "filtered", "--record", str(trace), "--summary", str(live),
                       "--report", str(rep), *prune) == 0
        assert any(json.loads(line)["skipped"] for line in rep.read_text().splitlines())
        assert run_cli("replay", "--trace", str(trace), "--out", str(replayed), *prune) == 0
        assert live.read_bytes() == replayed.read_bytes()
        rows = read_csv(live)
        mass = rows[-1][rows[0].index("mass_lost")]
        # A dropped cache compacts the recorded rows, which give no mass.
        assert (mass == "") == (cache_on_skip == "drop")

    def test_zero_decisions_give_the_same_zero_summary(self, tmp_path):
        trace, live, replayed = tmp_path / "t.ndjson", tmp_path / "a.csv", tmp_path / "b.csv"
        # One prompt byte only sets the anchors: no position gets a decision.
        assert run_cli("generate", "--steps", "0", "--prompt-bytes", "a", "--seed", "5",
                       "--record", str(trace), "--summary", str(live)) == 0
        assert run_cli("replay", "--trace", str(trace), "--out", str(replayed)) == 0
        assert live.read_bytes() == replayed.read_bytes()
        rows = read_csv(live)
        assert [row[0] for row in rows[1:]] == ["0", "1", "2", "3", "global"]
        assert all(row[rows[0].index("eligible")] == "0" for row in rows[1:])

    def test_same_seed_byte_identical_outputs(self, tmp_path):
        outs = []
        for name in ("one", "two"):
            rep = tmp_path / f"{name}.ndjson"
            summ = tmp_path / f"{name}.csv"
            trace = tmp_path / f"{name}.trace"
            rc = run_cli("generate", "--steps", "12", "--prompt-bytes", "hi",
                         "--seed", "33", "--mode", "filtered",
                         "--report", str(rep), "--summary", str(summ),
                         "--record", str(trace))
            assert rc == 0
            outs.append((rep.read_bytes(), summ.read_bytes(), trace.read_bytes()))
        assert outs[0] == outs[1]

    def test_record_then_replay_round_trip(self, tmp_path):
        trace = tmp_path / "t.ndjson"
        rc = run_cli("generate", "--steps", "10", "--prompt-bytes", "xy",
                     "--mode", "dense", "--record", str(trace), "--seed", "2")
        assert rc == 0
        out = tmp_path / "summary.csv"
        rc = run_cli("replay", "--trace", str(trace), "--out", str(out),
                     "--p-global", "0.0", "--tail-fraction", "1.0")
        assert rc == 0
        rows = read_csv(out)
        header = rows[0]
        gl = rows[-1]
        assert gl[header.index("skipped")] == "0"
        assert float(gl[header.index("mass_lost")]) == 0.0

    @pytest.mark.parametrize("flag, value", [("--p-global", "0.3"),
                                             ("--anchor-mode", "exact_mean"),
                                             ("--prune-config", "prune.cfg")])
    def test_dense_mode_refuses_a_filter_flag_before_decoding(self, tmp_path, capsys, flag,
                                                               value):
        (tmp_path / "prune.cfg").write_text("p_global = 0.3\n")
        outputs = [tmp_path / name for name in ("t.trace", "r.ndjson", "s.csv")]
        rc = run_cli("generate", "--steps", "2", "--mode", "dense",
                     flag, str(tmp_path / value) if flag == "--prune-config" else value,
                     "--record", str(outputs[0]), "--report", str(outputs[1]),
                     "--summary", str(outputs[2]))
        assert rc == 2
        assert flag in capsys.readouterr().err
        assert not any(path.exists() for path in outputs)

    @pytest.mark.parametrize("steps", ["5", "6"])
    def test_steps_past_max_seq_exit_2_before_decoding(self, tmp_path, capsys, steps):
        # A 4-byte prompt and 5 or 6 steps need 9 or 10 positions of 8.
        outputs = [tmp_path / name for name in ("t.trace", "r.ndjson", "s.csv", "w.bin")]
        rc = run_cli("generate", "--steps", steps, "--prompt-bytes", "abcd", "--max-seq", "8",
                     "--record", str(outputs[0]), "--report", str(outputs[1]),
                     "--summary", str(outputs[2]), "--save-weights", str(outputs[3]))
        err = capsys.readouterr().err
        assert rc == 2
        assert "--steps" in err and "--max-seq" in err and "runtime error" not in err
        assert not any(path.exists() for path in outputs)
        # The positions that fit are a valid run.
        assert run_cli("generate", "--steps", "4", "--prompt-bytes", "abcd", "--max-seq", "8",
                       "--record", str(outputs[0])) == 0
        assert read_trace(outputs[0])[0].n_steps == 8

    def test_a_model_past_the_value_cap_exits_2_before_allocating(self, tmp_path, capsys):
        record = tmp_path / "t.trace"
        rc = run_cli("generate", "--max-seq", "1000000000000", "--steps", "1",
                     "--record", str(record))
        err = capsys.readouterr().err
        assert rc == 2
        assert f"above the cap of {MAX_MODEL_VALUES}" in err and "runtime error" not in err
        assert not record.exists()

    def test_weights_snapshot_round_trip(self, tmp_path):
        blob = tmp_path / "w.bin"
        rc = run_cli("generate", "--steps", "4", "--prompt-bytes", "ab", "--seed", "7",
                     "--save-weights", str(blob))
        assert rc == 0
        rep1 = tmp_path / "r1.ndjson"
        rep2 = tmp_path / "r2.ndjson"
        run_cli("generate", "--steps", "4", "--prompt-bytes", "ab", "--seed", "7",
                "--report", str(rep1))
        run_cli("generate", "--steps", "4", "--prompt-bytes", "ab", "--seed", "7",
                "--load-weights", str(blob), "--report", str(rep2))
        assert rep1.read_bytes() == rep2.read_bytes()

    def test_prune_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "prune.cfg"
        cfg.write_text("p_global=0.2\ntail_fraction=1.0\n")
        rep = tmp_path / "rep.ndjson"
        rc = run_cli("generate", "--steps", "6", "--prompt-bytes", "ab", "--seed", "3",
                     "--prune-config", str(cfg), "--p-global", "0.1",
                     "--report", str(rep))
        assert rc == 0
        first = json.loads(rep.read_text().splitlines()[0])
        assert first["layer"] == 0  # tail_fraction=1.0 from file reaches layer 0


def _field_flags(cls):
    return {"--" + f.name.replace("_", "-") for f in fields(cls)}


class TestConfigFlags:
    """One flag per config field, a file of them, and the flag winning."""

    # subcommand: (the config dataclasses whose fields it takes as flags,
    # the rest of its flags)
    FLAGS = {
        "generate": ((ModelConfig, PruneConfig),
                     {"--model-config", "--prune-config", "--config", "--prompt-bytes",
                      "--steps", "--mode", "--record", "--report", "--summary",
                      "--save-weights", "--load-weights"}),
        "synth": ((), {"--pattern", "--out", "--seed", "--seqs", "--steps", "--layers",
                       "--heads", "--d-head", "--t0", "--decay", "--noise", "--sink-count",
                       "--sink-gain", "--q-scale", "--key-noise", "--value-noise",
                       "--dict-size", "--repeat-prob"}),
        "replay": ((PruneConfig,), {"--trace", "--prune-config", "--config", "--out",
                                    "--report"}),
        "sweep": ((PruneConfig,), {"--trace", "--grid", "--prune-config", "--config",
                                   "--out", "--max-cells"}),
        "report": ((), {"--inputs", "--out", "--long-out"}),
    }

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_subcommand_flags_are_its_config_fields_and_its_own(self, command):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        got = {s for a in sub.choices[command]._actions for s in a.option_strings}
        classes, own = self.FLAGS[command]
        assert got == {"-h", "--help"} | own | set().union(*map(_field_flags, classes))

    @pytest.mark.parametrize("cls, prefix, line, argv, name, value", [
        (PruneConfig, "prune", "p_global = 0.2", ("--p-global", "0.1"), "p_global", 0.1),
        (ModelConfig, "model", "n_layers = 3", ("--n-layers", "2"), "n_layers", 2),
        (ModelConfig, "model", "seed = 5", ("--seed", "9"), "seed", 9),
    ])
    def test_flag_overrides_its_config_file(self, tmp_path, cls, prefix, line, argv,
                                            name, value):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{line}\ntail_fraction = 1.0\n" if cls is PruneConfig
                       else f"{line}\nd_ff = 32\n")
        args = build_parser().parse_args(["generate", f"--{prefix}-config", str(cfg), *argv])
        built = _build_config(args, prefix, cls)
        other = ("tail_fraction", 1.0) if cls is PruneConfig else ("d_ff", 32)
        assert (getattr(built, name), getattr(built, other[0])) == (value, other[1])
        rest = {f.name for f in fields(cls)} - {name, other[0]}
        assert all(getattr(built, f) == getattr(cls(), f) for f in rest)

    # The file's value is never parsed when a flag replaces it.
    @pytest.mark.parametrize("cls, prefix, line, argv, name, value", [
        (PruneConfig, "prune", "gamma = abc", ("--gamma", "0.8"), "gamma", 0.8),
        (ModelConfig, "model", "n_layers = abc", ("--n-layers", "2"), "n_layers", 2),
    ])
    def test_bad_file_value_under_a_flag_is_not_an_error(self, tmp_path, cls, prefix, line,
                                                         argv, name, value):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(line + "\n")
        args = build_parser().parse_args(["generate", f"--{prefix}-config", str(cfg), *argv])
        assert getattr(_build_config(args, prefix, cls), name) == value


class TestGridParsing:
    def test_example_grid(self):
        grid = parse_grid("Y=0.4,0.5,0.6;gamma=0.8,0.9,0.95;p_global=0.2,0.33,0.5;"
                          "fusion=kv,key_only,value_only")
        assert grid["tail_fraction"] == ["0.4", "0.5", "0.6"]
        assert grid["fusion"] == ["kv", "key_only", "value_only"]

    def test_unknown_key_names_token(self):
        # unknown keys, removed config fields included, are rejected, not ignored
        for spec, token in (("bogus=1,2", "bogus"), ("focus=tail,uniform", "focus")):
            with pytest.raises(ConfigError, match=token):
                parse_grid(spec)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            parse_grid(" ; ")


class TestSweepCommand:
    def _trace(self, tmp_path):
        path = tmp_path / "t.ndjson"
        run_cli("synth", "--pattern", "repetitive", "--layers", "2", "--heads", "2",
                "--d-head", "8", "--steps", "40", "--seed", "5", "--out", str(path))
        return path

    def test_single_cell_matches_plain_replay(self, tmp_path):
        trace = self._trace(tmp_path)
        sweep_out = tmp_path / "sweep.csv"
        rc = run_cli("sweep", "--trace", str(trace), "--grid", "p_global=0.25",
                     "--out", str(sweep_out), "--tail-fraction", "1.0")
        assert rc == 0
        replay_out = tmp_path / "replay.csv"
        run_cli("replay", "--trace", str(trace), "--out", str(replay_out),
                "--p-global", "0.25", "--tail-fraction", "1.0")
        sweep_rows = read_csv(sweep_out)
        replay_rows = read_csv(replay_out)
        g = replay_rows[-1]
        header = replay_rows[0]
        assert sweep_rows[1][sweep_rows[0].index("global_skip_ratio")] == \
            g[header.index("skip_ratio")]

    @pytest.mark.parametrize("source", ["synth", "compacted"])
    def test_every_metric_is_written_as_the_summary_csv_writes_it(self, tmp_path, source):
        prune = ("--tail-fraction", "1.0", "--warmup-steps", "4", "--tau-init", "0.5")
        if source == "synth":
            trace = self._trace(tmp_path)
        else:
            # A dropped cache compacts the recorded rows: no mass to report.
            trace = tmp_path / "t.ndjson"
            assert run_cli("generate", "--steps", "24", "--prompt-bytes", "hey", "--seed", "5",
                           "--record", str(trace), "--cache-on-skip", "drop", *prune) == 0
        sweep_out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--trace", str(trace), "--grid", "p_global=0.25",
                       "--out", str(sweep_out), *prune) == 0
        replay_out = tmp_path / "replay.csv"
        assert run_cli("replay", "--trace", str(trace), "--out", str(replay_out),
                       "--p-global", "0.25", *prune) == 0
        (sweep_header, sweep_row), replay_rows = read_csv(sweep_out), read_csv(replay_out)
        summary = dict(zip(replay_rows[0], replay_rows[-1]))
        assert sweep_header == ["p_global", "global_skip_ratio", "global_mass_lost",
                                "flops_saved", "mean_s_kv", "mean_alpha"]
        assert sweep_row[1:] == [summary[col] for col in
                                 ("skip_ratio", "mass_lost", "flops_saved", "mean_s_kv",
                                  "mean_alpha")]
        assert (sweep_row[2] == "") == (source == "compacted")

    def test_three_by_three_grid_yields_nine_rows(self, tmp_path):
        trace = self._trace(tmp_path)
        out = tmp_path / "sweep.csv"
        rc = run_cli("sweep", "--trace", str(trace), "--out", str(out),
                     "--grid", "p_global=0.1,0.2,0.3;gamma=0.8,0.9,0.95",
                     "--tail-fraction", "1.0")
        assert rc == 0
        assert len(read_csv(out)) == 10

    def test_invalid_cells_skipped_with_warning(self, tmp_path, capsys):
        trace = self._trace(tmp_path)
        out = tmp_path / "sweep.csv"
        rc = run_cli("sweep", "--trace", str(trace), "--out", str(out),
                     "--grid", "p_global=0.2,0.9;Y=0.5")
        assert rc == 0
        assert len(read_csv(out)) == 2  # the 0.9/0.5 cell is unreachable
        assert "skipping" in capsys.readouterr().err

    def test_a_non_numeric_cell_is_skipped_and_the_rest_written(self, tmp_path, capsys):
        trace = self._trace(tmp_path)
        out = tmp_path / "sweep.csv"
        rc = run_cli("sweep", "--trace", str(trace), "--out", str(out),
                     "--grid", "gamma=abc,0.9;p_global=0.2,0.25")
        assert rc == 0
        rows = read_csv(out)
        assert [row[:2] for row in rows[1:]] == [["0.9", "0.2"], ["0.9", "0.25"]]
        err = capsys.readouterr().err
        assert err.count("skipping") == 2 and "gamma" in err

    def test_a_grid_with_no_valid_cell_exits_2_and_writes_no_file(self, tmp_path, capsys):
        trace = self._trace(tmp_path)
        out = tmp_path / "sweep.csv"
        rc = run_cli("sweep", "--trace", str(trace), "--out", str(out),
                     "--grid", "p_global=2,3")
        assert rc == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("skipping") == 2 and "no valid cell" in err

    def test_cell_cap_enforced(self, tmp_path):
        trace = self._trace(tmp_path)
        rc = run_cli("sweep", "--trace", str(trace), "--out", str(tmp_path / "s.csv"),
                     "--grid", "p_global=0.1,0.2;gamma=0.8,0.9", "--max-cells", "3")
        assert rc == 2

    def test_grid_parse_error_exits_2(self, tmp_path, capsys):
        trace = self._trace(tmp_path)
        rc = run_cli("sweep", "--trace", str(trace), "--out", str(tmp_path / "s.csv"),
                     "--grid", "nonsense")
        assert rc == 2
        assert "nonsense" in capsys.readouterr().err


class TestReportCommand:
    def _write(self, path, rows):
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)

    def test_single_input_pass_through(self, tmp_path):
        src = tmp_path / "a.csv"
        self._write(src, [["layer", "x"], ["0", "1.5"]])
        out = tmp_path / "merged.csv"
        assert run_cli("report", "--inputs", str(src), "--out", str(out)) == 0
        rows = read_csv(out)
        assert rows[0] == ["source", "layer", "x"]
        assert rows[1] == ["a", "0", "1.5"]

    def test_two_inputs_differing_in_focus(self, tmp_path):
        a, b = tmp_path / "tail.csv", tmp_path / "head.csv"
        self._write(a, [["focus", "mass"], ["tail", "0.1"]])
        self._write(b, [["focus", "mass"], ["head", "0.4"]])
        out = tmp_path / "merged.csv"
        long_out = tmp_path / "long.csv"
        rc = run_cli("report", "--inputs", str(a), str(b), "--out", str(out),
                     "--long-out", str(long_out))
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == ["source", "focus", "mass"]
        assert {r[1] for r in rows[1:]} == {"tail", "head"}
        long_rows = read_csv(long_out)
        assert long_rows[0] == ["source", "row", "metric", "value"]
        assert len(long_rows) == 1 + 2 * 2

    def test_schema_mismatch_exits_2(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self._write(a, [["x"], ["1"]])
        self._write(b, [["y"], ["2"]])
        rc = run_cli("report", "--inputs", str(a), str(b),
                     "--out", str(tmp_path / "m.csv"))
        assert rc == 2
        assert "schema" in capsys.readouterr().err

    def test_malformed_csv_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n3\n")
        rc = run_cli("report", "--inputs", str(bad), "--out", str(tmp_path / "m.csv"))
        assert rc == 2
        assert "line 3" in capsys.readouterr().err
