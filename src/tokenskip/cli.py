"""Command-line front end.

Commands: generate (live decoding), synth (synthetic traces), replay (offline
policy evaluation), sweep (grid of replays), report (merge result CSVs).
Exit codes: 0 success, 2 configuration or usage error, 1 runtime failure.
Flags mirror config field names one to one (snake_case becomes kebab-case);
config files use the same names in flat key=value form, and explicit flags
override file values. All randomness flows from --seed through named
sub-streams.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import sys
from dataclasses import fields
from pathlib import Path

from . import metrics, reporting, trace as trace_mod
from .model import DecodeSession, ModelConfig, load_weights, save_weights
from .replay import TraceCompatibilityError, replay as run_replay
from .policy import ConfigError, PruneConfig, config_from_mapping, parse_config_text
from .trace import TraceFormatError

PRUNE_FIELDS = [f.name for f in fields(PruneConfig)]
GRID_KEY_ALIASES = {"y": "tail_fraction"}


def _add_config_flags(p: argparse.ArgumentParser, prefix: str, cls, *aliases: str) -> None:
    """A --<field> flag for each field of the config dataclass cls, and
    --<prefix>-config (and its aliases) for a file of them."""
    p.add_argument(f"--{prefix}-config", *aliases, dest=f"{prefix}_config", metavar="PATH",
                   help=f"flat key=value file with {prefix} settings")
    defaults = cls()
    for f in fields(cls):
        default = getattr(defaults, f.name)
        p.add_argument("--" + f.name.replace("_", "-"), dest=f"{prefix}_{f.name}",
                       type=type(default), default=None,
                       help=f"override {f.name} (default {default})")


def _build_config(args, prefix: str, cls):
    """cls's defaults, overridden by its config file, overridden by its flags."""
    path = getattr(args, f"{prefix}_config")
    mapping = parse_config_text(Path(path).read_text()) if path else {}
    for f in fields(cls):
        v = getattr(args, f"{prefix}_{f.name}")
        if v is not None:
            mapping[f.name] = v
    return config_from_mapping(cls(), mapping)


# -- commands -------------------------------------------------------------------


def cmd_generate(args) -> int:
    if args.mode == "dense":
        given = ["--prune-config"] if args.prune_config else []
        given += ["--" + name.replace("_", "-") for name in PRUNE_FIELDS
                  if getattr(args, f"prune_{name}") is not None]
        if given:
            raise ConfigError(f"--mode dense runs no filter: drop {', '.join(given)}")
    prune = _build_config(args, "prune", PruneConfig)
    config = _build_config(args, "model", ModelConfig)
    prompt = list(args.prompt_bytes.encode("utf-8"))
    if not prompt:
        raise ConfigError("prompt_bytes must be non-empty")
    if len(prompt) + args.steps > config.max_seq:
        raise ConfigError(f"--steps {args.steps} after a {len(prompt)}-token prompt needs "
                          f"{len(prompt) + args.steps} positions, more than --max-seq "
                          f"{config.max_seq}")

    weights = load_weights(Path(args.load_weights).read_bytes()) if args.load_weights else None
    session = DecodeSession(config, prune if args.mode == "filtered" else None, mode=args.mode,
                            weights=weights, record=args.record is not None)
    recorder = None
    if args.record is not None:
        recorder = trace_mod.TraceRecorder(
            config.n_layers, config.n_heads, config.d_head, source="toy_model",
            generator_params={"prefill_steps": str(len(prompt)), "mode": args.mode,
                              "seed": str(config.seed)})
    result = session.decode(prompt, args.steps, recorder=recorder)

    if args.save_weights:
        Path(args.save_weights).write_bytes(save_weights(session.weights))
    if recorder is not None:
        recorder.save(args.record)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            reporting.write_reports(result.reports, fh)
    if args.summary:
        # A recording's attention rows give the mass lost, as its replay would.
        lost = metrics.mass_lost_by_layer(recorder.events, result.reports) if recorder else None
        with open(args.summary, "w", encoding="utf-8", newline="") as fh:
            reporting.write_summary_csv(
                reporting.summarize(result.reports, config.n_layers, lost), fh)

    skips = sum(1 for r in result.reports if r.skipped)
    decisions = len(result.reports)
    print(f"generated {args.steps} tokens (prompt {len(prompt)} bytes), mode={args.mode}")
    print(f"decisions={decisions} skipped={skips} "
          f"flops_saved_net={result.flops.saved_net} overhead={result.flops.overhead}")
    print("tokens:", " ".join(str(t) for t in result.tokens))
    return 0


def cmd_synth(args) -> int:
    header, events = trace_mod.synthesize(
        pattern=args.pattern, n_layers=args.layers, n_heads=args.heads, d_head=args.d_head,
        n_steps=args.steps, seed=args.seed, n_seqs=args.seqs, dict_size=args.dict_size,
        noise=args.noise, repeat_prob=args.repeat_prob, q_scale=args.q_scale, t0=args.t0,
        decay=args.decay, sink_gain=args.sink_gain, sink_count=args.sink_count,
        key_noise=args.key_noise, value_noise=args.value_noise)
    n = trace_mod.write_trace(args.out, header, events)
    print(f"wrote {n} events ({args.pattern}) to {args.out}")
    return 0


def cmd_replay(args) -> int:
    prune = _build_config(args, "prune", PruneConfig)
    header, events = trace_mod.read_trace(args.trace)
    result = run_replay(header, events, prune)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        reporting.write_summary_csv(result.summary, fh)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            reporting.write_reports(result.reports, fh)
    mass = result.global_mass_lost
    print(f"replayed {len(events)} events: global_skip_ratio={result.global_skip_ratio!r}"
          f" mass_lost={'n/a' if mass is None else repr(mass)}")
    return 0


def parse_grid(spec: str) -> dict[str, list[str]]:
    """Parse 'key=a,b;key2=c' into an ordered mapping of value lists."""
    grid: dict[str, list[str]] = {}
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"grid: expected key=values in {part!r}")
        key, values = part.split("=", 1)
        key = key.strip()
        key = GRID_KEY_ALIASES.get(key.lower(), key)
        if key not in PRUNE_FIELDS:
            raise ConfigError(f"grid: unknown config field {key!r}")
        if key in grid:
            raise ConfigError(f"grid: duplicate field {key!r}")
        vals = [v.strip() for v in values.split(",") if v.strip()]
        if not vals:
            raise ConfigError(f"grid: no values for {key!r}")
        grid[key] = vals
    if not grid:
        raise ConfigError("grid: empty specification")
    return grid


# Sweep CSV column -> the global summary column it reports.
SWEEP_METRICS = {"global_skip_ratio": "skip_ratio", "global_mass_lost": "mass_lost",
                 "flops_saved": "flops_saved", "mean_s_kv": "mean_s_kv",
                 "mean_alpha": "mean_alpha"}


def cmd_sweep(args) -> int:
    grid = parse_grid(args.grid)
    n_cells = 1
    for vals in grid.values():
        n_cells *= len(vals)
    if n_cells > args.max_cells:
        raise ConfigError(f"grid has {n_cells} cells, over the cap of {args.max_cells}")
    header, events = trace_mod.read_trace(args.trace)
    base = _build_config(args, "prune", PruneConfig)

    keys = list(grid)
    rows = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        mapping = dict(zip(keys, combo))
        try:
            prune = config_from_mapping(base, mapping)
        except ConfigError as exc:
            print(f"sweep: skipping cell {mapping}: {exc}", file=sys.stderr)
            continue
        result = run_replay(header, events, prune)
        rows.append(list(combo) + reporting.csv_cells(result.summary[-1],
                                                      SWEEP_METRICS.values()))
    if not rows:
        raise ConfigError(f"grid has no valid cell: all {n_cells} were skipped")
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(keys + list(SWEEP_METRICS))
        w.writerows(rows)
    print(f"swept {len(rows)} of {n_cells} cells into {args.out}")
    return 0


def _read_csv_strict(path) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: line 1: empty CSV") from None
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ConfigError(
                    f"{path}: line {reader.line_num}: expected {len(header)} fields, got {len(row)}")
            rows.append(row)
    return header, rows


def cmd_report(args) -> int:
    merged_header: list[str] | None = None
    merged_rows: list[list[str]] = []
    for path in args.inputs:
        header, rows = _read_csv_strict(path)
        if merged_header is None:
            merged_header = header
        elif header != merged_header:
            raise ConfigError(f"{path}: schema mismatch: {header} != {merged_header}")
        source = Path(path).stem
        merged_rows.extend([source] + row for row in rows)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["source"] + merged_header)
        w.writerows(merged_rows)
    if args.long_out:
        with open(args.long_out, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["source", "row", "metric", "value"])
            for i, row in enumerate(merged_rows):
                for col, value in zip(merged_header, row[1:]):
                    w.writerow([row[0], i, col, value])
    print(f"merged {len(args.inputs)} input(s), {len(merged_rows)} rows, into {args.out}")
    return 0


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tokenskip", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="run the toy decoder, optionally recording a trace")
    _add_config_flags(g, "model", ModelConfig)
    _add_config_flags(g, "prune", PruneConfig, "--config")
    g.add_argument("--prompt-bytes", default="once upon a time", help="prompt text; bytes are tokens")
    g.add_argument("--steps", type=int, default=32, help="decode steps to generate")
    g.add_argument("--mode", choices=("dense", "filtered"), default="filtered",
                   help="dense runs no filter; for its filter evidence, --record the run "
                        "and replay the trace with --tau-init inf")
    g.add_argument("--record", metavar="PATH", help="write a trace with exact attention")
    g.add_argument("--report", metavar="PATH", help="write decision reports as NDJSON")
    g.add_argument("--summary", metavar="PATH",
                   help="write the per-layer summary CSV (replay's schema)")
    g.add_argument("--save-weights", metavar="PATH", help="snapshot weights to a binary blob")
    g.add_argument("--load-weights", metavar="PATH", help="load weights from a binary blob")
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("synth", help="generate a synthetic trace")
    s.add_argument("--pattern", choices=trace_mod.PATTERNS, required=True)
    s.add_argument("--layers", type=int, default=8)
    s.add_argument("--heads", type=int, default=4)
    s.add_argument("--d-head", type=int, default=16)
    s.add_argument("--steps", type=int, default=256)
    s.add_argument("--seqs", type=int, default=1)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--dict-size", type=int, default=8)
    s.add_argument("--noise", type=float, default=0.1)
    s.add_argument("--repeat-prob", type=float, default=0.5)
    s.add_argument("--q-scale", type=float, default=4.0)
    s.add_argument("--t0", type=float, default=4.0)
    s.add_argument("--decay", type=float, default=0.45)
    s.add_argument("--sink-gain", type=float, default=1.2)
    s.add_argument("--sink-count", type=int, default=4)
    s.add_argument("--key-noise", type=float, default=0.0)
    s.add_argument("--value-noise", type=float, default=0.0)
    s.add_argument("--out", required=True, metavar="PATH")
    s.set_defaults(func=cmd_synth)

    r = sub.add_parser("replay", help="evaluate a policy over a trace")
    r.add_argument("--trace", required=True, metavar="PATH")
    _add_config_flags(r, "prune", PruneConfig, "--config")
    r.add_argument("--out", required=True, metavar="PATH", help="summary CSV path")
    r.add_argument("--report", metavar="PATH", help="write decision reports as NDJSON")
    r.set_defaults(func=cmd_replay)

    w = sub.add_parser("sweep", help="replay a grid of policies over one trace")
    w.add_argument("--trace", required=True, metavar="PATH")
    w.add_argument("--grid", required=True,
                   help="e.g. 'Y=0.4,0.5;gamma=0.8,0.9;p_global=0.2,0.33;fusion=kv,key_only'")
    _add_config_flags(w, "prune", PruneConfig, "--config")
    w.add_argument("--out", required=True, metavar="PATH")
    w.add_argument("--max-cells", type=int, default=1000)
    w.set_defaults(func=cmd_sweep)

    m = sub.add_parser("report", help="merge result CSVs into one comparison table")
    m.add_argument("--inputs", nargs="+", required=True, metavar="CSV")
    m.add_argument("--out", required=True, metavar="PATH")
    m.add_argument("--long-out", metavar="PATH", help="also write a plot-ready long-format CSV")
    m.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, TraceFormatError, TraceCompatibilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
