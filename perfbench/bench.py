"""Workloads, timed phases, output checks and metrics of the tokenskip benchmark.

A run has two timed phases, and every workload runs both, so that every
end-to-end metric is defined on every workload:

- decode: closed-loop greedy decoding. Each operation decodes one prompt
  twice, once dense (`prune=None`, no filter at all) and once filtered (the
  default `PruneConfig`). Each prompt has a model of its own, with weights
  from its own seed.
- sweep: one operation writes the workload's trace to a file, reads it back,
  and replays the read events under each cell of a 2 x 2 policy grid.

The workload fixes the model size, the trace, and the share of the run each
phase gets. Output checks run outside the timed spans.
"""

from __future__ import annotations

import ctypes
import gc
import glob
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import NamedTuple

import numpy as np

from perfbench import tracer

model_mod = importlib.import_module("tokenskip.model")
policy_mod = importlib.import_module("tokenskip.policy")
replay_mod = importlib.import_module("tokenskip.replay")
trace_mod = importlib.import_module("tokenskip.trace")

PruneConfig = policy_mod.PruneConfig

# The default PruneConfig comes first: it is the cell the deterministic
# metrics and the read-back check use.
GRID = tuple(PruneConfig(p_global=p, anchor_mode=a)
             for p in (0.25, 0.4) for a in ("ema", "exact_mean"))
SETUP_REPEATS = 5
MIN_SWEEPS = 3
PROMPT_STREAM = 1  # second word of the prompt generator's seed
MODEL_STREAM = 2   # second word of each prompt's model seed


@dataclass(frozen=True)
class Workload:
    name: str
    n_layers: int
    n_heads: int
    d_head: int
    d_ff: int
    max_seq: int
    prompt_len: int
    n_prompts: int
    trace_positions: int   # positions per sequence of the sweep trace
    check_positions: int   # length of the recorded filtered and the p_global=0 sessions
    synth_seqs: int = 0    # 0: record the sweep trace from a dense session; else synthesize
    synth_layers: int = 0  # layers of the synthetic trace
    decode_share: float = 0.75
    ttft_probes: int = 0   # extra prompt-only filtered decode() calls per decode operation

    def model_config(self, seed: int):
        return model_mod.ModelConfig(
            n_layers=self.n_layers, n_heads=self.n_heads, d_model=self.n_heads * self.d_head,
            d_head=self.d_head, d_ff=self.d_ff, max_seq=self.max_seq, seed=seed)


# Why each workload exists is in BENCHMARK.json and README.md: live_small is
# dispatch-bound, live_long gives attention over a long cache its largest
# share, and replay_sweep spends most of its time in trace IO and replay.
WORKLOADS = {w.name: w for w in (
    Workload("live_small",
             n_layers=4, n_heads=4, d_head=16, d_ff=128, max_seq=256, prompt_len=64,
             n_prompts=8, trace_positions=256, check_positions=112, decode_share=0.6),
    Workload("live_long",
             n_layers=4, n_heads=4, d_head=16, d_ff=128, max_seq=768, prompt_len=16,
             n_prompts=5, trace_positions=256, check_positions=112, decode_share=0.75,
             ttft_probes=2),
    Workload("replay_sweep",
             n_layers=4, n_heads=4, d_head=16, d_ff=128, max_seq=256, prompt_len=64,
             n_prompts=6, trace_positions=256, check_positions=112, synth_seqs=2,
             synth_layers=4, decode_share=0.25),
)}


# -- set-up ------------------------------------------------------------------------


def model_seed(seed: int, prompt: int) -> int:
    """Weight seed of a prompt's model. The FLOPs ratio of random weights
    spreads across seeds; summed over several models it spreads less."""
    return int(np.random.SeedSequence([seed, MODEL_STREAM, prompt]).generate_state(1)[0])


@dataclass
class Setup:
    models: list   # (config, weights) of each prompt
    prompts: list
    header: object
    events: list
    init_s: float
    trace_s: float


def record_session(config, weights, prune, prompt, positions):
    """Decode prompt up to `positions` positions with attention rows recorded.
    Returns (result, header, events)."""
    session = model_mod.DecodeSession(config, prune, mode="filtered" if prune else "dense",
                                      weights=weights, record=True)
    recorder = trace_mod.TraceRecorder(config.n_layers, config.n_heads, config.d_head,
                                       generator_params={"prefill_steps": str(len(prompt))})
    result = session.decode(prompt, positions - len(prompt), recorder=recorder)
    return result, recorder.header(), recorder.events


def build(w: Workload, seed: int) -> Setup:
    """Models, prompts and the sweep trace, all from the seed."""
    configs = [w.model_config(model_seed(seed, p)) for p in range(w.n_prompts)]
    t = perf_counter()
    models = [(config, model_mod.init_weights(config)) for config in configs]
    init_s = perf_counter() - t
    rng = np.random.default_rng([seed, PROMPT_STREAM])
    prompts = [rng.integers(0, configs[0].vocab_size, w.prompt_len).tolist()
               for _ in range(w.n_prompts)]
    t = perf_counter()
    if w.synth_seqs:
        header, events = trace_mod.synthesize("repetitive", w.synth_layers, w.n_heads, w.d_head,
                                              w.trace_positions, seed=seed, n_seqs=w.synth_seqs)
    else:
        # A dense recording keeps every cache column, so replay's mass-lost
        # column indices are valid for it.
        _, header, events = record_session(*models[0], None, prompts[0], w.trace_positions)
    trace_s = perf_counter() - t
    return Setup(models, prompts, header, events, init_s, trace_s)


# -- timed operations ----------------------------------------------------------------


class _Clock:
    """decode() recorder that reads the clock at the end of each position.

    decode() hands every (position, layer) event to its recorder; only the
    last layer's event reads the clock, so the timed path is decode() itself."""

    def __init__(self, last_layer: int):
        self.last_layer = last_layer
        self.stamps: list[float] = []

    def add_event(self, seq, step, layer, k, v, attn=None):
        if layer == self.last_layer:
            self.stamps.append(perf_counter())


class Reference:
    """A fixed NumPy and JSON kernel, independent of tokenskip, timed on both
    sides of every timed sample.

    On a shared 2-vCPU VM the speed drifts by up to a quarter over minutes,
    and a whole run can sit in a slow stretch. Each sample is scaled by
    NOMINAL_S / (kernel time beside it), so a value reads as measured on a
    machine where the kernel takes NOMINAL_S. The kernel mixes the small-array
    NumPy calls that dominate decode and replay with the float-to-text work
    that dominates trace IO.
    """

    NOMINAL_S = 0.012

    def __init__(self):
        self.scales: list[float] = []
        self.busy_s = 0.0  # scaled time inside the bracketed functions
        rng = np.random.default_rng(0)
        self.matrix = (rng.standard_normal((64, 64)) / 8).astype(np.float32)
        self.vector = rng.standard_normal(64).astype(np.float32)
        self.floats = rng.standard_normal(4000).tolist()

    def seconds(self) -> float:
        t = perf_counter()
        x = self.vector
        for _ in range(250):
            x = self.matrix @ x
            x = (x - x.mean()) / np.sqrt(x.var() + np.float32(1e-5))
        json.loads(json.dumps(self.floats))
        return perf_counter() - t

    def around(self, fn):
        """Run fn between two kernel timings; return (fn(), scale factor).

        A collection first, so that no sample pays for garbage an earlier
        one left behind."""
        gc.collect()
        before = self.seconds()
        t = perf_counter()
        out = fn()
        busy = perf_counter() - t
        self.scales.append(2.0 * self.NOMINAL_S / (before + self.seconds()))
        self.busy_s += busy * self.scales[-1]
        return out, self.scales[-1]

    def timed(self, fn):
        """(fn(), its wall time in seconds, scaled)."""
        (out, seconds), scale = self.around(lambda: _clocked(fn))
        return out, seconds * scale


def _clocked(fn, *args):
    t = perf_counter()
    out = fn(*args)
    return out, perf_counter() - t


def _timed_loop(budget_s: float, op, min_calls: int) -> tuple[int, float]:
    """Call op(0), op(1), ... at least min_calls times, then while the next
    call is predicted to end within the budget. Returns (calls, seconds)."""
    start = perf_counter()
    n = 0
    while True:
        op(n)
        n += 1
        elapsed = perf_counter() - start
        if n >= min_calls and elapsed * (n + 1) / n > budget_s:
            return n, elapsed


def _decisions(reports) -> list:
    return [(r.seq, r.step, r.layer, r.skipped, r.s_kv) for r in reports]


class Outcome(NamedTuple):
    """What two replays of the same events under one policy must agree on."""

    decisions: list
    ledger: object
    mass_lost: float
    skip_ratio: float


def _outcome(result) -> Outcome:
    return Outcome(_decisions(result.reports), result.ledger, result.global_mass_lost,
                   result.global_skip_ratio)


class Run:
    """State of one benchmark run: samples, first outputs, failures."""

    def __init__(self, w: Workload, setup: Setup, tmp_dir: str):
        self.w = w
        self.setup = setup
        self.trace_path = os.path.join(tmp_dir, "trace.ndjson")
        self.n_steps = w.max_seq - w.prompt_len
        self.samples = defaultdict(list)
        self.tokens = {"dense": {}, "filtered": {}}
        self.gaps = defaultdict(list)   # prompt -> filtered inter-token gaps of each repetition
        self.flops = [0, 0]             # first filtered session of each prompt: actual, dense_equiv
        self.cell_flops = {}            # cell -> (actual, dense_equiv) of its first replay
        self.default_cells = []         # default-cell outcome of each sweep
        self.trace_bytes = 0
        self.attempted = 0
        self.failures: list[str] = []
        self._read = None
        self.ref = Reference()

    def _op(self, what: str, fn) -> None:
        """One attempted operation or check; fn returns a list of problems."""
        self.attempted += 1
        try:
            problems = fn()
        except Exception as exc:  # a raising operation counts as failed; the run goes on
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")

    # -- decode phase --

    def decode_pair(self, i: int) -> None:
        p = i % len(self.setup.prompts)
        self._op(f"dense decode {i}", lambda: self._decode(p, None))
        self._op(f"filtered decode {i}", lambda: self._decode(p, PruneConfig()))
        for j in range(self.w.ttft_probes):
            self._op(f"prompt-only decode {i}.{j}", lambda: self._prompt_only(p))

    def _decode(self, p: int, prune) -> list[str]:
        prompt = self.setup.prompts[p]
        config, weights = self.setup.models[p]
        kind = "filtered" if prune else "dense"
        session = model_mod.DecodeSession(config, prune, mode=kind, weights=weights)
        clock = _Clock(config.n_layers - 1)
        (t0, result), scale = self.ref.around(
            lambda: (perf_counter(), session.decode(prompt, self.n_steps, recorder=clock)))
        last_prompt = clock.stamps[len(prompt) - 1]
        self.samples[f"{kind}_gen_s"].append((clock.stamps[-1] - last_prompt) * scale)
        if prune is not None:
            self.samples["ttft_s"].append((last_prompt - t0) * scale)
            self.gaps[p].append(np.diff(clock.stamps[len(prompt):]) * scale)
            if p not in self.tokens[kind]:
                # Only the first repetition counts: how often a prompt
                # repeats depends on the machine's speed.
                self.flops[0] += result.flops.actual
                self.flops[1] += result.flops.dense_equiv
        problems = []
        if not result.flops.conserved():
            problems.append("FLOPs ledger not conserved")
        if len(result.tokens) != self.w.max_seq:
            problems.append(f"{len(result.tokens)} tokens, expected {self.w.max_seq}")
        if result.tokens != self.tokens[kind].setdefault(p, result.tokens):
            problems.append("tokens differ from the first repetition of this prompt")
        return problems

    def _prompt_only(self, p: int) -> list[str]:
        prompt = self.setup.prompts[p]
        config, weights = self.setup.models[p]
        session = model_mod.DecodeSession(config, PruneConfig(), mode="filtered", weights=weights)
        clock = _Clock(config.n_layers - 1)
        (t0, result), scale = self.ref.around(
            lambda: (perf_counter(), session.decode(prompt, 0, recorder=clock)))
        self.samples["ttft_s"].append((clock.stamps[-1] - t0) * scale)
        return [] if result.tokens == prompt else ["a prompt-only decode changed the prompt"]

    # -- sweep phase --

    def sweep(self, i: int) -> None:
        self._op(f"trace write {i}", self._write)
        self._op(f"trace read {i}", self._read_back)
        for c, cell in enumerate(GRID):
            self._op(f"replay {i} cell {c}", lambda: self._replay(c, cell))

    def _write(self) -> list[str]:
        events = self.setup.events
        n, seconds = self.ref.timed(
            lambda: trace_mod.write_trace(self.trace_path, self.setup.header, events))
        self.samples["write_s"].append(seconds)
        # Flush outside the timed span, so that no later sample shares the
        # machine with this file's writeback.
        with open(self.trace_path, "rb") as fh:
            os.fsync(fh.fileno())
        self.trace_bytes = os.path.getsize(self.trace_path)
        return [] if n == len(events) else [f"wrote {n} of {len(events)} events"]

    def _read_back(self) -> list[str]:
        self._read = None
        (header, events), seconds = self.ref.timed(lambda: trace_mod.read_trace(self.trace_path))
        self.samples["read_s"].append(seconds)
        self._read = header, events
        if header != self.setup.header or len(events) != len(self.setup.events):
            return ["read-back header or event count differs from the written trace"]
        return []

    def _replay(self, c: int, cell) -> list[str]:
        header, events = self._read
        result, seconds = self.ref.timed(lambda: replay_mod.replay(header, events, cell))
        self.samples[f"replay_s_cell{c}"].append(seconds)
        self.cell_flops.setdefault(c, (result.ledger.actual, result.ledger.dense_equiv))
        if c == 0:
            self.default_cells.append(_outcome(result))
        return [] if result.ledger.conserved() else ["FLOPs ledger not conserved"]

    # -- checks outside the timed spans --

    def check_all(self) -> None:
        self._op("check p_global=0 gives the dense tokens", self._check_zero_budget)
        self._op("check live decode == replay of its trace", self._check_live_replay)
        self._op("check read-back replay == in-memory replay", self._check_read_back)

    def _check_zero_budget(self) -> list[str]:
        prompt = self.setup.prompts[0]
        config, weights = self.setup.models[0]
        session = model_mod.DecodeSession(config, PruneConfig(p_global=0.0), mode="filtered",
                                          weights=weights)
        result = session.decode(prompt, self.w.check_positions - len(prompt))
        dense = self.tokens["dense"].get(0, [])[:self.w.check_positions]
        return [] if result.tokens == dense else ["tokens differ from the dense session"]

    def _check_live_replay(self) -> list[str]:
        result, header, events = record_session(*self.setup.models[0], PruneConfig(),
                                                self.setup.prompts[0], self.w.check_positions)
        replayed = replay_mod.replay(header, events, PruneConfig())
        problems = []
        if _decisions(result.reports) != _decisions(replayed.reports):
            problems.append("replayed decisions differ from the live ones")
        if not result.reports:
            problems.append("the recorded session made no decisions")
        if result.tokens != self.tokens["filtered"].get(0, [])[:self.w.check_positions]:
            problems.append("recorded tokens are not a prefix of the timed filtered tokens")
        if not (result.flops.conserved() and replayed.ledger.conserved()):
            problems.append("FLOPs ledger not conserved")
        return problems

    def _check_read_back(self) -> list[str]:
        ref = _outcome(replay_mod.replay(self.setup.header, self.setup.events, GRID[0]))
        if any(outcome != ref for outcome in self.default_cells):
            return ["a replay of the read-back trace differs from the in-memory replay"]
        return [] if self.default_cells else ["no replay of the read-back trace completed"]


# -- metrics -------------------------------------------------------------------------


def _median(xs) -> float:
    return float(statistics.median(xs))


def _tail_gap(gaps: dict) -> float:
    """95th percentile over generated positions of each position's median gap
    across the repetitions of its prompt. A burst of contention lands on one
    repetition of a position, not on most of them."""
    per_position = [np.median(np.stack(reps), axis=0) for reps in gaps.values()]
    return float(np.percentile(np.concatenate(per_position), 95))


def _all_gaps(gaps: dict) -> np.ndarray:
    return np.concatenate([g for reps in gaps.values() for g in reps])


def end_to_end(run: Run, setup_s: float) -> dict[str, float]:
    s = run.samples
    n_events = len(run.setup.events)
    grid_actual, grid_dense = map(sum, zip(*run.cell_flops.values()))
    replay_s = sum(_median(s[f"replay_s_cell{c}"]) for c in range(len(GRID)))
    return {
        "setup_s": setup_s,
        "decode_tok_s": run.n_steps / _median(s["filtered_gen_s"]),
        "dense_decode_tok_s": run.n_steps / _median(s["dense_gen_s"]),
        "ttft_ms_p50": 1e3 * _median(s["ttft_s"]),
        "itl_ms_p50": 1e3 * _median(_all_gaps(run.gaps)),
        "itl_ms_p95": 1e3 * _tail_gap(run.gaps),
        "replay_events_s": n_events * len(GRID) / replay_s,
        "trace_write_events_s": n_events / _median(s["write_s"]),
        "trace_read_events_s": n_events / _median(s["read_s"]),
        "flops_ratio": run.flops[0] / run.flops[1],
        "replay_flops_ratio": grid_actual / grid_dense,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(run: Run, tr: tracer.Tracer, overhead: float, gap_p95_s: float, init_s: list,
              trace_s: list) -> dict[str, float]:
    out = {}
    stats = tr.stats()
    for name, st in stats.items():
        calls = st["calls"]
        out[f"{name}.calls"] = calls
        out[f"{name}.us_per_call"] = st["total_us"] / calls if calls else 0.0
        if st["has_children"]:
            out[f"{name}.self_us"] = st["self_us"] / calls if calls else 0.0
    replays = stats["replay.replay"]
    replayed_events = replays["calls"] * len(run.setup.events)
    default = run.default_cells[0]
    out.update({
        "filtering.decisions": tr.decisions,
        "filtering.skipped": tr.skipped,
        "filtering.skip_ratio": tr.skipped / tr.decisions if tr.decisions else 0.0,
        "filtering.shadow": tr.shadow,
        "filtering.degenerate": tr.degenerate,
        "model.decode.gap_ms_p95": 1e3 * gap_p95_s,
        "replay.replay.self_us_per_event":
            replays["self_us"] / replayed_events if replayed_events else 0.0,
        "replay.mass_lost": default.mass_lost,
        "policy.budget_error": abs(default.skip_ratio - GRID[0].p_global),
        "trace.bytes_per_event": run.trace_bytes / len(run.setup.events),
        "setup.init_weights_s": _median(init_s),
        "setup.build_trace_s": _median(trace_s),
        "tracing.overhead_ratio": overhead,
    })
    return out


# -- one run -----------------------------------------------------------------------


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, out_dir: str,
                 import_s: float = 0.0) -> dict:
    """Set up, measure, check. Returns the metric values and the run record."""
    ref = Reference()
    setup_s, init_s, trace_s, scales = [], [], [], []
    for _ in range(SETUP_REPEATS):
        setup = None  # the previous set-up is garbage before the next is timed
        (setup, took), scale = ref.around(lambda: _clocked(build, w, seed))
        setup_s.append(took * scale)
        init_s.append(setup.init_s * scale)
        trace_s.append(setup.trace_s * scale)
        scales.append(scale)
    os.makedirs(out_dir, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix="trace-", dir=out_dir)
    try:
        run = Run(w, setup, tmp_dir)
        run._op("check the untraced pass calls unwrapped functions",
                lambda: [f"{name} is wrapped" for name in tracer.wrapped()])
        decode_budget = w.decode_share * seconds
        # Every prompt decodes at least three times: its tokens are compared,
        # and each position's gap has a median over repetitions.
        n_decode, decode_s = _timed_loop(decode_budget, run.decode_pair, 3 * w.n_prompts)
        n_sweep, _ = _timed_loop(seconds - decode_s, run.sweep, MIN_SWEEPS)
        values = end_to_end(run, import_s * _median(scales) + _median(setup_s))
        if trace:
            untraced_busy_s = run.ref.busy_s
            gap_p95_s = float(np.percentile(_all_gaps(run.gaps), 95))
            with tracer.Tracer() as tr:
                for i in range(n_decode):
                    run.decode_pair(i)
                for i in range(n_sweep):
                    run.sweep(i)
            # Scaled time inside the timed samples on each side; the reference
            # kernel and the collection around each sample count on neither.
            overhead = (run.ref.busy_s - untraced_busy_s) / untraced_busy_s
            values = per_layer(run, tr, overhead, gap_p95_s, init_s, trace_s)
        run.check_all()
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    record = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
        "decode_ops": n_decode, "sweep_ops": n_sweep,
        "samples": {k: len(v) for k, v in run.samples.items()},
        "trace_events": len(setup.events), "trace_bytes": run.trace_bytes,
        "reference_scale_min_median_max": [min(run.ref.scales), _median(run.ref.scales),
                                           max(run.ref.scales)],
        "failures": run.failures,
    }
    if trace:
        tr.write_spans(os.path.join(out_dir, f"spans_{w.name}_seed{seed}.npz"))
    return {"correct": not run.failures, "attempted": run.attempted,
            "failed": len(run.failures), "values": values, "record": record}


# -- environment record --------------------------------------------------------------


def _blas_threads():
    """Threads the bundled OpenBLAS will use, read from the library itself."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit(root: str) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest(root: str) -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "tokenskip", "*.py"))):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def environment(root: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(root),
        "source_sha256_16": _source_digest(root),
        "seeds": {"bench": seed, "synthetic_trace": seed, "prompts": [seed, PROMPT_STREAM],
                  "model_weights": [seed, MODEL_STREAM, "<prompt index>"]},
    }


def result_line(result: dict, metrics: list[dict]) -> dict:
    """The result object: the named metrics, each with its unit."""
    values = result["values"]
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in metrics}}


def write_record(path: str, result: dict, env: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"environment": env, **result}, fh, indent=1, default=float)
