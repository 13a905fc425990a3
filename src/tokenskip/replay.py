"""Offline policy evaluation: run the filter state machine over a recorded or
synthetic trace, exactly as the live engine would, and score the decisions
against the trace's ground-truth attention rows.

Replay runs in two passes per block of BLOCK_STEPS steps. One
FilterEngine.score_steps call scores every filtered (seq, layer) event of the
block, step by step in (seq, layer) order; then each step runs begin_step,
FilterEngine.decide, the ledger per event, and end_step. A token's evidence
depends only on the K/V stream, so scoring it ahead of the controller changes
nothing: the live engine decides the same rows one process call at a time
through the same steps, and the two agree bit for bit."""

from __future__ import annotations

import csv
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .filtering import FilterEngine
from .metrics import FlopsLedger, FlopsModel
from .policy import PruneConfig
from .reporting import StepReport
from .trace import TraceEvent, TraceHeader

# Steps scored per score_steps call: one similarity kernel per block, with the
# block's float64 K/V and anchor copies kept small (256 KB each for 4 filtered
# rows per step of 4 heads x 16).
BLOCK_STEPS = 64

SUMMARY_COLUMNS = ("layer", "eligible", "skipped", "skip_ratio", "mean_s_kv",
                   "mean_alpha", "mass_lost", "flops_saved")


class TraceCompatibilityError(ValueError):
    """Trace dimensions or contents do not fit the requested evaluation."""


@dataclass
class ReplayResult:
    header: TraceHeader
    reports: list[StepReport]
    summary: list[dict]
    ledger: FlopsLedger
    skipped_positions: dict = field(default_factory=dict)
    global_skip_ratio: float = 0.0
    global_mass_lost: float | None = None
    mass_by_layer: dict = field(default_factory=dict)

    def scores_by_event(self) -> dict:
        return {(r.seq, r.step, r.layer): r.s_kv for r in self.reports}


def replay(header: TraceHeader, events: list[TraceEvent], prune: PruneConfig,
           require_attn: bool = False) -> ReplayResult:
    """Drive the filter and threshold controller over a trace.

    Decisions consume only the per-token K/V, so a replay of a recorded live
    session under the same policy reproduces the live skip sequence bit for
    bit. Skipped events attribute their recorded attention mass to the loss
    proxy. Prompt positions named by the header replay in shadow, exactly as
    the live engine treats them.
    """
    engine = FilterEngine(header.n_layers, header.n_heads, header.d_head, prune)
    flops_model = FlopsModel.from_dims(header.n_heads, header.d_head)
    ledger = FlopsLedger()
    prefill_steps = header.prefill_steps

    by_step: dict[int, list[TraceEvent]] = defaultdict(list)
    for e in events:
        if e.k.shape != (header.n_heads, header.d_head) or e.v.shape != e.k.shape:
            raise TraceCompatibilityError("event K/V dimensions do not match the header")
        by_step[e.step].append(e)

    # Mass lost indexes attention columns by step, which holds only when every
    # row spans the full cache; a recording that dropped skipped tokens from
    # its cache has compacted rows, and gets no mass metrics.
    have_attn = bool(events) and all(e.attn is not None and e.attn.shape[1] == e.step + 1
                                     for e in events)
    if require_attn and not have_attn:
        raise TraceCompatibilityError(
            "metric requires full-cache attention rows, but the trace lacks them "
            "or has compacted rows")

    reports: list[StepReport] = []
    skipped_positions: dict[tuple[int, int], set[int]] = defaultdict(set)
    hypo_len: dict[tuple[int, int], int] = defaultdict(int)

    layers = engine.layers
    steps = sorted(by_step)
    for first in range(0, len(steps), BLOCK_STEPS):
        block = []
        for step in steps[first:first + BLOCK_STEPS]:
            step_events = sorted(by_step[step], key=lambda ev: (ev.seq, ev.layer))
            keys = [(e.seq, e.layer) for e in step_events]
            for a, b in zip(keys, keys[1:]):
                if a == b:
                    raise TraceCompatibilityError(
                        f"event (seq={a[0]}, step={step}, layer={a[1]}) appears twice")
            block.append((step, step_events))
        filtered = [[e for e in step_events if e.layer in layers] for _, step_events in block]
        rows = [e for step_rows in filtered for e in step_rows]
        evidence = iter(engine.score_steps(
            [[(e.layer, e.seq) for e in step_rows] for step_rows in filtered],
            np.array([(e.k, e.v) for e in rows], dtype=np.float32)) if rows else ())
        for step, step_events in block:
            engine.begin_step(prefill=step < prefill_steps)
            for e in step_events:
                key = (e.seq, e.layer)
                skipped, report = (engine.decide(e.layer, e.seq, next(evidence), step, enact=True)
                                   if e.layer in layers else (False, None))
                would_len = hypo_len[key] + 1
                if skipped:
                    skipped_positions[key].add(e.step)
                    report.flops_saved = ledger.charge_skip(would_len, flops_model)
                    if prune.cache_on_skip == "keep":
                        hypo_len[key] = would_len
                else:
                    hypo_len[key] = would_len
                    delta = ledger.charge_keep(would_len, flops_model,
                                               decided=report is not None)
                    if report is not None:
                        report.flops_saved = delta
                if report is not None:
                    reports.append(report)
            engine.end_step()

    # -- aggregation ----------------------------------------------------------
    decided_steps: dict[int, set] = defaultdict(set)
    by_layer: dict[int, list[StepReport]] = defaultdict(list)
    for r in reports:
        by_layer[r.layer].append(r)
        decided_steps[r.layer].add((r.seq, r.step))

    n_decided = max((len(s) for s in decided_steps.values()), default=0)
    global_decisions = n_decided * header.n_layers if n_decided else 0

    mass_by_layer: dict[int, float] = {}
    global_mass: float | None = None
    if have_attn:
        # A skipped event loses its whole row; kept events lose the mass their
        # rows put on positions the policy dropped earlier (or at this step).
        # Columns keep the set's own order: the float32 sum depends on it.
        dropped_cols = {key: np.fromiter(steps, dtype=np.intp, count=len(steps))
                        for key, steps in skipped_positions.items()}
        raw_lost: dict[int, float] = defaultdict(float)
        for e in events:
            cols = dropped_cols.get((e.seq, e.layer))
            if cols is None:
                continue
            cols = cols[cols < e.attn.shape[1]]
            if cols.size:
                raw_lost[e.layer] += float(e.attn[:, cols].sum()) / e.attn.shape[0]
        total_lost = 0.0
        for layer in range(header.n_layers):
            eligible = len(by_layer.get(layer, ()))
            mass_by_layer[layer] = raw_lost[layer] / eligible if eligible else 0.0
            total_lost += raw_lost[layer]
        global_mass = total_lost / global_decisions if global_decisions else 0.0

    summary = []
    total_skipped = 0
    total_saved = 0
    for layer in range(header.n_layers):
        rs = by_layer.get(layer, [])
        eligible = len(rs)
        skipped = sum(1 for r in rs if r.skipped)
        saved = sum(r.flops_saved for r in rs)
        total_skipped += skipped
        total_saved += saved
        summary.append({
            "layer": layer,
            "eligible": eligible,
            "skipped": skipped,
            "skip_ratio": skipped / eligible if eligible else 0.0,
            "mean_s_kv": float(np.mean([r.s_kv for r in rs])) if rs else "",
            "mean_alpha": float(np.mean([r.alpha for r in rs])) if rs else "",
            "mass_lost": mass_by_layer.get(layer, "") if have_attn else "",
            "flops_saved": saved,
        })
    global_ratio = total_skipped / global_decisions if global_decisions else 0.0
    all_reports = [r for rs in by_layer.values() for r in rs]
    summary.append({
        "layer": "global",
        "eligible": global_decisions,
        "skipped": total_skipped,
        "skip_ratio": global_ratio,
        "mean_s_kv": float(np.mean([r.s_kv for r in all_reports])) if all_reports else "",
        "mean_alpha": float(np.mean([r.alpha for r in all_reports])) if all_reports else "",
        "mass_lost": global_mass if have_attn else "",
        "flops_saved": total_saved,
    })

    return ReplayResult(
        header=header, reports=reports, summary=summary, ledger=ledger,
        skipped_positions=dict(skipped_positions), global_skip_ratio=global_ratio,
        global_mass_lost=global_mass, mass_by_layer=mass_by_layer,
    )


def write_summary_csv(summary: list[dict], fh) -> None:
    w = csv.writer(fh)
    w.writerow(SUMMARY_COLUMNS)
    for row in summary:
        out = []
        for col in SUMMARY_COLUMNS:
            v = row[col]
            out.append(repr(v) if isinstance(v, float) else v)
        w.writerow(out)
