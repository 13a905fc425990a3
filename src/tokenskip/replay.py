"""Offline policy evaluation: run the filter state machine over a recorded or
synthetic trace, exactly as the live engine would, and score the decisions
against the trace's ground-truth attention rows.

Replay runs in two passes per block of BLOCK_STEPS steps. One
FilterEngine.score_steps call scores every filtered (seq, layer) event of the
block, step by step in (seq, layer) order; then each step runs begin_step,
FilterEngine.decide, FlopsLedger.charge_event per event, and end_step. A
token's evidence depends only on the K/V stream, so scoring it ahead of the
controller changes nothing: the live engine decides the same rows one process
call at a time through the same steps, and the two agree bit for bit. The
summary is the live one: reporting.summarize with metrics.mass_lost_by_layer."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .filtering import FilterEngine
from .metrics import FlopsLedger, FlopsModel, mass_lost_by_layer
from .policy import PruneConfig
from .reporting import StepReport, summarize
from .trace import TraceEvent, TraceHeader

# Steps scored per score_steps call: one similarity kernel per block, with the
# block's float64 K/V and anchor copies kept small (256 KB each for 4 filtered
# rows per step of 4 heads x 16).
BLOCK_STEPS = 64


class TraceCompatibilityError(ValueError):
    """Trace dimensions or contents do not fit the requested evaluation."""


@dataclass
class ReplayResult:
    header: TraceHeader
    reports: list[StepReport]
    summary: list[dict]
    ledger: FlopsLedger

    @property
    def global_skip_ratio(self) -> float:
        return self.summary[-1]["skip_ratio"]

    @property
    def global_mass_lost(self) -> float | None:
        mass = self.summary[-1]["mass_lost"]
        return None if mass == "" else mass


def replay(header: TraceHeader, events: list[TraceEvent], prune: PruneConfig) -> ReplayResult:
    """Drive the filter and threshold controller over a trace.

    Decisions consume only the per-token K/V, so a replay of a recorded live
    session under the same policy reproduces the live skip sequence bit for
    bit. Skipped events attribute their recorded attention mass to the loss
    proxy; a trace without full-cache rows (none, or compacted ones) has no
    mass metrics, and global_mass_lost is None. Prompt positions named by the
    header replay in shadow, exactly as the live engine treats them.
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

    reports: list[StepReport] = []
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
                skipped, report = (engine.decide(e.layer, e.seq, next(evidence), step)
                                   if e.layer in layers else (False, None))
                would_len = hypo_len[key] + 1
                ledger.charge_event(would_len, flops_model, skipped, report)
                if not skipped or prune.cache_on_skip == "keep":
                    hypo_len[key] = would_len
                if report is not None:
                    reports.append(report)
            engine.end_step()

    lost = mass_lost_by_layer(events, reports)
    return ReplayResult(header=header, reports=reports,
                        summary=summarize(reports, header.n_layers, lost), ledger=ledger)
