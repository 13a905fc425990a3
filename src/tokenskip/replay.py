"""Offline policy evaluation: run the filter state machine over a recorded or
synthetic trace, exactly as the live engine would, and score the decisions
against the trace's ground-truth attention rows.

Replay refuses an event outside the header's ranges, or whose K/V or
attention row does not have the header's heads, then sorts the events
by (step, layer, seq) and makes one pass over them: an event with its
neighbour's ids is a duplicate. An unfiltered layer never skips, so each of
its (seq, layer) pairs is charged in closed form, its n events at cache
lengths 1..n (FlopsLedger.charge_keeps). A step's decode rank is its index
among all the trace's steps less the prompt steps' count. The step loop sees
only the filtered events, in two passes per block of BLOCK_STEPS steps. One
FilterEngine.score_steps call scores every filtered event of the block (its
anchors fold step by step, in runs of steps) from one np.concatenate of the
events' K/V; then one pass sorts the block's rows by layer, and each layer
makes one FilterEngine.decide call over its run of the block's steps, which
applies that layer's barrier after each step. FlopsLedger.charge_event, the
keep/skip rule live decode applies, charges each event at its (seq, layer)'s
cache length if kept and returns that pair's length after it, one less for a
skip that cache_on_skip "drop" leaves out; each filtered layer keeps its
lengths in a dict keyed by seq. Past its block, the loop keeps no container
per event but the reports, so a replay triggers few garbage collections. A
token's evidence depends only on the K/V stream, and no layer reads another's
state, so scoring it ahead of the controller and deciding layer by layer
change nothing: the live engine decides the same rows one process call at a
time at the same ranks, and the two agree bit for bit. The reports end
sorted by (step, seq, layer), and the summary is the live one:
reporting.summarize with metrics.mass_lost_by_layer."""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass
from operator import attrgetter

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
    flops_model = FlopsModel(header.n_heads, header.d_head)
    ledger = FlopsLedger()

    n_heads = header.n_heads
    kv_shape = (n_heads, header.d_head)
    n_seqs, n_steps, n_layers = header.n_seqs, header.n_steps, header.n_layers
    for e in events:
        if e.k.shape != kv_shape or e.v.shape != kv_shape:
            raise TraceCompatibilityError("event K/V dimensions do not match the header")
        # The row's shape, as read_trace checks it; its values stay with
        # read_trace, which a per-event sum here would pay for again.
        attn = e.attn
        if attn is not None and (attn.ndim != 2 or len(attn) != n_heads):
            raise TraceCompatibilityError(
                f"event (seq={e.seq}, step={e.step}, layer={e.layer}) has an attention row "
                f"of shape {attn.shape}, not ({n_heads}, columns)")
        # What read_trace refuses: an event the summary rows or the header's
        # steps would not account for.
        if not (0 <= e.seq < n_seqs and 0 <= e.step < n_steps and 0 <= e.layer < n_layers):
            raise TraceCompatibilityError(
                f"event (seq={e.seq}, step={e.step}, layer={e.layer}) lies outside the "
                f"header's ranges: n_seqs {n_seqs}, n_steps {n_steps}, n_layers {n_layers}")
    # (step, layer, seq) order by three stable sorts on one id each, with no
    # key tuple per event.
    ordered = sorted(events, key=attrgetter("seq"))
    ordered.sort(key=attrgetter("layer"))
    ordered.sort(key=attrgetter("step"))

    # One pass over the sorted events. An event equal in ids to the one
    # before it is a duplicate. The filtered events go to rows, each step's
    # from starts[i] on; steps lists every step, filtered rows or not. An
    # unfiltered layer never skips, so its n events of one (seq, layer) are
    # kept at cache lengths 1..n.
    layers = engine.layers
    rows: list[TraceEvent] = []
    steps: list[int] = []
    starts: list[int] = []
    unfiltered: Counter = Counter()
    last = None
    for e in ordered:
        if last is None or e.step != last.step:
            steps.append(e.step)
            starts.append(len(rows))
        elif e.layer == last.layer and e.seq == last.seq:
            raise TraceCompatibilityError(
                f"event (seq={e.seq}, step={e.step}, layer={e.layer}) appears twice")
        if e.layer in layers:
            rows.append(e)
        else:
            unfiltered[e.seq, e.layer] += 1
        last = e
    starts.append(len(rows))
    for n in unfiltered.values():
        ledger.charge_keeps(n, flops_model)
    first_decode = bisect_left(steps, header.prefill_steps)

    keep_on_skip = prune.cache_on_skip == "keep"
    reports: list[StepReport] = []
    # Each filtered layer's cache lengths, by seq.
    cache_lens: dict[int, dict[int, int]] = defaultdict(dict)
    for first in range(0, len(steps), BLOCK_STEPS):
        stop = min(first + BLOCK_STEPS, len(steps))
        block = rows[starts[first]:starts[stop]]
        if not block:
            continue
        step_rows = [rows[starts[i]:starts[i + 1]] for i in range(first, stop)]
        kv = np.concatenate([a for e in block for a in (e.k, e.v)], dtype=np.float32,
                            casting="unsafe")
        evidence = iter(engine.score_steps(
            [[(e.layer, e.seq) for e in step_events] for step_events in step_rows],
            kv.reshape((len(block), 2) + kv_shape)))
        # The block's rows by layer, each layer's in step order.
        by_layer: dict[int, list] = defaultdict(list)
        for rank, step_events in enumerate(step_rows, first - first_decode):
            for e in step_events:
                by_layer[e.layer].append((e.step, rank, e.seq, next(evidence)))
        for layer, layer_rows in by_layer.items():
            lens = cache_lens[layer]
            for (_, _, seq, _), (skipped, report) in zip(layer_rows,
                                                         engine.decide(layer, layer_rows)):
                lens[seq] = ledger.charge_event(
                    lens.get(seq, 0) + 1, flops_model, skipped, report, keep_on_skip)
                if report is not None:
                    reports.append(report)
    # (step, seq, layer) order, again by stable sorts on one id each.
    reports.sort(key=attrgetter("layer"))
    reports.sort(key=attrgetter("seq"))
    reports.sort(key=attrgetter("step"))

    lost = mass_lost_by_layer(events, reports)
    return ReplayResult(header=header, reports=reports,
                        summary=summarize(reports, header.n_layers, lost), ledger=ledger)
