"""Per-decision telemetry records, their NDJSON stream format, and the one
per-layer summary that live decode and replay both derive from them."""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import IO, Iterable, Sequence

import numpy as np

SUMMARY_COLUMNS = ("layer", "eligible", "skipped", "skip_ratio", "mean_s_kv",
                   "mean_alpha", "mass_lost", "flops_saved")


# Slotted: one object per decision, with no __dict__ beside it.
@dataclass(slots=True)
class StepReport:
    """One skip decision: similarity evidence, threshold, outcome, FLOPs delta.

    step is the absolute position index in the sequence (prompt positions
    included). shadow marks decisions that were evaluated but not applied.
    """

    seq: int
    step: int
    layer: int
    s_k: float
    s_v: float
    var_k: float
    var_v: float
    alpha: float
    s_kv: float
    tau: float
    shadow: bool
    skipped: bool
    flops_saved: int = 0
    degenerate: bool = False

    def to_json(self) -> str:
        """Strict JSON of the fields, in declaration order: a non-finite
        float is its repr string."""
        return json.dumps({k: repr(float(v)) if isinstance(v, float) and not math.isfinite(v)
                           else v for k, v in zip(_REPORT_FIELDS, _report_values(self))},
                          allow_nan=False)


_REPORT_FIELDS = tuple(f.name for f in fields(StepReport))
_report_values = attrgetter(*_REPORT_FIELDS)


def write_reports(reports: Iterable[StepReport], fh: IO[str]) -> int:
    """Write reports as NDJSON, one StepReport.to_json line each, and return
    their count. Every line is strict JSON: a non-finite float, such as the
    tau of a replay with an infinite tau_init, is the string "inf", as the
    summary CSV writes it, never the bare Infinity token."""
    n = 0
    for r in reports:
        fh.write(r.to_json())
        fh.write("\n")
        n += 1
    return n


def _summary_row(layer, reports: list[StepReport], eligible: int, lost: float | None) -> dict:
    skipped = sum(1 for r in reports if r.skipped)
    return {
        "layer": layer,
        "eligible": eligible,
        "skipped": skipped,
        "skip_ratio": skipped / eligible if eligible else 0.0,
        "mean_s_kv": float(np.mean([r.s_kv for r in reports])) if reports else "",
        "mean_alpha": float(np.mean([r.alpha for r in reports])) if reports else "",
        "mass_lost": "" if lost is None else (lost / eligible if eligible else 0.0),
        "flops_saved": sum(r.flops_saved for r in reports),
    }


def summarize(reports: Sequence[StepReport], n_layers: int,
              lost_by_layer: dict[int, float] | None = None) -> list[dict]:
    """One row per layer, filtered or not, then a global row.

    The reports hold at most one decision per (seq, step, layer): live decode
    makes one, and replay refuses a repeated event. So a layer's report count
    is its eligible count, and the global row counts every layer of every
    decided (seq, step) as a decision (the most reports of any one layer,
    times n_layers): the quantity a global budget constrains. mass_lost is
    the future mass of the row's skipped tokens (metrics.mass_lost_by_layer)
    over its eligible count, or empty, not zero, when unobserved: a "drop"
    recording's dropped columns are in no later row.
    """
    by_layer: dict[int, list[StepReport]] = defaultdict(list)
    for r in reports:
        by_layer[r.layer].append(r)
    rows = []
    total_lost = None if lost_by_layer is None else 0.0
    for layer in range(n_layers):
        rs = by_layer.get(layer, [])
        lost = None if lost_by_layer is None else lost_by_layer.get(layer, 0.0)
        if lost is not None:
            total_lost += lost  # layer by layer: the float sum depends on the order
        rows.append(_summary_row(layer, rs, len(rs), lost))
    n_global = max((len(rs) for rs in by_layer.values()), default=0) * n_layers
    # The global means run over the reports grouped by layer.
    grouped = [r for rs in by_layer.values() for r in rs]
    rows.append(_summary_row("global", grouped, n_global, total_lost))
    return rows


def csv_cells(row: dict, columns: Iterable[str]) -> list:
    """A summary row's values under columns, as the CSVs write them: floats
    as their repr, ints and "" (no value) as they are."""
    return [repr(row[col]) if isinstance(row[col], float) else row[col] for col in columns]


def write_summary_csv(summary: list[dict], fh: IO[str]) -> None:
    w = csv.writer(fh)
    w.writerow(SUMMARY_COLUMNS)
    w.writerows(csv_cells(row, SUMMARY_COLUMNS) for row in summary)
