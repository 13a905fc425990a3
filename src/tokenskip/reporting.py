"""Per-decision telemetry records and their NDJSON stream format."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import IO, Iterable

REPORT_FIELDS = (
    "seq", "step", "layer", "s_k", "s_v", "var_k", "var_v", "alpha", "s_kv",
    "tau", "shadow", "skipped", "flops_saved", "degenerate",
)


@dataclass
class StepReport:
    """One skip decision: similarity evidence, threshold, outcome, FLOPs delta.

    step is the absolute position index in the sequence (prompt positions
    included). shadow marks decisions that were evaluated but not enacted.
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
        d = asdict(self)
        return json.dumps({k: d[k] for k in REPORT_FIELDS})


def write_reports(reports: Iterable[StepReport], fh: IO[str]) -> int:
    n = 0
    for r in reports:
        fh.write(r.to_json())
        fh.write("\n")
        n += 1
    return n

