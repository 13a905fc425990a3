"""Analytic FLOPs accounting, similarity-vs-attention correlation, and the
attention-mass-lost proxy.

FLOPs conventions, fixed so numbers are comparable across runs: one
multiply-accumulate counts as 2 FLOPs, softmax costs 5 FLOPs per element.
Only the attention path is accounted (projections, scores, mix); the FFN and
normalization execute identically in dense and filtered runs and cancel out
of every identity we track.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

import numpy as np

from .reporting import StepReport


@dataclass(frozen=True)
class FlopsModel:
    """Integer cost constants for one layer of the toy decoder.

    The costs a charge needs are derived once, at construction, so each
    charge is one multiply-add over the cache length.
    """

    n_heads: int
    d_head: int
    d_model: int
    filter_overhead_flops: int = field(init=False, repr=False, compare=False)
    _attention_fixed: int = field(init=False, repr=False, compare=False)
    _kept_fixed: int = field(init=False, repr=False, compare=False)
    _per_position: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Cost of one skip decision: head-wise cosines for keys and values,
        # their mean/variance reduction, the anchor updates, and the fused
        # compare. Charged on every decision, skip or keep.
        cosine = self.n_heads * (6 * self.d_head + 4)
        reduce_stats = 3 * self.n_heads + 2
        anchor_update = 3 * self.n_heads * self.d_head
        per_feature = cosine + reduce_stats + anchor_update
        derived = {
            "filter_overhead_flops": 2 * per_feature + 12,
            "_attention_fixed": self.q_proj_flops + self.o_proj_flops,
            "_kept_fixed": self.kv_proj_flops + self.q_proj_flops + self.o_proj_flops,
            "_per_position": self.attn_per_pos_flops + self.softmax_per_pos_flops,
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @classmethod
    def from_dims(cls, n_heads: int, d_head: int, d_model: int | None = None) -> "FlopsModel":
        return cls(n_heads=n_heads, d_head=d_head,
                   d_model=d_model if d_model is not None else n_heads * d_head)

    @property
    def q_proj_flops(self) -> int:
        return 2 * self.d_model * self.d_model

    @property
    def kv_proj_flops(self) -> int:
        return 4 * self.d_model * self.d_model

    @property
    def o_proj_flops(self) -> int:
        return 2 * self.d_model * self.d_model

    @property
    def attn_per_pos_flops(self) -> int:
        # score dot product + weighted value accumulate, per cached position
        return 4 * self.n_heads * self.d_head

    @property
    def softmax_per_pos_flops(self) -> int:
        return 5 * self.n_heads

    def attention_cost(self, cache_len: int) -> int:
        """The skippable work at a given cache length: Q projection, scores,
        softmax, value mix, output projection."""
        if cache_len < 1:
            raise ValueError("cache_len must be >= 1")
        return self._attention_fixed + self._per_position * cache_len

    def kept_cost(self, cache_len: int) -> int:
        """The whole attention path at a given cache length: K/V projection
        plus attention_cost."""
        if cache_len < 1:
            raise ValueError("cache_len must be >= 1")
        return self._kept_fixed + self._per_position * cache_len

    def skip_cost(self) -> int:
        # K/V are always projected; they feed the decision itself.
        return self.kv_proj_flops


def flops_saved(skipped: bool, cache_len: int, model: FlopsModel) -> int:
    """Net FLOPs delta of one decision: attention work avoided on a skip,
    minus the decision overhead either way."""
    if skipped:
        return model.attention_cost(cache_len) - model.filter_overhead_flops
    return -model.filter_overhead_flops


@dataclass
class FlopsLedger:
    """Integer accounting for one run.

    dense_equiv is what the same token stream would cost with every decision
    forced to keep, over the run's own cache trajectory. The exact identity
    dense_equiv == actual + saved_net + overhead holds for every run.
    """

    actual: int = 0
    dense_equiv: int = 0
    overhead: int = 0
    saved_net: int = 0

    def charge_keep(self, cache_len: int, model: FlopsModel, decided: bool) -> int:
        cost = model.kept_cost(cache_len)
        self.actual += cost
        self.dense_equiv += cost
        if decided:
            self.overhead += model.filter_overhead_flops
            delta = flops_saved(False, cache_len, model)
            self.saved_net += delta
            return delta
        return 0

    def charge_skip(self, cache_len_if_kept: int, model: FlopsModel) -> int:
        self.actual += model.skip_cost()
        self.dense_equiv += model.kept_cost(cache_len_if_kept)
        self.overhead += model.filter_overhead_flops
        delta = flops_saved(True, cache_len_if_kept, model)
        self.saved_net += delta
        return delta

    def charge_event(self, cache_len_if_kept: int, model: FlopsModel, skipped: bool,
                     report: StepReport | None) -> None:
        """Charge one event at the cache length it has if kept. An event with
        a report was decided by the filter: it pays the decision overhead and
        its net delta becomes report.flops_saved."""
        if skipped:
            delta = self.charge_skip(cache_len_if_kept, model)
        else:
            delta = self.charge_keep(cache_len_if_kept, model, decided=report is not None)
        if report is not None:
            report.flops_saved = delta

    def conserved(self) -> bool:
        return self.dense_equiv == self.actual + self.saved_net + self.overhead


# -- rank correlation ---------------------------------------------------------


def _ranks(values: np.ndarray) -> np.ndarray:
    """Average ranks (1-based), ties shared."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) != len(y) or len(x) < 2:
        raise ValueError("need two equal-length samples of size >= 2")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(np.dot(xc, xc)) * float(np.dot(yc, yc)))
    if denom == 0.0:
        raise ValueError("constant input has no defined correlation")
    r = float(np.dot(xc, yc)) / denom
    return min(1.0, max(-1.0, r))


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Rank correlation. Tie-free inputs use the exact d^2 formula in integer
    arithmetic, so perfectly monotone data yields exactly +-1.0."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) != len(y) or len(x) < 2:
        raise ValueError("need two equal-length samples of size >= 2")
    rx = _ranks(x)
    ry = _ranks(y)
    if len(set(x.tolist())) == len(x) and len(set(y.tolist())) == len(y):
        d = (rx - ry).astype(np.int64)
        n = len(x)
        return 1.0 - (6 * int(np.dot(d, d))) / (n * (n * n - 1))
    return pearson(rx, ry)


@dataclass(frozen=True)
class CorrelationEntry:
    layer: int
    head: int
    n: int
    spearman: float
    pearson: float


MIN_CORRELATION_SAMPLES = 8


def future_attention_mass(rows_by_step: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    """Per cache position: mean attention weight assigned by strictly later
    queries, per head.

    rows_by_step maps a step to that step's (n_heads, cache_len) row; cache
    position p corresponds to step p (full-cache traces only).
    """
    steps = sorted(rows_by_step)
    if not steps:
        return {}
    n_heads = rows_by_step[steps[0]].shape[0]
    sums: dict[int, np.ndarray] = {}
    counts: dict[int, int] = {}
    for q in steps:
        row = rows_by_step[q]
        for p in range(row.shape[1]):
            if p == q:
                continue  # only strictly later queries count
            if p not in sums:
                sums[p] = np.zeros(n_heads, dtype=np.float64)
                counts[p] = 0
            sums[p] += row[:, p]
            counts[p] += 1
    return {p: sums[p] / counts[p] for p in sums if counts[p] > 0}


def correlation_entries(scores: dict[tuple[int, int, int], float],
                        rows: dict[tuple[int, int, int], np.ndarray]) -> list[CorrelationEntry]:
    """Correlate each token's fused similarity at its insertion step with the
    mean attention mass later queries give its position.

    scores and rows are keyed by (seq, step, layer); rows must come from a
    full-cache trace (cache position == step). Entries with fewer than 8
    paired samples are omitted.
    """
    by_layer: dict[int, dict[int, dict[int, np.ndarray]]] = defaultdict(dict)
    for (s, t, l), row in rows.items():
        by_layer[l].setdefault(s, {})[t] = np.asarray(row, dtype=np.float64)

    pairs: dict[tuple[int, int], list[tuple[float, float]]] = defaultdict(list)
    for layer, seq_rows in by_layer.items():
        for seq, rows_by_step in seq_rows.items():
            for t, row in rows_by_step.items():
                if row.shape[1] != t + 1:
                    raise ValueError(
                        f"alignment mismatch at seq={seq} step={t} layer={layer}: "
                        f"row covers {row.shape[1]} positions, expected {t + 1}")
            mass = future_attention_mass(rows_by_step)
            for t, per_head in mass.items():
                score = scores.get((seq, t, layer))
                if score is None:
                    continue
                for h in range(len(per_head)):
                    pairs[(layer, h)].append((score, float(per_head[h])))

    entries = []
    for (layer, head), pts in sorted(pairs.items()):
        if len(pts) < MIN_CORRELATION_SAMPLES:
            continue
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        try:
            sp = spearman(xs, ys)
            pe = pearson(xs, ys)
        except ValueError:
            continue  # constant side, no defined coefficient
        entries.append(CorrelationEntry(layer=layer, head=head, n=len(pts), spearman=sp, pearson=pe))
    return entries


def write_correlation_csv(entries: Iterable[CorrelationEntry], fh: IO[str]) -> None:
    w = csv.writer(fh)
    w.writerow(["layer", "head", "n", "spearman", "pearson"])
    for e in entries:
        w.writerow([e.layer, e.head, e.n, repr(e.spearman), repr(e.pearson)])


# -- attention mass lost -------------------------------------------------------


def mass_lost_by_layer(events, reports: Iterable[StepReport]) -> dict[int, float] | None:
    """Per layer, the attention mass that skipping cost, summed over events.

    events are trace events; reports, the decisions over them in order. A
    skipped event loses its whole row; every event loses the mass its row
    puts on the positions its (seq, layer) skipped earlier, averaged over
    heads. Columns are steps only when every row spans the full cache; a
    recording that dropped skipped tokens from its cache has compacted rows,
    and like one without rows it gives None.
    """
    if not events or any(e.attn is None or e.attn.shape[1] != e.step + 1 for e in events):
        return None
    skipped_steps: dict[tuple[int, int], set[int]] = defaultdict(set)
    for r in reports:
        if r.skipped:
            skipped_steps[(r.seq, r.layer)].add(r.step)
    # Columns keep the set's own order: the float32 sum depends on it.
    dropped_cols = {key: np.fromiter(steps, dtype=np.intp, count=len(steps))
                    for key, steps in skipped_steps.items()}
    lost: dict[int, float] = defaultdict(float)
    for e in events:
        cols = dropped_cols.get((e.seq, e.layer))
        if cols is None:
            continue
        cols = cols[cols < e.attn.shape[1]]
        if cols.size:
            lost[e.layer] += float(e.attn[:, cols].sum()) / e.attn.shape[0]
    return dict(lost)
