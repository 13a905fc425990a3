"""Analytic FLOPs accounting and the attention-mass-lost proxy.

FLOPs conventions, fixed so numbers are comparable across runs: one
multiply-accumulate counts as 2 FLOPs, softmax costs 5 FLOPs per element.
Only the attention path is accounted (projections, scores, mix); the FFN and
normalization execute identically in dense and filtered runs and cancel out
of every identity we track.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable

import numpy as np

from .reporting import StepReport


@dataclass(frozen=True)
class FlopsModel:
    """Integer cost constants for one layer of the toy decoder.

    Every cost is an attribute set once, at construction, from n_heads and
    d_head: d_model; q_proj_flops, kv_proj_flops and o_proj_flops;
    attn_per_pos_flops and softmax_per_pos_flops, per cached position;
    filter_overhead_flops, per decision; and the three constants a charge
    adds, _attention_fixed, _kept_fixed and _per_position, so each charge is
    one multiply-add over the cache length. Only n_heads and d_head are
    fields: they alone make the repr and the equality.
    """

    n_heads: int
    d_head: int

    def __post_init__(self):
        h, d = self.n_heads, self.n_heads * self.d_head
        q = o = 2 * d * d
        kv = 4 * d * d
        # Cost of one skip decision: head-wise cosines for keys and values,
        # their mean/variance reduction, the anchor updates, and the fused
        # compare. Charged on every decision, skip or keep.
        cosine = h * (6 * self.d_head + 4)
        reduce_stats = 3 * h + 2
        anchor_update = 3 * d
        per_feature = cosine + reduce_stats + anchor_update
        costs = dict(
            d_model=d, q_proj_flops=q, kv_proj_flops=kv, o_proj_flops=o,
            # score dot product + weighted value accumulate, per cached position
            attn_per_pos_flops=4 * d, softmax_per_pos_flops=5 * h,
            filter_overhead_flops=2 * per_feature + 12,
            _attention_fixed=q + o, _kept_fixed=kv + q + o, _per_position=4 * d + 5 * h,
        )
        for name, value in costs.items():
            object.__setattr__(self, name, value)

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

    def charge_keeps(self, n: int, model: FlopsModel) -> None:
        """Charge n undecided keeps at cache lengths 1..n, in closed form:
        what n charge_keep(i, model, decided=False) calls for i = 1..n add."""
        cost = n * model._kept_fixed + model._per_position * (n * (n + 1) // 2)
        self.actual += cost
        self.dense_equiv += cost

    def charge_event(self, cache_len_if_kept: int, model: FlopsModel, skipped: bool,
                     report: StepReport | None, keep_on_skip: bool) -> int:
        """Charge one event at the cache length it has if kept, and return
        its (seq, layer)'s length after it, one less for a skip that the
        cache drops (not keep_on_skip): the one keep/skip rule. An event with
        a report was decided by the filter: it pays the decision overhead and
        its net delta becomes report.flops_saved."""
        if skipped:
            delta = self.charge_skip(cache_len_if_kept, model)
        else:
            delta = self.charge_keep(cache_len_if_kept, model, decided=report is not None)
        if report is not None:
            report.flops_saved = delta
        return cache_len_if_kept - 1 if skipped and not keep_on_skip else cache_len_if_kept

    def conserved(self) -> bool:
        return self.dense_equiv == self.actual + self.saved_net + self.overhead


# -- attention mass lost -------------------------------------------------------


def future_mass(rows) -> np.ndarray:
    """Each column's future mass over one (seq, layer)'s full-cache rows.

    rows, at least one, are the pair's attention rows in step order, the row
    at step t of shape (n_heads, t + 1); steps may have gaps. Entry c of the
    float64 result is column c's head-mean attention summed over every row
    that has a column c. Blocks of 2**16 values or one row (64 rows of 4 heads
    by 256, 256 KB of float32) are copied into zero-padded (rows, n_heads,
    width) arrays of the rows' dtype, and their float64 column sums add up.
    """
    n_heads, width = rows[-1].shape
    dtype = np.result_type(*{row.dtype for row in rows})
    per_block = max(1, 2**16 // (n_heads * width))
    total = np.zeros(width)
    for first in range(0, len(rows), per_block):
        block = rows[first:first + per_block]
        pad = np.zeros((len(block), n_heads, block[-1].shape[1]), dtype)
        for padded, row in zip(pad, block):
            padded[:, :row.shape[1]] = row
        total[:pad.shape[2]] += pad.sum(axis=(0, 1), dtype=np.float64)
    return total / n_heads


def mass_lost_by_layer(events, reports: Iterable[StepReport]) -> dict[int, float] | None:
    """Per layer, the future mass (future_mass) of its skipped tokens: the
    mass that each token's own row and every later row of its (seq, layer)
    put on its column, which a cache that drops the token loses. Under
    cache_on_skip "keep" later rows still see the token, so there it is a
    proxy. Each skipping pair's rows, sorted by step, give float64 column
    sums, and a layer's loss is the math.fsum of its pairs' values at their
    skipped steps, whatever the order of the events. A skipped step that no
    row reaches adds nothing. Columns are steps only when every row spans the
    full cache; a recording that dropped skipped tokens from its cache has
    compacted rows and, like one without rows, gives None: a dropped token's
    column is in no later row, so its mass is unobserved, not zero.
    """
    if not events:
        return None
    skipped_steps: dict[tuple[int, int], set[int]] = defaultdict(set)
    for r in reports:
        if r.skipped:
            skipped_steps[(r.seq, r.layer)].add(r.step)
    rows: dict[tuple[int, int], list] = defaultdict(list)
    for e in events:
        attn = e.attn
        if attn is None or attn.shape[1] != e.step + 1:
            return None
        if (e.seq, e.layer) in skipped_steps:
            rows[e.seq, e.layer].append(e)
    lost: dict[int, list[float]] = defaultdict(list)
    for (seq, layer), pair in rows.items():
        pair.sort(key=attrgetter("step"))
        mass = future_mass([e.attn for e in pair])
        steps = np.fromiter(skipped_steps[seq, layer], dtype=np.intp)
        lost[layer] += mass[steps[steps < len(mass)]].tolist()
    return {layer: math.fsum(parts) for layer, parts in sorted(lost.items()) if parts}
