"""Analytic FLOPs accounting and the attention-mass-lost proxy.

FLOPs conventions, fixed so numbers are comparable across runs: one
multiply-accumulate counts as 2 FLOPs, softmax costs 5 FLOPs per element.
Only the attention path is accounted (projections, scores, mix); the FFN and
normalization execute identically in dense and filtered runs and cancel out
of every identity we track.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
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


def mass_lost_by_layer(events, reports: Iterable[StepReport]) -> dict[int, float] | None:
    """Per layer, the attention mass that skipping cost, summed over events.

    events are trace events; reports, the decisions over them in order.
    Every event loses the mass its row puts on the columns of the steps its
    (seq, layer) skipped up to its own, averaged over heads: a skipped event
    loses its own column, not its whole row. One pass over events, in the
    order given, adds each event's loss to its layer's sum as it comes, so
    the float sums follow that order. Columns are steps only when every row
    spans the full cache; a recording that dropped skipped tokens from its
    cache has compacted rows and, like one without rows, gives None: a dropped
    token's column is in no later row, so its mass is unobserved, not zero.
    """
    if not events:
        return None
    skipped_steps: dict[tuple[int, int], set[int]] = defaultdict(set)
    for r in reports:
        if r.skipped:
            skipped_steps[(r.seq, r.layer)].add(r.step)
    # Per skipping (seq, layer): its skipped steps; those steps as a column
    # array, in the set's own order (the float32 sum depends on it); and its
    # last step with the columns that step's row summed.
    tracks = {key: [steps, np.fromiter(steps, dtype=np.intp, count=len(steps)), None, None]
              for key, steps in skipped_steps.items()}
    lost: dict[int, float] = {}
    for e in events:
        attn, step = e.attn, e.step
        if attn is None or attn.shape[1] != step + 1:
            return None
        track = tracks.get((e.seq, e.layer))
        if track is None:
            continue
        steps, dropped, last_step, cols = track
        # The columns a row sums change only at a skipped step, or after a
        # gap in steps.
        if last_step != step - 1 or step in steps:
            cols = track[3] = dropped[dropped <= step]
        track[2] = step
        if cols.size:
            loss = float(np.add.reduce(attn[:, cols], axis=None)) / attn.shape[0]
            lost[e.layer] = lost.get(e.layer, 0.0) + loss
    return lost
