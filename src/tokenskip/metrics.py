"""Analytic FLOPs accounting and the attention-mass-lost proxy.

FLOPs conventions, fixed so numbers are comparable across runs: one
multiply-accumulate counts as 2 FLOPs, softmax costs 5 FLOPs per element.
Only the attention path is accounted (projections, scores, mix); the FFN and
normalization execute identically in dense and filtered runs and cancel out
of every identity we track.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable

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

    @property
    def d_model(self) -> int:
        return self.n_heads * self.d_head

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

    def charge_keeps(self, n: int, model: FlopsModel) -> None:
        """Charge n undecided keeps at cache lengths 1..n, in closed form:
        what n charge_keep(i, model, decided=False) calls for i = 1..n add."""
        cost = n * model._kept_fixed + model._per_position * (n * (n + 1) // 2)
        self.actual += cost
        self.dense_equiv += cost

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


# -- attention mass lost -------------------------------------------------------


def mass_lost_by_layer(events, reports: Iterable[StepReport]) -> dict[int, float] | None:
    """Per layer, the attention mass that skipping cost, summed over events.

    events are trace events; reports, the decisions over them in order.
    Every event loses the mass its row puts on the columns of the steps its
    (seq, layer) skipped up to its own, averaged over heads: a skipped event
    loses its own column, not its whole row. Columns are steps only when
    every row spans the full cache; a recording that dropped skipped tokens
    from its cache has compacted rows, and like one without rows it gives
    None.
    """
    if not events:
        return None
    skipped_steps: dict[tuple[int, int], set[int]] = defaultdict(set)
    for r in reports:
        if r.skipped:
            skipped_steps[(r.seq, r.layer)].add(r.step)
    # The indices of each skipping (seq, layer)'s events, in event order.
    groups: dict[tuple[int, int], list[int]] = {key: [] for key in skipped_steps}
    for i, e in enumerate(events):
        attn = e.attn
        if attn is None or attn.shape[1] != e.step + 1:
            return None
        indices = groups.get((e.seq, e.layer))
        if indices is not None:
            indices.append(i)
    # Each event's loss, by index. The columns a row sums change only at a
    # skipped step, or after a gap in steps.
    losses: dict[int, float] = {}
    for key, indices in groups.items():
        steps = skipped_steps[key]
        # Columns keep the set's own order: the float32 sum depends on it.
        dropped = np.fromiter(steps, dtype=np.intp, count=len(steps))
        last_step = cols = None
        for i in indices:
            e = events[i]
            step = e.step
            if last_step != step - 1 or step in steps:
                cols = dropped[dropped <= step]
            last_step = step
            if cols.size:
                attn = e.attn
                losses[i] = float(np.add.reduce(attn[:, cols], axis=None)) / attn.shape[0]
    # Each layer's losses added in event order, as the float sums require.
    lost: dict[int, float] = {}
    for i in sorted(losses):
        layer = events[i].layer
        lost[layer] = lost.get(layer, 0.0) + losses[i]
    return lost
