"""Online redundancy filter: anchors, head-wise similarity, variance-aware
fusion, and the per-token skip decision.

Each in-scope layer keeps one anchor key and one anchor value per head and per
sequence (a running summary of every previous token), plus a per-layer
threshold and running head-variance estimates. A token whose fused key/value
similarity to the anchors exceeds the threshold is redundant enough to skip.

The anchors of all (layer, sequence) pairs are the rows of one persistent
(slots, 2, n_heads, d_head) float64 array, keys stacked over values. A
decision has two halves. Its evidence (the fused inputs s_k and s_v, the head
variances and the degeneracy flags) depends only on the K/V stream,
anchor_mode and gamma, because every finite token is folded into its anchor
whether or not it is skipped. Only its controller half (the s_kv > tau test
and the threshold and variance state) is sequential. score_steps therefore
scores a whole block of steps at once. It folds anchors per run of steps
(consecutive steps with the same keys, every key with an anchor and every row
finite): one gather and one scatter per run, and per step a copy of the
anchors into the rows' refs and an in-place fold. In another step, one with a
first observation or a non-finite row, those rows are set aside (a first
observation starts its anchor, a non-finite row is not folded) and the rest
fold as a run of one step. Then one head_similarity call scores every row of
the block against its refs, and decide runs the controller row by row, in
the same order. process does both halves for one row: its evidence comes from
row_evidence, a one-row kernel that makes head_similarity's three dot
products and does the rest in Python floats, and its anchor folds in place.
Live decode (one process call per layer) and replay (one score_steps call per
block of steps) share decide, and row_evidence equals head_similarity bit for
bit, so both make the same decisions. Anchors are per (layer, sequence) and
the controller and variance state move only at the step barrier, so the
kernels are elementwise or row-wise and equal their one-row forms bit for
bit. A token with a non-finite key or value is reported as degenerate, never
skipped, and never folded into its anchor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import cosine_rows, population_mean_var
# Not called here: kept importable from this module, where
# perfbench/tracer.py wraps it.
from .numerics import cosine_similarity  # noqa: F401
from .policy import PruneConfig, per_layer_target, select_layers, update_threshold
from .reporting import StepReport

# Regularizer added to both head variances before inversion; keeps the fusion
# weight defined when heads agree exactly (e.g. a single-head model).
EPS_VAR = 1e-6


@dataclass(frozen=True)
class SimilarityScore:
    """Evidence behind one decision: per-feature similarity, head variances,
    and the variance-weighted fusion."""

    s_k: float
    s_v: float
    var_k: float
    var_v: float
    alpha: float
    s_kv: float
    degenerate: bool = False


# Not called here (FilterEngine folds in place with the same roundings): kept
# for perfbench/tracer.py, which wraps it.
def update_anchor(anchor: np.ndarray, current: np.ndarray, gamma: float) -> np.ndarray:
    """Exponential moving anchor. (The engine starts an anchor at its first
    observation, rather than decaying from zero.)

    Accumulates in float64: the anchor is a running statistic, and float32
    recursion would drift past closed-form values over long streams.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must be in (0, 1)")
    current = np.asarray(current, dtype=np.float64)
    anchor = np.asarray(anchor, dtype=np.float64)
    if anchor.shape != current.shape:
        raise ValueError("anchor and current must have equal shapes")
    return gamma * anchor + (1.0 - gamma) * current


def head_similarity(anchors: np.ndarray, currents: np.ndarray) -> tuple:
    """Per-head cosine similarity against the anchors, reduced to the
    across-head mean and population variance.

    Works on (..., n_heads, d_head) arrays; leading axes batch independent
    comparisons and give arrays of means, variances and flags. For a single
    (n_heads, d_head) pair the result is (float, float, bool). A zero-norm or
    non-finite head contributes similarity 0 and raises the degeneracy flag
    instead of failing mid-generation.
    """
    anchors = np.asarray(anchors)
    currents = np.asarray(currents)
    if anchors.shape != currents.shape or anchors.ndim < 2:
        raise ValueError("expected matching (..., n_heads, d_head) arrays")
    sims, degenerate_heads = cosine_rows(anchors, currents)
    mean, var = population_mean_var(sims)
    degenerate = np.logical_or.reduce(degenerate_heads, axis=-1)
    if anchors.ndim == 2:
        return float(mean), float(var), bool(degenerate)
    return mean, var, degenerate


def _add_reduce(values: list) -> float:
    """np.add.reduce of a float64 vector. Below 8 values NumPy adds them in
    order onto 0.0, so this does too, in Python floats, without building an
    array; from 8 on it hands them to np.add.reduce, whose pairwise blocking
    is then its own. (Not the builtin sum: from Python 3.12 it compensates
    its rounding.)"""
    if len(values) >= 8:
        return float(np.add.reduce(np.array(values)))
    total = 0.0
    for value in values:
        total += value
    return total


# Degenerate heads are an expected, flagged input here: no warnings. The
# decorator enters a fresh errstate on each call, which NumPy requires, at
# less cost than a with block built per call.
@np.errstate(all="ignore")
def row_evidence(anchor: np.ndarray, current: np.ndarray) -> tuple:
    """The evidence of one (2, n_heads, d_head) float64 row against its
    anchor, keys over values, in the form decide takes: ([s_k, s_v],
    [var_k, var_v], [degenerate_k, degenerate_v], finite).

    The live decision's kernel. It makes the three dot products of
    cosine_rows, each the same batched np.matmul (one BLAS ddot per head),
    then takes the cosine, the flags and the across-head mean and population
    variance in Python floats, summed as np.add.reduce sums. So it equals
    head_similarity of the row bit for bit, without its thirty-odd
    small-array calls. finite says whether current is all finite.
    """
    rows, cols = anchor[..., None, :], current[..., :, None]
    dots = np.matmul(rows, cols).ravel().tolist()
    norms_a = np.matmul(rows, anchor[..., :, None]).ravel().tolist()
    norms_b = np.matmul(current[..., None, :], cols).ravel().tolist()
    n = anchor.shape[-2]
    means, variances, degenerate = [], [], []
    for start in (0, n):
        sims, flagged = [], False
        for i in range(start, start + n):
            dot, den = dots[i], norms_a[i] * norms_b[i]
            if 0.0 < den < math.inf and math.isfinite(dot):
                sims.append(math.copysign(math.sqrt(min(1.0, dot * dot / den)), dot))
            else:
                sims.append(0.0)
                flagged = True
        mean = _add_reduce(sims) / n
        means.append(mean)
        variances.append(_add_reduce([(s - mean) * (s - mean) for s in sims]) / n)
        degenerate.append(flagged)
    # A non-finite value makes its head degenerate, so only a degenerate row
    # needs the check.
    finite = not (degenerate[0] or degenerate[1]) or bool(np.isfinite(current).all())
    return means, variances, degenerate, finite


def fuse_scalar(s_k: float, s_v: float, var_k: float, var_v: float,
                mode: str = "kv") -> tuple[float, float]:
    """(alpha, s_kv) of fuse, without building its SimilarityScore: the
    scalar arithmetic decide runs once per decision."""
    if var_k < 0.0 or var_v < 0.0:
        raise ValueError("variances must be non-negative")
    inv_k = 1.0 / (var_k + EPS_VAR)
    inv_v = 1.0 / (var_v + EPS_VAR)
    alpha = inv_k / (inv_k + inv_v)
    if mode == "key_only":
        alpha = 1.0
    elif mode == "value_only":
        alpha = 0.0
    elif mode != "kv":
        raise ValueError("mode must be 'kv', 'key_only', or 'value_only'")
    return alpha, alpha * s_k + (1.0 - alpha) * s_v


def fuse(s_k: float, s_v: float, var_k: float, var_v: float,
         mode: str = "kv") -> SimilarityScore:
    """Combine key and value similarity, weighting the lower-variance feature
    higher.

    The key similarity gets a weight alpha proportional to the inverse key
    variance, the value similarity the rest. mode selects the fused score,
    key similarity alone, or value similarity alone.
    """
    alpha, s_kv = fuse_scalar(s_k, s_v, var_k, var_v, mode)
    return SimilarityScore(s_k=s_k, s_v=s_v, var_k=var_k, var_v=var_v, alpha=alpha, s_kv=s_kv)


class MisconfigurationError(ValueError):
    """A decision was requested for a layer outside the configured scope."""


@dataclass
class _LayerState:
    """Controller and statistics state for one in-scope layer. The controller
    reads the cumulative ratio of would-be skips, shadow ones included,
    ratio_sum / ratio_steps; var_k and var_v are EMAs of per-step means."""

    tau: float
    var_k: float | None = None
    var_v: float | None = None
    ratio_sum: float = 0.0
    ratio_steps: int = 0
    # Per-step accumulators, flushed at the step barrier: the count of
    # would-be skips, and one head variance per decision.
    pending_shadow: int = 0
    pending_var_k: list = field(default_factory=list)
    pending_var_v: list = field(default_factory=list)


class FilterEngine:
    """State machine driving skip decisions for one generation session.

    Anchors are per (layer, sequence); thresholds and variance estimates are
    per layer, shared across the batch and updated once per step at the step
    barrier. Prompt positions (begin_step(prefill=True)), warm-up steps and
    all steps under a zero budget run in shadow: evaluated, logged, and fed
    to the threshold controller, but never applied.
    """

    def __init__(self, n_layers: int, n_heads: int, d_head: int, config: PruneConfig):
        self.config = config
        self.n_layers = n_layers
        self.n_heads = n_heads
        self.d_head = d_head
        self.active_layers = select_layers(n_layers, config.tail_fraction)
        self.target = per_layer_target(config)
        self.step_index = 0            # decode steps completed
        self._in_prefill = False
        # The anchors of every (layer, sequence) seen so far, one row each of a
        # persistent (slots, 2, n_heads, d_head) float64 array, doubled when
        # full; a (layer, sequence) takes its slot, and its observation count,
        # at its first finite observation.
        self._kv_shape = (2, n_heads, d_head)
        self._slots: dict[tuple[int, int], int] = {}
        self._anchor_rows = np.empty((len(self.active_layers),) + self._kv_shape)
        self._obs_counts: list[int] = []
        self.layers = {layer: _LayerState(tau=config.tau_init) for layer in self.active_layers}

    # -- step protocol -----------------------------------------------------

    def begin_step(self, prefill: bool = False) -> None:
        self._in_prefill = prefill

    def end_step(self) -> None:
        """Apply the step barrier: batch-mean feedback into the skip ratios,
        thresholds, and variance state."""
        gamma = self.config.gamma
        for st in self.layers.values():
            n = len(st.pending_var_k)
            if n:
                # The mean of 0/1 indicators is their count over n, exactly.
                st.ratio_sum += st.pending_shadow / n
                st.ratio_steps += 1
                st.tau = update_threshold(st.tau, st.ratio_sum / st.ratio_steps,
                                          self.target, self.config.eta)
                if n == 1:
                    # One decision this step (every live decode): its head
                    # variances are the step's means.
                    fresh_k, fresh_v = st.pending_var_k[0], st.pending_var_v[0]
                else:
                    fresh_k = _add_reduce(st.pending_var_k) / n
                    fresh_v = _add_reduce(st.pending_var_v) / n
                if st.var_k is None:
                    st.var_k, st.var_v = fresh_k, fresh_v
                else:
                    st.var_k = gamma * st.var_k + (1.0 - gamma) * fresh_k
                    st.var_v = gamma * st.var_v + (1.0 - gamma) * fresh_v
            st.pending_shadow = 0
            st.pending_var_k.clear()
            st.pending_var_v.clear()
        if not self._in_prefill:
            self.step_index += 1
        self._in_prefill = False

    # -- decisions ---------------------------------------------------------

    def process(self, layer: int, seq: int, kv, step: int) -> tuple[bool, StepReport | None]:
        """Observe one token's per-head K/V at one layer and decide. kv is
        (2, n_heads, d_head), keys over values, as project_kv returns it (or
        any array-like of that shape, such as a (k, v) pair).

        The one-row form of score_steps followed by decide: the same
        first-observation, evidence, controller and anchor-update steps,
        without the batch gather. The evidence comes from row_evidence,
        which equals score_steps' head_similarity bit for bit at a fraction
        of its per-call cost, and the anchor folds in place.

        Returns (skip, report). skip is False whenever the decision is shadow
        (prompt positions, warm-up, or a zero budget). The first finite
        observation for a (layer, sequence) only initializes the anchors and
        yields no report. K/V of any shape but (n_heads, d_head) raise
        ValueError.
        """
        if layer not in self.layers:
            raise MisconfigurationError(f"layer {layer} is outside the filtered set")
        key = (layer, seq)
        # Canonical wire precision: the live engine and a trace replay must see
        # bit-identical inputs, so K/V pass through float32 before filter math
        # (no copy for the float32 block project_kv makes).
        kv = np.asarray(kv, dtype=np.float32).astype(np.float64)
        if kv.shape != self._kv_shape:
            raise ValueError(f"expected K/V of shape {self._kv_shape}, got {kv.shape}")
        slot = self._slots.get(key)
        if slot is None:
            self._observe_first(key, kv)
            return False, None
        anchor = self._anchor_rows[slot]
        evidence = row_evidence(anchor, kv)
        skipped, report = self.decide(layer, seq, evidence, step)
        *_, finite = evidence
        if finite:
            self._obs_counts[slot] += 1
            # _fold_run's arithmetic for one row, in place on the anchor's
            # row: the same roundings, without its gather and scatter.
            if self.config.anchor_mode == "ema":
                anchor *= self.config.gamma
                anchor += (1.0 - self.config.gamma) * kv
            else:
                anchor += (kv - anchor) / self._obs_counts[slot]
        return skipped, report

    def score_steps(self, step_keys: list, kv: np.ndarray) -> list:
        """The evidence of every token of a block of consecutive steps.

        step_keys lists each step's (layer, seq) keys, a key at most once per
        step; kv is (B, 2, n_heads, d_head), one row per key of each step in
        turn, keys over values. A run, a maximal sequence of consecutive
        steps with equal key lists whose keys all have anchors and whose rows
        are all finite, gathers its anchors once, folds them step by step in
        place (each step's refs get the anchors before its fold) and scatters
        them once. In a step outside any run (one with a first observation
        or a non-finite row), a first observation starts its anchor, a
        non-finite row is scored but not folded, and the other rows fold as
        a run of one step. Then one head_similarity call scores every row
        against the anchor it had before its step. Anchors and counts end as one process call per row
        would leave them. Evidence depends only on the K/V stream, never on
        the controller, so a whole block can be scored before any of its
        steps is decided.

        Returns one entry per row, for decide: None for a row with no anchor
        yet (a first observation, no decision), else (sims, fresh_vars,
        degenerate, finite), the first three as (key, value) pairs.
        """
        n = sum(map(len, step_keys))
        # The same float32 wire precision as process.
        kv = np.asarray(kv, dtype=np.float32)
        if kv.shape != (n,) + self._kv_shape:
            raise ValueError(f"expected a K/V array of shape {(n,) + self._kv_shape}, "
                             f"got {kv.shape}")
        for keys in step_keys:
            for layer, _ in keys:
                if layer not in self.layers:
                    raise MisconfigurationError(f"layer {layer} is outside the filtered set")
            if len(set(keys)) < len(keys):
                raise ValueError("a (layer, seq) appears more than once in one step")
        if not n:
            return []
        kv = kv.astype(np.float64)
        finite = np.isfinite(kv).all(axis=(1, 2, 3)).tolist()
        all_finite = all(finite)
        refs = np.zeros_like(kv)
        slot_of = self._slots
        first_rows = []
        start = i = 0
        while i < len(step_keys):
            keys = step_keys[i]
            width = len(keys)
            stop = start + width
            slots = [slot_of.get(key) for key in keys]
            i += 1
            if keys and None not in slots and (all_finite or all(finite[start:stop])):
                # A run: this step and every next one with the same keys and
                # finite rows.
                while (i < len(step_keys) and step_keys[i] == keys
                       and (all_finite or all(finite[stop:stop + width]))):
                    i += 1
                    stop += width
                self._fold_run(slots, kv[start:stop], refs[start:stop])
            else:
                rows, fold_slots = [], []
                for row, key, slot in zip(range(start, stop), keys, slots):
                    if slot is None:
                        first_rows.append(row)
                        self._observe_first(key, kv[row])
                    elif finite[row]:
                        rows.append(row)
                        fold_slots.append(slot)
                    else:
                        refs[row] = self._anchor_rows[slot]
                if rows:
                    # The step's other rows fold as a run of one step; their
                    # fancy-indexed refs are a copy, so they are scattered.
                    step_refs = np.empty((len(rows),) + self._kv_shape)
                    self._fold_run(fold_slots, kv[rows], step_refs)
                    refs[rows] = step_refs
            start = stop
        means, variances, degenerate = head_similarity(refs, kv)
        evidence = list(zip(means.tolist(), variances.tolist(), degenerate.tolist(), finite))
        for row in first_rows:
            evidence[row] = None
        return evidence

    def decide(self, layer: int, seq: int, evidence,
               step: int) -> tuple[bool, StepReport | None]:
        """Decide one row from its evidence, an entry of score_steps: the
        controller half of process, with the same return. Rows are decided
        in the order they were scored, each step between begin_step and
        end_step as for process."""
        if evidence is None:
            return False, None
        (s_k, s_v), (fresh_var_k, fresh_var_v), degenerate, finite = evidence
        degen = degenerate[0] or degenerate[1]
        # A zero budget means zero skips, exactly: the proportional controller
        # can only approach zero asymptotically, so enforce it outright.
        shadow = (self._in_prefill or self.step_index < self.config.warmup_steps
                  or self.target == 0.0)
        st = self.layers[layer]

        # The decision sees the running variance as if this step's observation
        # were already blended in; the shared state itself moves at the step
        # barrier so sequences within a batch stay order-independent.
        if st.var_k is None:
            dec_var_k, dec_var_v = fresh_var_k, fresh_var_v
        else:
            g = self.config.gamma
            dec_var_k = g * st.var_k + (1.0 - g) * fresh_var_k
            dec_var_v = g * st.var_v + (1.0 - g) * fresh_var_v

        alpha, s_kv = fuse_scalar(s_k, s_v, dec_var_k, dec_var_v, self.config.fusion)
        # A non-finite token is never skipped (nor folded into its anchor:
        # one corrupt token must not make every later one degenerate).
        would_skip = finite and s_kv > st.tau
        skipped = would_skip and not shadow

        st.pending_shadow += would_skip
        st.pending_var_k.append(fresh_var_k)
        st.pending_var_v.append(fresh_var_v)

        report = StepReport(
            seq=seq, step=step, layer=layer,
            s_k=s_k, s_v=s_v, var_k=dec_var_k, var_v=dec_var_v,
            alpha=alpha, s_kv=s_kv, tau=st.tau,
            shadow=shadow, skipped=skipped, degenerate=degen,
        )
        return skipped, report

    def _observe_first(self, key: tuple[int, int], kv: np.ndarray) -> None:
        """A first finite observation only initializes its anchor, in a new
        slot of the anchor array."""
        if not np.isfinite(kv).all():
            return
        slot = len(self._obs_counts)
        if slot == len(self._anchor_rows):
            grown = np.empty((2 * slot,) + self._anchor_rows.shape[1:])
            grown[:slot] = self._anchor_rows
            self._anchor_rows = grown
        self._anchor_rows[slot] = kv
        self._obs_counts.append(1)
        self._slots[key] = slot

    def _fold_run(self, slots: list, kv: np.ndarray, refs: np.ndarray) -> None:
        """Fold a run of steps into the anchors of slots: kv holds each
        step's finite rows in turn, one per slot, and refs gets the anchors
        each step's rows had before it. One gather and one scatter for the
        run; per step, one copy into refs and an in-place fold, rounded as
        ema's gamma * a + ((1 - gamma) * x) and exact_mean's a + (x - a) / n,
        with n the row's count, the current token included."""
        width = len(slots)
        index = np.array(slots, dtype=np.intp)
        anchors = self._anchor_rows[index]
        kv = kv.reshape((-1, width) + self._kv_shape)
        refs = refs.reshape(kv.shape)
        counts = self._obs_counts
        if self.config.anchor_mode == "ema":
            gamma = self.config.gamma
            for ref, weighted in zip(refs, (1.0 - gamma) * kv):
                ref[...] = anchors
                anchors *= gamma
                anchors += weighted
        else:
            # Each row's count, the current token included, at each step.
            divisors = np.add.outer(np.arange(1, len(kv) + 1),
                                    [counts[slot] for slot in slots])
            for ref, current, divisor in zip(refs, kv, divisors[..., None, None, None]):
                ref[...] = anchors
                anchors += (current - anchors) / divisor
        self._anchor_rows[index] = anchors
        for slot in slots:
            counts[slot] += len(kv)

    # -- introspection -----------------------------------------------------

    def anchors(self, layer: int, seq: int = 0):
        """The (key, value) anchors of one (layer, sequence), or None."""
        slot = self._slots.get((layer, seq))
        if slot is None:
            return None
        kv = self._anchor_rows[slot].copy()
        return kv[0], kv[1]
