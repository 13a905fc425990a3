"""Online redundancy filter: anchors, head-wise similarity, variance-aware
fusion, and the per-token skip decision.

Each in-scope layer keeps one anchor key and one anchor value per head and per
sequence (a running summary of every previous token), plus a per-layer
threshold and running head-variance estimates. A token whose fused key/value
similarity to the anchors exceeds the threshold is redundant enough to skip.

The anchors of all (layer, sequence) pairs are the rows of one persistent
(slots, 2, n_heads, d_head) float64 array, keys stacked over values. A
decision has two halves. Its evidence, one flat tuple (s_k, s_v, var_k, var_v,
degenerate_k, degenerate_v, finite) of the fused inputs, the head variances,
the degeneracy flags and whether the row is finite, depends only on the K/V
stream, anchor_mode and gamma, because every finite token is folded into its
anchor whether or not it is skipped; score_steps and row_evidence give it, and
decide unpacks it in one step. Only its controller half (the s_kv > tau test
and the threshold and variance state) is sequential. score_steps therefore
scores a whole block of steps at once. It folds anchors per run of steps
(consecutive steps with the same keys, every key with an anchor and every row
finite): one gather and one scatter per run, and per step a copy of the
anchors into the rows' refs and an in-place fold. In another step, one with a
first observation or a non-finite row, those rows are set aside (a first
observation starts its anchor, a non-finite row is not folded) and the rest
fold as a run of one step. Then one head_similarity call scores every row of
the block against its refs. score_row does the same for one row. It copies the
row's anchor and casts its K/V into a persistent (2, 2, n_heads, d_head)
anchor/current pair, and row_evidence makes one np.vecdot over two broadcast
views of that pair, built once: every head's a.a, a.b and b.b product, each
one BLAS ddot of two contiguous rows. cosine_rows, under head_similarity,
makes each of its three products with the same np.vecdot, so the products are
equal bit for bit; row_evidence then takes the cosines, flags, mean and
variance in Python floats, summed in np.add.reduce's order, and the anchor
folds in place. decide runs the controller over one layer's rows of a run of
steps, in step order, applying that layer's step barrier (end_step) after each
step's rows. No layer reads another's anchors, threshold or variances, so a
caller decides each layer's run of steps on its own, in one call; a step is
shadow by its rank among decode steps, which the caller passes with each row
(negative for a prompt step). Live decode (process: score_row, then decide
over a run of one row), chunked prefill (one decide call per layer and chunk)
and replay (one score_steps call per block of steps, then one decide call per
layer and block) share decide, so all make the same decisions. The kernels are
elementwise or row-wise and equal their one-row forms bit for bit. A token
with a non-finite key or value is reported as degenerate, never skipped, and
never folded into its anchor.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import copysign, inf, isfinite, sqrt

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


def pair_views(pair: np.ndarray) -> tuple:
    """The two broadcast views of a (2, 2, n_heads, d_head) anchor/current
    pair whose np.vecdot is the (2, 2, 2, n_heads) array of every head's
    a.a, a.b, b.a and b.b product, keys over values in each."""
    return pair[:, None], pair[None, :]


# Degenerate heads are an expected, flagged input here: no warnings. The dot
# products are the one step that can raise a floating-point flag (0 x inf,
# inf - inf, or a squared norm of a head beyond float32's range); the rest is
# Python float arithmetic. The decorator enters a fresh errstate on each
# call, which NumPy requires, at less cost than a with block built per call.
@np.errstate(all="ignore")
def row_evidence(pair: np.ndarray, views: tuple) -> tuple:
    """The evidence of one row in the form decide takes, one flat tuple
    (s_k, s_v, var_k, var_v, degenerate_k, degenerate_v, finite). pair is a
    (2, 2, n_heads, d_head) float64 array, the anchor row over the current
    row, each keys over values, and views are pair_views(pair), which a
    caller that refills the same pair builds once.

    The live decision's kernel. One np.vecdot over the pair's views makes
    every head's a.a, a.b and b.b product (and b.a, unused), each one BLAS
    ddot of two contiguous rows: the call np.dot makes for two vectors and
    cosine_rows makes for each of its three products, so the products are
    head_similarity's bit for bit. The cosine, the flags and the across-head
    mean and population variance then run in Python floats, summed as
    np.add.reduce sums. So it equals head_similarity of the row bit for bit,
    without its thirty-odd small-array calls. finite says whether the
    current row is all finite.
    """
    (norms_a, dots), (_, norms_b) = np.vecdot(*views).tolist()
    n = pair.shape[-2]
    # Below 8 heads np.add.reduce adds in order onto 0.0 (see _add_reduce),
    # so the loop sums as it goes; from 8 on, _add_reduce blocks as NumPy.
    in_order = n < 8
    means, variances, degenerate = [], [], []
    for heads_a, heads_ab, heads_b in zip(norms_a, dots, norms_b):
        sims, flagged, total = [], False, 0.0
        for norm_a, dot, norm_b in zip(heads_a, heads_ab, heads_b):
            den = norm_a * norm_b
            if 0.0 < den < inf and isfinite(dot):
                # min(1.0, q), which q (finite or +inf, never NaN) takes
                # without a builtin call.
                q = dot * dot / den
                sim = copysign(sqrt(q if q < 1.0 else 1.0), dot)
            else:
                sim = 0.0
                flagged = True
            sims.append(sim)
            total += sim
        if in_order:
            mean = total / n
            total = 0.0
            for sim in sims:
                total += (sim - mean) * (sim - mean)
            variance = total / n
        else:
            mean = _add_reduce(sims) / n
            variance = _add_reduce([(sim - mean) * (sim - mean) for sim in sims]) / n
        means.append(mean)
        variances.append(variance)
        degenerate.append(flagged)
    # A non-finite value makes its head degenerate, so only a degenerate row
    # needs the check.
    finite = not (degenerate[0] or degenerate[1]) or bool(np.isfinite(pair[1]).all())
    return (*means, *variances, *degenerate, finite)


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


class FilterEngine:
    """State machine driving skip decisions for one generation session.

    Anchors are per (layer, sequence); thresholds and variance estimates are
    per layer, shared across the batch and updated at the layer's barrier,
    once per step it decides. Prompt steps (a negative decode rank), warm-up
    steps and all steps under a zero budget run in shadow: evaluated,
    logged, and fed to the threshold controller, but never applied.
    """

    def __init__(self, n_layers: int, n_heads: int, d_head: int, config: PruneConfig):
        self.config = config
        self.active_layers = select_layers(n_layers, config.tail_fraction)
        self.target = per_layer_target(config)
        # The anchors of every (layer, sequence) seen so far, one row each of a
        # persistent (slots, 2, n_heads, d_head) float64 array, doubled when
        # full; a (layer, sequence) takes its slot, and its observation count,
        # at its first finite observation.
        self._kv_shape = (2, n_heads, d_head)
        self._slots: dict[tuple[int, int], int] = {}
        self._anchor_rows = np.empty((len(self.active_layers),) + self._kv_shape)
        self._obs_counts: list[int] = []
        # The one-row evidence's (2, 2, n_heads, d_head) anchor/current pair:
        # score_row copies the anchor row and casts the K/V into it, and
        # folds the anchor through the current half. Its rows and views are
        # built once.
        self._pair = np.empty((2,) + self._kv_shape)
        self._pair_rows = tuple(self._pair)
        self._pair_views = pair_views(self._pair)
        self.layers = {layer: _LayerState(tau=config.tau_init) for layer in self.active_layers}

    # -- decisions ---------------------------------------------------------

    def process(self, layer: int, seq: int, kv, step: int,
                rank: int) -> tuple[bool, StepReport | None]:
        """Observe one token's per-head K/V at one layer and decide it as
        the layer's only row of its step: score_row, then decide over a run
        of one row, which applies the layer's barrier. kv is
        (2, n_heads, d_head), keys over values, as project_kv returns it (or
        any array-like of that shape, such as a (k, v) pair); rank is the
        step's rank among decode steps, negative for a prompt step.

        Returns (skip, report), skip False whenever the decision is shadow.
        The first finite observation for a (layer, sequence) only
        initializes the anchors and yields no report. K/V of any shape but
        (n_heads, d_head) raise ValueError.
        """
        return self.decide(layer, ((step, rank, seq, self.score_row(layer, seq, kv)),))[0]

    def score_row(self, layer: int, seq: int, kv):
        """The evidence of one row, as score_steps gives it, with the row
        folded into its anchor: the same first-observation, evidence and
        anchor-update steps, without the batch gather. The anchor row is
        copied and the K/V cast into the engine's persistent anchor/current
        pair, whose evidence comes from row_evidence, one np.vecdot and a
        few Python floats that equal score_steps' head_similarity bit for
        bit. The anchor then folds in place, through the pair's current
        half, with _fold_run's roundings."""
        if layer not in self.layers:
            raise MisconfigurationError(f"layer {layer} is outside the filtered set")
        key = (layer, seq)
        # Canonical wire precision: the live engine and a trace replay must see
        # bit-identical inputs, so K/V pass through float32 before filter math
        # (no copy for the float32 block project_kv makes).
        kv = np.asarray(kv, dtype=np.float32)
        if kv.shape != self._kv_shape:
            raise ValueError(f"expected K/V of shape {self._kv_shape}, got {kv.shape}")
        slot = self._slots.get(key)
        if slot is None:
            self._observe_first(key, kv)
            return None
        anchor = self._anchor_rows[slot]
        pair_anchor, current = self._pair_rows
        pair_anchor[...] = anchor
        current[...] = kv
        evidence = row_evidence(self._pair, self._pair_views)
        if evidence[6]:
            # The row is finite: fold it in place, as ema's
            # gamma * a + ((1 - gamma) * x) and exact_mean's a + (x - a) / n.
            self._obs_counts[slot] += 1
            if self.config.anchor_mode == "ema":
                anchor *= self.config.gamma
                current *= 1.0 - self.config.gamma
            else:
                current -= anchor
                current /= self._obs_counts[slot]
            anchor += current
        return evidence

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
        against the anchor it had before its step. Anchors and counts end as
        one score_row call per row would leave them. Evidence depends only on
        the K/V stream, never on the controller, so a whole block can be
        scored before any of its steps is decided.

        Returns one entry per row, for decide: None for a row with no anchor
        yet (a first observation, no decision), else the flat tuple
        (s_k, s_v, var_k, var_v, degenerate_k, degenerate_v, finite), as
        row_evidence gives it.
        """
        n = sum(map(len, step_keys))
        # The same float32 wire precision as score_row.
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
        evidence = list(zip(*means.T.tolist(), *variances.T.tolist(), *degenerate.T.tolist(),
                            finite))
        for row in first_rows:
            evidence[row] = None
        return evidence

    def decide(self, layer: int, rows) -> list:
        """Decide one layer's rows over a run of steps, applying that layer's
        barrier (end_step) after each step's rows if any of them was decided.
        rows are (step, rank, seq, evidence) tuples in step order, a step's
        rows consecutive; evidence is an entry of score_steps or a score_row
        result: None, or the flat tuple (s_k, s_v, var_k, var_v,
        degenerate_k, degenerate_v, finite), which decide unpacks in one
        step. rank is the step's rank among decode steps, negative for a
        prompt step: the step is shadow when rank < warmup_steps or the
        budget is zero. Returns one (skip, report) per row, as process does.
        One call over a run of steps decides as one call per step would."""
        config = self.config
        # A zero budget means zero skips, exactly: the proportional controller
        # can only approach zero asymptotically, so enforce it outright.
        no_budget = self.target == 0.0
        warmup = config.warmup_steps
        st = self.layers[layer]
        g = config.gamma
        decisions, var_ks, var_vs, would_skips = [], [], [], 0
        current = None
        for step, rank, seq, evidence in rows:
            if step != current:
                if var_ks:
                    self.end_step(st, would_skips, var_ks, var_vs)
                    var_ks, var_vs, would_skips = [], [], 0
                current = step
                shadow = rank < warmup or no_budget
                tau, var_k, var_v = st.tau, st.var_k, st.var_v
            if evidence is None:
                decisions.append((False, None))
                continue
            s_k, s_v, fresh_var_k, fresh_var_v, degen_k, degen_v, finite = evidence
            # The decision sees the running variance as if this step's
            # observation were already blended in; the layer's state itself
            # moves at its barrier, so the step's rows are order-independent.
            if var_k is None:
                dec_var_k, dec_var_v = fresh_var_k, fresh_var_v
            else:
                dec_var_k = g * var_k + (1.0 - g) * fresh_var_k
                dec_var_v = g * var_v + (1.0 - g) * fresh_var_v
            alpha, s_kv = fuse_scalar(s_k, s_v, dec_var_k, dec_var_v, config.fusion)
            # A non-finite token is never skipped (nor folded into its anchor:
            # one corrupt token must not make every later one degenerate).
            would_skip = finite and s_kv > tau
            skipped = would_skip and not shadow
            would_skips += would_skip
            var_ks.append(fresh_var_k)
            var_vs.append(fresh_var_v)
            # Positional arguments, in field order with flops_saved 0: a
            # keyword call costs more, once per decision.
            decisions.append((skipped, StepReport(
                seq, step, layer, s_k, s_v, dec_var_k, dec_var_v, alpha, s_kv, tau, shadow,
                skipped, 0, degen_k or degen_v)))
        if var_ks:
            self.end_step(st, would_skips, var_ks, var_vs)
        return decisions

    def end_step(self, st: _LayerState, would_skips: int, var_ks: list, var_vs: list) -> None:
        """Apply one layer's step barrier, which decide calls after each
        step of its run that has decisions: the step's count of would-be
        skips (shadow ones too, whatever the rank) and its decisions' head
        variances (one pair per decision) feed the layer's skip ratio,
        threshold and variances, which the run's next step then reads."""
        n = len(var_ks)
        # The mean of 0/1 indicators is their count over n, exactly.
        st.ratio_sum += would_skips / n
        st.ratio_steps += 1
        st.tau = update_threshold(st.tau, st.ratio_sum / st.ratio_steps, self.target,
                                  self.config.eta)
        if n == 1:
            # One decision this step (every live decode): its head variances
            # are the step's means.
            fresh_k, fresh_v = var_ks[0], var_vs[0]
        else:
            fresh_k = _add_reduce(var_ks) / n
            fresh_v = _add_reduce(var_vs) / n
        if st.var_k is None:
            st.var_k, st.var_v = fresh_k, fresh_v
        else:
            gamma = self.config.gamma
            st.var_k = gamma * st.var_k + (1.0 - gamma) * fresh_k
            st.var_v = gamma * st.var_v + (1.0 - gamma) * fresh_v

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
