"""Online redundancy filter: anchors, head-wise similarity, variance-aware
fusion, and the per-token skip decision.

Each in-scope layer keeps one anchor key and one anchor value per head and per
sequence (a running summary of every previous token), plus a per-layer
threshold and running head-variance estimates. A token whose fused key/value
similarity to the anchors exceeds the threshold is redundant enough to skip.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import cosine_similarity, population_mean_var, DegenerateInputError
from .policy import PruneConfig, RatioEstimator, per_layer_target, select_layers, update_threshold
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


def update_anchor(anchor: np.ndarray | None, current: np.ndarray, gamma: float) -> np.ndarray:
    """Exponential moving anchor. The first observation initializes the anchor
    to the token itself rather than decaying from zero.

    Accumulates in float64: the anchor is a running statistic, and float32
    recursion would drift past closed-form values over long streams.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must be in (0, 1)")
    current = np.asarray(current, dtype=np.float64)
    if anchor is None:
        return current.copy()
    anchor = np.asarray(anchor, dtype=np.float64)
    if anchor.shape != current.shape:
        raise ValueError("anchor and current must have equal shapes")
    return gamma * anchor + (1.0 - gamma) * current


def update_anchor_mean(anchor: np.ndarray | None, current: np.ndarray, count: int) -> np.ndarray:
    """Incremental exact mean over all observed tokens (count includes current)."""
    current = np.asarray(current, dtype=np.float64)
    if anchor is None or count <= 1:
        return current.copy()
    anchor = np.asarray(anchor, dtype=np.float64)
    return anchor + (current - anchor) / count


def head_similarity(anchors: np.ndarray, currents: np.ndarray) -> tuple[float, float, bool]:
    """Per-head cosine similarity against the anchors, reduced to the
    across-head mean and population variance.

    A zero-norm or non-finite head contributes similarity 0 and raises the
    degeneracy flag instead of failing mid-generation.
    """
    anchors = np.asarray(anchors)
    currents = np.asarray(currents)
    if anchors.shape != currents.shape or anchors.ndim != 2:
        raise ValueError("expected matching (n_heads, d_head) arrays")
    sims = []
    degenerate = False
    for h in range(anchors.shape[0]):
        try:
            sims.append(cosine_similarity(anchors[h], currents[h]))
        except DegenerateInputError:
            sims.append(0.0)
            degenerate = True
    mean, var = population_mean_var(sims)
    return mean, var, degenerate


def fuse(s_k: float, s_v: float, var_k: float, var_v: float,
         formula: str = "text", mode: str = "kv") -> SimilarityScore:
    """Combine key and value similarity, weighting the lower-variance feature
    higher.

    formula "text" gives the key similarity a weight proportional to the
    inverse key variance; "literal_eq2" swaps the roles (weight of the key
    similarity proportional to the inverse value variance). mode selects the
    fused score, key similarity alone, or value similarity alone.
    """
    if var_k < 0.0 or var_v < 0.0:
        raise ValueError("variances must be non-negative")
    inv_k = 1.0 / (var_k + EPS_VAR)
    inv_v = 1.0 / (var_v + EPS_VAR)
    if formula == "text":
        alpha = inv_k / (inv_k + inv_v)
    elif formula == "literal_eq2":
        alpha = inv_v / (inv_k + inv_v)
    else:
        raise ValueError("formula must be 'text' or 'literal_eq2'")
    if mode == "key_only":
        alpha = 1.0
    elif mode == "value_only":
        alpha = 0.0
    elif mode != "kv":
        raise ValueError("mode must be 'kv', 'key_only', or 'value_only'")
    s_kv = alpha * s_k + (1.0 - alpha) * s_v
    return SimilarityScore(s_k=s_k, s_v=s_v, var_k=var_k, var_v=var_v, alpha=alpha, s_kv=s_kv)


def anchor_memory_bytes(n_heads: int, d_head: int, tail_layer_count: int,
                        sequences_per_batch: int = 1) -> int:
    """Bytes held by anchors: one float32 key and value vector per head, per
    in-scope layer, per sequence."""
    if min(n_heads, d_head, tail_layer_count, sequences_per_batch) < 1:
        raise ValueError("all dimensions must be positive")
    return tail_layer_count * n_heads * d_head * 2 * 4 * sequences_per_batch


class MisconfigurationError(ValueError):
    """A decision was requested for a layer outside the configured scope."""


@dataclass
class _LayerState:
    """Controller and statistics state for one in-scope layer."""

    tau: float
    var_k: float | None = None
    var_v: float | None = None
    eligible_count: int = 0
    skip_count: int = 0
    shadow_skip_count: int = 0
    actual_estimator: RatioEstimator = None
    shadow_estimator: RatioEstimator = None
    # Per-step accumulators, flushed at the step barrier.
    pending_actual: list = field(default_factory=list)
    pending_shadow: list = field(default_factory=list)
    pending_var_k: list = field(default_factory=list)
    pending_var_v: list = field(default_factory=list)


class FilterEngine:
    """State machine driving skip decisions for one generation session.

    Anchors are per (layer, sequence); thresholds and variance estimates are
    per layer, shared across the batch and updated once per step at the step
    barrier. Warm-up decisions (and every prompt position) run in shadow:
    evaluated, logged, and fed to the threshold controller, but never enacted.
    """

    def __init__(self, n_layers: int, n_heads: int, d_head: int, config: PruneConfig):
        self.config = config
        self.n_layers = n_layers
        self.n_heads = n_heads
        self.d_head = d_head
        self.active_layers = select_layers(n_layers, config.focus, config.tail_fraction)
        self.target = per_layer_target(config)
        self.step_index = 0            # decode steps completed
        self._in_prefill = False
        self._anchors: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._obs_counts: dict[tuple[int, int], int] = {}
        self.layers: dict[int, _LayerState] = {}
        for layer in self.active_layers:
            st = _LayerState(tau=config.tau_init)
            st.actual_estimator = RatioEstimator(config.ratio_estimator, config.gamma)
            st.shadow_estimator = RatioEstimator(config.ratio_estimator, config.gamma)
            self.layers[layer] = st

    # -- step protocol -----------------------------------------------------

    def begin_step(self, prefill: bool = False) -> None:
        self._in_prefill = prefill

    def end_step(self, frozen: bool = False) -> None:
        """Apply the step barrier: batch-mean feedback into estimators,
        thresholds, and variance state. frozen leaves controller state
        untouched (dense telemetry runs)."""
        gamma = self.config.gamma
        for st in self.layers.values():
            if st.pending_actual:
                if not frozen:
                    st.actual_estimator.update(float(np.mean(st.pending_actual)))
                    st.shadow_estimator.update(float(np.mean(st.pending_shadow)))
                    rho = self._controller_ratio(st)
                    st.tau = update_threshold(st.tau, rho, self.target, self.config.eta)
                fresh_k = float(np.mean(st.pending_var_k))
                fresh_v = float(np.mean(st.pending_var_v))
                if self.config.variance_mode == "instant" or st.var_k is None:
                    st.var_k, st.var_v = fresh_k, fresh_v
                else:
                    st.var_k = gamma * st.var_k + (1.0 - gamma) * fresh_k
                    st.var_v = gamma * st.var_v + (1.0 - gamma) * fresh_v
            st.pending_actual.clear()
            st.pending_shadow.clear()
            st.pending_var_k.clear()
            st.pending_var_v.clear()
        if not self._in_prefill:
            self.step_index += 1
        self._in_prefill = False

    def _controller_ratio(self, st: _LayerState) -> float:
        if self.config.warmup_feedback == "shadow":
            return st.shadow_estimator.value()
        return st.actual_estimator.value()

    # -- decisions ---------------------------------------------------------

    def process(self, layer: int, seq: int, k_heads: np.ndarray, v_heads: np.ndarray,
                step: int, enact: bool) -> tuple[bool, StepReport | None]:
        """Observe one token's per-head K/V at one layer and decide.

        Returns (skip, report). skip is False whenever the decision is shadow
        (prompt positions, warm-up, or enact=False telemetry runs). The first
        observation for a (layer, sequence) only initializes the anchors and
        yields no report.
        """
        if layer not in self.layers:
            raise MisconfigurationError(f"layer {layer} is outside the filtered set")
        st = self.layers[layer]
        key = (layer, seq)
        # Canonical wire precision: the live engine and a trace replay must see
        # bit-identical inputs, so K/V pass through float32 before filter math.
        k_heads = np.asarray(k_heads, dtype=np.float32).astype(np.float64)
        v_heads = np.asarray(v_heads, dtype=np.float32).astype(np.float64)

        anchors = self._anchors.get(key)
        self._obs_counts[key] = self._obs_counts.get(key, 0) + 1
        if anchors is None:
            self._anchors[key] = (k_heads.copy(), v_heads.copy())
            return False, None

        anchor_k, anchor_v = anchors
        s_k, fresh_var_k, degen_k = head_similarity(anchor_k, k_heads)
        s_v, fresh_var_v, degen_v = head_similarity(anchor_v, v_heads)

        # The decision sees the running variance as if this step's observation
        # were already blended in; the shared state itself moves at the step
        # barrier so sequences within a batch stay order-independent.
        if self.config.variance_mode == "instant" or st.var_k is None:
            dec_var_k, dec_var_v = fresh_var_k, fresh_var_v
        else:
            g = self.config.gamma
            dec_var_k = g * st.var_k + (1.0 - g) * fresh_var_k
            dec_var_v = g * st.var_v + (1.0 - g) * fresh_var_v

        score = fuse(s_k, s_v, dec_var_k, dec_var_v,
                     formula=self.config.fusion_formula, mode=self.config.fusion)
        would_skip = score.s_kv > st.tau

        self._update_anchors(key, k_heads, v_heads)

        # A zero budget means zero skips, exactly: the proportional controller
        # can only approach zero asymptotically, so enforce it outright.
        shadow = ((not enact) or self._in_prefill
                  or self.step_index < self.config.warmup_steps or self.target == 0.0)
        skipped = bool(would_skip and not shadow)

        st.eligible_count += 1
        st.shadow_skip_count += int(would_skip)
        st.skip_count += int(skipped)
        st.pending_actual.append(1.0 if skipped else 0.0)
        st.pending_shadow.append(1.0 if would_skip else 0.0)
        st.pending_var_k.append(fresh_var_k)
        st.pending_var_v.append(fresh_var_v)

        report = StepReport(
            seq=seq, step=step, layer=layer,
            s_k=score.s_k, s_v=score.s_v, var_k=score.var_k, var_v=score.var_v,
            alpha=score.alpha, s_kv=score.s_kv, tau=st.tau,
            shadow=shadow, skipped=skipped, degenerate=degen_k or degen_v,
        )
        return skipped, report

    def _update_anchors(self, key: tuple[int, int], k_heads: np.ndarray, v_heads: np.ndarray):
        anchor_k, anchor_v = self._anchors[key]
        if self.config.anchor_mode == "ema":
            g = self.config.gamma
            new_k = update_anchor(anchor_k, k_heads, g)
            new_v = update_anchor(anchor_v, v_heads, g)
        else:
            count = self._obs_counts[key]
            new_k = update_anchor_mean(anchor_k, k_heads, count)
            new_v = update_anchor_mean(anchor_v, v_heads, count)
        self._anchors[key] = (new_k, new_v)

    # -- introspection -----------------------------------------------------

    def anchors(self, layer: int, seq: int = 0):
        return self._anchors.get((layer, seq))

    def tau(self, layer: int) -> float:
        return self.layers[layer].tau

    def observed_skip_ratio(self, layer: int) -> float:
        st = self.layers[layer]
        if st.eligible_count == 0:
            return 0.0
        return st.skip_count / st.eligible_count

    def counters(self, layer: int) -> tuple[int, int]:
        st = self.layers[layer]
        return st.skip_count, st.eligible_count
