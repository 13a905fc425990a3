"""Layer selection, per-layer targets, and the proportional threshold controller."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

FOCUS_CHOICES = ("tail", "head", "uniform")
FUSION_CHOICES = ("kv", "key_only", "value_only")
ANCHOR_MODE_CHOICES = ("ema", "exact_mean")
VARIANCE_MODE_CHOICES = ("instant", "ema")
WARMUP_FEEDBACK_CHOICES = ("shadow", "literal")
CACHE_ON_SKIP_CHOICES = ("drop", "keep")
FUSION_FORMULA_CHOICES = ("text", "literal_eq2")
RATIO_ESTIMATOR_CHOICES = ("cumulative", "ema")


class ConfigError(ValueError):
    """Invalid pruning or model configuration; message names the field."""


@dataclass(frozen=True)
class PruneConfig:
    """Knobs for the skip policy. Defaults are the recommended operating point."""

    p_global: float = 0.25
    tail_fraction: float = 0.5
    gamma: float = 0.9
    eta: float = 0.01
    warmup_steps: int = 16
    tau_init: float = 0.9
    focus: str = "tail"
    fusion: str = "kv"
    anchor_mode: str = "ema"
    variance_mode: str = "ema"
    warmup_feedback: str = "shadow"
    cache_on_skip: str = "drop"
    fusion_formula: str = "text"
    ratio_estimator: str = "cumulative"

    def __post_init__(self):
        if not 0.0 <= self.p_global <= 1.0:
            raise ConfigError("p_global must be in [0, 1]")
        if not 0.0 < self.tail_fraction <= 1.0:
            raise ConfigError("tail_fraction must be in (0, 1]")
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError("gamma must be in (0, 1)")
        if self.eta <= 0.0:
            raise ConfigError("eta must be positive")
        if self.warmup_steps < 0:
            raise ConfigError("warmup_steps must be non-negative")
        # +inf tau_init is allowed as an explicit never-skip sentinel.
        if math.isnan(self.tau_init) or self.tau_init == -math.inf:
            raise ConfigError("tau_init must be a number or +inf")
        for name, choices in (
            ("focus", FOCUS_CHOICES),
            ("fusion", FUSION_CHOICES),
            ("anchor_mode", ANCHOR_MODE_CHOICES),
            ("variance_mode", VARIANCE_MODE_CHOICES),
            ("warmup_feedback", WARMUP_FEEDBACK_CHOICES),
            ("cache_on_skip", CACHE_ON_SKIP_CHOICES),
            ("fusion_formula", FUSION_FORMULA_CHOICES),
            ("ratio_estimator", RATIO_ESTIMATOR_CHOICES),
        ):
            if getattr(self, name) not in choices:
                raise ConfigError(f"{name} must be one of {choices}")
        # Uniform focus applies p_global per layer directly, so the inflated
        # budget constraint only binds when a focused subset is selected.
        if self.focus in ("tail", "head") and self.p_global / self.tail_fraction > 1.0 + 1e-12:
            raise ConfigError(
                "p_global / tail_fraction exceeds 1: the per-layer budget is unreachable"
            )


def select_layers(n_layers: int, focus: str, tail_fraction: float) -> tuple[int, ...]:
    """Indices of layers where the filter runs.

    tail keeps the last ceil(Y*n) layers, head the first ceil(Y*n), and
    uniform keeps every layer regardless of Y.
    """
    if n_layers < 1:
        raise ConfigError("n_layers must be positive")
    if not 0.0 < tail_fraction <= 1.0:
        raise ConfigError("tail_fraction must be in (0, 1]")
    if focus == "uniform":
        return tuple(range(n_layers))
    count = math.ceil(tail_fraction * n_layers)
    count = min(count, n_layers)
    if focus == "tail":
        return tuple(range(n_layers - count, n_layers))
    if focus == "head":
        return tuple(range(count))
    raise ConfigError(f"focus must be one of {FOCUS_CHOICES}")


def per_layer_target(config: PruneConfig) -> float:
    """Skip-ratio target for each in-scope layer.

    Focused modes inflate the global budget by 1/Y so the global ratio still
    lands on p_global; uniform applies p_global everywhere.
    """
    if config.focus == "uniform":
        return config.p_global
    target = config.p_global / config.tail_fraction
    if target > 1.0 + 1e-12:
        raise ConfigError("p_global / tail_fraction exceeds 1")
    return min(target, 1.0)


def update_threshold(tau: float, rho_current: float, rho_target: float, eta: float) -> float:
    """Proportional feedback: raise tau when skipping too much, lower it when
    skipping too little. Result is clamped to [-1, 1 + eta] so the boundary
    stays within reachable cosine range plus headroom.

    +inf tau is preserved untouched: it is the explicit never-skip sentinel.
    """
    if eta <= 0.0:
        raise ConfigError("eta must be positive")
    if not 0.0 <= rho_current <= 1.0 or not 0.0 <= rho_target <= 1.0:
        raise ValueError("skip ratios must lie in [0, 1]")
    if math.isinf(tau) and tau > 0:
        return tau
    new_tau = tau + eta * (rho_current - rho_target)
    return max(-1.0, min(new_tau, 1.0 + eta))


class RatioEstimator:
    """Running estimate of a layer's skip ratio.

    cumulative: skips observed / decisions observed, the simplest reading of a
    running estimate. ema: exponentially weighted indicator for streams whose
    statistics drift.
    """

    def __init__(self, mode: str = "cumulative", gamma: float = 0.9):
        if mode not in RATIO_ESTIMATOR_CHOICES:
            raise ConfigError(f"ratio_estimator must be one of {RATIO_ESTIMATOR_CHOICES}")
        self.mode = mode
        self.gamma = gamma
        self.count = 0
        self.total = 0.0
        self._ema = None

    def update(self, indicator: float) -> None:
        indicator = float(indicator)
        self.count += 1
        self.total += indicator
        if self._ema is None:
            self._ema = indicator
        else:
            self._ema = self.gamma * self._ema + (1.0 - self.gamma) * indicator

    def value(self) -> float:
        if self.count == 0:
            return 0.0
        if self.mode == "cumulative":
            return self.total / self.count
        return self._ema


def parse_config_text(text: str) -> dict:
    """Parse the flat key=value config format; '#' starts a comment."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def prune_config_from_mapping(mapping: dict, base: PruneConfig | None = None) -> PruneConfig:
    """Build a PruneConfig from string values, starting from base (or defaults)."""
    cfg = base if base is not None else PruneConfig()
    kwargs = {}
    valid = {f.name: f.type for f in fields(PruneConfig)}
    for key, value in mapping.items():
        if key not in valid:
            raise ConfigError(f"unknown prune config field: {key}")
        current = getattr(cfg, key)
        if isinstance(current, (int, float)):
            kwargs[key] = parse_number(key, value, type(current))
        else:
            kwargs[key] = str(value)
    return replace(cfg, **kwargs)


def parse_number(name: str, value, kind: type):
    """value as an int or float; a ConfigError naming the field otherwise."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be {'an integer' if kind is int else 'a number'}, "
                          f"got {value!r}") from None
