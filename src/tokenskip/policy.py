"""Layer selection, per-layer targets, and the proportional threshold controller."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

FUSION_CHOICES = ("kv", "key_only", "value_only")
ANCHOR_MODE_CHOICES = ("ema", "exact_mean")
CACHE_ON_SKIP_CHOICES = ("drop", "keep")


class ConfigError(ValueError):
    """Invalid configuration or command argument; the message names it."""


@dataclass(frozen=True)
class PruneConfig:
    """Knobs for the skip policy. Defaults are the recommended operating point."""

    p_global: float = 0.25
    tail_fraction: float = 0.5
    gamma: float = 0.9
    eta: float = 0.01
    warmup_steps: int = 16
    tau_init: float = 0.9
    fusion: str = "kv"
    anchor_mode: str = "ema"
    cache_on_skip: str = "drop"

    def __post_init__(self):
        if not 0.0 <= self.p_global <= 1.0:
            raise ConfigError("p_global must be in [0, 1]")
        if not 0.0 < self.tail_fraction <= 1.0:
            raise ConfigError("tail_fraction must be in (0, 1]")
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError("gamma must be in (0, 1)")
        if not 0.0 < self.eta <= 1.0:  # see update_threshold
            raise ConfigError(f"eta must be in (0, 1], got {self.eta!r}")
        if self.warmup_steps < 0:
            raise ConfigError("warmup_steps must be non-negative")
        # +inf tau_init is allowed as an explicit never-skip sentinel.
        if math.isnan(self.tau_init) or self.tau_init == -math.inf:
            raise ConfigError("tau_init must be a number or +inf")
        for name, choices in (
            ("fusion", FUSION_CHOICES),
            ("anchor_mode", ANCHOR_MODE_CHOICES),
            ("cache_on_skip", CACHE_ON_SKIP_CHOICES),
        ):
            if getattr(self, name) not in choices:
                raise ConfigError(f"{name} must be one of {choices}")
        if self.p_global / self.tail_fraction > 1.0 + 1e-12:
            raise ConfigError(
                "p_global / tail_fraction exceeds 1: the per-layer budget is unreachable"
            )


def select_layers(n_layers: int, tail_fraction: float) -> tuple[int, ...]:
    """Indices of layers where the filter runs: the last ceil(Y*n) layers,
    so Y = 1 selects every layer."""
    if n_layers < 1:
        raise ConfigError("n_layers must be positive")
    if not 0.0 < tail_fraction <= 1.0:
        raise ConfigError("tail_fraction must be in (0, 1]")
    count = math.ceil(tail_fraction * n_layers)
    count = min(count, n_layers)
    return tuple(range(n_layers - count, n_layers))


def per_layer_target(config: PruneConfig) -> float:
    """Skip-ratio target for each in-scope layer: p_global / Y, so the global
    ratio lands on p_global. PruneConfig rejects a target above 1 by more
    than rounding; the clamp absorbs the rounding."""
    return min(config.p_global / config.tail_fraction, 1.0)


def update_threshold(tau: float, rho_current: float, rho_target: float, eta: float) -> float:
    """Proportional feedback: raise tau when skipping too much, lower it when
    skipping too little. Result is clamped to [-1, 1 + eta] so the boundary
    stays within reachable cosine range plus headroom.

    +inf tau is preserved untouched: it is the explicit never-skip sentinel.
    eta must lie in (0, 1]: one step moves tau by at most eta, and past 1 (or
    at NaN) the clamp no longer holds tau near the cosine range.
    """
    if not 0.0 < eta <= 1.0:
        raise ConfigError(f"eta must be in (0, 1], got {eta!r}")
    if not 0.0 <= rho_current <= 1.0 or not 0.0 <= rho_target <= 1.0:
        raise ValueError("skip ratios must lie in [0, 1]")
    if math.isinf(tau) and tau > 0:
        return tau
    new_tau = tau + eta * (rho_current - rho_target)
    return max(-1.0, min(new_tau, 1.0 + eta))


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


def config_from_mapping(base, mapping: dict):
    """A copy of base, an instance of a config dataclass, with each field in
    mapping set from its value: parsed as the type of base's number, or taken
    as text. An unknown or unparsable field is a ConfigError naming it."""
    names = {f.name for f in fields(base)}
    kwargs = {}
    for key, value in mapping.items():
        if key not in names:
            raise ConfigError(f"unknown {type(base).__name__} field: {key}")
        current = getattr(base, key)
        if isinstance(current, (int, float)):
            kwargs[key] = parse_number(key, value, type(current))
        else:
            kwargs[key] = str(value)
    return replace(base, **kwargs)


def parse_number(name: str, value, kind: type):
    """value as an int or float; a ConfigError naming the field otherwise."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be {'an integer' if kind is int else 'a number'}, "
                          f"got {value!r}") from None
