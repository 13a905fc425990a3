"""Small dense linear algebra and streaming statistics used by the engine.

Model math is float32; statistics accumulate in float64. All functions are
pure and operate on caller-owned numpy arrays.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np


class DegenerateInputError(ValueError):
    """Raised when an operation receives input it cannot define a result for."""


def as_vector(values, dtype=np.float32) -> np.ndarray:
    """Coerce to a 1-D float array and validate finiteness."""
    v = np.asarray(values, dtype=dtype)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a non-empty 1-D vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector contains NaN or Inf")
    return v


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of the angle between two vectors, clamped to [-1, 1].

    Computed through squared norms so that identical (or exactly scaled)
    inputs give exactly +-1.0. Zero-norm or non-finite input is an error; a
    zero or NaN key or value indicates upstream corruption and the caller
    decides the fallback.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    a64 = a.astype(np.float64, copy=False)
    b64 = b.astype(np.float64, copy=False)
    dot = float(np.dot(a64, b64))
    sa = float(np.dot(a64, a64))
    sb = float(np.dot(b64, b64))
    if not (math.isfinite(dot) and math.isfinite(sa) and math.isfinite(sb)):
        raise DegenerateInputError("cosine similarity of a non-finite vector is undefined")
    if sa == 0.0 or sb == 0.0:
        raise DegenerateInputError("cosine similarity of a zero-norm vector is undefined")
    ratio = (dot * dot) / (sa * sb)
    c = math.copysign(math.sqrt(min(1.0, ratio)), dot)
    return min(1.0, max(-1.0, c))


def softmax(x: np.ndarray) -> np.ndarray:
    """Numerically stable softmax (max subtraction), preserving dtype."""
    x = np.asarray(x)
    shifted = x - np.max(x)
    e = np.exp(shifted)
    return e / e.sum()


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Normalize x to zero mean / unit variance, then apply the affine map."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    x64 = np.asarray(x, dtype=np.float64)
    mu = x64.mean()
    var = x64.var()
    normed = (x64 - mu) / np.sqrt(var + eps)
    out = normed * np.asarray(gain, dtype=np.float64) + np.asarray(bias, dtype=np.float64)
    return out.astype(np.float32)


@dataclass
class RunningStat:
    """Welford single-pass mean/variance accumulator (population variance)."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def update(self, x: float) -> "RunningStat":
        x = float(x)
        if not np.isfinite(x):
            raise ValueError("sample must be finite")
        n = self.count + 1
        delta = x - self.mean
        mean = self.mean + delta / n
        m2 = self.m2 + delta * (x - mean)
        return RunningStat(n, mean, m2)

    @property
    def variance(self) -> float:
        if self.count < 1:
            raise ValueError("variance undefined for an empty stat")
        return self.m2 / self.count

    def merge(self, other: "RunningStat") -> "RunningStat":
        """Combine two accumulators as if their samples were concatenated."""
        if self.count == 0:
            return RunningStat(other.count, other.mean, other.m2)
        if other.count == 0:
            return RunningStat(self.count, self.mean, self.m2)
        n = self.count + other.count
        delta = other.mean - self.mean
        mean = self.mean + delta * other.count / n
        m2 = self.m2 + other.m2 + delta * delta * self.count * other.count / n
        return RunningStat(n, mean, m2)


def population_mean_var(values) -> tuple[float, float]:
    """Across-sample mean and population variance in float64."""
    v = np.asarray(values, dtype=np.float64)
    return float(v.mean()), float(v.var())


def substream(seed: int, name: str) -> np.random.Generator:
    """Named child generator so one seed drives independent random streams."""
    tag = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFFFFFFFFFF, tag]))
