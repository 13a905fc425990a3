"""Small dense linear algebra and streaming statistics used by the engine.

Model math is float32; statistics accumulate in float64. All functions are
pure and operate on caller-owned numpy arrays.

The kernels take whole arrays: cosine_rows compares matching rows under any
leading batch axes, softmax normalizes along one axis (the last by default),
and population_mean_var reduces the last axis. Each gives the same bits as
its one-vector-at-a-time form, so batching never changes a decision.
"""

from __future__ import annotations

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


def cosine_rows(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cosine similarity of each pair of rows (the last axis) of a and b, in
    float64, with a degeneracy mask of the same shape.

    Leading axes batch independent comparisons. The cosine goes through
    squared norms, so identical (or exactly scaled) rows give exactly +-1.0.
    A row pair is degenerate, and scores 0, when that formula has no
    meaningful value: its dot product is non-finite, or the product of its
    squared norms is not a positive finite double (a zero, non-finite, or far
    too small or large row). Each dot product is one BLAS ddot, the same call
    np.dot makes for two vectors, so a batched call equals the
    vector-at-a-time one bit for bit.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim < 1:
        raise ValueError(f"expected matching arrays of rows: {a.shape} vs {b.shape}")
    rows_a, cols_b = a[..., None, :], b[..., :, None]
    # Degenerate rows are an expected, flagged input here: no warnings.
    with np.errstate(all="ignore"):
        dot = np.matmul(rows_a, cols_b)[..., 0, 0]
        sa = np.matmul(rows_a, a[..., :, None])[..., 0, 0]
        sb = np.matmul(b[..., None, :], cols_b)[..., 0, 0]
        den = sa * sb
        ok = np.isfinite(dot) & (0.0 < den) & (den < np.inf)
        sims = np.where(ok, np.copysign(np.sqrt(np.minimum(1.0, dot * dot / den)), dot), 0.0)
    return sims, ~ok


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of the angle between two vectors, in [-1, 1].

    Zero-norm, non-finite or out-of-range input (see cosine_rows) is a
    DegenerateInputError; a zero or NaN key or value indicates upstream
    corruption and the caller decides the fallback.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    sim, degenerate = cosine_rows(a, b)
    if degenerate:
        raise DegenerateInputError("cosine similarity of a zero-norm, non-finite or "
                                   "out-of-range vector is undefined")
    return float(sim)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along one axis (max subtraction), preserving
    dtype.

    The result is C-contiguous, so along the last axis each row sums in the
    same (pairwise) order as a 1-D call on that row, and a whole-array call
    equals the row-at-a-time one bit for bit.
    """
    x = np.asarray(x)
    e = np.exp(np.subtract(x, np.maximum.reduce(x, axis=axis, keepdims=True), order="C"))
    return e / np.add.reduce(e, axis=axis, keepdims=True)


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Normalize x to zero mean / unit variance, then apply the affine map.

    The moments are np.mean/np.var of the float64 vector, reduced directly
    (same sums, same order, same bits).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    x64 = np.asarray(x, dtype=np.float64)
    centred = x64 - np.add.reduce(x64, axis=None) / x64.size
    var = np.add.reduce(centred * centred, axis=None) / x64.size
    # float32 gain and bias promote to float64 exactly inside the ufuncs.
    out = centred / np.sqrt(var + eps) * gain + bias
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


def population_mean_var(values) -> tuple:
    """Mean and population variance along the last axis, in float64.

    Leading axes batch independent samples. Equal bit for bit to np.mean and
    np.var (same pairwise sums, same order), without their Python wrappers.
    """
    v = np.asarray(values, dtype=np.float64)
    n = v.shape[-1]
    mean = np.add.reduce(v, axis=-1, keepdims=True) / n
    centred = v - mean
    return mean[..., 0], np.add.reduce(centred * centred, axis=-1) / n


def substream(seed: int, name: str) -> np.random.Generator:
    """Named child generator so one seed drives independent random streams."""
    tag = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFFFFFFFFFF, tag]))
