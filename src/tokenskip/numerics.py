"""Small dense linear algebra and streaming statistics used by the engine.

Model math is float32; statistics accumulate in float64. All functions are
pure and operate on caller-owned numpy arrays.

The kernels take whole arrays: cosine_rows compares matching rows under any
leading batch axes, softmax normalizes along one axis (the last by default),
layer_norm_rows normalizes each row, and population_mean_var reduces the last
axis. Each gives the same bits as its one-vector-at-a-time form, so batching
never changes a decision.
"""

from __future__ import annotations

import math
import zlib

import numpy as np


class DegenerateInputError(ValueError):
    """Raised when an operation receives input it cannot define a result for."""


def cosine_rows(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cosine similarity of each pair of rows (the last axis) of a and b, in
    float64, with a degeneracy mask of the same shape.

    Leading axes batch independent comparisons. The cosine goes through
    squared norms, so identical (or exactly scaled) rows give exactly +-1.0.
    A row pair is degenerate, and scores 0, when that formula has no
    meaningful value: its dot product is non-finite, or the product of its
    squared norms is not a positive finite double (a zero, non-finite, or far
    too small or large row). The three products (a.b, a.a and b.b) are each
    one np.vecdot, which makes one BLAS ddot per pair of rows: the call np.dot
    makes for two vectors, and the one row_evidence makes per head over its
    anchor/current pair. So a batched call equals the vector-at-a-time one,
    and the live one-row kernel, bit for bit.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim < 1:
        raise ValueError(f"expected matching arrays of rows: {a.shape} vs {b.shape}")
    # Degenerate rows are an expected, flagged input here: no warnings.
    with np.errstate(all="ignore"):
        dot, sa, sb = np.vecdot(a, b), np.vecdot(a, a), np.vecdot(b, b)
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
    equals the row-at-a-time one bit for bit. The exp and the division run in
    place on the fresh array the subtraction returns, so the input is never
    written and no further array is allocated (an integer input, whose exp
    is a float of another dtype, takes a new one).
    """
    x = np.asarray(x)
    e = np.subtract(x, np.maximum.reduce(x, axis=axis, keepdims=True), order="C")
    e = np.exp(e, out=e) if e.dtype.kind in "fc" else np.exp(e)
    e /= np.add.reduce(e, axis=axis, keepdims=True)
    return e


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Normalize x to zero mean / unit variance, then apply the affine map.

    The moments are np.mean/np.var of the float64 vector, reduced directly
    (same sums, same order, same bits). Every step runs in place on one
    float64 copy of x, which np.array makes even when x is float64 already,
    so the caller's array is never written; the scalar steps run in Python
    floats. The result is cast to float32 once. A float32 gain or bias
    promotes to float64 exactly inside the ufuncs, so any gain dtype gives
    the same bits; float64 ones, such as the copies a DecodeSession makes,
    skip that cast on every call.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    x64 = np.array(x, dtype=np.float64)
    n = x64.size
    x64 -= float(np.add.reduce(x64, axis=None)) / n
    var = float(np.add.reduce(x64 * x64, axis=None)) / n
    x64 /= math.sqrt(var + eps)
    x64 *= gain
    x64 += bias
    return x64.astype(np.float32)


def layer_norm_rows(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                    eps: float = 1e-5) -> np.ndarray:
    """layer_norm of each row (the last axis) of x.

    Each row's moments reduce along a contiguous last axis, in the same
    pairwise order as layer_norm's whole-vector sums, so every row equals
    layer_norm of that row bit for bit. A separate function, not a
    generalized layer_norm: the axis handling would cost the one-vector
    decode path about 3 us a call.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    x64 = np.asarray(x, dtype=np.float64)
    n = x64.shape[-1]
    centred = x64 - np.add.reduce(x64, axis=-1, keepdims=True) / n
    var = np.add.reduce(centred * centred, axis=-1, keepdims=True) / n
    out = centred / np.sqrt(var + eps) * gain + bias
    return out.astype(np.float32)


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
