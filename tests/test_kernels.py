"""The batched kernels equal their one-vector-at-a-time definitions bit for
bit: head similarity against a per-head np.dot loop, the live one-row
evidence against head similarity, softmax along the last axis against a
per-row loop, and layer norm against np.mean/np.var. Rows too small or large
for the squared-norm cosine are degenerate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenskip.filtering import _add_reduce, head_similarity, pair_views, row_evidence
from tokenskip.numerics import DegenerateInputError, cosine_similarity, layer_norm, softmax

SPECIALS = (0.0, np.nan, np.inf, -np.inf)


def bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def reference_head_similarity(anchors, currents):
    """Per-head loop: np.dot products, Python float cosine, np.mean/np.var.
    The inputs hold float32 values, so the product of two non-zero squared
    norms always lies inside the double range."""
    sims, degenerate = [], False
    for a, b in zip(anchors, currents):
        with np.errstate(invalid="ignore"):
            dot, sa, sb = (float(np.dot(a, b)), float(np.dot(a, a)), float(np.dot(b, b)))
        if (not (math.isfinite(dot) and math.isfinite(sa) and math.isfinite(sb))
                or sa == 0.0 or sb == 0.0):
            sims.append(0.0)
            degenerate = True
            continue
        c = math.copysign(math.sqrt(min(1.0, (dot * dot) / (sa * sb))), dot)
        sims.append(min(1.0, max(-1.0, c)))
    return float(np.mean(sims)), float(np.var(sims)), degenerate


@st.composite
def head_pairs(draw):
    """(..., n_heads, d_head) float64 pairs holding float32 values, with zero
    and non-finite heads mixed in."""
    batch = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    n_heads, d_head = draw(st.integers(1, 8)), draw(st.integers(1, 32))
    shape = batch + (n_heads, d_head)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-30, 1e-3, 1.0, 1e3, 1e30]))
    a, b = ((rng.standard_normal(shape) * scale).astype(np.float32).astype(np.float64)
            for _ in range(2))
    if draw(st.booleans()):
        b = (a * draw(st.sampled_from([1.0, -1.0, 0.5, 3.0]))).astype(np.float32).astype(np.float64)
    flat_a, flat_b = a.reshape(-1, d_head), b.reshape(-1, d_head)
    for _ in range(draw(st.integers(0, 3))):
        side = flat_a if draw(st.booleans()) else flat_b
        row = draw(st.integers(0, len(side) - 1))
        special = draw(st.sampled_from(SPECIALS))
        if special == 0.0:
            side[row] = 0.0
        else:
            side[row, draw(st.integers(0, d_head - 1))] = special
    return a, b


@settings(deadline=None, max_examples=300)
@given(head_pairs())
def test_batched_head_similarity_equals_per_head_dot_loop(pair):
    a, b = pair
    mean, var, degenerate = head_similarity(a, b)
    if a.ndim == 2:
        assert type(mean) is float and type(var) is float and type(degenerate) is bool
        mean, var, degenerate = np.array([mean]), np.array([var]), np.array([degenerate])
    rows_a, rows_b = a.reshape(-1, *a.shape[-2:]), b.reshape(-1, *b.shape[-2:])
    want = [reference_head_similarity(x, y) for x, y in zip(rows_a, rows_b)]
    assert bits(np.ravel(mean)) == bits([w[0] for w in want])
    assert bits(np.ravel(var)) == bits([w[1] for w in want])
    assert np.ravel(degenerate).tolist() == [w[2] for w in want]


@pytest.mark.parametrize("scale", [1e-160, 1e160])
def test_rows_outside_the_squared_norm_range_are_degenerate(scale):
    # The true cosine is 1/sqrt(2), but the product of squared norms under-
    # or overflows a double, so the squared-norm formula cannot give it.
    a, b = np.array([scale, 0.0]), np.array([scale, scale])
    with pytest.raises(DegenerateInputError):
        cosine_similarity(a, b)
    assert head_similarity(a[None], b[None]) == (0.0, 0.0, True)
    assert cosine_similarity(a / scale, b / scale) == pytest.approx(2 ** -0.5, abs=1e-15)


@st.composite
def evidence_rows(draw):
    """One (2, n_heads, d_head) float64 anchor and current, with whole heads
    of zero, NaN, +-inf, 1e-160 or 1e160 values mixed in (the last two are
    beyond float32, so the squared norms under- or overflow)."""
    n_heads, d_head = draw(st.integers(1, 20)), draw(st.integers(1, 32))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b = rng.standard_normal((2, 2, n_heads, d_head))
    if draw(st.booleans()):
        b = a * draw(st.sampled_from([1.0, -1.0, 0.5, 3.0])) + 1e-3 * b
    for _ in range(draw(st.integers(0, 4))):
        side = a if draw(st.booleans()) else b
        head = side[draw(st.integers(0, 1)), draw(st.integers(0, n_heads - 1))]
        special = draw(st.sampled_from(SPECIALS + (1e-160, 1e160)))
        if draw(st.booleans()):
            head[...] = special
        else:
            head[draw(st.integers(0, d_head - 1))] = special
    return a, b


@settings(deadline=None, max_examples=400)
@given(evidence_rows())
def test_one_row_evidence_equals_head_similarity_of_the_row(row):
    a, b = row
    pair = np.stack([a, b])
    s_k, s_v, var_k, var_v, degenerate_k, degenerate_v, finite = row_evidence(
        pair, pair_views(pair))
    means, variances, degenerate = [s_k, s_v], [var_k, var_v], [degenerate_k, degenerate_v]
    want_means, want_vars, want_degenerate = head_similarity(a, b)
    assert all(type(x) is float for x in means + variances)
    assert bits(means) == bits(want_means)
    assert bits(variances) == bits(want_vars)
    assert degenerate == want_degenerate.tolist()
    assert finite is bool(np.isfinite(b).all())


@settings(deadline=None, max_examples=200)
@given(n=st.integers(0, 300), seed=st.integers(0, 2**32 - 1), zeros=st.booleans())
def test_add_reduce_sums_in_numpy_order(n, seed, zeros):
    # Lengths from 8 on take np.add.reduce's own pairwise branches, and mixed
    # magnitudes make the grouping show in the last bits.
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
    if zeros:
        values[rng.random(n) < 0.5] = -0.0
    assert bits(_add_reduce(values.tolist())) == bits(np.add.reduce(values))


@pytest.mark.parametrize("n", [1, 3, 8, 20, 200])
def test_add_reduce_of_negative_zeros_is_positive_zero(n):
    assert bits(_add_reduce([-0.0] * n)) == bits(np.add.reduce(np.full(n, -0.0))) == bits(0.0)


def reference_softmax_row(x):
    shifted = x - np.max(x)
    e = np.exp(shifted)
    return e / e.sum()


@settings(deadline=None, max_examples=200)
@given(n_rows=st.integers(1, 8), length=st.integers(1, 800),
       seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-3, 1.0, 30.0, 1e4]),
       transposed=st.booleans())
def test_softmax_last_axis_equals_per_row_loop(n_rows, length, seed, scale, transposed):
    rng = np.random.default_rng(seed)
    if transposed:   # rows strided across memory, as einsum can lay them out
        x = (rng.standard_normal((length, n_rows)) * scale).astype(np.float32).T
    else:
        x = (rng.standard_normal((n_rows, length)) * scale).astype(np.float32)
    got = softmax(x)
    want = np.stack([reference_softmax_row(row) for row in x])
    assert got.dtype == np.float32
    assert got.tobytes() == want.tobytes()
    assert softmax(x[0]).tobytes() == want[0].tobytes()


def reference_layer_norm(x, gain, bias, eps=1e-5):
    x64 = np.asarray(x, dtype=np.float64)
    normed = (x64 - x64.mean()) / np.sqrt(x64.var() + eps)
    out = normed * np.asarray(gain, dtype=np.float64) + np.asarray(bias, dtype=np.float64)
    return out.astype(np.float32)


@settings(deadline=None, max_examples=200)
@given(length=st.integers(1, 1024), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-20, 1e-3, 1.0, 1e3, 1e20]),
       eps=st.sampled_from([1e-12, 1e-5, 1.0]))
def test_layer_norm_equals_mean_var_formula(length, seed, scale, eps):
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal(length) * scale + rng.standard_normal() * scale).astype(np.float32)
    gain, bias = rng.standard_normal((2, length)).astype(np.float32)
    assert (layer_norm(x, gain, bias, eps).tobytes()
            == reference_layer_norm(x, gain, bias, eps).tobytes())


# -- the kernels work in place on their own arrays, never on the caller's -----------


@settings(deadline=None, max_examples=100)
@given(length=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-20, 1e-3, 1.0, 1e3, 1e20]))
def test_layer_norm_leaves_a_float64_input_unchanged(length, seed, scale):
    # np.asarray would hand layer_norm the caller's float64 array itself.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(length) * scale
    before = x.tobytes()
    gain, bias = rng.standard_normal((2, length)).astype(np.float32)
    out = layer_norm(x, gain, bias)
    assert x.tobytes() == before
    assert out.dtype == np.float32


@settings(deadline=None, max_examples=200)
@given(length=st.integers(1, 1024), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-20, 1e-3, 1.0, 1e3, 1e20]),
       gain_scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_layer_norm_gives_the_same_bytes_for_float32_and_float64_gains(length, seed, scale,
                                                                       gain_scale):
    # A session passes float64 copies of the float32 weights; the cast is exact.
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal(length) * scale).astype(np.float32)
    gain, bias = (rng.standard_normal((2, length)) * gain_scale).astype(np.float32)
    got = layer_norm(x, gain.astype(np.float64), bias.astype(np.float64))
    assert got.tobytes() == layer_norm(x, gain, bias).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("transposed", [False, True])
def test_softmax_leaves_its_input_unchanged_and_returns_a_c_contiguous_array(dtype,
                                                                           transposed):
    x = (np.random.default_rng(7).standard_normal((5, 130)) * 30.0).astype(dtype)
    x[1, 3] = -np.inf
    if transposed:
        x = x.T
    before, strides = x.copy(), x.strides
    out = softmax(x)
    assert out.tobytes() == np.stack([reference_softmax_row(row) for row in x]).tobytes()
    assert out.flags.c_contiguous and out.dtype == dtype
    assert x.tobytes() == before.tobytes() and x.strides == strides
    assert softmax(x, axis=0).flags.c_contiguous
    assert x.tobytes() == before.tobytes()


def test_softmax_of_integers_is_the_exp_of_their_float_dtype():
    x = np.array([[1, 2, 3], [0, 0, 5]])
    out = softmax(x)
    assert out.dtype == np.exp(x).dtype
    assert out.tobytes() == np.stack([reference_softmax_row(row) for row in x]).tobytes()
    assert x.tolist() == [[1, 2, 3], [0, 0, 5]]
