import numpy as np
import pytest

from tokenskip.numerics import (
    DegenerateInputError,
    cosine_similarity,
    layer_norm,
    population_mean_var,
    softmax,
    substream,
)


class TestCosine:
    def test_identical_vectors(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 1.0

    def test_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_hand_computed(self):
        # 32 / (sqrt(14) * sqrt(77)), computed independently
        got = cosine_similarity(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
        assert got == pytest.approx(0.9746318461970762, abs=1e-12)

    def test_zero_norm_is_an_error(self):
        with pytest.raises(DegenerateInputError):
            cosine_similarity(np.zeros(3), np.ones(3))
        with pytest.raises(DegenerateInputError):
            cosine_similarity(np.ones(3), np.zeros(3))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cosine_similarity(np.ones(3), np.ones(4))

    def test_self_similarity_exactly_one(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = rng.standard_normal(rng.integers(1, 64)).astype(np.float32)
            if np.linalg.norm(a) == 0:
                continue
            assert cosine_similarity(a, a) == 1.0

    def test_scaling_by_powers_of_two_is_exact(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            a = rng.standard_normal(16).astype(np.float32)
            for c in (0.5, 2.0, 8.0, 0.125):
                assert cosine_similarity(a, (c * a).astype(np.float32)) == 1.0
                assert cosine_similarity(a, (-c * a).astype(np.float32)) == -1.0

    def test_arbitrary_positive_scaling_near_one(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            a = rng.standard_normal(24)
            c = float(rng.uniform(0.1, 10.0))
            assert cosine_similarity(a, c * a) == pytest.approx(1.0, abs=1e-12)
            assert cosine_similarity(a, -c * a) == pytest.approx(-1.0, abs=1e-12)

    def test_always_in_range(self):
        rng = np.random.default_rng(14)
        for _ in range(500):
            a = rng.standard_normal(8)
            b = rng.standard_normal(8)
            assert -1.0 <= cosine_similarity(a, b) <= 1.0


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5], atol=1e-7)

    def test_stability_under_large_inputs(self):
        out = softmax(np.array([1000.0, 1000.0], dtype=np.float32))
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-6)
        assert np.all(np.isfinite(out))

    def test_closed_form(self):
        out = softmax(np.array([0.0, np.log(3.0)]))
        np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-9)

    def test_shift_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            x = rng.standard_normal(12)
            shift = float(rng.uniform(-100, 100))
            np.testing.assert_allclose(softmax(x), softmax(x + shift), atol=1e-6)

    def test_sums_to_one_and_nonnegative(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            x = rng.standard_normal(9) * 10
            p = softmax(x)
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) < 1e-6


class TestLayerNorm:
    def test_constant_input_collapses_to_bias(self):
        x = np.full(8, 3.7, dtype=np.float32)
        out = layer_norm(x, np.ones(8), np.zeros(8))
        np.testing.assert_allclose(out, np.zeros(8), atol=1e-4)

    def test_already_normalized(self):
        x = np.array([1.0, -1.0], dtype=np.float32)
        out = layer_norm(x, np.ones(2), np.zeros(2), eps=1e-12)
        np.testing.assert_allclose(out, [1.0, -1.0], atol=1e-5)

    def test_output_statistics(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            x = rng.standard_normal(64) * 5 + 2
            out = layer_norm(x, np.ones(64), np.zeros(64), eps=1e-9).astype(np.float64)
            assert abs(out.mean()) < 1e-5
            assert abs(out.var() - 1.0) < 1e-4

    def test_affine_applied_after_normalization(self):
        rng = np.random.default_rng(32)
        x = rng.standard_normal(16)
        gain = rng.standard_normal(16)
        bias = rng.standard_normal(16)
        base = layer_norm(x, np.ones(16), np.zeros(16))
        out = layer_norm(x, gain, bias)
        np.testing.assert_allclose(out, base * gain + bias, atol=1e-5)

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            layer_norm(np.ones(4), np.ones(4), np.zeros(4), eps=0.0)


class TestPopulationMeanVar:
    def test_matches_numpy(self):
        rng = np.random.default_rng(51)
        xs = rng.standard_normal(37)
        mean, var = population_mean_var(xs)
        assert mean == pytest.approx(float(xs.mean()), abs=1e-12)
        assert var == pytest.approx(float(xs.var()), abs=1e-12)


class TestSubstream:
    def test_named_streams_are_independent_and_stable(self):
        a1 = substream(7, "weights").standard_normal(4)
        a2 = substream(7, "weights").standard_normal(4)
        b = substream(7, "synth").standard_normal(4)
        np.testing.assert_array_equal(a1, a2)
        assert not np.allclose(a1, b)

    def test_different_seeds_differ(self):
        a = substream(1, "weights").standard_normal(4)
        b = substream(2, "weights").standard_normal(4)
        assert not np.allclose(a, b)
