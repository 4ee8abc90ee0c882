import re

import numpy as np
import pytest

from conftest import ref_raw
from emsoftmax.tensor import (
    Rng,
    as_indices,
    as_matrix,
    check_real,
    gaussian_init,
    sum_in_order,
    xavier_scale,
)

MASK = (1 << 64) - 1


def uniforms(rng, n):
    """The next n scalar uniform draws of ``rng`` as an array."""
    return np.array([rng.uniform() for _ in range(n)])


def splitmix64_reference(seed, count):
    """Pure-int splitmix64 stream, word k = finalize(seed + (k+1)*gamma)."""
    out = []
    for k in range(1, count + 1):
        z = (seed + k * 0x9E3779B97F4A7C15) & MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


class TestRngCore:
    def test_raw_words_match_pure_python_reference(self):
        for seed in (0, 1, 42, 0xDEADBEEF, MASK):
            rng = Rng(seed)
            got = rng._raw(16).tolist()
            assert got == splitmix64_reference(seed, 16)

    def test_same_seed_same_stream(self):
        a = uniforms(Rng(123), 50)
        b = uniforms(Rng(123), 50)
        np.testing.assert_array_equal(a, b)

    def test_draw_splitting_is_invariant(self):
        r1 = Rng(9)
        first = uniforms(r1, 3)
        second = uniforms(r1, 4)
        joined = uniforms(Rng(9), 7)
        np.testing.assert_array_equal(np.concatenate([first, second]), joined)

    def test_counter_advances(self):
        rng = Rng(5)
        assert rng.counter == 0
        uniforms(rng, 10)
        assert rng.counter == 10

    def test_spawn_children_differ_from_parent_and_each_other(self):
        root = Rng(7)
        streams = [uniforms(root, 20)] + [
            uniforms(root.spawn(t), 20) for t in range(5)
        ]
        for i in range(len(streams)):
            for j in range(i + 1, len(streams)):
                assert not np.array_equal(streams[i], streams[j])

    @pytest.mark.parametrize("seed", [1.5, True, "3"])
    def test_non_integer_seed_rejected(self, seed):
        # 1.5 was truncated to the seed 1
        with pytest.raises(ValueError, match=rf"^seed must be an integer, got {seed!r}$"):
            Rng(seed)

    def test_spawn_is_deterministic(self):
        a = uniforms(Rng(7).spawn(3), 8)
        b = uniforms(Rng(7).spawn(3), 8)
        np.testing.assert_array_equal(a, b)


class TestRngDistributions:
    def test_uniform_range_and_moments(self):
        u = uniforms(Rng(2024), 20000)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.01
        assert abs(u.var() - 1.0 / 12.0) < 0.005

    def test_uniform_shapes(self):
        rng = Rng(3)
        assert isinstance(rng.uniform(), float)
        # one draw per call: there is no array form
        with pytest.raises(TypeError):
            rng.uniform(5)

    def test_normal_moments(self):
        z = Rng(11).normal((20000,))
        assert abs(z.mean()) < 0.03
        assert abs(z.std() - 1.0) < 0.03
        # roughly symmetric tails
        assert 0.0005 < np.mean(z > 2.0) < 0.06

    def test_normal_odd_sizes(self):
        z = Rng(4).normal((7,))
        assert z.shape == (7,) and np.isfinite(z).all()

    def test_permutation_is_a_permutation(self):
        for n in (0, 1, 2, 17, 256):
            p = Rng(6).permutation(n)
            assert sorted(p.tolist()) == list(range(n))

    @pytest.mark.parametrize("seed", [0, 6, 2**64 - 1])
    def test_permutation_is_the_stable_argsort_of_its_words(self, seed):
        # the words are distinct, so an unstable sort gives the stable order
        rng, words = Rng(seed), Rng(seed)
        for n in (0, 1, 2, 1500, 5000):
            want = np.argsort(ref_raw(words, n), kind="stable")
            got = rng.permutation(n)
            assert got.shape == want.shape and (got == want).all()
        assert rng.counter == words.counter

    def test_permutations_vary_over_draws(self):
        rng = Rng(8)
        perms = {tuple(rng.permutation(6).tolist()) for _ in range(50)}
        assert len(perms) > 30

    def test_small_permutations_cover_all_orders(self):
        rng = Rng(10)
        seen = {tuple(rng.permutation(3).tolist()) for _ in range(500)}
        assert len(seen) == 6

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            Rng(0).permutation(-1)


class TestMatrixHelpers:
    def test_as_matrix_coerces_to_float64(self):
        a = as_matrix([[1, 2], [3, 4]], "a")
        assert a.dtype == np.float64 and a.shape == (2, 2)

    def test_as_matrix_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="vec"):
            as_matrix(np.zeros(3), "vec")
        with pytest.raises(ValueError):
            as_matrix(np.zeros((2, 2, 2)), "cube")

    def test_as_matrix_rejects_empty_dimensions(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros((0, 3)), "bad")

    def test_as_indices_copies_only_to_reach_int64(self):
        ids = np.array([2, 0, 1])
        assert as_indices(ids, 3, "ids") is ids
        small = as_indices(np.array([2, 0], dtype=np.uint8), 3, "ids")
        assert small.dtype == np.int64 and small.tolist() == [2, 0]


class TestCheckReal:
    @pytest.mark.parametrize("value", [
        True, np.bool_(False), "1", None, [0.5], float("nan"), float("inf"), float("-inf"),
        -1, -0.5, np.float64(-2.0), 10**400,
    ])
    def test_anything_but_a_finite_real_of_at_least_zero_rejected(self, value):
        # a bool was taken as 0 or 1; a string or None raised a TypeError
        message = rf"^x must be finite and non-negative, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            check_real(value, "x")

    @pytest.mark.parametrize("value", [0, 0.0, -0.0, np.float64(0.0), np.int8(0)])
    def test_zero_is_not_positive(self, value):
        assert check_real(value, "x") is value
        with pytest.raises(ValueError, match=r"^x must be finite and positive, got "):
            check_real(value, "x", positive=True)

    @pytest.mark.parametrize("value", [
        2, 0.5, 1e300, np.int64(3), np.uint8(1), np.float32(0.25), np.float64(1e-300),
    ])
    def test_python_and_numpy_reals_returned_as_given(self, value):
        assert check_real(value, "x") is value
        assert check_real(value, "x", positive=True) is value


class TestInitializers:
    def test_xavier_scale_value(self):
        assert xavier_scale(3, 5) == 0.5
        assert xavier_scale(784, 256) == pytest.approx(np.sqrt(2.0 / 1040.0))

    def test_gaussian_init_stats_and_shape(self):
        w = gaussian_init(200, 100, 0.05, Rng(1))
        assert w.shape == (200, 100)
        assert abs(w.std() - 0.05) < 0.002
        assert abs(w.mean()) < 0.002

    def test_gaussian_init_deterministic(self):
        a = gaussian_init(4, 4, 0.1, Rng(9))
        b = gaussian_init(4, 4, 0.1, Rng(9))
        np.testing.assert_array_equal(a, b)

    def test_gaussian_init_validation(self):
        with pytest.raises(ValueError):
            gaussian_init(0, 3, 0.1, Rng(0))
        with pytest.raises(ValueError):
            gaussian_init(3, 3, 0.0, Rng(0))

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), -0.5, True])
    def test_gaussian_init_rejects_a_scale_that_is_not_finite_and_positive(self, scale):
        # a NaN or infinite scale gave NaN or infinite weights
        with pytest.raises(ValueError, match="^gaussian_init scale must be finite and positive"):
            gaussian_init(2, 2, scale, Rng(0))

    @pytest.mark.parametrize("rows, cols", [(2.5, 2), (2, True)])
    def test_gaussian_init_rejects_sizes_that_are_not_counts(self, rows, cols):
        with pytest.raises(ValueError, match="^gaussian_init (rows|cols) must be an integer"):
            gaussian_init(rows, cols, 0.1, Rng(0))


def test_sum_in_order_adds_plainly_from_zero():
    # a compensated sum (the builtin sum from Python 3.12) would give 1.0
    assert sum_in_order([1e16, 1.0, -1e16]) == 0.0
    assert sum_in_order(iter([0.5, 0.25])) == 0.75
    assert sum_in_order([]) == 0.0
