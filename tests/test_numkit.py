import numpy as np
import pytest

from compset import InvalidInput
from compset.cka import gram_frobenius_stack
from compset.numkit import _positions, as_matrix, logsumexp_rows, softmax_rows
from util import central_diff_grad, softmax_oracle


def softmax(logits, temperature=1.0):
    """softmax(temperature * logits) of one vector, as the package computes it."""
    return softmax_rows(temperature * np.asarray(logits, dtype=np.float64)[None, :])[0]


class TestStableSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(softmax([0.0, 0.0, 0.0]), np.ones(3) / 3, rtol=0, atol=1e-15)

    def test_extreme_logits_no_overflow(self):
        out = softmax([1000.0, 0.0])
        assert np.all(np.isfinite(out))
        assert out[0] > 1 - 1e-12 and out[1] < 1e-12

    def test_analytic_value(self):
        np.testing.assert_allclose(softmax([np.log(2.0), 0.0]), [2 / 3, 1 / 3], atol=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            v = rng.standard_normal(int(rng.integers(1, 20))) * 100
            t = float(rng.uniform(0.1, 64.0))
            assert abs(softmax(v, t).sum() - 1.0) < 1e-12

    def test_temperature_sharpens(self):
        v = [1.0, 0.0]
        assert softmax(v, 16.0)[0] > softmax(v, 1.0)[0]

    def test_batched_rows_match_single(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((8, 5)) * 30
        rows = softmax_rows(m)
        for i in range(8):
            np.testing.assert_allclose(rows[i], softmax_oracle(m[i]), atol=1e-14)
        lse = logsumexp_rows(m)
        for i in range(8):
            np.testing.assert_allclose(lse[i], np.log(np.exp(m[i]).sum()), rtol=1e-12)


class TestFrobeniusNorm:
    """||M M^T||_F of each map in a stack, which the package computes
    through the smaller Gram factor."""

    def test_three_four_five(self):
        assert gram_frobenius_stack(np.array([[[3.0, 4.0]]]))[0] == 25.0

    def test_zero_iff_zero(self):
        assert gram_frobenius_stack(np.zeros((1, 3, 2)))[0] == 0.0
        assert gram_frobenius_stack(np.ones((1, 2, 2)))[0] == 4.0

    def test_matches_numpy_on_random(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            m = rng.standard_normal((int(rng.integers(1, 10)), int(rng.integers(1, 10))))
            np.testing.assert_allclose(gram_frobenius_stack(m[None])[0], np.linalg.norm(m @ m.T), rtol=1e-12)

    def test_stack_equals_each_map_alone(self):
        rng = np.random.default_rng(3)
        for n, d in [(3, 7), (7, 3)]:
            stack = rng.standard_normal((5, n, d))
            want = [np.linalg.norm(m @ m.T) for m in stack]
            np.testing.assert_allclose(gram_frobenius_stack(stack), want, rtol=1e-12)


class TestAsMatrix:
    def test_rejects_wrong_ndim_and_nonfinite(self):
        with pytest.raises(InvalidInput):
            as_matrix([1.0, 2.0])
        with pytest.raises(InvalidInput):
            as_matrix(np.zeros((0, 3)))
        with pytest.raises(InvalidInput):
            as_matrix([[np.nan, 1.0]])


class TestPositions:
    """The one lookup of registered ids: labels, banks and subsets."""

    def test_positions_of_registered_values(self):
        assert _positions([2, 5, 9], [9, 2, 5, 5], "labels").tolist() == [2, 0, 1, 1]
        assert _positions([2, 5, 9], [], "labels").shape == (0,)
        assert _positions([], [], "labels").shape == (0,)

    def test_missing_values_are_named_once_each(self):
        with pytest.raises(InvalidInput, match=r"^labels not registered: \[1, 10\]$"):
            _positions([2, 5, 9], [10, 5, 1, 10], "labels")
        with pytest.raises(InvalidInput, match=r"^classes not registered: \[3\]$"):
            _positions([], [3], "classes")


class TestCentralDiffGrad:
    def test_quadratic_exact(self):
        g = central_diff_grad(lambda t: float(t[0] ** 2), np.array([3.0]), eps=1e-5)
        assert abs(g[0] - 6.0) < 1e-8

    def test_constant_zero(self):
        g = central_diff_grad(lambda t: 7.5, np.array([1.0, -2.0, 0.3]))
        np.testing.assert_array_equal(g, np.zeros(3))

    def test_multivariate_polynomial(self):
        # f = x0^2 x1 + 3 x1 -> grad (2 x0 x1, x0^2 + 3)
        theta = np.array([1.5, -0.5])
        g = central_diff_grad(lambda t: float(t[0] ** 2 * t[1] + 3 * t[1]), theta)
        np.testing.assert_allclose(g, [2 * 1.5 * -0.5, 1.5**2 + 3], atol=1e-8)

    def test_does_not_mutate_theta(self):
        theta = np.array([1.0, 2.0])
        central_diff_grad(lambda t: float(t.sum()), theta)
        np.testing.assert_array_equal(theta, [1.0, 2.0])

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidInput):
            central_diff_grad(lambda t: 0.0, np.zeros((2, 2)))
        with pytest.raises(InvalidInput):
            central_diff_grad(lambda t: 0.0, np.zeros(2), eps=0.0)
