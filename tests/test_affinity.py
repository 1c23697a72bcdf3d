"""Distance matrices, local scales, and the locally scaled kernel."""

import numpy as np
import pytest

from omicsfuse import affinity
from omicsfuse.affinity import (
    affinity_from_distance,
    euclidean_distance_matrix,
    local_scales,
)


def brute_distances(x):
    n = x.shape[0]
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            d[i, j] = np.sqrt(((x[i] - x[j]) ** 2).sum())
    return d


class TestEuclideanDistanceMatrix:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(17, 5))
        d = euclidean_distance_matrix(x)
        assert np.allclose(d, brute_distances(x), atol=1e-10)

    def test_structure(self):
        rng = np.random.default_rng(2)
        d = euclidean_distance_matrix(rng.normal(size=(10, 3)))
        assert np.allclose(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        assert np.all(d >= 0.0)

    def test_unit_square(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        d = euclidean_distance_matrix(x)
        assert d[0, 1] == pytest.approx(1.0)
        assert d[0, 3] == pytest.approx(np.sqrt(2.0))


class TestLocalScales:
    def test_self_excluded(self):
        # three collinear points spaced 1 apart; k1=1 scale is the gap
        x = np.array([[0.0], [1.0], [2.0]])
        d = euclidean_distance_matrix(x)
        sigma = local_scales(d, k1=1)
        assert np.allclose(sigma, [1.0, 1.0, 1.0])

    def test_mean_of_k_nearest(self):
        x = np.array([[0.0], [1.0], [3.0]])
        d = euclidean_distance_matrix(x)
        sigma = local_scales(d, k1=2)
        # sample 0: neighbors at 1 and 3 -> 2.0; sample 1: 1 and 2 -> 1.5
        assert np.allclose(sigma, [2.0, 1.5, 2.5])

    def test_k1_bounds(self):
        d = euclidean_distance_matrix(np.array([[0.0], [1.0], [2.0]]))
        with pytest.raises(ValueError):
            local_scales(d, k1=0)
        with pytest.raises(ValueError):
            local_scales(d, k1=3)

    @pytest.mark.parametrize("bad", [
        np.array([[0.0, 1.0], [2.0, 0.0]]),  # asymmetric
        np.array([[0.0, -1.0], [-1.0, 0.0]]),  # negative
        np.array([[1.0, 1.0], [1.0, 1.0]]),  # nonzero diagonal
        np.array([[0.0, np.nan], [np.nan, 0.0]]),  # not finite
        np.zeros((2, 3)),  # not square
    ])
    def test_rejects_invalid_distance_matrix(self, bad):
        with pytest.raises(ValueError):
            local_scales(bad, k1=1)

    def test_default_is_sqrt_n(self):
        rng = np.random.default_rng(3)
        d = euclidean_distance_matrix(rng.normal(size=(100, 2)))
        assert np.allclose(local_scales(d), local_scales(d, k1=10))


class TestAffinityFromDistance:
    def test_unit_case(self):
        # d=1 with unit local scales: exp(-1 / (0.5 + 0.5)) = e^-1
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        a = affinity_from_distance(d, k1=1)
        assert a[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-12)
        assert a[0, 0] == 1.0 and a[1, 1] == 1.0

    def test_range_and_symmetry(self):
        rng = np.random.default_rng(4)
        d = euclidean_distance_matrix(rng.normal(size=(40, 6)))
        a = affinity_from_distance(d, k1=6)
        assert np.all(a > 0.0) and np.all(a <= 1.0)
        assert np.allclose(a, a.T)
        assert np.all(np.diag(a) == 1.0)

    def test_monotone_decreasing_in_distance(self):
        # fixed scales: grow one pairwise distance, affinity must not rise
        base = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
        sigma = local_scales(base, k1=2)
        dists = np.linspace(0.1, 6.0, 50)
        vals = np.exp(-(dists**2) / (0.5 * sigma[0] * sigma[1] + 0.5 * dists))
        assert np.all(np.diff(vals) < 0.0)

    def test_duplicate_samples_get_affinity_one(self):
        x = np.array([[1.0, 1.0], [1.0, 1.0], [5.0, 5.0]])
        d = euclidean_distance_matrix(x)
        a = affinity_from_distance(d, k1=1)
        assert a[0, 1] == 1.0

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(15, 4))
        d = euclidean_distance_matrix(x)
        a = affinity_from_distance(d, k1=3)
        perm = rng.permutation(15)
        a_p = affinity_from_distance(d[np.ix_(perm, perm)], k1=3)
        assert np.allclose(a_p, a[np.ix_(perm, perm)], atol=1e-12)

    def test_blob_structure(self):
        # affinities within a tight blob dominate cross-blob affinities
        rng = np.random.default_rng(6)
        x = np.vstack([rng.normal(size=(10, 3)), rng.normal(size=(10, 3)) + 12.0])
        a = affinity_from_distance(euclidean_distance_matrix(x), k1=3)
        within = a[:10, :10][np.triu_indices(10, 1)].mean()
        across = a[:10, 10:].mean()
        assert within > 10 * across

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            affinity_from_distance(np.array([[0.0, 1.0], [2.0, 0.0]]), k1=1)

    def test_checks_the_distance_matrix_once(self, monkeypatch):
        calls = []
        check = affinity.check_distance_matrix

        def counting_check(d):
            calls.append(d.shape)
            return check(d)

        monkeypatch.setattr(affinity, "check_distance_matrix", counting_check)
        d = euclidean_distance_matrix(np.random.default_rng(5).normal(size=(12, 3)))
        a = affinity_from_distance(d, k1=3)
        assert calls == [(12, 12)]
        monkeypatch.undo()
        sigma = local_scales(d, k1=3)
        expected = np.exp(-(d**2) / (0.5 * np.outer(sigma, sigma) + 0.5 * d))
        np.fill_diagonal(expected, 1.0)
        np.testing.assert_allclose(a, expected, rtol=1e-14, atol=0)
