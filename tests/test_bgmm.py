"""Variational mixture fitting and cumulative-relevance feature selection."""

import numpy as np
import pytest

from omicsfuse.bgmm import fit_bayesian_gmm, select_features_bgmm
from omicsfuse.preprocess import OmicsMatrix


def make_omics(values):
    values = np.asarray(values, dtype=np.float64)
    n, p = values.shape
    return OmicsMatrix(
        values=values,
        sample_ids=[f"s{i}" for i in range(n)],
        feature_ids=[f"f{j}" for j in range(p)],
        kind="other",
    )


def two_blob_data(n=200, gap=10.0, seed=3):
    rng = np.random.default_rng(seed)
    half = n // 2
    a = rng.normal(size=(half, 3))
    b = rng.normal(size=(n - half, 3)) + gap
    return np.vstack([a, b])


class TestFitBayesianGmm:
    def test_single_blob_collapses_to_one_component(self):
        rng = np.random.default_rng(2)
        model = fit_bayesian_gmm(rng.normal(size=(200, 3)), max_components=10, seed=0)
        assert model.effective_components == 1

    def test_two_blobs_found(self):
        x = two_blob_data()
        model = fit_bayesian_gmm(x, max_components=10, seed=0)
        assert model.effective_components == 2
        # the two kept components sit on the blobs (means 0 and 10), half
        # of the weight each
        kept = np.flatnonzero(model.weights >= 1e-3)
        centers = sorted(model.means[kept].mean(axis=1))
        np.testing.assert_allclose(centers, [0.0, 10.0], atol=0.3)
        np.testing.assert_allclose(model.weights[kept], 0.5, atol=0.02)

    def test_weights_on_simplex(self):
        x = two_blob_data(seed=4)
        model = fit_bayesian_gmm(x, max_components=6, seed=1)
        assert np.all(model.weights >= 0.0)
        assert abs(model.weights.sum() - 1.0) <= 1e-10

    def test_elbo_nondecreasing(self):
        for seed in range(3):
            x = two_blob_data(seed=seed + 10)
            model = fit_bayesian_gmm(x, max_components=8, seed=seed)
            diffs = np.diff(model.elbo_trace)
            assert np.all(diffs >= -1e-8)

    def test_variance_floor(self):
        # nearly collapsed dimension still reports a floored variance
        rng = np.random.default_rng(6)
        x = np.column_stack([rng.normal(size=50), np.full(50, 2.0) + rng.normal(size=50) * 1e-9])
        model = fit_bayesian_gmm(x, max_components=3, seed=0)
        assert np.all(model.diag_variances >= 1e-6)

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            fit_bayesian_gmm(np.zeros((5, 2)), max_components=10)

    def test_deterministic_given_seed(self):
        x = two_blob_data(seed=8)
        m1 = fit_bayesian_gmm(x, max_components=5, seed=11)
        m2 = fit_bayesian_gmm(x, max_components=5, seed=11)
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.means, m2.means)


class TestSelectFeaturesBgmm:
    def planted(self, seed=9, n=200):
        # features 0 and 1 carry the two-blob signal, the rest are noise
        rng = np.random.default_rng(seed)
        labels = np.repeat([0, 1], n // 2)
        informative = np.column_stack(
            [labels * 8.0 + rng.normal(size=n), labels * -8.0 + rng.normal(size=n)]
        )
        noise = rng.normal(size=(n, 8))
        return make_omics(np.column_stack([informative, noise]))

    @staticmethod
    def select(m, target, max_components=10):
        model = fit_bayesian_gmm(m, max_components=max_components, seed=0)
        return select_features_bgmm(m, model, target)

    def test_informative_features_selected_first(self):
        m = self.planted()
        out, idx = self.select(m, 0.95)
        assert {0, 1}.issubset(set(idx.tolist()))
        assert len(idx) < 10
        # original order preserved
        assert list(idx) == sorted(idx)
        assert out.feature_ids == [m.feature_ids[i] for i in idx]

    def test_target_one_keeps_everything(self):
        m = self.planted(seed=12)
        out, idx = self.select(m, 1.0)
        assert len(idx) == m.n_features

    def test_single_component_degrades_to_variance_ranking(self):
        rng = np.random.default_rng(13)
        vals = np.column_stack(
            [rng.normal(scale=5.0, size=120), rng.normal(scale=1.0, size=120)]
        )
        m = make_omics(vals)
        out, idx = self.select(m, 0.9, max_components=1)
        assert 0 in idx  # the high-variance feature must survive

    def test_bad_target(self):
        with pytest.raises(ValueError):
            self.select(self.planted(), 0.0)
