"""Sparse filtering, KNN imputation, standardization, power transforms."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from omicsfuse import backend, preprocess
from omicsfuse.errors import DegenerateInputError, DomainError
from omicsfuse.preprocess import (
    TRANSFORM_METHODS,
    OmicsMatrix,
    PowerTransformParams,
    apply_power_transform,
    default_neighbor_count,
    filter_sparse_features,
    fit_power_transform,
    knn_impute,
    zscore_standardize,
    _golden_lockstep,
    _terms,
    _transform,
    _transform_columns,
    _unimodal,
)

from oracles import (
    golden_max,
    is_unimodal,
    knn_impute_cells,
    power_apply_columns,
    power_fit_columns,
    power_log_jacobian,
    power_transform_gathered,
)


def make_omics(values, kind="other"):
    values = np.asarray(values, dtype=np.float64)
    n, p = values.shape
    return OmicsMatrix(
        values=values,
        sample_ids=[f"s{i}" for i in range(n)],
        feature_ids=[f"f{j}" for j in range(p)],
        kind=kind,
    )


class TestOmicsMatrix:
    def test_nan_cells_become_missing(self):
        m = make_omics([[1.0, np.nan], [2.0, 3.0]])
        assert m.missing_mask[0, 1] and not m.missing_mask[0, 0]

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            OmicsMatrix(np.zeros((2, 1)), ["a", "a"], ["f"], "other")

    def test_rejects_inf_observed(self):
        with pytest.raises(ValueError):
            make_omics([[np.inf, 1.0]])

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            make_omics([[1.0]], kind="proteome")


class TestFilterSparseFeatures:
    def test_thirty_percent_zeros_removed(self):
        vals = np.ones((10, 2))
        vals[:3, 0] = 0.0  # 3/10 = 0.3 > 0.2
        out, removed = filter_sparse_features(make_omics(vals))
        assert list(removed) == [0]
        assert out.feature_ids == ["f1"]

    def test_exact_threshold_retained(self):
        vals = np.ones((10, 1))
        vals[:2, 0] = 0.0  # exactly 0.2
        out, removed = filter_sparse_features(make_omics(vals))
        assert out.n_features == 1 and removed.size == 0

    def test_missing_counts_toward_fraction(self):
        vals = np.ones((10, 2))
        vals[0, 0] = 0.0
        vals[1:3, 0] = np.nan  # 1 zero + 2 missing = 0.3
        out, removed = filter_sparse_features(make_omics(vals))
        assert list(removed) == [0]
        assert out.feature_ids == ["f1"]

    def test_order_preserved(self):
        vals = np.ones((5, 4))
        vals[:3, 1] = 0.0
        out, _ = filter_sparse_features(make_omics(vals))
        assert out.feature_ids == ["f0", "f2", "f3"]

    def test_all_removed_raises(self):
        vals = np.zeros((4, 2))
        with pytest.raises(DegenerateInputError):
            filter_sparse_features(make_omics(vals))

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            filter_sparse_features(make_omics([[1.0]]), threshold=1.5)


class TestKnnImpute:
    def test_default_neighbor_count(self):
        assert default_neighbor_count(323) == 18
        assert default_neighbor_count(9) == 3
        assert default_neighbor_count(150) == 12

    def test_hand_case(self):
        # s0 misses f2; masked distances (p=3, 2 shared features, scale 3/2):
        #   d(s0,s1) = sqrt(0.01 * 1.5) ~ 0.122
        #   d(s0,s2) = sqrt(0.0025 * 1.5) ~ 0.061
        #   d(s0,s3) = sqrt(50 * 1.5)    ~ 8.66
        # k=2 donors observing f2: s2 then s1 -> mean(20, 10) = 15
        vals = np.array(
            [
                [0.0, 0.0, np.nan],
                [0.0, 0.1, 10.0],
                [0.05, 0.0, 20.0],
                [5.0, 5.0, 30.0],
            ]
        )
        out, n_filled = knn_impute(make_omics(vals), k=2)
        assert n_filled == 1
        assert out.values[0, 2] == pytest.approx(15.0, abs=1e-12)

    def test_observed_cells_untouched(self):
        rng = np.random.default_rng(5)
        vals = rng.normal(size=(12, 6))
        mask = rng.random((12, 6)) < 0.2
        mask[:, 0] = False  # keep one column intact so samples observe something
        vals_nan = vals.copy()
        vals_nan[mask] = np.nan
        out, _ = knn_impute(make_omics(vals_nan), k=3)
        assert np.array_equal(out.values[~mask], vals[~mask])
        assert not out.missing_mask.any()
        assert np.all(np.isfinite(out.values))

    def test_constant_donors_give_constant(self):
        vals = np.array([[1.0, np.nan], [1.1, 7.0], [0.9, 7.0], [1.05, 7.0]])
        out, _ = knn_impute(make_omics(vals), k=2)
        assert out.values[0, 1] == pytest.approx(7.0)

    def test_unobserved_feature_raises(self):
        vals = np.array([[1.0, np.nan], [2.0, np.nan], [3.0, np.nan]])
        with pytest.raises(DegenerateInputError):
            knn_impute(make_omics(vals), k=2)

    def test_sample_with_nothing_observed_raises(self):
        vals = np.array([[np.nan, np.nan], [1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(DegenerateInputError):
            knn_impute(make_omics(vals), k=2)

    def test_k_bounds(self):
        vals = np.ones((4, 2))
        with pytest.raises(ValueError):
            knn_impute(make_omics(vals), k=1)
        with pytest.raises(ValueError):
            knn_impute(make_omics(vals), k=4)


class TestZscore:
    def test_hand_case(self):
        out, dropped = zscore_standardize(make_omics([[1.0], [2.0], [3.0]]))
        assert np.allclose(out.values[:, 0], [-1.0, 0.0, 1.0])
        assert dropped == []

    def test_sample_stddev_divisor(self):
        rng = np.random.default_rng(7)
        out, _ = zscore_standardize(make_omics(rng.normal(size=(30, 4))))
        assert np.allclose(out.values.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(out.values.std(axis=0, ddof=1), 1.0, atol=1e-12)

    def test_constant_features_dropped_and_reported(self):
        vals = np.column_stack([np.full(5, 3.0), np.arange(5.0)])
        out, dropped = zscore_standardize(make_omics(vals))
        assert dropped == ["f0"]
        assert out.feature_ids == ["f1"]

    def test_all_constant_raises(self):
        with pytest.raises(DegenerateInputError):
            zscore_standardize(make_omics(np.ones((4, 2))))

    def test_missing_rejected(self):
        with pytest.raises(ValueError):
            zscore_standardize(make_omics([[1.0, np.nan], [2.0, 1.0]]))


class TestPowerTransformCases:
    def test_neg_one_at_lambda_two(self):
        assert _transform_columns(np.array([-1.0]), 2.0, "yeo_johnson")[0] == pytest.approx(
            -np.log(2.0), abs=1e-12
        )

    def test_nonneg_branch(self):
        # ((x+1)^lam - 1) / lam
        assert _transform_columns(np.array([3.0]), 0.5, "yeo_johnson")[0] == pytest.approx(2.0)
        e_minus_one = _transform_columns(np.array([np.e - 1.0]), 0.0, "yeo_johnson")
        assert e_minus_one[0] == pytest.approx(1.0)

    def test_negative_branch(self):
        # -(((-x+1)^(2-lam)) - 1) / (2-lam)
        assert _transform_columns(np.array([-3.0]), 0.0, "yeo_johnson")[0] == pytest.approx(-7.5)

    def test_continuity_at_zero(self):
        for lam in (-2.0, 0.0, 1.0, 2.0, 3.5):
            left = _transform_columns(np.array([-1e-12]), lam, "yeo_johnson")[0]
            right = _transform_columns(np.array([1e-12]), lam, "yeo_johnson")[0]
            assert left == pytest.approx(right, abs=1e-10)

    def test_box_cox_cases(self):
        assert _transform_columns(np.array([3.0]), 2.0, "box_cox")[0] == pytest.approx(4.0)
        assert _transform_columns(np.array([np.e]), 0.0, "box_cox")[0] == pytest.approx(1.0)

    def test_identity_lambda_one(self):
        x = np.linspace(-4.0, 4.0, 9)
        assert np.allclose(_transform_columns(x, 1.0, "yeo_johnson"), x)


class TestPowerTransformFit:
    def test_yeo_johnson_recovers_identity_on_normal(self):
        rng = np.random.default_rng(42)
        m = make_omics(rng.normal(size=(1500, 1)))
        params = fit_power_transform(m, "yeo_johnson")
        assert abs(params.lambdas[0] - 1.0) <= 0.15

    def test_box_cox_recovers_log_on_lognormal(self):
        rng = np.random.default_rng(43)
        m = make_omics(np.exp(rng.normal(size=(1500, 1))))
        params = fit_power_transform(m, "box_cox")
        assert abs(params.lambdas[0]) <= 0.15

    def test_lambda_in_range(self):
        rng = np.random.default_rng(44)
        vals = np.column_stack(
            [rng.exponential(size=200), -rng.exponential(size=200), rng.normal(size=200)]
        )
        params = fit_power_transform(make_omics(vals), "yeo_johnson")
        assert np.all(params.lambdas >= -5.0) and np.all(params.lambdas <= 5.0)

    def test_box_cox_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            fit_power_transform(make_omics([[1.0], [0.0], [2.0]]), "box_cox")

    def test_strict_monotonicity_pairs(self):
        # acceptance-grade property: 1e4 ordered pairs stay ordered
        rng = np.random.default_rng(45)
        lams = rng.uniform(-5.0, 5.0, size=10_000)
        x1 = rng.normal(scale=3.0, size=10_000)
        x2 = x1 + rng.exponential(scale=2.0, size=10_000) + 1e-9
        for lam in np.unique(np.round(lams, 1)):
            sel = np.abs(np.round(lams, 1) - lam) < 1e-9
            t1 = _transform_columns(x1[sel], float(lam), "yeo_johnson")
            t2 = _transform_columns(x2[sel], float(lam), "yeo_johnson")
            assert np.all(t2 > t1)

    def test_apply_checks_feature_match(self):
        m = make_omics(np.random.default_rng(1).normal(size=(10, 2)))
        params = PowerTransformParams("yeo_johnson", np.array([1.0]))
        with pytest.raises(ValueError):
            apply_power_transform(m, params)

    def test_apply_monotone_per_feature(self):
        rng = np.random.default_rng(46)
        m = make_omics(rng.normal(size=(50, 3)))
        params = fit_power_transform(m, "yeo_johnson")
        out = apply_power_transform(m, params)
        for j in range(3):
            order = np.argsort(m.values[:, j])
            assert np.all(np.diff(out.values[order, j]) > 0)


def assert_matches_columns(values, method="yeo_johnson"):
    """The batched fit and transform equal the per-column reference bit for
    bit; returns the fitted params."""
    m = make_omics(values)
    params = fit_power_transform(m, method)
    lambdas, fallbacks = power_fit_columns(m.values, method)
    assert np.array_equal(params.lambdas, lambdas)
    assert params.grid_fallbacks == fallbacks
    out = apply_power_transform(m, params).values
    assert np.array_equal(out, power_apply_columns(m.values, lambdas, method))
    return params


class TestBatchedFitMatchesColumns:
    def test_mixed_sign_positive_negative_and_zero_columns(self):
        rng = np.random.default_rng(47)
        vals = np.column_stack([
            rng.normal(scale=2.0, size=60),
            rng.exponential(size=60) + 0.1,
            -rng.exponential(scale=3.0, size=60) - 0.1,
            rng.gamma(2.0, size=60) - 1.0,
        ])
        vals[7, 3] = 0.0
        params = assert_matches_columns(vals)
        assert params.grid_fallbacks == 0

    def test_box_cox_on_positive_data(self):
        rng = np.random.default_rng(48)
        vals = np.exp(rng.normal(size=(80, 3)) * [0.3, 1.0, 2.0])
        assert_matches_columns(vals, "box_cox")

    def test_box_cox_names_the_first_nonpositive_feature(self):
        vals = np.ones((5, 4))
        vals[2, 1] = -0.5
        vals[0, 3] = 0.0
        with pytest.raises(DomainError, match="feature 'f1' has minimum -0.5"):
            fit_power_transform(make_omics(vals), "box_cox")
        params = PowerTransformParams("box_cox", np.ones(4), [f"f{j}" for j in range(4)])
        with pytest.raises(DomainError, match="feature 'f1' has minimum -0.5"):
            apply_power_transform(make_omics(vals), params)

    def test_non_unimodal_probe_falls_back_to_the_grid(self):
        # a constant column's transformed variance is rounding noise, so its
        # probe rises and falls more than once
        rng = np.random.default_rng(49)
        vals = np.column_stack([rng.normal(size=7), np.full(7, 0.1), rng.normal(size=7),
                                np.full(7, 0.3)])
        params = assert_matches_columns(vals)
        assert params.grid_fallbacks == 2

    def test_apply_takes_numpy_scalar_power_shortcuts_per_feature(self):
        # grid exponents at which numpy's scalar power computes x*x, sqrt(x)
        # or 1/x instead of pow, for either Yeo-Johnson branch
        rng = np.random.default_rng(50)
        lambdas = np.array([-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 0.7])
        vals = rng.normal(scale=2.0, size=(40, lambdas.size))
        m = make_omics(vals)
        out = apply_power_transform(m, PowerTransformParams("yeo_johnson", lambdas))
        assert np.array_equal(out.values, power_apply_columns(vals, lambdas, "yeo_johnson"))
        pos = np.abs(vals) + 0.5
        assert np.array_equal(_transform_columns(pos, lambdas, "box_cox"),
                              power_apply_columns(pos, lambdas, "box_cox"))

    def test_golden_lockstep_stops_each_function_on_its_own_bracket(self):
        # every bracket shrinks by the same factor, but rounding differs by
        # path: this tol lies between two bracket widths after 11 steps, so
        # the searches stop one step apart
        peaks = np.array([-4.1, -1.3, 0.3, 2.2, 3.7])
        tol = 0.050249987406415
        expected, evaluations = [], []
        for p in peaks:
            calls = []

            def fun(lam, p=p, calls=calls):
                calls.append(lam)
                return -(lam - p) * (lam - p)

            expected.append(golden_max(fun, -5.0, 5.0, tol))
            evaluations.append(len(calls))
        assert len(set(evaluations)) > 1
        got = _golden_lockstep(lambda lam: -(lam - peaks) * (lam - peaks), -5.0, 5.0,
                               peaks.size, tol)
        assert np.array_equal(got, expected)

    @settings(max_examples=100, deadline=None, database=None)
    @given(arrays(np.int8, (21, 6), elements=st.integers(-2, 2)),
           st.sampled_from([1e-14, 1e-12, 1e-9, 1.0]))
    def test_unimodal_matches_the_column_check(self, steps, scale):
        # random walks, some within the 1e-12 relative tolerance of flat
        probe = 1000.0 * (1.0 + scale * np.cumsum(steps, axis=0))
        probe[0, 0] = probe[-1, 1] = -np.inf
        expected = [is_unimodal(probe[:, j]) for j in range(probe.shape[1])]
        assert _unimodal(probe).tolist() == expected

    @settings(max_examples=60, deadline=None, database=None)
    @given(arrays(np.float64, st.tuples(st.integers(3, 12), st.integers(1, 4)),
                  elements=st.floats(-20.0, 20.0, width=32)))
    def test_random_small_matrices(self, vals):
        assert_matches_columns(vals)


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _power_rows(method):
    """(features, samples) rows with signed zeros, rows of one sign and
    mixed rows; strictly positive for Box-Cox."""
    rng = np.random.default_rng(51)
    rows = np.array([
        [0.0, -0.0, 0.0, -0.0, 0.0, -0.0],
        [0.0, 1.5, -0.0, -2.0, 0.3, -0.7],
        -rng.exponential(size=6) - 0.1,
        rng.exponential(size=6) + 0.1,
        [-3.0, -0.0, -1e-300, -5.0, -0.5, -1.0],
        [4.0, 0.0, 1e-300, 2.5, 0.5, 1.0],
        rng.normal(scale=3.0, size=6),
    ])
    return np.abs(rows) + [[1e-300], [0.5], [1.0], [0.1], [2.0], [1e-3], [0.25]] \
        if method == "box_cox" else rows


def _exponents(p):
    """Every exponent of the probe and fallback grids; per-feature vectors
    holding each shortcut exponent e (and 0) next to 2 - e, so that both
    Yeo-Johnson branches meet it; exponents within 1e-16 of 0."""
    per_feature = [np.resize([e, 2.0 - e, 0.3], p) for e in (2.0, 0.5, -1.0, 0.0)]
    return [*np.linspace(-5.0, 5.0, 21), *np.linspace(-5.0, 5.0, 101), *per_feature,
            1e-17, -1e-17, np.resize([1e-17, -1e-17, 2.0, -0.0], p),
            np.random.default_rng(52).uniform(-5.0, 5.0, p)]


class TestPerEntryTerms:
    """The transform of per-entry terms against the gathered-branch
    transform it replaced, and the per-column reference, bit for bit."""

    @pytest.mark.parametrize("method", TRANSFORM_METHODS)
    def test_matches_the_gathered_transform(self, method):
        rows = _power_rows(method)
        terms = _terms(rows, method)
        with np.errstate(over="ignore"):  # 1e-300 ** -5
            for lam in _exponents(rows.shape[0]):
                assert_same_bits(_transform(terms, lam),
                                 power_transform_gathered(rows, lam, method))

    @pytest.mark.parametrize("method", TRANSFORM_METHODS)
    def test_fit_jacobian_matches_the_sign_log1p_expression(self, method, monkeypatch):
        rows = _power_rows(method)
        jacobians = []
        loglik = preprocess._loglik

        def spy(terms, jac, lam):
            jacobians.append(jac)
            return loglik(terms, jac, lam)

        monkeypatch.setattr(preprocess, "_loglik", spy)
        fit_power_transform(make_omics(rows.T), method)
        assert_same_bits(jacobians[0], power_log_jacobian(rows, method))

    @settings(max_examples=60, deadline=None, database=None)
    @given(arrays(np.float64, st.tuples(st.integers(3, 10), st.integers(1, 5)),
                  elements=st.sampled_from([0.0, -0.0]) | st.floats(-20.0, 20.0, width=32)),
           st.lists(st.booleans(), min_size=5, max_size=5),
           st.sampled_from(TRANSFORM_METHODS))
    def test_fit_and_apply_match_the_columns(self, vals, constant, method):
        # a constant column's probe is rounding noise: it takes the grid
        vals = vals.copy()
        for j in np.flatnonzero(constant[:vals.shape[1]]):
            vals[:, j] = vals[0, j]
        assert_matches_columns(np.abs(vals) + 0.25 if method == "box_cox" else vals, method)

    @pytest.mark.parametrize("method, bound", [("yeo_johnson", 7.7), ("box_cox", 6.0)])
    def test_fit_working_set_is_bounded(self, method, bound):
        """The fit's tracemalloc peak in copies of its 150 x 1800 input:
        8.20 (Yeo-Johnson) and 9.11 (Box-Cox) with the gathered branches,
        7.24 and 5.23 with per-entry terms."""
        vals = np.random.default_rng(53).normal(size=(150, 1800))
        m = make_omics(np.exp(vals) if method == "box_cox" else vals)
        tracemalloc.start()
        try:
            fit_power_transform(m, method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / vals.nbytes < bound


def test_knn_impute_matches_per_cell_reference():
    rng = np.random.default_rng(51)
    vals = rng.normal(size=(30, 12))
    mask = rng.random(vals.shape) < 0.15
    mask[:, 0] = False
    # samples 10-18 agree on what they observe except feature 11, so for
    # sample 10, missing it, eight donors tie at distance 0 for five places
    vals[11:19, :11] = vals[10, :11]
    mask[10:19] = False
    mask[10, 11] = True
    mask[2:28, 7] = True  # 4 observers, fewer than k
    vals[mask] = np.nan
    m = make_omics(vals)
    out, n_filled = knn_impute(m, k=5)
    observed = ~m.missing_mask
    dists = backend.masked_pairwise_dists(np.where(observed, m.values, 0.0), observed)
    assert n_filled == int(mask.sum())
    assert np.array_equal(out.values, knn_impute_cells(m.values, m.missing_mask, dists, 5))
