"""Shared numeric primitives against independent oracles."""

import subprocess
import sys

import numpy as np
import pytest

from omicsfuse import fusion
from omicsfuse.affinity import euclidean_distance_matrix
from omicsfuse.backend import project_rows
from omicsfuse.bgmm import fit_bayesian_gmm
from omicsfuse.cca import cca_fit
from omicsfuse.clustering import kmeans_pp
from omicsfuse.errors import NumericalFailure
from omicsfuse.numkernel import chi_square_sf, svd_thin, sym_eig

from oracles import chi2_cdf_quad, chi2_sf_quad, eig_by_charpoly, simplex_project_grid


# entry point -> its call on one bad matrix
FINITE_MATRIX_ENTRY_POINTS = {
    "euclidean_distance_matrix": euclidean_distance_matrix,
    "fit_bayesian_gmm": fit_bayesian_gmm,
    "cca_fit": lambda x: cca_fit(x, np.eye(12)),
    "kmeans_pp": lambda x: kmeans_pp(x, 2),
    "svd_thin": svd_thin,
    "fuse_affinities": lambda x: fusion.fuse_affinities([x], fusion.FusionConfig(2, 1.0)),
    "_fusion_step": lambda x: fusion._fusion_step([x], 2, "stage 1 (intra)", 2),
}


@pytest.mark.parametrize("fault", ["nan", "+inf", "-inf", "1-D"])
@pytest.mark.parametrize("entry", list(FINITE_MATRIX_ENTRY_POINTS))
def test_every_numeric_entry_point_rejects_a_non_finite_or_1d_matrix(entry, fault):
    x = np.eye(12)
    if fault == "1-D":
        x, expected = x[0], "expects a 2-D array, got shape (12,)"
    else:
        x[3, 5] = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}[fault]
        expected = "expects finite entries"
    with pytest.raises(ValueError) as err:
        FINITE_MATRIX_ENTRY_POINTS[entry](x)
    # the step is reached through three_stage_fuse, the name its error gives
    name = "stage 1 (intra): three_stage_fuse" if entry == "_fusion_step" else entry
    assert str(err.value) == f"{name} {expected}"


def test_a_distance_matrix_of_no_features_is_zero():
    # a CCA of rank 0 gives canonical_distance_matrix an (n, 0) array
    assert np.array_equal(euclidean_distance_matrix(np.zeros((4, 0))), np.zeros((4, 4)))


class TestSvdThin:
    def test_identity(self):
        _, s, _ = svd_thin(np.eye(4))
        assert np.allclose(s, np.ones(4))

    def test_reconstruction(self):
        rng = np.random.default_rng(11)
        for m, n in [(5, 3), (3, 5), (6, 6), (1, 4)]:
            a = rng.normal(size=(m, n))
            u, s, vt = svd_thin(a)
            rec = u @ np.diag(s) @ vt
            scale = np.linalg.norm(a)
            assert np.linalg.norm(rec - a) <= 1e-10 * scale
            assert s.shape == (min(m, n),)
            assert np.all(np.diff(s) <= 0)
            assert np.all(s >= 0)

    def test_values_match_gram_spectrum(self):
        # singular values = sqrt of eigenvalues of A^T A, eigenvalues from
        # the characteristic-polynomial bisection oracle
        rng = np.random.default_rng(12)
        a = rng.normal(size=(6, 4))
        _, s, _ = svd_thin(a)
        gram_eigs = eig_by_charpoly(a.T @ a)
        expected = np.sqrt(np.clip(gram_eigs[::-1], 0.0, None))
        assert np.allclose(s, expected, atol=1e-8)

    def test_rank_deficient(self):
        a = np.ones((4, 3))
        _, s, _ = svd_thin(a)
        assert s[0] == pytest.approx(np.sqrt(12.0))
        assert np.all(s[1:] < 1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            svd_thin(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            svd_thin(np.array([[np.nan, 1.0], [0.0, 1.0]]))


class TestSymEig:
    def test_diagonal(self):
        vals, vecs = sym_eig(np.diag([3.0, 1.0, 2.0]), 1)
        assert vals[0] == pytest.approx(1.0)
        assert abs(vecs[1, 0]) == pytest.approx(1.0)

    def test_full_spectrum_vs_charpoly(self):
        rng = np.random.default_rng(21)
        a = rng.normal(size=(6, 6))
        a = 0.5 * (a + a.T)
        vals, vecs = sym_eig(a.copy(), 6)
        oracle = eig_by_charpoly(a)
        assert np.allclose(np.sort(vals), oracle, atol=1e-8)
        resid = a @ vecs - vecs * vals[None, :]
        assert np.linalg.norm(resid) <= 1e-8 * max(1.0, np.linalg.norm(a))

    def test_c_out_of_range(self):
        with pytest.raises(ValueError):
            sym_eig(np.eye(3), 4)
        with pytest.raises(ValueError):
            sym_eig(np.eye(3), 0)

    @staticmethod
    def _check_against_full(a, c):
        """Compare with the full np.linalg.eigh on a symmetric ``a``; the
        projector F F' is compared only where a spectral gap makes it
        unique.  Returns whether it was."""
        n = a.shape[0]
        vals, vecs = sym_eig(a.copy(), c)
        full_vals, full_vecs = np.linalg.eigh(a)
        np.testing.assert_allclose(vals, full_vals[:c], rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(c), atol=1e-10)
        gapped = c == n or abs(full_vals[c] - full_vals[c - 1]) > 1e-3
        if gapped:
            ref = full_vecs[:, :c]
            np.testing.assert_allclose(vecs @ vecs.T, ref @ ref.T, rtol=0.0, atol=1e-8)
        return gapped

    def test_partial_matches_full_eigh(self):
        rng = np.random.default_rng(22)
        for n, c in [(8, 1), (12, 3), (40, 5), (90, 4), (6, 6)]:
            a = rng.normal(size=(n, n))
            self._check_against_full(0.5 * (a + a.T), c)

    def test_repeated_top_eigenvalue_of_block_stochastic(self):
        # three connected symmetric doubly-stochastic blocks: eigenvalue 1
        # of S (0 of I - S) has multiplicity 3, then a gap
        rng = np.random.default_rng(23)
        s = np.zeros((18, 18))
        start = 0
        for m in (5, 7, 6):
            perms = [np.eye(m)[rng.permutation(m)] for _ in range(4)]
            q = sum(w * p for w, p in zip(rng.dirichlet(np.ones(4)), perms))
            s[start:start + m, start:start + m] = 0.5 * (0.5 * (q + q.T) + 1.0 / m)
            start += m
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)
        a = np.eye(18) - s
        vals, _ = sym_eig(a.copy(), 3)
        np.testing.assert_allclose(vals, 0.0, atol=1e-10)
        assert not self._check_against_full(a, 2)
        assert self._check_against_full(a, 3)
        self._check_against_full(a, 4)

    def test_non_finite_input_is_numerical_failure(self):
        a = np.eye(3)
        a[0, 1] = np.inf
        with pytest.raises(NumericalFailure):
            sym_eig(a, 1)

    def test_scipy_linalg_not_imported_with_package(self):
        # sym_eig imports scipy.linalg on first use, keeping package import fast
        code = "import sys, omicsfuse; print('scipy.linalg' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_lapack_failure_is_numerical_failure(self, monkeypatch):
        import scipy.linalg

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(scipy.linalg, "eigh", fail)
        with pytest.raises(NumericalFailure, match="eigendecomposition failed"):
            sym_eig(np.eye(3), 1)


LAYERING_CODE = """
import importlib, importlib.util, pkgutil, sys, types
path = list(importlib.util.find_spec('omicsfuse').submodule_search_locations)

def fresh():
    for name in [m for m in sys.modules if m == 'omicsfuse' or m.startswith('omicsfuse.')]:
        del sys.modules[name]
    package = types.ModuleType('omicsfuse')  # its __init__, which imports them all, not run
    package.__path__ = path
    sys.modules['omicsfuse'] = package

for module in pkgutil.iter_modules(path):
    fresh()
    importlib.import_module('omicsfuse.' + module.name)
fresh()
importlib.import_module('omicsfuse.preprocess')
print('omicsfuse.bgmm' in sys.modules)
"""


def test_every_module_imports_first_and_preprocess_leaves_bgmm_unloaded():
    # a module imported before any other finds no import cycle, and
    # preprocessing stands below feature selection, which builds on it
    proc = subprocess.run([sys.executable, "-c", LAYERING_CODE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def project_vector(v):
    # a vector is projected as a one-row matrix
    return project_rows(np.asarray(v, dtype=np.float64)[None, :])[0]


class TestSimplexProjection:
    def test_interior_shift(self):
        # (0.5, 0.4): deficit 0.1 split evenly
        out = project_vector(np.array([0.5, 0.4]))
        assert np.allclose(out, [0.55, 0.45], atol=1e-12)

    def test_matches_grid_search(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            v = rng.normal(scale=2.0, size=2)
            out = project_vector(v)
            grid = simplex_project_grid(v, steps=4000)
            assert np.allclose(out, grid, atol=1e-3)

    def test_already_on_simplex(self):
        v = np.array([0.2, 0.3, 0.5])
        assert np.allclose(project_vector(v), v, atol=1e-14)

    def test_idempotent_and_feasible(self):
        rng = np.random.default_rng(32)
        for _ in range(500):
            v = rng.normal(scale=rng.uniform(0.1, 10.0), size=rng.integers(1, 12))
            out = project_vector(v)
            assert np.all(out >= 0.0)
            assert abs(out.sum() - 1.0) <= 1e-12
            again = project_vector(out)
            assert np.allclose(again, out, atol=1e-12)

    def test_rowwise_matches_vector(self):
        rng = np.random.default_rng(33)
        m = rng.normal(size=(40, 7))
        rows = project_rows(m)
        for i in range(m.shape[0]):
            assert np.allclose(rows[i], project_vector(m[i]), atol=1e-14)

    def test_one_hot_for_dominant_entry(self):
        out = project_vector(np.array([10.0, 0.0, 0.0]))
        assert np.allclose(out, [1.0, 0.0, 0.0])


class TestChiSquareSf:
    def test_reference_point(self):
        # classic 5% critical value for one degree of freedom
        assert chi_square_sf(3.841, 1) == pytest.approx(0.0500, abs=1e-3)

    def test_df2_closed_form(self):
        for x in [0.1, 1.0, 5.991, 20.0]:
            assert chi_square_sf(x, 2) == pytest.approx(np.exp(-x / 2.0), rel=1e-12)

    def test_against_quadrature(self):
        for df in range(1, 7):
            for x in [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0]:
                assert chi_square_sf(x, df) == pytest.approx(chi2_sf_quad(x, df), abs=1e-9)

    def test_sf_plus_cdf_is_one(self):
        for df in range(1, 7):
            for x in [0.1, 1.0, 5.0, 15.0, 30.0]:
                total = chi_square_sf(x, df) + chi2_cdf_quad(x, df)
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_boundaries(self):
        assert chi_square_sf(0.0, 3) == pytest.approx(1.0)
        assert chi_square_sf(1e6, 3) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            chi_square_sf(1.0, 0)
        with pytest.raises(ValueError):
            chi_square_sf(-1.0, 2)
        with pytest.raises(ValueError):
            chi_square_sf(np.nan, 2)


def test_numerical_failure_is_arithmetic_error():
    assert issubclass(NumericalFailure, ArithmeticError)


def test_svd_factors_fields():
    u, s, vt = svd_thin(np.array([[2.0]]))
    assert u.shape == (1, 1) and s.shape == (1,) and vt.shape == (1, 1)
    assert s[0] == pytest.approx(2.0)
