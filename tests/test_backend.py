"""Parity between the numpy kernels and their compiled counterparts."""

import os
import subprocess
import sys

import numpy as np
import pytest

from omicsfuse import backend

needs_numba = pytest.mark.skipif(
    not backend.HAVE_NUMBA, reason="numba disabled or unavailable"
)


def _pairs():
    # (name, numpy implementation, compiled implementation)
    return [
        ("project_rows", backend.project_rows_numpy, backend.project_rows_jit),
        ("pairwise", backend.pairwise_sq_dists_numpy, backend.pairwise_sq_dists_jit),
        ("masked", backend.masked_pairwise_dists_numpy,
         backend.masked_pairwise_dists_jit),
        ("lloyd", backend.lloyd_numpy, backend.lloyd_jit),
    ]


@needs_numba
def test_project_rows_parity():
    rng = np.random.default_rng(11)
    for _ in range(25):
        v = rng.normal(scale=3.0, size=(rng.integers(1, 30), rng.integers(1, 40)))
        a = backend.project_rows_numpy(v)
        b = backend.project_rows_jit(np.ascontiguousarray(v))
        np.testing.assert_allclose(a, b, atol=1e-12)
        np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-10)
        assert (a >= 0).all()


@needs_numba
def test_pairwise_sq_dists_parity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.normal(size=(rng.integers(2, 40), rng.integers(1, 25)))
        a = backend.pairwise_sq_dists_numpy(x)
        b = backend.pairwise_sq_dists_jit(np.ascontiguousarray(x))
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-10)
        assert (np.diag(b) == 0).all()


@needs_numba
def test_masked_pairwise_parity():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n, p = rng.integers(2, 25), rng.integers(1, 20)
        x = rng.normal(size=(n, p))
        observed = rng.random((n, p)) > 0.3
        a = backend.masked_pairwise_dists_numpy(x, observed)
        b = backend.masked_pairwise_dists_jit(
            np.ascontiguousarray(x), np.ascontiguousarray(observed)
        )
        assert np.array_equal(np.isinf(a), np.isinf(b))
        finite = np.isfinite(a)
        np.testing.assert_allclose(a[finite], b[finite], rtol=1e-10, atol=1e-12)


@needs_numba
def test_masked_pairwise_no_overlap_is_inf():
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    observed = np.array([[True, False], [False, True]])
    for impl in (backend.masked_pairwise_dists_numpy, backend.masked_pairwise_dists):
        d = impl(x, observed)
        assert d[0, 1] == np.inf and d[0, 0] == 0.0


@needs_numba
def test_lloyd_parity():
    rng = np.random.default_rng(29)
    for _ in range(15):
        n, p, k = int(rng.integers(5, 50)), int(rng.integers(1, 8)), int(rng.integers(1, 5))
        x = rng.normal(size=(n, p))
        centroids = x[rng.choice(n, size=k, replace=False)]
        la, ca, wa = backend.lloyd_numpy(x, centroids, 100, 1e-10)
        lb, cb, wb = backend.lloyd_jit(
            np.ascontiguousarray(x), np.ascontiguousarray(centroids), 100, 1e-10
        )
        assert np.array_equal(la, lb)
        np.testing.assert_allclose(ca, cb, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(wa, wb, rtol=1e-9)


def test_lloyd_numpy_matches_python_reference():
    # same cases as test_lloyd_parity, against the plain-Python loop kernel
    rng = np.random.default_rng(29)
    for _ in range(15):
        n, p, k = int(rng.integers(5, 50)), int(rng.integers(1, 8)), int(rng.integers(1, 5))
        x = rng.normal(size=(n, p))
        centroids = x[rng.choice(n, size=k, replace=False)]
        la, ca, wa = backend.lloyd_numpy(x, centroids, 100, 1e-10)
        lb, cb, wb = backend._lloyd_python(x, centroids, 100, 1e-10)
        assert np.array_equal(la, lb)
        np.testing.assert_allclose(ca, cb, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(wa, wb, rtol=1e-9)


def test_lloyd_repairs_empty_clusters():
    # duplicate starting centroids force an initially empty cluster
    rng = np.random.default_rng(3)
    x = rng.normal(size=(12, 2))
    centroids = np.vstack([x[0], x[0], x[5]])
    for impl in (backend.lloyd_numpy, backend.lloyd):
        labels, cent, wcss = impl(x, centroids, 50, 1e-10)
        assert sorted(np.unique(labels).tolist()) == [0, 1, 2]
        assert wcss >= 0.0


def test_dispatch_matches_flag():
    disabled = os.environ.get("OMICSFUSE_DISABLE_NUMBA", "").strip().lower() in {
        "1", "true", "yes", "on"}
    if disabled:
        assert backend.backend_name() == "numpy"
        assert backend.project_rows is backend.project_rows_numpy
    else:
        assert backend.backend_name() == "numba"


def test_disable_flag_selects_numpy_backend():
    code = (
        "from omicsfuse import backend\n"
        "assert backend.backend_name() == 'numpy'\n"
        "assert backend.project_rows is backend.project_rows_numpy\n"
        "assert backend.lloyd is backend.lloyd_numpy\n"
        "import numpy as np\n"
        "v = np.array([[0.3, 2.0, -1.0]])\n"
        "out = backend.project_rows(v)\n"
        "assert abs(out.sum() - 1.0) < 1e-12\n"
        "print('numpy backend ok')\n"
    )
    env = dict(os.environ, OMICSFUSE_DISABLE_NUMBA="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "numpy backend ok" in proc.stdout


def test_public_names_agree_with_reference():
    # the dispatched functions must match the numpy reference regardless
    # of which backend is active
    rng = np.random.default_rng(41)
    x = rng.normal(size=(18, 6))
    np.testing.assert_allclose(
        backend.pairwise_sq_dists(x), backend.pairwise_sq_dists_numpy(x),
        rtol=1e-10, atol=1e-10)
    v = rng.normal(size=(9, 14))
    np.testing.assert_allclose(
        backend.project_rows(v), backend.project_rows_numpy(v), atol=1e-12)
