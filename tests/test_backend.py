"""The numpy kernels against the loop references in tests/oracles.py."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from omicsfuse import backend
from oracles import (
    lloyd_loops,
    masked_pairwise_dists_loops,
    pairwise_sq_dists_loops,
    project_rows_loops,
)


def test_project_rows_parity():
    rng = np.random.default_rng(11)
    for _ in range(25):
        v = rng.normal(scale=3.0, size=(rng.integers(1, 30), rng.integers(1, 40)))
        a = backend.project_rows(v)
        b = project_rows_loops(v)
        np.testing.assert_allclose(a, b, atol=1e-12)
        np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-10)
        assert (a >= 0).all()


@settings(max_examples=100, deadline=None, database=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 12)),
              elements=st.floats(-50.0, 50.0)))
def test_project_rows_lands_on_the_simplex_and_stays(v):
    _assert_projects_onto_the_simplex_and_stays(v)


def _assert_projects_onto_the_simplex_and_stays(v):
    once = backend.project_rows(v)
    assert (once >= 0.0).all()
    np.testing.assert_allclose(once.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(once, project_rows_loops(v), rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(backend.project_rows(once), once, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_project_rows_closed_form_blocks_land_on_the_simplex_and_stay(n):
    """Wholly supported rows (min(v) > tau) in the even 64-row blocks,
    which skip the sort, and random rows in the odd ones, which sort."""
    m = 30
    rng = np.random.default_rng(n)
    v = 3.0 + rng.uniform(0.0, 0.5 / m, size=(n, m))
    odd = np.arange(n) // 64 % 2 == 1
    v[odd] = rng.normal(scale=2.0, size=(odd.sum(), m))
    _assert_projects_onto_the_simplex_and_stays(v)


def test_project_rows_needs_an_entry_per_row():
    """A row with no entry has no point on the simplex: refused by name
    before any arithmetic.  No rows at all project to no rows."""
    for shape in ((3, 0), (1, 0)):
        with pytest.raises(ValueError, match="project_rows"):
            backend.project_rows(np.empty(shape))
    for shape in ((0, 5), (0, 0)):
        out = backend.project_rows(np.empty(shape))
        assert out.shape == shape and out.dtype == np.float64


def test_pairwise_sq_dists_parity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.normal(size=(rng.integers(2, 40), rng.integers(1, 25)))
        a = backend.pairwise_sq_dists(x)
        b = pairwise_sq_dists_loops(x)
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-10)
        assert (np.diag(a) == 0).all()


def _assert_masked_matches_loops(x, observed):
    a = backend.masked_pairwise_dists(x, observed)
    b = masked_pairwise_dists_loops(x, observed)
    assert np.array_equal(np.isinf(a), np.isinf(b))
    finite = np.isfinite(a)
    np.testing.assert_allclose(a[finite], b[finite], rtol=1e-10, atol=1e-10)
    assert (np.diag(a) == 0).all()
    return a


def test_masked_pairwise_parity():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n, p = rng.integers(2, 25), rng.integers(1, 20)
        x = rng.normal(size=(n, p))
        observed = rng.random((n, p)) > 0.3
        _assert_masked_matches_loops(x, observed)


def test_masked_pairwise_no_overlap_is_inf():
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    observed = np.array([[True, False], [False, True]])
    d = backend.masked_pairwise_dists(x, observed)
    assert d[0, 1] == np.inf and d[1, 0] == np.inf and d[0, 0] == 0.0


def test_masked_pairwise_disjoint_rows_and_ties():
    # rows 0-1 observe only features 0-1 and rows 2-3 only 2-3: no shared
    # feature across the groups; rows 4-6 repeat row 4 where they overlap
    # (distance 0 ties) and row 7 is row 4 shifted by 1 in every feature
    rng = np.random.default_rng(23)
    x = rng.normal(scale=5.0, size=(8, 6))
    observed = np.ones((8, 6), dtype=bool)
    observed[0:2, 2:] = False
    observed[2:4, :2] = False
    observed[2:4, 4:] = False
    x[5:7] = x[4]
    observed[5, 5] = False
    observed[6, 0] = False
    x[7] = x[4] + 1.0
    x[~observed] = 1e6  # unobserved cells must not leak into any distance
    d = _assert_masked_matches_loops(x, observed)
    assert np.isinf(d[:2, 2:4]).all() and np.isinf(d[2:4, :2]).all()
    np.testing.assert_allclose([d[4, 5], d[4, 6], d[5, 6]], 0.0, atol=1e-10)
    assert d[4, 7] == pytest.approx(np.sqrt(6.0), abs=1e-10)


def _random_lloyd_case(rng):
    n, p, k = int(rng.integers(5, 50)), int(rng.integers(1, 8)), int(rng.integers(1, 5))
    x = rng.normal(size=(n, p))
    return x, x[rng.choice(n, size=k, replace=False)]


def _assert_lloyd_matches_loops(got, x, start, max_iter, tol):
    labels, cent, wcss = got
    ref_labels, ref_cent, ref_wcss = lloyd_loops(x, start, max_iter, tol)
    assert np.array_equal(labels, ref_labels)
    np.testing.assert_allclose(cent, ref_cent, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(wcss, ref_wcss, rtol=1e-9, atol=1e-9)


def _lloyd_one(x, start, max_iter, tol):
    """One restart through backend.lloyd, as a (1, k, p) start."""
    labels, cent, wcss = backend.lloyd(x, start[None], max_iter, tol)
    return labels[0], cent[0], wcss[0]


def test_lloyd_numpy_matches_python_reference():
    # one restart, a (1, k, p) start
    rng = np.random.default_rng(29)
    for _ in range(15):
        x, start = _random_lloyd_case(rng)
        labels, cent, wcss = backend.lloyd(x, start[None], 100, 1e-10)
        assert labels.shape == (1, x.shape[0]) and cent.shape == (1, *start.shape)
        assert wcss.shape == (1,)
        _assert_lloyd_matches_loops((labels[0], cent[0], wcss[0]), x, start, 100, 1e-10)


def test_lloyd_parity():
    # several restarts in one call, an (r, k, p) start
    rng = np.random.default_rng(31)
    for _ in range(10):
        x, _ = _random_lloyd_case(rng)
        n = x.shape[0]
        k = int(rng.integers(1, min(n, 5) + 1))
        starts = np.stack([x[rng.choice(n, size=k, replace=False)] for _ in range(4)])
        starts[1::2, -1] = starts[1::2, 0]  # restarts 1 and 3 repair an empty cluster
        labels, cent, wcss = backend.lloyd(x, starts, 100, 1e-10)
        assert labels.shape == (4, n) and cent.shape == starts.shape and wcss.shape == (4,)
        for r in range(4):
            _assert_lloyd_matches_loops((labels[r], cent[r], wcss[r]), x, starts[r], 100, 1e-10)


def test_lloyd_lockstep_restarts_follow_their_own_paths(monkeypatch):
    # restart 0 starts at the blob means and stops after one step; restart 1
    # starts with a duplicate centroid, so its cluster 1 is empty and
    # repaired; restart 2 starts inside one blob and needs several steps
    rng = np.random.default_rng(3)
    blobs = [rng.normal(c, 0.3, size=(10, 2)) for c in (0.0, 6.0, 12.0)]
    x = np.vstack(blobs)
    starts = np.stack([
        np.stack([b.mean(axis=0) for b in blobs]),
        np.vstack([x[0], x[0], x[25]]),
        np.vstack([x[0], x[1], x[2]]),
    ])
    active_per_step = []
    sq_dists_to = backend._sq_dists_to

    def recording(x_, xsq, cent):
        active_per_step.append(cent.shape[0])
        return sq_dists_to(x_, xsq, cent)

    monkeypatch.setattr(backend, "_sq_dists_to", recording)
    labels, cent, wcss = backend.lloyd(x, starts, 100, 1e-9)
    monkeypatch.undo()
    # restart 0 leaves after the first step; the last call is the final
    # assignment over all three
    assert active_per_step[:2] == [3, 2] and active_per_step[-1] == 3
    assert len(active_per_step) > 3
    for r in range(3):
        _assert_lloyd_matches_loops((labels[r], cent[r], wcss[r]), x, starts[r], 100, 1e-9)
        lab, c, w = _lloyd_one(x, starts[r], 100, 1e-9)
        assert np.array_equal(labels[r], lab)
        np.testing.assert_allclose(cent[r], c, rtol=1e-12, atol=1e-12)
        assert wcss[r] == pytest.approx(w, rel=1e-12, abs=1e-12)


def test_lloyd_repairs_empty_clusters():
    # duplicate starting centroids force an initially empty cluster; with
    # more clusters than distinct points, centroids coincide and the
    # assignment after the last step leaves a cluster empty as well
    rng = np.random.default_rng(3)
    x = rng.normal(size=(12, 2))
    dup = np.array([[0.0], [0.0], [0.0], [5.0], [5.0], [9.0]])
    cases = [(x, np.vstack([x[0], x[0], x[5]])[None]),
             (dup, np.stack([dup[[0, 1, 3, 5]], dup[[5, 0, 1, 3]]])),
             (np.zeros((5, 2)), np.zeros((1, 3, 2))),
             (np.repeat(dup, 2, axis=0), np.stack([dup[[0, 0, 0, 3, 3]], dup[[5, 0, 3, 0, 3]]]))]
    for pts, starts in cases:
        labels, cent, wcss = backend.lloyd(pts, starts, 50, 1e-10)
        for r, start in enumerate(starts):
            assert np.unique(labels[r]).size == start.shape[0]
            assert wcss[r] >= 0.0
            _assert_lloyd_matches_loops((labels[r], cent[r], wcss[r]), pts, start, 50, 1e-10)


def test_public_names_agree_with_reference():
    # the four kernels a profiler wraps by name exist as module attributes
    # and agree with their loop references
    rng = np.random.default_rng(41)
    x = rng.normal(size=(18, 6))
    np.testing.assert_allclose(
        backend.pairwise_sq_dists(x), pairwise_sq_dists_loops(x), rtol=1e-10, atol=1e-10)
    v = rng.normal(size=(9, 14))
    np.testing.assert_allclose(backend.project_rows(v), project_rows_loops(v), atol=1e-12)
    observed = rng.random(x.shape) > 0.2
    np.testing.assert_allclose(
        backend.masked_pairwise_dists(x, observed),
        masked_pairwise_dists_loops(x, observed), rtol=1e-10, atol=1e-10)
    _assert_lloyd_matches_loops(_lloyd_one(x, x[:3], 20, 1e-10), x, x[:3], 20, 1e-10)


def test_import_loads_no_numba():
    code = (
        "import sys\n"
        "import omicsfuse\n"
        "from omicsfuse import backend\n"
        "loaded = [m for m in sys.modules if m == 'numba' or m.startswith('numba.')]\n"
        "assert not loaded, loaded\n"
        "print('no numba')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "no numba" in proc.stdout
