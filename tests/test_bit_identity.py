"""The in-place kernels against the allocating expressions they replaced.

Each kernel on the fusion path writes its n x n temporaries into reused
buffers with the same arithmetic, and the log-rank test runs its sums
along time instead of looping over event times, so their results must
equal the plain numpy references in tests/oracles.py bit for bit, signed
zeros included.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omicsfuse import preprocess
from omicsfuse.affinity import (
    affinity_from_distance,
    check_distance_matrix,
    euclidean_distance_matrix,
    local_scales,
    nearest_distances,
    off_diagonal,
)
from omicsfuse.backend import masked_pairwise_dists, pairwise_sq_dists, project_rows
from omicsfuse.errors import NumericalFailure
from omicsfuse.fusion import _fusion_step, _gap_scale, _laplacian_into, _sym_into, step_distance
from omicsfuse.numkernel import sym_eig
from omicsfuse.preprocess import OmicsMatrix, knn_impute
from omicsfuse.survival import SurvivalRecord, logrank_test
from oracles import (
    affinity_kernel,
    affinity_symmetrized,
    check_distance_matrix_allclose,
    distances_symmetrized,
    knn_impute_rows,
    logrank_test_loop,
    off_diagonal_masked,
    project_rows_allocating,
    project_rows_sorted,
    sorted_off_diagonal_full,
    step_distance_mean,
    sym_eig_symmetrizing,
)


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _distances(n, seed, ties=False):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    if ties:
        x = np.round(x)  # many equal distances
        x[1] = x[0]  # a duplicate sample: zero distance off the diagonal
    d = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))
    return 0.5 * (d + d.T)


def _affinities(n, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        a = rng.uniform(0.0, 1.0, size=(n, n))
        a = 0.5 * (a + a.T)
        np.fill_diagonal(a, 1.0)
        out.append(a)
    return out


def _signed_zero_rows():
    return np.array([
        [0.0, -0.0, 0.0, -0.0],
        [-0.0, 0.0, -0.0, 0.0],
        [0.5, 0.5, 0.5, 0.5],
        [1.0, 1.0, -0.0, 0.0],
        [-2.0, -2.0, -2.0, -0.0],
        [3.0, -1.0, 3.0, -1.0],
    ])


class TestProjectRows:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_sorted_reference(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(scale=2.0, size=(rng.integers(1, 40), rng.integers(1, 60)))
        assert_same_bits(project_rows(v), project_rows_sorted(v))

    def test_ties_and_signed_zeros(self):
        v = _signed_zero_rows()
        assert_same_bits(project_rows(v), project_rows_sorted(v))
        tied = np.round(np.random.default_rng(3).normal(size=(30, 50)))
        assert_same_bits(project_rows(tied), project_rows_sorted(tied))

    def test_input_is_left_alone(self):
        v = _signed_zero_rows()
        before = v.copy()
        project_rows(v)
        assert_same_bits(v, before)

    @pytest.mark.parametrize("seed", range(4))
    def test_caller_buffers_give_the_allocating_bits(self, seed):
        """Cumulative sums and condition scratch in buffers the caller
        passes, holding garbage and reused across calls, give the bits of
        the projection with arrays of its own."""
        rng = np.random.default_rng(20 + seed)
        m = int(rng.integers(1, 50))
        css, scratch = np.full((m, m), np.nan), np.full((m, m), -np.inf)
        for _ in range(2):
            v = rng.normal(scale=2.0, size=(m, m))
            out = project_rows(v, css, scratch)
            assert_same_bits(out, project_rows_allocating(v))
            assert_same_bits(out, project_rows_sorted(v))
            assert not np.shares_memory(out, css) and not np.shares_memory(out, scratch)
        v = _signed_zero_rows()
        assert_same_bits(project_rows(v, np.empty_like(v), np.empty_like(v)),
                         project_rows_allocating(v))


class TestOffDiagonal:
    @pytest.mark.parametrize("n", [1, 2, 3, 17])
    def test_matches_the_mask(self, n):
        d = np.random.default_rng(n).normal(size=(n, n))
        for layout in (d, np.asfortranarray(d), d.T, d[::-1, ::-1]):
            out = off_diagonal(layout)
            assert_same_bits(out, off_diagonal_masked(layout))
            assert out.flags.c_contiguous and not np.shares_memory(out, d)

    def test_sorting_the_rows_leaves_the_matrix_alone(self):
        d = _distances(2, 15)  # one entry a row: the view is contiguous
        before = d.copy()
        nearest_distances(d, 1)
        off_diagonal(d).sort(axis=1)
        assert_same_bits(d, before)


class TestCheckDistanceMatrix:
    @pytest.mark.parametrize("ties", [False, True])
    def test_matches_the_allclose_reference(self, ties):
        d = _distances(70, 4, ties)  # 70 rows: two row blocks of the bound
        d[3, 5] += 1e-9  # asymmetric within the tolerance
        out = check_distance_matrix(d)
        assert_same_bits(out, check_distance_matrix_allclose(d))
        assert out is not d

    def test_asymmetry_at_the_tolerance_edge(self):
        """The largest asymmetry np.allclose accepts is accepted, and the
        next float above it is rejected, at an entry of the second row
        block."""
        d = _distances(80, 5)
        i, j = 70, 2
        y = d[j, i]
        tol = 1e-8 + 1e-5 * abs(y)
        x = y + tol
        while abs(x - y) > tol:
            x = np.nextafter(x, -np.inf)
        while abs(np.nextafter(x, np.inf) - y) <= tol:
            x = np.nextafter(x, np.inf)
        accepted = d.copy()
        accepted[i, j] = x
        assert np.allclose(accepted, accepted.T, atol=1e-8)
        assert_same_bits(check_distance_matrix(accepted), check_distance_matrix_allclose(accepted))
        rejected = d.copy()
        rejected[i, j] = np.nextafter(x, np.inf)
        assert not np.allclose(rejected, rejected.T, atol=1e-8)
        for check in (check_distance_matrix, check_distance_matrix_allclose):
            with pytest.raises(ValueError, match="symmetric"):
                check(rejected)

    def test_signed_zero_distances(self):
        d = np.array([[0.0, -0.0, 1.0], [0.0, -0.0, 2.0], [1.0, 2.0, 0.0]])
        assert_same_bits(check_distance_matrix(d), check_distance_matrix_allclose(d))


class TestSortedDistances:
    @pytest.mark.parametrize("ties", [False, True])
    def test_in_place_sort_matches_the_full_sort(self, ties):
        """The partition and sort of ``nearest_distances`` give the first k
        columns of the full sort.  600 rows: on short rows numpy's partition
        happens to leave the first k sorted, so the sort would go untested."""
        d = check_distance_matrix(_distances(600, 6, ties))
        full = sorted_off_diagonal_full(d)
        for k in (1, 2, 7, 25, 101, 300, 598, 599):
            assert_same_bits(nearest_distances(d, k), full[:, :k])

    @pytest.mark.parametrize("n", [150, 600])
    def test_local_scales_match_the_full_sort(self, n):
        d = _distances(n, n)
        k1 = preprocess.default_neighbor_count(n)
        assert_same_bits(local_scales(d), sorted_off_diagonal_full(
            check_distance_matrix(d))[:, :k1].mean(axis=1))

    @pytest.mark.parametrize("hi", [2, 7, 38])
    def test_fusion_step_keeps_the_first_columns_of_the_full_sort(self, hi):
        """The partition + sort of ``_fusion_step`` gives the full sort's
        first hi + 1 columns and the same gap scale at every k2 <= hi."""
        affs = _affinities(40, 3, 7)
        full = sorted_off_diagonal_full(step_distance_mean(affs))
        step = _fusion_step(affs, 3, "test", hi)
        assert step.sorted_distances.shape == (40, hi + 1)
        assert np.array_equal(step.sorted_distances, full[:, :hi + 1])
        for k2 in range(1, hi + 1):
            assert _gap_scale(step.sorted_distances, k2) == _gap_scale(full, k2)


class TestStepDistance:
    @pytest.mark.parametrize("count", [1, 2, 3, 6])
    def test_matches_the_stacked_mean(self, count):
        affs = _affinities(30, count, count)
        assert_same_bits(step_distance(affs), step_distance_mean(affs))

    @pytest.mark.parametrize("count", [1, 3, 6])
    def test_is_its_own_checked_distance(self, count):
        """The distance check hands the step distance back bit for bit, so
        the fusion step reads it unchecked; a stage's fused S, which is not
        symmetric, is one view too."""
        views = _affinities(30, count, count + 20)
        views[0] = np.random.default_rng(count).uniform(size=(30, 30))
        d = step_distance(views)
        assert_same_bits(check_distance_matrix(d), d)

    def test_inputs_are_left_alone(self):
        affs = _affinities(12, 3, 9)
        before = [a.copy() for a in affs]
        step_distance(affs)
        for a, b in zip(affs, before):
            assert_same_bits(a, b)


class TestEuclideanDistances:
    @pytest.mark.parametrize("shape", [(600, 60), (150, 2000), (600, 1), (150, 50), (7, 3)])
    def test_symmetrizing_again_changes_no_bit(self, shape):
        """The squared distances are exactly symmetric in every layout, so
        the (d + d')/2 the distances used to end with was a no-op."""
        x = np.random.default_rng(shape[0] + shape[1]).normal(size=shape)
        wide = np.random.default_rng(1).normal(size=(shape[0], shape[1] + 3))
        for layout in (x, np.asfortranarray(x), wide[:, 1:shape[1] + 1]):
            d = euclidean_distance_matrix(layout)
            assert np.array_equal(d, d.T)
            assert_same_bits(d, distances_symmetrized(pairwise_sq_dists(layout)))


def test_laplacian_keeps_the_signs_of_eye_minus_s():
    """I - sym(S) written without an identity matrix has the bits of
    np.eye(n) - s_sym, zeros off the diagonal included."""
    s_sym = np.array([[0.5, 0.0, -0.0], [0.0, 1.0, 0.25], [-0.0, 0.25, 0.0]])
    out = np.empty_like(s_sym)
    assert_same_bits(_laplacian_into(out, s_sym), np.eye(3) - s_sym)
    assert_same_bits(_laplacian_into(s_sym.copy(), s_sym.copy()), np.eye(3) - s_sym)


class TestAffinityKernel:
    @pytest.mark.parametrize("ties", [False, True])
    def test_matches_the_allocating_kernel(self, ties):
        d = _distances(50, 8, ties)
        ref = affinity_kernel(check_distance_matrix_allclose(d), local_scales(d))
        assert_same_bits(affinity_from_distance(d), ref)

    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("k1", [None, 1, 7])
    def test_symmetrizing_again_changes_no_bit(self, ties, k1):
        """The kernel of a checked distance matrix is exactly symmetric, so
        the (a + a')/2 it used to end with was a no-op; the input here is
        asymmetric within the check's tolerance."""
        d = _distances(45, 16, ties)
        d[4, 9] += 1e-9
        a = affinity_from_distance(d, k1)
        assert_same_bits(a, affinity_symmetrized(a))
        assert_same_bits(a, a.T)

    def test_duplicates_with_zero_scales(self):
        d = np.zeros((4, 4))
        d[2:, :2] = d[:2, 2:] = 3.0
        ref = affinity_kernel(d, local_scales(d, 1))
        assert_same_bits(affinity_from_distance(d, 1), ref)


class TestSymEig:
    def test_c_and_f_order_give_the_same_pairs(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(60, 60))
        a += a.T
        vals_c, vecs_c = sym_eig(np.array(a, order="C"), 4)
        vals_f, vecs_f = sym_eig(np.array(a, order="F"), 4)
        assert_same_bits(vals_c, vals_f)
        assert_same_bits(vecs_c, vecs_f)

    def test_matches_the_copying_call(self):
        """On a symmetric matrix, solving in its own buffer gives the pairs
        that symmetrizing it into a new one first gave."""
        rng = np.random.default_rng(12)
        a = rng.normal(size=(50, 50))
        a += a.T
        ref = sym_eig_symmetrizing(a, 3)
        for got, want in zip(sym_eig(a.copy(), 3), ref):
            assert_same_bits(got, want)

    def test_reads_one_triangle_and_overwrites_its_input(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(20, 20))
        a += a.T
        ref = sym_eig(a.copy(), 2)
        upper = np.triu(a)
        for got, want in zip(sym_eig(upper, 2), ref):
            assert_same_bits(got, want)
        assert not np.array_equal(upper, np.triu(a))

    def test_the_loop_eigensolve_skips_no_bit(self):
        """The F-step hands I - sym(S) to LAPACK as it is: the pairs have
        the bits of symmetrizing it again first."""
        for seed in range(3):
            s = project_rows(np.random.default_rng(30 + seed).normal(size=(40, 40)))
            lap = _laplacian_into(np.empty_like(s), _sym_into(np.empty_like(s), s))
            ref = sym_eig_symmetrizing(lap, 3)
            for got, want in zip(sym_eig(lap.copy(), 3), ref):
                assert_same_bits(got, want)

    def test_non_finite_input_fails_in_the_helper(self):
        sym = np.eye(4)
        sym[1, 1] = np.nan
        with pytest.raises(NumericalFailure, match="non-finite"):
            sym_eig(sym, 2)


class TestKnnImpute:
    @pytest.mark.parametrize("block", [1, 64, 1 << 16])
    def test_matches_the_per_sample_loop(self, monkeypatch, block):
        """Blocks of one cell, of a few cells and of the default size give
        the same values; k = 12 leaves some features with fewer observers,
        which take the mean of all of them."""
        monkeypatch.setattr(preprocess, "IMPUTE_BLOCK_ENTRIES", block)
        rng = np.random.default_rng(14)
        n, p = 15, 9
        values = np.round(rng.normal(size=(n, p)), 1)  # ties in the distances
        missing = rng.uniform(size=(n, p)) < 0.2
        missing[:, 0] = np.arange(n) >= 4  # four observers only
        values[missing] = np.nan
        m = OmicsMatrix(values, [f"s{i}" for i in range(n)], [f"f{j}" for j in range(p)],
                        "gene_expression")
        dists = masked_pairwise_dists(np.where(missing, 0.0, values), ~missing)
        for k in (3, 12):
            out, count = knn_impute(m, k=k)
            assert count == missing.sum()
            assert_same_bits(out.values, knn_impute_rows(values, missing, dists, k))


def _logrank_bits(labels, times, events):
    recs = [SurvivalRecord(f"s{i}", float(t), int(e))
            for i, (t, e) in enumerate(zip(times, events))]
    rep = logrank_test(labels, recs)
    got = (rep.chi2.hex(), rep.p_value.hex(), rep.observed_events,
           tuple(float(e).hex() for e in rep.expected_events))
    chi2, p, observed, expected = logrank_test_loop(labels, times, events)
    want = (chi2.hex(), p.hex(), tuple(int(o) for o in observed),
            tuple(float(e).hex() for e in expected))
    return got, want


@st.composite
def _survival_data(draw):
    """k = 2..5 groups, each present, on a coarse time grid: tied times and
    events tied with censorings are common.  Optionally one group has no
    event, and the latest time is one sample's event, so n_t = 1 there."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(k, 30))
    labels = np.array(list(range(k)) + draw(st.lists(st.integers(0, k - 1),
                                                     min_size=n - k, max_size=n - k)))
    times = 0.25 * np.array(draw(st.lists(st.integers(1, 8), min_size=n, max_size=n)))
    events = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    if draw(st.booleans()):
        events[labels == k - 1] = 0
    if draw(st.booleans()):
        times[0], events[0] = 2.5, 1
    if not events.any():
        events[int(np.flatnonzero(labels == 0)[0])] = 1
    return labels, times, events


@settings(max_examples=150, deadline=None)
@given(_survival_data())
@example((np.array([0, 0, 1, 1, 2]), np.array([1.0, 2.0, 2.0, 2.0, 3.0]),
          np.array([1, 0, 1, 0, 1])))  # ties with a censoring; n_t = 1 last
@example((np.array([0, 1, 2, 3, 4, 0, 1]), np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0]),
          np.array([1, 1, 0, 0, 1, 0, 1])))  # k = 5, groups 2 and 3 without events
def test_logrank_sums_along_time_match_the_event_time_loop(data):
    got, want = _logrank_bits(*data)
    assert got == want


def test_logrank_at_pipeline_size_matches_the_loop():
    """n = 600 with about 500 distinct event times, as a discovery run has."""
    rng = np.random.default_rng(17)
    times = np.round(rng.exponential(5.0, 600), 2) + 0.01
    events = (rng.uniform(size=600) < 0.85).astype(int)
    for k in (3, 4, 5):
        got, want = _logrank_bits(rng.integers(0, k, 600), times, events)
        assert got == want
