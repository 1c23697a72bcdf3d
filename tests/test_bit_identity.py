"""The in-place kernels against the allocating expressions they replaced.

Each kernel on the fusion path writes its n x n temporaries into reused
buffers with the same arithmetic, and the log-rank test runs its sums
along time instead of looping over event times, so their results must
equal the plain numpy references in tests/oracles.py bit for bit, signed
zeros included.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from omicsfuse import preprocess
from omicsfuse.affinity import (
    affinity_from_distance,
    check_distance_matrix,
    euclidean_distance_matrix,
    local_scales,
    nearest_distances,
    off_diagonal,
)
from omicsfuse.backend import (
    masked_pairwise_dists,
    pairwise_sq_dists,
    project_rows,
    sym_into,
)
from omicsfuse.errors import NumericalFailure
from omicsfuse.fusion import _fusion_step, _gap_scale, step_distance
from omicsfuse.numkernel import sym_eig
from omicsfuse.preprocess import OmicsMatrix, knn_impute
from omicsfuse.survival import SurvivalRecord, logrank_test
from omicsfuse.synthgen import SynthSpec, generate
from oracles import (
    affinity_kernel,
    affinity_symmetrized,
    check_distance_matrix_allclose,
    distances_symmetrized,
    knn_impute_cells,
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
        """A result buffer the caller passes, holding garbage and reused
        across calls, gives the bits of the projection with arrays of its
        own."""
        rng = np.random.default_rng(20 + seed)
        m = int(rng.integers(1, 50))
        buf = np.full((m, m), -np.inf)
        for _ in range(2):
            v = rng.normal(scale=2.0, size=(m, m))
            out = project_rows(v, out=buf)
            assert out is buf
            assert_same_bits(out, project_rows_allocating(v))
            assert_same_bits(out, project_rows_sorted(v))
        v = _signed_zero_rows()
        assert_same_bits(project_rows(v, out=np.empty_like(v)), project_rows_allocating(v))

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    def test_row_blocks_give_the_allocating_bits(self, n):
        """The sorting blocks, taken 64 rows at a time, pick the threshold of
        the whole-matrix condition on every row: random rows, rounded rows
        full of ties, and rows of signed zeros, with the result in ``out``."""
        rng = np.random.default_rng(n)
        zeros = np.resize(_signed_zero_rows(), (n, 4))
        for v in (rng.normal(scale=2.0, size=(n, 70)),
                  np.round(rng.normal(size=(n, 40))), zeros):
            out = np.full_like(v, np.nan)
            assert project_rows(v, out=out) is out
            assert_same_bits(out, project_rows_allocating(v))
            assert_same_bits(project_rows(v), project_rows_allocating(v))

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    def test_closed_form_blocks_and_sorted_blocks(self, n):
        """Blocks whose rows are all wholly supported take the closed form
        tau = (sum - 1) / m, which adds the row in another order than the
        sorted cumulative sum: they match the sort within 2 m eps max|v|.
        A block with one partly supported row sorts, so all of its rows,
        the wholly supported ones too, match the sort bit for bit."""
        m = 50
        rng = np.random.default_rng(40 + n)
        v = 3.0 + rng.uniform(0.0, 0.5 / m, size=(n, m))  # min(v) > tau on every row
        sorted_blocks = np.arange(n) // 64 % 2 == 1
        partial = sorted_blocks & (np.arange(n) % 64 == 0)
        v[partial] = rng.normal(scale=2.0, size=(partial.sum(), m))
        got, ref = project_rows(v), project_rows_sorted(v)
        assert_same_bits(got[sorted_blocks], ref[sorted_blocks])
        tol = 2 * m * np.finfo(np.float64).eps * np.abs(v).max()
        np.testing.assert_allclose(got[~sorted_blocks], ref[~sorted_blocks], rtol=0.0, atol=tol)
        assert (got[~sorted_blocks] > 0.0).all()

    def test_out_aliasing_the_input_is_refused(self):
        v = np.random.default_rng(5).normal(size=(6, 6))
        for alias in (v, v[:], v.T, v.reshape(-1).reshape(6, 6)):
            with pytest.raises(ValueError, match="out must not share memory"):
                project_rows(v, out=alias)


class TestSymInto:
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    def test_matches_the_allocating_sum(self, n):
        """Mirrored 64 x 64 tiles, the diagonal ones and the ragged edge
        included, give the bits of (A + A') / 2, signed zeros too, into a
        buffer of their own and over A."""
        rng = np.random.default_rng(n)
        zeros = rng.choice([0.0, -0.0, 1.5, -1.5], size=(n, n))  # -0 + -0, 0 + -0, 1.5 - 1.5
        for a in (rng.normal(size=(n, n)), zeros):
            ref = (a + a.T) * 0.5
            assert_same_bits(sym_into(np.full_like(a, np.nan), a), ref)
            b = a.copy()
            assert sym_into(b, b) is b
            assert_same_bits(b, ref)

    def test_in_place_needs_no_copy_of_the_matrix(self):
        """One tile of scratch: numpy's np.add(a, a.T, out=a) resolves the
        overlap through a whole n x n copy."""
        n = 600
        a = np.random.default_rng(9).normal(size=(n, n))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sym_into(a, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - base) / (n * n * 8) < 0.05


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

    def test_symmetric_signed_zeros_are_returned_as_they_are(self):
        d = np.array([[0.0, -0.0, 1.0], [-0.0, -0.0, 2.0], [1.0, 2.0, 0.0]])
        out = check_distance_matrix(d)
        assert out is d
        assert_same_bits(out, check_distance_matrix_allclose(d))

    def test_an_empty_matrix_is_returned_as_it_is(self):
        d = np.zeros((0, 0))
        assert check_distance_matrix(d) is d

    def test_an_exactly_symmetric_input_is_returned_without_a_copy(self):
        """n = 600: the bits of d and d' are compared in row blocks and the
        finite and sign checks are two reductions, so nothing n x n is made;
        the two n x n bool masks of those checks took 0.125 n^2 float64."""
        d = euclidean_distance_matrix(np.random.default_rng(16).normal(size=(600, 5)))
        ref = check_distance_matrix_allclose(d)
        tracemalloc.start()
        try:
            out = check_distance_matrix(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out is d
        assert peak < 0.05 * d.nbytes
        assert_same_bits(out, ref)

    @pytest.mark.parametrize("d, message", [
        (np.zeros((2, 3)), "square"),
        ([[0.0, np.nan], [-1.0, 0.0]], "finite"),
        ([[0.0, -1.0], [2.0, 0.0]], "nonnegative"),
        ([[1.0, 1.0], [2.0, 0.0]], "symmetric"),  # and a nonzero diagonal
        ([[1.0, 2.0], [2.0, 0.0]], "zero diagonal"),  # exactly symmetric
        ([[1.0, 2.0], [2.0 + 1e-12, 0.0]], "zero diagonal"),  # within the tolerance
        ([[0.0, np.inf], [np.inf, 0.0]], "finite"),
        ([[0.0, -np.inf], [-np.inf, 0.0]], "finite"),  # before the sign
        (np.full((2, 2), np.nan), "finite"),
    ])
    def test_errors_and_their_precedence(self, d, message):
        messages = []
        for check in (check_distance_matrix, check_distance_matrix_allclose):
            with pytest.raises(ValueError, match=message) as err:
                check(np.array(d))
            messages.append(str(err.value))
        assert messages[0] == messages[1]


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
        """The distance check hands the step distance back as it is, so the
        fusion step reads it unchecked; a stage's fused S, which is not
        symmetric, is one view too."""
        views = _affinities(30, count, count + 20)
        views[0] = np.random.default_rng(count).uniform(size=(30, 30))
        d = step_distance(views)
        assert check_distance_matrix(d) is d

    def test_inputs_are_left_alone(self):
        affs = _affinities(12, 3, 9)
        before = [a.copy() for a in affs]
        step_distance(affs)
        for a, b in zip(affs, before):
            assert_same_bits(a, b)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 12).flatmap(lambda n: st.lists(
        arrays(np.float64, (n, n), elements=st.floats(-1e6, 1e6)), min_size=1, max_size=6)))
    @example([np.full((3, 3), 2.0), np.full((3, 3), -0.0)])  # every entry at the maximum
    @example([np.array([[-1.0, 2.225e-309], [2.225e-309, 2.225e-309]])])  # -1 / 2.2e-309
    def test_no_entry_is_below_plus_zero(self, views):
        """Over its maximum the symmetrized mean is at most 1, so one minus
        it is +0.0 or more with no clamp, whatever the signs of the views.
        A negative entry that over a subnormal maximum leaves the float range
        is a NumericalFailure, not an infinite distance."""
        mean = np.mean(views, axis=0)
        sym = 0.5 * (mean + mean.T)
        assume(sym.max() > 0.0)
        try:
            d = step_distance(views)
        except NumericalFailure:
            assert sym.min() / 1e308 < -sym.max()
            return
        assert (d >= 0.0).all() and not np.signbit(d).any()


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
        """The F-step hands -sym(S) to LAPACK as it is: the pairs have the
        bits of symmetrizing it again first."""
        for seed in range(3):
            s = project_rows(np.random.default_rng(30 + seed).normal(size=(40, 40)))
            neg = np.negative(sym_into(np.empty_like(s), s))
            ref = sym_eig_symmetrizing(neg, 3)
            for got, want in zip(sym_eig(neg.copy(), 3), ref):
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


def _omics(values):
    n, p = values.shape
    return OmicsMatrix(values, [f"s{i}" for i in range(n)], [f"f{j}" for j in range(p)],
                       "gene_expression")


def _impute_with_calls(monkeypatch, values, k):
    """``knn_impute`` with a record of its donor-routine calls: (order
    width, cells handed over) for the window and then for the whole rows."""
    calls = []
    impute = preprocess._impute_cells

    def spy(out, x, orders, certain, samples, rows, feats, k):
        calls.append((orders.shape[1], rows.size))
        return impute(out, x, orders, certain, samples, rows, feats, k)

    monkeypatch.setattr(preprocess, "_impute_cells", spy)
    try:
        out, count = knn_impute(_omics(values), k=k)
    finally:
        monkeypatch.undo()
    return out.values, count, calls


def _reference(values, k):
    missing = np.isnan(values)
    dists = masked_pairwise_dists(np.where(missing, 0.0, values), ~missing)
    return knn_impute_cells(values, missing, dists, k)


def _ties_at_the_window_edge():
    """k = 3, a window of 6: samples 1 and 2 are nearer sample 0 than the
    seven samples 3-9, which tie at the window's farthest distance; the
    third donor is the lowest-indexed of them."""
    values = np.column_stack([[0.0, 0.5, 0.5] + [1.0] * 7, 10.0 * np.arange(10)])
    values[0, 1] = np.nan
    return values, 3


def _observers_beyond_the_window():
    """k = 2, a window of 4: the three samples nearest sample 0 miss the
    feature it misses too; eight farther samples observe it."""
    values = np.column_stack([np.arange(12.0), 10.0 * np.arange(12)])
    values[:4, 1] = np.nan
    return values, 2


def _fewer_observers_than_k():
    """k = 3: two samples observe the second feature, so each sample
    missing it takes the mean of both."""
    values = np.column_stack([np.arange(8.0) ** 1.5, 10.0 * np.arange(8)])
    values[:6, 1] = np.nan
    return values, 3


def _k_is_n_minus_one():
    """k = n - 1: the window is the whole row."""
    values = np.round(np.random.default_rng(21).normal(size=(7, 3)), 1)
    values[[0, 3, 5], [1, 2, 1]] = np.nan
    return values, 6


EDGE_CASES = [_ties_at_the_window_edge, _observers_beyond_the_window,
              _fewer_observers_than_k, _k_is_n_minus_one]


@st.composite
def _impute_inputs(draw):
    """Coarse values (tied distances), duplicate rows, random masks in which
    every sample and every feature keeps an observed cell, k in [2, n - 1]."""
    n, p = draw(st.integers(4, 30)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.round(rng.normal(size=(n, p)), draw(st.integers(0, 2)))
    values[rng.integers(0, n, draw(st.integers(0, n // 2)))] = values[0]
    missing = rng.uniform(size=(n, p)) < draw(st.floats(0.05, 0.7))
    missing[np.arange(n), rng.integers(0, p, n)] = False
    missing[rng.integers(0, n)] = False
    values[missing] = np.nan
    return values, draw(st.integers(2, n - 1))


class TestDonorWindow:
    """``knn_impute`` settles each cell in a window of the 2k nearest samples
    when it can and sorts the whole row when it cannot; the donors are
    those of the per-cell reference bit for bit either way."""

    @settings(max_examples=200, deadline=None)
    @given(_impute_inputs())
    def test_matches_the_per_cell_reference(self, case):
        values, k = case
        out, count = knn_impute(_omics(values), k=k)
        assert count == np.isnan(values).sum()
        assert_same_bits(out.values, _reference(values, k))

    @pytest.mark.parametrize("case", EDGE_CASES, ids=lambda c: c.__name__.strip("_"))
    def test_edge_cases_fall_back_to_the_whole_row(self, monkeypatch, case):
        values, k = case()
        n = values.shape[0]
        out, _, calls = _impute_with_calls(monkeypatch, values, k)
        assert_same_bits(out, _reference(values, k))
        (width, cells), (whole, left) = calls
        assert (width, cells, whole) == (min(n, 2 * k), np.isnan(values).sum(), n)
        assert left >= 1

    def test_ties_at_the_window_edge_take_the_lowest_indices(self):
        values, k = _ties_at_the_window_edge()
        out, _ = knn_impute(_omics(values), k=k)
        assert out.values[0, 1] == np.mean([10.0, 20.0, 30.0])

    def test_the_window_settles_every_cell_at_benchmark_shape(self, monkeypatch):
        """n = 600 with 5% of cells missing: no cell needs its whole row."""
        mats, _, _ = generate(SynthSpec(n=600, k=3, dims=(60, 40, 50), missing_rate=0.05,
                                        high_missing_fraction=0.10, seed=23))
        for m in mats:
            values = preprocess.filter_sparse_features(m)[0].values
            _, count, calls = _impute_with_calls(monkeypatch, values, None)
            assert calls == [(2 * preprocess.default_neighbor_count(600), count), (600, 0)]
            assert count > 1000


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
