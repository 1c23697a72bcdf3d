import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omicsfuse import clustering
from omicsfuse.clustering import Partition, ari, kmeans_pp, nmi, sweep_k2_metrics
from omicsfuse.fusion import FusionState, StageRecord

from oracles import ari_brute, dsq_seed_dgemv, nmi_brute


def random_partition_pair(rng, n_max=12):
    n = int(rng.integers(2, n_max + 1))
    ka = int(rng.integers(1, n + 1))
    kb = int(rng.integers(1, n + 1))
    # force every cluster nonempty by seeding one point per cluster
    la = np.concatenate([np.arange(ka), rng.integers(0, ka, size=n - ka)])
    lb = np.concatenate([np.arange(kb), rng.integers(0, kb, size=n - kb)])
    rng.shuffle(la)
    rng.shuffle(lb)
    return Partition(la, ka), Partition(lb, kb)


class TestPartition:
    def test_from_labels_renumbers(self):
        p = Partition.from_labels(["b", "a", "b", "c"])
        assert p.k == 3
        assert p.labels.tolist() == [1, 0, 1, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            Partition(np.array([0, 2]), 3)  # cluster 1 empty
        with pytest.raises(ValueError):
            Partition(np.array([0, -1]), 2)
        with pytest.raises(ValueError):
            Partition(np.array([0, 1]), 1)
        with pytest.raises(ValueError):
            Partition(np.array([], dtype=int), 1)

    def test_n(self):
        assert Partition(np.array([0, 1, 0]), 2).n == 3


class TestAri:
    def test_identical_partitions(self):
        p = Partition(np.array([0, 0, 1, 1, 2]), 3)
        assert ari(p, p) == 1.0

    def test_renamed_partition_still_one(self):
        a = Partition(np.array([0, 0, 1, 1]), 2)
        b = Partition(np.array([1, 1, 0, 0]), 2)
        assert ari(a, b) == 1.0

    def test_crossing_partitions_hand_value(self):
        # A={{1,2},{3,4}}, B={{1,3},{2,4}}: pair counts a=0, b=2, c=2, d=2
        # -> 2(0*2 - 2*2) / ((0+2)(2+2) + (0+2)(2+2)) = -8/16 = -0.5
        a = Partition(np.array([0, 0, 1, 1]), 2)
        b = Partition(np.array([0, 1, 0, 1]), 2)
        assert ari(a, b) == pytest.approx(-0.5, abs=1e-12)
        assert ari(a, b) == pytest.approx(ari_brute(a.labels, b.labels), abs=1e-15)

    def test_singletons_vs_one_cluster_zero(self):
        a = Partition(np.arange(6), 6)
        b = Partition(np.zeros(6, dtype=int), 1)
        assert abs(ari(a, b)) <= 1e-12
        assert abs(ari_brute(a.labels, b.labels)) <= 1e-12

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            a, b = random_partition_pair(rng)
            expected = ari_brute(a.labels, b.labels)
            assert ari(a, b) == pytest.approx(expected, abs=1e-12)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            a, b = random_partition_pair(rng)
            va, vb = ari(a, b), ari(b, a)
            assert va == pytest.approx(vb, abs=1e-15)
            assert -1.0 <= va <= 1.0

    def test_length_mismatch(self):
        a = Partition(np.array([0, 1]), 2)
        b = Partition(np.array([0, 1, 0]), 2)
        with pytest.raises(ValueError):
            ari(a, b)


class TestNmi:
    def test_identical_partitions(self):
        p = Partition(np.array([0, 1, 1, 2, 2, 2]), 3)
        assert nmi(p, p) == pytest.approx(1.0, abs=1e-12)

    def test_crossing_partitions_zero(self):
        # all four joint cells equal -> zero mutual information
        a = Partition(np.array([0, 0, 1, 1]), 2)
        b = Partition(np.array([0, 1, 0, 1]), 2)
        assert abs(nmi(a, b)) <= 1e-12

    def test_both_single_cluster_is_one(self):
        a = Partition(np.zeros(5, dtype=int), 1)
        assert nmi(a, a) == 1.0

    def test_one_single_cluster_is_zero(self):
        a = Partition(np.zeros(6, dtype=int), 1)
        b = Partition(np.array([0, 0, 1, 1, 2, 2]), 3)
        assert nmi(a, b) == 0.0
        assert nmi(b, a) == 0.0

    def test_independent_labels_near_zero(self):
        rng = np.random.default_rng(55)
        n = 3000
        a = Partition.from_labels(rng.integers(0, 3, size=n))
        b = Partition.from_labels(rng.integers(0, 4, size=n))
        assert nmi(a, b) <= 0.05

    def test_matches_brute_force(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            a, b = random_partition_pair(rng)
            expected = nmi_brute(a.labels, b.labels)
            assert nmi(a, b) == pytest.approx(expected, abs=1e-12)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            a, b = random_partition_pair(rng)
            va, vb = nmi(a, b), nmi(b, a)
            assert va == pytest.approx(vb, abs=1e-12)
            assert -1e-12 <= va <= 1.0 + 1e-12


@st.composite
def relabelled_pairs(draw):
    """Two labelings of n samples, each also under a permutation of its
    label values."""
    n = draw(st.integers(2, 30))
    labelings = [np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
                 for _ in range(2)]
    perms = [np.array(draw(st.permutations(range(5)))) for _ in range(2)]
    return [(Partition.from_labels(lab), Partition.from_labels(perm[lab]))
            for lab, perm in zip(labelings, perms)]


@settings(max_examples=100, deadline=None, database=None)
@given(relabelled_pairs())
def test_ari_nmi_symmetric_and_relabelling_invariant(pairs):
    (a, a_relabelled), (b, b_relabelled) = pairs
    for metric in (ari, nmi):
        value = metric(a, b)
        assert metric(b, a) == pytest.approx(value, rel=0.0, abs=1e-12)
        assert metric(a_relabelled, b) == pytest.approx(value, rel=0.0, abs=1e-12)
        assert metric(a, b_relabelled) == pytest.approx(value, rel=0.0, abs=1e-12)


class TestKmeansPp:
    def test_single_cluster(self):
        pts = np.random.default_rng(0).normal(size=(8, 3))
        part = kmeans_pp(pts, 1, seed=0)
        assert part.k == 1
        assert np.all(part.labels == 0)

    def test_all_singletons(self):
        pts = np.arange(6, dtype=float).reshape(6, 1) * 10.0
        part = kmeans_pp(pts, 6, seed=0)
        assert part.k == 6
        assert len(set(part.labels.tolist())) == 6

    def test_two_distant_blobs(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0.0, 1.0, size=(30, 4))
        b = rng.normal(20.0, 1.0, size=(30, 4))
        pts = np.vstack([a, b])
        truth = Partition(np.array([0] * 30 + [1] * 30), 2)
        part = kmeans_pp(pts, 2, seed=1)
        assert ari(part, truth) == 1.0

    def test_three_blobs(self):
        rng = np.random.default_rng(8)
        blobs = [rng.normal(c, 0.5, size=(20, 3)) for c in (0.0, 15.0, 30.0)]
        pts = np.vstack(blobs)
        truth = Partition(np.repeat(np.arange(3), 20), 3)
        part = kmeans_pp(pts, 3, seed=4)
        assert ari(part, truth) == 1.0

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(40, 5))
        p1 = kmeans_pp(pts, 4, seed=123)
        p2 = kmeans_pp(pts.copy(), 4, seed=123)
        assert np.array_equal(p1.labels, p2.labels)

    def test_no_empty_clusters_with_duplicates(self):
        # more clusters than distinct points forces the repair path, in the
        # final assignment too
        pts = np.array([[0.0], [0.0], [0.0], [5.0], [5.0], [9.0]])
        part = kmeans_pp(pts, 3, seed=2)
        assert np.unique(part.labels).size == 3
        for pts, k, seed, want in ((pts, 4, 2, [3, 1, 1, 2, 2, 0]),
                                   (np.array([[0.3], [0.3]]), 2, 0, [1, 0]),
                                   (np.zeros((5, 2)), 3, 0, [1, 2, 0, 0, 0])):
            assert kmeans_pp(pts, k, seed=seed).labels.tolist() == want

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), p=st.integers(1, 8),
           distinct=st.integers(1, 60), k=st.integers(1, 6), scale=st.sampled_from([1e-3, 1.0, 1e3]))
    @settings(max_examples=100, deadline=None, database=None)
    def test_seeding_partitions_match_the_dgemv_oracle(self, seed, n, p, distinct, k, scale):
        """Seeding through Lloyd's distance kernel gives the partitions of the
        dgemv seeding it replaced, though the distance bits differ; rows
        drawn from fewer distinct points than there are rows repeat.  With
        more clusters than distinct points, the seedings pick among
        coincident points by rounding noise and the restarts tie in WCSS up
        to rounding, so there both only return k nonempty clusters."""
        rng = np.random.default_rng(seed)
        base = rng.normal(scale=scale, size=(min(distinct, n), p))
        pts = base[rng.integers(base.shape[0], size=n)]
        pts[: base.shape[0]] = base
        k = min(k, n)
        got = kmeans_pp(pts, k, seed=seed % 7)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(clustering, "_dsq_seed", dsq_seed_dgemv)
            want = kmeans_pp(pts, k, seed=seed % 7)
        if k <= base.shape[0]:
            assert np.array_equal(got.labels, want.labels)
        assert got.k == want.k == k  # Partition checks that no cluster is empty

    def test_k_bounds(self):
        pts = np.zeros((4, 2))
        with pytest.raises(ValueError):
            kmeans_pp(pts, 5, seed=0)
        with pytest.raises(ValueError):
            kmeans_pp(pts, 0, seed=0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            kmeans_pp(np.array([1.0, 2.0]), 1, seed=0)
        bad = np.zeros((4, 2))
        bad[1, 1] = np.inf
        with pytest.raises(ValueError):
            kmeans_pp(bad, 2, seed=0)


class TestSweep:
    def _candidates(self):
        rng = np.random.default_rng(5)
        labels = np.repeat(np.arange(2), 8)
        s = np.where(labels[:, None] == labels[None, :], 0.12, 0.001)
        s = s / s.sum(axis=1, keepdims=True)

        def fused(k2, s):
            state = FusionState(s=s, f=None, alpha=None, objective_trace=np.zeros(4),
                                converged=True)
            return StageRecord(k2=k2, gamma=1.0, state=state)

        good = fused(2, s)
        noisy = fused(3, rng.uniform(size=(16, 16)))
        failed = StageRecord(k2=4, gamma=1.0, state=None, error="diverged")
        return [good, noisy, failed], Partition(labels, 2)

    def test_one_row_per_candidate_and_errors_kept(self):
        cands, truth = self._candidates()
        rows = sweep_k2_metrics(cands, truth, truth.k, "network")
        assert [r.k2 for r in rows] == [2, 3, 4]
        assert [r.gamma for r in rows] == [1.0, 1.0, 1.0]
        assert rows[0].ari == 1.0 and rows[0].nmi == pytest.approx(1.0, abs=1e-12)
        # the last objective value and iteration count of each fusion
        assert (rows[0].objective, rows[0].n_iter) == (0.0, 3)
        assert rows[2].error == "diverged"
        assert np.isnan(rows[2].ari) and np.isnan(rows[2].objective) and rows[2].n_iter == 0

    def test_sweep_does_not_abort_on_bad_candidate(self):
        cands, truth = self._candidates()
        # candidate with non-finite entries triggers a recorded error, not a raise
        cands[1].s = np.full((16, 16), np.nan)
        rows = sweep_k2_metrics(cands, truth, truth.k, "network")
        assert len(rows) == 3
        assert rows[1].error is not None and "3" in rows[1].error

    def test_an_unknown_cluster_input_is_an_error_in_place(self):
        cands, truth = self._candidates()
        rows = sweep_k2_metrics(cands, truth, truth.k, "rows")
        assert [r.error for r in rows] == [
            "k2=2: cluster_on must be one of ('network', 'spectral'), got 'rows'",
            "k2=3: cluster_on must be one of ('network', 'spectral'), got 'rows'",
            "diverged"]

    def test_deterministic(self):
        cands, truth = self._candidates()
        r1 = sweep_k2_metrics(cands, truth, truth.k, "network", seed=9)
        r2 = sweep_k2_metrics(cands, truth, truth.k, "network", seed=9)
        assert [(r.k2, r.ari, r.nmi) for r in r1] == [(r.k2, r.ari, r.nmi) for r in r2]
