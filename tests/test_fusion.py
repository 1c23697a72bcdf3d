"""Fusion-step and three-stage schedule tests.

Hand-value matrices are built so every row has a prescribed sorted
off-diagonal profile while staying symmetric: profile (1, 2) is realized
at n = 4 (symmetry forces each value to appear an even number of times,
so n = 3 cannot carry it), and profile (1, 2, 4, 8, 20) at n = 6 through
a round-robin pairing where each round gets one value.
"""

import ast
import inspect
import pickle
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omicsfuse import backend, clustering, fusion, numkernel
from omicsfuse.affinity import affinity_from_distance, euclidean_distance_matrix
from omicsfuse.clustering import Partition, ari, kmeans_pp
from omicsfuse.errors import NumericalFailure
from omicsfuse.fusion import (
    FusionConfig,
    eigenvector_count,
    fuse_affinities,
    gamma_from_neighbors,
    StageRecord,
    step_distance,
    three_stage_fuse,
)
from omicsfuse.numkernel import sym_eig

from oracles import rr_scan_reference


def rekernelized(s, k1=None):
    # how stage 3 turns a fused network back into an affinity, before it
    # normalizes it
    return affinity_from_distance(step_distance([s]), k1)


def stage3_view(s):
    # the row-normalized view stage 3 fuses
    return fusion.row_normalize(rekernelized(s))


def profile_12_matrix():
    # every row's sorted off-diagonal is (1, 2, 9)
    return np.array(
        [
            [0.0, 1.0, 2.0, 9.0],
            [1.0, 0.0, 9.0, 2.0],
            [2.0, 9.0, 0.0, 1.0],
            [9.0, 2.0, 1.0, 0.0],
        ]
    )


def k6_profile_matrix(values=(1.0, 2.0, 4.0, 8.0, 20.0)):
    # round-robin rounds of 6 players: each vertex meets each value once,
    # so every row's sorted off-diagonal is exactly `values`
    rounds = [
        [(0, 5), (1, 4), (2, 3)],
        [(1, 5), (2, 0), (3, 4)],
        [(2, 5), (3, 1), (4, 0)],
        [(3, 5), (4, 2), (0, 1)],
        [(4, 5), (0, 3), (1, 2)],
    ]
    d = np.zeros((6, 6))
    for val, rnd in zip(values, rounds):
        for i, j in rnd:
            d[i, j] = d[j, i] = val
    return d


def random_distance(n, seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def random_affinities(n, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        m = rng.uniform(0.05, 1.0, size=(n, n))
        m = 0.5 * (m + m.T)
        np.fill_diagonal(m, 1.0)
        out.append(m)
    return out


def planted_two_block(n=20):
    labels = np.array([0] * (n // 2) + [1] * (n - n // 2))
    a = np.where(labels[:, None] == labels[None, :], 1.0, 0.01)
    return a, labels


def gamma_brute(d, k2):
    n = d.shape[0]
    total = 0.0
    for j in range(n):
        row = sorted(d[j, i] for i in range(n) if i != j)
        total += sum(row[k2] ** 2 - row[m] ** 2 for m in range(k2))
    return total / n


def rr_brute(d, i):
    n = d.shape[0]
    total = 0.0
    for j in range(n):
        row = sorted(d[j, m] for m in range(n) if m != j)
        # 1-indexed: i * s_{i+1} - sum_{l=2}^{i+1} s_l
        total += (i * row[i] - sum(row[1 : i + 1])) / 2.0
    return total / n


class TestGammaFromNeighbors:
    def test_hand_value_profile_12(self):
        assert gamma_from_neighbors(profile_12_matrix(), 1) == 3.0

    def test_hand_values_k6_profile(self):
        d = k6_profile_matrix()
        assert gamma_from_neighbors(d, 1) == 3.0
        # 2 * 4^2 - (1^2 + 2^2) = 27
        assert gamma_from_neighbors(d, 2) == 27.0

    def test_all_equal_distances_give_exact_zero(self):
        d = np.ones((5, 5)) - np.eye(5)
        for k2 in (1, 2, 3):
            assert gamma_from_neighbors(d, k2) == 0.0

    def test_k2_domain(self):
        d = random_distance(8, 0)
        with pytest.raises(ValueError):
            gamma_from_neighbors(d, 0)
        with pytest.raises(ValueError):
            gamma_from_neighbors(d, 7)
        gamma_from_neighbors(d, 6)  # n - 2 is allowed

    def test_matches_brute_force(self):
        for seed in range(5):
            d = random_distance(12, seed)
            for k2 in (1, 4, 10):
                assert gamma_from_neighbors(d, k2) == pytest.approx(
                    gamma_brute(d, k2), abs=1e-12
                )

    def test_nonnegative_on_metric_distances(self):
        d = random_distance(25, 42)
        for k2 in range(1, 24):
            assert gamma_from_neighbors(d, k2) >= 0.0


class TestRrSelect:
    # the paper's k2 rule, kept as a test reference for the range-top pick

    def test_hand_values_k6_profile(self):
        d = k6_profile_matrix()
        best, scores = rr_scan_reference(d, 2, 4)
        # (2*4 - (2+4))/2 = 1, (3*8 - 14)/2 = 5, (4*20 - 34)/2 = 23
        assert scores.tolist() == [1.0, 5.0, 23.0]
        assert best == 4

        best, scores = rr_scan_reference(d, 2, 2)
        assert best == 2 and scores.tolist() == [1.0]

        best, _ = rr_scan_reference(d, 2, 3)
        assert best == 3

    def test_constant_distances_pick_range_minimum(self):
        d = 3.0 * (np.ones((9, 9)) - np.eye(9))
        best, scores = rr_scan_reference(d, 2, 7)
        assert best == 2
        assert np.all(scores == 0.0)

    def test_matches_brute_force(self):
        for seed in range(4):
            d = random_distance(30, seed + 100)
            best, scores = rr_scan_reference(d, 2, 28)
            brute = np.array([rr_brute(d, i) for i in range(2, 29)])
            np.testing.assert_allclose(scores, brute, atol=1e-12)
            assert best == 2 + int(np.argmax(brute))

    def test_range_validation(self):
        d = random_distance(10, 3)
        with pytest.raises(ValueError):
            rr_scan_reference(d, 5, 4)
        with pytest.raises(ValueError):
            rr_scan_reference(d, 1, 6)
        with pytest.raises(ValueError):
            rr_scan_reference(d, 2, 9)


@st.composite
def dyadic_distance_matrices(draw, distinct):
    # multiples of 1/64 keep every sum in the rr scan and the gap scale
    # exact, so ordering and equality are tested without rounding
    n = draw(st.integers(5, 16))
    m = n * (n - 1) // 2
    if distinct:
        values = draw(st.permutations(range(1, m + 1)))
    else:
        values = draw(st.lists(st.integers(0, 4096), min_size=m, max_size=m))
    d = np.zeros((n, n))
    d[np.triu_indices(n, 1)] = np.asarray(values) / 64.0
    return d + d.T


class TestRrScanOrdering:
    # Why each stage may fuse at the top of its range: on sorted rows
    # rr(i+1) - rr(i) = i * mean_j (s_{j,i+2} - s_{j,i+1}) / 2 >= 0, and a tie
    # makes every row flat from the pick up, which leaves gamma unchanged.

    @settings(max_examples=60, deadline=None, database=None)
    @given(d=dyadic_distance_matrices(distinct=False))
    def test_tied_pick_gives_the_range_top_gamma(self, d):
        n = d.shape[0]
        best, scores = rr_scan_reference(d, 2, n - 2)
        assert np.all(np.diff(scores) >= 0.0)
        assert gamma_from_neighbors(d, best) == gamma_from_neighbors(d, n - 2)

    @settings(max_examples=60, deadline=None, database=None)
    @given(d=dyadic_distance_matrices(distinct=True))
    def test_distinct_distances_select_range_top(self, d):
        n = d.shape[0]
        best, scores = rr_scan_reference(d, 2, n - 2)
        assert np.all(np.diff(scores) > 0.0)
        assert best == n - 2


class TestFuseAffinities:
    def test_single_input_gets_weight_one(self):
        a = random_affinities(10, 1, 0)
        st = fuse_affinities(a, FusionConfig(c=2, gamma=0.7))
        assert st.alpha.shape == (1,)
        assert st.alpha[0] == 1.0

    def test_identical_inputs_get_uniform_weights(self):
        a = random_affinities(12, 1, 5)[0]
        st = fuse_affinities([a, a.copy(), a.copy()], FusionConfig(c=3, gamma=0.5))
        np.testing.assert_allclose(st.alpha, np.full(3, 1.0 / 3.0), atol=1e-9)

    def test_objective_trace_never_increases(self):
        for seed in range(3):
            affs = random_affinities(15, 4, seed)
            st = fuse_affinities(affs, FusionConfig(c=3, gamma=0.8))
            assert np.all(np.diff(st.objective_trace) <= 1e-9)

    def test_alpha_on_simplex(self):
        affs = random_affinities(14, 5, 11)
        st = fuse_affinities(affs, FusionConfig(c=2, gamma=0.4))
        assert np.all(st.alpha >= 0.0)
        assert abs(st.alpha.sum() - 1.0) <= 1e-12

    def test_spectral_factor_is_exact_eigenbasis(self):
        affs = random_affinities(16, 3, 2)
        st = fuse_affinities(affs, FusionConfig(c=4, gamma=0.9))
        gram = st.f.T @ st.f
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-8)
        m = np.eye(16) - 0.5 * (st.s + st.s.T)
        mf = m @ st.f
        residual = mf - st.f @ (st.f.T @ mf)
        assert np.linalg.norm(residual) <= 1e-6

    def test_fused_rows_on_simplex(self):
        affs = random_affinities(13, 3, 9)
        st = fuse_affinities(affs, FusionConfig(c=2, gamma=0.3))
        assert st.s.min() >= 0.0
        np.testing.assert_allclose(st.s.sum(axis=1), np.ones(13), atol=1e-10)

    def test_permutation_equivariance(self):
        affs = random_affinities(12, 3, 21)
        cfg = FusionConfig(c=3, gamma=0.75)
        base = fuse_affinities(affs, cfg)
        rng = np.random.default_rng(77)
        perm = rng.permutation(12)
        permuted = fuse_affinities([a[np.ix_(perm, perm)] for a in affs], cfg)
        np.testing.assert_allclose(permuted.s, base.s[np.ix_(perm, perm)], atol=1e-8)
        np.testing.assert_allclose(permuted.alpha, base.alpha, atol=1e-10)

    def test_bitwise_deterministic(self):
        affs = random_affinities(11, 3, 30)
        cfg = FusionConfig(c=2, gamma=0.45)
        a = fuse_affinities(affs, cfg)
        b = fuse_affinities([m.copy() for m in affs], cfg)
        assert np.array_equal(a.s, b.s)
        assert np.array_equal(a.f, b.f)
        assert np.array_equal(a.alpha, b.alpha)
        assert np.array_equal(a.objective_trace, b.objective_trace)

    def test_planted_two_block_recovery(self):
        a, labels = planted_two_block(20)
        affs = [a.copy() for _ in range(3)]
        d = step_distance(affs)
        gamma = gamma_from_neighbors(d, 18)
        st = fuse_affinities(affs, FusionConfig(c=3, gamma=gamma))
        off_mask = labels[:, None] != labels[None, :]
        assert st.s[off_mask].sum() < 1e-6
        part = kmeans_pp(st.s, 2, seed=0)
        assert ari(part, Partition(labels, 2)) == 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FusionConfig(c=1, gamma=0.5)
        with pytest.raises(ValueError):
            FusionConfig(c=2, gamma=0.0)
        with pytest.raises(ValueError):
            FusionConfig(c=2, gamma=-1.0)

    def test_input_validation(self):
        cfg = FusionConfig(c=2, gamma=0.5)
        with pytest.raises(ValueError):
            fuse_affinities([], cfg)
        with pytest.raises(ValueError):
            fuse_affinities([np.ones((4, 4)), np.ones((5, 5))], cfg)
        bad = np.ones((4, 4))
        bad[0, 1] = np.nan
        with pytest.raises(ValueError):
            fuse_affinities([bad], cfg)
        with pytest.raises(ValueError):
            fuse_affinities([np.ones((3, 3))], FusionConfig(c=4, gamma=0.5))


class TestStepDistanceAndRekernelize:
    def test_step_distance_hand_case(self):
        a = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.25], [0.0, 0.25, 1.0]])
        d = step_distance([a])
        expected = 1.0 - a  # max is 1.0
        np.fill_diagonal(expected, 0.0)
        np.testing.assert_allclose(d, expected, atol=1e-15)

    def test_step_distance_averages_and_symmetrizes(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(0.1, 1.0, size=(6, 6))
        b = rng.uniform(0.1, 1.0, size=(6, 6))
        d = step_distance([a, b])
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        assert d.min() >= 0.0 and d.max() <= 1.0

    def test_rekernelize_gives_affinity(self):
        affs = random_affinities(12, 2, 13)
        st = fuse_affinities(affs, FusionConfig(c=2, gamma=0.5))
        a = rekernelized(st.s, k1=3)
        assert np.array_equal(a, a.T)
        np.testing.assert_allclose(np.diag(a), np.ones(12), atol=0)
        assert a.min() > 0.0 and a.max() <= 1.0

    def test_rekernelize_rejects_nonpositive(self):
        with pytest.raises(NumericalFailure):
            rekernelized(np.zeros((5, 5)))


class TestThreeStage:
    def test_eigenvector_count_rule(self):
        assert eigenvector_count(2) == 3
        assert eigenvector_count(3) == 3
        assert eigenvector_count(4) == 4
        assert eigenvector_count(7) == 7
        with pytest.raises(ValueError):
            eigenvector_count(1)

    def test_identical_inputs_full_schedule(self):
        a, labels = planted_two_block(20)
        intra = [a.copy() for _ in range(3)]
        inter = [a.copy() for _ in range(6)]
        res = three_stage_fuse(intra, inter, cluster_count=2)

        assert res.step3.c == 3
        np.testing.assert_allclose(res.stage1.state.alpha, np.full(3, 1 / 3), atol=1e-9)
        np.testing.assert_allclose(res.stage2.state.alpha, np.full(6, 1 / 6), atol=1e-9)
        # stage-3 scan is (2, 100) clamped to (2, n-2)
        assert [c.k2 for c in res.candidates] == list(range(2, 19))
        assert 2 <= res.selected_k2 <= 18
        chosen = next(c for c in res.candidates if c.k2 == res.selected_k2)
        assert chosen.s is res.s_final
        np.testing.assert_allclose(res.s_final.sum(axis=1), np.ones(20), atol=1e-10)
        assert res.s_final.min() >= 0.0

        part = kmeans_pp(res.s_final, 2, seed=0)
        assert ari(part, Partition(labels, 2)) == 1.0

    def test_stage_k2_is_the_range_cap(self):
        n = 16
        a, _ = planted_two_block(n)
        res = three_stage_fuse([a] * 3, [a] * 6, cluster_count=3)
        assert res.stage1.k2 == min(100, n - 2)
        assert res.stage2.k2 == n - 2
        assert res.selected_k2 == min(100, n - 2)
        assert res.stage1.gamma > 0.0 and res.stage2.gamma > 0.0

        res = three_stage_fuse([a] * 3, [a] * 6, cluster_count=3, stage1_k2_range=(2, 7),
                               stage2_k2_range=(2, 7), stage3_k2_range=(2, 7))
        assert res.stage1.k2 == res.stage2.k2 == res.selected_k2 == 7

    def test_deterministic(self):
        a, _ = planted_two_block(14)
        r1 = three_stage_fuse([a] * 3, [a] * 6, cluster_count=2)
        r2 = three_stage_fuse([a.copy()] * 3, [a.copy()] * 6, cluster_count=2)
        assert r1.selected_k2 == r2.selected_k2
        assert np.array_equal(r1.s_final, r2.s_final)

    def test_wrong_input_counts(self):
        a, _ = planted_two_block(12)
        with pytest.raises(ValueError):
            three_stage_fuse([a] * 2, [a] * 6, cluster_count=2)
        with pytest.raises(ValueError):
            three_stage_fuse([a] * 3, [a] * 5, cluster_count=2)

    def test_stage_labels_on_errors(self):
        a, _ = planted_two_block(12)
        for value in (np.nan, np.inf, -np.inf):
            bad = a.copy()
            bad[0, 1] = value
            with pytest.raises(ValueError, match="stage 1"):
                three_stage_fuse([bad, a, a], [a] * 6, cluster_count=2)
            with pytest.raises(ValueError, match="stage 2"):
                three_stage_fuse([a] * 3, [bad, a, a, a, a, a], cluster_count=2)

    def test_empty_stage3_range(self):
        a, _ = planted_two_block(12)
        with pytest.raises(ValueError, match="stage3_k2"):
            three_stage_fuse([a] * 3, [a] * 6, cluster_count=2, stage3_k2_range=(50, 60))

    def test_too_many_eigenvectors_fail_before_any_fusion(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a fusion ran")

        monkeypatch.setattr(fusion, "fuse_affinities", unreachable)
        a, _ = planted_two_block(4)
        with pytest.raises(ValueError) as err:
            three_stage_fuse([a] * 3, [a] * 6, cluster_count=5)
        assert str(err.value) == "clusters=5 needs 5 eigenvectors, got 4 samples"

    def test_stage3_candidates_match_standalone_fusion(self):
        # the shared uniform-weight start gives each candidate exactly what
        # a standalone fusion of the normalized, re-kernelized stage outputs gives
        n = 16
        res = three_stage_fuse(random_affinities(n, 3, 51), random_affinities(n, 6, 52),
                               cluster_count=3, stage3_k2_range=(2, 7))
        re1 = stage3_view(res.stage1.state.s)
        re2 = stage3_view(res.stage2.state.s)
        assert [c.k2 for c in res.candidates] == list(range(2, 8))
        for cand in res.candidates:
            cfg = FusionConfig(c=res.step3.c, gamma=cand.gamma)
            alone = fuse_affinities([re1, re2], cfg)
            assert np.array_equal(cand.s, alone.s)
            assert np.array_equal(cand.state.objective_trace, alone.objective_trace)

    def test_candidates_fused_on_first_read(self, monkeypatch):
        n = 16
        intra, inter = random_affinities(n, 3, 51), random_affinities(n, 6, 52)
        calls = []
        fuse = fusion.FusionStep.fuse

        def counting_fuse(step, k2, start=None):
            if len(step.affinities) == 2:
                calls.append(k2)
            return fuse(step, k2, start)

        monkeypatch.setattr(fusion.FusionStep, "fuse", counting_fuse)
        res = three_stage_fuse(intra, inter, cluster_count=3, stage3_k2_range=(2, 7))
        assert calls == [res.selected_k2]

        cands = res.candidates
        assert sorted(calls) == list(range(2, 8))
        assert cands[res.selected_k2 - 2] is res.stage3
        assert res.stage3.s is res.s_final
        assert res.candidates is cands
        assert len(calls) == 6

        re1 = stage3_view(res.stage1.state.s)
        re2 = stage3_view(res.stage2.state.s)
        d3 = step_distance([re1, re2])
        assert [c.k2 for c in cands] == list(range(2, 8))
        for cand in cands:
            gamma = max(gamma_from_neighbors(d3, cand.k2), fusion.GAMMA_FLOOR)
            cfg = FusionConfig(c=res.step3.c, gamma=gamma)
            eager = fuse_affinities([re1, re2], cfg)
            assert cand.gamma == gamma
            assert np.array_equal(cand.s, eager.s)
            assert np.array_equal(cand.state.objective_trace, eager.objective_trace)
            assert cand.error is None

    def test_candidate_failures(self, monkeypatch):
        a, _ = planted_two_block(14)
        selected_k2 = three_stage_fuse([a] * 3, [a] * 6, cluster_count=2).selected_k2
        other_k2 = 2 if selected_k2 != 2 else 3

        fuse_step = fusion.FusionStep.fuse

        def fail_at(fail_k2):
            # the fusion config carries no k2, so note each fusion's on entry
            fusing = []

            def step_fuse(step, k2, start=None):
                fusing.append(k2)
                return fuse_step(step, k2, start)

            def fuse(affinities, config, start=None):
                if len(affinities) == 2 and fusing[-1] == fail_k2:
                    raise NumericalFailure("boom")
                return fuse_affinities(affinities, config, start=start)

            monkeypatch.setattr(fusion.FusionStep, "fuse", step_fuse)
            monkeypatch.setattr(fusion, "fuse_affinities", fuse)

        fail_at(selected_k2)
        with pytest.raises(NumericalFailure, match=f"stage 3 candidate k2={selected_k2}: boom"):
            three_stage_fuse([a] * 3, [a] * 6, cluster_count=2)

        fail_at(other_k2)
        res = three_stage_fuse([a] * 3, [a] * 6, cluster_count=2)
        failed = [c for c in res.candidates if c.error is not None]
        assert [c.k2 for c in failed] == [other_k2]
        assert failed[0].s is None and failed[0].error == f"stage 3 candidate k2={other_k2}: boom"

    def test_result_pickles_before_and_after_candidates(self):
        a, _ = planted_two_block(12)
        res = three_stage_fuse([a] * 3, [a] * 6, cluster_count=2)
        copy = pickle.loads(pickle.dumps(res))
        assert np.array_equal(copy.s_final, res.s_final)
        for mine, theirs in zip(res.candidates, copy.candidates):
            assert mine.k2 == theirs.k2 and np.array_equal(mine.s, theirs.s)
        again = pickle.loads(pickle.dumps(res))
        assert [c.k2 for c in again.candidates] == [c.k2 for c in res.candidates]

    def test_candidate_stream_matches_the_list(self):
        n = 16
        intra, inter = random_affinities(n, 3, 51), random_affinities(n, 6, 52)
        streamed = three_stage_fuse(intra, inter, cluster_count=3, stage3_k2_range=(2, 7))
        records = list(streamed.iter_candidates())
        assert "candidates" not in vars(streamed)  # the stream caches nothing
        assert records[-1] is streamed.stage3
        listed = three_stage_fuse(intra, inter, cluster_count=3, stage3_k2_range=(2, 7))
        assert len(records) == len(listed.candidates) == 6
        for mine, theirs in zip(records, listed.candidates):
            assert (mine.k2, mine.gamma, mine.error) == (theirs.k2, theirs.gamma, theirs.error)
            assert np.array_equal(mine.s, theirs.s)
            assert np.array_equal(mine.state.objective_trace, theirs.state.objective_trace)
        # once the list exists, the stream reads it instead of fusing again
        assert all(a is b for a, b in zip(listed.iter_candidates(), listed.candidates))

    def test_failed_candidate_is_recorded(self):
        rec = StageRecord(k2=5, gamma=1.0, state=None, error="boom")
        assert rec.error == "boom" and rec.s is None


def planted_affinities(n, count, seed):
    """``count`` affinities of noisy draws around three planted centers."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=4.0, size=(3, 5))
    labels = np.arange(n) % 3
    return [affinity_from_distance(euclidean_distance_matrix(
        centers[labels] + rng.normal(size=(n, 5)))) for _ in range(count)]


def test_working_set_is_bounded():
    """Beyond its nine inputs, a three-stage fusion holds at most 9.0 n x n
    float64 matrices at once (7.84 at n = 200).  It keeps 6 when it returns:
    S of each stage, the two re-kernelized affinities, and stage 3's sorted
    distances (k2 + 1 columns, half a matrix here).  Each fusion runs in
    three buffers (the mean view, S, and one that holds the S-step target,
    with F F' formed into it, and then -sym(S)) and holds its own start
    S until its first S-step; the simplex projection's scratch is one block
    of 64 rows.  With an n x n buffer for the projection's cumulative sums it
    took 8.3, with a fourth buffer for the new S and stage 3's start kept
    by its step 10.0, with the projection's two arrays of its own 12.0, and
    with a new array for every temporary 16.4."""
    n = 200
    intra, inter = planted_affinities(n, 3, 1), planted_affinities(n, 6, 2)
    sym_eig(np.eye(3), 1)  # imports scipy.linalg before tracing starts
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = three_stage_fuse(intra, inter, cluster_count=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.stage3.state.converged
    assert (peak - base) / (n * n * 8) < 9.0


def test_inputs_are_left_alone():
    """A three-stage fusion and its candidates write no bit of their inputs,
    so inter views that share one buffer, as a directed pair and its reverse
    do, stay what they were."""
    n = 24
    intra, forward = planted_affinities(n, 3, 5), planted_affinities(n, 3, 6)
    inter = [a for a in forward for _ in range(2)]  # each reverse view is the forward array
    before = [a.tobytes() for a in intra + forward]
    res = three_stage_fuse(intra, inter, cluster_count=3, stage3_k2_range=(2, 8))
    list(res.iter_candidates())
    assert [a.tobytes() for a in intra + forward] == before


def test_twin_views_fuse_as_three_networks():
    """Stage 2's six views are three networks, each given twice.  At
    uniform weights, fusing the six gives the gamma, sweeps, S, pair-summed
    alpha and objective of fusing the three."""
    n = 40
    three = planted_affinities(n, 3, 2)
    six = [a for a in three for _ in range(2)]  # each reverse view is the forward array
    k2 = n - 2  # the top of stage 2's default range
    got = fusion._fusion_step(six, 3, "six", k2).fuse(k2)
    ref = fusion._fusion_step(three, 3, "three", k2).fuse(k2)
    assert got.gamma == ref.gamma
    assert len(got.state.objective_trace) == len(ref.state.objective_trace)
    np.testing.assert_allclose(got.s, ref.s, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(got.state.alpha.reshape(3, 2).sum(axis=1), ref.state.alpha,
                               rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(got.state.objective_trace, ref.state.objective_trace, rtol=1e-12)


def test_no_network_aliases_a_reused_buffer(monkeypatch):
    """The S of every stage and of every candidate is its own array, and
    fusing more candidates changes neither them nor the candidates' shared
    start."""
    n = 24
    res = three_stage_fuse(planted_affinities(n, 3, 3), planted_affinities(n, 6, 4),
                           cluster_count=3, stage3_k2_range=(2, 8))
    starts, uniform_start = [], fusion._uniform_start

    def kept_start(*args):
        starts.append(uniform_start(*args))
        return starts[-1]

    monkeypatch.setattr(fusion, "_uniform_start", kept_start)
    kept = []
    for cand in res.iter_candidates():
        if not kept:
            mean, start = starts[0][0], starts[0][2]
            mean_before, start_before = mean.copy(), start.copy()
            networks = [res.stage1.s, res.stage2.s, mean, start]
        networks.append(cand.s)
        kept.append((cand.s, cand.s.copy()))
    assert len(starts) == 1
    for i, a in enumerate(networks):
        for b in networks[i + 1:]:
            assert not np.shares_memory(a, b)
    assert np.array_equal(mean, mean_before) and np.array_equal(start, start_before)
    for s, copy in kept:
        assert np.array_equal(s, copy)


def test_each_start_lives_only_while_it_is_used(monkeypatch):
    """Stages 1 and 2 and the selected stage-3 network each build their own
    start, and none is alive once ``three_stage_fuse`` returns.  The
    candidates below the selected k2 share one start, which lives only while
    ``iter_candidates`` runs, and is not built when there are none."""
    starts, uniform_start = [], fusion._uniform_start

    def watched(*args):
        start = uniform_start(*args)  # (mean, quad, S, F, tr)
        starts.append([weakref.ref(start[i]) for i in (0, 2, 3)])
        return start

    def alive():
        return [ref() is not None for arrays in starts for ref in arrays]

    monkeypatch.setattr(fusion, "_uniform_start", watched)
    n = 24
    intra, inter = planted_affinities(n, 3, 3), planted_affinities(n, 6, 4)
    res = three_stage_fuse(intra, inter, cluster_count=3, stage3_k2_range=(2, 8))
    assert len(starts) == 3 and not any(alive())
    stream = res.iter_candidates()
    records = [next(stream), next(stream)]
    assert len(starts) == 4 and alive() == [False] * 9 + [True] * 3
    records += list(stream)
    assert len(starts) == 4 and not any(alive())
    assert [r.k2 for r in records] == list(range(2, 9)) and records[-1] is res.stage3

    del starts[:]
    res = three_stage_fuse(intra, inter, cluster_count=3, stage3_k2_range=(8, 8))
    assert list(res.iter_candidates()) == [res.stage3]
    assert len(starts) == 3 and not any(alive())


def test_the_candidates_share_one_mean_view(monkeypatch):
    """The candidates below the selected k2 share one start, so the
    stage-3 mean view is formed once for all of them."""
    n = 24
    res = three_stage_fuse(planted_affinities(n, 3, 3), planted_affinities(n, 6, 4),
                           cluster_count=3, stage3_k2_range=(2, 8))
    calls, mean_view = [], fusion._mean_view

    def counted(affs):
        calls.append(len(affs))
        return mean_view(affs)

    monkeypatch.setattr(fusion, "_mean_view", counted)
    assert len(list(res.iter_candidates())) == 7
    assert calls == [2]


@pytest.mark.parametrize("n", [24, 150])
@pytest.mark.parametrize("c", [3, 5])
def test_the_f_step_eigenvalues_give_the_trace_term(n, c):
    """c plus the F-step's eigenvalue sum is tr(F' (I - S) F) =
    <F, F> - <F F', S> for a row-stochastic S that is not symmetric, within
    64 c eps (the gap measured up to n = 600 is below 4e-15), and S is left
    alone."""
    rng = np.random.default_rng(n + c)
    s = rng.uniform(size=(n, n))
    s /= s.sum(axis=1, keepdims=True)
    before = s.copy()
    f, trace_term = fusion._f_step(np.empty_like(s), s, c)
    direct = np.einsum("ij,ij->", f, f) - np.einsum("ij,ij->", f @ f.T, s)
    assert abs(trace_term - direct) <= 64 * c * np.finfo(float).eps
    assert np.array_equal(s, before)


# functions the stage-3 candidate loop runs: the fusion, its simplex
# projection and eigensolve, and the k2 sweep's k-means
SINGLE_POOL_FUNCTIONS = {
    fusion: ("fuse_affinities", "_objective", "_mean_view", "_f_step", "_uniform_start"),
    numkernel: ("sym_eig",),
    backend: ("project_rows", "sym_into", "lloyd", "_assign", "_sq_dists_to"),
    clustering: ("_dsq_seed",),
}
NUMPY_BLAS_NAMES = {"vdot", "dot", "matmul", "linalg"}


def test_fusion_loop_makes_no_numpy_blas_call():
    # scipy's eigensolver runs its own OpenBLAS pool; a numpy BLAS call in
    # the loop makes the two pools contend for the cores
    funcs = []
    for module, names in SINGLE_POOL_FUNCTIONS.items():
        found = [node for node in ast.walk(ast.parse(inspect.getsource(module)))
                 if isinstance(node, ast.FunctionDef) and node.name in names]
        assert sorted(f.name for f in found) == sorted(names), module.__name__
        funcs += found
    for func in funcs:
        for node in ast.walk(func):
            assert not isinstance(getattr(node, "op", None), ast.MatMult), (
                f"{func.name}: '@' at line {node.lineno}")
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "np"):
                assert node.attr not in NUMPY_BLAS_NAMES, (
                    f"{func.name}: np.{node.attr} at line {node.lineno}")
