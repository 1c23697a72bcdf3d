"""Canonical correlations against the dense covariance-product oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omicsfuse import cca
from omicsfuse.cca import (
    FORWARD_PAIRS,
    CcaResult,
    all_directed_pair_distances,
    canonical_distance_matrix,
    cca_fit,
)
from omicsfuse.errors import AlignmentError, DegenerateInputError
from omicsfuse.preprocess import OmicsMatrix


def cca_corr_oracle(x, y):
    """Canonical correlations as sqrt eigenvalues of
    Sxx^-1 Sxy Syy^-1 Syx on centered blocks (dense, unregularized)."""
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    sxx = xc.T @ xc
    syy = yc.T @ yc
    sxy = xc.T @ yc
    prod = np.linalg.solve(sxx, sxy) @ np.linalg.solve(syy, sxy.T)
    eigs = np.linalg.eigvals(prod).real
    eigs = np.clip(eigs, 0.0, 1.0)
    return np.sort(np.sqrt(eigs))[::-1]


def make_omics(values, kind, ids=None):
    values = np.asarray(values, dtype=np.float64)
    n, p = values.shape
    return OmicsMatrix(
        values=values,
        sample_ids=ids if ids is not None else [f"s{i}" for i in range(n)],
        feature_ids=[f"{kind}_{j}" for j in range(p)],
        kind=kind,
    )


class TestCcaFit:
    def test_identical_blocks_correlate_fully(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(25, 4))
        res = cca_fit(x, x.copy())
        assert res.rank == 4
        assert np.allclose(res.correlations, 1.0, atol=1e-8)

    def test_rotation_invariant(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(30, 3))
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        res = cca_fit(x, x @ q)
        assert np.allclose(res.correlations, 1.0, atol=1e-8)

    def test_matches_covariance_product_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(100):
            n = 20
            p = int(rng.integers(2, 7))
            q = int(rng.integers(2, 6))
            x = rng.normal(size=(n, p))
            y = 0.5 * x[:, : min(p, q)] @ rng.normal(size=(min(p, q), q)) + rng.normal(
                size=(n, q)
            )
            res = cca_fit(x, y)
            oracle = cca_corr_oracle(x, y)
            assert np.allclose(res.correlations, oracle[: res.rank], atol=1e-8)

    def test_variate_correlations_equal_reported(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(40, 5))
        y = x @ rng.normal(size=(5, 4)) + 0.3 * rng.normal(size=(40, 4))
        res = cca_fit(x, y)
        for i in range(res.rank):
            wx = res.x_variates[:, i]
            wy = res.y_variates[:, i]
            corr = np.corrcoef(wx, wy)[0, 1]
            assert corr == pytest.approx(res.correlations[i], abs=1e-8)
        # variates within a block are mutually uncorrelated
        gram = res.x_variates.T @ res.x_variates
        assert np.allclose(gram, np.eye(res.rank), atol=1e-8)

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(25, 3))
        y = rng.normal(size=(25, 4))
        res1 = cca_fit(x, y)
        res2 = cca_fit(x * 7.5 + 3.0, y)
        assert np.allclose(res1.correlations, res2.correlations, atol=1e-8)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            cca_fit(np.ones((2, 2)), np.ones((2, 2)))

    def test_zero_variance_block(self):
        rng = np.random.default_rng(6)
        with pytest.raises(DegenerateInputError):
            cca_fit(np.full((10, 3), 2.0), rng.normal(size=(10, 3)))

    def test_all_ones_response(self):
        # constant response block carries no variance
        rng = np.random.default_rng(7)
        with pytest.raises(DegenerateInputError):
            cca_fit(rng.normal(size=(20, 4)), np.ones((20, 3)))


class TestCanonicalDistance:
    def test_hand_case(self):
        res = CcaResult(
            x_variates=np.array([[0.0, 0.0], [3.0, 4.0]]),
            y_variates=np.array([[0.0], [0.0]]),
            correlations=np.array([1.0, 1.0]),
            rank=2,
        )
        d = canonical_distance_matrix(res)
        assert d[0, 1] == pytest.approx(5.0)
        assert d[0, 0] == 0.0 and d[1, 0] == pytest.approx(5.0)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(15, 4))
        y = x + 0.1 * rng.normal(size=(15, 4))
        d = canonical_distance_matrix(cca_fit(x, y))
        n = d.shape[0]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


@st.composite
def block_pairs(draw):
    """Two sample-aligned blocks: random, rank-deficient (columns that are
    combinations of fewer factors) or wider than they are tall."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(4, 30))
    blocks = []
    for _ in range(2):
        p = draw(st.integers(1, n + 10))  # p > n is drawn too
        rank = draw(st.integers(1, p))  # rank < p: a rank-deficient block
        blocks.append(rng.normal(size=(n, rank)) @ rng.normal(size=(rank, p)))
    shared = draw(st.floats(0.0, 2.0))  # a common signal gives nonzero correlations
    z = rng.normal(size=(n, 1))
    return [b + shared * z for b in blocks]


@settings(max_examples=150, deadline=None, database=None)
@given(block_pairs())
def test_reverse_fit_gives_the_same_distances(blocks):
    """CCA is symmetric in its blocks: the swapped fit's variates are the
    same up to block order and a rotation within each block, so the
    canonical distances agree to rounding."""
    x, y = blocks
    forward = canonical_distance_matrix(cca_fit(x, y))
    reverse = canonical_distance_matrix(cca_fit(y, x))
    assert forward.shape == reverse.shape
    assert np.max(np.abs(forward - reverse)) <= 1e-12 * np.max(forward)


class TestDirectedPairs:
    def three_omics(self, seed=9, n=20):
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(n, 3))
        ge = make_omics(np.hstack([base + 0.1 * rng.normal(size=(n, 3)), rng.normal(size=(n, 2))]), "gene_expression")
        mi = make_omics(base @ rng.normal(size=(3, 4)) + 0.2 * rng.normal(size=(n, 4)), "mirna")
        me = make_omics(base @ rng.normal(size=(3, 3)) + 0.2 * rng.normal(size=(n, 3)), "methylation")
        return [ge, mi, me]

    def test_three_in_forward_pairs_order(self):
        pairs = all_directed_pair_distances(self.three_omics())
        assert [label for label, _ in pairs] == [f"{p}__to__{r}" for p, r in FORWARD_PAIRS]

    def test_each_block_whitened_once(self, monkeypatch):
        """Three whitenings and three fits; each pair's distances are a
        standalone fit's bit for bit."""
        omics = self.three_omics()
        by_kind = {m.kind: m for m in omics}
        whitened, fitted = [], []
        whiten, fit = cca._center_and_whiten, cca._fit_whitened

        def counting_whiten(block, name):
            whitened.append(name)
            return whiten(block, name)

        def counting_fit(ux, uy):
            fitted.append((ux, uy))
            return fit(ux, uy)

        monkeypatch.setattr(cca, "_center_and_whiten", counting_whiten)
        monkeypatch.setattr(cca, "_fit_whitened", counting_fit)
        pairs = all_directed_pair_distances(omics)
        assert sorted(whitened) == ["gene_expression", "methylation", "mirna"]
        assert len(fitted) == 3
        for (p, r), (_, d) in zip(FORWARD_PAIRS, pairs):
            alone = cca_fit(by_kind[p].values, by_kind[r].values)
            assert np.array_equal(d, canonical_distance_matrix(alone))

    def test_misaligned_samples_raise(self):
        omics = self.three_omics()
        bad = OmicsMatrix(
            values=omics[1].values,
            sample_ids=[f"zz{i}" for i in range(omics[1].n_samples)],
            feature_ids=omics[1].feature_ids,
            kind="mirna",
        )
        with pytest.raises(AlignmentError) as err:
            all_directed_pair_distances([omics[0], bad, omics[2]])
        assert "zz0" in str(err.value)

    def test_permuted_order_raises(self):
        omics = self.three_omics()
        ids = list(reversed(omics[2].sample_ids))
        bad = OmicsMatrix(
            values=omics[2].values,
            sample_ids=ids,
            feature_ids=omics[2].feature_ids,
            kind="methylation",
        )
        with pytest.raises(AlignmentError):
            all_directed_pair_distances([omics[0], omics[1], bad])

    def test_non_canonical_kinds_raise(self):
        ge, mi, me = self.three_omics()
        other = OmicsMatrix(me.values, me.sample_ids, me.feature_ids, "other")
        for omics in ([ge, mi, other], [ge, mi, mi], [ge, mi], [ge, mi, me, other]):
            with pytest.raises(ValueError, match="expected one matrix of each kind"):
                all_directed_pair_distances(omics)
