"""Acceptance gate: one test per shipping criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines;
each test also enforces its runtime budget where one applies.
"""

import time

import numpy as np
import pytest

from omicsfuse.affinity import affinity_from_distance
from omicsfuse.cca import cca_fit
from omicsfuse.cli import main as cli_main
from omicsfuse.clustering import Partition, ari, kmeans_pp, nmi
from omicsfuse.fusion import (
    FusionConfig,
    fuse_affinities,
    gamma_from_neighbors,
    step_distance,
)
from omicsfuse.pipeline import PipelineConfig, run_pipeline
from omicsfuse.preprocess import (
    OmicsMatrix,
    PowerTransformParams,
    apply_power_transform,
    fit_power_transform,
)
from omicsfuse.survival import SIGNIFICANCE_NEG_LOG10_P, SurvivalRecord, logrank_test
from omicsfuse.synthgen import SynthSpec, generate

from oracles import (
    ari_brute,
    logrank_chi2_oracle,
    logrank_chi2_two_group_batch,
    logrank_permutation_p_fast,
    nmi_brute,
)

E2E_SPEC = SynthSpec(n=150, k=3, dims=(60, 40, 50), separation=8.0,
                     missing_rate=0.05, high_missing_fraction=0.10, seed=23)
E2E_CONFIG = PipelineConfig(clusters=3, seed=0)


@pytest.fixture(scope="module")
def e2e_run():
    mats, labels, recs = generate(E2E_SPEC)
    start = time.perf_counter()
    result = run_pipeline(mats, recs, labels, E2E_CONFIG)
    return result, time.perf_counter() - start


def _random_partition(rng, n):
    k = int(rng.integers(1, min(n, 4) + 1))
    labels = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
    rng.shuffle(labels)
    return labels


def test_c1_metric_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst_ari = worst_nmi = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 13))
        la, lb = _random_partition(rng, n), _random_partition(rng, n)
        pa, pb = Partition.from_labels(la), Partition.from_labels(lb)
        worst_ari = max(worst_ari, abs(ari(pa, pb) - ari_brute(la, lb)))
        worst_nmi = max(worst_nmi, abs(nmi(pa, pb) - nmi_brute(la, lb)))
    elapsed = time.perf_counter() - start
    assert worst_ari <= 1e-12 and worst_nmi <= 1e-12
    assert elapsed < 10.0
    print(f"\nPASS metric oracle equivalence: 500 pairs, "
          f"max ARI diff {worst_ari:.2e}, max NMI diff {worst_nmi:.2e}, "
          f"{elapsed:.1f}s")


def _cca_corr_oracle(x, y):
    # eigenvalues of inv(Sxx) Sxy inv(Syy) Syx on centered blocks
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    sxx, syy = xc.T @ xc, yc.T @ yc
    sxy = xc.T @ yc
    m = np.linalg.solve(sxx, sxy) @ np.linalg.solve(syy, sxy.T)
    vals = np.sort(np.linalg.eigvals(m).real)[::-1]
    return np.sqrt(np.clip(vals, 0.0, 1.0))


def test_c2_cca_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        p, q = int(rng.integers(1, 7)), int(rng.integers(1, 6))
        x = rng.normal(size=(20, p))
        y = rng.normal(size=(20, q))
        got = cca_fit(x, y).correlations
        want = _cca_corr_oracle(x, y)[: min(p, q)]
        assert got.shape == want.shape
        worst = max(worst, float(np.max(np.abs(got - want), initial=0.0)))
    assert worst <= 1e-8
    x = rng.normal(size=(20, 4))
    self_corr = cca_fit(x, x).correlations
    assert np.allclose(self_corr, 1.0, atol=1e-8)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\nPASS cca oracle equivalence: 100 instances, max corr diff "
          f"{worst:.2e}, identical blocks give all-ones, {elapsed:.1f}s")


def test_c3_kernel_spot_values():
    a = affinity_from_distance(np.array([[0.0, 1.0], [1.0, 0.0]]), k1=1)
    assert abs(a[0, 1] - np.exp(-1.0)) <= 1e-12

    m = OmicsMatrix(values=np.array([[-1.0]]), sample_ids=["s0"],
                    feature_ids=["f0"], kind="other")
    params = PowerTransformParams(method="yeo_johnson",
                                  lambdas=np.array([2.0]), feature_ids=["f0"])
    yj = apply_power_transform(m, params).values[0, 0]
    assert abs(yj - (-np.log(2.0))) <= 1e-12

    # symmetric matrix whose sorted off-diagonal rows all start (1, 2)
    profile = np.array([
        [0.0, 1.0, 2.0, 9.0],
        [1.0, 0.0, 9.0, 2.0],
        [2.0, 9.0, 0.0, 1.0],
        [9.0, 2.0, 1.0, 0.0],
    ])
    assert gamma_from_neighbors(profile, 1) == 3.0
    print("\nPASS kernel spot values: affinity(d=1,s=1)=1/e, "
          "power transform(-1; 2)=-log 2, neighborhood gap((1,2); 1)=3")


def test_c4_fusion_soundness(e2e_run):
    rng = np.random.default_rng(99)
    checked = 0

    def check_state(st):
        nonlocal checked
        diffs = np.diff(st.objective_trace)
        assert np.all(diffs <= 1e-9)
        assert abs(st.alpha.sum() - 1.0) <= 1e-10 and (st.alpha >= -1e-10).all()
        assert np.all(np.abs(st.s.sum(axis=1) - 1.0) <= 1e-10)
        assert (st.s >= -1e-10).all()
        gram = st.f.T @ st.f
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-8
        checked += 1

    for num_views, n, c in [(1, 8, 2), (2, 15, 2), (3, 15, 3), (5, 24, 3),
                            (3, 24, 2), (2, 8, 3)]:
        affs = []
        for _ in range(num_views):
            base = rng.random((n, n))
            a = 0.5 * (base + base.T)
            np.fill_diagonal(a, 0.0)
            affs.append(a)
        d = step_distance(affs)
        k2 = n - 2
        gamma = max(gamma_from_neighbors(d, k2), 1e-8)
        check_state(fuse_affinities(affs, FusionConfig(c=c, gamma=gamma)))

    result, _ = e2e_run
    for stage in (result.fusion.stage1, result.fusion.stage2):
        check_state(stage.state)

    same = np.ones((10, 10)) - np.eye(10)
    st = fuse_affinities([same.copy() for _ in range(4)],
                         FusionConfig(c=2, gamma=0.5))
    assert np.max(np.abs(st.alpha - 0.25)) <= 1e-9
    check_state(st)
    print(f"\nPASS fusion soundness: {checked} runs with non-increasing "
          "objective, simplex weights/rows, orthonormal factors; "
          "identical inputs give uniform weights")


def test_c5_planted_block_recovery():
    start = time.perf_counter()
    n = 20
    labels = np.array([0] * 10 + [1] * 10)
    block = np.where(labels[:, None] == labels[None, :], 1.0, 0.01)
    affs = [block.copy(), block.copy()]
    d = step_distance(affs)
    k2 = n - 2
    gamma = gamma_from_neighbors(d, k2)
    st = fuse_affinities(affs, FusionConfig(c=2, gamma=gamma))
    off_mass = st.s[labels[:, None] != labels[None, :]].sum()
    assert off_mass < 1e-6
    part = kmeans_pp(st.s, 2, seed=0)
    score = ari(part, Partition(labels, 2))
    elapsed = time.perf_counter() - start
    assert score == 1.0
    assert elapsed < 5.0
    print(f"\nPASS planted block recovery: off-block mass {off_mass:.1e}, "
          f"ARI {score}, {elapsed:.1f}s")


def test_c6_end_to_end_pipeline(e2e_run):
    result, elapsed = e2e_run
    assert result.final_ari >= 0.90
    assert result.final_nmi >= 0.80
    scored = [row for row in result.metrics_rows]
    good = sum(1 for row in scored
               if row.error is None and not np.isnan(row.ari) and row.ari >= 0.9)
    fraction = good / len(scored)
    assert fraction >= 0.80
    assert elapsed < 300.0
    print(f"\nPASS end-to-end pipeline: ARI {result.final_ari:.3f}, "
          f"NMI {result.final_nmi:.3f}, {good}/{len(scored)} candidates "
          f"with ARI >= 0.9 ({fraction:.0%}), {elapsed:.1f}s")


def test_c7_survival_significance():
    start = time.perf_counter()

    def records(times, events):
        return [SurvivalRecord(f"s{i}", float(t), int(e))
                for i, (t, e) in enumerate(zip(times, events))]

    rng = np.random.default_rng(11)
    times = np.concatenate([rng.exponential(10.0, 100),
                            rng.exponential(10.0 / 3.0, 100)])
    labels = np.array([0] * 100 + [1] * 100)
    hr3 = logrank_test(labels, records(times, np.ones(200, int)))
    assert hr3.neg_log10_p >= 1.30 and hr3.significant

    rng = np.random.default_rng(0)
    null_times = rng.exponential(10.0, size=200)
    null = logrank_test(labels, records(null_times, np.ones(200, int)))
    assert null.neg_log10_p < 1.30 and not null.significant

    rng = np.random.default_rng(3)
    mod_times = np.concatenate([rng.exponential(10.0, 50),
                                rng.exponential(10.0 / 1.5, 50)])
    mod_events = (rng.uniform(size=100) > 0.2).astype(int)
    mod_labels = np.array([0] * 50 + [1] * 50)
    mod = logrank_test(mod_labels, records(mod_times, mod_events))
    # the batched permutation oracle must agree with the scalar oracle
    check_rng = np.random.default_rng(9)
    for _ in range(25):
        perm = check_rng.permutation(mod_labels)
        scalar = logrank_chi2_oracle(mod_times, mod_events.astype(bool), perm)
        batch = logrank_chi2_two_group_batch(mod_times, mod_events, perm[None, :])[0]
        assert abs(scalar - batch) <= 1e-10
    perm_p = logrank_permutation_p_fast(mod_times, mod_events, mod_labels,
                                        20000, seed=101)
    perm_diff = abs(mod.p_value - perm_p)
    assert perm_diff < 0.01

    hand = logrank_test(np.array([0, 0, 0, 1, 1, 1]),
                        records([1, 2, 3, 4, 5, 6], [1] * 6))
    hand_diff = abs(hand.chi2 - 1369.0 / 271.0)
    assert hand_diff <= 1e-10
    assert SIGNIFICANCE_NEG_LOG10_P == 1.30

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nPASS survival significance: HR-3 nlp {hr3.neg_log10_p:.2f} >= 1.30, "
          f"null nlp {null.neg_log10_p:.2f} < 1.30, 20k-permutation diff "
          f"{perm_diff:.4f} < 0.01, hand case diff {hand_diff:.1e}, "
          f"threshold 1.30, {elapsed:.1f}s")


def test_c8_transform_fitting():
    rng = np.random.default_rng(8)
    normal = rng.normal(size=(4000, 1))
    m = OmicsMatrix(values=normal, sample_ids=[f"s{i}" for i in range(4000)],
                    feature_ids=["f0"], kind="other")
    yj_lambda = float(fit_power_transform(m, "yeo_johnson").lambdas[0])
    assert abs(yj_lambda - 1.0) <= 0.15

    lognormal = np.exp(rng.normal(size=(4000, 1)))
    m2 = OmicsMatrix(values=lognormal, sample_ids=[f"s{i}" for i in range(4000)],
                     feature_ids=["f0"], kind="other")
    bc_lambda = float(fit_power_transform(m2, "box_cox").lambdas[0])
    assert abs(bc_lambda) <= 0.15

    n_pairs = 10_000
    lo = rng.normal(scale=3.0, size=n_pairs)
    hi = lo + rng.exponential(1.0, size=n_pairs) + 1e-9
    lambdas = rng.uniform(-5.0, 5.0, size=n_pairs)
    ids = [f"m{i}" for i in range(n_pairs)]
    pair_matrix = OmicsMatrix(values=np.vstack([lo, hi]),
                              sample_ids=["a", "b"], feature_ids=ids, kind="other")
    params = PowerTransformParams(method="yeo_johnson", lambdas=lambdas,
                                  feature_ids=ids)
    out = apply_power_transform(pair_matrix, params).values
    assert (out[0] < out[1]).all()
    print(f"\nPASS transform fitting: normal data exponent {yj_lambda:.3f} "
          f"(target 1 +- 0.15), log-normal exponent {bc_lambda:.3f} "
          f"(target 0 +- 0.15), order preserved on {n_pairs} pairs")


def test_c9_determinism(tmp_path):
    data = tmp_path / "data"
    synth_args = ["synth", "--n", "36", "--k", "3", "--dims", "12,10,11",
                  "--separation", "8", "--seed", "1", "--outdir", str(data)]
    assert cli_main(synth_args) == 0
    pipeline_args = [
        "pipeline",
        "--gene-expression", str(data / "gene_expression.csv"),
        "--mirna", str(data / "mirna.csv"),
        "--methylation", str(data / "methylation.csv"),
        "--survival", str(data / "survival.csv"),
        "--labels", str(data / "labels.csv"),
        "--clusters", "3", "--stage3-k2", "2,10",
    ]
    trees = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert cli_main([*pipeline_args, "--outdir", str(out)]) == 0
        trees.append({p.relative_to(out): p.read_bytes()
                      for p in sorted(out.rglob("*")) if p.is_file()})
    assert trees[0] == trees[1]
    print(f"\nPASS determinism: two pipeline runs produced {len(trees[0])} "
          "byte-identical artifacts")
