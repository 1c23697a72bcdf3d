"""End-to-end orchestration: alignment, preprocessing reports, determinism."""

import itertools
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omicsfuse import affinity, cca, fusion, pipeline
from omicsfuse.clustering import Partition, ari, kmeans_pp, sweep_k2_metrics
from omicsfuse.errors import AlignmentError, DegenerateInputError
from omicsfuse.numkernel import sym_eig
from omicsfuse.pipeline import PipelineConfig, align_inputs, run_pipeline
from omicsfuse.preprocess import PAPER_KINDS, OmicsMatrix, align_by_id
from omicsfuse.survival import SurvivalRecord
from omicsfuse.synthgen import SynthSpec, generate

SPEC = SynthSpec(n=36, k=3, dims=(12, 10, 11), separation=8.0,
                 missing_rate=0.05, seed=1)
CONFIG = PipelineConfig(clusters=3, stage3_k2=(2, 10), seed=0)


@pytest.fixture(scope="module")
def dataset():
    return generate(SPEC)


@pytest.fixture(scope="module")
def result(dataset):
    mats, labels, recs = dataset
    return run_pipeline(mats, recs, labels, CONFIG)


def _permute_matrix(m: OmicsMatrix, perm) -> OmicsMatrix:
    return OmicsMatrix(
        values=m.values[perm],
        sample_ids=[m.sample_ids[i] for i in perm],
        feature_ids=list(m.feature_ids),
        kind=m.kind,
    )


def test_recovers_planted_clusters(result):
    assert result.final_ari == 1.0
    assert result.final_nmi == 1.0


def test_every_kernelized_distance_takes_the_exact_symmetry_path(dataset, monkeypatch):
    """The check hands back each distance the run kernelizes as it is: the
    three intra distances, the three CCA pair distances and the step
    distances of the two fused stages.  A change that broke their exact
    symmetry would add an n x n copy to every kernel, and fails here."""
    kept = []
    check = affinity.check_distance_matrix

    def spy(d):
        out = check(d)
        kept.append(out is d)
        return out

    monkeypatch.setattr(affinity, "check_distance_matrix", spy)
    mats, _, recs = dataset
    run_pipeline(mats, recs, None, CONFIG)
    assert kept == [True] * 8


def test_result_bookkeeping(result, dataset):
    mats, _, _ = dataset
    assert result.sample_ids == mats[0].sample_ids
    assert set(result.intra_affinities) == {m.kind for m in mats}
    assert len(result.inter_affinities) == 3
    for a in result.intra_affinities.values():
        assert a.shape == (SPEC.n, SPEC.n)
    assert sorted(result.partitions_by_k3) == [3, 4, 5]
    assert sorted(result.survival_by_k3) == [3, 4, 5]
    for part in result.partitions_by_k3.values():
        assert isinstance(part, Partition)
        assert part.labels.shape == (SPEC.n,)
    assert len(result.metrics_rows) == len(result.fusion.candidates)


def test_preprocess_reports(result):
    kinds = [rep.kind for rep in result.preprocess]
    assert kinds == ["gene_expression", "mirna", "methylation"]
    for rep, d in zip(result.preprocess, SPEC.dims):
        assert rep.features_in == d
        assert 1 <= rep.features_out <= d
        assert rep.transform_method == "yeo_johnson"
        assert -5.0 <= rep.lambda_min <= rep.lambda_max <= 5.0
        assert rep.effective_components >= 1


def test_processed_matrices_are_clean(result):
    for m in result.processed:
        assert np.isfinite(m.values).all()
        assert not m.missing_mask.any()
        assert m.sample_ids == result.sample_ids


def test_row_order_of_other_matrices_is_realigned(dataset):
    mats, labels, recs = dataset
    rng = np.random.default_rng(7)
    shuffled = [
        mats[0],
        _permute_matrix(mats[1], rng.permutation(SPEC.n)),
        _permute_matrix(mats[2], rng.permutation(SPEC.n)),
    ]
    base = run_pipeline(mats, recs, labels, CONFIG)
    moved = run_pipeline(shuffled, recs, labels, CONFIG)
    assert np.array_equal(base.final_partition.labels, moved.final_partition.labels)
    assert np.array_equal(base.fusion.s_final, moved.fusion.s_final)


@given(seed=st.integers(0, 2**16), perm_seed=st.integers(0, 2**16), n=st.just(40))
@example(seed=3, perm_seed=0, n=150)
@settings(max_examples=8, deadline=None, database=None)
def test_row_order_of_every_input_leaves_the_partition(seed, perm_seed, n):
    """Putting every input's rows in one other order, IDs travelling with
    their rows, gives the same partitions, -log10 p and fused network,
    sample by sample.  Before the run sorted its samples by ID, the two
    orders of seed 3 at n = 150 agreed only to ARI 0.63."""
    mats, _, recs = generate(SynthSpec(n=n, k=3, dims=(60, 40, 50), separation=1.0,
                                       missing_rate=0.05, high_missing_fraction=0.10, seed=seed))
    perm = np.random.default_rng(perm_seed).permutation(n)
    config = PipelineConfig(clusters=3, seed=0)
    base = run_pipeline(mats, recs, None, config)
    moved = run_pipeline([_permute_matrix(m, perm) for m in mats], [recs[i] for i in perm],
                         None, config)
    position = {sid: i for i, sid in enumerate(moved.sample_ids)}
    at = np.array([position[sid] for sid in base.sample_ids])
    assert np.array_equal(base.final_partition.labels, moved.final_partition.labels[at])
    for k3, part in base.partitions_by_k3.items():
        assert np.array_equal(part.labels, moved.partitions_by_k3[k3].labels[at])
        assert base.survival_by_k3[k3].neg_log10_p == moved.survival_by_k3[k3].neg_log10_p
    assert np.array_equal(base.fusion.s_final, moved.fusion.s_final[np.ix_(at, at)])


@given(seed=st.integers(0, 2**16))
@settings(max_examples=3, deadline=None, database=None)
def test_order_of_the_matrices_leaves_the_run(seed):
    """The three matrices in any of their six orders give the same
    partitions, -log10 p and fused network.  While each matrix's BGMM seed
    and the stage-1 view order followed list position, [ge, mi, me] and
    [me, ge, mi] agreed only to ARI 0.37-0.79 (n = 150, seeds 1-6)."""
    mats, _, recs = generate(SynthSpec(n=40, k=3, dims=(60, 40, 50), separation=1.0,
                                       missing_rate=0.05, high_missing_fraction=0.10, seed=seed))
    config = PipelineConfig(clusters=3, seed=0)
    base = run_pipeline(mats, recs, None, config)
    for order in list(itertools.permutations(mats))[1:]:
        moved = run_pipeline(list(order), recs, None, config)
        assert [rep.kind for rep in moved.preprocess] == list(PAPER_KINDS)
        assert moved.fusion.s_final.tobytes() == base.fusion.s_final.tobytes()
        for k3, part in base.partitions_by_k3.items():
            assert np.array_equal(part.labels, moved.partitions_by_k3[k3].labels)
            assert base.survival_by_k3[k3].neg_log10_p == moved.survival_by_k3[k3].neg_log10_p


def panel_spec(seed, separation=1.0, dims=(60, 40, 50)):
    """A dataset of the quality panel: n = 150, three planted clusters."""
    return SynthSpec(n=150, k=3, dims=dims, separation=separation, missing_rate=0.05,
                     high_missing_fraction=0.10, seed=seed)


def panel_ari(spec):
    """ARI of an unlabeled run against the planted labels, and the run."""
    mats, labels, recs = generate(spec)
    res = run_pipeline(mats, recs, None, PipelineConfig(clusters=3, seed=0))
    planted = align_by_id(res.sample_ids, mats[0].sample_ids, labels.labels, "labels")
    return ari(res.final_partition, Partition.from_labels(planted)), res


def test_quality_panel_keeps_its_floors():
    """Unlabeled runs on ten planted datasets at each separation, scored
    against the planted labels.  When written: median ARI 0.9700, worst
    0.9206 and median -log10 p at k3 = 3 7.5566 at separation 1.0; 0.5069,
    0.2838 and 2.3224 at 0.75.  The entropic view weights gave 0.6621,
    0.4330 and 4.5507 at 1.0 and 0.1482, 0.0692 and 0.9097 at 0.75.  The
    floors catch a quality regression and leave room for a gain."""
    for separation, median, worst, p in ((1.0, 0.96, 0.92, 7.5), (0.75, 0.50, 0.28, 2.3)):
        aris, neg_log10_p = [], []
        for seed in range(1, 11):
            score, res = panel_ari(panel_spec(seed, separation))
            aris.append(score)
            neg_log10_p.append(res.survival_by_k3[3].neg_log10_p)
        assert np.median(aris) >= median, separation
        assert min(aris) >= worst, separation
        assert np.median(neg_log10_p) >= p, separation


@pytest.fixture(scope="module")
def panel_seed_1():
    mats, _, recs = generate(panel_spec(1))
    return mats, recs, run_pipeline(mats, recs, None, PipelineConfig(clusters=3, seed=0))


@pytest.mark.parametrize("factors", [(0.5,) * 6, (2.0,) * 6, (1.0,) * 3 + (3.0, 1.0, 1.0)],
                         ids=["all_by_0.5", "all_by_2", "one_network_by_3"])
def test_kernel_scale_leaves_the_partition(panel_seed_1, monkeypatch, factors):
    """The fusion reads row-normalized views, so multiplying all nine
    views, or one network, by a positive constant leaves the final
    partition of panel seed 1 as it is.  The run makes six kernels, three
    intra and then three inter, and stage 2 reads each inter kernel twice.
    With the entropic view weights, the ARI against the unscaled partition
    was 0.77 and 0.43 with all scaled and 0.12 with the first inter network
    by 3; the gene-expression view by 3 left it as it was."""
    mats, recs, base = panel_seed_1
    kernel, scale = pipeline.affinity_from_distance, iter(factors)

    def scaled_kernel(d, *args):
        return kernel(d, *args) * next(scale)

    monkeypatch.setattr(pipeline, "affinity_from_distance", scaled_kernel)
    res = run_pipeline(mats, recs, None, PipelineConfig(clusters=3, seed=0))
    assert next(scale, None) is None
    assert ari(res.final_partition, base.final_partition) == 1.0


def test_the_config_seed_does_not_pick_the_answer(panel_seed_1):
    # 0.96 when written; 0.40 with the entropic view weights
    mats, recs, base = panel_seed_1
    other = run_pipeline(mats, recs, None, PipelineConfig(clusters=3, seed=1))
    assert ari(base.final_partition, other.final_partition) >= 0.9


def test_the_wide_shape_at_low_separation_finds_the_clusters():
    # p >> n (2000, 500 and 1000 features, n = 150): 0.96 when written,
    # 0.15 with the entropic view weights
    score, _ = panel_ari(panel_spec(1, separation=0.3, dims=(2000, 500, 1000)))
    assert score >= 0.9


def test_true_labels_follow_the_first_matrix(dataset, result):
    """Labels are given in the first matrix's order and scored in the
    run's sorted order."""
    mats, labels, recs = dataset
    perm = np.random.default_rng(5).permutation(SPEC.n)
    moved = run_pipeline([_permute_matrix(m, perm) for m in mats], [recs[i] for i in perm],
                         Partition(labels.labels[perm], labels.k), CONFIG)
    assert moved.sample_ids == result.sample_ids
    assert moved.final_ari == result.final_ari == 1.0
    assert moved.metrics_rows == result.metrics_rows


def test_survival_record_order_is_realigned(dataset):
    mats, labels, recs = dataset
    rng = np.random.default_rng(3)
    shuffled_recs = [recs[i] for i in rng.permutation(SPEC.n)]
    base = run_pipeline(mats, recs, labels, CONFIG)
    moved = run_pipeline(mats, shuffled_recs, labels, CONFIG)
    for k3 in base.survival_by_k3:
        assert base.survival_by_k3[k3].chi2 == moved.survival_by_k3[k3].chi2


def test_missing_sample_raises_alignment_error(dataset):
    mats, labels, recs = dataset
    keep = list(range(SPEC.n - 1))
    broken = [mats[0], _permute_matrix(mats[1], keep), mats[2]]
    with pytest.raises(AlignmentError, match="s0035"):
        run_pipeline(broken, recs, labels, CONFIG)


def test_renamed_sample_raises_alignment_error(dataset):
    mats, labels, recs = dataset
    renamed = _permute_matrix(mats[2], list(range(SPEC.n)))
    renamed.sample_ids[0] = "intruder"
    with pytest.raises(AlignmentError, match="intruder"):
        align_inputs([mats[0], mats[1], renamed], recs)


def test_survival_mismatch_raises_alignment_error(dataset):
    mats, labels, recs = dataset
    bad = [SurvivalRecord("ghost" + r.sample_id, r.time, r.event) for r in recs]
    with pytest.raises(AlignmentError):
        run_pipeline(mats, bad, labels, CONFIG)


def test_duplicate_survival_ids_raise(dataset):
    mats, labels, recs = dataset
    dup = list(recs)
    dup[1] = SurvivalRecord(recs[0].sample_id, recs[1].time, recs[1].event)
    expected = rf"survival file: duplicate sample IDs \['{recs[0].sample_id}'\]"
    with pytest.raises(AlignmentError, match=expected):
        align_inputs(mats, dup)


def test_true_labels_length_mismatch(dataset):
    mats, _, recs = dataset
    short = Partition.from_labels([0, 1] * 17)
    with pytest.raises(AlignmentError):
        run_pipeline(mats, recs, short, CONFIG)


def test_align_by_id_needs_one_value_per_id():
    for values in ([1, 2, 3], [1]):
        with pytest.raises(AlignmentError, match=f"x: expected one value per sample ID, "
                                                 f"got {len(values)} for 2 IDs"):
            align_by_id(["a", "b"], ["a", "b"], values, "x")


def test_runs_without_survival_or_labels(dataset):
    mats, _, _ = dataset
    res = run_pipeline(mats, config=CONFIG)
    assert res.survival_by_k3 == {}
    assert res.metrics_rows is None
    assert res.final_ari is None
    assert sorted(res.partitions_by_k3) == [3, 4, 5]
    assert res.final_partition.k == 3


def test_unlabeled_run_fuses_one_stage3_candidate(dataset, monkeypatch):
    mats, _, recs = dataset
    stage3_calls = []
    fuse = fusion.FusionStep.fuse

    def counting_fuse(step, k2, start=None):
        if len(step.affinities) == 2:
            stage3_calls.append(k2)
        return fuse(step, k2, start)

    monkeypatch.setattr(fusion.FusionStep, "fuse", counting_fuse)
    res = run_pipeline(mats, recs, config=CONFIG)
    assert stage3_calls == [res.fusion.selected_k2]
    assert [c.k2 for c in res.fusion.candidates] == list(range(2, 11))
    assert len(stage3_calls) == 9


def test_each_block_pair_is_fitted_and_kernelized_once(dataset, monkeypatch):
    """Three CCA fits and eight kernels (3 intra, 3 inter, 2 re-kernelized)
    a run; the three inter labels follow FORWARD_PAIRS, and stage 2 still
    fuses six views: each inter affinity twice, adjacent, in order."""
    mats, _, recs = dataset
    calls = {"fits": 0, "kernels": 0}
    views, inter_in = [], []
    fit, kernel, fuse = cca._fit_whitened, pipeline.affinity_from_distance, fusion.fuse_affinities
    three_stage = pipeline.three_stage_fuse

    def counting_fit(ux, uy):
        calls["fits"] += 1
        return fit(ux, uy)

    def counting_kernel(d, *args):
        calls["kernels"] += 1
        return kernel(d, *args)

    def counting_fuse(affinities, *args, **kwargs):
        views.append(len(affinities))
        return fuse(affinities, *args, **kwargs)

    def capturing_three_stage(intra, inter, **kwargs):
        inter_in.extend(inter)
        return three_stage(intra, inter, **kwargs)

    monkeypatch.setattr(cca, "_fit_whitened", counting_fit)
    monkeypatch.setattr(pipeline, "affinity_from_distance", counting_kernel)
    monkeypatch.setattr(fusion, "affinity_from_distance", counting_kernel)
    monkeypatch.setattr(fusion, "fuse_affinities", counting_fuse)
    monkeypatch.setattr(pipeline, "three_stage_fuse", capturing_three_stage)
    res = run_pipeline(mats, recs, config=CONFIG)
    assert calls == {"fits": 3, "kernels": 8}
    assert list(res.inter_affinities) == [f"{p}__to__{r}" for p, r in cca.FORWARD_PAIRS]
    networks = list(res.inter_affinities.values())
    assert len(inter_in) == 6
    assert all(a is networks[i // 2] for i, a in enumerate(inter_in))
    assert views == [3, 6, 2] and len(res.fusion.stage2.state.alpha) == 6


def _watch_candidates(monkeypatch, selected_k2):
    """The k2 of every stage-3 fusion, weak references to the state of every
    non-selected stage-3 candidate as it is fused, and the most of them
    alive as any fusion begins."""
    fused, refs, peak = [], [], [0]
    fuse = fusion.FusionStep.fuse

    def watching_fuse(step, k2, start=None):
        if len(step.affinities) != 2:
            return fuse(step, k2, start)
        fused.append(k2)
        peak[0] = max(peak[0], len(_alive_states(refs)))
        record = fuse(step, k2, start)
        if k2 != selected_k2 and record.state is not None:
            refs.append(weakref.ref(record.state))
        return record

    monkeypatch.setattr(fusion.FusionStep, "fuse", watching_fuse)
    return fused, refs, peak


def _alive_states(refs):
    return [state for state in (ref() for ref in refs) if state is not None]


def test_labeled_run_streams_the_candidates(dataset, monkeypatch):
    mats, labels, recs = dataset
    fused, refs, peak = _watch_candidates(monkeypatch, selected_k2=10)
    res = run_pipeline(mats, recs, labels, CONFIG)
    assert "candidates" not in vars(res.fusion)
    # the selected candidate is fused first, then the sweep fuses the grid in order
    assert fused == [10, *range(2, 10)]
    # the previous candidate, still held by the sweep, is the only one alive
    assert len(refs) == 8 and peak[0] <= 1
    # the streamed sweep scores what the cached list gives
    monkeypatch.undo()
    rows = sweep_k2_metrics(res.fusion.candidates, labels, CONFIG.clusters, CONFIG.cluster_on,
                            seed=CONFIG.seed)
    assert res.metrics_rows == rows


def test_k3_equal_to_clusters_reuses_the_final_partition(dataset, monkeypatch):
    mats, _, recs = dataset
    calls = []
    kmeans_pp = pipeline.kmeans_pp

    def counting_kmeans(points, k, **kwargs):
        calls.append(k)
        return kmeans_pp(points, k, **kwargs)

    monkeypatch.setattr(pipeline, "kmeans_pp", counting_kmeans)
    res = run_pipeline(mats, recs, config=CONFIG)
    assert calls == [3, 4, 5]
    assert res.partitions_by_k3[3] is res.final_partition
    monkeypatch.undo()
    again = kmeans_pp(res.fusion.s_final, 3, seed=CONFIG.seed)
    assert np.array_equal(again.labels, res.final_partition.labels)


def test_all_censored_survival_fails_before_preprocessing(dataset, monkeypatch):
    mats, _, recs = dataset
    censored = [SurvivalRecord(r.sample_id, r.time, 0) for r in recs]

    def unreachable(*args, **kwargs):
        raise AssertionError("preprocessing ran on an all-censored survival file")

    monkeypatch.setattr(pipeline, "preprocess_matrix", unreachable)
    with pytest.raises(DegenerateInputError, match="no observed events"):
        run_pipeline(mats, censored, config=CONFIG)


def _forbid_preprocessing(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("preprocessing ran")

    monkeypatch.setattr(pipeline, "preprocess_matrix", unreachable)


def test_non_canonical_kinds_raise_before_preprocessing(dataset, monkeypatch):
    mats, labels, recs = dataset
    _forbid_preprocessing(monkeypatch)
    for kinds in (("gene_expression", "mirna", "other"), ("gene_expression", "mirna", "mirna")):
        relabelled = [OmicsMatrix(m.values, m.sample_ids, m.feature_ids, kind)
                      for m, kind in zip(mats, kinds)]
        with pytest.raises(ValueError, match="expected one matrix of each kind"):
            run_pipeline(relabelled, recs, labels, CONFIG)


@pytest.mark.parametrize("setting, n, error, message", [
    ({"clusters": 40}, 36, ValueError, "clusters=40 needs 40 eigenvectors, got 36 samples"),
    ({"stage1_k2": (50, 60)}, 36, ValueError,
     r"stage1_k2: k2 range \[50, 60\] is empty for n=36"),
    ({"stage2_k2": (35, 40)}, 36, ValueError,
     r"stage2_k2: k2 range \[35, 40\] is empty for n=36"),
    ({"stage3_k2": (35, 40)}, 36, ValueError,
     r"stage3_k2: k2 range \[35, 40\] is empty for n=36"),
    # the Bayesian GMM's component cap is its sample floor
    ({}, 9, DegenerateInputError, "need at least 10 samples, got 9"),
], ids=["clusters", "stage1_k2", "stage2_k2", "stage3_k2", "max_components"])
def test_settings_the_sample_count_rules_out_fail_before_preprocessing(
        dataset, monkeypatch, setting, n, error, message):
    mats, labels, recs = dataset
    mats = [OmicsMatrix(m.values[:n], m.sample_ids[:n], m.feature_ids, m.kind) for m in mats]
    labels = Partition.from_labels(labels.labels[:n])
    _forbid_preprocessing(monkeypatch)
    config = PipelineConfig(**{"clusters": 3, "stage3_k2": (2, 10), **setting})
    with pytest.raises(error, match=message):
        run_pipeline(mats, recs[:n], labels, config)


@pytest.mark.parametrize("setting, message", [
    ({"clusters": 40}, "clusters=40 needs 40 eigenvectors, got 36 samples"),
    ({"stage1_k2": (50, 60)}, "stage1_k2: k2 range [50, 60] is empty for n=36"),
    ({"stage2_k2": (35, 40)}, "stage2_k2: k2 range [35, 40] is empty for n=36"),
    ({"stage3_k2": (35, 40)}, "stage3_k2: k2 range [35, 40] is empty for n=36"),
], ids=["clusters", "stage1_k2", "stage2_k2", "stage3_k2"])
def test_the_fail_fast_check_is_the_rule_three_stage_fuse_applies(setting, message):
    # the schedule cases of the test above, at n = 36, through both callers
    config = PipelineConfig(**{"clusters": 3, "stage3_k2": (2, 10), **setting})
    a = np.eye(36)
    with pytest.raises(ValueError) as check:
        pipeline._check_settings_fit(config, 36)
    with pytest.raises(ValueError) as fuse:
        fusion.three_stage_fuse([a] * 3, [a] * 6, config.clusters, config.stage1_k2,
                                config.stage2_k2, config.stage3_k2)
    assert str(check.value) == str(fuse.value) == message


@pytest.mark.parametrize("ranges, setting", [
    (((2.5, 10.7), None, (2, 100.9)), "stage1_k2"),
    (((2, 10), None, (2, 100.9)), "stage3_k2"),
], ids=["stage1_k2", "stage3_k2"])
def test_a_non_integer_k2_bound_is_refused_as_the_config_refuses_it(ranges, setting):
    # a library caller of three_stage_fuse is held to the config's rule; int()
    # would run the first case at stage-1 k2 10 and stage-3 hi 38
    a = np.eye(40)
    with pytest.raises(ValueError) as schedule:
        fusion.resolve_schedule(40, 3, *ranges)
    with pytest.raises(ValueError) as fuse:
        fusion.three_stage_fuse([a] * 3, [a] * 6, 3, *ranges)
    pair = ranges[int(setting[5]) - 1]
    with pytest.raises(ValueError) as config:
        PipelineConfig(**{setting: pair})
    assert str(schedule.value) == str(fuse.value) == str(config.value) == (
        f"{setting} must be two integers LO,HI, got {pair!r}")


def test_settings_at_the_sample_count_edges_pass_the_check():
    pipeline._check_settings_fit(
        PipelineConfig(clusters=36, stage1_k2=(34, 99), stage2_k2=(2, 34), stage3_k2=(34, 34)),
        36)
    # n = 10, the fewest samples the Bayesian GMM admits: k2 = n - 2 = 8, c = n
    pipeline._check_settings_fit(
        PipelineConfig(clusters=10, stage1_k2=(8, 8), stage2_k2=(8, 8), stage3_k2=(8, 8)), 10)


def test_spectral_clustering_input(dataset):
    mats, labels, recs = dataset
    cfg = PipelineConfig(clusters=3, stage3_k2=(2, 10), cluster_on="spectral", seed=0)
    res = run_pipeline(mats, recs, labels, cfg)
    assert res.final_ari == 1.0
    # the embedding is the leading eigenvectors of sym(S_final), as a fresh solve gives them
    s_sym = 0.5 * (res.fusion.s_final + res.fusion.s_final.T)
    _, f = sym_eig(np.negative(s_sym), res.fusion.step3.c)
    assert f.tobytes() == res.fusion.stage3.state.f.tobytes()
    again = kmeans_pp(f, cfg.clusters, seed=cfg.seed)
    assert np.array_equal(again.labels, res.final_partition.labels)


def test_the_k2_sweep_clusters_the_rows_the_run_clusters():
    """With cluster_on="spectral" the sweep's row of the selected k2 scores
    the final partition.  On this weakly separated set the rows of S and of
    F part ways: clustering S there gives ARI 0.2308 against a final 0.1565."""
    mats, labels, recs = generate(SynthSpec(n=36, k=3, dims=(12, 10, 11), separation=1.0,
                                            seed=2))
    cfg = PipelineConfig(clusters=3, stage3_k2=(2, 10), cluster_on="spectral")
    res = run_pipeline(mats, recs, labels, cfg)
    (row,) = [r for r in res.metrics_rows if r.k2 == res.fusion.selected_k2]
    assert (row.ari, row.nmi) == (res.final_ari, res.final_nmi)


def test_deterministic_across_runs(dataset):
    mats, labels, recs = dataset
    a = run_pipeline(mats, recs, labels, CONFIG)
    b = run_pipeline(mats, recs, labels, CONFIG)
    assert np.array_equal(a.final_partition.labels, b.final_partition.labels)
    assert np.array_equal(a.fusion.s_final, b.fusion.s_final)
    assert a.survival_by_k3[3].p_value == b.survival_by_k3[3].p_value


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(cluster_on="nonsense")
    with pytest.raises(ValueError):
        PipelineConfig(clusters=1)
    for bad, message in (
        ({"seed": -1}, "seed must be >= 0"),
        ({"stage1_k2": (2, 1)}, "stage1_k2"),
        ({"stage2_k2": (5, 4)}, "stage2_k2"),
        ({"stage3_k2": (50, 10)}, "stage3_k2"),
        ({"clusters": 2.5}, "clusters must be an integer, got 2.5"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"stage3_k2": (2.5, 10.7)}, "stage3_k2 must be two integers"),
        ({"stage3_k2": (2, 10, 99)}, "stage3_k2 must be two integers"),
        ({"stage1_k2": 40}, "stage1_k2 must be two integers"),
        ({"stage1_k2": (2,)}, "stage1_k2 must be two integers"),
        ({"stage3_k2": None}, "stage3_k2 must be two integers"),
    ):
        with pytest.raises(ValueError, match=message):
            PipelineConfig(**bad)
    # the edges of each range are accepted
    PipelineConfig(seed=0, clusters=2, stage1_k2=(0, 2), stage2_k2=(7, 7), stage3_k2=(2, 2))
    # lists as config.json echoes them, numpy integers, and stage 2's None
    PipelineConfig(seed=np.int64(3), stage1_k2=[2, 9], stage2_k2=None, stage3_k2=[2, 5])


def test_requires_three_matrices(dataset):
    mats, labels, recs = dataset
    with pytest.raises(ValueError):
        run_pipeline(mats[:2], recs, labels, CONFIG)
