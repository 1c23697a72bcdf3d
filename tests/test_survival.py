import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from omicsfuse.clustering import Partition
from omicsfuse.errors import DegenerateInputError
from omicsfuse.survival import (
    SIGNIFICANCE_NEG_LOG10_P,
    SurvivalRecord,
    logrank_test,
)

from oracles import logrank_chi2_oracle, logrank_permutation_p


def records(times, events, prefix="s"):
    return [
        SurvivalRecord(f"{prefix}{i}", float(t), int(e))
        for i, (t, e) in enumerate(zip(times, events))
    ]


def random_dataset(rng, n_groups):
    n = int(rng.integers(10, 41))
    times = rng.exponential(5.0, size=n).round(3) + 0.001
    events = (rng.uniform(size=n) > 0.3).astype(int)
    if events.sum() == 0:
        events[0] = 1
    labels = np.concatenate([np.arange(n_groups), rng.integers(0, n_groups, n - n_groups)])
    rng.shuffle(labels)
    return times, events, labels


class TestHandCase:
    # group A dies at 1, 2, 3; group B dies at 4, 5, 6. Tabulating
    # observed-minus-expected over the six event times: U = 0.5+0.6+0.75,
    # V = 1/4 + 6/25 + 3/16, so chi2 = 1.85^2 / 0.6775 = 1369/271.
    def test_chi2_matches_hand_tabulation(self):
        labels = np.array([0, 0, 0, 1, 1, 1])
        recs = records([1, 2, 3, 4, 5, 6], [1] * 6)
        rep = logrank_test(labels, recs)
        assert rep.chi2 == pytest.approx(1369.0 / 271.0, abs=1e-10)
        assert rep.df == 1
        assert rep.significant  # p ~ 0.0246

    def test_report_bookkeeping(self):
        labels = np.array([0, 0, 0, 1, 1, 1])
        rep = logrank_test(labels, records([1, 2, 3, 4, 5, 6], [1] * 6))
        assert rep.group_sizes == (3, 3)
        assert rep.observed_events == (3, 3)
        assert sum(rep.expected_events) == pytest.approx(6.0, abs=1e-12)


class TestSimulations:
    def test_null_two_groups_not_significant(self):
        rng = np.random.default_rng(0)
        times = rng.exponential(10.0, size=200)
        labels = np.array([0] * 100 + [1] * 100)
        rep = logrank_test(labels, records(times, np.ones(200, int)))
        assert rep.neg_log10_p < SIGNIFICANCE_NEG_LOG10_P
        assert not rep.significant

    def test_hazard_ratio_3_significant(self):
        rng = np.random.default_rng(11)
        times = np.concatenate(
            [rng.exponential(10.0, 100), rng.exponential(10.0 / 3.0, 100)]
        )
        labels = np.array([0] * 100 + [1] * 100)
        rep = logrank_test(labels, records(times, np.ones(200, int)))
        assert rep.neg_log10_p >= SIGNIFICANCE_NEG_LOG10_P
        assert rep.significant

    def test_p_agrees_with_permutation_oracle(self):
        # moderate effect so the p-value sits in the comparable mid-range
        rng = np.random.default_rng(3)
        times = np.concatenate(
            [rng.exponential(10.0, 50), rng.exponential(10.0 / 1.5, 50)]
        )
        events = (rng.uniform(size=100) > 0.2).astype(int)
        labels = np.array([0] * 50 + [1] * 50)
        rep = logrank_test(labels, records(times, events))
        perm_p = logrank_permutation_p(times, events.astype(bool), labels, 2000, 123)
        assert abs(rep.p_value - perm_p) < 0.03


class TestOracleAgreement:
    def test_random_instances_match_oracle(self):
        rng = np.random.default_rng(404)
        for trial in range(60):
            k = int(rng.integers(2, 5))
            times, events, labels = random_dataset(rng, k)
            rep = logrank_test(labels, records(times, events))
            expected = logrank_chi2_oracle(times, events.astype(bool), labels)
            assert rep.chi2 == pytest.approx(expected, abs=1e-10)
            assert rep.df == k - 1
            assert 0.0 <= rep.p_value <= 1.0
            assert rep.neg_log10_p == pytest.approx(
                -np.log10(max(rep.p_value, 1e-300)), abs=1e-12
            )
            assert rep.significant == (rep.neg_log10_p >= 1.30)

    def test_expected_events_total_observed(self):
        rng = np.random.default_rng(21)
        times, events, labels = random_dataset(rng, 3)
        rep = logrank_test(labels, records(times, events))
        assert sum(rep.expected_events) == pytest.approx(sum(rep.observed_events), abs=1e-9)


class TestInvariances:
    def _base(self):
        rng = np.random.default_rng(17)
        times = rng.exponential(4.0, size=40) + 0.01
        events = (rng.uniform(size=40) > 0.25).astype(int)
        labels = rng.integers(0, 3, size=40)
        labels[:3] = [0, 1, 2]
        return times, events, labels

    def test_relabeling_groups(self):
        times, events, labels = self._base()
        rep1 = logrank_test(labels, records(times, events))
        rep2 = logrank_test(np.array(["g%d" % (2 - l) for l in labels]), records(times, events))
        assert rep1.chi2 == pytest.approx(rep2.chi2, abs=1e-9)

    @settings(max_examples=100, deadline=None, database=None)
    @given(st.integers(4, 30).flatmap(lambda n: st.tuples(
        st.lists(st.integers(1, 8), min_size=n, max_size=n),  # tied times
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
        st.permutations(range(4)),
    )))
    def test_chi2_invariant_under_group_relabelling(self, case):
        times, events, labels, perm = case
        assume(sum(events) > 0 and len(set(labels)) > 1)  # TestErrors covers the rest
        recs = records(times, events)
        chi2 = logrank_test(np.array(labels), recs).chi2
        relabelled = logrank_test(np.array(perm)[labels], recs).chi2
        assert relabelled == pytest.approx(chi2, rel=1e-10, abs=1e-12)

    def test_monotone_time_transform(self):
        times, events, labels = self._base()
        rep1 = logrank_test(labels, records(times, events))
        rep2 = logrank_test(labels, records(np.exp(times / times.max()), events))
        assert rep1.chi2 == pytest.approx(rep2.chi2, abs=1e-9)

    def test_late_censoring_time_is_irrelevant(self):
        times = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 10.0])
        events = np.array([1, 1, 0, 1, 1, 0])
        labels = np.array([0, 1, 0, 1, 0, 1])
        rep1 = logrank_test(labels, records(times, events))
        times2 = times.copy()
        times2[5] = 1000.0  # censored after the last event either way
        rep2 = logrank_test(labels, records(times2, events))
        assert rep1.chi2 == rep2.chi2

    def test_unique_latest_event_contributes_nothing(self):
        times = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 9.0])
        labels = np.array([0, 1, 0, 1, 0, 1])
        as_event = logrank_test(labels, records(times, [1, 1, 1, 1, 1, 1]))
        as_censored = logrank_test(labels, records(times, [1, 1, 1, 1, 1, 0]))
        assert as_event.chi2 == pytest.approx(as_censored.chi2, abs=1e-12)

    def test_accepts_partition_labels(self):
        times, events, labels = self._base()
        part = Partition.from_labels(labels)
        rep1 = logrank_test(part, records(times, events))
        rep2 = logrank_test(labels, records(times, events))
        assert rep1.chi2 == rep2.chi2


class TestErrors:
    def test_single_group_rejected(self):
        with pytest.raises(ValueError):
            logrank_test(np.zeros(4, int), records([1, 2, 3, 4], [1, 1, 1, 1]))

    def test_zero_events_degenerate(self):
        with pytest.raises(DegenerateInputError):
            logrank_test(np.array([0, 0, 1, 1]), records([1, 2, 3, 4], [0, 0, 0, 0]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            logrank_test(np.array([0, 1]), records([1, 2, 3], [1, 1, 1]))

    def test_record_validation(self):
        with pytest.raises(ValueError):
            SurvivalRecord("a", 0.0, 1)
        with pytest.raises(ValueError):
            SurvivalRecord("a", -1.0, 1)
        with pytest.raises(ValueError):
            SurvivalRecord("a", np.inf, 1)
        with pytest.raises(ValueError):
            SurvivalRecord("a", 1.0, 2)
