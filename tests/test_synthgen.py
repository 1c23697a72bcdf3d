import re

import numpy as np
import pytest

from omicsfuse.clustering import Partition, ari, kmeans_pp
from omicsfuse.preprocess import PAPER_KINDS
from omicsfuse.synthgen import SynthSpec, generate


class TestSpecValidation:
    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            SynthSpec(n=5, k=6)
        with pytest.raises(ValueError):
            SynthSpec(n=10, k=0)
        with pytest.raises(ValueError):
            SynthSpec(n=10, k=2, dims=(5, 5))
        with pytest.raises(ValueError):
            SynthSpec(n=10, k=2, dims=(5, 0, 5))
        with pytest.raises(ValueError):
            SynthSpec(n=10, k=2, separation=-1.0)
        with pytest.raises(ValueError):
            SynthSpec(n=10, k=2, missing_rate=1.5)
        with pytest.raises(ValueError):
            SynthSpec(n=10, k=2, hazard_ratio=0.5)

    @pytest.mark.parametrize("field, value", [("seed", 1.5), ("n", 40.0), ("dims", (5.5, 4, 4))])
    def test_non_integer_field_is_named(self, field, value):
        # left to generate, each fails inside numpy, naming no field
        with pytest.raises(ValueError, match=re.escape(f"{field} must be integer, got {value!r}")):
            SynthSpec(**{"n": 40, "k": 3, field: value})


class TestGenerate:
    def test_shapes_kinds_and_alignment(self):
        spec = SynthSpec(n=30, k=3, dims=(12, 8, 10), seed=5)
        mats, labels, records = generate(spec)
        assert [m.kind for m in mats] == list(PAPER_KINDS)
        assert [m.values.shape for m in mats] == [(30, 12), (30, 8), (30, 10)]
        ids = mats[0].sample_ids
        assert all(m.sample_ids == ids for m in mats)
        assert [r.sample_id for r in records] == ids
        assert labels.n == 30 and labels.k == 3
        for m in mats:
            assert len(set(m.feature_ids)) == len(m.feature_ids)

    def test_bit_identical_given_spec(self):
        spec = SynthSpec(n=25, k=2, dims=(10, 10, 10), seed=77, missing_rate=0.1)
        m1, l1, r1 = generate(spec)
        m2, l2, r2 = generate(spec)
        for a, b in zip(m1, m2):
            assert np.array_equal(a.values, b.values, equal_nan=True)
            assert np.array_equal(a.missing_mask, b.missing_mask)
        assert np.array_equal(l1.labels, l2.labels)
        assert [(r.time, r.event) for r in r1] == [(r.time, r.event) for r in r2]

    def test_different_seeds_differ(self):
        m1, _, _ = generate(SynthSpec(n=20, k=2, seed=1))
        m2, _, _ = generate(SynthSpec(n=20, k=2, seed=2))
        assert not np.array_equal(m1[0].values, m2[0].values, equal_nan=True)

    def test_cluster_sizes_balanced(self):
        _, labels, _ = generate(SynthSpec(n=32, k=5, dims=(6, 6, 6), seed=0))
        counts = np.bincount(labels.labels, minlength=5)
        assert counts.max() - counts.min() <= 1

    def test_missing_fraction_near_rate(self):
        spec = SynthSpec(
            n=200, k=2, dims=(100, 80, 90), missing_rate=0.05, seed=3,
            high_missing_fraction=0.0,
        )
        mats, _, _ = generate(spec)
        total = sum(m.missing_mask.sum() for m in mats)
        cells = sum(m.values.size for m in mats)
        assert abs(total / cells - 0.05) <= 0.01

    def test_high_missing_features_exceed_filter_threshold(self):
        spec = SynthSpec(
            n=150, k=3, dims=(100, 100, 100), missing_rate=0.05, seed=9,
            high_missing_fraction=0.10, high_missing_rate=0.4,
        )
        mats, _, _ = generate(spec)
        for m in mats:
            frac = m.missing_mask.mean(axis=0)
            assert (frac > 0.20).sum() == 10

    def test_hazard_ordering(self):
        spec = SynthSpec(n=3000, k=3, dims=(4, 4, 4), hazard_ratio=4.0, seed=12)
        _, labels, records = generate(spec)
        times = np.array([r.time for r in records])
        means = [times[labels.labels == c].mean() for c in range(3)]
        assert means[0] > means[1] > means[2]
        assert all(r.event == 1 for r in records)

    def test_signal_supports_exact_recovery(self):
        spec = SynthSpec(n=60, k=3, dims=(30, 20, 25), separation=8.0,
                         missing_rate=0.0, seed=21)
        mats, labels, _ = generate(spec)
        stacked = np.hstack([m.values for m in mats])
        part = kmeans_pp(stacked, 3, seed=0)
        assert ari(part, labels) == 1.0

    def test_separation_zero_gives_no_signal(self):
        spec = SynthSpec(n=80, k=2, dims=(20, 20, 20), separation=0.0,
                         missing_rate=0.0, seed=4)
        mats, labels, _ = generate(spec)
        stacked = np.hstack([m.values for m in mats])
        part = kmeans_pp(stacked, 2, seed=0)
        assert abs(ari(part, labels)) <= 0.2

    def test_single_cluster_spec(self):
        mats, labels, records = generate(SynthSpec(n=10, k=1, dims=(4, 4, 4), seed=2))
        assert labels.k == 1
        assert len(records) == 10
