import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omicsfuse.io import (
    read_json,
    read_labels_csv,
    read_matrix_csv,
    read_survival_csv,
    write_json,
    write_labels_csv,
    write_matrix_csv,
    write_survival_csv,
    write_table_csv,
)
from omicsfuse.preprocess import OmicsMatrix
from omicsfuse.survival import SurvivalRecord
from omicsfuse.synthgen import SynthSpec, generate
from oracles import write_matrix_csv_cells

# IDs drawn from letters and the characters that need CSV quoting
ID_TEXT = st.text(alphabet="ab é,\"\n\r", max_size=6)


@st.composite
def csv_matrices(draw):
    """Matrices with unique quoted-or-plain IDs whose cells are NaN, signed
    zeros or magnitudes from 1e-8 to 1e8."""
    n, p = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    sample_ids = draw(st.lists(ID_TEXT, min_size=n, max_size=n, unique=True))
    feature_ids = draw(st.lists(ID_TEXT, min_size=p, max_size=p, unique=True))
    magnitude = st.builds(lambda m, e, sign: sign * m * 10.0 ** e,
                          st.floats(1.0, 9.999999), st.integers(-8, 8), st.sampled_from([-1, 1]))
    cell = st.one_of(st.sampled_from([np.nan, -0.0, 0.0]), magnitude)
    values = np.array(draw(st.lists(st.lists(cell, min_size=p, max_size=p),
                                    min_size=n, max_size=n)))
    return OmicsMatrix(values=values, sample_ids=sample_ids, feature_ids=feature_ids)


def sample_matrix():
    values = np.array([[1.25, np.nan, -3.5], [0.0, 2.0, 1e-7]])
    return OmicsMatrix(
        values=values,
        sample_ids=["p1", "p2"],
        feature_ids=["fa", "fb", "fc"],
        kind="mirna",
    )


class TestMatrixCsv:
    def test_round_trip(self, tmp_path):
        m = sample_matrix()
        path = tmp_path / "m.csv"
        write_matrix_csv(path, m)
        back = read_matrix_csv(path, kind="mirna")
        assert back.sample_ids == m.sample_ids
        assert back.feature_ids == m.feature_ids
        assert back.kind == "mirna"
        assert np.array_equal(back.missing_mask, m.missing_mask)
        observed = ~m.missing_mask
        np.testing.assert_allclose(back.values[observed], m.values[observed], rtol=1e-12)

    def test_missing_cell_is_empty(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix_csv(path, sample_matrix())
        lines = path.read_text().splitlines()
        assert lines[0] == "sample_id,fa,fb,fc"
        assert lines[1].split(",")[2] == ""

    def test_rewrite_is_byte_identical(self, tmp_path):
        spec = SynthSpec(n=12, k=2, dims=(6, 5, 4), missing_rate=0.1, seed=8)
        mats, _, _ = generate(spec)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_matrix_csv(p1, mats[0])
        write_matrix_csv(p2, read_matrix_csv(p1, kind=mats[0].kind))
        assert p1.read_bytes() == p2.read_bytes()

    def test_matches_the_per_cell_reference(self, tmp_path):
        sample_ids = ["plain", "a,b", 'q"x', "new\nline", "", " lead", "cr\r"]
        feature_ids = ["f,1", 'f"2', "f 3", "f\n4", ""]
        rng = np.random.default_rng(5)
        values = rng.normal(size=(7, 5)) * 10.0 ** rng.integers(-8, 8, (7, 5))
        values[0] = [np.nan, -0.0, 0.0, 1.0 / 3.0, np.nan]
        m = OmicsMatrix(values=values, sample_ids=sample_ids, feature_ids=feature_ids)
        got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
        write_matrix_csv(got, m)
        write_matrix_csv_cells(ref, m)
        assert got.read_bytes() == ref.read_bytes()
        assert b",-0," in got.read_bytes()

    @settings(max_examples=100, deadline=None, database=None)
    @given(m=csv_matrices())
    def test_rewrite_of_what_was_read_is_byte_identical(self, tmp_path_factory, m):
        root = tmp_path_factory.mktemp("matrix")
        p1, p2 = root / "a.csv", root / "b.csv"
        write_matrix_csv(p1, m)
        back = read_matrix_csv(p1)
        write_matrix_csv(p2, back)
        assert p1.read_bytes() == p2.read_bytes()
        assert back.sample_ids == m.sample_ids and back.feature_ids == m.feature_ids
        assert np.array_equal(back.missing_mask, m.missing_mask)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("id,f1\nx,1\n")
        with pytest.raises(ValueError):
            read_matrix_csv(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("sample_id,f1,f2\nx,1\n")
        with pytest.raises(ValueError):
            read_matrix_csv(path)

    def test_empty_body(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("sample_id,f1\n")
        with pytest.raises(ValueError):
            read_matrix_csv(path)


class TestSurvivalCsv:
    def test_round_trip(self, tmp_path):
        recs = [
            SurvivalRecord("p1", 3.25, 1),
            SurvivalRecord("p2", 0.517, 0),
            SurvivalRecord("p3", 11.0, 1),
        ]
        path = tmp_path / "surv.csv"
        write_survival_csv(path, recs)
        back = read_survival_csv(path)
        assert back == recs

    def test_rewrite_is_byte_identical(self, tmp_path):
        _, _, recs = generate(SynthSpec(n=15, k=3, dims=(4, 4, 4), seed=6))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_survival_csv(p1, recs)
        write_survival_csv(p2, read_survival_csv(p1))
        assert p1.read_bytes() == p2.read_bytes()

    @settings(max_examples=100, deadline=None, database=None)
    @given(data=st.data())
    def test_round_trip_of_any_records(self, tmp_path_factory, data):
        ids = data.draw(st.lists(ID_TEXT, min_size=1, max_size=8, unique=True))
        times = data.draw(st.lists(st.floats(1e-8, 1e8), min_size=len(ids), max_size=len(ids)))
        events = data.draw(st.lists(st.integers(0, 1), min_size=len(ids), max_size=len(ids)))
        recs = [SurvivalRecord(*rec) for rec in zip(ids, times, events)]
        root = tmp_path_factory.mktemp("survival")
        p1, p2 = root / "a.csv", root / "b.csv"
        write_survival_csv(p1, recs)
        back = read_survival_csv(p1)
        write_survival_csv(p2, back)
        assert p1.read_bytes() == p2.read_bytes()
        assert [(r.sample_id, r.event) for r in back] == [(r.sample_id, r.event) for r in recs]
        for got, want in zip(back, recs):
            assert got.time == pytest.approx(want.time, rel=1e-11)

    def test_bad_event_value(self, tmp_path):
        path = tmp_path / "surv.csv"
        path.write_text("sample_id,time,event\np1,2.0,yes\n")
        with pytest.raises(ValueError):
            read_survival_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "surv.csv"
        path.write_text("sample,time,event\np1,2.0,1\n")
        with pytest.raises(ValueError):
            read_survival_csv(path)


class TestLabelsCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "labels.csv"
        write_labels_csv(path, ["p1", "p2", "p3"], [0, 1, 0])
        ids, labels = read_labels_csv(path)
        assert ids == ["p1", "p2", "p3"]
        assert labels == ["0", "1", "0"]

    @settings(max_examples=100, deadline=None, database=None)
    @given(data=st.data())
    def test_round_trip_of_any_labels(self, tmp_path_factory, data):
        ids = data.draw(st.lists(ID_TEXT, min_size=1, max_size=8, unique=True))
        labels = data.draw(st.lists(ID_TEXT, min_size=len(ids), max_size=len(ids)))
        path = tmp_path_factory.mktemp("labels") / "labels.csv"
        write_labels_csv(path, ids, labels)
        assert read_labels_csv(path) == (ids, labels)

    def test_length_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            write_labels_csv(tmp_path / "x.csv", ["a"], [0, 1])

    def test_bad_header(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("sample,cluster\na,0\n")
        with pytest.raises(ValueError):
            read_labels_csv(path)


class TestJson:
    def test_deterministic_and_sorted(self, tmp_path):
        obj = {"zeta": np.float64(1.0 / 3.0), "alpha": [np.int64(2), True],
               "nested": {"b": 1.0, "a": np.array([0.1, 0.2])}}
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_json(p1, obj)
        write_json(p2, obj)
        assert p1.read_bytes() == p2.read_bytes()
        text = p1.read_text()
        assert text.index('"alpha"') < text.index('"zeta"')
        back = read_json(p1)
        assert back["alpha"] == [2, True]
        assert back["nested"]["a"] == [0.1, 0.2]

    @settings(max_examples=100, deadline=None, database=None)
    @given(obj=st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(-10**6, 10**6), st.text(max_size=4),
                  st.floats(allow_infinity=False)),
        lambda inner: st.one_of(st.lists(inner, max_size=4),
                                st.dictionaries(st.text(max_size=4), inner, max_size=4)),
        max_leaves=12))
    def test_deterministic_for_any_object(self, tmp_path_factory, obj):
        root = tmp_path_factory.mktemp("json")
        p1, p2, p3 = root / "a.json", root / "b.json", root / "c.json"
        write_json(p1, obj)
        write_json(p2, obj)
        write_json(p3, read_json(p1))
        assert p1.read_bytes() == p2.read_bytes() == p3.read_bytes()
        if isinstance(obj, dict):  # key order does not reach the bytes
            write_json(p2, dict(reversed(list(obj.items()))))
            assert p2.read_bytes() == p1.read_bytes()

    def test_floats_rounded_to_12_digits(self, tmp_path):
        path = tmp_path / "a.json"
        write_json(path, {"x": 0.12345678901234567})
        assert read_json(path)["x"] == float("0.123456789012")

    def test_nan_becomes_null(self, tmp_path):
        path = tmp_path / "a.json"
        write_json(path, {"x": float("nan")})
        assert read_json(path)["x"] is None


class TestTableCsv:
    def test_mixed_types(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table_csv(path, ["k2", "ari"], [[2, 0.5], [3, np.float64(1.0 / 3.0)]])
        lines = path.read_text().splitlines()
        assert lines[0] == "k2,ari"
        assert lines[1] == "2,0.5"
        assert lines[2] == "3,0.333333333333"

    def test_row_ids_path_writes_the_generic_bytes(self, tmp_path):
        ids = ["plain", "a,b", 'q"x', "new\nline", "", " lead", "cr\r"]
        rng = np.random.default_rng(3)
        matrix = rng.normal(size=(len(ids), len(ids))) * 10.0 ** rng.integers(-8, 8, (7, 7))
        matrix[0, :4] = [np.nan, np.inf, -0.0, 1.0 / 3.0]
        # generic cells as Python floats and as numpy scalars (a float32 NaN
        # too), and a matrix with no columns, where each line is the id alone
        cases = [(matrix, float), (matrix, np.float64), (matrix.astype(np.float32), np.float32),
                 (matrix[:, :0], float)]
        for i, (values, cell) in enumerate(cases):
            header = ["sample_id", *ids[:values.shape[1]]]
            generic, fast = tmp_path / f"generic{i}.csv", tmp_path / f"fast{i}.csv"
            write_table_csv(generic, header,
                            [[rid, *(cell(v) for v in row)] for rid, row in zip(ids, values)])
            write_table_csv(fast, header, values, row_ids=ids)
            assert fast.read_bytes() == generic.read_bytes(), i
