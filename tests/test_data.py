import math

import numpy as np
import pytest

from bpsurv import data as dm
from oracle import CenteringFamily, RegressionState, TbpBaseline, obs_loglik, surv, total_loglik


def test_censoring_kind_rules():
    assert dm.censoring_kind(0.0, 2.0, 2.0) == dm.EXACT
    assert dm.censoring_kind(0.0, 3.5, math.inf) == dm.RIGHT
    assert dm.censoring_kind(0.0, 0.0, 1.2) == dm.LEFT
    assert dm.censoring_kind(0.5, 0.5, 1.2) == dm.LEFT  # truncated left censoring
    assert dm.censoring_kind(0.0, 1.0, 2.0) == dm.INTERVAL


def test_observation_validation():
    with pytest.raises(ValueError):
        dm.CensoredObservation(a=2.0, b=1.0, x=(0.0,))
    with pytest.raises(ValueError):
        dm.CensoredObservation(a=1.0, b=2.0, x=(0.0,), u=1.5)
    with pytest.raises(ValueError):
        dm.CensoredObservation(a=0.0, b=0.0, x=(0.0,))  # exact time zero rejected
    with pytest.raises(ValueError):
        dm.CensoredObservation(a=1.0, b=2.0, x=(math.nan,))


def make_dataset(tmp_path=None):
    obs = [
        dm.CensoredObservation(a=2.0, b=2.0, x=(1.0, 0.3), location=1),
        dm.CensoredObservation(a=3.5, b=math.inf, x=(0.0, -0.7), location=2),
        dm.CensoredObservation(a=0.0, b=1.2, x=(1.0, 1.5), location=1),
        dm.CensoredObservation(a=1.0, b=2.5, x=(0.0, 0.1), location=2, u=0.5),
    ]
    return dm.Dataset(observations=obs, m=2, covariate_names=["trt", "age"])


def test_dataset_centered_columns():
    ds = make_dataset()
    assert np.allclose(ds.Xc.sum(axis=0), 0.0, atol=1e-12)
    assert ds.n == 4 and ds.p == 2
    assert ds.kinds() == [dm.EXACT, dm.RIGHT, dm.LEFT, dm.INTERVAL]


def test_dataset_requires_every_location():
    obs = [dm.CensoredObservation(a=1.0, b=1.0, x=(), location=2)]
    with pytest.raises(ValueError, match="missing"):
        dm.Dataset(observations=obs, m=2, covariate_names=[])


class TestCsv:
    def test_load_inference_rules(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "t1,t2,trt,loc\n"
            "2.0,2.0,1,A\n"
            "3.5,,0,B\n"
            "0,1.2,1,A\n"
        )
        ds = dm.load_csv(path, dm.CsvSchema(location="loc", covariates=("trt",)))
        assert ds.kinds() == [dm.EXACT, dm.RIGHT, dm.LEFT]
        assert ds.m == 2
        assert ds.location_ids == ["A", "B"]
        assert ds.observations[0].location == 1
        assert ds.observations[1].location == 2
        assert math.isinf(ds.observations[1].b)

    def test_round_trip(self, tmp_path):
        ds = make_dataset()
        path = tmp_path / "rt.csv"
        ds.to_csv(path)
        ds2 = dm.load_csv(path, dm.CsvSchema(trunc="trunc", location="location",
                                             covariates=("trt", "age")))
        assert ds2.observations == ds.observations
        assert ds2.m == ds.m

    def test_error_reporting(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t1,t2\n1.0,0.5\n")
        with pytest.raises(ValueError, match="row 2"):
            dm.load_csv(path)
        path.write_text("t1,t2\n-1.0,2.0\n")
        with pytest.raises(ValueError, match="negative"):
            dm.load_csv(path)
        path.write_text("t1,t2\nfoo,2.0\n")
        with pytest.raises(ValueError, match="malformed"):
            dm.load_csv(path)
        with pytest.raises(ValueError, match="unknown column"):
            dm.load_csv(path, dm.CsvSchema(t1="start"))

    @pytest.mark.parametrize("text, schema, message", [
        ("t1,t2,x1\n1.0,2.0,0.5\n1.5,\n", dm.CsvSchema(), "expected 3 fields, got 2"),
        ("t1,t2,x1,loc\n1.0,2.0,0.5,A\n1.5,3\n", dm.CsvSchema(location="loc"),
         "expected 4 fields, got 2"),
        # a long row would lose its extra field silently
        ("t1,t2,x1\n1.0,2.0,0.5\n1.5,3,1,7\n", dm.CsvSchema(), "expected 3 fields, got 4"),
    ], ids=["short", "short-location", "long"])
    def test_row_with_the_wrong_field_count(self, tmp_path, text, schema, message):
        path = tmp_path / "ragged.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^row 3: {message}$"):
            dm.load_csv(path, schema)

    def test_malformed_coordinate_names_the_row(self, tmp_path):
        path = tmp_path / "geo.csv"
        path.write_text("t1,t2,x1,lon,lat\n1.0,1.0,0.2,1.5,2.5\n2.0,,0.1,abc,2.5\n")
        with pytest.raises(ValueError, match="row 3: malformed lon/lat value .*'abc'"):
            dm.load_csv(path, dm.CsvSchema(lon="lon", lat="lat"))

    def test_coordinate_deduplication(self, tmp_path):
        path = tmp_path / "geo.csv"
        path.write_text(
            "t1,t2,x1,lon,lat\n"
            "1.0,1.0,0.2,1.5,2.5\n"
            "2.0,,0.1,1.5,2.5\n"
            "1.5,1.5,0.4,3.0,4.0\n"
        )
        ds = dm.load_csv(path, dm.CsvSchema(lon="lon", lat="lat", covariates=("x1",)))
        assert ds.m == 2
        assert ds.coords.shape == (2, 2)
        assert np.allclose(ds.coords[0], [1.5, 2.5])
        assert ds.observations[0].location == ds.observations[1].location == 1


class TestAdjacencyIO:
    def test_matrix_format(self, tmp_path):
        path = tmp_path / "adj.txt"
        path.write_text("0 1 0\n1 0 1\n0 1 0\n")
        E = dm.load_adjacency(path)
        assert E.shape == (3, 3)
        assert E[0, 1] == 1 and E[0, 2] == 0

    def test_edge_list_format(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("1 2\n2 3\n3 4\n")
        E = dm.load_adjacency(path)
        assert E.shape == (4, 4)
        assert E[0, 1] == 1 and E[1, 2] == 1 and E[0, 3] == 0
        assert np.array_equal(E, E.T)

    def test_two_line_file_reads_by_region_count(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("1 2\n2 3\n")  # the path graph over three regions
        E = dm.load_adjacency(edges, m=3)
        assert np.array_equal(E, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        matrix = tmp_path / "adj.txt"
        matrix.write_text("0 1\n1 0\n")
        for m in (2, None):
            assert np.array_equal(dm.load_adjacency(matrix, m=m), [[0, 1], [1, 0]])

    def test_data_labels_equal_as_numbers_are_ambiguous(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("1 2\n2 3\n")
        assert np.array_equal(dm.load_adjacency(edges, labels=["3", "1.0", "02"]),
                              [[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        with pytest.raises(ValueError, match="repeat"):
            dm.load_adjacency(edges, labels=["1", "1.0", "2"])


class TestTimeVarying:
    def baseline(self):
        return TbpBaseline(J=8, w=np.full(8, 1.0 / 8),
                           family=CenteringFamily("loglogistic", (0.1, 0.2)))

    def test_single_epoch_degenerates(self):
        subj = dm.TimeVaryingSubject(a=2.0, b=2.0, epochs=((0.0, (1.0,)),))
        out = dm.expand_time_varying(subj)
        assert out == [dm.CensoredObservation(a=2.0, b=2.0, x=(1.0,), location=1, u=0.0)]

    def test_two_epochs_layout(self):
        subj = dm.TimeVaryingSubject(a=2.0, b=2.0, epochs=((0.0, (1.0,)), (1.0, (2.0,))))
        out = dm.expand_time_varying(subj)
        assert out[0] == dm.CensoredObservation(a=1.0, b=math.inf, x=(1.0,), location=1, u=0.0)
        assert out[1] == dm.CensoredObservation(a=2.0, b=2.0, x=(2.0,), location=1, u=1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            dm.TimeVaryingSubject(a=2.0, b=2.0, epochs=())
        with pytest.raises(ValueError):
            dm.TimeVaryingSubject(a=2.0, b=2.0, epochs=((0.0, (1.0,)), (2.5, (1.0,))))
        with pytest.raises(ValueError):
            dm.TimeVaryingSubject(a=2.0, b=3.0, epochs=((0.5, (1.0,)),))

    def test_likelihood_matches_product_formula(self):
        # three epochs, right-censored subject; compare against the displayed
        # conditional-survival product evaluated term by term
        base = self.baseline()
        beta = np.array([0.8])
        epochs = ((0.0, (0.5,)), (0.7, (1.5,)), (1.4, (-0.3,)))
        subj = dm.TimeVaryingSubject(a=2.2, b=math.inf, epochs=epochs)
        records = dm.expand_time_varying(subj)
        ds = dm.Dataset(observations=records, m=1, covariate_names=["x"])
        state = RegressionState(beta=beta)
        total, per_obs = total_loglik("ph", ds, state, base)

        def S(t, x):
            return surv("ph", t, float(beta[0] * x), base)

        t1, t2, t3 = 0.0, 0.7, 1.4
        expected = (math.log(S(t2, 0.5) / 1.0)
                    + math.log(S(t3, 1.5) / S(t2, 1.5))
                    + math.log(S(2.2, -0.3) / S(t3, -0.3)))
        assert total == pytest.approx(expected, abs=1e-12)
        assert per_obs.shape == (3,)
        assert total == pytest.approx(sum(
            obs_loglik("ph", o, float(beta[0] * o.x[0]), base) for o in records), abs=1e-12)
