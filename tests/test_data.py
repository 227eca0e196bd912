import math
import re

import numpy as np
import pytest

from bpsurv import data as dm
from bpsurv import sampler as sm
from bpsurv.simulate import DESIGNS
from bpsurv.splines import gprior_scale
from oracle import CenteringFamily, RegressionState, TbpBaseline, obs_loglik, surv, total_loglik


def dataset(a, b, u=None, X=None, loc=None, m=1, names=()):
    n = len(a)
    return dm.Dataset(a=a, b=b, u=np.zeros(n) if u is None else u,
                      X=np.zeros((n, 0)) if X is None else X,
                      loc=np.ones(n, dtype=int) if loc is None else loc, m=m,
                      covariate_names=list(names))


def test_kinds_follow_the_rules():
    ds = dataset(a=[2.0, 3.5, 0.0, 0.5, 1.0], b=[2.0, math.inf, 1.2, 1.2, 2.0],
                 u=[0.0, 0.0, 0.0, 0.5, 0.0])  # row 3: truncated left censoring
    assert ds.kinds().tolist() == [dm.EXACT, dm.RIGHT, dm.LEFT, dm.LEFT, dm.INTERVAL]
    assert dataset(a=[], b=[]).kinds().tolist() == []


def test_observation_validation():
    cases = [
        (dict(a=2.0, b=1.0), "need 0 <= u <= a <= b, got u=0.0, a=2.0, b=1.0"),
        (dict(a=1.0, b=2.0, u=1.5), "need 0 <= u <= a <= b, got u=1.5, a=1.0, b=2.0"),
        (dict(a=math.nan, b=2.0), "need 0 <= u <= a <= b, got u=0.0, a=nan, b=2.0"),
        (dict(a=1.0, b=math.nan), "need 0 <= u <= a <= b, got u=0.0, a=1.0, b=nan"),
        (dict(a=1.0, b=2.0, u=math.nan), "need 0 <= u <= a <= b, got u=nan, a=1.0, b=2.0"),
        (dict(a=math.inf, b=math.inf), "exact observation at infinity"),
        (dict(a=0.0, b=0.0), "exact observations require a strictly positive time"),
        (dict(loc=0), "location indices are 1-based"),
        (dict(loc=3), "location 3 exceeds m = 2"),
        (dict(x=math.nan), "covariates must be finite"),
        (dict(x=-math.inf), "covariates must be finite"),
    ]
    for row, message in cases:
        # the bad row is row 1 of 3; rows 0 and 2 are valid and cover both sites
        row = {"a": 1.0, "b": 1.0, "u": 0.0, "x": 0.0, "loc": 1, **row}
        cols = {k: [good, row[k], good] for k, good in
                (("a", 1.0), ("b", 1.0), ("u", 0.0), ("x", 0.5), ("loc", 1))}
        cols["loc"][2] = 2
        with pytest.raises(ValueError, match=f"^observation 1: {re.escape(message)}$"):
            dataset(a=cols["a"], b=cols["b"], u=cols["u"], X=np.array(cols["x"])[:, None],
                    loc=cols["loc"], m=2, names=["x"])


def test_array_shapes_and_types():
    with pytest.raises(ValueError, match="covariate dimension mismatch"):
        dataset(a=[1.0, 2.0], b=[1.0, 2.0], X=np.zeros((2, 1)))
    with pytest.raises(ValueError, match="one length"):
        dataset(a=[1.0, 2.0], b=[1.0])
    with pytest.raises(ValueError, match="must be integers"):
        dataset(a=[1.0], b=[1.0], loc=[1.0])


def make_dataset(tmp_path=None):
    return dataset(a=[2.0, 3.5, 0.0, 1.0], b=[2.0, math.inf, 1.2, 2.5], u=[0.0, 0.0, 0.0, 0.5],
                   X=[[1.0, 0.3], [0.0, -0.7], [1.0, 1.5], [0.0, 0.1]], loc=[1, 2, 1, 2], m=2,
                   names=["trt", "age"])


def test_dataset_centered_columns():
    # the g-prior of variable selection is built from the mean-centred columns
    ds = make_dataset()
    assert ds.n == 4 and ds.p == 2
    assert ds.kinds().tolist() == [dm.EXACT, dm.RIGHT, dm.LEFT, dm.INTERVAL]
    cfg = sm.McmcConfig(J=2, nburn=0, nsave=0, selection=True, theta0=(0.0, 0.0), V0=np.eye(2))
    s = sm.ChainSampler(ds, cfg)
    Xc = ds.X - ds.X.mean(axis=0)
    assert np.allclose(s.W0inv[:2, :2], Xc.T @ Xc / (gprior_scale(2) * ds.n), rtol=1e-12)


def test_dataset_requires_every_location():
    with pytest.raises(ValueError, match=r"missing \[1\]"):
        dataset(a=[1.0], b=[1.0], loc=[2], m=2)


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
        assert ds.kinds().tolist() == [dm.EXACT, dm.RIGHT, dm.LEFT]
        assert ds.m == 2
        assert ds.location_ids == ["A", "B"]
        assert ds.loc.tolist() == [1, 2, 1]
        assert math.isinf(ds.b[1])

    def test_round_trip(self, tmp_path):
        # to_csv(load_csv(f)) is f byte for byte, for every simulate design's file
        datasets = {"make_dataset": make_dataset()}
        datasets.update((name, DESIGNS[name]().generate(7)[0]) for name in sorted(DESIGNS))
        for name, ds in datasets.items():
            path, again = tmp_path / f"{name}.csv", tmp_path / f"{name}-again.csv"
            ds.to_csv(path)
            sites = dict(location="location") if ds.coords is None else dict(lon="lon", lat="lat")
            ds2 = dm.load_csv(path, dm.CsvSchema(trunc="trunc", **sites))
            for field in ("a", "b", "u", "X", "loc"):
                assert np.array_equal(getattr(ds2, field), getattr(ds, field)), (name, field)
            assert ds2.m == ds.m and ds2.covariate_names == ds.covariate_names, name
            ds2.to_csv(again)
            assert again.read_bytes() == path.read_bytes(), name

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

    @pytest.mark.parametrize("header, bad, schema, message", [
        pytest.param("t1,t2,x", ",2.0,1", {}, "missing t1", id="missing-t1"),
        pytest.param("t1,t2,x", "one,2.0,1", {}, "malformed t1 'one'", id="malformed-t1"),
        pytest.param("t1,t2,x", "1.0,2.x,1", {}, "malformed t2 '2.x'", id="malformed-t2"),
        pytest.param("t1,t2,x", "-1.0,2.0,1", {}, "negative t1", id="negative-t1"),
        pytest.param("t1,t2,x", "1.0,-2.0,1", {}, "negative t2", id="negative-t2"),
        pytest.param("t1,t2,tr,x", "1.0,2.0,,1", dict(trunc="tr"), "missing trunc",
                     id="missing-trunc"),
        pytest.param("t1,t2,tr,x", "1.0,2.0,-0.5,1", dict(trunc="tr"), "negative trunc",
                     id="negative-trunc"),
        pytest.param("t1,t2,x", "3.0,2.0,1", {}, "t2 < t1 (2.0 < 3.0)", id="t2-before-t1"),
        pytest.param("t1,t2,x", "1.0,2.0,abc", {}, "malformed covariate value",
                     id="malformed-covariate"),
        pytest.param("t1,t2,x", "1.0,2.0,1,9", {}, "expected 3 fields, got 4", id="long-row"),
        pytest.param("t1,t2,x", "nan,2.0,1", {},
                     "need 0 <= u <= a <= b, got u=0.0, a=nan, b=2.0", id="nan-t1"),
        pytest.param("t1,t2,x", "1.0,nan,1", {},
                     "need 0 <= u <= a <= b, got u=0.0, a=1.0, b=nan", id="nan-t2"),
        pytest.param("t1,t2,tr,x", "1.0,2.0,nan,1", dict(trunc="tr"),
                     "need 0 <= u <= a <= b, got u=nan, a=1.0, b=2.0", id="nan-trunc"),
        pytest.param("t1,t2,tr,x", "1.0,2.0,1.5,1", dict(trunc="tr"),
                     "need 0 <= u <= a <= b, got u=1.5, a=1.0, b=2.0", id="trunc-after-t1"),
        pytest.param("t1,t2,x", "inf,,1", {}, "exact observation at infinity", id="inf-t1"),
        pytest.param("t1,t2,x", "inf,inf,1", {}, "exact observation at infinity",
                     id="inf-t1-t2"),
        pytest.param("t1,t2,x", "0,0,1", {},
                     "exact observations require a strictly positive time", id="exact-zero"),
        pytest.param("t1,t2,x", "1.0,2.0,nan", {}, "covariates must be finite",
                     id="nan-covariate"),
        pytest.param("t1,t2,x", "1.0,2.0,-inf", {}, "covariates must be finite",
                     id="inf-covariate"),
        pytest.param("t1,t2,x,loc", "1.0,2.0,1,  ", dict(location="loc"), "missing location",
                     id="blank-location"),
        pytest.param("t1,t2,x,lon,lat", "1.0,2.0,1,1.5,x", dict(lon="lon", lat="lat"),
                     "malformed lon/lat value ('1.5', 'x')", id="malformed-lat"),
        pytest.param("t1,t2,x,lon,lat", "1.0,2.0,1,nan,2.5", dict(lon="lon", lat="lat"),
                     "non-finite lon/lat value ('nan', '2.5')", id="nan-lon"),
        pytest.param("t1,t2,x,lon,lat", "1.0,2.0,1,1.5,-inf", dict(lon="lon", lat="lat"),
                     "non-finite lon/lat value ('1.5', '-inf')", id="inf-lat"),
    ])
    def test_each_row_error_names_its_row(self, tmp_path, header, bad, schema, message):
        # the bad row follows a good row and a blank line: it is the file's
        # row 4 but the second data row
        good = ",".join({"t1": "1.0", "t2": "", "tr": "0", "x": "0.5", "loc": "A",
                         "lon": "1.5", "lat": "2.5"}[c] for c in header.split(","))
        path = tmp_path / "bad.csv"
        path.write_text(f"{header}\n{good}\n\n{bad}\n{good}\n")
        with pytest.raises(ValueError, match=f"^row 4: {re.escape(message)}$"):
            dm.load_csv(path, dm.CsvSchema(**schema))

    def test_first_bad_row_is_reported(self, tmp_path):
        # a parse error is found while reading, before any row is checked
        path = tmp_path / "bad.csv"
        path.write_text("t1,t2,x\n1.0,1.0,0.5\n0,0,1\n\n1.0,2.0,nan\n3.0,3.0,1\n")
        with pytest.raises(ValueError, match="^row 3: exact observations require"):
            dm.load_csv(path)
        path.write_text("t1,t2,x\n1.0,1.0,0.5\n0,0,1\n\n1.0,x,0\n3.0,3.0,1\n")
        with pytest.raises(ValueError, match="^row 5: malformed t2"):
            dm.load_csv(path)

    @pytest.mark.parametrize("sites", [
        dict(lon="lon"), dict(lat="lat"), dict(location="location", lon="lon", lat="lat"),
        dict(location="location", lat="lat"),
    ], ids=["lon-only", "lat-only", "location-and-lon-lat", "location-and-lat"])
    def test_a_schema_names_one_site_form(self, tmp_path, sites):
        path = tmp_path / "geo.csv"
        path.write_text("t1,t2,x,lon,lat,location\n1.0,1.0,0.2,1.5,2.5,A\n2.0,,0.1,3.0,4.0,B\n")
        with pytest.raises(ValueError, match="location column alone or by lon and lat"):
            dm.load_csv(path, dm.CsvSchema(**sites))

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
        assert ds.loc.tolist() == [1, 1, 2]


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
    def test_likelihood_matches_product_formula(self):
        # A right-censored subject (event time beyond 2.2) whose covariate
        # changes at 0.7 and 1.4, as counting-process rows: each epoch is a
        # row truncated at its start, right-censored at the next start, and
        # the last row carries the subject's own interval.  The rows'
        # log-likelihoods sum to the subject's conditional-survival product.
        base = TbpBaseline(J=8, w=np.full(8, 1.0 / 8),
                           family=CenteringFamily("loglogistic", (0.1, 0.2)))
        beta = np.array([0.8])
        ds = dataset(a=[0.7, 1.4, 2.2], b=[math.inf] * 3, u=[0.0, 0.7, 1.4],
                     X=[[0.5], [1.5], [-0.3]], names=["x"])
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
            obs_loglik("ph", a, b, u, float(beta[0] * x[0]), base)
            for a, b, u, x in zip(ds.a, ds.b, ds.u, ds.X)), abs=1e-12)
