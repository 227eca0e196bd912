import json
import os
import subprocess
import sys
import textwrap
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import bpsurv
from bpsurv import cli
from bpsurv.archive_io import load_archive
from bpsurv.cli import main
from bpsurv.data import CsvSchema, load_csv
from bpsurv.simulate import SimDesign


def tiny_dataset_csv(tmp_path, seed=0):
    ds, _ = SimDesign(model="ph", m=4, n_per_site=12, frailty_kind="none").generate(seed)
    path = tmp_path / "data.csv"
    ds.to_csv(path)
    return path


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def python(*args, **env_vars):
    """Run a fresh interpreter that imports this checkout's bpsurv, with none
    of BLAS_THREADS set unless env_vars sets it; returns the finished process."""
    src = str(Path(bpsurv.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**env, **env_vars}, check=True, timeout=120)


def test_cli_import_leaves_out_optimize_and_interpolate():
    # every bpsurv command pays for the modules that importing the CLI loads
    code = ("import sys, bpsurv.cli; print(sorted(m for m in ('scipy.optimize', "
            "'scipy.interpolate') if m in sys.modules))")
    assert python("-c", code).stdout.strip() == "[]"


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    """bpsurv simulate's sim1-ph (37 regions) and sim3-po (150 sites) data."""
    d = tmp_path_factory.mktemp("simulated")
    for design in ("sim1-ph", "sim3-po"):
        assert main(["simulate", "--design", design, "--seed", "1",
                     "--out", str(d / f"{design}.csv")]) == 0
    return d


def fit_args(simulated, case):
    """fit flags for one of the cases icar, grf, fsa, selection-spline."""
    if case in ("icar", "selection-spline"):
        args = ["--data", str(simulated / "sim1-ph.csv"), "--location-col", "location",
                "--adjacency", str(simulated / "sim1-ph_adjacency.txt"), "--frailty", "icar"]
        return args + (["--selection", "--nonlinear", "x2"] if case != "icar" else [])
    args = ["--data", str(simulated / "sim3-po.csv"), "--lon-col", "lon", "--lat-col", "lat",
            "--frailty", "grf", "--model", "po"]
    return args + (["--fsa-knots", "30", "--fsa-blocks", "5"] if case == "fsa" else [])


class TestProcess:
    """What a fresh bpsurv process loads and how many BLAS threads it runs."""

    @pytest.mark.parametrize("case", ["icar", "grf", "fsa", "selection-spline"])
    def test_dry_run_loads_no_scipy(self, simulated, case):
        argv = ["fit", *fit_args(simulated, case), "--trunc-col", "trunc", "--dry-run"]
        # python -m bpsurv.cli: -X importtime lists every module it imports
        lines = python("-X", "importtime", "-m", "bpsurv.cli", *argv).stderr.splitlines()
        imported = [line.rsplit("|", 1)[-1].strip() for line in lines]
        assert "bpsurv.sampler" in imported
        assert [m for m in imported if m.split(".")[0] == "scipy"] == []
        code = ("import sys; from bpsurv.cli import main; assert main(sys.argv[1:]) == 0; "
                "print('loaded:', sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert python("-c", code, *argv).stdout.splitlines()[-1] == "loaded: []"

    @pytest.mark.parametrize("fsa", [None, (10, 3)], ids=["dense", "fsa"])
    def test_range_worker_imports_nothing(self, fsa):
        # the chain's first structure is built before the worker forks, so
        # the worker finds scipy.linalg loaded and its factors import nothing
        code = textwrap.dedent(f"""
            import os, sys
            from bpsurv import frailty as fr, sampler as sm
            from bpsurv.simulate import SimDesign
            ds, _ = SimDesign(model="po", m=40, n_per_site=3, frailty_kind="grf").generate(5)
            spec = fr.FrailtySpec(kind="grf", coords=ds.coords, fsa={fsa!r})
            cfg = sm.McmcConfig(model="po", J=6, nburn=10, nsave=10, seed=7, frailty=spec)
            s = sm.ChainSampler(ds, cfg)
            print("scipy.linalg loaded:", "scipy.linalg" in sys.modules)
            r, w = os.pipe()
            serve = fr._serve
            def serve_and_report(*args):
                before = set(sys.modules)
                serve(*args)
                os.write(w, repr(sorted(set(sys.modules) - before)).encode())
            fr._serve = serve_and_report
            s.run()
            os.close(w)
            print("worker imported:", os.read(r, 1 << 16).decode())
        """)
        out = python("-c", code).stdout.splitlines()
        assert out == ["scipy.linalg loaded: True", "worker imported: []"]

    @pytest.mark.parametrize("case", ["grf", "fsa"])
    def test_fit_runs_blas_on_one_thread_by_default(self, simulated, tmp_path, case):
        # a second BLAS thread sums in another order, so the draws would differ
        argv = ["-m", "bpsurv.cli", "fit", *fit_args(simulated, case), "--trunc-col", "trunc",
                "--nburn", "20", "--nsave", "20", "--seed", "1", "--outdir"]
        python(*argv, str(tmp_path / "default"))
        python(*argv, str(tmp_path / "pinned"), OPENBLAS_NUM_THREADS="1")
        draws = [(tmp_path / d / "draws.csv").read_bytes() for d in ("default", "pinned")]
        assert draws[0] == draws[1]

    @pytest.mark.parametrize("chosen", [None, *BLAS_THREADS])
    def test_a_set_thread_count_wins(self, chosen):
        code = ("import os, bpsurv; print([os.environ.get(v) for v in "
                f"{BLAS_THREADS!r}])")
        got = python("-c", code, **({chosen: "2"} if chosen else {})).stdout.strip()
        want = [("2" if v == chosen else None) if chosen else "1" for v in BLAS_THREADS]
        assert got == repr(want)

    def test_numpy_loaded_first_keeps_its_threads(self):
        code = ("import os, numpy, bpsurv; print([os.environ.get(v) for v in "
                f"{BLAS_THREADS!r}])")
        assert python("-c", code).stdout.strip() == "[None, None, None]"


def tiny_data_args(tmp_path):
    """The fit flags that read tiny_dataset_csv's data."""
    return ["--data", str(tiny_dataset_csv(tmp_path)), "--location-col", "location",
            "--trunc-col", "trunc"]


def regions_csv(tmp_path):
    """24 rows over regions labelled 3, 1, 2, in order of first appearance."""
    rows = ["t1,t2,x,location"]
    for i in range(24):
        t = 0.5 + 0.1 * i
        rows.append(f"{t},{'' if i % 4 == 0 else t},{i % 5},{(3, 1, 2)[i % 3]}")
    path = tmp_path / "regions.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


FAST = ["--nburn", "120", "--nsave", "80", "--nskip", "1"]


class TestSimulate:
    def test_writes_csv_and_adjacency(self, tmp_path, capsys):
        out = tmp_path / "sim" / "d.csv"
        rc = main(["simulate", "--design", "sim1-ph", "--seed", "3", "--out", str(out),
                   "--truth-out", str(tmp_path / "truth.json")])
        assert rc == 0
        assert out.exists()
        assert (tmp_path / "sim" / "d_adjacency.txt").exists()
        truth = json.loads((tmp_path / "truth.json").read_text())
        assert truth["beta"] == [1.0, 1.0]
        text = out.read_text().splitlines()
        assert text[0].startswith("t1,t2,trunc")
        assert len(text) == 741

    def test_geo_design_writes_coordinates(self, tmp_path):
        out = tmp_path / "geo.csv"
        rc = main(["simulate", "--design", "sim3-ph", "--seed", "1", "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines()[0].endswith("lon,lat")


class TestFit:
    def test_dry_run_prints_hyperparameters(self, tmp_path, capsys):
        path = tiny_dataset_csv(tmp_path)
        rc = main(["fit", "--data", str(path), "--location-col", "location",
                   "--trunc-col", "trunc", "--selection", "--dry-run"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "g = 1.61" in text  # [log 10 / ndtri(0.9)]^2 / p at p = 2
        assert "n = 48" in text

    def test_dry_run_grf_phi0(self, tmp_path, capsys):
        out = tmp_path / "geo.csv"
        main(["simulate", "--design", "sim3-ph", "--seed", "1", "--out", str(out)])
        rc = main(["fit", "--data", str(out), "--lon-col", "lon", "--lat-col", "lat",
                   "--trunc-col", "trunc", "--frailty", "grf", "--dry-run"])
        assert rc == 0
        assert "phi0 = " in capsys.readouterr().out

    def test_constant_trunc_column_is_not_a_covariate(self, tmp_path, capsys):
        data = tmp_path / "sim.csv"
        assert main(["simulate", "--design", "sim1-ph", "--seed", "1",
                     "--out", str(data)]) == 0
        argv = ["fit", "--data", str(data), "--location-col", "location", *FAST,
                "--outdir", str(tmp_path / "fit")]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "'trunc'" in err and "--trunc-col" in err
        assert main(argv + ["--trunc-col", "trunc"]) == 0
        header = (tmp_path / "fit" / "draws.csv").read_text().splitlines()[0]
        assert "beta.trunc" not in header

    @pytest.mark.parametrize("flag, value", [("--nskip", "0"), ("--nburn", "-1"),
                                             ("--nsave", "-1"), ("--J", "1"), ("--J", "0")])
    def test_broken_chain_setting_is_an_error(self, tmp_path, capsys, flag, value):
        path = tiny_dataset_csv(tmp_path)
        rc = main(["fit", "--data", str(path), "--location-col", "location",
                   "--trunc-col", "trunc", *FAST, flag, value, "--dry-run"])
        assert rc == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err

    @pytest.mark.parametrize("rows, flags, message", [
        (["1.0,1.0,0.2,1.5,2.5,A", "2.0,,0.1,nan,2.5,B"], ["--lon-col", "lon", "--lat-col", "lat",
                                                          "--frailty", "grf"],
         "error: row 3: non-finite lon/lat value ('nan', '2.5')"),
        (["1.0,1.0,0.2,1.5,2.5,A", "2.0,,0.1,1.5,inf,B"], ["--lon-col", "lon", "--lat-col", "lat"],
         "error: row 3: non-finite lon/lat value ('1.5', 'inf')"),
        (["1.0,1.0,0.2,1.5,2.5,A", "2.0,,0.1,3.0,4.0,B"], ["--lon-col", "lon", "--frailty", "grf"],
         "lon and lat columns together, not location=None, lon='lon', lat=None"),
        (["1.0,1.0,0.2,1.5,2.5,A", "2.0,,0.1,3.0,4.0,B"],
         ["--location-col", "site", "--lon-col", "lon", "--lat-col", "lat"],
         "lon and lat columns together, not location='site', lon='lon', lat='lat'"),
        (["1.0,1.0,0.2,1.5,2.5,A", "2.0,,0.1,3.0,4.0, "], ["--location-col", "site"],
         "error: row 3: missing location"),
    ], ids=["nan-lon", "inf-lat", "lon-without-lat", "location-and-lon-lat", "blank-location"])
    def test_bad_sites_are_input_errors(self, tmp_path, capsys, rows, flags, message):
        path = tmp_path / "sites.csv"
        path.write_text("\n".join(["t1,t2,x,lon,lat,site", *rows]) + "\n")
        assert main(["fit", "--data", str(path), "--covariates", "x", *flags, "--dry-run"]) == 2
        assert message in capsys.readouterr().err

    def test_unknown_nonlinear_covariate_is_an_error(self, tmp_path, capsys):
        path = tiny_dataset_csv(tmp_path)
        rc = main(["fit", "--data", str(path), "--location-col", "location",
                   "--trunc-col", "trunc", "--nonlinear", "x9", "--dry-run"])
        assert rc == 2
        assert "unknown covariate 'x9'; the data has ['x1', 'x2']" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--covariates", "x1,x1"], "covariate column 'x1' is listed twice"),
        (["--covariates", "x1,t1"], "covariate column 't1' is the t1 column, not a covariate"),
        (["--covariates", "x1,location"],
         "covariate column 'location' is the location column, not a covariate"),
        (["--nonlinear", "x2,x2"], "nonlinear covariate 'x2' is listed twice"),
    ], ids=["repeated-covariate", "t1-covariate", "location-covariate", "repeated-nonlinear"])
    def test_repeated_or_claimed_name_is_an_input_error(self, tmp_path, capsys, flags, message):
        argv = ["fit", *tiny_data_args(tmp_path), *flags, *FAST]
        for last in (["--dry-run"], ["--outdir", str(tmp_path / "fit")]):
            capsys.readouterr()
            assert main(argv + last) == 2
            assert message in capsys.readouterr().err
        assert not (tmp_path / "fit").exists()

    def test_large_magnitude_covariate(self, tmp_path, capsys):
        # epoch seconds: numpy's centering leaves |sum Xc| far above 1e-10 n
        rng = np.random.default_rng(0)
        rows = ["t1,t2,stamp"]
        for i in range(740):
            t = 0.5 + 0.01 * i
            rows.append(f"{t!r},{'' if i % 3 == 0 else repr(t)},{1.6e9 + rng.uniform(0, 3e7)!r}")
        path = tmp_path / "stamps.csv"
        path.write_text("\n".join(rows) + "\n")
        ds = load_csv(path)
        assert ds.n == 740 and np.all(np.isfinite(ds.X - ds.X.mean(axis=0)))
        assert main(["fit", "--data", str(path), "--dry-run"]) == 0

    @pytest.mark.parametrize("text", ["1 2\n2 3\n", "0 1 0\n1 0 1\n0 1 0\n"],
                             ids=["edges", "matrix"])
    def test_adjacency_rows_follow_region_labels(self, tmp_path, capsys, text):
        data, adj = regions_csv(tmp_path), tmp_path / "adj.txt"
        adj.write_text(text)  # the path graph 1 - 2 - 3
        ds = load_csv(data, CsvSchema(location="location"))
        spec = cli._frailty_spec({"frailty": "icar", "adjacency": str(adj), "fsa_knots": None,
                                  "fsa_blocks": None}, ds)
        # sites in order are the regions labelled 3, 1 and 2
        assert np.array_equal(spec.adjacency, [[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        assert main(["fit", "--data", str(data), "--location-col", "location",
                     "--frailty", "icar", "--adjacency", str(adj), "--dry-run"]) == 0

    @pytest.mark.parametrize("text,missing", [("1 2\n2 5\n", "['3'] of the data"),
                                              ("1 2\n2 3\n3 4\n", "['4'] of the adjacency")],
                             ids=["unknown-label", "extra-region"])
    def test_adjacency_labels_must_match_the_data(self, tmp_path, capsys, text, missing):
        data, adj = regions_csv(tmp_path), tmp_path / "adj.txt"
        adj.write_text(text)
        assert main(["fit", "--data", str(data), "--location-col", "location",
                     "--frailty", "icar", "--adjacency", str(adj), "--dry-run"]) == 2
        assert f"regions {missing}" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["none", "iid", "icar"])
    def test_fsa_flags_need_a_grf_frailty(self, tmp_path, capsys, kind):
        data, adj = regions_csv(tmp_path), tmp_path / "adj.txt"
        adj.write_text("1 2\n2 3\n")
        argv = ["fit", "--data", str(data), "--location-col", "location", "--frailty", kind,
                "--fsa-knots", "5", "--fsa-blocks", "2", "--dry-run"]
        if kind == "icar":
            argv += ["--adjacency", str(adj)]
        assert main(argv) == 2
        assert f"applies to grf frailties, not {kind}" in capsys.readouterr().err

    def test_spline_k_below_two_is_an_error(self, tmp_path, capsys):
        path = tiny_dataset_csv(tmp_path)
        rc = main(["fit", "--data", str(path), "--location-col", "location",
                   "--trunc-col", "trunc", "--nonlinear", "x2", "--spline-k", "1", *FAST,
                   "--outdir", str(tmp_path / "fit")])
        assert rc == 2
        assert "a cubic spline basis needs K >= 2, got K = 1" in capsys.readouterr().err
        assert not (tmp_path / "fit").exists()

    def test_missing_data_file(self, tmp_path, capsys):
        rc = main(["fit", "--data", str(tmp_path / "nope.csv"), "--outdir",
                   str(tmp_path / "o")])
        assert rc == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_fit_writes_outputs_and_is_deterministic(self, tmp_path, capsys):
        path = tiny_dataset_csv(tmp_path)
        out1, out2 = tmp_path / "fit1", tmp_path / "fit2"
        argv = ["fit", "--data", str(path), "--location-col", "location",
                "--trunc-col", "trunc", "--model", "ph", "--seed", "7", *FAST]
        assert main(argv + ["--outdir", str(out1)]) == 0
        assert main(argv + ["--outdir", str(out2)]) == 0
        for name in ("summary.txt", "draws.csv", "loglik.npy", "meta.json"):
            assert (out1 / name).exists(), name
        assert (out1 / "draws.csv").read_bytes() == (out2 / "draws.csv").read_bytes()
        meta = json.loads((out1 / "meta.json").read_text())
        assert meta["criteria"]["lpml"] < 0
        assert "beta.x1" in (out1 / "draws.csv").read_text().splitlines()[0]

    def test_meta_json_reproduces_run(self, tmp_path):
        path = tiny_dataset_csv(tmp_path)
        out1, out2 = tmp_path / "f", tmp_path / "g"
        assert main(["fit", "--data", str(path), "--location-col", "location",
                     "--trunc-col", "trunc", "--seed", "5", *FAST, "--outdir", str(out1)]) == 0
        rc = main(["fit", "--config", str(out1 / "meta.json"), "--outdir", str(out2)])
        assert rc == 0
        assert (out1 / "draws.csv").read_bytes() == (out2 / "draws.csv").read_bytes()

    def test_fit_directory_with_q_incl_still_loads_and_replays(self, tmp_path):
        # fits written while McmcConfig had a q_incl field keep it in meta.json
        path = tiny_dataset_csv(tmp_path)
        out1, out2 = tmp_path / "f", tmp_path / "g"
        assert main(["fit", "--data", str(path), "--location-col", "location",
                     "--trunc-col", "trunc", "--selection", "--seed", "5", *FAST,
                     "--outdir", str(out1)]) == 0
        meta = json.loads((out1 / "meta.json").read_text())
        assert "q_incl" not in meta["config"]
        meta["config"]["q_incl"] = 0.5
        (out1 / "meta.json").write_text(json.dumps(meta, indent=1))
        assert load_archive(out1).L == 80
        assert main(["fit", "--config", str(out1 / "meta.json"), "--outdir", str(out2)]) == 0
        assert (out1 / "draws.csv").read_bytes() == (out2 / "draws.csv").read_bytes()

    def test_prerun_figures_in_meta_and_summary(self, tmp_path, capsys):
        path = tiny_dataset_csv(tmp_path)
        argv = ["fit", "--data", str(path), "--location-col", "location",
                "--trunc-col", "trunc", "--seed", "5", *FAST]
        assert main(argv + ["--outdir", str(tmp_path / "fit")]) == 0
        prerun = json.loads((tmp_path / "fit" / "meta.json").read_text())["prerun"]
        assert set(prerun) == {"evaluations", "converged", "message"}
        assert prerun["evaluations"] > 0 and isinstance(prerun["converged"], bool)
        summary = (tmp_path / "fit" / "summary.txt").read_text()
        assert (f"pre-run: Laplace fit  evaluations: {prerun['evaluations']}  "
                f"converged: {prerun['converged']}  ({prerun['message']})") in summary

    @pytest.mark.parametrize("part", ["hessian", "optimum"])
    def test_failed_laplace_fit_is_an_error(self, tmp_path, capsys, monkeypatch, part):
        import scipy.optimize

        from bpsurv import sampler
        if part == "hessian":  # an indefinite Hessian has no covariance
            monkeypatch.setattr(sampler, "_central_hessian", lambda f, x: -np.eye(len(x)))
        else:  # an optimiser that returns a point of zero posterior density
            monkeypatch.setattr(scipy.optimize, "minimize", lambda f, x0, method: (
                scipy.optimize.OptimizeResult(x=x0, fun=np.inf, message="forced")))
        path = tiny_dataset_csv(tmp_path)
        rc = main(["fit", "--data", str(path), "--location-col", "location",
                   "--trunc-col", "trunc", *FAST, "--outdir", str(tmp_path / "fit")])
        assert rc == 2
        assert "Laplace fit failed" in capsys.readouterr().err
        assert not (tmp_path / "fit").exists()

    def test_unfactorable_range_proposals_are_rejected(self, tmp_path, capsys):
        # nu = 2 leaves the knot correlation without a nugget and without a
        # Cholesky factor at short ranges; such phi proposals are rejected
        data = tmp_path / "geo.csv"
        assert main(["simulate", "--design", "sim3-po", "--seed", "1", "--out", str(data)]) == 0
        rc = main(["fit", "--data", str(data), "--lon-col", "lon", "--lat-col", "lat",
                   "--trunc-col", "trunc", "--model", "po", "--frailty", "grf", "--nu", "2",
                   "--fsa-knots", "30", "--fsa-blocks", "5", "--nburn", "200", "--nsave", "100",
                   "--seed", "1", "--outdir", str(tmp_path / "fit")])
        assert rc == 0
        assert json.loads((tmp_path / "fit" / "meta.json").read_text())["nonfinite_rejects"] > 0

    def test_stuck_block_is_flagged_in_summary(self, tmp_path, capsys):
        # with nu = 2 the range accepts 2 of 300 proposals and the draws
        # barely leave phi0; summary.txt must say so
        data = tmp_path / "geo.csv"
        assert main(["simulate", "--design", "sim3-po", "--seed", "1", "--out", str(data)]) == 0
        rc = main(["fit", "--data", str(data), "--lon-col", "lon", "--lat-col", "lat",
                   "--trunc-col", "trunc", "--model", "po", "--frailty", "grf", "--nu", "2",
                   "--fsa-knots", "30", "--fsa-blocks", "5", "--nburn", "200", "--nsave", "100",
                   "--seed", "1", "--outdir", str(tmp_path / "fit")])
        assert rc == 0
        text = (tmp_path / "fit" / "summary.txt").read_text()
        assert "phi=0.007" in text
        warnings = [line for line in text.splitlines() if line.startswith("warning:")]
        assert len(warnings) == 1 and warnings[0].startswith("warning: phi accepted 0.67% ")

    def test_singular_initial_range_is_an_error(self, tmp_path, capsys):
        # 19 sites within 0.01 of each other and one far away: at phi0 the
        # 12 knots' nu = 2 correlation has no Cholesky factor
        rng = np.random.default_rng(1)
        coords = np.vstack([rng.uniform(0, 0.01, size=(19, 2)), [[10.0, 10.0]]])
        rows = ["t1,t2,lon,lat"] + [f"{1.0 + 0.1 * i},{1.0 + 0.1 * i},{x!r},{y!r}"
                                    for i, (x, y) in enumerate(coords.tolist())]
        path = tmp_path / "clustered.csv"
        path.write_text("\n".join(rows) + "\n")
        rc = main(["fit", "--data", str(path), "--lon-col", "lon", "--lat-col", "lat",
                   "--frailty", "grf", "--nu", "2", "--fsa-knots", "12", "--fsa-blocks", "2",
                   *FAST, "--outdir", str(tmp_path / "fit")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "numerically singular at range phi" in err and "duplicate" not in err

    def test_config_file_key_values(self, tmp_path):
        path = tiny_dataset_csv(tmp_path)
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            f"data = {path}\nlocation_col = location\ntrunc_col = trunc\n"
            "nburn = 120\nnsave = 80\nseed = 5\n")
        out = tmp_path / "fit"
        assert main(["fit", "--config", str(cfgfile), "--outdir", str(out)]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["cli"]["nburn"] == 120

    def test_unknown_config_key(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("bogus = 1\n")
        rc = main(["fit", "--config", str(cfgfile), "--outdir", str(tmp_path / "x")])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err
        # a file or meta.json carrying a removed option does not replay
        cfgfile.write_text("prerun_iters = 2000\n")
        assert main(["fit", "--config", str(cfgfile), "--dry-run"]) == 2
        assert "['prerun_iters']" in capsys.readouterr().err
        old_meta = tmp_path / "meta.json"
        old_meta.write_text(json.dumps({"cli": {"nburn": 120, "l0": 5000, "no_prerun": False,
                                                "prerun_iters": 2000}}))
        assert main(["fit", "--config", str(old_meta), "--dry-run"]) == 2
        assert "['l0', 'no_prerun', 'prerun_iters']" in capsys.readouterr().err
        old_meta.write_text(json.dumps({"cli": {"nburn": 120, "loglik_csv": False}}))
        assert main(["fit", "--config", str(old_meta), "--dry-run"]) == 2
        assert "['loglik_csv']" in capsys.readouterr().err

    @staticmethod
    def dry_run_options(text):
        """The key = value lines of a dry run's resolved options, in order:
        not the annotated derived values, nor the closing n, m, p line."""
        lines = text.split("resolved options:\n", 1)[1].splitlines()[:-1]
        return dict(ln.strip().split(" = ", 1) for ln in lines if "  (" not in ln)

    def test_flag_beats_config_file_beats_default(self, tmp_path, capsys):
        path = tiny_dataset_csv(tmp_path)
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"data = {path}\nlocation_col = location\ntrunc_col = trunc\n"
                           "nsave = 80\nnburn = 120\n")
        capsys.readouterr()
        assert main(["fit", "--config", str(cfgfile), "--nsave", "90", "--dry-run"]) == 0
        opts = self.dry_run_options(capsys.readouterr().out)
        assert opts["nsave"] == "90"   # the flag over the file
        assert opts["nburn"] == "120"  # the file over the default
        assert opts["J"] == "15"       # McmcConfig's default
        assert opts["t1_col"] == "t1"  # CsvSchema's default

    @pytest.mark.parametrize("key", ["outdir", "dry_run", "config"])
    def test_non_option_config_key(self, tmp_path, capsys, key):
        path = tiny_dataset_csv(tmp_path)
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(f"data = {path}\n{key} = x\n")
        capsys.readouterr()
        assert main(["fit", "--config", str(cfgfile), "--outdir", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("name, text, flag, dry_run", [
        ("run.cfg", "nburn = 1e3\n", "--nburn", False),
        ("run.cfg", "seed = 1.5\n", "--seed", False),
        ("run.cfg", "J = 1.5\n", "--J", False),
        ("run.json", '{"selection": "no"}', "--selection", False),
        ("run.cfg", "model = weibull\n", "--model", True),
        ("run.cfg", "nburn =\n", "--nburn", False),
    ], ids=["nburn-float", "seed-float", "J-float", "selection-no", "model-dry-run",
            "nburn-empty"])
    def test_config_value_is_checked_like_its_flag(self, tmp_path, capsys, name, text, flag,
                                                   dry_run):
        cfgfile = tmp_path / name
        cfgfile.write_text(text)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--config", str(cfgfile), *tiny_data_args(tmp_path),
                  "--outdir", str(tmp_path / "fit")] + (["--dry-run"] if dry_run else []))
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert "Traceback" not in err and "resolved options" not in out
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].startswith(f"bpsurv fit: error: argument {flag}")
        assert not (tmp_path / "fit").exists()

    def test_json_list_is_joined_with_commas(self, tmp_path):
        path = tiny_dataset_csv(tmp_path)
        argv = ["fit", "--data", str(path), "--location-col", "location",
                "--trunc-col", "trunc", "--seed", "5", *FAST]
        assert main(argv + ["--nonlinear", "x2", "--outdir", str(tmp_path / "flag")]) == 0
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"nonlinear": ["x2"]}))
        assert main(argv + ["--config", str(cfgfile), "--outdir", str(tmp_path / "file")]) == 0
        assert ((tmp_path / "flag" / "draws.csv").read_bytes()
                == (tmp_path / "file" / "draws.csv").read_bytes())

    @pytest.mark.parametrize("name, text", [("run.cfg", "b_phi = none\n"),
                                            ("run.cfg", "b_phi =\n"),
                                            ("run.json", '{"b_phi": null}')],
                             ids=["none", "empty", "null"])
    def test_unset_value_leaves_a_none_default(self, tmp_path, capsys, name, text):
        cfgfile = tmp_path / name
        cfgfile.write_text(text)
        capsys.readouterr()
        assert main(["fit", "--config", str(cfgfile), *tiny_data_args(tmp_path), "--dry-run"]) == 0
        assert self.dry_run_options(capsys.readouterr().out)["b_phi"] == "None"

    def test_value_starting_with_a_dash_reaches_its_option(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("a_tau = -1.5\n")
        capsys.readouterr()
        assert main(["fit", "--config", str(cfgfile), *tiny_data_args(tmp_path), "--dry-run"]) == 0
        assert self.dry_run_options(capsys.readouterr().out)["a_tau"] == "-1.5"

    def test_dry_run_lists_the_meta_json_options(self, tmp_path, capsys):
        path = tiny_dataset_csv(tmp_path)
        argv = ["fit", "--data", str(path), "--location-col", "location",
                "--trunc-col", "trunc", "--selection", *FAST]
        capsys.readouterr()
        assert main(argv + ["--dry-run"]) == 0
        listed = self.dry_run_options(capsys.readouterr().out)
        assert main(argv + ["--outdir", str(tmp_path / "fit")]) == 0
        cli = json.loads((tmp_path / "fit" / "meta.json").read_text())["cli"]
        assert list(listed) == list(cli)
        assert listed == {k: str(v) for k, v in cli.items()}


class TestDiagnose:
    def test_end_to_end(self, tmp_path, capsys):
        path = tiny_dataset_csv(tmp_path)
        fit = tmp_path / "fit"
        main(["fit", "--data", str(path), "--location-col", "location",
              "--trunc-col", "trunc", "--seed", "2", *FAST, "--outdir", str(fit)])
        rc = main(["diagnose", "--fit", str(fit), "--data", str(path),
                   "--location-col", "location", "--trunc-col", "trunc",
                   "--draws", "5", "--svg"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "stored LPML" in out and "slope" in out
        csv_text = (fit / "coxsnell.csv").read_text().splitlines()
        assert csv_text[0] == "draw_id,r,cumhaz"
        assert len(csv_text) > 10
        tree = ET.parse(fit / "coxsnell.svg")  # well-formed XML
        assert tree.getroot().tag.endswith("svg")
        report = json.loads((fit / "diagnose.json").read_text())
        slope = report.pop("coxsnell_slope")
        assert 0.0 < slope < 10.0
        assert report == json.loads((fit / "meta.json").read_text())["criteria"]
        assert report["p_v"] >= 0.0

    def fit_dir(self, tmp_path):
        path = tiny_dataset_csv(tmp_path)
        fit = tmp_path / "fit"
        assert main(["fit", "--data", str(path), "--location-col", "location",
                     "--trunc-col", "trunc", "--seed", "2", *FAST, "--outdir", str(fit)]) == 0
        return fit, ["diagnose", "--fit", str(fit), "--data", str(path),
                     "--location-col", "location", "--trunc-col", "trunc", "--draws", "3"]

    @pytest.mark.parametrize("nsave", ["0", "1"])
    def test_fit_with_fewer_than_two_draws_is_an_input_error(self, tmp_path, capsys, nsave):
        data = tiny_data_args(tmp_path)
        fit, out = tmp_path / "fit", tmp_path / "diagnosed"
        assert main(["fit", *data, "--nburn", "5", "--nsave", nsave, "--outdir", str(fit)]) == 0
        capsys.readouterr()
        assert main(["diagnose", "--fit", str(fit), *data, "--outdir", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: the fit retained {nsave} draw(s) and "
                                           "diagnose needs at least 2; refit with --nsave 2 "
                                           "or more\n")
        assert not out.exists()

    @pytest.mark.parametrize("draws", ["0", "-2"])
    def test_draws_must_be_positive(self, tmp_path, capsys, draws):
        fit, argv = self.fit_dir(tmp_path)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv[:-1] + [draws])
        assert exc.value.code == 2
        assert f"--draws: must be at least 1, got {draws}" in capsys.readouterr().err
        assert not (fit / "coxsnell.csv").exists()

    def test_lpml_drift_is_an_error(self, tmp_path, capsys):
        fit, argv = self.fit_dir(tmp_path)
        meta = json.loads((fit / "meta.json").read_text())
        meta["criteria"]["lpml"] += 1e-6
        (fit / "meta.json").write_text(json.dumps(meta))
        capsys.readouterr()
        assert main(argv) == 1
        assert "deviates" in capsys.readouterr().err
        assert not (fit / "diagnose.json").exists()
        assert main(argv + ["--outdir", str(tmp_path / "none")]) == 1
        assert not (tmp_path / "none").exists()

    def test_meta_json_with_loglik_totals_loads(self, tmp_path):
        # meta.json once stored each draw's total log-likelihood; such a fit
        # directory still diagnoses, to the same residuals
        fit, argv = self.fit_dir(tmp_path)
        assert main(argv + ["--outdir", str(tmp_path / "now")]) == 0
        meta = json.loads((fit / "meta.json").read_text())
        meta["loglik_total"] = np.load(fit / "loglik.npy").sum(axis=1).tolist()
        (fit / "meta.json").write_text(json.dumps(meta))
        assert main(argv + ["--outdir", str(tmp_path / "old")]) == 0
        assert ((tmp_path / "old" / "coxsnell.csv").read_bytes()
                == (tmp_path / "now" / "coxsnell.csv").read_bytes())

    def test_missing_loglik_is_a_missing_file(self, tmp_path, capsys):
        fit, argv = self.fit_dir(tmp_path)
        (fit / "loglik.npy").unlink()
        capsys.readouterr()
        assert main(argv) == 2
        assert "missing file" in capsys.readouterr().err

    @pytest.fixture(scope="class")
    def sim1_fit(self, tmp_path_factory):
        """A short fit of `simulate --design sim1-ph --seed 1`; beside it the
        --seed 2 data (also n = 740) and their first 399 rows."""
        tmp = tmp_path_factory.mktemp("sim1")
        for seed in (1, 2):
            assert main(["simulate", "--design", "sim1-ph", "--seed", str(seed),
                         "--out", str(tmp / f"seed{seed}.csv")]) == 0
        lines = (tmp / "seed2.csv").read_text().splitlines()
        (tmp / "subset.csv").write_text("\n".join(lines[:400]) + "\n")
        assert main(["fit", "--data", str(tmp / "seed1.csv"), "--location-col", "location",
                     "--trunc-col", "trunc", "--nburn", "20", "--nsave", "10",
                     "--outdir", str(tmp / "fit")]) == 0
        return tmp

    @pytest.mark.parametrize("data, error", [
        ("seed1.csv", ""),
        ("seed2.csv", "error: the data are not the fit's: the last draw's log-likelihood on "
                      "them differs from the stored one\n"),
        ("subset.csv", "error: the data are not the fit's: their n, m and covariates are "
                       "(399, 20, ['x1', 'x2']), the fit's (740, 37, ['x1', 'x2'])\n"),
    ])
    def test_data_must_be_the_fits(self, sim1_fit, capsys, data, error):
        out = sim1_fit / f"diagnose-{data}"
        capsys.readouterr()
        rc = main(["diagnose", "--fit", str(sim1_fit / "fit"), "--data", str(sim1_fit / data),
                   "--location-col", "location", "--trunc-col", "trunc", "--outdir", str(out)])
        assert (rc, capsys.readouterr().err) == (2 if error else 0, error)
        assert out.exists() == (not error)

    def test_adjacency_must_match_the_regions(self, tmp_path, capsys):
        fit, argv = self.fit_dir(tmp_path)
        adj = tmp_path / "adj.txt"
        adj.write_text("0 1 0\n1 0 1\n0 1 0\n")  # three regions, the data has four
        capsys.readouterr()
        assert main(argv + ["--adjacency", str(adj)]) == 2
        assert "regions" in capsys.readouterr().err


class TestMcStudy:
    def test_worker_count_independence(self, tmp_path):
        argv = ["mc-study", "--design", "sim1-ph", "--replicates", "2", "--seed", "4",
                "--nburn", "60", "--nsave", "40", "--nskip", "1"]
        out1, out2 = tmp_path / "j1", tmp_path / "j2"
        assert main(argv + ["--jobs", "1", "--outdir", str(out1)]) == 0
        assert main(argv + ["--jobs", "2", "--outdir", str(out2)]) == 0
        assert (out1 / "replicates.csv").read_bytes() == (out2 / "replicates.csv").read_bytes()
        agg = json.loads((out1 / "aggregate.json").read_text())
        assert agg["replicates"] == 2
        assert len(agg["beta_bias"]) == 2

    def test_worker_count_independence_with_range_workers(self, tmp_path):
        # each pool worker forks its chain's range worker
        argv = ["mc-study", "--design", "sim3-ph", "--replicates", "2", "--seed", "4",
                "--nburn", "10", "--nsave", "10", "--nskip", "1"]
        out1, out2 = tmp_path / "j1", tmp_path / "j2"
        assert main(argv + ["--jobs", "1", "--outdir", str(out1)]) == 0
        assert main(argv + ["--jobs", "2", "--outdir", str(out2)]) == 0
        assert (out1 / "replicates.csv").read_bytes() == (out2 / "replicates.csv").read_bytes()
        assert (out1 / "aggregate.json").read_bytes() == (out2 / "aggregate.json").read_bytes()

    def test_no_replicates_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mc-study", "--design", "sim1-ph", "--replicates", "0",
                  "--outdir", str(tmp_path / "none")])
        assert exc.value.code == 2
        assert "--replicates: must be at least 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "none").exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_no_jobs_is_a_usage_error(self, tmp_path, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["mc-study", "--design", "sim1-ph", "--replicates", "1", "--jobs", jobs,
                  "--outdir", str(tmp_path / "none")])
        assert exc.value.code == 2
        assert f"--jobs: must be at least 1, got {jobs}" in capsys.readouterr().err
        assert not (tmp_path / "none").exists()

    def test_chain_too_short_for_ess_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mc-study", "--design", "sim1-ph", "--replicates", "1", "--nburn", "20",
                  "--nsave", "9", "--outdir", str(tmp_path / "none")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --nsave: must be at least 10 for the study's ESS, got 9" in err
        assert "Traceback" not in err
        assert not (tmp_path / "none").exists()
        # a fit keeps short chains: its summary prints n/a for their ESS
        assert cli.build_parser().parse_args(["fit", "--nsave", "9"]).nsave == 9

    def test_unknown_model_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mc-study", "--design", "sim1-ph", "--replicates", "1", "--models", "ph,weibull",
                  "--outdir", str(tmp_path / "none")])
        assert exc.value.code == 2
        assert "--models: models must be among ['aft', 'ph', 'po']" in capsys.readouterr().err
        assert not (tmp_path / "none").exists()

    def test_repeated_model_is_a_usage_error(self, tmp_path, capsys):
        # fitted twice, the second fit's criteria would overwrite the first's
        with pytest.raises(SystemExit) as exc:
            main(["mc-study", "--design", "sim1-ph", "--replicates", "1", "--models", "ph,ph",
                  "--nburn", "20", "--nsave", "10", "--outdir", str(tmp_path / "none")])
        assert exc.value.code == 2
        assert "--models: each model may be listed once, got 'ph,ph'" in capsys.readouterr().err
        assert not (tmp_path / "none").exists()

    def test_one_replicate_writes_strict_json(self, tmp_path):
        # the spread of the replicate means needs two replicates
        def no_constant(name):
            raise ValueError(f"{name} is not JSON")

        out = tmp_path / "one"
        assert main(["mc-study", "--design", "sim3-ph", "--replicates", "1", "--seed", "2",
                     "--nburn", "30", "--nsave", "20", "--outdir", str(out)]) == 0
        agg = json.loads((out / "aggregate.json").read_text(), parse_constant=no_constant)
        assert agg["replicates"] == 1
        assert agg["beta_sd_est"] is None
