"""The draw layout from chain to disk and back: a fit loaded from its output
directory equals, bit for bit, the in-memory archive that wrote it."""

import numpy as np
import pytest

from bpsurv import frailty as fr
from bpsurv import sampler as sm
from bpsurv.archive_io import compute_criteria, load_archive, save_archive, summary_text
from bpsurv.baseline import weights_from_logits
from bpsurv.diagnostics import coxsnell_residuals
from bpsurv.simulate import SimDesign


def path_adjacency(m):
    E = np.zeros((m, m), dtype=int)
    for i in range(m - 1):
        E[i, i + 1] = E[i + 1, i] = 1
    return E


def areal_data():
    return SimDesign(model="ph", m=6, n_per_site=8, frailty_kind="none").generate(4)[0]


def geo_data():
    return SimDesign(model="aft", m=12, n_per_site=4, frailty_kind="grf").generate(8)[0]


def dense_grf_fit():
    ds = geo_data()
    return ds, config(model="aft", frailty=fr.FrailtySpec(kind="grf", coords=ds.coords))


def config(**kw):
    defaults = dict(J=6, nburn=30, nsave=25, nskip=1, seed=5)
    defaults.update(kw)
    return sm.McmcConfig(**defaults)


FITS = {
    "icar-selection-spline": lambda: (areal_data(), config(
        selection=True, nonlinear=("x2",), spline_K=4,
        frailty=fr.FrailtySpec(kind="icar", adjacency=path_adjacency(6)))),
    "grf-dense": dense_grf_fit,
    "iid": lambda: (areal_data(), config(model="po", frailty=fr.FrailtySpec(kind="iid"))),
    "nsave-1": lambda: (areal_data(), config(nsave=1)),
    "nsave-0": lambda: (areal_data(), config(nsave=0)),
}


@pytest.fixture(scope="module", params=sorted(FITS))
def round_trip(request, tmp_path_factory):
    """(dataset, in-memory archive, archive loaded from its saved files)."""
    dataset, cfg = FITS[request.param]()
    fitted = sm.run_chain(dataset, cfg)
    outdir = tmp_path_factory.mktemp(request.param)
    save_archive(fitted, outdir)
    return dataset, fitted, load_archive(outdir, dataset=dataset)


class TestRoundTrip:
    def test_draw_blocks(self, round_trip):
        _, fitted, loaded = round_trip
        assert list(loaded.draws) == list(fitted.draws)
        for key, block in fitted.draws.items():
            got = loaded.draws[key]
            assert got.shape == block.shape, key
            assert got.flags.c_contiguous and block.flags.c_contiguous, key
            assert np.array_equal(got, block), key

    def test_matrix_and_likelihood(self, round_trip):
        _, fitted, loaded = round_trip
        assert loaded.names == fitted.names
        assert np.array_equal(loaded.matrix, fitted.matrix)
        assert np.array_equal(loaded.loglik_obs, fitted.loglik_obs)
        assert np.array_equal(loaded.loglik_total, fitted.loglik_total)
        assert loaded.prerun == fitted.prerun
        assert loaded.structure_wait == fitted.structure_wait

    def test_weights(self, round_trip):
        _, fitted, loaded = round_trip
        assert np.array_equal(loaded.weights(), fitted.weights())

    def test_coxsnell_residuals(self, round_trip):
        dataset, fitted, loaded = round_trip
        mine, theirs = (coxsnell_residuals(a, dataset, draws=5) for a in (loaded, fitted))
        assert len(mine[0]) == min(fitted.L, 5)
        for part, a, b in zip(("draws", "lo", "hi", "trunc"), mine, theirs):
            assert np.array_equal(a, b), part

    def test_criteria(self, round_trip):
        _, fitted, loaded = round_trip
        # repr is exact for floats and also compares nan and None
        assert repr(compute_criteria(loaded)) == repr(compute_criteria(fitted))


class TestLayout:
    def test_header_order(self):
        ds, cfg = FITS["icar-selection-spline"]()
        names = sm.run_chain(ds, cfg).names
        assert names == (["beta.x1", "beta.x2", "gamma.x1", "gamma.x2"]
                         + [f"xi.x2.{i}" for i in range(1, 5)]
                         + ["theta.1", "theta.2"] + [f"z.{j}" for j in range(1, 6)]
                         + ["alpha", "tau2"] + [f"v.{i}" for i in range(1, 7)])

    @pytest.mark.parametrize("name", ["icar-selection-spline", "grf-dense"])
    def test_last_row_is_the_final_state(self, name):
        ds, cfg = FITS[name]()
        s = sm.ChainSampler(ds, cfg)
        draws = s.run().draws
        st, p = s.state, ds.p
        expect = {"beta": st.beta[:p], "theta": st.theta, "z": st.z, "alpha": st.alpha,
                  "v": st.v, "tau2": st.tau2}
        expect.update({f"xi_{t.name}": st.beta[p:p + t.K] for t in s.terms})
        if cfg.selection:
            expect["gamma"] = st.gamma
        if s.has_phi:
            expect["phi"] = st.phi
        assert set(draws) == set(expect)
        for key, value in expect.items():
            assert np.array_equal(draws[key][-1], value), key

    @pytest.mark.parametrize("name", ["icar-selection-spline", "grf-dense"])
    def test_loglik_total_is_the_chains_total(self, name, monkeypatch):
        # the archive derives each draw's total from loglik_obs; it must equal,
        # bit for bit, the total the chain's Metropolis steps compared
        ds, cfg = FITS[name]()
        totals = []
        sweep = sm.ChainSampler.sweep

        def recorded(self):
            sweep(self)
            totals.append(self.state.ll_total)

        monkeypatch.setattr(sm.ChainSampler, "sweep", recorded)
        archive = sm.ChainSampler(ds, cfg).run()
        assert archive.loglik_total.tolist() == totals[cfg.nburn:]

    def test_scalar_blocks_are_1d(self):
        ds, cfg = FITS["grf-dense"]()
        draws = sm.run_chain(ds, cfg).draws
        for key in ("alpha", "tau2", "phi"):
            assert draws[key].shape == (cfg.nsave,), key
        assert draws["beta"].shape == (cfg.nsave, ds.p)

    def test_beta_present_without_covariates(self):
        draws = sm.split_draws(["theta.1", "theta.2", "z.1", "alpha"], np.ones((3, 4)))
        assert draws["beta"].shape == (3, 0)
        assert draws["alpha"].shape == (3,) and draws["z"].shape == (3, 1)


@pytest.mark.parametrize("name", ["icar-selection-spline", "grf-dense"])
def test_summary_reports_the_range_workers_wait(name):
    archive = sm.run_chain(*FITS[name]())
    lines = [line for line in summary_text(archive).splitlines()
             if line.startswith("range worker: ")]
    if name == "grf-dense":
        assert archive.structure_wait > 0.0
        assert lines == [f"range worker: the chain waited {archive.structure_wait:.3f} s of "
                         f"{archive.elapsed:.3f} s for its factors and inverses"]
    else:
        assert archive.structure_wait == 0.0 and lines == []


def test_one_draw_summary_reads_n_a():
    # the sd of one draw is undefined; a RuntimeWarning would fail the suite
    ds, cfg = FITS["nsave-1"]()
    text = summary_text(sm.run_chain(ds, cfg))
    row = next(line for line in text.splitlines() if line.startswith("beta.x1")).split()
    assert row[3] == "n/a" and row[-1] == "n/a"
    assert "nan" not in text


def test_weights_match_weights_from_logits():
    Z = np.array([[0.0, 0.0, 0.0], [1.5, -2.0, 0.3], [800.0, 1.0, -3.0], [-700.0, 2.0, 0.1]])
    names = ["theta.1", "theta.2", "z.1", "z.2", "z.3", "alpha"]
    mat = np.column_stack([np.zeros((4, 2)), Z, np.ones(4)])
    archive = sm.PosteriorArchive(
        model="ph", family="loglogistic", J=4, covariate_names=[], names=names, matrix=mat,
        loglik_obs=np.zeros((4, 1)), loglik_at_mean=0.0, accept_rates={}, config=None,
        n=1, m=1, elapsed=0.0)
    W = archive.weights()
    assert np.all(np.isfinite(W))
    for row, z in zip(W, Z):
        assert np.array_equal(row, weights_from_logits(z))
