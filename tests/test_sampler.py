import copy
import math
import mmap
import os
import time

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import kstest, norm

from bpsurv import data as dm
from bpsurv import frailty as fr
from bpsurv import sampler as sm
from bpsurv.baseline import (bernstein_coefficients, dirichlet_symmetric_logpdf,
                             weights_from_logits)
from bpsurv.simulate import DESIGNS, SimDesign
from bpsurv.splines import build_terms

import oracle


def two_obs_dataset():
    return dm.Dataset(a=[1.0, 0.8], b=[1.0, 2.5], u=[0.0, 0.0], X=[[0.5], [-1.0]], loc=[1, 1],
                      m=1, covariate_names=["x"])


def empty_dataset(m):
    return dm.Dataset(a=[], b=[], u=[], X=np.zeros((0, 0)), loc=[], m=m, covariate_names=[])


def exact_dataset(t, x):
    n = len(t)
    return dm.Dataset(a=t, b=t, u=np.zeros(n), X=np.reshape(x, (n, 1)),
                      loc=np.ones(n, dtype=int), m=1, covariate_names=["x"])


def make_sampler(dataset, **kw):
    defaults = dict(model="ph", family="loglogistic", J=2, nburn=0, nsave=0,
                    seed=9, theta0=(0.0, 0.0), V0=np.eye(2))
    defaults.update(kw)
    cfg = sm.McmcConfig(**defaults)
    return sm.ChainSampler(dataset, cfg)


@pytest.fixture
def checked_sweeps(monkeypatch):
    """After every sweep, the cached log-likelihood must equal a fresh one,
    formed from coefficients of the current weights."""
    sweep = sm.ChainSampler.sweep

    def checked(self):
        sweep(self)
        fresh = self.ev.loglik_obs(self.ev.build_cache(self.state.theta, self.eta),
                                   bernstein_coefficients(self.state.w), self.eta)
        assert np.allclose(fresh, self.state.ll_obs, atol=1e-10, equal_nan=True), \
            "cached log-likelihood diverged from a fresh evaluation"

    monkeypatch.setattr(sm.ChainSampler, "sweep", checked)


def grid_cdf(grid, logdens):
    logdens = np.asarray(logdens)
    dens = np.exp(logdens - logdens.max())
    cdf = np.cumsum(dens)
    cdf /= cdf[-1]
    return lambda x: np.interp(x, grid, cdf)


class TestFixedProposals:
    def test_main_chain_keeps_seed_proposals(self):
        # the main chain never adapts: each block proposes from the Cholesky
        # factor of its seed covariance for a chain of any length
        s = make_sampler(two_obs_dataset(), J=4)
        seeds = {"z": 0.16 * np.eye(3), "theta": 0.16 * np.eye(2),
                 "beta": 0.16 * np.eye(1), "alpha": 0.16 * np.eye(1)}
        assert set(s.prop) == set(seeds)
        for block, cov in seeds.items():
            assert np.array_equal(s.prop[block], np.linalg.cholesky(cov)), block
        for _ in range(5100):
            s.sweep()
        for block, cov in seeds.items():
            assert np.array_equal(s.prop[block], np.linalg.cholesky(cov)), block

    def test_factors_of_the_prerun_estimates(self):
        ds = SimDesign(model="ph", m=4, n_per_site=6, frailty_kind="grf").generate(1)[0]
        cfg = sm.McmcConfig(J=4, seed=2,
                            frailty=fr.FrailtySpec(kind="grf", coords=ds.coords))
        est = sm.parametric_prerun(ds, cfg)
        s = sm.ChainSampler(ds, cfg, est)
        assert set(s.prop) == {"z", "theta", "beta", "alpha", "phi"}
        assert all(isinstance(L, np.ndarray) for L in s.prop.values())
        assert np.array_equal(s.prop["theta"], np.linalg.cholesky(est.V_hat))
        assert np.array_equal(s.prop["beta"], np.linalg.cholesky(est.W_hat))
        assert np.array_equal(s.prop["phi"], np.linalg.cholesky(0.16 * np.eye(1)))


class TestMcmcConfigValidation:
    @pytest.mark.parametrize("settings, name", [
        (dict(nskip=0), "nskip"),
        (dict(nskip=-1), "nskip"),
        (dict(nburn=-1), "nburn"),
        (dict(nsave=-1), "nsave"),
        # an empty chain still needs a valid thinning
        (dict(nburn=0, nsave=0, nskip=0), "nskip"),
        # J = 1 leaves the z block without columns; J = 0 has no weights
        (dict(J=1), "J"),
        (dict(J=0), "J"),
    ])
    def test_rejects_broken_chain_settings(self, settings, name):
        with pytest.raises(ValueError, match=name):
            sm.McmcConfig(**settings)

    @pytest.mark.parametrize("settings", [
        dict(nburn=0, nsave=0),
        dict(nsave=1, nskip=1),  # one saved draw at the smallest thinning
        dict(nburn=0),
    ])
    def test_accepts_edge_settings(self, settings):
        sm.McmcConfig(**settings)


class TestPrerun:
    def test_empty_data_errors(self):
        ds = empty_dataset(0)
        cfg = sm.McmcConfig()
        with pytest.raises(ValueError, match="at least one observation"):
            sm.parametric_prerun(ds, cfg)

    def test_recovers_loglogistic_aft_truth(self):
        rng = np.random.default_rng(5)
        n = 400
        x = rng.normal(size=n)
        k = 2.0
        t = np.exp(rng.logistic(0.0, 1.0 / k, size=n) - 1.0 * x)
        ds = exact_dataset(t, x)
        cfg = sm.McmcConfig(model="aft", family="loglogistic", seed=3)
        est = sm.parametric_prerun(ds, cfg)
        # truth: theta = (0, log 2), beta = 1
        assert abs(est.beta_hat[0] - 1.0) < 3 * math.sqrt(est.W_hat[0, 0])
        assert abs(est.theta_hat[0] - 0.0) < 4 * math.sqrt(est.V_hat[0, 0])
        assert abs(est.theta_hat[1] - math.log(2.0)) < 4 * math.sqrt(est.V_hat[1, 1])

    def test_lognormal_aft_is_least_squares(self):
        # With the weights pinned, AFT lognormal on exact times is Gaussian
        # regression of log t on Z = [1, x]: log t = -theta_1 - beta x +
        # e^-theta_2 eps.  Its mode is the least-squares fit (c0, c1) with
        # sigma^2 = RSS/n, and the inverse Hessian is sigma^2 (Z'Z)^-1 for
        # (theta_1, beta) and 1/(2n) for theta_2.
        rng = np.random.default_rng(4)
        x = rng.normal(size=300)
        t = np.exp(0.7 - 1.3 * x + 0.6 * rng.normal(size=300))
        ds = exact_dataset(t, x)
        Z = np.column_stack([np.ones(ds.n), ds.X[:, 0]])
        logt = np.log(ds.a)
        c, rss = np.linalg.lstsq(Z, logt, rcond=None)[:2]
        sigma2 = float(rss[0]) / ds.n
        cov = sigma2 * np.linalg.inv(Z.T @ Z)
        est = sm.parametric_prerun(ds, sm.McmcConfig(model="aft", family="lognormal"))
        assert np.allclose(est.theta_hat, [-c[0], -0.5 * math.log(sigma2)], rtol=0, atol=1e-6)
        assert np.allclose(est.beta_hat, [-c[1]], rtol=0, atol=1e-6)
        assert np.allclose(np.diag(est.V_hat), [cov[0, 0], 1.0 / (2 * ds.n)], rtol=1e-6, atol=0)
        assert abs(est.V_hat[0, 1]) < 1e-6 * math.sqrt(est.V_hat[0, 0] * est.V_hat[1, 1])
        assert np.allclose(est.W_hat, [[cov[1, 1]]], rtol=1e-6, atol=0)

    def test_deterministic(self):
        ds, _ = __import__("bpsurv.simulate", fromlist=["sim1_design"]) \
            .sim1_design("ph").generate(0)
        cfg = sm.McmcConfig(seed=42)
        e1 = sm.parametric_prerun(ds, cfg)
        e2 = sm.parametric_prerun(ds, cfg)
        assert np.array_equal(e1.theta_hat, e2.theta_hat)
        assert np.array_equal(e1.W_hat, e2.W_hat)

    # The spline case (aft with a 4-knot term) is left out: at 60 observations
    # its posterior is not Gaussian, so a Laplace fit does not reproduce the
    # sampled means and SDs there.
    @pytest.mark.parametrize("model, covariates, spline", [
        ("ph", False, False),   # no regression block
        ("po", True, False),
    ])
    def test_matches_loop_reference(self, model, covariates, spline):
        # the mode and SDs of the fit against the means and SDs of the
        # reference's pinned-weights random walk, within its Monte Carlo error
        ds = SimDesign(model=model, m=5, n_per_site=12, frailty_kind="none").generate(6)[0]
        if not covariates:
            ds = dm.Dataset(a=ds.a, b=ds.b, u=ds.u, X=np.zeros((ds.n, 0)),
                            loc=np.ones(ds.n, dtype=int), m=1, covariate_names=[])
        cfg = sm.McmcConfig(model=model, J=5, seed=1, nonlinear=("x2",) if spline else (),
                            spline_K=4)
        got = sm.parametric_prerun(ds, cfg)
        terms = build_terms(ds, cfg.nonlinear, cfg.spline_K)
        ref = oracle.parametric_prerun(ds, cfg, terms, np.random.default_rng(11), iters=4000)
        assert got.beta_hat.size == ds.p + 4 * spline
        for mode, var, mean, ref_var in ((got.theta_hat, got.V_hat, ref.theta_hat, ref.V_hat),
                                         (got.beta_hat, got.W_hat, ref.beta_hat, ref.W_hat)):
            ref_sd = np.sqrt(np.diag(ref_var))
            assert np.all(np.abs(mode - mean) <= 0.5 * ref_sd)
            assert np.all(np.abs(np.sqrt(np.diag(var)) / ref_sd - 1.0) <= 0.2)

    def test_does_not_count_as_sweeps(self, monkeypatch):
        sweeps = []
        monkeypatch.setattr(sm.ChainSampler, "sweep", lambda self: sweeps.append(1))
        ds = SimDesign(model="ph", m=4, n_per_site=6, frailty_kind="none").generate(1)[0]
        sm.parametric_prerun(ds, sm.McmcConfig())
        assert not sweeps


class TestBlockFullConditionals:
    """Drive one block at a time; its long-run marginal must match the full
    conditional computed by independent fine-grid integration."""

    def collect(self, sampler, update, pull, iters=30000, thin=10, burn=2000):
        out = []
        for i in range(iters):
            update()
            if i >= burn and i % thin == 0:
                out.append(pull())
        return np.array(out)

    def test_z_block_against_grid(self):
        ds = two_obs_dataset()
        s = make_sampler(ds, J=2)
        s.state.alpha = 1.5
        eta = s.eta

        def target(zval):
            w = weights_from_logits(np.array([zval]))
            ll = float(s.ev.loglik_obs(s.cache, bernstein_coefficients(w), eta).sum())
            return ll + s.state.alpha * float(np.log(w).sum())

        grid = np.linspace(-9, 9, 3001)
        cdf = grid_cdf(grid, [target(z) for z in grid])
        draws = self.collect(s, s.update_z, lambda: s.state.z[0])
        stat = kstest(draws, cdf).statistic
        assert stat < 0.05

    def test_beta_block_against_grid(self):
        ds = two_obs_dataset()
        s = make_sampler(ds, J=3, beta_prior_var=4.0)

        def target(b):
            eta = ds.X[:, 0] * b
            ll = float(s.ev.loglik_obs(s.cache, s.state.coef, eta).sum())
            return ll - 0.5 * b * b / 4.0

        grid = np.linspace(-8, 8, 3001)
        cdf = grid_cdf(grid, [target(b) for b in grid])
        draws = self.collect(s, s.update_beta, lambda: s.state.beta[0])
        assert kstest(draws, cdf).statistic < 0.05

    def test_alpha_block_against_grid(self):
        # w fixed at 1/J: alpha's conditional is Dirichlet-likelihood x Gamma prior
        ds = empty_dataset(0)
        s = make_sampler(ds, J=15)
        s.state.z = np.zeros(14)
        s.state.w = weights_from_logits(s.state.z)

        def target(a):
            return (dirichlet_symmetric_logpdf(s.state.w, a)
                    + (s.cfg.a_alpha - 1.0) * math.log(a) - s.cfg.b_alpha * a)

        grid = np.linspace(1e-4, 25, 4001)
        cdf = grid_cdf(grid, [target(a) for a in grid])
        draws = self.collect(s, s.update_alpha, lambda: s.state.alpha, iters=60000)
        assert kstest(draws, cdf).statistic < 0.05

    def test_theta_block_against_grid(self):
        # w = (1/2, 1/2), theta ~ N(0, I): 2-D grid, then theta[0]'s marginal
        ds = two_obs_dataset()
        s = make_sampler(ds, J=2)
        g0 = np.linspace(-6, 6, 121)
        g1 = np.linspace(-6, 6, 41)

        def target(th):
            cache = s.ev.build_cache(th, s.eta)
            return float(s.ev.loglik_obs(cache, s.state.coef, s.eta).sum()) - 0.5 * th @ th

        logdens = np.array([[target(np.array([a, b])) for b in g1] for a in g0])
        # cumulated cell masses give the CDF at the right edge of each cell
        cdf = grid_cdf(g0 + 0.05, logsumexp(logdens, axis=1))
        draws = self.collect(s, s.update_theta, lambda: s.state.theta[0])
        assert kstest(draws, cdf).statistic < 0.05

    def test_phi_block_against_grid(self):
        # GRF on three sites with v and tau2 fixed: phi | v, tau2 only
        coords = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 6.9]])
        spec = fr.FrailtySpec(kind="grf", coords=coords)
        ds = empty_dataset(3)
        s = make_sampler(ds, frailty=spec)
        s.state.tau2 = 0.8
        # unit proposal factor: mixes faster than the 0.16 seed and often
        # proposes phi <= 0, which must be rejected without changing the target
        s.prop["phi"] = np.ones((1, 1))
        v = np.array([0.9, -0.4, 0.2])
        s.state.v = v.copy()
        b_phi = (s.cfg.a_phi - 1.0) / spec.phi0()

        def target(phi):
            R = fr.dense_correlation(spec.distances, phi, spec.nu)
            _, logdet = np.linalg.slogdet(R)
            quad = v @ np.linalg.solve(R, v)
            return (-0.5 * logdet - 0.5 * quad / 0.8
                    + (s.cfg.a_phi - 1.0) * math.log(phi) - b_phi * phi)

        grid = np.linspace(1e-3, 20, 4001)
        cdf = grid_cdf(grid, [target(phi) for phi in grid])
        draws = self.collect(s, s.update_phi, lambda: s.state.phi)
        assert np.array_equal(s.state.v, v) and s.state.tau2 == 0.8
        assert kstest(draws, cdf).statistic < 0.05

    def test_iid_frailty_prior_only_ks(self):
        # empty data, m=1, fixed tau2: v_1 targets N(0, tau2)
        ds = empty_dataset(1)
        s = make_sampler(ds, frailty=fr.FrailtySpec(kind="iid"))
        s.state.tau2 = 2.0
        draws = self.collect(s, s.update_frailties, lambda: s.state.v[0], iters=60000)
        assert kstest(draws, norm(0.0, math.sqrt(2.0)).cdf).statistic < 0.05

    def test_proposing_current_state_always_accepts(self):
        ds = two_obs_dataset()
        s = make_sampler(ds)
        s.prop["z"] = np.zeros((s.cfg.J - 1, s.cfg.J - 1))
        before = s.accept["z"]
        for _ in range(25):
            s.update_z()
        assert s.accept["z"] - before == 25


class TestFrailtyScan:
    @pytest.mark.parametrize("kind", ["iid", "icar", "grf", "fsa"])
    def test_matches_per_kind_reference(self, kind):
        # the one precision rule against each kind's conditional mean written out
        ds, _ = SimDesign(model="ph", m=8, n_per_site=5,
                          frailty_kind="grf" if kind in ("grf", "fsa") else "none").generate(3)
        if kind == "icar":
            E = np.zeros((8, 8), dtype=int)
            for i, j in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 7), (1, 5)]:
                E[i, j] = E[j, i] = 1
            spec = fr.FrailtySpec(kind="icar", adjacency=E)
        elif kind == "iid":
            spec = fr.FrailtySpec(kind="iid")
        else:
            spec = fr.FrailtySpec(kind="grf", coords=ds.coords,
                                  fsa=(3, 2) if kind == "fsa" else None)
        got, ref = make_sampler(ds, frailty=spec), make_sampler(ds, frailty=spec)
        for _ in range(40):
            got.update_frailties()
            oracle.frailty_scan(ref)
            for s in (got, ref):  # new variances and, for a grf, new structures
                s.update_tau2()
                s.update_phi()
            assert np.allclose(got.state.v, ref.state.v, rtol=0.0, atol=1e-12)
            assert np.allclose(got.state.ll_obs, ref.state.ll_obs, rtol=0.0, atol=1e-10)
        assert got.accept_frailty == ref.accept_frailty
        assert 0 < got.accept_frailty < 40 * 8
        if kind in ("grf", "fsa"):
            assert got.state.phi != got.phi0  # the scan ran on more than one structure


class TestPhiStep:
    def geo_sampler(self, **spec_kw):
        ds, _ = SimDesign(model="ph", m=12, n_per_site=4, frailty_kind="grf").generate(8)
        return make_sampler(ds, frailty=fr.FrailtySpec(kind="grf", coords=ds.coords, **spec_kw))

    def test_unfactorable_proposal_is_rejected_and_counted(self):
        s = self.geo_sampler(nu=2.0, fsa=(6, 3))
        # near phi = 1e-10 every nu = 2 knot correlation rounds to 1: the
        # knot matrix is all ones and has no Cholesky factor
        s.state.phi = 1e-10
        s.prop["phi"] = np.full((1, 1), 1e-12)
        structure = s.structure
        for k in range(1, 4):
            s.update_phi()
            assert s.nonfinite_rejects == k
        assert s.accept["phi"] == 0 and s.state.phi == 1e-10 and s.structure is structure

    def test_proposals_form_no_inverse(self, monkeypatch):
        calls = []
        monkeypatch.setattr(fr, "dpotri", lambda *a, _f=fr.dpotri, **k: calls.append(1) or _f(*a, **k))
        s = self.geo_sampler()
        formed = None
        for _ in range(30):
            n = len(calls)
            s.update_phi()
            assert len(calls) == n  # accepted or rejected, a proposal forms no R^{-1}
            s.update_frailties()
            assert len(calls) == n + (s.structure is not formed)
            formed = s.structure
        assert 0 < s.accept["phi"] < 30


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes os.fork starts during the test."""
    pids = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids


@pytest.fixture
def linalg_counts(monkeypatch):
    """[structure builds, inverses formed], counted in this process (row 0)
    and in any process forked from it (row 1) through a shared mapping."""
    counts = np.frombuffer(mmap.mmap(-1, 32), dtype=np.int64).reshape(2, 2)
    main = os.getpid()
    for k, name in enumerate(("build_structure", "precision_from_factor")):
        def counted(*args, _f=getattr(fr, name), _k=k, **kw):
            counts[int(os.getpid() != main), _k] += 1
            return _f(*args, **kw)
        monkeypatch.setattr(fr, name, counted)
    return counts


def swept(s):
    """The draw rows and log-likelihoods of s's config from sweep() called one
    by one, which builds every range structure in process."""
    cfg = s.cfg
    blocks = s._draw_blocks()
    rows, lls = [], []
    for k in range(cfg.nburn + cfg.nsave * cfg.nskip):
        s.sweep()
        if k >= cfg.nburn and (k - cfg.nburn + 1) % cfg.nskip == 0:
            rows.append(np.concatenate([np.atleast_1d(get()) for _, get in blocks]))
            lls.append(s.state.ll_obs.copy())
    return np.array(rows), np.array(lls)


class TestRangeWorker:
    def geo_samplers(self, fsa=None, spread=1.0, **kw):
        ds, _ = SimDesign(model="po", m=40, n_per_site=3, frailty_kind="grf").generate(5)
        spec = fr.FrailtySpec(kind="grf", coords=spread * ds.coords, fsa=fsa)
        cfg = sm.McmcConfig(**{**dict(model="po", J=6, nburn=30, nsave=40, nskip=2, seed=7,
                                      frailty=spec), **kw})
        est = sm.parametric_prerun(ds, cfg)
        return sm.ChainSampler(ds, cfg, est), sm.ChainSampler(ds, cfg, est)

    # sites 30 times as far apart hold phi near 0, where many proposals are
    # non-positive: a sweep submits no factor, yet the inverse of a range the
    # previous sweep accepted
    @pytest.mark.parametrize("fsa, selection, spread",
                             [(None, False, 1.0), ((10, 3), False, 1.0), (None, True, 1.0),
                              (None, False, 30.0)],
                             ids=["dense", "fsa", "selection", "non-positive"])
    def test_run_equals_sweeps_in_process(self, forks, linalg_counts, fsa, selection, spread):
        got, ref = self.geo_samplers(fsa, spread, selection=selection)
        linalg_counts[:] = 0
        arch = got.run()
        run_counts = linalg_counts.copy()
        linalg_counts[:] = 0
        rows, lls = swept(ref)
        assert len(forks) == 1 and arch.structure_wait > 0.0
        assert arch.matrix.tobytes() == rows.tobytes()
        assert arch.loglik_obs.tobytes() == lls.tobytes()
        assert got.accept == ref.accept and got.accept_frailty == ref.accept_frailty
        assert 0 < got.accept["phi"] < got.n_sweeps  # the slots swapped roles
        # one factor per positive proposal, one inverse per range a scan reads
        assert np.array_equal(run_counts.sum(axis=0), linalg_counts.sum(axis=0))
        # this process builds nothing and forms only the initial structure's C
        assert run_counts[0].tolist() == [0, 1]
        # a range accepted in the last sweep is never sent: its C is formed here
        linalg_counts[:] = 0
        C = got.structure.C
        last_accepted = "C" not in vars(ref.structure)  # no scan read it
        assert linalg_counts.tolist() == [[0, int(last_accepted)], [0, 0]]
        assert C.tobytes() == ref.structure.C.tobytes()

    def test_successive_runs_equal_sweeps_in_process(self, forks):
        got, ref = self.geo_samplers(nburn=5, nsave=20, nskip=1)
        runs = [got.run() for _ in range(2)]
        assert len(forks) == 2
        for arch in runs:
            rows, lls = swept(ref)
            assert arch.matrix.tobytes() == rows.tobytes()
            assert arch.loglik_obs.tobytes() == lls.tobytes()
        assert got.accept == ref.accept and got.n_sweeps == ref.n_sweeps

    @pytest.mark.parametrize("platform", ["no fork", "fork fails"])
    def test_run_without_a_worker_builds_in_process(self, monkeypatch, platform):
        got, ref = self.geo_samplers()
        if platform == "no fork":
            monkeypatch.delattr(os, "fork")
        else:
            def failing_fork():
                raise BlockingIOError("no process to spare")
            monkeypatch.setattr(os, "fork", failing_fork)
        fds = set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else set()
        arch = got.run()
        rows, lls = swept(ref)
        assert arch.matrix.tobytes() == rows.tobytes()
        assert arch.loglik_obs.tobytes() == lls.tobytes()
        assert arch.structure_wait == 0.0
        if fds:  # the pipes of a failed fork are closed
            assert set(os.listdir("/proc/self/fd")) <= fds

    def test_singular_proposals_are_counted_alike(self, forks):
        # nu = 2 leaves the knot correlation without a Cholesky factor at
        # short ranges: the worker reports it and the chain counts it
        ds, _ = DESIGNS["sim3-po"]().generate(1)
        spec = fr.FrailtySpec(kind="grf", coords=ds.coords, nu=2.0, fsa=(30, 5))
        cfg = sm.McmcConfig(model="po", nburn=100, nsave=20, seed=1, frailty=spec)
        est = sm.parametric_prerun(ds, cfg)
        got, ref = sm.ChainSampler(ds, cfg, est), sm.ChainSampler(ds, cfg, est)
        arch = got.run()
        rows, _ = swept(ref)
        assert len(forks) == 1
        assert arch.matrix.tobytes() == rows.tobytes()
        assert arch.nonfinite_rejects == ref.nonfinite_rejects > 0

    def test_worker_is_reaped_after_run(self, forks):
        s, _ = self.geo_samplers(nburn=5, nsave=5)
        s.run()
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(forks[0], os.WNOHANG)
        assert s.ranges is None

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists descriptors on Linux")
    def test_run_leaves_no_descriptor_open(self, forks):
        s, _ = self.geo_samplers(nburn=5, nsave=5)
        fds = set(os.listdir("/proc/self/fd"))
        s.run()
        assert len(forks) == 1
        assert set(os.listdir("/proc/self/fd")) <= fds

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_worker_is_reaped_when_a_block_raises(self, forks, monkeypatch, error):
        update_tau2 = sm.ChainSampler.update_tau2

        def failing(self):
            if self.n_sweeps == 5:
                raise error("tau2 failed")
            update_tau2(self)

        monkeypatch.setattr(sm.ChainSampler, "update_tau2", failing)
        s, _ = self.geo_samplers()
        with pytest.raises(error, match="tau2 failed"):
            s.run()
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(forks[0], os.WNOHANG)

    def test_worker_failure_is_raised_in_the_chain(self, forks, monkeypatch):
        s, _ = self.geo_samplers()

        def broken(spec, phi=None, m=None):
            raise ZeroDivisionError("broken build")

        monkeypatch.setattr(fr, "build_structure", broken)
        with pytest.raises(RuntimeError, match="range worker failed: ZeroDivisionError: broken"):
            s.run()
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(forks[0], os.WNOHANG)

    def test_no_worker_without_a_range(self, forks):
        ds, _ = SimDesign(model="ph", m=6, n_per_site=4, frailty_kind="none").generate(2)
        cfg = sm.McmcConfig(J=4, nburn=5, nsave=5, seed=1, frailty=fr.FrailtySpec(kind="iid"))
        assert sm.ChainSampler(ds, cfg).run().structure_wait == 0.0
        assert forks == []


class TestTau2Gibbs:
    def test_moments_at_zero_field(self):
        ds = empty_dataset(3)
        s = make_sampler(ds, frailty=fr.FrailtySpec(kind="iid"), a_tau=2.0, b_tau=3.0)
        s.state.v = np.zeros(3)
        draws = np.empty(100000)
        for i in range(draws.size):
            s.update_tau2()
            draws[i] = 1.0 / s.state.tau2
        shape = 2.0 + 0.5 * 3
        assert abs(draws.mean() - shape / 3.0) / (shape / 3.0) < 0.01
        assert np.all(draws > 0)

    def test_icar_path_rate(self):
        E = np.zeros((3, 3), dtype=int)
        E[0, 1] = E[1, 0] = E[1, 2] = E[2, 1] = 1
        ds = empty_dataset(3)
        s = make_sampler(ds, frailty=fr.FrailtySpec(kind="icar", adjacency=E),
                         a_tau=1.0, b_tau=1.0)
        s.state.v = np.array([1.0, 0.0, -1.0])  # v'Cv = 2, so rate = b_tau + 1
        shape = 1.0 + 0.5 * 2  # rank 2
        rate = 1.0 + 1.0
        draws = np.empty(100000)
        for i in range(draws.size):
            s.update_tau2()
            draws[i] = 1.0 / s.state.tau2
        assert abs(draws.mean() - shape / rate) / (shape / rate) < 0.01


class TestGammaBlock:
    def test_zero_coefficient_gives_prior_inclusion(self):
        ds, _ = __import__("bpsurv.simulate", fromlist=["sim4_design"]) \
            .sim4_design(1).generate(3)
        s = make_sampler(ds, selection=True, J=4)
        s.state.beta[:] = 0.0  # likelihood ratio is exactly 1
        s._refresh_likelihood()
        hits = np.zeros(ds.p)
        reps = 4000
        for _ in range(reps):
            s.update_gamma()
            hits += s.state.gamma
        freq = hits / reps
        assert np.all(np.abs(freq - 0.5) < 0.05)


class TestRunChain:
    def small_config(self, **kw):
        defaults = dict(model="ph", family="loglogistic", J=6, nburn=50, nsave=40,
                        nskip=2, seed=12)
        defaults.update(kw)
        return sm.McmcConfig(**defaults)

    def dataset(self):
        from bpsurv.simulate import SimDesign
        return SimDesign(model="ph", m=6, n_per_site=8, frailty_kind="none").generate(4)[0]

    def test_debug_checked_run_all_features(self, checked_sweeps):
        ds = self.dataset()
        # small ICAR graph: a path over the 6 sites
        E = np.zeros((6, 6), dtype=int)
        for i in range(5):
            E[i, i + 1] = E[i + 1, i] = 1
        cfg = self.small_config(selection=True,
                                frailty=fr.FrailtySpec(kind="icar", adjacency=E))
        arch = sm.run_chain(ds, cfg)  # checked_sweeps asserts cache consistency
        assert arch.L == 40
        assert set(arch.draws) >= {"z", "theta", "beta", "alpha", "gamma", "v", "tau2"}
        assert arch.loglik_obs.shape == (40, ds.n)
        assert 0 <= arch.accept_rates["frailty"] <= 1

    def test_debug_checked_grf_aft_run(self, checked_sweeps):
        from bpsurv.simulate import SimDesign
        ds, _ = SimDesign(model="aft", m=12, n_per_site=4, frailty_kind="grf").generate(8)
        spec = fr.FrailtySpec(kind="grf", coords=ds.coords, fsa=(6, 3))
        cfg = self.small_config(model="aft", frailty=spec)
        arch = sm.run_chain(ds, cfg)
        assert "phi" in arch.draws
        assert arch.draws["phi"].min() > 0

    def test_fsa_knots_and_blocks_chosen_once(self, monkeypatch, checked_sweeps):
        from bpsurv.simulate import SimDesign
        ds, _ = SimDesign(model="ph", m=12, n_per_site=4, frailty_kind="grf").generate(8)
        calls = []
        for name in ("select_knots", "assign_blocks", "build_structure"):
            def counted(*args, _f=getattr(fr, name), _name=name, **kw):
                calls.append(_name)
                return _f(*args, **kw)
            monkeypatch.setattr(fr, name, counted)
        spec = fr.FrailtySpec(kind="grf", coords=ds.coords, fsa=(6, 3))
        chosen_at_fork = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: chosen_at_fork.append(
            "fsa_geometry" in vars(spec)) or fork())
        cfg = self.small_config(nburn=10, nsave=20, nskip=1, frailty=spec)
        arch = sm.run_chain(ds, cfg)
        assert arch.L == 20
        # chosen in this process, before the range worker is forked
        assert chosen_at_fork == [True]
        assert calls.count("assign_blocks") == 1
        # once for the knots, once inside assign_blocks for the block centers
        assert calls.count("select_knots") == 2

        # in process: the initial structure, then one per positive proposal,
        # replayed from a copy of the phi stream (step, then log u)
        calls.clear()
        s = sm.ChainSampler(ds, cfg)
        rng = copy.deepcopy(s.rngs["phi"])
        phis = [s.state.phi]
        for _ in range(30):
            s.sweep()
            phis.append(s.state.phi)
        positive = 0
        for phi in phis[:-1]:
            step = s.prop["phi"] @ rng.standard_normal(1)
            rng.uniform()
            positive += float((np.array([phi]) + step)[0]) > 0.0
        assert calls == ["build_structure"] * (1 + positive)

    def test_nonlinear_terms_run(self, checked_sweeps):
        ds = self.dataset()
        cfg = self.small_config(nonlinear=("x2",), spline_K=4)
        arch = sm.run_chain(ds, cfg)
        assert arch.draws["xi_x2"].shape == (40, 4)

    def test_sampler_takes_its_spline_terms_from_the_config(self):
        ds = self.dataset()
        arch = sm.ChainSampler(ds, self.small_config(nonlinear=("x2",), spline_K=4)).run()
        assert [nm for nm in arch.names if nm.startswith("xi.")] == \
            [f"xi.x2.{i}" for i in range(1, 5)]
        assert arch.spline_names == ["x2"]

    @pytest.mark.parametrize("kw", [{}, dict(selection=True, nonlinear=("x2",), spline_K=4)])
    def test_sampler_from_the_prerun_is_run_chain(self, kw):
        ds = self.dataset()
        cfg = self.small_config(**kw)
        got = sm.ChainSampler(ds, cfg, sm.parametric_prerun(ds, cfg)).run()
        ref = sm.run_chain(ds, cfg)
        assert got.names == ref.names
        assert np.array_equal(got.matrix, ref.matrix)
        assert np.array_equal(got.loglik_obs, ref.loglik_obs)
        assert got.loglik_at_mean == ref.loglik_at_mean

    def test_coefficients_are_what_the_predictor_takes(self):
        ds = self.dataset()
        arch = sm.run_chain(ds, self.small_config(selection=True, nonlinear=("x2",),
                                                  spline_K=4))
        coefs = arch.coefficients()
        assert coefs.shape == (40, ds.p + 4)
        assert np.array_equal(coefs[:, :ds.p], arch.draws["beta"] * arch.draws["gamma"])
        assert np.array_equal(coefs[:, ds.p:], arch.draws["xi_x2"])

    def test_plug_in_averages_each_coefficient_block_alone(self):
        # one covariate: numpy sums a one-column block pairwise, but a column
        # of a wider matrix row by row; the plug-in keeps the block's sum
        ds = self.dataset()
        ds = dm.Dataset(a=ds.a, b=ds.b, u=ds.u, X=ds.X[:, 1:], loc=np.ones(ds.n, dtype=int),
                        m=1, covariate_names=["x2"])
        cfg = self.small_config(nonlinear=("x2",), spline_K=4, nsave=300, nskip=1)
        s = sm.ChainSampler(ds, cfg, sm.parametric_prerun(ds, cfg))
        arch = s.run()
        beta, xi = arch.draws["beta"], arch.draws["xi_x2"]
        coef = np.concatenate([beta.mean(axis=0), xi.mean(axis=0)])
        eta = sm.linear_predictor(ds.X, [s.terms[0].design], coef)
        w = arch.weights().mean(axis=0)
        cache = s.ev.build_cache(arch.draws["theta"].mean(axis=0), eta)
        expected = float(s.ev.loglik_obs(cache, bernstein_coefficients(w), eta).sum())
        assert arch.loglik_at_mean == expected

    def test_identical_seed_bit_identical(self):
        ds = self.dataset()
        cfg = self.small_config()
        a1 = sm.run_chain(ds, cfg)
        a2 = sm.run_chain(ds, cfg)
        for key in a1.draws:
            assert np.array_equal(a1.draws[key], a2.draws[key]), key
        assert np.array_equal(a1.loglik_total, a2.loglik_total)

    def test_elapsed_covers_prerun(self, monkeypatch):
        ds = self.dataset()
        prerun = sm.parametric_prerun

        def slow_prerun(*args, **kwargs):
            time.sleep(0.5)
            return prerun(*args, **kwargs)

        monkeypatch.setattr(sm, "parametric_prerun", slow_prerun)
        t0 = time.perf_counter()
        arch = sm.run_chain(ds, self.small_config())
        wall = time.perf_counter() - t0
        assert 0.5 <= arch.elapsed <= wall

    def test_archive_carries_prerun_figures(self):
        ds = self.dataset()
        cfg = self.small_config()
        arch = sm.run_chain(ds, cfg)
        assert arch.prerun == sm.parametric_prerun(ds, cfg).figures
        assert set(arch.prerun) == {"evaluations", "converged", "message"}
        assert arch.prerun["evaluations"] > 0

    def test_nsave_zero_diagnostics_only(self):
        ds = self.dataset()
        cfg = self.small_config(nsave=0)
        arch = sm.run_chain(ds, cfg)
        assert arch.L == 0
        assert arch.accept_rates
        assert math.isnan(arch.loglik_at_mean)

    def test_parameter_matrix_names(self):
        ds = self.dataset()
        arch = sm.run_chain(ds, self.small_config())
        names, mat = arch.names, arch.matrix
        assert mat.shape == (40, len(names))
        assert "beta.x1" in names and "theta.1" in names and "alpha" in names

    def test_submodel_table(self):
        ds = self.dataset()
        cfg = self.small_config(selection=True)
        arch = sm.run_chain(ds, cfg)
        table = arch.submodel_table()
        assert abs(sum(p for _, p in table) - 1.0) < 1e-12
