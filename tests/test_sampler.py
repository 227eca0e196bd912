import math
import time

import numpy as np
import pytest
from scipy.stats import kstest, norm

from bpsurv import data as dm
from bpsurv import frailty as fr
from bpsurv import sampler as sm
from bpsurv.baseline import dirichlet_symmetric_logpdf, weights_from_logits


def two_obs_dataset():
    obs = [
        dm.CensoredObservation(a=1.0, b=1.0, x=(0.5,), location=1),
        dm.CensoredObservation(a=0.8, b=2.5, x=(-1.0,), location=1),
    ]
    return dm.Dataset(observations=obs, m=1, covariate_names=["x"])


def make_sampler(dataset, **kw):
    defaults = dict(model="ph", family="loglogistic", J=2, nburn=0, nsave=0,
                    seed=9, prerun=False, theta0=(0.0, 0.0), V0=np.eye(2), l0=10 ** 9)
    defaults.update(kw)
    cfg = sm.McmcConfig(**defaults)
    return sm.ChainSampler(dataset, cfg, [], None, sm._spawn_rngs(cfg.seed))


def grid_cdf(grid, logdens):
    logdens = np.asarray(logdens)
    dens = np.exp(logdens - logdens.max())
    cdf = np.cumsum(dens)
    cdf /= cdf[-1]
    return lambda x: np.interp(x, grid, cdf)


class TestAdaptiveProposal:
    def test_frozen_before_l0(self):
        prop = sm.AdaptiveProposal(2, 0.16 * np.eye(2), l0=10 ** 9)
        rng = np.random.default_rng(0)
        for _ in range(50):
            prop.record(rng.normal(size=2))
        assert np.allclose(prop.current_sigma(), 0.16 * np.eye(2))

    def test_switches_to_scaled_running_covariance(self):
        rng = np.random.default_rng(1)
        prop = sm.AdaptiveProposal(3, np.eye(3), l0=10)
        xs = rng.multivariate_normal(np.zeros(3), np.diag([1.0, 4.0, 0.25]), size=500)
        for x in xs:
            prop.record(x)
        expected = (2.4 ** 2 / 3) * (np.cov(xs.T) + 1e-10 * np.eye(3))
        assert np.allclose(prop.current_sigma(), expected, rtol=1e-10)

    def test_streaming_cov_matches_numpy(self):
        rng = np.random.default_rng(2)
        xs = rng.normal(size=(40, 4))
        prop = sm.AdaptiveProposal(4, np.eye(4), l0=0)
        for x in xs:
            prop.record(x)
        assert np.allclose(prop.covariance(), np.cov(xs.T), atol=1e-12)


class TestPrerun:
    def test_empty_data_errors(self):
        ds = dm.Dataset(observations=[], m=0, covariate_names=[])
        cfg = sm.McmcConfig()
        with pytest.raises(ValueError, match="at least one observation"):
            sm.parametric_prerun(ds, cfg)

    def test_recovers_loglogistic_aft_truth(self):
        rng = np.random.default_rng(5)
        n = 400
        x = rng.normal(size=n)
        k = 2.0
        t = np.exp(rng.logistic(0.0, 1.0 / k, size=n) - 1.0 * x)
        obs = [dm.CensoredObservation(a=float(tt), b=float(tt), x=(float(xx),))
               for tt, xx in zip(t, x)]
        ds = dm.Dataset(observations=obs, m=1, covariate_names=["x"])
        cfg = sm.McmcConfig(model="aft", family="loglogistic", seed=3,
                            prerun_iters=1500, prerun_burn=600)
        est = sm.parametric_prerun(ds, cfg)
        # truth: theta = (0, log 2), beta = 1
        assert abs(est.beta_hat[0] - 1.0) < 3 * math.sqrt(est.W_hat[0, 0])
        assert abs(est.theta_hat[0] - 0.0) < 4 * math.sqrt(est.V_hat[0, 0])
        assert abs(est.theta_hat[1] - math.log(2.0)) < 4 * math.sqrt(est.V_hat[1, 1])

    def test_deterministic(self):
        ds, _ = __import__("bpsurv.simulate", fromlist=["sim1_design"]) \
            .sim1_design("ph").generate(0)
        cfg = sm.McmcConfig(seed=42, prerun_iters=200, prerun_burn=100)
        rng1 = np.random.default_rng(np.random.SeedSequence(7))
        rng2 = np.random.default_rng(np.random.SeedSequence(7))
        e1 = sm.parametric_prerun(ds, cfg, rng=rng1)
        e2 = sm.parametric_prerun(ds, cfg, rng=rng2)
        assert np.array_equal(e1.theta_hat, e2.theta_hat)
        assert np.array_equal(e1.W_hat, e2.W_hat)


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
        s = make_sampler(ds, J=2, alpha_init=1.5)
        eta = s.eta

        def target(zval):
            w = weights_from_logits(np.array([zval]))
            ll = float(s.ev.loglik_obs(s.cache, w, eta).sum())
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
            ll = float(s.ev.loglik_obs(s.cache, s.state.w, eta).sum())
            return ll - 0.5 * b * b / 4.0

        grid = np.linspace(-8, 8, 3001)
        cdf = grid_cdf(grid, [target(b) for b in grid])
        draws = self.collect(s, s.update_beta, lambda: s.state.beta[0])
        assert kstest(draws, cdf).statistic < 0.05

    def test_alpha_block_against_grid(self):
        # w fixed at 1/J: alpha's conditional is Dirichlet-likelihood x Gamma prior
        ds = dm.Dataset(observations=[], m=0, covariate_names=[])
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

    def test_iid_frailty_prior_only_ks(self):
        # empty data, m=1, fixed tau2: v_1 targets N(0, tau2)
        ds = dm.Dataset(observations=[], m=1, covariate_names=[])
        s = make_sampler(ds, frailty=fr.FrailtySpec(kind="iid"), tau2_init=2.0)
        draws = self.collect(s, s.update_frailties, lambda: s.state.v[0], iters=60000)
        assert kstest(draws, norm(0.0, math.sqrt(2.0)).cdf).statistic < 0.05

    def test_proposing_current_state_always_accepts(self, monkeypatch):
        ds = two_obs_dataset()
        s = make_sampler(ds)
        monkeypatch.setattr(s.prop["z"], "step", lambda rng: np.zeros(s.cfg.J - 1))
        before = s.accept["z"]
        for _ in range(25):
            s.update_z()
        assert s.accept["z"] - before == 25


class TestTau2Gibbs:
    def test_moments_at_zero_field(self):
        ds = dm.Dataset(observations=[], m=3, covariate_names=[])
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
        ds = dm.Dataset(observations=[], m=3, covariate_names=[])
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
        s = make_sampler(ds, selection=True, q_incl=0.5, J=4)
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
                        nskip=2, seed=12, prerun_iters=150, prerun_burn=50, l0=30,
                        debug_checks=True)
        defaults.update(kw)
        return sm.McmcConfig(**defaults)

    def dataset(self):
        from bpsurv.simulate import SimDesign
        return SimDesign(model="ph", m=6, n_per_site=8, frailty_kind="none").generate(4)[0]

    def test_debug_checked_run_all_features(self):
        ds = self.dataset()
        # small ICAR graph: a path over the 6 sites
        E = np.zeros((6, 6), dtype=int)
        for i in range(5):
            E[i, i + 1] = E[i + 1, i] = 1
        cfg = self.small_config(selection=True,
                                frailty=fr.FrailtySpec(kind="icar", adjacency=E))
        arch = sm.run_chain(ds, cfg)  # debug checks assert cache consistency
        assert arch.L == 40
        assert set(arch.draws) >= {"z", "theta", "beta", "alpha", "gamma", "v", "tau2"}
        assert arch.loglik_obs.shape == (40, ds.n)
        assert 0 <= arch.accept_rates["frailty"] <= 1

    def test_debug_checked_grf_aft_run(self):
        from bpsurv.simulate import SimDesign
        ds, _ = SimDesign(model="aft", m=12, n_per_site=4, frailty_kind="grf").generate(8)
        spec = fr.FrailtySpec(kind="grf", coords=ds.coords, fsa=(6, 3))
        cfg = self.small_config(model="aft", frailty=spec)
        arch = sm.run_chain(ds, cfg)
        assert "phi" in arch.draws
        assert arch.draws["phi"].min() > 0

    def test_nonlinear_terms_run(self):
        ds = self.dataset()
        cfg = self.small_config(nonlinear=("x2",), spline_K=4)
        arch = sm.run_chain(ds, cfg)
        assert arch.draws["xi_x2"].shape == (40, 4)

    def test_identical_seed_bit_identical(self):
        ds = self.dataset()
        cfg = self.small_config(debug_checks=False)
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
        arch = sm.run_chain(ds, self.small_config(debug_checks=False))
        wall = time.perf_counter() - t0
        assert 0.5 <= arch.elapsed <= wall

    def test_nsave_zero_diagnostics_only(self):
        ds = self.dataset()
        cfg = self.small_config(nsave=0, debug_checks=False)
        arch = sm.run_chain(ds, cfg)
        assert arch.L == 0
        assert arch.accept_rates
        assert math.isnan(arch.loglik_at_mean)

    def test_parameter_matrix_names(self):
        ds = self.dataset()
        arch = sm.run_chain(ds, self.small_config(debug_checks=False))
        names, mat = arch.parameter_matrix()
        assert mat.shape == (40, len(names))
        assert "beta.x1" in names and "theta.1" in names and "alpha" in names

    def test_submodel_table(self):
        ds = self.dataset()
        cfg = self.small_config(selection=True, debug_checks=False)
        arch = sm.run_chain(ds, cfg)
        table = arch.submodel_table()
        assert abs(sum(p for _, p in table) - 1.0) < 1e-12
