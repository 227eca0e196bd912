import math
import warnings

import numpy as np
import pytest

from bpsurv import criteria as cr
from bpsurv.baseline import alpha_log_prior_at_zero

import oracle


class FakeArchive:
    def __init__(self, loglik_total, loglik_at_mean, draws=None, J=15, spline_terms=None):
        self.loglik_total = np.asarray(loglik_total, dtype=float)
        self.loglik_at_mean = loglik_at_mean
        self.draws = draws or {}
        self.J = J
        self.spline_terms = spline_terms


class TestDic:
    def test_degenerate_chain(self):
        arch = FakeArchive([-10.0, -10.0, -10.0], -10.0)
        val, p_d = cr.dic(arch)
        assert p_d == 0.0
        assert val == pytest.approx(20.0)

    def test_three_draw_toy(self):
        # p_D = 2(-10.5 - (-11)) = 1, DIC = -2(-10.5) + 2 = 23
        arch = FakeArchive([-10.0, -11.0, -12.0], -10.5)
        val, p_d = cr.dic(arch)
        assert p_d == pytest.approx(1.0)
        assert val == pytest.approx(23.0)

    def test_p_v_is_twice_the_loglik_variance(self):
        # var([-10, -11, -12], ddof=1) = 1
        assert cr.p_v(np.array([-10.0, -11.0, -12.0])) == pytest.approx(2.0)

    def test_negative_p_d_is_flagged_beside_p_v(self, tmp_path):
        import json

        from bpsurv import archive_io, sampler
        from bpsurv.simulate import SimDesign
        ds = SimDesign(model="ph", m=4, n_per_site=10, frailty_kind="none").generate(2)[0]
        cfg = sampler.McmcConfig(J=4, nburn=20, nsave=30, seed=3)
        arch = sampler.run_chain(ds, cfg)
        # a plug-in point fitting worse than the average draw: p_D = -6
        arch.loglik_at_mean = float(arch.loglik_total.mean()) - 3.0
        crit = archive_io.save_archive(arch, tmp_path)
        assert crit["p_d"] == pytest.approx(-6.0)
        p_v = 2.0 * np.var(arch.loglik_total, ddof=1)
        assert crit["p_v"] == pytest.approx(p_v, rel=1e-12) and p_v > 0.0
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["criteria"]["p_v"] == pytest.approx(p_v, rel=1e-12)
        text = archive_io.summary_text(arch, crit)
        assert "P D: -6.0000  (negative:" in text
        assert f"P V: {p_v:.4f}" in text
        arch.loglik_at_mean += 6.0  # p_D = +6: no flag
        assert "(negative:" not in archive_io.summary_text(arch)

    def test_plug_in_is_at_the_mean_weights(self):
        # z draws whose mean maps to weights far from the mean of their weights
        from bpsurv import sampler
        from bpsurv.baseline import weights_from_logits
        from bpsurv.simulate import SimDesign
        ds = SimDesign(model="po", m=4, n_per_site=10, frailty_kind="none").generate(2)[0]
        cfg = sampler.McmcConfig(model="po", J=3, nburn=0, nsave=0)
        s = sampler.ChainSampler(ds, cfg)
        beta = np.array([[0.5, 1.0], [0.7, 0.9], [0.6, 1.1], [0.8, 1.2]])
        theta = np.array([[0.1, 0.2], [0.0, 0.1], [-0.2, 0.3], [0.3, 0.0]])
        z = np.array([[6.0, -4.0], [-5.0, 3.0], [4.0, 4.0], [-3.0, -6.0]])
        names = [nm for cols, _ in s._draw_blocks() for nm in cols]
        arch = sampler.PosteriorArchive(
            model="po", family=cfg.family, J=3, covariate_names=ds.covariate_names,
            names=names, matrix=np.column_stack([beta, theta, z, np.ones(4)]),
            loglik_obs=np.zeros((4, ds.n)), loglik_at_mean=math.nan,
            accept_rates={}, config=cfg, n=ds.n, m=ds.m, elapsed=0.0)
        eta = oracle.linear_predictor(ds, oracle.RegressionState(beta=beta.mean(axis=0)))
        family = oracle.CenteringFamily(cfg.family, tuple(theta.mean(axis=0)))

        def loglik(w):
            base = oracle.TbpBaseline(J=3, w=w, family=family)
            return sum(oracle.obs_loglik("po", ds.a[i], ds.b[i], ds.u[i], float(eta[i]), base)
                       for i in range(ds.n))

        expected = loglik(arch.weights().mean(axis=0))
        assert s._loglik_at_posterior_mean(arch) == pytest.approx(expected, rel=1e-12)
        assert abs(loglik(weights_from_logits(z.mean(axis=0))) - expected) > 0.1


class TestLpml:
    def test_constant_likelihood(self):
        ll = np.full((5, 3), np.log(0.37))
        total, logcpo = cr.lpml(ll)
        assert np.allclose(np.exp(logcpo), 0.37, atol=1e-12)
        assert total == pytest.approx(3 * np.log(0.37))

    def test_two_draw_hand_arithmetic(self):
        # likelihoods e^-1 and e^-3 for a single observation
        ll = np.array([[-1.0], [-3.0]])
        w = np.exp([1.0, 3.0])
        wbar = w.mean()
        w_trunc = np.minimum(w, np.sqrt(2.0) * wbar)
        expected = (np.exp([-1.0, -3.0]) * w_trunc).sum() / w_trunc.sum()
        total, logcpo = cr.lpml(ll)
        assert np.exp(logcpo[0]) == pytest.approx(expected, rel=1e-12)

    def test_truncation_inactive_for_constant_weights(self):
        rng = np.random.default_rng(0)
        col = rng.uniform(-3, -1)
        ll = np.tile(col, (8, 4))
        _, logcpo = cr.lpml(ll)
        # CPO reduces to the common likelihood when weights are constant
        assert np.allclose(logcpo, col, atol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        ll = rng.normal(-2, 0.7, size=(40, 6))
        t1, _ = cr.lpml(ll)
        t2, _ = cr.lpml(ll[rng.permutation(40)])
        assert t1 == pytest.approx(t2, rel=1e-12)

    def test_additivity_under_duplication(self):
        rng = np.random.default_rng(2)
        ll = rng.normal(-2, 0.5, size=(30, 5))
        t1, _ = cr.lpml(ll)
        t2, _ = cr.lpml(np.concatenate([ll, ll], axis=1))
        assert t2 == pytest.approx(2 * t1, rel=1e-12)

    def test_pbf(self):
        assert cr.log_pseudo_bayes_factor(-206.0, -211.0) == pytest.approx(5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cr.log_pseudo_bayes_factor(-100.0, -900.0) == 800.0

    def test_needs_two_draws(self):
        with pytest.raises(ValueError):
            cr.lpml(np.zeros((1, 4)))


class TestWaic:
    def test_degenerate_chain(self):
        ll = np.tile([-1.5, -2.0], (4, 1))
        val, p_w = cr.waic(ll)
        assert p_w == 0.0
        assert val == pytest.approx(-2 * (-3.5))

    def test_two_draw_hand_arithmetic(self):
        ll = np.array([[-1.0], [-2.0]])
        lppd = np.log(0.5 * (np.exp(-1.0) + np.exp(-2.0)))
        p_w = np.var([-1.0, -2.0], ddof=1)
        val, got_pw = cr.waic(ll)
        assert got_pw == pytest.approx(p_w, rel=1e-12)
        assert val == pytest.approx(-2 * lppd + 2 * p_w, rel=1e-12)

    def test_single_draw_errors(self):
        with pytest.raises(ValueError):
            cr.waic(np.zeros((1, 3)))

    def test_additivity_under_duplication(self):
        rng = np.random.default_rng(3)
        ll = rng.normal(-2, 0.5, size=(25, 7))
        v1, _ = cr.waic(ll)
        v2, _ = cr.waic(np.concatenate([ll, ll], axis=1))
        assert v2 == pytest.approx(2 * v1, rel=1e-12)


class TestBfParametric:
    def test_concentrated_posterior_favors_parametric(self):
        rng = np.random.default_rng(4)
        draws = {
            "z": rng.normal(0.0, 1e-3, size=(500, 14)),
            "alpha": np.full(500, 1.0),
        }
        arch = FakeArchive(np.zeros(500), 0.0, draws=draws, J=15)
        assert cr.log_bf_parametric(arch) < math.log(1e-6)

    def test_diffuse_posterior_favors_flexible(self):
        rng = np.random.default_rng(5)
        draws = {
            "z": rng.normal(2.0, 1.0, size=(500, 14)),  # far from zero
            "alpha": np.full(500, 1.0),
        }
        arch = FakeArchive(np.zeros(500), 0.0, draws=draws, J=15)
        assert cr.log_bf_parametric(arch) > 0.0

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(6)
        z = rng.normal(0.3, 0.5, size=(400, 4))
        draws = {"z": z, "alpha": rng.gamma(2.0, 1.0, 400)}
        arch = FakeArchive(np.zeros(400), 0.0, draws=draws, J=5)
        from scipy.stats import multivariate_normal
        log_num = alpha_log_prior_at_zero(draws["alpha"].mean(), 5)
        log_den = multivariate_normal(mean=z.mean(axis=0),
                                      cov=np.cov(z.T) + 1e-10 * np.eye(4)).logpdf(np.zeros(4))
        assert cr.log_bf_parametric(arch) == pytest.approx(log_num - log_den, abs=1e-8)

    def test_fewer_distinct_draws_than_dimensions_is_unavailable(self):
        rng = np.random.default_rng(7)
        z = rng.normal(0.3, 0.5, size=(3, 14))[np.arange(400) % 3]
        arch = FakeArchive(np.zeros(400), 0.0, draws={"z": z, "alpha": np.ones(400)})
        assert cr.log_bf_parametric(arch) is None

    def test_unmixed_full_rank_chain_is_unavailable(self):
        # independent AR(1) columns with rho = 0.99: full rank, ESS about 2.5
        rng = np.random.default_rng(8)
        z = np.empty((500, 4))
        z[0] = rng.normal(size=4)
        for t in range(1, 500):
            z[t] = 0.99 * z[t - 1] + rng.normal(size=4)
        assert np.linalg.matrix_rank(z - z.mean(axis=0)) == 4
        arch = FakeArchive(np.zeros(500), 0.0, draws={"z": z, "alpha": np.ones(500)}, J=5)
        assert cr.log_bf_parametric(arch) is None

    def test_too_short_for_an_ess_is_unavailable(self):
        z = np.random.default_rng(9).normal(size=(8, 2))
        arch = FakeArchive(np.zeros(8), 0.0, draws={"z": z, "alpha": np.ones(8)}, J=3)
        assert cr.log_bf_parametric(arch) is None

    def test_unavailable_in_meta_json_and_summary(self, tmp_path):
        import json

        from bpsurv import archive_io, sampler
        from bpsurv.simulate import SimDesign
        ds = SimDesign(model="ph", m=4, n_per_site=10, frailty_kind="none").generate(2)[0]
        cfg = sampler.McmcConfig(J=6, nburn=20, nsave=30, seed=3,
                                 nonlinear=("x2",), spline_K=4)
        arch = sampler.run_chain(ds, cfg)
        stuck = np.arange(arch.L) % 3  # three distinct states in 5 and 4 dimensions
        arch.draws["z"] = arch.draws["z"][stuck]
        arch.draws["xi_x2"] = arch.draws["xi_x2"][stuck]
        crit = archive_io.save_archive(arch, tmp_path)
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["criteria"]["log_bf_parametric"] is None
        assert meta["criteria"]["log_bf_linear_x2"] is None
        text = archive_io.summary_text(arch, crit)
        assert "LOG BF PARAMETRIC: n/a" in text
        assert "LOG BF nonlinearity [x2]: n/a" in text


class TestEss:
    def test_iid_series(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=5000)
        assert 4000 <= cr.ess(x) <= 6000

    def test_ar1_series(self):
        rng = np.random.default_rng(8)
        phi = 0.9
        L = 5000
        x = np.empty(L)
        x[0] = rng.normal()
        eps = rng.normal(size=L)
        for i in range(1, L):
            x[i] = phi * x[i - 1] + eps[i]
        target = L * (1 - phi) / (1 + phi)  # about 263
        got = cr.ess(x)
        assert abs(got - target) / target < 0.4

    def test_constant_series_flagged(self):
        with pytest.warns(UserWarning, match="constant"):
            assert cr.ess(np.ones(100)) == 100.0

    def test_alternating_series_clamped(self):
        x = np.tile([1.0, -1.0], 50)
        got = cr.ess(x)
        assert 1.0 <= got <= 100.0

    def test_too_short(self):
        with pytest.raises(ValueError):
            cr.ess(np.arange(5))
