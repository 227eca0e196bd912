import math

import numpy as np
import pytest

from bpsurv import criteria as cr
from bpsurv.baseline import alpha_log_prior_at_zero


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
        assert cr.pseudo_bayes_factor(-206.0, -211.0) == pytest.approx(np.exp(5.0))

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
