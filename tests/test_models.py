import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from bpsurv import data as dm
from bpsurv import models as md
from bpsurv.baseline import bernstein_coefficients

import oracle
from oracle import CenteringFamily, TbpBaseline


def make_baseline(seed=0, family="loglogistic", theta=(0.2, 0.1), J=15):
    rng = np.random.default_rng(seed)
    w = rng.gamma(1.0, 1.0, J) + 1e-3
    w /= w.sum()
    return TbpBaseline(J=J, w=w, family=CenteringFamily(family, theta))


class TestSurvDens:
    @pytest.mark.parametrize("model", md.MODELS)
    def test_eta_zero_collapses_to_baseline(self, model):
        base = make_baseline()
        t = np.array([0.3, 1.0, 2.7])
        assert np.allclose(oracle.surv(model, t, 0.0, base), base.survival(t), atol=1e-12)
        assert np.allclose(oracle.dens(model, t, 0.0, base), base.density(t), atol=1e-12)

    def test_ph_power_identity(self):
        base = make_baseline(seed=1)
        t = 1.3
        s0 = base.survival(t)
        assert oracle.surv("ph", t, math.log(2.0), base) == pytest.approx(s0 ** 2, rel=1e-12)

    def test_po_plugin_value(self):
        # eta = log 2, S0 = 0.5: exp(-eta) S0 / (1 + (exp(-eta)-1) S0) = 1/3
        base = make_baseline(seed=2)
        # find t with S0(t) = 0.5 by bisection
        lo, hi = 1e-6, 50.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if base.survival(mid) > 0.5:
                lo = mid
            else:
                hi = mid
        t = 0.5 * (lo + hi)
        assert oracle.surv("po", t, math.log(2.0), base) == pytest.approx(1.0 / 3.0, abs=1e-8)

    def test_aft_density_rescales(self):
        base = make_baseline(seed=3)
        eta = math.log(3.0)
        assert oracle.dens("aft", 1.0, eta, base) == pytest.approx(3.0 * base.density(3.0),
                                                                   rel=1e-12)

    @pytest.mark.parametrize("model", md.MODELS)
    @pytest.mark.parametrize("eta", [-0.8, 0.0, 1.1])
    def test_dens_is_negative_surv_slope(self, model, eta):
        base = make_baseline(seed=4)
        h = 1e-6
        for t in (0.4, 1.0, 2.3):
            slope = (oracle.surv(model, t + h, eta, base)
                     - oracle.surv(model, t - h, eta, base)) / (2 * h)
            assert oracle.dens(model, t, eta, base) == pytest.approx(-slope, abs=1e-6)

    @pytest.mark.parametrize("model", md.MODELS)
    def test_surv_in_unit_interval_decreasing(self, model):
        base = make_baseline(seed=5)
        t = np.logspace(-3, 2, 120)
        s = oracle.surv(model, t, 0.7, base)
        assert np.all((s >= 0) & (s <= 1))
        assert np.all(np.diff(s) <= 1e-12)

    def test_po_constant_odds_ratio(self):
        base = make_baseline(seed=6)
        eta = 0.9
        t = np.linspace(0.2, 4.0, 40)
        sx = oracle.surv("po", t, eta, base)
        s0 = base.survival(t)
        ratio = ((1 - sx) / sx) / ((1 - s0) / s0)
        assert np.max(np.abs(ratio - math.exp(eta))) < 1e-10


class TestObsLoglik:
    def test_right_censored_eta_zero(self):
        base = make_baseline(seed=7)
        assert oracle.obs_loglik("ph", 1.7, math.inf, 0.0, 0.0, base) == pytest.approx(
            math.log(base.survival(1.7)), abs=1e-12)

    def test_left_truncated_exact(self):
        base = make_baseline(seed=8)
        expected = base.log_density(2.0) - math.log(base.survival(1.0))
        assert oracle.obs_loglik("aft", 2.0, 2.0, 1.0, 0.0, base) == pytest.approx(expected,
                                                                                abs=1e-12)

    def test_interval_ph_matches_quadrature(self):
        base = make_baseline(seed=9)
        eta = 1.0  # beta=(1,), x=1, v=0
        ll = oracle.obs_loglik("ph", 1.0, 2.0, 0.0, eta, base)
        mass, _ = quad(lambda t: oracle.dens("ph", t, eta, base), 1.0, 2.0, limit=200)
        assert ll == pytest.approx(math.log(mass), rel=1e-6)
        direct = math.log(base.survival(1.0) ** math.e - base.survival(2.0) ** math.e)
        assert ll == pytest.approx(direct, abs=1e-10)

    def test_zero_mass_interval_is_minus_inf(self):
        # an interval so far in the tail that S_x(a) == S_x(b) == 0 exactly
        base = make_baseline(seed=10)
        assert oracle.obs_loglik("ph", 1e300, 2e300, 0.0, 0.0, base) == -math.inf


def simulate_dataset(model, n, seed, family="lognormal", theta=(0.0, 0.0), m=3):
    """Small ad-hoc generator for evaluator tests (not the simgen module)."""
    rng = np.random.default_rng(seed)
    base = make_baseline(seed=seed, family=family, theta=theta)
    X = np.column_stack([rng.integers(0, 2, n), rng.normal(size=n)])
    v = rng.normal(0, 0.3, m)
    loc = rng.integers(1, m + 1, n)
    loc[:m] = np.arange(1, m + 1)  # ensure every site occurs
    beta = np.array([1.0, 0.5])
    a, b, u = np.empty(n), np.empty(n), np.zeros(n)
    for i in range(n):
        t = rng.uniform(0.3, 3.0)
        kind = rng.integers(0, 5)
        if kind == 0:
            a[i], b[i] = t, t
        elif kind == 1:
            a[i], b[i] = t, math.inf
        elif kind == 2:
            a[i], b[i] = 0.0, t
        elif kind == 3:
            a[i], b[i] = t, t + rng.uniform(0.1, 1.0)
        else:
            a[i], b[i], u[i] = t, t + 0.8, t * 0.4
    ds = dm.Dataset(a=a, b=b, u=u, X=X, loc=loc, m=m, covariate_names=["x1", "x2"])
    return ds, base, oracle.RegressionState(beta=beta, v=v)


class TestTotalLoglik:
    def test_empty_dataset(self):
        ds = dm.Dataset(a=[], b=[], u=[], X=np.zeros((0, 0)), loc=[], m=0, covariate_names=[])
        base = make_baseline()
        total, vec = oracle.total_loglik("aft", ds, oracle.RegressionState(beta=np.zeros(0)), base)
        assert total == 0.0 and vec.shape == (0,)

    def test_singleton_equals_obs_loglik(self):
        base = make_baseline(seed=11)
        ds = dm.Dataset(a=[1.0], b=[2.0], u=[0.0], X=[[1.0]], loc=[1], m=1, covariate_names=["x"])
        state = oracle.RegressionState(beta=np.array([0.7]))
        total, vec = oracle.total_loglik("po", ds, state, base)
        assert total == pytest.approx(oracle.obs_loglik("po", 1.0, 2.0, 0.0, 0.7, base),
                                      abs=1e-12)
        assert vec[0] == pytest.approx(total, abs=1e-12)

    @pytest.mark.parametrize("model", md.MODELS)
    def test_evaluator_matches_scalar_sum(self, model):
        # summation oracle: vectorized evaluator vs per-record reference path
        ds, base, state = simulate_dataset(model, 50, seed=100)
        total, vec = oracle.total_loglik(model, ds, state, base)
        eta = oracle.linear_predictor(ds, state)
        expected = [oracle.obs_loglik(model, ds.a[i], ds.b[i], ds.u[i], float(eta[i]), base)
                    for i in range(ds.n)]
        assert np.max(np.abs(vec - expected)) < 1e-12
        assert total == pytest.approx(sum(expected), abs=1e-12)

    def test_model_collapse_at_null_state(self):
        ds, base, _ = simulate_dataset("ph", 40, seed=101)
        null = oracle.RegressionState(beta=np.zeros(2))
        values = [oracle.total_loglik(mdl, ds, null, base)[0] for mdl in md.MODELS]
        assert values[0] == pytest.approx(values[1], abs=1e-12)
        assert values[0] == pytest.approx(values[2], abs=1e-12)

    def test_aft_time_scale_equivariance(self):
        # times * c with theta1 -> theta1 - log c changes the log-likelihood by
        # -(number of exact observations) * log c (the Jacobian of rescaling)
        ds, base, state = simulate_dataset("aft", 45, seed=102, family="loglogistic",
                                           theta=(0.3, 0.2))
        c = 1.7
        ds_c = replace(ds, a=ds.a * c, b=ds.b * c, u=ds.u * c)
        th1, th2 = base.family.theta
        base_c = TbpBaseline(J=base.J, w=base.w,
                             family=CenteringFamily("loglogistic", (th1 - math.log(c), th2)))
        t0, _ = oracle.total_loglik("aft", ds, state, base)
        t1, _ = oracle.total_loglik("aft", ds_c, state, base_c)
        n_exact = np.count_nonzero(ds.kinds() == dm.EXACT)
        assert t1 == pytest.approx(t0 - n_exact * math.log(c), abs=1e-10)


class TestEvaluator:
    @pytest.mark.parametrize("model", md.MODELS)
    def test_cache_reuse_across_weights(self, model):
        ds, base, state = simulate_dataset(model, 30, seed=103)
        ev = md.LikelihoodEvaluator(ds, model, base.family.name, base.J)
        eta = oracle.linear_predictor(ds, state)
        theta = np.array(base.family.theta)
        cache = ev.build_cache(theta, eta)
        rng = np.random.default_rng(0)
        for _ in range(3):
            w = rng.dirichlet(np.ones(base.J))
            base2 = TbpBaseline(J=base.J, w=w, family=base.family)
            fresh = oracle.total_loglik(model, ds, state, base2)[1]
            cached = ev.loglik_obs(cache, bernstein_coefficients(w), eta)
            assert np.max(np.abs(fresh - cached)) < 1e-12

    def test_site_sums(self):
        ds, base, state = simulate_dataset("ph", 30, seed=104)
        _, vec = oracle.total_loglik("ph", ds, state, base)
        ev = md.LikelihoodEvaluator(ds, "ph", base.family.name, base.J)
        by_site = ev.site_sums(vec)
        assert by_site.shape == (ds.m,)
        assert by_site.sum() == pytest.approx(vec.sum(), abs=1e-12)
        manual = sum(vec[i] for i in range(ds.n) if ds.loc[i] == 1)
        assert by_site[0] == pytest.approx(manual, abs=1e-12)

    @pytest.mark.parametrize("model", md.MODELS)
    def test_survival_probs_consistency(self, model):
        ds, base, state = simulate_dataset(model, 25, seed=105)
        ev = md.LikelihoodEvaluator(ds, model, base.family.name, base.J)
        eta = oracle.linear_predictor(ds, state)
        Sa, Sb, Su = ev.survival_probs(np.array(base.family.theta), base.w, eta)
        for i, (a, b, u) in enumerate(zip(ds.a, ds.b, ds.u)):
            if a > 0:
                expected = oracle.surv(model, a, float(eta[i]), base)
                assert Sa[i] == pytest.approx(expected, abs=1e-10)
            else:
                assert Sa[i] == 1.0
            if math.isfinite(b):
                expected = oracle.surv(model, b, float(eta[i]), base)
                assert Sb[i] == pytest.approx(expected, abs=1e-10)
            else:
                assert Sb[i] == 0.0
            if u > 0:
                expected = oracle.surv(model, u, float(eta[i]), base)
                assert Su[i] == pytest.approx(expected, abs=1e-10)
            else:
                assert Su[i] == 1.0
