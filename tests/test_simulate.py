import math

import numpy as np
import pytest
from scipy.stats import kstest, mannwhitneyu

from bpsurv import simulate as sg
from bpsurv.data import EXACT, INTERVAL, LEFT, RIGHT

import oracle


class TestBimodalBaseline:
    def test_limits(self):
        base = sg.BimodalBaseline()
        assert base.survival(0.0) == 1.0
        assert base.survival(np.inf) == 0.0

    def test_mixture_of_lognormals(self):
        # 0.5 LN(-1, 0.5) + 0.5 LN(1, 0.5)
        from scipy.stats import lognorm
        base = sg.BimodalBaseline()
        t = np.array([0.2, 0.5, 1.0, 2.0, 5.0])
        s_oracle = 0.5 * (lognorm(0.5, scale=np.exp(-1)).sf(t)
                          + lognorm(0.5, scale=np.exp(1)).sf(t))
        assert np.allclose(base.survival(t), s_oracle, atol=1e-12)
        f_oracle = 0.5 * (lognorm(0.5, scale=np.exp(-1)).pdf(t)
                          + lognorm(0.5, scale=np.exp(1)).pdf(t))
        assert np.allclose(base.density(t), f_oracle, atol=1e-12)


class TestSampleSurvivalTime:
    def test_median_at_half(self):
        base = sg.BimodalBaseline()
        t = sg.sample_survival_time("aft", 0.0, base, 0.5)
        assert base.survival(t) == pytest.approx(0.5, abs=1e-10)

    @pytest.mark.parametrize("model", ["aft", "ph", "po"])
    def test_round_trip(self, model):
        base = sg.BimodalBaseline()
        rng = np.random.default_rng(0)
        for _ in range(250):
            u = rng.uniform(0.001, 0.999)
            eta = rng.normal(0, 1)
            t = sg.sample_survival_time(model, eta, base, u)
            f = 1.0 - float(oracle.surv(model, t, eta, base))
            assert f == pytest.approx(u, abs=1e-10)

    def test_ph_stochastic_ordering(self):
        base = sg.BimodalBaseline()
        rng = np.random.default_rng(1)
        u = rng.uniform(0.01, 0.99, size=2000)
        t0 = np.array([sg.sample_survival_time("ph", 0.0, base, ui) for ui in u])
        t1 = np.array([sg.sample_survival_time("ph", math.log(2.0), base, ui)
                       for ui in rng.uniform(0.01, 0.99, size=2000)])
        stat = mannwhitneyu(t1, t0, alternative="less")
        assert stat.pvalue < 1e-6

    def test_exact_times_follow_bimodal_cdf(self):
        base = sg.BimodalBaseline()
        rng = np.random.default_rng(7)
        u = rng.uniform(1e-6, 1 - 1e-6, size=10000)
        t = np.array([sg.sample_survival_time("aft", 0.0, base, ui) for ui in u])
        res = kstest(t, lambda x: 1.0 - base.survival(x))
        assert res.pvalue > 0.01

    def test_ph_step_where_baseline_underflows(self):
        # S0^(e^-10) = 0.5 lies past the point where S0 underflows to 0, so
        # the inverse is that point: S_x is near 1 before it and 0 after it
        base = sg.BimodalBaseline()
        t = sg.sample_survival_time("ph", -10.0, base, 0.5)
        assert np.isfinite(t)
        assert base.survival(t * 1.001) == 0.0
        assert base.survival(t / 1.001) > 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            sg.sample_survival_time("aft", 0.0, sg.BimodalBaseline(), 0.0)


class TestCensoringScheme:
    def test_right_censor_time_after_true_time_keeps_exact(self):
        rng = np.random.default_rng(2)
        times = np.full(40, 0.5)  # always before the U(2,6) censor times
        a, b = sg.apply_censoring(times, np.zeros(40), "ph", sg.BimodalBaseline(), rng)
        right_half = np.isfinite(b) & (a == b)
        assert right_half.sum() >= 20  # the whole right-censoring half is exact

    def test_true_time_before_first_visit_is_left_censored(self):
        rng = np.random.default_rng(3)
        times = np.full(400, 1e-9)
        a, b = sg.apply_censoring(times, np.zeros(400), "ph", sg.BimodalBaseline(), rng)
        left = (a == 0.0) & np.isfinite(b)
        assert left.sum() >= 190  # all inspection-half subjects

    def test_composition_matches_reference_proportions(self):
        # around 40% exact, 25% left, 15% interval, 20% right (+- 5 points)
        design = sg.sim1_design("ph")
        kinds = {EXACT: 0, LEFT: 0, INTERVAL: 0, RIGHT: 0}
        reps = 30
        for seed in range(reps):
            ds, _ = design.generate(seed)
            for k in ds.kinds():
                kinds[k] += 1
        total = sum(kinds.values())
        props = {k: v / total for k, v in kinds.items()}
        assert abs(props[EXACT] - 0.40) < 0.05
        assert abs(props[LEFT] - 0.25) < 0.05
        assert abs(props[INTERVAL] - 0.15) < 0.05
        assert abs(props[RIGHT] - 0.20) < 0.05


class TestFrailtyTruth:
    def test_icar_draw_centered(self):
        E = sg.bundled_adjacency37()
        spec = sg.fr.FrailtySpec(kind="icar", adjacency=E)
        rng = np.random.default_rng(4)
        v = sg.gen_frailty_truth(spec, 1.0, rng)
        assert v.shape == (37,)
        assert v.mean() == pytest.approx(0.0, abs=1e-12)

    def test_grf_moments(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
        spec = sg.fr.FrailtySpec(kind="grf", coords=coords)
        rng = np.random.default_rng(5)
        tau2, phi = 1.0, 1.0
        draws = np.array([sg.gen_frailty_truth(spec, tau2, rng, phi=phi)
                          for _ in range(10000)])
        var0 = draws[:, 0].var()
        assert abs(var0 - tau2) / tau2 < 0.05
        cov01 = np.cov(draws[:, 0], draws[:, 1])[0, 1]
        assert cov01 == pytest.approx(tau2 * math.exp(-1.0), abs=0.03)


class TestCovariateDesigns:
    def test_sim1_bernoulli_mean(self):
        X = sg.gen_covariates("sim1", 10000, np.random.default_rng(6))
        assert abs(X[:, 0].mean() - 0.5) < 0.02

    def test_sim4ex2_collinearity(self):
        X = sg.gen_covariates("sim4ex2", 100000, np.random.default_rng(7))
        r = np.corrcoef(X[:, 1], X[:, 2])[0, 1]
        assert 0.985 <= r <= 0.992

    def test_sim4ex3_equicorrelation(self):
        X = sg.gen_covariates("sim4ex3", 100000, np.random.default_rng(8))
        C = np.corrcoef(X.T)
        off = C[np.triu_indices(10, k=1)]
        assert abs(off.mean() - 0.5) < 0.03

    def test_unknown_design(self):
        with pytest.raises(ValueError):
            sg.gen_covariates("nope", 10, np.random.default_rng(0))


class TestDesignPipeline:
    def test_deterministic_under_seed(self):
        design = sg.sim1_design("aft")
        ds1, tr1 = design.generate(123)
        ds2, tr2 = design.generate(123)
        assert ds1.observations == ds2.observations
        assert np.array_equal(tr1.v, tr2.v)

    def test_sim1_shape(self):
        ds, truth = sg.sim1_design("po").generate(0)
        assert ds.n == 740 and ds.m == 37 and ds.p == 2
        assert np.array_equal(truth.beta, [1.0, 1.0])

    def test_sim3_shape(self):
        ds, truth = sg.sim3_design("ph").generate(1)
        assert ds.n == 750 and ds.m == 150
        assert ds.coords.shape == (150, 2)
        assert truth.phi == 1.0

    def test_sim4_ex3_wide_predictor(self):
        # PH with an eta SD of about 5.6: some rows meet an underflowed S0
        ds, _ = sg.DESIGNS["sim4-ex3"]().generate(1)
        assert ds.n == 740
        assert np.all(np.isfinite(ds.a))

    def test_adjacency_is_valid_icar_input(self):
        E = sg.bundled_adjacency37()
        spec = sg.fr.FrailtySpec(kind="icar", adjacency=E)  # validates
        assert spec.m == 37
