import math

import numpy as np
import pytest

from bpsurv import diagnostics as dg
from bpsurv import frailty as fr
from bpsurv import sampler as sm
from bpsurv.data import CensoredObservation, Dataset
from bpsurv.simulate import SimDesign

import oracle


def kaplan_meier(times, events):
    """Direct product-limit oracle for exact + right-censored data."""
    order = np.argsort(times)
    times, events = np.asarray(times)[order], np.asarray(events)[order]
    s = 1.0
    out = {}
    n = len(times)
    at_risk = n
    for t in np.unique(times):
        d = int(((times == t) & events).sum())
        c = int(((times == t) & ~events).sum())
        if d:
            s *= 1.0 - d / at_risk
        out[t] = s
        at_risk -= d + c
    return out


class TestTurnbull:
    def test_exact_sample_is_empirical(self):
        est = dg.turnbull_npmle(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]))
        assert est.converged
        assert np.allclose(est.masses, 1.0 / 3.0, atol=1e-8)
        assert est.survival_after(1.0) == pytest.approx(2.0 / 3.0, abs=1e-8)
        assert est.survival_after(3.0) == pytest.approx(0.0, abs=1e-8)

    def test_exact_plus_right_censored_matches_km(self):
        # exact 1, censored 2, exact 3 -> masses 1/3 at {1}, 2/3 at {3}
        lo = np.array([1.0, 2.0, 3.0])
        hi = np.array([1.0, np.inf, 3.0])
        est = dg.turnbull_npmle(lo, hi)
        assert est.survival_after(1.0) == pytest.approx(2.0 / 3.0, abs=1e-8)
        assert est.survival_after(3.0) == pytest.approx(0.0, abs=1e-8)
        masses = {tuple(s[:2]): m for s, m in zip(est.support, est.masses)}
        assert masses[(1.0, 1.0)] == pytest.approx(1.0 / 3.0, abs=1e-8)
        assert masses[(3.0, 3.0)] == pytest.approx(2.0 / 3.0, abs=1e-8)

    def test_two_interval_toy(self):
        # {(0,1], (1,2]} -> masses 1/2 on each innermost interval
        est = dg.turnbull_npmle(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        assert len(est.support) == 2
        assert np.allclose(est.masses, 0.5, atol=1e-8)

    @pytest.mark.parametrize("seed", range(10))
    def test_km_reduction_random_samples(self, seed):
        rng = np.random.default_rng(seed)
        n = 60
        t = rng.exponential(1.0, n)
        c = rng.exponential(1.5, n)
        times = np.minimum(t, c)
        events = t <= c
        if events.all() or not events.any():
            pytest.skip("degenerate censoring draw")
        lo = times.copy()
        hi = np.where(events, times, np.inf)
        est = dg.turnbull_npmle(lo, hi)
        km = kaplan_meier(times, events)
        for tt, s_km in km.items():
            if events[np.asarray(times) == tt].any():
                assert est.survival_after(tt) == pytest.approx(s_km, abs=1e-7)

    def test_masses_sum_to_one_and_monotone(self):
        rng = np.random.default_rng(33)
        lo = rng.uniform(0, 2, 50)
        width = rng.uniform(0.1, 1.0, 50)
        hi = lo + np.where(rng.uniform(size=50) < 0.3, np.inf, width)
        exact = rng.uniform(size=50) < 0.3
        hi[exact] = lo[exact]
        est = dg.turnbull_npmle(lo, hi)
        assert est.masses.sum() == pytest.approx(1.0, abs=1e-8)
        grid = np.linspace(0, 3, 30)
        vals = [est.survival_after(g) for g in grid]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.filterwarnings("ignore:Turnbull EM")
    def test_truncated_entries_shift_mass_up(self):
        # the truncated EM contracts slowly on tiny all-exact samples; the
        # last iterate is still accurate enough for the qualitative check
        lo = np.array([1.0, 2.0, 3.0])
        hi = lo.copy()
        plain = dg.turnbull_npmle(lo, hi)
        trunc = dg.turnbull_npmle(lo, hi, trunc=np.array([0.0, 1.5, 2.5]), max_iter=4000)
        # conditioning on late entry means the later values represent fewer
        # "survivors", so the estimate puts more mass on the earliest value
        assert trunc.masses[0] > plain.masses[0]


def exp_exact_archive_rows(n, seed):
    """Rows (draw, r, cumhaz) from a perfect Exp(1) exact sample."""
    rng = np.random.default_rng(seed)
    r = rng.exponential(1.0, n)
    est = dg.turnbull_npmle(r, r)
    x, h = est.step_points()
    return [(0, float(a), float(b)) for a, b in zip(x, h)]


class TestResidualPlot:
    def test_exp1_slope_near_one(self):
        rows = exp_exact_archive_rows(10000, seed=5)
        slope = dg.cumhaz_slope(rows)
        assert 0.95 <= slope <= 1.05

    def test_empty_selection(self):
        with pytest.raises(ValueError):
            dg.cumhaz_slope([])


class TestCoxSnellResiduals:
    @pytest.mark.parametrize("model", ["aft", "ph", "po"])
    def test_spline_selection_frailty_match_oracle(self, model):
        ds, _ = SimDesign(model=model, m=4, n_per_site=10, frailty_kind="iid").generate(2)
        # left-truncate every third record with a positive left end
        obs = [CensoredObservation(a=o.a, b=o.b, x=o.x, location=o.location,
                                   u=0.5 * o.a if k % 3 == 0 else 0.0)
               for k, o in enumerate(ds.observations)]
        ds = Dataset(observations=obs, m=ds.m, covariate_names=ds.covariate_names)
        cfg = sm.McmcConfig(model=model, J=4, nburn=20, nsave=10, seed=5, prerun_iters=60,
                            prerun_burn=30, selection=True, nonlinear=("x2",), spline_K=4,
                            frailty=fr.FrailtySpec(kind="iid"))
        arch = sm.run_chain(ds, cfg)
        arch.draws["gamma"][[3, 9], 0] = 0.0  # exercise the selection mask
        samples = dg.coxsnell_residuals(arch, ds, draws=[3, 9])
        assert [r.draw for r in samples] == [3, 9]
        for res in samples:
            s = res.draw
            state = oracle.RegressionState(beta=arch.draws["beta"][s],
                                           gamma=arch.draws["gamma"][s],
                                           xi=[arch.draws["xi_x2"][s]], v=arch.draws["v"][s])
            eta = oracle.linear_predictor(ds, state, arch.spline_terms)
            base = arch.baseline_for_draw(s)

            def r(t, i):
                return -math.log(oracle.surv(model, t, float(eta[i]), base))

            for i, o in enumerate(ds.observations):
                assert res.lo[i] == pytest.approx(r(o.a, i) if o.a > 0 else 0.0,
                                                  rel=1e-9, abs=1e-12)
                if o.a == o.b:
                    assert res.hi[i] == res.lo[i]
                elif math.isinf(o.b):
                    assert res.hi[i] == math.inf
                else:
                    assert res.hi[i] == pytest.approx(r(o.b, i), rel=1e-9, abs=1e-12)
                assert res.trunc[i] == pytest.approx(r(o.u, i) if o.u > 0 else 0.0,
                                                     rel=1e-9, abs=1e-12)


class TestResidualSample:
    def test_orders_validated(self):
        with pytest.raises(ValueError):
            dg.ResidualSample(draw=0, lo=np.array([2.0]), hi=np.array([1.0]),
                              trunc=np.zeros(1))

    def test_select_draws_even_spacing(self):
        idx = dg._select_draws(100, 10)
        assert idx[0] == 0 and idx[-1] == 99
        assert len(idx) == 10
