import math
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bpsurv import diagnostics as dg
from bpsurv import frailty as fr
from bpsurv import sampler as sm
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
        assert oracle.survival_after(est, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-8)
        assert oracle.survival_after(est, 3.0) == pytest.approx(0.0, abs=1e-8)

    def test_exact_plus_right_censored_matches_km(self):
        # exact 1, censored 2, exact 3 -> masses 1/3 at {1}, 2/3 at {3}
        lo = np.array([1.0, 2.0, 3.0])
        hi = np.array([1.0, np.inf, 3.0])
        est = dg.turnbull_npmle(lo, hi)
        assert oracle.survival_after(est, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-8)
        assert oracle.survival_after(est, 3.0) == pytest.approx(0.0, abs=1e-8)
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
                assert oracle.survival_after(est, tt) == pytest.approx(s_km, abs=1e-7)

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
        vals = [oracle.survival_after(est, g) for g in grid]
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

    def test_slow_residual_sample_converges(self):
        # Cox-Snell residuals (lo, hi, trunc) of one posterior draw of a short
        # iid-frailty PH fit: without step-length backtracking SQUAREM drops
        # its infeasible steps and the EM needs about 6600 cycles, with it 170
        lo, hi, trunc = np.loadtxt(Path(__file__).parent / "data" / "turnbull_slow_residuals.csv",
                                   delimiter=",", skiprows=1, unpack=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = dg.turnbull_npmle(lo, hi, trunc)
        assert est.converged and est.iterations < 500


def mixed_sample(rng, n, truncate):
    """Censored sample on a coarse grid, so exact values repeat and tie with
    censored endpoints; it mixes exact, interval, right-censored (hi = inf)
    and left-censored (lo = 0) records and, when truncate, entry times at or
    below each record's left end (strictly below for exact values)."""
    lo = 0.5 * rng.integers(0, 8, n).astype(float)
    kind = rng.integers(0, 4, n)
    hi = lo + 0.5 * rng.integers(1, 4, n)
    hi[kind == 2] = np.inf
    lo[kind == 3] = 0.0
    exact = kind == 0
    lo[exact] = np.maximum(lo[exact], 0.5)
    hi[exact] = lo[exact]
    trunc = np.zeros(n)
    if truncate:
        factor = np.where(exact, 0.5, rng.choice([0.5, 1.0], n))
        trunc = np.where(rng.uniform(size=n) < 0.4, lo * factor, 0.0)
    return lo, hi, trunc


class TestTurnbullAgainstOracle:
    """The contiguous-run SQUAREM estimate against the dense plain EM."""

    @staticmethod
    def fit_both(seed, truncate):
        rng = np.random.default_rng(seed)
        lo, hi, trunc = mixed_sample(rng, int(rng.integers(5, 80)), truncate)
        est = dg.turnbull_npmle(lo, hi, trunc)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the slow plain EM may stop at max_iter
            ref = oracle.turnbull_npmle(lo, hi, trunc)
        return (lo, hi, trunc), est, ref

    @pytest.mark.parametrize("truncate", [False, True])
    @pytest.mark.parametrize("seed", range(12))
    def test_support_loglik_and_masses(self, seed, truncate):
        data, est, ref = self.fit_both(seed, truncate)
        assert est.support == ref.support
        assert est.converged
        assert oracle.turnbull_loglik(*data, est.support, est.masses) >= \
            oracle.turnbull_loglik(*data, ref.support, ref.masses) - 1e-10
        if ref.converged:
            assert np.max(np.abs(est.masses - ref.masses)) <= 1e-6
        assert np.all(est.masses >= 0.0)
        assert est.masses.sum() == pytest.approx(1.0, abs=1e-12)

    def test_observation_covering_nothing_is_rejected(self):
        with pytest.raises(ValueError, match="matches no innermost interval"):
            dg.turnbull_npmle(np.array([2.0, 0.0]), np.array([1.0, 1.0]))

    def test_memory_stays_linear_in_n(self):
        # dense n x K membership matrices would take gigabytes here
        rng = np.random.default_rng(7)
        n = 50_000
        t = rng.exponential(1.0, n)
        width = rng.uniform(0.1, 1.0, n)
        kind = rng.integers(0, 4, n)
        lo = np.where(kind == 1, np.maximum(t - width / 2, 0.0), t)
        lo = np.where(kind == 2, t * rng.uniform(size=n), lo)
        lo = np.where(kind == 3, 0.0, lo)
        hi = np.select([kind == 0, kind == 2], [t, np.inf], default=lo + width)
        hi = np.where(kind == 3, t + width, hi)
        trunc = np.where(rng.uniform(size=n) < 0.2, 0.5 * lo, 0.0)
        tracemalloc.start()
        try:
            est = dg.turnbull_npmle(lo, hi, trunc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert est.converged
        assert peak < 64 * 2**20


def exp_exact_plot_columns(n, seed):
    """Plot columns (r, cumhaz) from a perfect Exp(1) exact sample."""
    rng = np.random.default_rng(seed)
    r = rng.exponential(1.0, n)
    return dg.turnbull_npmle(r, r).step_points()


class TestResidualPlot:
    def test_exp1_slope_near_one(self):
        slope = dg.cumhaz_slope(*exp_exact_plot_columns(10000, seed=5))
        assert 0.95 <= slope <= 1.05

    def test_empty_selection(self):
        with pytest.raises(ValueError):
            dg.cumhaz_slope(np.zeros(0), np.zeros(0))


class TestCoxSnellResiduals:
    @pytest.mark.parametrize("model", ["aft", "ph", "po"])
    def test_spline_selection_frailty_match_oracle(self, model):
        ds, _ = SimDesign(model=model, m=4, n_per_site=10, frailty_kind="iid").generate(2)
        # left-truncate every third record with a positive left end
        ds = replace(ds, u=np.where(np.arange(ds.n) % 3 == 0, 0.5 * ds.a, 0.0))
        cfg = sm.McmcConfig(model=model, J=4, nburn=20, nsave=10, seed=5,
                            selection=True, nonlinear=("x2",), spline_K=4,
                            frailty=fr.FrailtySpec(kind="iid"))
        arch = sm.run_chain(ds, cfg)
        arch.draws["gamma"][[3, 9], 0] = 0.0  # exercise the selection mask
        idx, lo, hi, trunc = dg.coxsnell_residuals(arch, ds, draws=4)
        assert idx.tolist() == [0, 3, 6, 9]
        assert lo.shape == hi.shape == trunc.shape == (4, ds.n)
        for k, s in enumerate(idx):
            state = oracle.RegressionState(beta=arch.draws["beta"][s],
                                           gamma=arch.draws["gamma"][s],
                                           xi=[arch.draws["xi_x2"][s]], v=arch.draws["v"][s])
            eta = oracle.linear_predictor(ds, state, arch.spline_terms)
            base = oracle.baseline_for_draw(arch, s)

            def r(t, i):  # with the residuals' floor of 1e-300 on S
                return -math.log(max(oracle.surv(model, t, float(eta[i]), base), 1e-300))

            for i, (a, b, u) in enumerate(zip(ds.a, ds.b, ds.u)):
                assert lo[k, i] == pytest.approx(r(a, i) if a > 0 else 0.0,
                                                 rel=1e-9, abs=1e-12)
                if a == b:
                    assert hi[k, i] == lo[k, i]
                elif math.isinf(b):
                    assert hi[k, i] == math.inf
                else:
                    assert hi[k, i] == pytest.approx(r(b, i), rel=1e-9, abs=1e-12)
                assert trunc[k, i] == pytest.approx(r(u, i) if u > 0 else 0.0,
                                                    rel=1e-9, abs=1e-12)


class TestResidualSample:
    """The (draws x observations) residual sample of coxsnell_residuals."""

    def test_orders_validated(self, monkeypatch):
        ds, _ = SimDesign(model="ph", m=4, n_per_site=10, frailty_kind="none").generate(2)
        arch = sm.run_chain(ds, sm.McmcConfig(model="ph", J=4, nburn=5, nsave=3, seed=5))
        probs = dg.LikelihoodEvaluator.survival_probs

        def swapped(*args):  # S(a) and S(b) exchanged: censored pairs come out reversed
            Sa, Sb, Su = probs(*args)
            return Sb, Sa, Su

        monkeypatch.setattr(dg.LikelihoodEvaluator, "survival_probs", swapped)
        with pytest.raises(ValueError, match="residual pairs need lo <= hi"):
            dg.coxsnell_residuals(arch, ds, draws=3)

    def test_select_draws_even_spacing(self):
        idx = dg._select_draws(100, 10)
        assert idx[0] == 0 and idx[-1] == 99
        assert len(idx) == 10
