import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc, gamma as gamma_fn

from bpsurv import baseline as bl
from bpsurv.models import LikelihoodEvaluator, model_time
from bpsurv.simulate import sim1_design

import oracle


def random_simplex(rng, J):
    w = rng.gamma(1.0, 1.0, size=J) + 1e-3
    return w / w.sum()


def mixture_cdf(x, J, w):
    """D(x | J, w) at the points x, from the kernel the likelihood uses."""
    cs = bl.bernstein_coefficients(w)[0]
    return bl.bernstein_survival(cs, bl.bernstein_monomials(np.asarray(x, dtype=float), J)[0])


def mixture_pdf(x, J, w):
    """d(x | J, w) at the points x, from the kernel the likelihood uses."""
    x = np.asarray(x, dtype=float)
    cp = bl.bernstein_coefficients(w)[1]
    return cp @ bl.bernstein_monomials(x, J, np.arange(x.shape[0]))[1]


def exact_mixture(x, J, w):
    """(D(x | J, w), d(x | J, w)) in rational arithmetic on the doubles x and
    w, from the definitions sum_j w_j P(Bin(J, x) >= j) and
    sum_j w_j J C(J-1, j-1) x^(j-1) (1-x)^(J-j)."""
    x = Fraction(float(x))
    w = [Fraction(float(wj)) for wj in w]
    pmf = [math.comb(J, k) * x ** k * (1 - x) ** (J - k) for k in range(J + 1)]
    tail = [sum(pmf[j:]) for j in range(J + 1)]
    cdf = sum(w[j - 1] * tail[j] for j in range(1, J + 1))
    pdf = sum(w[j - 1] * J * math.comb(J - 1, j - 1) * x ** (j - 1) * (1 - x) ** (J - j)
              for j in range(1, J + 1))
    return cdf, pdf


def z_log_prior(z, alpha):
    """Log density of the logits z under a symmetric Dirichlet(alpha) on
    w(z), with the z -> w Jacobian prod_j w_j: the prior update_z targets."""
    w = bl.weights_from_logits(z)
    return bl.dirichlet_symmetric_logpdf(w, alpha) + float(np.log(w).sum())


class TestBernsteinCdf:
    def test_endpoints(self):
        w = np.array([0.1, 0.2, 0.3, 0.2, 0.2])
        lo, hi = mixture_cdf([0.0, 1.0], 5, w)
        assert lo == 0.0
        assert hi == pytest.approx(1.0, abs=1e-14)

    def test_degree_one_is_uniform(self):
        x = np.linspace(0, 1, 11)
        assert np.allclose(mixture_cdf(x, 1, [1.0]), x, atol=1e-14)

    def test_incomplete_beta_oracle_point(self):
        # D(x) = sum_j w_j I_x(j, J-j+1) with the regularized incomplete beta
        w = np.array([0.1, 0.2, 0.3, 0.2, 0.2])
        J, x = 5, 0.4
        expected = sum(w[j - 1] * betainc(j, J - j + 1, x) for j in range(1, J + 1))
        assert mixture_cdf([x], J, w)[0] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("J", [1, 5, 15, 30])
    def test_recursion_matches_incomplete_beta(self, J):
        rng = np.random.default_rng(20240200 + J)
        x = rng.uniform(0, 1, size=200)
        for _ in range(50):
            w = random_simplex(rng, J)
            expected = np.zeros_like(x)
            for j in range(1, J + 1):
                expected += w[j - 1] * betainc(j, J - j + 1, x)
            assert np.max(np.abs(mixture_cdf(x, J, w) - expected)) < 1e-12

    def test_monotone(self):
        rng = np.random.default_rng(7)
        w = random_simplex(rng, 15)
        x = np.linspace(0, 1, 500)
        d = np.diff(mixture_cdf(x, 15, w))
        assert np.all(d >= -1e-14)


class TestBernsteinBases:
    @pytest.mark.parametrize("J", [2, 3, 15, 40])
    def test_bit_equal_to_the_pmf_references(self, J):
        # scaled by C(J,k) and J C(J-1,k), the monomials are the pmf rows
        rng = np.random.default_rng(J)
        x = np.concatenate([[bl._CLAMP, 1.0 - bl._CLAMP], rng.uniform(size=97),
                            [bl._CLAMP, 0.5, 1.0 - bl._CLAMP]])
        subsets = [np.arange(0), np.arange(x.size), np.sort(rng.choice(x.size, 40, replace=False)),
                   np.array([0, 1, x.size - 1])]
        for exact in subsets:
            M, Mp = bl.bernstein_monomials(x, J, exact)
            assert M.flags.c_contiguous and Mp.flags.c_contiguous
            assert M.shape == (J, x.size) and Mp.shape == (J, exact.size)
            assert np.array_equal(M * bl._comb_row(J)[1:, None], oracle._pmf_rows(x, J)[1:])
            pdf = Mp * bl._comb_row(J - 1)[:, None]
            pdf *= J
            assert np.array_equal(pdf, oracle.bernstein_pdf_rows(x[exact], J))

    @pytest.mark.parametrize("model", ["aft", "ph", "po"])
    def test_likelihood_cache_matches_monomial_reference(self, model):
        ds = sim1_design(model).generate(2)[0]
        ev = LikelihoodEvaluator(ds, model, "loglogistic", 15)
        eta = np.random.default_rng(4).normal(scale=0.5, size=ds.n)
        cache = ev.build_cache((0.2, -0.1), eta)
        x = bl.family_survival("loglogistic", (0.2, -0.1),
                               model_time(model, ev._pts, eta[ev._scale_idx]))
        x = np.clip(x, bl._CLAMP, 1.0 - bl._CLAMP)
        assert ev.idx_exact.size and cache["mono"].flags.c_contiguous
        assert cache["mono_exact"].flags.c_contiguous
        assert np.array_equal(cache["mono"], oracle.monomial_rows(x, 15)[1:])
        assert np.array_equal(cache["mono_exact"], oracle.monomial_rows(x[ev.idx_exact], 14))
        logf = bl.family_log_density("loglogistic", (0.2, -0.1),
                                     model_time(model, ev._pts, eta[ev._scale_idx])[ev.idx_exact])
        assert np.array_equal(cache["logf_exact"], logf)

    @pytest.mark.parametrize("J", [2, 15, 40])
    def test_tails_match_exact_rationals(self, J):
        # a sum of positive terms keeps its relative accuracy where the
        # complement 1 - sum pmf loses it (8e-4 at x = 1e-15 for J = 15)
        w = random_simplex(np.random.default_rng(100 + J), J)
        xs = np.array([1e-15, 1e-12, 1e-8, 1e-4, 0.3, 0.5, 0.9, 1 - 1e-9, 1 - 1e-15])
        cdf, pdf = mixture_cdf(xs, J, w), mixture_pdf(xs, J, w)
        for x, got_cdf, got_pdf in zip(xs, cdf, pdf):
            want_cdf, want_pdf = exact_mixture(x, J, w)
            assert abs(Fraction(got_cdf) - want_cdf) <= 1e-13 * want_cdf, (x, "cdf")
            assert abs(Fraction(got_pdf) - want_pdf) <= 1e-13 * want_pdf, (x, "pdf")


class TestBernsteinPdf:
    def test_degree_one_flat(self):
        x = np.linspace(0.01, 0.99, 9)
        assert np.allclose(mixture_pdf(x, 1, [1.0]), 1.0, atol=1e-14)

    def test_equal_weights_flat(self):
        # telescoping of the beta mixture: w_j = 1/J gives the uniform density
        x = np.linspace(0, 1, 1000)
        for J in (2, 7, 15):
            d = mixture_pdf(x, J, np.full(J, 1.0 / J))
            assert np.max(np.abs(d - 1.0)) < 1e-10

    def test_degree_raising(self):
        # d(x | J-1, w) == d(x | J, w*) with
        # w*_j = w_{j-1} (j-1)/J + w_j (J-j)/J, boundary terms zero
        rng = np.random.default_rng(11)
        J = 9
        w = random_simplex(rng, J - 1)
        wstar = np.zeros(J)
        for j in range(1, J + 1):
            lo = w[j - 2] * (j - 1) / J if j >= 2 else 0.0
            hi = w[j - 1] * (J - j) / J if j <= J - 1 else 0.0
            wstar[j - 1] = lo + hi
        x = np.linspace(0, 1, 301)
        a = mixture_pdf(x, J - 1, w)
        b = mixture_pdf(x, J, wstar)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_integrates_to_one(self):
        rng = np.random.default_rng(3)
        w = random_simplex(rng, 12)
        x = np.linspace(0, 1, 20001)
        assert np.trapezoid(mixture_pdf(x, 12, w), x) == pytest.approx(1.0, abs=1e-6)

    def test_cdf_pdf_consistency(self):
        rng = np.random.default_rng(5)
        w = random_simplex(rng, 15)
        x = np.linspace(0.05, 0.95, 91)
        h = 1e-6
        deriv = (mixture_cdf(x + h, 15, w) - mixture_cdf(x - h, 15, w)) / (2 * h)
        assert np.max(np.abs(deriv - mixture_pdf(x, 15, w))) < 1e-6


class TestCenteringFamilies:
    @pytest.mark.parametrize("family", bl.FAMILIES)
    @pytest.mark.parametrize("theta", [(0.0, 0.0), (0.7, -0.3), (-1.2, 0.5)])
    def test_survival_limits_and_monotone(self, family, theta):
        t = np.logspace(-6, 6, 200)
        s = bl.family_survival(family, theta, t)
        assert bl.family_survival(family, theta, 0.0) == 1.0
        assert bl.family_survival(family, theta, np.inf) == 0.0
        assert np.all(np.diff(s) <= 1e-15)
        assert np.all((s >= 0) & (s <= 1))

    @pytest.mark.parametrize("family", bl.FAMILIES)
    def test_density_is_negative_survival_slope(self, family):
        theta = (0.3, 0.2)
        t = np.array([0.5, 1.0, 2.0, 4.0])
        h = 1e-6
        slope = (bl.family_survival(family, theta, t + h)
                 - bl.family_survival(family, theta, t - h)) / (2 * h)
        f = oracle.family_density(family, theta, t)
        assert np.max(np.abs(f + slope)) < 1e-6

    @pytest.mark.parametrize("family", bl.FAMILIES)
    def test_density_integrates_to_one(self, family):
        theta = (0.1, 0.4)
        from scipy.integrate import quad
        val, _ = quad(lambda t: float(oracle.family_density(family, theta, t)), 0, np.inf,
                      limit=200)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            bl.family_survival("gamma", (0, 0), 1.0)


class TestTbpBaseline:
    def make(self, J=15, seed=0, family="loglogistic", theta=(0.2, 0.1)):
        rng = np.random.default_rng(seed)
        return oracle.TbpBaseline(J=J, w=random_simplex(rng, J),
                                  family=oracle.CenteringFamily(family, theta))

    def test_equal_weights_recover_centering(self):
        fam = oracle.CenteringFamily("loglogistic", (0.3, -0.2))
        base = oracle.TbpBaseline(J=15, w=np.full(15, 1.0 / 15), family=fam)
        t = np.logspace(-3, 2, 200)
        assert np.max(np.abs(base.survival(t) - fam.survival(t))) < 1e-12

    def test_survival_at_zero(self):
        assert self.make().survival(0.0) == 1.0

    def test_monotone_decreasing(self):
        base = self.make(seed=4)
        t = np.logspace(-3, 3, 200)
        s = base.survival(t)
        assert np.all(np.diff(s) <= 1e-14)
        assert np.all((s >= 0) & (s <= 1))

    @pytest.mark.parametrize("family", bl.FAMILIES)
    def test_density_finite_difference(self, family):
        base = self.make(seed=9, family=family)
        h = 1e-5
        for t in (0.5, 1.0, 2.0):
            slope = (base.survival(t + h) - base.survival(t - h)) / (2 * h)
            assert base.density(t) == pytest.approx(-slope, abs=1e-6)


class TestWeightPriors:
    def test_prior_at_zero_small_case(self):
        # alpha=1, J=2: Gamma(2) / [2 Gamma(1)]^2 = 1/4
        assert np.exp(bl.alpha_log_prior_at_zero(1.0, 2)) == pytest.approx(0.25, abs=1e-14)

    def test_prior_at_zero_matches_general_formula(self):
        for alpha in (0.5, 1.0, 3.7):
            for J in (2, 5, 15):
                direct = gamma_fn(alpha * J) / (J ** alpha * gamma_fn(alpha)) ** J
                assert np.exp(bl.alpha_log_prior_at_zero(alpha, J)) == pytest.approx(
                    direct, rel=1e-12)

    def test_consistent_with_logit_prior(self):
        for alpha in (0.3, 1.0, 8.0):
            z0 = np.zeros(14)
            assert z_log_prior(z0, alpha) == pytest.approx(
                bl.alpha_log_prior_at_zero(alpha, 15), rel=1e-12)

    @given(st.permutations(list(range(5))))
    @settings(max_examples=25, deadline=None)
    def test_permutation_symmetry(self, perm):
        z = np.array([0.3, -0.5, 1.1, 0.0, -1.4])
        zp = z[np.array(perm)]
        assert z_log_prior(zp, 0.8) == pytest.approx(
            z_log_prior(z, 0.8), rel=1e-12)

    def test_large_alpha_concentrates_at_zero(self):
        # on a ray z = c*u the log prior decreases with |c| for large alpha
        u = np.array([1.0, -0.7, 0.2, 0.5])
        vals = [z_log_prior(c * u, 1e4) for c in (0.0, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            bl.alpha_log_prior_at_zero(0.0, 5)
        with pytest.raises(ValueError):
            z_log_prior(np.zeros(4), -1.0)
