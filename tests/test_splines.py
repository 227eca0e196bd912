import numpy as np
import pytest
from scipy.interpolate import BSpline

from bpsurv import splines as sp


def naive_bspline(x, k, i, t):
    """Textbook Cox-de Boor recursion; the independent oracle.  The last
    nonempty knot interval is closed, so the basis covers the right end."""
    if k == 0:
        return 1.0 if t[i] <= x < t[i + 1] or x == t[-1] and t[i] < t[i + 1] == t[-1] else 0.0
    c1 = 0.0 if t[i + k] == t[i] else (x - t[i]) / (t[i + k] - t[i]) * naive_bspline(x, k - 1, i, t)
    c2 = 0.0 if t[i + k + 1] == t[i + 1] else \
        (t[i + k + 1] - x) / (t[i + k + 1] - t[i + 1]) * naive_bspline(x, k - 1, i + 1, t)
    return c1 + c2


@pytest.fixture
def values():
    rng = np.random.default_rng(42)
    return rng.normal(2.0, 1.3, size=200)


class TestBuildBasis:
    def test_partition_of_unity_raw_basis(self, values):
        term = sp.build_basis(values, K=5)
        x = np.linspace(values.min(), values.max(), 113)
        full = BSpline.design_matrix(x, term.knots, sp.DEGREE, extrapolate=False).toarray()
        assert np.max(np.abs(full.sum(axis=1) - 1.0)) < 1e-12

    def test_column_count_and_centering(self, values):
        for K in (2, 5, 8):
            term = sp.build_basis(values, K=K)
            assert term.design.shape == (values.size, K)
            assert np.max(np.abs(term.design.sum(axis=0))) < 1e-9

    def test_matches_naive_recursion(self, values):
        # the design is the retained raw columns at the data values, each
        # centred on its mean over the data
        term = sp.build_basis(values, K=5)
        nb = len(term.knots) - sp.DEGREE - 1
        raw = np.array([[naive_bspline(x, sp.DEGREE, i, term.knots) for i in range(1, nb - 1)]
                        for x in values])
        assert np.max(np.abs(term.design - (raw - raw.mean(axis=0)))) < 1e-12

    def test_too_few_distinct_values(self):
        with pytest.raises(ValueError, match="distinct"):
            sp.build_basis(np.repeat([1.0, 2.0, 3.0], 10), K=5)

    @pytest.mark.parametrize("K", [0, 1])
    def test_too_small_k(self, values, K):
        with pytest.raises(ValueError, match=f"a cubic spline basis needs K >= 2, got K = {K}"):
            sp.build_basis(values, K=K)

    def test_gprior(self, values):
        term = sp.build_basis(values, K=5)
        assert term.g == pytest.approx(0.6456, abs=2e-4)
        # symmetric positive definite
        np.linalg.cholesky(term.prior_cov)
        assert np.max(np.abs(term.prior_cov - term.prior_cov.T)) == 0.0


def test_gprior_scale_matches_scipys_quantile():
    # the constant stands in for ndtri(0.9), so a spline or selection fit
    # need not load scipy.special; every scale must stay bit-equal
    from scipy.special import ndtri
    assert sp._G_QUANTILE == float(ndtri(0.9))
    for p in range(1, 13):
        assert sp.gprior_scale(p) == float((np.log(10.0) / ndtri(0.9)) ** 2 / p)
