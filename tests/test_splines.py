import numpy as np
import pytest
from scipy.interpolate import BSpline

from bpsurv import splines as sp


def naive_bspline(x, k, i, t):
    """Textbook Cox-de Boor recursion; the independent oracle."""
    if k == 0:
        return 1.0 if t[i] <= x < t[i + 1] else 0.0
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
        x = np.linspace(term.xmin, term.xmax, 113)
        full = BSpline.design_matrix(x, term.knots, sp.DEGREE, extrapolate=False).toarray()
        assert np.max(np.abs(full.sum(axis=1) - 1.0)) < 1e-12

    def test_column_count_and_centering(self, values):
        for K in (2, 5, 8):
            term = sp.build_basis(values, K=K)
            assert term.design.shape == (values.size, K)
            assert np.max(np.abs(term.design.sum(axis=0))) < 1e-9

    def test_matches_naive_recursion(self, values):
        term = sp.build_basis(values, K=5)
        rng = np.random.default_rng(7)
        x = rng.uniform(term.xmin, term.xmax * 0.999, size=100)
        rows = term.raw_rows(x)
        nb = len(term.knots) - sp.DEGREE - 1
        for col, i in enumerate(range(1, nb - 1)):  # retained columns
            oracle = np.array([naive_bspline(xx, sp.DEGREE, i, term.knots) for xx in x])
            assert np.max(np.abs(rows[:, col] - oracle)) < 1e-12

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


class TestEvaluate:
    """u(x) = rows(x) @ xi, as the diagnostics evaluate a term."""

    def test_zero_coefficients(self, values):
        term = sp.build_basis(values, K=5)
        assert term.rows(values[0]) @ np.zeros(5) == 0.0

    def test_unit_vector_picks_first_column(self, values):
        term = sp.build_basis(values, K=5)
        xi = np.zeros(5)
        xi[0] = 1.0
        got = term.rows(values[3]) @ xi
        assert got == pytest.approx(term.rows(values[3])[0, 0], abs=1e-15)

    def test_matches_design_rows(self, values):
        term = sp.build_basis(values, K=6)
        rng = np.random.default_rng(3)
        xi = rng.normal(size=6)
        got = term.rows(values) @ xi
        assert np.max(np.abs(got - term.design @ xi)) < 1e-12

    def test_clamps_with_warning(self, values):
        term = sp.build_basis(values, K=5)
        with pytest.warns(UserWarning, match="clamping"):
            lo = term.rows(term.xmin - 5.0) @ np.ones(5)
        assert lo == pytest.approx(term.rows(term.xmin) @ np.ones(5))
