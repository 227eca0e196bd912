"""Cubic B-spline expansions for partially linear predictors.

A nonlinear term for covariate l is u_l(x) = sum_k xi_k B_k(x) built from a
standard cubic B-spline basis with interior knots at data quantiles.  The
first and last raw basis functions are dropped (the linear term is already in
the model) and the retained columns are mean-centered over the data, so the
term is identified against the baseline.  Coefficients get the normal prior
N_K(0, g n (X_l' X_l)^{-1}) with g = [log M / Phi^{-1}(q)]^2 / K, M=10, q=0.9.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEGREE = 3  # cubic
_G_BIG = 10.0  # M of the g-prior scale
_G_QUANTILE = 1.2815515655446004  # Phi^{-1}(q) at q = 0.9: scipy.special.ndtri(0.9), bit for bit


def gprior_scale(dim):
    """g = [log M / Phi^{-1}(q)]^2 / dim with M = 10 and q = 0.9."""
    return float((np.log(_G_BIG) / _G_QUANTILE) ** 2 / dim)


@dataclass
class SplineTerm:
    """Centered cubic B-spline design for one covariate.

    design has K columns (raw basis minus first/last, mean-centered); g is the
    prior scale; prior_cov = g n (X'X)^{-1}.
    """

    name: str
    K: int
    knots: np.ndarray          # full knot vector (boundary multiplicities included)
    design: np.ndarray = field(repr=False)
    g: float = 0.0
    prior_cov: np.ndarray = field(default=None, repr=False)


def build_basis(values, K=5, name="x"):
    """Construct a SplineTerm from observed covariate values.

    K retained columns come from a raw basis of K+2 cubic B-splines, i.e.
    K-2 interior knots at equispaced quantiles of the data.
    """
    values = np.asarray(values, dtype=float)
    if K < 2:
        raise ValueError(f"a cubic spline basis needs K >= 2, got K = {K}")
    distinct = np.unique(values)
    if distinct.size < K + 5:
        raise ValueError(f"need at least K+5={K + 5} distinct values, got {distinct.size}")
    xmin, xmax = float(distinct[0]), float(distinct[-1])
    n_interior = K + 2 - (DEGREE + 1)
    if n_interior:
        qs = np.linspace(0, 1, n_interior + 2)[1:-1]
        interior = np.quantile(values, qs)
        if np.unique(interior).size != interior.size or interior[0] <= xmin \
                or interior[-1] >= xmax:
            raise ValueError("data quantiles give degenerate interior knots")
    else:
        interior = np.zeros(0)
    knots = np.concatenate([[xmin] * (DEGREE + 1), interior, [xmax] * (DEGREE + 1)])
    from scipy.interpolate import BSpline  # costs a quarter second; only spline fits pay
    full = BSpline.design_matrix(values, knots, DEGREE, extrapolate=False).toarray()
    raw = full[:, 1:-1]
    design = raw - raw.mean(axis=0)
    g = gprior_scale(K)
    xtx = design.T @ design
    n = values.shape[0]
    prior_cov = g * n * np.linalg.inv(xtx + 1e-12 * np.eye(K))
    prior_cov = 0.5 * (prior_cov + prior_cov.T)
    return SplineTerm(name=name, K=K, knots=knots, design=design, g=g, prior_cov=prior_cov)


def build_terms(dataset, nonlinear, K):
    """A fit's spline terms: one deterministic build_basis term of K columns
    per covariate named in nonlinear, in that order."""
    return [build_basis(dataset.column(name), K, name) for name in nonlinear]
