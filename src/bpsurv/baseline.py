"""Bernstein-polynomial baseline machinery.

The baseline survival function is a Bernstein-polynomial distortion of a
parametric survival curve: S0(t) = D(S_theta(t) | J, w) where D is a mixture
of Beta(j, J-j+1) distribution functions with simplex weights w, and S_theta
is one of three two-parameter centering families (log-logistic, log-normal,
Weibull) parameterized on R^2.  Equal weights w_j = 1/J recover S_theta
exactly.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import gammaln, ndtr

FAMILIES = ("loglogistic", "lognormal", "weibull")

# Transform values are clamped away from {0,1} before entering the Bernstein
# basis; avoids log(0) at extreme times.
_CLAMP = 1e-15
_LOG2PI = float(np.log(2.0 * np.pi))


def _check_family(family):
    if family not in FAMILIES:
        raise ValueError(f"unknown centering family {family!r}; expected one of {FAMILIES}")


def family_survival(family, theta, t):
    """Survival function S_theta(t) of a centering family, vectorized in t.

    theta = (theta1, theta2) lives on R^2: exp(theta1) is a rate and
    exp(theta2) a shape for the log-logistic/Weibull; for the log-normal,
    S(t) = 1 - Phi((log t + theta1) * exp(theta2)).
    """
    _check_family(family)
    t = np.asarray(t, dtype=float)
    th1, th2 = float(theta[0]), float(theta[1])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        logt = np.log(t)
        if family == "loglogistic":
            # S = 1 / (1 + (e^th1 t)^k), k = e^th2
            loggy = np.exp(th2) * (th1 + logt)
            s = 1.0 / (1.0 + np.exp(loggy))
        elif family == "lognormal":
            z = (logt + th1) * np.exp(th2)
            s = ndtr(-z)
        else:  # weibull
            loggy = np.exp(th2) * (th1 + logt)
            s = np.exp(-np.exp(loggy))
    s = np.where(t <= 0.0, 1.0, s)
    s = np.where(np.isposinf(t), 0.0, s)
    return s


def family_log_density(family, theta, t):
    """log f_theta(t) of a centering family; -inf where t <= 0."""
    _check_family(family)
    t = np.asarray(t, dtype=float)
    th1, th2 = float(theta[0]), float(theta[1])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        logt = np.log(t)
        if family == "loglogistic":
            # f = (k/t) y / (1+y)^2 with y = (e^th1 t)^k
            logy = np.exp(th2) * (th1 + logt)
            out = th2 - logt + logy - 2.0 * np.logaddexp(0.0, logy)
        elif family == "lognormal":
            z = (logt + th1) * np.exp(th2)
            out = -0.5 * z * z - 0.5 * _LOG2PI + th2 - logt
        else:  # weibull
            logy = np.exp(th2) * (th1 + logt)
            out = th2 - logt + logy - np.exp(logy)
    return np.where((t <= 0.0) | ~np.isfinite(t), -np.inf, out)


# ---------------------------------------------------------------------------
# Bernstein polynomial basis
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _comb_row(ntrials):
    k = np.arange(ntrials + 1)
    logc = gammaln(ntrials + 1) - gammaln(k + 1) - gammaln(ntrials - k + 1)
    return np.exp(logc)


def bernstein_bases(x, J, exact=()):
    """The Bernstein cdf and pdf rows at x, from one table of powers.

    Returns (cdf, pdf): cdf has rows j = 1..J of Delta_{j,J}(x), shape
    (J, len(x)); pdf has rows j = 1..J of delta_{j,J} at the points
    x[exact], shape (J, len(exact)).  Both are C-ordered.

    With y = 1 - x, the powers x^k and y^k come from one row-major
    recurrence.  The cdf is the binomial tail Delta_{j,J}(x) = P(Bin(J,x) >= j)
    = 1 - sum_{k<j} C(J,k) x^k y^(J-k), its partial sums taken row by row;
    the pdf is delta_{j,J}(x) = J C(J-1,k) x^k y^(J-1-k) with k = j - 1.
    Every product is formed in that order, so each entry is fixed by x and J
    alone.  This is the innermost kernel of every likelihood evaluation.
    """
    x = np.asarray(x, dtype=float)
    exact = np.asarray(exact, dtype=np.intp)
    N = x.shape[0]
    # row k holds x^k in its first N columns and y^k in its last N
    powers = np.empty((J + 1, 2 * N))
    powers[0] = 1.0
    base = np.concatenate([x, 1.0 - x])
    for k in range(1, J + 1):
        np.multiply(powers[k - 1], base, out=powers[k])

    cdf = np.empty((J, N))
    np.multiply(powers[:J, :N], powers[J:0:-1, N:], out=cdf)
    cdf *= _comb_row(J)[:J, None]
    for k in range(1, J):
        cdf[k] += cdf[k - 1]
    np.subtract(1.0, cdf, out=cdf)
    np.clip(cdf, 0.0, 1.0, out=cdf)

    ne = exact.shape[0]
    picked = np.take(powers[:J], np.concatenate([exact, N + exact]), axis=1)
    pdf = np.empty((J, ne))
    np.multiply(picked[:, :ne], picked[::-1, ne:], out=pdf)
    pdf *= _comb_row(J - 1)[:, None]
    pdf *= J
    return cdf, pdf


# ---------------------------------------------------------------------------
# Simplex weights and their priors
# ---------------------------------------------------------------------------

def weights_from_logits(z):
    """Softmax with the last logit pinned at zero, w_j = e^{z_j} / sum_k e^{z_k},
    over the last axis: a stack of logit vectors gives a stack of weights."""
    z = np.asarray(z, dtype=float)
    zfull = np.concatenate([z, np.zeros(z.shape[:-1] + (1,))], axis=-1)
    zfull -= zfull.max(axis=-1, keepdims=True)
    ez = np.exp(zfull)
    return ez / ez.sum(axis=-1, keepdims=True)


def dirichlet_symmetric_logpdf(w, alpha):
    """log Dirichlet(alpha, ..., alpha) density of a simplex vector w."""
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    w = np.asarray(w, dtype=float)
    J = w.shape[0]
    return float(gammaln(alpha * J) - J * gammaln(alpha) + (alpha - 1.0) * np.log(w).sum())


def alpha_log_prior_at_zero(alpha, J):
    """log p(z = 0 | alpha) = log Gamma(alpha J) - J (alpha log J + log Gamma(alpha))."""
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    return float(gammaln(alpha * J) - J * (alpha * np.log(J) + gammaln(alpha)))
