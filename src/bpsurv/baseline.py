"""Bernstein-polynomial baseline machinery.

The baseline survival function is a Bernstein-polynomial distortion of a
parametric survival curve: S0(t) = D(S_theta(t) | J, w) where D is a mixture
of Beta(j, J-j+1) distribution functions with simplex weights w, and S_theta
is one of three two-parameter centering families (log-logistic, log-normal,
Weibull) parameterized on R^2.  Equal weights w_j = 1/J recover S_theta
exactly.

The mixture is evaluated in the Bernstein form.  With x = S_theta(t),
y = 1 - x and W_k = w_1 + ... + w_k,

    D(x | J, w)             = sum_{k=1..J}   C(J,k) W_k       x^k y^(J-k)
    f0(t) / f_theta(t)      = sum_{k=0..J-1} J C(J-1,k) w_{k+1} x^k y^(J-1-k)

(swap the sums in sum_j w_j P(Bin(J, x) >= j)).  Every term is nonnegative,
so both sums keep full relative accuracy down to x = 1e-15, where the
complement 1 - sum of pmf terms loses digits.  The monomials depend on x
alone (bernstein_monomials) and the coefficients on w alone
(bernstein_coefficients).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ._deferred import deferred

gammaln = deferred("scipy.special", "gammaln", globals())
ndtr = deferred("scipy.special", "ndtr", globals())

FAMILIES = ("loglogistic", "lognormal", "weibull")

# Transform values are clamped away from {0,1} before entering the Bernstein
# basis; avoids log(0) at extreme times.
_CLAMP = 1e-15
_LOG2PI = float(np.log(2.0 * np.pi))


def _check_family(family):
    if family not in FAMILIES:
        raise ValueError(f"unknown centering family {family!r}; expected one of {FAMILIES}")


def family_survival(family, theta, t, logt=None):
    """Survival function S_theta(t) of a centering family, vectorized in t.

    theta = (theta1, theta2) lives on R^2: exp(theta1) is a rate and
    exp(theta2) a shape for the log-logistic/Weibull; for the log-normal,
    S(t) = 1 - Phi((log t + theta1) * exp(theta2)).  The family reads t
    through log t alone; a caller that evaluates it at fixed times many
    times passes logt = np.log(t) once.
    """
    _check_family(family)
    t = np.asarray(t, dtype=float)
    th1, th2 = float(theta[0]), float(theta[1])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        logt = np.log(t) if logt is None else logt
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


def family_log_density(family, theta, t, logt=None):
    """log f_theta(t) of a centering family; -inf where t <= 0.  logt is
    np.log(t) when the caller has it (see family_survival)."""
    _check_family(family)
    t = np.asarray(t, dtype=float)
    th1, th2 = float(theta[0]), float(theta[1])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        logt = np.log(t) if logt is None else logt
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


def bernstein_monomials(x, J, exact=()):
    """The Bernstein monomials at x, from one table of powers.

    Returns (M, Mp): M has rows k = 1..J of x^k (1-x)^(J-k), shape
    (J, len(x)); Mp has rows k = 0..J-1 of x^k (1-x)^(J-1-k) at the points
    x[exact], shape (J, len(exact)).  Both are C-ordered.

    With y = 1 - x, the powers x^k and y^k come from one row-major
    recurrence, and each monomial is one product of two of them, so every
    entry is fixed by x and J alone.  This is the innermost kernel of every
    likelihood evaluation.
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
    M = powers[1:, :N] * powers[J - 1::-1, N:]
    ne = exact.shape[0]
    picked = np.take(powers[:J], np.concatenate([exact, N + exact]), axis=1)
    return M, picked[:, :ne] * picked[::-1, ne:]


def bernstein_coefficients(w):
    """(cs, cp): the coefficients of the monomials for weights w.

    cs_k = C(J,k) (w_1 + ... + w_k) for k = 1..J and
    cp_k = J C(J-1,k) w_{k+1} for k = 0..J-1, so that with (M, Mp) from
    bernstein_monomials, S0 = bernstein_survival(cs, M) and
    f0 / f_theta = cp @ Mp.
    """
    w = np.asarray(w, dtype=float)
    J = w.shape[0]
    return np.cumsum(w) * _comb_row(J)[1:], w * (J * _comb_row(J - 1))


def bernstein_survival(cs, M):
    """D(x | J, w) = cs @ M; a rounding above 1 near x = 1 is cut to 1."""
    return np.minimum(cs @ M, 1.0)


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
