"""Model comparison criteria and Bayes-factor tests computed from MCMC output.

Everything operates on the (draws x observations) matrix of per-observation
log-likelihoods, in log space throughout.  The CPO importance weights are
truncated at sqrt(L) times their mean to tame infinite-variance cases before
summing, and DIC's plug-in deviance uses the total log-likelihood stored with
the archive, evaluated at the posterior means of the baseline weights w (not
of their logits z, whose softmax lies far from the posterior's centre), theta,
the effective coefficients and the frailties; p_V, the variance of the total
log-likelihood, is reported beside its p_D.
"""

from __future__ import annotations

import warnings

import numpy as np

from ._deferred import deferred
from .baseline import alpha_log_prior_at_zero

logsumexp = deferred("scipy.special", "logsumexp", globals())

# A Savage-Dickey factor needs at least this many effective draws per
# dimension in every column of the draws it fits a Gaussian to.
_MIN_ESS_PER_DIM = 10
ESS_MIN_DRAWS = 10  # the shortest series ess() estimates from


def dic(archive):
    """(DIC, p_D): -2 log L(at posterior mean) + 2 p_D with
    p_D = 2 [log L(at mean) - mean log L]."""
    ll_hat = archive.loglik_at_mean
    mean_ll = float(archive.loglik_total.mean())
    p_d = 2.0 * (ll_hat - mean_ll)
    return -2.0 * ll_hat + 2.0 * p_d, p_d


def p_v(loglik_total):
    """Variance-based effective number of parameters, p_V = 2 var(log L) over
    the draws (Gelman et al., BDA3, sec. 7.2).  Unlike DIC's plug-in p_D it
    needs no point estimate and cannot be negative."""
    return float(2.0 * np.var(loglik_total, ddof=1))


def cpo(loglik_matrix):
    """Per-observation conditional predictive ordinates (log scale).

    Harmonic-mean importance sampling with the weight truncation
    w_il <- min(w_il, sqrt(L) mean_l w_il); returns log CPO_i.
    """
    ll = np.asarray(loglik_matrix, dtype=float)
    if ll.ndim != 2 or ll.shape[0] < 2:
        raise ValueError("need an (L, n) matrix with L >= 2 draws")
    L = ll.shape[0]
    logw = -ll  # w_il = 1 / L_i(D_i | Omega_l)
    logwbar = logsumexp(logw, axis=0) - np.log(L)
    cap = 0.5 * np.log(L) + logwbar
    logw_t = np.minimum(logw, cap[None, :])
    # CPO_i = sum_l L_il w~_il / sum_l w~_il
    num = logsumexp(ll + logw_t, axis=0)
    den = logsumexp(logw_t, axis=0)
    return num - den


def lpml(loglik_matrix):
    """(LPML, per-observation log CPO vector)."""
    logcpo = cpo(loglik_matrix)
    return float(logcpo.sum()), logcpo


def log_pseudo_bayes_factor(lpml_1, lpml_2):
    """log PBF of model 1 over model 2 = LPML_1 - LPML_2, finite where the
    factor itself would overflow (a gap above 709.8 nats)."""
    return float(lpml_1 - lpml_2)


def waic(loglik_matrix):
    """(WAIC, p_W): -2 sum_i log mean_l L_il + 2 p_W with p_W the summed
    per-observation variances of the log-likelihood over draws."""
    ll = np.asarray(loglik_matrix, dtype=float)
    if ll.ndim != 2 or ll.shape[0] < 2:
        raise ValueError("need an (L, n) matrix with L >= 2 draws")
    L = ll.shape[0]
    lppd = logsumexp(ll, axis=0) - np.log(L)
    p_w = float(ll.var(axis=0, ddof=1).sum())
    return float(-2.0 * lppd.sum() + 2.0 * p_w), p_w


def _mvn_logpdf_at_zero(mean, cov, ridge=1e-10):
    mean = np.atleast_1d(mean)
    cov = np.atleast_2d(cov)
    d = mean.shape[0]
    cov = cov + ridge * np.eye(d)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        warnings.warn("singular posterior covariance; adding larger ridge")
        chol = np.linalg.cholesky(cov + 1e-6 * np.eye(d))
    half = np.linalg.solve(chol, mean)
    logdet = 2.0 * np.log(np.diag(chol)).sum()
    return -0.5 * (d * np.log(2.0 * np.pi) + logdet + half @ half)


def _posterior_logpdf_at_zero(draws):
    """Log density at zero of the Gaussian fitted to (L, d) draws, or None
    when that Gaussian does not describe the posterior: when the centered
    draws have rank below d (their sample covariance is singular, and the
    density only reflects the ridge), or when the smallest per-column ESS is
    below _MIN_ESS_PER_DIM * d or the chain is too short to estimate it (the
    draws have not mixed, and their covariance is too thin to trust)."""
    draws = np.asarray(draws, dtype=float)
    mean = draws.mean(axis=0)
    d = draws.shape[1]
    if np.linalg.matrix_rank(draws - mean) < d:
        return None
    try:
        min_ess = min(ess(col) for col in draws.T)
    except ValueError:  # too short for an ESS estimate
        return None
    if min_ess < _MIN_ESS_PER_DIM * d:
        return None
    return _mvn_logpdf_at_zero(mean, np.cov(draws.T))


def log_bf_parametric(archive):
    """Log Savage-Dickey Bayes factor of the Bernstein baseline against its
    parametric center: log p(z=0 | alpha_hat) - log N(0; posterior mean, cov of z).
    None (unavailable) when the z draws span fewer than all dimensions or
    have not mixed (see _posterior_logpdf_at_zero)."""
    alpha_hat = float(archive.draws["alpha"].mean())
    log_num = alpha_log_prior_at_zero(alpha_hat, archive.J)
    log_den = _posterior_logpdf_at_zero(archive.draws["z"])
    return None if log_den is None else float(log_num - log_den)


def log_bf_linearity(archive, name):
    """Log Savage-Dickey Bayes factor for dropping the spline term of a
    covariate: log prior density minus log posterior density at xi=0.
    None (unavailable) when the xi draws span fewer than all dimensions or
    have not mixed (see _posterior_logpdf_at_zero)."""
    term = next((t for t in archive.spline_terms if t.name == name), None)
    if term is None:
        raise ValueError(f"no spline term for covariate {name!r}")
    log_num = _mvn_logpdf_at_zero(np.zeros(term.K), term.prior_cov)
    log_den = _posterior_logpdf_at_zero(archive.draws[f"xi_{name}"])
    return None if log_den is None else float(log_num - log_den)


def ess(series):
    """Effective sample size via the initial monotone positive sequence.

    ESS = L / (1 + 2 sum_k rho_k) with paired autocorrelations summed while
    the pair sums stay positive and nonincreasing; clamped to [1, L].
    """
    x = np.asarray(series, dtype=float)
    L = x.shape[0]
    if L < ESS_MIN_DRAWS:
        raise ValueError("series too short for an ESS estimate")
    var = x.var()
    if var == 0.0:
        warnings.warn("constant series; reporting ESS = length")
        return float(L)
    xc = x - x.mean()
    # autocovariances via FFT
    nfft = int(2 ** np.ceil(np.log2(2 * L)))
    f = np.fft.rfft(xc, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:L].real / L
    rho = acov / acov[0]
    # Geyer pair sums Gamma_k = rho_{2k} + rho_{2k+1}
    npairs = L // 2
    gam = rho[0:2 * npairs:2] + rho[1:2 * npairs:2]
    positive = gam > 0
    k_stop = int(np.argmin(positive)) if not positive.all() else npairs
    gam = gam[:k_stop]
    # enforce monotone nonincreasing
    gam = np.minimum.accumulate(gam) if gam.size else gam
    iat = -1.0 + 2.0 * gam.sum()  # = 1 + 2 sum_{k>=1} rho_k
    if iat <= 0:
        return float(L)
    return float(np.clip(L / iat, 1.0, L))
