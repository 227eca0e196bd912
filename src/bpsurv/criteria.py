"""Model comparison criteria and Bayes-factor tests computed from MCMC output.

Everything operates on the (draws x observations) matrix of per-observation
log-likelihoods, in log space throughout.  The CPO importance weights are
truncated at sqrt(L) times their mean to tame infinite-variance cases before
summing, and DIC's plug-in deviance uses the total log-likelihood evaluated at
the posterior-mean parameters stored with the archive.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.special import logsumexp

from .baseline import alpha_log_prior_at_zero


def dic(archive):
    """(DIC, p_D): -2 log L(at posterior mean) + 2 p_D with
    p_D = 2 [log L(at mean) - mean log L]."""
    ll_hat = archive.loglik_at_mean
    mean_ll = float(archive.loglik_total.mean())
    p_d = 2.0 * (ll_hat - mean_ll)
    return -2.0 * ll_hat + 2.0 * p_d, p_d


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


def pseudo_bayes_factor(lpml_1, lpml_2):
    """PBF of model 1 over model 2 = exp(LPML_1 - LPML_2)."""
    return float(np.exp(lpml_1 - lpml_2))


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


def log_bf_parametric(archive):
    """Log Savage-Dickey Bayes factor of the Bernstein baseline against its
    parametric center: log p(z=0 | alpha_hat) - log N(0; posterior mean, cov of z)."""
    z = archive.draws["z"]
    alpha_hat = float(archive.draws["alpha"].mean())
    log_num = alpha_log_prior_at_zero(alpha_hat, archive.J)
    log_den = _mvn_logpdf_at_zero(z.mean(axis=0), np.cov(z.T))
    return float(log_num - log_den)


def log_bf_linearity(archive, name):
    """Log Savage-Dickey Bayes factor for dropping the spline term of a
    covariate: log prior density minus log posterior density at xi=0."""
    key = f"xi_{name}"
    if key not in archive.draws:
        raise ValueError(f"no spline term for covariate {name!r}")
    xi = archive.draws[key]
    term = {t.name: t for t in (archive.spline_terms or [])}.get(name)
    if term is None:
        raise ValueError("archive does not carry spline term metadata")
    log_num = _mvn_logpdf_at_zero(np.zeros(term.K), term.prior_cov)
    log_den = _mvn_logpdf_at_zero(xi.mean(axis=0), np.cov(xi.T))
    return float(log_num - log_den)


def ess(series):
    """Effective sample size via the initial monotone positive sequence.

    ESS = L / (1 + 2 sum_k rho_k) with paired autocorrelations summed while
    the pair sums stay positive and nonincreasing; clamped to [1, L].
    """
    x = np.asarray(series, dtype=float)
    L = x.shape[0]
    if L < 10:
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
