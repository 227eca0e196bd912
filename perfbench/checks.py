"""Correctness checks and the ESS estimator, computed apart from bpsurv.

Each check reads a fit's output files (draws.csv, loglik.npy, meta.json,
coxsnell.csv) and recomputes what it can with code of its own: the
likelihood from scipy.stats.beta and the written-out log-logistic centering,
LPML from the truncated harmonic-mean CPO, ESS from Geyer's initial monotone
sequence.  A check returns (passed, detail); nothing here imports bpsurv.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
from scipy.stats import beta as beta_dist

# |recomputed - stored| <= LOGLIK_RTOL * max(1, |stored|) per observation
LOGLIK_RTOL = 1e-9
LPML_RTOL = 1e-9
CUMHAZ_TOL = 1e-12


class FitOutput:
    """The files of one fit directory, parsed once."""

    def __init__(self, fit_dir):
        fit_dir = Path(fit_dir)
        with open(fit_dir / "draws.csv") as fh:
            self.names = fh.readline().strip().split(",")
            self.draws = np.loadtxt(fh, delimiter=",", ndmin=2)
        self.loglik = np.load(fit_dir / "loglik.npy")
        self.meta = json.loads((fit_dir / "meta.json").read_text())
        self.digest = hashlib.sha256((fit_dir / "draws.csv").read_bytes()).hexdigest()

    def column(self, name):
        return self.draws[:, self.names.index(name)]

    def block(self, prefix):
        cols = [i for i, nm in enumerate(self.names) if nm.startswith(prefix + ".")]
        return self.draws[:, cols]

    @property
    def L(self):
        return self.draws.shape[0]


# ---------------------------------------------------------------------------
# Likelihood
# ---------------------------------------------------------------------------

def loglogistic(theta, t):
    """(S_theta(t), log f_theta(t)) of S = 1 / (1 + (e^theta1 t)^k), k = e^theta2."""
    k = np.exp(theta[1])
    logy = k * (theta[0] + np.log(t))
    surv = 1.0 / (1.0 + np.exp(logy))
    logf = np.log(k) - np.log(t) + logy - 2.0 * np.logaddexp(0.0, logy)
    return surv, logf


def baseline(theta, w, t):
    """(S0(t), log f0(t)) of the Bernstein distortion of the log-logistic:
    S0 = sum_j w_j Beta(j, J-j+1).cdf(S_theta) and
    f0 = sum_j w_j Beta(j, J-j+1).pdf(S_theta) f_theta."""
    J = w.shape[0]
    j = np.arange(1, J + 1)[:, None]
    x, logf_theta = loglogistic(theta, t)
    s0 = w @ beta_dist.cdf(x[None, :], j, J - j + 1)
    d0 = w @ beta_dist.pdf(x[None, :], j, J - j + 1)
    return s0, np.log(d0) + logf_theta


def model_terms(model, eta, theta, w, t):
    """(S_x(t), log f_x(t)) under the AFT, PH or PO transform of the baseline."""
    if model == "aft":
        s0, logf0 = baseline(theta, w, np.exp(eta) * t)
        return s0, eta + logf0
    s0, logf0 = baseline(theta, w, t)
    if model == "ph":
        ee = np.exp(eta)
        return s0 ** ee, eta + (ee - 1.0) * np.log(s0) + logf0
    if model == "po":
        r = np.exp(-eta)
        den = 1.0 - s0 + r * s0
        return r * s0 / den, -eta + logf0 - 2.0 * np.log(den)
    raise ValueError(f"unknown model {model!r}")


def observation_loglik(design, fit, s):
    """Per-observation log-likelihood of retained draw s, from draws.csv alone:
    log f_x(a) when a == b, else log(S_x(a) - S_x(b)) with S_x(0) = 1, S_x(inf) = 0."""
    model = fit.meta["model"]
    z = fit.block("z")[s]
    w = np.exp(np.append(z, 0.0) - max(z.max(), 0.0))
    w /= w.sum()
    theta = fit.block("theta")[s]
    beta = np.array([fit.column(f"beta.{c}")[s] for c in fit.meta["covariate_names"]])
    eta = design.X @ beta + fit.block("v")[s][design.site]
    a, b = design.a, design.b
    exact = a == b
    ll = np.empty(design.n)
    ll[exact] = model_terms(model, eta[exact], theta, w, a[exact])[1]
    sa = np.ones(design.n)
    sb = np.zeros(design.n)
    pos = ~exact & (a > 0.0)
    fin = ~exact & np.isfinite(b)
    sa[pos] = model_terms(model, eta[pos], theta, w, a[pos])[0]
    sb[fin] = model_terms(model, eta[fin], theta, w, b[fin])[0]
    ll[~exact] = np.log(sa[~exact] - sb[~exact])
    return ll


def check_loglik(design, fit, draws):
    """Recompute every observation's log-likelihood at the given draws and
    compare with the loglik.npy rows."""
    if fit.meta["family"] != "loglogistic":
        return False, f"centering family {fit.meta['family']} is not checked"
    worst = 0.0
    for s in draws:
        mine = observation_loglik(design, fit, s)
        stored = fit.loglik[s]
        rel = np.abs(mine - stored) / np.maximum(1.0, np.abs(stored))
        worst = max(worst, float(np.max(rel)) if np.all(np.isfinite(rel)) else np.inf)
    return worst <= LOGLIK_RTOL, f"max relative error {worst:.3g} over draws {list(draws)}"


# ---------------------------------------------------------------------------
# Posterior summaries
# ---------------------------------------------------------------------------

def check_truth(fit, truth, max_sds):
    """Every beta posterior mean within max_sds posterior SDs of its true value."""
    worst = 0.0
    for name, true in zip(fit.meta["covariate_names"], truth):
        col = fit.column(f"beta.{name}")
        worst = max(worst, abs(col.mean() - true) / col.std(ddof=1))
    return worst <= max_sds, f"largest |mean - truth| / sd = {worst:.3f} (limit {max_sds})"


def _logsumexp(x, axis=0):
    top = x.max(axis=axis)
    return top + np.log(np.exp(x - np.expand_dims(top, axis)).sum(axis=axis))


def lpml(ll):
    """LPML from the truncated harmonic-mean CPO: importance weights 1/L_il
    capped at sqrt(L) times their mean."""
    L = ll.shape[0]
    logw = -ll
    cap = 0.5 * np.log(L) + _logsumexp(logw) - np.log(L)
    logw = np.minimum(logw, cap[None, :])
    return float((_logsumexp(ll + logw) - _logsumexp(logw)).sum())


def lppd(ll):
    """sum_i log mean_l L_il."""
    return float((_logsumexp(ll) - np.log(ll.shape[0])).sum())


def check_lpml(fit):
    mine = lpml(fit.loglik)
    stored = fit.meta["criteria"]["lpml"]
    ok = abs(mine - stored) <= LPML_RTOL * max(1.0, abs(stored))
    return ok, f"recomputed {mine:.10f}, meta.json {stored:.10f}"


def check_lppd(fit):
    bound = lppd(fit.loglik)
    stored = fit.meta["criteria"]["lpml"]
    return stored <= bound, f"LPML {stored:.6f} <= lppd {bound:.6f}"


# ---------------------------------------------------------------------------
# Cox-Snell residuals
# ---------------------------------------------------------------------------

def read_coxsnell(path):
    """{draw_id: (r, cumhaz)} from coxsnell.csv, rows in file order."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    out = {}
    for d in np.unique(data[:, 0]).astype(int):
        rows = data[data[:, 0] == d]
        out[d] = (rows[:, 1], rows[:, 2])
    return out


def check_coxsnell_monotone(traces):
    """The cumulative hazard never falls as r grows, in every draw's trace."""
    for d, (r, h) in traces.items():
        order = np.argsort(r, kind="stable")
        if np.any(np.diff(h[order]) < -CUMHAZ_TOL):
            return False, f"cumulative hazard falls in draw {d}"
    return True, f"{len(traces)} traces nondecreasing"


def check_coxsnell_slope(traces, tol):
    """Least-squares slope through the origin of cumhaz on r, within tol of 1."""
    r = np.concatenate([t[0] for t in traces.values()])
    h = np.concatenate([t[1] for t in traces.values()])
    keep = (r > 0) & np.isfinite(r) & np.isfinite(h)
    slope = float((r[keep] * h[keep]).sum() / (r[keep] ** 2).sum())
    return abs(slope - 1.0) <= tol, f"slope {slope:.4f} (limit 1 +- {tol})"


# ---------------------------------------------------------------------------
# Effective sample size
# ---------------------------------------------------------------------------

def ess(x):
    """Geyer's (1992) initial monotone sequence estimate of the ESS.

    With autocovariances g_k (divisor N) and pair sums G_k = g_2k + g_2k+1,
    keep the initial run of positive G_k, make it nonincreasing, and take
    ESS = N g_0 / (2 sum G_k - g_0).
    """
    x = np.asarray(x, dtype=float)
    N = x.shape[0]
    xc = x - x.mean()
    size = 1 << (2 * N - 1).bit_length()
    spec = np.fft.rfft(xc, size)
    acov = np.fft.irfft(spec * np.conj(spec), size)[:N] / N
    if acov[0] <= 0.0:
        return float(N)
    pairs = acov[0:N - 1:2] + acov[1:N:2]
    nonpos = np.flatnonzero(pairs <= 0.0)
    pairs = pairs[:nonpos[0]] if nonpos.size else pairs
    var = 2.0 * np.minimum.accumulate(pairs).sum() - acov[0]
    return float(N * acov[0] / var) if var > 0.0 else float(N)


def min_ess(fit):
    """Smallest ESS over the beta columns, tau2 and the total log-likelihood."""
    series = {f"beta.{c}": fit.column(f"beta.{c}") for c in fit.meta["covariate_names"]}
    series["tau2"] = fit.column("tau2")
    series["loglik_total"] = fit.loglik.sum(axis=1)
    values = {k: ess(v) for k, v in series.items()}
    return min(values.values()), values
