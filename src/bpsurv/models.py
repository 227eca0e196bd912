"""AFT, PH, and PO survival models and the arbitrary-censoring likelihood.

With linear predictor eta = x'(gamma*beta) + sum_l u_l(x_l) + v_i and baseline
survival S0, the three models are

    aft:  S_x(t) = S0(e^eta t)
    ph:   S_x(t) = S0(t)^(e^eta)
    po:   S_x(t) = e^-eta S0(t) / (1 + (e^-eta - 1) S0(t))

An observation (u, a, b) contributes f_x(a) when a == b and
S_x(a) - S_x(b) otherwise, divided by S_x(u) when left-truncated.
"""

from __future__ import annotations

import numpy as np

from .baseline import (
    bernstein_cdf_rows,
    bernstein_pdf_rows,
    family_log_density,
    family_survival,
    _CLAMP,
)

MODELS = ("aft", "ph", "po")

_FLOOR = 1e-300


def _check_model(model):
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")


def linear_predictor(X, designs, coef, v=None, loc0=None):
    """eta = X coef[:p] + D_1 coef_1 + D_2 coef_2 + ... (+ v[loc0]).

    The spline design matrices D_l take the coefficient blocks that follow the
    p linear ones, and the terms are added in that order.  v is the frailty
    vector and loc0 the 0-based site of each observation.
    """
    p = X.shape[1]
    eta = X @ coef[:p]
    for D in designs:
        k = D.shape[1]
        eta = eta + D @ coef[p:p + k]
        p += k
    if v is not None:
        eta = eta + v[loc0]
    return eta


def model_time(model, t, eta):
    """The time at which the baseline is read: e^eta t under AFT, t otherwise."""
    return np.exp(eta) * t if model == "aft" else t


def survival_transform(model, s0, eta):
    """S_x from the baseline survival s0 = S0(model_time(t)), elementwise.

    Returns (S_x, head, tail) with log f_x = head + log f0 + tail, f0 being
    the baseline density at the same point as s0.  Splitting the density
    offset in two keeps the summation order of the log density fixed.
    """
    if model == "aft":
        return s0, eta, np.zeros_like(s0)
    if model == "ph":
        ee = np.exp(eta)
        log_s0 = np.log(np.maximum(s0, _FLOOR))
        return np.exp(ee * log_s0), eta + (ee - 1.0) * log_s0, np.zeros_like(s0)
    r = np.exp(-eta)
    den = (1.0 - s0) + r * s0
    return r * s0 / den, -eta, -2.0 * np.log(den)


class LikelihoodEvaluator:
    """Vectorized per-observation log-likelihood for one dataset and model.

    The a, finite-b and u time points of all observations are stacked into one
    vector, and eta[_scale_idx] lines eta up with it.  The Bernstein basis
    matrices depend on theta and, for the AFT model only, on eta through the
    time rescaling; build_cache makes them for one (theta, eta), and
    cache_for_eta turns a cache into one valid at another eta.
    """

    def __init__(self, dataset, model, family, J):
        _check_model(model)
        self.model = model
        self.family = family
        self.J = int(J)
        self.n = dataset.n
        self.a = dataset.a.copy()
        self.b = dataset.b.copy()
        self.u = dataset.u.copy()
        self.loc0 = dataset.loc - 1  # 0-based site index per observation
        self.m = dataset.m

        self.idx_exact = np.flatnonzero(self.a == self.b)
        self.idx_cens = np.flatnonzero(self.a < self.b)
        self.idx_bfin = self.idx_cens[np.isfinite(self.b[self.idx_cens])]
        self.idx_trunc = np.flatnonzero(self.u > 0.0)
        # positions of the b and u sections inside the stacked point vector
        self._nb = self.idx_bfin.size
        self._pts = np.concatenate([self.a, self.b[self.idx_bfin], self.u[self.idx_trunc]])
        self._scale_idx = np.concatenate([np.arange(self.n), self.idx_bfin, self.idx_trunc])

    def build_cache(self, theta, eta):
        """Precompute basis matrices and centering-density terms at (theta, eta)."""
        pts = model_time(self.model, self._pts, eta[self._scale_idx])
        x = family_survival(self.family, theta, pts)
        np.clip(x, _CLAMP, 1.0 - _CLAMP, out=x)
        cdfb = bernstein_cdf_rows(x, self.J)
        xa_exact = x[self.idx_exact]
        pdfb = bernstein_pdf_rows(xa_exact, self.J)
        t_exact = pts[self.idx_exact]
        logf = family_log_density(self.family, theta, t_exact)
        return {"cdfb": cdfb, "pdfb": pdfb, "logf_exact": logf,
                "theta": np.array(theta, dtype=float)}

    def cache_for_eta(self, cache, eta):
        """A cache valid at eta: rebuilt for AFT, the same cache for PH/PO."""
        if self.model == "aft":
            return self.build_cache(cache["theta"], eta)
        return cache

    def loglik_obs(self, cache, w, eta):
        """Per-observation log-likelihood vector given a cache for (theta, eta)."""
        n = self.n
        S, head, tail = survival_transform(self.model, w @ cache["cdfb"], eta[self._scale_idx])
        ll = np.zeros(n)
        if self.idx_cens.size:
            sb_full = np.zeros(n)
            sb_full[self.idx_bfin] = S[n:n + self._nb]
            mass = S[self.idx_cens] - sb_full[self.idx_cens]
            with np.errstate(divide="ignore"):
                llc = np.log(np.maximum(mass, _FLOOR))
            llc[mass <= 0.0] = -np.inf
            ll[self.idx_cens] = llc
        ex = self.idx_exact
        if ex.size:
            d0 = w @ cache["pdfb"]
            ll[ex] = head[ex] + np.log(np.maximum(d0, _FLOOR)) + cache["logf_exact"] + tail[ex]
        if self.idx_trunc.size:
            ll[self.idx_trunc] -= np.log(np.maximum(S[n + self._nb:], _FLOOR))
        return ll

    def site_sums(self, ll_obs):
        """Sum a per-observation vector within each site (for frailty updates)."""
        return np.bincount(self.loc0, weights=ll_obs, minlength=self.m)

    def survival_probs(self, theta, w, eta):
        """(S_x(a), S_x(b), S_x(u)) per observation; S_x(inf)=0, S_x(0)=1.

        Used by Cox-Snell residuals.
        """
        n = self.n
        cache = self.build_cache(theta, eta)
        S = survival_transform(self.model, w @ cache["cdfb"], eta[self._scale_idx])[0]
        Sa = np.where(self.a <= 0.0, 1.0, S[:n])
        Sb = np.zeros(n)
        Sb[self.idx_bfin] = S[n:n + self._nb]
        Sb[self.idx_exact] = Sa[self.idx_exact]
        Su = np.ones(n)
        Su[self.idx_trunc] = S[n + self._nb:]
        return Sa, Sb, Su
