"""AFT, PH, and PO survival models and the arbitrary-censoring likelihood.

With linear predictor eta = x'(gamma*beta) + sum_l u_l(x_l) + v_i and baseline
survival S0, the three models are

    aft:  S_x(t) = S0(e^eta t)
    ph:   S_x(t) = S0(t)^(e^eta)
    po:   S_x(t) = e^-eta S0(t) / (1 + (e^-eta - 1) S0(t))

An observation (u, a, b) contributes f_x(a) when a == b and
S_x(a) - S_x(b) otherwise, divided by S_x(u) when left-truncated.

S0 and f0 are read in the Bernstein form of bpsurv.baseline: monomials of
x = S_theta(t) that depend on theta (and, under AFT, on eta), and
coefficients that depend on the weights w alone.
"""

from __future__ import annotations

import numpy as np

from .baseline import (_CLAMP, bernstein_coefficients, bernstein_monomials, bernstein_survival,
                       family_log_density, family_survival)

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
    vector, and eta[_scale_idx] lines eta up with it.  The Bernstein monomials
    depend on theta and, for the AFT model only, on eta through the time
    rescaling; build_cache makes them for one (theta, eta), and cache_for_eta
    turns a cache into one valid at another eta.

    A cache holds mono, the monomials x^k (1-x)^(J-k), k = 1..J, at every
    point, shape (J, all points), and mono_exact, the monomials
    x^k (1-x)^(J-1-k), k = 0..J-1, at the exact points, shape (J, exact
    points), both C-ordered and from one power table
    (baseline.bernstein_monomials).  Column c of either belongs to one
    observation and depends on nothing else.  The layout is part of the
    result: cs @ mono sums over k in an order that BLAS picks from the
    memory layout, so an F-ordered cache would give the same S0 to within
    rounding only and change every draw.  The weights enter through their
    coefficients coef = (cs, cp) = baseline.bernstein_coefficients(w), which
    the caller forms once per weight vector and passes in (ChainState.coef).
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
        if model != "aft":  # the points never move: take their logs once
            with np.errstate(divide="ignore"):
                self._logpts = np.log(self._pts)

    def build_cache(self, theta, eta):
        """Precompute the monomials and centering-density terms at (theta, eta)."""
        if self.model == "aft":
            pts = model_time(self.model, self._pts, eta[self._scale_idx])
            with np.errstate(divide="ignore"):
                logpts = np.log(pts)
        else:
            pts, logpts = self._pts, self._logpts
        x = family_survival(self.family, theta, pts, logpts)
        np.clip(x, _CLAMP, 1.0 - _CLAMP, out=x)
        ex = self.idx_exact
        mono, mono_exact = bernstein_monomials(x, self.J, ex)
        logf = family_log_density(self.family, theta, pts[ex], logpts[ex])
        return {"mono": mono, "mono_exact": mono_exact, "logf_exact": logf,
                "theta": np.array(theta, dtype=float)}

    def cache_for_eta(self, cache, eta):
        """A cache valid at eta: rebuilt for AFT, the same cache for PH/PO."""
        if self.model == "aft":
            return self.build_cache(cache["theta"], eta)
        return cache

    def merge_caches(self, obs, new, old):
        """A cache valid at an eta that takes the new value for the
        observations in the mask obs and the old one elsewhere: new with the
        other columns copied from old, in place.  For PH/PO, old itself."""
        if self.model != "aft":
            return old
        keep = ~obs
        np.copyto(new["mono"], old["mono"], where=keep[self._scale_idx])
        keep = keep[self.idx_exact]
        np.copyto(new["mono_exact"], old["mono_exact"], where=keep)
        np.copyto(new["logf_exact"], old["logf_exact"], where=keep)
        return new

    def loglik_obs(self, cache, coef, eta):
        """Per-observation log-likelihood vector given a cache for (theta, eta)
        and the weights' coefficients coef = bernstein_coefficients(w)."""
        n = self.n
        cs, cp = coef
        S, head, tail = survival_transform(self.model, bernstein_survival(cs, cache["mono"]),
                                           eta[self._scale_idx])
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
            d0 = cp @ cache["mono_exact"]
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
        cs = bernstein_coefficients(w)[0]
        s0 = bernstein_survival(cs, self.build_cache(theta, eta)["mono"])
        S = survival_transform(self.model, s0, eta[self._scale_idx])[0]
        Sa = np.where(self.a <= 0.0, 1.0, S[:n])
        Sb = np.zeros(n)
        Sb[self.idx_bfin] = S[n:n + self._nb]
        Sb[self.idx_exact] = Sa[self.idx_exact]
        Su = np.ones(n)
        Su[self.idx_trunc] = S[n + self._nb:]
        return Sa, Sb, Su
