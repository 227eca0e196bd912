"""Scalar reference for the survival models, used as a test oracle.

The closed forms in surv, dens, obs_loglik and linear_predictor are written
out per model and share no code with bpsurv.models.survival_transform, the
vectorized kernel they check:

    aft:  S_x(t) = S0(e^eta t)
    ph:   S_x(t) = S0(t)^(e^eta)
    po:   S_x(t) = e^-eta S0(t) / (1 + (e^-eta - 1) S0(t))
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from bpsurv.models import MODELS, LikelihoodEvaluator

_FLOOR = 1e-300


def _check_model(model):
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")


@dataclass
class RegressionState:
    """Regression parameters entering the linear predictor.

    gamma defaults to all-ones (no selection); xi is an optional list of
    per-term spline coefficient vectors; v is the frailty vector (length m).
    """

    beta: np.ndarray
    gamma: np.ndarray = None
    xi: list = None
    v: np.ndarray = None

    def effective_beta(self):
        b = np.asarray(self.beta, dtype=float)
        if self.gamma is None:
            return b
        return b * np.asarray(self.gamma, dtype=float)


def linear_predictor(dataset, state, spline_terms=None):
    """eta_i = x_i'(gamma*beta) + sum_l u_l(x_il) + v_{loc(i)}."""
    eta = dataset.X @ state.effective_beta()
    if spline_terms:
        for term, xi in zip(spline_terms, state.xi or []):
            eta = eta + term.design @ np.asarray(xi, dtype=float)
    if state.v is not None:
        eta = eta + np.asarray(state.v, dtype=float)[dataset.loc - 1]
    return eta


def surv(model, t, eta, baseline):
    """S_x(t) for one linear-predictor value; vectorized over t."""
    _check_model(model)
    t = np.asarray(t, dtype=float)
    if model == "aft":
        return baseline.survival(np.exp(eta) * t)
    if model == "ph":
        s0 = np.maximum(baseline.survival(t), _FLOOR)
        return np.exp(np.exp(eta) * np.log(s0))
    s0 = baseline.survival(t)
    r = np.exp(-eta)
    return r * s0 / ((1.0 - s0) + r * s0)


def dens(model, t, eta, baseline):
    """f_x(t) = -dS_x/dt; vectorized over t."""
    _check_model(model)
    t = np.asarray(t, dtype=float)
    if model == "aft":
        return np.exp(eta) * baseline.density(np.exp(eta) * t)
    if model == "ph":
        s0 = np.maximum(baseline.survival(t), _FLOOR)
        ee = np.exp(eta)
        return ee * np.exp((ee - 1.0) * np.log(s0)) * baseline.density(t)
    s0 = baseline.survival(t)
    r = np.exp(-eta)
    return r * baseline.density(t) / ((1.0 - s0) + r * s0) ** 2


def obs_loglik(model, obs, eta, baseline):
    """Log-likelihood of one observation at a given linear predictor.

    Returns -inf (rather than raising) when the observation interval carries
    no probability mass under the current parameters.
    """
    if obs.a == obs.b:
        f = dens(model, obs.a, eta, baseline)
        ll = math.log(max(f, _FLOOR)) if f > 0.0 else -math.inf
    else:
        sa = surv(model, obs.a, eta, baseline) if obs.a > 0 else 1.0
        sb = surv(model, obs.b, eta, baseline) if math.isfinite(obs.b) else 0.0
        mass = sa - sb
        ll = math.log(max(mass, _FLOOR)) if mass > 0.0 else -math.inf
    if obs.u > 0.0:
        su = surv(model, obs.u, eta, baseline)
        ll -= math.log(max(su, _FLOOR))
    return ll


def total_loglik(model, dataset, state, baseline, spline_terms=None):
    """Sum of per-observation log-likelihoods plus the per-observation vector,
    from the vectorized evaluator at the state's linear predictor.

    A thin driver of the kernel, not part of the independent reference:
    comparing it with LikelihoodEvaluator.loglik_obs checks cache handling,
    not the closed forms.
    """
    if dataset.n == 0:
        return 0.0, np.zeros(0)
    ev = LikelihoodEvaluator(dataset, model, baseline.family.name, baseline.J)
    eta = linear_predictor(dataset, state, spline_terms)
    cache = ev.build_cache(np.asarray(baseline.family.theta, dtype=float), eta)
    ll = ev.loglik_obs(cache, baseline.w, eta)
    return float(ll.sum()), ll
