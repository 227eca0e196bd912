"""Cox-Snell residual goodness-of-fit machinery.

r(t) = -log S_x(t) is standard exponential when the model is right, so the
residual pairs (r(a), r(b)) form an arbitrarily censored Exp(1) sample; a
Turnbull nonparametric estimate of their distribution should have a straight
unit-slope cumulative hazard.  Residuals are computed for several posterior
draws so the plot carries parameter uncertainty.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .models import LikelihoodEvaluator, linear_predictor


@dataclass
class ResidualSample:
    """Censored residual pairs for one posterior draw.

    lo/hi are r(a)/r(b) with hi = inf for right censoring and lo = hi for
    exact observations; trunc = r(u) (0 when untruncated).
    """

    draw: int
    lo: np.ndarray
    hi: np.ndarray
    trunc: np.ndarray

    def __post_init__(self):
        if np.any(self.lo > self.hi + 1e-12):
            raise ValueError("residual pairs need lo <= hi")


def _select_draws(L, ndraws):
    ndraws = min(ndraws, L)
    return np.unique(np.linspace(0, L - 1, ndraws).round().astype(int))


def coxsnell_residuals(archive, dataset, draws=10):
    """Residual samples for a thinned set of posterior draws.

    draws may be an int (that many evenly spaced retained draws) or an
    explicit index list.
    """
    idx = np.atleast_1d(draws) if not np.isscalar(draws) else _select_draws(archive.L, draws)
    ev = LikelihoodEvaluator(dataset, archive.model, archive.family, archive.J)
    W = archive.weights()
    terms = {t.name: t for t in archive.spline_terms or []}
    designs = [terms[name].design for name in archive.spline_names]
    coefs = np.concatenate([archive.effective_beta_draws(),
                            *(archive.draws[f"xi_{name}"] for name in archive.spline_names)],
                           axis=1)
    out = []
    for s in idx:
        s = int(s)
        v = archive.draws["v"][s] if "v" in archive.draws else None
        eta = linear_predictor(dataset.X, designs, coefs[s], v, ev.loc0)
        Sa, Sb, Su = ev.survival_probs(archive.draws["theta"][s], W[s], eta)
        lo = -np.log(np.maximum(Sa, 1e-300))
        hi = np.where(Sb > 0.0, -np.log(np.maximum(Sb, 1e-300)), np.inf)
        hi = np.where(dataset.a == dataset.b, lo, hi)
        trunc = -np.log(np.maximum(Su, 1e-300))
        trunc = np.where(dataset.u > 0.0, trunc, 0.0)
        out.append(ResidualSample(draw=s, lo=lo, hi=hi, trunc=trunc))
    return out


@dataclass
class TurnbullEstimate:
    """NPMLE of a distribution from arbitrarily censored (+ left-truncated) data.

    support holds the innermost intervals as (q, p, is_atom); masses the
    probability assigned to each, summing to one.
    """

    support: list
    masses: np.ndarray
    converged: bool
    iterations: int

    def survival_after(self, t):
        """S(t+) = P(T > t): mass of support lying strictly beyond t.

        A non-atom (q, p] contributes whenever q >= t (its content exceeds q);
        an atom at q only when q > t.
        """
        qs = np.array([q for q, _, _ in self.support])
        atoms = np.array([a for _, _, a in self.support])
        keep = (qs > t) | ((qs == t) & ~atoms)
        return float(self.masses[keep].sum())

    def step_points(self):
        """(left endpoints, cumulative hazard at those points) for plotting:
        Lambda(q_k) = -log S(q_k-)."""
        qs = np.array([q for q, _, _ in self.support])
        cum_before = np.concatenate([[0.0], np.cumsum(self.masses)[:-1]])
        surv_before = np.maximum(1.0 - cum_before, 1e-300)
        return qs, -np.log(surv_before)


def turnbull_npmle(lo, hi, trunc=None, tol=1e-8, max_iter=1000):
    """Self-consistency EM on the Turnbull innermost intervals.

    lo/hi follow the ResidualSample convention: lo == hi marks an exact value
    (a point mass candidate), otherwise the observation interval is (lo, hi].
    Left-truncated entries (trunc > 0) condition their contribution on the
    event landing beyond trunc.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = lo.shape[0]
    if n == 0:
        raise ValueError("empty residual sample")
    trunc = np.zeros(n) if trunc is None else np.asarray(trunc, dtype=float)
    exact = lo == hi

    # innermost intervals: sort candidate endpoints; an L-point immediately
    # followed by an R-point forms one.  Exact values are closed L-points that
    # sort before R-points at the same value; censored left endpoints are open
    # and sort after them.
    events = []
    for i in range(n):
        if exact[i]:
            events.append((lo[i], 0, "L", True))
        else:
            events.append((lo[i], 2, "L", False))
            events.append((hi[i], 1, "R", False))
    for i in range(n):
        if exact[i]:
            events.append((lo[i], 1, "R", False))
    events.sort(key=lambda e: (e[0], e[1]))
    support = []
    pending = None  # (value, closed)
    for value, _, kind, closed in events:
        if kind == "L":
            pending = (value, closed)
        elif pending is not None:
            q, q_closed = pending
            support.append((q, value, q_closed and value == q))
            pending = None
    if not support:
        raise ValueError("no innermost intervals (is every interval empty?)")
    K = len(support)
    qs = np.array([s[0] for s in support])
    ps = np.array([s[1] for s in support])
    atoms = np.array([s[2] for s in support])

    # membership: alpha[i, k] = 1 iff innermost k lies inside observation i
    alpha = np.zeros((n, K), dtype=bool)
    for i in range(n):
        if exact[i]:
            alpha[i] = atoms & (qs == lo[i])
        else:
            starts_inside = (qs > lo[i]) | ((qs == lo[i]) & ~atoms)
            alpha[i] = starts_inside & (ps <= hi[i])
    if np.any(~alpha.any(axis=1)):
        raise ValueError("an observation matches no innermost interval")
    # truncation: beta[i, k] = 1 iff innermost k lies beyond the truncation time
    has_trunc = np.any(trunc > 0.0)
    if has_trunc:
        beta = (qs[None, :] > trunc[:, None]) | \
               ((qs[None, :] == trunc[:, None]) & ~atoms[None, :])

    s = np.full(K, 1.0 / K)
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        denom = alpha @ s
        mu = alpha * (s / denom[:, None])
        if has_trunc:
            bden = beta @ s
            nu = (~beta) * (s / np.maximum(bden, 1e-300)[:, None])
            weights = mu + nu
        else:
            weights = mu
        s_new = weights.sum(axis=0)
        s_new /= s_new.sum()
        delta = np.max(np.abs(s_new - s))
        s = s_new
        if delta < tol:
            converged = True
            break
    if not converged:
        warnings.warn(f"Turnbull EM did not converge in {max_iter} iterations "
                      f"(last change {delta:.2e})")
    return TurnbullEstimate(support=support, masses=s, converged=converged, iterations=it)


def residual_plot_data(archive, dataset, draws=10):
    """Rows (draw_id, r, cumhaz) for the Cox-Snell plot, one trace per draw.

    The cumulative hazard is the Turnbull estimate evaluated at the left
    endpoints of its support; a correct model tracks the 45-degree line.
    """
    rows = []
    for sample in coxsnell_residuals(archive, dataset, draws):
        est = turnbull_npmle(sample.lo, sample.hi, sample.trunc)
        r, cumhaz = est.step_points()
        keep = np.isfinite(r) & np.isfinite(cumhaz)
        for rr, hh in zip(r[keep], cumhaz[keep]):
            rows.append((sample.draw, float(rr), float(hh)))
    return rows


def cumhaz_slope(rows):
    """Least-squares slope through the origin of cumhaz vs r over all traces."""
    if not rows:
        raise ValueError("no residual plot rows")
    r = np.array([x[1] for x in rows])
    h = np.array([x[2] for x in rows])
    keep = (r > 0) & np.isfinite(r) & np.isfinite(h)
    r, h = r[keep], h[keep]
    return float((r * h).sum() / (r * r).sum())
