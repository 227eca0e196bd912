"""Cox-Snell residual goodness-of-fit machinery.

r(t) = -log S_x(t) is standard exponential when the model is right, so the
residual pairs (r(a), r(b)) form an arbitrarily censored Exp(1) sample; a
Turnbull nonparametric estimate of their distribution should have a straight
unit-slope cumulative hazard.  Residuals are computed for several posterior
draws so the plot carries parameter uncertainty: coxsnell_residuals gives
(draws x observations) matrices, and residual_plot_data the plot's three
columns (draw id, r, cumulative hazard), one trace per draw.

The Turnbull NPMLE (Turnbull 1976, JRSS-B) works on the innermost intervals
in sorted order, where every observation covers one contiguous run of them:
cumulative sums and difference arrays give each self-consistency EM step in
O(n + K) for n observations and K intervals, and SQUAREM extrapolation
(Varadhan & Roland 2008) cuts the number of steps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .baseline import bernstein_coefficients
from .models import LikelihoodEvaluator, linear_predictor


def _select_draws(L, ndraws):
    ndraws = min(ndraws, L)
    return np.unique(np.linspace(0, L - 1, ndraws).round().astype(int))


def _draw_states(archive, dataset, ev, idx):
    """(theta, w, eta) of each retained draw in idx, eta on dataset's rows."""
    W, coefs, v = archive.weights(), archive.coefficients(), archive.draws.get("v")
    designs = [t.design for t in archive.spline_terms]
    for s in idx:
        yield archive.draws["theta"][s], W[s], linear_predictor(
            dataset.X, designs, coefs[s], None if v is None else v[s], ev.loc0)


def check_fit_data(archive, dataset):
    """Refuse (ValueError) data the archive was not fitted to: data whose n, m
    or covariates differ from the fit's, or on which the last retained draw's
    per-observation log-likelihood is not the stored one (to 1e-9)."""
    given, fitted = ((d.n, d.m, list(d.covariate_names)) for d in (dataset, archive))
    if given != fitted:
        raise ValueError(f"the data are not the fit's: their n, m and covariates are "
                         f"{given}, the fit's {fitted}")
    ev = LikelihoodEvaluator(dataset, archive.model, archive.family, archive.J)
    for theta, w, eta in _draw_states(archive, dataset, ev, range(archive.L)[-1:]):
        ll = ev.loglik_obs(ev.build_cache(theta, eta), bernstein_coefficients(w), eta)
        if not np.allclose(ll, archive.loglik_obs[-1], rtol=1e-9, atol=1e-9):
            raise ValueError("the data are not the fit's: the last draw's log-likelihood "
                             "on them differs from the stored one")


def coxsnell_residuals(archive, dataset, draws=10):
    """(draw indices, lo, hi, trunc) for `draws` evenly spaced retained draws.

    lo, hi and trunc are (draws x observations) matrices of r(a), r(b) and
    r(u): hi = inf for right censoring, lo = hi for exact observations and
    trunc = 0 when untruncated.
    """
    idx = _select_draws(archive.L, draws)
    ev = LikelihoodEvaluator(dataset, archive.model, archive.family, archive.J)
    S = np.array([ev.survival_probs(*st) for st in _draw_states(archive, dataset, ev, idx)])
    S = S.reshape(idx.size, 3, dataset.n)  # (S_x(a), S_x(b), S_x(u)) per draw
    R = -np.log(np.maximum(S, 1e-300))
    lo = R[:, 0]
    hi = np.where(dataset.a == dataset.b, lo, np.where(S[:, 1] > 0.0, R[:, 1], np.inf))
    if np.any(lo > hi + 1e-12):
        raise ValueError("residual pairs need lo <= hi")
    return idx, lo, hi, np.where(dataset.u > 0.0, R[:, 2], 0.0)


@dataclass
class TurnbullEstimate:
    """NPMLE of a distribution from arbitrarily censored (+ left-truncated) data.

    support holds the innermost intervals as (q, p, is_atom), sorted by q with
    an atom at q before a non-atom (q, p]; masses the probability assigned to
    each, summing to one.
    """

    support: list
    masses: np.ndarray
    converged: bool
    iterations: int

    def step_points(self):
        """(left endpoints, cumulative hazard at those points) for plotting:
        Lambda(q_k) = -log S(q_k-)."""
        qs = np.array([q for q, _, _ in self.support])
        cum_before = np.concatenate([[0.0], np.cumsum(self.masses)[:-1]])
        surv_before = np.maximum(1.0 - cum_before, 1e-300)
        return qs, -np.log(surv_before)


# A cycle converges when it moves no mass by _MASS_TOL or more and raises the
# log-likelihood by at most _LOGLIK_RISE: masses the NPMLE sets to zero can
# shrink by less than _MASS_TOL per cycle while each still costs likelihood.
_MASS_TOL, _LOGLIK_RISE = 1e-8, 1e-10


def _innermost_intervals(lo, hi, exact):
    """(q, p, is_atom) arrays of the Turnbull innermost intervals.

    The endpoints are swept in sorted order; an L-point immediately followed
    by an R-point forms one.  At a tied value, exact values (closed L-points)
    sort before R-points, and censored left endpoints (open) after them, so a
    closed L-point is always followed by its own R-point: an atom.
    """
    cens = ~exact
    values = np.concatenate([lo[exact], lo[exact], lo[cens], hi[cens]])
    kind = np.concatenate([np.zeros(exact.sum(), dtype=np.int8),   # closed L
                           np.ones(exact.sum(), dtype=np.int8),    # R
                           np.full(cens.sum(), 2, dtype=np.int8),  # open L
                           np.ones(cens.sum(), dtype=np.int8)])    # R
    order = np.lexsort((kind, values))
    values, kind = values[order], kind[order]
    start = np.flatnonzero((kind[:-1] != 1) & (kind[1:] == 1))
    return values[start], values[start + 1], kind[start] == 0


def _first_beyond(qs, atoms, t):
    """Index of the first innermost interval lying beyond t: q > t, or q == t
    for a non-atom (q, p], whose content exceeds q."""
    k = np.searchsorted(qs, t, side="left")
    at = np.minimum(k, qs.shape[0] - 1)
    return k + ((k < qs.shape[0]) & atoms[at] & (qs[at] == t))


def turnbull_npmle(lo, hi, trunc=None, max_iter=10_000):
    """Self-consistency EM on the Turnbull innermost intervals, SQUAREM-accelerated.

    lo/hi follow the coxsnell_residuals convention: lo == hi marks an exact value
    (a point mass candidate), otherwise the observation interval is (lo, hi].
    Left-truncated entries (trunc > 0) condition their contribution on the
    event landing beyond trunc.

    The innermost intervals are disjoint and sorted, so observation i covers
    one contiguous run [first_i, last_i] of them, and a truncated one the
    tail [tfirst_i, K).  With C the cumulative sum of the masses s (leading
    0), alpha_i . s = C[last_i + 1] - C[first_i]; the EM weights
    sum_i alpha_ik / (alpha_i . s) are a difference array over the runs, and
    the truncation weights another over the tails.  One EM step therefore
    costs O(n + K), and no n x K membership matrix is formed.

    The EM map is accelerated by SQUAREM (Varadhan & Roland 2008, Scand. J.
    Stat.): two EM steps from s give r = F(s) - s and v = F(F(s)) - 2F(s) + s,
    and the extrapolated point is s - 2a r + a^2 v with a = -|r|/|v| (capped
    at -1).  While that point has a negative mass, the step length backtracks
    to a = (a - 1)/2 (again capped at -1).  The point is kept, after one more
    EM step, when a is still below -1, every observation keeps positive mass
    and the observed log-likelihood sum_i log(alpha_i . s) - log(beta_i . s)
    does not fall; otherwise the plain double EM step is kept.  iterations
    counts these cycles; the run has converged when a cycle changes no mass
    by 1e-8 or more and raises the log-likelihood by at most 1e-10.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = lo.shape[0]
    if n == 0:
        raise ValueError("empty residual sample")
    trunc = np.zeros(n) if trunc is None else np.asarray(trunc, dtype=float)
    exact = lo == hi

    qs, ps, atoms = _innermost_intervals(lo, hi, exact)
    K = qs.shape[0]
    if K == 0:
        raise ValueError("no innermost intervals (is every interval empty?)")
    # observation i covers innermost [first_i, last_i]; an exact value only
    # its own atom, which sorts first among the intervals starting at it
    first = np.where(exact, np.searchsorted(qs, lo, side="left"),
                     _first_beyond(qs, atoms, lo))
    last = np.searchsorted(ps, hi, side="right") - 1
    if np.any(first > last):
        raise ValueError("an observation matches no innermost interval")
    tfirst = np.where(trunc > 0.0, _first_beyond(qs, atoms, trunc), 0)

    def em_step(s):
        """(observed log-likelihood at s, EM image of s); (-inf, None) when
        some observation has no mass under s."""
        C = np.concatenate([[0.0], np.cumsum(s)])
        den = C[last + 1] - C[first]
        if not np.all(den > 0.0):
            return -np.inf, None
        bden = np.maximum(C[K] - C[tfirst], 1e-300)
        loglik = float(np.log(den).sum() - np.log(bden).sum())
        w = 1.0 / den
        mu = np.cumsum(np.bincount(first, w, K + 1) - np.bincount(last + 1, w, K + 1))
        # an observation truncated at tfirst_i weights every k < tfirst_i by
        # 1 / (beta_i . s); the rows with tfirst_i = 0 add nothing
        tail = np.cumsum(np.bincount(tfirst, 1.0 / bden, K + 1)[::-1])[::-1]
        s_new = s * (mu[:K] + tail[1:])
        return loglik, s_new / s_new.sum()

    s = np.full(K, 1.0 / K)
    loglik, s1 = em_step(s)
    converged = False
    for it in range(1, max_iter + 1):
        _, s2 = em_step(s1)
        r = s1 - s
        v = s2 - 2.0 * s1 + s
        norm_v = np.linalg.norm(v)
        # a step too long to represent overflows to inf or nan, which the
        # non-negativity test rejects; an infinite a could never backtrack
        with np.errstate(over="ignore", invalid="ignore"):
            a = min(-np.linalg.norm(r) / norm_v, -1.0) if norm_v > 0.0 else -1.0
            a = a if np.isfinite(a) else -1.0
            s_ext = s - 2.0 * a * r + a * a * v
            while a < -1.0 and not np.all(s_ext >= 0.0):
                a = min(0.5 * (a - 1.0), -1.0)
                s_ext = s - 2.0 * a * r + a * a * v
        s_new = s2  # a = -1 extrapolates to s2 itself
        if a < -1.0 and np.all(s_ext >= 0.0):
            loglik_ext, s_next = em_step(s_ext)
            if loglik_ext >= loglik:
                s_new = s_next
        delta = np.max(np.abs(s_new - s))
        loglik_new, s1 = em_step(s_new)
        rise = loglik_new - loglik
        s, loglik = s_new, loglik_new
        if delta < _MASS_TOL and rise <= _LOGLIK_RISE:
            converged = True
            break
    if not converged:
        warnings.warn(f"Turnbull EM did not converge in {max_iter} iterations "
                      f"(last change {delta:.2e})")
    support = list(zip(qs.tolist(), ps.tolist(), atoms.tolist()))
    return TurnbullEstimate(support=support, masses=s, converged=converged, iterations=it)


def residual_plot_data(archive, dataset, draws=10):
    """Columns (draw_id, r, cumhaz) of the Cox-Snell plot: per draw in
    ascending order, the Turnbull cumulative hazard at the left endpoints of
    its support (finite points only); a correct model tracks the 45-degree line.
    """
    idx, lo, hi, trunc = coxsnell_residuals(archive, dataset, draws)
    traces = [np.zeros((0, 3))]
    for s, a, b, u in zip(idx, lo, hi, trunc):
        r, cumhaz = turnbull_npmle(a, b, u).step_points()
        keep = np.isfinite(r) & np.isfinite(cumhaz)
        traces.append(np.column_stack((np.full(keep.sum(), s), r[keep], cumhaz[keep])))
    draw_id, r, cumhaz = np.concatenate(traces).T
    return draw_id.astype(int), r, cumhaz


def cumhaz_slope(r, cumhaz):
    """Least-squares slope through the origin of cumhaz on r over all traces."""
    if r.size == 0:
        raise ValueError("no residual plot rows")
    keep = (r > 0) & np.isfinite(r) & np.isfinite(cumhaz)
    r, cumhaz = r[keep], cumhaz[keep]
    return float((r * cumhaz).sum() / (r * r).sum())
