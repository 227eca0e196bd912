"""Scalar references used as test oracles.

The closed forms in surv, dens, obs_loglik and linear_predictor are written
out per model and share no code with bpsurv.models.survival_transform, the
vectorized kernel they check:

    aft:  S_x(t) = S0(e^eta t)
    ph:   S_x(t) = S0(t)^(e^eta)
    po:   S_x(t) = e^-eta S0(t) / (1 + (e^-eta - 1) S0(t))

select_knots is the candidate-by-candidate form of the maximin knot search
that bpsurv.frailty.select_knots vectorizes.

parametric_prerun is a pinned-weights random-walk sampler of the parametric
special case with its own adaptive proposal (AdaptiveRandomWalk), the
statistical reference for bpsurv.sampler.parametric_prerun, which replaces
sampling by a Laplace fit of the same posterior.

turnbull_npmle is the self-consistency EM over dense n x K membership
matrices, built from a Python event list; bpsurv.diagnostics.turnbull_npmle
works on contiguous runs of innermost intervals instead and accelerates the
same EM map.  turnbull_loglik scores a support and masses with the same dense
membership rule.

sample_survival_time inverts F_x(t) = u for one subject by geometric bracket
expansion plus brentq, the reference for the bisection that
bpsurv.simulate.sample_survival_time runs over all subjects at once.

frailty_scan is one Metropolis scan of a ChainSampler's frailties with each
kind's full-conditional mean written out from the current field (0 for iid,
the neighbour average for icar, -sum_{j != i} C_ij v_j / C_ii for grf), the
reference for bpsurv.sampler.ChainSampler.update_frailties, which reads every
kind's mean v_i - (C v)_i / C_ii from the precision C with C v kept current
as sites change.

monomial_rows builds the Bernstein monomials x^k (1-x)^(n-k) from separate
tables of x^k and (1-x)^k: the reference for bpsurv.baseline.bernstein_monomials,
which forms them from one power table and must match it bit for bit.
bernstein_cdf_rows and bernstein_pdf_rows build the cdf and pdf bases from
the binomial pmf table (_pmf_rows), the cdf by the complement 1 - sum of
pmf terms; TbpBaseline evaluates S0 and f0 from them, in a form that shares
no arithmetic with the likelihood's coefficient sums.

precision_from_factor mirrors dpotri's lower triangle by adding its strict
lower part transposed: the reference for bpsurv.frailty.precision_from_factor,
which adds the whole transpose and halves the diagonal, and must match it bit
for bit and in memory order.

CenteringFamily and TbpBaseline evaluate a centering family and the TBP
baseline S0(t) = D(S_theta(t) | J, w) at arbitrary times, the form in which
surv, dens and obs_loglik take a baseline.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotri
from scipy.optimize import brentq

from bpsurv.baseline import (
    _CLAMP,
    _check_family,
    _comb_row,
    bernstein_coefficients,
    family_log_density,
    family_survival,
)
from bpsurv.diagnostics import TurnbullEstimate
from bpsurv.frailty import pairwise_distances
from bpsurv.models import MODELS, LikelihoodEvaluator, model_time, survival_transform
from bpsurv.models import linear_predictor as stacked_predictor
from bpsurv.sampler import PrerunEstimates, _theta_moment_init

_FLOOR = 1e-300


def monomial_rows(x, ntrials):
    """Rows k = 0..ntrials of x^k (1-x)^(ntrials-k), shape (ntrials+1, N)."""
    x = np.asarray(x, dtype=float)
    N = x.shape[0]
    y = 1.0 - x
    xp = np.empty((ntrials + 1, N))
    yp = np.empty((ntrials + 1, N))
    xp[0] = 1.0
    yp[0] = 1.0
    for k in range(1, ntrials + 1):
        np.multiply(xp[k - 1], x, out=xp[k])
        np.multiply(yp[k - 1], y, out=yp[k])
    xp *= yp[::-1]
    return xp


def _pmf_rows(x, ntrials):
    """Rows k = 0..ntrials of C(ntrials,k) x^k (1-x)^(ntrials-k), shape (ntrials+1, N)."""
    pmf = monomial_rows(x, ntrials)
    pmf *= _comb_row(ntrials)[:, None]
    return pmf


def bernstein_cdf_rows(x, J):
    """Rows j = 1..J of Delta_{j,J}(x) = P(Bin(J,x) >= j), shape (J, len(x)),
    by the downward recursion Delta_{j+1,J} = Delta_{j,J} - C(J,j) x^j (1-x)^(J-j)."""
    pmf = _pmf_rows(x, J)
    tail = 1.0 - np.cumsum(pmf[:-1], axis=0)
    return np.clip(tail, 0.0, 1.0, out=tail)


def bernstein_pdf_rows(x, J):
    """Rows j = 1..J of delta_{j,J}(x), shape (J, len(x))."""
    pmf = _pmf_rows(x, J - 1)
    pmf *= J
    return pmf


def family_density(family, theta, t):
    """Density f_theta(t); zero where t <= 0 or t = inf."""
    return np.exp(family_log_density(family, theta, t))


@dataclass(frozen=True)
class CenteringFamily:
    """A centering survival family tag plus its R^2 parameter."""

    name: str
    theta: tuple

    def __post_init__(self):
        _check_family(self.name)

    def survival(self, t):
        return family_survival(self.name, self.theta, t)

    def density(self, t):
        return family_density(self.name, self.theta, t)

    def log_density(self, t):
        return family_log_density(self.name, self.theta, t)


@dataclass(frozen=True)
class TbpBaseline:
    """Baseline survival S0(t) = D(S_theta(t) | J, w) with density
    f0(t) = d(S_theta(t) | J, w) f_theta(t)."""

    J: int
    w: np.ndarray
    family: CenteringFamily

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.shape != (self.J,) or np.any(w <= 0.0) or abs(w.sum() - 1.0) > 1e-10:
            raise ValueError(f"w must be {self.J} positive weights summing to 1")

    def _transform(self, t):
        s = family_survival(self.family.name, self.family.theta, t)
        return np.clip(s, _CLAMP, 1.0 - _CLAMP)

    def survival(self, t):
        """S0(t) for t >= 0 (scalar or array)."""
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        x = self._transform(np.atleast_1d(t))
        out = self.w @ bernstein_cdf_rows(x, self.J)
        out = np.where(np.atleast_1d(t) <= 0.0, 1.0, out)
        out = np.where(np.isposinf(np.atleast_1d(t)), 0.0, out)
        return float(out[0]) if scalar else out

    def log_density(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tv = np.atleast_1d(t)
        x = self._transform(tv)
        d = self.w @ bernstein_pdf_rows(x, self.J)
        logf = family_log_density(self.family.name, self.family.theta, tv)
        out = np.log(np.maximum(d, 1e-300)) + logf
        return float(out[0]) if scalar else out

    def density(self, t):
        """f0(t) = d(S_theta(t)) f_theta(t)."""
        return np.exp(self.log_density(t))


def sample_survival_time(model, eta, truth, u, bracket=(1e-10, 1e3), rtol=1e-12):
    """Invert F_x(t) = u with geometric bracket expansion plus brentq.

    u must lie strictly inside (0, 1).
    """
    if not 0.0 < u < 1.0:
        raise ValueError("u must lie in (0, 1)")

    def g(t):
        s0 = truth.survival(model_time(model, t, eta))
        # the kernel floors s0 for the PH log; S_x must still reach 0 where s0 does
        s = np.where(s0 > 0.0, survival_transform(model, s0, eta)[0], 0.0)
        return (1.0 - float(s)) - u

    lo, hi = bracket
    expansions = 0
    while g(lo) > 0.0:
        lo /= 1e3
        expansions += 1
        if expansions > 40:
            raise RuntimeError("bracket expansion failed at the lower end")
    expansions = 0
    while g(hi) < 0.0:
        hi *= 1e3
        expansions += 1
        if expansions > 40:
            raise RuntimeError("bracket expansion failed at the upper end")
    return float(brentq(g, lo, hi, rtol=rtol, xtol=1e-300, maxiter=200))


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


def obs_loglik(model, a, b, u, eta, baseline):
    """Log-likelihood of the observation (a, b] truncated at u, at a given
    linear predictor.

    Returns -inf (rather than raising) when the observation interval carries
    no probability mass under the current parameters.
    """
    if a == b:
        f = dens(model, a, eta, baseline)
        ll = math.log(max(f, _FLOOR)) if f > 0.0 else -math.inf
    else:
        sa = surv(model, a, eta, baseline) if a > 0 else 1.0
        sb = surv(model, b, eta, baseline) if math.isfinite(b) else 0.0
        mass = sa - sb
        ll = math.log(max(mass, _FLOOR)) if mass > 0.0 else -math.inf
    if u > 0.0:
        su = surv(model, u, eta, baseline)
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
    ll = ev.loglik_obs(cache, bernstein_coefficients(baseline.w), eta)
    return float(ll.sum()), ll


def select_knots(coords, A, refine=True):
    """Greedy farthest-point knots, then up to three swap sweeps that rescore
    the whole knot set for every candidate site at every position."""
    coords = np.asarray(coords, dtype=float)
    m = coords.shape[0]
    if not 1 <= A <= m:
        raise ValueError(f"knot count must lie in 1..{m}, got {A}")
    if A == m:
        return np.arange(m)
    dist = pairwise_distances(coords)
    centroid = coords.mean(axis=0)
    start = int(np.argmax(np.linalg.norm(coords - centroid, axis=1)))
    chosen = [start]
    mind = dist[start].copy()
    while len(chosen) < A:
        nxt = int(np.argmax(mind))
        chosen.append(nxt)
        np.minimum(mind, dist[nxt], out=mind)
    if refine:
        chosen_set = set(chosen)
        for _ in range(3):
            improved = False
            for pos in range(A):
                base = _swap_score(dist, chosen)
                best_gain, best_site = 0.0, None
                for cand in range(m):
                    if cand in chosen_set:
                        continue
                    old = chosen[pos]
                    chosen[pos] = cand
                    score = _swap_score(dist, chosen)
                    chosen[pos] = old
                    if score - base > best_gain + 1e-12:
                        best_gain, best_site = score - base, cand
                if best_site is not None:
                    chosen_set.discard(chosen[pos])
                    chosen[pos] = best_site
                    chosen_set.add(best_site)
                    improved = True
            if not improved:
                break
    return np.array(sorted(chosen))


def _swap_score(dist, chosen):
    # minimum pairwise distance among knots: the maximin design criterion
    idx = np.asarray(chosen)
    sub = dist[np.ix_(idx, idx)]
    iu = np.triu_indices(len(idx), k=1)
    return sub[iu].min() if iu[0].size else np.inf


class AdaptiveRandomWalk:
    """Gaussian random walk with the adaptation rule of Haario, Saksman and
    Tamminen (2001): the step covariance is sigma0 until more than 200 states
    have been recorded, then (2.4^2 / d) (C + 1e-10 I), C the sample
    covariance of every recorded state, kept by Welford's streaming update.
    A covariance without a Cholesky factor falls back to sigma0."""

    L0 = 200

    def __init__(self, sigma0):
        self.sigma0 = np.asarray(sigma0, dtype=float)
        self.d = self.sigma0.shape[0]
        self.count = 0
        self.mean = np.zeros(self.d)
        self.m2 = np.zeros((self.d, self.d))

    def record(self, x):
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += np.outer(delta, x - self.mean)

    def covariance(self):
        if self.count <= self.L0:
            return self.sigma0
        return (2.4 ** 2 / self.d) * (self.m2 / (self.count - 1) + 1e-10 * np.eye(self.d))

    def step(self, rng):
        try:
            L = np.linalg.cholesky(self.covariance())
        except np.linalg.LinAlgError:
            L = np.linalg.cholesky(self.sigma0)
        return L @ rng.standard_normal(self.d)


def parametric_prerun(dataset, config, spline_terms, rng, iters):
    """Pinned-weights Metropolis loop over theta and the regression vector:
    w = 1/J, vague priors, no frailties or selection; the means and
    covariances of the second half of iters iterations are the estimates."""
    if dataset.n == 0:
        raise ValueError("the parametric pre-run needs at least one observation")
    spline_terms = spline_terms or []
    ev = LikelihoodEvaluator(dataset, config.model, config.family, config.J)
    coef = bernstein_coefficients(np.full(config.J, 1.0 / config.J))
    p = dataset.p
    dims = p + sum(t.K for t in spline_terms)
    designs = [t.design for t in spline_terms]

    theta = _theta_moment_init(dataset, config.family)
    beta = np.zeros(dims)
    eta = stacked_predictor(dataset.X, designs, beta)
    cache = ev.build_cache(theta, eta)
    ll = ev.loglik_obs(cache, coef, eta)
    if not np.all(np.isfinite(ll)):
        bad = int(np.flatnonzero(~np.isfinite(ll))[0])
        raise ValueError(f"non-finite likelihood at initialization (observation {bad}); "
                         "check for zero-probability intervals")
    ll_tot = float(ll.sum())

    col_scale = np.concatenate([
        1.0 / np.maximum(dataset.X.var(axis=0), 0.05) if p else np.zeros(0),
        *[1.0 / np.maximum(D.var(axis=0), 0.05) for D in designs]]) if dims else np.zeros(0)
    prop_theta = AdaptiveRandomWalk(0.16 * np.eye(2))
    prop_beta = AdaptiveRandomWalk(0.16 * np.diag(col_scale)) if dims else None
    vague_theta, vague_beta = 1e-6, 1e-10  # prior precisions
    burn = iters // 2

    keep_theta, keep_beta = [], []
    for it in range(iters):
        th_star = theta + prop_theta.step(rng)
        cache_star = ev.build_cache(th_star, eta)
        ll_star = ev.loglik_obs(cache_star, coef, eta)
        lt = float(ll_star.sum())
        dprior = -0.5 * vague_theta * (th_star @ th_star - theta @ theta)
        if np.isfinite(lt) and math.log(rng.uniform()) < lt - ll_tot + dprior:
            theta, cache, ll, ll_tot = th_star, cache_star, ll_star, lt
        prop_theta.record(theta)

        if dims:
            b_star = beta + prop_beta.step(rng)
            eta_star = stacked_predictor(dataset.X, designs, b_star)
            cache_b = ev.cache_for_eta(cache, eta_star)
            ll_star = ev.loglik_obs(cache_b, coef, eta_star)
            lt = float(ll_star.sum())
            dprior = -0.5 * vague_beta * (b_star @ b_star - beta @ beta)
            if np.isfinite(lt) and math.log(rng.uniform()) < lt - ll_tot + dprior:
                beta, eta, cache, ll, ll_tot = b_star, eta_star, cache_b, ll_star, lt
            prop_beta.record(beta)

        if it >= burn:
            keep_theta.append(theta.copy())
            keep_beta.append(beta.copy())

    TH = np.array(keep_theta)
    BE = np.array(keep_beta) if dims else np.zeros((len(keep_theta), 0))
    V_hat = np.cov(TH.T) + 1e-8 * np.eye(2)
    W_hat = (np.cov(BE.T).reshape(dims, dims) + 1e-8 * np.eye(dims)) if dims \
        else np.zeros((0, 0))
    return PrerunEstimates(theta_hat=TH.mean(axis=0), V_hat=V_hat,
                           beta_hat=BE.mean(axis=0), W_hat=W_hat, figures={})


def baseline_for_draw(archive, s):
    """The TBP baseline of retained draw s of a PosteriorArchive."""
    return TbpBaseline(J=archive.J, w=archive.weights()[s],
                       family=CenteringFamily(archive.family,
                                              tuple(archive.draws["theta"][s])))


def survival_after(est, t):
    """S(t+) = P(T > t): mass of a TurnbullEstimate's support lying strictly
    beyond t.

    A non-atom (q, p] contributes whenever q >= t (its content exceeds q);
    an atom at q only when q > t.
    """
    qs = np.array([q for q, _, _ in est.support])
    atoms = np.array([a for _, _, a in est.support])
    keep = (qs > t) | ((qs == t) & ~atoms)
    return float(est.masses[keep].sum())


def _membership(lo, hi, trunc, support):
    """Dense alpha (observation contains innermost k) and beta (innermost k
    lies beyond the truncation time) matrices; beta is None untruncated."""
    exact = lo == hi
    qs = np.array([q for q, _, _ in support])
    ps = np.array([p for _, p, _ in support])
    atoms = np.array([a for _, _, a in support], dtype=bool)
    alpha = np.where(exact[:, None], atoms & (qs == lo[:, None]),
                     ((qs > lo[:, None]) | ((qs == lo[:, None]) & ~atoms))
                     & (ps <= hi[:, None]))
    beta = None
    if np.any(trunc > 0.0):
        beta = (qs[None, :] > trunc[:, None]) | \
               ((qs[None, :] == trunc[:, None]) & ~atoms[None, :])
    return alpha, beta


def turnbull_loglik(lo, hi, trunc, support, masses):
    """Observed log-likelihood sum_i log(alpha_i . s) - log(beta_i . s)."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    trunc = np.zeros(lo.shape[0]) if trunc is None else np.asarray(trunc, dtype=float)
    alpha, beta = _membership(lo, hi, trunc, support)
    ll = float(np.log(alpha @ masses).sum())
    if beta is not None:
        ll -= float(np.log(beta @ masses).sum())
    return ll


def turnbull_npmle(lo, hi, trunc=None, tol=1e-8, max_iter=1000):
    """Self-consistency EM on the Turnbull innermost intervals.

    lo/hi follow the coxsnell_residuals convention: lo == hi marks an exact value
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


def precision_from_factor(L):
    """R^{-1} from the lower Cholesky factor L of R."""
    inv = dpotri(L, lower=1)[0]
    return inv + np.tril(inv, -1).T


def frailty_scan(s):
    """One frailty scan of ChainSampler s, drawing from the same streams."""
    st = s.state
    rng = s.rngs["frailty"]
    m = s.m
    C = s.structure.C
    prec = np.diag(C)
    sd = np.sqrt(st.tau2 / prec)
    eps = rng.standard_normal(m)
    logu = np.log(rng.uniform(size=m))
    v_prop = st.v + sd * eps
    eta_prop = s.eta_lin + v_prop[s.ev.loc0]
    ll_prop = s.ev.loglik_obs(s.ev.cache_for_eta(s.cache, eta_prop), st.coef, eta_prop)
    site_prop = s.ev.site_sums(np.where(np.isfinite(ll_prop), ll_prop, -1e306))
    site_cur = s.ev.site_sums(st.ll_obs)
    v = st.v
    for i in range(m):
        if s.spec.kind == "iid":
            mean_i = 0.0
        elif s.spec.kind == "icar":
            mean_i = v[np.flatnonzero(s.spec.adjacency[i])].mean()
        else:
            others = np.arange(m) != i
            mean_i = -(C[i, others] @ v[others]) / C[i, i]
        dprior = -0.5 * prec[i] / st.tau2 * ((v_prop[i] - mean_i) ** 2 - (v[i] - mean_i) ** 2)
        if logu[i] < site_prop[i] - site_cur[i] + dprior:
            v[i] = v_prop[i]
            s.accept_frailty += 1
    if s.spec.kind == "icar":
        v -= v.mean()
    s.eta = s._eta(s.eta_lin)
    s.cache = s.ev.cache_for_eta(s.cache, s.eta)
    st.ll_obs = s.ev.loglik_obs(s.cache, st.coef, s.eta)
