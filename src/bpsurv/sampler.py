"""Block-wise MCMC for the semiparametric survival models.

One sweep updates, in order: baseline weight logits z, centering parameters
theta, regression block (beta and any spline coefficients), the weight-prior
precision alpha, frailties v site by site, tau^2 by a Gibbs draw, the range
parameter phi (random fields only), and the inclusion indicators gamma when
variable selection is on.  The z/theta/beta/alpha/phi blocks share one
random-walk Metropolis step (ChainSampler._metropolis).  Each block proposes
x + L e, e ~ N(0, I), where L = ChainSampler.prop[block] is the lower
Cholesky factor of the block's seed covariance, built once: no proposal
adapts, so the chain is a time-homogeneous Markov chain by construction.
The model comes from the McmcConfig alone: the chain, its parametric fit and
a loaded archive all build the spline terms by splines.build_terms.

A random-field chain spends much of a sweep on the range phi: a Cholesky
factor per proposal and an inverse per accepted range.  ChainSampler.run
forks one worker process (frailty.ForkedRanges) for that linear algebra.
Only update_phi moves phi and each block draws from its own stream, so a
sweep with a worker draws its range proposal first and submits it, with the
inverse of a range the previous sweep accepted; the worker forms that C and
factors the proposal while the other blocks run.  The worker makes the same
calls on the same matrices as the serial chain, so the draws equal those of
sweeps called one by one, which call frailty.build_structure in process, as
run() does where no worker can be forked.

Before the chain, parametric_prerun fits the parametric special case
(weights pinned at 1/J) by a Laplace approximation: the mode of its
log-posterior and the inverse Hessian there.  The fit supplies the starting
values, the informative theta prior, and the seed covariances for theta and
beta.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import frailty as fr
from .baseline import (_CLAMP, bernstein_coefficients, bernstein_monomials, bernstein_survival,
                       dirichlet_symmetric_logpdf, family_survival, weights_from_logits)
from .models import LikelihoodEvaluator, linear_predictor
from .splines import build_terms, gprior_scale

# SeedSequence.spawn children are positional, so the unused "prerun" and
# "init" slots stay: every block keeps the stream it has always drawn from.
_BLOCKS = ("prerun", "init", "z", "theta", "beta", "alpha", "frailty", "tau2",
           "phi", "gamma")
_SEED_SCALE = 0.16  # seed proposal variance per coordinate
_Q_INCL = 0.5       # prior inclusion probability of each covariate under selection


@dataclass
class McmcConfig:
    """Run settings and hyperparameters: the one statement of every fit
    default, which the command line and the replicate studies read.

    Defaults follow the source methodology: W0 = 1e10 I (or the g-prior with
    M=10, q=0.9 under selection, splines.gprior_scale), theta0/V0 from the
    parametric Laplace fit with V0 = 10 Vhat, a_alpha = b_alpha = 1,
    a_tau = b_tau = 0.001, a_phi = 2 with b_phi = (a_phi - 1)/phi0.  The
    proposal covariances are fixed for the whole chain: 0.16 I for z, alpha
    and phi, and the fit's Vhat and What for theta and beta (0.16 I for a
    ChainSampler given no fit).  Giving theta0 and V0 replaces the
    data-dependent theta prior.  alpha and tau2 start at 1, phi at phi0.
    """

    model: str = "ph"
    family: str = "loglogistic"
    J: int = 15
    nburn: int = 3000
    nsave: int = 2000
    nskip: int = 1
    seed: int = 0
    # priors
    a_alpha: float = 1.0
    b_alpha: float = 1.0
    a_tau: float = 0.001
    b_tau: float = 0.001
    a_phi: float = 2.0
    b_phi: float = None
    beta_prior_var: float = 1e10
    theta0: tuple = None
    V0: np.ndarray = None
    # variable selection
    selection: bool = False
    # partially linear terms
    nonlinear: tuple = ()
    spline_K: int = 5
    # frailties
    frailty: fr.FrailtySpec = field(default_factory=fr.FrailtySpec)

    def __post_init__(self):
        if self.J < 2:
            raise ValueError(f"J must be at least 2, got {self.J}")
        if self.nskip < 1:
            raise ValueError(f"nskip must be at least 1, got {self.nskip}")
        for name in ("nburn", "nsave"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        for k, name in enumerate(self.nonlinear):
            if name in self.nonlinear[:k]:
                raise ValueError(f"nonlinear covariate {name!r} is listed twice")


@dataclass
class ChainState:
    """Current parameter values plus what the chain derives from them: the
    weights w of z, their Bernstein coefficients coef =
    bernstein_coefficients(w), and the per-observation log-likelihood."""

    z: np.ndarray
    theta: np.ndarray
    beta: np.ndarray          # regression block: beta then spline coefficients
    gamma: np.ndarray
    v: np.ndarray
    alpha: float
    tau2: float
    phi: float
    ll_obs: np.ndarray = None
    w: np.ndarray = None
    coef: tuple = None

    @property
    def ll_total(self):
        return float(self.ll_obs.sum())


@dataclass
class PrerunEstimates:
    """The parametric Laplace fit's mode and covariance blocks, plus figures:
    the optimiser's objective evaluations, its convergence flag and its
    message."""

    theta_hat: np.ndarray
    V_hat: np.ndarray
    beta_hat: np.ndarray
    W_hat: np.ndarray
    figures: dict


def _pseudo_times(dataset):
    t = np.where(np.isfinite(dataset.b), 0.5 * (dataset.a + dataset.b), dataset.a)
    return t[t > 0.0]


def _theta_moment_init(dataset, family):
    """Crude location/scale start for the centering parameters."""
    t = _pseudo_times(dataset)
    if t.size == 0:
        return np.zeros(2)
    lt = np.log(t)
    mu = float(lt.mean())
    sd = max(float(lt.std()), 0.05)
    if family == "loglogistic":
        th2 = math.log(math.pi / (math.sqrt(3.0) * sd))
    elif family == "lognormal":
        th2 = -math.log(sd)
    else:  # weibull
        th2 = math.log(math.pi / (math.sqrt(6.0) * sd))
    return np.array([-mu, float(np.clip(th2, -3.0, 3.0))])


def _central_hessian(f, x):
    """Central-difference Hessian of f at x with steps h_i = 1e-4 max(1, |x_i|):
    (f(x + h_i e_i) - 2 f(x) + f(x - h_i e_i)) / h_i^2 on the diagonal, the
    four-point rule divided by 4 h_i h_j off it."""
    d = len(x)
    E = np.diag(1e-4 * np.maximum(1.0, np.abs(x)))
    h = np.diag(E)
    f0 = f(x)
    H = np.empty((d, d))
    for i in range(d):
        H[i, i] = (f(x + E[i]) - 2.0 * f0 + f(x - E[i])) / h[i] ** 2
        for j in range(i):
            H[i, j] = H[j, i] = (f(x + E[i] + E[j]) - f(x + E[i] - E[j])
                                 - f(x - E[i] + E[j]) + f(x - E[i] - E[j])) / (4.0 * h[i] * h[j])
    return H


def _laplace_covariance(f, x):
    """The symmetrised inverse central-difference Hessian of f at x, or None
    when it has no finite Cholesky factor."""
    with np.errstate(invalid="ignore"):
        try:
            cov = np.linalg.inv(_central_hessian(f, x))
            cov = 0.5 * (cov + cov.T)
            if np.all(np.isfinite(np.linalg.cholesky(cov))):
                return cov
        except np.linalg.LinAlgError:
            pass
    return None


def parametric_prerun(dataset, config):
    """Laplace fit of the parametric special case: (theta_hat, V_hat,
    beta_hat, W_hat).

    The regression block is beta then the xi of the config's spline terms.
    With the weights pinned at 1/J (S0 = S_theta), no frailties or selection
    and vague priors (precisions 1e-6 I for theta around 0, 1e-10 I for the
    regression block), BFGS minimises the negative log-posterior from
    (_theta_moment_init, 0); a non-finite log-likelihood at a trial point
    reads as +inf.  The mode gives theta_hat and beta_hat, and the inverse of
    the central-difference Hessian there, symmetrised, gives V_hat (its theta
    block) and W_hat (its regression block).  BFGS's convergence flag is
    reported, not required: near the mode the finite-difference gradient
    stops at its noise floor, where BFGS reports a precision loss.  A
    non-finite objective at the returned point, or a covariance without a
    Cholesky factor, raises ValueError.
    """
    from scipy.optimize import minimize  # not at import: the CLI loads this module

    if dataset.n == 0:
        raise ValueError("the parametric Laplace fit needs at least one observation")
    designs = [t.design for t in build_terms(dataset, config.nonlinear, config.spline_K)]
    ev = LikelihoodEvaluator(dataset, config.model, config.family, config.J)
    coef = bernstein_coefficients(np.full(config.J, 1.0 / config.J))

    def loglik_obs(x):
        eta = linear_predictor(dataset.X, designs, x[2:])
        return ev.loglik_obs(ev.build_cache(x[:2], eta), coef, eta)

    def objective(x):
        ll = float(loglik_obs(x).sum())
        if not np.isfinite(ll):
            return math.inf
        return -(ll - 0.5e-6 * float(x[:2] @ x[:2]) - 0.5e-10 * float(x[2:] @ x[2:]))

    dims = dataset.p + sum(D.shape[1] for D in designs)
    x0 = np.concatenate([_theta_moment_init(dataset, config.family), np.zeros(dims)])
    ll0 = loglik_obs(x0)
    if not np.all(np.isfinite(ll0)):
        bad = int(np.flatnonzero(~np.isfinite(ll0))[0])
        raise ValueError(f"non-finite likelihood at initialization (observation {bad}); "
                         "check for zero-probability intervals")
    res = minimize(objective, x0, method="BFGS")
    if not np.isfinite(res.fun):
        raise ValueError("the parametric Laplace fit failed: the log-posterior is not "
                         f"finite at the optimiser's point ({res.message})")
    cov = _laplace_covariance(objective, res.x)
    if cov is None:
        raise ValueError("the parametric Laplace fit failed: the inverse Hessian at the "
                         f"mode has no Cholesky factor ({res.message})")
    figures = {"evaluations": int(res.nfev), "converged": bool(res.success),
               "message": str(res.message)}
    return PrerunEstimates(theta_hat=res.x[:2], V_hat=cov[:2, :2], beta_hat=res.x[2:],
                           W_hat=cov[2:, 2:], figures=figures)


class ChainSampler:
    """One MCMC chain; construct, then call run().

    The model, spline terms included, is the config's.  prerun_est, the
    config's parametric_prerun fit, supplies the theta prior, the starting
    values and the theta and beta proposals.  The per-block update methods
    are exposed individually so tests can drive a single block against its
    full conditional.
    """

    def __init__(self, dataset, config, prerun_est=None):
        self.ds = dataset
        self.cfg = config
        self.terms = build_terms(dataset, config.nonlinear, config.spline_K)
        self.ev = LikelihoodEvaluator(dataset, config.model, config.family, config.J)
        seqs = np.random.SeedSequence(config.seed).spawn(len(_BLOCKS))
        self.rngs = {name: np.random.default_rng(s) for name, s in zip(_BLOCKS, seqs)}
        self.p = dataset.p
        self.dims = self.p + sum(t.K for t in self.terms)
        self._designs = [t.design for t in self.terms]

        spec = config.frailty
        self.spec = spec
        self.has_frailty = spec.kind != "none"
        self.has_phi = spec.kind == "grf"
        self.m = dataset.m if self.has_frailty else 0
        if self.has_frailty and spec.kind in ("icar", "grf") and spec.m != dataset.m:
            raise ValueError(f"frailty structure has {spec.m} sites but data has {dataset.m}")

        # priors
        est = prerun_est
        self.theta0 = np.asarray(config.theta0, dtype=float) if config.theta0 is not None \
            else (est.theta_hat if est else np.zeros(2))
        V0 = np.asarray(config.V0, dtype=float) if config.V0 is not None \
            else (10.0 * est.V_hat if est else np.eye(2))
        self.V0inv = np.linalg.inv(V0)
        self.W0inv = self._regression_prior_precision()
        if self.has_phi:
            self.phi0 = spec.phi0()
            self.b_phi = config.b_phi if config.b_phi is not None \
                else (config.a_phi - 1.0) / self.phi0
        # proposals: the lower Cholesky factor of each block's fixed covariance
        covs = {"z": _SEED_SCALE * np.eye(config.J - 1),
                "theta": est.V_hat if est else _SEED_SCALE * np.eye(2),
                "alpha": _SEED_SCALE * np.eye(1)}
        if self.dims:
            covs["beta"] = est.W_hat if est else _SEED_SCALE * np.eye(self.dims)
        if self.has_phi:
            covs["phi"] = _SEED_SCALE * np.eye(1)
        self.prop = {block: np.linalg.cholesky(cov) for block, cov in covs.items()}

        # initial state
        beta_init = est.beta_hat.copy() if est else np.zeros(self.dims)
        phi_init = self.phi0 if self.has_phi else 0.0
        self.state = ChainState(
            z=np.zeros(config.J - 1),
            theta=self.theta0.copy(),
            beta=beta_init,
            gamma=np.ones(self.p),
            v=np.zeros(self.m) if self.has_frailty else None,
            alpha=1.0,
            tau2=1.0,
            phi=phi_init,
        )
        self.state.w = weights_from_logits(self.state.z)
        self.state.coef = bernstein_coefficients(self.state.w)
        self.structure = None
        if self.has_frailty:
            self.structure = fr.build_structure(spec, phi=phi_init if self.has_phi else None,
                                                m=self.m)
        self.ranges = None  # run()'s range worker, None without one
        self.structure_wait = 0.0
        self.accept = {k: 0 for k in ("z", "theta", "beta", "alpha", "phi")}
        self.accept_frailty = 0
        self.n_sweeps = 0
        self.nonfinite_rejects = 0
        self._refresh_likelihood()

    # -- setup helpers ------------------------------------------------------

    def _regression_prior_precision(self):
        cfg = self.cfg
        blocks = []
        if self.p:
            if cfg.selection:
                Xc = self.ds.X - self.ds.X.mean(axis=0)
                xtx = Xc.T @ Xc
                try:
                    xtx_inv = np.linalg.inv(xtx)
                except np.linalg.LinAlgError:
                    import warnings
                    warnings.warn("singular centered X'X; adding ridge for the g-prior")
                    xtx_inv = np.linalg.inv(xtx + 1e-8 * np.eye(self.p))
                g = gprior_scale(self.p)
                W0 = g * self.ds.n * xtx_inv
                blocks.append(np.linalg.inv(W0))
            else:
                blocks.append(np.eye(self.p) / cfg.beta_prior_var)
        for t in self.terms:
            blocks.append(np.linalg.inv(t.prior_cov))
        out = np.zeros((self.dims, self.dims))  # the blocks on the diagonal
        i = 0
        for b in blocks:
            j = i + b.shape[0]
            out[i:j, i:j] = b
            i = j
        return out

    def _effective_beta(self, beta=None, gamma=None):
        beta = self.state.beta if beta is None else beta
        gamma = self.state.gamma if gamma is None else gamma
        eff = beta.copy()
        if self.p:
            eff[:self.p] = beta[:self.p] * gamma
        return eff

    def _etas(self, beta=None, gamma=None):
        """(eta without the frailty term, eta) at a regression block."""
        eta_lin = linear_predictor(self.ds.X, self._designs, self._effective_beta(beta, gamma))
        return eta_lin, self._eta(eta_lin)

    def _eta(self, eta_lin):
        if self.has_frailty:
            return eta_lin + self.state.v[self.ev.loc0]
        return eta_lin

    def _refresh_likelihood(self):
        self.eta_lin, self.eta = self._etas()
        self.cache = self.ev.build_cache(self.state.theta, self.eta)
        self.state.ll_obs = self.ev.loglik_obs(self.cache, self.state.coef, self.eta)

    def _regression_logprior(self, beta):
        if not self.dims:
            return 0.0
        return -0.5 * float(beta @ self.W0inv @ beta)

    # -- block updates ------------------------------------------------------

    def _draw(self, block):
        """The step L e from the block's fixed factor L = prop[block] (e
        standard normal), then log u."""
        L, rng = self.prop[block], self.rngs[block]
        step = L @ rng.standard_normal(L.shape[0])
        return step, math.log(rng.uniform())

    def _metropolis(self, block, x, target, positive=False, drawn=None):
        """One random-walk Metropolis step of `block` from state x.

        Takes the step and log u from _draw(block), or from drawn when the
        caller drew them already; x* = x + step.
        When x* is in the support (x*[0] > 0 for a positive block), target(x*)
        returns (ll*, log_ratio, extra): the proposal's per-observation
        log-likelihood (None for a block the likelihood does not see), the
        rest of the log acceptance ratio, and anything the caller needs on
        acceptance.  A non-finite total ll* is counted and rejected.  Returns
        (x*, ll*, extra) on acceptance, else None.
        """
        step, logu = self._draw(block) if drawn is None else drawn
        x_star = x + step
        hit = None
        if not positive or x_star[0] > 0.0:
            ll_star, log_ratio, extra = target(x_star)
            if ll_star is not None:
                lt = float(ll_star.sum())
                if np.isfinite(lt):
                    log_ratio = lt - self.state.ll_total + log_ratio
                else:
                    self.nonfinite_rejects += 1
                    log_ratio = -math.inf
            if logu < log_ratio:
                hit = x_star, ll_star, extra
                self.accept[block] += 1
        return hit

    def update_z(self):
        st = self.state

        def target(z):
            w = weights_from_logits(z)
            coef = bernstein_coefficients(w)
            # full conditional: likelihood times prod_j w_j^alpha (Jacobian included)
            dprior = st.alpha * float(np.log(w).sum() - np.log(st.w).sum())
            return self.ev.loglik_obs(self.cache, coef, self.eta), dprior, (w, coef)

        hit = self._metropolis("z", st.z, target)
        if hit:
            st.z, st.ll_obs, (st.w, st.coef) = hit

    def update_theta(self):
        st = self.state

        def target(theta):
            cache = self.ev.build_cache(theta, self.eta)
            d0, d1 = st.theta - self.theta0, theta - self.theta0
            dprior = -0.5 * float(d1 @ self.V0inv @ d1 - d0 @ self.V0inv @ d0)
            return self.ev.loglik_obs(cache, st.coef, self.eta), dprior, cache

        hit = self._metropolis("theta", st.theta, target)
        if hit:
            st.theta, st.ll_obs, self.cache = hit

    def update_beta(self):
        if not self.dims:
            return
        st = self.state

        def target(beta):
            eta_lin, eta = self._etas(beta=beta)
            cache = self.ev.cache_for_eta(self.cache, eta)
            dprior = self._regression_logprior(beta) - self._regression_logprior(st.beta)
            return self.ev.loglik_obs(cache, st.coef, eta), dprior, (eta_lin, eta, cache)

        hit = self._metropolis("beta", st.beta, target)
        if hit:
            st.beta, st.ll_obs, (self.eta_lin, self.eta, self.cache) = hit

    def update_alpha(self):
        st = self.state
        cfg = self.cfg

        def logpost(alpha):
            return (dirichlet_symmetric_logpdf(st.w, alpha)
                    + (cfg.a_alpha - 1.0) * math.log(alpha) - cfg.b_alpha * alpha)

        def target(x):
            return None, logpost(float(x[0])) - logpost(st.alpha), None

        hit = self._metropolis("alpha", np.array([st.alpha]), target, positive=True)
        if hit:
            st.alpha = float(hit[0][0])

    def update_frailties(self):
        """One Metropolis scan over sites with conditional-prior-variance proposals.

        The likelihood difference for every site is computed in a single
        vectorized evaluation (each site's likelihood depends only on its own
        frailty).  The prior terms use each site's full conditional, mean
        v_i - (C v)_i / C_ii and variance tau2 / C_ii (Rue & Held 2005,
        Thm 2.3), read from the structure's precision kernel C for every
        frailty kind, with C v kept current as sites change: an accepted site
        adds its row of C times its change, which equals its column since C
        is exactly symmetric.  The per-site arithmetic runs on Python floats.
        For a random field the first scan after an accepted range forms
        C = R^{-1} from the structure's factor.  After an ICAR scan the field is
        recentered to mean zero and the cached likelihood refreshed.  For the
        other kinds an observation's new eta is either its proposal or its
        current value, so the cache and ll_obs take each observation's
        columns from the proposal's or the current ones, by the sites
        accepted, with no new evaluation.
        """
        if not self.has_frailty:
            return
        st = self.state
        rng = self.rngs["frailty"]
        m = self.m
        C = self.structure.C
        prec = np.diag(C)
        sd = np.sqrt(st.tau2 / prec)
        eps = rng.standard_normal(m)
        logu = np.log(rng.uniform(size=m))
        v_prop = st.v + sd * eps

        eta_prop = self.eta_lin + v_prop[self.ev.loc0]
        cache_prop = self.ev.cache_for_eta(self.cache, eta_prop)
        ll_prop = self.ev.loglik_obs(cache_prop, st.coef, eta_prop)
        site_prop = self.ev.site_sums(np.where(np.isfinite(ll_prop), ll_prop, -1e306))
        gain = (site_prop - self.ev.site_sums(st.ll_obs)).tolist()

        v = st.v
        Cv = C @ v
        tau2 = st.tau2
        accepted = []
        for i, (p_i, new, old, lu, g) in enumerate(zip(prec.tolist(), v_prop.tolist(),
                                                       v.tolist(), logu.tolist(), gain)):
            mean_i = old - Cv.item(i) / p_i
            dv_new = new - mean_i
            dv_old = old - mean_i
            dprior = -0.5 * p_i / tau2 * (dv_new * dv_new - dv_old * dv_old)
            if lu < g + dprior:
                Cv += C[i] * (new - old)
                accepted.append(i)
        v[accepted] = v_prop[accepted]
        self.accept_frailty += len(accepted)

        if self.spec.kind == "icar":
            v -= v.mean()
            self.eta = self._eta(self.eta_lin)
            self.cache = self.ev.cache_for_eta(self.cache, self.eta)
            st.ll_obs = self.ev.loglik_obs(self.cache, st.coef, self.eta)
        elif accepted:
            moved = np.zeros(m, dtype=bool)
            moved[accepted] = True
            obs = moved[self.ev.loc0]
            self.eta = self._eta(self.eta_lin)
            self.cache = self.ev.merge_caches(obs, cache_prop, self.cache)
            st.ll_obs = np.where(obs, ll_prop, st.ll_obs)

    def update_tau2(self):
        if not self.has_frailty:
            return
        st = self.state
        shape = self.cfg.a_tau + 0.5 * self.structure.rank
        rate = self.cfg.b_tau + 0.5 * self.structure.quad_form(st.v)
        st.tau2 = 1.0 / self.rngs["tau2"].gamma(shape, 1.0 / rate)

    def update_phi(self, drawn=None):
        """Random-walk Metropolis on the range phi, with the step and log u
        drawn (by sweep() when a worker runs) or drawn here.

        A proposal's structure is its correlation matrix factored, with
        logdet_half and v'R^{-1}v read from the factor: frailty.build_structure
        here, or run()'s worker (self.ranges), to which sweep() submitted the
        proposal, when it has one.  A proposal forms no inverse; the accepted
        structure's C is formed by the next frailty scan's first read, or by
        the worker when the next sweep submits its proposal.  A proposal
        whose correlation has no Cholesky factor is rejected and counted in
        nonfinite_rejects.
        """
        if not self.has_phi:
            return
        st = self.state

        def logpost(struct, phi):
            return (struct.logdet_half - 0.5 * struct.quad_form(st.v) / st.tau2
                    + (self.cfg.a_phi - 1.0) * math.log(phi) - self.b_phi * phi)

        def target(x):
            phi = float(x[0])
            try:
                struct = fr.build_structure(self.spec, phi=phi) if self.ranges is None \
                    else self.ranges.result()
            except fr.SingularCorrelation:
                self.nonfinite_rejects += 1
                return None, -math.inf, None
            return None, logpost(struct, phi) - logpost(self.structure, st.phi), struct

        hit = self._metropolis("phi", np.array([st.phi]), target, positive=True, drawn=drawn)
        if hit:
            st.phi, self.structure = float(hit[0][0]), hit[2]
            if self.ranges is not None:
                self.ranges.accept(self.structure)

    def update_gamma(self):
        """Gibbs sweep over inclusion indicators (Bernoulli full conditionals)."""
        if not (self.cfg.selection and self.p):
            return
        st = self.state
        rng = self.rngs["gamma"]
        us = rng.uniform(size=self.p)
        for j in range(self.p):
            gamma_alt = st.gamma.copy()
            gamma_alt[j] = 1.0 - gamma_alt[j]
            eta_lin_alt, eta_alt = self._etas(gamma=gamma_alt)
            cache_alt = self.ev.cache_for_eta(self.cache, eta_alt)
            ll_alt = self.ev.loglik_obs(cache_alt, st.coef, eta_alt)
            lt_alt = float(ll_alt.sum())
            if st.gamma[j] == 1.0:
                ll1, ll0 = st.ll_total, lt_alt
            else:
                ll1, ll0 = lt_alt, st.ll_total
            # P(gamma_j = 1 | else) = q / (q + (1-q) L0/L1), computed in logs
            log_odds = math.log(_Q_INCL) - math.log1p(-_Q_INCL) + ll1 - ll0
            p1 = 1.0 / (1.0 + math.exp(-log_odds)) if abs(log_odds) < 500 \
                else (1.0 if log_odds > 0 else 0.0)
            new = 1.0 if us[j] < p1 else 0.0
            if new != st.gamma[j]:
                st.gamma[j] = new
                st.ll_obs = ll_alt
                self.eta_lin, self.eta, self.cache = eta_lin_alt, eta_alt, cache_alt

    def sweep(self):
        drawn = None
        if self.ranges is not None:  # the worker factors the proposal meanwhile
            drawn = self._draw("phi")
            phi = float((np.array([self.state.phi]) + drawn[0])[0])  # x* as _metropolis forms it
            self.ranges.submit(phi if phi > 0.0 else None)
        self.update_z()
        self.update_theta()
        self.update_beta()
        self.update_alpha()
        self.update_frailties()
        self.update_tau2()
        self.update_phi(drawn)
        self.update_gamma()
        self.n_sweeps += 1

    # -- driver -------------------------------------------------------------

    def acceptance_rates(self):
        denom = max(self.n_sweeps, 1)
        rates = {k: self.accept[k] / denom for k in ("z", "theta", "alpha")}
        if self.dims:
            rates["beta"] = self.accept["beta"] / denom
        if self.has_frailty and self.n_sweeps:
            rates["frailty"] = self.accept_frailty / (self.n_sweeps * self.m)
        if self.has_phi:
            rates["phi"] = self.accept["phi"] / denom
        return rates

    def _draw_blocks(self):
        """The draw layout, in draws.csv column order: one (column names,
        getter on the chain state) pair per block.  split_draws recovers the
        blocks from the names alone."""
        st, p, J = self.state, self.p, self.cfg.J
        covs = self.ds.covariate_names
        blocks = [([f"beta.{c}" for c in covs], lambda: st.beta[:p])]
        if self.cfg.selection:
            blocks.append(([f"gamma.{c}" for c in covs], lambda: st.gamma))
        off = p
        for t in self.terms:
            blocks.append(([f"xi.{t.name}.{i + 1}" for i in range(t.K)],
                           lambda a=off, b=off + t.K: st.beta[a:b]))
            off += t.K
        blocks += [(["theta.1", "theta.2"], lambda: st.theta),
                   ([f"z.{j + 1}" for j in range(J - 1)], lambda: st.z),
                   (["alpha"], lambda: st.alpha)]
        if self.has_frailty:
            blocks.append((["tau2"], lambda: st.tau2))
        if self.has_phi:
            blocks.append((["phi"], lambda: st.phi))
        if self.has_frailty:
            blocks.append(([f"v.{i + 1}" for i in range(self.m)], lambda: st.v))
        return blocks

    @contextlib.contextmanager
    def _range_worker(self, sweeps):
        """For a random-field chain of `sweeps` sweeps, fork the worker
        (frailty.ForkedRanges) of the enclosed sweeps where this process can
        fork one.  On exit, normal or not, the worker is reaped and its wait
        added to structure_wait.  Without a worker the sweeps build in
        process."""
        if self.has_phi and sweeps and hasattr(os, "fork"):
            with contextlib.suppress(OSError):  # no process to spare
                self.ranges = fr.ForkedRanges(self.spec, self.m)
        try:
            yield
        finally:
            ranges, self.ranges = self.ranges, None
            if ranges is not None:
                self.structure_wait += ranges.wait_s
                ranges.close()

    def run(self, t_start=None):
        """Burn-in and saved sweeps; elapsed counts from t_start (default: now).

        A random-field chain runs its range linear algebra in a forked worker
        (_range_worker), with the same draws as sweeps called one by one.
        Each saved state fills one row of an (L, k) matrix, every block
        written into its own slice of the row.
        """
        cfg = self.cfg
        t_start = time.perf_counter() if t_start is None else t_start
        L = cfg.nsave
        names, slots = [], []
        for cols, get in self._draw_blocks():
            slots.append((slice(len(names), len(names) + len(cols)), get))
            names += cols
        mat = np.empty((L, len(names)))
        ll_obs = np.empty((L, self.ds.n))

        with self._range_worker(cfg.nburn + L * cfg.nskip):
            for _ in range(cfg.nburn):
                self.sweep()
            for s in range(L):
                for _ in range(cfg.nskip):
                    self.sweep()
                row = mat[s]
                for sl, get in slots:
                    row[sl] = get()
                ll_obs[s] = self.state.ll_obs

        archive = PosteriorArchive(
            model=cfg.model, family=cfg.family, J=cfg.J,
            covariate_names=list(self.ds.covariate_names),
            names=names, matrix=mat, loglik_obs=ll_obs,
            loglik_at_mean=math.nan, accept_rates=self.acceptance_rates(),
            config=cfg, n=self.ds.n, m=self.ds.m, elapsed=math.nan,
            nonfinite_rejects=self.nonfinite_rejects,
            spline_terms=self.terms, structure_wait=self.structure_wait)
        if L:
            archive.loglik_at_mean = self._loglik_at_posterior_mean(archive)
        archive.elapsed = time.perf_counter() - t_start
        return archive

    def _loglik_at_posterior_mean(self, archive):
        """Plug-in total log-likelihood at the componentwise posterior mean:
        of the weights w rather than their logits z, of theta, of the
        coefficients, and of v.  Each coefficient block is averaged on its
        own: numpy sums a one-column block pairwise, a wider one row by row."""
        draws = archive.draws
        w = archive.weights().mean(axis=0)
        theta = draws["theta"].mean(axis=0)
        ends = np.cumsum([self.p] + [t.K for t in self.terms])[:-1]
        coef = np.concatenate([block.mean(axis=0)
                               for block in np.split(archive.coefficients(), ends, axis=1)])
        v = draws["v"].mean(axis=0) if self.has_frailty else None
        eta = linear_predictor(self.ds.X, self._designs, coef, v, self.ev.loc0)
        cache = self.ev.build_cache(theta, eta)
        return float(self.ev.loglik_obs(cache, bernstein_coefficients(w), eta).sum())


def _block_key(name):
    """The draws key of a draws.csv column: beta.x1 -> beta, xi.x2.3 -> xi_x2."""
    head, _, rest = name.partition(".")
    return "xi_" + rest.rpartition(".")[0] if head == "xi" else head


def split_draws(names, matrix):
    """Per-block draws of an (L, k) draw matrix with draws.csv column names.

    Consecutive columns with one key form a block: 1-D for a column name
    without a dot (alpha, tau2, phi), (L, width) otherwise.  Every block is
    a C-ordered copy, so its summaries sum in the same order whether the
    matrix came from a chain or from draws.csv.  beta is always present.
    """
    draws = {"beta": np.empty((matrix.shape[0], 0))}
    start = 0
    for key, cols in itertools.groupby(names, _block_key):
        cols = list(cols)
        block = matrix[:, start] if cols == [key] else matrix[:, start:start + len(cols)]
        draws[key] = block.copy()
        start += len(cols)
    return draws


@dataclass
class PosteriorArchive:
    """Retained draws plus everything the criteria and diagnostics need.

    names and matrix hold the draws as draws.csv does, one row per retained
    draw; draws is their split into blocks (split_draws); spline_terms are
    in xi block order.  config is None for an archive loaded from disk.
    """

    model: str
    family: str
    J: int
    covariate_names: list
    names: list
    matrix: np.ndarray
    loglik_obs: np.ndarray
    loglik_at_mean: float
    accept_rates: dict
    config: McmcConfig
    n: int
    m: int
    elapsed: float
    nonfinite_rejects: int = 0
    spline_terms: list = field(default_factory=list)
    structure_wait: float = 0.0  # seconds the chain waited on its range worker
    prerun: dict = None       # PrerunEstimates.figures; None without a fit
    draws: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.draws = split_draws(self.names, self.matrix)

    @property
    def spline_names(self):
        return [t.name for t in self.spline_terms]

    @property
    def L(self):
        return self.loglik_obs.shape[0]

    @property
    def loglik_total(self):
        """The total log-likelihood of each draw, summed as the chain sums
        ChainState.ll_total."""
        return self.loglik_obs.sum(axis=1)

    def weights(self):
        """Baseline weight vectors, one row per draw of z."""
        return weights_from_logits(self.draws["z"])

    def fitted_baseline_survival(self, tgrid):
        """Posterior mean of S0(t) over the grid."""
        tgrid = np.asarray(tgrid, dtype=float)
        W = self.weights()
        acc = np.zeros_like(tgrid)
        for s in range(self.L):
            x = family_survival(self.family, self.draws["theta"][s], tgrid)
            np.clip(x, _CLAMP, 1.0 - _CLAMP, out=x)
            cs = bernstein_coefficients(W[s])[0]
            acc += bernstein_survival(cs, bernstein_monomials(x, self.J)[0])
        return acc / self.L

    def coefficients(self):
        """The regression block of each draw as linear_predictor takes it,
        one row per draw: beta * gamma (beta without selection), then each
        spline term's xi in term order."""
        beta = self.draws["beta"]
        if "gamma" in self.draws:
            beta = beta * self.draws["gamma"]
        return np.concatenate([beta, *(self.draws[f"xi_{t.name}"] for t in self.spline_terms)],
                              axis=1)

    def submodel_table(self):
        """Sub-model visit proportions under variable selection, best first."""
        if "gamma" not in self.draws:
            raise ValueError("run had selection disabled")
        counts = {}
        for row in self.draws["gamma"].astype(int):
            key = tuple(np.flatnonzero(row) + 1)
            counts[key] = counts.get(key, 0) + 1
        total = sum(counts.values())
        table = [(key, c / total) for key, c in counts.items()]
        table.sort(key=lambda kv: (-kv[1], kv[0]))
        return table


def run_chain(dataset, config):
    """The parametric Laplace fit followed by the main chain, both of the
    model the config states; returns the archive.

    The archive's elapsed time covers both, and archive.prerun carries the
    fit's figures.
    """
    t_start = time.perf_counter()
    est = parametric_prerun(dataset, config)
    archive = ChainSampler(dataset, config, est).run(t_start)
    archive.prerun = est.figures
    return archive
