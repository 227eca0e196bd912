"""Block-adaptive MCMC for the semiparametric survival models.

One sweep updates, in order: baseline weight logits z, centering parameters
theta, regression block (beta and any spline coefficients), the weight-prior
precision alpha, frailties v site by site, tau^2 by a Gibbs draw, the range
parameter phi (random fields only), and the inclusion indicators gamma when
variable selection is on.  The z/theta/beta/alpha/phi blocks use Gaussian
random-walk proposals whose covariance switches from a fixed seed matrix to
(2.4^2/d) times the running sample covariance of the chain after l0
iterations.

A short pre-run with weights pinned at 1/J (the parametric special case) and
vague priors supplies starting values, the informative theta prior, and the
initial proposal covariances for theta and beta.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import frailty as fr
from .baseline import (
    CenteringFamily,
    TbpBaseline,
    dirichlet_symmetric_logpdf,
    weights_from_logits,
)
from .models import LikelihoodEvaluator, linear_predictor
from .splines import build_basis, gprior_scale

_BLOCKS = ("prerun", "init", "z", "theta", "beta", "alpha", "frailty", "tau2",
           "phi", "gamma")


@dataclass
class McmcConfig:
    """Run settings and hyperparameters.

    Defaults follow the source methodology: W0 = 1e10 I (or the g-prior with
    M=10, q=0.9 under selection), theta0/V0 from the pre-run with V0 = 10 Vhat,
    a_alpha = b_alpha = 1, a_tau = b_tau = 0.001, a_phi = 2 with
    b_phi = (a_phi - 1)/phi0, and seed proposal scales 0.16 for z, alpha, phi.
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
    # adaptive proposals
    l0: int = 5000
    z_sigma0: float = 0.16
    alpha_sigma0: float = 0.16
    phi_sigma0: float = 0.16
    beta_sigma0: np.ndarray = None  # default: pre-run What
    theta_sigma0: np.ndarray = None  # default: pre-run Vhat
    # variable selection
    selection: bool = False
    q_incl: float = 0.5
    sel_M: float = 10.0
    sel_q: float = 0.9
    # partially linear terms
    nonlinear: tuple = ()
    spline_K: int = 5
    # frailties
    frailty: fr.FrailtySpec = field(default_factory=fr.FrailtySpec)
    # initial values
    alpha_init: float = 1.0
    tau2_init: float = 1.0
    phi_init: float = None
    # pre-run
    prerun: bool = True
    prerun_iters: int = 2000
    prerun_burn: int = 1000
    # diagnostics
    debug_checks: bool = False
    keep_loglik: bool = True


@dataclass
class ChainState:
    """Current parameter values plus the cached per-observation log-likelihood."""

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

    @property
    def ll_total(self):
        return float(self.ll_obs.sum())


class AdaptiveProposal:
    """Random-walk proposal with the running-covariance adaptation rule.

    The proposal covariance equals sigma0 for the first l0 recorded states and
    (2.4^2 / d) (C_l + 1e-10 I) afterwards, C_l being the sample covariance of
    all past states of the block (rejections included).
    """

    def __init__(self, dim, sigma0, l0, jitter=1e-10):
        self.d = int(dim)
        sigma0 = np.atleast_2d(np.asarray(sigma0, dtype=float))
        if sigma0.shape == (1, 1) and self.d > 1:
            sigma0 = sigma0[0, 0] * np.eye(self.d)
        self.sigma0 = sigma0
        self._chol0 = np.linalg.cholesky(sigma0)
        self.l0 = int(l0)
        self.jitter = jitter
        self.count = 0
        self._mean = np.zeros(self.d)
        self._m2 = np.zeros((self.d, self.d))

    def record(self, x):
        """Streaming mean/covariance update with the post-decision state."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        self.count += 1
        delta = x - self._mean
        self._mean += delta / self.count
        self._m2 += np.outer(delta, x - self._mean)

    def covariance(self):
        if self.count < 2:
            return None
        return self._m2 / (self.count - 1)

    def current_sigma(self):
        if self.count <= self.l0:
            return self.sigma0
        cov = self.covariance()
        return (2.4 ** 2 / self.d) * (cov + self.jitter * np.eye(self.d))

    def step(self, rng):
        if self.count <= self.l0:
            L = self._chol0
        else:
            sigma = self.current_sigma()
            try:
                L = np.linalg.cholesky(sigma)
            except np.linalg.LinAlgError:
                L = self._chol0
        return L @ rng.standard_normal(self.d)


@dataclass
class PrerunEstimates:
    theta_hat: np.ndarray
    V_hat: np.ndarray
    beta_hat: np.ndarray
    W_hat: np.ndarray


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


def _spawn_rngs(seed):
    seqs = np.random.SeedSequence(seed).spawn(len(_BLOCKS))
    return {name: np.random.default_rng(s) for name, s in zip(_BLOCKS, seqs)}


def parametric_prerun(dataset, config, spline_terms=None, rng=None):
    """Short pinned-weights chain giving (theta_hat, V_hat, beta_hat, W_hat).

    Runs the same Metropolis blocks for theta and the regression vector with
    w fixed at 1/J, vague priors, and no frailties or selection.  The
    posterior means/covariances seed the main chain's theta prior and the
    initial proposal covariances.
    """
    if dataset.n == 0:
        raise ValueError("the parametric pre-run needs at least one observation")
    spline_terms = spline_terms or []
    rng = rng or np.random.default_rng(config.seed)
    ev = LikelihoodEvaluator(dataset, config.model, config.family, config.J)
    w = np.full(config.J, 1.0 / config.J)
    p = dataset.p
    dims = p + sum(t.K for t in spline_terms)
    designs = [t.design for t in spline_terms]

    theta = _theta_moment_init(dataset, config.family)
    beta = np.zeros(dims)
    eta = linear_predictor(dataset.X, designs, beta)
    cache = ev.build_cache(theta, eta)
    ll = ev.loglik_obs(cache, w, eta)
    if not np.all(np.isfinite(ll)):
        bad = int(np.flatnonzero(~np.isfinite(ll))[0])
        raise ValueError(f"non-finite likelihood at initialization (observation {bad}); "
                         "check for zero-probability intervals")
    ll_tot = float(ll.sum())

    col_scale = np.concatenate([
        1.0 / np.maximum(dataset.X.var(axis=0), 0.05) if p else np.zeros(0),
        *[1.0 / np.maximum(D.var(axis=0), 0.05) for D in designs]]) if dims else np.zeros(0)
    prop_theta = AdaptiveProposal(2, 0.16 * np.eye(2), l0=200)
    prop_beta = AdaptiveProposal(dims, 0.16 * np.diag(col_scale), l0=200) if dims else None
    vague_theta, vague_beta = 1e-6, 1e-10  # prior precisions

    keep_theta, keep_beta = [], []
    for it in range(config.prerun_iters):
        th_star = theta + prop_theta.step(rng)
        cache_star = ev.build_cache(th_star, eta)
        ll_star = ev.loglik_obs(cache_star, w, eta)
        lt = float(ll_star.sum())
        dprior = -0.5 * vague_theta * (th_star @ th_star - theta @ theta)
        if np.isfinite(lt) and math.log(rng.uniform()) < lt - ll_tot + dprior:
            theta, cache, ll, ll_tot = th_star, cache_star, ll_star, lt
        prop_theta.record(theta)

        if dims:
            b_star = beta + prop_beta.step(rng)
            eta_star = linear_predictor(dataset.X, designs, b_star)
            cache_b = ev.cache_for_eta(cache, eta_star)
            ll_star = ev.loglik_obs(cache_b, w, eta_star)
            lt = float(ll_star.sum())
            dprior = -0.5 * vague_beta * (b_star @ b_star - beta @ beta)
            if np.isfinite(lt) and math.log(rng.uniform()) < lt - ll_tot + dprior:
                beta, eta, cache, ll, ll_tot = b_star, eta_star, cache_b, ll_star, lt
            prop_beta.record(beta)

        if it >= config.prerun_burn:
            keep_theta.append(theta.copy())
            keep_beta.append(beta.copy())

    TH = np.array(keep_theta)
    BE = np.array(keep_beta) if dims else np.zeros((len(keep_theta), 0))
    V_hat = np.cov(TH.T) + 1e-8 * np.eye(2)
    W_hat = (np.cov(BE.T).reshape(dims, dims) + 1e-8 * np.eye(dims)) if dims \
        else np.zeros((0, 0))
    return PrerunEstimates(theta_hat=TH.mean(axis=0), V_hat=V_hat,
                           beta_hat=BE.mean(axis=0), W_hat=W_hat)


class ChainSampler:
    """One MCMC chain; construct, then call run().

    The per-block update methods are exposed individually so tests can drive
    a single block against its full conditional.
    """

    def __init__(self, dataset, config, spline_terms=None, prerun_est=None, rngs=None):
        self.ds = dataset
        self.cfg = config
        self.terms = list(spline_terms or [])
        self.ev = LikelihoodEvaluator(dataset, config.model, config.family, config.J)
        self.rngs = rngs or _spawn_rngs(config.seed)
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
        # proposals
        theta_sigma0 = config.theta_sigma0 if config.theta_sigma0 is not None \
            else (est.V_hat if est else 0.16 * np.eye(2))
        beta_sigma0 = config.beta_sigma0 if config.beta_sigma0 is not None \
            else (est.W_hat if est and est.W_hat.size else 0.16 * np.eye(self.dims))
        self.prop = {
            "z": AdaptiveProposal(config.J - 1, config.z_sigma0 * np.eye(config.J - 1),
                                  config.l0),
            "theta": AdaptiveProposal(2, theta_sigma0, config.l0),
            "alpha": AdaptiveProposal(1, config.alpha_sigma0, config.l0),
        }
        if self.dims:
            self.prop["beta"] = AdaptiveProposal(self.dims, beta_sigma0, config.l0)
        if self.has_phi:
            self.prop["phi"] = AdaptiveProposal(1, config.phi_sigma0, config.l0)

        # initial state
        beta_init = np.zeros(self.dims)
        if est is not None and est.beta_hat.size == self.dims:
            beta_init = est.beta_hat.copy()
        phi_init = (config.phi_init if config.phi_init is not None
                    else (self.phi0 if self.has_phi else 0.0))
        self.state = ChainState(
            z=np.zeros(config.J - 1),
            theta=self.theta0.copy(),
            beta=beta_init,
            gamma=np.ones(self.p),
            v=np.zeros(self.m) if self.has_frailty else None,
            alpha=config.alpha_init,
            tau2=config.tau2_init,
            phi=phi_init,
        )
        self.state.w = weights_from_logits(self.state.z)
        self.structure = None
        if self.has_frailty:
            self.structure = fr.build_structure(spec, phi=phi_init if self.has_phi else None,
                                                m=self.m)
        self.accept = {k: 0 for k in ("z", "theta", "beta", "alpha", "phi")}
        self.accept_frailty = 0
        self._frailty_scans = 0
        self.n_sweeps = 0
        self.nonfinite_rejects = 0
        self._refresh_likelihood()

    # -- setup helpers ------------------------------------------------------

    def _regression_prior_precision(self):
        cfg = self.cfg
        blocks = []
        if self.p:
            if cfg.selection:
                xtx = self.ds.Xc.T @ self.ds.Xc
                try:
                    xtx_inv = np.linalg.inv(xtx)
                except np.linalg.LinAlgError:
                    import warnings
                    warnings.warn("singular centered X'X; adding ridge for the g-prior")
                    xtx_inv = np.linalg.inv(xtx + 1e-8 * np.eye(self.p))
                g = gprior_scale(self.p, cfg.sel_M, cfg.sel_q)
                W0 = g * self.ds.n * xtx_inv
                blocks.append(np.linalg.inv(W0))
            else:
                blocks.append(np.eye(self.p) / cfg.beta_prior_var)
        for t in self.terms:
            blocks.append(np.linalg.inv(t.prior_cov))
        if not blocks:
            return np.zeros((0, 0))
        out = np.zeros((self.dims, self.dims))
        off = 0
        for blk in blocks:
            k = blk.shape[0]
            out[off:off + k, off:off + k] = blk
            off += k
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
        self.state.ll_obs = self.ev.loglik_obs(self.cache, self.state.w, self.eta)

    def _regression_logprior(self, beta):
        if not self.dims:
            return 0.0
        return -0.5 * float(beta @ self.W0inv @ beta)

    # -- block updates ------------------------------------------------------

    def update_z(self):
        st = self.state
        rng = self.rngs["z"]
        step = self.prop["z"].step(rng)
        logu = math.log(rng.uniform())
        z_star = st.z + step
        w_star = weights_from_logits(z_star)
        ll_star = self.ev.loglik_obs(self.cache, w_star, self.eta)
        lt = float(ll_star.sum())
        # full conditional: likelihood times prod_j w_j^alpha (Jacobian included)
        dprior = st.alpha * float(np.log(w_star).sum() - np.log(st.w).sum())
        ok = np.isfinite(lt)
        if not ok:
            self.nonfinite_rejects += 1
        if ok and logu < lt - st.ll_total + dprior:
            st.z, st.w, st.ll_obs = z_star, w_star, ll_star
            self.accept["z"] += 1
        self.prop["z"].record(st.z)

    def update_theta(self):
        st = self.state
        rng = self.rngs["theta"]
        step = self.prop["theta"].step(rng)
        logu = math.log(rng.uniform())
        th_star = st.theta + step
        cache_star = self.ev.build_cache(th_star, self.eta)
        ll_star = self.ev.loglik_obs(cache_star, st.w, self.eta)
        lt = float(ll_star.sum())
        d0 = st.theta - self.theta0
        d1 = th_star - self.theta0
        dprior = -0.5 * float(d1 @ self.V0inv @ d1 - d0 @ self.V0inv @ d0)
        ok = np.isfinite(lt)
        if not ok:
            self.nonfinite_rejects += 1
        if ok and logu < lt - st.ll_total + dprior:
            st.theta, self.cache, st.ll_obs = th_star, cache_star, ll_star
            self.accept["theta"] += 1
        self.prop["theta"].record(st.theta)

    def update_beta(self):
        if not self.dims:
            return
        st = self.state
        rng = self.rngs["beta"]
        step = self.prop["beta"].step(rng)
        logu = math.log(rng.uniform())
        b_star = st.beta + step
        eta_lin_star, eta_star = self._etas(beta=b_star)
        cache_star = self.ev.cache_for_eta(self.cache, eta_star)
        ll_star = self.ev.loglik_obs(cache_star, st.w, eta_star)
        lt = float(ll_star.sum())
        dprior = self._regression_logprior(b_star) - self._regression_logprior(st.beta)
        ok = np.isfinite(lt)
        if not ok:
            self.nonfinite_rejects += 1
        if ok and logu < lt - st.ll_total + dprior:
            st.beta, st.ll_obs = b_star, ll_star
            self.eta_lin, self.eta, self.cache = eta_lin_star, eta_star, cache_star
            self.accept["beta"] += 1
        self.prop["beta"].record(st.beta)

    def update_alpha(self):
        st = self.state
        rng = self.rngs["alpha"]
        step = float(self.prop["alpha"].step(rng)[0])
        logu = math.log(rng.uniform())
        a_star = st.alpha + step
        if a_star > 0.0:
            cfg = self.cfg
            cur = (dirichlet_symmetric_logpdf(st.w, st.alpha)
                   + (cfg.a_alpha - 1.0) * math.log(st.alpha) - cfg.b_alpha * st.alpha)
            new = (dirichlet_symmetric_logpdf(st.w, a_star)
                   + (cfg.a_alpha - 1.0) * math.log(a_star) - cfg.b_alpha * a_star)
            if logu < new - cur:
                st.alpha = a_star
                self.accept["alpha"] += 1
        self.prop["alpha"].record(np.array([st.alpha]))

    def update_frailties(self):
        """One Metropolis scan over sites with conditional-prior-variance proposals.

        The likelihood difference for every site is computed in a single
        vectorized evaluation (each site's likelihood depends only on its own
        frailty); the prior terms use the sequentially updated field.  After an
        ICAR scan the field is recentered to mean zero and the cached
        likelihood refreshed.
        """
        if not self.has_frailty:
            return
        st = self.state
        rng = self.rngs["frailty"]
        m = self.m
        prec = self.structure.diag
        sd = np.sqrt(st.tau2 / prec)
        eps = rng.standard_normal(m)
        logu = np.log(rng.uniform(size=m))
        v_prop = st.v + sd * eps

        eta_prop = self.eta_lin + v_prop[self.ev.loc0]
        ll_prop = self.ev.loglik_obs(self.ev.cache_for_eta(self.cache, eta_prop), st.w, eta_prop)
        site_prop = self.ev.site_sums(np.where(np.isfinite(ll_prop), ll_prop, -1e306))
        site_cur = self.ev.site_sums(st.ll_obs)

        kind = self.spec.kind
        C = self.structure.C
        if kind == "icar":
            neigh = self.spec.adjacency @ st.v  # sum of neighbor values per site
        elif kind == "grf":
            Cv = C @ st.v
        accepted = np.zeros(m, dtype=bool)
        v = st.v
        for i in range(m):
            if kind == "iid":
                mean_i = 0.0
            elif kind == "icar":
                mean_i = neigh[i] / prec[i]
            else:
                mean_i = -(Cv[i] - prec[i] * v[i]) / prec[i]
            dv_new = v_prop[i] - mean_i
            dv_old = v[i] - mean_i
            dprior = -0.5 * prec[i] / st.tau2 * (dv_new * dv_new - dv_old * dv_old)
            if logu[i] < site_prop[i] - site_cur[i] + dprior:
                delta = v_prop[i] - v[i]
                v[i] = v_prop[i]
                accepted[i] = True
                if kind == "icar":
                    neigh += self.spec.adjacency[:, i] * delta
                elif kind == "grf":
                    Cv += C[:, i] * delta
        self.accept_frailty += int(accepted.sum())
        self._frailty_scans += 1

        if kind == "icar":
            v -= v.mean()
        if kind == "icar" or accepted.any():
            self.eta = self._eta(self.eta_lin)
            self.cache = self.ev.cache_for_eta(self.cache, self.eta)
            st.ll_obs = self.ev.loglik_obs(self.cache, st.w, self.eta)

    def update_tau2(self):
        if not self.has_frailty:
            return
        st = self.state
        shape = self.cfg.a_tau + 0.5 * self.structure.rank
        rate = self.cfg.b_tau + 0.5 * self.structure.quad_form(st.v)
        st.tau2 = 1.0 / self.rngs["tau2"].gamma(shape, 1.0 / rate)

    def update_phi(self):
        if not self.has_phi:
            return
        st = self.state
        rng = self.rngs["phi"]
        step = float(self.prop["phi"].step(rng)[0])
        logu = math.log(rng.uniform())
        phi_star = st.phi + step
        if phi_star > 0.0:
            struct_star = fr.build_structure(self.spec, phi=phi_star, m=self.m)

            def logpost(struct, phi):
                return (struct.logdet_half - 0.5 * struct.quad_form(st.v) / st.tau2
                        + (self.cfg.a_phi - 1.0) * math.log(phi) - self.b_phi * phi)

            if logu < logpost(struct_star, phi_star) - logpost(self.structure, st.phi):
                st.phi = phi_star
                self.structure = struct_star
                self.accept["phi"] += 1
        self.prop["phi"].record(np.array([st.phi]))

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
            ll_alt = self.ev.loglik_obs(cache_alt, st.w, eta_alt)
            lt_alt = float(ll_alt.sum())
            if st.gamma[j] == 1.0:
                ll1, ll0 = st.ll_total, lt_alt
            else:
                ll1, ll0 = lt_alt, st.ll_total
            q = self.cfg.q_incl
            # P(gamma_j = 1 | else) = q / (q + (1-q) L0/L1), computed in logs
            log_odds = math.log(q) - math.log1p(-q) + ll1 - ll0
            p1 = 1.0 / (1.0 + math.exp(-log_odds)) if abs(log_odds) < 500 \
                else (1.0 if log_odds > 0 else 0.0)
            new = 1.0 if us[j] < p1 else 0.0
            if new != st.gamma[j]:
                st.gamma[j] = new
                st.ll_obs = ll_alt
                self.eta_lin, self.eta, self.cache = eta_lin_alt, eta_alt, cache_alt

    def sweep(self):
        self.update_z()
        self.update_theta()
        self.update_beta()
        self.update_alpha()
        self.update_frailties()
        self.update_tau2()
        self.update_phi()
        self.update_gamma()
        self.n_sweeps += 1
        if self.cfg.debug_checks:
            fresh = self.ev.loglik_obs(self.ev.build_cache(self.state.theta, self.eta),
                                       self.state.w, self.eta)
            if not np.allclose(fresh, self.state.ll_obs, atol=1e-10, equal_nan=True):
                raise AssertionError("cached log-likelihood diverged from a fresh evaluation")

    # -- driver -------------------------------------------------------------

    def acceptance_rates(self):
        denom = max(self.n_sweeps, 1)
        rates = {k: self.accept[k] / denom for k in ("z", "theta", "alpha")}
        if self.dims:
            rates["beta"] = self.accept["beta"] / denom
        if self.has_frailty and self._frailty_scans:
            rates["frailty"] = self.accept_frailty / (self._frailty_scans * self.m)
        if self.has_phi:
            rates["phi"] = self.accept["phi"] / denom
        return rates

    def run(self, t_start=None):
        """Burn-in and saved sweeps; elapsed counts from t_start (default: now)."""
        cfg = self.cfg
        t_start = time.perf_counter() if t_start is None else t_start
        for _ in range(cfg.nburn):
            self.sweep()
        L = cfg.nsave
        draws = {
            "z": np.empty((L, cfg.J - 1)),
            "theta": np.empty((L, 2)),
            "beta": np.empty((L, self.p)),
            "alpha": np.empty(L),
        }
        if cfg.selection:
            draws["gamma"] = np.empty((L, self.p))
        for t in self.terms:
            draws[f"xi_{t.name}"] = np.empty((L, t.K))
        if self.has_frailty:
            draws["v"] = np.empty((L, self.m))
            draws["tau2"] = np.empty(L)
        if self.has_phi:
            draws["phi"] = np.empty(L)
        ll_obs = np.empty((L, self.ds.n)) if cfg.keep_loglik else None
        ll_total = np.empty(L)

        for s in range(L):
            for _ in range(cfg.nskip):
                self.sweep()
            st = self.state
            draws["z"][s] = st.z
            draws["theta"][s] = st.theta
            draws["beta"][s] = st.beta[:self.p]
            draws["alpha"][s] = st.alpha
            if cfg.selection:
                draws["gamma"][s] = st.gamma
            off = self.p
            for t in self.terms:
                draws[f"xi_{t.name}"][s] = st.beta[off:off + t.K]
                off += t.K
            if self.has_frailty:
                draws["v"][s] = st.v
                draws["tau2"][s] = st.tau2
            if self.has_phi:
                draws["phi"][s] = st.phi
            if ll_obs is not None:
                ll_obs[s] = st.ll_obs
            ll_total[s] = st.ll_total

        ll_at_mean = self._loglik_at_posterior_mean(draws) if L else math.nan
        elapsed = time.perf_counter() - t_start
        return PosteriorArchive(
            model=cfg.model, family=cfg.family, J=cfg.J,
            covariate_names=list(self.ds.covariate_names),
            spline_names=[t.name for t in self.terms],
            draws=draws, loglik_obs=ll_obs, loglik_total=ll_total,
            loglik_at_mean=ll_at_mean, accept_rates=self.acceptance_rates(),
            config=cfg, n=self.ds.n, m=self.ds.m, elapsed=elapsed,
            nonfinite_rejects=self.nonfinite_rejects,
            spline_terms=self.terms)

    def _loglik_at_posterior_mean(self, draws):
        """Plug-in total log-likelihood at the componentwise posterior mean
        (sampling scales; effective coefficients averaged under selection)."""
        w = weights_from_logits(draws["z"].mean(axis=0))
        theta = draws["theta"].mean(axis=0)
        if self.cfg.selection:
            beta_eff = (draws["beta"] * draws["gamma"]).mean(axis=0)
        else:
            beta_eff = draws["beta"].mean(axis=0)
        coef = np.concatenate([beta_eff, *(draws[f"xi_{t.name}"].mean(axis=0)
                                           for t in self.terms)])
        v = draws["v"].mean(axis=0) if self.has_frailty else None
        eta = linear_predictor(self.ds.X, self._designs, coef, v, self.ev.loc0)
        cache = self.ev.build_cache(theta, eta)
        return float(self.ev.loglik_obs(cache, w, eta).sum())


@dataclass
class PosteriorArchive:
    """Retained draws plus everything the criteria and diagnostics need."""

    model: str
    family: str
    J: int
    covariate_names: list
    spline_names: list
    draws: dict
    loglik_obs: np.ndarray
    loglik_total: np.ndarray
    loglik_at_mean: float
    accept_rates: dict
    config: McmcConfig
    n: int
    m: int
    elapsed: float
    nonfinite_rejects: int = 0
    spline_terms: list = None

    @property
    def L(self):
        return self.loglik_total.shape[0]

    def weights(self):
        """Baseline weight vectors, one row per draw."""
        Z = self.draws["z"]
        W = np.exp(np.concatenate([Z, np.zeros((Z.shape[0], 1))], axis=1))
        W /= W.sum(axis=1, keepdims=True)
        return W

    def baseline_for_draw(self, s):
        return TbpBaseline(J=self.J, w=self.weights()[s],
                           family=CenteringFamily(self.family,
                                                  tuple(self.draws["theta"][s])))

    def fitted_baseline_survival(self, tgrid):
        """Posterior mean of S0(t) over the grid."""
        from .baseline import bernstein_cdf_rows, family_survival
        from .baseline import _CLAMP
        tgrid = np.asarray(tgrid, dtype=float)
        W = self.weights()
        acc = np.zeros_like(tgrid)
        for s in range(self.L):
            x = family_survival(self.family, self.draws["theta"][s], tgrid)
            np.clip(x, _CLAMP, 1.0 - _CLAMP, out=x)
            acc += W[s] @ bernstein_cdf_rows(x, self.J)
        return acc / self.L

    def effective_beta_draws(self):
        if "gamma" in self.draws:
            return self.draws["beta"] * self.draws["gamma"]
        return self.draws["beta"]

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

    def parameter_matrix(self):
        """Flat (L, k) matrix of all scalar draws with stable column names."""
        cols, names = [], []

        def add(name, arr):
            if arr.ndim == 1:
                cols.append(arr[:, None])
                names.append(name)
            else:
                cols.append(arr)
                names.extend(f"{name}.{i + 1}" for i in range(arr.shape[1]))

        for j, cn in enumerate(self.covariate_names):
            add(f"beta.{cn}", self.draws["beta"][:, j])
        if "gamma" in self.draws:
            for j, cn in enumerate(self.covariate_names):
                add(f"gamma.{cn}", self.draws["gamma"][:, j])
        for name in self.spline_names:
            add(f"xi.{name}", self.draws[f"xi_{name}"])
        add("theta", self.draws["theta"])
        add("z", self.draws["z"])
        add("alpha", self.draws["alpha"])
        if "tau2" in self.draws:
            add("tau2", self.draws["tau2"])
        if "phi" in self.draws:
            add("phi", self.draws["phi"])
        if "v" in self.draws:
            add("v", self.draws["v"])
        return names, (np.concatenate(cols, axis=1) if cols else np.zeros((self.L, 0)))


def run_chain(dataset, config):
    """Pre-run (unless disabled) followed by the main chain; returns the archive.

    The archive's elapsed time covers both.
    """
    t_start = time.perf_counter()
    rngs = _spawn_rngs(config.seed)
    terms = [build_basis(dataset.column(name), config.spline_K, name)
             for name in config.nonlinear]
    est = None
    if config.prerun:
        est = parametric_prerun(dataset, config, terms, rngs["prerun"])
    sampler = ChainSampler(dataset, config, terms, est, rngs)
    return sampler.run(t_start)
