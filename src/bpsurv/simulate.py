"""Data generators for the simulation studies.

The canonical areal design draws n = 37 x 20 subjects with a Bernoulli(0.5)
and a standard normal covariate, beta = (1, 1), a bimodal baseline
S0(t) = 1 - 0.5[Phi(2(log t + 1)) + Phi(2(log t - 1))], and ICAR frailties
with tau^2 = 1 on a bundled 37-region adjacency.  Half of each sample is
right-censored at Uniform(2, 6) times (yielding mostly uncensored records),
the other half is inspected on a Poisson-gap schedule, producing a mix of
roughly 40% exact, 25% left-, 15% interval-, and 20% right-censored records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr

from . import frailty as fr
from .data import CensoredObservation, Dataset, load_adjacency
from .models import model_time, survival_transform

_INF = math.inf


def bundled_adjacency37():
    """The packaged synthetic connected adjacency for 37 areal regions."""
    path = resources.files("bpsurv").joinpath("data/adjacency37.txt")
    with resources.as_file(path) as p:
        return load_adjacency(p)


class BimodalBaseline:
    """Lognormal-mixture truth: S0(t) = 1 - 0.5[Phi(2(log t+1)) + Phi(2(log t-1))]."""

    def survival(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            lt = np.log(t)
        # complementary form avoids cancellation in the far tail
        s = 0.5 * (ndtr(-2.0 * (lt + 1.0)) + ndtr(-2.0 * (lt - 1.0)))
        s = np.where(t <= 0.0, 1.0, s)
        return np.where(np.isposinf(t), 0.0, s)

    def density(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            lt = np.log(t)
            phi1 = np.exp(-0.5 * (2.0 * (lt + 1.0)) ** 2) / math.sqrt(2.0 * math.pi)
            phi2 = np.exp(-0.5 * (2.0 * (lt - 1.0)) ** 2) / math.sqrt(2.0 * math.pi)
            out = (phi1 + phi2) / t
        return np.where((t <= 0.0) | ~np.isfinite(t), 0.0, out)


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


def apply_censoring(times, etas, model, truth, rng):
    """The half right-censoring / half inspection-schedule scheme.

    A random half of the subjects is right-censored at Uniform(2, 6) (true
    times before the censoring time stay exact); the rest get N = Poisson(2)+1
    inspection times with Exp(1) gaps, and the survival time is located within
    the inspection grid (left-censored before the first visit, right-censored
    after the last).
    Returns (a, b) interval arrays.
    """
    n = times.shape[0]
    a = np.empty(n)
    b = np.empty(n)
    perm = rng.permutation(n)
    right_half = perm[:n // 2]
    insp_half = perm[n // 2:]

    cen = rng.uniform(2.0, 6.0, size=right_half.size)
    t_r = times[right_half]
    exact = t_r <= cen
    a[right_half] = np.where(exact, t_r, cen)
    b[right_half] = np.where(exact, t_r, _INF)

    for i in insp_half:
        npois = rng.poisson(2.0) + 1
        visits = np.cumsum(rng.exponential(1.0, size=npois))
        k = int(np.searchsorted(visits, times[i]))
        if k == 0:
            a[i], b[i] = 0.0, visits[0]
        elif k == npois:
            a[i], b[i] = visits[-1], _INF
        else:
            a[i], b[i] = visits[k - 1], visits[k]
    return a, b


def gen_frailty_truth(spec, tau2, rng, phi=None):
    """Draw a true frailty field: ICAR (centered) or GRF or IID."""
    if spec.kind == "icar":
        E = np.asarray(spec.adjacency, dtype=float)
        m = E.shape[0]
        prec = np.diag(E.sum(axis=1)) - E + 1e-10 * np.eye(m)
        cov = tau2 * np.linalg.inv(prec)
        v = rng.multivariate_normal(np.zeros(m), cov, method="cholesky")
        return v - v.mean()
    if spec.kind == "grf":
        R = fr.dense_correlation(spec.coords, phi, spec.nu)
        chol = np.linalg.cholesky(tau2 * R)
        return chol @ rng.standard_normal(R.shape[0])
    if spec.kind == "iid":
        raise ValueError("iid truth needs an explicit size; draw directly")
    return None


def gen_covariates(design, n, rng):
    """The documented covariate designs.

    sim1:    x1 ~ Bernoulli(0.5), x2 ~ N(0,1)                      (p = 2)
    sim4ex1: x1 ~ Bernoulli(0.5), x2..x5 ~ N(0,1)                  (p = 5)
    sim4ex2: as ex1 but x3 = x2 + 0.15 z (0.989 collinearity)      (p = 5)
    sim4ex3: x_k = z + e_k with z, e_k ~ N(0,1) (corr about 0.5)   (p = 10)
    """
    if design == "sim1":
        return np.column_stack([rng.binomial(1, 0.5, n).astype(float),
                                rng.standard_normal(n)])
    if design == "sim4ex1":
        return np.column_stack([rng.binomial(1, 0.5, n).astype(float),
                                rng.standard_normal((n, 4))])
    if design == "sim4ex2":
        x1 = rng.binomial(1, 0.5, n).astype(float)
        x2 = rng.standard_normal(n)
        x3 = x2 + 0.15 * rng.standard_normal(n)
        x45 = rng.standard_normal((n, 2))
        return np.column_stack([x1, x2, x3, x45])
    if design == "sim4ex3":
        z = rng.standard_normal(n)
        return z[:, None] + rng.standard_normal((n, 10))
    raise ValueError(f"unknown covariate design {design!r}")


@dataclass
class SimTruth:
    """Everything that went into a simulated dataset."""

    model: str
    beta: np.ndarray
    v: np.ndarray
    tau2: float
    phi: float = None
    times: np.ndarray = None
    baseline: object = None


@dataclass
class SimDesign:
    """A reproducible simulation recipe; generate(seed) yields (Dataset, SimTruth)."""

    model: str = "ph"
    covariate_design: str = "sim1"
    beta: np.ndarray = None
    m: int = 37
    n_per_site: int = 20
    frailty_kind: str = "icar"
    tau2: float = 1.0
    phi: float = 1.0
    nu: float = 1.0
    adjacency: np.ndarray = None       # default: bundled 37-region map
    coords_extent: float = 10.0
    baseline: object = field(default_factory=BimodalBaseline)
    censoring: bool = True

    def covariate_names(self, p):
        return [f"x{j + 1}" for j in range(p)]

    def generate(self, seed):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        m, n = self.m, self.m * self.n_per_site
        X = gen_covariates(self.covariate_design, n, rng)
        p = X.shape[1]
        beta = np.asarray(self.beta if self.beta is not None
                          else ([1.0, 1.0] + [0.0] * (p - 2)), dtype=float)

        coords = None
        if self.frailty_kind == "icar":
            E = self.adjacency if self.adjacency is not None else bundled_adjacency37()
            if E.shape[0] != m:
                raise ValueError("adjacency size must match m")
            spec = fr.FrailtySpec(kind="icar", adjacency=E)
            v = gen_frailty_truth(spec, self.tau2, rng)
        elif self.frailty_kind == "grf":
            coords = rng.uniform(0, self.coords_extent, size=(m, 2))
            spec = fr.FrailtySpec(kind="grf", coords=coords, nu=self.nu)
            v = gen_frailty_truth(spec, self.tau2, rng, phi=self.phi)
        elif self.frailty_kind == "iid":
            v = rng.normal(0.0, math.sqrt(self.tau2), size=m)
        else:
            v = np.zeros(m)

        loc = np.repeat(np.arange(1, m + 1), self.n_per_site)
        eta = X @ beta + v[loc - 1]
        u = rng.uniform(size=n)
        times = np.array([sample_survival_time(self.model, eta[i], self.baseline, u[i])
                          for i in range(n)])
        if self.censoring:
            a, b = apply_censoring(times, eta, self.model, self.baseline, rng)
        else:
            a, b = times, times.copy()
        obs = [CensoredObservation(a=float(a[i]), b=float(b[i]), x=tuple(X[i]),
                                   location=int(loc[i])) for i in range(n)]
        ds = Dataset(observations=obs, m=m, covariate_names=self.covariate_names(p),
                     coords=coords)
        truth = SimTruth(model=self.model, beta=beta, v=v, tau2=self.tau2,
                         phi=self.phi if self.frailty_kind == "grf" else None,
                         times=times, baseline=self.baseline)
        return ds, truth


def sim1_design(model):
    """Areal study: m=37, n_i=20, beta=(1,1), bimodal S0, ICAR tau2=1."""
    return SimDesign(model=model, covariate_design="sim1")


def sim3_design(model):
    """Georeferenced study: m=150 sites on [0,10]^2, n_i=5, GRF tau2=1, phi=1."""
    return SimDesign(model=model, covariate_design="sim1", m=150, n_per_site=5,
                     frailty_kind="grf")


def sim4_design(example):
    """Variable-selection studies (PH, ICAR frailties, bimodal S0)."""
    designs = {1: "sim4ex1", 2: "sim4ex2", 3: "sim4ex3"}
    betas = {1: [1, 1, 0, 0, 0], 2: [1, 1, 0, 0, 0], 3: [1] * 5 + [0] * 5}
    return SimDesign(model="ph", covariate_design=designs[example],
                     beta=np.array(betas[example], dtype=float))


DESIGNS = {
    "sim1-aft": lambda: sim1_design("aft"),
    "sim1-ph": lambda: sim1_design("ph"),
    "sim1-po": lambda: sim1_design("po"),
    "sim3-aft": lambda: sim3_design("aft"),
    "sim3-ph": lambda: sim3_design("ph"),
    "sim3-po": lambda: sim3_design("po"),
    "sim4-ex1": lambda: sim4_design(1),
    "sim4-ex2": lambda: sim4_design(2),
    "sim4-ex3": lambda: sim4_design(3),
}
