"""Data generators for the simulation studies.

The canonical areal design draws n = 37 x 20 subjects with a Bernoulli(0.5)
and a standard normal covariate, beta = (1, 1), a bimodal baseline
S0(t) = 1 - 0.5[Phi(2(log t + 1)) + Phi(2(log t - 1))], and ICAR frailties
with tau^2 = 1 on a bundled 37-region adjacency.  Half of each sample is
right-censored at Uniform(2, 6) times (yielding mostly uncensored records),
the other half is inspected on a Poisson-gap schedule, producing a mix of
roughly 40% exact, 25% left-, 15% interval-, and 20% right-censored records.

A dataset is drawn in one fixed order from one seeded generator: covariates,
site coordinates (grf), the frailty field, one uniform u per subject, then the
censoring scheme.  Each exact time solves F_x(t) = u through the likelihood's
own model transform, for all subjects at once (sample_survival_time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import frailty as fr
from ._deferred import deferred
from .data import Dataset, load_adjacency
from .models import model_time, survival_transform

ndtr = deferred("scipy.special", "ndtr", globals())

_INF = math.inf
_COORDS_EXTENT = 10.0  # grf sites are uniform on [0, 10]^2
_TAU2, _PHI, _NU = 1.0, 1.0, 1.0  # every design's frailty variance; a grf's range, smoothness


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


_LOG_T_MIN, _LOG_T_MAX = math.log(1e-300), math.log(1e300)


def _failure_probability(model, eta, truth, t):
    """F_x(t) = 1 - S_x(t) under the model, elementwise."""
    with np.errstate(over="ignore"):  # e^eta t may reach inf under AFT: S0 is 0 there
        s0 = truth.survival(model_time(model, t, eta))
    # the kernel floors s0 for the PH log; S_x must still reach 0 where s0 does
    s = np.where(s0 > 0.0, survival_transform(model, s0, eta)[0], 0.0)
    return 1.0 - s


def sample_survival_time(model, eta, truth, u):
    """Solve F_x(t) = u for t, elementwise over the broadcast eta and u.

    Bisection on log t over [1e-300, 1e300]: after 64 halvings the bracket in
    log t is 7.5e-17 wide, below the relative spacing of doubles in t.  Each u
    must lie strictly inside (0, 1) and each root inside the range.  Scalar
    arguments give a float.
    """
    eta, u = np.broadcast_arrays(np.asarray(eta, dtype=float), np.asarray(u, dtype=float))
    if not np.all((u > 0.0) & (u < 1.0)):
        raise ValueError("u must lie in (0, 1)")
    lo = np.full(u.shape, _LOG_T_MIN)
    hi = np.full(u.shape, _LOG_T_MAX)
    if (np.any(_failure_probability(model, eta, truth, np.exp(lo)) > u)
            or np.any(_failure_probability(model, eta, truth, np.exp(hi)) < u)):
        raise RuntimeError("F_x(t) = u has no root in [1e-300, 1e300]")
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = _failure_probability(model, eta, truth, np.exp(mid)) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    t = np.exp(hi)
    return float(t) if t.ndim == 0 else t


def apply_censoring(times, rng):
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


def gen_frailty_truth(spec, tau2, rng, m, phi=None):
    """Draw a true frailty field on m sites: zero (none), IID, ICAR (centered)
    or GRF at range phi."""
    if spec.kind == "none":
        return np.zeros(m)
    if spec.kind == "iid":
        return rng.normal(0.0, math.sqrt(tau2), size=m)
    if spec.kind == "icar":
        prec = fr.build_structure(spec).C + 1e-10 * np.eye(m)
        v = rng.multivariate_normal(np.zeros(m), tau2 * np.linalg.inv(prec), method="cholesky")
        return v - v.mean()
    R = fr.dense_correlation(spec.distances, phi, spec.nu)
    return np.linalg.cholesky(tau2 * R) @ rng.standard_normal(m)


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


@dataclass
class SimDesign:
    """A reproducible simulation recipe; generate(seed) yields (Dataset, SimTruth).
    All designs: bimodal S0, tau2 = 1, icar on the bundled map, grf with phi = nu = 1."""

    model: str = "ph"
    covariate_design: str = "sim1"
    beta: np.ndarray = None
    m: int = 37
    n_per_site: int = 20
    frailty_kind: str = "icar"

    def frailty_spec(self, coords=None):
        """The FrailtySpec that generates and fits the design's field; a grf
        spec needs the site coordinates of a generated dataset."""
        if self.frailty_kind == "icar":
            return fr.FrailtySpec(kind="icar", adjacency=bundled_adjacency37())
        if self.frailty_kind == "grf":
            return fr.FrailtySpec(kind="grf", coords=coords, nu=_NU)
        return fr.FrailtySpec(kind=self.frailty_kind)

    def generate(self, seed):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        m, n = self.m, self.m * self.n_per_site
        X = gen_covariates(self.covariate_design, n, rng)
        p = X.shape[1]
        beta = np.asarray(self.beta if self.beta is not None
                          else ([1.0, 1.0] + [0.0] * (p - 2)), dtype=float)

        coords = None
        if self.frailty_kind == "grf":
            coords = rng.uniform(0, _COORDS_EXTENT, size=(m, 2))
        spec = self.frailty_spec(coords)
        if spec.kind == "icar" and spec.m != m:
            raise ValueError(f"an icar design lives on the bundled 37-region map, not m = {m}")
        v = gen_frailty_truth(spec, _TAU2, rng, m, phi=_PHI)

        loc = np.repeat(np.arange(1, m + 1), self.n_per_site)
        eta = X @ beta + v[loc - 1]
        times = sample_survival_time(self.model, eta, BimodalBaseline(), rng.uniform(size=n))
        a, b = apply_censoring(times, rng)
        ds = Dataset(a=a, b=b, u=np.zeros(n), X=X, loc=loc, m=m,
                     covariate_names=[f"x{j + 1}" for j in range(p)], coords=coords)
        truth = SimTruth(model=self.model, beta=beta, v=v, tau2=_TAU2,
                         phi=_PHI if self.frailty_kind == "grf" else None)
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
