"""Seeded generator for the benchmark's two designs, written apart from bpsurv.

Nothing here imports bpsurv, so a refactor of the package (its simulator
included) cannot change the inputs the benchmark feeds it.

Both designs share the paper's simulation set-up:

* covariates x1 ~ Bernoulli(0.5) and x2 ~ N(0, 1), with beta = (1, 1);
* the bimodal baseline S0(t) = 1 - 0.5[Phi(2(log t + 1)) + Phi(2(log t - 1))],
  i.e. log T0 is an equal mixture of N(-1, 0.5^2) and N(1, 0.5^2);
* censoring: a random half is right-censored at Uniform(2, 6) (exact when the
  event comes first); the other half is inspected at Poisson(2) + 1 visits
  with Exp(1) gaps, giving left-, interval- or right-censored records.

The areal design has 37 regions x 20 subjects with ICAR frailties (tau2 = 1)
on a 37-region adjacency built from a Delaunay triangulation of seeded points.
The georeferenced design has 150 sites uniform on [0, 10]^2 with 5 subjects
each and a Gaussian random field with exponential correlation (tau2 = 1,
phi = 1).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay
from scipy.special import ndtr

BETA = (1.0, 1.0)
TAU2 = 1.0
PHI = 1.0


@dataclass
class Design:
    """A generated dataset plus the truth that produced it.

    Rows are grouped by site, sites in order 0..m-1, so the package's
    first-appearance site numbering equals ``site + 1``.
    """

    kind: str            # "areal" or "geo"
    model: str           # generating model: "ph", "aft" or "po"
    a: np.ndarray
    b: np.ndarray        # inf for right censoring
    X: np.ndarray
    site: np.ndarray     # 0-based site of each row
    v: np.ndarray        # true frailties, one per site
    adjacency: np.ndarray = None
    coords: np.ndarray = None

    @property
    def n(self):
        return self.a.shape[0]

    @property
    def m(self):
        return self.v.shape[0]

    def censoring_mix(self):
        """Counts of exact, left-, interval- and right-censored records."""
        exact = self.a == self.b
        right = np.isinf(self.b)
        left = (self.a == 0.0) & ~exact
        return {"exact": int(exact.sum()), "left": int(left.sum()),
                "interval": int((~exact & ~right & ~left).sum()),
                "right": int(right.sum())}

    def write(self, csv_path, adjacency_path=None):
        """Write the CSV (t1, t2, trunc, x1, x2, then location or lon, lat)."""
        geo = self.kind == "geo"
        with open(csv_path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["t1", "t2", "trunc", "x1", "x2"]
                        + (["lon", "lat"] if geo else ["location"]))
            for i in range(self.n):
                t2 = "" if math.isinf(self.b[i]) else repr(float(self.b[i]))
                where = ([repr(float(c)) for c in self.coords[self.site[i]]] if geo
                         else [str(int(self.site[i]) + 1)])
                wr.writerow([repr(float(self.a[i])), t2, "0.0",
                             *[repr(float(x)) for x in self.X[i]], *where])
        if adjacency_path is not None:
            np.savetxt(adjacency_path, self.adjacency, fmt="%d")


def baseline_survival(t):
    """S0(t) of the bimodal log-normal mixture; S0(0) = 1, S0(inf) = 0."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore"):
        lt = np.log(t)
    return 0.5 * (ndtr(-2.0 * (lt + 1.0)) + ndtr(-2.0 * (lt - 1.0)))


def _invert_baseline(s):
    """t with S0(t) = s, by bisection on log t (S0 falls with log t)."""
    lo = np.full(s.shape, -60.0)
    hi = np.full(s.shape, 60.0)
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        above = baseline_survival(np.exp(mid)) > s
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return np.exp(0.5 * (lo + hi))


def event_times(model, eta, rng):
    """Survival times T with S_x(T) = U for U ~ Uniform(0, 1)."""
    n = eta.shape[0]
    if model == "aft":
        # S_x(t) = S0(e^eta t): T = T0 e^-eta with T0 drawn from the mixture.
        mode = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
        return np.exp(mode + 0.5 * rng.standard_normal(n) - eta)
    s = rng.uniform(size=n)
    if model == "ph":
        # S_x = S0^(e^eta), so S0(T) = s^(e^-eta)
        s0 = s ** np.exp(-eta)
    elif model == "po":
        # S_x = r S0 / (1 - S0 + r S0) with r = e^-eta, solved for S0
        r = np.exp(-eta)
        s0 = s / (r + s - s * r)
    else:
        raise ValueError(f"unknown model {model!r}")
    return _invert_baseline(s0)


def censor(times, rng):
    """The half right-censoring, half inspection-schedule scheme."""
    n = times.shape[0]
    a = np.empty(n)
    b = np.empty(n)
    perm = rng.permutation(n)
    right, inspected = perm[:n // 2], perm[n // 2:]
    cutoff = rng.uniform(2.0, 6.0, size=right.size)
    t = times[right]
    a[right] = np.minimum(t, cutoff)
    b[right] = np.where(t <= cutoff, t, np.inf)
    for i in inspected:
        visits = np.cumsum(rng.exponential(1.0, size=rng.poisson(2.0) + 1))
        k = int(np.searchsorted(visits, times[i]))
        a[i] = visits[k - 1] if k > 0 else 0.0
        b[i] = visits[k] if k < visits.size else np.inf
    return a, b


def delaunay_adjacency(m, rng):
    """0/1 adjacency of a Delaunay triangulation of m uniform points on [0,10]^2."""
    tri = Delaunay(rng.uniform(0.0, 10.0, size=(m, 2)))
    E = np.zeros((m, m), dtype=int)
    for simplex in tri.simplices:
        for i in simplex:
            for j in simplex:
                if i != j:
                    E[i, j] = 1
    return E


def icar_draw(E, tau2, rng):
    """A draw from the sum-to-zero ICAR field with precision (D - E) / tau2."""
    Q = np.diag(E.sum(axis=1)).astype(float) - E
    lam, vec = np.linalg.eigh(Q)
    # the smallest eigenvalue (the constant vector) is zero: leave it out
    z = rng.standard_normal(lam.size - 1)
    return math.sqrt(tau2) * vec[:, 1:] @ (z / np.sqrt(lam[1:]))


def grf_draw(coords, tau2, phi, rng):
    """A draw from the zero-mean field with covariance tau2 exp(-phi d)."""
    diff = coords[:, None, :] - coords[None, :, :]
    R = np.exp(-phi * np.sqrt((diff * diff).sum(-1)))
    chol = np.linalg.cholesky(tau2 * (R + 1e-10 * np.eye(R.shape[0])))
    return chol @ rng.standard_normal(R.shape[0])


def generate(kind, model, seed):
    """The areal (37 x 20) or georeferenced (150 x 5) dataset for one seed."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if kind == "areal":
        m, per_site = 37, 20
        adjacency = delaunay_adjacency(m, rng)
        coords = None
        v = icar_draw(adjacency, TAU2, rng)
    elif kind == "geo":
        m, per_site = 150, 5
        adjacency = None
        coords = rng.uniform(0.0, 10.0, size=(m, 2))
        v = grf_draw(coords, TAU2, PHI, rng)
    else:
        raise ValueError(f"unknown design {kind!r}")
    n = m * per_site
    X = np.column_stack([rng.binomial(1, 0.5, n).astype(float), rng.standard_normal(n)])
    site = np.repeat(np.arange(m), per_site)
    eta = X @ np.array(BETA) + v[site]
    a, b = censor(event_times(model, eta, rng), rng)
    return Design(kind=kind, model=model, a=a, b=b, X=X, site=site, v=v,
                  adjacency=adjacency, coords=coords)
