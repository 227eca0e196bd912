"""Spatial frailty structures: ICAR/IID over areal units and Gaussian random
fields over georeferenced sites, with an optional low-rank-plus-block
(full-scale) approximation of the correlation matrix.

Exposed quantities are exactly what the sampler needs: conditional means and
variances of single frailties, the quadratic form v'Cv with the rank of C,
and (for random fields) the log-determinant of the correlation matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, cholesky, solve_triangular

KINDS = ("none", "iid", "icar", "grf")

_NUGGET = 1e-10


def powexp_corr(s, t, phi, nu=1.0):
    """Powered-exponential correlation exp{-(phi * ||s - t||)^nu}."""
    if phi <= 0.0:
        raise ValueError("phi must be positive")
    if not 0.0 < nu <= 2.0:
        raise ValueError("nu must lie in (0, 2]")
    d = np.linalg.norm(np.asarray(s, dtype=float) - np.asarray(t, dtype=float), axis=-1)
    return np.exp(-((phi * d) ** nu))


def corr_from_distance(d, phi, nu=1.0):
    """Powered-exponential correlation as a function of distance."""
    return np.exp(-((phi * np.asarray(d, dtype=float)) ** nu))


def pairwise_distances(coords):
    c = np.asarray(coords, dtype=float)
    diff = c[:, None, :] - c[None, :, :]
    return np.sqrt((diff * diff).sum(-1))


def solve_phi0(dmax, nu=1.0, rho=0.001):
    """Range value phi0 with correlation rho at the maximum pairwise distance."""
    if dmax <= 0.0:
        raise ValueError("dmax must be positive")
    return (-np.log(rho)) ** (1.0 / nu) / dmax


def _maximin_criterion(dist, chosen):
    others = [i for i in range(dist.shape[0]) if i not in chosen]
    if not others:
        return np.inf
    return dist[np.ix_(others, list(chosen))].min(axis=1).min()


def select_knots(coords, A, refine=True):
    """Pick A space-filling knots from a site set.

    Greedy farthest-point (maximin) selection seeded at the site farthest from
    the centroid, followed by a bounded swap-refinement pass.  Fully
    deterministic; ties break toward the lowest site index.
    """
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
        for _ in range(3):  # bounded number of sweeps
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


def assign_blocks(coords, B):
    """Partition sites into B blocks by distance to B space-filling centers."""
    coords = np.asarray(coords, dtype=float)
    m = coords.shape[0]
    if not 1 <= B <= m:
        raise ValueError(f"block count must lie in 1..{m}, got {B}")
    centers = select_knots(coords, B)
    d = pairwise_distances(coords)[:, centers]
    return np.argmin(d, axis=1)


@dataclass(frozen=True)
class FrailtySpec:
    """What kind of frailty field to use and its structural data."""

    kind: str = "none"
    adjacency: np.ndarray = None  # (m, m) 0/1 symmetric, icar only
    coords: np.ndarray = None     # (m, d) site coordinates, grf only
    nu: float = 1.0
    fsa: tuple = None             # (A, B) knot/block counts, grf only

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown frailty kind {self.kind!r}")
        if self.kind == "icar":
            E = np.asarray(self.adjacency)
            if E is None or E.ndim != 2 or E.shape[0] != E.shape[1]:
                raise ValueError("icar requires a square adjacency matrix")
            if not np.array_equal(E, E.T):
                raise ValueError("adjacency must be symmetric")
            if np.any(np.diag(E) != 0):
                raise ValueError("adjacency must have a zero diagonal")
            if not np.all(np.isin(E, (0, 1))):
                raise ValueError("adjacency entries must be 0/1")
            if np.any(E.sum(axis=1) < 1):
                raise ValueError("every region needs at least one neighbor")
            if not _connected(E):
                raise ValueError("adjacency graph must be connected")
        if self.kind == "grf":
            c = np.asarray(self.coords, dtype=float)
            if c is None or c.ndim != 2:
                raise ValueError("grf requires an (m, d) coordinate array")
            d = pairwise_distances(c)
            iu = np.triu_indices(c.shape[0], k=1)
            if iu[0].size and d[iu].min() <= 0.0:
                raise ValueError("grf sites must be pairwise distinct")
            if not 0.0 < self.nu <= 2.0:
                raise ValueError("nu must lie in (0, 2]")
            if self.fsa is not None:
                A, B = self.fsa
                if not (1 <= A <= c.shape[0] and 1 <= B <= c.shape[0]):
                    raise ValueError("fsa knot/block counts must lie in 1..m")

    @property
    def m(self):
        if self.kind == "icar":
            return self.adjacency.shape[0]
        if self.kind == "grf":
            return np.asarray(self.coords).shape[0]
        return None

    def phi0(self, rho=0.001):
        """Default range anchor: correlation rho at the maximum pairwise distance."""
        if self.kind != "grf":
            raise ValueError("phi0 is defined for grf frailties only")
        return solve_phi0(pairwise_distances(self.coords).max(), self.nu, rho)


def _connected(E):
    m = E.shape[0]
    seen = np.zeros(m, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        i = stack.pop()
        for j in np.flatnonzero(E[i]):
            if not seen[j]:
                seen[j] = True
                stack.append(j)
    return bool(seen.all())


class PrecisionStructure:
    """Precision machinery for one frailty field at a fixed range parameter.

    Attributes
    ----------
    C : (m, m) array; the precision-kernel matrix (F_e - E for icar, identity
        for iid, R^{-1} for grf).
    rank : rank of C entering the tau^-2 Gibbs shape (m-1 for icar, m else).
    logdet_half : log |C|^(1/2) term for range updates; 0 except for grf,
        where it equals -0.5 log det R.
    """

    def __init__(self, kind, C, rank, logdet_half=0.0, R=None):
        self.kind = kind
        self.C = C
        self.rank = rank
        self.logdet_half = logdet_half
        self.R = R
        self.diag = np.diag(C).copy()

    def quad_form(self, v):
        return float(v @ self.C @ v)

    def conditional(self, i, v, tau2):
        """Mean and variance of v_i given the other components.

        Both icar and grf reduce to the Gaussian full conditional implied by
        the precision kernel: mean -sum_{j != i} C_ij v_j / C_ii (which is the
        neighbor average for icar), variance tau2 / C_ii.
        """
        if self.kind == "iid":
            return 0.0, tau2
        s = float(self.C[i] @ v) - self.diag[i] * v[i]
        return -s / self.diag[i], tau2 / self.diag[i]


def build_structure(spec, phi=None, m=None):
    """Construct the PrecisionStructure for a frailty spec.

    grf needs the range parameter phi; iid needs the site count m (its
    structural data is just the identity).
    """
    if spec.kind == "none":
        return None
    if spec.kind == "iid":
        if m is None:
            raise ValueError("iid structures need an explicit site count m")
        return build_iid(m)
    if spec.kind == "icar":
        E = np.asarray(spec.adjacency, dtype=float)
        C = np.diag(E.sum(axis=1)) - E
        return PrecisionStructure("icar", C, rank=E.shape[0] - 1)
    if phi is None or phi <= 0.0:
        raise ValueError("grf structures require phi > 0")
    coords = np.asarray(spec.coords, dtype=float)
    if spec.fsa is None:
        R = dense_correlation(coords, phi, spec.nu)
        cf = cho_factor(R, lower=True)
        Rinv = cho_solve(cf, np.eye(R.shape[0]))
        logdet = 2.0 * np.log(np.diag(cf[0])).sum()
        return PrecisionStructure("grf", Rinv, rank=R.shape[0],
                                  logdet_half=-0.5 * logdet, R=R)
    A, B = spec.fsa
    Rdag, Rinv, logdet = fsa_build(coords, phi, spec.nu, A, B)
    return PrecisionStructure("grf", Rinv, rank=coords.shape[0],
                              logdet_half=-0.5 * logdet, R=Rdag)


def build_iid(m):
    return PrecisionStructure("iid", np.eye(m), rank=m)


def dense_correlation(coords, phi, nu=1.0):
    """R = (1 - eps) rho_mm + eps I with the powered-exponential correlation."""
    d = pairwise_distances(coords)
    rho = corr_from_distance(d, phi, nu)
    m = rho.shape[0]
    return (1.0 - _NUGGET) * rho + _NUGGET * np.eye(m)


def fsa_build(coords, phi, nu, A, B):
    """Full-scale approximation of the correlation matrix.

    Returns (R_dag, R_dag^{-1}, log det R_dag) where

        R_dag = (1-eps) rho_mA rho_AA^{-1} rho_mA' + R_s,
        R_s   = (1-eps)(rho_mm - rho_mA rho_AA^{-1} rho_mA') o Delta + eps I,

    Delta the same-block indicator.  The inverse uses the Sherman-Morrison-
    Woodbury identity and the determinant its companion formula, so only
    A x A and within-block solves are performed.
    """
    coords = np.asarray(coords, dtype=float)
    m = coords.shape[0]
    knots = select_knots(coords, A)
    blocks = assign_blocks(coords, B)
    sk = coords[knots]
    d_AA = pairwise_distances(sk)
    rho_AA = corr_from_distance(d_AA, phi, nu)
    d_mA = np.sqrt(((coords[:, None, :] - sk[None, :, :]) ** 2).sum(-1))
    rho_mA = corr_from_distance(d_mA, phi, nu)
    try:
        L_AA = cholesky(rho_AA, lower=True)
    except np.linalg.LinAlgError as exc:
        raise ValueError("knot correlation matrix is not positive definite "
                         "(duplicate knots?)") from exc
    half = solve_triangular(L_AA, rho_mA.T, lower=True)  # (A, m); rho_l = half' half

    # Block-sparse residual, inverted block by block.
    Rs_inv = np.zeros((m, m))
    Rs_logdet = 0.0
    Rs = np.zeros((m, m))
    one = 1.0 - _NUGGET
    for bidx in range(blocks.max() + 1):
        I = np.flatnonzero(blocks == bidx)
        if I.size == 0:
            continue
        d_bb = pairwise_distances(coords[I])
        rho_bb = corr_from_distance(d_bb, phi, nu)
        resid = rho_bb - half[:, I].T @ half[:, I]
        S = one * resid + _NUGGET * np.eye(I.size)
        Rs[np.ix_(I, I)] = S
        cf = cho_factor(S, lower=True)
        Rs_inv[np.ix_(I, I)] = cho_solve(cf, np.eye(I.size))
        Rs_logdet += 2.0 * np.log(np.diag(cf[0])).sum()

    Rdag = one * (half.T @ half) + Rs

    # SMW: (R_dag)^{-1} = Rs^{-1} - (1-eps) Rs^{-1} rho_mA M^{-1} rho_mA' Rs^{-1}
    # with M = rho_AA + (1-eps) rho_mA' Rs^{-1} rho_mA.
    RsI_rho = Rs_inv @ rho_mA
    M = rho_AA + one * (rho_mA.T @ RsI_rho)
    cfM = cho_factor(M, lower=True)
    Rinv = Rs_inv - one * (RsI_rho @ cho_solve(cfM, RsI_rho.T))
    # The tiny nugget makes R_s ill-conditioned whenever knots coincide with
    # sites; one Newton-Schulz step repairs the cancellation in the SMW result.
    Rinv = Rinv @ (2.0 * np.eye(m) - Rdag @ Rinv)
    Rinv = 0.5 * (Rinv + Rinv.T)
    logdet_M = 2.0 * np.log(np.diag(cfM[0])).sum()
    logdet_AA = 2.0 * np.log(np.diag(L_AA)).sum()
    logdet = logdet_M - logdet_AA + Rs_logdet
    return Rdag, Rinv, logdet
