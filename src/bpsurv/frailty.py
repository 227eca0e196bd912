"""Spatial frailty structures: ICAR/IID over areal units and Gaussian random
fields over georeferenced sites, with an optional low-rank-plus-block
(full-scale) approximation of the correlation matrix.

Exposed quantities are exactly what the sampler needs: the precision kernel C,
which gives every frailty kind's full conditional by one rule, the quadratic
form v'Cv with the rank of C, and the log-determinant of a random field's R.

A random field's structure is built from the lower Cholesky factor L of R,
exact or approximated, and nothing else: the log-determinant is read from
diag(L) and v'R^{-1}v from one triangular solve (Rue & Held 2005, sec. 2.4).
Its C = R^{-1} is formed from L once per accepted range, and only the frailty
scan reads it, so a range proposal pays for the factor alone.

A chain's run() may hand that linear algebra to ForkedRanges, one forked
worker process: submit(phi) when a sweep draws its proposal, result() when
its factor is needed, accept(structure) when it becomes the chain's.  With
each proposal the worker first forms the C of the range accepted since the
last one, then factors the proposal, while the chain runs the rest of its
sweep; factors and inverses land in two shared-memory slots that swap roles
on acceptance.  It runs the same build_structure and the same inverse on the
matrices a build in this process would use, so its structures are
bit-identical to build_structure's.
"""

from __future__ import annotations

import mmap
import os
import signal
import time
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from multiprocessing.connection import Pipe

import numpy as np

from ._deferred import deferred

solve_triangular = deferred("scipy.linalg", "solve_triangular", globals())
dpotrf, dpotri, dtrtrs = (deferred("scipy.linalg.lapack", name, globals())
                          for name in ("dpotrf", "dpotri", "dtrtrs"))

KINDS = ("none", "iid", "icar", "grf")

_NUGGET = 1e-10
_RHO0 = 0.001  # correlation at the largest site distance under the range anchor phi0


class SingularCorrelation(ValueError):
    """A random field's correlation matrix has no Cholesky factor at a range."""


def _lower_factor(R, what, phi):
    """The lower Cholesky factor of R (LAPACK dpotrf), its upper triangle zero."""
    L, info = dpotrf(R, lower=1)
    if info != 0:
        raise SingularCorrelation(f"the {what} is numerically singular at range "
                                  f"phi = {phi:.6g}")
    return L


def corr_from_distance(d, phi, nu=1.0):
    """Powered-exponential correlation as a function of distance."""
    return np.exp(-((phi * np.asarray(d, dtype=float)) ** nu))


def pairwise_distances(coords):
    c = np.asarray(coords, dtype=float)
    diff = c[:, None, :] - c[None, :, :]
    return np.sqrt((diff * diff).sum(-1))


def solve_phi0(dmax, nu=1.0):
    """Range value phi0 with correlation 0.001 at the maximum pairwise distance."""
    if dmax <= 0.0:
        raise ValueError("dmax must be positive")
    return (-np.log(_RHO0)) ** (1.0 / nu) / dmax


def select_knots(coords, A):
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
    # A single knot has no pairwise distance: every swap scores inf, and
    # inf - inf is no gain.
    if A >= 2:
        iu = np.triu_indices(A - 1, k=1)
        for _ in range(3):  # bounded number of sweeps
            improved = False
            for pos in range(A):
                # Swapping site c in at pos scores the minimum pairwise knot
                # distance (the maximin criterion): the smaller of the
                # closest pair among the other knots and c's distance to them.
                others = np.delete(chosen, pos)
                within = dist[np.ix_(others, others)][iu].min() if iu[0].size else np.inf
                base = min(within, dist[chosen[pos], others].min())
                gain = np.minimum(within, dist[:, others].min(axis=1)) - base
                gain[chosen] = -np.inf
                best_gain, best_site = 0.0, None
                for cand in np.flatnonzero(gain > best_gain + 1e-12):
                    if gain[cand] > best_gain + 1e-12:
                        best_gain, best_site = gain[cand], int(cand)
                if best_site is not None:
                    chosen[pos] = best_site
                    improved = True
            if not improved:
                break
    return np.array(sorted(chosen))


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
    """What kind of frailty field to use and its structural data.

    A grf spec keeps what does not depend on the range phi: the site
    distances, computed at validation, and the FSA knots and blocks, chosen
    at the first structure build.  Every build_structure call reuses them.
    """

    kind: str = "none"
    adjacency: np.ndarray = None  # (m, m) 0/1 symmetric, icar only
    coords: np.ndarray = None     # (m, d) site coordinates, grf only
    nu: float = 1.0
    fsa: tuple = None             # (A, B) knot/block counts, grf only

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown frailty kind {self.kind!r}")
        if self.fsa is not None and self.kind != "grf":
            raise ValueError(f"the full-scale approximation applies to grf frailties, "
                             f"not {self.kind}")
        if self.kind == "icar":
            E = np.asarray(self.adjacency)
            if E.ndim != 2 or E.shape[0] != E.shape[1]:
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
            if c.ndim != 2:
                raise ValueError("grf requires an (m, d) coordinate array")
            d = self.distances
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

    def phi0(self):
        """Default range anchor: correlation 0.001 at the maximum pairwise distance."""
        if self.kind != "grf":
            raise ValueError("phi0 is defined for grf frailties only")
        return solve_phi0(self.distances.max(), self.nu)

    @cached_property
    def distances(self):
        """(m, m) distances between the grf sites."""
        return pairwise_distances(self.coords)

    @cached_property
    def fsa_geometry(self):
        """Knots and blocks of the full-scale approximation, chosen at the
        first structure build (not at validation) and reused for every phi."""
        A, B = self.fsa
        coords = np.asarray(self.coords, dtype=float)
        knots = select_knots(coords, A)
        labels = assign_blocks(coords, B)
        blocks = [np.flatnonzero(labels == b) for b in range(B)]
        d = self.distances
        return FsaGeometry(blocks=blocks, d_AA=d[np.ix_(knots, knots)], d_mA=d[:, knots],
                           d_bb=[d[np.ix_(I, I)] for I in blocks])


@dataclass(frozen=True)
class FsaGeometry:
    """Everything in the full-scale approximation that does not depend on
    the range phi: the blocks, and the distances the correlations need."""

    blocks: list       # site indices of each block
    d_AA: np.ndarray   # (A, A) knot-to-knot distances
    d_mA: np.ndarray   # (m, A) site-to-knot distances
    d_bb: list         # within-block distance matrices, one per block


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
        for iid, R^{-1} for grf), exactly symmetric.  Every kind's full
        conditional of v_i given the rest has mean v_i - (C v)_i / C_ii and
        variance tau2 / C_ii (Besag 1974; Rue & Held 2005, Thm 2.3).
    rank : rank of C entering the tau^-2 Gibbs shape (m-1 for icar, m else).
    logdet_half : log |C|^(1/2) term for range updates; 0 except for grf,
        where it equals -0.5 log det R.
    """

    logdet_half = 0.0

    def __init__(self, C, rank):
        self.C = C
        self.rank = rank

    def quad_form(self, v):
        return float(v @ self.C @ v)


def precision_from_factor(L, out=None):
    """R^{-1} from the lower Cholesky factor L of R, exactly symmetric, in
    Fortran order (into out when given).

    LAPACK dpotri fills the lower triangle and leaves L's zero upper triangle,
    so inv + inv' mirrors it with the diagonal doubled; halving a double is
    exact.
    """
    inv = dpotri(L, lower=1)[0]
    if out is None:
        out = np.empty_like(inv, order="F")
    np.add(inv.T, inv, out=out.T)  # the same sums, traversed twice as fast as out's
    out.flat[::out.shape[0] + 1] *= 0.5
    return out


class FieldStructure(PrecisionStructure):
    """A random field's PrecisionStructure, held as the lower Cholesky factor
    L of its correlation matrix R.

    logdet_half = -sum log L_ii and quad_form(v) = |L^{-1} v|^2 come from L
    at construction and per call.  C = R^{-1} (precision_from_factor) is
    formed on first read; a structure in a ForkedRanges slot reads the one
    its worker formed with the next proposal.
    """

    def __init__(self, L):
        self.L = L
        self.rank = L.shape[0]
        self.logdet_half = -float(np.log(np.diag(L)).sum())

    @cached_property
    def C(self):
        return precision_from_factor(self.L)

    def quad_form(self, v):
        y = dtrtrs(self.L, v, lower=1)[0]
        return float(y @ y)


def build_structure(spec, phi=None, m=None):
    """Construct the PrecisionStructure for a frailty spec.

    grf needs the range parameter phi; iid needs the site count m (its
    structural data is just the identity).  A grf field's correlation, the
    exact one or its full-scale approximation, is factored by one Cholesky
    factorisation and kept as its factor (FieldStructure).  A correlation
    without a factor raises SingularCorrelation, a ValueError.
    """
    if spec.kind == "none":
        return None
    if spec.kind == "iid":
        if m is None:
            raise ValueError("iid structures need an explicit site count m")
        return PrecisionStructure(np.eye(m), rank=m)
    if spec.kind == "icar":
        E = np.asarray(spec.adjacency, dtype=float)
        C = np.diag(E.sum(axis=1)) - E
        return PrecisionStructure(C, rank=E.shape[0] - 1)
    if phi is None or phi <= 0.0:
        raise ValueError("grf structures require phi > 0")
    if spec.fsa is None:
        R = dense_correlation(spec.distances, phi, spec.nu)
    else:
        R = fsa_build(spec.fsa_geometry, phi, spec.nu)
    return FieldStructure(_lower_factor(R, "grf correlation matrix", phi))


def dense_correlation(d, phi, nu=1.0):
    """R = (1 - eps) rho_mm + eps I with the powered-exponential correlation
    of the (m, m) site distances d."""
    R = corr_from_distance(d, phi, nu)
    R *= 1.0 - _NUGGET
    R.flat[::R.shape[0] + 1] += _NUGGET
    return R


def fsa_build(geometry, phi, nu):
    """Full-scale approximation R_dag of the correlation matrix,

        R_dag = (1-eps) rho_mA rho_AA^{-1} rho_mA' + R_s,
        R_s   = (1-eps)(rho_mm - rho_mA rho_AA^{-1} rho_mA') o Delta + eps I,

    Delta the same-block indicator, for the knots and blocks of geometry (a
    FrailtySpec.fsa_geometry).  Only the low-rank part and the within-block
    residuals are evaluated; build_structure factors the result.  A knot
    correlation without a Cholesky factor raises SingularCorrelation.
    """
    m = geometry.d_mA.shape[0]
    rho_AA = corr_from_distance(geometry.d_AA, phi, nu)
    rho_mA = corr_from_distance(geometry.d_mA, phi, nu)
    L_AA = _lower_factor(rho_AA, "knot correlation matrix", phi)
    half = solve_triangular(L_AA, rho_mA.T, lower=True)  # (A, m); rho_l = half' half

    Rs = np.zeros((m, m))
    one = 1.0 - _NUGGET
    for I, d_bb in zip(geometry.blocks, geometry.d_bb):
        rho_bb = corr_from_distance(d_bb, phi, nu)
        resid = rho_bb - half[:, I].T @ half[:, I]
        Rs[np.ix_(I, I)] = one * resid + _NUGGET * np.eye(I.size)
    return one * (half.T @ half) + Rs


_OK, _SINGULAR, _FAILED = 0, 1, 2  # the status of a worker's answer


class _SlotStructure(FieldStructure):
    """A FieldStructure whose factor lives in a ForkedRanges slot.  Its C is
    the inverse the worker forms in the slot, or formed here if none is asked."""

    def __init__(self, ranges, slot):
        super().__init__(ranges.slots[slot][0])
        self.slot = slot
        self._ranges = ranges
        self._inverse = None  # the answer to the inverse request, once sent

    @cached_property
    def C(self):
        if self._inverse is None:  # no request sent: form it here
            return precision_from_factor(self.L)
        self._ranges.wait(self._inverse)
        return self._ranges.slots[self.slot][1]


class ForkedRanges:
    """A chain's range linear algebra in one forked worker process.

    The worker shares two slots with this process, each an (m, m) factor L and
    an (m, m) inverse C in Fortran order, in one anonymous shared mapping.
    submit(phi) asks it to form the C of the structure accepted since the last
    submit in its slot (precision_from_factor), which the structure's first
    read of C waits for, then to factor build_structure(spec, phi) into the
    free slot unless phi is None; result() waits for that factor and raises
    SingularCorrelation as build_structure does.  accept(structure) makes its
    slot the chain's and the other takes the next proposal, so nothing is
    copied.  Requests and answers travel over one duplex multiprocessing
    pipe, answered in order; each answer fills the list the request queued in
    _due, and wait_s totals the time this process blocked on one.  A worker
    failure other than SingularCorrelation, or a worker that exits, is raised
    here as RuntimeError.  close() hangs up and reaps the worker, which exits
    (os._exit) when the pipe reaches end of file, so it cannot outlive this
    process either.
    """

    def __init__(self, spec, m):
        nbytes = m * m * 8
        self._map = mmap.mmap(-1, 4 * nbytes)
        self.slots = [tuple(np.ndarray((m, m), buffer=self._map, offset=(2 * s + k) * nbytes,
                                       order="F") for k in (0, 1)) for s in (0, 1)]
        self.wait_s = 0.0
        self._due = deque()    # the answer list of every request not yet answered
        self._pending = None   # (slot, answer) of the submitted factor
        self._free = 0         # the slot the next proposal is factored into
        self._accepted = None  # the structure accepted since the last submit
        self._conn, child = Pipe()
        try:
            self.pid = os.fork()
        except OSError:
            self._conn.close()
            child.close()
            raise
        if self.pid == 0:  # the worker: never returns
            status = 1
            try:
                self._conn.close()
                signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles ^C
                _serve(spec, self.slots, child)
                status = 0
            finally:
                os._exit(status)
        child.close()

    def _send(self, slot, phi):
        answer = []
        self._conn.send((slot, phi))
        self._due.append(answer)
        return answer

    def wait(self, answer):
        """Block until answer is filled; raise if the worker failed."""
        t0 = time.perf_counter()
        try:
            while not answer:
                self._due.popleft().extend(self._conn.recv())
        except (EOFError, OSError):
            raise RuntimeError("the range worker exited before answering") from None
        finally:
            self.wait_s += time.perf_counter() - t0
        status, message = answer
        if status == _FAILED:
            raise RuntimeError(f"the range worker failed: {message}")

    def submit(self, phi):
        accepted, self._accepted = self._accepted, None
        if accepted is not None:
            accepted._inverse = self._send(accepted.slot, None)
        if phi is not None:
            self._pending = self._free, self._send(self._free, phi)

    def result(self):
        slot, answer = self._pending
        self.wait(answer)
        if answer[0] == _SINGULAR:
            raise SingularCorrelation(answer[1])
        return _SlotStructure(self, slot)

    def accept(self, structure):
        self._accepted = structure
        self._free = 1 - structure.slot

    def close(self):
        self._conn.close()
        os.waitpid(self.pid, 0)


def _serve(spec, slots, conn):
    """The range worker's loop: answer each (slot, phi) request, a factor at
    phi or the slot's inverse for phi None, until the chain hangs up."""
    while True:
        try:
            slot, phi = conn.recv()
        except EOFError:
            return
        L, C = slots[slot]
        answer = _OK, ""
        try:
            if phi is None:
                precision_from_factor(L, out=C)
            else:
                L[...] = build_structure(spec, phi=phi).L
        except SingularCorrelation as exc:
            answer = _SINGULAR, str(exc)
        except Exception as exc:  # noqa: BLE001 - reported to the chain, which raises
            answer = _FAILED, f"{type(exc).__name__}: {exc}"
        conn.send(answer)
