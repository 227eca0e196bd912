"""Domain records and file ingestion for arbitrarily censored survival data.

An observation is the interval (a, b) known to contain the survival time,
with 0 <= a <= b <= inf, plus an optional left-truncation time u <= a, a
covariate vector, and a location index.  The censoring kind is never stored;
it is always inferred from (u, a, b):

    exact     a == b
    right     b == inf
    left      a == u (u is 0 when there is no truncation)
    interval  otherwise
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

INF = math.inf

EXACT, RIGHT, LEFT, INTERVAL = "exact", "right", "left", "interval"


def censoring_kind(u, a, b):
    """Classify an (u, a, b) triple into one of the four censoring kinds."""
    if a == b:
        return EXACT
    if math.isinf(b):
        return RIGHT
    if a == u:
        return LEFT
    return INTERVAL


@dataclass(frozen=True)
class CensoredObservation:
    """One subject: interval (a, b), truncation u, covariates x, location (1-based)."""

    a: float
    b: float
    x: tuple
    location: int = 1
    u: float = 0.0

    def __post_init__(self):
        # normalize to builtin floats so records compare, hash, and print cleanly
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "u", float(self.u))
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        object.__setattr__(self, "location", int(self.location))
        if not (0.0 <= self.u <= self.a <= self.b):
            raise ValueError(f"need 0 <= u <= a <= b, got u={self.u}, a={self.a}, b={self.b}")
        if self.a == self.b and math.isinf(self.a):
            raise ValueError("exact observation at infinity")
        if self.a == self.b and self.a <= 0.0:
            raise ValueError("exact observations require a strictly positive time")
        if self.location < 1:
            raise ValueError("location indices are 1-based")
        if any(not math.isfinite(v) for v in self.x):
            raise ValueError("covariates must be finite")

    @property
    def kind(self):
        return censoring_kind(self.u, self.a, self.b)


@dataclass(frozen=True)
class TimeVaryingSubject:
    """A subject whose covariates change at known epoch times.

    epochs is an ordered list of (t_k, x_k) pairs with t_1 = u and t_o <= a;
    x is constant on [t_k, t_{k+1}).
    """

    a: float
    b: float
    epochs: tuple
    location: int = 1
    u: float = 0.0

    def __post_init__(self):
        if not self.epochs:
            raise ValueError("epochs must be non-empty")
        times = [t for t, _ in self.epochs]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("epoch times must be strictly increasing")
        if times[0] != self.u:
            raise ValueError("first epoch time must equal the truncation time u")
        if times[-1] > self.a:
            raise ValueError("last epoch time must not exceed a")
        dims = {len(x) for _, x in self.epochs}
        if len(dims) != 1:
            raise ValueError("covariate dimension must be constant across epochs")


def expand_time_varying(subject):
    """Split a time-varying subject into one record per covariate epoch.

    Epoch k < o becomes a right-censored record truncated at t_k with b = t_{k+1};
    the final epoch carries the subject's own (u=t_o, a, b) interval.  The summed
    log-likelihood over the pieces equals the subject's conditional-survival
    product.
    """
    out = []
    times = [t for t, _ in subject.epochs]
    for k, (t_k, x_k) in enumerate(subject.epochs):
        if k + 1 < len(subject.epochs):
            out.append(CensoredObservation(
                a=times[k + 1], b=INF, x=tuple(x_k), location=subject.location, u=t_k))
        else:
            out.append(CensoredObservation(
                a=subject.a, b=subject.b, x=tuple(x_k), location=subject.location, u=t_k))
    return out


@dataclass
class Dataset:
    """Immutable-after-construction collection of observations.

    Caches the raw design matrix, its mean-centered version (used by the
    variable-selection g-prior), truncation/censoring masks, and the per-site
    observation index lists used by frailty updates.
    """

    observations: list
    m: int
    covariate_names: list
    location_ids: list = None  # original labels, index i -> label of site i+1
    coords: np.ndarray = None  # (m, 2) site coordinates for georeferenced data

    # derived arrays, filled in __post_init__
    a: np.ndarray = field(init=False, repr=False)
    b: np.ndarray = field(init=False, repr=False)
    u: np.ndarray = field(init=False, repr=False)
    X: np.ndarray = field(init=False, repr=False)
    Xc: np.ndarray = field(init=False, repr=False)
    loc: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        obs = self.observations
        n = len(obs)
        p = len(self.covariate_names)
        if any(len(o.x) != p for o in obs):
            raise ValueError("covariate dimension mismatch")
        self.a = np.array([o.a for o in obs], dtype=float)
        self.b = np.array([o.b for o in obs], dtype=float)
        self.u = np.array([o.u for o in obs], dtype=float)
        self.X = np.array([o.x for o in obs], dtype=float).reshape(n, p)
        self.Xc = self.X - self.X.mean(axis=0) if n else self.X.copy()
        self.loc = np.array([o.location for o in obs], dtype=int)
        if n:
            present = set(self.loc.tolist())
            if present != set(range(1, self.m + 1)):
                missing = sorted(set(range(1, self.m + 1)) - present)
                raise ValueError(f"every location in 1..m must occur; missing {missing}")
        if self.location_ids is None:
            self.location_ids = [str(i + 1) for i in range(self.m)]
        if self.Xc.size and np.max(np.abs(self.Xc.sum(axis=0))) > 1e-10 * max(n, 1):
            raise AssertionError("centered design columns must sum to zero")

    @property
    def n(self):
        return len(self.observations)

    @property
    def p(self):
        return len(self.covariate_names)

    def kinds(self):
        return [o.kind for o in self.observations]

    def column(self, name):
        return self.X[:, self.covariate_names.index(name)]

    def to_csv(self, path):
        """Write in the standard schema (t1, t2, trunc, covariates..., location).

        Georeferenced data (coords set) end in lon, lat columns instead of
        location.  An infinite upper endpoint is written as an empty t2 field
        so the file round-trips exactly.
        """
        if self.coords is None:
            site_cols = ["location"]
            sites = [[label] for label in self.location_ids]
        else:
            site_cols = ["lon", "lat"]
            sites = [[repr(float(lon)), repr(float(lat))] for lon, lat in self.coords]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t1", "t2", "trunc", *self.covariate_names, *site_cols])
            for o in self.observations:
                t2 = "" if math.isinf(o.b) else repr(o.b)
                writer.writerow([repr(o.a), t2, repr(o.u), *[repr(v) for v in o.x],
                                 *sites[o.location - 1]])


@dataclass(frozen=True)
class CsvSchema:
    """Column names for load_csv.  covariates=None means every column not
    otherwise claimed is a covariate."""

    t1: str = "t1"
    t2: str = "t2"
    trunc: str = None
    location: str = None
    lon: str = None
    lat: str = None
    covariates: tuple = None


def _parse_time(text, row_no, what, allow_empty_inf=False):
    text = text.strip() if text is not None else ""
    if text == "":
        if allow_empty_inf:
            return INF
        raise ValueError(f"row {row_no}: missing {what}")
    try:
        val = float(text)
    except ValueError:
        raise ValueError(f"row {row_no}: malformed {what} {text!r}") from None
    if val < 0:
        raise ValueError(f"row {row_no}: negative {what}")
    return val


def load_csv(path, schema=None):
    """Load a survival dataset from CSV (RFC-4180).

    Returns a Dataset.  Location labels (or deduplicated coordinate pairs) are
    densely re-indexed to 1..m; the original labels are kept on
    Dataset.location_ids.  Censoring kinds follow the (u, a, b) rules; an
    empty t2 field means +inf.
    """
    schema = schema or CsvSchema()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        idx = {name: i for i, name in enumerate(header)}

        def col(name):
            if name not in idx:
                raise ValueError(f"{path}: unknown column {name!r}; file has {header}")
            return idx[name]

        i_t1, i_t2 = col(schema.t1), col(schema.t2)
        i_tr = col(schema.trunc) if schema.trunc else None
        i_loc = col(schema.location) if schema.location else None
        i_lon = col(schema.lon) if schema.lon else None
        i_lat = col(schema.lat) if schema.lat else None
        claimed = {i_t1, i_t2} | {i for i in (i_tr, i_loc, i_lon, i_lat) if i is not None}
        if schema.covariates is None:
            cov_names = [h for i, h in enumerate(header) if i not in claimed]
        else:
            cov_names = list(schema.covariates)
        i_cov = [col(c) for c in cov_names]

        rows = []
        for row_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            a = _parse_time(row[i_t1], row_no, "t1")
            bval = _parse_time(row[i_t2], row_no, "t2", allow_empty_inf=True)
            uval = _parse_time(row[i_tr], row_no, "trunc") if i_tr is not None else 0.0
            if bval < a:
                raise ValueError(f"row {row_no}: t2 < t1 ({bval} < {a})")
            try:
                x = tuple(float(row[i]) for i in i_cov)
            except ValueError:
                raise ValueError(f"row {row_no}: malformed covariate value") from None
            if i_loc is not None:
                key = row[i_loc].strip()
            elif i_lon is not None and i_lat is not None:
                key = (float(row[i_lon]), float(row[i_lat]))
            else:
                key = "1"
            rows.append((row_no, uval, a, bval, x, key))

    keys = []
    key_index = {}
    for _, _, _, _, _, key in rows:
        if key not in key_index:
            key_index[key] = len(keys) + 1
            keys.append(key)

    observations = []
    for row_no, uval, a, bval, x, key in rows:
        try:
            observations.append(CensoredObservation(
                a=a, b=bval, x=x, location=key_index[key], u=uval))
        except ValueError as exc:
            raise ValueError(f"row {row_no}: {exc}") from None

    coords = None
    if rows and isinstance(keys[0], tuple):
        coords = np.array(keys, dtype=float)
        location_ids = [f"{k[0]:g},{k[1]:g}" for k in keys]
    else:
        location_ids = [str(k) for k in keys]
    return Dataset(observations=observations, m=max(len(keys), 1) if rows else 0,
                   covariate_names=cov_names, location_ids=location_ids, coords=coords)


def load_adjacency(path, m=None):
    """Read an adjacency matrix: either a whitespace-separated 0/1 matrix or an
    edge list of `i j` pairs (1-based labels)."""
    with open(path) as fh:
        lines = [ln.split() for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    widths = {len(ln) for ln in lines}
    if widths == {2} and len(lines) != 2:
        labels = sorted({tok for ln in lines for tok in ln}, key=_label_key)
        index = {lab: i for i, lab in enumerate(labels)}
        size = m or len(labels)
        E = np.zeros((size, size), dtype=int)
        for i_tok, j_tok in lines:
            i, j = index[i_tok], index[j_tok]
            E[i, j] = E[j, i] = 1
        return E
    E = np.array([[float(v) for v in ln] for ln in lines])
    if E.shape[0] != E.shape[1]:
        raise ValueError(f"adjacency matrix must be square, got {E.shape}")
    return E.astype(int)


def _label_key(tok):
    try:
        return (0, float(tok))
    except ValueError:
        return (1, tok)


def load_site_table(path):
    """Read a site coordinate table CSV with columns (id, x, y).

    Returns (ids, coords) in file order.
    """
    ids, pts = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if len(header) < 3:
            raise ValueError("site table needs columns id, x, y")
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            ids.append(row[0].strip())
            pts.append((float(row[1]), float(row[2])))
    return ids, np.array(pts, dtype=float)
