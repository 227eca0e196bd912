"""Arbitrarily censored survival data as arrays, and file ingestion.

Row i of a dataset is the interval (a_i, b_i] known to contain the survival
time, with 0 <= a_i <= b_i <= inf, a left-truncation time u_i <= a_i (0 when
there is none), a covariate vector X[i] and a 1-based location index loc_i.
The censoring kind is never stored; it is always inferred from (u, a, b):

    exact     a == b
    right     b == inf
    left      a == u (u is 0 when there is no truncation)
    interval  otherwise

A row is one term of the likelihood, not necessarily one subject: a subject
whose covariates change at known times is entered as counting-process rows,
one per epoch, each truncated at the start of its epoch (see the README).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

INF = math.inf

EXACT, RIGHT, LEFT, INTERVAL = "exact", "right", "left", "interval"


def _first_invalid(a, b, u, X, loc, m):
    """(index, message) of the first row that fails a check, or None.

    The message is that of the row's first failing check; a NaN time fails
    the first.
    """
    exact = a == b
    checks = (
        (~((0.0 <= u) & (u <= a) & (a <= b)), "need 0 <= u <= a <= b, got u={u}, a={a}, b={b}"),
        (exact & np.isinf(a), "exact observation at infinity"),
        (exact & (a <= 0.0), "exact observations require a strictly positive time"),
        (loc < 1, "location indices are 1-based"),
        (loc > m, "location {loc} exceeds m = {m}"),
        (~np.isfinite(X).all(axis=1), "covariates must be finite"),
    )
    bad = np.column_stack([mask for mask, _ in checks])
    rows = np.flatnonzero(bad.any(axis=1))
    if not rows.size:
        return None
    i = rows[0]
    message = checks[np.argmax(bad[i])][1]
    return i, message.format(u=float(u[i]), a=float(a[i]), b=float(b[i]), loc=loc[i], m=m)


@dataclass(eq=False)
class Dataset:
    """n rows of survival data: vectors a, b, u and loc, and the n x p matrix X.

    The arrays are checked once, here, and are read-only by convention
    afterwards: 0 <= u <= a <= b, an exact time finite and positive,
    covariates finite, loc an integer in 1..m, and every site 1..m present
    (when there are rows).  location_ids holds the original site labels,
    index i -> label of site i+1; coords the (m, 2) coordinates of
    georeferenced sites.
    """

    a: np.ndarray
    b: np.ndarray
    u: np.ndarray
    X: np.ndarray
    loc: np.ndarray
    m: int
    covariate_names: list
    location_ids: list = None
    coords: np.ndarray = None

    def __post_init__(self):
        self.a, self.b, self.u = (np.ascontiguousarray(v, dtype=float)
                                  for v in (self.a, self.b, self.u))
        loc = np.asarray(self.loc)
        if loc.size and loc.dtype.kind not in "iu":
            raise ValueError(f"location indices must be integers, got dtype {loc.dtype}")
        self.loc = np.ascontiguousarray(loc, dtype=int)
        if self.a.ndim != 1 or len({v.shape for v in (self.a, self.b, self.u, self.loc)}) != 1:
            raise ValueError("a, b, u and loc must be vectors of one length")
        self.X = np.ascontiguousarray(self.X, dtype=float)
        if self.X.shape != (self.n, self.p):
            raise ValueError(f"covariate dimension mismatch: X is {self.X.shape}, "
                             f"expected ({self.n}, {self.p})")
        bad = _first_invalid(self.a, self.b, self.u, self.X, self.loc, self.m)
        if bad:
            raise ValueError(f"observation {bad[0]}: {bad[1]}")
        if self.n:
            missing = np.setdiff1d(np.arange(1, self.m + 1), self.loc)
            if missing.size:
                raise ValueError(f"every location in 1..m must occur; missing {missing.tolist()}")
        if self.location_ids is None:
            self.location_ids = [str(i + 1) for i in range(self.m)]

    @property
    def n(self):
        return len(self.a)

    @property
    def p(self):
        return len(self.covariate_names)

    def kinds(self):
        """Each row's censoring kind, by the rules of the module docstring."""
        return np.select([self.a == self.b, np.isinf(self.b), self.a == self.u],
                         [EXACT, RIGHT, LEFT], INTERVAL)

    def column(self, name):
        if name not in self.covariate_names:
            raise ValueError(f"unknown covariate {name!r}; the data has {self.covariate_names}")
        return self.X[:, self.covariate_names.index(name)]

    def to_csv(self, path):
        """Write in the standard schema (t1, t2, trunc, covariates..., location).

        Georeferenced data (coords set) end in lon, lat columns instead of
        location.  Every number is written as repr(float), and an infinite
        upper endpoint as an empty t2 field, so the file round-trips exactly.
        """
        if self.coords is None:
            site_cols = ["location"]
            sites = [[label] for label in self.location_ids]
        else:
            site_cols = ["lon", "lat"]
            sites = [[repr(lon), repr(lat)] for lon, lat in self.coords.tolist()]
        rows = zip(self.a.tolist(), self.b.tolist(), self.u.tolist(), self.X.tolist(),
                   self.loc.tolist())
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t1", "t2", "trunc", *self.covariate_names, *site_cols])
            for a, b, u, x, loc in rows:
                writer.writerow([repr(a), "" if math.isinf(b) else repr(b), repr(u),
                                 *map(repr, x), *sites[loc - 1]])


@dataclass(frozen=True)
class CsvSchema:
    """Column names for load_csv.  covariates=None means every column not
    otherwise claimed is a covariate.  Sites are named by a location column
    alone, by lon and lat together, or not at all (one site)."""

    t1: str = "t1"
    t2: str = "t2"
    trunc: str = None
    location: str = None
    lon: str = None
    lat: str = None
    covariates: tuple = None

    def __post_init__(self):
        if bool(self.lon) != bool(self.lat) or (self.location and self.lon):
            raise ValueError(
                "name the sites by a location column alone or by lon and lat columns "
                f"together, not location={self.location!r}, lon={self.lon!r}, lat={self.lat!r}")


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
    empty t2 field means +inf.  Blank rows are skipped.  A row with more or
    fewer fields than the header, a blank location label, a non-finite
    coordinate, and a covariate column with one value on every row are
    rejected; every row error names the file's row number.
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
        roles = dict(t1=i_t1, t2=i_t2, trunc=i_tr, location=i_loc, lon=i_lon, lat=i_lat)
        claimed = {i: role for role, i in roles.items() if i is not None}
        if schema.covariates is None:
            cov_names = [h for i, h in enumerate(header) if i not in claimed]
        else:
            cov_names = list(schema.covariates)
        i_cov = [col(c) for c in cov_names]
        for k, (name, i) in enumerate(zip(cov_names, i_cov)):
            if name in cov_names[:k]:
                raise ValueError(f"{path}: covariate column {name!r} is listed twice")
            if i in claimed:
                raise ValueError(f"{path}: covariate column {name!r} is the {claimed[i]} "
                                 "column, not a covariate")

        row_nos, times, xs, keys = [], [], [], []  # one entry per data row
        for row_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise ValueError(f"row {row_no}: expected {len(header)} fields, got {len(row)}")
            a = _parse_time(row[i_t1], row_no, "t1")
            b = _parse_time(row[i_t2], row_no, "t2", allow_empty_inf=True)
            u = _parse_time(row[i_tr], row_no, "trunc") if i_tr is not None else 0.0
            if b < a:
                raise ValueError(f"row {row_no}: t2 < t1 ({b} < {a})")
            try:
                xs.append([float(row[i]) for i in i_cov])
            except ValueError:
                raise ValueError(f"row {row_no}: malformed covariate value") from None
            if i_loc is not None:
                key = row[i_loc].strip()
                if not key:
                    raise ValueError(f"row {row_no}: missing location")
            elif i_lon is not None:
                try:
                    key = (float(row[i_lon]), float(row[i_lat]))
                except ValueError:
                    raise ValueError(f"row {row_no}: malformed lon/lat value "
                                     f"({row[i_lon]!r}, {row[i_lat]!r})") from None
                if not (math.isfinite(key[0]) and math.isfinite(key[1])):
                    raise ValueError(f"row {row_no}: non-finite lon/lat value "
                                     f"({row[i_lon]!r}, {row[i_lat]!r})")
            else:
                key = "1"
            row_nos.append(row_no)
            times.append((a, b, u))
            keys.append(key)

    sites = {}
    loc = np.array([sites.setdefault(key, len(sites) + 1) for key in keys], dtype=int)
    a, b, u = np.array(times, dtype=float).reshape(-1, 3).T.copy()
    X = np.array(xs, dtype=float).reshape(len(xs), len(cov_names))
    bad = _first_invalid(a, b, u, X, loc, len(sites))
    if bad:
        raise ValueError(f"row {row_nos[bad[0]]}: {bad[1]}")

    constant = np.flatnonzero((X == X[:1]).all(axis=0)) if len(X) else ()
    if len(constant):
        name = cov_names[constant[0]]
        raise ValueError(
            f"{path}: covariate column {name!r} has the same value on every row, "
            f"so its coefficient is not identified; if it holds truncation "
            f"times, name it with --trunc-col {name}")

    coords = None
    if i_lon is not None and sites:
        coords = np.array(list(sites), dtype=float)
        location_ids = [f"{k[0]:g},{k[1]:g}" for k in sites]
    else:
        location_ids = list(sites)
    return Dataset(a=a, b=b, u=u, X=X, loc=loc, m=len(sites), covariate_names=cov_names,
                   location_ids=location_ids, coords=coords)


def load_adjacency(path, m=None, labels=None):
    """Read an adjacency matrix: either a whitespace-separated 0/1 matrix or an
    edge list of `i j` pairs.  An edge list's tokens are region labels; a
    matrix's row k is the region labelled k (1-based).  A two-line, two-column
    file is a 2x2 matrix unless m (or labels) says the data have some other
    number of regions.

    Without labels, rows follow the file's labels in order.  With labels, the
    data's region labels in site order (Dataset.location_ids), row i is the
    region labelled labels[i]; numeric labels match by value, and a label on
    one side only is a ValueError.
    """
    if labels is not None:
        m = len(labels)
    with open(path) as fh:
        lines = [ln.split() for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    widths = {len(ln) for ln in lines}
    if widths == {2} and (len(lines) != 2 or m not in (None, 2)):
        names = {_label_key(tok): tok for ln in lines for tok in ln}
        index = {key: i for i, key in enumerate(sorted(names))}
        E = np.zeros((len(index), len(index)), dtype=int)
        for i_tok, j_tok in lines:
            i, j = index[_label_key(i_tok)], index[_label_key(j_tok)]
            E[i, j] = E[j, i] = 1
    else:
        E = np.array([[float(v) for v in ln] for ln in lines])
        if E.shape[0] != E.shape[1]:
            raise ValueError(f"adjacency matrix must be square, got {E.shape}")
        E = E.astype(int)
        names = {_label_key(str(k)): str(k) for k in range(1, E.shape[0] + 1)}
        index = {key: i for i, key in enumerate(names)}
    if labels is None:
        return E
    sites = [_label_key(lab) for lab in labels]
    if len(set(sites)) != len(sites):
        raise ValueError(f"region labels {list(labels)} repeat a number")
    missing = [lab for lab, key in zip(labels, sites) if key not in index]
    if missing:
        raise ValueError(f"{path}: regions {missing} of the data are not in the adjacency file")
    extra = [names[key] for key in sorted(set(index) - set(sites))]
    if extra:
        raise ValueError(f"{path}: regions {extra} of the adjacency file are not in the data")
    order = [index[key] for key in sites]
    return E[np.ix_(order, order)]


def _label_key(tok):
    try:
        return (0, float(tok))
    except ValueError:
        return (1, tok)

