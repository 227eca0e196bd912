"""sha256 digests of short fits on simulated data.

A change that must leave the chain's draws byte-identical prints the same
lines as its parent.  Run from a checkout (the fits import the package from
the checkout's src/):

    python tests/draw_digests.py

Data: `bpsurv simulate --design sim1-ph --seed 1` (37 areal regions) and
`--design sim3-aft --seed 1` (150 georeferenced sites), plus a left-truncated
copy of the areal data with trunc = 0.4 t1 on data rows 0, 3, 6, ...  Every
fit passes --nburn 150 --nsave 150 --seed 3 --trunc-col trunc.  The fits
cover each model, each frailty kind (none, iid, icar, dense grf, FSA with 20
knots and 4 blocks), --selection, --nonlinear x2 and left truncation.  BLAS
runs on one thread.

Each line reads: label, sha256 of draws.csv, sha256 of loglik.npy.  The
script takes about ten seconds; it is not a pytest module.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bpsurv.cli import main  # noqa: E402

SHORT = ["--nburn", "150", "--nsave", "150", "--seed", "3", "--trunc-col", "trunc"]

# (label, data set, extra fit options)
FITS = [
    ("ph", "areal", []),
    ("ph --nonlinear x2", "areal", ["--nonlinear", "x2"]),
    ("ph --selection", "areal", ["--selection"]),
    ("ph --selection --nonlinear x2", "areal", ["--selection", "--nonlinear", "x2"]),
    ("ph --frailty iid", "areal", ["--frailty", "iid"]),
    ("po --frailty iid --selection", "areal",
     ["--model", "po", "--frailty", "iid", "--selection"]),
    ("aft --nonlinear x2 --selection", "areal",
     ["--model", "aft", "--nonlinear", "x2", "--selection"]),
    ("aft --frailty icar", "areal", ["--model", "aft", "--frailty", "icar"]),
    ("truncated ph --frailty icar", "truncated", ["--frailty", "icar"]),
    ("truncated aft --nonlinear x2", "truncated", ["--model", "aft", "--nonlinear", "x2"]),
    ("geo aft --frailty grf", "geo", ["--model", "aft", "--frailty", "grf"]),
    ("geo po --frailty grf --nonlinear x2", "geo",
     ["--model", "po", "--frailty", "grf", "--nonlinear", "x2"]),
    ("geo ph --frailty grf --fsa-knots 20 --fsa-blocks 4", "geo",
     ["--frailty", "grf", "--fsa-knots", "20", "--fsa-blocks", "4"]),
]


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code:
        raise SystemExit(f"bpsurv {' '.join(argv)} exited {code}")


def _truncated_copy(src, dst):
    with open(src, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for i, row in enumerate(rows):
        if i % 3 == 0:
            row["trunc"] = repr(0.4 * float(row["t1"]))
    with open(dst, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def main_digests():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _run(["simulate", "--design", "sim1-ph", "--seed", "1", "--out", str(tmp / "areal.csv")])
        _run(["simulate", "--design", "sim3-aft", "--seed", "1", "--out", str(tmp / "geo.csv")])
        _truncated_copy(tmp / "areal.csv", tmp / "truncated.csv")
        adjacency = str(tmp / "areal_adjacency.txt")
        places = {"areal": ["--location-col", "location"],
                  "truncated": ["--location-col", "location"],
                  "geo": ["--lon-col", "lon", "--lat-col", "lat"]}
        for k, (label, data, extra) in enumerate(FITS):
            out = tmp / f"fit{k}"
            argv = ["fit", "--data", str(tmp / f"{data}.csv"), *places[data], *SHORT,
                    *extra, "--outdir", str(out)]
            if "icar" in extra:
                argv += ["--adjacency", adjacency]
            _run(argv)
            print(f"{label}: draws.csv {_sha256(out / 'draws.csv')} "
                  f"loglik.npy {_sha256(out / 'loglik.npy')}", flush=True)


if __name__ == "__main__":
    main_digests()
