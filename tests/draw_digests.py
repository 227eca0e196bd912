"""sha256 digests of short fits and of simulated data, and draw-by-draw shadows.

A change that must leave the chain's draws byte-identical prints the same
lines as its parent.  Run from a checkout (the fits import the package from
the checkout's src/):

    python tests/draw_digests.py
    python tests/draw_digests.py --keep DIR     # also keep the 13 fits in DIR
    python tests/draw_digests.py --compare OLD NEW

Data: `bpsurv simulate --design sim1-ph --seed 1` (37 areal regions) and
`--design sim3-aft --seed 1` (150 georeferenced sites), plus a left-truncated
copy of the areal data with trunc = 0.4 t1 on data rows 0, 3, 6, ...  Every
fit passes --nburn 150 --nsave 150 --seed 3 --trunc-col trunc.  The fits
cover each model, each frailty kind (none, iid, icar, dense grf, FSA with 20
knots and 4 blocks), --selection, --nonlinear x2 and left truncation.  BLAS
runs on one thread.

Each line reads: label, sha256 of draws.csv, sha256 of loglik.npy,
sha256 of meta.json's criteria and accept_rates, dumped as
json.dumps({"criteria": ..., "accept_rates": ...}, sort_keys=True),
and sha256 of the coxsnell.csv, diagnose.json and coxsnell.svg that
`bpsurv diagnose --draws 10 --svg` writes for the fit.  The third digest
extends the check to LPML, WAIC, DIC, p_D, p_V and loglik_at_mean, which
the archive derives from the draws and the log-likelihood (DIC and p_V from
the per-draw totals) and which the other two files do not show; the rest of
meta.json carries the elapsed time and the resolved options, and is left
out.  The last three cover the Cox-Snell assessment of a loaded archive:
its rebuilt spline terms, its regression coefficients, the Turnbull
estimate, the cumulative-hazard slope and the plot.

After the 13 fit lines come 9 lines, one per `bpsurv simulate --seed 7`
design, each with the sha256 of the CSV, of the adjacency file (`-` for a
design that writes none) and of the --truth-out JSON.  To compare with a
parent commit, run this script in a checkout of the parent too.  The script
takes about ten seconds; it is not a pytest module.

A change meant to move the likelihood by rounding only cannot keep the
digests, but it should keep the chain's path: every accept/reject decision
the same, and the draws within a small distance of the parent's.  --keep
writes each fit to its own directory under DIR; --compare reads two such
directories (or any two directories of fit output directories with the same
names) and prints, per fit, the largest |difference| of a draw and whether
the accept_rates in meta.json are equal.  A rounding-level change moves
the draws by about 1e-7, not 1e-14: the parametric Laplace fit finds its
mode by BFGS on finite-difference gradients, which amplify a 1e-16 change
of the objective into the mode (the theta prior's centre and the starting
point) and into the inverse Hessian whose Cholesky factors drive the theta
and beta proposals.  A spline term's coefficients sit in that fit too, and
move further.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from bpsurv.cli import main  # noqa: E402
from bpsurv.simulate import DESIGNS  # noqa: E402

SHORT = ["--nburn", "150", "--nsave", "150", "--seed", "3"]

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


def _meta_sha256(path):
    meta = json.loads(Path(path).read_text())
    blob = json.dumps({"criteria": meta["criteria"], "accept_rates": meta["accept_rates"]},
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _slug(k, label):
    return f"{k:02d}-" + "-".join(w.lstrip("-") for w in label.split())


def main_digests(keep=None):
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
            out = (Path(keep) if keep else tmp) / _slug(k, label)
            data_args = ["--data", str(tmp / f"{data}.csv"), *places[data],
                         "--trunc-col", "trunc"]
            argv = ["fit", *data_args, *SHORT, *extra, "--outdir", str(out)]
            if "icar" in extra:
                argv += ["--adjacency", adjacency]
            _run(argv)
            _run(["diagnose", "--fit", str(out), *data_args, "--draws", "10", "--svg"])
            print(f"{label}: draws.csv {_sha256(out / 'draws.csv')} "
                  f"loglik.npy {_sha256(out / 'loglik.npy')} "
                  f"meta.json {_meta_sha256(out / 'meta.json')} "
                  f"coxsnell.csv {_sha256(out / 'coxsnell.csv')} "
                  f"diagnose.json {_sha256(out / 'diagnose.json')} "
                  f"coxsnell.svg {_sha256(out / 'coxsnell.svg')}", flush=True)
        for design in sorted(DESIGNS):
            csv_path, truth = tmp / f"sim-{design}.csv", tmp / f"sim-{design}-truth.json"
            _run(["simulate", "--design", design, "--seed", "7", "--out", str(csv_path),
                  "--truth-out", str(truth)])
            adjacency = tmp / f"sim-{design}_adjacency.txt"
            print(f"simulate {design}: csv {_sha256(csv_path)} adjacency "
                  f"{_sha256(adjacency) if adjacency.exists() else '-'} "
                  f"truth {_sha256(truth)}", flush=True)


def _draws(fit):
    with open(fit / "draws.csv") as fh:
        names = fh.readline().strip().split(",")
    return names, np.loadtxt(fit / "draws.csv", delimiter=",", skiprows=1, ndmin=2)


def compare(old, new):
    """Per fit directory present under both: max |draw difference| and
    whether the acceptance rates are equal."""
    old, new = Path(old), Path(new)
    fits = sorted(d.name for d in old.iterdir() if (d / "draws.csv").exists()
                  and (new / d.name / "draws.csv").exists())
    if not fits:
        raise SystemExit(f"no fit directory is present under both {old} and {new}")
    for name in fits:
        (names_a, a), (names_b, b) = _draws(old / name), _draws(new / name)
        delta = (f"{np.max(np.abs(a - b)):.3g}" if names_a == names_b and a.shape == b.shape
                 else "columns differ")
        rates = [json.loads((d / name / "meta.json").read_text())["accept_rates"]
                 for d in (old, new)]
        print(f"{name}: max |delta draw| {delta}  accept_rates "
              f"{'equal' if rates[0] == rates[1] else 'differ'}", flush=True)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--keep", metavar="DIR", help="write the fits to DIR/<fit> and keep them")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="compare two directories of kept fits instead of fitting")
    args = ap.parse_args()
    if args.compare:
        compare(*args.compare)
    else:
        main_digests(args.keep)
