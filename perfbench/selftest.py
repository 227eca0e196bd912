"""Self-test of the benchmark: its checks pass on real output and bite on bad output.

    python3 perfbench/selftest.py

For every workload it fits a short chain through the command line, runs
diagnose, and requires every check to pass (determinism by fitting twice).
Then it corrupts copies of one fit's files, one fault at a time, and requires
the named checks to report them.  Last, it runs the benchmark from a directory
that holds only the benchmark's own files and requires it to fail without
printing a result.  Exits 1 if any expectation is not met.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import run  # sets the BLAS thread count before numpy loads

import checks
import numpy as np

# Short chains after the default pre-run (a shorter pre-run leaves the AFT
# beta proposal too narrow to move).  geo-po-fsa keeps its benchmark chain,
# which is already short.
SHORT = ("--nburn", "300", "--nsave", "300")
SHORT_CHAINS = {"areal-ph": SHORT, "areal-aft": SHORT, "geo-po": SHORT,
                "geo-po-fsa": run.WORKLOADS["geo-po-fsa"].chain}

CHECKS = ("likelihood", "truth", "lpml", "lpml<=lppd", "coxsnell monotone",
          "coxsnell slope", "determinism")


def checks_on(wl, design, fit_dir, record):
    """{check name: passed} for one fit directory."""
    ledger = run.Ledger(lambda line: None)
    run.run_checks(ledger, wl, design, fit_dir, [7], record)
    return ledger.verdicts


def fit_twice(wl, base):
    design, paths = run.prepare_inputs(wl, base)
    log = base / "cli.log"
    chain = SHORT_CHAINS[wl.name]
    for name in ("fit", "refit"):
        run.call_cli(run.fit_argv(wl, paths, chain) + ["--outdir", str(base / name)], log)
    run.call_cli(run.diagnose_argv(wl, paths, base / "fit"), log)
    return design


def corrupt(src, dst, fault):
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    fault(dst)


def bump_loglik_row(d):
    ll = np.load(d / "loglik.npy")
    ll[ll.shape[0] // 2, 3] += 1e-3
    np.save(d / "loglik.npy", ll)


def shift_beta_column(d):
    lines = (d / "draws.csv").read_text().splitlines()
    col = lines[0].split(",").index("beta.x1")
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[col] = f"{float(cells[col]) + 2.0:.17e}"
        out.append(",".join(cells))
    (d / "draws.csv").write_text("\n".join(out) + "\n")


def raise_stored_lpml(d):
    meta = json.loads((d / "meta.json").read_text())
    meta["criteria"]["lpml"] += 100.0
    (d / "meta.json").write_text(json.dumps(meta))


def _rewrite_coxsnell(d, edit):
    rows = np.loadtxt(d / "coxsnell.csv", delimiter=",", skiprows=1)
    edit(rows)
    with open(d / "coxsnell.csv", "w") as fh:
        fh.write("draw_id,r,cumhaz\n")
        for draw_id, r, h in rows:
            fh.write(f"{int(draw_id)},{r:.17e},{h:.17e}\n")


def dent_cumhaz(d):
    def edit(rows):
        first = rows[:, 0] == rows[0, 0]
        idx = np.flatnonzero(first)[len(np.flatnonzero(first)) // 2]
        rows[idx, 2] = rows[idx + 1, 2] + 0.5
    _rewrite_coxsnell(d, edit)


def steepen_cumhaz(d):
    def edit(rows):
        rows[:, 2] *= 1.5
    _rewrite_coxsnell(d, edit)


def flip_draws_byte(d):
    text = (d / "draws.csv").read_text()
    (d / "draws.csv").write_text(text[:-3] + ("1" if text[-3] != "1" else "2") + text[-2:])


FAULTS = (
    ("a loglik.npy row changed", bump_loglik_row, ("likelihood", "lpml")),
    ("the beta.x1 column shifted", shift_beta_column, ("likelihood", "truth")),
    ("meta.json LPML raised", raise_stored_lpml, ("lpml", "lpml<=lppd")),
    ("a cumulative hazard dented", dent_cumhaz, ("coxsnell monotone",)),
    ("the cumulative hazard steepened", steepen_cumhaz, ("coxsnell slope",)),
    ("one byte of draws.csv changed", flip_draws_byte, ("determinism",)),
)


def bare_checkout_fails(base):
    """The benchmark alone, without the package sources, must fail quietly."""
    bare = base / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", "areal-ph",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, timeout=run.SUBPROCESS_TIMEOUT,
                          check=False)
    printed = proc.stdout.decode().strip()
    return proc.returncode != 0 and not printed.endswith("}")


def main():
    sys.path[:0] = [str(run.SRC)]
    base = run.OUT / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    problems = []

    for wl in run.WORKLOADS.values():
        t0 = time.perf_counter()
        wdir = base / wl.name
        design = fit_twice(wl, wdir)
        record = wdir / "digest.txt"
        record.write_text(checks.FitOutput(wdir / "refit").digest)
        ok = checks_on(wl, design, wdir / "fit", record)
        bad = [name for name in CHECKS if not ok.get(name)]
        print(f"{wl.name}: {'all checks pass' if not bad else 'FAILED ' + ', '.join(bad)}"
              f" ({time.perf_counter() - t0:.1f} s)")
        problems += [f"{wl.name}: {name} fails on honest output" for name in bad]
        if wl.name == "areal-ph":
            honest = (wl, design, wdir)

    wl, design, wdir = honest
    for label, fault, expected in FAULTS:
        bent = wdir / "corrupt"
        corrupt(wdir / "fit", bent, fault)
        ok = checks_on(wl, design, bent, wdir / "digest.txt")
        missed = [name for name in expected if ok.get(name, True)]
        print(f"{label}: " + ("caught by " + ", ".join(expected) if not missed
                               else "MISSED by " + ", ".join(missed)))
        problems += [f"{label}: not caught by {name}" for name in missed]

    if bare_checkout_fails(base):
        print("without the package sources: exits nonzero, prints no result")
    else:
        print("without the package sources: DID NOT FAIL as required")
        problems.append("bare checkout did not fail")

    if problems:
        print("self-test FAILED:\n  " + "\n  ".join(problems))
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
