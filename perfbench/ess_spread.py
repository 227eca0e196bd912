"""Seed-to-seed spread of min_ess, measured once for the README.

    python3 perfbench/ess_spread.py areal-ph [more workloads...]

The benchmark fixes each workload's data and chain seeds, so min_ess is the
same on every run of one commit.  A change that alters the draws moves it by
Monte Carlo noise as well as by any real gain or loss; this script shows how
large that noise is by refitting each workload with other data seeds (chain
seed fixed) and other chain seeds (data fixed), and printing min_ess for each.
"""

from __future__ import annotations

import dataclasses
import statistics
import sys

import run  # sets the BLAS thread count before numpy loads

import checks

EXTRA_SEEDS = (2, 3, 4)


def main(names):
    sys.path[:0] = [str(run.SRC)]
    for name in names:
        base = run.WORKLOADS[name]
        variants = [("data", s, dataclasses.replace(base, data_seed=s)) for s in EXTRA_SEEDS]
        variants += [("chain", s, dataclasses.replace(base, chain_seed=s)) for s in EXTRA_SEEDS]
        values = []
        for what, seed, wl in variants:
            work = run.OUT / "ess_spread" / name / f"{what}{seed}"
            _, paths = run.prepare_inputs(wl, work)
            run.call_cli(run.fit_argv(wl, paths) + ["--outdir", str(work / "fit")],
                         work / "cli.log")
            lowest, per_series = checks.min_ess(checks.FitOutput(work / "fit"))
            values.append(lowest)
            print(f"{name} {what} seed {seed}: min_ess {lowest:.1f} ("
                  + ", ".join(f"{k} {v:.1f}" for k, v in per_series.items()) + ")", flush=True)
        q = statistics.quantiles(values, n=4)
        print(f"{name}: min_ess median {statistics.median(values):.1f}, range "
              f"{min(values):.1f}..{max(values):.1f}, quartile spread "
              f"{(q[2] - q[0]) / statistics.median(values):.2f} of the median", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:] or sorted(run.WORKLOADS))
