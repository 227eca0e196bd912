"""The bpsurv benchmark: fit, diagnose and set-up time and ESS per second.

    python3 perfbench/run.py --workload areal-ph --seed 1 --seconds 15 --trace 0

Each round drives the command line as a user does: five `bpsurv fit
--dry-run` calls in fresh interpreters (set-up time), then `bpsurv fit` and
`bpsurv diagnose --draws 10` called in this process, then the checks of
checks.py on their output files.  Rounds repeat until --seconds have passed;
every round attempts the same operations.  With --trace 1 the package's
public functions are wrapped (spans.py) and the per-layer metrics are printed
instead of the end-to-end ones.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

The datasets and chain seeds are constants of each workload, so every run of
one source tree fits the same data with the same draws: ESS, a property of
the draws, then moves only when a change alters them.  --seed picks the extra
retained draws the likelihood check recomputes.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads, for this process and its children.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DRY_RUNS_PER_ROUND = 5
SUBPROCESS_TIMEOUT = 120
TRUTH_SDS = 4.0        # beta posterior means within this many posterior SDs of the truth
SLOPE_TOL = 0.15       # Cox-Snell cumulative-hazard slope within 1 +- this


@dataclass(frozen=True)
class Workload:
    name: str
    design: str          # "areal" or "geo"
    model: str           # generating and fitted model
    data_seed: int
    chain_seed: int
    chain: tuple         # chain-length flags for `bpsurv fit`
    fsa: tuple = None    # (knots, blocks) for the full-scale approximation


DEFAULT_CHAIN = ("--nburn", "3000", "--nsave", "2000")

WORKLOADS = {w.name: w for w in (
    Workload("areal-ph", "areal", "ph", data_seed=1, chain_seed=1, chain=DEFAULT_CHAIN),
    Workload("areal-aft", "areal", "aft", data_seed=1, chain_seed=1, chain=DEFAULT_CHAIN),
    Workload("geo-po", "geo", "po", data_seed=1, chain_seed=1, chain=DEFAULT_CHAIN),
    # The FSA phi update costs about 210 ms per sweep, against 4 ms dense:
    # 100 sweeps is what one round can afford.
    Workload("geo-po-fsa", "geo", "po", data_seed=1, chain_seed=1,
             chain=("--nburn", "20", "--nsave", "80"), fsa=(30, 5)),
)}

LAYER_TARGETS = {
    "sampler.prerun": "bpsurv.sampler:parametric_prerun",
    "sampler.sweep": "bpsurv.sampler:ChainSampler.sweep",
    "sampler.z": "bpsurv.sampler:ChainSampler.update_z",
    "sampler.theta": "bpsurv.sampler:ChainSampler.update_theta",
    "sampler.beta": "bpsurv.sampler:ChainSampler.update_beta",
    "sampler.alpha": "bpsurv.sampler:ChainSampler.update_alpha",
    "sampler.frailty": "bpsurv.sampler:ChainSampler.update_frailties",
    "sampler.tau2": "bpsurv.sampler:ChainSampler.update_tau2",
    "sampler.phi": "bpsurv.sampler:ChainSampler.update_phi",
    "models.build_cache": "bpsurv.models:LikelihoodEvaluator.build_cache",
    "models.loglik_obs": "bpsurv.models:LikelihoodEvaluator.loglik_obs",
    "models.survival_probs": "bpsurv.models:LikelihoodEvaluator.survival_probs",
    "baseline.bernstein_cdf_rows": "bpsurv.models:bernstein_cdf_rows",
    "baseline.bernstein_pdf_rows": "bpsurv.models:bernstein_pdf_rows",
    "baseline.family_survival": "bpsurv.models:family_survival",
    "baseline.family_log_density": "bpsurv.models:family_log_density",
    "frailty.build_structure": "bpsurv.frailty:build_structure",
    "frailty.fsa_build": "bpsurv.frailty:fsa_build",
    "frailty.select_knots": "bpsurv.frailty:select_knots",
    "frailty.assign_blocks": "bpsurv.frailty:assign_blocks",
    "criteria.compute_fit": "bpsurv.archive_io:compute_criteria",
    "criteria.compute_diagnose": "bpsurv.cli:compute_criteria",
    "diagnostics.coxsnell": "bpsurv.diagnostics:coxsnell_residuals",
    "diagnostics.turnbull": "bpsurv.diagnostics:turnbull_npmle",
    "archive_io.save": "bpsurv.cli:save_archive",
    "archive_io.load": "bpsurv.cli:load_archive",
    "data.load_csv": "bpsurv.cli:load_csv",
    "cli.fit": "bpsurv.cli:cmd_fit",
    "cli.diagnose": "bpsurv.cli:cmd_diagnose",
}

RESULT_HOOKS = {
    "diagnostics.turnbull": lambda est: (est.iterations, len(est.support)),
}

SWEEP_BLOCKS = ("z", "theta", "beta", "alpha", "frailty", "tau2", "phi")
ACCEPT_BLOCKS = ("z", "theta", "beta", "alpha", "frailty", "phi")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# Inputs and command lines
# ---------------------------------------------------------------------------

def prepare_inputs(wl, workdir):
    """Generate the workload's dataset into workdir; returns (design, paths)."""
    import gen
    design = gen.generate(wl.design, wl.model, wl.data_seed)
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {"data": workdir / "data.csv"}
    if wl.design == "areal":
        paths["adjacency"] = workdir / "adjacency.txt"
    design.write(paths["data"], paths.get("adjacency"))
    return design, paths


def _schema_args(wl, paths):
    args = ["--data", str(paths["data"]), "--trunc-col", "trunc"]
    if wl.design == "areal":
        return args + ["--location-col", "location", "--adjacency", str(paths["adjacency"])]
    return args + ["--lon-col", "lon", "--lat-col", "lat"]


def fit_argv(wl, paths, chain=None):
    argv = ["fit", *_schema_args(wl, paths), "--model", wl.model,
            "--frailty", "icar" if wl.design == "areal" else "grf",
            "--seed", str(wl.chain_seed), *(wl.chain if chain is None else chain)]
    if wl.fsa:
        argv += ["--fsa-knots", str(wl.fsa[0]), "--fsa-blocks", str(wl.fsa[1])]
    return argv


def diagnose_argv(wl, paths, fit_dir):
    return ["diagnose", "--fit", str(fit_dir), *_schema_args(wl, paths), "--draws", "10"]


def source_digest():
    """sha256 over the package sources and the benchmark's own code."""
    h = hashlib.sha256()
    files = [p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    files += sorted(HERE.glob("*.py"))
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# One round
# ---------------------------------------------------------------------------

class Ledger:
    """Operations attempted and failed, and whether the outputs were right."""

    def __init__(self, log):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.verdicts = {}    # check name -> passed (False when it could not run)
        self.log = log

    def op(self, name, fn):
        """Run one operation; an exception counts it as failed."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - any crash is a failed operation
            self.failed += 1
            self.log(f"FAILED {name}: {type(exc).__name__}: {exc}")
            return None

    def check(self, name, fn):
        """Run one check; a wrong verdict makes the run incorrect."""
        verdict = self.op(name, fn)
        self.verdicts[name] = verdict is not None and bool(verdict[0])
        if verdict is not None:
            ok, detail = verdict
            self.log(f"{'ok   ' if ok else 'WRONG'} {name}: {detail}")
            self.correct &= bool(ok)


def dry_run(argv):
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "bpsurv.cli", *argv, "--dry-run"],
                          cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=SUBPROCESS_TIMEOUT, check=False)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
    return elapsed


def call_cli(argv, log_path):
    """bpsurv's main() in this process; returns its wall time."""
    from bpsurv import cli
    with open(log_path, "a") as fh, contextlib.redirect_stdout(fh):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        elapsed = time.perf_counter() - t0
    if rc != 0:
        raise RuntimeError(f"bpsurv {argv[0]} exited with {rc}")
    return elapsed


def _read(ledger, what, fn):
    try:
        return fn()
    except (OSError, ValueError) as exc:
        ledger.log(f"cannot read {what}: {exc}")
        return None


def run_checks(ledger, wl, design, fit_dir, check_draws, digest_file):
    """Every check on one fit's outputs; returns the parsed output or None.

    A check whose input is missing raises, so it counts as failed."""
    import checks as ck
    import gen
    fit = _read(ledger, "fit outputs", lambda: ck.FitOutput(fit_dir))
    traces = _read(ledger, "coxsnell.csv", lambda: ck.read_coxsnell(fit_dir / "coxsnell.csv"))

    def draws():
        return sorted({0, fit.L // 2, fit.L - 1, *(d % fit.L for d in check_draws)})

    ledger.check("likelihood", lambda: ck.check_loglik(design, fit, draws()))
    ledger.check("truth", lambda: ck.check_truth(fit, gen.BETA, TRUTH_SDS))
    ledger.check("lpml", lambda: ck.check_lpml(fit))
    ledger.check("lpml<=lppd", lambda: ck.check_lppd(fit))
    ledger.check("coxsnell monotone", lambda: ck.check_coxsnell_monotone(traces))
    ledger.check("coxsnell slope", lambda: ck.check_coxsnell_slope(traces, SLOPE_TOL))
    ledger.check("determinism", lambda: check_digest(fit.digest, digest_file))
    return fit


def check_digest(digest, record):
    """draws.csv must hash the same in every run of one source tree."""
    if record.exists():
        stored = record.read_text().strip()
        return digest == stored, f"draws.csv sha256 {digest[:16]}, recorded {stored[:16]}"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(digest + "\n")
    return True, f"draws.csv sha256 {digest[:16]} recorded"


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def import_seconds():
    """Fresh-interpreter time to import bpsurv.cli."""
    code = ("import time; t0 = time.perf_counter(); import bpsurv.cli; "
            "print(time.perf_counter() - t0)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          capture_output=True, timeout=SUBPROCESS_TIMEOUT, check=True)
    return float(proc.stdout.decode().strip())


def layer_metrics(tracer, rounds, meta, fit_times, diagnose_times):
    """The per-layer metrics: counts and seconds per round, ms per call or sweep."""
    calls, total = tracer.calls, tracer.total

    def per_call_ms(*names):
        n = sum(calls.get(k, 0) for k in names)
        return 1e3 * sum(total.get(k, 0.0) for k in names) / n if n else 0.0

    sweeps = calls.get("sampler.sweep", 0)
    out = {
        "sampler.prerun_s": metric(total.get("sampler.prerun", 0.0) / rounds, "s"),
        "sampler.sweeps": metric(sweeps / rounds, "count"),
        "sampler.sweep_ms": metric(per_call_ms("sampler.sweep"), "ms"),
    }
    for block in SWEEP_BLOCKS:
        ms = 1e3 * total.get(f"sampler.{block}", 0.0) / sweeps if sweeps else 0.0
        out[f"sampler.{block}_ms"] = metric(ms, "ms")
    rates = meta.get("accept_rates", {})
    for block in ACCEPT_BLOCKS:
        out[f"sampler.{block}_accept"] = metric(float(rates.get(block, 0.0)), "ratio")
    out["sampler.nonfinite_rejects"] = metric(meta.get("nonfinite_rejects", 0), "count")
    for fn in ("build_cache", "loglik_obs"):
        name = f"models.{fn}"
        out[f"{name}_calls"] = metric(calls.get(name, 0) / rounds, "count")
        out[f"{name}_ms"] = metric(per_call_ms(name), "ms")
        out[f"{name}_s"] = metric(total.get(name, 0.0) / rounds, "s")
    out["models.survival_probs_ms"] = metric(per_call_ms("models.survival_probs"), "ms")
    out["baseline.bernstein_s"] = metric(
        sum(total.get(k, 0.0) for k in ("baseline.bernstein_cdf_rows",
                                        "baseline.bernstein_pdf_rows")) / rounds, "s")
    out["baseline.family_s"] = metric(
        sum(total.get(k, 0.0) for k in ("baseline.family_survival",
                                        "baseline.family_log_density")) / rounds, "s")
    out["frailty.build_structure_calls"] = metric(
        calls.get("frailty.build_structure", 0) / rounds, "count")
    out["frailty.build_structure_ms"] = metric(per_call_ms("frailty.build_structure"), "ms")
    out["frailty.fsa_build_ms"] = metric(per_call_ms("frailty.fsa_build"), "ms")
    out["frailty.select_knots_calls"] = metric(
        calls.get("frailty.select_knots", 0) / rounds, "count")
    out["frailty.select_knots_ms"] = metric(per_call_ms("frailty.select_knots"), "ms")
    out["frailty.assign_blocks_ms"] = metric(per_call_ms("frailty.assign_blocks"), "ms")
    out["criteria.compute_ms"] = metric(
        per_call_ms("criteria.compute_fit", "criteria.compute_diagnose"), "ms")
    out["diagnostics.coxsnell_ms"] = metric(per_call_ms("diagnostics.coxsnell"), "ms")
    out["diagnostics.turnbull_ms"] = metric(per_call_ms("diagnostics.turnbull"), "ms")
    turnbull = tracer.results.get("diagnostics.turnbull", [])
    out["diagnostics.turnbull_iters"] = metric(
        statistics.fmean(t[0] for t in turnbull) if turnbull else 0.0, "count")
    out["diagnostics.turnbull_support"] = metric(
        statistics.fmean(t[1] for t in turnbull) if turnbull else 0.0, "count")
    out["archive_io.save_ms"] = metric(per_call_ms("archive_io.save"), "ms")
    out["archive_io.load_ms"] = metric(per_call_ms("archive_io.load"), "ms")
    out["data.load_csv_ms"] = metric(per_call_ms("data.load_csv"), "ms")
    out["cli.import_s"] = metric(statistics.median(import_seconds() for _ in range(3)), "s")
    out["cli.fit_s"] = metric(statistics.median(fit_times), "s")
    out["cli.diagnose_s"] = metric(statistics.median(diagnose_times), "s")
    return out


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "bpsurv" / "cli.py").is_file():
        print(f"error: no bpsurv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy as np

    from bpsurv import cli  # noqa: F401 - imported before any timing
    import checks as ck

    wl = WORKLOADS[args.workload]
    work = OUT / wl.name
    shutil.rmtree(work / "run", ignore_errors=True)
    design, paths = prepare_inputs(wl, work / "run")
    print(f"{wl.name}: n={design.n}, m={design.m}, "
          + ", ".join(f"{k} {v}" for k, v in design.censoring_mix().items()), flush=True)
    fit_dir = work / "run" / "fit"
    cli_log = work / "run" / "cli.log"
    digest_file = OUT / "digests" / f"{wl.name}-{source_digest()[:20]}.txt"
    extra_draws = np.random.default_rng(args.seed).integers(0, 1 << 30, size=2).tolist()

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        for name, target in LAYER_TARGETS.items():
            tracer.wrap(target, name, RESULT_HOOKS.get(name))

    ledger = Ledger(lambda line: print(line, flush=True))
    samples = {k: [] for k in ("setup", "fit", "diagnose", "min_ess", "ess_per_s")}

    def one_round(number):
        """Dry-runs, fit, diagnose and checks; returns the fit's meta.json.

        The parsed outputs are dropped on return, so no round's files are
        held in memory while the next fit runs."""
        for _ in range(DRY_RUNS_PER_ROUND):
            t = ledger.op("fit --dry-run", lambda: dry_run(fit_argv(wl, paths)))
            if t is not None:
                samples["setup"].append(t)
        shutil.rmtree(fit_dir, ignore_errors=True)
        t_fit = ledger.op("fit", lambda: call_cli(
            fit_argv(wl, paths) + ["--outdir", str(fit_dir)], cli_log))
        t_diag = ledger.op("diagnose", lambda: call_cli(
            diagnose_argv(wl, paths, fit_dir), cli_log))
        fit = run_checks(ledger, wl, design, fit_dir, extra_draws, digest_file)
        if t_fit is not None:
            samples["fit"].append(t_fit)
        if t_diag is not None:
            samples["diagnose"].append(t_diag)
        if fit is None:
            return {}
        lowest, per_series = ck.min_ess(fit)
        print(f"round {number}: draws.csv sha256 {fit.digest}  ESS "
              + " ".join(f"{k}={v:.1f}" for k, v in per_series.items()), flush=True)
        samples["min_ess"].append(lowest)
        if t_fit is not None:
            samples["ess_per_s"].append(lowest / t_fit)
        return fit.meta

    meta = {}
    rounds = 0
    t_begin = time.perf_counter()
    while rounds == 0 or time.perf_counter() - t_begin < args.seconds:
        rounds += 1
        meta = one_round(rounds) or meta
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if not all(samples.values()):
        print("error: no round completed its fit, diagnose and checks", file=sys.stderr)
        return 1
    if tracer is not None:
        tracer.uninstall()
        (work / "run" / "spans.json").write_text(json.dumps(
            {"rounds": rounds, "absent": tracer.absent, "spans": tracer.table()}, indent=1))
        if tracer.absent:
            print("absent from the package: " + ", ".join(tracer.absent), flush=True)
        metrics = layer_metrics(tracer, rounds, meta, samples["fit"], samples["diagnose"])
    else:
        metrics = {
            "setup_s": metric(statistics.median(samples["setup"]), "s"),
            "fit_s": metric(statistics.median(samples["fit"]), "s"),
            "min_ess": metric(statistics.median(samples["min_ess"]), "draws"),
            "ess_per_s": metric(statistics.median(samples["ess_per_s"]), "1/s"),
            "diagnose_s": metric(statistics.median(samples["diagnose"]), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    print(json.dumps({"correct": ledger.correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
