"""Monte Carlo replicate studies: simulate, fit, aggregate.

Each replicate r of a study with master seed s draws its data and chain seeds
from fixed integer functions of (s, r), so results are identical no matter how
replicates are distributed over worker processes.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import criteria as cr
from .sampler import McmcConfig, run_chain

_MASK = (1 << 62) - 1

S0_GRID = np.linspace(0.05, 5.0, 60)  # where each replicate's fitted S0 is averaged


def data_seed(master, rep):
    return (master * 7_654_321 + 13 * rep + 1) & _MASK

def chain_seed(master, rep, which=0):
    return (master * 1_000_003 + 1009 * rep + which) & _MASK


@dataclass
class ReplicateResult:
    replicate: int
    beta_mean: np.ndarray
    beta_sd: np.ndarray
    covered: np.ndarray
    ess_beta: np.ndarray
    tau2_median: float = None
    tau2_covered: bool = None
    lpml: float = None
    dic: float = None
    waic: float = None
    s0_fit: np.ndarray = None
    alt_criteria: dict = field(default_factory=dict)  # model -> (lpml, dic, waic)


def _summaries(archive, truth):
    beta = archive.draws["beta"]
    mean = beta.mean(axis=0)
    sd = beta.std(axis=0, ddof=1)
    lo, hi = np.quantile(beta, [0.025, 0.975], axis=0)
    covered = (lo <= truth.beta) & (truth.beta <= hi)
    ess_beta = np.array([cr.ess(beta[:, j]) for j in range(beta.shape[1])])
    tau2_median = tau2_cov = None
    if "tau2" in archive.draws:
        t2 = archive.draws["tau2"]
        tau2_median = float(np.median(t2))
        t2lo, t2hi = np.quantile(t2, [0.025, 0.975])
        tau2_cov = bool(t2lo <= truth.tau2 <= t2hi)
    s0 = archive.fitted_baseline_survival(S0_GRID)
    return mean, sd, covered, ess_beta, tau2_median, tau2_cov, s0


def run_replicate(args):
    """One replicate: generate data, fit one or more models, summarize.

    args is the tuple (design, rep, master_seed, fit_models, cfg_kwargs);
    module-level so it pickles for worker pools.
    """
    design, rep, master, fit_models, cfg_kwargs = args
    ds, truth = design.generate(data_seed(master, rep))
    spec = design.frailty_spec(ds.coords)
    alt = {}
    for k, model in enumerate(fit_models):
        cfg = McmcConfig(model=model, seed=chain_seed(master, rep, k), frailty=spec,
                         **cfg_kwargs)
        arch = run_chain(ds, cfg)
        alt[model] = crit = (cr.lpml(arch.loglik_obs)[0], cr.dic(arch)[0],
                             cr.waic(arch.loglik_obs)[0])
        if k == 0:
            arch0, (lp, d, wa) = arch, crit
    mean, sd, covered, ess_beta, tau2_med, tau2_cov, s0 = _summaries(arch0, truth)
    return ReplicateResult(
        replicate=rep, beta_mean=mean, beta_sd=sd, covered=covered, ess_beta=ess_beta,
        tau2_median=tau2_med, tau2_covered=tau2_cov, lpml=lp, dic=d, waic=wa, s0_fit=s0,
        alt_criteria=alt)


@dataclass
class StudyResult:
    truth_beta: np.ndarray
    truth_tau2: float
    replicates: list

    def aggregate(self):
        reps = self.replicates
        beta_means = np.array([r.beta_mean for r in reps])
        psd = np.array([r.beta_sd for r in reps])
        covered = np.array([r.covered for r in reps])
        out = {
            "replicates": len(reps),
            "beta_bias": (beta_means - self.truth_beta).mean(axis=0).tolist(),
            "beta_psd": psd.mean(axis=0).tolist(),
            # undefined for one replicate, and JSON has no NaN
            "beta_sd_est": beta_means.std(axis=0, ddof=1).tolist() if len(reps) > 1 else None,
            "beta_cp": covered.mean(axis=0).tolist(),
            "ess_beta": np.array([r.ess_beta for r in reps]).mean(axis=0).tolist(),
        }
        if reps[0].tau2_median is not None:
            t2 = np.array([r.tau2_median for r in reps])
            out["tau2_median_bias"] = float((t2 - self.truth_tau2).mean())
            out["tau2_cp"] = float(np.mean([r.tau2_covered for r in reps]))
        out["s0_mean_fit"] = np.array([r.s0_fit for r in reps]).mean(axis=0).tolist()
        return out

    def selection_proportions(self, criterion="lpml"):
        """Fraction of replicates in which each fitted model wins."""
        idx = {"lpml": 0, "dic": 1, "waic": 2}[criterion]
        wins = {}
        for r in self.replicates:
            if criterion == "lpml":
                best = max(r.alt_criteria, key=lambda mdl: r.alt_criteria[mdl][idx])
            else:
                best = min(r.alt_criteria, key=lambda mdl: r.alt_criteria[mdl][idx])
            wins[best] = wins.get(best, 0) + 1
        total = len(self.replicates)
        return {mdl: cnt / total for mdl, cnt in wins.items()}


def run_mc_study(design, replicates, master_seed=0, jobs=1, fit_models=None, cfg_kwargs=None):
    """Run a replicate study, optionally across processes.

    fit_models defaults to just the design's generating model; passing several
    turns the study into a model-selection comparison (criteria are collected
    for each fitted model, summaries come from the first).
    """
    cfg_kwargs = dict(cfg_kwargs or {})
    fit_models = list(fit_models or [design.model])
    tasks = [(design, rep, master_seed, fit_models, cfg_kwargs) for rep in range(replicates)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_replicate, tasks))
    else:
        results = [run_replicate(t) for t in tasks]
    results.sort(key=lambda r: r.replicate)
    _, truth = design.generate(data_seed(master_seed, 0))
    return StudyResult(truth_beta=truth.beta, truth_tau2=truth.tau2, replicates=results)
