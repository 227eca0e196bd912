"""On-disk form of a fitted model: draws.csv + loglik.npy + meta.json.

draws.csv is the archive's draw matrix under its header of stable column
names (beta.x1, theta.1, z.3, v.12, ...) in full-precision scientific
notation, so a byte-for-byte comparison doubles as a determinism check.
loglik.npy holds the per-observation log-likelihood of every draw, and is
the one stored copy of it: each draw's total is its row sum
(PosteriorArchive.loglik_total).  meta.json echoes the resolved configuration
together with criteria, acceptance rates and the figures of the parametric
Laplace fit that seeds the chain; feeding it back to the CLI reproduces the
run.
load_archive splits the draws with the chain's own splitter (split_draws), so
a loaded archive equals the one that wrote the files.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from . import criteria as cr
from .sampler import PosteriorArchive
from .splines import build_terms

_LOW_ACCEPT = 0.01  # summary.txt warns of a block accepting less than this


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonable(dataclasses.asdict(value))
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def config_to_dict(config):
    out = {}
    for f in dataclasses.fields(config):
        val = getattr(config, f.name)
        if f.name == "frailty":
            out[f.name] = {
                "kind": val.kind,
                "nu": val.nu,
                "fsa": list(val.fsa) if val.fsa else None,
            }
        else:
            out[f.name] = _jsonable(val)
    return out


def compute_criteria(archive):
    """All model-comparison numbers derivable from the archive."""
    out = {"loglik_at_mean": archive.loglik_at_mean}
    if archive.L >= 2:
        lp, _ = cr.lpml(archive.loglik_obs)
        wa, p_w = cr.waic(archive.loglik_obs)
        d, p_d = cr.dic(archive)
        out.update(lpml=lp, waic=wa, p_w=p_w, dic=d, p_d=p_d,
                   p_v=cr.p_v(archive.loglik_total))
        out["log_bf_parametric"] = cr.log_bf_parametric(archive)
        for name in archive.spline_names:
            out[f"log_bf_linear_{name}"] = cr.log_bf_linearity(archive, name)
    return out


def save_archive(archive, outdir, cli=None):
    """Write draws.csv, loglik.npy and meta.json.

    cli, when given, is stored under meta.json's "cli" key: the resolved
    command-line options that reproduce the run.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "draws.csv", "w") as fh:
        fh.write(",".join(archive.names) + "\n")
        np.savetxt(fh, archive.matrix, fmt="%.17e", delimiter=",")
    np.save(outdir / "loglik.npy", archive.loglik_obs)
    crit = compute_criteria(archive)
    meta = {
        "model": archive.model,
        "family": archive.family,
        "J": archive.J,
        "n": archive.n,
        "m": archive.m,
        "covariate_names": archive.covariate_names,
        "spline_names": archive.spline_names,
        "retained_draws": archive.L,
        "seed": archive.config.seed,
        "config": config_to_dict(archive.config),
        "accept_rates": _jsonable(archive.accept_rates),
        "criteria": _jsonable(crit),
        "nonfinite_rejects": archive.nonfinite_rejects,
        "structure_wait_s": archive.structure_wait,
        "prerun": _jsonable(archive.prerun),
        "elapsed_seconds": archive.elapsed,
    }
    if "gamma" in archive.draws and archive.L:
        meta["submodels"] = [
            {"variables": [archive.covariate_names[i - 1] for i in key],
             "proportion": prop}
            for key, prop in archive.submodel_table()[:10]
        ]
    if cli is not None:
        meta["cli"] = cli
    with open(outdir / "meta.json", "w") as fh:
        json.dump(meta, fh, indent=1, default=_jsonable)
    return crit


def load_archive(outdir, dataset=None):
    """Rebuild the PosteriorArchive that save_archive wrote to a fit directory.

    The draws.csv header splits the draw matrix into blocks as in the chain,
    so every block, weights(), the residuals and the criteria of the loaded
    archive equal those of the writing one bit for bit.  The chain's builder
    (splines.build_terms) rebuilds the spline terms from the dataset and the
    nonlinear and spline_K of meta.json's config, so dataset is required when
    the fit used nonlinear terms.  The loaded archive has no McmcConfig
    (config is None): meta.json keeps the settings.
    """
    outdir = Path(outdir)
    with open(outdir / "meta.json") as fh:
        meta = json.load(fh)
    with open(outdir / "draws.csv") as fh:
        names = fh.readline().strip().split(",")
        mat = np.loadtxt(fh, delimiter=",", ndmin=2) if meta["retained_draws"] \
            else np.zeros((0, len(names)))
    cfg = meta["config"]
    if cfg["nonlinear"] and dataset is None:
        raise ValueError("loading a fit with spline terms needs the dataset")
    terms = build_terms(dataset, cfg["nonlinear"], cfg["spline_K"])
    return PosteriorArchive(
        model=meta["model"], family=meta["family"], J=meta["J"],
        covariate_names=meta["covariate_names"], names=names, matrix=mat,
        loglik_obs=np.load(outdir / "loglik.npy"),
        loglik_at_mean=float(meta["criteria"]["loglik_at_mean"]),
        accept_rates=meta["accept_rates"], config=None,
        n=meta["n"], m=meta["m"], elapsed=meta["elapsed_seconds"],
        nonfinite_rejects=meta["nonfinite_rejects"], spline_terms=terms,
        structure_wait=meta.get("structure_wait_s", 0.0), prerun=meta.get("prerun"))


def summary_text(archive, criteria=None):
    """Human-readable posterior summary table plus criteria block."""
    lines = []
    L = archive.L
    lines.append(f"model: {archive.model}  centering: {archive.family}  J={archive.J}")
    lines.append(f"observations: n={archive.n}  sites: m={archive.m}  "
                 f"retained draws: {L}")
    rates = "  ".join(f"{k}={v:.3f}" for k, v in sorted(archive.accept_rates.items()))
    lines.append(f"acceptance rates: {rates}")
    for block, rate in sorted(archive.accept_rates.items()):
        if L and rate < _LOW_ACCEPT:
            lines.append(f"warning: {block} accepted {rate:.2%} of its proposals: its draws "
                         "barely move, and their summaries do not describe its posterior")
    if archive.nonfinite_rejects:
        lines.append(f"non-finite proposals auto-rejected: {archive.nonfinite_rejects}")
    if "phi" in archive.draws:
        lines.append(f"range worker: the chain waited {archive.structure_wait:.3f} s of "
                     f"{archive.elapsed:.3f} s for its factors and inverses")
    fit = archive.prerun  # None only for a ChainSampler run given no fit
    if fit:
        lines.append(f"pre-run: Laplace fit  evaluations: {fit['evaluations']}  "
                     f"converged: {fit['converged']}  ({fit['message']})")
    lines.append("")
    if L:
        names, mat = archive.names, archive.matrix
        show = [i for i, nm in enumerate(names)
                if not nm.startswith(("v.", "z.", "xi.", "gamma."))]
        header = f"{'parameter':<14}{'mean':>13}{'median':>13}{'sd':>12}" \
                 f"{'2.5%':>13}{'97.5%':>13}{'ESS':>9}"
        lines.append(header)
        lines.append("-" * len(header))
        for i in show:
            col = mat[:, i]
            lo, hi = np.quantile(col, [0.025, 0.975])  # type-7 interpolation
            sd = f"{col.std(ddof=1):>12.4g}" if L >= 2 else f"{'n/a':>12}"
            try:
                ness = f"{cr.ess(col):>9.0f}"
            except ValueError:  # too few draws
                ness = f"{'n/a':>9}"
            lines.append(f"{names[i]:<14}{col.mean():>13.5g}{np.median(col):>13.5g}"
                         f"{sd}{lo:>13.5g}{hi:>13.5g}{ness}")
        lines.append("")
    if "gamma" in archive.draws and L:
        lines.append("sub-model visit proportions:")
        for key, prop in archive.submodel_table()[:8]:
            label = ",".join(archive.covariate_names[i - 1] for i in key) or "(none)"
            lines.append(f"  {label:<30}{prop:>8.4f}")
        lines.append("")
    criteria = criteria if criteria is not None else compute_criteria(archive)

    def fmt(val):  # a Bayes factor the draws cannot support is None
        return "n/a" if val is None else f"{val:.4f}"

    for key in ("lpml", "dic", "waic", "p_d", "p_v", "p_w", "log_bf_parametric"):
        if key in criteria:
            lines.append(f"{key.upper().replace('_', ' ')}: {fmt(criteria[key])}")
            if key == "p_d" and criteria[key] < 0:
                lines[-1] += ("  (negative: the posterior-mean plug-in point fits worse "
                              "than the average draw; read P V)")
    for key, val in criteria.items():
        if key.startswith("log_bf_linear_"):
            lines.append(f"LOG BF nonlinearity [{key[14:]}]: {fmt(val)}")
    return "\n".join(lines) + "\n"
