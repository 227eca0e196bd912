"""On-disk form of a fitted model: draws.csv + loglik.npy + meta.json.

draws.csv has one column per scalar parameter (stable header names like
beta.x1, theta.1, z.3, v.12) in full-precision scientific notation, so a
byte-for-byte comparison doubles as a determinism check.  meta.json echoes the
resolved configuration together with criteria, acceptance rates and effective
sample sizes; feeding it back to the CLI reproduces the run.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from . import criteria as cr
from .sampler import McmcConfig, PosteriorArchive
from .splines import build_basis


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
    if archive.loglik_obs is not None and archive.L >= 2:
        lp, _ = cr.lpml(archive.loglik_obs)
        wa, p_w = cr.waic(archive.loglik_obs)
        out.update(lpml=lp, waic=wa, p_w=p_w)
    if archive.L >= 2:
        d, p_d = cr.dic(archive)
        out.update(dic=d, p_d=p_d)
        out["log_bf_parametric"] = cr.log_bf_parametric(archive)
        for name in archive.spline_names:
            out[f"log_bf_linear_{name}"] = cr.log_bf_linearity(archive, name)
    return out


def save_archive(archive, outdir, loglik_csv=False, cli=None):
    """Write draws.csv, loglik.npy (optionally loglik.csv), and meta.json.

    cli, when given, is stored under meta.json's "cli" key: the resolved
    command-line options that reproduce the run.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    names, mat = archive.parameter_matrix()
    with open(outdir / "draws.csv", "w") as fh:
        fh.write(",".join(names) + "\n")
        for row in mat:
            fh.write(",".join(f"{v:.17e}" for v in row) + "\n")
    if archive.loglik_obs is not None:
        np.save(outdir / "loglik.npy", archive.loglik_obs)
        if loglik_csv:
            np.savetxt(outdir / "loglik.csv", archive.loglik_obs,
                       delimiter=",", fmt="%.17e")
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
        "loglik_total": _jsonable(archive.loglik_total),
        "nonfinite_rejects": archive.nonfinite_rejects,
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


def _unflatten_draws(names, mat, meta):
    covs = meta["covariate_names"]
    draws = {}

    def grab(prefix, width=None):
        cols = [i for i, nm in enumerate(names) if nm == prefix or
                nm.startswith(prefix + ".")]
        if not cols:
            return None
        arr = mat[:, cols]
        return arr[:, 0] if width == 1 else arr

    beta_cols = [i for i, nm in enumerate(names) if nm.startswith("beta.")]
    draws["beta"] = mat[:, beta_cols]
    gamma_cols = [i for i, nm in enumerate(names) if nm.startswith("gamma.")]
    if gamma_cols:
        draws["gamma"] = mat[:, gamma_cols]
    for sn in meta["spline_names"]:
        cols = [i for i, nm in enumerate(names) if nm.startswith(f"xi.{sn}.")]
        draws[f"xi_{sn}"] = mat[:, cols]
    draws["theta"] = grab("theta")
    draws["z"] = grab("z")
    draws["alpha"] = grab("alpha", width=1)
    for key in ("tau2", "phi"):
        col = grab(key, width=1)
        if col is not None:
            draws[key] = col
    vcols = grab("v")
    if vcols is not None:
        draws["v"] = vcols
    return draws


def load_archive(outdir, dataset=None, adjacency=None):
    """Rebuild a PosteriorArchive from a fit directory.

    Spline term metadata is reconstructed from the dataset (the basis build is
    deterministic), so dataset is required when the fit used nonlinear terms.
    The frailty spec is restored when its structural data (dataset coords or
    the adjacency matrix) is supplied; otherwise the loaded config carries a
    plain spec, which is enough for residuals and criteria.
    """
    outdir = Path(outdir)
    with open(outdir / "meta.json") as fh:
        meta = json.load(fh)
    with open(outdir / "draws.csv") as fh:
        names = fh.readline().strip().split(",")
        mat = np.loadtxt(fh, delimiter=",", ndmin=2) if meta["retained_draws"] \
            else np.zeros((0, len(names)))
    draws = _unflatten_draws(names, mat, meta)
    loglik_path = outdir / "loglik.npy"
    loglik_obs = np.load(loglik_path) if loglik_path.exists() else None
    cfg_dict = dict(meta["config"])
    frailty_info = cfg_dict.pop("frailty", {"kind": "none", "nu": 1.0, "fsa": None})
    from . import frailty as fr
    spec = fr.FrailtySpec(kind="none")
    kind = frailty_info["kind"]
    if kind == "iid" or (kind == "grf" and dataset is not None
                         and dataset.coords is not None) \
            or (kind == "icar" and adjacency is not None):
        spec = rebuild_frailty_spec(frailty_info, dataset, adjacency=adjacency)
    known = {f.name for f in dataclasses.fields(McmcConfig)}
    cfg = McmcConfig(**{k: (tuple(v) if isinstance(v, list) else v)
                        for k, v in cfg_dict.items() if k in known and k != "frailty"},
                     frailty=spec)
    terms = []
    if meta["spline_names"]:
        if dataset is None:
            raise ValueError("loading a fit with spline terms needs the dataset")
        terms = [build_basis(dataset.column(nm), cfg.spline_K, nm)
                 for nm in meta["spline_names"]]
    ll_total = np.array(meta["loglik_total"], dtype=float)
    return PosteriorArchive(
        model=meta["model"], family=meta["family"], J=meta["J"],
        covariate_names=meta["covariate_names"], spline_names=meta["spline_names"],
        draws=draws, loglik_obs=loglik_obs, loglik_total=ll_total,
        loglik_at_mean=meta["criteria"]["loglik_at_mean"],
        accept_rates=meta["accept_rates"], config=cfg,
        n=meta["n"], m=meta["m"], elapsed=meta["elapsed_seconds"],
        nonfinite_rejects=meta.get("nonfinite_rejects", 0), spline_terms=terms)


def rebuild_frailty_spec(info, dataset, adjacency=None):
    from . import frailty as fr
    kind = info["kind"]
    if kind == "icar":
        if adjacency is None:
            raise ValueError("icar spec needs the adjacency matrix")
        return fr.FrailtySpec(kind="icar", adjacency=adjacency)
    if kind == "grf":
        fsa = tuple(info["fsa"]) if info.get("fsa") else None
        return fr.FrailtySpec(kind="grf", coords=dataset.coords, nu=info.get("nu", 1.0),
                              fsa=fsa)
    return fr.FrailtySpec(kind=kind)


def summary_text(archive, criteria=None):
    """Human-readable posterior summary table plus criteria block."""
    lines = []
    L = archive.L
    lines.append(f"model: {archive.model}  centering: {archive.family}  J={archive.J}")
    lines.append(f"observations: n={archive.n}  sites: m={archive.m}  "
                 f"retained draws: {L}")
    rates = "  ".join(f"{k}={v:.3f}" for k, v in sorted(archive.accept_rates.items()))
    lines.append(f"acceptance rates: {rates}")
    if archive.nonfinite_rejects:
        lines.append(f"non-finite proposals auto-rejected: {archive.nonfinite_rejects}")
    lines.append("")
    if L:
        names, mat = archive.parameter_matrix()
        show = [i for i, nm in enumerate(names)
                if not nm.startswith(("v.", "z.", "xi.", "gamma."))]
        header = f"{'parameter':<14}{'mean':>13}{'median':>13}{'sd':>12}" \
                 f"{'2.5%':>13}{'97.5%':>13}{'ESS':>9}"
        lines.append(header)
        lines.append("-" * len(header))
        for i in show:
            col = mat[:, i]
            lo, hi = np.quantile(col, [0.025, 0.975])  # type-7 interpolation
            try:
                ness = cr.ess(col)
            except ValueError:
                ness = float("nan")
            lines.append(f"{names[i]:<14}{col.mean():>13.5g}{np.median(col):>13.5g}"
                         f"{col.std(ddof=1):>12.4g}{lo:>13.5g}{hi:>13.5g}{ness:>9.0f}")
        lines.append("")
    if "gamma" in archive.draws and L:
        lines.append("sub-model visit proportions:")
        for key, prop in archive.submodel_table()[:8]:
            label = ",".join(archive.covariate_names[i - 1] for i in key) or "(none)"
            lines.append(f"  {label:<30}{prop:>8.4f}")
        lines.append("")
    criteria = criteria if criteria is not None else compute_criteria(archive)
    for key in ("lpml", "dic", "waic", "p_d", "p_w", "log_bf_parametric"):
        if key in criteria:
            lines.append(f"{key.upper().replace('_', ' ')}: {criteria[key]:.4f}")
    for key, val in criteria.items():
        if key.startswith("log_bf_linear_"):
            lines.append(f"LOG BF nonlinearity [{key[14:]}]: {val:.4f}")
    return "\n".join(lines) + "\n"
