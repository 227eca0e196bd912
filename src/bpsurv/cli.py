"""Command-line front end: fit, simulate, diagnose, mc-study.

A fit writes summary.txt, draws.csv, loglik.npy, and meta.json into --outdir;
meta.json echoes every resolved option under "cli", so passing it back via
--config (with the same seed) reproduces the draws file byte for byte.
Config files may also be plain `key = value` lines; explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import criteria as cr
from . import frailty as fr
from .archive_io import load_archive, save_archive, summary_text
from .data import CsvSchema, load_adjacency, load_csv
from .diagnostics import cumhaz_slope, residual_plot_data
from .sampler import McmcConfig, run_chain
from .simulate import DESIGNS, bundled_adjacency37
from .splines import gprior_scale
from .study import run_mc_study

_FIT_KEYS = ("data", "t1_col", "t2_col", "trunc_col", "location_col", "lon_col",
             "lat_col", "covariates", "model", "family", "J", "frailty",
             "adjacency", "nu", "fsa_knots", "fsa_blocks", "selection",
             "nonlinear", "spline_k", "nburn", "nsave", "nskip", "seed", "l0",
             "a_alpha", "b_alpha", "a_tau", "b_tau", "a_phi", "b_phi",
             "prerun_iters", "no_prerun", "loglik_csv")

_FIT_DEFAULTS = {
    "t1_col": "t1", "t2_col": "t2", "trunc_col": None, "location_col": None,
    "lon_col": None, "lat_col": None, "covariates": None,
    "model": "ph", "family": "loglogistic", "J": 15, "frailty": "none",
    "adjacency": None, "nu": 1.0, "fsa_knots": None, "fsa_blocks": None,
    "selection": False, "nonlinear": None, "spline_k": 5,
    "nburn": 3000, "nsave": 2000, "nskip": 1, "seed": 0, "l0": 5000,
    "a_alpha": 1.0, "b_alpha": 1.0, "a_tau": 0.001, "b_tau": 0.001,
    "a_phi": 2.0, "b_phi": None, "prerun_iters": 2000, "no_prerun": False,
    "loglik_csv": False,
}


def _schema_flags(p):
    p.add_argument("--t1-col", default=None)
    p.add_argument("--t2-col", default=None)
    p.add_argument("--trunc-col", default=None)
    p.add_argument("--location-col", default=None)
    p.add_argument("--lon-col", default=None)
    p.add_argument("--lat-col", default=None)
    p.add_argument("--covariates", default=None,
                   help="comma-separated covariate columns (default: all unclaimed)")


def build_parser():
    ap = argparse.ArgumentParser(prog="bpsurv",
                                 description="Bayesian semiparametric survival models")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a model to a CSV dataset")
    p.add_argument("--data", default=None)
    _schema_flags(p)
    p.add_argument("--model", default=None, choices=[None, "aft", "ph", "po"])
    p.add_argument("--family", default=None,
                   choices=[None, "loglogistic", "lognormal", "weibull"])
    p.add_argument("--J", type=int, default=None)
    p.add_argument("--frailty", default=None, choices=[None, "none", "iid", "icar", "grf"])
    p.add_argument("--adjacency", default=None, help="0/1 matrix or edge-list file")
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--fsa-knots", type=int, default=None)
    p.add_argument("--fsa-blocks", type=int, default=None)
    p.add_argument("--selection", action="store_true", default=None)
    p.add_argument("--nonlinear", default=None,
                   help="comma-separated covariates given cubic-spline terms")
    p.add_argument("--spline-k", type=int, default=None)
    for name in ("nburn", "nsave", "nskip", "seed", "l0", "prerun-iters"):
        p.add_argument(f"--{name}", type=int, default=None)
    for name in ("a-alpha", "b-alpha", "a-tau", "b-tau", "a-phi", "b-phi"):
        p.add_argument(f"--{name}", type=float, default=None)
    p.add_argument("--no-prerun", action="store_true", default=None)
    p.add_argument("--loglik-csv", action="store_true", default=None)
    p.add_argument("--config", default=None, help="key=value file or a fit meta.json")
    p.add_argument("--outdir", default=None)
    p.add_argument("--dry-run", action="store_true")

    p = sub.add_parser("simulate", help="generate a study dataset")
    p.add_argument("--design", required=True, choices=sorted(DESIGNS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--truth-out", default=None, help="JSON path for the generating truth")

    p = sub.add_parser("diagnose", help="Cox-Snell residuals and criteria for a fit")
    p.add_argument("--fit", required=True, help="fit output directory")
    p.add_argument("--data", required=True)
    _schema_flags(p)
    p.add_argument("--adjacency", default=None)
    p.add_argument("--draws", type=int, default=10)
    p.add_argument("--svg", action="store_true")
    p.add_argument("--outdir", default=None, help="default: the fit directory")

    p = sub.add_parser("mc-study", help="replicate simulation study")
    p.add_argument("--design", required=True, choices=sorted(DESIGNS))
    p.add_argument("--replicates", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--models", default=None,
                   help="comma-separated models to fit per replicate "
                        "(default: the generating model)")
    for name in ("nburn", "nsave", "nskip", "l0", "prerun-iters"):
        p.add_argument(f"--{name}", type=int, default=None)
    p.add_argument("--outdir", required=True)
    return ap


def _read_config_file(path):
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        blob = json.loads(text)
        return blob.get("cli", blob)
    out = {}
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {line_no}: expected key = value")
        key, val = (s.strip() for s in line.split("=", 1))
        out[key.replace("-", "_")] = _coerce(val)
    return out


def _coerce(text):
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    if low in ("none", ""):
        return None
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _resolve_fit_options(args):
    opts = dict(_FIT_DEFAULTS)
    opts["data"] = None
    if args.config:
        file_opts = _read_config_file(args.config)
        unknown = set(file_opts) - set(_FIT_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        opts.update(file_opts)
    for key in _FIT_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            opts[key] = val
    if opts["data"] is None:
        raise ValueError("--data is required (flag or config)")
    return opts


def _split(names):
    if names is None:
        return None
    if isinstance(names, (list, tuple)):
        return tuple(names)
    return tuple(s.strip() for s in str(names).split(",") if s.strip())


def _load_dataset(opts):
    schema = CsvSchema(t1=opts["t1_col"], t2=opts["t2_col"], trunc=opts["trunc_col"],
                       location=opts["location_col"], lon=opts["lon_col"],
                       lat=opts["lat_col"], covariates=_split(opts["covariates"]))
    return load_csv(opts["data"], schema)


def _region_adjacency(path, dataset):
    """The adjacency file, checked against the data's region count."""
    E = load_adjacency(path, m=dataset.m)
    if E.shape[0] != dataset.m:
        raise ValueError(f"adjacency has {E.shape[0]} regions, data has {dataset.m}")
    return E


def _frailty_spec(opts, dataset):
    kind = opts["frailty"]
    if kind == "none":
        return fr.FrailtySpec(kind="none")
    if kind == "iid":
        return fr.FrailtySpec(kind="iid")
    if kind == "icar":
        if not opts["adjacency"]:
            raise ValueError("icar frailties need --adjacency")
        E = _region_adjacency(opts["adjacency"], dataset)
        return fr.FrailtySpec(kind="icar", adjacency=E)
    if dataset.coords is None:
        raise ValueError("grf frailties need lon/lat columns in the data")
    fsa = None
    if opts["fsa_knots"] is not None or opts["fsa_blocks"] is not None:
        if opts["fsa_knots"] is None or opts["fsa_blocks"] is None:
            raise ValueError("--fsa-knots and --fsa-blocks go together")
        fsa = (opts["fsa_knots"], opts["fsa_blocks"])
    return fr.FrailtySpec(kind="grf", coords=dataset.coords, nu=opts["nu"], fsa=fsa)


def _mcmc_config(opts, spec):
    return McmcConfig(
        model=opts["model"], family=opts["family"], J=opts["J"],
        nburn=opts["nburn"], nsave=opts["nsave"], nskip=opts["nskip"],
        seed=opts["seed"], l0=opts["l0"],
        a_alpha=opts["a_alpha"], b_alpha=opts["b_alpha"],
        a_tau=opts["a_tau"], b_tau=opts["b_tau"],
        a_phi=opts["a_phi"], b_phi=opts["b_phi"],
        selection=bool(opts["selection"]),
        nonlinear=_split(opts["nonlinear"]) or (),
        spline_K=opts["spline_k"],
        frailty=spec,
        prerun=not opts["no_prerun"], prerun_iters=opts["prerun_iters"],
    )


def cmd_fit(args):
    opts = _resolve_fit_options(args)
    dataset = _load_dataset(opts)
    spec = _frailty_spec(opts, dataset)
    cfg = _mcmc_config(opts, spec)
    if args.dry_run:
        print("resolved options:")
        for key in _FIT_KEYS:
            print(f"  {key} = {opts[key]}")
        if spec.kind == "grf":
            print(f"  phi0 = {spec.phi0():.6g}  (prior mode of the range parameter)")
        if cfg.selection:
            print(f"  g = {gprior_scale(dataset.p, cfg.sel_M, cfg.sel_q):.6g}  (g-prior scale)")
        for name in cfg.nonlinear:
            print(f"  g[{name}] = {gprior_scale(cfg.spline_K):.6g}  (spline g-prior scale)")
        print(f"  n = {dataset.n}, m = {dataset.m}, p = {dataset.p}")
        return 0
    if not args.outdir:
        raise ValueError("--outdir is required unless --dry-run")
    archive = run_chain(dataset, cfg)
    outdir = Path(args.outdir)
    crit = save_archive(archive, outdir, loglik_csv=bool(opts["loglik_csv"]),
                        cli={k: opts[k] for k in _FIT_KEYS})
    text = summary_text(archive, crit)
    (outdir / "summary.txt").write_text(text)
    print(text, end="")
    return 0


def cmd_simulate(args):
    design = DESIGNS[args.design]()
    ds, truth = design.generate(args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    ds.to_csv(out)
    if design.frailty_kind == "icar":
        adj_path = out.with_name(out.stem + "_adjacency.txt")
        E = design.adjacency if design.adjacency is not None else bundled_adjacency37()
        np.savetxt(adj_path, E, fmt="%d")
        print(f"adjacency written to {adj_path}")
    if args.truth_out:
        blob = {"model": truth.model, "beta": truth.beta.tolist(),
                "tau2": truth.tau2, "phi": truth.phi,
                "v": truth.v.tolist() if truth.v is not None else None}
        Path(args.truth_out).write_text(json.dumps(blob, indent=1))
    print(f"dataset written to {out} (n={ds.n}, m={ds.m}, p={ds.p})")
    return 0


def cmd_diagnose(args):
    opts = dict(_FIT_DEFAULTS)
    opts["data"] = args.data
    for key in ("t1_col", "t2_col", "trunc_col", "location_col", "lon_col", "lat_col",
                "covariates"):
        val = getattr(args, key)
        if val is not None:
            opts[key] = val
    dataset = _load_dataset(opts)
    if args.adjacency:
        _region_adjacency(args.adjacency, dataset)
    archive = load_archive(args.fit, dataset=dataset)
    outdir = Path(args.outdir or args.fit)
    outdir.mkdir(parents=True, exist_ok=True)

    # The criteria are the stored ones; LPML is recomputed to catch a fit
    # directory whose files disagree.
    with open(Path(args.fit) / "meta.json") as fh:
        stored = json.load(fh)["criteria"]
    lpml, _ = cr.lpml(archive.loglik_obs)
    print(f"stored LPML {stored['lpml']:.8f}, recomputed {lpml:.8f}")
    if abs(lpml - stored["lpml"]) > 1e-8:
        print("error: recomputed LPML deviates from the stored value", file=sys.stderr)
        return 1

    rows = residual_plot_data(archive, dataset, draws=args.draws)
    with open(outdir / "coxsnell.csv", "w") as fh:
        fh.write("draw_id,r,cumhaz\n")
        for draw_id, r, h in rows:
            fh.write(f"{draw_id},{r:.17e},{h:.17e}\n")
    slope = cumhaz_slope(rows)
    report = dict(stored, coxsnell_slope=slope)
    with open(outdir / "diagnose.json", "w") as fh:
        json.dump(report, fh, indent=1)
    if args.svg:
        _write_svg(outdir / "coxsnell.svg", rows)
    print(f"cox-snell cumulative-hazard slope: {slope:.4f} (1 is ideal)")
    print(f"residual data written to {outdir / 'coxsnell.csv'}")
    return 0


def _write_svg(path, rows, size=480, margin=40):
    rs = [r for _, r, _ in rows]
    hs = [h for _, h, _ in rows]
    finite = [(r, h, d) for (d, r, h) in rows if math.isfinite(r) and math.isfinite(h)]
    top = max([max(rs, default=1.0), max(hs, default=1.0), 1e-9])
    scale = (size - 2 * margin) / top

    def sx(v):
        return margin + v * scale

    def sy(v):
        return size - margin - v * scale

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}">',
             f'<rect width="{size}" height="{size}" fill="white"/>',
             f'<line x1="{sx(0)}" y1="{sy(0)}" x2="{sx(top)}" y2="{sy(top)}" '
             'stroke="gray" stroke-dasharray="4"/>',
             f'<line x1="{margin}" y1="{size - margin}" x2="{size - margin}" '
             f'y2="{size - margin}" stroke="black"/>',
             f'<line x1="{margin}" y1="{size - margin}" x2="{margin}" y2="{margin}" '
             'stroke="black"/>']
    palette = ["#1b6ca8", "#a83232", "#3a8f3a", "#8f6b19", "#6a4fa3",
               "#31848f", "#a8517d", "#5e5e5e", "#a87d31", "#4f6fa8"]
    seen = {}
    for r, h, d in finite:
        color = palette[seen.setdefault(d, len(seen)) % len(palette)]
        parts.append(f'<circle cx="{sx(r):.2f}" cy="{sy(h):.2f}" r="2" fill="{color}" '
                     'fill-opacity="0.6"/>')
    parts.append(f'<text x="{size // 2}" y="{size - 8}" font-size="12">'
                 'Cox-Snell residual r</text>')
    parts.append(f'<text x="10" y="{size // 2}" font-size="12" '
                 f'transform="rotate(-90 10 {size // 2})">cumulative hazard</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts))


def cmd_mc_study(args):
    design = DESIGNS[args.design]()
    cfg_kwargs = {}
    for key, field in (("nburn", "nburn"), ("nsave", "nsave"), ("nskip", "nskip"),
                       ("l0", "l0"), ("prerun_iters", "prerun_iters")):
        val = getattr(args, key)
        if val is not None:
            cfg_kwargs[field] = val
    models = _split(args.models)
    result = run_mc_study(design, args.replicates, master_seed=args.seed,
                          jobs=args.jobs, fit_models=models, cfg_kwargs=cfg_kwargs,
                          design_name=args.design)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    p = result.truth_beta.shape[0]
    with open(outdir / "replicates.csv", "w") as fh:
        cols = ["replicate"] + [f"beta{j + 1}_mean" for j in range(p)] \
            + [f"beta{j + 1}_covered" for j in range(p)] \
            + ["tau2_median", "lpml", "dic", "waic"]
        fh.write(",".join(cols) + "\n")
        for r in result.replicates:
            vals = [str(r.replicate)] + [f"{v:.17e}" for v in r.beta_mean] \
                + [str(int(c)) for c in r.covered] \
                + [f"{(r.tau2_median if r.tau2_median is not None else math.nan):.17e}",
                   f"{r.lpml:.17e}", f"{r.dic:.17e}", f"{r.waic:.17e}"]
            fh.write(",".join(vals) + "\n")
    agg = result.aggregate()
    if models and len(models) > 1:
        agg["selection_lpml"] = result.selection_proportions("lpml")
        agg["selection_dic"] = result.selection_proportions("dic")
    with open(outdir / "aggregate.json", "w") as fh:
        json.dump(agg, fh, indent=1)
    print(json.dumps({k: v for k, v in agg.items() if k != "s0_mean_fit"}, indent=1))
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "fit":
            return cmd_fit(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "diagnose":
            return cmd_diagnose(args)
        return cmd_mc_study(args)
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
