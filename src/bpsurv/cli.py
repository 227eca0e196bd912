"""Command-line front end: fit, simulate, diagnose, mc-study.

A fit writes summary.txt, draws.csv, loglik.npy, and meta.json into --outdir;
meta.json echoes every resolved option under "cli", so passing it back via
--config reproduces the draws file byte for byte.  A --config file (JSON or
`key = value` lines, keyed by option name) stands for flags placed before the
command line's own, so its values are checked the same way and a flag wins.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import criteria as cr
from . import frailty as fr
from .archive_io import load_archive, save_archive, summary_text
from .baseline import FAMILIES
from .data import CsvSchema, load_adjacency, load_csv
from .diagnostics import check_fit_data, cumhaz_slope, residual_plot_data
from .models import MODELS
from .sampler import McmcConfig, run_chain
from .simulate import DESIGNS
from .splines import gprior_scale
from .study import run_mc_study

_CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(McmcConfig))
_STUDY_CHAIN_FIELDS = ("nburn", "nsave", "nskip")
_NOT_OPTIONS = ("command", "config", "outdir", "dry_run")  # fit arguments, not options


def _schema_flags(p):
    for field in ("t1", "t2", "trunc", "location", "lon", "lat"):
        p.add_argument(f"--{field}-col", default=getattr(CsvSchema, field))
    p.add_argument("--covariates", default=CsvSchema.covariates,
                   help="comma-separated covariate columns (default: all unclaimed)")


def _config_flags(p, fields, type):
    """One flag per McmcConfig field (--a-tau for a_tau), defaulting to the
    field's default."""
    for name in fields:
        p.add_argument("--" + name.replace("_", "-"), type=type,
                       default=getattr(McmcConfig, name))


def _at_least(floor, why=""):
    """An argparse type: an int no smaller than floor."""
    def parse(text):
        if int(text) < floor:
            raise argparse.ArgumentTypeError(f"must be at least {floor}{why}, got {int(text)}")
        return int(text)
    return parse


def _fit_flags(p):
    """The fit flags; in declaration order they are the resolved options."""
    p.add_argument("--data", default=None)
    _schema_flags(p)
    p.add_argument("--model", default=McmcConfig.model, choices=MODELS)
    p.add_argument("--family", default=McmcConfig.family, choices=FAMILIES)
    p.add_argument("--J", type=int, default=McmcConfig.J)
    p.add_argument("--frailty", default=fr.FrailtySpec.kind, choices=fr.KINDS)
    p.add_argument("--adjacency", default=None, help="0/1 matrix or edge-list file")
    p.add_argument("--nu", type=float, default=fr.FrailtySpec.nu)
    p.add_argument("--fsa-knots", type=int, default=None)
    p.add_argument("--fsa-blocks", type=int, default=None)
    p.add_argument("--selection", action="store_true", default=McmcConfig.selection)
    p.add_argument("--nonlinear", default=None,
                   help="comma-separated covariates given cubic-spline terms")
    p.add_argument("--spline-k", type=int, default=McmcConfig.spline_K)
    _config_flags(p, ("nburn", "nsave", "nskip", "seed"), int)
    _config_flags(p, ("a_alpha", "b_alpha", "a_tau", "b_tau", "a_phi", "b_phi"), float)
    p.add_argument("--config", help="key = value or JSON file, read as flags before the others")
    p.add_argument("--outdir", default=None)
    p.add_argument("--dry-run", action="store_true")
    return p


def _model_names(text):
    names = _split(text)
    if not set(names) <= set(MODELS):
        raise argparse.ArgumentTypeError(f"models must be among {list(MODELS)}, got {text!r}")
    if len(set(names)) < len(names):
        raise argparse.ArgumentTypeError(f"each model may be listed once, got {text!r}")
    return names


def build_parser():
    ap = argparse.ArgumentParser(prog="bpsurv",
                                 description="Bayesian semiparametric survival models")
    sub = ap.add_subparsers(dest="command", required=True)
    # main() checks a --config file's keys against the fit parser's options
    ap.fit = _fit_flags(sub.add_parser("fit", help="fit a model to a CSV dataset"))

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
    p.add_argument("--draws", type=_at_least(1), default=10)
    p.add_argument("--svg", action="store_true")
    p.add_argument("--outdir", default=None, help="default: the fit directory")

    p = sub.add_parser("mc-study", help="replicate simulation study")
    p.add_argument("--design", required=True, choices=sorted(DESIGNS))
    p.add_argument("--replicates", type=_at_least(1), required=True)
    p.add_argument("--jobs", type=_at_least(1), default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--models", type=_model_names, default=None,
                   help="comma-separated models to fit per replicate "
                        "(default: the generating model)")
    _config_flags(p, ("nburn", "nskip"), int)
    _config_flags(p, ("nsave",), _at_least(cr.ESS_MIN_DRAWS, " for the study's ESS"))
    p.add_argument("--outdir", required=True)
    return ap


def _read_config_file(path):
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
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
        out[key.replace("-", "_")] = val
    return out


def _file_flags(path, fit):
    """The flags a --config file stands for, one --flag=value token per key
    (a value may start with '-').  A switch takes true or false, a JSON list
    is joined with commas, and none, an empty value or null leaves a None
    default alone; elsewhere an empty value or null is an error."""
    given = _read_config_file(path)
    defaults = {k: v for k, v in vars(fit.parse_args([])).items() if k not in _NOT_OPTIONS}
    unknown = set(given) - set(defaults)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    flags = []
    for key, value in given.items():
        flag = "--" + key.replace("_", "-")
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        if isinstance(defaults[key], bool):  # a switch
            if text.lower() not in ("true", "false"):
                fit.error(f"argument {flag}: expected true or false, got {text!r}")
            flags += [flag] if text.lower() == "true" else []
        elif value is None or text == "" or defaults[key] is None and text.lower() == "none":
            if defaults[key] is not None:
                fit.error(f"argument {flag}: expected one argument")
        else:
            flags.append(f"{flag}={text}")
    return flags


def _split(names):
    return None if names is None else tuple(s.strip() for s in names.split(",") if s.strip())


def _load_dataset(opts):
    schema = CsvSchema(t1=opts["t1_col"], t2=opts["t2_col"], trunc=opts["trunc_col"],
                       location=opts["location_col"], lon=opts["lon_col"],
                       lat=opts["lat_col"], covariates=_split(opts["covariates"]))
    return load_csv(opts["data"], schema)


def _frailty_spec(opts, dataset):
    kind, fsa = opts["frailty"], None
    if opts["fsa_knots"] is not None or opts["fsa_blocks"] is not None:
        if opts["fsa_knots"] is None or opts["fsa_blocks"] is None:
            raise ValueError("--fsa-knots and --fsa-blocks go together")
        fsa = (opts["fsa_knots"], opts["fsa_blocks"])
    if kind == "icar":
        if not opts["adjacency"]:
            raise ValueError("icar frailties need --adjacency")
        E = load_adjacency(opts["adjacency"], labels=dataset.location_ids)
        return fr.FrailtySpec(kind="icar", adjacency=E, fsa=fsa)
    if kind != "grf":
        return fr.FrailtySpec(kind=kind, fsa=fsa)
    if dataset.coords is None:
        raise ValueError("grf frailties need lon/lat columns in the data")
    return fr.FrailtySpec(kind="grf", coords=dataset.coords, nu=opts["nu"], fsa=fsa)


def _mcmc_config(opts, spec):
    """The McmcConfig of every option named after one of its fields, with
    nonlinear, spline_k and frailty renamed or parsed."""
    given = {k: v for k, v in opts.items() if k in _CONFIG_FIELDS}
    given.update(nonlinear=_split(opts["nonlinear"]) or (), spline_K=opts["spline_k"],
                 frailty=spec)
    return McmcConfig(**given)


def cmd_fit(args):
    opts = {k: v for k, v in vars(args).items() if k not in _NOT_OPTIONS}
    if opts["data"] is None:
        raise ValueError("--data is required (flag or config)")
    dataset = _load_dataset(opts)
    spec = _frailty_spec(opts, dataset)
    cfg = _mcmc_config(opts, spec)
    for name in cfg.nonlinear:  # an unknown covariate fails here, not in the fit
        dataset.column(name)
    if args.dry_run:
        print("resolved options:")
        for key, val in opts.items():
            print(f"  {key} = {val}")
        if spec.kind == "grf":
            print(f"  phi0 = {spec.phi0():.6g}  (prior mode of the range parameter)")
        if cfg.selection:
            print(f"  g = {gprior_scale(dataset.p):.6g}  (g-prior scale)")
        for name in cfg.nonlinear:
            print(f"  g[{name}] = {gprior_scale(cfg.spline_K):.6g}  (spline g-prior scale)")
        print(f"  n = {dataset.n}, m = {dataset.m}, p = {dataset.p}")
        return 0
    if not args.outdir:
        raise ValueError("--outdir is required unless --dry-run")
    archive = run_chain(dataset, cfg)
    outdir = Path(args.outdir)
    crit = save_archive(archive, outdir, cli=opts)
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
    spec = design.frailty_spec(ds.coords)
    if spec.kind == "icar":
        adj_path = out.with_name(out.stem + "_adjacency.txt")
        np.savetxt(adj_path, spec.adjacency, fmt="%d")
        print(f"adjacency written to {adj_path}")
    if args.truth_out:
        blob = {"model": truth.model, "beta": truth.beta.tolist(),
                "tau2": truth.tau2, "phi": truth.phi,
                "v": truth.v.tolist() if truth.v is not None else None}
        Path(args.truth_out).write_text(json.dumps(blob, indent=1))
    print(f"dataset written to {out} (n={ds.n}, m={ds.m}, p={ds.p})")
    return 0


def cmd_diagnose(args):
    dataset = _load_dataset(vars(args))
    if args.adjacency:
        load_adjacency(args.adjacency, labels=dataset.location_ids)
    archive = load_archive(args.fit, dataset=dataset)
    if archive.L < 2:
        raise ValueError(f"the fit retained {archive.L} draw(s) and diagnose needs at least 2; "
                         "refit with --nsave 2 or more")
    check_fit_data(archive, dataset)

    # The criteria are the stored ones; LPML is recomputed to catch a fit
    # directory whose files disagree.
    stored = json.loads((Path(args.fit) / "meta.json").read_text())["criteria"]
    lpml, _ = cr.lpml(archive.loglik_obs)
    print(f"stored LPML {stored['lpml']:.8f}, recomputed {lpml:.8f}")
    if abs(lpml - stored["lpml"]) > 1e-8:
        print("error: recomputed LPML deviates from the stored value", file=sys.stderr)
        return 1

    draw_id, r, cumhaz = residual_plot_data(archive, dataset, draws=args.draws)
    slope = cumhaz_slope(r, cumhaz)
    outdir = Path(args.outdir or args.fit)
    outdir.mkdir(parents=True, exist_ok=True)
    np.savetxt(outdir / "coxsnell.csv", np.column_stack((draw_id, r, cumhaz)),
               fmt="%d,%.17e,%.17e", header="draw_id,r,cumhaz", comments="")
    (outdir / "diagnose.json").write_text(json.dumps(dict(stored, coxsnell_slope=slope), indent=1))
    if args.svg:
        _write_svg(outdir / "coxsnell.svg", draw_id, r, cumhaz)
    print(f"cox-snell cumulative-hazard slope: {slope:.4f} (1 is ideal)")
    print(f"residual data written to {outdir / 'coxsnell.csv'}")
    return 0


def _write_svg(path, draw_id, r, cumhaz, size=480, margin=40):
    top = float(np.max(np.concatenate([[1e-9], r, cumhaz])))  # the columns are finite
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
    trace = np.unique(draw_id, return_inverse=True)[1]  # draw ids ascend, trace by trace
    parts += [f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2" fill="{palette[k % len(palette)]}" '
              'fill-opacity="0.6"/>' for k, x, y in zip(trace, sx(r), sy(cumhaz))]
    parts.append(f'<text x="{size // 2}" y="{size - 8}" font-size="12">'
                 'Cox-Snell residual r</text>')
    parts.append(f'<text x="10" y="{size // 2}" font-size="12" '
                 f'transform="rotate(-90 10 {size // 2})">cumulative hazard</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts))


def cmd_mc_study(args):
    design = DESIGNS[args.design]()
    cfg_kwargs = {name: getattr(args, name) for name in _STUDY_CHAIN_FIELDS}
    result = run_mc_study(design, args.replicates, master_seed=args.seed,
                          jobs=args.jobs, fit_models=args.models, cfg_kwargs=cfg_kwargs)
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
    if args.models and len(args.models) > 1:
        agg["selection_lpml"] = result.selection_proportions("lpml")
        agg["selection_dic"] = result.selection_proportions("dic")
    with open(outdir / "aggregate.json", "w") as fh:
        json.dump(agg, fh, indent=1)
    print(json.dumps({k: v for k, v in agg.items() if k != "s0_mean_fit"}, indent=1))
    return 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "fit":
            if args.config:  # the file's flags go first, so the command line's win
                args = parser.parse_args(["fit", *_file_flags(args.config, parser.fit), *argv[1:]])
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
