"""Bayesian semiparametric survival regression for arbitrarily censored,
left-truncated, spatially referenced data.

Three survival models (accelerated failure time, proportional hazards,
proportional odds) share a flexible baseline: a Bernstein-polynomial
distortion of a parametric survival curve.  Areal (intrinsic CAR) and
georeferenced (Gaussian random field) frailties, spike-and-slab variable
selection, partially linear spline terms, and LPML/DIC/WAIC/Cox-Snell model
assessment are included, with a block-adaptive Metropolis sampler that needs
no manual tuning.
"""

from .baseline import (
    CenteringFamily,
    TbpBaseline,
    alpha_log_prior_at_zero,
    bernstein_cdf,
    bernstein_pdf,
    tbp_log_prior,
)
from .criteria import (
    dic,
    ess,
    log_bf_linearity,
    log_bf_parametric,
    lpml,
    pseudo_bayes_factor,
    waic,
)
from .data import (
    CensoredObservation,
    CsvSchema,
    Dataset,
    TimeVaryingSubject,
    expand_time_varying,
    load_adjacency,
    load_csv,
)
from .diagnostics import coxsnell_residuals, residual_plot_data, turnbull_npmle
from .frailty import FrailtySpec, assign_blocks, fsa_build, powexp_corr, select_knots
from .sampler import ChainSampler, McmcConfig, PosteriorArchive, parametric_prerun, run_chain
from .simulate import DESIGNS, SimDesign, bundled_adjacency37
from .splines import SplineTerm, build_basis
from .study import run_mc_study

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
