"""Bayesian semiparametric survival regression for arbitrarily censored,
left-truncated, spatially referenced data.

Three survival models (accelerated failure time, proportional hazards,
proportional odds) share a flexible baseline: a Bernstein-polynomial
distortion of a parametric survival curve.  Areal (intrinsic CAR) and
georeferenced (Gaussian random field) frailties, spike-and-slab variable
selection, partially linear spline terms, and LPML/DIC/WAIC/Cox-Snell model
assessment are included.

Imported before numpy, with none of OPENBLAS_NUM_THREADS, OMP_NUM_THREADS
and MKL_NUM_THREADS set, the package sets all three to 1.  A second BLAS
thread slowed a random-field fit on two cores, most of all under the
full-scale approximation, and changed its draws.
"""

import os as _os
import sys as _sys

_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in _sys.modules and not any(var in _os.environ for var in _BLAS_THREADS):
    _os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))  # read when numpy loads BLAS

from .baseline import alpha_log_prior_at_zero
from .criteria import (
    dic,
    ess,
    log_bf_linearity,
    log_bf_parametric,
    lpml,
    waic,
)
from .data import (
    CsvSchema,
    Dataset,
    load_adjacency,
    load_csv,
)
from .diagnostics import coxsnell_residuals, residual_plot_data, turnbull_npmle
from .frailty import FrailtySpec, assign_blocks, fsa_build, select_knots
from .sampler import ChainSampler, McmcConfig, PosteriorArchive, parametric_prerun, run_chain
from .simulate import DESIGNS, SimDesign, bundled_adjacency37
from .splines import SplineTerm, build_basis
from .study import run_mc_study

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
