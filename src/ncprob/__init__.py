"""Noncommutative probability on the real line.

Measures and their holomorphic transforms, the five additive convolutions
and their limit theorems, Loewner evolutions, graph products, and the
classical Markov-chain, Metropolis, and random-matrix oracles.
"""

import os as _os
import sys as _sys
import warnings as _warnings

# honor the thread cap before any BLAS pool spins up
_threads = _os.environ.get("NCPROB_THREADS")
if _threads:
    if "numpy" in _sys.modules:
        _warnings.warn("NCPROB_THREADS is set, but numpy was imported before "
                       "ncprob, so its BLAS thread pools may ignore it",
                       RuntimeWarning, stacklevel=2)
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from .measures import (NcprobError, NoConvergence, AtomicMeasure, GridMeasure,
                       MomentSequence, Dirac, Bernoulli, Normal, Arcsine,
                       Semicircle, Poisson, MarchenkoPastur, FreeMeixner,
                       moments, sample)
from .transforms import (cauchy, f_transform, b_transform, stieltjes_invert,
                         measure_from_ftransform, f_series, moment_quadrature)
from .convolutions import (convolve, convolve_power, clt_iterate,
                           boolean_divisibility_root)
from .loewner import (HullCollision, DrivingFunction, HerglotzField,
                      ChainPoint, evaluate_chain, evaluate_chain_point,
                      slit_chain, inverse_flow, chain_measure,
                      nonlinear_resolvent, sle_driving)
from .graphs import (RootedGraph, spidernet, comb_product, star_product,
                     direct_product, walk_moments, spectral_distribution,
                     approx_process)
from .markov import (TransitionMatrix, MDPSpec, IsingState,
                     stationary_distribution, is_irreducible, period,
                     iterate_distribution, convergence_report, mrp_value,
                     mdp_value_iteration, metropolis_ising, magnetization,
                     exact_boltzmann, lerw, loop_erase)
from .randmat import (sample_gue, gue_eigenvalues, esd, wigner_check,
                      haar_unitary, freeness_statistic, free_ar1,
                      trace_state)

__version__ = "0.1.0"
