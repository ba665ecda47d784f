"""Gabor-frame representation of oscillatory-integral operators.

Measures the exponential concentration of an operator's Gabor matrix
along its canonical transformation and exploits it for thresholded,
sparse application.
"""

from .errors import (ConfigError, HypothesisError, InsufficientDataError,
                     NoSignalError, NotAFrameError, NumericalError,
                     SingularTimeError, SolverError)
from .fio import FioOperator, Phase, apply, canonical_map, ensure_nondegenerate
from .fitting import DEFAULT_S_GRID, ShellFit, shell_decay_fit
from .gabor import (GaborFrame, Lattice, Window, dual_window, frame_bounds,
                    gaussian, gs_decay_classify, hermite,
                    inversion_formula_reconstruct, make_lattice,
                    moment_constant_conversion, moment_epsilon_bound, stft)
from .gmatrix import (DecayFit, GaborMatrix, SparsityReport, assemble,
                      decay_bound_check, fit_decay, restricted_decay_fit,
                      sparse_apply, sparsity_curve)
from .metaplectic import (SymplecticMatrix, build_metaplectic, chirp_matrix,
                          chirp_operator, dilation_matrix, dilation_operator,
                          harmonic_oscillator, metaplectic_law,
                          rotation_matrix, singular_time_distance)
from .registry import parse_operator, parse_window, shipped_operator_names
from .signals import Grid, SampledSignal, inner_product

__version__ = "0.1.0"
