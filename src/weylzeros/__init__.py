"""Simulator and numerical verification suite for the real zeros of random
Weyl polynomials P_n(x) = sum_i xi_i x^i / sqrt(i!) with general coefficient
distributions."""

__version__ = "0.1.0"

from . import basis, dists, edgeworth, gaussian_theory, lcd, montecarlo, roots
from .basis import BasisWindow, WeylSample, basis_log_weight, evaluate, support_window
from .dists import (
    CoefficientDistribution,
    discrete_sym,
    excess_cumulants,
    gaussian,
    rademacher,
    sample,
    trial_stream,
    uniform_sym,
)
from .gaussian_theory import (
    expected_count_gaussian,
    intensity_gaussian,
    pair_correlation_limit,
    variance_constant_weyl,
)
from .montecarlo import ExperimentConfig, EstimateSummary
from .roots import IntervalSpec, RootCountResult, count_sign_changes, kac_rice_count
