"""Numerics for the planar spectral law of a self-adjoint model under an
imaginary semicircular perturbation: support region, vertically constant
density, pushforward maps, an independent fixed-point solver, a
characteristic-flow engine, and random-matrix Monte Carlo validation."""

from .brown import BrownProfile, RegionVerdict, a0_of_a, b_t, classify, profile, s_outside, w_t
from .characteristics import (
    InitialData,
    Momenta,
    PathState,
    flow,
    hj_value,
    initial_momenta,
    lifetime,
    pde_residual,
    s_initial,
    s_of,
)
from .errors import IBrownError
from .jn import jn_density, solve_g
from .maps import circular_density, pushforward_check, q_t, sample_planar, u_t, u_t_inverse
from .measure import (
    MeasureSpec,
    Support,
    atomic,
    bernoulli,
    cauchy,
    cauchy_prime,
    from_json,
    load_measure,
    p0,
    p1,
    piecewise_poly,
    quantile,
    semicircle,
    to_json,
    uniform,
)
from .rmt import CompareReport, EigenCloud, SimConfig, compare, deterministic_x, sample_gue, simulate
from .subordination import LambdaRegion, a_t, h_t, j_t, j_t_inverse, lambda_region, v_t

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
