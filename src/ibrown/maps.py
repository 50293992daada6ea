"""Pushforward structure tying the three models together.

U_t carries the source region onto the planar support region, scaling
vertical segments by two; Q_t collapses vertical segments of the support
region to points of the real line; the density rho_t on the source region
is the planar law of the two-sided (rotation-invariant) perturbation, and
its Q_t-image is the law of the self-adjoint perturbation, which
brown.profile samples on its rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .brown import _a0_solve_nodes, _circular_density, _locate, _planar_density, lambda_sweep, profile
from .errors import OutsideLambdaError, OutsideOmegaError
from .measure import MeasureSpec, transforms
from .numerics import bracket_newton
from .subordination import _vt_solve, _vt_solve_nodes, lambda_region

#: cuts of each region interval along Re, giving the rectangles of pushforward_check
N_RECT = 4


def u_t(mu: MeasureSpec, t: float, lam0: complex) -> complex:
    """a_t(a0) + 2i b0 for a0 + i b0 in the closed source region; raises
    OutsideLambdaError off it. Off the open region (a nan slope from the
    solve) the closure holds only the region's ends, taken as a0 within tol
    of an interval of lambda_region."""
    lam0 = complex(lam0)
    a0, b0 = lam0.real, lam0.imag
    tol = 1e-9 * (1.0 + abs(lam0))
    v, at, slope = _vt_solve(mu, t, a0)
    off = math.isnan(slope) and not any(l - tol <= a0 <= r + tol for l, r in lambda_region(mu, t).intervals)
    if abs(b0) > v + tol or off:
        raise OutsideLambdaError(f"{lam0} is outside the closed source region")
    return complex(at, 2.0 * b0)


def u_t_inverse(mu: MeasureSpec, t: float, lam: complex) -> complex:
    """a0(Re lam) + i Im(lam)/2 for lam in the closed region: where classify
    does not say "outside", so also on its band past an interval's end."""
    lam = complex(lam)
    verdict, inv = _locate(mu, t, lam)
    if verdict.tag == "outside":
        raise OutsideOmegaError(f"{lam} is outside the closed region")
    return complex(inv[0], 0.5 * lam.imag)


def q_t(mu: MeasureSpec, t: float, lam: complex) -> float:
    """2 a0(Re lam) - Re lam, constant along vertical segments, on the closed
    region (classify's band included) as u_t_inverse takes it."""
    lam = complex(lam)
    return 2.0 * u_t_inverse(mu, t, lam).real - lam.real


def circular_density(mu: MeasureSpec, t: float, lam0: complex) -> float:
    """Planar density of the rotation-invariant model at an interior source point:
    (1/(pi t)) (1 - (da_t/da0)/2), constant in Im."""
    lam0 = complex(lam0)
    a0, b0 = lam0.real, lam0.imag
    v, _, slope = _vt_solve(mu, t, a0)
    tol = 1e-9 * (1.0 + abs(lam0))
    if v <= 0.0 or abs(b0) >= v - tol:
        raise OutsideLambdaError(f"{lam0} is not strictly inside the source region")
    return _circular_density(t, slope)


def sample_planar(mu: MeasureSpec, t: float, n: int, seed: int = 0) -> np.ndarray:
    """Draw n points from the planar law using its product structure: the real
    part comes from the vertical marginal 2 b_t w_t by inverting the
    profile's CDF of Re, the imaginary part is uniform on (-b_t(a), b_t(a))."""
    prof = profile(mu, t)
    rng = np.random.default_rng(seed)
    a = prof.a_quantile(rng.uniform(0.0, prof.mass, n))
    b = rng.uniform(-1.0, 1.0, n) * prof.b_interp(a)
    return a + 1j * b


@dataclass(frozen=True)
class PushforwardReport:
    """Rectangle-mass comparison between the two routes to the planar law.

    error_estimates holds, per rectangle, the larger of the source-side and
    target-side differences between the RULE_NODES rule and the embedded
    CHECK_NODES rule.
    """

    max_discrepancy: float
    rectangles: tuple[tuple[float, float, float, float], ...]
    source_masses: tuple[float, ...]
    target_masses: tuple[float, ...]
    error_estimates: tuple[float, ...]


#: Gauss-Legendre nodes per theta-piece of a rectangle mass, and of the
#: embedded lower-order rule whose difference is the mass's error estimate
RULE_NODES = 48
CHECK_NODES = 24


@lru_cache(maxsize=None)
def _embedded_rule(n_hi, n_lo):
    """Nodes on [-1, 1] of two Gauss-Legendre rules side by side, and their
    weights as rows (2, nodes), each row zero on the other rule's nodes.
    Built on first use: leggauss(48) takes milliseconds, which every import
    would pay."""
    (x_hi, w_hi), (x_lo, w_lo) = leggauss(n_hi), leggauss(n_lo)
    weights = np.zeros((2, n_hi + n_lo))
    weights[0, :n_hi], weights[1, n_hi:] = w_hi, w_lo
    nodes = np.concatenate((x_hi, x_lo))
    for arr in (nodes, weights):
        arr.setflags(write=False)
    return nodes, weights


def _v_crossings(mu, t, sweep, level):
    """Source abscissas where v_t crosses the positive level, and a_t there.

    v_t > level exactly where p0(a0, level^2) > 1/t, so each crossing is a
    root of p0(., level^2) - 1/t, bracketed by neighbouring sweep nodes
    (where v - level has its sign) and solved by bracket_newton through
    d p0/d a0 = -2 q1, one bundle per step; a_t there is _vt_solve's,
    started at the level.
    """
    a0s, d = sweep["a0"], sweep["v"] - level
    v2, inv_t = level * level, 1.0 / t

    def crossing(lo, hi, rise):
        def fdf(a0):
            out = transforms(mu, a0, v2)
            f, df = out.p0 - inv_t, -2.0 * out.q1
            return rise * f, f / df if df != 0.0 else math.inf

        return bracket_newton(fdf, lo, hi, 0.5 * (lo + hi), 1e-12 * inv_t, 1e-14 * (1.0 + abs(lo) + abs(hi)))

    xs = [
        crossing(a0s[i], a0s[i + 1], 1.0 if d[i] < 0.0 else -1.0)
        for i in np.flatnonzero((d[:-1] != 0.0) & ((d[:-1] > 0.0) != (d[1:] > 0.0)))
    ]
    return np.array(xs), np.array([_vt_solve(mu, t, x, v_hint=level)[1] for x in xs])


def _theta_nodes(interval, cuts, kinks):
    """Nodes x and weights of both rules for the integrals over [cuts[i],
    cuts[i + 1]], in the Chebyshev angle x = mid - half cos(theta) on the
    whole interval (cuts[0] and cuts[-1] are its ends). Each piece of the
    angle between consecutive breaks, the cuts and the kinks, takes both
    Gauss-Legendre rules. Returns x, the weights (2, nodes) of the two rules
    with dx/dtheta folded in, and each node's cut index."""
    lo, hi = interval
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)

    def angle(x):
        return np.arccos(np.clip((mid - x) / half, -1.0, 1.0))

    cut_th = angle(cuts)
    cut_th[0], cut_th[-1] = 0.0, math.pi  # exact, whatever mid and half round to
    # np.sort, not np.unique, which imports numpy.ma (about 1.3 MiB) on first use
    breaks = np.sort(np.concatenate((cut_th, angle(kinks))))
    left, right = breaks[:-1], breaks[1:]
    centre, width = 0.5 * (right + left)[right > left], 0.5 * (right - left)[right > left]
    xi, rule_weights = _embedded_rule(RULE_NODES, CHECK_NODES)
    theta = centre[:, None] + width[:, None] * xi
    weights = (width[:, None] * half * np.sin(theta))[None] * rule_weights[:, None, :]
    which = np.repeat(np.searchsorted(cut_th, centre) - 1, xi.size)
    return (mid - half * np.cos(theta)).ravel(), weights.reshape(2, -1), which


def _clipped(height, b_lo, b_hi):
    """Length of [-height, height] within [b_lo, b_hi]."""
    return np.maximum(np.minimum(b_hi, height) - np.maximum(b_lo, -height), 0.0)


def _cut_sums(which, weights, f):
    """Sums of f over the nodes of each cut under both rules: shape (2, N_RECT)."""
    return np.array([np.bincount(which, w * f, N_RECT) for w in weights])


def pushforward_check(mu: MeasureSpec, t: float) -> PushforwardReport:
    """Verify that U_t pushes the source-region law onto the planar law.

    For a family of axis-aligned rectangles R, the mass of rho_t over
    U_t^{-1}(R) must match the planar mass over R; U_t^{-1} maps
    [a1,a2]x[b1,b2] to [a0(a1),a0(a2)]x[b1/2,b2/2] on each interval. Per
    region interval there are three bands, the full height first, each cut
    into N_RECT rectangles.

    Each side keeps its own variable: the source masses integrate rho_t
    times the clipped height v_t over a0, the target masses w_t times the
    clipped height b_t over a. Either integral runs over the Chebyshev angle
    of its whole interval, which makes the square-root ends smooth, and is
    split at the cuts and at the clip kinks, where v_t crosses the half
    bands' top. Each piece takes a fixed Gauss-Legendre rule of RULE_NODES
    nodes and an embedded one of CHECK_NODES for the error estimate. One
    coarse sweep of every interval gives the bands, the kinks' brackets, the
    inversion's start and, interpolated, the start of the source nodes' v_t.
    Per interval, the source nodes take one array v_t solve, and the target
    nodes with the inner cuts appended one array inversion a -> a0.
    """
    region = lambda_region(mu, t)
    rects, src, tgt, err = [], [], [], []
    sweeps = lambda_sweep(mu, t, region.intervals, region.images, 64)
    for i, ((al, ar), (l, r)) in enumerate(zip(region.images, region.intervals)):
        sweep = {key: rows[i] for key, rows in sweeps.items()}
        bmax = 2.0 * float(sweep["v"].max())
        bands = [(-2.0 * bmax, 2.0 * bmax), (0.0, 0.45 * bmax), (-0.45 * bmax, 0.0)]
        cuts = np.linspace(al, ar, N_RECT + 1)
        # the half bands share one clip level, which the full band never meets
        kinks_a0, kinks_a = _v_crossings(mu, t, sweep, 0.225 * bmax)

        # the target nodes and, appended to them, the inner cuts: one inversion
        a, w_a, which_a = _theta_nodes((al, ar), cuts, kinks_a)
        inv = np.concatenate((a, cuts[1:-1]))
        start = np.interp(inv, sweep["at"], sweep["a0"])
        a0, slope, v_a = _a0_solve_nodes(mu, t, inv, (l, r), (al, ar), start)
        cuts_a0 = np.concatenate(([l], a0[a.size :], [r]))
        w = _planar_density(t, slope[: a.size])
        v_a = v_a[: a.size]

        x, w_x, which_x = _theta_nodes((l, r), cuts_a0, kinks_a0)
        v, _, slope = _vt_solve_nodes(mu, t, x, np.interp(x, sweep["a0"], sweep["v"]))
        rho = _circular_density(t, slope)

        for b_lo, b_hi in bands:
            s = _cut_sums(which_x, w_x, rho * _clipped(v, 0.5 * b_lo, 0.5 * b_hi))
            g = _cut_sums(which_a, w_a, w * _clipped(2.0 * v_a, b_lo, b_hi))
            rects += [(float(cuts[i]), float(cuts[i + 1]), b_lo, b_hi) for i in range(N_RECT)]
            src += s[0].tolist()
            tgt += g[0].tolist()
            err += np.maximum(np.abs(s[0] - s[1]), np.abs(g[0] - g[1])).tolist()
    disc = max(abs(s - g) for s, g in zip(src, tgt)) if rects else 0.0
    return PushforwardReport(
        max_discrepancy=disc,
        rectangles=tuple(rects),
        source_masses=tuple(src),
        target_masses=tuple(tgt),
        error_estimates=tuple(err),
    )
