"""Source-plane machinery: the half-height v_t, the region where it is positive,
the boundary map a_t, and the holomorphic maps H_t(z) = z + t G(z),
J_t(z) = z - t G(z) together with numerical inversion of J_t.

v_t(a0) is the unique v > 0 solving ``p0(a0, v) = 1/t`` when ``p0(a0, 0) > 1/t``
and 0 otherwise; it satisfies 0 <= v_t < sqrt(t) because p0(a0, v) <= 1/v**2
with equality only for a point mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    NUMERIC_FAILURES,
    DegenerateJacobianError,
    NoConvergenceError,
    OutsideLambdaError,
    WrongBasinError,
)
from .measure import (
    MeasureSpec,
    cauchy,
    cauchy_prime,
    p0_zero,
    real_cauchy,
    transforms,
)
V_TOL = 1e-13
DEFAULT_SCAN = 4096


@dataclass(frozen=True)
class LambdaRegion:
    """Maximal open intervals of the real line where v_t > 0, for one t."""

    t: float
    intervals: tuple[tuple[float, float], ...]

    def locate(self, a0: float) -> int | None:
        """Index of the interval containing a0, or None."""
        for i, (lo, hi) in enumerate(self.intervals):
            if lo < a0 < hi:
                return i
        return None

    def gap(self, a0: float) -> float:
        """Distance from a0 to the region (0 when inside)."""
        if not self.intervals:
            return math.inf
        return min(max(lo - a0, 0.0, a0 - hi) for lo, hi in self.intervals)


def _vt_solve(
    mu: MeasureSpec,
    t: float,
    a0: float,
    extra_keys: tuple[str, ...] = (),
    v_hint: float | None = None,
    vtol: float = V_TOL,
):
    """Solve p0(a0, v) = 1/t on the guaranteed bracket (0, sqrt(t)).

    Bisection safeguards Newton steps through d p0/d v = -2 v q0; the bracket
    holds because p0(a0, v) <= 1/v**2 strictly for a non-degenerate law.
    Returns (v, bundle-at-v) where the bundle also carries extra_keys, or
    (0.0, None) outside the region.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    inv_t = 1.0 / t
    if p0_zero(mu, a0) <= inv_t:
        return 0.0, None
    vmax = math.sqrt(t)
    lo, hi = 0.0, vmax  # f(lo) > 0 and f(hi) < 0 by the bracket argument
    keys = ("p0", "q0") + tuple(k for k in extra_keys if k not in ("p0", "q0"))
    v = v_hint if (v_hint is not None and 0.0 < v_hint < vmax) else 0.5 * vmax
    out = None
    ftol = 1e-12 * inv_t
    for _ in range(120):
        out = transforms(mu, a0, v * v, keys)
        f = out["p0"] - inv_t
        if abs(f) <= ftol:
            return v, out
        if f > 0.0:
            lo = v
        else:
            hi = v
        if hi - lo <= vtol:
            break
        df = -2.0 * v * out["q0"]
        vn = v - f / df if df != 0.0 else 0.5 * (lo + hi)
        if not lo < vn < hi:
            vn = 0.5 * (lo + hi)
        if abs(vn - v) <= vtol:
            # step below the v-tolerance: f sits at quadrature noise level
            return v, out
        v = vn
    v = max(min(0.5 * (lo + hi), vmax * (1.0 - 1e-15)), vmax * 1e-18)
    out = transforms(mu, a0, v * v, keys)
    return v, out


def v_t(
    mu: MeasureSpec,
    t: float,
    a0: float,
    v_hint: float | None = None,
    vtol: float = V_TOL,
) -> float:
    """Half-height of the source region over a0 (0 outside).

    Bisection on the guaranteed bracket [0, sqrt(t)] with Newton refinement
    through d p0/d v = -2 v q0.
    """
    return _vt_solve(mu, t, a0, v_hint=v_hint, vtol=vtol)[0]


@lru_cache(maxsize=512)
def _lambda_region_cached(mu: MeasureSpec, t: float, n_scan: int) -> LambdaRegion:
    inv_t = 1.0 / t
    root_t = math.sqrt(t)
    lo = mu.support.lo - root_t
    hi = mu.support.hi + root_t

    def f(x):
        val = p0_zero(mu, x)
        return (val - inv_t) if math.isfinite(val) else math.inf

    # the region is mathematically contained in (lo, hi); widen if rounding bites
    for _ in range(3):
        if f(lo) > 0.0:
            lo -= root_t
        if f(hi) > 0.0:
            hi += root_t

    xs = [lo + (hi - lo) * i / n_scan for i in range(n_scan + 1)]
    fs = [f(x) for x in xs]

    def refine(xa, fa, xb, fb):
        # plain bisection on the sign of f, 200 steps max
        for _ in range(200):
            if xb - xa <= 1e-17 * (1.0 + abs(xa) + abs(xb)):
                break
            xm = 0.5 * (xa + xb)
            fm = f(xm)
            if (fm > 0.0) == (fa > 0.0):
                xa, fa = xm, fm
            else:
                xb, fb = xm, fm
        return 0.5 * (xa + xb)

    intervals = []
    start = None
    for i in range(n_scan):
        inside_a = fs[i] > 0.0
        inside_b = fs[i + 1] > 0.0
        if not inside_a and inside_b:
            start = refine(xs[i], fs[i], xs[i + 1], fs[i + 1])
        elif inside_a and not inside_b and start is not None:
            intervals.append((start, refine(xs[i], fs[i], xs[i + 1], fs[i + 1])))
            start = None
    return LambdaRegion(t=t, intervals=tuple(intervals))


def lambda_region(mu: MeasureSpec, t: float, n_scan: int = DEFAULT_SCAN) -> LambdaRegion:
    """Scan-and-bisect construction of {v_t > 0}.

    Components narrower than the scan pitch can be missed; raise n_scan for
    atomic laws with many close atoms at small t.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    return _lambda_region_cached(mu, float(t), int(n_scan))


def a_t(mu: MeasureSpec, t: float, a0: float, v_hint: float | None = None) -> float:
    """Boundary abscissa map: t*p1(a0, v_t(a0)) where v_t > 0, else a0 - t*G(a0).

    The two expressions agree where v_t = 0 with p0(a0, 0) = 1/t, so interval
    endpoints evaluate as the one-sided limit from the v_t > 0 side; OnSupport
    is raised only where the exterior value genuinely diverges.
    """
    v, out = _vt_solve(mu, t, a0, extra_keys=("p1",), v_hint=v_hint)
    if v > 0.0 and out is not None:
        return t * out["p1"]
    return a0 - t * real_cauchy(mu, a0)


def at_with_slope(
    mu: MeasureSpec, t: float, a0: float, v_hint: float | None = None
) -> tuple[float, float, float]:
    """(a_t, da_t/da0, v_t) at a point with v_t(a0) > 0, fused kernel passes."""
    v, out = _vt_solve(mu, t, a0, extra_keys=("p1", "q1", "q2"), v_hint=v_hint)
    if v <= 0.0 or out is None:
        raise OutsideLambdaError(f"v_t({a0}) = 0")
    q0 = out["q0"]
    if q0 <= 0.0:
        raise DegenerateJacobianError("q0 <= 0")
    slope = 2.0 * t * (q0 * out["q2"] - out["q1"] ** 2) / q0
    return t * out["p1"], slope, v


def da_t_da0(mu: MeasureSpec, t: float, a0: float, v_hint: float | None = None) -> float:
    """Derivative of a_t, assembled from the q-kernels: 2t(q0 q2 - q1^2)/q0 in (0,2)."""
    return at_with_slope(mu, t, a0, v_hint=v_hint)[1]


def h_t(mu: MeasureSpec, t: float, z: complex) -> complex:
    return complex(z) + t * cauchy(mu, z)


def j_t(mu: MeasureSpec, t: float, z: complex) -> complex:
    return complex(z) - t * cauchy(mu, z)


def _outside_lambda_closure(mu: MeasureSpec, t: float, z: complex, slack: float = 1e-9) -> bool:
    v = abs(z.imag)
    val = p0_zero(mu, z.real) if v == 0.0 else transforms(mu, z.real, v * v, ("p0",))["p0"]
    return val <= (1.0 + slack) / t


def _newton_jt(mu, t, target, z0, tol, max_iter=80):
    z = complex(z0)
    try:
        fz = j_t(mu, t, z) - target
    except NUMERIC_FAILURES:
        return None
    for _ in range(max_iter):
        if abs(fz) <= tol:
            return z
        try:
            d = 1.0 - t * cauchy_prime(mu, z)
        except NUMERIC_FAILURES:
            return None
        if d == 0.0:
            d = 1e-30
        step = fz / d
        factor = 1.0
        for _ in range(50):
            zn = z - factor * step
            try:
                fn = j_t(mu, t, zn) - target
            except NUMERIC_FAILURES:
                fn = None
            if fn is not None and abs(fn) < abs(fz):
                z, fz = zn, fn
                break
            factor *= 0.5
        else:
            return None
    return z if abs(fz) <= tol else None


def j_t_inverse(mu: MeasureSpec, t: float, lam: complex, tol: float | None = None) -> complex:
    """The unique z outside the closed source region with J_t(z) = lam.

    Damped Newton from z0 = lam; on failure or a wrong-basin landing, restarts
    with continuation along the vertical segment lam + i*h, h from far field
    down to 0, which cannot cross the planar support region.
    """
    lam = complex(lam)
    if tol is None:
        tol = 1e-12 * (1.0 + abs(lam))
    z = _newton_jt(mu, t, lam, lam, tol)
    if z is not None and _outside_lambda_closure(mu, t, z):
        return z

    sgn = 1.0 if lam.imag >= 0.0 else -1.0
    height = max(abs(mu.support.lo), abs(mu.support.hi)) + 10.0 * math.sqrt(t) + 10.0
    top = lam + 1j * sgn * height
    guess = top + t / top  # asymptotic inverse of z - t*G(z) far from the support
    h = height
    while h > max(tol, 1e-14):
        target = lam + 1j * sgn * h
        zn = _newton_jt(mu, t, target, guess, 1e-12 * (1.0 + abs(target)))
        if zn is None:
            raise NoConvergenceError(f"J_t continuation stalled at height {h}")
        guess = zn
        h *= 0.5
    z = _newton_jt(mu, t, lam, guess, tol)
    if z is None:
        raise NoConvergenceError(f"J_t inversion failed at {lam}")
    if not _outside_lambda_closure(mu, t, z):
        raise WrongBasinError(f"inverse of {lam} landed inside the source region")
    return z
