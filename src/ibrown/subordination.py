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

import numpy as np

from .errors import (
    NUMERIC_FAILURES,
    DegenerateJacobianError,
    NoConvergenceError,
    OutsideLambdaError,
    WrongBasinError,
)
from .measure import (
    Bundle,
    MeasureSpec,
    _pick,
    cauchy,
    cauchy_prime,
    p0,
    p0_zero,
    real_cauchy,
    transforms,
)
from .numerics import damped_newton

V_TOL = 1e-13

# The stopping rule of the v_t solve, one node or many: a root where
# |p0 - 1/t| <= _VT_FTOL/t and the Newton step is at most _VT_RTOL v; the
# current v once a step would move it by at most _VT_STALL v; v = 0 once the
# bracket's top falls to 4 V_TOL; and a bracket midpoint once the bracket is
# narrower than _VT_RTOL of its top, or after _VT_PASSES evaluations.
_VT_FTOL = 1e-12
_VT_RTOL = 1e-10
_VT_STALL = 1e-13
_VT_PASSES = 120


@dataclass(frozen=True)
class LambdaRegion:
    """Maximal open intervals of the real line where v_t > 0, for one t, and
    their images (a_t(l), a_t(r)) under the boundary map: the real section of
    the planar support region."""

    t: float
    intervals: tuple[tuple[float, float], ...]
    images: tuple[tuple[float, float], ...]


def _vt_clamp(lo, hi, vmax):
    # the bracket midpoint where the solve stops short of a root, kept inside
    # (0, vmax)
    return np.clip(0.5 * (lo + hi), vmax * 1e-18, vmax * (1.0 - 1e-15))


def _vt_solve(mu: MeasureSpec, t: float, a0: float, v_hint: float | None = None):
    """Solve p0(a0, v) = 1/t on the guaranteed bracket (0, sqrt(t)).

    Bisection safeguards Newton steps through d p0/d v = -2 v q0; the bracket
    holds because p0(a0, v) <= 1/v**2 strictly for a non-degenerate law.
    Returns (v, bundle-at-v), or (0.0, None) outside the region. Inside it,
    where v_t < 4 V_TOL, it returns 0.0 with the bundle at such a v.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    inv_t = 1.0 / t
    if p0_zero(mu, a0) <= inv_t:
        return 0.0, None
    vmax = math.sqrt(t)
    lo, hi = 0.0, vmax  # f(lo) > 0 and f(hi) < 0 by the bracket argument
    v = v_hint if (v_hint is not None and V_TOL < v_hint < vmax) else 0.5 * vmax
    out = None
    ftol = _VT_FTOL * inv_t
    dv = vmax  # the step before, for the progress test
    for _ in range(_VT_PASSES):
        out = transforms(mu, a0, v * v)
        f = out.p0 - inv_t
        df = -2.0 * v * out.q0
        step = f / df if df != 0.0 else math.inf
        # near a region end dp0/dv vanishes like v, where ftol alone would
        # leave v_t ~1e-8 off: the Newton step must be small as well
        if abs(f) <= ftol and abs(step) <= _VT_RTOL * v:
            return v, out
        if f > 0.0:
            lo = v
        else:
            hi = v
            if hi <= 4.0 * V_TOL:
                # next to a zero of the density v_t falls below what p0 =
                # -Im G/v resolves: it reads 0, and callers take the v -> 0
                # limits from the bundle at this v
                return 0.0, out
        # relative, like the step test: an absolute width would stop at a
        # bracket midpoint several percent off where v_t is near V_TOL
        if hi - lo <= _VT_RTOL * hi:
            break
        # Newton while it stays in the bracket and at least halves its step;
        # from a hint far below the root, where p0 rises like 1/v, it would
        # only double v per step. Else bisect, geometrically while the bracket
        # spans more than a factor 4 above V_TOL: next to a zero of the density
        # v_t is below V_TOL, and the kernels lose it there
        floor = max(lo, V_TOL)
        mid = math.sqrt(floor * hi) if hi > 4.0 * floor else 0.5 * (lo + hi)
        vn = v - step if (floor < v - step < hi and abs(step) <= 0.5 * dv) else mid
        if abs(vn - v) <= _VT_STALL * v:
            # step below the relative v-tolerance: f sits at rounding level
            return v, out
        dv, v = abs(vn - v), vn
    v = float(_vt_clamp(lo, hi, vmax))
    return v, transforms(mu, a0, v * v)


def _vt_solve_nodes(mu: MeasureSpec, t: float, a0: np.ndarray):
    """_vt_solve at every node of the array a0 at once: each node keeps its
    own bracket [0, sqrt(t)], Newton step and stopping rule, and each pass
    evaluates one array bundle at the nodes still open. Every node starts at
    sqrt(t)/2.

    Returns (v, bundle) with an array in each: v_t, and the bundle at the v
    each node stopped at; v is 0 where v_t < 4 V_TOL. Raises
    OutsideLambdaError if a node lies outside the region, which shows as
    p0(a0, 0) <= 1/t at a node whose bracket fell to 4 V_TOL.
    """
    inv_t, vmax = 1.0 / t, math.sqrt(t)
    ftol = _VT_FTOL * inv_t
    v = np.full(a0.size, 0.5 * vmax)
    lo, hi, dv = np.zeros(a0.size), np.full(a0.size, vmax), np.full(a0.size, vmax)
    v_out, fields = np.zeros(a0.size), np.empty((len(Bundle._fields), a0.size))
    idx = np.arange(a0.size)  # the nodes still open, their state at [idx]
    zero, clamp = [], []  # nodes that read v = 0 and that stop at a midpoint
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_VT_PASSES):
            if not idx.size:
                break
            x = v[idx]
            out = transforms(mu, a0[idx], x * x)
            f = out.p0 - inv_t
            df = -2.0 * x * out.q0
            step = np.where(df != 0.0, f / df, np.inf)
            root = (np.abs(f) <= ftol) & (np.abs(step) <= _VT_RTOL * x)
            up = f > 0.0
            lo[idx] = np.where(up, x, lo[idx])
            hi[idx] = np.where(up, hi[idx], x)
            low, top = lo[idx], hi[idx]
            tiny = ~root & ~up & (top <= 4.0 * V_TOL)
            narrow = ~root & ~tiny & (top - low <= _VT_RTOL * top)
            floor = np.maximum(low, V_TOL)
            mid = np.where(top > 4.0 * floor, np.sqrt(floor * top), 0.5 * (low + top))
            cand = x - step
            newton = (floor < cand) & (cand < top) & (np.abs(step) <= 0.5 * dv[idx])
            vn = np.where(newton, cand, mid)
            stall = ~(root | tiny | narrow) & (np.abs(vn - x) <= _VT_STALL * x)
            done = root | tiny | stall
            v_out[idx[root | stall]] = x[root | stall]
            fields[:, idx[done]] = np.array(out)[:, done]
            zero.append(idx[tiny])
            clamp.append(idx[narrow])
            keep = ~(done | narrow)
            idx, vn, x = idx[keep], vn[keep], x[keep]
            dv[idx], v[idx] = np.abs(vn - x), vn
    for i in np.concatenate([idx[:0], *zero]):
        if p0_zero(mu, float(a0[i])) <= inv_t:
            raise OutsideLambdaError(f"v_t({a0[i]}) = 0")
    ends = np.concatenate([*clamp, idx])  # stopped short of a root, or out of passes
    if ends.size:
        v_out[ends] = _vt_clamp(lo[ends], hi[ends], vmax)
        fields[:, ends] = np.array(transforms(mu, a0[ends], v_out[ends] ** 2))
    return v_out, Bundle(*fields)


def v_t(mu: MeasureSpec, t: float, a0: float) -> float:
    """Half-height of the source region over a0 (0 outside).

    Bisection on the guaranteed bracket [0, sqrt(t)] with Newton refinement
    through d p0/d v = -2 v q0.
    """
    return _vt_solve(mu, t, a0)[0]


#: inverse golden ratio, the shrink factor of a golden-section search
_GOLD = 0.5 * (math.sqrt(5.0) - 1.0)


def _bisect_edge(f, inside: float, outside: float) -> float:
    """Where f changes sign between f(inside) > 0 and f(outside) <= 0: the
    outside end of a bracket bisected down to adjacent floats (or to width
    1e-17 near zero), so that f <= 0, i.e. v_t = 0, at the returned point."""
    while abs(inside - outside) > 1e-17 * (1.0 + abs(inside) + abs(outside)):
        mid = 0.5 * (inside + outside)
        if mid == inside or mid == outside:
            break
        if f(mid) > 0.0:
            inside = mid
        else:
            outside = mid
    return outside


def _gap_dip(f, a: float, b: float) -> float | None:
    """A point of (a, b) where the convex f is <= 0, or None when f > 0 on all
    of it: golden-section search that stops at the first such point."""
    c, d = b - _GOLD * (b - a), a + _GOLD * (b - a)
    fc, fd = f(c), f(d)
    while fc > 0.0 and fd > 0.0:
        if not a < c < d < b:
            return None
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLD * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLD * (b - a)
            fd = f(d)
    return c if fc <= 0.0 else d


def _gap_cut(f, g0: float, g1: float) -> tuple[float, float] | None:
    """The closed part [c, d] of the gap [g0, g1] of the support where f <= 0.

    On a gap f(a0) = p0(a0, 0) - 1/t is a sum of convex terms, so that part is
    one interval (or empty); g1 <= g0 is two pieces that touch.
    """
    f0, f1 = f(g0), f(g1)
    if f0 <= 0.0 and f1 <= 0.0:
        return (min(g0, g1), max(g0, g1))
    if g1 <= g0:
        return None
    if f0 <= 0.0:
        return (g0, _bisect_edge(f, g1, g0))
    if f1 <= 0.0:
        return (_bisect_edge(f, g0, g1), g1)
    m = _gap_dip(f, g0, g1)
    if m is None:
        return None
    return (_bisect_edge(f, g0, m), _bisect_edge(f, g1, m))


def _even_zeros(lo: float, hi: float, coeffs) -> list[float]:
    """Points of (lo, hi) where a piece's density can vanish to even order:
    the roots of its derivative, each cluster of numerically split multiple
    roots taken once, at its mean."""
    if len(coeffs) < 3:
        return []
    poly = np.polynomial.polynomial
    tol = 1e-4 * (hi - lo)
    roots = sorted(float(z.real) for z in poly.polyroots(poly.polyder(coeffs)) if abs(z.imag) <= tol)
    clusters: list[list[float]] = []
    for x in roots:
        if clusters and x - clusters[-1][-1] <= tol:
            clusters[-1].append(x)
        else:
            clusters.append([x])
    return [m for m in (sum(c) / len(c) for c in clusters) if lo < m < hi]


@lru_cache(maxsize=512)
def _lambda_region_cached(mu: MeasureSpec, t: float) -> LambdaRegion:
    inv_t = 1.0 / t
    root_t = math.sqrt(t)

    def f(x):
        return p0_zero(mu, x) - inv_t  # +inf on the support where p0 diverges

    if mu.kind == "atomic":
        parts = [(x, x) for x, _ in mu.atoms]
    elif mu.kind == "semicircle":
        parts = [(mu.support.lo, mu.support.hi)]
    else:
        # inside a piece p0(., 0) is finite only at even-order zeros of the
        # density, so the piece splits there into parts that touch
        parts = []
        for plo, phi, coeffs in mu.pieces:
            ends = [plo, *_even_zeros(plo, phi, coeffs), phi]
            parts += zip(ends[:-1], ends[1:])

    def into(edge, k):
        # a cut that ends on part k, where the density vanishes to order >= 2,
        # also covers the band next to it where p0_zero still reads finite
        mid = 0.5 * (parts[k][0] + parts[k][1])
        return _bisect_edge(f, mid, edge) if f(mid) > 0.0 else edge

    def end(k, edge, step):
        # f rises toward the hull on an end gap, and f <= 0 at distance sqrt(t)
        if f(edge) <= 0.0:
            return into(edge, k)
        out = edge + step
        for _ in range(3):  # widen if rounding bites
            if f(out) > 0.0:
                out += step
        return _bisect_edge(f, edge, out)

    lo, hi = end(0, parts[0][0], -root_t), end(-1, parts[-1][1], root_t)
    cuts = []
    for k in range(len(parts) - 1):
        g0, g1 = parts[k][1], parts[k + 1][0]
        if cut := _gap_cut(f, g0, g1):
            c, d = cut
            cuts.append((into(c, k) if c == g0 else c, into(d, k + 1) if d == g1 else d))
    intervals = []
    for c, d in sorted(cuts):
        if c > lo:
            intervals.append((lo, c))
        lo = max(lo, d)
    if hi > lo:
        intervals.append((lo, hi))
    images = tuple((a_t(mu, t, l), a_t(mu, t, r)) for l, r in intervals)
    return LambdaRegion(t=t, intervals=tuple(intervals), images=images)


def lambda_region(mu: MeasureSpec, t: float) -> LambdaRegion:
    """The source region {v_t > 0} = {a0 : p0(a0, 0) > 1/t}, built from the law.

    The support's interior lies inside, because p0(., 0) diverges there. Each
    gap of the support gets one convex search and at most two bisections, each
    end gap one bisection within sqrt(t) of the hull, and each even-order zero
    of a polynomial density, where p0(., 0) is finite, a check that may split
    the region there. No component is missed, however narrow. A cut that ends
    where the density vanishes to order >= 2 is bisected on into the support
    to the end of the band where p0_zero reads finite, so that v_t > 0 holds
    on the open intervals as _vt_solve computes it. The record also carries
    a_t at each interval's ends, so that it is the whole region, source and
    planar, built once per (mu, t).
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    return _lambda_region_cached(mu, float(t))


def a_t(mu: MeasureSpec, t: float, a0: float) -> float:
    """Boundary abscissa map: a0 - t Re G(a0 + i v_t(a0)), i.e. t*p1 where v_t > 0.

    The two expressions agree where v_t = 0 with p0(a0, 0) = 1/t, so interval
    endpoints evaluate as the one-sided limit from the v_t > 0 side; OnSupport
    is raised only where the exterior value genuinely diverges.
    """
    out = _vt_solve(mu, t, a0)[1]
    if out is not None:
        return _at_value(t, a0, out)
    return a0 - t * real_cauchy(mu, a0)


def _at_value(t: float, a0, out: Bundle):
    # a0 - t Re G with Re G = a0 p0 - p1: t p1 where p0 = 1/t, but free of the
    # solve's residual in p0, and the v -> 0 limit where v_t reads 0
    return a0 - t * (a0 * out.p0 - out.p1)


def _at_slope(t: float, a0, v, out: Bundle):
    """(a_t, da_t/da0) from the bundle at the solved v_t, at one node or
    elementwise at arrays of them.

    The slope is 2t (q0 q2 - q1^2)/q0. Where v_t is below what the kernels
    resolve (v reads 0), it is the v -> 0 limit 1 - t Re G' with
    Re G' = p0 - 2 q2, as Im G' is of the order of the density's slope, which
    vanishes there too. Raises DegenerateJacobianError where v > 0 and q0 <= 0.
    """
    live = v > 0.0  # a bool, or a bool array
    bad = live & (out.q0 <= 0.0)
    if bad.any() if isinstance(bad, np.ndarray) else bad:
        raise DegenerateJacobianError("q0 <= 0")
    q0 = _pick(live, out.q0, 1.0)  # 1 where only the limit is kept
    slope = _pick(live, 2.0 * t * (q0 * out.q2 - out.q1**2) / q0, 1.0 - t * (out.p0 - 2.0 * out.q2))
    return _at_value(t, a0, out), slope


def at_with_slope(
    mu: MeasureSpec, t: float, a0: float, v_hint: float | None = None
) -> tuple[float, float, float]:
    """(a_t, da_t/da0, v_t) at a point of the region, fused kernel passes;
    the v -> 0 limits where v_t reads 0 (see _at_slope)."""
    v, out = _vt_solve(mu, t, a0, v_hint=v_hint)
    if out is None:
        raise OutsideLambdaError(f"v_t({a0}) = 0")
    return (*_at_slope(t, a0, v, out), v)


def da_t_da0(mu: MeasureSpec, t: float, a0: float) -> float:
    """Derivative of a_t, assembled from the q-kernels: 2t(q0 q2 - q1^2)/q0 in (0,2)."""
    return at_with_slope(mu, t, a0)[1]


def h_t(mu: MeasureSpec, t: float, z: complex) -> complex:
    return complex(z) + t * cauchy(mu, z)


def j_t(mu: MeasureSpec, t: float, z: complex) -> complex:
    return complex(z) - t * cauchy(mu, z)


def _outside_lambda_closure(mu: MeasureSpec, t: float, z: complex) -> bool:
    # off the closed source region, up to a relative slack of 1e-9
    return p0(mu, z.real, abs(z.imag)) <= (1.0 + 1e-9) / t


def _newton_jt(mu, t, target, z0, tol):
    def residual(z):
        try:
            return j_t(mu, t, z) - target
        except NUMERIC_FAILURES:
            return None

    def step(z, fz):
        try:
            d = 1.0 - t * cauchy_prime(mu, z)
        except NUMERIC_FAILURES:
            return None
        return fz / (d if d != 0.0 else 1e-30)

    return damped_newton(residual, step, complex(z0), tol, max_iter=80, halvings=50)


def j_t_inverse(mu: MeasureSpec, t: float, lam: complex) -> complex:
    """The unique z outside the closed source region with J_t(z) = lam, to
    |J_t(z) - lam| <= 1e-12 (1 + |lam|).

    Damped Newton from z0 = lam; on failure or a wrong-basin landing, restarts
    with continuation along the vertical segment lam + i*h, h from far field
    down to 0, which cannot cross the planar support region.
    """
    lam = complex(lam)
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
