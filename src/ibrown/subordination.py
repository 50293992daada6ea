"""Source-plane machinery: the half-height v_t, the region where it is positive,
the boundary map a_t, and the holomorphic maps H_t(z) = z + t G(z),
J_t(z) = z - t G(z) together with numerical inversion of J_t.

v_t(a0) is the unique v > 0 solving ``p0(a0, v) = 1/t`` when ``p0(a0, 0) > 1/t``
and 0 otherwise; it satisfies 0 <= v_t < sqrt(t) because p0(a0, v) <= 1/v**2
with equality only for a point mass.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DegenerateJacobianError,
    NoConvergenceError,
    OutsideLambdaError,
    WrongBasinError,
)
from .measure import (
    Bundle,
    MeasureSpec,
    _cauchy_pair,
    _pick,
    cauchy,
    p0_zero,
    real_cauchy,
    transforms,
)
from .numerics import bracket_newton, bracket_newton_nodes, damped_newton

V_TOL = 1e-13

# The v_t solve, one node or many, is bracket_newton in s = log v on
# [log V_TOL, log sqrt(t)]: a root where |1/t - p0| <= _VT_FTOL/t and the
# step is at most _VT_RTOL, i.e. relative in v, as is the bracket's width
# test, and its bisection is geometric in v. Away from the region's ends the
# residual test binds, and 1e-14 leaves v_t about 1e-12 off.
_VT_FTOL = 1e-14
_VT_RTOL = 1e-10


@dataclass(frozen=True)
class LambdaRegion:
    """Maximal open intervals of the real line where v_t > 0, for one t, and
    their images (a_t(l), a_t(r)) under the boundary map: the real section of
    the planar support region."""

    t: float
    intervals: tuple[tuple[float, float], ...]
    images: tuple[tuple[float, float], ...]


def _vt_residual(t: float, v, out: Bundle):
    """The v_t solve's residual 1/t - p0, which rises with v, and u'/u, where
    u' is the iterate of Newton's method on 1/p0 - t in u = v^2, at one node
    or elementwise at arrays of them.

    1/p0 is linear in u for a point mass and, next to a region end, where
    p0(a0, 0) is close to 1/t, to first order in u; Newton's method on p0 in
    v only halves v there per step. Below 4 V_TOL a residual that puts the
    root lower reads as the root: next to a zero of the density v_t falls
    below what p0 = -Im G/v resolves, and it reads 0.
    """
    f = 1.0 / t - out.p0
    ratio = 1.0 - t * out.p0 * f / (out.q0 * v * v)
    low = (v <= 4.0 * V_TOL) & (f > 0.0)
    return _pick(low, 0.0, f), _pick(low, 1.0, ratio)


def _vt_start(v_hint, vmax):
    """Where a v_t solve starts: v_hint, one node or an array of them, where
    it lies in (4 V_TOL, vmax), else vmax/2; a hint of None or not finite
    also gives vmax/2."""
    if v_hint is None:
        return 0.5 * vmax
    ok = (v_hint > 4.0 * V_TOL) & (v_hint < vmax)  # False at nan
    if isinstance(ok, np.ndarray):
        return np.where(ok, v_hint, 0.5 * vmax)
    return v_hint if ok else 0.5 * vmax


def _vt_solve(mu: MeasureSpec, t: float, a0: float, v_hint: float | None = None):
    """Solve p0(a0, v) = 1/t on the guaranteed bracket (0, sqrt(t)), from
    _vt_start(v_hint, sqrt(t)).

    The bracket holds because p0(a0, v) <= 1/v**2 strictly for a
    non-degenerate law. Returns (v, bundle-at-v), or (0.0, None) outside the
    region. Inside it, where v_t <= 4 V_TOL, it returns 0.0 with the bundle at
    such a v.
    """
    if not 0.0 < t < math.inf:
        raise ValueError("t must be positive and finite")
    if p0_zero(mu, a0) <= 1.0 / t:
        return 0.0, None
    vmax = math.sqrt(t)
    v0 = _vt_start(v_hint, vmax)
    out = None

    def fdf(s):
        nonlocal out
        v = math.exp(s)
        out = transforms(mu, a0, v * v)
        f, ratio = _vt_residual(t, v, out)
        return f, -0.5 * math.log(ratio) if ratio > 0.0 else math.inf

    s = bracket_newton(fdf, math.log(V_TOL), math.log(vmax), math.log(v0), _VT_FTOL / t, _VT_RTOL)
    v = math.exp(s)
    return (v if v > 4.0 * V_TOL else 0.0), out


def _vt_solve_nodes(mu: MeasureSpec, t: float, a0: np.ndarray, v_hint: np.ndarray | None = None):
    """_vt_solve at every node of the array a0 at once, through
    bracket_newton_nodes: each pass evaluates one array bundle at the nodes
    still open. Each node starts from its entry of the array v_hint by
    _vt_start's rule, every node at sqrt(t)/2 without one. A start close to
    the root saves the passes that would bisect down to it; the bracket and
    the exit are the same from any start.

    Returns (v, bundle) with an array in each: v_t, and the bundle at the v
    each node stopped at; v is 0 where v_t <= 4 V_TOL. Raises
    OutsideLambdaError if a node lies outside the region, which shows as
    p0(a0, 0) <= 1/t at a node where v reads 0.
    """
    vmax = math.sqrt(t)
    fields = np.empty((len(Bundle._fields), a0.size))

    def fdf(s, idx):
        v = np.exp(s)
        out = transforms(mu, a0[idx], v * v)
        fields[:, idx] = out
        f, ratio = _vt_residual(t, v, out)
        return f, -0.5 * np.log(np.maximum(ratio, 0.0))  # inf, a bisection, where ratio <= 0

    start = np.log(np.broadcast_to(_vt_start(v_hint, vmax), a0.shape))
    with np.errstate(divide="ignore", invalid="ignore"):
        s = bracket_newton_nodes(fdf, math.log(V_TOL), math.log(vmax), start, _VT_FTOL / t, _VT_RTOL)
    v = np.exp(s)
    zero = v <= 4.0 * V_TOL
    for i in np.flatnonzero(zero):
        if p0_zero(mu, float(a0[i])) <= 1.0 / t:
            raise OutsideLambdaError(f"v_t({a0[i]}) = 0")
    return np.where(zero, 0.0, v), Bundle(*fields)


def v_t(mu: MeasureSpec, t: float, a0: float) -> float:
    """Half-height of the source region over a0 (0 outside), by _vt_solve."""
    return _vt_solve(mu, t, a0)[0]


#: a region end's secant solve bisects once it lags bisection by _SLACK
#: evaluations, or when a walk of _WALK floats from its last step falls short
_SLACK = _WALK = 8


def _bisect_edge(h, inside: float, outside: float) -> float:
    """Where h changes sign between h(inside) < 0 and h(outside) >= 0: the
    outside end of a bracket bisected to adjacent floats (near zero to width
    1e-17, then walked to them if at most _WALK apart), where h >= 0: v_t = 0."""
    while abs(inside - outside) > 1e-17 * (1.0 + abs(inside) + abs(outside)):
        if not inside != (mid := 0.5 * (inside + outside)) != outside:
            break
        inside, outside = (mid, outside) if h(mid) < 0.0 else (inside, mid)
    y = math.nextafter(outside, inside)
    while abs(inside - outside) <= _WALK * math.ulp(outside) and h(y) >= 0.0:
        outside, y = y, math.nextafter(y, inside)
    return outside


def _edge(h, inside: float, outside: float) -> float:
    """_bisect_edge(h, inside, outside), sooner: bracket_newton on h, which
    rises outward, in u = s x (s the outward sign), by secant steps from a
    regula falsi start; its last step taken, a walk of at most _WALK floats
    to the sign change, else bisection of the bracket that they leave."""
    s, ends, its = math.copysign(1.0, outside - inside), [inside, outside], []

    def stalled():
        return len(its) >= _SLACK + math.log2(abs(outside - inside) / abs(ends[1] - ends[0]))

    def fdf(u):
        x = s * u
        out = h(x) >= 0.0
        px = its[-1][0] if its else ends[out]  # first, the end that x replaces
        ends[out], dh = x, h(x) - h(px)
        its.append((x, x if stalled() else x - (h(x) * (x - px) / dh if dh else math.inf)))
        return (1.0 if out else -1.0), s * (x - its[-1][1])

    x = inside + (outside - inside) * h(inside) / (h(inside) - h(outside))
    if not min(ends) < x < max(ends):
        x = 0.5 * (inside + outside)
    bracket_newton(fdf, s * inside, s * outside, s * x, math.inf, 4.0 * math.ulp(max(map(abs, ends))))
    x = its[-1][1] if min(ends) < its[-1][1] < max(ends) else its[-1][0]  # the last step, taken
    walk = len(its) + _WALK  # a walk's steps count as the secant's do
    while len(its) < walk and not stalled():
        its.append((x, x))
        ends[out := h(x) >= 0.0] = x
        if (h(y := math.nextafter(x, ends[not out])) >= 0.0) != out:
            return x if out else y
        x = y
    return _bisect_edge(h, *ends)


def _tent(xs, chords, i):
    """Upper bound of concave h on [xs[i], xs[i+1]] from the chords next to it, and where to sample next."""
    a, b = xs[i], xs[i + 1]
    lines = [chords[j] for j in (i - 1, i + 1) if 0 <= j < len(chords)]
    (y1, s1, x1), (y2, s2, x2) = (lines * 2)[:2]
    c = (y2 - y1 + s1 * x1 - s2 * x2) / (s1 - s2) if s1 != s2 else a
    bound, at = max((min(y + sl * (x - x0) for y, sl, x0 in lines), x) for x in (a, b, c) if a <= x <= b)
    return bound, (at if a < at < b else 0.5 * (a + b))


def _gap_cut(h, g0: float, g1: float) -> tuple[float, float] | None:
    """The closed part [c, d] of the gap [g0, g1] of the support where h >= 0:
    one interval, or none, as h is concave there; g1 <= g0 is two pieces that
    touch. Samples at the top of the chords' tent by the best sample find it,
    or bound h below 0, or within rounding of the best sample: none."""
    h0, h1 = h(g0), h(g1)
    if h0 >= 0.0 and h1 >= 0.0:
        return (min(g0, g1), max(g0, g1))
    if g1 <= g0:
        return None
    if h0 >= 0.0:
        return (g0, _edge(h, g1, g0))
    if h1 >= 0.0:
        return (_edge(h, g0, g1), g1)
    xs, m = [g0, g1], 0.5 * (g0 + g1)
    while h(m) < 0.0:
        bisect.insort(xs, m)
        hs = [h(x) for x in xs]
        chords = [(hs[j], (hs[j + 1] - hs[j]) / (xs[j + 1] - xs[j]), xs[j]) for j in range(len(xs) - 1)]
        k = max(range(len(xs)), key=hs.__getitem__)  # the max of h is next to it
        bound, m = max(_tent(xs, chords, i) for i in (k - 1, k) if 0 <= i < len(chords))
        if bound < -1e-15 or bound - hs[k] <= 1e-15 or m in xs:
            return None
    i = bisect.bisect(xs, m)
    return (_edge(h, xs[i - 1], m), _edge(h, xs[i], m))


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

    @lru_cache(maxsize=None)
    def h(x):
        # (t p0(x, 0))^(-1/2) - 1 without its cancellation at an end: -1 on the
        # support, >= 0 exactly where p0 <= 1/t, rising outward, concave on gaps
        f = (p := p0_zero(mu, x)) - inv_t
        return -t * f / (r * (1.0 + r)) if (r := math.sqrt(t * p)) < math.inf else -1.0

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
        return _bisect_edge(h, mid, edge) if h(mid) < 0.0 else edge

    def end(k, edge, step):
        # h rises toward the hull on an end gap, and h >= 0 at distance sqrt(t)
        if h(edge) >= 0.0:
            return into(edge, k)
        for n in range(1, 5):  # widen if rounding bites
            if h(edge + n * step) >= 0.0:
                return _edge(h, edge + (n - 1) * step, edge + n * step)
        raise NoConvergenceError(f"v_t > 0 still at {edge + 4 * step}, 4 sqrt(t) past the support")

    lo, hi = end(0, parts[0][0], -root_t), end(-1, parts[-1][1], root_t)
    cuts = []
    for k in range(len(parts) - 1):
        g0, g1 = parts[k][1], parts[k + 1][0]
        if cut := _gap_cut(h, g0, g1):
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

    Its ends off the support are roots of h = (t p0(., 0))^(-1/2) - 1 (_edge),
    and a gap of the support is cut where the concave h reaches 0 (_gap_cut),
    so no component is missed, however narrow. A polynomial piece may split at
    an even-order zero, where p0(., 0) is finite; a cut ending there is bisected
    on to the end of the band where p0_zero reads finite, so that v_t > 0 on the
    open intervals as _vt_solve computes it. a_t at the ends completes it.
    """
    if not 0.0 < t < math.inf:
        raise ValueError("t must be positive and finite")
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


def h_t(mu: MeasureSpec, t: float, z: complex) -> complex:
    return complex(z) + t * cauchy(mu, z)


def j_t(mu: MeasureSpec, t: float, z: complex) -> complex:
    return complex(z) - t * cauchy(mu, z)


def _outside_lambda_closure(t: float, z: complex, g: complex, gp: complex) -> bool:
    # off the closed source region, up to a relative slack of 1e-9, by
    # p0(Re z, |Im z|) = -Im G/Im z, or -G' on the real line, from (G, G') at z
    p0z = -gp.real if z.imag == 0.0 else -g.imag / z.imag
    return p0z <= (1.0 + 1e-9) / t


def _newton_jt(mu, t, target, z0, tol):
    """Damped Newton on J_t(z) = target: (z, G(z), G'(z)) from the solve's
    last evaluation, the one at z; None where the solve fails."""
    pair = None  # at the last iterate evaluated

    def fdf(z):
        nonlocal pair
        pair = _cauchy_pair(mu, z)
        g, gp = pair
        r = z - t * g - target
        d = 1.0 - t * gp
        return r, r / (d if d != 0.0 else 1e-30)

    z = damped_newton(fdf, complex(z0), tol)
    return None if z is None else (z, *pair)


def j_t_inverse(mu: MeasureSpec, t: float, lam: complex) -> complex:
    """The unique z outside the closed source region with J_t(z) = lam, to
    |J_t(z) - lam| <= 1e-12 (1 + |lam|).

    Damped Newton from z0 = lam; on failure or a wrong-basin landing, restarts
    with continuation along the vertical segment lam + i*h, h from far field
    down to 0, which cannot cross the planar support region.
    """
    lam = complex(lam)
    tol = 1e-12 * (1.0 + abs(lam))
    solved = _newton_jt(mu, t, lam, lam, tol)
    if solved is not None and _outside_lambda_closure(t, *solved):
        return solved[0]

    sgn = 1.0 if lam.imag >= 0.0 else -1.0
    height = max(abs(mu.support.lo), abs(mu.support.hi)) + 10.0 * math.sqrt(t) + 10.0
    top = lam + 1j * sgn * height
    guess = top + t / top  # asymptotic inverse of z - t*G(z) far from the support
    h = height
    while h > max(tol, 1e-14):
        target = lam + 1j * sgn * h
        solved = _newton_jt(mu, t, target, guess, 1e-12 * (1.0 + abs(target)))
        if solved is None:
            raise NoConvergenceError(f"J_t continuation stalled at height {h}")
        guess = solved[0]
        h *= 0.5
    solved = _newton_jt(mu, t, lam, guess, tol)
    if solved is None:
        raise NoConvergenceError(f"J_t inversion failed at {lam}")
    if not _outside_lambda_closure(t, *solved):
        raise WrongBasinError(f"inverse of {lam} landed inside the source region")
    return solved[0]
