"""Planar spectral density of the perturbed model: the support region, the
inversion a -> a0(a) of the boundary map, the height b_t, the density w_t,
point classification, and the harmonic log-potential outside the region.

Inside the region the density is constant along vertical segments:

    w_t(a + ib) = (1/(2 pi t)) * (da0/da - 1/2),        da0/da > 1/2,

with the region bounded by |b| < b_t(a) and b_t(a_t(a0)) = 2 v_t(a0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutsideLambdaError, OutsideOmegaError, OutsideOnlyError
from .measure import MeasureSpec, cauchy, log_potential
from .numerics import bracket_newton, bracket_newton_nodes
from .subordination import _vt_solve, _vt_solve_nodes, j_t_inverse, lambda_region


def _planar_density(t, slope):
    """w_t from the slope da_t/da0 at the source point (elementwise too)."""
    return (1.0 / (2.0 * math.pi * t)) * (1.0 / slope - 0.5)


def _circular_density(t, slope):
    """The rotation-invariant model's density from the slope (see maps)."""
    return (1.0 / (math.pi * t)) * (1.0 - 0.5 * slope)


@dataclass(frozen=True)
class RegionVerdict:
    """Classification of a point against the closed support region.

    margin is |Im lam| - b_t(Re lam), Re lam clamped onto the real section;
    a positive distance proxy for a real part beyond every interval; and,
    for |Im lam| > 2 sqrt(t) + band, |Im lam| - 2 sqrt(t), a positive lower
    bound of |Im lam| - b_t as b_t < 2 sqrt(t). tag == "boundary" iff
    |margin| <= band = 1e-9 (1 + |lam|).
    """

    tag: str  # "inside" | "outside" | "boundary"
    margin: float


@dataclass(frozen=True)
class BrownProfile:
    """Sampled region data, one block per interval of the region's real
    section, on the grid a_t(a0) of Chebyshev angles in a0. Arrays are
    read-only views.

    The same rows sample the additive law, the Q_t-image of the planar law:
    u = 2 a0 - a_t(a0) with density f = b_t/(2 pi t), and cdf, the planar
    mass left of each row, is the CDF of Re and of u alike. end_cdf is that
    mass at each interval's ends, where a = a_t(l) and u = 2l - a_t(l).
    """

    t: float
    grid: np.ndarray
    a0: np.ndarray
    halfheight: np.ndarray
    density: np.ndarray
    slope: np.ndarray  # da_t/da0 at each row
    cdf: np.ndarray
    flags: tuple[str, ...]
    omega_intervals: tuple[tuple[float, float], ...]
    lambda_intervals: tuple[tuple[float, float], ...]
    block_edges: tuple[int, ...]  # grid index ranges per interval
    end_cdf: tuple[tuple[float, float], ...]

    @property
    def mass(self) -> float:
        return self.end_cdf[-1][1]

    @property
    def u(self) -> np.ndarray:
        return 2.0 * self.a0 - self.grid

    @property
    def f(self) -> np.ndarray:
        return self.halfheight / (2.0 * math.pi * self.t)

    @property
    def rho(self) -> np.ndarray:
        """Density of the rotation-invariant model at each row's source point."""
        return _circular_density(self.t, self.slope)

    def blocks(self):
        for i in range(len(self.block_edges) - 1):
            yield slice(self.block_edges[i], self.block_edges[i + 1])

    def _knots(self, rows, ends) -> np.ndarray:
        """rows with each block between its interval's two values in ends."""
        return np.concatenate(
            [np.concatenate(([lo], rows[sl], [hi])) for sl, (lo, hi) in zip(self.blocks(), ends)]
        )

    def _a_knots(self) -> np.ndarray:
        return self._knots(self.grid, self.omega_intervals)

    def b_interp(self, a) -> np.ndarray:
        """Height b_t at arbitrary points by per-interval interpolation (0 outside)."""
        heights = self._knots(self.halfheight, ((0.0, 0.0),) * len(self.omega_intervals))
        return np.interp(np.asarray(a, dtype=float), self._a_knots(), heights, left=0.0, right=0.0)

    def cdf_at_a(self, x) -> np.ndarray:
        """Marginal CDF of Re under the planar law, linear between the knots."""
        cdf = self._knots(self.cdf, self.end_cdf)
        return np.interp(np.asarray(x, dtype=float), self._a_knots(), cdf, left=0.0, right=1.0)

    def cdf_at_u(self, x) -> np.ndarray:
        """CDF of the additive law, linear between the knots."""
        ends = [
            (2.0 * l - al, 2.0 * r - ar)
            for (l, r), (al, ar) in zip(self.lambda_intervals, self.omega_intervals)
        ]
        knots, cdf = self._knots(self.u, ends), self._knots(self.cdf, self.end_cdf)
        return np.interp(np.asarray(x, dtype=float), knots, cdf, left=0.0, right=1.0)

    def a_quantile(self, p) -> np.ndarray:
        """Inverse of cdf_at_a on [0, mass]."""
        cdf = self._knots(self.cdf, self.end_cdf)
        return np.interp(np.asarray(p, dtype=float), cdf, self._a_knots())


# ----------------------------------------------------------------------------
# the inversion a -> a0


def omega_intervals(mu: MeasureSpec, t: float) -> tuple[tuple[float, float], ...]:
    """Images of the source intervals under the boundary map (the region's real section)."""
    return lambda_region(mu, t).images


def _a0_ftol(a, al, ar):
    """Residual tolerance in a of the inversion a -> a0 on the interval with
    image [al, ar], at a point or elementwise at arrays of them."""
    # b_t grows like sqrt(a - al) at an end, so next to one the residual must
    # shrink with the distance for b_t to keep ten digits, down to a few ulps
    # of a, where a_t's rounding would only stall the solve
    near = 1e-10 * np.minimum(a - al, ar - a)
    return (1.0 + np.abs(a)) * np.maximum(np.minimum(1e-12, near), 1e-15)


def _a0_xtol(lam_iv):
    """Step and width tolerance in a0 of the inversion on the source interval
    lam_iv: a root's Newton step is below it."""
    l, r = lam_iv
    return 1e-13 * (1.0 + abs(l) + abs(r))


def _a0_solve(mu, t, a, lam_iv, omega_iv):
    """Invert a_t on one source interval: (a0, slope, v) with a_t(a0) = a.

    bracket_newton on the fixed bracket lam_iv = [l, r], where f = a_t - a
    rises from f(l) = a_t(l) - a, known from omega_iv = (a_t(l), a_t(r)),
    started at the linear interpolation between them. Each evaluation hints
    v_t's solve with the v before, and the slope and v returned are the ones
    evaluated at the root. Raises OutsideLambdaError at an iterate off the
    region, where the solve's slope is nan.
    """
    (l, r), (al, ar) = lam_iv, omega_iv
    slope = v = None  # at the last iterate evaluated

    def fdf(a0):
        nonlocal slope, v
        v, at, slope = _vt_solve(mu, t, a0, v_hint=v)
        if math.isnan(slope):
            raise OutsideLambdaError(f"v_t({a0}) = 0")
        return at - a, (at - a) / slope if slope > 0.0 else math.inf

    x0 = min(max(l + (r - l) * (a - al) / (ar - al), math.nextafter(l, r)), math.nextafter(r, l))
    root = bracket_newton(fdf, l, r, x0, float(_a0_ftol(a, al, ar)), _a0_xtol(lam_iv))
    return root, slope, v


def _a0_solve_nodes(mu, t, a, lam_iv, omega_iv, x0):
    """_a0_solve at every node of the array a, strictly inside omega_iv, at
    once, through bracket_newton_nodes from x0. Each pass is one array v_t
    solve and its slopes at the nodes still open.

    Returns arrays (a0, slope, v), the slope and v evaluated at each root.
    """
    (l, r), (al, ar) = lam_iv, omega_iv
    slopes, vs = np.empty(a.size), np.empty(a.size)

    def fdf(x, idx):
        vs[idx], at, slopes[idx] = _vt_solve_nodes(mu, t, x)
        f = at - a[idx]
        return f, f / slopes[idx]

    x = np.clip(x0, math.nextafter(l, r), math.nextafter(r, l))
    roots = bracket_newton_nodes(fdf, l, r, x, _a0_ftol(a, al, ar), _a0_xtol(lam_iv))
    return roots, slopes, vs


# ----------------------------------------------------------------------------
# pointwise operations


def _locate(mu, t, lam):
    """Locate lam in one walk of the region's intervals: (verdict,
    (a0, slope, v)), or (verdict, None) where the verdict needs no inversion.

    Re lam within the band 1e-9 (1 + |lam|) of an image [al, ar] of a source
    interval [l, r] is clamped onto it; beyond it lam is outside. The clamped
    a within 1e-12 (1 + |a|) of an end of the image gives that interval's end
    (slope nan, v = 0), else a0 is one _a0_solve. |Im lam| > 2 sqrt(t) + band
    tops every height 2v (v_t < sqrt(t)) and needs no inversion either.
    """
    lam = complex(lam)
    a, b = lam.real, abs(lam.imag)
    band = 1e-9 * (1.0 + abs(lam))
    region = lambda_region(mu, t)
    gap, k = min((max(al - a, 0.0, a - ar), k) for k, (al, ar) in enumerate(region.images))
    if gap > band:
        return RegionVerdict("outside", max(b, gap)), None
    top = 2.0 * math.sqrt(t)
    if b > top + band:
        return RegionVerdict("outside", b - top), None
    (l, r), (al, ar) = region.intervals[k], region.images[k]
    a = min(max(a, al), ar)
    snap = 1e-12 * (1.0 + abs(a))
    if a <= al + snap:
        inv = (l, math.nan, 0.0)
    elif a >= ar - snap:
        inv = (r, math.nan, 0.0)
    else:
        inv = _a0_solve(mu, t, a, (l, r), (al, ar))
    margin = b - 2.0 * inv[2]
    tag = "inside" if margin < -band else "boundary" if margin <= band else "outside"
    return RegionVerdict(tag, margin), inv


def _invert(mu, t, a):
    """(a0, slope, v) of _locate at the real point a; OutsideOmegaError
    beyond the band of the region's real section."""
    inv = _locate(mu, t, a)[1]
    if inv is None:
        raise OutsideOmegaError(f"{a} is outside the region's real section")
    return inv


def a0_of_a(mu: MeasureSpec, t: float, a: float) -> float:
    """Unique source abscissa with v_t > 0 and a_t(a0) = a; an interval's end
    for a within the boundary band past an end of its image (see _locate)."""
    return _invert(mu, t, a)[0]


def b_t(mu: MeasureSpec, t: float, a: float) -> float:
    """Height of the region over a; 0 when a + i0 is not in the closed region."""
    inv = _locate(mu, t, a)[1]
    return 0.0 if inv is None else 2.0 * inv[2]


def w_t(mu: MeasureSpec, t: float, a: float) -> float:
    """Density at a + ib for any |b| < b_t(a); requires a strictly inside."""
    slope = _invert(mu, t, a)[1]
    if math.isnan(slope):
        raise OutsideOmegaError(f"{a} is not strictly inside the region's real section")
    return _planar_density(t, slope)


def classify(mu: MeasureSpec, t: float, lam: complex) -> RegionVerdict:
    """Compare |Im lam| against the height over Re lam, clamped onto the
    region's real section, with a boundary band of half-width
    1e-9 (1 + |lam|) (see _locate)."""
    return _locate(mu, t, lam)[0]


def s_outside(mu: MeasureSpec, t: float, lam: complex) -> float:
    """Log-potential outside the closed region:

    s_t(lam) = int log|z0 - x|^2 dmu(x) - t Re[G(z0)^2],  z0 = J_t^{-1}(lam).

    Harmonic there; tested through a 5-point stencil Laplacian.
    """
    if classify(mu, t, lam).tag != "outside":
        raise OutsideOnlyError(f"{lam} is not outside the closed region")
    z0 = j_t_inverse(mu, t, lam)
    lp = log_potential(mu, z0.real, z0.imag * z0.imag)
    g = cauchy(mu, z0)
    return lp - t * (g * g).real


# ----------------------------------------------------------------------------
# profile assembly

#: Chebyshev angles per source interval of the mass integral, at least
MASS_NODES = 512


def _cumulative_mass(h):
    """The integral of h from theta = 0 to each node theta_j = j pi/n, per row
    of h, its samples at the n + 1 nodes. h is the restriction to [0, pi] of an
    even, 2 pi-periodic function, so its cosine series, from the FFT of the
    even extension, integrates term by term: the sines' sum at the nodes is
    one inverse FFT. The series interpolates h at the nodes, its last term
    integrates to 0 at every node, and the total is the trapezoid sum. Where
    h vanishes over a stretch (v_t reads 0 there) the series' rounding would
    dip by 1e-17, so the running maximum keeps the integral of h >= 0
    non-decreasing, as a CDF is."""
    n = h.shape[1] - 1
    coef = np.fft.rfft(np.concatenate((h, h[:, -2:0:-1]), axis=1), axis=1).real
    sines = np.zeros(coef.shape, dtype=complex)
    sines[:, 1:-1] = -1j * coef[:, 1:-1] / np.arange(1, n)
    cdf = np.fft.irfft(sines, 2 * n, axis=1)[:, : n + 1]
    cdf[:, [0, -1]] = 0.0  # where every sin(m theta) vanishes
    return np.maximum.accumulate(cdf + coef[:, :1] * np.linspace(0.0, 0.5 * math.pi / n, n + 1), axis=1)


def lambda_sweep(mu: MeasureSpec, t: float, intervals, images, n: int = MASS_NODES):
    """Sample v_t, a_t and the slope along source intervals at Chebyshev
    angles theta_j = j*pi/n (endpoints carry v = 0 and zero mass weight):
    one array v_t solve over the interior nodes of every interval at once,
    which returns v, a_t and the slope there, and at each interval's two
    ends a_t from images, the intervals' entries of
    lambda_region(mu, t).images. A
    node's iterates are its own, so its values do not depend on the other
    intervals swept with it.

    Each node starts at H sin(theta), with H the interval's half-width less
    its image's, (r - l - (a_t(r) - a_t(l)))/2: where the source region is
    an ellipse, as for a semicircular law, a_t is linear, H is its height
    and every node starts at its root. The region of a point mass is a disc
    with a point for its image, so next to an isolated atom the start is
    close too. Elsewhere it is only near the root; the solve's exit decides
    where each node stops.

    Returns dict of arrays with one row per interval: a0, v, at, slope (nan
    at the ends) and cdf, the planar-law mass from the interval's left end
    of the weight h = half sin(theta) (2/(pi t)) v (1 - slope/2) in theta,
    which is 2 b_t w_t da in the source variable. With v of the order of
    sin(theta) at the square-root ends, h extends to an even, smooth,
    2 pi-periodic function, and the cumulative integral of its cosine
    series converges as fast as the trapezoid rule does for the total.
    """
    ends = np.array(intervals, dtype=float)
    mid, half = 0.5 * (ends[:, :1] + ends[:, 1:]), 0.5 * (ends[:, 1:] - ends[:, :1])
    theta = np.linspace(0.0, np.pi, n + 1)
    a0s = mid - half * np.cos(theta)
    a0s[:, 0], a0s[:, -1] = ends[:, 0], ends[:, 1]
    inner = a0s[:, 1:-1].ravel()
    ims = np.array(images, dtype=float)
    height = half - 0.5 * (ims[:, 1:] - ims[:, :1])
    v, at, slope = _vt_solve_nodes(mu, t, inner, (height * np.sin(theta[1:-1])).ravel())
    v, at, slope = (x.reshape(len(ends), n - 1) for x in (v, at, slope))
    vs, ats, h = np.zeros(a0s.shape), np.empty(a0s.shape), np.zeros(a0s.shape)
    slopes = np.full(a0s.shape, np.nan)
    vs[:, 1:-1], ats[:, 1:-1], slopes[:, 1:-1] = v, at, slope
    ats[:, [0, -1]] = ims
    h[:, 1:-1] = half * np.sin(theta[1:-1]) * ((2.0 / (math.pi * t)) * v * (1.0 - 0.5 * slope))
    return {"a0": a0s, "v": vs, "at": ats, "slope": slopes, "cdf": _cumulative_mass(h)}


def profile(mu: MeasureSpec, t: float, n_grid: int = 1024) -> BrownProfile:
    """Assemble the sampled region from one source sweep of all of its
    intervals, at k (n_grid + 1) Chebyshev angles each, with k the least
    factor that gives at least MASS_NODES of them: every k-th interior node
    gives a row, the grid a_t(a0), the source abscissa a0, the height 2 v_t
    and the density, at the angles j pi/(n_grid + 1). The sweep's cdf, from
    the cosine series of its mass weight, gives the planar mass left of each
    row and of each interval's ends, and is exact at the rows to the
    series' own convergence, as the total is."""
    if n_grid < 16:
        raise ValueError("n_grid must be at least 16")
    region = lambda_region(mu, t)
    k = -(-MASS_NODES // (n_grid + 1))
    sweep = lambda_sweep(mu, t, region.intervals, region.images, k * (n_grid + 1))
    acc = np.concatenate(([0.0], np.cumsum(sweep["cdf"][:, -1])))
    end_cdf = tuple(zip(acc[:-1].tolist(), acc[1:].tolist()))
    sweep["cdf"] += acc[:-1, None]  # from the region's left end
    grid, a0, v, slope, cdf = (sweep[key][:, k:-1:k].ravel() for key in ("at", "a0", "v", "slope", "cdf"))
    halfheight = 2.0 * v
    density = _planar_density(t, slope)
    for arr in (grid, a0, halfheight, density, slope, cdf):
        arr.setflags(write=False)
    flags = ("near_boundary",) + ("ok",) * (n_grid - 2) + ("near_boundary",)
    return BrownProfile(
        t=t,
        grid=grid,
        a0=a0,
        halfheight=halfheight,
        density=density,
        slope=slope,
        cdf=cdf,
        flags=flags * len(end_cdf),
        omega_intervals=region.images,
        lambda_intervals=region.intervals,
        block_edges=tuple(range(0, n_grid * len(end_cdf) + 1, n_grid)),
        end_cdf=end_cdf,
    )
