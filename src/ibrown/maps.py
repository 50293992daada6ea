"""Pushforward structure tying the three models together.

U_t carries the source region onto the planar support region, scaling
vertical segments by two; Q_t collapses vertical segments of the support
region to points of the real line; the density rho_t on the source region
is the planar law of the two-sided (rotation-invariant) perturbation, and
its Q_t-image is the law of the self-adjoint perturbation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from io import StringIO

import numpy as np

from .brown import _a0_solve, _intervals, a0_of_a, classify, lambda_sweep
from .errors import OutsideLambdaError, OutsideOmegaError
from .measure import MeasureSpec
from .numerics import integrate_adaptive
from .subordination import a_t, at_with_slope, v_t

#: cuts of each region interval along Re, giving the rectangles of pushforward_check
N_RECT = 4


def u_t(mu: MeasureSpec, t: float, lam0: complex) -> complex:
    """a_t(a0) + 2i b0 for a0 + i b0 in the closed source region."""
    lam0 = complex(lam0)
    a0, b0 = lam0.real, lam0.imag
    tol = 1e-9 * (1.0 + abs(lam0))
    v = v_t(mu, t, a0)
    if abs(b0) > v + tol:
        raise OutsideLambdaError(f"{lam0} is outside the closed source region")
    return complex(a_t(mu, t, a0, v_hint=v), 2.0 * b0)


def u_t_inverse(mu: MeasureSpec, t: float, lam: complex) -> complex:
    """a0(Re lam) + i Im(lam)/2 for lam in the closed support region."""
    lam = complex(lam)
    if classify(mu, t, lam).tag == "outside":
        raise OutsideOmegaError(f"{lam} is outside the closed region")
    return complex(a0_of_a(mu, t, lam.real), 0.5 * lam.imag)


def q_t(mu: MeasureSpec, t: float, lam: complex) -> float:
    """2 a0(Re lam) - Re lam; constant along vertical segments."""
    lam = complex(lam)
    if classify(mu, t, lam).tag == "outside":
        raise OutsideOmegaError(f"{lam} is outside the closed region")
    return 2.0 * a0_of_a(mu, t, lam.real) - lam.real


def circular_density(mu: MeasureSpec, t: float, lam0: complex) -> float:
    """Planar density of the rotation-invariant model at an interior source point:
    (1/(pi t)) (1 - (da_t/da0)/2), constant in Im."""
    lam0 = complex(lam0)
    a0, b0 = lam0.real, lam0.imag
    try:
        _, slope, v = at_with_slope(mu, t, a0)
    except OutsideLambdaError:
        v = 0.0
    tol = 1e-9 * (1.0 + abs(lam0))
    if v <= 0.0 or abs(b0) >= v - tol:
        raise OutsideLambdaError(f"{lam0} is not strictly inside the source region")
    return (1.0 / (math.pi * t)) * (1.0 - 0.5 * slope)


@dataclass(frozen=True)
class AdditiveLaw:
    """Parametric density of the self-adjoint perturbation's law.

    Sampled along the source sweep: u ascending, f = density, cdf cumulative;
    a holds the matching support-region abscissas so the same cdf doubles as
    the marginal CDF of Re under the planar law.
    """

    t: float
    u: np.ndarray
    f: np.ndarray
    a: np.ndarray
    cdf: np.ndarray

    def cdf_at_u(self, x) -> np.ndarray:
        return np.interp(np.asarray(x, dtype=float), self.u, self.cdf, left=0.0, right=1.0)

    def cdf_at_a(self, x) -> np.ndarray:
        return np.interp(np.asarray(x, dtype=float), self.a, self.cdf, left=0.0, right=1.0)

    def to_csv(self) -> str:
        buf = StringIO()
        buf.write("u,f\n")
        for i in range(self.u.size):
            buf.write("%.17g,%.17g\n" % (self.u[i], self.f[i]))
        return buf.getvalue()


def law_additive(mu: MeasureSpec, t: float, n_grid: int = 1024) -> AdditiveLaw:
    """Q_t-pushforward of the planar law: pairs (u, f) with u = 2 a0 - a_t(a0)
    and f = b_t/(2 pi t) = v_t/(pi t), plus the cumulative mass.

    u equals the boundary value of the conjugate map H_t, strictly increasing
    across the whole sweep, so the arrays are globally sorted.
    """
    _, region = _intervals(mu, t)
    us, fs, aas, cdfs = [], [], [], []
    acc = 0.0
    for interval in region.intervals:
        sw = lambda_sweep(mu, t, interval, n_grid)
        cdf = acc + sw["cdf"]
        acc = cdf[-1]
        us.append(2.0 * sw["a0"] - sw["at"])
        fs.append(sw["v"] / (math.pi * t))
        aas.append(sw["at"])
        cdfs.append(cdf)
    u = np.concatenate(us)
    out = AdditiveLaw(
        t=t,
        u=u,
        f=np.concatenate(fs),
        a=np.concatenate(aas),
        cdf=np.concatenate(cdfs),
    )
    for arr in (out.u, out.f, out.a, out.cdf):
        arr.setflags(write=False)
    return out


def sample_planar(mu: MeasureSpec, t: float, n: int, seed: int = 0) -> np.ndarray:
    """Draw n points from the planar law using its product structure: the real
    part comes from the vertical marginal 2 b_t w_t by inverse CDF on the
    sweep grid, the imaginary part is uniform on (-b_t(a), b_t(a))."""
    law = law_additive(mu, t)
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, law.cdf[-1], n)
    a = np.interp(u, law.cdf, law.a)
    heights = 2.0 * math.pi * t * np.interp(a, law.a, law.f)  # b_t = 2 pi t f
    b = rng.uniform(-1.0, 1.0, n) * heights
    return a + 1j * b


@dataclass(frozen=True)
class PushforwardReport:
    """Rectangle-mass comparison between the two routes to the planar law."""

    max_discrepancy: float
    rectangles: tuple[tuple[float, float, float, float], ...]
    source_masses: tuple[float, ...]
    target_masses: tuple[float, ...]


def _edge_ladder(lo: float, hi: float, edges: tuple[float, float]) -> list[float]:
    """Breakpoints of [lo, hi] with geometric refinement toward touching
    square-root edges of the enclosing interval."""
    pts = {lo, hi}
    span = edges[1] - edges[0]
    for edge in edges:
        if abs(lo - edge) <= 1e-12 * (1.0 + abs(edge)) or abs(hi - edge) <= 1e-12 * (
            1.0 + abs(edge)
        ):
            r = span * 1e-10
            while r < span:
                for p in (edge - r, edge + r):
                    if lo < p < hi:
                        pts.add(p)
                r *= 8.0
    return sorted(pts)


def _v_crossings(mu, t, sweep, levels):
    """Source abscissas where v_t crosses the given positive levels, each
    bracketed by neighbouring sweep nodes and then bisected."""
    a0s, vs = sweep["a0"], sweep["v"]
    hits = []
    for level in levels:
        if level <= 0.0:
            continue
        d = vs - level
        for i in range(d.size - 1):
            if d[i] == 0.0 or (d[i] > 0.0) == (d[i + 1] > 0.0):
                continue
            xa, xb, fa = a0s[i], a0s[i + 1], d[i]
            for _ in range(60):
                xm = 0.5 * (xa + xb)
                fm = v_t(mu, t, xm) - level
                if (fm > 0.0) == (fa > 0.0):
                    xa, fa = xm, fm
                else:
                    xb = xm
            hits.append(0.5 * (xa + xb))
    return hits


def _rect_mass(point, interval, x_lo, x_hi, b_lo, b_hi, kinks):
    """Mass over {x in [x_lo, x_hi] within interval} x {b in [b_lo, b_hi]} of a
    density constant on vertical segments: point(x, state) gives (density,
    half-height) at x, and keeps in state what seeds its next call."""
    lo, hi = max(interval[0], x_lo), min(interval[1], x_hi)
    if hi <= lo:
        return 0.0
    state: dict = {}

    def f(xs):
        out = np.zeros_like(xs)
        for i, x in enumerate(xs):
            try:
                density, height = point(x, state)
            except OutsideLambdaError:
                continue  # height 0 at the interval edge
            seg = min(b_hi, height) - max(b_lo, -height)
            if seg > 0.0:
                out[i] = density * seg
        return out

    breaks = sorted(set(_edge_ladder(lo, hi, interval)) | {k for k in kinks if lo < k < hi})
    return integrate_adaptive(f, breaks)


def _forward(mu, t, a0, state):
    """(rho_t, v_t) at a0 on the source side, v_t hinted by the call before."""
    _, slope, v = at_with_slope(mu, t, a0, v_hint=state.get("v"))
    state["v"] = v
    return (1.0 / (math.pi * t)) * (1.0 - 0.5 * slope), v


def _inverse(mu, t, lam_iv, omega_iv, a, state):
    """(w_t, b_t) at a on the target side, a0(a) seeded by the call before."""
    _, slope, v = _a0_solve(mu, t, a, lam_iv, omega_iv, state)
    return (1.0 / (2.0 * math.pi * t)) * (1.0 / slope - 0.5), 2.0 * v


def pushforward_check(mu: MeasureSpec, t: float) -> PushforwardReport:
    """Verify that U_t pushes the source-region law onto the planar law.

    For a family of axis-aligned rectangles R, the mass of rho_t over
    U_t^{-1}(R) must match the planar mass over R; U_t^{-1} maps
    [a1,a2]x[b1,b2] to [a0(a1),a0(a2)]x[b1/2,b2/2] on each interval.
    Integrands are pre-split at the clip heights (where the rectangle top
    crosses the boundary graph) and at the square-root edges.
    """
    omega, region = _intervals(mu, t)
    rects, src, tgt = [], [], []
    for omega_iv, lam_iv in zip(omega, region.intervals):
        al, ar = omega_iv
        sweep = lambda_sweep(mu, t, lam_iv, 64)
        forward, inverse = partial(_forward, mu, t), partial(_inverse, mu, t, lam_iv, omega_iv)
        bmax = 2.0 * float(sweep["v"].max())
        cuts = np.linspace(al, ar, N_RECT + 1)
        bands = [(-2.0 * bmax, 2.0 * bmax), (0.0, 0.45 * bmax), (-0.45 * bmax, 0.0)]
        for b_lo, b_hi in bands:
            level = 0.5 * max(abs(b_lo), abs(b_hi))
            kinks_a0 = [] if level >= 0.5 * bmax else _v_crossings(mu, t, sweep, [level])
            kinks_a = [at_with_slope(mu, t, k)[0] for k in kinks_a0]
            for i in range(N_RECT):
                a_lo, a_hi = float(cuts[i]), float(cuts[i + 1])
                a0_lo = a0_of_a(mu, t, min(max(a_lo, al), ar))
                a0_hi = a0_of_a(mu, t, min(max(a_hi, al), ar))
                rects.append((a_lo, a_hi, b_lo, b_hi))
                src.append(_rect_mass(forward, lam_iv, a0_lo, a0_hi, 0.5 * b_lo, 0.5 * b_hi, kinks_a0))
                tgt.append(_rect_mass(inverse, omega_iv, a_lo, a_hi, b_lo, b_hi, kinks_a))
    disc = max(abs(s - g) for s, g in zip(src, tgt)) if rects else 0.0
    return PushforwardReport(
        max_discrepancy=disc,
        rectangles=tuple(rects),
        source_masses=tuple(src),
        target_masses=tuple(tgt),
    )
