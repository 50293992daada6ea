"""Independent cross-check solver via the conjugate fixed-point equation.

Solves g = G(a + t*conj(g)) for complex g with Im g != 0; the real part
recovers the boundary inversion, Re g = (a0(a) - a)/t, and the planar density
follows from

    rho_t(a) = (1/(4 pi)) (1/t + 2 d(Re g)/da),

giving a second, fixed-point route to the same density as the subordination
pipeline. d(Re g)/da is the implicit derivative of g - G(a + t*conj(g)) = 0,
so the density needs one solve per point and no step in a. The boundary of
the support region is located by the sign of (b/(2t))^2 - (Im g)^2.
"""

from __future__ import annotations

import math

from .brown import _invert
from .errors import DegenerateJacobianError, NoConvergenceError, OutsideOmegaError
from .measure import MeasureSpec, _cauchy_pair, p0
from .numerics import damped_newton


def _fixed_point_jacobian_solve(t: float, gp: complex, rhs: complex) -> complex | None:
    """Solve J d = rhs for the real 2x2 Jacobian of F(g) = g - G(a + t*conj(g))
    in (Re g, Im g), with G' = gp at the current point; None when J is singular."""
    # columns of the real Jacobian as complex numbers
    col_re = 1.0 - t * gp
    col_im = 1j * (1.0 + t * gp)
    det = col_re.real * col_im.imag - col_im.real * col_re.imag
    if det == 0.0:
        return None
    d_re = (rhs.real * col_im.imag - col_im.real * rhs.imag) / det
    d_im = (col_re.real * rhs.imag - rhs.real * col_re.imag) / det
    return complex(d_re, d_im)


def _fixed_point_newton(mu, t, a, g0, tol):
    """Damped Newton on F(g) = g - G(a + t*conj(g)) as a 2-real-variable
    system: (g, G'(a + t*conj(g))), G' from the solve's last evaluation, the
    one at g; None where the solve fails."""
    gp = None  # at the last iterate evaluated

    def fdf(g):
        nonlocal gp
        z = a + t * g.conjugate()
        gz, gp = _cauchy_pair(mu, z)
        r = g - gz
        return r, _fixed_point_jacobian_solve(t, gp, r)

    g = damped_newton(fdf, complex(g0), tol)
    return None if g is None else (g, gp)


def _solve_g(mu: MeasureSpec, t: float, a: float) -> tuple[complex, complex]:
    """solve_g's g with Im g > 0, and G'(a + t*conj(g)) from its solve."""
    try:
        a0, slope, v = _invert(mu, t, a)
    except OutsideOmegaError as exc:
        raise NoConvergenceError(f"no complex fixed point at a = {a}: {exc}") from exc
    if math.isnan(slope):
        # the fixed-point equation is degenerate there: a solve would only
        # return its seed
        raise NoConvergenceError(f"no complex fixed point at a = {a}, an end of the region's real section")
    g0 = complex((a0 - a) / t, max(v, 1e-8) / t)
    solved = _fixed_point_newton(mu, t, a, g0, 1e-12 * (1.0 + abs(a)))
    if solved is None or abs(solved[0].imag) <= 1e-12:
        raise NoConvergenceError(
            f"no complex fixed point at a = {a}; the point lies outside the planar support"
        )
    g, gp = solved
    # G(conj z) = conj G(z): the conjugate root is the conjugate point's
    return (g, gp) if g.imag > 0.0 else (g.conjugate(), gp.conjugate())


def solve_g(mu: MeasureSpec, t: float, a: float) -> complex:
    """Complex solution of g = G(a + t*conj(g)) with Im g > 0.

    Seeded from the subordination pipeline, g0 = (a0(a) - a + i v_t)/t;
    raises NoConvergenceError when a lies outside the region's real section,
    at an end of it (or within the locator's band past one), where the height
    is 0, or when the solve collapses to the real line: each signals a point
    outside the support of the planar law.
    """
    return _solve_g(mu, t, a)[0]


def jn_density(mu: MeasureSpec, t: float, a: float) -> float:
    """Density (1/(4 pi)) (1/t + 2 d(Re g)/da) at the solved fixed point.

    With F(g, a) = g - G(a + t*conj(g)), dF/da = -G'(z), so dg/da solves
    J dg = G'(z) with the Newton Jacobian J of the fixed-point solve, and
    G'(z) is the one its last evaluation took.
    """
    return _density(t, a, _solve_g(mu, t, a)[1])


def _density(t: float, a: float, gp: complex) -> float:
    """jn_density from G'(z) at the solved fixed point."""
    dg = _fixed_point_jacobian_solve(t, gp, gp)
    if dg is None:
        raise DegenerateJacobianError(f"singular fixed-point Jacobian at a = {a}")
    return (1.0 / (4.0 * math.pi)) * (1.0 / t + 2.0 * dg.real)


def poisson_identity_residual(mu: MeasureSpec, t: float, a: float) -> float:
    """|p0(a + t Re g, t Im g) - 1/t| for the solved fixed point."""
    return _poisson_residual(mu, t, a, solve_g(mu, t, a))


def _poisson_residual(mu: MeasureSpec, t: float, a: float, g: complex) -> float:
    return abs(p0(mu, a + t * g.real, t * abs(g.imag)) - 1.0 / t)
