"""Closed-form characteristic flow of the regularized log-potential and the
solvers built on it.

The flow's Hamiltonian is H = -(p_a^2 - p_b^2)/4 - eps*p_eps^2 with momenta
tied to the initial point by Poisson-type integrals; along a characteristic

    a(t) = a0 - p_a0 t/2,   b(t) = b0 + p_b0 t/2,
    eps(t) = eps0 (1 - p0 t)^2,  p_eps(t) = p0/(1 - p0 t),

the solution blows up at t* = 1/p0 and the value transports as
S(t) = S(0) + t H0. The PDE

    dS/dt = ((dS/da)^2 - (dS/db)^2)/4 + eps (dS/deps)^2

is exercised numerically through finite differences of the flow inversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .brown import _locate
from .errors import NoConvergenceError, PastLifetimeError
from .measure import Bundle, MeasureSpec, log_potential, p0, transforms
from .numerics import _attempt, bracket_newton, damped_newton
from .subordination import j_t_inverse, v_t


@dataclass(frozen=True)
class InitialData:
    """Starting point of a characteristic: lam0 = a0 + i b0 and eps0 > 0
    (eps0 = 0 admitted for lifetime limits)."""

    lam0: complex
    eps0: float

    def __post_init__(self):
        if self.eps0 < 0.0:
            raise ValueError("eps0 must be nonnegative")


@dataclass(frozen=True)
class Momenta:
    """Initial momenta; p_a0 = 2 c1 = 2 a0 p0 - 2 p1 and p_b0 = 2 b0 p0,
    with p1 = a0 p0 - c1 derived from the bundle's p0 and c1 = Re G."""

    p_a0: float
    p_b0: float
    p0: float
    p1: float

    @classmethod
    def from_bundle(cls, out: Bundle, a0: float, b0: float) -> Momenta:
        """The momenta from the kernel bundle at the initial data (a0, b0)."""
        return cls(p_a0=2.0 * out.c1, p_b0=2.0 * b0 * out.p0, p0=out.p0, p1=a0 * out.p0 - out.c1)


@dataclass(frozen=True)
class PathState:
    """Flow state at time t; p_a, p_b and eps*p_eps^2 are conserved."""

    t: float
    lam: complex
    eps: float
    p_a: float
    p_b: float
    p_eps: float


def initial_momenta(mu: MeasureSpec, init: InitialData) -> Momenta:
    """Poisson-type integrals of the law at (lam0, eps0), eps0 > 0."""
    if init.eps0 <= 0.0 and init.lam0.imag == 0.0:
        raise ValueError("initial momenta need b0^2 + eps0 > 0")
    a0, b0 = init.lam0.real, init.lam0.imag
    return Momenta.from_bundle(transforms(mu, a0, b0 * b0 + init.eps0), a0, b0)


def lifetime(mu: MeasureSpec, init: InitialData) -> float:
    """Blow-up time 1/p0; with eps0 = 0 this is the escape-time function whose
    sublevel set {lifetime < t} is the source region (0 on the divergence set)."""
    b0 = init.lam0.imag
    p0v = p0(mu, init.lam0.real, math.sqrt(b0 * b0 + init.eps0))
    if not math.isfinite(p0v) or p0v <= 0.0:
        return 0.0 if not math.isfinite(p0v) else math.inf
    return 1.0 / p0v


def flow(mu: MeasureSpec, init: InitialData, t: float) -> PathState:
    """Closed-form state at time t < 1/p0."""
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    mom = initial_momenta(mu, init)
    if t * mom.p0 >= 1.0:
        raise PastLifetimeError(f"t = {t} is at or beyond the lifetime {1.0 / mom.p0}")
    a0, b0 = init.lam0.real, init.lam0.imag
    a = a0 - 0.5 * mom.p_a0 * t
    b = b0 + 0.5 * mom.p_b0 * t
    decay = 1.0 - mom.p0 * t
    return PathState(
        t=t,
        lam=complex(a, b),
        eps=init.eps0 * decay * decay,
        p_a=mom.p_a0,
        p_b=mom.p_b0,
        p_eps=mom.p0 / decay,
    )


def s_initial(mu: MeasureSpec, lam: complex, eps: float) -> float:
    """Regularized log-energy at time zero: int log(|x - lam|^2 + eps) dmu."""
    lam = complex(lam)
    c = lam.imag * lam.imag + eps
    return log_potential(mu, lam.real, c)


def hamiltonian(mom: Momenta, eps0: float) -> float:
    """H at time 0: -(p_a0^2 - p_b0^2)/4 - eps0 p0^2."""
    return -0.25 * (mom.p_a0 **2 - mom.p_b0 **2) - eps0 * mom.p0 **2


def hj_value(mu: MeasureSpec, init: InitialData, t: float) -> float:
    """Transported value S(t, lam(t), eps(t)) = S(0, lam0, eps0) + t H0."""
    return _transported(mu, init, t, initial_momenta(mu, init))


def _transported(mu, init, t, mom):
    """hj_value from the momenta at init."""
    if t * mom.p0 >= 1.0:
        raise PastLifetimeError(f"t = {t} is at or beyond the lifetime {1.0 / mom.p0}")
    s0 = s_initial(mu, init.lam0, init.eps0)
    return s0 + t * hamiltonian(mom, init.eps0)


# ----------------------------------------------------------------------------
# flow inversion


def _flow_step(t, u, target, out):
    """Flow residual at u = (a0, b0, eps0) and its Newton step from out, the
    bundle at v^2 = b0^2 + eps0, by dp0 = -2 q1 da0 - q0 dv^2 and dpa =
    2 (p0 - 2 q2) da0 - 2 q1 dv^2; None where p0 is not finite, no step where
    eps0 is clamped."""
    a0, b0, eps0 = u
    p0v, q0, q1, q2 = out.p0, out.q0, out.q1, out.q2
    if not math.isfinite(p0v):
        return None
    decay = 1.0 - t * p0v
    r = np.array(
        [
            a0 - t * out.c1 - target[0],
            b0 * (1.0 + t * p0v) - target[1],
            eps0 * decay * decay - target[2],
        ]
    )
    if eps0 <= 1e-300:
        return r, None
    dp0 = np.array([-2.0 * q1, -2.0 * b0 * q0, -q0])
    dpa = np.array([2.0 * (p0v - 2.0 * q2), -4.0 * b0 * q1, -2.0 * q1])
    jac = np.diag([1.0, 1.0 + t * p0v, decay * decay])
    jac[0] -= 0.5 * t * dpa
    jac[1] += t * b0 * dp0
    jac[2] -= 2.0 * t * eps0 * decay * dp0
    return r, np.linalg.solve(jac, r)


def _solve_flow(mu, t, target, start, tol):
    """Damped Newton with the analytic Jacobian on the flow map; keeps eps0 > 0.
    Returns the initial data u and the bundle at u, or None."""
    ev = out = None  # fdf's last evaluation and its bundle, at the point a converged solve returns

    def fdf(u):
        nonlocal ev, out
        u[2] = max(u[2], 1e-300)  # a trial point is a fresh array: clamp in place
        out = transforms(mu, u[0], u[1] * u[1] + u[2])
        ev = _flow_step(t, u, target, out)
        return ev

    u = np.array(start, dtype=float)
    u[2] = max(u[2], 1e-14)
    u = damped_newton(fdf, u, tol)
    if u is None:
        return None
    # the solve stops at the first max|r| <= tol; one more full step, kept
    # where it lowers max|r|, takes the quadratic convergence to rounding level
    (r, du), at_u = ev, out
    if du is None:
        return u, at_u
    un = u - du
    rn = _attempt(fdf, un)
    return (un, out) if rn is not None and np.max(np.abs(rn[0])) < np.max(np.abs(r)) else (u, at_u)


def _admissible(t, out) -> bool:
    """Initial data on the primary sheet, from the bundle there: p0 finite and 1 - t p0 > 0."""
    return math.isfinite(out.p0) and 1.0 - t * out.p0 > 0.0


def _start(mu, t, lam, eps):
    """Initial data (a0, b0, eps0) for the flow inversion at (t, lam, eps).

    As eps -> 0 the preimage of lam tends to U_t^{-1}(lam) in the closed
    support region and to J_t^{-1}(lam) outside it, so a0 is Re of that
    limit; a boundary point's Re lam, up to the band's width past an end of
    the real section, is clamped onto it. Along a characteristic b = b0 (2 - s)
    and eps = eps0 s^2 with s = 1 - t p0(a0, v), v^2 = b0^2 + eps0. With a0
    fixed, these leave one equation in v,

        F(v) = v^2 - b^2/(2 - s)^2 - eps/s^2 = 0,

    solved as s F = 0 (s > 0 on the bracket), which tames F's pole at the
    fold s = 0. On (v_t(a0), inf) s rises from 0 to 1 and F from -inf, and
    F > 0 at v^2 = b^2 + 4 eps + 2 t, where t p0 <= t/v^2 <= 1/2: a bracket
    that needs no evaluation. Its root makes the b and eps equations hold, so
    only the a-equation is left to the flow solve.
    """
    verdict, inv = _locate(mu, t, lam)
    if verdict.tag == "outside":
        a0 = j_t_inverse(mu, t, lam).real
        vt = v_t(mu, t, a0)
    else:
        a0, _, vt = inv
    b = lam.imag
    b2 = b * b
    s = None  # fdf's last s, at the iterate bracket_newton returns

    def fdf(v):
        nonlocal s
        out = transforms(mu, a0, v * v)
        s, ds = 1.0 - t * out.p0, 2.0 * t * v * out.q0
        if s <= 0.0:
            return -math.inf, math.inf  # below v_t: its solve may stop short of the root
        f = v * v - b2 / (2.0 - s) ** 2 - eps / (s * s)
        df = 2.0 * v - 2.0 * b2 * ds / (2.0 - s) ** 3 + 2.0 * eps * ds / s**3
        dsf = ds * f + s * df
        return s * f, s * f / dsf if dsf != 0.0 else math.inf

    lo, hi = vt, math.sqrt(b2 + 4.0 * eps + 2.0 * t)
    bracket_newton(fdf, lo, hi, 0.5 * (lo + hi), 1e-15 * hi * hi, 1e-14 * (1.0 + lo + hi))
    return a0, b / (2.0 - s), eps / (s * s)


def s_of(mu: MeasureSpec, t: float, lam: complex, eps: float) -> float:
    """Value of the regularized log-energy at prescribed (t, lam, eps), eps > 0,
    by inverting the flow map for admissible initial data.

    One damped Newton solve from the start built from the paper's inverse
    maps (see _start). Solutions with 1 - t p0 <= 0 belong to the mirror
    sheet of the square-root regularized extension: a solve that ends there,
    or fails, raises NoConvergenceError.
    """
    if eps <= 0.0:
        raise ValueError("s_of requires eps > 0")
    lam = complex(lam)
    target = (lam.real, lam.imag, eps)
    solved = _solve_flow(mu, t, target, _start(mu, t, lam, eps), 1e-10 * (1.0 + abs(lam) + eps))
    if solved is None or not _admissible(t, solved[1]):
        raise NoConvergenceError(f"flow inversion failed at (t={t}, lam={lam}, eps={eps})")
    (a0, b0, eps0), out = solved
    init = InitialData(lam0=complex(a0, b0), eps0=float(eps0))
    return _transported(mu, init, t, Momenta.from_bundle(out, a0, b0))


def pde_residual(mu: MeasureSpec, t: float, lam: complex, eps: float) -> float:
    """|dS/dt - ((dS/da)^2 - (dS/db)^2)/4 - eps (dS/deps)^2| by central
    differences of the flow inversion; steps scale with the point, and the
    t-step stays below t/2 so that t - ht stays positive."""
    lam = complex(lam)
    ha = hb = 1e-4 * (1.0 + abs(lam))
    ht = min(1e-4 * (1.0 + t), 0.5 * t)
    he = 1e-4 * eps

    def val(tt, a, b, e):
        return s_of(mu, tt, complex(a, b), e)

    a, b = lam.real, lam.imag
    ds_dt = (val(t + ht, a, b, eps) - val(t - ht, a, b, eps)) / (2.0 * ht)
    ds_da = (val(t, a + ha, b, eps) - val(t, a - ha, b, eps)) / (2.0 * ha)
    ds_db = (val(t, a, b + hb, eps) - val(t, a, b - hb, eps)) / (2.0 * hb)
    ds_de = (val(t, a, b, eps + he) - val(t, a, b, eps - he)) / (2.0 * he)
    return abs(ds_dt - 0.25 * (ds_da * ds_da - ds_db * ds_db) - eps * ds_de * ds_de)
