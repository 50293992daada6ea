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

from .errors import (
    NUMERIC_FAILURES,
    AmbiguousBranchError,
    NoConvergenceError,
    PastLifetimeError,
)
from .measure import MeasureSpec, log_potential, p0, p0_zero, transforms
from .numerics import damped_newton
from .subordination import j_t_inverse


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
    """Initial momenta; p_b0 = 2 b0 p0 and p_a0 = 2 a0 p0 - 2 p1 hold."""

    p_a0: float
    p_b0: float
    p0: float
    p1: float


@dataclass(frozen=True)
class PathState:
    """Flow state at time t; p_a, p_b and eps*p_eps^2 are conserved."""

    t: float
    lam: complex
    eps: float
    p_a: float
    p_b: float
    p_eps: float


def _momenta_values(mu, a0, b0, eps0):
    v2 = b0 * b0 + eps0
    if v2 <= 0.0 and not math.isfinite(p0_zero(mu, a0)):
        return math.inf, math.nan, math.nan, math.nan
    # b0 = 0 and eps0 = 0 off the divergence set: the finite limits at v^2 = 1e-300
    out = transforms(mu, a0, v2 if v2 > 0.0 else 1e-300)
    return out.p0, out.p1, 2.0 * out.c1, 2.0 * b0 * out.p0


def initial_momenta(mu: MeasureSpec, init: InitialData) -> Momenta:
    """Poisson-type integrals of the law at (lam0, eps0), eps0 > 0."""
    if init.eps0 <= 0.0 and init.lam0.imag == 0.0:
        raise ValueError("initial momenta need b0^2 + eps0 > 0")
    a0, b0 = init.lam0.real, init.lam0.imag
    p0v, p1v, pav, pbv = _momenta_values(mu, a0, b0, init.eps0)
    return Momenta(p_a0=pav, p_b0=pbv, p0=p0v, p1=p1v)


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
    mom = initial_momenta(mu, init)
    if t * mom.p0 >= 1.0:
        raise PastLifetimeError(f"t = {t} is at or beyond the lifetime {1.0 / mom.p0}")
    s0 = s_initial(mu, init.lam0, init.eps0)
    return s0 + t * hamiltonian(mom, init.eps0)


# ----------------------------------------------------------------------------
# flow inversion


def _flow_residual(mu, t, u, target):
    a0, b0, eps0 = u
    p0v, _, pav, _ = _momenta_values(mu, a0, b0, eps0)
    if not math.isfinite(p0v):
        return None
    decay = 1.0 - p0v * t
    return np.array(
        [
            a0 - 0.5 * t * pav - target[0],
            b0 * (1.0 + t * p0v) - target[1],
            eps0 * decay * decay - target[2],
        ]
    )


def _flow_jacobian(mu, t, u):
    """Jacobian of _flow_residual in (a0, b0, eps0) from one bundle at v^2 = b0^2 + eps0,
    by dp0 = -2 q1 da0 - q0 dv^2 and dpa = 2 (p0 - 2 q2) da0 - 2 q1 dv^2."""
    a0, b0, eps0 = u
    out = transforms(mu, a0, b0 * b0 + eps0)
    p0v, q0, q1, q2 = out.p0, out.q0, out.q1, out.q2
    decay = 1.0 - t * p0v
    dp0 = np.array([-2.0 * q1, -2.0 * b0 * q0, -q0])
    dpa = np.array([2.0 * (p0v - 2.0 * q2), -4.0 * b0 * q1, -2.0 * q1])
    jac = np.diag([1.0, 1.0 + t * p0v, decay * decay])
    jac[0] -= 0.5 * t * dpa
    jac[1] += t * b0 * dp0
    jac[2] -= 2.0 * t * eps0 * decay * dp0
    return jac


def _solve_flow(mu, t, target, start, tol):
    """Damped Newton with the analytic Jacobian on the flow map; keeps eps0 > 0."""

    def residual(u):
        u[2] = max(u[2], 1e-300)  # a trial point is a fresh array: clamp in place
        return _flow_residual(mu, t, u, target)

    def step(u, fu):
        if u[2] <= 1e-300:
            return None  # the clamp caught a step out of eps0 > 0: give up
        try:
            return np.linalg.solve(_flow_jacobian(mu, t, u), fu)
        except np.linalg.LinAlgError:
            return None

    u = np.array(start, dtype=float)
    u[2] = max(u[2], 1e-14)
    u = damped_newton(residual, step, u, tol, max_iter=100, halvings=45)
    if u is None:
        return None
    # the solve stops at the first max|r| <= tol; one more full step, kept
    # where it lowers max|r|, takes the quadratic convergence to rounding level
    r = residual(u)
    du = step(u, r)
    un = u if du is None else u - du
    return un if np.max(np.abs(residual(un))) < np.max(np.abs(r)) else u


def _admissible(mu, t, u) -> bool:
    """Initial data u on the primary sheet: p0 finite and 1 - t p0 > 0."""
    p0v = _momenta_values(mu, u[0], u[1], u[2])[0]
    return math.isfinite(p0v) and 1.0 - t * p0v > 0.0


def _flow_solutions(mu, t, target, starts, tol):
    """The admissible solutions of the flow map from each start in turn."""
    for start in starts:
        u = _solve_flow(mu, t, target, start, tol)
        if u is not None and _admissible(mu, t, u):
            yield u


def s_of(mu: MeasureSpec, t: float, lam: complex, eps: float) -> float:
    """Value of the regularized log-energy at prescribed (t, lam, eps), eps > 0,
    by inverting the flow map for admissible initial data.

    Solutions with 1 - t p0 <= 0 belong to the mirror sheet of the square-root
    regularized extension and are rejected; outside the support region with
    small eps, the inversion warm-starts from the holomorphic route.
    """
    if eps <= 0.0:
        raise ValueError("s_of requires eps > 0")
    lam = complex(lam)
    target = (lam.real, lam.imag, eps)
    tol = 1e-10 * (1.0 + abs(lam) + eps)

    starts = [(lam.real, lam.imag, eps)]
    try:
        z0 = j_t_inverse(mu, t, lam, tol=1e-9 * (1.0 + abs(lam)))
        p0v = _momenta_values(mu, z0.real, z0.imag, 0.0)[0]
        if math.isfinite(p0v) and t * p0v < 1.0:
            starts.append((z0.real, z0.imag, eps / (1.0 - t * p0v) ** 2))
    except NUMERIC_FAILURES:
        pass
    starts += [(lam.real, lam.imag, k * eps) for k in (4.0, 16.0, 64.0)]

    # the primary solution; later starts run only while none has converged
    found = next(_flow_solutions(mu, t, target, starts, tol), None)
    if found is None:
        # continuation in eps from an easier regularization level
        u = None
        eps_hi = max(1.0, 4.0 * eps)
        path = [eps_hi * (eps / eps_hi) ** (k / 10.0) for k in range(11)]
        guess = (lam.real, lam.imag, eps_hi)
        for e in path:
            u = _solve_flow(mu, t, (lam.real, lam.imag, e), guess, 1e-10 * (1.0 + abs(lam) + e))
            if u is None:
                break
            guess = tuple(u)
        if u is not None and _admissible(mu, t, u):
            found = u
    if found is None:
        raise NoConvergenceError(f"flow inversion failed at (t={t}, lam={lam}, eps={eps})")
    init = InitialData(lam0=complex(found[0], found[1]), eps0=float(found[2]))
    return hj_value(mu, init, t)


def s_of_all_branches(mu: MeasureSpec, t: float, lam: complex, eps: float) -> float:
    """Like s_of but runs every start and raises AmbiguousBranch when distinct
    admissible preimages disagree in value."""
    lam = complex(lam)
    target = (lam.real, lam.imag, eps)
    tol = 1e-10 * (1.0 + abs(lam) + eps)
    starts = [(lam.real, lam.imag, k * eps) for k in (1.0, 4.0, 16.0)]
    sols = []
    for u in _flow_solutions(mu, t, target, starts, tol):
        if not any(np.max(np.abs(u - s)) <= 1e-6 * (1.0 + np.max(np.abs(u))) for s in sols):
            sols.append(u)
    if not sols:
        raise NoConvergenceError(f"flow inversion failed at (t={t}, lam={lam}, eps={eps})")
    values = [
        hj_value(mu, InitialData(lam0=complex(u[0], u[1]), eps0=float(u[2])), t) for u in sols
    ]
    if len(sols) > 1 and max(values) - min(values) > 1e-8 * (1.0 + abs(values[0])):
        raise AmbiguousBranchError(
            f"{len(sols)} distinct preimages with values {values} at (t={t}, lam={lam}, eps={eps})"
        )
    return values[0]


def pde_residual(mu: MeasureSpec, t: float, lam: complex, eps: float) -> float:
    """|dS/dt - ((dS/da)^2 - (dS/db)^2)/4 - eps (dS/deps)^2| by central
    differences of the flow inversion; steps scale with the point."""
    lam = complex(lam)
    ha = hb = 1e-4 * (1.0 + abs(lam))
    ht = 1e-4 * (1.0 + t)
    he = 1e-4 * eps

    def val(tt, a, b, e):
        return s_of(mu, tt, complex(a, b), e)

    a, b = lam.real, lam.imag
    ds_dt = (val(t + ht, a, b, eps) - val(t - ht, a, b, eps)) / (2.0 * ht)
    ds_da = (val(t, a + ha, b, eps) - val(t, a - ha, b, eps)) / (2.0 * ha)
    ds_db = (val(t, a, b + hb, eps) - val(t, a, b - hb, eps)) / (2.0 * hb)
    ds_de = (val(t, a, b, eps + he) - val(t, a, b, eps - he)) / (2.0 * he)
    return abs(ds_dt - 0.25 * (ds_da * ds_da - ds_db * ds_db) - eps * ds_de * ds_de)
