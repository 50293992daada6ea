"""Shared numerical kernels: adaptive Gauss-Legendre panels, bracketed root
solves and damped Newton.

The integrator takes a scalar integrand evaluated on a node array and runs
to fixed tolerances. Its callers are the rectangle masses of the pushforward
check, as no kernel integral of a law needs quadrature.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import NoConvergenceError

_GL_LO_N = 12
_GL_HI_N = 25

_gl_lo = leggauss(_GL_LO_N)
_gl_hi = leggauss(_GL_HI_N)
_NODES = np.concatenate((_gl_lo[0], _gl_hi[0]))
_W_LO = _gl_lo[1]
_W_HI = _gl_hi[1]

#: absolute and relative tolerance and bisection depth cap of integrate_adaptive
QUAD_ATOL = 1e-9
QUAD_RTOL = 1e-9
QUAD_MAX_DEPTH = 26


def _panel_estimates(f, lo: float, hi: float) -> tuple[float, float]:
    """Low- and high-order Gauss-Legendre estimates on one panel, one call to f."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    y = f(mid + half * _NODES)
    i_lo = half * float(y[:_GL_LO_N] @ _W_LO)
    i_hi = half * float(y[_GL_LO_N:] @ _W_HI)
    return i_hi, abs(i_hi - i_lo)


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray], breakpoints: Sequence[float]
) -> float:
    """Integrate f, which maps a node array to its values there, over
    [breakpoints[0], breakpoints[-1]].

    Panels start at the ascending `breakpoints`, the known difficult points,
    and are bisected, at most QUAD_MAX_DEPTH times, until the embedded error
    estimate meets its share of ``QUAD_ATOL + QUAD_RTOL*|I|``.
    """
    pts = [float(b) for b in breakpoints]
    panels = [(lo, hi) for lo, hi in zip(pts[:-1], pts[1:]) if hi > lo]
    if not panels:
        raise ValueError("empty integration range")
    first = [(lo, hi, *_panel_estimates(f, lo, hi)) for lo, hi in panels]
    tol_global = QUAD_ATOL + QUAD_RTOL * abs(sum(val for _, _, val, _ in first))

    total = 0.0
    # each initial panel gets an equal tolerance share, halved on every split;
    # the rounding floor keeps noise-dominated panels from splitting forever
    budget = 4000
    stack = [(lo, hi, tol_global / len(first), 0, val, err) for lo, hi, val, err in first]
    while stack:
        lo, hi, tol, depth, val, err = stack.pop()
        mid = 0.5 * (lo + hi)
        if (
            depth >= QUAD_MAX_DEPTH
            or budget <= 0
            or mid <= lo
            or mid >= hi
            or err <= tol + 5e-16 * abs(val) + 1e-300
        ):
            total += val
            continue
        budget -= 2
        for a, b in ((lo, mid), (mid, hi)):
            v, e = _panel_estimates(f, a, b)
            stack.append((a, b, tol * 0.5, depth + 1, v, e))
    return total


def bracket_newton(
    func: Callable[[float], tuple[float, float | None]],
    lo: float,
    hi: float,
    flo: float | None = None,
    fhi: float | None = None,
    x0: float | None = None,
    xtol: float = 1e-14,
    ftol: float = 0.0,
    max_iter: int = 240,
) -> float:
    """Find a root on a sign-change bracket, taking Newton steps when safe.

    ``func(x)`` returns ``(f, df)``; ``df`` may be None to force bisection.
    [lo, hi] must satisfy sign(f(lo)) != sign(f(hi)); zero endpoints are
    returned directly.
    """
    if flo is None:
        flo = func(lo)[0]
    if flo == 0.0:
        return lo
    if fhi is None:
        fhi = func(hi)[0]
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise NoConvergenceError(f"root not bracketed on [{lo}, {hi}]")

    x = x0 if (x0 is not None and lo < x0 < hi) else 0.5 * (lo + hi)
    for _ in range(max_iter):
        f, df = func(x)
        if f == 0.0 or (ftol > 0.0 and abs(f) <= ftol):
            return x
        if (f > 0.0) == (flo > 0.0):
            lo, flo = x, f
        else:
            hi, fhi = x, f
        if hi - lo <= xtol * (1.0 + abs(lo) + abs(hi)):
            return 0.5 * (lo + hi)
        step_ok = False
        if df is not None and df != 0.0 and math.isfinite(df):
            xn = x - f / df
            if lo < xn < hi:
                x = xn
                step_ok = True
        if not step_ok:
            x = 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


def _max_abs(r) -> float:
    a = abs(r)
    return float(a.max()) if isinstance(a, np.ndarray) else a


def damped_newton(residual, newton_step, x0, tol: float, max_iter: int, halvings: int):
    """Newton iteration with step halving until the residual norm max|r| drops.

    ``residual(x)`` returns r (a complex scalar or an array), or None where x
    is inadmissible; ``newton_step(x, r)`` returns the full step, subtracted
    from x, or None. Returns the first x with max|r| <= tol, or None when the
    residual is None at x0, a step is None, no halving lowers the norm or
    max_iter steps do not reach tol.
    """
    r = residual(x0)
    if r is None:
        return None
    x, norm = x0, _max_abs(r)
    for _ in range(max_iter):
        if norm <= tol:
            return x
        step = newton_step(x, r)
        if step is None:
            return None
        factor = 1.0
        for _ in range(halvings):
            xn = x - factor * step
            rn = residual(xn)
            if rn is not None:
                nn = _max_abs(rn)
                if nn < norm:
                    x, r, norm = xn, rn, nn
                    break
            factor *= 0.5
        else:
            return None
    return x if norm <= tol else None


def poly_eval(coeffs: Sequence[float], x):
    """Evaluate a polynomial given ascending-degree coefficients (Horner)."""
    if np.ndim(x):
        acc = np.zeros_like(np.asarray(x, dtype=float))
    else:
        acc = 0.0
    for c in reversed(tuple(coeffs)):
        acc = acc * x + c
    return acc


def poly_shift(coeffs: Sequence[float], c: float) -> list[float]:
    """Rewrite p(x) = sum a_k x^k as sum b_k (x-c)^k (repeated synthetic division)."""
    work = list(map(float, coeffs))
    out = []
    for _ in range(len(work)):
        rem = 0.0
        for i in range(len(work) - 1, -1, -1):
            rem = work[i] + c * rem
            work[i] = rem
        out.append(work.pop(0))
    return out


def poly_antiderivative(coeffs: Sequence[float]) -> list[float]:
    return [0.0] + [c / (k + 1) for k, c in enumerate(coeffs)]


def poly_definite(coeffs: Sequence[float], lo: float, hi: float) -> float:
    anti = poly_antiderivative(coeffs)
    return float(poly_eval(anti, hi) - poly_eval(anti, lo))
