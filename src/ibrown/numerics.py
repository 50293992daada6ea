"""Shared numerical kernels: bracketed root solves, damped Newton and
polynomial helpers.

The module holds no quadrature: no kernel integral of a law needs one, and
the pushforward check's rectangle masses take fixed rules of their own.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import NoConvergenceError


#: evaluations of bracket_newton before it returns its bracket's midpoint
_BRACKET_ITERS = 240


def bracket_newton(
    func: Callable[[float], tuple[float, float | None]],
    lo: float,
    hi: float,
    flo: float | None = None,
    fhi: float | None = None,
    x0: float | None = None,
    xtol: float = 1e-14,
    ftol: float = 0.0,
) -> float:
    """Find a root on a sign-change bracket, taking Newton steps when safe.

    ``func(x)`` returns ``(f, df)``; ``df`` may be None to force bisection.
    [lo, hi] must satisfy sign(f(lo)) != sign(f(hi)); zero endpoints are
    returned directly. Returns the bracket's midpoint after _BRACKET_ITERS
    evaluations.
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
    for _ in range(_BRACKET_ITERS):
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
