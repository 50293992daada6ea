"""Shared numerical kernels: bracketed root solves, damped Newton and
polynomial helpers.

The module holds no quadrature: the kernels' far field and the pushforward
check's rectangle masses take fixed Gauss rules of their own.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import NUMERIC_FAILURES, NoConvergenceError


#: passes of a bracketed Newton solve, one node or many: bisection alone
#: closes any bracket these solves take to its tolerance in under 60
_PASSES = 100


def bracket_newton(fdf, lo: float, hi: float, x: float, ftol: float, xtol: float) -> float:
    """Root of f on [lo, hi], where f rises through it: f <= 0 below the
    root and f > 0 above. Starts at x, strictly inside.

    ``fdf(x)`` returns f(x) and the Newton step, which is subtracted from x;
    a step that is not finite forces bisection. The step is taken when it
    lands inside the bracket and moves at most half as far as the move
    before (the first move at most half the bracket), else the bracket is
    bisected. Returns the last iterate evaluated once |f| <= ftol and
    |step| <= xtol, or once the bracket is narrower than xtol. Raises
    NoConvergenceError after _PASSES evaluations.
    """
    move = hi - lo
    for _ in range(_PASSES):
        f, step = fdf(x)
        if f > 0.0:
            hi = x
        else:
            lo = x
        if (abs(f) <= ftol and abs(step) <= xtol) or hi - lo <= xtol:
            return x
        xn = x - step
        if not (lo < xn < hi and abs(step) <= 0.5 * move):
            xn = 0.5 * (lo + hi)
        move, x = abs(xn - x), xn
    raise NoConvergenceError(f"bracketed root open on [{lo}, {hi}] after {_PASSES} passes")


def bracket_newton_nodes(fdf, lo, hi, x: np.ndarray, ftol, xtol) -> np.ndarray:
    """bracket_newton at every node of the array x at once, each node with
    its own bracket, move and exit; lo, hi, ftol and xtol are numbers or
    arrays like x. ``fdf(x, idx)`` is called on the nodes still open, idx
    their indices into x, and returns arrays f and step for them. Raises
    NoConvergenceError if a node is open after _PASSES passes.
    """
    lo, hi = (np.array(np.broadcast_to(e, x.shape), dtype=float) for e in (lo, hi))
    ftol, xtol = np.broadcast_to(ftol, x.shape), np.broadcast_to(xtol, x.shape)
    move, roots = hi - lo, np.empty(x.shape)
    idx = np.arange(x.size)  # the nodes still open, their iterate in x
    for _ in range(_PASSES):
        f, step = fdf(x, idx)
        up = f > 0.0
        lo[idx] = l = np.where(up, lo[idx], x)
        hi[idx] = h = np.where(up, x, hi[idx])
        done = ((np.abs(f) <= ftol[idx]) & (np.abs(step) <= xtol[idx])) | (h - l <= xtol[idx])
        roots[idx[done]] = x[done]
        keep = ~done
        idx, x, step, l, h = idx[keep], x[keep], step[keep], l[keep], h[keep]
        if not idx.size:
            return roots
        xn = x - step
        xn = np.where((l < xn) & (xn < h) & (np.abs(step) <= 0.5 * move[idx]), xn, 0.5 * (l + h))
        move[idx], x = np.abs(xn - x), xn
    raise NoConvergenceError(f"bracketed roots open at {idx.size} nodes after {_PASSES} passes")


def _max_abs(r) -> float:
    a = abs(r)
    return float(a.max()) if isinstance(a, np.ndarray) else a


#: Newton steps of a damped Newton solve, and halvings of each step: the
#: most any caller needs
_NEWTON_STEPS = 100
_HALVINGS = 50


def _attempt(fn, *args):
    """fn(*args), or None where it raises one of NUMERIC_FAILURES."""
    try:
        return fn(*args)
    except NUMERIC_FAILURES:
        return None


def damped_newton(fdf, x0, tol: float):
    """Newton iteration with step halving until the residual norm max|r| drops.

    ``fdf(x)`` returns r (a complex scalar or an array) and the full Newton
    step at x, subtracted from x, from one evaluation there, the shape of
    bracket_newton's fdf. x is inadmissible where fdf returns None or raises
    one of NUMERIC_FAILURES: a trial point is then halved past, and x0 ends
    the solve. A step of None ends it unless max|r| <= tol already holds.
    Returns the first x with max|r| <= tol, the point fdf was last evaluated
    at; None when x0 is inadmissible, a step is None, no one of _HALVINGS
    halvings lowers the norm or _NEWTON_STEPS steps do not reach tol.
    """
    ev = _attempt(fdf, x0)
    if ev is None:
        return None
    x, norm, step = x0, _max_abs(ev[0]), ev[1]
    for _ in range(_NEWTON_STEPS):
        if norm <= tol:
            return x
        if step is None:
            return None
        factor = 1.0
        for _ in range(_HALVINGS):
            xn = x - factor * step
            ev = _attempt(fdf, xn)
            if ev is not None and _max_abs(ev[0]) < norm:
                x, norm, step = xn, _max_abs(ev[0]), ev[1]
                break
            factor *= 0.5
        else:
            return None
    return x if norm <= tol else None


def poly_eval(coeffs: Sequence[float], x):
    """Evaluate a polynomial given ascending-degree coefficients (Horner), at
    one number or elementwise at an array, real or complex."""
    acc = np.zeros_like(x) if np.ndim(x) else 0.0
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


def poly_definite(coeffs: Sequence[float], lo, hi):
    """int_lo^hi of the polynomial, from its antiderivative at both ends: at
    real or complex ends, or elementwise at arrays of them."""
    anti = [0.0] + [c / (k + 1) for k, c in enumerate(coeffs)]
    return poly_eval(anti, hi) - poly_eval(anti, lo)
