"""Output checks made apart from ibrown.

Every check here recomputes what it compares against from the law itself,
with numpy sums, closed forms or ``scipy.integrate.quad``; nothing is read
back from ibrown except the output under test. A failed check raises
``CheckFailed`` with the quantity, its value and its tolerance.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

CSV_HEADER = "a,a0,b_t,w_t,flag"

#: the rows sit at Chebyshev nodes and the integrand vanishes like a square
#: root at each end, so the trapezoid sum is good to about 1/n_grid**1.5
TRAPEZOID_TOL = 2e-3


class CheckFailed(AssertionError):
    pass


def require(ok: bool, what: str, value: float, tol: float):
    if not ok:
        raise CheckFailed(f"{what}: {value:.3e} exceeds {tol:.1e}")


def close(what: str, value: float, tol: float):
    require(bool(np.isfinite(value)) and abs(value) <= tol, what, abs(value), tol)


# ----------------------------------------------------------------------------
# profile.csv and summary.json, common to every law


def read_compute_output(out: Path) -> dict:
    """Parse profile.csv and summary.json and check what every job must show:
    the header, a strictly increasing grid, positive height and density, and
    total mass 1 from the summary and from a trapezoid sum over the rows."""
    lines = (out / "profile.csv").read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise CheckFailed(f"profile.csv header is {lines[:1]!r}, expected {CSV_HEADER!r}")
    rows = [line.split(",") for line in lines[1:]]
    if not rows or any(len(r) != 5 for r in rows):
        raise CheckFailed("profile.csv rows must have five fields")
    num = np.array([[float(v) for v in r[:4]] for r in rows])
    flags = [r[4] for r in rows]
    if set(flags) - {"ok", "near_boundary"}:
        raise CheckFailed(f"unknown flags {sorted(set(flags))}")
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    a, b, w = num[:, 0], num[:, 2], num[:, 3]
    if not np.all(np.isfinite(num)):
        raise CheckFailed("non-finite value in profile.csv")
    require(bool(np.all(np.diff(a) > 0.0)), "grid not strictly increasing", float(np.min(np.diff(a))), 0.0)
    require(bool(np.all(w > 0.0)), "density not positive", float(np.min(w)), 0.0)
    require(bool(np.all(b > 0.0)), "height not positive", float(np.min(b)), 0.0)
    close("summary mass - 1", summary["mass"] - 1.0, 1e-6)

    # trapezoid over each interval, closed by b = 0 at the interval ends
    omega = summary["omega_intervals"]
    mass = 0.0
    for lo, hi in omega:
        m = (a > lo) & (a < hi)
        xs = np.concatenate(([lo], a[m], [hi]))
        ys = np.concatenate(([0.0], 2.0 * b[m] * w[m], [0.0]))
        mass += float(np.sum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs)))
    inside = sum(int(np.count_nonzero((a > lo) & (a < hi))) for lo, hi in omega)
    if inside != a.size:
        raise CheckFailed(f"{a.size - inside} rows outside the region's real section")
    close("trapezoid mass - 1", mass - 1.0, TRAPEZOID_TOL)
    return {"a": a, "a0": num[:, 1], "b": b, "w": w, "flags": flags, "summary": summary}


# ----------------------------------------------------------------------------
# closed forms


def check_semicircle(prof: dict, s: float, t: float):
    """x0 semicircular of variance s: the Brown measure is uniform on the
    ellipse with semi-axes 2s/sqrt(s+t) and 2t/sqrt(s+t), so the density is
    (s+t)/(4 pi s t) and b_t(a) = B sqrt(1 - (a/A)^2)."""
    big_a = 2.0 * s / math.sqrt(s + t)
    big_b = 2.0 * t / math.sqrt(s + t)
    dens = (s + t) / (4.0 * math.pi * s * t)
    (lo, hi), = prof["summary"]["omega_intervals"]
    close("ellipse half-width", max(abs(lo + big_a), abs(hi - big_a)) / big_a, 1e-8)
    a, b, w = prof["a"], prof["b"], prof["w"]
    close("ellipse density", float(np.max(np.abs(w / dens - 1.0))), 1e-6)
    expect_b = big_b * np.sqrt(np.clip(1.0 - (a / big_a) ** 2, 0.0, None))
    close("ellipse height", float(np.max(np.abs(b - expect_b))) / big_b, 1e-7)
    close("ellipse maximum height", (big_b - float(np.max(b))) / big_b, 2e-3)


def check_bernoulli(prof: dict, alpha: float, t: float):
    """Law (1-alpha) delta_{-1} + alpha delta_{1}: the paper's closed form
    w_t(a) = (1/4 pi)(-1/t + (1-alpha)/(a-1)^2 + alpha/(a+1)^2)."""
    a, w = prof["a"], prof["w"]
    expect = (1.0 / (4.0 * math.pi)) * (-1.0 / t + (1.0 - alpha) / (a - 1.0) ** 2 + alpha / (a + 1.0) ** 2)
    close("bernoulli density", float(np.max(np.abs(w - expect) / (1.0 + np.abs(expect)))), 1e-6)


# ----------------------------------------------------------------------------
# atomic laws: Biane's equations with numpy sums


def atomic_biane(xs, ws, t, a0, v):
    """Residuals of sum w/((a0-x)^2+v^2) = 1/t and a = t sum w x/(...), and
    the density (1/2 pi t)(1/a_t' - 1/2) from implicit differentiation."""
    a0 = np.asarray(a0, dtype=float)[:, None]
    v2 = np.asarray(v, dtype=float)[:, None] ** 2
    u = a0 - xs[None, :]
    d = u * u + v2
    p0 = (ws / d).sum(axis=1)
    p1 = (ws * xs / d).sum(axis=1)
    q0 = (ws / (d * d)).sum(axis=1)
    q1 = (ws * u / (d * d)).sum(axis=1)
    qx1 = (ws * xs * u / (d * d)).sum(axis=1)
    qx0 = (ws * xs / (d * d)).sum(axis=1)
    dv2 = -2.0 * q1 / q0  # d(v^2)/d(a0) along p0 = 1/t
    slope = t * (-2.0 * qx1 - qx0 * dv2)
    density = (1.0 / (2.0 * math.pi * t)) * (1.0 / slope - 0.5)
    return t * p0 - 1.0, t * p1, density


def check_atomic(prof: dict, xs, ws, t: float):
    """Biane's equations at every row, and the density they imply."""
    xs, ws = np.asarray(xs, dtype=float), np.asarray(ws, dtype=float)
    a, a0, b, w = prof["a"], prof["a0"], prof["b"], prof["w"]
    res, at, dens = atomic_biane(xs, ws, t, a0, 0.5 * b)
    close("Biane sum w/D - 1/t (relative)", float(np.max(np.abs(res))), 1e-9)
    close("a - t sum w x/D", float(np.max(np.abs(a - at) / (1.0 + np.abs(a)))), 1e-9)
    ok = np.array([f == "ok" for f in prof["flags"]])
    close("density from Biane's equations", float(np.max(np.abs(w[ok] - dens[ok]) / (1.0 + np.abs(dens[ok])))), 1e-6)


# ----------------------------------------------------------------------------
# piecewise-polynomial laws: the same equations by scipy quadrature


def _quad_pieces(pieces, fn, a0, v):
    from scipy.integrate import quad

    total = 0.0
    for lo, hi, coeffs in pieces:
        c = np.asarray(coeffs, dtype=float)[::-1]

        def f(x):
            return fn(x) * np.polyval(c, x) / ((a0 - x) ** 2 + v * v)

        pts = [a0] if lo < a0 < hi else None
        val, _ = quad(f, lo, hi, points=pts, limit=400, epsabs=1e-13, epsrel=1e-12)
        total += val
    return total


def check_pieces(prof: dict, pieces, t: float, n_rows: int = 6):
    """Biane's equations at n_rows interior rows, integrals by scipy quad."""
    ok = [i for i, f in enumerate(prof["flags"]) if f == "ok"]
    take = [ok[int(k)] for k in np.linspace(0, len(ok) - 1, n_rows)]
    for i in take:
        a, a0, v = prof["a"][i], prof["a0"][i], 0.5 * prof["b"][i]
        p0 = _quad_pieces(pieces, lambda x: 1.0, a0, v)
        p1 = _quad_pieces(pieces, lambda x: x, a0, v)
        close("quad Biane t p0 - 1", t * p0 - 1.0, 1e-7)
        close("quad a - t p1", (a - t * p1) / (1.0 + abs(a)), 1e-7)


# ----------------------------------------------------------------------------
# cross-check library outputs on atomic laws


def cauchy_np(xs, ws, z):
    return complex(np.sum(ws / (z - xs)))


def j_np(xs, ws, t, z):
    return z - t * cauchy_np(xs, ws, z)


def check_j_inverse(xs, ws, t, lam, z):
    """J_t(z) = lam with a numpy J_t, and z outside the closed source region."""
    close("J_t round trip", abs(j_np(xs, ws, t, z) - lam) / (1.0 + abs(lam)), 1e-9)
    p0 = float(np.sum(ws / np.abs(z - xs) ** 2))
    require(t * p0 <= 1.0 + 1e-7, "J_t inverse inside the source region", t * p0 - 1.0, 1e-7)


def s_outside_np(xs, ws, t, z0):
    g = cauchy_np(xs, ws, z0)
    return float(np.sum(ws * np.log(np.abs(z0 - xs) ** 2))) - t * (g * g).real


def check_harmonic(values, h, scale):
    """Five-point Laplacian of s_outside: centre first, then the four
    neighbours at distance h. Its size is O(h^2) times fourth derivatives."""
    c, e, w_, n, s = values
    lap = (e + w_ + n + s - 4.0 * c) / (h * h)
    close("5-point Laplacian of s_outside", lap / scale, 1e-3)


def check_fixed_point(xs, ws, t, a, g, a0):
    """t Re g = a0 - a, and (a + t Re g, t Im g) solves Biane's equations."""
    close("t Re g - (a0 - a)", (t * g.real - (a0 - a)) / (1.0 + abs(a)), 1e-8)
    res, at, _ = atomic_biane(xs, ws, t, [a + t * g.real], [t * g.imag])
    close("fixed point: t p0 - 1", float(res[0]), 1e-9)
    close("fixed point: a - t p1", float((a - at[0]) / (1.0 + abs(a))), 1e-9)
