"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single [PASS]/[FAIL] line (run pytest with -s to stream
them); the assertions pin the same tolerances.
"""

import math
import time

import numpy as np
import pytest

import ibrown.brown as B
import ibrown.characteristics as C
import ibrown.jn as J
import ibrown.maps as P
import ibrown.measure as M
import ibrown.rmt as R
import ibrown.subordination as S

from conftest import semicircle_cdf


def report(name, ok, detail):
    print("[%s] %s: %s" % ("PASS" if ok else "FAIL", name, detail))
    assert ok, f"{name}: {detail}"


def refined_max_height(mu, t, prof):
    i = int(np.argmax(prof.halfheight))
    if 0 < i < prof.grid.size - 1:
        x = prof.grid[i - 1 : i + 2]
        y = prof.halfheight[i - 1 : i + 2]
        denom = (x[0] - x[1]) * (x[0] - x[2]) * (x[1] - x[2])
        aa = (x[2] * (y[1] - y[0]) + x[1] * (y[0] - y[2]) + x[0] * (y[2] - y[1])) / denom
        bb = (x[2] **2 * (y[0] - y[1]) + x[1] **2 * (y[2] - y[0]) + x[0] **2 * (y[1] - y[2])) / denom
        if aa < 0.0:
            vertex = -bb / (2.0 * aa)
            return max(float(prof.halfheight[i]), B.b_t(mu, t, float(vertex)))
    return float(prof.halfheight[i])


def test_elliptic_law():
    s = t = 1.0
    mu = M.semicircle(s)
    t0 = time.perf_counter()
    prof = B.profile(mu, t, n_grid=512)
    w_dev = float(np.abs(prof.density - 1.0 / (2.0 * math.pi)).max())
    half_width = max(abs(prof.omega_intervals[0][0]), abs(prof.omega_intervals[0][1]))
    hw_err = abs(half_width - 2.0 * s / math.sqrt(s + t))
    bmax_err = abs(refined_max_height(mu, t, prof) - 2.0 * t / math.sqrt(s + t))
    elapsed = time.perf_counter() - t0
    ok = w_dev < 1e-6 and hw_err < 1e-8 and bmax_err < 1e-6 and elapsed < 5.0
    report(
        "elliptic law",
        ok,
        "w dev %.2e (<1e-6), half-width err %.2e (<1e-8), max height err %.2e (<1e-6), %.1fs (<5s)"
        % (w_dev, hw_err, bmax_err, elapsed),
    )


def test_bernoulli_density_and_region():
    al, t = 2.0 / 3.0, 1.05
    be = 1.0 - al
    mu = M.bernoulli(al)
    t0 = time.perf_counter()
    prof = B.profile(mu, t, n_grid=504)
    inner = np.array([f == "ok" for f in prof.flags])
    grid = prof.grid[inner][:500]
    dens = prof.density[inner][:500]
    expect = (1.0 / (4 * math.pi)) * (-1.0 / t + be / (grid - 1) ** 2 + al / (grid + 1) ** 2)
    w_dev = float(np.abs(dens - expect).max())

    # positive-set endpoints of the quartic, polished to machine precision
    coeffs = [
        -4.0,
        4 * t * (al - be),
        -(t * t + 4 * t - 8),
        2 * t * (t - 2) * (al - be),
        -((al - be) ** 2) * t * t + 4 * t - 4,
    ]
    deriv = [4 * c * (4 - k) / 4 for k, c in enumerate(coeffs[:-1])]
    deriv = [coeffs[k] * (4 - k) for k in range(4)]
    roots = np.roots(coeffs)
    real = sorted(
        r.real for r in roots if abs(r.imag) < 1e-7 and -1.0 < r.real < 1.0
    )
    polished = []
    for r in real:
        x = r
        for _ in range(6):
            f = np.polyval(coeffs, x)
            df = np.polyval(deriv, x)
            x -= f / df
        polished.append(x)
    (alo, ahi), = prof.omega_intervals
    end_err = max(abs(alo - polished[0]), abs(ahi - polished[-1]))
    elapsed = time.perf_counter() - t0
    ok = w_dev < 1e-6 and end_err < 1e-8 and dens.size == 500 and elapsed < 10.0
    report(
        "bernoulli density",
        ok,
        "w dev %.2e (<1e-6) on %d pts, endpoint err %.2e (<1e-8), %.1fs (<10s)"
        % (w_dev, dens.size, end_err, elapsed),
    )


def test_uniform_region_and_parametric_density():
    t = 0.1
    mu = M.uniform(-1.0, 1.0)
    prof = B.profile(mu, t, n_grid=512)
    u = math.sqrt(t + 1.0)
    hw_expect = u - 0.5 * t * math.log((u + 1.0) / (u - 1.0))
    (alo, ahi), = prof.omega_intervals
    hw_err = max(abs(ahi - hw_expect), abs(alo + hw_expect))

    curve_dev = 0.0
    for a, b, w, flag in zip(prof.grid, prof.halfheight, prof.density, prof.flags):
        if flag != "ok" or abs(a) < 1e-3:
            continue
        v = 0.5 * b
        a0 = math.sqrt(2 * v / math.tan(2 * v / t) + 1.0 - v * v)
        a_par = a0 + 0.25 * t * math.log(1.0 - 4.0 * a0 / ((a0 + 1.0) ** 2 + v * v))
        w_par = (
            t * t
            + 4 * (t + 2) * v * v
            - t * (t + 4 * v * v) * math.cos(4 * v / t)
            - 4 * t * v * math.sin(4 * v / t)
        ) / (4 * math.pi * t * (-t * t + 8 * v * v + t * t * math.cos(4 * v / t)))
        curve_dev = max(curve_dev, abs(a_par - abs(a)), abs(w_par - w))
    ok = hw_err < 1e-6 and curve_dev < 1e-5
    report(
        "uniform region",
        ok,
        "half-width err %.2e (<1e-6), parametric curve dev %.2e (<1e-5)" % (hw_err, curve_dev),
    )


def test_mass_conservation():
    worst_preset = 0.0
    for mu, t in (
        (M.semicircle(1.0), 1.0),
        (M.bernoulli(2.0 / 3.0), 1.05),
        (M.uniform(-1, 1), 0.1),
    ):
        worst_preset = max(worst_preset, abs(B.profile(mu, t, n_grid=64).mass - 1.0))
    rng = np.random.default_rng(2024)
    worst_rand = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        xs = rng.uniform(-3, 3, n)
        ws = rng.uniform(0.05, 1.0, n)
        t = rng.uniform(0.05, 4.0)
        mu = M.atomic(list(zip(xs, ws)))
        worst_rand = max(worst_rand, abs(B.profile(mu, t, n_grid=32).mass - 1.0))
    ok = worst_preset < 1e-6 and worst_rand < 1e-4
    report(
        "mass conservation",
        ok,
        "presets %.2e (<1e-6), 50 random atomic %.2e (<1e-4)" % (worst_preset, worst_rand),
    )


def test_pushforward_identities():
    worst_rect = 0.0
    for mu, t in (
        (M.semicircle(1.0), 1.0),
        (M.bernoulli(2.0 / 3.0), 1.05),
        (M.uniform(-1, 1), 0.1),
    ):
        worst_rect = max(worst_rect, P.pushforward_check(mu, t).max_discrepancy)

    sc = M.semicircle(1.0)
    prof = B.profile(sc, 1.0, n_grid=2048)
    cdf_dev = float(
        max(abs(c - semicircle_cdf(2.0, u)) for u, c in zip(prof.u, prof.cdf))
    )
    rng = np.random.default_rng(1)
    line_dev = 0.0
    for _ in range(25):
        a = rng.uniform(-1.35, 1.35)
        b = rng.uniform(-0.9, 0.9) * math.sqrt(max(2.0 - a * a, 0.0))
        line_dev = max(line_dev, abs(P.q_t(sc, 1.0, complex(a, b)) - 2.0 * a))
    ok = worst_rect < 1e-5 and cdf_dev < 1e-4 and line_dev < 1e-9
    report(
        "pushforward identities",
        ok,
        "rectangles %.2e (<1e-5), CDF vs semicircle(s+t) %.2e (<1e-4), Q line %.2e (<1e-9)"
        % (worst_rect, cdf_dev, line_dev),
    )


def test_method_equivalence():
    worst_density = 0.0
    worst_reg = 0.0
    for mu, t in (
        (M.semicircle(1.0), 1.0),
        (M.bernoulli(2.0 / 3.0), 1.05),
        (M.uniform(-1, 1), 0.1),
    ):
        prof = B.profile(mu, t, n_grid=204)
        inner = [i for i, f in enumerate(prof.flags) if f == "ok"][:200]
        for i in inner:
            a = float(prof.grid[i])
            g = J.solve_g(mu, t, a)
            a0 = float(prof.a0[i])
            worst_reg = max(worst_reg, abs(t * g.real - (a0 - a)))
            worst_density = max(worst_density, abs(J.jn_density(mu, t, a) - prof.density[i]))
    ok = worst_density < 1e-5 and worst_reg < 1e-8
    report(
        "method equivalence",
        ok,
        "max |density gap| %.2e (<1e-5), max |t Re g - (a0-a)| %.2e (<1e-8)"
        % (worst_density, worst_reg),
    )


def test_pde_residual_and_conservation():
    rng = np.random.default_rng(2718)
    worst = 0.0
    for mu, t in (
        (M.semicircle(1.0), 1.0),
        (M.bernoulli(2.0 / 3.0), 1.05),
        (M.uniform(-1, 1), 0.1),
    ):
        span = max(abs(mu.support.lo), abs(mu.support.hi))
        for _ in range(20):
            lam = complex(rng.uniform(-span - 2, span + 2), rng.uniform(-2.0, 2.0))
            eps = rng.uniform(0.1, 1.0)
            worst = max(worst, C.pde_residual(mu, t, lam, eps))

    conserved = 0.0
    for mu, t in ((M.semicircle(1.0), 1.0), (M.bernoulli(2.0 / 3.0), 1.05)):
        init = C.InitialData(complex(mu.support.hi + 0.8, 0.5), 0.4)
        mom = C.initial_momenta(mu, init)
        e_p2 = init.eps0 * mom.p0 **2
        h0 = C.hamiltonian(mom, init.eps0)
        for s in np.linspace(0.05, 0.95, 10) / mom.p0:
            st = C.flow(mu, init, s)
            scale = max(abs(h0), abs(e_p2))
            conserved = max(
                conserved,
                abs(st.p_a - mom.p_a0) / max(abs(mom.p_a0), 1e-300),
                abs(st.p_b - mom.p_b0) / max(abs(mom.p_b0), 1e-300),
                abs(st.eps * st.p_eps **2 - e_p2) / scale,
                abs(-0.25 * (st.p_a **2 - st.p_b **2) - st.eps * st.p_eps **2 - h0) / scale,
            )
    ok = worst < 1e-4 and conserved < 1e-14
    report(
        "pde residual",
        ok,
        "max residual %.2e (<1e-4) over 20 pts/preset, conservation %.2e (<1e-14 rel)"
        % (worst, conserved),
    )


def test_outside_harmonicity():
    h = 1e-3
    worst = 0.0
    rng = np.random.default_rng(31)
    for mu, t in (
        (M.semicircle(1.0), 1.0),
        (M.bernoulli(2.0 / 3.0), 1.05),
        (M.uniform(-1, 1), 0.1),
    ):
        span = max(abs(mu.support.lo), abs(mu.support.hi)) + 2.0 * math.sqrt(t)
        count = 0
        while count < 50:
            lam = complex(rng.uniform(-span, span), rng.uniform(-span, span))
            if B.classify(mu, t, lam).tag != "outside":
                continue
            if B.classify(mu, t, complex(abs(lam.real) - 3 * h, abs(lam.imag) - 3 * h)).tag != "outside":
                continue  # keep the whole stencil outside
            s0 = B.s_outside(mu, t, lam)
            lap = (
                B.s_outside(mu, t, lam + h)
                + B.s_outside(mu, t, lam - h)
                + B.s_outside(mu, t, lam + 1j * h)
                + B.s_outside(mu, t, lam - 1j * h)
                - 4.0 * s0
            ) / (h * h)
            worst = max(worst, abs(lap) / (1.0 + abs(s0)))
            count += 1
    ok = worst < 1e-4
    report("outside harmonicity", ok, "max scaled stencil Laplacian %.2e (<1e-4)" % worst)


def test_monte_carlo():
    t0 = time.perf_counter()
    results = []
    for mu, t in ((M.semicircle(1.0), 1.0), (M.bernoulli(2.0 / 3.0), 1.05)):
        cfg = R.SimConfig(n=2000, t=t, reps=5, seed=20240, dilation=0.05)
        cloud = R.simulate(mu, cfg)
        prof = B.profile(mu, t, n_grid=512)
        rep = R.compare(cloud, prof, mu, t)
        results.append((mu.label, rep.inside_fraction, rep.ks_marginal, rep.ks_pushforward))
    elapsed = time.perf_counter() - t0
    ok = all(f >= 0.98 and m <= 0.02 and kh <= 0.02 for _, f, m, kh in results) and (
        elapsed < 300.0
    )
    detail = "; ".join(
        "%s inside %.3f (>=0.98) ksRe %.3f (<=0.02) ksHerm %.3f (<=0.02)" % r for r in results
    )
    report("monte carlo", ok, detail + "; %.0fs (<300s)" % elapsed)
