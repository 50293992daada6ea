"""The three workloads: how each draws its inputs from the seed, what one job
runs, and how a job's output is checked.

A job is the unit the benchmark times. Inside a workload every job runs the
same operations on freshly drawn laws, so jobs are alike in cost and no job
is served from a cache that an earlier job filled (ibrown's caches key on the
law and t, and every job draws both).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import oracle

#: profile grid per region interval for the CLI jobs: the grid at which
#: ROADMAP sets its profile targets (the CLI default is 1024). At this grid
#: the per-node a0 inversions weigh about as much as the fixed mass sweep.
GRID = 512


# ----------------------------------------------------------------------------
# law generators (numpy only; ibrown sees nothing but the written files)


def _min_on_gaps(xs, ws):
    """Minimum of sum w/(a0-x)^2 on each gap between neighbouring atoms."""
    out = []
    s = np.linspace(0.0, 1.0, 2003)[1:-1]
    for lo, hi in zip(xs[:-1], xs[1:]):
        a0 = lo + (hi - lo) * s
        out.append(float(np.min((ws[None, :] / (a0[:, None] - xs[None, :]) ** 2).sum(axis=1))))
    return np.array(out)


def draw_atoms(rng, n_atoms, gap_lo, gap_hi, w_lo, w_hi):
    """Centred atoms with gaps in [gap_lo, gap_hi], weights drawn in
    [w_lo, w_hi] and normalised, and the minimum of sum w/(a0-x)^2 on each
    gap. That sum is convex on a gap, so the gap splits the source region
    exactly when 1/t is at least its minimum there."""
    xs = np.cumsum(rng.uniform(gap_lo, gap_hi, n_atoms))
    xs -= xs.mean()
    ws = rng.uniform(w_lo, w_hi, n_atoms)
    ws /= ws.sum()
    return xs, ws, _min_on_gaps(xs, ws)


def atomic_json(xs, ws) -> dict:
    return {"type": "atomic", "atoms": [{"x": float(x), "w": float(w)} for x, w in zip(xs, ws)]}


def two_piece_law(rng):
    """Positive density on [c-h, c+h] in two contiguous pieces, a linear one
    and a quadratic bump, normalised to mass 1; coefficients ascend in x."""
    c, h = rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.2)
    lo, hi = c - h, c + h
    mid = c + h * rng.uniform(-0.3, 0.3)
    f0, f1 = rng.uniform(0.3, 1.0, 2)
    left = [f0 - (f1 - f0) / (mid - lo) * lo, (f1 - f0) / (mid - lo)]
    k, floor = rng.uniform(0.5, 2.0), rng.uniform(0.2, 0.6)
    right = [floor - k * mid * hi, k * (mid + hi), -k]  # floor + k (x-mid)(hi-x)
    pieces = [(lo, mid, left), (mid, hi, right)]
    mass = 0.0
    for a, b, cs in pieces:
        mass += sum(ck * (b ** (j + 1) - a ** (j + 1)) / (j + 1) for j, ck in enumerate(cs))
    return [(a, b, [ck / mass for ck in cs]) for a, b, cs in pieces]


def pieces_json(pieces) -> dict:
    return {
        "type": "piecewise_poly",
        "pieces": [{"lo": a, "hi": b, "coeffs": list(cs)} for a, b, cs in pieces],
    }


def _write_law(path: Path, obj: dict) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


# ----------------------------------------------------------------------------
# compute-density and compute-atomic: in-process CLI `compute`


def _cli_compute(ib, law_path, t, out: Path):
    argv = ["compute", "--measure", law_path, "--t", repr(t), "--grid", str(GRID), "--out", str(out)]
    return ib.cli.main(argv)


def density_inputs(rng, first, n_jobs, work: Path) -> list:
    jobs = []
    for i in range(first, first + n_jobs):
        s, ts = rng.uniform(0.3, 1.0), rng.uniform(1.0, 2.0)
        pieces, tp = two_piece_law(rng), rng.uniform(0.5, 1.5)
        jobs.append(
            [
                ("semicircle", {"s": s}, ts, _write_law(work / f"sc{i}.json", {"type": "semicircle", "variance": s})),
                ("pieces", {"pieces": pieces}, tp, _write_law(work / f"pp{i}.json", pieces_json(pieces))),
            ]
        )
    return jobs


def atomic_inputs(rng, first, n_jobs, work: Path) -> list:
    jobs = []
    for i in range(first, first + n_jobs):
        alpha = rng.uniform(0.3, 0.7)
        xb, wb = np.array([-1.0, 1.0]), np.array([1.0 - alpha, alpha])
        tb = rng.uniform(0.4, 0.8) / float(_min_on_gaps(xb, wb)[0])
        xs, ws, gap_min = draw_atoms(rng, 4, 1.0, 2.0, 0.15, 0.35)
        t = rng.uniform(0.4, 0.8) / float(np.max(gap_min))  # one component per atom
        jobs.append(
            [
                ("bernoulli", {"alpha": alpha, "xs": xb, "ws": wb}, tb,
                 _write_law(work / f"be{i}.json", {"type": "bernoulli", "alpha": alpha})),
                ("atomic", {"xs": xs, "ws": ws}, t, _write_law(work / f"at{i}.json", atomic_json(xs, ws))),
            ]
        )
    return jobs


def run_cli_job(ib, job, out: Path):
    return [_cli_compute(ib, path, t, out / str(k)) for k, (_, _, t, path) in enumerate(job)]


def check_cli_job(job, codes, out: Path) -> bool:
    """Checks every law of a job; returns False when ibrown exited nonzero."""
    if any(codes):
        return False
    for k, (kind, p, t, _) in enumerate(job):
        prof = oracle.read_compute_output(out / str(k))
        if kind == "semicircle":
            oracle.check_semicircle(prof, p["s"], t)
        elif kind == "pieces":
            oracle.check_pieces(prof, p["pieces"], t)
        else:
            if kind == "bernoulli":
                oracle.check_bernoulli(prof, p["alpha"], t)
            oracle.check_atomic(prof, p["xs"], p["ws"], t)
            n_comp = len(p["xs"])
            got = len(prof["summary"]["omega_intervals"])
            if got != n_comp:
                raise oracle.CheckFailed(f"{got} region intervals, expected {n_comp}")
    return True


# ----------------------------------------------------------------------------
# crosscheck: library calls on atomic laws


def _hull_component(xs, ws, t):
    """Ends of a one-component source region, by bisection on
    sum w/(a0-x)^2 = 1/t outward from the outer atoms (both ends at once)."""
    lo = xs[[0, -1]] + np.array([-1e-9, 1e-9])
    hi = xs[[0, -1]] + np.array([-1.0, 1.0]) * math.sqrt(t)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        inside = (ws / (mid[:, None] - xs) ** 2).sum(axis=1) > 1.0 / t
        lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
    return float(lo[0]), float(lo[1])


def _v_numpy(xs, ws, t, a0):
    """v_t at points inside the source region, by bisection on [0, sqrt(t)]."""
    a0 = np.asarray(a0, dtype=float)
    lo, hi = np.zeros_like(a0), np.full_like(a0, math.sqrt(t))
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        above = (ws / ((a0[:, None] - xs) ** 2 + (mid * mid)[:, None])).sum(axis=1) > 1.0 / t
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return 0.5 * (lo + hi)


def _flow_np(xs, ws, a0, b0, eps0, t):
    """Characteristic from (a0 + i b0, eps0) to time t and the value it carries."""
    d = (a0 - xs) ** 2 + b0 * b0 + eps0
    p0, p1 = float(np.sum(ws / d)), float(np.sum(ws * xs / d))
    pa, pb = 2.0 * a0 * p0 - 2.0 * p1, 2.0 * b0 * p0
    s0 = float(np.sum(ws * np.log(d)))
    h0 = -0.25 * (pa * pa - pb * pb) - eps0 * p0 * p0
    lam = complex(a0 - 0.5 * pa * t, b0 + 0.5 * pb * t)
    return lam, eps0 * (1.0 - p0 * t) ** 2, s0 + t * h0


def cross_inputs(rng, first, n_jobs, work: Path) -> list:
    jobs = []
    for i in range(first, first + n_jobs):
        xs, ws, gap_min = draw_atoms(rng, 3, 1.5, 2.5, 0.2, 0.4)
        t = rng.uniform(1.3, 2.0) / float(np.min(gap_min))  # every gap inside the region
        lo, hi = _hull_component(xs, ws, t)
        a0s = lo + (hi - lo) * (rng.uniform(0.1, 0.3) + np.array([0.0, 0.3, 0.6]))
        vs = _v_numpy(xs, ws, t, a0s)
        _, ats, dens = oracle.atomic_biane(xs, ws, t, a0s, vs)
        jn_pts = list(zip(ats.tolist(), a0s.tolist(), dens.tolist()))
        top = 2.0 * math.sqrt(t) + 1.0
        outside = [complex(rng.uniform(xs[0], xs[-1]), sgn * (top + rng.uniform(0.0, 1.0))) for sgn in (1.0, -1.0)]
        a0f, b0f = rng.uniform(xs[0] - 1.0, xs[-1] + 1.0), rng.uniform(-0.5, 0.5)
        eps0 = t + rng.uniform(0.2, 1.0)  # b0^2 + eps0 > t keeps t p0 < 1
        lam_f, eps_f, s_f = _flow_np(xs, ws, a0f, b0f, eps0, t)
        jobs.append(
            {
                "path": _write_law(work / f"cx{i}.json", atomic_json(xs, ws)),
                "xs": xs, "ws": ws, "t": t,
                "jn": jn_pts, "outside": outside, "flow": (lam_f, eps_f, s_f),
                "sim_seed": int(rng.integers(0, 2**32)),
            }
        )
    return jobs


#: stencil step for the harmonicity check of s_outside
H_STENCIL = 1e-2
SIM_N = 200


def run_cross_job(ib, job, out: Path):
    mu = ib.load_measure(job["path"])
    t = job["t"]
    res = {"push": ib.pushforward_check(mu, t)}
    res["jn"] = [
        (ib.solve_g(mu, t, a), ib.a0_of_a(mu, t, a), ib.jn_density(mu, t, a), ib.w_t(mu, t, a))
        for a, _, _ in job["jn"]
    ]
    h = H_STENCIL
    res["outside"] = [
        (ib.j_t_inverse(mu, t, lam), [ib.s_outside(mu, t, lam + d) for d in (0, h, -h, 1j * h, -1j * h)])
        for lam in job["outside"]
    ]
    lam_f, eps_f, _ = job["flow"]
    res["s_of"] = ib.s_of(mu, t, lam_f, eps_f)
    res["pde"] = ib.pde_residual(mu, t, lam_f, eps_f)
    prof = ib.profile(mu, t, n_grid=32)
    cloud = ib.simulate(mu, ib.SimConfig(n=SIM_N, t=t, reps=1, seed=job["sim_seed"], dilation=0.05))
    res["sim"] = (prof, cloud, ib.compare(cloud, prof, mu, t))
    return res


def check_cross_job(job, res, out: Path) -> bool:
    xs, ws, t = job["xs"], job["ws"], job["t"]
    push = res["push"]
    oracle.close("pushforward rectangle discrepancy", push.max_discrepancy, 1e-5)
    # the first band spans the full height, so its rectangles tile the
    # one-component region: their source masses add up to 1
    per_band = len(push.rectangles) // 3
    full = sum(push.source_masses[:per_band])
    oracle.close("pushforward full-band mass - 1", full - 1.0, 1e-6)

    for (a, a0, dens), (g, a0_lib, w_jn, w_lib) in zip(job["jn"], res["jn"]):
        oracle.check_fixed_point(xs, ws, t, a, g, a0_lib)
        oracle.close("a0_of_a against numpy a0", (a0_lib - a0) / (1.0 + abs(a0)), 1e-9)
        oracle.close("w_t against Biane density", (w_lib - dens) / (1.0 + abs(dens)), 1e-7)
        oracle.close("jn_density against Biane density", (w_jn - dens) / (1.0 + abs(dens)), 1e-5)

    for lam, (z, vals) in zip(job["outside"], res["outside"]):
        oracle.check_j_inverse(xs, ws, t, lam, z)
        oracle.close("s_outside against numpy formula", vals[0] - oracle.s_outside_np(xs, ws, t, z), 1e-9)
        oracle.check_harmonic(vals, H_STENCIL, 1.0 + abs(vals[0]))

    lam_f, eps_f, s_f = job["flow"]
    oracle.close("s_of against the numpy characteristic", (res["s_of"] - s_f) / (1.0 + abs(s_f)), 1e-8)
    oracle.close("PDE residual", res["pde"], 1e-4)

    prof, cloud, rep = res["sim"]
    pts = np.asarray(cloud.points)
    if pts.size != SIM_N or not np.all(np.isfinite(pts)):
        raise oracle.CheckFailed("eigenvalue cloud has the wrong size or non-finite points")
    # trace of D + i sqrt(t) H: Re sum = sum of the quantile diagonal
    cum = np.cumsum(ws)
    quant = xs[np.minimum(np.searchsorted(cum, (np.arange(SIM_N) + 0.5) / SIM_N - 1e-15), xs.size - 1)]
    oracle.close("mean eigenvalue against the quantile diagonal", float(pts.real.mean() - quant.mean()), 1e-9)
    for name in ("inside_fraction", "ks_marginal", "ks_pushforward"):
        val = getattr(rep, name)
        if not 0.0 <= val <= 1.0:
            raise oracle.CheckFailed(f"{name} = {val} outside [0, 1]")
    if rep.inside_fraction < 0.5:
        raise oracle.CheckFailed(f"only {rep.inside_fraction} of the eigenvalues lie in the region")
    if len(prof.omega_intervals) != 1:
        raise oracle.CheckFailed("profile split a one-component region")
    return True


# ----------------------------------------------------------------------------


WORKLOADS = {
    "compute-density": (density_inputs, run_cli_job, check_cli_job),
    "compute-atomic": (atomic_inputs, run_cli_job, check_cli_job),
    "crosscheck": (cross_inputs, run_cross_job, check_cross_job),
}

#: fixed job count of the traced run, so its counts repeat exactly
TRACE_JOBS = {"compute-density": 3, "compute-atomic": 5, "crosscheck": 4}
