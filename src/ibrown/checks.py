"""Named invariant suites shared by the CLI verify subcommand and the tests.

Each suite returns a list of CheckResult rows; a row passes when value <=
threshold (or the boolean holds). Suites cover the subordination identities,
fixed-point equivalence, flow/PDE residuals, and the pushforward structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import brown, characteristics, jn, maps, subordination


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    value: float
    threshold: float

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.threshold)


def _interior_points(profile, per_interval=24):
    pts = []
    for sl in profile.blocks():
        g = profile.grid[sl]
        take = np.linspace(2, g.size - 3, min(per_interval, max(g.size - 4, 1))).astype(int)
        pts.extend(g[take])
    return pts


def check_subordination(mu, t) -> list[CheckResult]:
    region = subordination.lambda_region(mu, t)
    rows = []
    root_t = math.sqrt(t)
    vmax_violation = 0.0
    monotone_violation = -math.inf
    slope_violation = 0.0
    j_identity = 0.0
    h_real = 0.0
    prev_at = -math.inf
    for lam_iv in region.intervals:
        sw = brown.lambda_sweep(mu, t, lam_iv, 40)
        for a0, v, at, slope in zip(*(sw[key][1:-1] for key in ("a0", "v", "at", "slope"))):
            vmax_violation = max(vmax_violation, v - root_t)
            monotone_violation = max(monotone_violation, prev_at - at)
            prev_at = at
            slope_violation = max(slope_violation, -slope, slope - 2.0)
            z = complex(a0, v)
            j_identity = max(j_identity, abs(subordination.j_t(mu, t, z).imag - 2.0 * v))
            h_real = max(h_real, abs(subordination.h_t(mu, t, z).imag))
    rows.append(CheckResult("subordination", "v_t < sqrt(t)", vmax_violation, 0.0))
    rows.append(CheckResult("subordination", "a_t strictly increasing", monotone_violation, 0.0))
    rows.append(CheckResult("subordination", "slope in (0,2)", slope_violation, 0.0))
    rows.append(CheckResult("subordination", "Im J = 2 v_t on boundary", j_identity, 1e-9))
    rows.append(CheckResult("subordination", "H real on boundary", h_real, 1e-9))

    # inversion round trips outside the region
    span = max(abs(mu.support.lo), abs(mu.support.hi)) + 2.0 * root_t
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(12):
        lam = complex(rng.uniform(-span, span), rng.uniform(0.3, 1.5) * (span + 1.0))
        z = subordination.j_t_inverse(mu, t, lam)
        worst = max(worst, abs(subordination.j_t(mu, t, z) - lam) / (1.0 + abs(lam)))
    rows.append(CheckResult("subordination", "J inverse round trip", worst, 1e-10))
    return rows


def check_jn(mu, t, n_points=200) -> list[CheckResult]:
    prof = brown.profile(mu, t, n_grid=max(64, n_points))
    density_dev = 0.0
    re_identity = 0.0
    poisson = 0.0
    pts = _interior_points(prof, per_interval=max(8, n_points // max(len(prof.omega_intervals), 1)))
    for a in pts:
        g = jn.solve_g(mu, t, a)
        a0 = brown.a0_of_a(mu, t, a)
        re_identity = max(re_identity, abs(t * g.real - (a0 - a)))
        density_dev = max(density_dev, abs(jn.jn_density(mu, t, a) - brown.w_t(mu, t, a)))
    for a in pts[:: max(len(pts) // 8, 1)]:
        poisson = max(poisson, jn.poisson_identity_residual(mu, t, a))
    return [
        CheckResult("jn", "density equivalence", density_dev, 1e-5),
        CheckResult("jn", "t*Re g = a0 - a", re_identity, 1e-8),
        CheckResult("jn", "Poisson identity", poisson, 1e-10),
    ]


def check_pde(mu, t, n_points=8, seed=5) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    span = max(abs(mu.support.lo), abs(mu.support.hi))
    worst = 0.0
    for _ in range(n_points):
        lam = complex(rng.uniform(-span - 2.0, span + 2.0), rng.uniform(-1.5, 1.5))
        eps = rng.uniform(0.1, 1.0)
        worst = max(worst, characteristics.pde_residual(mu, t, lam, eps))
    conserved = 0.0
    init = characteristics.InitialData(complex(span + 0.7, 0.4), 0.35)
    mom = characteristics.initial_momenta(mu, init)
    e_p2 = init.eps0 * mom.p0 **2
    h0 = characteristics.hamiltonian(mom, init.eps0)
    horizon = 0.95 / mom.p0
    for s in np.linspace(0.05, 1.0, 10) * horizon:
        st = characteristics.flow(mu, init, s)
        scale = max(abs(e_p2), abs(h0), 1e-30)
        conserved = max(
            conserved,
            abs(st.p_a - mom.p_a0) / max(abs(mom.p_a0), 1e-30),
            abs(st.p_b - mom.p_b0) / max(abs(mom.p_b0), 1e-30),
            abs(st.eps * st.p_eps **2 - e_p2) / scale,
            abs(-0.25 * (st.p_a **2 - st.p_b **2) - st.eps * st.p_eps **2 - h0) / scale,
        )
    return [
        CheckResult("pde", "residual", worst, 1e-4),
        CheckResult("pde", "constants of motion", conserved, 1e-14),
    ]


def check_pushforward(mu, t) -> list[CheckResult]:
    rep = maps.pushforward_check(mu, t)
    prof = brown.profile(mu, t, n_grid=256)
    rows = [
        CheckResult("pushforward", "rectangle masses", rep.max_discrepancy, 1e-5),
        # at most 2.1e-11 on the reference laws, on 3x^2 at t = 0.3
        CheckResult(
            "pushforward", "rectangle error estimate", max(rep.error_estimates, default=0.0), 1e-9
        ),
        CheckResult("pushforward", "total mass", abs(prof.mass - 1.0), 1e-6),
    ]
    # boundary agreement of the vertical-affine map with the holomorphic map
    worst = 0.0
    for lam_iv in prof.lambda_intervals:
        sw = brown.lambda_sweep(mu, t, lam_iv, 16)
        for a0, v, at in zip(sw["a0"][1:-1], sw["v"][1:-1], sw["at"][1:-1]):
            worst = max(worst, abs(complex(at, 2.0 * v) - subordination.j_t(mu, t, complex(a0, v))))
    rows.append(CheckResult("pushforward", "boundary agreement", worst, 1e-9))
    law = maps.law_additive(mu, t)
    rows.append(CheckResult("pushforward", "additive law mass", abs(law.cdf[-1] - 1.0), 1e-6))
    return rows


def run_all(mu, t) -> list[CheckResult]:
    rows = []
    rows += check_subordination(mu, t)
    rows += check_pushforward(mu, t)
    rows += check_jn(mu, t, n_points=60)
    rows += check_pde(mu, t, n_points=6)
    return rows


def format_table(rows: list[CheckResult]) -> str:
    lines = ["%-14s %-34s %12s %10s  %s" % ("suite", "check", "value", "limit", "status")]
    for r in rows:
        lines.append(
            "%-14s %-34s %12.3e %10.1e  %s"
            % (r.suite, r.name, r.value, r.threshold, "pass" if r.passed else "FAIL")
        )
    return "\n".join(lines)
