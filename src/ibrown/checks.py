"""Named invariant suites shared by the CLI verify subcommand and the tests.

Each suite returns a list of CheckResult rows; a row passes when value <=
threshold (or the boolean holds). Suites cover the subordination identities,
fixed-point equivalence, flow/PDE residuals, and the pushforward structure.
The pushforward and characteristics subcommands report the suites' boundary
maps, PDE samples and constants of motion from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import brown, characteristics, jn, maps, subordination
from .measure import cauchy


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    value: float
    threshold: float

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.threshold)


#: rows of the profile the jn suite solves at, over all intervals
JN_POINTS = 60


def fixed_point_rows(profile, per_block, margin) -> list[int]:
    """Indices of up to per_block rows of each block, evenly spaced and at
    least margin rows from its ends, that have a positive height: where b_t
    is 0, g = G(a + t conj(g)) has no complex solution."""
    rows = []
    for sl in profile.blocks():
        size = sl.stop - sl.start
        take = np.linspace(margin, size - 1 - margin, min(per_block, max(size - 2 * margin, 1))).astype(int)
        rows.extend(sl.start + take)
    return [i for i in rows if profile.halfheight[i] > 0]


def boundary_maps(mu, t, prof) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """J_t and H_t at each row's source point z = a0 + i v_t from one G there,
    and the gap |U_t - J_t|, J_t's distance from the row's point a + i b_t."""
    z = prof.a0 + 1j * (0.5 * prof.halfheight)
    g = np.array([cauchy(mu, x) for x in z])
    jv = z - t * g
    return jv, z + t * g, np.abs(prof.grid + 1j * prof.halfheight - jv)


def check_subordination(mu, t, prof, jv, hv) -> list[CheckResult]:
    root_t = math.sqrt(t)
    v = 0.5 * prof.halfheight
    j_identity = float(np.max(np.abs(jv.imag - 2.0 * v)))
    h_real = float(np.max(np.abs(hv.imag)))
    rows = [
        CheckResult("subordination", "v_t < sqrt(t)", max(float(v.max()) - root_t, 0.0), 0.0),
        CheckResult(
            "subordination", "a_t strictly increasing", float(np.max(-np.diff(prof.grid))), 0.0
        ),
        CheckResult(
            "subordination",
            "slope in (0,2)",
            max(float(np.max(-prof.slope)), float(np.max(prof.slope - 2.0)), 0.0),
            0.0,
        ),
        CheckResult("subordination", "Im J = 2 v_t on boundary", j_identity, 1e-9),
        CheckResult("subordination", "H real on boundary", h_real, 1e-9),
    ]

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


def check_jn(mu, t, prof) -> list[CheckResult]:
    """The fixed-point route against the profile: one solve per row gives g
    and G', from which its density, t Re g and, on every eighth row, the
    Poisson identity follow."""
    density_dev = 0.0
    re_identity = 0.0
    poisson = 0.0
    per_interval = max(8, JN_POINTS // max(len(prof.omega_intervals), 1))
    rows = fixed_point_rows(prof, per_interval, 2)
    stride = max(len(rows) // 8, 1)
    for k, i in enumerate(rows):
        a = float(prof.grid[i])
        g, gp = jn._solve_g(mu, t, a)
        re_identity = max(re_identity, abs(t * g.real - (prof.a0[i] - a)))
        density_dev = max(density_dev, abs(jn._density(t, a, gp) - prof.density[i]))
        if k % stride == 0:
            poisson = max(poisson, jn._poisson_residual(mu, t, a, g))
    return [
        CheckResult("jn", "density equivalence", density_dev, 1e-5),
        CheckResult("jn", "t*Re g = a0 - a", re_identity, 1e-8),
        CheckResult("jn", "Poisson identity", poisson, 1e-10),
    ]


def pde_samples(mu, t, seed, n) -> list[tuple[complex, float, float]]:
    """(lam, eps, PDE residual) at n points drawn from seed, lam within 2 of
    the support's span in Re and 1.5 in Im, eps in (0.1, 1)."""
    rng = np.random.default_rng(seed)
    span = max(abs(mu.support.lo), abs(mu.support.hi))
    samples = []
    for _ in range(n):
        lam = complex(rng.uniform(-span - 2.0, span + 2.0), rng.uniform(-1.5, 1.5))
        eps = rng.uniform(0.1, 1.0)
        samples.append((lam, eps, characteristics.pde_residual(mu, t, lam, eps)))
    return samples


def constants_of_motion(mu) -> float:
    """Largest relative drift of the momenta, eps p_eps^2 and H along one
    characteristic, sampled up to 0.95 of its lifetime."""
    span = max(abs(mu.support.lo), abs(mu.support.hi))
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
    return conserved


def check_pde(mu, t) -> list[CheckResult]:
    samples = pde_samples(mu, t, 5, 6)  # the same points on every run
    worst = max((res for _, _, res in samples), default=0.0)
    return [
        CheckResult("pde", "residual", worst, 1e-4),
        CheckResult("pde", "constants of motion", constants_of_motion(mu), 1e-14),
    ]


def check_pushforward(mu, t, prof, gap) -> list[CheckResult]:
    rep = maps.pushforward_check(mu, t)
    worst = float(gap.max())
    (l, r), (_, ar) = prof.lambda_intervals[-1], prof.omega_intervals[-1]
    return [
        CheckResult("pushforward", "rectangle masses", rep.max_discrepancy, 1e-5),
        # at most 2.1e-11 on the reference laws, on 3x^2 at t = 0.3
        CheckResult(
            "pushforward", "rectangle error estimate", max(rep.error_estimates, default=0.0), 1e-9
        ),
        CheckResult("pushforward", "total mass", abs(prof.mass - 1.0), 1e-6),
        CheckResult("pushforward", "boundary agreement", worst, 1e-9),
        CheckResult(
            "pushforward", "additive law mass", abs(float(prof.cdf_at_u(2.0 * r - ar)) - 1.0), 1e-6
        ),
    ]


def run_all(mu, t) -> list[CheckResult]:
    prof = brown.profile(mu, t, n_grid=256)
    jv, hv, gap = boundary_maps(mu, t, prof)
    rows = []
    rows += check_subordination(mu, t, prof, jv, hv)
    rows += check_pushforward(mu, t, prof, gap)
    rows += check_jn(mu, t, prof)
    rows += check_pde(mu, t)
    return rows


def format_table(rows: list[CheckResult]) -> str:
    lines = ["%-14s %-34s %12s %10s  %s" % ("suite", "check", "value", "limit", "status")]
    for r in rows:
        lines.append(
            "%-14s %-34s %12.3e %10.1e  %s"
            % (r.suite, r.name, r.value, r.threshold, "pass" if r.passed else "FAIL")
        )
    return "\n".join(lines)
