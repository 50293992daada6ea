import math

import numpy as np
import pytest

import ibrown.brown as B
import ibrown.maps as P
import ibrown.measure as M
import ibrown.subordination as S
from ibrown.errors import OutsideLambdaError, OutsideOmegaError

from conftest import FOUR_ATOMS, semicircle_cdf


def test_ut_boundary_agrees_with_j(sc, be23, un):
    for mu, t in ((sc, 1.0), (be23, 1.05), (un, 0.1)):
        for lo, hi in S.lambda_region(mu, t).intervals:
            for a0 in np.linspace(lo, hi, 9)[1:-1]:
                v = S.v_t(mu, t, a0)
                lam0 = complex(a0, v)
                assert P.u_t(mu, t, lam0) == pytest.approx(
                    S.j_t(mu, t, lam0), abs=1e-9
                )


def test_ut_elliptic_real_point(sc):
    assert P.u_t(sc, 1.0, 1.5 + 0j) == pytest.approx(1.0 + 0j, abs=1e-10)


def test_ut_vertical_linearity(sc):
    a0 = 0.8
    v = S.v_t(sc, 1.0, a0)
    base = P.u_t(sc, 1.0, complex(a0, 0.0))
    for frac in (0.25, 0.5, 0.9):
        out = P.u_t(sc, 1.0, complex(a0, frac * v))
        assert out.real == pytest.approx(base.real, abs=1e-12)
        assert out.imag == pytest.approx(2.0 * frac * v, abs=1e-12)
        conj = P.u_t(sc, 1.0, complex(a0, -frac * v))
        assert conj == pytest.approx(out.conjugate(), abs=1e-12)


def test_ut_outside_raises(sc):
    with pytest.raises(OutsideLambdaError):
        P.u_t(sc, 1.0, complex(0.0, 2.0))


def test_ut_inverse_round_trip(sc, be23):
    rng = np.random.default_rng(12)
    for mu, t in ((sc, 1.0), (be23, 1.05)):
        (al, ar), = B.omega_intervals(mu, t)
        count = 0
        while count < 25:
            a = rng.uniform(al, ar)
            bt = B.b_t(mu, t, a)
            if bt <= 1e-6:
                continue
            lam = complex(a, rng.uniform(-0.95, 0.95) * bt)
            back = P.u_t(mu, t, P.u_t_inverse(mu, t, lam))
            assert abs(back - lam) < 1e-10 * (1.0 + abs(lam))
            count += 1


def test_ut_inverse_elliptic_closed_form(sc):
    # (a, b) -> ((2s+t)/(2s) a, b/2)
    lam = 0.6 + 0.4j
    z = P.u_t_inverse(sc, 1.0, lam)
    assert z == pytest.approx(complex(0.9, 0.2), abs=1e-10)


def test_qt_elliptic_line(sc):
    # Q(a+ib) = ((s+t)/s) a
    assert P.q_t(sc, 1.0, 0.5 + 0.3j) == pytest.approx(1.0, abs=1e-10)
    for a in (-0.9, 0.0, 1.2):
        assert P.q_t(sc, 1.0, complex(a, 0.1)) == pytest.approx(2.0 * a, abs=1e-9)


def test_qt_ignores_imaginary_part(be23):
    t = 1.05
    a = 0.2
    bt = B.b_t(be23, t, a)
    vals = [P.q_t(be23, t, complex(a, f * bt)) for f in (0.0, 0.4, -0.8)]
    assert max(vals) - min(vals) == pytest.approx(0.0, abs=1e-13)


def test_qt_symmetric_center(sc, un):
    for mu, t in ((sc, 1.0), (un, 0.1)):
        assert P.q_t(mu, t, complex(0.0, 0.2)) == pytest.approx(0.0, abs=1e-10)


def test_qt_strictly_increasing(be23):
    t = 1.05
    (al, ar), = B.omega_intervals(be23, t)
    xs = np.linspace(al, ar, 41)[1:-1]
    vals = [P.q_t(be23, t, complex(a, 0.0)) for a in xs]
    assert all(x < y for x, y in zip(vals, vals[1:]))


def test_qt_boundary_consistency(be23, sc):
    # Q(a + i b_t(a)) = Re[H(J^{-1}(a + i b_t(a)))]
    for mu, t, pts in ((be23, 1.05, (-0.3, 0.4)), (sc, 1.0, (0.3, -0.8))):
        for a in pts:
            a0 = B.a0_of_a(mu, t, a)
            v = S.v_t(mu, t, a0)
            h = S.h_t(mu, t, complex(a0, v))
            assert P.q_t(mu, t, complex(a, 0.0)) == pytest.approx(h.real, abs=1e-8)


def test_qt_outside_raises(sc):
    with pytest.raises(OutsideOmegaError):
        P.q_t(sc, 1.0, 3.0 + 0j)


def test_maps_take_classify_boundary_band_past_the_ends(sc):
    # a point within the band past an end of the real section is "boundary",
    # and Q_t and U_t^{-1} map it through the source interval's end
    t = 1.0
    region = S.lambda_region(sc, t)
    (l, r), (al, ar) = region.intervals[0], region.images[0]
    for lam, end in ((complex(ar + 1e-10, 0.0), r), (complex(al - 5e-10, 1e-10), l)):
        assert B.classify(sc, t, lam).tag == "boundary"
        assert P.q_t(sc, t, lam) == 2.0 * end - lam.real
        assert P.u_t_inverse(sc, t, lam) == complex(end, 0.5 * lam.imag)


def test_circular_density_elliptic(sc):
    expect = 2.0 / (3.0 * math.pi)
    for lam0 in (0.0 + 0j, 0.5 + 0.2j, -1.2 + 0.1j):
        assert P.circular_density(sc, 1.0, lam0) == pytest.approx(expect, abs=1e-10)


def test_circular_density_solves_once(be23, monkeypatch):
    solve, calls = S._vt_solve, []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    for mod in (S, P):
        monkeypatch.setattr(mod, "_vt_solve", counted)
    P.circular_density(be23, 1.05, complex(0.2, 0.01))
    assert len(calls) == 1


def test_circular_density_total_mass(sc, be23):
    # int 2 v_t rho_t da0 = 1 over the source region
    for mu, t in ((sc, 1.0), (be23, 1.05)):
        total = 0.0
        for lo, hi in S.lambda_region(mu, t).intervals:
            xs = np.linspace(lo, hi, 4001)
            ys = []
            for a0 in xs[1:-1]:
                v = S.v_t(mu, t, a0)
                ys.append(2.0 * v * P.circular_density(mu, t, complex(a0, 0.0)))
            total += np.trapezoid([0.0] + ys + [0.0], xs)
        assert total == pytest.approx(1.0, abs=1e-4)


def test_law_additive_elliptic_is_semicircle(sc):
    # free convolution of semicircles: variance s + t
    prof = B.profile(sc, 1.0, n_grid=1024)
    dev = max(
        abs(c - semicircle_cdf(2.0, u)) for u, c in zip(prof.u[::17], prof.cdf[::17])
    )
    assert dev < 1e-5
    assert prof.mass == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("n_grid, bound", [(32, 1e-3), (1024, 5e-6)])
def test_u_cdf_against_the_semicircle(sc, n_grid, bound):
    # between the knots too, and past both ends, where it is 0 and 1
    prof = B.profile(sc, 1.0, n_grid=n_grid)
    us = np.linspace(-3.0, 3.0, 6001)
    exact = np.array([semicircle_cdf(2.0, u) for u in us])
    assert np.max(np.abs(prof.cdf_at_u(us) - exact)) <= bound


def test_cdfs_are_flat_across_the_gap(be12):
    # two intervals, each of mass 1/2: no mass between them in a or in u
    prof = B.profile(be12, 0.8, n_grid=64)
    assert len(prof.omega_intervals) == 2
    (l1, r1), (l2, r2) = prof.lambda_intervals
    (al1, ar1), (al2, ar2) = prof.omega_intervals
    first = prof.end_cdf[0][1]
    assert first == pytest.approx(0.5, abs=1e-12)
    assert prof.end_cdf[1][0] == first
    for cdf, lo, hi in (
        (prof.cdf_at_a, ar1, al2),
        (prof.cdf_at_u, 2.0 * r1 - ar1, 2.0 * l2 - al2),
    ):
        assert lo < hi
        assert np.all(np.abs(cdf(np.linspace(lo, hi, 101)) - 0.5) <= 1e-12)


def test_law_additive_density_identity(be23):
    # f = b_t/(2 pi t), and dQ/da = 4 pi t w_t by the chain rule
    t = 1.05
    prof = B.profile(be23, t, n_grid=256)
    for i in range(10, prof.u.size - 10, 40):
        a = prof.grid[i]
        assert prof.f[i] == pytest.approx(B.b_t(be23, t, a) / (2 * math.pi * t), abs=1e-9)
    h = 1e-5
    for a in (-0.2, 0.25):
        dq = (P.q_t(be23, t, complex(a + h, 0)) - P.q_t(be23, t, complex(a - h, 0))) / (2 * h)
        assert dq == pytest.approx(4 * math.pi * t * B.w_t(be23, t, a), rel=1e-4)


def test_law_additive_symmetric(un):
    prof = B.profile(un, 0.1, n_grid=256)
    mid = prof.u.size // 2
    assert np.allclose(prof.f[:mid], prof.f[::-1][:mid], atol=1e-10)
    (l, r), (al, ar) = prof.lambda_intervals[0], prof.omega_intervals[0]
    assert abs((2.0 * l - al) + (2.0 * r - ar)) < 1e-10


def test_pushforward_rectangles(sc, be23, quad):
    rep = P.pushforward_check(sc, 1.0)
    assert rep.max_discrepancy < 1e-6
    # 3x^2 vanishes to second order at an end of its support
    assert P.pushforward_check(quad, 0.3).max_discrepancy <= 1e-9
    rep = P.pushforward_check(be23, 1.05)
    assert rep.max_discrepancy < 1e-5
    # the full-region rectangle carries mass 1 on both sides
    full = [
        (s, g)
        for (a1, a2, b1, b2), s, g in zip(
            rep.rectangles, rep.source_masses, rep.target_masses
        )
        if b1 < 0.0 < b2  # the two-sided bands cover the whole height
    ]
    assert sum(s for s, _ in full) == pytest.approx(1.0, abs=1e-6)
    assert sum(g for _, g in full) == pytest.approx(1.0, abs=1e-6)


# the five reference laws: semicircle, Bernoulli 2/3, uniform, four atoms and
# 3x^2 on [0, 1], whose density has a double zero at the source region's end
REFERENCE_LAWS = {
    "semicircle": (M.semicircle(1.0), 1.0),
    "bernoulli": (M.bernoulli(2.0 / 3.0), 1.05),
    "uniform": (M.uniform(-1.0, 1.0), 0.1),
    "four_atoms": (FOUR_ATOMS, 0.5),
    "cubic_cdf": (M.piecewise_poly([(0.0, 1.0, (0.0, 0.0, 3.0))]), 0.3),
}


@pytest.mark.parametrize("name", REFERENCE_LAWS)
def test_pushforward_masses_against_a_finer_rule(name, monkeypatch):
    # the reference takes 8 times the nodes on every theta-piece of either side
    mu, t = REFERENCE_LAWS[name]
    rep = P.pushforward_check(mu, t)
    monkeypatch.setattr(P, "RULE_NODES", 8 * P.RULE_NODES)
    monkeypatch.setattr(P, "CHECK_NODES", 8 * P.CHECK_NODES)
    ref = P.pushforward_check(mu, t)
    assert rep.rectangles == ref.rectangles
    assert np.max(np.abs(np.subtract(rep.source_masses, ref.source_masses))) <= 1e-11
    assert np.max(np.abs(np.subtract(rep.target_masses, ref.target_masses))) <= 1e-11
    assert rep.max_discrepancy <= 1e-11
    # the embedded rule's estimate bounds the rule's own error with room
    assert max(rep.error_estimates) <= 1e-9
    assert len(rep.error_estimates) == len(rep.rectangles)


def test_clip_kinks_sit_on_the_level(be23, quad):
    # the half bands' clip kinks: v_t equals the level there, and a_t there
    # is the kink's image
    for mu, t in ((be23, 1.05), (quad, 0.3), (FOUR_ATOMS, 0.5)):
        region = S.lambda_region(mu, t)
        sweeps = B.lambda_sweep(mu, t, region.intervals, region.images, 64)
        for i in range(len(region.intervals)):
            sw = {key: rows[i] for key, rows in sweeps.items()}
            level = 0.45 * float(sw["v"].max())
            kinks_a0, kinks_a = P._v_crossings(mu, t, sw, level)
            assert len(kinks_a0) >= 2
            for x, a in zip(kinks_a0, kinks_a):
                v, at, _ = S._vt_solve(mu, t, x)
                assert v == pytest.approx(level, rel=1e-9)
                assert a == pytest.approx(at, abs=1e-12)


def test_pushforward_solves_its_nodes_as_arrays(monkeypatch):
    # scalar v_t solves only at the clip kinks, two per interval (their
    # a_t); the inner cuts join the target nodes' array inversion
    mu, t = FOUR_ATOMS, 0.5
    n_intervals = len(B.omega_intervals(mu, t))  # the cached region takes its own solves
    assert n_intervals == 4
    vt_solve, transforms, scalar, nodes = S._vt_solve, M.transforms, [], []

    def counted_solve(*args, **kwargs):
        scalar.append(args[2])
        return vt_solve(*args, **kwargs)

    def counted_bundle(mu, a0, v2):
        nodes.append(np.size(a0))
        return transforms(mu, a0, v2)

    for mod in (S, P):
        monkeypatch.setattr(mod, "_vt_solve", counted_solve)
    for mod in (M, S, P):
        monkeypatch.setattr(mod, "transforms", counted_bundle)
    rep = P.pushforward_check(mu, t)
    assert len(scalar) <= 2 * n_intervals
    # each interval has 4 or more theta-pieces per side, of RULE_NODES +
    # CHECK_NODES nodes each, all of which pass through array bundles
    assert sum(n for n in nodes if n > 1) >= 2 * 4 * n_intervals * (P.RULE_NODES + P.CHECK_NODES)
    assert rep.max_discrepancy <= 1e-11


def test_pushforward_source_nodes_start_from_the_coarse_sweep(be23, monkeypatch):
    # the source nodes' v_t solve starts from the coarse sweep's v; the masses
    # are those of a solve from sqrt(t)/2, to rounding
    hints = []
    solve = P._vt_solve_nodes

    def seen(mu, t, a0, v_hint=None):
        hints.append(v_hint)
        return solve(mu, t, a0, v_hint)

    monkeypatch.setattr(P, "_vt_solve_nodes", seen)
    warm = P.pushforward_check(be23, 1.05)
    assert hints and all(h is not None for h in hints)
    monkeypatch.setattr(P, "_vt_solve_nodes", lambda mu, t, a0, v_hint=None: solve(mu, t, a0))
    cold = P.pushforward_check(be23, 1.05)
    assert warm.rectangles == cold.rectangles
    assert np.max(np.abs(np.subtract(warm.source_masses, cold.source_masses))) <= 1e-14
    assert warm.target_masses == cold.target_masses


def test_pushforward_rectangle_layout(be23):
    # per region interval: three bands of N_RECT rectangles, the full height
    # first, then the upper and the lower half band, each cut at the same
    # abscissas from the interval's left to its right end
    mu, t = FOUR_ATOMS, 0.5
    rep = P.pushforward_check(mu, t)
    omega = B.omega_intervals(mu, t)
    n = P.N_RECT
    assert len(rep.rectangles) == 3 * n * len(omega)
    assert len(rep.source_masses) == len(rep.target_masses) == len(rep.rectangles)
    for k, (al, ar) in enumerate(omega):
        block = rep.rectangles[3 * n * k : 3 * n * (k + 1)]
        full, upper, lower = block[:n], block[n : 2 * n], block[2 * n :]
        cuts = [r[0] for r in full] + [full[-1][1]]
        assert cuts == pytest.approx(list(np.linspace(al, ar, n + 1)), abs=0.0)
        for band in (upper, lower):
            assert [r[:2] for r in band] == [r[:2] for r in full]
        top = full[0][3]
        assert all(r[2:] == (-top, top) for r in full)
        assert all(r[2] == 0.0 and 0.0 < r[3] < top for r in upper)
        assert all(r[3] == 0.0 and r[2] == -upper[0][3] for r in lower)
    # a one-interval law: the first third of the rectangles tiles the region
    rep = P.pushforward_check(be23, 1.05)
    assert len(rep.rectangles) == 3 * n
    assert sum(rep.source_masses[:n]) == pytest.approx(1.0, abs=1e-11)
    assert sum(rep.target_masses[:n]) == pytest.approx(1.0, abs=1e-11)


def test_sample_planar_respects_region(be23, be_profile):
    pts = P.sample_planar(be23, 1.05, 4000, seed=3)
    heights = be_profile.b_interp(pts.real)
    assert np.all(np.abs(pts.imag) <= heights + 1e-9)
    # marginal of the real part matches the law CDF
    import ibrown.rmt as R

    s = np.sort(pts.real)
    assert R.ks_statistic(s, be_profile.cdf_at_a(s)) < 0.04


def test_circular_density_raises_off_the_open_source_region(sc):
    # outside Lambda_t, where at_with_slope raises, and at |b0| >= v_t
    with pytest.raises(OutsideLambdaError):
        P.circular_density(sc, 1.0, complex(3.0, 0.0))
    v = S.v_t(sc, 1.0, 0.3)
    for b0 in (v, -v, 1.5 * v):
        with pytest.raises(OutsideLambdaError):
            P.circular_density(sc, 1.0, complex(0.3, b0))
    assert P.circular_density(sc, 1.0, complex(0.3, 0.5 * v)) > 0.0
