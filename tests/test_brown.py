import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ibrown.brown as B
import ibrown.characteristics as C
import ibrown.checks as K
import ibrown.jn as J
import ibrown.maps as P
import ibrown.measure as M
import ibrown.numerics as N
import ibrown.subordination as S
from ibrown.errors import NoConvergenceError, OutsideLambdaError, OutsideOmegaError, OutsideOnlyError

from conftest import FOUR_ATOMS, bernstein_piece, semicircle_cdf


def bernoulli_quartic(al, t, a):
    be = 1.0 - al
    return (
        -4 * a **4
        + 4 * t * (al - be) * a **3
        - (t * t + 4 * t - 8) * a **2
        + 2 * t * (t - 2) * (al - be) * a
        - (al - be) ** 2 * t * t
        + 4 * t
        - 4.0
    )


def test_a0_of_a_elliptic(sc):
    # a0(a) = (2s+t)/(2s) a
    assert B.a0_of_a(sc, 1.0, 1.0) == pytest.approx(1.5, abs=1e-10)
    assert B.a0_of_a(sc, 1.0, -0.4) == pytest.approx(-0.6, abs=1e-10)


def test_a0_of_a_bernoulli_center(be23):
    # (t/2)(beta - alpha) at a = 0
    assert B.a0_of_a(be23, 1.05, 0.0) == pytest.approx(-0.175, abs=1e-11)


def test_a0_of_a_symmetry(sc, un):
    for mu, t in ((sc, 1.0), (un, 0.1)):
        assert B.a0_of_a(mu, t, 0.0) == pytest.approx(0.0, abs=1e-11)


def test_a0_of_a_outside_raises(sc):
    with pytest.raises(OutsideOmegaError):
        B.a0_of_a(sc, 1.0, 2.0)


def test_bt_elliptic(sc):
    assert B.b_t(sc, 1.0, 0.0) == pytest.approx(math.sqrt(2.0), abs=1e-11)
    assert B.b_t(sc, 1.0, 1.0) == pytest.approx(
        math.sqrt(2.0) * math.sqrt(1.0 - 0.5), abs=1e-10
    )


def test_bt_bernoulli_quartic(be23):
    t, al = 1.05, 2.0 / 3.0
    for a in (-0.3, 0.0, 0.4, 0.8):
        expect = math.sqrt(bernoulli_quartic(al, t, a)) / (1.0 - a * a)
        assert B.b_t(be23, t, a) == pytest.approx(expect, abs=1e-10)


def test_bt_zero_outside(sc, be23):
    assert B.b_t(sc, 1.0, sc.support.hi + 1.0) == 0.0
    assert B.b_t(be23, 1.05, be23.support.hi + 1.0) == 0.0


def test_wt_elliptic_constant(sc):
    for a in (-1.2, -0.3, 0.0, 0.7, 1.3):
        assert B.w_t(sc, 1.0, a) == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-9)


def test_wt_bernoulli_closed_form(be23):
    t, al, be = 1.05, 2.0 / 3.0, 1.0 / 3.0
    for a in (-0.5, 0.0, 0.3, 0.77):
        expect = (1.0 / (4 * math.pi)) * (-1.0 / t + be / (a - 1) ** 2 + al / (a + 1) ** 2)
        assert B.w_t(be23, t, a) == pytest.approx(expect, abs=1e-10)


def test_wt_bernoulli_center_value(be23):
    assert B.w_t(be23, 1.05, 0.0) == pytest.approx(0.003789403407, abs=1e-9)


def test_wt_uniform_parametric_curve(un, un_profile):
    # (A_t(v), W_t(v)) parametric density: match the grid through v = b/2
    t = 0.1
    p = un_profile
    for a, b, w, flag in zip(p.grid, p.halfheight, p.density, p.flags):
        if flag != "ok" or a <= 0.0:
            continue
        v = 0.5 * b
        a0 = math.sqrt(2 * v / math.tan(2 * v / t) + 1 - v * v)
        a_param = a0 + 0.25 * t * math.log(1 - 4 * a0 / ((a0 + 1) ** 2 + v * v))
        w_param = (
            t * t
            + 4 * (t + 2) * v * v
            - t * (t + 4 * v * v) * math.cos(4 * v / t)
            - 4 * t * v * math.sin(4 * v / t)
        ) / (4 * math.pi * t * (-t * t + 8 * v * v + t * t * math.cos(4 * v / t)))
        assert a_param == pytest.approx(a, abs=1e-7)
        assert w_param == pytest.approx(w, abs=1e-7)


def test_profile_invariants(be_profile, be23):
    p = be_profile
    t = 1.05
    assert p.mass == pytest.approx(1.0, abs=1e-9)
    inner = [f == "ok" for f in p.flags]
    assert np.all(p.density[inner] > 0.0)
    assert np.all(np.diff(p.grid) > 0.0)
    # height ties to the source half-height through the boundary map
    for i in range(0, p.grid.size, 97):
        assert p.halfheight[i] == pytest.approx(
            2.0 * S.v_t(be23, t, p.a0[i]), abs=1e-9
        )
    # real parts stay strictly inside the support hull
    assert p.grid.min() > be23.support.lo
    assert p.grid.max() < be23.support.hi


def test_profile_round_trip(sc_profile, sc):
    p = sc_profile
    for a, a0, b in zip(p.grid, p.a0, p.halfheight):
        assert S.a_t(sc, 1.0, a0) == pytest.approx(a, abs=1e-10)
        assert b == pytest.approx(2.0 * S.v_t(sc, 1.0, a0), abs=1e-10)


@pytest.mark.parametrize("s,t", [(1.0, 1.0), (0.6, 1.4)])
def test_profile_semicircle_closed_form(s, t):
    # ellipse: b_t(a) = (2t/sqrt(s+t)) sqrt(1 - (a/A)^2) with A = 2s/sqrt(s+t),
    # and w_t = (1 + t/s)/(4 pi t), on every row, the end rows included
    p = B.profile(M.semicircle(s), t)
    big_a = 2.0 * s / math.sqrt(s + t)
    closed = (2.0 * t / math.sqrt(s + t)) * np.sqrt(1.0 - (p.grid / big_a) ** 2)
    assert np.max(np.abs(p.halfheight / closed - 1.0)) < 1e-9
    assert np.max(np.abs(p.density - (1.0 + t / s) / (4.0 * math.pi * t))) < 1e-10


def test_profile_needs_no_a0_inversion(sc, un, be23, monkeypatch):
    # every row is a forward evaluation of the source sweep
    def refuse(*args, **kwargs):
        raise AssertionError("profile inverted a_t")

    monkeypatch.setattr(B, "_a0_solve", refuse)
    for mu, t in ((sc, 1.0), (un, 0.1), (be23, 1.05)):
        p = B.profile(mu, t, n_grid=64)
        assert p.mass == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n_grid", [16, 100, 767, 1024])
def test_profile_solves_every_interval_at_once(n_grid, monkeypatch):
    # one sweep of the region's intervals at k (n_grid + 1) angles each, k
    # the least factor giving at least MASS_NODES, and in it one array v_t
    # solve: rows are every k-th interior node, and the mass is the sweep's cdf
    mu, t = FOUR_ATOMS, 0.5
    region = S.lambda_region(mu, t)
    assert len(region.intervals) == 4
    solve, calls = B._vt_solve_nodes, []

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(B, "_vt_solve_nodes", counted)
    p = B.profile(mu, t, n_grid=n_grid)
    assert len(calls) == 1
    k = -(-B.MASS_NODES // (n_grid + 1))
    sw = B.lambda_sweep(mu, t, region.intervals, region.images, k * (n_grid + 1))
    assert sw["a0"].shape == (4, k * (n_grid + 1) + 1)
    acc = 0.0
    for i, (sl, ends) in enumerate(zip(p.blocks(), p.end_cdf)):
        assert np.array_equal(p.grid[sl], sw["at"][i, k:-1:k])
        assert np.array_equal(p.a0[sl], sw["a0"][i, k:-1:k])
        assert np.array_equal(p.halfheight[sl], 2.0 * sw["v"][i, k:-1:k])
        assert np.array_equal(p.slope[sl], sw["slope"][i, k:-1:k])
        # the sweep's cumulative mass, from the region's left end
        assert np.array_equal(p.cdf[sl], acc + sw["cdf"][i, k:-1:k])
        assert ends == (acc, acc + sw["cdf"][i, -1])
        acc = ends[1]


def test_profile_sweep_passes_are_the_slowest_intervals(monkeypatch):
    # the intervals share their passes: the profile's array bundles at the
    # benchmark's grid are those of its slowest interval swept alone, not
    # their sum
    mu, t = FOUR_ATOMS, 0.5
    region = S.lambda_region(mu, t)
    transforms, bundles = S.transforms, []

    def counted(mu, a0, v2):
        if isinstance(a0, np.ndarray):
            bundles.append(a0.size)
        return transforms(mu, a0, v2)

    monkeypatch.setattr(S, "transforms", counted)
    alone = []
    for iv, im in zip(region.intervals, region.images):
        bundles.clear()
        B.lambda_sweep(mu, t, (iv,), (im,), 513)
        alone.append(len(bundles))
    bundles.clear()
    B.profile(mu, t, n_grid=512)
    assert bundles[0] == 4 * 512
    assert len(bundles) <= max(alone) < sum(alone)


@pytest.mark.parametrize("n_grid", [32, 256, 512, 1024])
def test_profile_row_cdf_is_exact_on_the_semicircle(n_grid):
    # the additive law of semicircle(1) at t = 1 is the semicircle of
    # variance 2: the sweep's cosine series integrates its mass exactly at
    # every row, where a cumulative trapezoid sum was 5e-7 off
    p = B.profile(M.semicircle(1.0), 1.0, n_grid=n_grid)
    exact = np.array([semicircle_cdf(2.0, u) for u in p.u])
    assert np.max(np.abs(p.cdf - exact)) < 1e-13
    assert p.mass == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize(
    "law, t, rows_tol, mass_tol",
    [(FOUR_ATOMS, 0.5, 1e-13, 1e-13), (M.bernoulli(0.5), 1.001, 1e-9, 1e-11)],
    ids=["four_atoms", "bernoulli_neck"],
)
def test_profile_cdf_against_a_finer_sweep(law, t, rows_tol, mass_tol):
    # at the rows' own angles in a sweep four times finer; Bernoulli 1/2 at
    # t = 1.001 has a narrow neck at 0, where the series converges slowest
    region = S.lambda_region(law, t)
    for n_grid in (64, 512):
        p = B.profile(law, t, n_grid=n_grid)
        k = -(-B.MASS_NODES // (n_grid + 1))
        fine = B.lambda_sweep(law, t, region.intervals, region.images, 4 * k * (n_grid + 1))
        acc = np.concatenate(([0.0], np.cumsum(fine["cdf"][:, -1])))
        rows = (acc[:-1, None] + fine["cdf"][:, 4 * k : -1 : 4 * k]).ravel()
        assert np.max(np.abs(p.cdf - rows)) < rows_tol
        assert abs(p.mass - acc[-1]) < mass_tol


def test_sweep_solves_its_interior_nodes_as_one_array(monkeypatch):
    # no scalar v_t solve, and at most 40 (array) bundles per interval: a
    # per-node loop would pass every value test
    mu, t = FOUR_ATOMS, 0.5
    scalar, bundles = [], []
    vt_solve, transforms = S._vt_solve, S.transforms

    def counted_solve(mu, t, a0, v_hint=None):
        scalar.append(a0)
        return vt_solve(mu, t, a0, v_hint=v_hint)

    for mod in (S, B):
        monkeypatch.setattr(mod, "_vt_solve", counted_solve)
    monkeypatch.setattr(S, "transforms", lambda *args: bundles.append(args) or transforms(*args))
    region = S.lambda_region(mu, t)
    for iv, im in zip(region.intervals, region.images):
        scalar.clear()
        bundles.clear()
        sw = B.lambda_sweep(mu, t, (iv,), (im,), 1026)
        assert not scalar  # a_t at the ends is the region's image
        assert 0 < len(bundles) <= 40
        assert sum(np.size(args[1]) for args in bundles) >= 1025
        assert sw["cdf"][0, -1] > 0.0


def test_pointwise_queries_invert_once(be23, sc, monkeypatch):
    # one a0(a) inversion per query, and no v_t solve outside it; none above
    # 2 sqrt(t), which tops every height
    solve, vt_solve, calls, depth = B._a0_solve, S._vt_solve, [], []

    def counted(*args):
        calls.append(args)
        depth.append(1)
        try:
            return solve(*args)
        finally:
            depth.pop()

    def inside_only(*args, **kwargs):
        assert depth, "v_t solved outside the inversion"
        return vt_solve(*args, **kwargs)

    for mu, t in ((be23, 1.05), (sc, 1.0)):
        B.omega_intervals(mu, t)  # the cached region takes its own solves
    monkeypatch.setattr(B, "_a0_solve", counted)
    for mod in (S, B, P):
        monkeypatch.setattr(mod, "_vt_solve", inside_only)
    lam = 0.3 + 0.1j
    queries = [(fn, 0.3) for fn in (B.b_t, B.w_t, B.a0_of_a)]
    queries += [(fn, lam) for fn in (B.classify, P.q_t, P.u_t_inverse)]
    queries.append((lambda mu, t, z: C.s_of(mu, t, z, 1e-3), lam))
    for fn, x in queries:
        calls.clear()
        fn(be23, 1.05, x)
        assert len(calls) == 1
    calls.clear()
    B.s_outside(be23, 1.05, 0.3 + 3j)
    assert not calls

    # in kernel bundles on the semicircle: q_t took 12 when it inverted twice,
    # and s_outside far above the region 7
    transforms, bundles = M.transforms, []
    for mod in (M, S, C):
        monkeypatch.setattr(mod, "transforms", lambda *args: bundles.append(1) or transforms(*args))
    P.q_t(sc, 1.0, 0.5 + 0.1j)
    assert len(bundles) <= 6
    bundles.clear()
    B.s_outside(sc, 1.0, 0.3 + 3j)
    assert len(bundles) <= 1


def test_array_inversion_matches_the_pointwise_one():
    # one array inversion a -> a0 per interval, from a coarse sweep's
    # interpolation, meets the scalar solve's residual tolerance, and the
    # slope and v it returns are the ones at its roots
    mu, t = FOUR_ATOMS, 0.5
    region = S.lambda_region(mu, t)
    sw = B.lambda_sweep(mu, t, region.intervals, region.images, 64)
    for (al, ar), (l, r), at_row, a0_row in zip(region.images, region.intervals, sw["at"], sw["a0"]):
        a = al + (ar - al) * np.array([1e-9, 1e-4, 0.1, 0.37, 0.5, 0.9, 1.0 - 1e-6])
        a0, slope, v = B._a0_solve_nodes(mu, t, a, (l, r), (al, ar), np.interp(a, at_row, a0_row))
        for i, x in enumerate(a):
            ftol = B._a0_ftol(x, al, ar)
            v_at, at, slope_at = S._vt_solve(mu, t, float(a0[i]))
            assert abs(at - x) <= ftol
            # both roots are within their tolerance of the true one
            assert abs(a0[i] - B.a0_of_a(mu, t, float(x))) <= 2.0 * ftol / slope_at
            assert slope[i] == pytest.approx(slope_at, rel=1e-9)
            assert v[i] == pytest.approx(v_at, rel=1e-9)


def test_array_inversion_cap_is_loud(be23, monkeypatch):
    # the one pass cap of bracket_newton, which the inversion and its v_t
    # solves share
    region = S.lambda_region(be23, 1.05)
    lam_iv, omega_iv = region.intervals[0], region.images[0]
    a = np.linspace(*omega_iv, 9)[1:-1]
    monkeypatch.setattr(N, "_PASSES", 1)
    with pytest.raises(NoConvergenceError):
        B._a0_solve_nodes(be23, 1.05, a, lam_iv, omega_iv, np.full(a.size, lam_iv[0]))


def test_scalar_inversion_cap_is_loud(be23, monkeypatch):
    region = S.lambda_region(be23, 1.05)
    (l, r), (al, ar) = region.intervals[0], region.images[0]
    monkeypatch.setattr(N, "_PASSES", 1)
    with pytest.raises(NoConvergenceError):
        B._a0_solve(be23, 1.05, 0.5 * (al + ar), (l, r), (al, ar))


def test_inversion_exit_bounds_the_step():
    # where da_t/da0 is small a residual test alone left a0 1e-11 off; the
    # step test keeps it within 2e-12 of a Newton-polished root
    mu, t = FOUR_ATOMS, 0.5
    (al, ar) = S.lambda_region(mu, t).images[-1]
    for a in np.linspace(al, ar, 52)[1:-1]:
        a0 = x = B.a0_of_a(mu, t, float(a))
        for _ in range(3):
            _, at, slope = S._vt_solve(mu, t, x)
            x -= (at - a) / slope
        assert abs(a0 - x) <= 2e-12


def test_inversion_raises_where_an_iterate_reads_off_the_region(monkeypatch):
    # an iterate whose v_t solve finds p0(a0, 0) <= 1/t has slope nan: the
    # inversion raises there instead of taking a0 - t G(a0) for a_t
    mu, t = FOUR_ATOMS, 0.5
    region = S.lambda_region(mu, t)
    for (l, r), (al, ar) in zip(region.intervals, region.images):
        assert B._a0_solve(mu, t, 0.5 * (al + ar), (l, r), (al, ar))[1] > 0.0
    monkeypatch.setattr(S, "p0_zero", lambda mu, x: 0.0)
    for (l, r), (al, ar) in zip(region.intervals, region.images):
        with pytest.raises(OutsideLambdaError):
            B._a0_solve(mu, t, 0.5 * (al + ar), (l, r), (al, ar))


def test_profile_vertical_mass(sc_profile):
    # 2D density integrates to 1 over the region: 2 b_t w_t along the section
    p = sc_profile
    assert p.mass == pytest.approx(1.0, abs=1e-8)


def test_profile_needs_sixteen_rows(sc):
    with pytest.raises(ValueError, match="at least 16"):
        B.profile(sc, 1.0, n_grid=15)


def test_profile_flags(sc_profile):
    flags = list(sc_profile.flags)
    assert flags[0] == "near_boundary" and flags[-1] == "near_boundary"
    assert flags.count("near_boundary") == 2 * len(sc_profile.omega_intervals)


def test_da0_da_exceeds_half(be_profile):
    # density positive iff da0/da > 1/2
    assert np.all(be_profile.density > 0.0)


def test_wt_matches_finite_difference_pipeline(be23, sc):
    h = 1e-6
    for mu, t, pts in ((be23, 1.05, (-0.2, 0.3)), (sc, 1.0, (0.0, 0.9))):
        for a in pts:
            da0 = (B.a0_of_a(mu, t, a + h) - B.a0_of_a(mu, t, a - h)) / (2 * h)
            w_fd = (1.0 / (2 * math.pi * t)) * (da0 - 0.5)
            assert B.w_t(mu, t, a) == pytest.approx(w_fd, abs=1e-5)


def test_classify_examples(sc):
    assert B.classify(sc, 1.0, 0.0).tag == "inside"
    assert B.classify(sc, 1.0, sc.support.hi + 1.0).tag == "outside"
    a = 0.5
    bt = B.b_t(sc, 1.0, a)
    assert B.classify(sc, 1.0, complex(a, bt)).tag == "boundary"
    assert B.classify(sc, 1.0, complex(a, -bt)).tag == "boundary"


def test_classify_margin_invariant(sc):
    # boundary tag iff |margin| <= tol
    for lam in (0.0 + 0j, 0.5 + 0.2j, 3.0 + 0j, 0.5 + 2j, complex(0.5, B.b_t(sc, 1.0, 0.5))):
        verdict = B.classify(sc, 1.0, lam)
        tol = 1e-9 * (1.0 + abs(lam))
        assert (verdict.tag == "boundary") == (abs(verdict.margin) <= tol)


def test_s_outside_harmonic(sc, be23, un):
    h = 1e-3
    cases = ((sc, 1.0, 2.0 + 0.5j), (be23, 1.05, 1.3 - 0.8j), (un, 0.1, 0.2 + 0.9j))
    for mu, t, lam in cases:
        s0 = B.s_outside(mu, t, lam)
        lap = (
            B.s_outside(mu, t, lam + h)
            + B.s_outside(mu, t, lam - h)
            + B.s_outside(mu, t, lam + 1j * h)
            + B.s_outside(mu, t, lam - 1j * h)
            - 4.0 * s0
        ) / (h * h)
        assert abs(lap) < 1e-4 * (1.0 + abs(s0))


def test_s_outside_far_field(sc):
    lam = 200.0 + 10.0j
    assert B.s_outside(sc, 1.0, lam) == pytest.approx(2.0 * math.log(abs(lam)), rel=1e-3)


def test_s_outside_conjugation(be23):
    lam = 1.4 + 0.9j
    assert B.s_outside(be23, 1.05, lam) == pytest.approx(
        B.s_outside(be23, 1.05, lam.conjugate()), abs=1e-11
    )


def test_s_outside_rejects_inside(sc):
    with pytest.raises(OutsideOnlyError):
        B.s_outside(sc, 1.0, 0.0 + 0.1j)


def test_quad_density_end_to_end(quad):
    # vanishing-density law: left region endpoint touches the support
    t = 0.25
    p = B.profile(quad, t, n_grid=64)
    assert p.mass == pytest.approx(1.0, abs=1e-6)
    (al, ar), = p.omega_intervals
    assert al == pytest.approx(0.375, abs=1e-8)  # 0 - t * int 3x^2/(0-x) dx = 3t/2
    assert np.all(p.density[1:-1] > 0.0)


def test_uniform_height_unimodal(un_profile):
    b = un_profile.halfheight
    peak = int(np.argmax(b))
    assert abs(un_profile.grid[peak]) < 0.02
    assert np.all(np.diff(b[: peak + 1]) > -1e-12)
    assert np.all(np.diff(b[peak:]) < 1e-12)


def test_profile_mass_with_tiny_isolated_atom():
    mu = M.atomic([(-1.0, 0.5), (1.0, 0.5 - 1e-6), (10.0, 1e-6)])
    p = B.profile(mu, 0.01, n_grid=64)
    assert len(p.omega_intervals) == 3
    assert p.mass == pytest.approx(1.0, abs=1e-9)


def test_profile_mass_with_interior_double_zero():
    mu = M.piecewise_poly([(-1.0, 2.0, (0.09, -0.6, 1.0))])
    p = B.profile(mu, 0.3, n_grid=64)
    assert len(p.omega_intervals) == 2
    assert p.mass == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "pieces",
    [
        [(-1.0, 2.0, tuple(np.polynomial.polynomial.polypow([-0.3, 1.0], 4)))],
        [(0.0, 1.0, (0.0, 0.0, 0.0, 4.0))],
    ],
    ids=["interior_fourth_order_zero", "cubic_edge_zero"],
)
def test_profile_next_to_a_high_order_zero(pieces):
    # next to these zeros v_t drops below what the kernels resolve (it reads
    # 0 there), and every row still solves: a0 increases, a_t round-trips,
    # and the mass left of each row, flat where v_t reads 0, never falls
    mu, t = M.piecewise_poly(pieces), 0.3
    p = B.profile(mu, t)
    assert p.mass == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.diff(p._knots(p.cdf, p.end_cdf)) >= 0.0)
    for sl in p.blocks():
        assert np.all(np.diff(p.a0[sl]) > 0.0)
    assert np.all(np.isfinite(p.density)) and np.all(p.density > 0.0)
    for a, a0, b in zip(p.grid, p.a0, p.halfheight):
        assert S.a_t(mu, t, a0) == pytest.approx(a, abs=1e-10)
        assert b == pytest.approx(2.0 * S.v_t(mu, t, a0), abs=1e-10)


def gap_minima(xs, ws):
    """Minimum of sum w/(a0 - x)^2 on each gap between consecutive atoms, by
    bisection on its derivative -2 sum w/(a0 - x)^3, increasing on a gap."""
    lo, hi = xs[:-1].copy(), xs[1:].copy()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        slope = -2.0 * np.sum(ws / (mid[:, None] - xs) ** 3, axis=1)
        up = slope > 0.0
        hi = np.where(up, mid, hi)
        lo = np.where(up, lo, mid)
    mid = 0.5 * (lo + hi)
    return np.sum(ws / (mid[:, None] - xs) ** 2, axis=1)


@st.composite
def laws_with_a_tiny_atom(draw):
    xs = draw(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=4))
    ws = draw(st.lists(st.floats(0.1, 1.0), min_size=len(xs), max_size=len(xs)))
    tiny = draw(st.floats(-6.0, 6.0))
    assume(min(abs(x - y) for i, x in enumerate(xs) for y in xs[i + 1 :]) > 0.05)
    assume(min(abs(tiny - x) for x in xs) > 0.5)
    w_tiny = 10.0 ** draw(st.floats(-7.0, -5.0))
    return M.atomic(list(zip(xs, ws)) + [(tiny, w_tiny)])


@settings(max_examples=25, derandomize=True, deadline=None)
@given(mu=laws_with_a_tiny_atom(), log_t=st.floats(-2.5, 0.0))
def test_region_and_mass_with_a_tiny_isolated_atom(mu, log_t):
    t = 10.0 ** log_t
    xs, ws = (np.array(a) for a in zip(*mu.atoms))
    minima = gap_minima(xs, ws)
    assume(np.all(np.abs(minima * t - 1.0) > 1e-6))  # no gap near tangency
    expect = 1 + int(np.sum(minima <= 1.0 / t))
    assert len(S.lambda_region(mu, t).intervals) == expect
    assert B.profile(mu, t, n_grid=64).mass == pytest.approx(1.0, abs=1e-9)


@st.composite
def laws_and_times_around_a_merge(draw):
    """A 2-4-atom law and t within a factor 2 of the value at which one of
    its gaps closes, on either side of it."""
    xs = draw(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=4))
    ws = draw(st.lists(st.floats(0.1, 1.0), min_size=len(xs), max_size=len(xs)))
    assume(min(abs(x - y) for i, x in enumerate(xs) for y in xs[i + 1 :]) > 0.2)
    mu = M.atomic(list(zip(xs, ws)))
    minima = gap_minima(*(np.array(a) for a in zip(*mu.atoms)))
    gap = draw(st.integers(0, minima.size - 1))
    factor = draw(st.floats(-1.0, 1.0).filter(lambda x: abs(x) > 0.01))
    return mu, 2.0**factor / minima[gap]


def located_tag(mu, t, lam):
    """classify's tag from b_t at Re lam clamped onto the nearest interval of
    the real section, and that clamped abscissa (None beyond the band)."""
    band = 1e-9 * (1.0 + abs(lam))
    a, b = lam.real, abs(lam.imag)
    al, ar = min(B.omega_intervals(mu, t), key=lambda iv: max(iv[0] - a, 0.0, a - iv[1]))
    if max(al - a, 0.0, a - ar) > band:
        return "outside", None
    x = min(max(a, al), ar)
    margin = b - B.b_t(mu, t, x)
    return ("inside" if margin < -band else "boundary" if margin <= band else "outside"), x


@settings(max_examples=25, derandomize=True, deadline=None)
@given(law=laws_and_times_around_a_merge())
def test_locator_agrees_with_the_height_and_the_maps(law):
    # inside, in the band, in a gap and far above each interval's image
    mu, t = law
    region = S.lambda_region(mu, t)
    assert B.omega_intervals(mu, t) == region.images
    top = 2.0 * math.sqrt(t) + 1.0
    points = []
    for k, (al, ar) in enumerate(region.images):
        a = al + 0.3 * (ar - al)
        h = B.b_t(mu, t, a)
        points += [complex(a, 0.5 * h), complex(a, h + 1e-10), complex(a, -h - 1e-8)]
        points += [complex(ar + 2e-10, 0.0), complex(al - 5e-10, 1e-10), complex(a, top)]
        if k + 1 < len(region.images):
            points.append(complex(0.5 * (ar + region.images[k + 1][0]), 0.01))
    for lam in points:
        tag, x = located_tag(mu, t, lam)
        assert B.classify(mu, t, lam).tag == tag
        if tag == "outside":
            continue
        q, z = P.q_t(mu, t, lam), P.u_t_inverse(mu, t, lam)
        assert q == 2.0 * z.real - lam.real
        assert abs(S.a_t(mu, t, z.real) - x) <= 1e-9 * (1.0 + abs(lam))


@st.composite
def atoms_away_from_a_merge(draw):
    """laws_and_times_around_a_merge's draw, with t at least 2^0.05 (3.5 %)
    away from every gap's split threshold: nearer, the profile's error is
    the merge's (ROADMAP item 2)."""
    mu, t = draw(laws_and_times_around_a_merge())
    minima = gap_minima(*(np.array(a) for a in zip(*mu.atoms)))
    assume(np.all(np.abs(np.log2(t * minima)) >= 0.05))
    return mu, t


@st.composite
def contiguous_piecewise_laws(draw):
    """1-3 touching pieces, each positive in the Bernstein basis, as
    test_kernel_oracle.random_laws builds them, at t = 10^U[-1.3, 0.3]."""
    pieces, x = [], draw(st.floats(-2.0, 1.0))
    for _ in range(draw(st.integers(1, 3))):
        w = draw(st.floats(0.2, 1.5))
        beta = draw(st.lists(st.floats(0.05, 2.0), min_size=1, max_size=4))
        pieces.append((x, x + w, bernstein_piece(x, x + w, beta)))
        x += w
    return M.piecewise_poly(pieces), 10.0 ** draw(st.floats(-1.3, 0.3))


def monomial_mass(mu):
    """1 for an atomic law; for a piecewise law, int sum_k |c_k x^k| dx over
    its pieces, the mass of the monomial terms that the kernels shift and
    sum: their rounding, and so the profile's mass error, scales with it."""
    if not mu.pieces:
        return 1.0
    # sign(x) |x|^(k+1)/(k+1) is an antiderivative of |x|^k
    return sum(
        abs(c) * (hi * abs(hi) ** k - lo * abs(lo) ** k) / (k + 1)
        for lo, hi, coeffs in mu.pieces
        for k, c in enumerate(coeffs)
    )


@pytest.mark.parametrize("family", [atoms_away_from_a_merge, contiguous_piecewise_laws])
@settings(max_examples=25, derandomize=True, deadline=None)
@given(data=st.data())
def test_profile_invariants_on_random_laws(family, data):
    # the paper's invariants on one profile: unit mass, a monotone boundary
    # map with its slope in (0, 2), J_t and H_t on the boundary, the fixed
    # point's t Re g = a0 - a, and the additive law's CDF
    mu, t = data.draw(family())
    prof = B.profile(mu, t, 64)
    scale = monomial_mass(mu)
    assert abs(prof.mass - 1.0) <= 1e-13 * scale
    ends = [e for iv in prof.omega_intervals for e in iv]
    assert all(x < y for x, y in zip(ends[:-1], ends[1:]))
    for sl, (al, ar) in zip(prof.blocks(), prof.omega_intervals):
        assert np.all(np.diff(np.concatenate(([al], prof.grid[sl], [ar]))) > 0.0)
    assert np.all((prof.slope > 0.0) & (prof.slope < 2.0))
    jv, hv, _ = K.boundary_maps(mu, t, prof)
    assert np.max(np.abs(jv.imag - prof.halfheight)) <= 1e-9
    assert np.max(np.abs(hv.imag)) <= 1e-9
    for i in K.fixed_point_rows(prof, 3, 2):
        a = float(prof.grid[i])
        g, _ = J._solve_g(mu, t, a)
        assert abs(t * g.real - (prof.a0[i] - a)) <= 1e-8
    (l, r), (_, ar) = prof.lambda_intervals[-1], prof.omega_intervals[-1]
    u_end = 2.0 * r - ar
    u = np.linspace(2.0 * prof.lambda_intervals[0][0] - prof.omega_intervals[0][0] - 0.1, u_end, 2001)
    assert np.all(np.diff(prof.cdf_at_u(u)) >= 0.0)
    assert abs(prof.cdf_at_u(u_end) - 1.0) <= 1e-13 * scale


def test_w_t_raises_at_an_interval_end(sc):
    # the locator puts an end of the real section on the region's closure,
    # where the slope is not defined
    (al, ar), = B.omega_intervals(sc, 1.0)
    for a in (al, ar):
        with pytest.raises(OutsideOmegaError, match="strictly inside"):
            B.w_t(sc, 1.0, a)
