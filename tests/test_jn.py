import math

import numpy as np
import pytest

import ibrown.brown as B
import ibrown.checks as C
import ibrown.jn as J
import ibrown.measure as M
from ibrown.errors import DegenerateJacobianError, NoConvergenceError, OutsideOmegaError

from conftest import FOUR_ATOMS


def test_real_part_identity(sc, be23, un):
    for mu, t, pts in ((sc, 1.0, (0.5, -1.1)), (be23, 1.05, (0.0, 0.4)), (un, 0.1, (0.3,))):
        for a in pts:
            g = J.solve_g(mu, t, a)
            a0 = B.a0_of_a(mu, t, a)
            assert t * g.real == pytest.approx(a0 - a, abs=1e-10)


def test_imaginary_part_identity(be23):
    # t |Im g| = v_t(a + t Re g)
    import ibrown.subordination as S

    t = 1.05
    for a in (-0.3, 0.1, 0.55):
        g = J.solve_g(be23, t, a)
        assert t * abs(g.imag) == pytest.approx(
            S.v_t(be23, t, a + t * g.real), abs=1e-10
        )


def test_symmetric_center(sc, un):
    for mu, t in ((sc, 1.0), (un, 0.1)):
        g = J.solve_g(mu, t, 0.0)
        assert g.real == pytest.approx(0.0, abs=1e-11)
        assert g.imag > 0.0


def test_fixed_point_residual(sc, be23):
    for mu, t, a in ((sc, 1.0, 0.7), (be23, 1.05, -0.2)):
        g = J.solve_g(mu, t, a)
        z = a + t * g.conjugate()
        assert abs(g - M.cauchy(mu, z)) < 1e-11


def test_density_elliptic(sc):
    for a in (-0.9, 0.0, 0.6):
        assert J.jn_density(sc, 1.0, a) == pytest.approx(1.0 / (2 * math.pi), abs=1e-8)


def test_density_bernoulli_center(be23):
    assert J.jn_density(be23, 1.05, 0.0) == pytest.approx(0.003789403407, abs=1e-8)


def test_density_matches_main_pipeline(sc_profile, be_profile, sc, be23):
    cases = ((sc, 1.0, sc_profile), (be23, 1.05, be_profile))
    for mu, t, prof in cases:
        sel = range(4, prof.grid.size - 4, max(prof.grid.size // 40, 1))
        for i in sel:
            a = float(prof.grid[i])
            assert J.jn_density(mu, t, a) == pytest.approx(prof.density[i], abs=1e-5)


def test_poisson_identity(be23, sc):
    for mu, t, a in ((be23, 1.05, 0.3), (sc, 1.0, -0.5)):
        assert J.poisson_identity_residual(mu, t, a) < 1e-10


def test_boundary_gap_signs(be23):
    # the gap (b/(2t))^2 - (Im g)^2 vanishes at the height b_t, and is
    # negative below it and positive above
    t = 1.05
    a = 0.2
    bt = B.b_t(be23, t, a)
    g = J.solve_g(be23, t, a)
    assert (bt / (2.0 * t)) ** 2 - g.imag**2 == pytest.approx(0.0, abs=1e-8)
    assert 0.0 < g.imag < bt / t


def test_no_complex_solution_outside(sc):
    with pytest.raises(NoConvergenceError):
        J.solve_g(sc, 1.0, sc.support.hi + 1.5)


def test_random_atomic_equivalence():
    rng = np.random.default_rng(23)
    for _ in range(3):
        n = rng.integers(2, 9)
        xs = rng.uniform(-2, 2, n)
        ws = rng.uniform(0.1, 1.0, n)
        mu = M.atomic(list(zip(xs, ws)))
        t = rng.uniform(0.3, 2.0)
        prof = B.profile(mu, t, n_grid=64)
        sel = range(3, prof.grid.size - 3, max(prof.grid.size // 12, 1))
        for i in sel:
            a = float(prof.grid[i])
            assert J.jn_density(mu, t, a) == pytest.approx(prof.density[i], abs=1e-5)


def test_density_next_to_region_edge(un_profile, un):
    # the nodes next to the region's edges (1.5e-4 from them), where Re g
    # bends fastest: a central difference of step 1e-5 is off by 6e-8 there
    for i in (1, un_profile.grid.size - 2):
        a = float(un_profile.grid[i])
        assert J.jn_density(un, 0.1, a) == pytest.approx(un_profile.density[i], abs=1e-8)


def test_no_fixed_point_outside_the_region():
    # outside the region's real section, between and beyond its four
    # intervals: a scan of source abscissas once converged there to roots
    # with Im g near 2e-12 and gave a density of 0.02-0.06 where it is 0
    mu, t = FOUR_ATOMS, 0.5
    for a in (0.0441, 0.1429, 2.6948, -2.1863):
        assert B.classify(mu, t, complex(a, 0.0)).tag == "outside"
        with pytest.raises(NoConvergenceError) as info:
            J.solve_g(mu, t, a)
        assert isinstance(info.value.__cause__, OutsideOmegaError)
        with pytest.raises(NoConvergenceError):
            J.jn_density(mu, t, a)


def test_programming_error_is_not_swallowed(sc, monkeypatch):
    def broken(mu, z):
        raise TypeError("bug")

    monkeypatch.setattr(J, "_cauchy_pair", broken)
    with pytest.raises(TypeError):
        J.solve_g(sc, 1.0, 0.3)


def test_solve_g_raises_at_an_end_of_the_real_section(sc):
    # at a_r, and within the locator's band past it, the height is 0 and the
    # fixed-point equation degenerate: a solve there returned its seed
    (_, ar), = B.omega_intervals(sc, 1.0)
    for a in (ar, ar + 1e-13, ar + 1e-10):
        with pytest.raises(NoConvergenceError):
            J.solve_g(sc, 1.0, a)
    # just inside, Im g is the height's b_t/(2t), about 8.4e-6
    a = ar - 1e-10
    g = J.solve_g(sc, 1.0, a)
    assert g.imag == pytest.approx(B.b_t(sc, 1.0, a) / 2.0, rel=1e-9)
    assert g.imag == pytest.approx(8.409e-6, rel=1e-3)


def test_verify_suites_run_next_to_a_fourth_order_zero():
    # (x - 0.3)^4 on [-1, 2] at t = 0.3: 7 of the 512 rows of the profile
    # read v_t = 0 next to the zero, where g = G(a + t conj(g)) has no complex
    # solution; check_jn takes only rows with a positive height
    mu = M.piecewise_poly([(-1.0, 2.0, (0.0081, -0.108, 0.54, -1.2, 1.0))])
    rows = {(r.suite, r.name): r for r in C.run_all(mu, 0.3)}
    assert {suite for suite, _ in rows} == {"subordination", "pushforward", "jn", "pde"}
    assert rows["jn", "density equivalence"].passed and rows["jn", "t*Re g = a0 - a"].passed


@pytest.mark.parametrize("per_block,margin,n_grid", [(C.JN_POINTS, 2, 256), (200, 1, 1024)])
def test_fixed_point_rows_have_positive_height(per_block, margin, n_grid):
    # check_jn's rule on verify's profile and cmd_jn's on the default grid, on
    # (x - 0.3)^4 on [-1, 2] at t = 0.3: rows next to the zero read b_t = 0,
    # where g = G(a + t conj(g)) has no complex solution
    mu = M.piecewise_poly([(-1.0, 2.0, (0.0081, -0.108, 0.54, -1.2, 1.0))])
    prof = B.profile(mu, 0.3, n_grid=n_grid)
    assert (prof.halfheight == 0.0).any()
    rows = C.fixed_point_rows(prof, per_block, margin)
    assert rows and all(prof.halfheight[i] > 0.0 for i in rows)
    for sl in prof.blocks():
        mine = [i for i in rows if sl.start <= i < sl.stop]
        assert 0 < len(mine) <= per_block
        assert all(sl.start + margin <= i < sl.stop - margin for i in mine)


def test_jn_density_raises_on_a_singular_jacobian(monkeypatch):
    # with G' = 1/t real, the columns 1 - t G' and i (1 + t G') of the
    # fixed-point Jacobian make its determinant 0
    monkeypatch.setattr(J, "_solve_g", lambda mu, t, a: (0.5j, complex(1.0 / t)))
    with pytest.raises(DegenerateJacobianError, match="singular"):
        J.jn_density(M.semicircle(1.0), 1.0, 0.3)


def test_check_jn_solves_each_row_once(be23, be_profile, monkeypatch):
    # one fixed-point solve per row gives g and G' for the row's density,
    # its t Re g and, on every eighth row, the Poisson identity
    solved, newton = [], J._fixed_point_newton

    def counted(mu, t, a, g0, tol):
        solved.append(a)
        return newton(mu, t, a, g0, tol)

    monkeypatch.setattr(J, "_fixed_point_newton", counted)
    rows = C.check_jn(be23, 1.05, be_profile)
    assert len(solved) == len(set(solved)) >= 8
    assert all(r.passed for r in rows)


def test_solve_g_raises_where_the_solve_collapses_onto_the_real_line(sc, monkeypatch):
    # a fixed point with |Im g| <= 1e-12 is a real one: no complex root there
    monkeypatch.setattr(J, "_fixed_point_newton", lambda mu, t, a, g0, tol: (complex(0.2, 1e-13), -1j))
    with pytest.raises(NoConvergenceError, match="outside the planar support"):
        J._solve_g(sc, 1.0, 0.3)
