import math

import numpy as np
import pytest

import ibrown.brown as B
import ibrown.characteristics as C
import ibrown.measure as M
import ibrown.subordination as S
from ibrown.errors import NoConvergenceError, PastLifetimeError

from conftest import FOUR_ATOMS


def test_momenta_relations(sc, be23):
    rng = np.random.default_rng(3)
    for mu in (sc, be23):
        for _ in range(6):
            init = C.InitialData(
                complex(rng.uniform(-2, 2), rng.uniform(-1, 1)), rng.uniform(0.05, 1.0)
            )
            m = C.initial_momenta(mu, init)
            b0, a0 = init.lam0.imag, init.lam0.real
            assert m.p_b0 == pytest.approx(2.0 * b0 * m.p0, abs=1e-12)
            assert m.p_a0 == pytest.approx(2.0 * a0 * m.p0 - 2.0 * m.p1, abs=1e-12)
            assert m.p0 > 0.0


def test_momenta_two_atom_limit(be12):
    # eps0 -> 0 at the center: p0 -> 1
    m = C.initial_momenta(be12, C.InitialData(0j, 1e-13))
    assert m.p0 == pytest.approx(1.0, abs=1e-10)


def test_lifetime_values(be12):
    assert C.lifetime(be12, C.InitialData(0j, 0.0)) == pytest.approx(1.0, abs=1e-12)
    # sitting on an atom with no regularization: immediate blow-up
    assert C.lifetime(be12, C.InitialData(1.0 + 0j, 0.0)) == 0.0


def test_lifetime_characterizes_region(sc):
    t = 1.0
    region = S.lambda_region(sc, t)
    for a0, expect_inside in ((0.0, True), (2.0, True), (2.3, False)):
        T = C.lifetime(sc, C.InitialData(complex(a0, 0.0), 0.0))
        inside = any(lo < a0 < hi for lo, hi in region.intervals)
        assert inside == expect_inside
        assert (T < t) == inside


def test_flow_closed_form():
    # direct substitution: p0 = 1/2 at t = 1 scales eps by 1/4
    mu = M.atomic([(-1.0, 0.5), (1.0, 0.5)])
    init = C.InitialData(0j, 1.0)  # p0 = int dmu/(x^2+1) = 1/2
    st = C.flow(mu, init, 1.0)
    assert st.eps == pytest.approx(0.25, abs=1e-14)
    assert st.p_eps == pytest.approx(1.0, abs=1e-14)


def test_flow_lifetime_endpoint(be12):
    # p0 = 1/t: a -> t p1, b -> 2 b0, eps -> 0
    t = 2.0
    a0 = 0.4
    v = S.v_t(be12, t, a0)
    b0 = 0.3 * v
    eps0 = v * v - b0 * b0
    init = C.InitialData(complex(a0, b0), eps0)
    m = C.initial_momenta(be12, init)
    assert m.p0 == pytest.approx(1.0 / t, abs=1e-12)
    s = t * (1.0 - 1e-10)
    st = C.flow(be12, init, s)
    assert st.lam.real == pytest.approx(t * m.p1, abs=1e-8)
    assert st.lam.imag == pytest.approx(2.0 * b0, abs=1e-8)
    assert st.eps == pytest.approx(0.0, abs=1e-12)
    # at the lifetime itself, 1/p0, which is t to the solve's residual: the
    # first float at or past it, on whichever side of t the solve left it
    t_life = 1.0 / m.p0
    if t_life * m.p0 < 1.0:
        t_life = math.nextafter(t_life, math.inf)
    with pytest.raises(PastLifetimeError):
        C.flow(be12, init, t_life)


@pytest.mark.parametrize(
    "call,error",
    [
        (lambda mu: C.InitialData(0.3 + 0.2j, -0.1), ValueError),
        (lambda mu: C.initial_momenta(mu, C.InitialData(0.3 + 0j, 0.0)), ValueError),
        (lambda mu: C.flow(mu, C.InitialData(0.3 + 0.2j, 0.1), -0.5), ValueError),
        (lambda mu: C.s_of(mu, 1.0, 0.3 + 0.2j, 0.0), ValueError),
        # the lifetime 1/p0 is 0.253 there
        (lambda mu: C.hj_value(mu, C.InitialData(0.3 + 0.2j, 0.01), 1.0), PastLifetimeError),
    ],
)
def test_guards_raise_typed_errors(sc, call, error):
    with pytest.raises(error):
        call(sc)


def test_flow_small_eps_limit_is_j(sc, be23):
    for mu, t, lam0 in ((sc, 1.0, 2.4 + 0j), (be23, 1.05, 1.8 - 0.6j)):
        st = C.flow(mu, C.InitialData(lam0, 1e-12), t)
        assert abs(st.lam - S.j_t(mu, t, lam0)) < 1e-9


def test_constants_of_motion_along_flow(sc):
    init = C.InitialData(1.7 + 0.4j, 0.5)
    m = C.initial_momenta(sc, init)
    h0 = C.hamiltonian(m, init.eps0)
    e_p2 = init.eps0 * m.p0 **2
    horizon = 0.98 / m.p0
    for s in np.linspace(0.05, 1.0, 10) * horizon:
        st = C.flow(sc, init, s)
        assert st.p_a == m.p_a0
        assert st.p_b == m.p_b0
        assert st.eps * st.p_eps **2 == pytest.approx(e_p2, rel=1e-14)
        h = -0.25 * (st.p_a **2 - st.p_b **2) - st.eps * st.p_eps **2
        assert h == pytest.approx(h0, rel=1e-14)


def test_s_initial_atomic_closed_form(be23):
    lam = 0.3 + 0.7j
    eps = 0.2
    expect = (1.0 / 3.0) * math.log(abs(-1 - lam) ** 2 + eps) + (2.0 / 3.0) * math.log(
        abs(1 - lam) ** 2 + eps
    )
    assert C.s_initial(be23, lam, eps) == pytest.approx(expect, abs=1e-14)


def test_s_initial_semicircle_trapezoid_oracle(sc):
    n = 2_000_001
    th = np.linspace(-math.pi / 2, math.pi / 2, n)
    xs = 2.0 * np.sin(th)
    wts = (2.0 / math.pi) * np.cos(th) ** 2
    ref = np.trapezoid(np.log((xs - 0.0) ** 2 + 1.0) * wts, th)
    assert C.s_initial(sc, 0j, 1.0) == pytest.approx(ref, rel=1e-9)


def test_s_initial_conjugation(un):
    lam = 0.4 + 0.6j
    assert C.s_initial(un, lam, 0.3) == pytest.approx(
        C.s_initial(un, lam.conjugate(), 0.3), abs=1e-13
    )


def test_hj_value_at_zero_time(sc):
    init = C.InitialData(1.0 + 1.0j, 0.7)
    assert C.hj_value(sc, init, 0.0) == pytest.approx(
        C.s_initial(sc, init.lam0, init.eps0), abs=1e-14
    )


def test_hj_matches_outside_formula(sc, be23):
    # flow from outside the source region with eps0 -> 0 reproduces s_outside
    for mu, t, lam0 in ((sc, 1.0, 2.6 + 0.9j), (be23, 1.05, -1.9 + 1.1j)):
        eps0 = 1e-9
        init = C.InitialData(lam0, eps0)
        target = C.flow(mu, init, t).lam
        val = C.hj_value(mu, init, t)
        assert val == pytest.approx(B.s_outside(mu, t, target), abs=1e-6)


def test_s_of_round_trip(sc, be23, un):
    rng = np.random.default_rng(9)
    for mu, t in ((sc, 1.0), (be23, 1.05), (un, 0.1)):
        for _ in range(4):
            init = C.InitialData(
                complex(rng.uniform(-2, 2), rng.uniform(-0.8, 0.8)), rng.uniform(0.2, 0.8)
            )
            m = C.initial_momenta(mu, init)
            if t * m.p0 >= 0.97:
                continue
            st = C.flow(mu, init, t)
            want = C.hj_value(mu, init, t)
            got = C.s_of(mu, t, st.lam, st.eps)
            assert got == pytest.approx(want, abs=1e-9 * (1 + abs(want)))


def test_second_hj_formula(sc):
    # finite differences of the inverted value match the transported momenta
    init = C.InitialData(1.9 + 0.5j, 0.6)
    t = 0.8
    st = C.flow(sc, init, t)
    h = 1e-5
    a, b, e = st.lam.real, st.lam.imag, st.eps
    dsa = (C.s_of(sc, t, complex(a + h, b), e) - C.s_of(sc, t, complex(a - h, b), e)) / (2 * h)
    dsb = (C.s_of(sc, t, complex(a, b + h), e) - C.s_of(sc, t, complex(a, b - h), e)) / (2 * h)
    dse = (C.s_of(sc, t, complex(a, b), e + h) - C.s_of(sc, t, complex(a, b), e - h)) / (2 * h)
    assert dsa == pytest.approx(st.p_a, abs=1e-5)
    assert dsb == pytest.approx(st.p_b, abs=1e-5)
    assert dse == pytest.approx(st.p_eps, abs=1e-5)


def test_inside_gradient_law(sc):
    # inside the region, db s = b/t and da s = (2/t)(a0(a) - a) as eps -> 0;
    # the value carries a sqrt(eps) correction, removed by extrapolation
    t = 1.0
    lam = 0.5 + 0.4j
    assert B.classify(sc, t, lam).tag == "inside"
    h = 1e-4
    a, b = lam.real, lam.imag

    def grads(eps):
        dsb = (
            C.s_of(sc, t, complex(a, b + h), eps) - C.s_of(sc, t, complex(a, b - h), eps)
        ) / (2 * h)
        dsa = (
            C.s_of(sc, t, complex(a + h, b), eps) - C.s_of(sc, t, complex(a - h, b), eps)
        ) / (2 * h)
        return dsa, dsb

    eps = 1e-5
    g1 = grads(eps)
    g2 = grads(eps / 4.0)
    dsa = 2.0 * g2[0] - g1[0]
    dsb = 2.0 * g2[1] - g1[1]
    assert dsb == pytest.approx(b / t, abs=1e-4)
    a0 = B.a0_of_a(sc, t, a)
    assert dsa == pytest.approx(2.0 * (a0 - a) / t, abs=1e-4)


def test_pde_residual_three_presets(sc, be23, un):
    rng = np.random.default_rng(17)
    for mu, t in ((sc, 1.0), (be23, 1.05), (un, 0.1)):
        span = max(abs(mu.support.lo), abs(mu.support.hi))
        for _ in range(5):
            lam = complex(rng.uniform(-span - 2, span + 2), rng.uniform(-1.5, 1.5))
            eps = rng.uniform(0.1, 1.0)
            assert C.pde_residual(mu, t, lam, eps) < 1e-4


@pytest.mark.parametrize("t", [1e-4, 5e-5, 1e-6])
def test_pde_residual_at_small_t(sc, t):
    # the t-step stays below t, so both sides of the difference are flows
    assert C.pde_residual(sc, t, 1.4 + 0.8j, 0.5) < 1e-6


def test_pde_residual_t_to_zero_consistency(sc):
    # at small t the a-gradient of the value approaches the initial gradient
    lam, eps = 1.4 + 0.8j, 0.5
    h = 1e-5
    t = 1e-4
    dsa_flow = (
        C.s_of(sc, t, lam + h, eps) - C.s_of(sc, t, lam - h, eps)
    ) / (2 * h)
    dsa_init = (
        C.s_initial(sc, lam + h, eps) - C.s_initial(sc, lam - h, eps)
    ) / (2 * h)
    assert dsa_flow == pytest.approx(dsa_init, abs=1e-3)


def test_symmetric_real_point_has_zero_b_derivative(sc):
    # real lam for a symmetric law: S is even in b
    t, lam, eps = 1.0, 1.9 + 0j, 0.4
    h = 1e-5
    dsb = (C.s_of(sc, t, complex(lam.real, h), eps) - C.s_of(sc, t, complex(lam.real, -h), eps)) / (
        2 * h
    )
    assert dsb == pytest.approx(0.0, abs=1e-8)


def test_s_of_far_field_consistency(sc):
    # far from the support the inversion shifts by the asymptotic transport
    t, eps = 1.0, 1.0
    lam = 40.0 + 5.0j
    approx = C.s_initial(sc, lam + t / lam, eps)
    assert C.s_of(sc, t, lam, eps) == pytest.approx(approx, abs=5e-3)


def test_s_of_start_finds_the_preimage_of_every_start(sc):
    # the blind starts (lam, k eps) that earlier versions tried in turn reach
    # no admissible preimage other than the one from the inverse-map start
    lam, t, eps = 1.6 + 0.7j, 1.0, 0.4
    target, tol = (lam.real, lam.imag, eps), 1e-10 * (1.0 + abs(lam) + eps)
    start = C._start(sc, t, lam, eps)
    # the start meets the b and eps equations; only the a-equation is open
    u0 = np.array(start)
    r, _ = C._flow_step(t, u0, target, M.transforms(sc, u0[0], u0[1] * u0[1] + u0[2]))
    assert abs(r[1]) <= 1e-13 and abs(r[2]) <= 1e-12 * eps
    u, _ = C._solve_flow(sc, t, target, start, tol)
    value = C.s_of(sc, t, lam, eps)
    assert C.hj_value(sc, C.InitialData(complex(u[0], u[1]), u[2]), t) == value
    found = 0
    for k in (1.0, 4.0, 16.0):
        solved = C._solve_flow(sc, t, target, (lam.real, lam.imag, k * eps), tol)
        if solved is not None and C._admissible(t, solved[1]):
            found += 1
            assert solved[0] == pytest.approx(u, abs=1e-9)
    assert found


REFERENCE_LAWS = {
    "semicircle": (M.semicircle(1.0), 1.0),
    "bernoulli": (M.bernoulli(2.0 / 3.0), 1.05),
    "uniform": (M.uniform(-1.0, 1.0), 0.1),
    "four_atoms": (FOUR_ATOMS, 0.5),
    "cubic": (M.piecewise_poly([(0.0, 1.0, (0.0, 0.0, 3.0))]), 0.3),
}


def _grid_points(mu, t):
    """Inside, boundary-band, region-end, gap and real-axis points."""
    omega = B.omega_intervals(mu, t)
    pts = []
    for (al, ar), nxt in zip(omega, omega[1:] + ((None, None),)):
        for a in (al + 0.1 * (ar - al), 0.5 * (al + ar)):
            h = B.b_t(mu, t, a)
            pts += [complex(a, 0.5 * h), complex(a, h - 5e-10), complex(a, h + 5e-10), complex(a, 0.0)]
        pts += [complex(al, 0.0), complex(ar, 0.0), complex(ar, 0.05), complex(ar + 0.3, 0.0)]
        if nxt[0] is not None:
            gap = 0.5 * (ar + nxt[0])
            pts += [complex(gap, 0.0), complex(gap, 0.02)]
    return pts


@pytest.mark.parametrize("name", sorted(REFERENCE_LAWS))
def test_s_of_never_raises_on_the_reference_grid(name):
    # eps = 1e-10 is left out: there the fold's conditioning moves values by
    # up to 1e-6, while the start still converges
    mu, t = REFERENCE_LAWS[name]
    for lam in _grid_points(mu, t):
        for eps in (1e-6, 1e-3, 0.1, 1.0, 5.0):
            assert math.isfinite(C.s_of(mu, t, lam, eps))


def test_s_of_cost_in_bundles(sc, monkeypatch):
    # the start is one U_t^{-1} inversion and one bracketed solve in v, and
    # the flow solve a few Newton steps from it
    t = 1.0
    B.omega_intervals(sc, t)  # the cached region takes its own bundles
    transforms, count = M.transforms, []

    def counted(*args):
        count.append(1)
        return transforms(*args)

    for mod in (M, S, C):
        monkeypatch.setattr(mod, "transforms", counted)
    C.s_of(sc, t, 0.9 + 0.05j, 1e-4)
    assert len(count) <= 26


def test_s_of_failure_is_loud_after_one_solve(sc, monkeypatch):
    calls = []

    def failing(*args):
        calls.append(args)
        return None

    monkeypatch.setattr(C, "_solve_flow", failing)
    with pytest.raises(NoConvergenceError):
        C.s_of(sc, 1.0, 0.9 + 0.05j, 1e-4)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# guard branches of the flow inversion


def test_flow_step_guards(sc):
    # None where p0 is not finite; the residual alone, no step, where eps0
    # sits at the clamp
    t, target, u = 1.0, (3.0, 0.2, 0.1), np.array([3.0, 0.1, 1e-300])
    assert C._flow_step(t, u, target, M.Bundle(math.inf, 0.0, 1.0, 0.0, 0.0)) is None
    out = M.transforms(sc, u[0], u[1] * u[1] + u[2])
    r, step = C._flow_step(t, u, target, out)
    assert step is None
    decay = 1.0 - t * out.p0
    assert r.tolist() == [3.0 - t * out.c1 - 3.0, 0.1 * (1.0 + t * out.p0) - 0.2, 1e-300 * decay * decay - 0.1]


def test_solve_flow_exits_when_damped_newton_fails(sc, monkeypatch):
    monkeypatch.setattr(C, "damped_newton", lambda fdf, u, tol: None)
    assert C._solve_flow(sc, 1.0, (0.9, 0.05, 1e-4), (0.9, 0.05, 1e-4), 1e-10) is None


def test_solve_flow_keeps_a_converged_point_without_a_step(sc, monkeypatch):
    # a solve that ends where eps0 is clamped has no step to polish with: the
    # point and the bundle there are returned as they are, with no more
    # evaluations
    calls = []
    transforms = C.transforms

    def counted(*args):
        calls.append(args)
        return transforms(*args)

    def at_the_clamp(fdf, u, tol):
        u = u.copy()
        u[2] = 0.0
        fdf(u)
        return u

    monkeypatch.setattr(C, "transforms", counted)
    monkeypatch.setattr(C, "damped_newton", at_the_clamp)
    u, out = C._solve_flow(sc, 1.0, (0.9, 0.05, 1e-4), (0.9, 0.05, 1e-4), 1e-10)
    assert u.tolist() == [0.9, 0.05, 1e-300]
    assert len(calls) == 1 and out == transforms(sc, 0.9, 0.05 * 0.05 + 1e-300)


def test_start_reads_a_point_below_v_t_as_below_the_root(sc, monkeypatch):
    # below v_t, s = 1 - t p0 <= 0: fdf returns (-inf, inf), the low side of
    # the root and a bisection step, and the solve still ends at the same start
    t, lam, eps = 1.0, 0.9 + 0.05j, 1e-4
    want = C._start(sc, t, lam, eps)
    solve, below = C.bracket_newton, []

    def probing(fdf, lo, hi, x0, ftol, xtol):
        below.append(fdf(0.5 * lo))  # lo is v_t at the start's a0
        return solve(fdf, lo, hi, x0, ftol, xtol)

    monkeypatch.setattr(C, "bracket_newton", probing)
    assert C._start(sc, t, lam, eps) == want
    assert below == [(-math.inf, math.inf)]
