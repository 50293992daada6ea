import math

import numpy as np
import pytest

import ibrown.brown as B
import ibrown.maps as P
import ibrown.measure as M
import ibrown.numerics as N
import ibrown.subordination as S
from ibrown.errors import DegenerateJacobianError, NoConvergenceError, OutsideLambdaError, WrongBasinError

from conftest import FOUR_ATOMS


def elliptic_vt(s, t, a0):
    # boundary ellipse semi-axes (2s+t)/sqrt(s+t) and t/sqrt(s+t)
    aa = (2 * s + t) / math.sqrt(s + t)
    bb = t / math.sqrt(s + t)
    if abs(a0) >= aa:
        return 0.0
    return bb * math.sqrt(1.0 - (a0 / aa) ** 2)


def test_vt_elliptic_center(sc):
    assert S.v_t(sc, 1.0, 0.0) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)


def test_vt_elliptic_curve(sc):
    for a0 in (-1.8, -0.6, 0.9, 2.0):
        assert S.v_t(sc, 1.0, a0) == pytest.approx(elliptic_vt(1.0, 1.0, a0), abs=1e-11)


def test_vt_two_atoms_closed_solve(be12):
    # 1/(1+v^2) = 1/2  =>  v = 1
    assert S.v_t(be12, 2.0, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_vt_far_outside_zero(be12, un, sc):
    for mu in (be12, un, sc):
        t = 0.5
        far = mu.support.hi + math.sqrt(t) + 0.5
        assert S.v_t(mu, t, far) == 0.0


def test_vt_bounded_by_sqrt_t():
    rng = np.random.default_rng(4)
    for _ in range(10):
        xs = rng.uniform(-2, 2, 4)
        ws = rng.uniform(0.1, 1.0, 4)
        mu = M.atomic(list(zip(xs, ws)))
        t = rng.uniform(0.05, 4.0)
        for a0 in np.linspace(-3, 3, 41):
            assert S.v_t(mu, t, a0) < math.sqrt(t)


def test_vt_continuity_on_grid(un):
    t = 0.1
    xs = np.linspace(-1.2, 1.2, 401)
    vs = [S.v_t(un, t, x) for x in xs]
    jumps = np.abs(np.diff(vs))
    # half-height is continuous: jumps shrink with the grid pitch
    assert jumps.max() < 0.05


def test_lambda_region_uniform_closed_form(un):
    for t in (0.1, 0.5, 2.0):
        (lo, hi), = S.lambda_region(un, t).intervals
        assert hi == pytest.approx(math.sqrt(t + 1.0), abs=1e-10)
        assert lo == pytest.approx(-math.sqrt(t + 1.0), abs=1e-10)


def test_lambda_region_semicircle(sc):
    (lo, hi), = S.lambda_region(sc, 1.0).intervals
    assert hi == pytest.approx(3.0 / math.sqrt(2.0), abs=1e-10)


def test_lambda_region_bernoulli_islands(be12):
    t = 0.1
    ivs = S.lambda_region(be12, t).intervals
    assert len(ivs) == 2
    # sign-scan oracle: p0(.,0) - 1/t changes sign exactly at the endpoints
    for lo, hi in ivs:
        assert M.p0_zero(be12, lo - 1e-7) < 1.0 / t < M.p0_zero(be12, lo + 1e-7)
        assert M.p0_zero(be12, hi + 1e-7) < 1.0 / t < M.p0_zero(be12, hi - 1e-7)
    assert ivs[0][1] < -0.5 < 0.5 < ivs[1][0]


def gap_law():
    # a flat piece, then a gap, then a piece whose density vanishes to second
    # order at the gap's right edge 0.5, where p0(., 0) is finite
    return M.piecewise_poly([(-1.0, 0.0, (1.0,)), (0.5, 1.5, (0.25, -1.0, 1.0))])


def mirrored_gap_law():
    # gap_law() under x -> -x: the gap's left end is now the one where p0(., 0)
    # is finite, and so the end that may already lie outside the region
    return M.piecewise_poly([(-1.5, -0.5, (0.25, 1.0, 1.0)), (0.0, 1.0, (1.0,))])


def assert_end_contract(mu, t):
    # every end is a point where v_t = 0, and p0(., 0) > 1/t at the next float
    # inside, so no point of an open interval reads v_t = 0 from p0_zero
    for lo, hi in S.lambda_region(mu, t).intervals:
        for e, inward in ((lo, hi), (hi, lo)):
            assert M.p0_zero(mu, e) <= 1.0 / t, (mu, t, e)
            assert M.p0_zero(mu, np.nextafter(e, inward)) > 1.0 / t, (mu, t, e)


def test_lambda_region_endpoint_condition(be23, un, quad, be12):
    cases = [(be23, 1.05), (un, 0.1), (quad, 0.3), (quad, 0.25)]
    cases += [(law, t) for law in (gap_law(), mirrored_gap_law()) for t in (0.05, 0.2, 0.6)]
    # a gap cut near its tangent, a gap just uncut, and a fourth-order zero
    cases += [(FOUR_ATOMS, 0.5), (be12, 0.999), (be12, 1.001), (X4, 0.3)]
    for mu, t in cases:
        assert_end_contract(mu, t)
    # p0(0, 0) = 3 < 1/t on the quad law: the region starts exactly on the
    # double zero, not where p0_zero's noise floor flips just inside it
    for t in (0.25, 0.3):
        assert S.lambda_region(quad, t).intervals[0][0] == 0.0
    # gap law: p0(0.5, 0) = 7/4, so the gap's cut ends at 0.5 for t < 4/7, or
    # rather at the end of the 1e-13 band past it where p0_zero reads finite
    ivs = S.lambda_region(gap_law(), 0.2).intervals
    assert len(ivs) == 2 and 0.5 <= ivs[1][0] <= 0.5 + 1e-12
    assert len(S.lambda_region(gap_law(), 0.6).intervals) == 1


def test_lambda_region_tiny_isolated_atom():
    # a 1e-6 atom at 10 holds a component of half-width sqrt(1e-6 * t) = 1e-4,
    # narrower than any affordable scan pitch over the hull
    mu = M.atomic([(-1.0, 0.5), (1.0, 0.5 - 1e-6), (10.0, 1e-6)])
    ivs = S.lambda_region(mu, 0.01).intervals
    assert len(ivs) == 3
    lo, hi = ivs[2]
    assert lo < 10.0 < hi
    assert hi - lo == pytest.approx(2e-4, rel=1e-3)


@pytest.mark.parametrize("order, band", [(2, 1e-12), (4, 1e-4)])
def test_lambda_region_splits_at_interior_double_zero(order, band):
    # density (x - 0.3)^2 on [-1, 2]: p0(0.3, 0) = 3/2.37 < 1/t at t = 0.3;
    # (x - 0.3)^4, whose derivative's triple root splits numerically, once.
    # The cut is the band where p0_zero reads finite: ~5e-14 wide for a double
    # zero, ~3e-5 for a fourth-order one, which floats resolve no better
    coeffs = np.polynomial.polynomial.polypow([-0.3, 1.0], order)
    mu = M.piecewise_poly([(-1.0, 2.0, coeffs)])
    (l0, r0), (l1, r1) = S.lambda_region(mu, 0.3).intervals
    assert 0.3 - band < r0 < 0.3 < l1 < 0.3 + band
    assert l0 < -1.0 and r1 > 2.0


def _gap_minima(xs, ws):
    """The minimum of sum w/(a0 - x)^2 over each gap between atoms, sampled."""
    s = np.linspace(0.0, 1.0, 2003)[1:-1]
    return np.array([
        (ws / ((lo + (hi - lo) * s)[:, None] - xs) ** 2).sum(axis=1).min() for lo, hi in zip(xs[:-1], xs[1:])
    ])


def _drawn_law(rng, n_atoms, gap, weight):
    """Centred atoms with gaps U[gap] and weights U[weight], normalised."""
    xs = np.cumsum(rng.uniform(*gap, n_atoms))
    xs -= xs.mean()
    ws = rng.uniform(*weight, n_atoms)
    ws /= ws.sum()
    return xs, ws, _gap_minima(xs, ws)


@pytest.mark.parametrize("seed", range(20))
def test_region_ends_on_drawn_atomic_laws(seed):
    # drawn as the benchmark draws its compute-atomic laws: t a fraction
    # U[0.4, 0.8] of the largest t at which every gap still splits the region
    rng = np.random.default_rng([seed, 17])
    xs, ws, minima = _drawn_law(rng, 4, (1.0, 2.0), (0.15, 0.35))
    t = rng.uniform(0.4, 0.8) / minima.max()
    mu = M.atomic(list(zip(xs.tolist(), ws.tolist())))
    assert len(S.lambda_region(mu, t).intervals) == 4
    assert_end_contract(mu, t)


@pytest.mark.parametrize("seed", range(10))
def test_gaps_inside_the_region_leave_one_interval(seed):
    # drawn as the benchmark's crosscheck laws: t is U[1.3, 2] times the
    # smallest t at which every gap lies inside the region
    rng = np.random.default_rng([seed, 29])
    xs, ws, minima = _drawn_law(rng, 3, (1.5, 2.5), (0.2, 0.4))
    t = rng.uniform(1.3, 2.0) / minima.min()
    mu = M.atomic(list(zip(xs.tolist(), ws.tolist())))
    (lo, hi), = S.lambda_region(mu, t).intervals
    assert lo < xs[0] and hi > xs[-1]
    assert_end_contract(mu, t)


@pytest.mark.parametrize("alpha", [2.0 / 3.0, 0.3, 0.2])
@pytest.mark.parametrize("rel", [-1e-9, 1e-9])
def test_region_at_a_gap_split_threshold(alpha, rel):
    # on the gap of a Bernoulli law p0(., 0) is least at x*, where
    # ((1 - x*)/(1 + x*))^3 = alpha/(1 - alpha): the gap splits the region
    # for t <= 1/p0(x*, 0), here 1e-9 relative either side of it. (Not alpha
    # = 1/2, whose x* = 0: next to 0 the ends are resolved to 1e-17, not to
    # adjacent floats)
    r = (alpha / (1.0 - alpha)) ** (1.0 / 3.0)
    x_min = (1.0 - r) / (1.0 + r)
    t = (1.0 + rel) / ((1.0 - alpha) / (1.0 + x_min) ** 2 + alpha / (1.0 - x_min) ** 2)
    mu = M.bernoulli(alpha)
    ivs = S.lambda_region(mu, t).intervals
    if rel < 0:
        (_, c), (d, _) = ivs
        assert c < x_min < d and d - c < 1e-3
    else:
        assert len(ivs) == 1
    assert_end_contract(mu, t)


def test_region_end_survives_a_stalled_secant(monkeypatch):
    # a secant that stops after its first step leaves the end to the walk,
    # which cannot reach it, and then to the bisection of what is left
    mu, t = FOUR_ATOMS, 0.5
    expected = S._lambda_region_cached.__wrapped__(mu, t).intervals
    bisections = []
    bisect_edge = S._bisect_edge

    def one_pass(fdf, lo, hi, x, ftol, xtol):
        fdf(x)
        return x

    def counted(*args):
        bisections.append(args)
        return bisect_edge(*args)

    monkeypatch.setattr(S, "bracket_newton", one_pass)
    monkeypatch.setattr(S, "_bisect_edge", counted)
    got = S._lambda_region_cached.__wrapped__(mu, t).intervals
    assert len(bisections) == 8
    for (lo, hi), (elo, ehi) in zip(got, expected):
        assert abs(lo - elo) <= 4 * math.ulp(elo) and abs(hi - ehi) <= 4 * math.ulp(ehi)
    for lo, hi in got:
        for e, inward in ((lo, hi), (hi, lo)):
            assert M.p0_zero(mu, e) <= 1.0 / t < M.p0_zero(mu, np.nextafter(e, inward))


@pytest.mark.parametrize(
    "a0, slope", [(0.30108976726021375, 1.19858624993), (0.3012014531087177, 1.19859766661)]
)
@pytest.mark.parametrize("v_hint", [None, 1e-3, 1e-6])
def test_vt_solve_exit_is_relative_next_to_a_fourth_order_zero(a0, slope, v_hint):
    # v_t is about 5e-13 here, a few times V_TOL: a bracket exit at an
    # absolute width of V_TOL stopped at a midpoint 5-20 % off, and the
    # slope then depended on the hint. References from a 50-digit solve.
    mu = M.piecewise_poly([(-1.0, 2.0, tuple(np.polynomial.polynomial.polypow([-0.3, 1.0], 4)))])
    assert S._vt_solve(mu, 0.3, a0, v_hint=v_hint)[2] == pytest.approx(slope, abs=1e-9)


def test_at_elliptic_scaling(sc):
    # a_t(a0) = 2s/(2s+t) a0 on the region; s = t = 1 gives 2/3
    assert S.a_t(sc, 1.0, 1.5) == pytest.approx(1.0, abs=1e-11)
    assert S.a_t(sc, 1.0, -0.9) == pytest.approx(-0.6, abs=1e-11)


def test_at_odd_symmetry(sc, un):
    for mu, t in ((sc, 1.0), (un, 0.1)):
        assert S.a_t(mu, t, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_at_bernoulli_round_trip(be23):
    # a0(a) = (t/2)(a + beta - alpha)/(1 - a^2) inverts a_t
    t, al, be = 1.05, 2.0 / 3.0, 1.0 / 3.0
    for a in (-0.4, 0.0, 0.35, 0.7):
        a0 = 0.5 * t * (a + be - al) / (1.0 - a * a)
        assert S.a_t(be23, t, a0) == pytest.approx(a, abs=1e-11)


def test_at_strictly_increasing(be23, sc):
    for mu, t in ((be23, 1.05), (sc, 1.0)):
        span = mu.support.hi + 2.0 * math.sqrt(t)
        xs = np.linspace(-span, span, 201)
        vals = []
        for x in xs:
            try:
                vals.append(S.a_t(mu, t, x))
            except Exception:
                vals.append(None)
        seq = [v for v in vals if v is not None]
        assert all(x < y for x, y in zip(seq, seq[1:]))


def test_slope_elliptic_constant(sc):
    for a0 in (-1.5, 0.0, 0.4, 2.0):
        assert S._vt_solve(sc, 1.0, a0)[2] == pytest.approx(2.0 / 3.0, abs=1e-10)


def test_slope_matches_finite_difference(be23, un):
    h = 1e-6
    for mu, t, pts in ((be23, 1.05, (-0.1, 0.12)), (un, 0.1, (0.2, 0.8))):
        for a0 in pts:
            fd = (S.a_t(mu, t, a0 + h) - S.a_t(mu, t, a0 - h)) / (2 * h)
            assert S._vt_solve(mu, t, a0)[2] == pytest.approx(fd, rel=1e-6)


def test_slope_in_open_interval(be23):
    t = 1.05
    (lo, hi), = S.lambda_region(be23, t).intervals
    for a0 in np.linspace(lo, hi, 33)[1:-1]:
        s = S._vt_solve(be23, t, a0)[2]
        assert 0.0 < s < 2.0


def test_h_and_j_definitions(sc):
    z = 2j
    g = M.cauchy(sc, z)
    assert S.j_t(sc, 1.0, z) == pytest.approx(z - g, abs=1e-15)
    assert S.h_t(sc, 1.0, z) == pytest.approx(z + g, abs=1e-15)
    assert S.j_t(sc, 1.0, z) == pytest.approx(1j * (1.0 + math.sqrt(2.0)), abs=1e-13)
    # J = 2z - H exactly
    assert S.j_t(sc, 1.0, z) + S.h_t(sc, 1.0, z) == pytest.approx(2 * z, abs=1e-15)


def test_j_far_field_expansion(sc, un):
    for mu in (sc, un):
        for z in (60.0 + 0j, 40j, -30 - 25j):
            expect = z - 1.0 / z
            assert S.j_t(mu, 1.0, z) == pytest.approx(expect, rel=5e-4)


def test_elliptic_boundary_parametrization(sc):
    # region boundary (sq + it sqrt(4(s+t)-q^2))/(s+t); endpoint q = 2 sqrt 2 -> sqrt 2
    s = t = 1.0
    for q in (0.5, 1.7, 2.0 * math.sqrt(2.0) - 1e-9):
        lam0 = ((2 * s + t) * q + 1j * t * math.sqrt(4 * (s + t) - q * q)) / (2 * (s + t))
        img = S.j_t(sc, t, lam0)
        expect = (s * q + 1j * t * math.sqrt(4 * (s + t) - q * q)) / (s + t)
        assert img == pytest.approx(expect, abs=1e-10)


def test_boundary_identities(sc, be23, un):
    for mu, t in ((sc, 1.0), (be23, 1.05), (un, 0.1)):
        for lo, hi in S.lambda_region(mu, t).intervals:
            for a0 in np.linspace(lo, hi, 9)[1:-1]:
                v = S.v_t(mu, t, a0)
                z = complex(a0, v)
                assert S.j_t(mu, t, z).imag == pytest.approx(2.0 * v, abs=1e-9)
                assert S.h_t(mu, t, z).imag == pytest.approx(0.0, abs=1e-9)


def test_j_inverse_elliptic_quadratic_oracle(sc):
    # for s = t = 1: J(z) = (z + sqrt(z^2-4))/2, inverse z = lam + 1/lam
    for lam in (2.0 + 0j, 1.1 + 1.3j, -0.4 - 1.6j):
        z = S.j_t_inverse(sc, 1.0, lam)
        assert z == pytest.approx(lam + 1.0 / lam, abs=1e-10)


def test_j_inverse_far_field(sc, be23):
    for mu in (sc, be23):
        lam = 25.0 + 3.0j
        z = S.j_t_inverse(mu, 1.0, lam)
        assert z == pytest.approx(lam + 1.0 / lam, rel=1e-3)


def test_j_inverse_round_trip(be23, un, sc):
    import ibrown.brown as B

    rng = np.random.default_rng(7)
    for mu, t in ((be23, 1.05), (un, 0.1), (sc, 1.0)):
        done = 0
        while done < 10:
            lam = complex(rng.uniform(-3, 3), rng.uniform(0.5, 2.5) * rng.choice([-1, 1]))
            if B.classify(mu, t, lam).tag != "outside":
                continue
            z = S.j_t_inverse(mu, t, lam)
            assert abs(S.j_t(mu, t, z) - lam) <= 1e-10 * (1 + abs(lam))
            done += 1


def test_uniform_peak_height_transcendental(un):
    # v_t(0) is the smallest positive root of 1/v = tan(v/t), below pi t/2
    t = 0.1
    lo, hi = 1e-9, math.pi * t / 2 - 1e-9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.tan(mid / t) - 1.0 / mid < 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    assert root < math.pi * t / 2
    assert S.v_t(un, t, 0.0) == pytest.approx(root, abs=1e-11)


# ---------------------------------------------------------------------------
# the array v_t solve of a sweep

X4 = M.piecewise_poly([(-1.0, 2.0, tuple(np.polynomial.polynomial.polypow([-0.3, 1.0], 4)))])
SWEEP_LAWS = {
    "semicircle": (M.semicircle(1.0), 1.0),
    "uniform": (M.uniform(-1.0, 1.0), 0.1),
    "bernoulli": (M.bernoulli(0.6667), 1.05),
    "3x^2": (M.piecewise_poly([(0.0, 1.0, (0.0, 0.0, 3.0))]), 0.3),
    "four_atoms": (FOUR_ATOMS, 0.5),
    # next to the fourth-order zero at 0.3 v_t falls below 4 V_TOL
    "(x-0.3)^4": (X4, 0.3),
}


def _sweep_nodes(mu, t, n=513):
    """Interior Chebyshev nodes of each region interval; for (x - 0.3)^4 also
    nodes next to its zero, off the region's split there."""
    nodes = [
        0.5 * (lo + hi) - 0.5 * (hi - lo) * np.cos(np.linspace(0.0, np.pi, n + 1)[1:-1])
        for lo, hi in S.lambda_region(mu, t).intervals
    ]
    if mu is X4:
        near = 0.3 + np.linspace(-3e-4, 3e-4, 241)
        nodes.append(near[np.abs(near - 0.3) > 3e-5])
    return np.sort(np.concatenate(nodes))


def _kappa(mu, a0, v):
    """|G|/(v p0) at a0 + iv: p0 = -Im G/v keeps 16 - log10(kappa) digits."""
    return abs(M.cauchy(mu, complex(a0, v))) / (v * M.transforms(mu, a0, v * v).p0)


@pytest.mark.parametrize("name", sorted(SWEEP_LAWS))
def test_array_vt_solve_matches_scalar_solve(name):
    # node by node against the scalar solve without a hint: v within 1e-10
    # relative and 0 at the same nodes, a_t within 1e-13 (1 + |a_t|) and the
    # slope within 1e-9 relative. Next to the fourth-order zero p0 = -Im G/v
    # keeps only 16 - log10(kappa) digits, kappa = |G|/(v p0), so there the
    # two solves agree to within that rounding, 1e-16 kappa
    mu, t = SWEEP_LAWS[name]
    a0 = _sweep_nodes(mu, t)
    v, at, slope = S._vt_solve_nodes(mu, t, a0)
    ref_v, ref_at, ref_slope = np.array([S._vt_solve(mu, t, float(x)) for x in a0]).T
    assert np.array_equal(v == 0.0, ref_v == 0.0)
    if mu is X4:
        assert np.sum(v == 0.0) > 100  # the V_TOL branch acts
    kappa = np.array([_kappa(mu, float(x), rv) if rv else 0.0 for x, rv in zip(a0, ref_v)])
    assert np.all(np.abs(v - ref_v) <= (1e-10 + 1e-16 * kappa) * ref_v)
    assert np.all(np.abs(at - ref_at) <= 1e-13 * (1.0 + np.abs(ref_at)))
    assert np.all(np.abs(slope - ref_slope) <= (1e-9 + 1e-16 * kappa) * np.abs(ref_slope))
    # a_t and the slope returned are the ones of the bundle at the returned v
    live = v > 0.0
    again = S._at_slope(t, a0[live], v[live], M.transforms(mu, a0[live], v[live] ** 2))
    assert np.all(np.abs(at[live] - again[0]) <= 1e-13 * (1.0 + np.abs(again[0])))
    assert np.all(np.abs(slope[live] - again[1]) <= 1e-13 * np.abs(again[1]))


def test_array_vt_solve_raises_outside_the_region():
    # an interval that overhangs the region's end by 0.05
    mu, t = SWEEP_LAWS["bernoulli"]
    (lo, hi), = S.lambda_region(mu, t).intervals
    a0 = np.linspace(lo + 0.01, hi + 0.05, 101)
    with pytest.raises(OutsideLambdaError):
        S._vt_solve_nodes(mu, t, a0)
    with pytest.raises(OutsideLambdaError):
        B.lambda_sweep(mu, t, ((lo, hi + 0.05),), S.lambda_region(mu, t).images, 64)


def test_sweep_raises_where_q0_is_not_positive(monkeypatch):
    # a q0 <= 0 at a node with v > 0 is a degenerate Jacobian, as in the
    # scalar solve
    mu, t = SWEEP_LAWS["four_atoms"]
    transforms = S.transforms

    def flipped(mu, a0, v2):
        out = transforms(mu, a0, v2)
        return out._replace(q0=-np.abs(out.q0)) if isinstance(a0, np.ndarray) else out

    region = S.lambda_region(mu, t)
    monkeypatch.setattr(S, "transforms", flipped)
    with pytest.raises(DegenerateJacobianError):
        B.lambda_sweep(mu, t, region.intervals[:1], region.images[:1], 64)


#: array bundles of lambda_sweep(mu, t, (interval,), (image,), 1026), summed
#: over the intervals, that the solve kept to before it shared bracket_newton's
#: rule
SWEEP_PASSES = {
    "semicircle(0.6)": ((M.semicircle(0.6), 1.5), 11),
    "two pieces": ((M.piecewise_poly([(-1.0, 0.2, (0.5, 0.3)), (0.2, 1.1, (0.3, 1.0, -1.0))]), 1.0), 11),
    "uniform": (SWEEP_LAWS["uniform"], 11),
    "bernoulli": (SWEEP_LAWS["bernoulli"], 11),
    "four_atoms": (SWEEP_LAWS["four_atoms"], 45),
    "3x^2": (SWEEP_LAWS["3x^2"], 14),
}


@pytest.mark.parametrize("name", sorted(SWEEP_PASSES))
def test_sweep_passes_held(name, monkeypatch):
    # each pass of the array v_t solve is one array bundle; compute pays for
    # every one of them
    (mu, t), passes = SWEEP_PASSES[name]
    transforms, bundles = S.transforms, []

    def counted(mu, a0, v2):
        if isinstance(a0, np.ndarray):
            bundles.append(a0.size)
        return transforms(mu, a0, v2)

    region = S.lambda_region(mu, t)
    monkeypatch.setattr(S, "transforms", counted)
    for iv, im in zip(region.intervals, region.images):
        B.lambda_sweep(mu, t, (iv,), (im,), 1026)
    assert len(bundles) <= passes


@pytest.mark.parametrize("name", sorted(SWEEP_LAWS))
def test_warm_sweep_matches_cold_scalar_solve(name):
    # the sweep starts each node at the ellipse's height sin(theta); it stops
    # at the cold scalar solve's root, to test_array_vt_solve_matches_scalar_solve's
    # bound, and at 0 at the same nodes
    mu, t = SWEEP_LAWS[name]
    region = S.lambda_region(mu, t)
    sw = B.lambda_sweep(mu, t, region.intervals, region.images, 513)
    a0, v = sw["a0"][:, 1:-1].ravel(), sw["v"][:, 1:-1].ravel()
    ref_v = np.array([S._vt_solve(mu, t, float(x))[0] for x in a0])
    assert np.array_equal(v == 0.0, ref_v == 0.0)
    for i in np.flatnonzero(ref_v):
        kappa = _kappa(mu, float(a0[i]), ref_v[i])
        assert abs(v[i] - ref_v[i]) <= (1e-10 + 1e-16 * kappa) * ref_v[i], (a0[i], kappa)


@pytest.mark.parametrize("s, t", [(1.0, 1.0), (0.6, 1.5), (0.3, 2.0)])
def test_semicircle_sweep_starts_at_its_roots(s, t, monkeypatch):
    # a semicircle's source region is an ellipse, whose height is the
    # interval's half-width less its image's: every node starts at its root
    # and the array solve takes one bundle
    mu = M.semicircle(s)
    region = S.lambda_region(mu, t)
    transforms, bundles = S.transforms, []

    def counted(mu, a0, v2):
        if isinstance(a0, np.ndarray):
            bundles.append(a0.size)
        return transforms(mu, a0, v2)

    monkeypatch.setattr(S, "transforms", counted)
    sw = B.lambda_sweep(mu, t, region.intervals, region.images, 1026)
    assert bundles == [1025]
    a0 = sw["a0"][0, 1:-1]
    exact = np.array([elliptic_vt(s, t, x) for x in a0])
    assert np.max(np.abs(sw["v"][0, 1:-1] - exact)) <= 1e-13


@pytest.mark.parametrize("hint", [math.nan, 0.0, -0.3, "sqrt_t", 1e-20, math.inf])
def test_vt_hints_out_of_range_start_cold(hint):
    # a hint that is not finite or lies outside (4 V_TOL, sqrt(t)) falls back
    # to sqrt(t)/2, in the array solve as in the scalar one: both then take
    # the cold solve's iterates
    mu, t = SWEEP_LAWS["bernoulli"]
    hint = math.sqrt(t) if hint == "sqrt_t" else hint
    assert S._vt_start(hint, math.sqrt(t)) == 0.5 * math.sqrt(t)
    a0 = _sweep_nodes(mu, t, 65)
    cold = S._vt_solve_nodes(mu, t, a0)
    got = S._vt_solve_nodes(mu, t, a0, np.full(a0.size, hint))
    assert all(np.array_equal(x, y) for x, y in zip(got, cold))
    assert np.all(np.abs(M.transforms(mu, a0, got[0] ** 2).p0 - 1.0 / t) <= 1e-13 / t)
    x = float(a0[a0.size // 3])
    assert S._vt_solve(mu, t, x, v_hint=hint) == S._vt_solve(mu, t, x)


#: scalar p0_zero calls of one lambda_region, a_t at the ends included. The
#: bisections to adjacent floats and the golden-section gap search that the
#: edges' secant solve replaced made 108 / 106 / 195 / 113 / 441 / 221 of them
#: on the first six, 235, 221 and 250 on the last three. On the last, the
#: secant lags bisection near a double root and hands its bracket over
REGION_CALLS = {
    "semicircle": (SWEEP_LAWS["semicircle"], 24),
    "uniform": (SWEEP_LAWS["uniform"], 26),
    "bernoulli": (SWEEP_LAWS["bernoulli"], 26),
    "3x^2": (SWEEP_LAWS["3x^2"], 68),
    "four_atoms": (SWEEP_LAWS["four_atoms"], 87),
    "(x-0.3)^4": (SWEEP_LAWS["(x-0.3)^4"], 134),
    "bernoulli(0.5) cut near its tangent": ((M.bernoulli(0.5), 0.999), 117),
    "bernoulli(0.5) just uncut": ((M.bernoulli(0.5), 1.001), 30),
    "bernoulli(0.5) 1e-9 below its split threshold": ((M.bernoulli(0.5), 1.0 - 1e-9), 151),
}


@pytest.mark.parametrize("name", sorted(REGION_CALLS))
def test_region_p0_zero_calls_held(name, monkeypatch):
    (mu, t), budget = REGION_CALLS[name]
    calls, p0_zero = [], S.p0_zero

    def counted(mu, x):
        calls.append(x)
        return p0_zero(mu, x)

    monkeypatch.setattr(S, "p0_zero", counted)
    S._lambda_region_cached.__wrapped__(mu, t)
    assert len(calls) <= budget


def test_vt_solve_caps_are_loud(monkeypatch):
    mu, t = SWEEP_LAWS["four_atoms"]
    (l, r) = S.lambda_region(mu, t).intervals[0]
    monkeypatch.setattr(N, "_PASSES", 1)
    with pytest.raises(NoConvergenceError):
        S._vt_solve(mu, t, 0.5 * (l + r))
    with pytest.raises(NoConvergenceError):
        S._vt_solve_nodes(mu, t, np.linspace(l, r, 9)[1:-1])


def test_lambda_region_end_search_is_loud(monkeypatch):
    # p0(., 0) > 1/t however far past the hull: no end where v_t = 0
    monkeypatch.setattr(S, "p0_zero", lambda mu, x: math.inf)
    with pytest.raises(NoConvergenceError):
        S.lambda_region(M.bernoulli(0.25), 0.8125)


CONTRACT_LAWS = {**SWEEP_LAWS, "bernoulli(1/2) at 0.8": (M.bernoulli(0.5), 0.8)}


@pytest.mark.parametrize("name", sorted(CONTRACT_LAWS))
def test_vt_solve_off_the_region_returns_the_outside_image(name):
    # at every region end and off the region the solve returns (0, a0 - t G(a0),
    # nan), the ends' images as lambda_region holds them; u_t's real part is a_t
    # at the ends and inside, and u_t raises off the closed region
    mu, t = CONTRACT_LAWS[name]
    region = S.lambda_region(mu, t)
    ends = [e for iv in region.intervals for e in iv]
    images = [a for im in region.images for a in im]
    outside = [region.intervals[0][0] - 0.5, region.intervals[-1][1] + 0.5]
    outside += [0.5 * (r + l) for (_, r), (l, _) in zip(region.intervals[:-1], region.intervals[1:])]
    for x, image in [*zip(ends, images), *((x, x - t * M.real_cauchy(mu, x)) for x in outside)]:
        v, at, slope = S._vt_solve(mu, t, x)
        assert v == 0.0 and at == image and math.isnan(slope)
    inside = [0.5 * (l + r) for l, r in region.intervals]
    for x in ends + inside:
        assert P.u_t(mu, t, complex(x, 0.0)).real == S.a_t(mu, t, x)
    for x in outside:
        with pytest.raises(OutsideLambdaError):
            P.u_t(mu, t, complex(x, 0.0))
    # u_t's closure reaches 1e-9 (1 + |lam0|) past each end, and no further
    for l, r in region.intervals:
        for end, out in ((l, -1.0), (r, 1.0)):
            x = end + out * 1e-10
            assert P.u_t(mu, t, complex(x, 0.0)).real == S.a_t(mu, t, x)
            with pytest.raises(OutsideLambdaError):
                P.u_t(mu, t, complex(end + out * 1e-6, 0.0))
    for x in inside:
        v, at, slope = S._vt_solve(mu, t, x)
        assert v > 0.0 and math.isfinite(at) and slope > 0.0
    with pytest.raises(OutsideLambdaError):
        S._vt_solve_nodes(mu, t, np.array(outside))


def test_jt_inverse_failures_are_typed(sc, monkeypatch):
    # forced through _newton_jt: every solve fails; only the solves at lam
    # itself fail; the solves at lam land inside the source region
    newton, lam = S._newton_jt, complex(0.3, 2.0)
    inside = (1j, -100j, 0j)  # p0 = -Im G/Im z = 100 > 1/t

    def failing_at_lam(mu, t, target, z0, tol):
        return None if target == lam else newton(mu, t, target, z0, tol)

    def inside_at_lam(mu, t, target, z0, tol):
        return inside if target == lam else newton(mu, t, target, z0, tol)

    monkeypatch.setattr(S, "_newton_jt", lambda *args: None)
    with pytest.raises(NoConvergenceError, match="continuation stalled"):
        S.j_t_inverse(sc, 1.0, lam)
    monkeypatch.setattr(S, "_newton_jt", failing_at_lam)
    with pytest.raises(NoConvergenceError, match="inversion failed"):
        S.j_t_inverse(sc, 1.0, lam)
    monkeypatch.setattr(S, "_newton_jt", inside_at_lam)
    with pytest.raises(WrongBasinError):
        S.j_t_inverse(sc, 1.0, lam)


@pytest.mark.parametrize("t", [0.0, -1.0, math.inf, math.nan])
def test_vt_solve_rejects_a_bad_t(sc, t):
    with pytest.raises(ValueError, match="positive and finite"):
        S._vt_solve(sc, t, 0.3)
