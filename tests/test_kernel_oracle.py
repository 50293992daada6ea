"""The closed-form kernel layer against a 50-digit mpmath oracle.

The oracle computes G and G' of a polynomial piece by partial fractions in
the monomial basis (the library shifts the polynomial to z instead), of a
semicircle from its algebraic form at 50 digits, and the log-energy of a
piece by parts; every kernel then follows from the exact identities
p0 = -Im G/v, q0 = (p0 + Re G')/(2v^2) and so on, which at 50 digits lose
nothing to cancellation. Direct mpmath quadratures of each kernel integral
check those identities and the semicircle's log-energy. An atomic law's
kernels are 50-digit sums over its atoms.

Errors are relative. For the signed kernels, whose reference can vanish by
symmetry, the denominator is the magnitude of the transform they come from:
|G| for c1 and pa, |G'|/(2v) for q1, max|x|*p0 for p1; for an atomic law it
is the sum of the terms' magnitudes. The log-energy is an O(1) number and is
compared absolutely.
"""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ibrown.measure as M
from conftest import FOUR_ATOMS, bernstein_piece
from ibrown.brown import s_outside
from ibrown.characteristics import InitialData, initial_momenta
from ibrown.subordination import j_t, lambda_region

FIELDS = M.Bundle._fields
#: each field's integrand, and measure.p1's, as a function of x, u = a0 - x
#: and D = u^2 + v^2
KERNELS = {
    "p0": lambda x, u, d: 1 / d,
    "p1": lambda x, u, d: x / d,
    "c1": lambda x, u, d: u / d,
    "q0": lambda x, u, d: 1 / d**2,
    "q1": lambda x, u, d: u / d**2,
    "q2": lambda x, u, d: u * u / d**2,
}
TOL = 1e-10
mp.mp.dps = 50


def two_piece():
    """A law shaped like the benchmark's: a linear piece, then a quadratic
    bump on a positive floor."""
    lo, hi, mid = -0.9, 1.1, 0.2
    f0, f1, k, floor = 0.5, 0.8, 1.0, 0.4
    left = [f0 - (f1 - f0) / (mid - lo) * lo, (f1 - f0) / (mid - lo)]
    right = [floor - k * mid * hi, k * (mid + hi), -k]
    return M.piecewise_poly([(lo, mid, left), (mid, hi, right)])


#: (x - 0.3)^4 on [-1, 2], with an interior zero of fourth order
QUARTIC = M.piecewise_poly([(-1.0, 2.0, (0.0081, -0.108, 0.54, -1.2, 1.0))])


LAWS = {
    "semicircle": (M.semicircle(0.6), 1.4),
    "uniform": (M.uniform(-1.0, 1.0), 0.1),
    "two_piece": (two_piece(), 1.0),
    "double_zero": (M.piecewise_poly([(0.0, 1.0, (0.0, 0.0, 3.0))]), 0.3),
    # narrow cubic and quadratic pieces with a gap: the closed form cancels
    # like |z - center|^(degree+1) away from them
    "narrow_cubic": (
        M.piecewise_poly(
            [
                (1.0, 1.2, bernstein_piece(1.0, 1.2, [0.3, 2.0, 0.1, 1.5])),
                (1.5, 2.0, bernstein_piece(1.5, 2.0, [1.0, 0.2, 1.0])),
            ]
        ),
        0.5,
    ),
}


def _mp_pieces(mu):
    return [(mp.mpf(lo), mp.mpf(hi), [mp.mpf(c) for c in cs]) for lo, hi, cs in mu.pieces]


def oracle_g(mu, z):
    """(G(z), G'(z)) at 50 digits."""
    if mu.kind == "atomic":
        terms = [(mp.mpf(w), z - mp.mpf(x)) for x, w in mu.atoms]
        return sum(w / d for w, d in terms), -sum(w / d**2 for w, d in terms)
    if mu.kind == "semicircle":
        r = mp.mpf(mu.support.hi)  # the float radius the law carries
        s = r * r / 4
        root = mp.sqrt(z - r) * mp.sqrt(z + r)
        return (z - root) / (2 * s), (1 - z / root) / (2 * s)
    g = gp = mp.mpc(0)
    for lo, hi, cs in _mp_pieces(mu):
        # log(hi - z) - log(lo - z) along the segment, where Im(x - z) is
        # fixed; as one log it keeps the arg difference at tiny Im z
        big_l = mp.log((hi - z) / (lo - z))
        for j, c in enumerate(cs):
            # x^j/(z-x) = z^j/(z-x) - sum_{i<j} z^(j-1-i) x^i, then d/dz
            m = [(hi ** (i + 1) - lo ** (i + 1)) / (i + 1) for i in range(j)]
            g += c * (-(z**j) * big_l - sum(z ** (j - 1 - i) * m[i] for i in range(j)))
            gp += c * (
                -(j * z ** (j - 1) if j else 0) * big_l
                - z**j * (1 / (lo - z) - 1 / (hi - z))
                - sum((j - 1 - i) * z ** (j - 2 - i) * m[i] for i in range(j - 1))
            )
    return g, gp


def _density_parts(mu):
    if mu.kind == "semicircle":
        r = mp.mpf(mu.support.hi)
        return [(-r, r, lambda x: 2 / (mp.pi * r * r) * mp.sqrt(max(r * r - x * x, 0)))]
    return [
        (lo, hi, (lambda cs: lambda x: sum(c * x**j for j, c in enumerate(cs)))(cs))
        for lo, hi, cs in _mp_pieces(mu)
    ]


def direct(mu, a0, v, kernel, dps=30):
    """int kernel(x, a0 - x, (a0-x)^2 + v^2) dmu(x) by mpmath quadrature,
    split on a geometric ladder around a0."""
    with mp.workdps(dps):
        a0, v = mp.mpf(a0), mp.mpf(v)
        total = 0
        for lo, hi, rho in _density_parts(mu):
            pts = {lo, hi}
            if lo < a0 < hi:
                pts.add(a0)
            for k in range(40):
                for p in (a0 - v * 4**k, a0 + v * 4**k):
                    if lo < p < hi:
                        pts.add(p)

            def integrand(x, rho=rho):
                return rho(x) * kernel(x, a0 - x, (a0 - x) ** 2 + v * v)

            total += mp.quad(integrand, sorted(pts))
        return total


def oracle_log(mu, a0, v):
    """int log((x-a0)^2 + v^2) dmu at 50 digits (by parts for pieces)."""
    if mu.kind == "atomic":
        return sum(mp.mpf(w) * mp.log((mp.mpf(x) - a0) ** 2 + mp.mpf(v) ** 2) for x, w in mu.atoms)
    if mu.kind == "semicircle":
        return direct(mu, a0, v, lambda x, u, d: mp.log(d), dps=20)
    z = mp.mpc(a0, v)
    total = mp.mpc(0)
    for lo, hi, cs in _mp_pieces(mu):
        for j, c in enumerate(cs):
            n = j + 1
            # int x^j log(x-z) = x^n log(x-z)/n - (1/n) int x^n/(x-z)
            rest = z**n * (mp.log(hi - z) - mp.log(lo - z)) + sum(
                z ** (n - 1 - i) * (hi ** (i + 1) - lo ** (i + 1)) / (i + 1) for i in range(n)
            )
            ends = hi**n * mp.log(hi - z) / n - lo**n * mp.log(lo - z) / n
            total += c * (ends - rest / n)
    return 2 * total.real


def oracle_bundle(mu, a0, v):
    a0, v = mp.mpf(a0), mp.mpf(v)
    g, gp = oracle_g(mu, mp.mpc(a0, v))
    p0 = -g.imag / v
    ref = {
        "p0": p0,
        "p1": a0 * p0 - g.real,
        "pa": 2 * g.real,
        "c1": g.real,
        "q0": (p0 + gp.real) / (2 * v * v),
        "q1": gp.imag / (2 * v),
        "q2": (p0 - gp.real) / 2,
    }
    span = max(abs(mu.support.lo), abs(mu.support.hi))
    scale = {"c1": abs(g), "pa": 2 * abs(g), "q1": abs(gp) / (2 * v), "p1": span * p0}
    return ref, scale, g, gp


def kernels(mu, a0, v):
    """The bundle's fields and measure.p1 at (a0, v), by name."""
    return {**M.transforms(mu, a0, v * v)._asdict(), "p1": M.p1(mu, a0, v)}


def rel_err(got, ref, scale=0):
    return float(abs(mp.mpf(got) - ref) / max(abs(ref), scale))


def grid(mu, t):
    """(a0, v): v from 1e-6 to sqrt(t); a0 within 1e-7 of each Lambda_t edge,
    on the support's ends, inside and outside."""
    edges = [e for iv in lambda_region(mu, t).intervals for e in iv]
    a0s = [e + d for e in edges for d in (-1e-7, 1e-7)]
    lo, hi = mu.support.lo, mu.support.hi
    a0s += [lo, hi, 0.5 * (lo + hi) + 0.1234 * (hi - lo), hi + 0.7, lo - 3.0]
    vs = [1e-6, 1e-4, 1e-2, 0.3 * math.sqrt(t), math.sqrt(t)]
    return [(a0, v) for a0 in a0s for v in vs]


@pytest.mark.parametrize("name", sorted(LAWS))
def test_kernel_bundle_matches_oracle(name):
    mu, t = LAWS[name]
    for a0, v in grid(mu, t):
        got = kernels(mu, a0, v)
        ref, scale, _, _ = oracle_bundle(mu, a0, v)
        for k in KERNELS:
            assert rel_err(got[k], ref[k], scale.get(k, 0)) <= TOL, (name, k, a0, v)
        if v >= 1e-4 or mu.kind != "semicircle":  # the semicircle's log oracle is a quadrature
            log = M.log_potential(mu, a0, v * v)
            assert abs(log - oracle_log(mu, a0, v)) <= TOL, (name, "log", a0, v)


def cauchy_points(mu, t):
    """Every third grid point and its mirror below the axis, then a ring of
    points out to 1e3 from the support (J_t inversion starts tens of units
    above it)."""
    pts = [(a0, b) for a0, v in grid(mu, t)[::3] for b in (v, -v)]
    center = 0.5 * (mu.support.lo + mu.support.hi)
    for dist in (0.7, 2.0, 5.0, 20.0, 1e3):
        for ang in (0.05, 1.0, 2.0, 3.1):
            pts.append((center + dist * math.cos(ang), dist * math.sin(ang)))
    return pts


#: the piecewise laws and an atomic one, whose G and G' the solvers also sum
#: through _cauchy_pair
CAUCHY_LAWS = {**LAWS, "four_atoms": (FOUR_ATOMS, 0.5)}


@pytest.mark.parametrize("name", sorted(CAUCHY_LAWS))
def test_cauchy_and_log_potential_match_oracle(name):
    mu, t = CAUCHY_LAWS[name]
    for a0, b in cauchy_points(mu, t):
        g, gp = oracle_g(mu, mp.mpc(a0, b))
        assert rel_err(abs(M.cauchy(mu, complex(a0, b)) - g), 0, abs(g)) <= TOL
        assert rel_err(abs(M.cauchy_prime(mu, complex(a0, b)) - gp), 0, abs(gp)) <= TOL
        if b > 0.0:
            assert abs(M.log_potential(mu, a0, b * b) - oracle_log(mu, a0, b)) <= TOL


@pytest.mark.parametrize("name", sorted(LAWS))
def test_oracle_identities_match_direct_quadrature(name):
    mu, t = LAWS[name]
    edge = lambda_region(mu, t).intervals[0][0]
    for a0, v in ((edge + 1e-7, 1e-4), (0.5 * (mu.support.lo + mu.support.hi) + 0.1, 0.3)):
        ref, scale, _, _ = oracle_bundle(mu, a0, v)
        for k, kern in KERNELS.items():
            assert rel_err(direct(mu, a0, v, kern, dps=25), ref[k], scale.get(k, 0)) <= 1e-18
    if mu.kind == "semicircle":
        # F(z) = z G/2 + log((z + sqrt(z^2 - 4s))/2) - 1/2 at 50 digits
        z = mp.mpc(edge - 0.3, 0.2)
        g, _ = oracle_g(mu, z)
        r = mp.mpf(mu.support.hi)
        f = z * g / 2 + mp.log((z + mp.sqrt(z - r) * mp.sqrt(z + r)) / 2) - mp.mpf(1) / 2
        ref = direct(mu, z.real, z.imag, lambda x, u, d: mp.log(d), dps=25)
        assert abs(2 * f.real - ref) <= 1e-20


@st.composite
def random_laws(draw):
    if draw(st.booleans()):
        return M.semicircle(draw(st.floats(0.05, 4.0)))
    pieces, x = [], draw(st.floats(-2.0, 1.0))
    for _ in range(draw(st.integers(1, 3))):
        x += draw(st.sampled_from([0.0, 0.0, 0.3]))  # contiguous or with a gap
        w = draw(st.floats(0.2, 1.5))
        beta = draw(st.lists(st.floats(0.05, 2.0), min_size=1, max_size=4))
        pieces.append((x, x + w, bernstein_piece(x, x + w, beta)))
        x += w
    return M.piecewise_poly(pieces)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(mu=random_laws(), s=st.floats(-0.5, 1.5), log_v=st.floats(-6.0, 0.0))
def test_random_laws_match_oracle(mu, s, log_v):
    # a0 from just left of the support to just right of it, in hull units
    a0 = mu.support.lo + s * (mu.support.hi - mu.support.lo)
    v = 10.0**log_v
    got = kernels(mu, a0, v)
    ref, scale, _, _ = oracle_bundle(mu, a0, v)
    for k in KERNELS:
        assert rel_err(got[k], ref[k], scale.get(k, 0)) <= TOL, k


def test_atomic_bundle_matches_sums_over_atoms():
    # a0 next to an atom, at 1e-7 and 1e-3 on either side, between atoms
    # and outside the hull; v from 1e-6 to sqrt(t). The oracle takes the
    # float v^2 that the kernels get, so near an atom both see the same D.
    mu, t = M.atomic([(-2.0, 0.1), (-0.5, 0.4), (0.7, 0.3), (2.5, 0.2)]), 0.5
    xs = [x for x, _ in mu.atoms]
    a0s = [x + d for x in xs for d in (-1e-3, -1e-7, 1e-7, 1e-3)]
    a0s += [0.5 * (x + y) for x, y in zip(xs[:-1], xs[1:])] + [0.1, -3.0, 3.4]
    for a0 in a0s:
        for v in (1e-6, 1e-4, 1e-2, 0.3 * math.sqrt(t), math.sqrt(t)):
            v2 = v * v
            got = kernels(mu, a0, v)
            terms = [(mp.mpf(w), mp.mpf(x), mp.mpf(a0) - mp.mpf(x)) for x, w in mu.atoms]
            for k, kern in KERNELS.items():
                vals = [w * kern(x, u, u * u + mp.mpf(v2)) for w, x, u in terms]
                ref, scale = sum(vals), sum(abs(val) for val in vals)
                assert rel_err(got[k], ref, scale) <= TOL, (k, a0, v)


def _q0_cancel_ratio(mu, a0, v):
    g, gp = M._cauchy_pair(mu, complex(a0, v))
    p0v = -g.imag / v
    return (p0v + gp.real) / p0v


@pytest.mark.parametrize(
    "name", ["semicircle", "double_zero", "uniform", "two_piece", "narrow_cubic"]
)
def test_q0_switch_over(name, monkeypatch):
    # off the support, p0 + Re G' cancels like v^2: find where it is
    # 1e-4 * p0 and check both sides of the switch against the oracle
    mu, _ = LAWS[name]
    a0 = mu.support.hi + 0.05
    lo, hi = 1e-8, 1.0
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if _q0_cancel_ratio(mu, a0, mid) < M._Q0_CANCEL:
            lo = mid
        else:
            hi = mid
    calls = []
    cancelled = M._q0_cancelled
    monkeypatch.setattr(M, "_q0_cancelled", lambda *args: calls.append(args) or cancelled(*args))
    for v, switched in ((lo * (1 - 1e-9), True), (hi * (1 + 1e-9), False)):
        calls.clear()
        got = M.transforms(mu, a0, v * v).q0
        assert bool(calls) == switched
        ref, _, _, _ = oracle_bundle(mu, a0, v)
        assert rel_err(got, ref["q0"]) <= TOL
    # the cancelled q0 with a0 off each piece, at distance d from it: v/d from
    # 1e-12 to 0.25 (the series in v^2 or in the moments), and on to 4 (the
    # term-by-term sum within 4v of the piece)
    for lo, hi, _ in mu.pieces:
        w = hi - lo
        left = [(lo - d, d) for d in (1e-9, 1e-6, 0.05 * w, 2 * w, 15 * w)]
        right = [(hi + d, d) for d in (1e-7, 1e-3, w, 20 * w)]
        for a0, d in left + right:
            for ratio in (1e-12, 1e-8, 1e-4, 1e-2, 0.1, 0.25, 0.5, 1.0, 4.0):
                v = ratio * d
                ref, _, _, _ = oracle_bundle(mu, a0, v)
                got = cancelled(mu, np.array([a0]), np.array([v * v]))[0]
                assert rel_err(got, ref["q0"]) <= 1e-12, (lo, a0, ratio)


def test_momenta_at_tiny_regularization_on_a_piece_law():
    # b0 = 0, eps0 = 1e-300 off the divergence set evaluates the kernels at v^2 = 1e-300
    mu, _ = LAWS["two_piece"]
    for a0 in (-1.4, 1.5):
        mom = initial_momenta(mu, InitialData(complex(a0, 0.0), 1e-300))
        p0v, p1v, pav, pbv = mom.p0, mom.p1, mom.p_a0, mom.p_b0
        ref, scale, _, _ = oracle_bundle(mu, a0, mp.sqrt(mp.mpf("1e-300")))
        assert rel_err(p0v, ref["p0"]) <= TOL
        assert rel_err(p1v, ref["p1"], scale["p1"]) <= TOL
        assert rel_err(pav, ref["pa"], scale["pa"]) <= TOL
        assert pbv == 0.0
        assert p0v == pytest.approx(M.p0_zero(mu, a0), rel=1e-12)


def test_closed_forms_raise_on_support_at_edges():
    # a typed error, not math's ValueError from log(0) or a ZeroDivisionError
    for x in (1.0, -1.0):
        with pytest.raises(M.OnSupportError):
            M.cauchy(M.uniform(-1.0, 1.0), x)
    with pytest.raises(M.OnSupportError):
        M.cauchy_prime(M.semicircle(1.0), 2.0)


@pytest.mark.parametrize("name", ["quartic", "two_piece"])
def test_real_axis_far_field_matches_oracle(name):
    # G and G' at real points far from a piece take its multipole series, as
    # off the axis; the closed form there cancels like |a0 - center|^(degree + 1)
    mu = QUARTIC if name == "quartic" else LAWS["two_piece"][0]
    for a0 in (10.0, 30.0, 100.0, 1000.0, -50.0):
        g, gp = oracle_g(mu, mp.mpc(a0, 0))
        assert rel_err(M.real_cauchy(mu, a0), g.real) <= 1e-14, a0
        assert rel_err(M.cauchy(mu, a0).real, g.real) <= 1e-14, a0
        assert rel_err(M.p0_zero(mu, a0), -gp.real) <= 1e-14, a0
        assert rel_err(M.cauchy_prime(mu, a0).real, gp.real) <= 1e-14, a0
    ref = 1000 - mp.mpf("0.3") * oracle_g(QUARTIC, mp.mpc(1000, 0))[0].real
    assert rel_err(j_t(QUARTIC, 0.3, 1000.0).real, ref) <= 1e-15


def test_one_contact_rule_on_the_real_axis():
    # cauchy_prime raises exactly where p0_zero is infinite: finite at the
    # quartic's fourth-order zero, raising where the density is positive, at
    # an atom and at the semicircle's edges, where real_cauchy stays finite
    p0z = M.p0_zero(QUARTIC, 0.3)
    assert math.isfinite(p0z)
    assert M.cauchy_prime(QUARTIC, 0.3) == complex(-p0z)
    sc = M.semicircle(1.0)
    for mu, x in ((QUARTIC, 0.5), (FOUR_ATOMS, 0.7), (sc, 2.0), (sc, -2.0)):
        with pytest.raises(M.OnSupportError):
            M.cauchy_prime(mu, x)
    assert M.real_cauchy(sc, 2.0) == 1.0
    # just past a piece end where the density is positive, G and G' are finite
    uni = M.uniform(-1.0, 1.0)
    near = [(uni, s * (1.0 + d)) for s in (1.0, -1.0) for d in (1e-13, 3e-12)] + [(QUARTIC, 2.0 + 1e-13)]
    for mu, a0 in near:
        g, _ = oracle_g(mu, mp.mpc(a0, 0))
        assert rel_err(M.real_cauchy(mu, a0), g.real) <= 1e-13, a0
        assert rel_err(M.cauchy(mu, a0).real, g.real) <= 1e-13, a0
        assert math.isfinite(M.cauchy_prime(mu, a0).real), a0


# ---------------------------------------------------------------------------
# array bundles: one transforms call over many nodes


def test_kernel_bundle_grid_in_one_array_call():
    # the oracle grid of every law through a single array call, same bounds
    for name, (mu, t) in LAWS.items():
        a0, v = (np.array(col) for col in zip(*grid(mu, t)))
        got = M.transforms(mu, a0, v * v)._asdict()
        got["p1"] = a0 * got["p0"] - got["c1"]  # as measure.p1 derives it
        for i in range(a0.size):
            ref, scale, _, _ = oracle_bundle(mu, a0[i], v[i])
            for k in KERNELS:
                err = rel_err(got[k][i], ref[k], scale.get(k, 0))
                assert err <= TOL, (name, k, a0[i], v[i])


def _term_scales(mu, a0, v, bundle):
    """Per field, the sum of the magnitudes of the terms that the kernel adds
    up at z = a0 + iv: the scale of its rounding. An atomic law sums w K(x)
    over its atoms; a closed form sums the terms of G and G' (multipole
    series, or the shifted polynomial's powers and the log), from which
    p0 = -Im G/v, q1 = Im G'/(2v) and so on follow. The cancelled q0's
    series lead with their largest term, so q0 is its own scale there."""
    if mu.kind == "atomic":
        u = a0 - np.array([x for x, _ in mu.atoms])
        w = np.array([w for _, w in mu.atoms])
        d = u * u + v * v
        xs = a0 - u
        return {k: float(np.sum(w * np.abs(KERNELS[k](xs, u, d)))) for k in FIELDS}
    z = complex(a0, v)
    if mu.kind == "semicircle":
        g, gp = M._cauchy_pair(mu, z)
        sg, sgp = abs(g), abs(gp)
    else:
        sg = sgp = 0.0
        for (lo, hi, coeffs), pole in zip(mu.pieces, mu.piece_multipoles):
            n = M._multipole_terms(pole, z)
            if n:
                inv = 1.0 / abs(z - pole[0])
                sg += sum(abs(m) * inv ** (k + 1) for k, m in enumerate(pole[2][:n]))
                sgp += sum((k + 1) * abs(m) * inv ** (k + 2) for k, m in enumerate(pole[2][:n]))
                continue
            b = [abs(bk) for bk in M.poly_shift(coeffs, z)] + [0.0]
            u0, u1 = abs(lo - z), abs(hi - z)
            log = abs(cmath.log((hi - z) / (lo - z)))
            sg += b[0] * log + sum(b[k] * (u0**k + u1**k) / k for k in range(1, len(b)))
            sgp += b[0] * (1 / u0 + 1 / u1) + b[1] * log
            sgp += sum(b[k] * (u0 ** (k - 1) + u1 ** (k - 1)) / (k - 1) for k in range(2, len(b)))
    cancelled = not (bundle.p0 + M._cauchy_pair(mu, z)[1].real >= M._Q0_CANCEL * bundle.p0)
    return {
        "p0": sg / v,
        "p1": abs(a0) * sg / v + sg,
        "c1": sg,
        "q0": abs(bundle.q0) if cancelled else (sg / v + sgp) / (2 * v * v),
        "q1": sgp / (2 * v),
        "q2": (sg / v + sgp) / 2,
    }


def _switch_nodes(mu):
    """(a0, v) on both sides of each piece's multipole switch, |z - c| = 4h."""
    out = []
    for c, h, _ in mu.piece_multipoles:
        for side in (1 - 1e-3, 1 + 1e-3):
            for ang in (0.05, 0.7, 1.5, 2.4):
                out.append((c + 4 * h * side * math.cos(ang), 4 * h * side * math.sin(ang)))
    return out


def _cancelled_nodes(mu):
    """(a0, v) where q0 takes _q0_cancelled: just outside each piece end or
    the semicircle's edge, at v/d from 1e-9 to 4 (the series in v^2 or in the
    moments, and the term-by-term sum within 4v)."""
    if mu.kind == "semicircle":
        ends = [mu.support.hi]
    else:
        ends = [e for lo, hi, _ in mu.pieces for e in (lo, hi)]
    out = []
    for e in ends:
        for d in (1e-7, 1e-3, 0.05):
            for ratio in (1e-9, 1e-4, 0.1, 1.0, 4.0):
                out += [(e + d, ratio * d), (e - d, ratio * d)]
    return out


ARRAY_LAWS = {
    "semicircle": M.semicircle(1.0),
    "uniform": M.uniform(-1.0, 1.0),
    "two_piece": two_piece(),
    "3x^2": M.piecewise_poly([(0.0, 1.0, (0.0, 0.0, 3.0))]),
    "four_atoms": M.atomic([(-2.0, 0.25), (-0.5, 0.25), (0.7, 0.25), (2.5, 0.25)]),
    # a0 on the piece next to its fourth-order zero: the term-by-term q0
    "(x-0.3)^4": M.piecewise_poly([(-1.0, 2.0, tuple(np.polynomial.polynomial.polypow([-0.3, 1.0], 4)))]),
}


@pytest.mark.parametrize("name", sorted(ARRAY_LAWS))
def test_array_bundle_matches_scalar_bundles(name, monkeypatch):
    mu = ARRAY_LAWS[name]
    if name == "(x-0.3)^4":
        nodes = [(0.3 + d, v) for d in (-1e-3, -1e-6, 0.0, 1e-6, 1e-3) for v in (1e-9, 1e-6, 1e-4)]
    else:
        lo, hi = mu.support.lo, mu.support.hi
        nodes = [(a0, v) for a0 in np.linspace(lo - 1.0, hi + 1.0, 23) for v in (1e-6, 1e-2, 0.7)]
        if mu.kind == "piecewise_poly":
            nodes += _switch_nodes(mu)
        if mu.kind != "atomic":
            nodes += _cancelled_nodes(mu)
    a0, v = (np.array(col) for col in zip(*nodes))
    calls = []
    cancelled = M._q0_cancelled
    monkeypatch.setattr(M, "_q0_cancelled", lambda *args: calls.append(args) or cancelled(*args))
    got = M.transforms(mu, a0, v * v)
    assert len(calls) <= 1  # the cancelled nodes of an array call in one call
    if mu.kind != "atomic":
        assert calls, "no node took the cancelled q0"
    for i in range(a0.size):
        ref = M.transforms(mu, float(a0[i]), float(v[i] * v[i]))
        scale = _term_scales(mu, float(a0[i]), float(v[i]), ref)
        for k in FIELDS:
            err = abs(getattr(got, k)[i] - getattr(ref, k)) / scale[k]
            assert err <= 1e-14, (k, a0[i], v[i], err)


#: piecewise laws whose log energy on the real line (c = 0) takes the same
#: closed form and multipole far field as off it
REAL_LOG_LAWS = {
    "uniform": M.uniform(-1.0, 1.0),
    "3x^2": M.piecewise_poly([(0.0, 1.0, (0.0, 0.0, 3.0))]),
    "two pieces": M.piecewise_poly([(-1.0, 0.2, (0.5, 0.3)), (0.2, 1.1, (0.3, 1.0, -1.0))]),
    "(x-0.3)^4": M.piecewise_poly([(-1.0, 2.0, tuple(np.polynomial.polynomial.polypow([-0.3, 1.0], 4)))]),
}


@pytest.mark.parametrize("name", sorted(REAL_LOG_LAWS))
def test_real_axis_log_energy_matches_quadrature(name):
    # far on both sides, where the pieces are summed as multipoles, on a
    # piece, where log|x - a0| is singular, and at each piece end
    mu = REAL_LOG_LAWS[name]
    lo, hi, _ = mu.pieces[0]
    a0s = [-40.0, 40.0, 1000.0, lo + 0.3 * (hi - lo)]
    a0s += sorted({e for lo, hi, _ in mu.pieces for e in (lo, hi)})
    for a0 in a0s:
        got = M.log_potential(mu, a0, 0.0)
        ref = direct(mu, a0, 0.0, lambda x, u, d: mp.log(d), dps=30)
        assert abs(got - float(ref)) <= 1e-13 * (1.0 + abs(got)), (name, a0, got, float(ref))


def test_log_potential_continuous_onto_the_real_axis():
    # s_t outside the region at lam = 40 takes z0 = J_t^{-1}(40) on the real
    # line, and at 40 + 1e-9 i a point just off it
    quartic = REAL_LOG_LAWS["(x-0.3)^4"]
    assert abs(s_outside(quartic, 0.3, 40.0) - s_outside(quartic, 0.3, 40.0 + 1e-9j)) <= 1e-9
