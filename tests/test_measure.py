import json
import math
from fractions import Fraction

import numpy as np
import pytest

import ibrown.measure as M
from ibrown.errors import (
    DiracMeasureError,
    DivergentLogError,
    EmptyMeasureError,
    MeasureFormatError,
    NegativeMassError,
    OnSupportError,
)


# ---------------------------------------------------------------------------
# validation


def test_bernoulli_normalizes_to_atoms():
    mu = M.bernoulli(2.0 / 3.0)
    assert mu.kind == "atomic"
    xs = [x for x, _ in mu.atoms]
    ws = [w for _, w in mu.atoms]
    assert xs == [-1.0, 1.0]
    assert ws[0] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert ws[1] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert (mu.support.lo, mu.support.hi) == (-1.0, 1.0)


def test_coincident_atoms_collapse_to_dirac():
    with pytest.raises(DiracMeasureError):
        M.atomic([(0.0, 0.5), (0.0, 0.5)])


def test_quadratic_density_mass_and_support():
    mu = M.piecewise_poly([(0.0, 1.0, (0.0, 0.0, 3.0))])
    assert (mu.support.lo, mu.support.hi) == (0.0, 1.0)
    # 3x^2 already integrates to one, so no rescale
    assert mu.rescale == pytest.approx(1.0, abs=1e-15)


def test_mass_renormalization_recorded():
    mu = M.atomic([(-1.0, 1.0), (1.0, 3.0)])
    assert sum(w for _, w in mu.atoms) == pytest.approx(1.0, abs=1e-15)
    assert mu.rescale == pytest.approx(0.25)


def test_negative_and_empty_rejected():
    with pytest.raises(NegativeMassError):
        M.atomic([(-1.0, 0.5), (1.0, -0.1)])
    with pytest.raises(EmptyMeasureError):
        M.atomic([(-1.0, 0.0), (1.0, 0.0)])
    with pytest.raises(NegativeMassError):
        M.piecewise_poly([(0.0, 1.0, (-0.5, 2.0))])
    # negative only on (0.50039, 0.50059), between any two of 513 equispaced samples
    c = 0.50049
    coeffs = [c * c - 1e-8, -2.0 * c, 1.0]
    with pytest.raises(NegativeMassError):
        M.piecewise_poly([(0.0, 1.0, coeffs)])
    piece = {"lo": 0.0, "hi": 1.0, "coeffs": coeffs}
    with pytest.raises(NegativeMassError):
        M.from_json(json.dumps({"type": "piecewise_poly", "pieces": [piece]}))


@pytest.mark.parametrize(
    "make,error",
    [
        (lambda: M.atomic([(math.nan, 0.5), (1.0, 0.5)]), MeasureFormatError),
        (lambda: M.atomic([(-1.0, math.inf), (1.0, 0.5)]), MeasureFormatError),
        (lambda: M.atomic([]), EmptyMeasureError),
        (lambda: M.piecewise_poly([(1.0, 0.0, (1.0,))]), MeasureFormatError),
        (lambda: M.piecewise_poly([(0.0, math.inf, (1.0,))]), MeasureFormatError),
        (lambda: M.piecewise_poly([(0.0, 1.0, ())]), MeasureFormatError),
        (lambda: M.piecewise_poly([(0.0, 1.0, (0.0,))]), EmptyMeasureError),
        (lambda: M.piecewise_poly([(0.0, 1.0, (1.0,)), (0.5, 2.0, (1.0,))]), MeasureFormatError),
        # a non-finite coefficient, and masses past the float range: each was
        # dropped silently or normalized to zero
        (lambda: M.piecewise_poly([(0.0, 1.0, (1.0,)), (1.0, 2.0, (math.nan,))]), MeasureFormatError),
        (lambda: M.piecewise_poly([(0.0, 1.0, (1.0,)), (1.0, 2.0, (math.inf,))]), MeasureFormatError),
        (lambda: M.atomic([(0.0, 1e308), (1.0, 1e308)]), MeasureFormatError),
        (lambda: M.piecewise_poly([(0.0, 1.0, (1e308,)), (1.0, 2.0, (1e308,))]), MeasureFormatError),
        (lambda: M.piecewise_poly([(0.0, 1.0, (1.0,)), (1e200, 2e200, (0.0, 1.0))]), MeasureFormatError),
        (lambda: M.semicircle(0.0), MeasureFormatError),
        (lambda: M.semicircle(math.inf), MeasureFormatError),
        (lambda: M.uniform(1.0, 1.0), MeasureFormatError),
        (lambda: M.bernoulli(0.0), MeasureFormatError),
        (lambda: M.bernoulli(1.0), MeasureFormatError),
    ],
)
def test_constructors_raise_typed_errors(make, error):
    with pytest.raises(error):
        make()


@pytest.mark.parametrize(
    "text,match",
    [
        ("{'type': 'uniform'}", "invalid JSON"),
        ('[{"type":"uniform","lo":-1.0,"hi":1.0}]', "JSON object"),
        ('{"type":"uniform","lo":-1.0}', "missing keys"),
        ('{"type":"piecewise_poly","pieces":[{"lo":0.0,"hi":1.0}]}', "piece entries"),
    ],
)
def test_json_format_errors(text, match):
    with pytest.raises(MeasureFormatError, match=match):
        M.from_json(text)


def test_json_schema_strict():
    ok = M.from_json('{"type":"uniform","lo":-1.0,"hi":1.0}')
    assert ok.kind == "piecewise_poly"
    with pytest.raises(MeasureFormatError):
        M.from_json('{"type":"uniform","lo":-1.0,"hi":1.0,"extra":2}')
    with pytest.raises(MeasureFormatError):
        M.from_json('{"type":"gaussian","sigma":1.0}')
    with pytest.raises(MeasureFormatError):
        M.from_json('{"type":"atomic","atoms":[{"x":0.0,"w":1.0,"tag":"a"}]}')


def test_json_round_trip():
    mu = M.bernoulli(0.25)
    again = M.from_json(M.to_json(mu))
    assert again.atoms == mu.atoms
    obj = json.loads(M.to_json(M.semicircle(2.0)))
    assert obj == {"type": "semicircle", "variance": 2.0}


# ---------------------------------------------------------------------------
# p0 / p1 / q kernels


def test_p0_two_symmetric_atoms():
    assert M.p0(M.bernoulli(0.5), 0.0, 1.0) == pytest.approx(0.5, abs=1e-14)


def test_p0_uniform_closed_form():
    mu = M.uniform(-1.0, 1.0)
    for a0, v in [(0.0, 1.0), (0.3, 0.7), (-1.2, 0.05), (0.9, 1e-4)]:
        exact = (math.atan((1.0 - a0) / v) + math.atan((1.0 + a0) / v)) / (2.0 * v)
        assert M.p0(mu, a0, v) == pytest.approx(exact, rel=1e-9)


def test_p0_atom_at_point_diverges():
    mu = M.atomic([(0.0, 0.9), (1.0, 0.1)])
    assert M.p0(mu, 0.0, 0.0) == math.inf


def test_p0_strictly_decreasing_in_v():
    for mu in [M.bernoulli(0.5), M.uniform(-1, 1), M.semicircle(1.0)]:
        for a0 in (-0.7, 0.0, 1.3):
            vals = [M.p0(mu, a0, v) for v in (0.1, 0.3, 0.8, 1.5, 3.0)]
            assert all(x > y for x, y in zip(vals, vals[1:]))


def test_p0_dominated_by_inverse_v_squared():
    for mu in [M.bernoulli(0.25), M.atomic([(-2, 0.4), (0.5, 0.3), (2, 0.3)])]:
        for a0 in (-1.0, 0.2, 2.5):
            for v in (0.2, 0.9, 2.0):
                assert M.p0(mu, a0, v) <= 1.0 / v **2
            t = 0.7
            assert M.p0(mu, a0, math.sqrt(t)) < 1.0 / t - 1e-12


def test_p1_examples():
    assert M.p1(M.bernoulli(0.5), 0.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert M.p1(M.bernoulli(2.0 / 3.0), 0.0, 1.0) == pytest.approx(1.0 / 6.0, abs=1e-14)
    assert M.p1(M.semicircle(1.0), 0.0, 0.05) == pytest.approx(0.0, abs=1e-10)


def test_q_integrals_closed_forms():
    out = M.transforms(M.bernoulli(0.5), 0.0, 1.0)
    q0, q1, q2 = out.q0, out.q1, out.q2
    assert q0 == pytest.approx(0.25, abs=1e-14)
    assert q1 == pytest.approx(0.0, abs=1e-14)
    assert q2 == pytest.approx(0.25, abs=1e-14)


def test_q1_vanishes_for_symmetric_laws():
    for mu in [M.bernoulli(0.5), M.uniform(-1, 1), M.semicircle(0.7)]:
        assert M.transforms(mu, 0.0, 0.8 * 0.8).q1 == pytest.approx(0.0, abs=1e-11)


def test_q0_uniform_antiderivative_oracle():
    # int_{-1}^{1} (1/2) dx/(x^2+1)^2 = (x/(2(x^2+1)) + atan(x)/2) | scaled
    exact = (math.pi / 4.0 + 0.5) / 2.0
    assert M.transforms(M.uniform(-1, 1), 0.0, 1.0).q0 == pytest.approx(exact, rel=1e-11)


def test_q_cauchy_schwarz_strict():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = rng.integers(2, 6)
        xs = rng.uniform(-2, 2, n)
        ws = rng.uniform(0.05, 1.0, n)
        mu = M.atomic(list(zip(xs, ws)))
        a0 = rng.uniform(-3, 3)
        v = rng.uniform(0.05, 2.0)
        out = M.transforms(mu, a0, v * v)
        q0, q1, q2 = out.q0, out.q1, out.q2
        assert q0 > 0 and q2 > 0
        assert q0 * q2 - q1 * q1 > 1e-12 * q0 * q2


# ---------------------------------------------------------------------------
# Cauchy transform


def test_cauchy_semicircle_branch():
    # G(z) = (z - sqrt(z^2-4s))/(2s) with G ~ 1/z at infinity
    val = M.cauchy(M.semicircle(1.0), 2j)
    assert val == pytest.approx(1j * (1.0 - math.sqrt(2.0)), abs=1e-14)
    far = M.cauchy(M.semicircle(1.0), 100 + 5j)
    assert far == pytest.approx(1.0 / (100 + 5j), rel=1e-3)


def test_cauchy_atomic_rational():
    mu = M.atomic([(1.0, 0.75), (-1.0, 0.25)])
    z = 0.3 + 0.8j
    assert M.cauchy(mu, z) == pytest.approx(0.75 / (z - 1) + 0.25 / (z + 1), abs=1e-15)


def test_cauchy_conjugate_symmetry_and_sign():
    rng = np.random.default_rng(1)
    for mu in [M.semicircle(1.0), M.uniform(-1, 1), M.bernoulli(0.3)]:
        for _ in range(8):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.05, 2.0))
            g = M.cauchy(mu, z)
            assert g.imag < 0.0
            assert M.cauchy(mu, z.conjugate()) == pytest.approx(g.conjugate(), rel=1e-12)


def test_cauchy_on_support_raises():
    with pytest.raises(OnSupportError):
        M.cauchy(M.uniform(-1, 1), 0.5)
    with pytest.raises(OnSupportError):
        M.cauchy(M.bernoulli(0.5), 1.0 + 0j)


def test_cauchy_on_the_real_axis_is_real_cauchy():
    # one real-axis path: off the support, and on it where the density
    # vanishes, as at the fourth-order zero of (x - 0.3)^4
    quartic = M.piecewise_poly([(-1.0, 2.0, tuple(np.polynomial.polynomial.polypow([-0.3, 1.0], 4)))])
    for mu, x in ((quartic, 0.3), (quartic, 2.5), (M.semicircle(1.0), 2.0), (M.bernoulli(0.5), 0.2)):
        assert M.cauchy(mu, x) == complex(M.real_cauchy(mu, x))
    assert M.cauchy(M.semicircle(1.0), 2.0) == pytest.approx(1.0, abs=1e-12)


def test_cauchy_prime_matches_rational_derivative():
    mu = M.atomic([(1.0, 0.5), (-1.0, 0.5)])
    z = 2j
    expect = -(0.5 / (z - 1) ** 2 + 0.5 / (z + 1) ** 2)
    assert M.cauchy_prime(mu, z) == pytest.approx(expect, abs=1e-15)


def test_cauchy_prime_semicircle_symbolic():
    # d/dz (z - sqrt(z^2-4))/2 = (1 - z/sqrt(z^2-4))/2
    z = 3.0
    expect = (1.0 - z / math.sqrt(z * z - 4.0)) / 2.0
    assert M.cauchy_prime(M.semicircle(1.0), z) == pytest.approx(expect, abs=1e-14)


def test_cauchy_prime_finite_difference():
    h = 1e-6
    rng = np.random.default_rng(2)
    for mu in [M.semicircle(1.0), M.uniform(-1, 1), M.bernoulli(0.4)]:
        for _ in range(5):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.3, 1.5))
            fd = (M.cauchy(mu, z + h) - M.cauchy(mu, z - h)) / (2 * h)
            assert M.cauchy_prime(mu, z) == pytest.approx(fd, rel=1e-6)


# ---------------------------------------------------------------------------
# quantiles


def test_quantile_examples():
    assert M.quantile(M.uniform(-1, 1), 0.75) == pytest.approx(0.5, abs=1e-12)
    assert M.quantile(M.bernoulli(2.0 / 3.0), 0.2) == -1.0
    assert M.quantile(M.semicircle(1.0), 0.5) == pytest.approx(0.0, abs=1e-12)


def test_quantile_round_trip_piecewise():
    mu = M.piecewise_poly([(0.0, 1.0, (0.0, 0.0, 3.0))])
    for p in (0.1, 0.5, 0.9):
        x = M.quantile(mu, p)
        assert x **3 == pytest.approx(p, abs=1e-12)  # CDF is x^3


def _exact_cdf(mu, x):
    # the piece antiderivatives in rational arithmetic on the law's floats
    total = Fraction(0)
    for lo, hi, coeffs in mu.pieces:
        top = Fraction(min(max(x, lo), hi))
        total += sum(
            Fraction(c) * (top ** (k + 1) - Fraction(lo) ** (k + 1)) / (k + 1) for k, c in enumerate(coeffs)
        )
    return total


@pytest.mark.parametrize(
    "pieces",
    [
        # the two-piece law of the sweep tests, and a flat piece, a gap and a
        # piece with a second-order zero at the gap's right edge
        [(-1.0, 0.2, (0.5, 0.3)), (0.2, 1.1, (0.3, 1.0, -1.0))],
        [(-1.0, 0.0, (1.0,)), (0.5, 1.5, (0.25, -1.0, 1.0))],
    ],
)
def test_quantile_beyond_the_first_piece(pieces):
    mu = M.piecewise_poly(pieces)
    first = float(_exact_cdf(mu, mu.pieces[0][1]))
    for p in np.linspace(first, 1.0, 7)[1:-1]:
        q = M.quantile(mu, float(p))
        assert mu.pieces[1][0] <= q <= mu.pieces[1][1]
        assert abs(float(_exact_cdf(mu, q)) - p) <= 1e-14, (p, q)


# ---------------------------------------------------------------------------
# quadrature vs slow trapezoid oracle


@pytest.mark.parametrize("a0,v", [(0.4, 0.9), (-1.1, 0.35), (0.0, 0.2)])
def test_density_transforms_match_trapezoid(a0, v):
    n = 1_000_001
    xs = np.linspace(-1.0, 1.0, n)
    # uniform density 1/2
    d = (a0 - xs) ** 2 + v * v
    p0_ref = np.trapezoid(0.5 / d, xs)
    p1_ref = np.trapezoid(0.5 * xs / d, xs)
    mu = M.uniform(-1, 1)
    assert M.p0(mu, a0, v) == pytest.approx(p0_ref, rel=1e-8)
    assert M.p1(mu, a0, v) == pytest.approx(p1_ref, rel=1e-8, abs=1e-10)


def test_semicircle_transform_matches_trapezoid():
    # smooth theta-substituted trapezoid as the independent rule
    n = 2_000_001
    th = np.linspace(-math.pi / 2, math.pi / 2, n)
    xs = 2.0 * np.sin(th)
    wts = (2.0 / math.pi) * np.cos(th) ** 2
    a0, v = 0.6, 0.45
    ref = np.trapezoid(wts / ((a0 - xs) ** 2 + v * v), th)
    assert M.p0(M.semicircle(1.0), a0, v) == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize(
    "call",
    [
        lambda mu: M.transforms(mu, 0.3, 0.0),
        lambda mu: M.transforms(mu, np.array([0.3, 0.5]), np.array([0.1, -0.1])),
        lambda mu: M.p0(mu, 0.3, -0.1),
        lambda mu: M.p1(mu, 0.3, 0.0),
        lambda mu: M.log_potential(mu, 0.3, -0.1),
        lambda mu: M.quantile(mu, 0.0),
        lambda mu: M.quantile(mu, 1.0),
    ],
)
def test_kernel_guards_raise_value_error(call):
    for mu in (M.semicircle(1.0), M.bernoulli(0.5)):
        with pytest.raises(ValueError):
            call(mu)


def test_log_potential_atoms_and_divergence():
    mu = M.bernoulli(0.5)
    assert M.log_potential(mu, 0.0, 0.0) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(DivergentLogError):
        M.log_potential(mu, 1.0, 0.0)


def test_atom_arrays_cached_on_the_spec():
    mu = M.atomic([(-1.0, 0.25), (2.0, 0.75)])
    twin = M.atomic([(-1.0, 0.25), (2.0, 0.75)])
    xs, ws = mu.atom_arrays
    assert mu.atom_arrays[0] is xs  # built once
    assert list(xs) == [-1.0, 2.0] and list(ws) == [0.25, 0.75]
    assert not xs.flags.writeable and not ws.flags.writeable
    # the cache is no field: equality and hashing see only the law
    assert mu == twin and hash(mu) == hash(twin)


# ---------------------------------------------------------------------------
# the exact polynomial shift

QUARTIC = (0.0081, -0.108, 0.54, -1.2, 1.0)  # (x - 0.3)^4, a fourth-order zero at 0.3
THREE_X2 = (0.0, 0.0, 3.0)


def _shift_terms_exact(coeffs, a0):
    # row j: the terms C(k, j) c_k a0^(k - j) of b_j, in rational arithmetic
    x = Fraction(a0)
    return [
        [math.comb(k, j) * Fraction(c) * x ** (k - j) for k, c in enumerate(coeffs) if k >= j]
        for j in range(len(coeffs))
    ]


def _vanishes_exact(coeffs, a0):
    # |b_j| <= 1e-13 sum |terms of b_j| for j = 0, 1, in rational arithmetic
    rows = _shift_terms_exact(coeffs, a0)[:2]
    return all(abs(sum(row)) <= Fraction(1e-13) * sum(abs(term) for term in row) for row in rows)


def _assert_shift_exact(coeffs, a0):
    sums, scales, den = M._shift_exact(coeffs, a0)
    assert den > 0 and den & (den - 1) == 0  # one power of two
    for s, a, row in zip(sums, scales, _shift_terms_exact(coeffs, a0), strict=True):
        b = s / den
        assert type(b) is float and b.hex() == float(sum(row)).hex(), (a0, b)
        assert Fraction(s, den) == sum(row)
        assert Fraction(a, den) == sum(abs(term) for term in row)


def test_shift_exact_next_to_the_quartic_zero():
    for a0 in [0.3, *np.linspace(0.3 - 1e-3, 0.3 + 1e-3, 401).tolist()]:
        _assert_shift_exact(QUARTIC, a0)


@pytest.mark.parametrize("a0", [0.0, -0.0, 5e-324, -5e-324, -0.7, 0.5, 0, 2, np.float64(0.3), np.float64(-0.0)])
def test_shift_exact_at_special_points(a0):
    # a signed zero, subnormals, a negative point, a Python int as p0(mu, 0, v)
    # passes it and np.float64 as _q0_cancelled's node loop passes it
    for coeffs in (THREE_X2, QUARTIC):
        _assert_shift_exact(coeffs, a0)


def test_q0_near_takes_the_node_loops_scalars_bitwise():
    # a node of the array loop arrives as np.float64, a scalar call as float or int
    for coeffs, lo, hi in ((QUARTIC, -1.0, 2.0), (THREE_X2, 0.0, 1.0)):
        for a0 in (0.3 + 1e-4, 0.3 - 3e-5, 0.0, 1e-3, 0.9999):
            for v in (1e-3, 1e-7):
                want = M._piece_q0_near(coeffs, lo, hi, a0, v)
                assert M._piece_q0_near(coeffs, lo, hi, np.float64(a0), np.float64(v)) == want
    assert M._piece_q0_near(THREE_X2, 0.0, 1.0, 0, 1e-3) == M._piece_q0_near(THREE_X2, 0.0, 1.0, 0.0, 1e-3)


@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_vanishes_flips_once_across_each_end_of_the_quartic_band(side):
    # the band where p0(., 0) reads finite around 0.3 has half-width about
    # (1e-13/4)^(1/3) = 2.9e-5; lambda_region bisects on its ends, so the test
    # must agree with the rational one and flip once, down to adjacent floats
    def decide(x):
        got = M._vanishes(QUARTIC, x, M.poly_shift(QUARTIC, x))
        assert got == _vanishes_exact(QUARTIC, x), x
        return got

    grid = (0.3 + side * np.linspace(2e-5, 4e-5, 2001)).tolist()  # inward to outward
    passes = [decide(x) for x in grid]
    k = passes.index(False)
    assert k > 0 and all(passes[:k]) and not any(passes[k:])
    inner, outer = grid[k - 1], grid[k]
    while np.nextafter(inner, outer) != outer:
        mid = 0.5 * (inner + outer)
        inner, outer = (mid, outer) if decide(mid) else (inner, mid)
    for start, toward, expect in ((inner, 0.3, True), (outer, 0.3 + side, False)):
        x = start
        for _ in range(500):
            assert decide(x) is expect
            x = float(np.nextafter(x, toward))
