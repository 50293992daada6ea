"""Compactly supported laws on the real line and their scalar integral transforms.

A law is described by a :class:`MeasureSpec` (atoms, piecewise-polynomial
density, or semicircle) and consumed by every other module exclusively through
the transforms defined here: the kernel bundle, the Cauchy transform,
logarithmic energies and quantiles.

Conventions
-----------
All kernels share the denominator ``D = (a0 - x)**2 + v**2``:

* ``p0 = int dmu / D``           * ``q0 = int dmu / D**2``
* ``c1 = int (a0-x) dmu / D``    * ``q1 = int (a0-x) dmu / D**2``
* ``p1 = int x dmu / D``         * ``q2 = int (a0-x)**2 dmu / D**2``

``transforms(mu, a0, v2)`` returns the five that the solvers read, p0, c1,
q0, q1 and q2, at once as a :class:`Bundle`, the fixed record that every
kernel caller reads its fields from. p1 is a0 p0 - c1, served by ``p1``;
``p0`` and ``p1`` are thin wrappers around ``transforms``. ``transforms``
also takes equal-length float arrays of a0 and v2, one node each, and then
returns the same record with an array in each field: a sweep of many nodes
costs one call.

``p0`` with ``v = 0`` returns ``math.inf`` when the integral diverges; callers
use the sentinel for bracketing.

G and G' of a polynomial piece come from one closed form,
``_piece_cauchy_pair``, at a real or complex z, one node or an array. More
than _FAR half-widths from the piece, where that form cancels, the piece is
its Gauss atoms (``MeasureSpec.piece_atoms``) and takes the atomic law's
sums: ``_atom_pair`` for G and G', and the atomic formulas of q0 and the
log energy. On the real line ``_real_pair`` gives (G, p0(a0, 0) = -G') in
one pass over the law and holds the two contact rules: G is on the support
where the density exceeds 1e-9 (1 + max|c|), and p0 is infinite unless the
density and its slope vanish there. ``real_cauchy``, ``p0_zero``,
``cauchy_prime`` and the real branches of ``cauchy`` and ``_cauchy_pair``
are views of it.

For a semicircle or piecewise-polynomial law every kernel is a closed form in
the Cauchy transform G and its derivative G' at ``z = a0 + iv``:
``p0 = -Im G/v``, ``c1 = Re G``, ``q1 = Im G'/(2v)``,
``q2 = (p0 - Re G')/2`` and ``q0 = (p0 + Re G')/(2v^2)``. The last one cancels
like ``v^2`` where ``p0(a0, 0)`` is finite; there ``q0`` alone comes from a
rearranged closed form (semicircle) and, piece by piece, from its Gauss atoms
(far from z), a term-by-term sum (a0 on the piece or within 4v of it) or a
series in ``v^2`` (otherwise). The term-by-term sum and the contact rule's
re-test near its bound shift the polynomial exactly, in integers over one
power of two rounded once (``_shift_exact``). Atomic laws sum over their
atoms. No kernel uses adaptive quadrature: the fixed Gauss rule of a far
piece is the only rule.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    DiracMeasureError,
    DivergentLogError,
    EmptyMeasureError,
    MeasureFormatError,
    NegativeMassError,
    OnSupportError,
)
from .numerics import (
    bracket_newton,
    poly_definite,
    poly_eval,
    poly_shift,
)

_ATOM_MERGE_REL = 1e-12
#: q0 leaves (p0 + Re G')/(2v^2) for _q0_cancelled once that sum falls below
#: this share of p0, i.e. once more than four digits would cancel
_Q0_CANCEL = 1e-4
#: a polynomial piece whose center is more than _FAR half-widths from z is
#: summed as its _FAR_NODES Gauss atoms, where the closed form would cancel
#: like |z - center|^(degree + 1). The rule is exact for rho(x) (x - c)^k up
#: to degree 2 _FAR_NODES - 1, and off the piece its error falls
#: geometrically in the Bernstein ellipse through z: past 4 half-widths, the
#: ellipse parameter is above 7.8
_FAR = 4.0
_FAR_NODES = 15


@dataclass(frozen=True)
class Support:
    """Closed hull [lo, hi] of the support; lo < hi by the non-degeneracy rule."""

    lo: float
    hi: float


@dataclass(frozen=True)
class MeasureSpec:
    """Validated, unit-mass law. Build through the preset helpers, :func:`atomic`,
    :func:`piecewise_poly` or :func:`from_json`.

    kind is one of ``atomic``, ``piecewise_poly``, ``semicircle``; presets
    (uniform, bernoulli) normalize to one of these and keep their name in
    ``label``. ``rescale`` records the factor applied to reach unit mass.
    """

    kind: str
    atoms: tuple[tuple[float, float], ...] = ()
    pieces: tuple[tuple[float, float, tuple[float, ...]], ...] = ()
    variance: float = 0.0
    label: str = ""
    rescale: float = 1.0
    support: Support = Support(0.0, 0.0)

    def digest(self) -> str:
        return hashlib.sha1(to_json(self).encode()).hexdigest()[:10]

    @cached_property
    def piece_atoms(self) -> tuple[tuple[float, float, np.ndarray, np.ndarray], ...]:
        """(center c, half-width h, nodes, weights) of each polynomial piece,
        built once per spec: its _FAR_NODES-point Gauss-Legendre rule as an
        atomic law, read-only nodes c + h s_i and weights h w_i rho(node_i).
        rho is taken about c, its coefficients shifted there exactly and
        rounded once (_shift_exact), then summed by Horner in h s_i."""
        s, w = _gauss_rule(_FAR_NODES)
        out = []
        for lo, hi, coeffs in self.pieces:
            c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
            sums, _, den = _shift_exact(coeffs, c)
            u = h * s
            xs, ws = c + u, h * w * poly_eval([sj / den for sj in sums], u)
            xs.flags.writeable = False
            ws.flags.writeable = False
            out.append((c, h, xs, ws))
        return tuple(out)

    @cached_property
    def atom_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (positions, weights) of an atomic law, built once per spec."""
        xs = np.array([x for x, _ in self.atoms])
        ws = np.array([w for _, w in self.atoms])
        xs.flags.writeable = False
        ws.flags.writeable = False
        return xs, ws


# ----------------------------------------------------------------------------
# construction and validation


def _merge_atoms(raw: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    pairs = sorted((float(x), float(w)) for x, w in raw)
    merged: list[list[float]] = []
    for x, w in pairs:
        if merged and abs(x - merged[-1][0]) <= _ATOM_MERGE_REL * max(1.0, abs(x)):
            tot = merged[-1][1] + w
            if tot > 0.0:
                merged[-1][0] = (merged[-1][0] * merged[-1][1] + x * w) / tot
            merged[-1][1] = tot
        else:
            merged.append([x, w])
    return [(x, w) for x, w in merged]


def _validate_atomic(atoms, label) -> MeasureSpec:
    for x, w in atoms:
        if not (math.isfinite(x) and math.isfinite(w)):
            raise MeasureFormatError("non-finite atom")
        if w < 0.0:
            raise NegativeMassError(f"negative weight {w} at x={x}")
    merged = [(x, w) for x, w in _merge_atoms(atoms) if w > 0.0]
    if not merged:
        raise EmptyMeasureError("no mass")
    if len(merged) == 1:
        raise DiracMeasureError("law is a single point mass")
    total = sum(w for _, w in merged)
    norm = tuple((x, w / total) for x, w in merged)
    return MeasureSpec(
        kind="atomic",
        atoms=norm,
        label=label or "atomic",
        rescale=1.0 / total,
        support=Support(norm[0][0], norm[-1][0]),
    )


def _validate_pieces(pieces, label) -> MeasureSpec:
    clean = []
    for lo, hi, coeffs in pieces:
        lo, hi = float(lo), float(hi)
        coeffs = tuple(float(c) for c in coeffs)
        if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
            raise MeasureFormatError(f"bad piece bounds [{lo}, {hi}]")
        if not coeffs:
            raise MeasureFormatError("piece without coefficients")
        # the minimum is at an end or at a critical point inside; real parts,
        # as rounding can split a multiple root of the derivative off the axis
        poly = np.polynomial.polynomial
        crit = [z.real for z in poly.polyroots(poly.polyder(coeffs)) if lo < z.real < hi]
        vals = poly_eval(coeffs, np.array([lo, hi, *crit]))
        scale = max(1.0, float(np.max(np.abs(vals))))
        if float(np.min(vals)) < -1e-12 * scale:
            raise NegativeMassError(f"density negative on [{lo}, {hi}]")
        mass = poly_definite(coeffs, lo, hi)
        if mass > 0.0:
            clean.append((lo, hi, coeffs, mass))
    if not clean:
        raise EmptyMeasureError("no mass")
    clean.sort(key=lambda p: p[0])
    for (l1, h1, _, _), (l2, _, _, _) in zip(clean[:-1], clean[1:]):
        if l2 < h1 - 1e-14 * max(1.0, abs(h1)):
            raise MeasureFormatError("overlapping pieces")
    total = sum(m for *_, m in clean)
    norm = tuple(
        (lo, hi, tuple(c / total for c in coeffs)) for lo, hi, coeffs, _ in clean
    )
    return MeasureSpec(
        kind="piecewise_poly",
        pieces=norm,
        label=label or "piecewise_poly",
        rescale=1.0 / total,
        support=Support(norm[0][0], norm[-1][1]),
    )


def semicircle(variance: float = 1.0) -> MeasureSpec:
    s = float(variance)
    if not (s > 0.0 and math.isfinite(s)):
        raise MeasureFormatError("semicircle variance must be positive")
    r = 2.0 * math.sqrt(s)
    return MeasureSpec(
        kind="semicircle",
        variance=s,
        label=f"semicircle(s={s:g})",
        support=Support(-r, r),
    )


def uniform(lo: float = -1.0, hi: float = 1.0) -> MeasureSpec:
    lo, hi = float(lo), float(hi)
    if hi <= lo:
        raise MeasureFormatError("uniform needs lo < hi")
    mu = _validate_pieces([(lo, hi, (1.0 / (hi - lo),))], f"uniform({lo:g},{hi:g})")
    return mu


def bernoulli(alpha: float = 0.5) -> MeasureSpec:
    a = float(alpha)
    if not 0.0 < a < 1.0:
        raise MeasureFormatError("bernoulli alpha must lie in (0,1)")
    return _validate_atomic([(-1.0, 1.0 - a), (1.0, a)], f"bernoulli(alpha={a:g})")


def atomic(pairs: Iterable[tuple[float, float]]) -> MeasureSpec:
    return _validate_atomic(list(pairs), "atomic")


def piecewise_poly(pieces: Iterable[tuple[float, float, Sequence[float]]]) -> MeasureSpec:
    return _validate_pieces([(lo, hi, tuple(c)) for lo, hi, c in pieces], "piecewise_poly")


#: each preset's constructor and its parameter names, in order: the JSON
#: keys of its type and the values of --preset NAME[:params]
PRESETS = {
    "semicircle": (semicircle, ("variance",)),
    "uniform": (uniform, ("lo", "hi")),
    "bernoulli": (bernoulli, ("alpha",)),
}

_SCHEMAS = {
    "atomic": {"type", "atoms"},
    "piecewise_poly": {"type", "pieces"},
    **{name: {"type", *params} for name, (_, params) in PRESETS.items()},
}


def _number(value, what: str) -> float:
    """A JSON number (int or float, not bool) as a float, else MeasureFormatError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MeasureFormatError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int past the float range
        raise MeasureFormatError(f"{what} is too large for a float") from None


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise MeasureFormatError(f"{what} must be a list, got {value!r}")
    return value


def _entries(obj: dict, key: str, fields: tuple) -> list:
    """obj[key], a list of objects with exactly the keys fields, as tuples of
    their values in that order; else MeasureFormatError."""
    rows = []
    for entry in _list(obj[key], key):
        if not isinstance(entry, dict) or set(entry) != set(fields):
            raise MeasureFormatError(f"{key[:-1]} entries need exactly keys {', '.join(fields)}")
        rows.append(tuple(entry[f] for f in fields))
    return rows


def _from_dict(obj: dict) -> MeasureSpec:
    kind = obj.get("type")
    if kind not in _SCHEMAS:
        raise MeasureFormatError(f"unknown measure type {kind!r}")
    extra = set(obj) - _SCHEMAS[kind]
    missing = _SCHEMAS[kind] - set(obj)
    if extra:
        raise MeasureFormatError(f"unknown keys {sorted(extra)}")
    if missing:
        raise MeasureFormatError(f"missing keys {sorted(missing)}")
    if kind in PRESETS:
        make, params = PRESETS[kind]
        return make(*(_number(obj[p], p) for p in params))
    if kind == "atomic":
        atoms = [(_number(x, "x"), _number(w, "w")) for x, w in _entries(obj, "atoms", ("x", "w"))]
        return _validate_atomic(atoms, "atomic")
    pieces = [
        (_number(lo, "lo"), _number(hi, "hi"), [_number(c, "a coefficient") for c in _list(cs, "coeffs")])
        for lo, hi, cs in _entries(obj, "pieces", ("lo", "hi", "coeffs"))
    ]
    return _validate_pieces(pieces, "piecewise_poly")


def from_json(text: str) -> MeasureSpec:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MeasureFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise MeasureFormatError("measure file must hold a JSON object")
    return _from_dict(obj)


def to_json(mu: MeasureSpec) -> str:
    """Canonical JSON for the validated law (presets serialize normalized)."""
    if mu.kind == "atomic":
        obj = {"type": "atomic", "atoms": [{"x": x, "w": w} for x, w in mu.atoms]}
    elif mu.kind == "piecewise_poly":
        obj = {
            "type": "piecewise_poly",
            "pieces": [
                {"lo": lo, "hi": hi, "coeffs": list(c)} for lo, hi, c in mu.pieces
            ],
        }
    else:
        obj = {"type": "semicircle", "variance": mu.variance}
    return json.dumps(obj, separators=(",", ":"))


def load_measure(path) -> MeasureSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json(fh.read())


# ----------------------------------------------------------------------------
# kernel bundles


def _ops(x):
    """math for one real number, cmath for one complex number and numpy for
    an array of either: the same functions, on the same principal branches."""
    if isinstance(x, np.ndarray):
        return np
    return cmath if isinstance(x, complex) else math


@lru_cache(maxsize=None)
def _gauss_rule(n: int):
    """Read-only nodes and weights of the n-point Gauss-Legendre rule on
    [-1, 1]. Built on first use: leggauss takes a fraction of a millisecond,
    which every import would pay."""
    nodes, weights = leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _atom_pair(xs, ws, z):
    """G and G' of atoms at xs with weights ws, at one z or elementwise at an
    array of z: the sums of w/(z - x) and -w/(z - x)^2."""
    d = np.subtract.outer(z, xs)
    return (ws / d).sum(-1), -(ws / d**2).sum(-1)


def _cauchy_pair(mu: MeasureSpec, z):
    """G(z) and G'(z) at one z or, for a semicircle or piecewise law,
    elementwise at an array of z off the real line. Atoms are summed, and so
    are a piece's Gauss atoms where z is far from it; nearer, a piece takes
    its closed form. At one real z the pair is _real_pair's (G, -p0), and
    raises OnSupportError where either is on the support."""
    if not isinstance(z, np.ndarray) and z.imag == 0.0:
        g, p = _real_pair(mu, z.real)
        if math.isnan(g) or p == math.inf:
            raise OnSupportError(f"{z.real} lies on the support")
        return complex(g), complex(-p)
    if mu.kind == "atomic":
        g, gp = _atom_pair(*mu.atom_arrays, z)
        return complex(g), complex(gp)
    if mu.kind == "semicircle":
        root = _semicircle_root(mu.variance, z)
        g = 2.0 / (z + root)
        return g, -g / root
    one = isinstance(z, complex)
    g, gp = (0j, 0j) if one else (np.zeros_like(z), np.zeros_like(z))
    for (lo, hi, coeffs), (center, h, xs, ws) in zip(mu.pieces, mu.piece_atoms):
        far = abs(z - center) > _FAR * h
        if one:
            gk, gpk = _atom_pair(xs, ws, z) if far else _piece_cauchy_pair(coeffs, lo, hi, z)
            g += complex(gk)
            gp += complex(gpk)
            continue
        if far.any():
            gk, gpk = _atom_pair(xs, ws, z[far])
            g[far] += gk
            gp[far] += gpk
        if not far.all():
            gk, gpk = _piece_cauchy_pair(coeffs, lo, hi, z[~far])
            g[~far] += gk
            gp[~far] += gpk
    return g, gp


def _piece_cauchy_pair(coeffs, lo: float, hi: float, z):
    # with u = x - z and rho = sum b_k u^k: G = -sum b_k int u^(k-1) du and
    # G' = -sum b_k int u^(k-2) du over [lo - z, hi - z], for z off the closed
    # piece. A complex z keeps a constant nonzero Im u along the segment, so the
    # principal log of u1/u0 is the continuous one; at a real z, u1/u0 > 0.
    # Elementwise for an array of z, which transforms keeps off the real line
    u0, u1 = lo - z, hi - z
    b = poly_shift(coeffs, z)
    log_ratio = _ops(z).log(u1 / u0)
    g = -b[0] * log_ratio - poly_definite(b[1:], u0, u1)
    gp = -b[0] * (1.0 / u0 - 1.0 / u1)
    if len(b) > 1:
        gp -= b[1] * log_ratio
    return g, gp - poly_definite(b[2:], u0, u1)


def _shift_exact(coeffs, a0: float) -> tuple[list[int], list[int], int]:
    """poly_shift(coeffs, a0) in integers over one power of two D: (S, A, D)
    with b_j = S_j / D and A_j / D = sum_k |C(k, j) c_k a0^(k - j)|. For a0 =
    m / q and c_k = n_k / d_k (as_integer_ratio), D = max_k d_k q^k clears each
    denominator; S_j / D rounds b_j once, as CPython rounds int/int correctly."""
    m, q = a0.as_integer_ratio()
    ratios = [c.as_integer_ratio() for c in coeffs]
    den = max(d * q**k for k, (_, d) in enumerate(ratios))
    scaled = [n * (den // (d * q**k)) for k, (n, d) in enumerate(ratios)]  # D c_k / q^k
    # row j holds D C(k, j) c_k a0^(k - j) = C(k, j) (D c_k / q^k) m^(k - j) q^j
    rows = [[math.comb(k, j) * sk * m ** (k - j) * q**j for k, sk in enumerate(scaled) if k >= j]
            for j in range(len(scaled))]
    return [sum(row) for row in rows], [sum(map(abs, row)) for row in rows], den


def _piece_q0_near(coeffs, lo: float, hi: float, a0: float, v: float) -> float:
    """sum_j b_j I_j, I_j = int u^j / (u^2 + v^2)^2 du over u = x - a0 on the
    piece, which holds a0 or lies within 4v of it; b_j = S_j / D (_shift_exact).

    With J_m = int u^m / (u^2 + v^2) du: J_0 = (atan(u1/v) - atan(u0/v))/v,
    J_1 = log((u1^2 + v^2)/(u0^2 + v^2))/2, J_m = [u^(m-1)]/(m-1) - v^2 J_(m-2);
    I_0 = [u/(u^2 + v^2)]/(2v^2) + J_0/(2v^2), I_1 = -[1/(u^2 + v^2)]/2 and
    I_j = J_(j-2) - v^2 I_(j-2). As v -> 0 the v^2 terms that these subtract
    stay below what they are subtracted from, so q0 keeps its digits where
    (p0 + Re G')/(2v^2) loses them all.
    """
    sums, _, den = _shift_exact(coeffs, a0)
    u0, u1, v2 = lo - a0, hi - a0, v * v
    d0, d1 = u0 * u0 + v2, u1 * u1 + v2
    jm = [(math.atan(u1 / v) - math.atan(u0 / v)) / v, 0.5 * math.log(d1 / d0)]
    im = [(u1 / d1 - u0 / d0 + jm[0]) / (2.0 * v2), -0.5 * (1.0 / d1 - 1.0 / d0)]
    for j in range(2, len(sums)):
        jm.append((u1 ** (j - 1) - u0 ** (j - 1)) / (j - 1) - v2 * jm[j - 2])
        im.append(jm[j - 2] - v2 * im[j - 2])
    return sum(sj / den * ij for sj, ij in zip(sums, im))


def _piece_q0_series(coeffs, lo: float, hi: float, a0, v2):
    """q0 of a piece at distance d >= 4v from a0: the series
    sum_m (-1)^m (m+1) v^(2m) M_(2m+4) in the inverse moments
    M_n = int rho(x) (x - a0)^(-n) dx. Term m is below (m+1) 16^-m of the first.

    With x - a0 = s d w, s = +-1, the piece is w in [1, W], W = 1 + (hi - lo)/d,
    and M_n = d^(1-n) sum_j b_j (s d)^j int_1^W w^(j-n) dw, b = poly_shift(coeffs,
    a0); each integral is a log or expm1((k+1) log1p(W - 1))/(k+1), so nothing
    overflows and a narrow piece keeps its digits. Elementwise over arrays of
    (a0, v2) off the piece, each node summed until the largest term is below 1e-17.
    """
    left = a0 < lo
    s, d = np.where(left, 1.0, -1.0), np.where(left, lo - a0, a0 - hi)
    lw = np.log1p((hi - lo) / d)
    c = [bj * (s * d) ** j for j, bj in enumerate(poly_shift(coeffs, a0))]
    r = v2 / (d * d)
    r_max = float(r.max())
    # weight = (-1)^m (m+1) r^m, bound = its largest magnitude over the nodes
    total, m, weight, bound = 0.0, 0, 1.0, 1.0
    while bound >= 1e-17:
        for j, cj in enumerate(c):
            k = j - 2 * m - 4
            total += weight * cj * (lw if k == -1 else np.expm1((k + 1) * lw) / (k + 1))
        m += 1
        weight *= -r * (m + 1) / m
        bound *= r_max * (m + 1) / m
    return total / d**3


def _q0_cancelled(mu: MeasureSpec, a0, v2):
    """q0 of a semicircle or piecewise law where p0 + Re G' cancels,
    elementwise over arrays of (a0, v2); one node is a one-element array.

    For the semicircle, with R = sqrt(z^2 - 4s), expanding the divided
    difference of G twice gives
    q0 = (a0 (4s + 2v^2 - Im(R)^2) - v Re(R) Im(R)) / (4s Re(R)^3 |R|^2),
    exact off the imaginary axis and free of cancellation where p0(a0, 0) is
    finite. A polynomial piece is summed over its Gauss atoms as sum w/D^2
    where z = a0 + iv is far from it, term by term in powers of x - a0 where
    a0 lies on it or within 4v of it (_piece_q0_near), and as a series in
    v^2 otherwise (_piece_q0_series): per piece, three masks over the nodes.
    The term-by-term sum, whose shift is exact, in integers rounded once
    (_shift_exact), is taken node by node.
    """
    v = np.sqrt(v2)
    z = a0 + 1j * v
    if mu.kind == "semicircle":
        s = mu.variance
        root = _semicircle_root(s, z)
        num = a0 * (4.0 * s + 2.0 * v2 - root.imag**2) - v * root.real * root.imag
        return num / (4.0 * s * root.real**3 * abs(root) ** 2)
    total = np.zeros_like(a0)
    for (lo, hi, coeffs), (center, h, xs, ws) in zip(mu.pieces, mu.piece_atoms):
        far = np.abs(z - center) > _FAR * h
        near = (lo - 4.0 * v < a0) & (a0 < hi + 4.0 * v) & ~far
        rest = ~(far | near)
        if far.any():
            u = np.subtract.outer(a0[far], xs)
            total[far] += (ws / (u * u + v2[far, None]) ** 2).sum(-1)
        for i in np.flatnonzero(near):
            total[i] += _piece_q0_near(coeffs, lo, hi, a0[i], v[i])
        if rest.any():
            total[rest] += _piece_q0_series(coeffs, lo, hi, a0[rest], v2[rest])
    return total


class Bundle(NamedTuple):
    """The five kernel integrals of a law at one point z = a0 + iv, v > 0,
    that the solvers read: p0, c1 = Re G(z) = int (a0-x) dmu / D, q0, q1 and
    q2. p1 = int x dmu / D is not a field: the function p1 derives it as
    a0 p0 - c1."""

    p0: float
    c1: float
    q0: float
    q1: float
    q2: float


def transforms(mu: MeasureSpec, a0, v2) -> Bundle:
    """The five kernel integrals of a Bundle at (a0, v2), v2 > 0, in one pass.

    a0 and v2 may also be equal-length float arrays, one node each: every
    field of the bundle is then an array over the nodes, from one (nodes x
    atoms) product for an atomic law and from numpy closed forms otherwise.
    """
    nodes = isinstance(a0, np.ndarray)
    if nodes:
        v2 = np.asarray(v2, dtype=float)
    if (v2 <= 0.0).any() if nodes else v2 <= 0.0:
        raise ValueError("transforms requires v2 > 0; use the v = 0 entry points")
    if mu.kind == "atomic":
        # the atoms' axis last: (atoms,) at one point, (nodes, atoms) at many
        xs, ws = mu.atom_arrays
        u = (a0[:, None] if nodes else a0) - xs
        inv_d = 1.0 / (u * u + (v2[:, None] if nodes else v2))
        inv_d2 = inv_d * inv_d
        sums = np.array([inv_d, u * inv_d, inv_d2, u * inv_d2, u * u * inv_d2]) @ ws
        return Bundle(*(sums if nodes else sums.tolist()))
    v = np.sqrt(v2) if nodes else math.sqrt(v2)
    z = a0 + 1j * v if nodes else complex(a0, v)
    return _closed_form_bundle(mu, a0, v2, v, *_cauchy_pair(mu, z))


def _closed_form_bundle(mu: MeasureSpec, a0, v2, v, g, gp) -> Bundle:
    # the five kernels from G and G' at z = a0 + iv, one node or arrays of them
    p0v = -g.imag / v
    s = p0v + gp.real  # = 2 v^2 q0
    q0 = s / (2.0 * v2)
    keep = s >= _Q0_CANCEL * p0v
    if not isinstance(keep, np.ndarray):
        if not keep:  # one node, through the array body as a one-element array
            q0 = float(_q0_cancelled(mu, np.array([a0], dtype=float), np.array([v2]))[0])
    elif not keep.all():
        q0[~keep] = _q0_cancelled(mu, a0[~keep], v2[~keep])
    return Bundle(
        p0=p0v,
        c1=g.real,
        q0=q0,
        q1=gp.imag / (2.0 * v),
        q2=0.5 * (p0v - gp.real),
    )


# ----------------------------------------------------------------------------
# Poisson-type integrals


def p0(mu: MeasureSpec, a0: float, v: float) -> float:
    """int dmu / ((a0-x)^2 + v^2); +inf sentinel when v = 0 and it diverges."""
    if v < 0.0:
        raise ValueError("v must be nonnegative")
    if v == 0.0:
        return p0_zero(mu, a0)
    return transforms(mu, a0, v * v).p0


def _vanishes(coeffs, a0: float, b) -> bool:
    """Whether a piece's density and its slope at a0 (b = poly_shift(coeffs,
    a0)) vanish to within poly_shift's rounding: |b_j| <= 1e-13 s_j for j = 0,
    1, where s = poly_shift(|coeffs|, |a0|) is the scale of that rounding.

    A zero of order k passes on a band of half-width about (1e-13/k)**(1/(k-1))
    in the law's units (5e-14 for k = 2, 3e-5 for k = 4), a zero at the origin
    alone. Near the bound the test is redone in _shift_exact's integers, so
    that it flips once across a band's end and lambda_region can bisect to it.
    """
    s = poly_shift([abs(c) for c in coeffs], abs(a0))
    bounds = [1e-13 * sj for sj in s[:2]]
    ratio = max(abs(bj) / e if e > 0.0 else (math.inf if bj else 0.0) for bj, e in zip(b, bounds))
    if ratio > 2.0 or ratio < 0.5:
        return ratio < 0.5
    sums, scales, _ = _shift_exact(coeffs, a0)
    p, q = (1e-13).as_integer_ratio()  # |b_j| <= 1e-13 A_j/D, in integers
    return all(abs(sj) * q <= p * aj for sj, aj in zip(sums[:2], scales[:2]))


def p0_zero(mu: MeasureSpec, a0: float) -> float:
    """The v = 0 Poisson integral int dmu/(a0-x)^2 = -G'(a0), from
    _real_pair; +inf where it diverges."""
    return _real_pair(mu, a0)[1]


def p1(mu: MeasureSpec, a0: float, v: float) -> float:
    """int x dmu / ((a0-x)^2 + v^2) for v > 0: a0 p0 - c1 of the bundle."""
    if v <= 0.0:
        raise ValueError("p1 requires v > 0")
    out = transforms(mu, a0, v * v)
    return a0 * out.p0 - out.c1


# ----------------------------------------------------------------------------
# Cauchy transform


def _semicircle_root(s: float, z):
    # sqrt(z^2 - 4s) on the branch ~ z at infinity, cut along the support;
    # Im root has the sign of Im z, so z + root never cancels
    r = 2.0 * math.sqrt(s)
    sqrt = _ops(z).sqrt
    return sqrt(z - r) * sqrt(z + r)


def _real_pair(mu: MeasureSpec, a0: float) -> tuple[float, float]:
    """G(a0) and p0(a0, 0) = -G'(a0) at a real a0, in one pass over the law.

    G is nan on the support: at an atom, inside the semicircle's, and where
    a piece's density exceeds 1e-9 (1 + max|c|), so that G stays real down to
    that level where v_t reads 0 next to a zero of the density. p0 is inf at
    an atom, on the closed semicircle support, and on a piece unless the
    density and its slope vanish (_vanishes). A piece takes its Gauss atoms'
    sums more than _FAR half-widths from a0, the closed form
    _piece_cauchy_pair off it, and on it the contact step: the principal
    value of G with |u| clamped away from 0 at the piece's ends, where
    b_0 log|u| is below rounding anyway, and p0 from the powers u^k, k >= 2.
    """
    if mu.kind == "atomic":
        xs, ws = mu.atom_arrays
        if np.abs(a0 - xs).min() <= 1e-13 * (1.0 + abs(a0)):
            return math.nan, math.inf
        g, gp = _atom_pair(xs, ws, a0)
        return float(g), float(-gp)
    z = complex(a0)
    if mu.kind == "semicircle":
        root = _semicircle_root(mu.variance, z)
        g = float((2.0 / (z + root)).real) if abs(a0) >= mu.support.hi - 1e-13 else math.nan
        if abs(a0) <= mu.support.hi + 1e-13 * (1.0 + abs(a0)):
            return g, math.inf
        return g, float((2.0 / ((z + root) * root)).real)
    g = p = 0.0
    for (lo, hi, coeffs), (center, h, xs, ws) in zip(mu.pieces, mu.piece_atoms):
        if abs(a0 - center) > _FAR * h:
            gk, gpk = _atom_pair(xs, ws, a0)
            g += float(gk)
            p -= float(gpk)
        elif lo <= a0 <= hi:
            b, u0, u1 = poly_shift(coeffs, a0), lo - a0, hi - a0
            if abs(b[0]) > 1e-9 * (1.0 + max(abs(c) for c in coeffs)):
                g = math.nan
            else:
                floor = 1e-18 * (1.0 + abs(a0) + abs(lo) + abs(hi))
                g -= b[0] * math.log(max(u1, floor) / max(-u0, floor)) + poly_definite(b[1:], u0, u1)
            p += poly_definite(b[2:], u0, u1) if _vanishes(coeffs, a0, b) else math.inf
        else:
            gk, gpk = _piece_cauchy_pair(coeffs, lo, hi, a0)
            g += gk
            p -= gpk
    return g, p


def real_cauchy(mu: MeasureSpec, a0: float) -> float:
    """G at a real point, from _real_pair: finite where the point touches the
    support closure but the density there vanishes, as J_t(a0 + 0i) needs
    where v_t reads 0; raises OnSupportError where the integral diverges."""
    g = _real_pair(mu, a0)[0]
    if math.isnan(g):
        raise OnSupportError(f"{a0} lies on the support")
    return g


def cauchy(mu: MeasureSpec, z: complex) -> complex:
    """G(z) = int dmu(x)/(z - x); Im G < 0 on the upper half-plane, and
    real_cauchy on the real line."""
    z = complex(z)
    if z.imag == 0.0:
        return complex(real_cauchy(mu, z.real))
    return _cauchy_pair(mu, z)[0]


def cauchy_prime(mu: MeasureSpec, z: complex) -> complex:
    """G'(z) = -int dmu(x)/(z - x)^2. On the real line it is -p0_zero and
    raises OnSupportError exactly where p0_zero is infinite: the same rule
    that decides the source region."""
    z = complex(z)
    if z.imag == 0.0:
        p0z = p0_zero(mu, z.real)
        if p0z == math.inf:
            raise OnSupportError(f"{z.real} lies on the support")
        return complex(-p0z)
    return _cauchy_pair(mu, z)[1]


# ----------------------------------------------------------------------------
# logarithmic energy


def log_potential(mu: MeasureSpec, a0: float, c: float) -> float:
    """int log((x-a0)^2 + c) dmu(x) for c >= 0: a sum over atoms, else
    2 Re int log(x - z) dmu(x) at z = a0 + i sqrt(c), on the real line as
    off it, by the closed form or, far from a piece, the sum over its Gauss
    atoms."""
    if c < 0.0:
        raise ValueError("c must be nonnegative")
    if mu.kind == "atomic":
        xs, ws = mu.atom_arrays
        d2 = (xs - a0) ** 2 + c
        if np.min(d2) <= 0.0 or (c == 0.0 and np.min(np.abs(xs - a0)) <= 1e-300):
            raise DivergentLogError(f"atom at {a0} with zero regularization")
        return float(np.sum(ws * np.log(d2)))
    z = complex(a0, math.sqrt(c))
    if mu.kind == "semicircle":
        # int log(z - x) dmu = z G/2 + log((z + root)/2) - 1/2, root = sqrt(z^2 - 4s)
        root = _semicircle_root(mu.variance, z)
        f = z / (z + root) + cmath.log(0.5 * (z + root)) - 0.5
        return 2.0 * f.real
    total, atoms = 0j, 0.0
    for (lo, hi, coeffs), (center, h, xs, ws) in zip(mu.pieces, mu.piece_atoms):
        if abs(z - center) > _FAR * h:
            atoms += float(np.sum(ws * np.log((xs - a0) ** 2 + c)))
            continue
        # int u^k log u du = u^(k+1) (log u/(k+1) - 1/(k+1)^2), u = x - z;
        # at c = 0 the real part is that of log|u|, and u^(k+1) log u is
        # taken as its limit 0 where a0 is a piece end, u = 0
        u0, u1 = lo - z, hi - z
        l0, l1 = (cmath.log(u) if u else 0j for u in (u0, u1))
        w0, w1 = u0, u1  # u**(k+1)
        for k, bk in enumerate(poly_shift(coeffs, z)):
            m = k + 1.0
            total += bk * (w1 * (l1 / m - 1.0 / (m * m)) - w0 * (l0 / m - 1.0 / (m * m)))
            w0, w1 = w0 * u0, w1 * u1
    return 2.0 * total.real + atoms


# ----------------------------------------------------------------------------
# quantiles


def quantile(mu: MeasureSpec, p: float) -> float:
    """Left-continuous inverse CDF: inf{x : F(x) >= p} for p in (0,1)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0,1)")
    if mu.kind == "atomic":
        acc = 0.0
        for x, w in mu.atoms:
            acc += w
            if acc >= p - 1e-15:
                return x
        return mu.atoms[-1][0]
    if mu.kind == "semicircle":
        r = mu.support.hi

        def fdf(x):
            f = _semicircle_cdf(r, x) - p
            df = 2.0 / (math.pi * r * r) * math.sqrt(max(r * r - x * x, 0.0))
            return f, f / df if df > 0.0 else math.inf

        return bracket_newton(fdf, -r, r, 0.0, 1e-15, 1e-15 * (1.0 + 2.0 * r))
    acc = 0.0
    for lo, hi, coeffs in mu.pieces:
        mass = poly_definite(coeffs, lo, hi)
        if acc + mass >= p or (lo, hi, coeffs) == mu.pieces[-1]:
            target = p - acc

            def fdf(x):
                f = poly_definite(coeffs, lo, x) - target
                df = float(poly_eval(coeffs, x))
                return f, f / df if df > 0.0 else math.inf

            return bracket_newton(fdf, lo, hi, 0.5 * (lo + hi), 1e-15, 1e-15 * (1.0 + abs(lo) + abs(hi)))
        acc += mass


def _semicircle_cdf(r: float, x: float) -> float:
    x = min(max(x, -r), r)
    return 0.5 + (x * math.sqrt(max(r * r - x * x, 0.0)) + r * r * math.asin(x / r)) / (
        math.pi * r * r
    )
