import math

import numpy as np
import pytest

import ibrown.numerics as N
from ibrown.errors import NoConvergenceError
from ibrown.numerics import damped_newton


def test_damped_newton_complex_scalar_root():
    # z^2 = -4 from the upper half-plane lands on 2i
    z = damped_newton(lambda z: (z * z + 4.0, (z * z + 4.0) / (2.0 * z)), 1.0 + 1.0j, 1e-14)
    assert z == pytest.approx(2.0j, abs=1e-14)


def test_damped_newton_three_vector_needs_halving(monkeypatch):
    # the full Newton step on atan overshoots from 2 (to -3.5); halving rescues it
    def fdf(u):
        r = np.arctan(u) - np.array([0.0, 0.1, -0.2])
        return r, r * (1.0 + u * u)

    trials = []

    def counted(u):
        trials.append(u)
        return fdf(u)

    monkeypatch.setattr(N, "_NEWTON_STEPS", 50)
    monkeypatch.setattr(N, "_HALVINGS", 30)
    u = damped_newton(counted, np.array([2.0, 2.0, 2.0]), 1e-13)
    assert u is not None
    assert np.max(np.abs(u - np.tan([0.0, 0.1, -0.2]))) <= 1e-12
    assert np.max(np.abs(trials[1])) > 3.0  # the first full step was refused
    monkeypatch.setattr(N, "_HALVINGS", 1)
    full = damped_newton(fdf, np.array([2.0, 2.0, 2.0]), 1e-13)
    assert full is None  # without halving no step lowers the norm


def test_damped_newton_inadmissible_start():
    calls = []

    def fdf(x):
        calls.append(x)
        return None

    assert damped_newton(fdf, 1.0, 1e-12) is None
    assert calls == [1.0]  # x0 alone was evaluated


def log_fdf(x):
    # log(x) = 1 with eight times Newton's step: from 5 the full step lands
    # below 0, where the log raises an ArithmeticError
    if x <= 0.0:
        raise ZeroDivisionError("log of a nonpositive x")
    r = math.log(x) - 1.0
    return r, 8.0 * r * x


def test_damped_newton_failed_trial_point_is_inadmissible():
    # a trial point where fdf raises is refused as a None would be, and
    # halving goes on
    trials = []

    def counted(x):
        trials.append(x)
        return log_fdf(x)

    x = damped_newton(counted, 5.0, 1e-13)
    assert x == pytest.approx(math.e, rel=1e-12)
    assert trials[1] < 0.0  # the first full step was refused


def test_damped_newton_singular_step():
    # a step of None ends the solve; a Jacobian solve that raises at x0 ends
    # it too, and at a trial point it only refuses that point
    assert damped_newton(lambda x: (math.log(x) - 1.0, None), 5.0, 1e-13) is None
    assert damped_newton(lambda x: (1.0, None), 5.0, 1.0) == 5.0  # converged at x0

    def singular(x):
        raise np.linalg.LinAlgError("singular Jacobian")

    assert damped_newton(singular, 5.0, 1e-13) is None

    def singular_below_zero(x):
        if x <= 0.0:
            raise np.linalg.LinAlgError("singular Jacobian")
        return log_fdf(x)

    assert damped_newton(singular_below_zero, 5.0, 1e-13) == pytest.approx(math.e, rel=1e-12)

    def buggy(x):
        raise TypeError("a programming error")

    with pytest.raises(TypeError):  # not a numerical failure: it propagates
        damped_newton(buggy, 5.0, 1e-13)


def test_damped_newton_iteration_cap(monkeypatch):
    # a step of half the residual only halves the error: three steps fall short
    def fdf(x):
        return x - 1.0, 0.5 * (x - 1.0)

    monkeypatch.setattr(N, "_NEWTON_STEPS", 3)
    assert damped_newton(fdf, 2.0, 1e-12) is None
    monkeypatch.setattr(N, "_NEWTON_STEPS", 60)
    assert damped_newton(fdf, 2.0, 1e-12) == pytest.approx(1.0, abs=1e-12)


# problems (fdf, lo, hi, x0, ftol, xtol) for bracket_newton, f rising through
# the root; each fdf takes a float or an array
def _cube(x):
    return x**3 - 2.0, (x**3 - 2.0) / (3.0 * x * x)


def _atan(x):
    return np.arctan(x) - 0.3, (np.arctan(x) - 0.3) * (1.0 + x * x)


def _exp(x):
    return np.exp(x) - 5.0, 1.0 - 5.0 * np.exp(-x)


def _bisect_only(x):
    return x - 1.0 / 3.0, np.inf + 0.0 * x


def _root_at_end(x):
    # root at the bracket's lower end, 0
    return np.expm1(x), -np.expm1(-x)


BRACKET_PROBLEMS = {
    "cube": (_cube, 0.5, 3.0, 2.5, 1e-14, 1e-13),
    "atan": (_atan, -4.0, 10.0, 9.0, 1e-15, 1e-14),
    "exp": (_exp, -2.0, 5.0, -1.5, 1e-14, 1e-13),
    "bisection only": (_bisect_only, 0.0, 1.0, 0.5, 1e-15, 1e-14),
    "root at the end": (_root_at_end, 0.0, 2.0, 1.5, 1e-15, 1e-14),
}


@pytest.mark.parametrize("name", sorted(BRACKET_PROBLEMS))
def test_bracket_newton_twins_take_the_same_iterates(name):
    fdf, lo, hi, x0, ftol, xtol = BRACKET_PROBLEMS[name]
    scalar, nodes = [], []

    def scalar_fdf(x):
        scalar.append(x)
        return tuple(float(v) for v in fdf(x))

    def nodes_fdf(x, idx):
        nodes.append((x.copy(), idx.copy()))
        return fdf(x)

    root = N.bracket_newton(scalar_fdf, lo, hi, x0, ftol, xtol)
    # three copies of the problem as one array, each node its own solve
    roots = N.bracket_newton_nodes(nodes_fdf, lo, hi, np.full(3, x0), ftol, xtol)
    assert [x[0] for x, _ in nodes] == scalar
    assert all(np.array_equal(idx, np.arange(3)) and np.all(x == x[0]) for x, idx in nodes)
    assert np.all(roots == root)
    f, _ = fdf(root)
    assert abs(f) <= ftol or len(scalar) > 30  # a root, or bisected to its xtol
    assert lo <= root <= hi


def test_bracket_newton_nodes_calls_fdf_on_the_open_nodes():
    # a node whose start is its root closes after one pass, and later passes
    # skip it; the others keep their own brackets and roots
    seen = []

    def fdf(x, idx):
        seen.append(idx.copy())
        c = np.array([2.0, 8.0, 27.0])[idx]
        f = x**3 - c
        return f, f / (3.0 * x * x)

    roots = N.bracket_newton_nodes(fdf, 0.5, 4.0, np.array([1.0, 2.0, 1.0]), 1e-13, 1e-13)
    assert roots[1] == 2.0
    assert list(seen[0]) == [0, 1, 2] and all(1 not in idx for idx in seen[1:])
    assert roots == pytest.approx([2.0 ** (1.0 / 3.0), 2.0, 3.0], rel=1e-13)


def test_bracket_newton_cap_is_loud(monkeypatch):
    monkeypatch.setattr(N, "_PASSES", 1)
    fdf, lo, hi, x0, ftol, xtol = BRACKET_PROBLEMS["cube"]
    with pytest.raises(NoConvergenceError):
        N.bracket_newton(fdf, lo, hi, x0, ftol, xtol)
    with pytest.raises(NoConvergenceError):
        N.bracket_newton_nodes(lambda x, idx: fdf(x), lo, hi, np.full(2, x0), ftol, xtol)
