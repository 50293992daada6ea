import numpy as np
import pytest

from ibrown.numerics import damped_newton


def test_damped_newton_complex_scalar_root():
    # z^2 = -4 from the upper half-plane lands on 2i
    z = damped_newton(lambda z: z * z + 4.0, lambda z, r: r / (2.0 * z), 1.0 + 1.0j, 1e-14, 50, 30)
    assert z == pytest.approx(2.0j, abs=1e-14)


def test_damped_newton_three_vector_needs_halving():
    # the full Newton step on atan overshoots from 2 (to -3.5); halving rescues it
    def residual(u):
        return np.arctan(u) - np.array([0.0, 0.1, -0.2])

    def step(u, r):
        return r * (1.0 + u * u)

    trials = []

    def counted(u):
        trials.append(u)
        return residual(u)

    u = damped_newton(counted, step, np.array([2.0, 2.0, 2.0]), 1e-13, 50, 30)
    assert u is not None
    assert np.max(np.abs(u - np.tan([0.0, 0.1, -0.2]))) <= 1e-12
    assert np.max(np.abs(trials[1])) > 3.0  # the first full step was refused
    full = damped_newton(residual, step, np.array([2.0, 2.0, 2.0]), 1e-13, 50, 1)
    assert full is None  # without halving no step lowers the norm


def test_damped_newton_inadmissible_start():
    calls = []

    def step(x, r):
        calls.append(x)
        return r

    assert damped_newton(lambda x: None, step, 1.0, 1e-12, 50, 30) is None
    assert not calls


def test_damped_newton_iteration_cap():
    # a step of half the residual only halves the error: three steps fall short
    def residual(x):
        return x - 1.0

    def step(x, r):
        return 0.5 * r

    assert damped_newton(residual, step, 2.0, 1e-12, 3, 30) is None
    assert damped_newton(residual, step, 2.0, 1e-12, 60, 30) == pytest.approx(1.0, abs=1e-12)
