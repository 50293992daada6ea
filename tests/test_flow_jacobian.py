"""The flow inversion's analytic Jacobian against central differences of the
flow residual, both from the one bundle _flow_step reads."""

import numpy as np
import pytest

import ibrown.characteristics as C
import ibrown.measure as M

LAWS = {
    "semicircle": (M.semicircle(1.0), 1.0),
    "uniform": (M.uniform(-1.0, 1.0), 0.1),
    "bernoulli": (M.bernoulli(2.0 / 3.0), 1.05),
    "three_atoms": (M.atomic([(-1.0, 0.3), (0.2, 0.3), (1.5, 0.4)]), 0.6),
    "quad": (M.piecewise_poly([(0.0, 1.0, (0.0, 0.0, 3.0))]), 0.3),
}


def flow_step(mu, t, u, target):
    return C._flow_step(t, u, target, M.transforms(mu, u[0], u[1] * u[1] + u[2]))


def residual(mu, t, u, target):
    return flow_step(mu, t, u, target)[0]


def central_differences(mu, t, u, target):
    jac = np.empty((3, 3))
    for j in range(3):
        h = 1e-6 * (1.0 + abs(u[j]))
        if j == 2:
            h = min(h, 0.5 * u[2])
        up, um = u.copy(), u.copy()
        up[j] += h
        um[j] -= h
        jac[:, j] = (residual(mu, t, up, target) - residual(mu, t, um, target)) / (2.0 * h)
    return jac


def analytic_jacobian(mu, t, u):
    """The Jacobian J behind _flow_step's step J^-1 r: the targets that make r
    the unit vectors give J^-1 column by column."""
    f = flow_step(mu, t, u, np.zeros(3))[0]
    inverse = np.column_stack([flow_step(mu, t, u, f - e)[1] for e in np.eye(3)])
    return np.linalg.inv(inverse)


@pytest.mark.parametrize("name", sorted(LAWS))
def test_flow_jacobian_matches_central_differences(name):
    mu, t = LAWS[name]
    rng = np.random.default_rng(11)
    lo, hi = mu.support.lo, mu.support.hi
    target = np.array([0.3, 0.2, 0.1])
    for _ in range(20):
        u = np.array(
            [rng.uniform(lo - 1.0, hi + 1.0), rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-3, 0)]
        )
        jac = analytic_jacobian(mu, t, u)
        ref = central_differences(mu, t, u, target)
        assert np.max(np.abs(jac - ref)) <= 1e-6 * max(1.0, np.max(np.abs(jac))), u
