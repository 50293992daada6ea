import math

import numpy as np
import pytest

import ibrown.measure as M
import ibrown.brown as B


#: four atoms of weight 1/4; at t = 0.5 the source region has four intervals
FOUR_ATOMS = M.atomic([(-2.0, 0.25), (-0.5, 0.25), (0.7, 0.25), (2.5, 0.25)])


@pytest.fixture(scope="session")
def sc():
    return M.semicircle(1.0)


@pytest.fixture(scope="session")
def un():
    return M.uniform(-1.0, 1.0)


@pytest.fixture(scope="session")
def be23():
    return M.bernoulli(2.0 / 3.0)


@pytest.fixture(scope="session")
def be12():
    return M.bernoulli(0.5)


@pytest.fixture(scope="session")
def quad():
    # density 3x^2 on [0, 1]
    return M.piecewise_poly([(0.0, 1.0, (0.0, 0.0, 3.0))])


@pytest.fixture(scope="session")
def sc_profile(sc):
    return B.profile(sc, 1.0, n_grid=256)


@pytest.fixture(scope="session")
def be_profile(be23):
    return B.profile(be23, 1.05, n_grid=512)


@pytest.fixture(scope="session")
def un_profile(un):
    return B.profile(un, 0.1, n_grid=256)


def bernstein_piece(lo, hi, beta):
    """Monomial coefficients of sum_k beta_k B_k((x - lo)/(hi - lo)): a
    polynomial positive on [lo, hi] when every beta_k is."""
    n = len(beta) - 1
    t = np.polynomial.Polynomial([-lo / (hi - lo), 1.0 / (hi - lo)])
    p = sum(b * math.comb(n, k) * t**k * (1 - t) ** (n - k) for k, b in enumerate(beta))
    return tuple(p.coef)


def semicircle_cdf(variance, x):
    r = 2.0 * math.sqrt(variance)
    x = min(max(x, -r), r)
    return 0.5 + (x * math.sqrt(max(r * r - x * x, 0.0)) + r * r * math.asin(x / r)) / (
        math.pi * r * r
    )
