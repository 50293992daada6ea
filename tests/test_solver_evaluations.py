"""Each trial point of a damped Newton solve costs one evaluation of the law:
its fdf reads the residual and the step from one _cauchy_pair or one
transforms call."""

import pytest

import ibrown.brown as B
import ibrown.characteristics as C
import ibrown.jn as J
import ibrown.measure as M
import ibrown.subordination as S
from conftest import FOUR_ATOMS

LAWS = {"four_atoms": (FOUR_ATOMS, 0.5), "uniform": (M.uniform(-1.0, 1.0), 0.1)}


@pytest.fixture
def evaluations(monkeypatch):
    """Law evaluations made by each fdf call that a damped Newton solve
    receives, in call order, per solving module (subordination, jn,
    characteristics). A _cauchy_pair inside transforms is part of that one
    evaluation."""
    per_call, state = {}, {"fdf": None, "in_law": False}

    def law(fn):
        def counted(*args):
            if state["in_law"]:
                return fn(*args)
            state["in_law"] = True
            try:
                if state["fdf"] is not None:
                    state["fdf"][-1] += 1
                return fn(*args)
            finally:
                state["in_law"] = False

        return counted

    def solver(fn, calls):
        def counted(fdf, x0, tol):
            def counted_fdf(x):
                calls.append(0)
                state["fdf"] = calls
                try:
                    return fdf(x)
                finally:
                    state["fdf"] = None

            return fn(counted_fdf, x0, tol)

        return counted

    for mod in (M, S, J, C):
        for name in ("_cauchy_pair", "transforms"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, law(getattr(mod, name)))
    for mod in (S, J, C):
        calls = per_call.setdefault(mod.__name__.rsplit(".", 1)[1], [])
        monkeypatch.setattr(mod, "damped_newton", solver(mod.damped_newton, calls))
    return per_call


@pytest.mark.parametrize("name", sorted(LAWS))
def test_one_law_evaluation_per_trial_point(name, evaluations):
    mu, t = LAWS[name]
    for lam in (0.3 + 2.0j, -2.5 - 0.4j, 3.0 + 0.1j):
        S.j_t_inverse(mu, t, lam)
    for al, ar in B.omega_intervals(mu, t):
        J.solve_g(mu, t, al + 0.4 * (ar - al))
    assert set(evaluations["subordination"]) == {1}
    assert set(evaluations["jn"]) == {1}


@pytest.mark.parametrize("name", sorted(LAWS))
def test_one_law_evaluation_per_flow_trial_point(name, evaluations):
    # _start's bracketed solve is not a damped Newton solve and is not counted
    mu, t = LAWS[name]
    for lam, eps in ((0.4 + 0.3j, 0.2), (3.0 + 0.5j, 0.05)):
        C.s_of(mu, t, lam, eps)
    assert set(evaluations["characteristics"]) == {1}
