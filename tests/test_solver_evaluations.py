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
    characteristics), and under "outside" one entry per evaluation made
    outside every fdf call. A _cauchy_pair inside transforms is part of that
    one evaluation."""
    per_call, state = {"outside": []}, {"fdf": None, "in_law": False}

    def law(fn):
        def counted(*args):
            if state["in_law"]:
                return fn(*args)
            state["in_law"] = True
            try:
                if state["fdf"] is not None:
                    state["fdf"][-1] += 1
                else:
                    per_call["outside"].append(fn.__name__)
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


def _total(evaluations):
    return sum(sum(calls) for key, calls in evaluations.items() if key != "outside") + len(
        evaluations["outside"]
    )


@pytest.mark.parametrize("name", sorted(LAWS))
def test_jt_inverse_evaluates_the_law_only_in_its_solves(name, evaluations):
    # the test against the source region reads p0 = -Im G / Im z from the
    # solve's last G
    mu, t = LAWS[name]
    for lam in (0.3 + 2.0j, -2.5 - 0.4j, 3.0 + 0.1j):
        S.j_t_inverse(mu, t, lam)
    assert evaluations["outside"] == []
    assert evaluations["subordination"]


@pytest.mark.parametrize("name", sorted(LAWS))
def test_jn_density_evaluates_the_law_as_often_as_its_solve(name, evaluations):
    # G' at the solved g is the one the solve's last evaluation took
    mu, t = LAWS[name]
    for al, ar in B.omega_intervals(mu, t):
        a = al + 0.4 * (ar - al)
        before = _total(evaluations)
        J.solve_g(mu, t, a)
        solve = _total(evaluations) - before
        J.jn_density(mu, t, a)
        assert _total(evaluations) - before == 2 * solve > 0


@pytest.mark.parametrize("name", sorted(LAWS))
def test_s_of_evaluates_its_solved_initial_data_once(name, monkeypatch):
    # the flow solve's last bundle, at the initial data it returns, serves the
    # sheet test and the momenta of the transported value; each of them took
    # one more bundle there
    mu, t = LAWS[name]
    transforms, points = C.transforms, []

    def counted(mu, a0, v2):
        points.append((a0, v2))
        return transforms(mu, a0, v2)

    monkeypatch.setattr(C, "transforms", counted)
    for lam, eps in ((0.4 + 0.3j, 0.2), (3.0 + 0.5j, 0.05)):
        target, tol = (lam.real, lam.imag, eps), 1e-10 * (1.0 + abs(lam) + eps)
        (a0, b0, eps0), _ = C._solve_flow(mu, t, target, C._start(mu, t, lam, eps), tol)
        points.clear()
        C.s_of(mu, t, lam, eps)
        assert points.count((a0, b0 * b0 + eps0)) == 1
