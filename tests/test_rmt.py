import math
import sys

import numpy as np
import pytest

import ibrown.brown as B
import ibrown.measure as M
import ibrown.rmt as R
from ibrown.errors import EigenFailureError


def test_gue_hermitian_exact():
    h = R.sample_gue(64, 5)
    assert (h == h.conj().T).all()


def test_gue_entry_statistics():
    # per-entry variances over many draws, within 3 sigma
    n, reps = 24, 400
    diag = np.empty((reps, n))
    off = np.empty((reps, n * (n - 1) // 2), dtype=complex)
    iu = np.triu_indices(n, 1)
    for r in range(reps):
        h = R.sample_gue(n, 99, rep=r)
        diag[r] = np.diag(h).real
        off[r] = h[iu]
    m = diag.size
    assert abs(diag.mean()) < 3.0 * math.sqrt(1.0 / n / m)
    var_d = (diag **2).mean() * n
    assert abs(var_d - 1.0) < 3.0 * math.sqrt(2.0 / m)
    var_o = (np.abs(off) ** 2).mean() * n
    assert abs(var_o - 1.0) < 3.0 * math.sqrt(2.0 / off.size)


def test_gue_spectrum_semicircle():
    evs = np.linalg.eigvalsh(R.sample_gue(1500, 2))
    # empirical variance -> 1, support -> [-2, 2]
    assert evs.var() == pytest.approx(1.0, abs=0.05)
    assert abs(evs).max() < 2.3


def test_gue_n2_real_eigenvalues():
    h = R.sample_gue(2, 11)
    evs = np.linalg.eigvals(h)
    assert np.abs(evs.imag).max() < 1e-13


def test_deterministic_x_quantiles(be23, un):
    assert list(R.deterministic_x(be23, 3)) == [-1.0, 1.0, 1.0]
    assert np.allclose(R.deterministic_x(un, 4), [-0.75, -0.25, 0.25, 0.75], atol=1e-12)


def test_deterministic_x_cdf_distance(un):
    # sup distance between the empirical CDF of the diagonal and the law <= 1/n
    n = 64
    d = R.deterministic_x(un, n)
    for x in np.linspace(-1, 1, 101):
        emp = np.mean(d <= x)
        cdf = 0.5 * (x + 1.0)
        assert abs(emp - cdf) <= 1.0 / n + 1e-12


def test_simulate_reproducible(be23):
    cfg = R.SimConfig(n=50, t=1.05, reps=3, seed=123, dilation=0.05)
    c1 = R.simulate(be23, cfg)
    c2 = R.simulate(be23, cfg)
    assert np.array_equal(c1.points, c2.points)
    assert np.array_equal(c1.rep, c2.rep)
    assert c1.points.size == cfg.n * cfg.reps


def test_simulate_two_by_two_closed_form(be12):
    # eigenvalues of [[-1, c],[conj(c), 1]]*... via the quadratic formula
    cfg = R.SimConfig(n=2, t=0.7, reps=1, seed=9)
    cloud = R.simulate(be12, cfg)
    d = R.deterministic_x(be12, 2)
    h = R.sample_gue(2, 9, rep=0)
    m = np.diag(d.astype(complex)) + 1j * math.sqrt(0.7) * h
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = np.sqrt(tr * tr - 4.0 * det)
    expect = sorted([(tr + disc) / 2.0, (tr - disc) / 2.0], key=lambda z: (z.real, z.imag))
    got = sorted(cloud.points, key=lambda z: (z.real, z.imag))
    assert got == pytest.approx(expect, abs=1e-12)


def test_transpose_spectrum_invariance(be23):
    d = R.deterministic_x(be23, 40)
    h = R.sample_gue(40, 3)
    m = np.diag(d.astype(complex)) + 1j * h
    e1 = np.sort_complex(np.linalg.eigvals(m))
    e2 = np.sort_complex(np.linalg.eigvals(m.T))
    assert np.allclose(e1, e2, atol=1e-10)


def test_compare_small_cloud_fields(sc, sc_profile):
    cfg = R.SimConfig(n=40, t=1.0, reps=2, seed=1, dilation=0.05)
    cloud = R.simulate(sc, cfg)
    rep = R.compare(cloud, sc_profile, sc, 1.0)
    assert 0.0 <= rep.inside_fraction <= 1.0
    assert 0.0 <= rep.ks_marginal <= 1.0
    assert rep.n_points == 80
    assert rep.dilation == 0.05


def test_compare_ks_pushforward_is_the_hermitian_control(sc, sc_profile):
    # the Q_t-pushforward of the planar law is the law of D + sqrt(t) H, so
    # the field scores that control, drawn with the cloud's H; Re parts
    # pushed through the monotone Q_t would only repeat ks_marginal
    cfg = R.SimConfig(n=40, t=1.0, reps=2, seed=1, dilation=0.05)
    cloud = R.simulate(sc, cfg)
    rep = R.compare(cloud, sc_profile, sc, 1.0)
    herm = np.sort(cloud.hermitian)
    assert rep.ks_pushforward == R.ks_statistic(herm, sc_profile.cdf_at_u(herm))
    assert rep.ks_pushforward != rep.ks_marginal


def test_simulate_draws_each_repetition_once(sc, monkeypatch):
    # both spectra come from one draw of H per repetition
    cfg = R.SimConfig(n=30, t=0.7, reps=3, seed=4)
    draws, sample = [], R.sample_gue
    monkeypatch.setattr(R, "sample_gue", lambda *args: draws.append(args) or sample(*args))
    cloud = R.simulate(sc, cfg)
    assert draws == [(30, 4, rep) for rep in range(3)]
    d = R.deterministic_x(sc, 30)
    for rep in range(3):
        m = np.diag(d) + math.sqrt(0.7) * sample(30, 4, rep)
        assert np.allclose(cloud.hermitian[30 * rep : 30 * (rep + 1)], np.linalg.eigvalsh(m))
    assert not cloud.hermitian.flags.writeable


def test_compare_makes_no_kernel_call(sc, sc_profile, monkeypatch):
    # everything compare scores is read from the profile it is passed
    def refuse(*args, **kwargs):
        raise AssertionError("compare evaluated a kernel bundle")

    cloud = R.simulate(sc, R.SimConfig(n=40, t=1.0, reps=1, seed=2))
    for name, mod in list(sys.modules.items()):
        if name.startswith("ibrown") and hasattr(mod, "transforms"):
            monkeypatch.setattr(mod, "transforms", refuse)
    R.compare(cloud, sc_profile, sc, 1.0)


def test_compare_rejects_mismatched_t(sc, sc_profile):
    cfg = R.SimConfig(n=10, t=0.5, reps=1, seed=1)
    cloud = R.simulate(sc, cfg)
    with pytest.raises(ValueError):
        R.compare(cloud, sc_profile, sc, 1.0)


def test_inside_fraction_improves_with_n(sc, sc_profile):
    fracs = []
    for n in (100, 400):
        cfg = R.SimConfig(n=n, t=1.0, reps=2, seed=31, dilation=0.05)
        cloud = R.simulate(sc, cfg)
        fracs.append(R.compare(cloud, sc_profile, sc, 1.0).inside_fraction)
    assert fracs[-1] >= fracs[0] - 0.02  # non-strict statistical trend


def test_hermitian_control_matches_additive_law(sc):
    cfg = R.SimConfig(n=600, t=1.0, reps=2, seed=8)
    evs = np.sort(R.simulate(sc, cfg).hermitian)
    ks = R.ks_statistic(evs, B.profile(sc, 1.0).cdf_at_u(evs))
    assert ks < 0.04


@pytest.mark.parametrize(
    "field, value",
    [("n", 1), ("t", 0.0), ("reps", 0), ("dilation", -0.1), ("seed", -1), ("seed", 2**64)],
)
def test_sim_config_rejects_bad_fields(field, value):
    fields = {"n": 10, "t": 1.0, "reps": 1, "seed": 0, "dilation": 0.0, field: value}
    with pytest.raises(ValueError):
        R.SimConfig(**fields)


@pytest.mark.parametrize("draw", [lambda: R.sample_gue(1, 0), lambda: R.deterministic_x(M.semicircle(1.0), 1)])
def test_draws_need_two_rows(draw):
    with pytest.raises(ValueError, match="at least 2"):
        draw()


def test_eigvals_retry_and_its_typed_failure(monkeypatch):
    m = np.diag([1.0, 2.0, 3.0]).astype(complex)
    eigvals, calls = np.linalg.eigvals, []

    def fails_once(a):
        calls.append(a)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("no convergence")
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", fails_once)
    got = R._eigvals_with_retry(m, R._rng(0, 0))
    assert len(calls) == 2 and not np.array_equal(calls[1], m)  # retried with a jitter
    assert np.sort(got.real) == pytest.approx([1.0, 2.0, 3.0], abs=1e-12)

    def always_fails(a):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "eigvals", always_fails)
    with pytest.raises(EigenFailureError, match="failed twice"):
        R._eigvals_with_retry(m, R._rng(0, 0))
