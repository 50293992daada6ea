import json
from pathlib import Path

import pytest

from ibrown import brown, cli, maps
from ibrown.errors import EigenFailureError, NoConvergenceError


def run(args):
    return cli.main(args)


def test_compute_outputs(tmp_path):
    code = run(
        [
            "compute",
            "--preset",
            "semicircle:1",
            "--t",
            "1",
            "--grid",
            "64",
            "--out",
            str(tmp_path),
            "--svg",
        ]
    )
    assert code == 0
    prof = (tmp_path / "profile.csv").read_text()
    assert prof.splitlines()[0] == "a,a0,b_t,w_t,flag"
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["schema"] == 1
    assert summary["mass"] == pytest.approx(1.0, abs=1e-8)
    assert (tmp_path / "figure.svg").read_text().startswith("<svg")


def test_compute_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert (
            run(["compute", "--preset", "bernoulli:0.5", "--t", "0.8", "--grid", "32", "--out", str(out)])
            == 0
        )
    assert (a / "profile.csv").read_bytes() == (b / "profile.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


def test_measure_file_round_trip(tmp_path):
    mfile = tmp_path / "m.json"
    mfile.write_text('{"type":"piecewise_poly","pieces":[{"lo":0.0,"hi":1.0,"coeffs":[0.0,0.0,3.0]}]}')
    code = run(
        ["compute", "--measure", str(mfile), "--t", "0.25", "--grid", "32", "--out", str(tmp_path)]
    )
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["omega_intervals"][0][0] == pytest.approx(0.375, abs=1e-6)


def test_dirac_fails_fast(tmp_path, capsys):
    mfile = tmp_path / "dirac.json"
    mfile.write_text('{"type":"atomic","atoms":[{"x":0.0,"w":1.0}]}')
    code = run(["compute", "--measure", str(mfile), "--t", "1", "--out", str(tmp_path)])
    assert code == 2
    assert "point mass" in capsys.readouterr().err


def test_unknown_preset_and_keys(tmp_path):
    assert run(["compute", "--preset", "cauchy:1", "--t", "1", "--out", str(tmp_path)]) == 2
    assert run(["compute", "--preset", "semicircle:1,2", "--t", "1", "--out", str(tmp_path)]) == 2
    for t in ("nan", "inf"):
        assert run(["compute", "--preset", "semicircle", "--t", t, "--out", str(tmp_path)]) == 2
    mfile = tmp_path / "bad.json"
    mfile.write_text('{"type":"uniform","lo":-1.0,"hi":1.0,"name":"x"}')
    assert run(["compute", "--measure", str(mfile), "--t", "1", "--out", str(tmp_path)]) == 2


def test_simulate_outputs_and_reproducibility(tmp_path):
    args = [
        "simulate",
        "--preset",
        "bernoulli:0.6666666666666666",
        "--t",
        "1.05",
        "--n",
        "60",
        "--reps",
        "2",
        "--seed",
        "5",
        "--grid",
        "64",
        "--dilation",
        "0.05",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(args + ["--out", str(out)]) == 0
    assert (a / "cloud.csv").read_bytes() == (b / "cloud.csv").read_bytes()
    rep = json.loads((a / "compare.json").read_text())
    for key in ("inside_fraction", "ks_marginal", "ks_pushforward", "n_points", "dilation"):
        assert key in rep
    assert rep["n_points"] == 120
    assert (a / "cloud.csv").read_text().splitlines()[0] == "re,im,rep"


def test_simulate_svg_draws_the_cloud(tmp_path):
    args = ["simulate", "--preset", "bernoulli:0.5", "--t", "0.8", "--n", "40", "--grid", "32"]
    assert run(args + ["--out", str(tmp_path), "--svg"]) == 0
    figure = (tmp_path / "figure.svg").read_text()
    assert figure.startswith("<svg") and figure.count("<circle") > 0


def test_pushforward_outputs(tmp_path):
    code = run(
        [
            "pushforward",
            "--preset",
            "bernoulli:0.6666666666666666",
            "--t",
            "1.05",
            "--grid",
            "64",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    assert (tmp_path / "law.csv").read_text().splitlines()[0] == "u,f"
    rep = json.loads((tmp_path / "pushforward.json").read_text())
    assert rep["rectangle_max_discrepancy"] < 1e-5
    assert 0.0 <= rep["rectangle_max_error_estimate"] < 1e-9
    assert rep["boundary_agreement"] < 1e-9
    assert rep["law_mass"] == pytest.approx(1.0, abs=1e-6)


def test_pushforward_next_to_a_fourth_order_zero(tmp_path):
    # (x - 0.3)^4 on [-1, 2]: at the profile rows where v_t reads 0, J_t is
    # taken at a real point of the support where the density vanishes
    law = tmp_path / "quartic.json"
    law.write_text(
        '{"type":"piecewise_poly","pieces":[{"lo":-1.0,"hi":2.0,'
        '"coeffs":[0.0081,-0.108,0.54,-1.2,1.0]}]}'
    )
    assert run(["pushforward", "--measure", str(law), "--t", "0.3", "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "pushforward.json").read_text())
    assert rep["boundary_agreement"] < 1e-9
    assert rep["law_mass"] == pytest.approx(1.0, abs=1e-12)


def test_jn_subcommand(tmp_path):
    code = run(
        [
            "jn",
            "--preset",
            "bernoulli:0.6666666666666666",
            "--t",
            "1.05",
            "--grid",
            "64",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    rep = json.loads((tmp_path / "jn.json").read_text())
    assert rep["max_abs_diff"] < 1e-5


@pytest.mark.parametrize("preset,t", [("uniform:-1,1", "0.1"), ("semicircle:1", "1")])
def test_jn_default_grid(tmp_path, preset, t):
    # the README example: the default --grid 1024 samples the second
    # Chebyshev node, about 1e-5 from the region's edge
    code = run(["jn", "--preset", preset, "--t", t, "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "jn.json").read_text())
    assert rep["max_abs_diff"] < 1e-8


def test_tol_flag_is_gone():
    with pytest.raises(SystemExit) as exc:
        run(["compute", "--preset", "semicircle:1", "--t", "1", "--tol", "1e-8"])
    assert exc.value.code == 2


def test_subcommands_take_only_the_options_they_read():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    options = {
        name: sorted(o for a in p._actions for o in a.option_strings if o.startswith("--") and o != "--help")
        for name, p in sub.choices.items()
    }
    assert options["verify"] == ["--measure", "--preset", "--t"]
    assert options["characteristics"] == ["--measure", "--out", "--preset", "--seed", "--t"]
    assert sum(len(v) for v in options.values()) == 34
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--preset", "semicircle:1", "--t", "1", "--grid", "64"])
    assert exc.value.code == 2


def test_characteristics_subcommand(tmp_path):
    code = run(
        [
            "characteristics",
            "--preset",
            "bernoulli:0.5",
            "--t",
            "0.8",
            "--seed",
            "3",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    rep = json.loads((tmp_path / "characteristics.json").read_text())
    assert rep["max_pde_residual"] < 1e-4
    assert rep["constants_of_motion"] < 1e-14


def test_verify_passes_on_preset(capsys):
    assert run(["verify", "--preset", "bernoulli:0.5", "--t", "0.8"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out and "FAIL" not in out
    assert "rectangle error estimate" in out


def test_verify_builds_one_profile(monkeypatch):
    # the subordination, pushforward and jn suites share one profile
    calls, profile = [], brown.profile

    def counted(*args, **kwargs):
        calls.append(args)
        return profile(*args, **kwargs)

    monkeypatch.setattr(brown, "profile", counted)
    assert run(["verify", "--preset", "semicircle:1", "--t", "1"]) == 0
    assert len(calls) == 1


def test_pushforward_sweeps_each_interval_at_most_twice(tmp_path, monkeypatch):
    # the profile's sweep and pushforward_check's bracket sweep, per interval
    calls, sweep = [], brown.lambda_sweep

    def counted(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(brown, "lambda_sweep", counted)
    monkeypatch.setattr(maps, "lambda_sweep", counted)
    args = ["pushforward", "--preset", "bernoulli:0.5", "--t", "0.8", "--grid", "64"]
    assert run(args + ["--out", str(tmp_path)]) == 0
    assert 0 < len(calls) <= 4
    law = (tmp_path / "law.csv").read_text().splitlines()
    assert law[0] == "u,f" and len(law) == 1 + 2 * 64
    rep = json.loads((tmp_path / "pushforward.json").read_text())
    assert rep["boundary_agreement"] < 1e-9
    assert rep["law_mass"] == pytest.approx(1.0, abs=1e-12)


def test_verify_dirac_fails_fast(tmp_path):
    mfile = tmp_path / "dirac.json"
    mfile.write_text('{"type":"atomic","atoms":[{"x":1.0,"w":2.0}]}')
    assert run(["verify", "--measure", str(mfile), "--t", "1"]) == 2


@pytest.mark.parametrize("error", [NoConvergenceError, EigenFailureError])
def test_numerical_failure_exits_3(tmp_path, monkeypatch, capsys, error):
    def failing(*args, **kwargs):
        raise error("stalled")

    monkeypatch.setattr(brown, "profile", failing)
    args = ["compute", "--preset", "semicircle:1", "--t", "1", "--out", str(tmp_path)]
    assert run(args) == 3
    assert "error: stalled" in capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("given", [["--preset", "semicircle:1", "--measure", "law.json"], []])
def test_measure_and_preset_are_exclusive_and_one_is_required(tmp_path, capsys, given):
    args = ["compute", "--t", "1", "--out", str(tmp_path)] + given
    assert run(args) == 2
    assert "--measure" in capsys.readouterr().err
