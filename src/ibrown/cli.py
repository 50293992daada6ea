"""Command-line front end.

Subcommands: compute, pushforward, simulate, jn, characteristics, verify.
Measures come from --measure FILE (JSON schema) or --preset NAME[:params]
with presets semicircle[:variance], uniform[:lo,hi], bernoulli[:alpha].
Exit codes: 2 for validation errors, 3 for convergence failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import brown, characteristics, checks, jn, maps, measure, rmt, subordination, svg
from .errors import (
    DiracMeasureError,
    EmptyMeasureError,
    IBrownError,
    MeasureFormatError,
    NegativeMassError,
    NoConvergenceError,
    EigenFailureError,
)

_VALIDATION_ERRORS = (
    MeasureFormatError,
    DiracMeasureError,
    NegativeMassError,
    EmptyMeasureError,
    ValueError,
)
_CONVERGENCE_ERRORS = (NoConvergenceError, EigenFailureError)


def _parse_preset(text: str) -> measure.MeasureSpec:
    name, _, params = text.partition(":")
    args = [float(p) for p in params.split(",") if p] if params else []
    if name == "semicircle":
        return measure.semicircle(*args) if args else measure.semicircle()
    if name == "uniform":
        return measure.uniform(*args) if args else measure.uniform()
    if name == "bernoulli":
        return measure.bernoulli(*args) if args else measure.bernoulli()
    raise MeasureFormatError(f"unknown preset {name!r}")


def _load_measure(ns) -> measure.MeasureSpec:
    if ns.measure and ns.preset:
        raise MeasureFormatError("give either --measure or --preset, not both")
    if ns.measure:
        return measure.load_measure(ns.measure)
    if ns.preset:
        return _parse_preset(ns.preset)
    raise MeasureFormatError("a measure is required (--measure FILE or --preset NAME)")


def _out_dir(ns) -> Path:
    out = Path(ns.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path: Path, text: str):
    path.write_text(text, encoding="utf-8")
    print(path, file=sys.stderr)


def _fmt(x) -> float:
    return float("%.17g" % x)


def cmd_compute(ns) -> int:
    mu = _load_measure(ns)
    prof = brown.profile(mu, ns.t, n_grid=ns.grid)
    out = _out_dir(ns)
    _write(out / "profile.csv", prof.to_csv())
    summary = {
        "schema": 1,
        "t": ns.t,
        "measure": mu.label,
        "digest": mu.digest(),
        "omega_intervals": [[_fmt(a), _fmt(b)] for a, b in prof.omega_intervals],
        "mass": _fmt(prof.mass),
        "min_density": _fmt(float(prof.density.min())),
        "max_density": _fmt(float(prof.density.max())),
    }
    _write(out / "summary.json", json.dumps(summary, indent=2))
    if ns.svg:
        title = f"t={ns.t:g}  {mu.label}  [{mu.digest()}]"
        _write(out / "figure.svg", svg.render_profile_svg(prof, title))
    return 0


def _csv(header: str, *columns) -> str:
    """One line per row of the columns, each value as %.17g."""
    lines = [header] + [",".join("%.17g" % x for x in row) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


def cmd_pushforward(ns) -> int:
    mu = _load_measure(ns)
    out = _out_dir(ns)
    prof = brown.profile(mu, ns.t, n_grid=ns.grid)
    v = 0.5 * prof.halfheight
    rho = (1.0 / (math.pi * ns.t)) * (1.0 - 0.5 * prof.slope)  # maps.circular_density
    _write(out / "rho.csv", _csv("a0,v_t,rho_t", prof.a0, v, rho))
    _write(out / "law.csv", _csv("u,f", prof.u, prof.f))
    _write(out / "qt_curve.csv", _csv("a,q", prof.grid, prof.u))

    # boundary correspondence of the vertical-affine map vs the holomorphic map
    jv = np.array([subordination.j_t(mu, ns.t, complex(x, y)) for x, y in zip(prof.a0, v)])
    diff = np.abs(prof.grid + 1j * prof.halfheight - jv)
    header = "a0,v_t,u_re,u_im,j_re,j_im,abs_diff"
    cols = (prof.a0, v, prof.grid, prof.halfheight, jv.real, jv.imag, diff)
    _write(out / "ut_boundary.csv", _csv(header, *cols))

    rep = maps.pushforward_check(mu, ns.t)
    summary = {
        "schema": 1,
        "t": ns.t,
        "measure": mu.label,
        "digest": mu.digest(),
        "rectangle_max_discrepancy": _fmt(rep.max_discrepancy),
        "rectangle_max_error_estimate": _fmt(max(rep.error_estimates, default=0.0)),
        "boundary_agreement": _fmt(float(diff.max())),
        "law_mass": _fmt(prof.mass),
    }
    _write(out / "pushforward.json", json.dumps(summary, indent=2))
    return 0


def cmd_simulate(ns) -> int:
    mu = _load_measure(ns)
    out = _out_dir(ns)
    cfg = rmt.SimConfig(n=ns.n, t=ns.t, reps=ns.reps, seed=ns.seed, dilation=ns.dilation)
    cloud = rmt.simulate(mu, cfg)
    _write(out / "cloud.csv", cloud.to_csv())
    prof = brown.profile(mu, ns.t, n_grid=ns.grid)
    rep = rmt.compare(cloud, prof, mu, ns.t)
    summary = {"schema": 1, "t": ns.t, "measure": mu.label, "digest": mu.digest()}
    summary.update({k: _fmt(v) if isinstance(v, float) else v for k, v in rep.to_dict().items()})
    _write(out / "compare.json", json.dumps(summary, indent=2))
    if ns.svg:
        title = f"t={ns.t:g}  {mu.label}  [{mu.digest()}]  n={ns.n} reps={ns.reps}"
        _write(out / "figure.svg", svg.render_profile_svg(prof, title, cloud=cloud.points))
    return 0


def cmd_jn(ns) -> int:
    mu = _load_measure(ns)
    out = _out_dir(ns)
    prof = brown.profile(mu, ns.t, n_grid=max(ns.grid, 64))
    rows = ["a,w_main,w_jn,abs_diff"]
    worst = 0.0
    for sl in prof.blocks():
        idx = np.linspace(1, prof.grid[sl].size - 2, min(prof.grid[sl].size - 2, 200)).astype(int)
        for a, w in zip(prof.grid[sl][idx], prof.density[sl][idx]):
            wj = jn.jn_density(mu, ns.t, float(a))
            worst = max(worst, abs(wj - w))
            rows.append("%.17g,%.17g,%.17g,%.17g" % (a, w, wj, abs(wj - w)))
    _write(out / "jn.csv", "\n".join(rows) + "\n")
    summary = {
        "schema": 1,
        "t": ns.t,
        "measure": mu.label,
        "digest": mu.digest(),
        "max_abs_diff": _fmt(worst),
    }
    _write(out / "jn.json", json.dumps(summary, indent=2))
    return 0


def cmd_characteristics(ns) -> int:
    mu = _load_measure(ns)
    out = _out_dir(ns)
    rng = np.random.default_rng(ns.seed)
    span = max(abs(mu.support.lo), abs(mu.support.hi))
    samples = []
    worst = 0.0
    for _ in range(12):
        lam = complex(rng.uniform(-span - 2, span + 2), rng.uniform(-1.5, 1.5))
        eps = rng.uniform(0.1, 1.0)
        res = characteristics.pde_residual(mu, ns.t, lam, eps)
        worst = max(worst, res)
        samples.append({"re": _fmt(lam.real), "im": _fmt(lam.imag), "eps": _fmt(eps), "residual": _fmt(res)})
    conserved = checks.check_pde(mu, ns.t, n_points=0)[1]
    summary = {
        "schema": 1,
        "t": ns.t,
        "measure": mu.label,
        "digest": mu.digest(),
        "max_pde_residual": _fmt(worst),
        "constants_of_motion": _fmt(conserved.value),
        "samples": samples,
    }
    _write(out / "characteristics.json", json.dumps(summary, indent=2))
    return 0


def cmd_verify(ns) -> int:
    mu = _load_measure(ns)
    rows = checks.run_all(mu, ns.t)
    print(checks.format_table(rows))
    return 0 if all(r.passed for r in rows) else 1


#: every option a subcommand can take; each takes --measure, --preset and
#: --t, and of the rest only those listed for it in _COMMANDS
_OPTIONS = {
    "measure": {"help": "path to a measure JSON file"},
    "preset": {"help": "semicircle[:s] | uniform[:lo,hi] | bernoulli[:alpha]"},
    "t": {"type": float, "required": True, "help": "time parameter (> 0)"},
    "grid": {"type": int, "default": 1024, "help": "grid points per interval"},
    "out": {"default": ".", "help": "output directory"},
    "svg": {"action": "store_true", "help": "also write figure.svg"},
    "seed": {"type": int, "default": 0},
    "n": {"type": int, "default": 500, "help": "matrix size"},
    "reps": {"type": int, "default": 1, "help": "repetitions"},
    "dilation": {"type": float, "default": 0.05, "help": "boundary slack"},
}

_COMMANDS = (
    ("compute", cmd_compute, ("grid", "out", "svg")),
    ("pushforward", cmd_pushforward, ("grid", "out")),
    ("simulate", cmd_simulate, ("grid", "out", "svg", "seed", "n", "reps", "dilation")),
    ("jn", cmd_jn, ("grid", "out")),
    ("characteristics", cmd_characteristics, ("out", "seed")),
    ("verify", cmd_verify, ()),
)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ibrown", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn, options in _COMMANDS:
        p = sub.add_parser(name)
        for opt in ("measure", "preset", "t") + options:
            p.add_argument("--" + opt, **_OPTIONS[opt])
        p.set_defaults(func=fn)
    return ap


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _CONVERGENCE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except IBrownError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
