"""Command-line front end.

Subcommands: compute, pushforward, simulate, jn, characteristics, verify.
Measures come from --measure FILE (JSON schema) or --preset NAME[:params],
a preset of measure.PRESETS with its parameters in order. jn, like verify,
solves the fixed point at the profile rows of checks.fixed_point_rows.
Exit codes: 2 for validation errors, 3 for any other failure of a computation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import brown, checks, jn, maps, measure, rmt, svg
from .errors import DiracMeasureError, EmptyMeasureError, IBrownError, MeasureFormatError, NegativeMassError

_VALIDATION_ERRORS = (
    MeasureFormatError,
    DiracMeasureError,
    NegativeMassError,
    EmptyMeasureError,
    ValueError,
)


def _parse_preset(text: str) -> measure.MeasureSpec:
    name, _, params = text.partition(":")
    if name not in measure.PRESETS:
        raise MeasureFormatError(f"unknown preset {name!r}")
    make, names = measure.PRESETS[name]
    values = params.split(",") if params else []
    if any(values[len(names) :]):
        raise MeasureFormatError(f"preset {name!r} takes at most {len(names)} parameters, got {len(values)}")
    # the i-th parameter is the i-th name; an empty one keeps its default
    return make(**{n: float(v) for n, v in zip(names, values) if v})


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


def _summary(path: Path, ns, mu, **fields):
    """Write a JSON summary: the schema, t, the law's label and digest, then fields."""
    summary = {"schema": 1, "t": ns.t, "measure": mu.label, "digest": mu.digest(), **fields}
    _write(path, json.dumps(summary, indent=2))


def _csv(header: str, *columns) -> str:
    """One line per row of the columns, from one format string: %.17g for an
    array's numbers and %s for any other column (the profile's flags)."""
    fmt = ",".join("%.17g" if isinstance(c, np.ndarray) else "%s" for c in columns) + "\n"
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
    return header + "\n" + "".join(fmt % row for row in rows)


def cmd_compute(ns) -> int:
    mu = _load_measure(ns)
    prof = brown.profile(mu, ns.t, n_grid=ns.grid)
    out = _out_dir(ns)
    cols = (prof.grid, prof.a0, prof.halfheight, prof.density, prof.flags)
    _write(out / "profile.csv", _csv("a,a0,b_t,w_t,flag", *cols))
    _summary(
        out / "summary.json",
        ns,
        mu,
        omega_intervals=prof.omega_intervals,
        mass=prof.mass,
        min_density=float(prof.density.min()),
        max_density=float(prof.density.max()),
    )
    if ns.svg:
        title = f"t={ns.t:g}  {mu.label}  [{mu.digest()}]"
        _write(out / "figure.svg", svg.render_profile_svg(prof, title))
    return 0


def cmd_pushforward(ns) -> int:
    mu = _load_measure(ns)
    out = _out_dir(ns)
    prof = brown.profile(mu, ns.t, n_grid=ns.grid)
    v = 0.5 * prof.halfheight
    _write(out / "rho.csv", _csv("a0,v_t,rho_t", prof.a0, v, prof.rho))
    _write(out / "law.csv", _csv("u,f", prof.u, prof.f))
    _write(out / "qt_curve.csv", _csv("a,q", prof.grid, prof.u))

    jv, _, gap = checks.boundary_maps(mu, ns.t, prof)
    header = "a0,v_t,u_re,u_im,j_re,j_im,abs_diff"
    cols = (prof.a0, v, prof.grid, prof.halfheight, jv.real, jv.imag, gap)
    _write(out / "ut_boundary.csv", _csv(header, *cols))

    rep = maps.pushforward_check(mu, ns.t)
    _summary(
        out / "pushforward.json",
        ns,
        mu,
        rectangle_max_discrepancy=rep.max_discrepancy,
        rectangle_max_error_estimate=max(rep.error_estimates, default=0.0),
        boundary_agreement=float(gap.max()),
        law_mass=prof.mass,
    )
    return 0


def cmd_simulate(ns) -> int:
    mu = _load_measure(ns)
    out = _out_dir(ns)
    cfg = rmt.SimConfig(n=ns.n, t=ns.t, reps=ns.reps, seed=ns.seed, dilation=ns.dilation)
    cloud = rmt.simulate(mu, cfg)
    _write(out / "cloud.csv", _csv("re,im,rep", cloud.points.real, cloud.points.imag, cloud.rep))
    prof = brown.profile(mu, ns.t, n_grid=ns.grid)
    rep = rmt.compare(cloud, prof, mu, ns.t)
    _summary(out / "compare.json", ns, mu, **dataclasses.asdict(rep))
    if ns.svg:
        title = f"t={ns.t:g}  {mu.label}  [{mu.digest()}]  n={ns.n} reps={ns.reps}"
        _write(out / "figure.svg", svg.render_profile_svg(prof, title, cloud=cloud.points))
    return 0


def cmd_jn(ns) -> int:
    mu = _load_measure(ns)
    out = _out_dir(ns)
    prof = brown.profile(mu, ns.t, n_grid=max(ns.grid, 64))
    rows = checks.fixed_point_rows(prof, 200, 1)
    a, w = prof.grid[rows], prof.density[rows]
    wj = np.array([jn.jn_density(mu, ns.t, float(x)) for x in a])
    diff = np.abs(wj - w)
    _write(out / "jn.csv", _csv("a,w_main,w_jn,abs_diff", a, w, wj, diff))
    _summary(out / "jn.json", ns, mu, max_abs_diff=float(diff.max(initial=0.0)))
    return 0


def cmd_characteristics(ns) -> int:
    mu = _load_measure(ns)
    out = _out_dir(ns)
    samples = checks.pde_samples(mu, ns.t, ns.seed, 12)
    _summary(
        out / "characteristics.json",
        ns,
        mu,
        max_pde_residual=float(max((res for _, _, res in samples), default=0.0)),
        constants_of_motion=float(checks.constants_of_motion(mu)),
        samples=[{"re": lam.real, "im": lam.imag, "eps": eps, "residual": float(res)} for lam, eps, res in samples],
    )
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
    "preset": {"help": " | ".join(f"{k}[:{','.join(p)}]" for k, (_, p) in measure.PRESETS.items())},
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
    except IBrownError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
