"""Per-layer tracing from outside the program.

``Tracer.install`` replaces every public function of every ``ibrown.*``
module, in each namespace that binds it (``from .measure import transforms``
copies the reference, so each importing module gets its own wrapper), with a
span recorder. A span's self time is its duration minus the time of its
child spans. ``numpy.linalg.eigvals`` is wrapped too, as ``rmt.eigvals``: it
is the LAPACK floor under ``rmt.simulate``.

Counts made at the same boundaries: integrand nodes handed to
``integrate_adaptive``, function evaluations inside ``bracket_newton``,
kernel bundles evaluated inside a ``v_t`` solve and nodes of each
``lambda_sweep``.
"""

from __future__ import annotations

import sys
import time
import types
from collections import Counter, defaultdict

import numpy as np

#: private functions that are a layer of their own: the v_t root solve
EXTRA = {"ibrown.subordination._vt_solve"}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.via = Counter()  # (namespace, key) -> calls through that binding
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.count = Counter()
        self._stack = []
        self._active = Counter()
        self._saved = []

    def _span(self, key, namespace, fn, args, kwargs):
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        self._active[key] += 1
        try:
            return self._call(key, fn, args, kwargs)
        finally:
            elapsed = time.perf_counter() - frame[0]
            self._stack.pop()
            self._active[key] -= 1
            self.calls[key] += 1
            self.via[namespace, key] += 1
            self.self_s[key] += elapsed - frame[1]
            if not self._active[key]:  # inclusive time once per recursion
                self.incl[key] += elapsed
            if self._stack:
                self._stack[-1][1] += elapsed

    def _call(self, key, fn, args, kwargs):
        if key == "numerics.integrate_adaptive":
            f = args[0]

            def counted(x):
                self.count["quad_nodes"] += int(np.size(x))
                return f(x)

            args = (counted,) + tuple(args[1:])
        elif key == "numerics.bracket_newton":
            f = args[0]

            def counted(x):
                self.count["newton_iters"] += 1
                return f(x)

            args = (counted,) + tuple(args[1:])
        elif key == "measure.transforms" and self._active["subordination._vt_solve"]:
            self.count["bundles_in_vt"] += 1
        out = fn(*args, **kwargs)
        if key == "brown.lambda_sweep":
            self.count["sweep_nodes"] += int(np.size(out["a0"]))
        return out

    def _wrap(self, key, namespace, fn):
        def traced(*args, **kwargs):
            return self._span(key, namespace, fn, args, kwargs)

        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self):
        for modname, mod in list(sys.modules.items()):
            if modname != "ibrown" and not modname.startswith("ibrown."):
                continue
            for attr, val in list(vars(mod).items()):
                if not isinstance(val, types.FunctionType) or not val.__module__.startswith("ibrown."):
                    continue
                qual = f"{val.__module__}.{val.__name__}"
                if val.__name__.startswith("_") and qual not in EXTRA:
                    continue
                key = qual.split(".", 1)[1]
                self._saved.append((mod, attr, val))
                setattr(mod, attr, self._wrap(key, modname, val))
        self._saved.append((np.linalg, "eigvals", np.linalg.eigvals))
        np.linalg.eigvals = self._wrap("rmt.eigvals", "numpy.linalg", np.linalg.eigvals)

    def uninstall(self):
        for mod, attr, val in reversed(self._saved):
            setattr(mod, attr, val)
        self._saved.clear()

    def table(self) -> str:
        """Per-function calls, inclusive and self time, busiest first."""
        rows = ["%-44s %10s %10s %10s" % ("function", "calls", "incl_s", "self_s")]
        for key in sorted(self.calls, key=lambda k: -self.self_s[k]):
            rows.append("%-44s %10d %10.4f %10.4f" % (key, self.calls[key], self.incl[key], self.self_s[key]))
        return "\n".join(rows)

    def metrics(self, bytes_written: int, overhead_s: float) -> dict:
        c, s, i = self.calls, self.self_s, self.incl
        solves = c["subordination._vt_solve"]
        out = {
            "numerics.quad_calls": (c["numerics.integrate_adaptive"], "count"),
            "numerics.quad_nodes": (self.count["quad_nodes"], "count"),
            "numerics.quad_self_s": (s["numerics.integrate_adaptive"], "s"),
            "numerics.newton_calls": (c["numerics.bracket_newton"], "count"),
            "numerics.newton_iters": (self.count["newton_iters"], "count"),
            "measure.bundles": (c["measure.transforms"], "count"),
            "measure.bundles_self_s": (s["measure.transforms"], "s"),
            "measure.p0_zero_calls": (c["measure.p0_zero"], "count"),
            "measure.cauchy_calls": (c["measure.cauchy"], "count"),
            "measure.log_potential_calls": (c["measure.log_potential"], "count"),
            "measure.quantile_calls": (c["measure.quantile"], "count"),
            "subordination.vt_solves": (solves, "count"),
            "subordination.bundles_per_solve": (self.count["bundles_in_vt"] / solves if solves else 0.0, "bundles/solve"),
            "subordination.self_s": (sum(v for k, v in s.items() if k.startswith("subordination.")), "s"),
            "subordination.region_s": (i["subordination.lambda_region"], "s"),
            "subordination.jt_inverse_calls": (c["subordination.j_t_inverse"], "count"),
            "subordination.jt_inverse_s": (i["subordination.j_t_inverse"], "s"),
            "brown.a0_inversions": (self.via["ibrown.brown", "numerics.bracket_newton"], "count"),
            "brown.sweep_nodes": (self.count["sweep_nodes"], "count"),
            "brown.sweep_s": (i["brown.lambda_sweep"], "s"),
            "brown.profile_self_s": (s["brown.profile"], "s"),
            "maps.law_additive_s": (i["maps.law_additive"], "s"),
            "maps.pushforward_s": (i["maps.pushforward_check"], "s"),
            "jn.solve_g_calls": (c["jn.solve_g"], "count"),
            "jn.solve_g_s": (i["jn.solve_g"], "s"),
            "jn.density_s": (i["jn.jn_density"], "s"),
            "characteristics.s_of_calls": (c["characteristics.s_of"], "count"),
            "characteristics.s_of_s": (i["characteristics.s_of"], "s"),
            "characteristics.pde_residual_s": (i["characteristics.pde_residual"], "s"),
            "rmt.eigvals_s": (i["rmt.eigvals"], "s"),
            "rmt.simulate_self_s": (s["rmt.simulate"], "s"),
            "rmt.compare_s": (i["rmt.compare"], "s"),
            "cli.compute_self_s": (s["cli.cmd_compute"], "s"),
            "cli.bytes_written": (bytes_written, "B"),
            "trace.overhead_s": (overhead_s, "s"),
        }
        return out
