#!/usr/bin/env python3
"""Steadiness of the benchmark: two sets of runs of the same code.

    python3 ibench/steady.py                       # every workload
    python3 ibench/steady.py --workload crosscheck

Each of the two sets runs every workload once per seed, workloads
interleaved, each run in its own process with its own seed (set 0 uses
seeds 0-9, set 1 seeds 10-19). Per workload and end-to-end metric it prints
each set's median and quartiles, the spread (interquartile distance over
the median), and the worsening of set 1's median against set 0's, both
against the metric's bound. Every run must report correct output and no
failed job. Then it runs the traced run twice per workload with seed 0 and
checks that every count repeats exactly. Exits 1 if any test fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import SPEC  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]
SETS = 2
RUNS = 10


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = RUN + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", help="workload to run (repeatable; default all)")
    ns = ap.parse_args(argv)
    names = ns.workload or [w["name"] for w in SPEC["workloads"]]
    metrics = SPEC["end_to_end"]
    seconds = SPEC["run_seconds"]

    results = {(k, w): [] for k in range(SETS) for w in names}
    for k in range(SETS):
        for r in range(RUNS):
            for w in names:
                res = one_run(w, k * RUNS + r, seconds, 0)
                results[k, w].append(res)
                vals = "  ".join(f"{m['name']}={res['metrics'][m['name']]['value']:.4g}" for m in metrics)
                print(f"set {k} run {r} {w:16s} correct={res['correct']} {res['failed']}/{res['attempted']} failed  {vals}", flush=True)

    ok = True
    print()
    print("%-16s %-12s %4s %10s %10s %10s %8s %8s %8s  %s" % ("workload", "metric", "set", "q1", "median", "q3", "spread", "worse", "bound", "verdict"))
    for w in names:
        runs = results[0, w] + results[1, w]
        if any(r["failed"] or not r["correct"] for r in runs):
            ok = False
            print(f"{w}: {sum(r['failed'] for r in runs)} failed jobs, {sum(not r['correct'] for r in runs)} runs not correct: FAIL")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            med0 = None
            for k in range(SETS):
                vals = [r["metrics"][name]["value"] for r in results[k, w]]
                q1, q2, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / q2
                worse = 0.0 if med0 is None else ((q2 - med0) if m["better"] == "lower" else (med0 - q2)) / med0
                med0 = q2 if med0 is None else med0
                verdict = []
                if spread > bound:
                    verdict.append("SPREAD>BOUND")
                elif spread > bound / 3:
                    verdict.append("spread>bound/3")
                if worse > bound:
                    verdict.append("WORSE>BOUND")
                ok &= not any(v.isupper() for v in verdict)
                print("%-16s %-12s %4d %10.4g %10.4g %10.4g %8.3f %8.3f %8.2f  %s" % (w, name, k, q1, q2, q3, spread, worse, bound, " ".join(verdict) or "ok"))

    print()
    count_names = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "s"]
    for w in names:
        a, b = (one_run(w, 0, seconds, 1) for _ in range(2))
        diff = [n for n in count_names if a["metrics"][n]["value"] != b["metrics"][n]["value"]]
        same = not diff and all(r["correct"] and not r["failed"] for r in (a, b))
        ok &= same
        print(f"{w:16s} traced counts repeat exactly: {'yes' if same else 'NO ' + ', '.join(diff)}")
    print("\nsteady" if ok else "\nNOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
