#!/usr/bin/env python3
"""Two global structure checks on the flow, run as verification suites.

1. Contraction: the H^-1 distance between two runs with matching boundary
   data never increases.  For the quadratic potential it should track the
   slowest Dirichlet heat mode exp(-pi^2 t).
2. Boundedness: for radial potentials sup|u(t)| never exceeds the initial sup
   (the discrete maximum principle).
"""

import math
import tempfile
from pathlib import Path

from pelab.cli import run_suite

size = 128


def config(grid, potential, **keys):
    return {"grid": grid, "components": 1, "potential": potential, "cfl_sigma": 0.9, **keys}


def verify(suite):
    """The suite's reports, its files written to a directory that is then removed."""
    with tempfile.TemporaryDirectory() as out:
        return run_suite(suite, Path(out))


dgrid = {"sizes": [size], "h": 1.0 / (size - 1), "boundary": "dirichlet"}
labels = {"quadratic": "quadratic (pure heat)", "cosh": "cosh"}
reports = verify({"name": "contraction", "seed": 1, "checks": [
    {"name": pid, "kind": "contraction",
     "config": config(dgrid, {"id": pid, "r_max": r_max}, t_end=0.05, snapshot_every=25),
     "initial0": {"kind": "mode", "k": [1], "amplitude": 0.6},
     "initial1": {"kind": "bands", "kmax": 3, "amplitude": 0.35}}
    for pid, r_max in (("quadratic", 2.0), ("cosh", 1.0))]})
for rep in reports:
    d, times = rep.values["d"], rep.values["times"]
    print(f"== contraction, {labels[rep.name]}")
    print(f"   monotone non-increasing: {rep.values['monotone']}"
          f"   (weighted e^(2 lam t) d^2 monotone: {rep.values['weighted_monotone']})")
    print(f"   fitted decay rate {rep.values['rate_fit']:.3f} "
          f"(slowest Dirichlet heat mode: {-math.pi ** 2:.3f})")
    stride = max(1, len(d) // 6)
    for k in range(0, len(d), stride):
        print(f"   t = {times[k]:7.4f}   d = {d[k]:.6e}")
    print()

pgrid = {"sizes": [size], "h": 1.0 / size, "boundary": "periodic"}
[rep] = verify({"name": "boundedness", "seed": 2, "checks": [
    {"name": "sup-bump", "kind": "sup-norm",
     "config": config(pgrid, {"id": "cosh", "r_max": 1.0}, components=2, t_end=0.01,
                      snapshot_every=8, initial={"kind": "bump", "amplitude": 0.8,
                                                 "width": 0.1})}]})
print("== boundedness, cosh bump (N = 2, periodic)")
print(f"   pass: {rep.passed}")
sups = rep.values["sup"]
stride = max(1, len(sups) // 6)
for k in range(0, len(sups), stride):
    print(f"   t = {rep.values['times'][k]:7.4f}   sup|u| = {sups[k]:.6f}")
