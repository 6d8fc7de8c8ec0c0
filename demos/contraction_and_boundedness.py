#!/usr/bin/env python3
"""Two global structure checks on the flow.

1. Contraction: the H^-1 distance between two runs with matching boundary
   data never increases.  For the quadratic potential it should track the
   slowest Dirichlet heat mode exp(-pi^2 t).
2. Boundedness: for radial potentials sup|u(t)| never exceeds the initial sup
   (the discrete maximum principle).
"""

import math

from pelab import (GridSpec, RunConfig, certify_window, contraction_report,
                   cosh_potential, quadratic, run, sup_norm_report)

size = 128
dgrid = GridSpec(n=1, sizes=(size,), h=1.0 / (size - 1), boundary="dirichlet")


def dirichlet_run(pot, init):
    return run(RunConfig(grid=dgrid, n_components=1, potential=pot, t_end=0.05,
                         cfl_sigma=0.9, snapshot_every=25, initial=init, seed=1))


for pot, label in ((quadratic(2.0), "quadratic (pure heat)"),
                   (cosh_potential(1.0), "cosh")):
    t0 = dirichlet_run(pot, {"kind": "mode", "k": [1], "amplitude": 0.6})
    t1 = dirichlet_run(pot, {"kind": "bands", "kmax": 3, "amplitude": 0.35})
    rep = contraction_report(t0, t1, certify_window(pot))
    d, times = rep.values["d"], rep.values["times"]
    print(f"== contraction, {label}")
    print(f"   monotone non-increasing: {rep.values['monotone']}"
          f"   (weighted e^(2 lam t) d^2 monotone: {rep.values['weighted_monotone']})")
    print(f"   fitted decay rate {rep.values['rate_fit']:.3f} "
          f"(slowest Dirichlet heat mode: {-math.pi ** 2:.3f})")
    stride = max(1, len(d) // 6)
    for k in range(0, len(d), stride):
        print(f"   t = {times[k]:7.4f}   d = {d[k]:.6e}")
    print()

pgrid = GridSpec(n=1, sizes=(size,), h=1.0 / size, boundary="periodic")
traj = run(RunConfig(grid=pgrid, n_components=2, potential=cosh_potential(1.0),
                     t_end=0.01, snapshot_every=8, cfl_sigma=0.9,
                     initial={"kind": "bump", "amplitude": 0.8, "width": 0.1}, seed=2))
rep = sup_norm_report(traj)
print("== boundedness, cosh bump (N = 2, periodic)")
print(f"   pass: {rep.passed}")
sups = rep.values["sup"]
stride = max(1, len(sups) // 6)
for k in range(0, len(sups), stride):
    print(f"   t = {rep.values['times'][k]:7.4f}   sup|u| = {sups[k]:.6f}")
