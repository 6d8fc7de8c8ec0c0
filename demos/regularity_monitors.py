#!/usr/bin/env python3
"""Interior regularity monitors on a smooth cosh run, at two resolutions.

* Morrey quotients R^-n iint_{Q_R} |grad u|^2 over shrinking cylinders: their
  decay at a point is the local regularity criterion.
* Reverse Hoelder ratio: the L^p cylinder mean of |grad u| on Q_R against the
  L^2 mean on Q_4R; a scale-independent constant is the higher-integrability
  signal.
* Interior estimate ratios for |u_t|^2, |grad^2 gradPhi(u)|^2 and |grad u|^4,
  normalized by (R-r)^2 and the gradient energy on the larger cylinder.
* Empirical Hoelder seminorm over a distance band, stable under refinement.
"""

import numpy as np

from pelab import (Cylinder, GridSpec, RunConfig, cosh_potential,
                   estimate_ratio_report, holder_seminorm, morrey_profile,
                   reverse_holder_report, run)

pot = cosh_potential(1.0)


def make_run(size):
    grid = GridSpec(n=1, sizes=(size,), h=1.0 / size, boundary="periodic")
    return run(RunConfig(grid=grid, n_components=1, potential=pot, t_end=0.02,
                         cfl_sigma=0.9, snapshot_every=8,
                         initial={"kind": "bands", "kmax": 3, "amplitude": 0.5}, seed=11))


coarse, fine = make_run(128), make_run(256)

print("== Morrey quotients at three interior points (size 128)")
h = coarse.grid.h
for x0 in (0.31, 0.52, 0.74):
    prof = morrey_profile(coarse, [((x0,), 0.02)], [16 * h, 8 * h, 4 * h])[0]
    line = "   x0 = %.2f:  " % x0
    line += "  ".join(f"R={R / h:4.0f}h -> {v:.3e}" for R, v in prof)
    print(line)
print()

rng = np.random.default_rng(7)
cyls = [Cylinder(center=(float(rng.uniform(0, 1)),), t0=0.02, R=0.032)
        for _ in range(20)]
rep_c = reverse_holder_report(coarse, cyls, p=2.5)
rep_f = reverse_holder_report(fine, cyls, p=2.5,
                              reference=rep_c.values["max_ratio"])
print("== reverse Hoelder ratio (p = 2.5, 20 cylinders)")
print(f"   max ratio size 128: {rep_c.values['max_ratio']:.4f}")
print(f"   max ratio size 256: {rep_f.values['max_ratio']:.4f}"
      f"   (stable within 20%: {rep_f.passed})")
print()

pairs = [(Cylinder(center=(x0,), t0=0.018, R=0.05),
          Cylinder(center=(x0,), t0=0.018, R=0.1)) for x0 in (0.4, 0.6)]
est_c = estimate_ratio_report(coarse, pot, pairs)
est_f = estimate_ratio_report(fine, pot, pairs, reference=est_c.values["maxima"])
print("== interior estimate ratios ((R - r)^2-normalized)")
for key in ("ratio_time", "ratio_hess", "ratio_l4"):
    print(f"   {key:10s}: {est_c.values['maxima'][key]:.4e} (128) -> "
          f"{est_f.values['maxima'][key]:.4e} (256)")
print(f"   stable within 30%: {est_f.passed}")
print()

print("== empirical Hoelder seminorm (alpha = 1/2) of the terminal state")
for traj in (coarse, fine):
    g = traj.grid
    sn = holder_seminorm(traj.final, 0.5, (2 * g.h, 0.25))
    print(f"   size {g.sizes[0]:4d}: seminorm = {sn:.4f}")
