#!/usr/bin/env python3
"""Interior regularity monitors on a smooth cosh run, at two resolutions.

The first three are the checks of the built-in paper-core suite at size 128
(seed 11), run through `run_suite` as `pelab verify paper-core` runs them:

* Morrey quotients R^-n iint_{Q_R} |grad u|^2 over shrinking cylinders: their
  decay at a point is the local regularity criterion.
* Reverse Hoelder ratio: the L^p cylinder mean of |grad u| on Q_R against the
  L^2 mean on Q_4R; a scale-independent constant is the higher-integrability
  signal.
* Interior estimate ratios for |u_t|^2, |grad^2 gradPhi(u)|^2 and |grad u|^4,
  normalized by (R-r)^2 and the gradient energy on the larger cylinder.
* Empirical Hoelder seminorm over a distance band, stable under refinement.
"""

import tempfile
from pathlib import Path

from pelab import GridSpec, RunConfig, cosh_potential, holder_seminorm, run
from pelab.checks import paper_core_suite, run_suite

suite = paper_core_suite(128)
suite["checks"] = [c for c in suite["checks"]
                   if c["kind"] in ("morrey", "reverse-holder", "estimate-ratios")]
with tempfile.TemporaryDirectory() as out:
    morrey, rev, est = run_suite(suite, Path(out))

print("== Morrey quotients at three interior points (size 128)")
h = 1.0 / 128
for prof in morrey.values["profiles"][:3]:
    line = "   x0 = %.2f:  " % prof["point"][0]
    line += "  ".join(f"R={R / h:4.0f}h -> {v:.3e}" for R, v in zip(prof["radii"], prof["values"]))
    print(line)
print(f"   4h quotient at most half the 16h one at all "
      f"{len(morrey.values['profiles'])} points: {morrey.passed}")
print()

print("== reverse Hoelder ratio (p = 2.5, 20 cylinders)")
print(f"   max ratio size 128: {rev.values['max_ratio_coarse']:.4f}")
print(f"   max ratio size 256: {rev.values['max_ratio']:.4f}"
      f"   (stable within 20%: {rev.passed})")
print()

print("== interior estimate ratios ((R - r)^2-normalized)")
for key in ("ratio_time", "ratio_hess", "ratio_l4"):
    print(f"   {key:10s}: {est.values['maxima_coarse'][key]:.4e} (128) -> "
          f"{est.values['maxima'][key]:.4e} (256)")
print(f"   stable within 30%: {est.passed}")
print()

pot = cosh_potential(1.0)


def make_run(size):
    grid = GridSpec(n=1, sizes=(size,), h=1.0 / size, boundary="periodic")
    return run(RunConfig(grid=grid, n_components=1, potential=pot, t_end=0.02,
                         cfl_sigma=0.9, snapshot_every=8,
                         initial={"kind": "bands", "kmax": 3, "amplitude": 0.5}, seed=11))


coarse, fine = make_run(128), make_run(256)

print("== empirical Hoelder seminorm (alpha = 1/2) of the terminal state")
for traj in (coarse, fine):
    g = traj.grid
    sn = holder_seminorm(traj.final, 0.5, (2 * g.h, 0.25))
    print(f"   size {g.sizes[0]:4d}: seminorm = {sn:.4f}")
