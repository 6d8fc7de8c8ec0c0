#!/usr/bin/env python3
"""The strongly coupled rewrite of a radial diffusion system, exercised end to end.

The same flow can be stepped either as u_t = Lap(grad Phi(u)) or in the
coupled form u_t = div(a grad u + c grad H(u)); both are second-order
discretizations of the same system, so their terminal states converge to each
other at O(h^2).  On data bounded away from |u| = 0 the coupled entropy
v = exp(s H(u)) is a discrete subsolution: the positive part of its residual
is pure scheme error (here it vanishes identically).  On data crossing zero
the dissipation coefficient of H degenerates and the inequality genuinely
fails; the monitor shows that too.
"""

import tempfile
from pathlib import Path

import numpy as np

from pelab import (GridSpec, RunConfig, choose_entropy_params, cosh_potential,
                   coupled_decomposition, run)
from pelab.checks import run_suite

pot = cosh_potential(1.0)
cc = coupled_decomposition(pot)
print("coupled coefficients for the cosh potential:")
print(f"  lam_a = {cc.lam_a:.4f}, lam_A = {cc.lam_A:.4f}, bounds = "
      + ", ".join(f"{k}={v:.4f}" for k, v in cc.bounds.items()))
pars = choose_entropy_params(cc, n_dim=1, n_components=1)
print(f"  entropy parameters: s = {pars.s:.4f}, c = {pars.c:.4f} "
      f"(eps = {pars.eps:.3f}, C(eps) = {pars.big_c:.4f})")
print()


def make(size, system, init):
    grid = GridSpec(n=1, sizes=(size,), h=1.0 / size, boundary="periodic")
    return run(RunConfig(grid=grid, n_components=1, potential=pot, system=system,
                         t_end=0.01, cfl_sigma=0.9, snapshot_every=1,
                         initial=init, seed=3))


print("== solver consistency: coupled vs diffusion terminal sup difference")
init = {"kind": "bands", "kmax": 3, "amplitude": 0.5}
errs = {}
for size in (64, 128, 256):
    td, tc = make(size, "diffusion", init), make(size, "coupled", init)
    errs[size] = float(np.abs(td.final.values - tc.final.values).max())
    print(f"   size {size:4d}: {errs[size]:.3e}")
print(f"   shrink 128 -> 256: {errs[128] / errs[256]:.2f}x (second order)")
print()


def entropy_check(name, sizes, initial):
    """An entropy-coupled check of the cosh run from `initial`, one rung per size.  Its
    K only sets the pass threshold, which is not printed here; giving it skips the
    calibration run."""
    grid = {"sizes": [64], "h": 1.0 / 64, "boundary": "periodic"}
    return {"name": name, "kind": "entropy-coupled", "sizes": sizes, "K": 1.0,
            "config": {"grid": grid, "components": 1, "potential": {"id": "cosh", "r_max": 1.0},
                       "system": "coupled", "t_end": 0.01, "cfl_sigma": 0.9,
                       "snapshot_every": 1, "initial": initial}}


offset = {"kind": "bands", "kmax": 3, "amplitude": 0.17, "offset": [0.8]}
with tempfile.TemporaryDirectory() as out:
    away, degenerate = run_suite({"name": "coupled-entropy", "seed": 3, "checks": [
        entropy_check("away", [64, 128], offset), entropy_check("degenerate", [64], init)]},
        Path(out))

print("== coupled entropy residual, data bounded away from zero")
for rung in away.values["per_size"]:
    print(f"   size {rung['size']:4d}: positive part {rung['max_pos']:.3e}, "
          f"|residual| scale {rung['max_abs']:.3e}")
print()

print("== the degenerate case: data crossing |u| = 0")
[rung] = degenerate.values["per_size"]
print(f"   positive part {rung['max_pos']:.3e} (order c|grad u|^2: the")
print("   Hessian of H degenerates at the origin, so no uniform dissipation")
print("   constant exists there; the radial entropy phi(|u|) covers this case)")
