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

import numpy as np

from pelab import (GridSpec, RunConfig, choose_entropy_params, cosh_potential,
                   coupled_decomposition, entropy_residual_coupled, run)

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

print("== coupled entropy residual, data bounded away from zero")
offset = {"kind": "bands", "kmax": 3, "amplitude": 0.17, "offset": [0.8]}
for size in (64, 128):
    traj = make(size, "coupled", offset)
    rep = entropy_residual_coupled(traj, cc, pars.s, pars.c)
    print(f"   size {size:4d}: positive part {rep.values['max_pos']:.3e}, "
          f"|residual| scale {rep.values['max_abs']:.3e}")
print()

print("== the degenerate case: data crossing |u| = 0")
traj = make(64, "coupled", init)
rep = entropy_residual_coupled(traj, cc, pars.s, pars.c)
print(f"   positive part {rep.values['max_pos']:.3e} (order c|grad u|^2: the")
print("   Hessian of H degenerates at the origin, so no uniform dissipation")
print("   constant exists there; the radial entropy phi(|u|) covers this case)")
