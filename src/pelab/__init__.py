"""pelab: a finite-difference laboratory for generalized diffusion systems.

Simulates u_t = Lap(grad Phi(u)) for radial strictly convex Phi and its
strongly coupled rewrite, constructs the associated scalar entropies, and
numerically checks the quantitative estimates the flow satisfies: H^-1
contraction, sup bounds, entropy subsolution residuals, Morrey decay,
reverse Hoelder stability and interior H^2 / L^4 estimate ratios.
"""

from .errors import (ConstructionError, ConvexityError, DomainAbort,
                     RangeExcursionError)
from .grid import (DIRICHLET, PERIODIC, Cylinder, FieldState, GridSpec,
                   Trajectory, cylinder_integrals, cylinder_members, gradient_sq,
                   hessian_sq, laplacian, read_snapshot, vector_norm,
                   write_snapshot)
from .potentials import (CoupledCoefficients, EllipticityWindow, EntropyData,
                         RadialPotential, build_entropy, builtin_ids,
                         certify_window, coupled_decomposition,
                         cosh_potential, from_piecewise_poly, get_potential,
                         grad_Phi, grad_Phi_field, hessian_Phi, invert_phi,
                         quadratic, quartic, radial_slope, smoothed_porous)
from .solver import (RunConfig, cfl_dt, cfl_dt_coupled, config_hash,
                     initial_field, run, step_coupled, step_diffusion,
                     step_scalar, with_resolution)
from .diagnostics import (CheckReport, CoupledEntropyParams,
                          calibrate_residual_constant, choose_entropy_params,
                          contraction_report, entropy_residual_coupled,
                          entropy_residual_diffusion, estimate_ratio_report,
                          h_minus_one_norm, holder_seminorm, l2_norm,
                          morrey_profile, morrey_report, reverse_holder_report,
                          sup_norm_report)

__version__ = "0.1.0"
