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
                   Trajectory, hessian_sq, read_snapshot, vector_norm)
from .potentials import (CoupledCoefficients, EllipticityWindow, EntropyData,
                         RadialPotential, build_entropy, builtin_ids,
                         certify_window, coupled_decomposition,
                         cosh_potential, from_piecewise_poly, get_potential,
                         grad_Phi, grad_Phi_field, hessian_Phi, quadratic,
                         quartic, smoothed_porous)
from .solver import (RunConfig, cfl_dt, config_hash, initial_field, run,
                     step_diffusion, with_resolution)
from .diagnostics import (CheckReport, CoupledEntropyParams, choose_entropy_params,
                          h_minus_one_norm, holder_seminorm)

__version__ = "0.1.0"
