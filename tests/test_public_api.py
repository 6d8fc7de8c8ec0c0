import inspect

import pelab

# Exports grow only on purpose: a name added to or dropped from `pelab`
# must be added to or dropped from this set in the same change.
PUBLIC = {
    "CheckReport", "ConstructionError", "ConvexityError", "CoupledCoefficients",
    "CoupledEntropyParams", "Cylinder", "DIRICHLET", "DomainAbort",
    "EllipticityWindow", "EntropyData", "FieldState", "GridSpec", "PERIODIC",
    "RadialPotential", "RangeExcursionError", "RunConfig", "Trajectory",
    "build_entropy", "builtin_ids", "calibrate_residual_constant",
    "certify_window", "cfl_dt", "cfl_dt_coupled", "choose_entropy_params",
    "config_hash", "contraction_report", "cosh_potential",
    "coupled_decomposition", "cylinder_integrals", "cylinder_members",
    "entropy_residual_coupled", "entropy_residual_diffusion",
    "estimate_ratio_report", "from_piecewise_poly", "get_potential", "grad_Phi",
    "grad_Phi_field", "gradient_sq", "h_minus_one_norm", "hessian_Phi",
    "hessian_sq", "holder_seminorm", "initial_field", "invert_phi", "l2_norm",
    "laplacian", "morrey_profile", "morrey_report", "quadratic", "quartic",
    "radial_slope", "read_snapshot",
    "reverse_holder_report", "run", "smoothed_porous", "step_coupled",
    "step_diffusion", "step_scalar", "sup_norm_report", "vector_norm",
    "with_resolution", "write_snapshot",
}


def test_public_names_are_pinned():
    # submodules are attributes too, but which are loaded depends on import order
    names = {n for n, v in vars(pelab).items()
             if not n.startswith("_") and not inspect.ismodule(v)}
    assert names == PUBLIC


# Parameter lists pinned so that a knob that only ever took one value, or a
# second entry point of one concept, does not come back unnoticed.
PARAMETERS = {
    "build_entropy": ("p",),
    "coupled_decomposition": ("p",),
    "certify_window": ("p",),
    "invert_phi": ("p", "targets"),
    "cumulative_simpson": ("f", "x_max", "segments", "tol"),
    "holder_seminorm": ("snap", "alpha", "band"),
    "h_minus_one_norm": ("values", "grid"),
    "cylinder_integrals": ("traj", "terms", "field_at"),
}


def test_parameter_lists_are_pinned():
    from pelab.potentials import cumulative_simpson

    for name, want in PARAMETERS.items():
        fn = cumulative_simpson if name == "cumulative_simpson" else getattr(pelab, name)
        assert tuple(inspect.signature(fn).parameters) == want, name
