import dataclasses
import inspect

import pelab

# Exports grow only on purpose: a name added to or dropped from `pelab`
# must be added to or dropped from this set in the same change.
PUBLIC = {
    "CheckReport", "ConstructionError", "ConvexityError", "CoupledCoefficients",
    "CoupledEntropyParams", "Cylinder", "DIRICHLET", "DomainAbort",
    "EllipticityWindow", "EntropyData", "FieldState", "GridSpec", "PERIODIC",
    "RadialPotential", "RangeExcursionError", "RunConfig", "Trajectory",
    "build_entropy", "builtin_ids", "certify_window", "cfl_dt", "choose_entropy_params",
    "config_hash", "cosh_potential", "coupled_decomposition",
    "from_piecewise_poly", "get_potential", "grad_Phi",
    "grad_Phi_field", "h_minus_one_norm", "hessian_Phi",
    "hessian_sq", "holder_seminorm", "initial_field",
    "quadratic", "quartic", "read_snapshot",
    "run", "smoothed_porous", "step_diffusion", "vector_norm",
    "with_resolution",
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
    "cfl_dt": ("grid", "Lam", "sigma"),
    "radial_slope": ("p", "r"),
    "initial_field": ("grid", "n_components", "spec", "seed"),
}
INTERNAL = {"cumulative_simpson", "invert_phi", "radial_slope"}   # of `pelab.potentials`


# The stencil kernels look up their own step plans on the grid: no caller passes one.
KERNELS = {
    "_laplacian": ("f", "grid", "work", "out"),
    "_gradient_sq": ("comps", "grid", "out", "work"),
    "_face_divergence": ("coef", "fields", "extra_coef", "extra_field", "grid", "scale",
                         "out", "flux", "tmp", "face"),
}


def test_parameter_lists_are_pinned():
    from pelab import grid, potentials

    for name, want in PARAMETERS.items():
        fn = getattr(potentials if name in INTERNAL else pelab, name)
        assert tuple(inspect.signature(fn).parameters) == want, name
    for name, want in KERNELS.items():
        assert tuple(inspect.signature(getattr(grid, name)).parameters) == want, name


# Removed second entry points of a kernel, fold, monitor, writer or norm: the program
# runs each through one path, and a twin that only tests call does not come back.  The
# Trajectory-form monitors replayed a stored run into the fold that a suite feeds as
# its run goes; the tests replay one with `grid._replay`.
REMOVED = {
    "grid": ("laplacian", "gradient_sq", "face_divergence", "cylinder_integrals",
             "cylinder_members", "write_snapshot"),
    "diagnostics": ("morrey_report", "calibrate_residual_constant", "_h_minus_one_norm",
                    "contraction_report", "sup_norm_report", "entropy_residual_diffusion",
                    "entropy_residual_coupled", "morrey_profile", "reverse_holder_report",
                    "estimate_ratio_report"),
}


def test_the_removed_twins_stay_removed():
    import importlib

    for module, names in REMOVED.items():
        mod = importlib.import_module(f"pelab.{module}")
        assert [n for n in names if hasattr(mod, n)] == [], module
        if module == "diagnostics":   # nor re-exported by the package
            assert [n for n in names if hasattr(pelab, n)] == []
    assert not hasattr(pelab.Trajectory, "snapshot_dt")
    assert not hasattr(pelab.diagnostics._ContractionFold(None), "mu")
    # H_z is formed from dH_profile and c where it is used, as `_coupled_fold` does
    assert "H_z" not in {f.name for f in dataclasses.fields(pelab.CoupledCoefficients)}


def test_the_demos_import_no_private_name_of_pelab():
    # a demo shows the product path: what the CLI and the public API offer
    import ast
    from pathlib import Path

    private = []
    for path in sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pelab":
                names = [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names if a.name.split(".")[0] == "pelab"]
            else:
                continue
            private += [f"{path.name}: {n}" for n in names
                        if any(part.startswith("_") for part in n.split("."))]
    assert private == []
