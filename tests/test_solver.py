import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from pelab import (DIRICHLET, PERIODIC, FieldState, GridSpec,
                   RangeExcursionError, RunConfig, cfl_dt, cfl_dt_coupled,
                   certify_window, cosh_potential, coupled_decomposition,
                   get_potential, initial_field, laplacian, quadratic, run,
                   step_coupled, step_diffusion, step_scalar, vector_norm,
                   with_resolution)
from pelab.grid import face_divergence
from pelab.potentials import EPS_ZERO, EllipticityWindow, RadialPotential
from pelab.solver import _coupled_rhs, _euler, _plan_steps
from test_grid import reference_laplacian
from test_potentials import reference_radial_slope


def pgrid(size, n=1):
    return GridSpec(n=n, sizes=(size,) * n, h=1.0 / size, boundary=PERIODIC)


# Frozen copies of the earlier roll-based face divergence and coupled step:
# the oracle that the one-pass versions must reproduce bit for bit.

def reference_face_divergence(scalar_coef, fields, extra_coef, extra_field, grid):
    h = grid.h
    out = np.zeros_like(fields)
    if grid.periodic:
        for a in range(grid.n):
            du = (np.roll(fields, -1, axis=a + 1) - fields) / h
            af = 0.5 * (scalar_coef + np.roll(scalar_coef, -1, axis=a))
            flux = af[None] * du
            if extra_field is not None:
                dH = (np.roll(extra_field, -1, axis=a) - extra_field) / h
                cf = 0.5 * (extra_coef + np.roll(extra_coef, -1, axis=a + 1))
                flux = flux + cf * dH[None]
            out += (flux - np.roll(flux, 1, axis=a + 1)) / h
        return out
    core = tuple(slice(1, -1) for _ in range(grid.n))
    acc = np.zeros_like(fields[(slice(None), *core)])
    for a in range(grid.n):
        lo = list(core)
        hi = list(core)
        lo[a] = slice(0, -1)
        hi[a] = slice(1, None)
        lo, hi = tuple(lo), tuple(hi)
        du = (fields[(slice(None), *hi)] - fields[(slice(None), *lo)]) / h
        af = 0.5 * (scalar_coef[hi] + scalar_coef[lo])
        flux = af[None] * du
        if extra_field is not None:
            dH = (extra_field[hi] - extra_field[lo]) / h
            cf = 0.5 * (extra_coef[(slice(None), *hi)] + extra_coef[(slice(None), *lo)])
            flux = flux + cf * dH[None]
        right = [slice(None)] * (grid.n + 1)
        left = [slice(None)] * (grid.n + 1)
        right[a + 1] = slice(1, None)
        left[a + 1] = slice(0, -1)
        acc += (flux[tuple(right)] - flux[tuple(left)]) / h
    out[(slice(None), *core)] = acc
    return out


# Frozen copy of the earlier per-system steps and time loop: every step
# validates its input range and builds a checked FieldState, and `run`
# stamps the step number on a range abort.

def reference_abort_if_outside(state, r_max):
    r = vector_norm(state.values)
    worst = float(r.max())
    if worst > r_max * (1.0 + 1e-12):
        loc = tuple(int(i) for i in np.unravel_index(int(r.argmax()), state.grid.sizes))
        raise RangeExcursionError(
            f"|u| = {worst} exceeds r_max = {r_max} at {loc}, t = {state.t}",
            location=loc, t=state.t)


def reference_finish_step(state, new, dt):
    if not np.isfinite(new).all():
        bad = ~np.isfinite(new)
        loc = tuple(int(i) for i in np.unravel_index(int(bad.argmax()), new.shape))
        raise RangeExcursionError(
            f"step produced a non-finite value at component {loc[0]}, point "
            f"{loc[1:]}, t = {state.t + dt}", location=loc[1:], t=state.t + dt)
    return FieldState(grid=state.grid, values=new, t=state.t + dt,
                      boundary_values=state.boundary_values)


def reference_step_diffusion(state, p, dt):
    reference_abort_if_outside(state, p.r_max)
    r = np.sqrt(np.sum(np.square(state.values), axis=0))
    g = np.where(r < EPS_ZERO, 0.0, reference_radial_slope(p, r))
    v = g[None] * state.values
    new = state.values + dt * np.stack(
        [reference_laplacian(v[c], state.grid) for c in range(state.n_components)])
    return reference_finish_step(state, new, dt)


def reference_step_scalar(state, g, dt, r_max=math.inf):
    if math.isfinite(r_max):
        reference_abort_if_outside(state, r_max)
    v = np.asarray(g(state.values[0]), dtype=float)
    new = state.values + dt * reference_laplacian(v, state.grid)[None]
    return reference_finish_step(state, new, dt)


def reference_step_coupled(state, cc, dt):
    reference_abort_if_outside(state, cc.r_max)
    r = vector_norm(state.values)
    a_field = np.asarray(cc.a(r), dtype=float) + np.zeros_like(r)
    h_field = np.asarray(cc.H_profile(r), dtype=float) + np.zeros_like(r)
    c_field = np.asarray(cc.c(state.values), dtype=float)
    div = reference_face_divergence(a_field, state.values, c_field, h_field, state.grid)
    new = state.values + dt * div
    return reference_finish_step(state, new, dt)


def reference_run(config):
    """Snapshots of the earlier `run` loop over the frozen steps."""
    p = config.potential
    if config.system == "coupled":
        cc = coupled_decomposition(p)
        dt_max = cfl_dt_coupled(config.grid, cc, config.cfl_sigma)
    else:
        dt_max = cfl_dt(config.grid, certify_window(p), config.cfl_sigma)
    steps, dt = _plan_steps(config.t_end, dt_max, config.snapshot_every,
                            config.dt_override)
    values = initial_field(config.grid, config.n_components, config.initial, config.seed)
    if not config.grid.periodic:
        bv = config.boundary_values
        for c in range(config.n_components):
            values[c][config.grid.boundary_mask] = bv[c if len(bv) > 1 else 0]
    state = FieldState(grid=config.grid, values=values, t=0.0,
                       boundary_values=config.boundary_values)
    reference_abort_if_outside(state, p.r_max)
    if config.system == "coupled":
        stepper = lambda s: reference_step_coupled(s, cc, dt)
    else:
        stepper = lambda s: reference_step_diffusion(s, p, dt)
    snaps = [state]
    for k in range(steps):
        try:
            state = stepper(state)
        except RangeExcursionError as exc:
            exc.step = k + 1
            raise
        if (k + 1) % config.snapshot_every == 0:
            snaps.append(state)
    reference_abort_if_outside(state, p.r_max)
    return snaps


# (potential, boundary, sizes, components): 1D, 2D and 3D, both boundary
# kinds, cubes and anisotropic boxes
PARITY_CASES = [
    ("cosh", PERIODIC, (64,), 1),
    ("quartic", DIRICHLET, (33,), 3),
    ("porous", PERIODIC, (24, 16), 2),
    ("cosh", DIRICHLET, (17, 17), 2),
    ("quartic", PERIODIC, (12, 8, 10), 2),
    ("porous", DIRICHLET, (9, 13, 11), 1),
]


def parity_state(pid, boundary, sizes, nc, seed=4):
    p = get_potential(pid)
    n = len(sizes)
    h = 1.0 / sizes[0] if boundary == PERIODIC else 1.0 / (sizes[0] - 1)
    g = GridSpec(n=n, sizes=sizes, h=h, boundary=boundary)
    u = initial_field(g, nc, {"kind": "bands", "kmax": 3, "amplitude": 0.6 * p.r_max,
                              "offset": [0.05] * nc}, seed)
    bv = None
    if boundary == DIRICHLET:
        bv = tuple(0.1 * (c + 1) for c in range(nc))
        for c in range(nc):
            u[c][g.boundary_mask] = bv[c]
    return p, FieldState(grid=g, values=u, t=0.0, boundary_values=bv)


class TestCflDt:
    def test_worked_example(self):
        g = GridSpec(n=1, sizes=(128,), h=1.0 / 128, boundary=PERIODIC)
        w = EllipticityWindow(lam=1.0, Lam=2.0, r_max=1.0, samples=2, spacing=1.0)
        assert cfl_dt(g, w, 0.9) == pytest.approx(0.9 / (4 * 16384), rel=1e-14)

    def test_two_dimensional(self):
        g = GridSpec(n=2, sizes=(10, 10), h=0.1, boundary=PERIODIC)
        w = EllipticityWindow(lam=1.0, Lam=1.0, r_max=1.0, samples=2, spacing=1.0)
        assert cfl_dt(g, w, 1.0) == pytest.approx(0.0025, rel=1e-14)

    def test_doubling_Lambda_halves_dt(self):
        g = pgrid(64)
        w1 = EllipticityWindow(lam=1.0, Lam=1.0, r_max=1.0, samples=2, spacing=1.0)
        w2 = EllipticityWindow(lam=1.0, Lam=2.0, r_max=1.0, samples=2, spacing=1.0)
        assert cfl_dt(g, w1, 0.5) == pytest.approx(2 * cfl_dt(g, w2, 0.5), rel=1e-14)

    def test_coupled_effective_diffusivity_matches_window(self):
        # for the radial decomposition a + |c||H_z| = phi'' pointwise
        p = cosh_potential(1.0)
        g = pgrid(64)
        cc = coupled_decomposition(p)
        w = certify_window(p)
        assert cfl_dt_coupled(g, cc, 0.9) == pytest.approx(cfl_dt(g, w, 0.9), rel=1e-12)


class TestSteps:
    def test_constant_state_is_fixed_point(self):
        p = cosh_potential(1.0)
        g = pgrid(32)
        s = FieldState(grid=g, values=np.full((2, 32), 0.3), t=0.0)
        out = step_diffusion(s, p, 1e-5)
        assert np.array_equal(out.values, s.values)
        cc = coupled_decomposition(p)
        out2 = step_coupled(s, cc, 1e-5)
        assert np.abs(out2.values - s.values).max() < 1e-16

    def test_quadratic_step_equals_heat_stencil(self):
        # independent plain heat stencil as oracle
        p = quadratic(2.0)
        g = pgrid(64)
        x = g.coords(0)
        u = (0.5 * np.sin(2 * np.pi * x))[None]
        dt = cfl_dt(g, certify_window(p), 0.9)
        got = step_diffusion(FieldState(grid=g, values=u, t=0.0), p, dt)
        ref = u[0] + dt * (np.roll(u[0], 1) - 2 * u[0] + np.roll(u[0], -1)) / g.h ** 2
        assert np.abs(got.values[0] - ref).max() < 1e-15

    def test_quadratic_coupled_step_is_componentwise_heat(self):
        # a = I, H = 0: the face fluxes telescope to the central stencil exactly
        rng = np.random.default_rng(0)
        g = pgrid(32)
        u = 0.2 * rng.standard_normal((2, 32))
        s = FieldState(grid=g, values=u, t=0.0)
        dt = 1e-5
        got = step_coupled(s, coupled_decomposition(quadratic()), dt)
        ref = np.stack([u[c] + dt * laplacian(u[c], g) for c in range(2)])
        assert np.abs(got.values - ref).max() < 1e-14

    @pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
    def test_quadratic_coupled_step_two_dimensional(self, boundary):
        rng = np.random.default_rng(8)
        size = 12
        h = 1.0 / size if boundary == PERIODIC else 1.0 / (size - 1)
        g = GridSpec(n=2, sizes=(size, size), h=h, boundary=boundary)
        u = 0.2 * rng.standard_normal((2, size, size))
        bv = None
        if boundary == DIRICHLET:
            ring = g.boundary_mask
            u[0][ring], u[1][ring] = 0.1, -0.2
            bv = (0.1, -0.2)
        s = FieldState(grid=g, values=u, t=0.0, boundary_values=bv)
        dt = 1e-5
        got = step_coupled(s, coupled_decomposition(quadratic()), dt)
        ref = np.stack([u[c] + dt * laplacian(u[c], g) for c in range(2)])
        assert np.abs(got.values - ref).max() < 1e-15

    def test_scalar_identity_is_heat(self):
        g = pgrid(32)
        rng = np.random.default_rng(1)
        u = 0.3 * rng.standard_normal((1, 32))
        s = FieldState(grid=g, values=u, t=0.0)
        dt = 1e-5
        got = step_scalar(s, lambda v: v, dt)
        ref = u[0] + dt * laplacian(u[0], g)
        assert np.abs(got.values[0] - ref).max() < 1e-16

    def test_aligned_data_reduces_to_scalar(self):
        # u = U e evolves as e times the scalar flow with nonlinearity phi'
        p = cosh_potential(1.5)
        g = pgrid(128)
        e = np.array([0.6, 0.8]) / math.hypot(0.6, 0.8)
        U = 0.6 + initial_field(g, 1, {"kind": "bands", "kmax": 3, "amplitude": 0.3,
                                       "seed": 5}, 5)
        vec = FieldState(grid=g, values=np.stack([U[0] * e[0], U[0] * e[1]]), t=0.0)
        sca = FieldState(grid=g, values=U.copy(), t=0.0)
        dt = cfl_dt(g, certify_window(p), 0.9)
        for _ in range(200):
            vec = step_diffusion(vec, p, dt)
            sca = step_scalar(sca, p.phi1, dt, r_max=p.r_max)
        ref = np.stack([sca.values[0] * e[0], sca.values[0] * e[1]])
        assert np.abs(vec.values - ref).max() <= 1e-13

    def test_range_excursion_aborts_with_location(self):
        p = cosh_potential(1.0)
        g = pgrid(32)
        u = np.full((1, 32), 0.2)
        u[0, 7] = 1.5
        with pytest.raises(RangeExcursionError, match=r"\(7,\)") as exc:
            step_diffusion(FieldState(grid=g, values=u, t=0.0), p, 1e-5)
        assert exc.value.location == (7,)

    @pytest.mark.parametrize("pid,boundary,sizes,nc", PARITY_CASES)
    def test_step_scalar_matches_the_frozen_step(self, pid, boundary, sizes, nc):
        # the reduction's scalar step, no longer reachable through `run`
        p, state = parity_state(pid, boundary, sizes, 1)
        dt = cfl_dt(state.grid, certify_window(p), 0.9)
        new = old = state
        for _ in range(6):
            new = step_scalar(new, p.phi1, dt, r_max=p.r_max)
            old = reference_step_scalar(old, p.phi1, dt, r_max=p.r_max)
            assert new.t == old.t
            if boundary == PERIODIC:
                assert np.array_equal(new.values, old.values)
            else:  # only the Dirichlet Laplacian changed its summation order
                assert np.abs(new.values - old.values).max() <= 1e-13 * np.abs(old.values).max()
        assert np.abs(new.values - state.values).max() > 0.0

    def test_nan_production_aborts(self):
        # an absurd dt overflows the update into non-finite territory
        p = quadratic(1e160)
        g = pgrid(32)
        u = initial_field(g, 1, {"kind": "mode", "amplitude": 1.0}, 0)
        s = FieldState(grid=g, values=u, t=0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RangeExcursionError, match="non-finite"):
                for _ in range(400):
                    s = step_scalar(s, lambda v: v * 1e150, 1e3)


class TestInitialData:
    def test_bands_are_resolution_independent(self):
        spec = {"kind": "bands", "kmax": 3, "amplitude": 0.5, "seed": 9}
        coarse = initial_field(pgrid(64), 2, spec, 9)
        fine = initial_field(pgrid(128), 2, spec, 9)
        assert np.array_equal(coarse, fine[:, ::2])

    def test_bands_sup_bounded_by_amplitude(self):
        for seed in (1, 2, 3):
            u = initial_field(pgrid(64, n=2), 3,
                              {"kind": "bands", "kmax": 2, "amplitude": 0.4,
                               "seed": seed}, seed)
            assert vector_norm(u).max() <= 0.4 + 1e-12

    def test_offset_bands(self):
        u = initial_field(pgrid(64), 1, {"kind": "bands", "kmax": 2,
                                         "amplitude": 0.1, "seed": 1,
                                         "offset": [0.8]}, 1)
        assert 0.7 <= np.abs(u).min() and np.abs(u).max() <= 0.9 + 1e-12

    def test_mode_hits_amplitude_on_grid(self):
        u = initial_field(pgrid(128), 1, {"kind": "mode", "k": [1],
                                          "amplitude": 1.0}, 0)
        assert u.max() == 1.0  # sin hits +1 exactly at a grid point for size 128

    def test_two_bump_direction_split(self):
        u = initial_field(pgrid(64), 2, {"kind": "two_bump", "amplitude": 0.5}, 0)
        assert vector_norm(u).max() == pytest.approx(0.5, rel=1e-12)
        assert u[0].max() > 0.2 and u[1].max() > 0.2

    def test_dirichlet_mode_vanishes_on_boundary(self):
        g = GridSpec(n=1, sizes=(65,), h=1.0 / 64, boundary=DIRICHLET)
        u = initial_field(g, 1, {"kind": "mode", "k": [1], "amplitude": 0.5}, 0)
        assert abs(u[0, 0]) < 1e-15 and abs(u[0, -1]) < 1e-12

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown initial-data kind"):
            initial_field(pgrid(8), 1, {"kind": "wavelet"}, 0)


class TestRun:
    def base(self, size=64, **kw):
        args = dict(grid=pgrid(size), n_components=1, potential=cosh_potential(1.0),
                    t_end=0.005, cfl_sigma=0.9, snapshot_every=4,
                    initial={"kind": "bands", "kmax": 3, "amplitude": 0.5, "seed": 7},
                    seed=7)
        args.update(kw)
        return RunConfig(**args)

    def test_zero_time_gives_single_snapshot(self):
        traj = run(self.base(t_end=0.0))
        assert len(traj.snapshots) == 1
        assert traj.snapshots[0].t == 0.0

    def test_heat_mode_decay_oracle(self):
        cfg = self.base(size=128, potential=quadratic(2.0), t_end=0.01,
                        snapshot_every=8,
                        initial={"kind": "mode", "k": [1], "amplitude": 1.0})
        traj = run(cfg)
        g = traj.grid
        s = np.sin(2 * np.pi * g.coords(0))
        amp = float(traj.final.values[0] @ s / (s @ s))
        lam_h = -(4.0 / g.h ** 2) * np.sin(np.pi * g.h) ** 2
        assert amp == pytest.approx((1 + traj.dt * lam_h) ** traj.meta["steps"], abs=1e-12)
        assert amp == pytest.approx(math.exp(-4 * math.pi ** 2 * 0.01), rel=0.01)

    @pytest.mark.parametrize("system", ["diffusion", "coupled"])
    def test_deterministic_repetition_is_bit_identical(self, system):
        a, b = run(self.base(system=system)), run(self.base(system=system))
        assert a.meta["config_hash"] == b.meta["config_hash"]
        for sa, sb in zip(a.snapshots, b.snapshots):
            assert np.array_equal(sa.values, sb.values)

    def test_mean_conservation(self):
        for system in ("diffusion", "coupled"):
            traj = run(self.base(system=system, n_components=2, t_end=0.01,
                                 initial={"kind": "bands", "kmax": 2,
                                          "amplitude": 0.4, "seed": 3}))
            m0 = traj.snapshots[0].values.mean(axis=1)
            mT = traj.final.values.mean(axis=1)
            assert np.abs(mT - m0).max() <= 1e-13, system

    def test_sup_norm_non_increasing(self):
        traj = run(self.base(n_components=2, t_end=0.01))
        sups = [vector_norm(s.values).max() for s in traj.snapshots]
        assert all(b <= a + 1e-10 for a, b in zip(sups, sups[1:]))

    def test_initial_range_certified(self):
        cfg = self.base(initial={"kind": "mode", "amplitude": 1.2})
        with pytest.raises(RangeExcursionError, match="r_max"):
            run(cfg)

    def test_coupled_diffusion_consistency_refines(self):
        errs = []
        init = {"kind": "bands", "kmax": 3, "amplitude": 0.5, "seed": 3}
        for size in (128, 256):
            td = run(self.base(size=size, t_end=0.01, snapshot_every=1,
                               initial=init, seed=3))
            tc = run(self.base(size=size, t_end=0.01, snapshot_every=1,
                               initial=init, seed=3, system="coupled"))
            assert td.dt == tc.dt
            errs.append(np.abs(td.final.values - tc.final.values).max())
        assert errs[0] / errs[1] >= 3.5

    def test_self_convergence_second_order(self):
        def terminal(size):
            return run(self.base(size=size, t_end=0.01, snapshot_every=1)).final.values

        ref = terminal(256)
        err32 = np.abs(terminal(32) - ref[:, ::8]).max()
        err64 = np.abs(terminal(64) - ref[:, ::4]).max()
        assert err32 / err64 >= 3.5

    def test_rotational_equivariance(self):
        th = 0.7234
        R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        p = cosh_potential(1.0)
        g = pgrid(64)
        u0 = initial_field(g, 2, {"kind": "bands", "kmax": 3, "amplitude": 0.5,
                                  "seed": 9}, 9)
        dt = cfl_dt(g, certify_window(p), 0.9)
        sa = FieldState(grid=g, values=u0, t=0.0)
        sb = FieldState(grid=g, values=np.einsum("ij,j...->i...", R, u0), t=0.0)
        for _ in range(150):
            sa = step_diffusion(sa, p, dt)
            sb = step_diffusion(sb, p, dt)
            diff = np.abs(np.einsum("ij,j...->i...", R, sa.values) - sb.values).max()
            assert diff <= 1e-10

    def test_dirichlet_run_keeps_boundary(self):
        g = GridSpec(n=1, sizes=(65,), h=1.0 / 64, boundary=DIRICHLET)
        cfg = RunConfig(grid=g, n_components=1, potential=cosh_potential(1.0),
                        t_end=0.005, snapshot_every=5,
                        initial={"kind": "mode", "k": [1], "amplitude": 0.5}, seed=0)
        traj = run(cfg)
        for s in traj.snapshots:
            assert s.values[0, 0] == 0.0 and s.values[0, -1] == 0.0

    @pytest.mark.parametrize("n_components", [1, 2])
    def test_scalar_system_is_rejected(self, n_components):
        with pytest.raises(ValueError, match="unknown system 'scalar' "
                                             r"\(diffusion or coupled\)"):
            self.base(system="scalar", n_components=n_components)

    def test_single_component_diffusion_is_odd_for_a_table_potential(self):
        # for N = 1 the diffusion system is u_t = Lap(phi'(|u|) sgn u): odd data
        # stay odd, also for a table potential defined on r >= 0 only
        from pelab import from_piecewise_poly
        table = from_piecewise_poly([0.0, 2.0], [[0.5, 0.0, 0.0]], r_max=2.0)
        traj = run(self.base(potential=table, t_end=0.01,
                             initial={"kind": "mode", "k": [1], "amplitude": 0.5}))
        u = traj.final.values[0]
        assert u.max() == pytest.approx(0.3367, abs=1e-4)
        assert u.min() == -u.max()

    def test_dt_override_validation(self):
        with pytest.raises(ValueError, match="divide"):
            run(self.base(t_end=0.005, dt_override=0.0049999))
        with pytest.raises(ValueError, match="CFL"):
            run(self.base(t_end=0.005, dt_override=0.0025, snapshot_every=1))

    def test_with_resolution_preserves_extent(self):
        cfg = self.base(size=64)
        fine = with_resolution(cfg, 128)
        assert fine.grid.sizes == (128,)
        assert fine.grid.extent(0) == pytest.approx(cfg.grid.extent(0), rel=1e-15)
        for grid, size, sizes in (
                (GridSpec(n=2, sizes=(64, 32), h=1.0 / 64, boundary=PERIODIC), 128, (128, 64)),
                (GridSpec(n=2, sizes=(65, 33), h=1.0 / 64, boundary=DIRICHLET), 129, (129, 65))):
            fine = with_resolution(self.base(grid=grid), size)
            assert fine.grid.sizes == sizes
            for a in range(2):
                assert fine.grid.extent(a) == pytest.approx(grid.extent(a), rel=1e-15)
        box = GridSpec(n=2, sizes=(64, 30), h=1.0 / 64, boundary=PERIODIC)
        with pytest.raises(ValueError, match="fractional"):
            with_resolution(self.base(grid=box), 80)

    def test_snapshot_count_and_spacing(self):
        traj = run(self.base(t_end=0.005, snapshot_every=4))
        steps = traj.meta["steps"]
        assert steps % 4 == 0
        assert len(traj.snapshots) == steps // 4 + 1
        assert traj.snapshot_dt == pytest.approx(4 * traj.dt, rel=1e-12)
        assert traj.times[-1] == pytest.approx(0.005, rel=1e-12)

    def test_two_dimensional_run(self):
        cfg = RunConfig(grid=pgrid(32, n=2), n_components=2,
                        potential=cosh_potential(1.0), t_end=0.002,
                        cfl_sigma=0.9, snapshot_every=4,
                        initial={"kind": "bands", "kmax": 2, "amplitude": 0.5,
                                 "seed": 6}, seed=6)
        traj = run(cfg)
        sups = [vector_norm(s.values).max() for s in traj.snapshots]
        assert all(b <= a + 1e-10 for a, b in zip(sups, sups[1:]))
        m0 = traj.snapshots[0].values.mean(axis=(1, 2))
        mT = traj.final.values.mean(axis=(1, 2))
        assert np.abs(mT - m0).max() <= 1e-13

    def test_three_dimensional_heat_mode(self):
        g = pgrid(8, n=3)
        cfg = RunConfig(grid=g, n_components=1, potential=quadratic(2.0),
                        t_end=0.001, cfl_sigma=0.9, snapshot_every=1,
                        initial={"kind": "mode", "k": [1, 1, 1],
                                 "amplitude": 0.5}, seed=0)
        traj = run(cfg)
        # separable product mode: eigenvalue is the sum over the three axes
        lam_h = -3 * (4.0 / g.h ** 2) * math.sin(math.pi * g.h) ** 2
        factor = (1 + traj.dt * lam_h) ** traj.meta["steps"]
        u0 = traj.snapshots[0].values
        assert np.abs(traj.final.values - factor * u0).max() < 1e-12


class TestCoupledParity:
    """The one-pass coupled step reproduces the roll-based step bit for bit."""

    @pytest.mark.parametrize("pid,boundary,sizes,nc", PARITY_CASES)
    def test_multi_step_runs_are_bit_identical(self, pid, boundary, sizes, nc):
        p, state = parity_state(pid, boundary, sizes, nc)
        cc = coupled_decomposition(p)
        dt = cfl_dt_coupled(state.grid, cc, 0.9)
        new = old = state
        for _ in range(25):
            new, old = step_coupled(new, cc, dt), reference_step_coupled(old, cc, dt)
            assert np.array_equal(new.values, old.values)
        assert np.abs(new.values - state.values).max() > 0.0

    @pytest.mark.parametrize("pid,boundary,sizes,nc", PARITY_CASES)
    def test_face_divergence_matches_on_random_coefficients(self, pid, boundary, sizes, nc):
        _, state = parity_state(pid, boundary, sizes, nc)
        rng = np.random.default_rng(sum(sizes))
        g, u = state.grid, state.values
        a = rng.uniform(0.5, 2.0, g.sizes)
        c = rng.standard_normal(u.shape)
        H = rng.standard_normal(g.sizes)
        got = face_divergence(a, u, c, H, g)
        assert np.array_equal(got, reference_face_divergence(a, u, c, H, g))
        # the extra=None path used by the coupled entropy residual
        got = face_divergence(a, H[None], None, None, g)
        assert np.array_equal(got, reference_face_divergence(a, H[None], None, None, g))
        if not g.periodic:
            assert np.all(got[:, g.boundary_mask] == 0.0)

    def test_quadratic_coupled_step_is_bit_identical(self):
        _, state = parity_state("cosh", PERIODIC, (20, 12), 2)
        cc = coupled_decomposition(quadratic())
        got = step_coupled(state, cc, 1e-5)
        assert np.array_equal(got.values, reference_step_coupled(state, cc, 1e-5).values)

    def test_range_witness_is_unchanged(self):
        p, state = parity_state("cosh", PERIODIC, (16, 16), 2)
        u = state.values.copy()
        u[:, 5, 9] = 0.9
        bad = FieldState(grid=state.grid, values=u, t=0.25)
        cc = coupled_decomposition(p)
        errors = []
        for step in (step_coupled, reference_step_coupled):
            with pytest.raises(RangeExcursionError) as exc:
                step(bad, cc, 1e-6)
            errors.append((str(exc.value), exc.value.location, exc.value.t))
        assert errors[0] == errors[1]
        assert errors[0][1] == (5, 9)


def parity_config(system, pid, boundary, sizes, nc, seed=5):
    p = get_potential(pid)
    h = 1.0 / sizes[0] if boundary == PERIODIC else 1.0 / (sizes[0] - 1)
    g = GridSpec(n=len(sizes), sizes=sizes, h=h, boundary=boundary)
    bv = None if boundary == PERIODIC else tuple(0.1 * (c + 1) for c in range(nc))
    return RunConfig(grid=g, n_components=nc, potential=p, t_end=6.0 * h * h,
                     system=system, snapshot_every=3, boundary_values=bv,
                     initial={"kind": "bands", "kmax": 3, "amplitude": 0.6 * p.r_max,
                              "offset": [0.05] * nc}, seed=seed)


def unstable_potential():
    # phi'' = 1 understates (r + 5 r^3)' = 1 + 15 r^2, so the certified CFL
    # step is unstable where |u| is large
    return RadialPotential(phi=lambda r: 0.5 * np.square(r) + 1.25 * np.square(r) ** 2,
                           phi1=lambda r: np.asarray(r, dtype=float) + 5.0 * np.asarray(r, dtype=float) ** 3,
                           phi2=lambda r: np.ones_like(np.asarray(r, dtype=float)),
                           r_max=1.0, id="understated")


class TestRunParity:
    """`run` over plain arrays reproduces the earlier per-step FieldState loop."""

    @pytest.mark.parametrize("system", ["diffusion", "coupled"])
    @pytest.mark.parametrize("pid,boundary,sizes,nc", PARITY_CASES)
    def test_snapshots_match_the_frozen_loop(self, system, pid, boundary, sizes, nc):
        cfg = parity_config(system, pid, boundary, sizes, nc)
        traj, ref = run(cfg), reference_run(cfg)
        assert len(traj.snapshots) == len(ref) >= 4
        for got, old in zip(traj.snapshots, ref):
            assert got.t == old.t
            assert got.boundary_values == old.boundary_values
            if boundary == PERIODIC or system == "coupled":
                assert np.array_equal(got.values, old.values)
            else:  # only the Dirichlet Laplacian changed its summation order
                assert np.abs(got.values - old.values).max() <= 1e-13 * np.abs(old.values).max()
        assert np.abs(traj.final.values - traj.snapshots[0].values).max() > 0.0

    def test_coupled_run_at_the_benchmarked_shape(self):
        # 256^2 with N = 2, the coupled run of the verify-2d benchmark: the
        # size at which every temporary of the frozen step came from fresh
        # pages, and the workspace is reused across several steps
        cfg = parity_config("coupled", "cosh", PERIODIC, (256, 256), 2)
        cfg = replace(cfg, t_end=cfg.t_end / 6)
        traj, ref = run(cfg), reference_run(cfg)
        assert traj.meta["steps"] >= 6 and len(traj.snapshots) == len(ref)
        for got, old in zip(traj.snapshots, ref):
            assert got.t == old.t
            assert np.array_equal(got.values, old.values)
        assert np.abs(traj.final.values - traj.snapshots[0].values).max() > 0.0

    def test_one_field_state_per_snapshot(self, monkeypatch):
        built = []
        post_init = FieldState.__post_init__
        monkeypatch.setattr(FieldState, "__post_init__",
                            lambda self: (built.append(self.t), post_init(self))[1])
        for system in ("diffusion", "coupled"):
            built.clear()
            traj = run(parity_config(system, "cosh", DIRICHLET, (17, 17), 2))
            assert traj.meta["steps"] > len(traj.snapshots) - 1
            assert len(built) == len(traj.snapshots)

    @pytest.mark.parametrize("system", ["diffusion", "coupled"])
    def test_mid_run_abort_witness_is_unchanged(self, system):
        # rounding noise on a near-constant state near r_max grows ~3x a step
        cfg = RunConfig(grid=pgrid(32), n_components=1, potential=unstable_potential(),
                        t_end=0.01, system=system, snapshot_every=1,
                        initial={"kind": "bands", "kmax": 3, "amplitude": 0.05,
                                 "offset": [0.9]}, seed=2)
        witnesses = []
        for integrate in (run, reference_run):
            with pytest.raises(RangeExcursionError) as exc:
                integrate(cfg)
            e = exc.value
            witnesses.append((str(e), e.location, e.t, e.step))
        assert witnesses[0] == witnesses[1]
        message, location, t, step = witnesses[0]
        assert "exceeds r_max" in message
        assert step is not None and 1 < step
        assert t > 0.0 and len(location) == 1

    def test_excursion_after_the_last_step_stamps_the_step_count(self):
        # the state after 14 steps leaves the range: a 14-step run catches it in
        # the end-of-run check (the last step taken), a 15-step run in the
        # check before step 15 (the step refused)
        p = unstable_potential()
        dt = cfl_dt(pgrid(32), certify_window(p), 0.9)   # the run's own CFL step
        witnesses = []
        for steps in (14, 15):
            cfg = RunConfig(grid=pgrid(32), n_components=1, potential=p,
                            t_end=steps * dt, dt_override=dt, system="diffusion",
                            initial={"kind": "bands", "kmax": 3, "amplitude": 0.05,
                                     "offset": [0.9]}, seed=2)
            with pytest.raises(RangeExcursionError, match="exceeds r_max") as exc:
                run(cfg)
            witnesses.append((exc.value.location, exc.value.step))
        assert witnesses == [((27,), 14), ((27,), 15)]

    def test_non_finite_slope_is_a_range_excursion(self):
        p = RadialPotential(phi=lambda r: 0.5 * np.square(r),
                            phi1=lambda r: np.where(np.asarray(r) > 0.3, np.nan, r),
                            phi2=lambda r: np.ones_like(np.asarray(r, dtype=float)),
                            r_max=1.0, id="nan-slope")
        u = np.full((1, 32), 0.5)
        s = FieldState(grid=pgrid(32), values=u, t=0.0)
        with pytest.raises(RangeExcursionError, match="non-finite") as exc:
            step_diffusion(s, p, 1e-5)
        assert exc.value.location == (0,) and exc.value.t == 1e-5


def assert_same_snapshots(a, b):
    assert len(a.snapshots) == len(b.snapshots)
    for x, y in zip(a.snapshots, b.snapshots):
        assert x.t == y.t
        assert np.array_equal(x.values, y.values)


class TestCoupledWorkspace:
    """One workspace per coupled right-hand side: reused by its steps, owned by its run."""

    def test_warm_step_allocates_less_than_three_states(self):
        p, state = parity_state("cosh", PERIODIC, (64, 64), 2)
        cc = coupled_decomposition(p)
        rhs, dt = _coupled_rhs(cc, state.grid), cfl_dt_coupled(state.grid, cc, 0.9)
        u = _euler(rhs, state.values, vector_norm(state.values), 0.0, dt, cc.r_max)
        r = vector_norm(u)
        tracemalloc.start()
        try:
            new = _euler(rhs, u, r, dt, dt, cc.r_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the new state, phi'(r) and numpy's own iteration buffers; the
        # one-pass step before the workspace peaked at 8.5 states
        assert peak <= 3 * u.nbytes
        ref = reference_step_coupled(FieldState(grid=state.grid, values=u, t=dt), cc, dt)
        assert np.array_equal(new, ref.values)

    def test_concurrent_runs_match_sequential_runs(self):
        # two different configs at once, then each config twice at once
        configs = [parity_config("coupled", "cosh", PERIODIC, (96, 80), 2),
                   parity_config("coupled", "quartic", DIRICHLET, (65, 49), 3, seed=7)]
        sequential = [run(cfg) for cfg in configs]
        order = [0, 1, 0, 0, 1, 1]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)   # switch threads often, so steps interleave
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                concurrent = list(pool.map(run, [configs[k] for k in order]))
        finally:
            sys.setswitchinterval(interval)
        for got, k in zip(concurrent, order):
            assert_same_snapshots(got, sequential[k])

    def test_rerun_in_one_process_is_bit_identical(self):
        cfg = parity_config("coupled", "porous", PERIODIC, (24, 16), 2)
        first = run(cfg)
        assert_same_snapshots(run(cfg), first)
        # a fresh single step from the same state reproduces the run's step
        dt = first.dt
        state = first.snapshots[0]
        for _ in range(cfg.snapshot_every):
            state = step_coupled(state, coupled_decomposition(cfg.potential), dt)
        assert np.array_equal(state.values, first.snapshots[1].values)
