import inspect
import math
import re
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pelab import (DIRICHLET, PERIODIC, FieldState, GridSpec,
                   RangeExcursionError, RunConfig, cfl_dt, certify_window,
                   cosh_potential, coupled_decomposition, from_piecewise_poly,
                   get_potential,
                   initial_field, quadratic, run, step_diffusion,
                   vector_norm, with_resolution)
import pelab.grid as grid_module
import pelab.solver as solver
from pelab.grid import _dist2, _laplacian, _shift_plans
from pelab.potentials import EPS_ZERO, RadialPotential
from pelab.solver import _coupled_rhs, _diffusion_rhs, _euler, _plan_steps
from test_grid import fresh_face_divergence, reference_laplacian
from test_potentials import reference_radial_slope


def pgrid(size, n=1):
    return GridSpec(n=n, sizes=(size,) * n, h=1.0 / size, boundary=PERIODIC)


def coupled_step(state, cc, dt):
    """One coupled step, state in, state out: the loop body over a fresh workspace."""
    new = _euler(_coupled_rhs(cc, state.grid, state.values.shape), state.values,
                 vector_norm(state.values), state.t, dt, cc.r_max)
    return FieldState(grid=state.grid, values=new, t=state.t + dt,
                      boundary_values=state.boundary_values)


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


def reference_step_diffusion(state, p, dt, lap=reference_laplacian):
    reference_abort_if_outside(state, p.r_max)
    r = np.sqrt(np.sum(np.square(state.values), axis=0))
    g = np.where(r < EPS_ZERO, 0.0, reference_radial_slope(p, r))
    v = g[None] * state.values
    new = state.values + dt * np.stack(
        [lap(v[c], state.grid) for c in range(state.n_components)])
    return reference_finish_step(state, new, dt)


def ring_laplacian(f, grid):
    """The periodic roll Laplacian with the ring zeroed: the summation order of
    the one-path `_laplacian` on both boundary kinds, neighbour pair first."""
    out = -2.0 * grid.n * f
    for a in range(grid.n):
        out += np.roll(f, 1, axis=a) + np.roll(f, -1, axis=a)
    out /= grid.h * grid.h
    if not grid.periodic:
        out[grid.boundary_mask] = 0.0
    return out


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


def reference_run(config, lap=reference_laplacian):
    """Snapshots of the earlier `run` loop over the frozen steps."""
    p = config.potential
    if config.system == "coupled":
        cc = coupled_decomposition(p)
        dt_max = cfl_dt(config.grid, cc.bounds["eff_Lambda"], config.cfl_sigma)
    else:
        dt_max = cfl_dt(config.grid, certify_window(p).Lam, config.cfl_sigma)
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
        stepper = lambda s: reference_step_diffusion(s, p, dt, lap)
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
        assert cfl_dt(g, 2.0, 0.9) == pytest.approx(0.9 / (4 * 16384), rel=1e-14)

    def test_two_dimensional(self):
        g = GridSpec(n=2, sizes=(10, 10), h=0.1, boundary=PERIODIC)
        assert cfl_dt(g, 1.0, 1.0) == pytest.approx(0.0025, rel=1e-14)

    def test_doubling_Lambda_halves_dt(self):
        g = pgrid(64)
        assert cfl_dt(g, 1.0, 0.5) == pytest.approx(2 * cfl_dt(g, 2.0, 0.5), rel=1e-14)

    def test_coupled_effective_diffusivity_matches_window(self):
        # for the radial decomposition a + |c||H_z| = phi'' pointwise
        p = cosh_potential(1.0)
        g = pgrid(64)
        cc = coupled_decomposition(p)
        w = certify_window(p)
        assert cfl_dt(g, cc.bounds["eff_Lambda"], 0.9) == \
            pytest.approx(cfl_dt(g, w.Lam, 0.9), rel=1e-12)


class TestSteps:
    def test_constant_state_is_fixed_point(self):
        p = cosh_potential(1.0)
        g = pgrid(32)
        s = FieldState(grid=g, values=np.full((2, 32), 0.3), t=0.0)
        out = step_diffusion(s, p, 1e-5)
        assert np.array_equal(out.values, s.values)
        cc = coupled_decomposition(p)
        out2 = coupled_step(s, cc, 1e-5)
        assert np.abs(out2.values - s.values).max() < 1e-16

    def test_quadratic_step_equals_heat_stencil(self):
        # independent plain heat stencil as oracle
        p = quadratic(2.0)
        g = pgrid(64)
        x = g.coords(0)
        u = (0.5 * np.sin(2 * np.pi * x))[None]
        dt = cfl_dt(g, certify_window(p).Lam, 0.9)
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
        got = coupled_step(s, coupled_decomposition(quadratic()), dt)
        ref = np.stack([u[c] + dt * _laplacian(u[c], g) for c in range(2)])
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
        got = coupled_step(s, coupled_decomposition(quadratic()), dt)
        ref = np.stack([u[c] + dt * _laplacian(u[c], g) for c in range(2)])
        assert np.abs(got.values - ref).max() < 1e-15

    def test_aligned_data_reduces_to_scalar(self):
        # u = U e evolves as e times the scalar flow with nonlinearity phi'
        p = cosh_potential(1.5)
        g = pgrid(128)
        e = np.array([0.6, 0.8]) / math.hypot(0.6, 0.8)
        U = 0.6 + initial_field(g, 1, {"kind": "bands", "kmax": 3, "amplitude": 0.3}, 5)
        vec = FieldState(grid=g, values=np.stack([U[0] * e[0], U[0] * e[1]]), t=0.0)
        sca = FieldState(grid=g, values=U.copy(), t=0.0)
        dt = cfl_dt(g, certify_window(p).Lam, 0.9)
        for _ in range(200):
            vec = step_diffusion(vec, p, dt)
            sca = reference_step_scalar(sca, p.phi1, dt, r_max=p.r_max)
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
        # the scalar flow u_t = Lap(phi'(u)) is the one-component diffusion step;
        # that step forms phi'(|u|) u/|u|, not phi'(u), so it agrees to rounding
        p, state = parity_state(pid, boundary, sizes, 1)
        dt = cfl_dt(state.grid, certify_window(p).Lam, 0.9)
        new = old = state
        for _ in range(6):
            new = step_diffusion(new, p, dt)
            old = reference_step_scalar(old, p.phi1, dt, r_max=p.r_max)
            assert new.t == old.t
            assert np.abs(new.values - old.values).max() <= 1e-13 * np.abs(old.values).max()
        assert np.abs(new.values - state.values).max() > 0.0

    def test_nan_production_aborts(self):
        # an absurd dt overflows the update into non-finite territory
        g = pgrid(32)
        u = initial_field(g, 1, {"kind": "mode", "amplitude": 1.0}, 0)
        rhs = lambda u, r: _laplacian(u * 1e150, g)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RangeExcursionError, match="non-finite"):
                for _ in range(400):
                    u = _euler(rhs, u, vector_norm(u), 0.0, 1e3, math.inf)


class TestInitialData:
    def test_bands_are_resolution_independent(self):
        spec = {"kind": "bands", "kmax": 3, "amplitude": 0.5}
        coarse = initial_field(pgrid(64), 2, spec, 9)
        fine = initial_field(pgrid(128), 2, spec, 9)
        assert np.array_equal(coarse, fine[:, ::2])

    def test_bands_sup_bounded_by_amplitude(self):
        for seed in (1, 2, 3):
            u = initial_field(pgrid(64, n=2), 3,
                              {"kind": "bands", "kmax": 2, "amplitude": 0.4}, seed)
            assert vector_norm(u).max() <= 0.4 + 1e-12

    def test_offset_bands(self):
        u = initial_field(pgrid(64), 1, {"kind": "bands", "kmax": 2,
                                         "amplitude": 0.1,
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


# A frozen copy of `initial_field` as it was when it read each family's keys
# through `spec.get` in one if-chain: the oracle that the family functions must
# reproduce bit for bit.

def frozen_unit_direction(direction, n_components: int) -> np.ndarray:
    if direction is None:
        return np.eye(n_components)[0]
    d = np.asarray(direction, dtype=float)
    if d.shape != (n_components,):
        raise ValueError(f"direction must have {n_components} entries")
    norm = float(np.sqrt(np.sum(d * d)))
    if norm == 0.0:
        raise ValueError("direction must be nonzero")
    return d / norm


def frozen_mode_field(grid: GridSpec, k, phases) -> np.ndarray:
    """Separable sine: one wavenumber (or one for all axes) and one phase per axis."""
    ks = [int(v) for v in (k if hasattr(k, "__len__") else [k] * grid.n)]
    if len(ks) != grid.n:
        raise ValueError("one wavenumber per axis required")
    f = np.ones(grid.sizes)
    for a in range(grid.n):
        x = grid.coords(a).reshape([-1 if b == a else 1 for b in range(grid.n)])
        L = grid.extent(a)
        if grid.periodic:
            f = f * np.sin(2.0 * np.pi * ks[a] * x / L + phases[a])
        else:
            if ks[a] < 1:
                raise ValueError("Dirichlet modes need wavenumbers >= 1")
            f = f * np.sin(np.pi * ks[a] * x / L)
    return f


def frozen_bump_field(grid: GridSpec, center, width: float) -> np.ndarray:
    return np.exp(-_dist2(grid, center) / (2.0 * width * width))


def frozen_initial_field(grid: GridSpec, n_components: int, spec: dict, seed: int) -> np.ndarray:
    kind = spec.get("kind", "mode")
    amp = float(spec.get("amplitude", 0.5))
    rng = np.random.default_rng(seed)
    centers_default = tuple(0.5 * grid.extent(a) for a in range(grid.n))

    if kind == "constant":
        vals = np.asarray(spec.get("value", [amp] * n_components), dtype=float)
        if vals.shape != (n_components,):
            raise ValueError(f"constant value must have {n_components} entries")
        return np.broadcast_to(vals.reshape((n_components,) + (1,) * grid.n),
                               (n_components, *grid.sizes)).copy()

    if kind == "mode":
        d = frozen_unit_direction(spec.get("direction"), n_components)
        f = frozen_mode_field(grid, spec.get("k", [1] * grid.n),
                              [float(spec.get("phase", 0.0))] * grid.n)
        return amp * d.reshape((n_components,) + (1,) * grid.n) * f[None]

    if kind == "bands":
        kmax = int(spec.get("kmax", 3))
        if kmax < 1:
            raise ValueError("kmax must be at least 1")
        modes = [tuple(idx) for idx in np.ndindex(*([kmax] * grid.n))]
        fields = np.zeros((n_components, *grid.sizes))
        l1 = np.zeros(n_components)
        for c in range(n_components):
            for kidx in modes:
                coeff = float(rng.standard_normal())
                phases = rng.uniform(0.0, 2.0 * np.pi, size=grid.n)
                fields[c] += coeff * frozen_mode_field(grid, [k + 1 for k in kidx], phases)
                l1[c] += abs(coeff)
        scale = amp / math.sqrt(float(np.sum(l1 * l1)))
        fields *= scale
        offset = spec.get("offset")
        if offset is not None:
            off = np.asarray(offset, dtype=float)
            if off.shape != (n_components,):
                raise ValueError(f"offset must have {n_components} entries")
            fields += off.reshape((n_components,) + (1,) * grid.n)
        return fields

    if kind == "bump":
        d = frozen_unit_direction(spec.get("direction"), n_components)
        center = spec.get("center", centers_default)
        width = float(spec.get("width", grid.extent(0) / 8.0))
        f = frozen_bump_field(grid, center, width)
        return amp * d.reshape((n_components,) + (1,) * grid.n) * f[None]

    if kind == "two_bump":
        c1 = spec.get("center1", tuple(0.25 * grid.extent(a) for a in range(grid.n)))
        c2 = spec.get("center2", tuple(0.75 * grid.extent(a) for a in range(grid.n)))
        w = float(spec.get("width", grid.extent(0) / 10.0))
        d1 = frozen_unit_direction(spec.get("direction1"), n_components)
        d2 = (np.eye(n_components)[1] if n_components > 1 and "direction2" not in spec
              else frozen_unit_direction(spec.get("direction2"), n_components))
        f1 = frozen_bump_field(grid, c1, w)
        f2 = frozen_bump_field(grid, c2, w)
        out = (d1.reshape((n_components,) + (1,) * grid.n) * f1[None]
               + d2.reshape((n_components,) + (1,) * grid.n) * f2[None])
        sup = float(vector_norm(out).max())
        return out * (amp / sup) if sup > 0 else out

    raise ValueError(f"unknown initial-data kind '{kind}'")


def parity_grid(n, boundary):
    sizes = [(16,), (8, 6), (6, 5, 4)][n - 1]
    if boundary == DIRICHLET:
        sizes = tuple(m + 1 for m in sizes)
    return GridSpec(n=n, sizes=sizes, h=1.0 / sizes[0], boundary=boundary)


def parity_specs(family, n, nc):
    """The family's defaults, then explicit keys, for a grid of n axes and nc components."""
    direction, other = [1.0, -2.0, 0.5][:nc], [0.3, 0.4, -1.0][:nc]
    return {
        "constant": [{"kind": "constant"},
                     {"kind": "constant", "amplitude": 0.3, "value": other}],
        "mode": [{}, {"kind": "mode"}, {"kind": "mode", "k": 2},
                 {"kind": "mode", "k": [a + 1 for a in range(n)], "phase": 0.3,
                  "amplitude": 0.7, "direction": direction}],
        "bands": [{"kind": "bands"},
                  {"kind": "bands", "kmax": 2, "amplitude": 0.4, "offset": other}],
        "bump": [{"kind": "bump"},
                 {"kind": "bump", "amplitude": 0.8, "width": 0.1, "center": [0.3] * n,
                  "direction": direction}],
        "two_bump": [{"kind": "two_bump"},
                     {"kind": "two_bump", "amplitude": 0.6, "width": 0.15,
                      "center1": [0.2] * n, "center2": [0.6] * n, "direction1": other,
                      "direction2": direction}],
    }[family]


class TestInitialFamilyParity:
    """Each family returns the frozen `initial_field`'s array bit for bit: 1D, 2D
    and 3D grids, both boundary kinds, N = 1..3, two seeds, defaults and explicit keys."""

    @pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("family", sorted(solver._FAMILIES))
    def test_bitwise_equal_to_the_frozen_initial_field(self, family, n, boundary):
        g = parity_grid(n, boundary)
        cases = 0
        for nc in (1, 2, 3):
            for seed in (0, 11):
                for spec in parity_specs(family, n, nc):
                    got = initial_field(g, nc, spec, seed)
                    want = frozen_initial_field(g, nc, spec, seed)
                    assert got.shape == want.shape == (nc, *g.sizes)
                    assert np.array_equal(got.view(np.int64), want.view(np.int64)), spec
                    cases += 1
        assert cases >= 12

    def test_the_matrix_covers_every_key_of_every_family(self):
        for family, fn in solver._FAMILIES.items():
            keys = {k for spec in parity_specs(family, 2, 2) for k in spec} - {"kind"}
            declared = {p.name for p in inspect.signature(fn).parameters.values()
                        if p.kind is p.KEYWORD_ONLY}
            assert keys == declared, family

    def test_the_readme_table_lists_each_familys_keys_and_defaults(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        for family, fn in solver._FAMILIES.items():
            [row] = re.findall(rf"^  \| `{family}` \| (.*) \|$", readme, re.M)
            listed = dict(re.findall(r"`(\w+)` \(([^,:)]+)", row))
            declared = {p.name: p.default for p in inspect.signature(fn).parameters.values()
                        if p.kind is p.KEYWORD_ONLY}
            assert list(listed) == list(declared), family
            for key, default in declared.items():
                assert listed[key] == ("none" if default is None else repr(default)), key

    @pytest.mark.parametrize("family", sorted(solver._FAMILIES))
    def test_an_unknown_key_is_refused(self, family):
        with pytest.raises(TypeError, match="'seed'"):
            initial_field(pgrid(8), 1, {"kind": family, "seed": 3}, 3)


class TestRun:
    def base(self, size=64, **kw):
        args = dict(grid=pgrid(size), n_components=1, potential=cosh_potential(1.0),
                    t_end=0.005, cfl_sigma=0.9, snapshot_every=4,
                    initial={"kind": "bands", "kmax": 3, "amplitude": 0.5},
                    seed=7)
        args.update(kw)
        return RunConfig(**args)

    def test_zero_time_gives_single_snapshot(self):
        traj = run(self.base(t_end=0.0))
        assert len(traj.snapshots) == 1
        assert traj.snapshots[0].t == 0.0

    @pytest.mark.parametrize("system, boundary", [("diffusion", PERIODIC),
                                                  ("coupled", DIRICHLET)])
    def test_an_observer_sees_every_snapshot_and_run_keeps_the_final(self, system,
                                                                      boundary):
        cfg = self.base(system=system, grid=GridSpec(n=1, sizes=(65,), h=1 / 64,
                                                     boundary=boundary))
        stored, seen = run(cfg), []
        streamed = run(cfg, seen.append)
        assert [s.t for s in seen] == stored.times.tolist() and seen[0].t == 0.0
        assert all(np.array_equal(a.values, b.values) for a, b in zip(seen, stored.snapshots))
        assert streamed.snapshots == (seen[-1],)
        assert streamed.dt == stored.dt and streamed.meta == stored.meta

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
                                          "amplitude": 0.4}))
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
        init = {"kind": "bands", "kmax": 3, "amplitude": 0.5}
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
        u0 = initial_field(g, 2, {"kind": "bands", "kmax": 3, "amplitude": 0.5}, 9)
        dt = cfl_dt(g, certify_window(p).Lam, 0.9)
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

    @pytest.mark.parametrize("boundary, size", [(PERIODIC, 0), (DIRICHLET, 0), (DIRICHLET, 1),
                                                (PERIODIC, -3)])
    def test_a_size_with_no_cells_is_named_before_any_division(self, boundary, size):
        # it divided the extent by zero cells (ZeroDivisionError) before it was refused
        grid = GridSpec(n=1, sizes=(65,), h=1.0 / 64, boundary=boundary)
        with pytest.raises(ValueError, match=rf"^resolution {size} leaves axis 0 no cells$"):
            with_resolution(self.base(grid=grid), size)

    def test_snapshot_count_and_spacing(self):
        traj = run(self.base(t_end=0.005, snapshot_every=4))
        steps = traj.meta["steps"]
        assert steps % 4 == 0
        assert len(traj.snapshots) == steps // 4 + 1
        assert np.diff(traj.times) == pytest.approx(4 * traj.dt, rel=1e-12)
        assert traj.times[-1] == pytest.approx(0.005, rel=1e-12)

    def test_two_dimensional_run(self):
        cfg = RunConfig(grid=pgrid(32, n=2), n_components=2,
                        potential=cosh_potential(1.0), t_end=0.002,
                        cfl_sigma=0.9, snapshot_every=4,
                        initial={"kind": "bands", "kmax": 2, "amplitude": 0.5}, seed=6)
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
        dt = cfl_dt(state.grid, cc.bounds["eff_Lambda"], 0.9)
        new = old = state
        for _ in range(25):
            new, old = coupled_step(new, cc, dt), reference_step_coupled(old, cc, dt)
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
        got = fresh_face_divergence(a, u, c, H, g)
        assert np.array_equal(got, reference_face_divergence(a, u, c, H, g))
        # the extra=None path used by the coupled entropy residual
        got = fresh_face_divergence(a, H[None], None, None, g)
        assert np.array_equal(got, reference_face_divergence(a, H[None], None, None, g))
        if not g.periodic:
            assert np.all(got[:, g.boundary_mask] == 0.0)

    def test_quadratic_coupled_step_is_bit_identical(self):
        _, state = parity_state("cosh", PERIODIC, (20, 12), 2)
        cc = coupled_decomposition(quadratic())
        got = coupled_step(state, cc, 1e-5)
        assert np.array_equal(got.values, reference_step_coupled(state, cc, 1e-5).values)

    def test_range_witness_is_unchanged(self):
        p, state = parity_state("cosh", PERIODIC, (16, 16), 2)
        u = state.values.copy()
        u[:, 5, 9] = 0.9
        bad = FieldState(grid=state.grid, values=u, t=0.25)
        cc = coupled_decomposition(p)
        errors = []
        for step in (coupled_step, reference_step_coupled):
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
        dt = cfl_dt(pgrid(32), certify_window(p).Lam, 0.9)   # the run's own CFL step
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
        rhs = _coupled_rhs(cc, state.grid, state.values.shape)
        dt = cfl_dt(state.grid, cc.bounds["eff_Lambda"], 0.9)
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
            state = coupled_step(state, coupled_decomposition(cfg.potential), dt)
        assert np.array_equal(state.values, first.snapshots[1].values)


def table_quartic():
    # phi = r^2/2 + r^4/4 on [0, 1] as a one-piece table
    return from_piecewise_poly([0.0, 1.0], [[0.25, 0.0, 0.5, 0.0, 0.0]], pid="table-quartic")


class TestDiffusionWorkspace:
    """One workspace per diffusion right-hand side: grad Phi(u), the neighbour
    sum, the slope field and one mask, reused by every step of its run."""

    @pytest.mark.parametrize("pid", ["quadratic", "cosh", "quartic", "porous", "table"])
    @pytest.mark.parametrize("boundary,sizes,nc", [
        (PERIODIC, (64,), 1), (DIRICHLET, (33,), 3), (PERIODIC, (24, 16), 2),
        (DIRICHLET, (17, 17), 2), (PERIODIC, (12, 8, 10), 2), (DIRICHLET, (9, 13, 11), 1)])
    def test_run_is_bitwise_the_frozen_loop(self, pid, boundary, sizes, nc):
        cfg = parity_config("diffusion", "quartic" if pid == "table" else pid,
                            boundary, sizes, nc)
        if pid == "table":
            cfg = replace(cfg, potential=table_quartic())
        # periodic: the frozen roll loop itself; Dirichlet: the same loop with
        # the neighbour pair summed first, the order of the parent's stencil
        ref = reference_run(cfg, reference_laplacian if boundary == PERIODIC
                            else ring_laplacian)
        traj = run(cfg)
        assert len(traj.snapshots) == len(ref) >= 4
        for got, old in zip(traj.snapshots, ref):
            assert got.t == old.t
            assert np.array_equal(got.values, old.values)
        assert np.abs(traj.final.values - traj.snapshots[0].values).max() > 0.0

    def test_warm_step_allocates_little_more_than_the_new_state(self):
        p, state = parity_state("cosh", PERIODIC, (64, 64), 2)
        rhs = _diffusion_rhs(p, state.grid, state.values.shape)
        dt = cfl_dt(state.grid, certify_window(p).Lam, 0.9)
        u = _euler(rhs, state.values, vector_norm(state.values), 0.0, dt, p.r_max)
        r = vector_norm(u)
        tracemalloc.start()
        try:
            new = _euler(rhs, u, r, dt, dt, p.r_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the new state, phi'(r) (half a state here) and the finiteness mask;
        # the step before the workspace peaked at 3.04 states
        assert peak <= 1.5 * u.nbytes
        ref = reference_step_diffusion(FieldState(grid=state.grid, values=u, t=dt), p, dt)
        assert np.array_equal(new, ref.values)

    @pytest.mark.parametrize("system", ["diffusion", "coupled"])
    def test_the_workspace_is_made_with_the_right_hand_side(self, system):
        # the first call allocates about what a warm one does (phi'(r), masks),
        # where building the workspace in it took 4.6 and 6.6 states
        p, state = parity_state("cosh", PERIODIC, (64, 64), 2)
        shape = state.values.shape
        rhs = (_diffusion_rhs(p, state.grid, shape) if system == "diffusion"
               else _coupled_rhs(coupled_decomposition(p), state.grid, shape))
        r = vector_norm(state.values)
        tracemalloc.start()
        try:
            L = rhs(state.values, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * state.values.nbytes and L.shape == shape

    def test_concurrent_runs_match_sequential_runs(self):
        configs = [parity_config("diffusion", "cosh", PERIODIC, (96, 80), 2),
                   parity_config("diffusion", "quartic", DIRICHLET, (65, 49), 3, seed=7)]
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

    @pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
    def test_no_runtime_warning_where_u_vanishes(self, boundary):
        g = pgrid(32) if boundary == PERIODIC else GridSpec(
            n=1, sizes=(33,), h=1.0 / 32, boundary=DIRICHLET)
        cfg = RunConfig(grid=g, n_components=2, potential=cosh_potential(), t_end=0.002,
                        initial={"kind": "mode", "k": [1], "amplitude": 0.5}, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(divide="raise", invalid="raise"):
                traj = run(cfg)
        # sin(0) = 0 on the first point, and the Dirichlet ring holds 0 throughout
        assert vector_norm(traj.snapshots[0].values)[0] == 0.0
        if boundary == DIRICHLET:
            assert vector_norm(traj.final.values)[0] == 0.0


def tamper(monkeypatch, system, value, at_call=5, where=(1, 7)):
    """Make the run's right-hand side write `value` at `where` on its `at_call`-th call."""
    name = "_coupled_rhs" if system == "coupled" else "_diffusion_rhs"
    make = getattr(solver, name)

    def factory(coefficients, grid, shape):
        rhs, calls = make(coefficients, grid, shape), []

        def tampered(u, r):
            L = rhs(u, r)
            calls.append(None)
            if len(calls) == at_call:
                L[where] = value
            return L
        return tampered
    monkeypatch.setattr(solver, name, factory)


class TestStepAborts:
    """One reduction per step serves both aborts, and each raises the error of
    the earlier loop: class, message, location, t and step."""

    @pytest.mark.parametrize("system, witness", [
        ("diffusion", ("|u| = 1.0171272198485186 exceeds r_max = 1.0 at (27,), "
                       "t = 0.0010218978102189782", (27,), 0.0010218978102189782, 15)),
        ("coupled", ("|u| = 1.0137644467496127 exceeds r_max = 1.0 at (28,), "
                     "t = 0.004342629482071713", (28,), 0.004342629482071713, 110)),
    ])
    def test_range_excursion_is_pinned(self, system, witness):
        cfg = RunConfig(grid=pgrid(32), n_components=1, potential=unstable_potential(),
                        t_end=0.01, system=system, snapshot_every=1,
                        initial={"kind": "bands", "kmax": 3, "amplitude": 0.05,
                                 "offset": [0.9]}, seed=2)
        with pytest.raises(RangeExcursionError) as exc:
            run(cfg)
        e = exc.value
        assert type(e) is RangeExcursionError
        assert (str(e), e.location, e.t, e.step) == witness

    @pytest.mark.parametrize("system", ["diffusion", "coupled"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_aborts_at_the_step_that_made_it(self, monkeypatch, system,
                                                              value):
        tamper(monkeypatch, system, value)
        p = cosh_potential()
        dt = 0.5 * cfl_dt(pgrid(32), certify_window(p).Lam, 0.9)
        cfg = RunConfig(grid=pgrid(32), n_components=2, potential=p, t_end=10 * dt,
                        dt_override=dt, system=system, snapshot_every=1,
                        initial={"kind": "bands", "kmax": 3, "amplitude": 0.5}, seed=3)
        with pytest.raises(RangeExcursionError) as exc:
            run(cfg)
        t = 0.0
        for _ in range(5):   # the loop's own accumulation of the time
            t += dt
        e = exc.value
        assert type(e) is RangeExcursionError
        assert str(e) == f"step produced a non-finite value at component 1, point (7,), t = {t}"
        assert (e.location, e.t, e.step) == ((7,), t, 5)

    def test_a_single_step_checks_its_input_and_not_its_range_after(self):
        # step_diffusion refuses a state outside the range, but returns a step
        # that leaves it (the anti-diffusing control relies on no check after)
        p, g = cosh_potential(), pgrid(32)
        u = np.full((1, 32), 0.99)
        u[0, 5] = 0.5
        new = step_diffusion(FieldState(grid=g, values=u, t=0.0), p, -1e-3)
        assert vector_norm(new.values).max() > p.r_max
        with pytest.raises(RangeExcursionError, match="exceeds r_max") as exc:
            step_diffusion(new, p, 1e-6)
        assert exc.value.step is None and exc.value.t == -1e-3


# (sizes, components): the smallest legal axis, 4 points, beside larger ones,
# so that each plan case runs: the first plane (backward differences), the
# last plane (forward differences) and both (the Laplacian's neighbour sum)
SMALL_AXES = [((4,), 1), ((4,), 2), ((4, 6), 2), ((7, 4), 1), ((4, 4, 4), 2), ((5, 4, 6), 1)]


class TestStepPlans:
    """Plans made once per run leave every snapshot bitwise the frozen loop's."""

    @pytest.mark.parametrize("system", ["diffusion", "coupled"])
    @pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
    @pytest.mark.parametrize("sizes, nc", SMALL_AXES + [((64,), 1), ((17, 17), 2)])
    def test_run_is_bitwise_the_frozen_loop(self, system, boundary, sizes, nc):
        cfg = parity_config(system, "cosh", boundary, sizes, nc)
        lap = reference_laplacian if boundary == PERIODIC else ring_laplacian
        traj, ref = run(cfg), reference_run(cfg, lap)
        assert len(traj.snapshots) == len(ref) >= 3
        for got, old in zip(traj.snapshots, ref):
            assert got.t == old.t
            assert np.array_equal(got.values, old.values)
        assert np.abs(traj.final.values - traj.snapshots[0].values).max() > 0.0

    @pytest.mark.parametrize("system, pairs", [("diffusion", ((-1, 1),)),
                                               ("coupled", ((1, 0), (0, -1)))])
    def test_plans_are_made_once_per_run(self, monkeypatch, system, pairs):
        made = []
        counted = lambda *args: made.append(args[1:]) or _shift_plans(*args)
        for module in (grid_module, solver):
            monkeypatch.setattr(module, "_shift_plans", counted)
        traj = run(parity_config(system, "cosh", DIRICHLET, (9, 13, 11), 2))
        assert traj.meta["steps"] > 1
        # the Laplacian's neighbour sum, or the face divergence's forward and
        # backward differences, for the whole run
        assert made == [pairs]
