"""Explicit time integration of the diffusion system and its coupled form.

`run` integrates two systems, two right-hand sides L(u, r) of one
forward-Euler loop body, u + dt * L(u, r), fed the norm field r = |u| that the
loop computes once per step: Lap(grad Phi(u)) for the diffusion system (for
N = 1, u_t = Lap(phi'(|u|) sgn u)) and `grid.face_divergence` (conservative
face fluxes with arithmetically averaged coefficients) for the coupled
rewrite.  `run` drives the body over plain arrays and validates a
`FieldState` only for a stored snapshot; `step_diffusion` and `step_coupled`
are one pass of it, and `step_scalar` (Lap(g(u)) for an increasing g) is kept
to test the scalar reduction of aligned data.  The coupled right-hand side
keeps one workspace per closure (built once by `run`, once per call of
`step_coupled`) for its face fluxes, directions and coefficient fields, so
its steps allocate only the new state.  Range excursions abort, never clamp;
clamping would silently invalidate every estimate checked downstream.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import RangeExcursionError
from .grid import (FieldState, GridSpec, Trajectory, _dist2, _face_divergence,
                   _laplacian, vector_norm)
from .potentials import (CoupledCoefficients, EllipticityWindow,
                         RadialPotential, certify_window, coupled_decomposition,
                         grad_Phi_field)

# L(u, r): the time derivative of u given u and its norm field r = |u|
RightHandSide = Callable[[np.ndarray, np.ndarray], np.ndarray]


def cfl_dt(grid: GridSpec, window: EllipticityWindow, sigma: float = 1.0) -> float:
    """Stable explicit step: sigma * h^2 / (2 n Lambda)."""
    if not (0.0 < sigma <= 1.0):
        raise ValueError(f"cfl safety factor must be in (0, 1], got {sigma}")
    return sigma * grid.h * grid.h / (2.0 * grid.n * window.Lam)


def cfl_dt_coupled(grid: GridSpec, cc: CoupledCoefficients, sigma: float = 1.0) -> float:
    """Coupled-step bound with sup(a + |c| |H_z|) as the effective diffusivity."""
    if not (0.0 < sigma <= 1.0):
        raise ValueError(f"cfl safety factor must be in (0, 1], got {sigma}")
    return sigma * grid.h * grid.h / (2.0 * grid.n * cc.bounds["eff_Lambda"])


def _abort_if_outside(r: np.ndarray, r_max: float, t: float,
                      step: int | None = None) -> None:
    worst = float(r.max())
    if worst > r_max * (1.0 + 1e-12):
        loc = tuple(int(i) for i in np.unravel_index(int(r.argmax()), r.shape))
        raise RangeExcursionError(
            f"|u| = {worst} exceeds r_max = {r_max} at {loc}, t = {t}",
            location=loc, t=t, step=step)


def _diffusion_rhs(p: RadialPotential, grid: GridSpec) -> RightHandSide:
    return lambda u, r: _laplacian(grad_Phi_field(p, u, r), grid)


def _scalar_rhs(g: Callable[[np.ndarray], np.ndarray], grid: GridSpec) -> RightHandSide:
    return lambda u, r: _laplacian(np.asarray(g(u[0]), dtype=float)[None], grid)


def _coupled_rhs(cc: CoupledCoefficients, grid: GridSpec) -> RightHandSide:
    """The coupled right-hand side over one workspace, made by its first call.

    The workspace holds the face fluxes and their differences (`flux`,
    `tmp`) and the directions c, each shaped like the state, and the face
    average, a(r) and H(r), each a scalar field; the H table borrows
    `flux[0]`, `tmp[0]`, `c[0]` and the face field as scratch before they
    are filled.  Every call rewrites all of it, so only the returned
    derivative, which becomes the new state, is allocated per step.  Each
    closure owns its workspace: one per run, never shared across threads.
    """
    ws = []

    def rhs(u, r):
        if not ws:
            ws.extend([np.empty_like(u) for _ in range(3)]
                      + [np.empty_like(r) for _ in range(3)])
        flux, tmp, c, face, a, H = ws
        cc.H_profile(r, out=H, work=(flux[0], tmp[0], c[0], face), a_out=a)
        cc.c(u, r, out=c)
        return _face_divergence(a, u, c, H, grid, np.zeros_like(u), flux, tmp, face)
    return rhs


def _euler(rhs: RightHandSide, u: np.ndarray, r: np.ndarray, t: float, dt: float,
           r_max: float, step: int | None = None) -> np.ndarray:
    """The loop body: range abort on r = |u|, u + dt L(u, r), one finiteness check."""
    _abort_if_outside(r, r_max, t, step)
    new = rhs(u, r)
    new *= dt
    new += u
    # u is finite, so non-finite values can only be born here
    if not np.isfinite(new).all():
        loc = tuple(int(i) for i in np.unravel_index(
            int((~np.isfinite(new)).argmax()), new.shape))
        raise RangeExcursionError(
            f"step produced a non-finite value at component {loc[0]}, point "
            f"{loc[1:]}, t = {t + dt}", location=loc[1:], t=t + dt, step=step)
    return new


def _step(state: FieldState, rhs: RightHandSide, dt: float, r_max: float) -> FieldState:
    new = _euler(rhs, state.values, vector_norm(state.values), state.t, dt, r_max)
    return FieldState(grid=state.grid, values=new, t=state.t + dt,
                      boundary_values=state.boundary_values)


def step_diffusion(state: FieldState, p: RadialPotential, dt: float) -> FieldState:
    """One forward-Euler step of u_t = Lap(grad Phi(u))."""
    return _step(state, _diffusion_rhs(p, state.grid), dt, p.r_max)


def step_scalar(state: FieldState, g: Callable[[np.ndarray], np.ndarray],
                dt: float, r_max: float = math.inf) -> FieldState:
    """One forward-Euler step of the scalar equation u_t = Lap(g(u))."""
    if state.n_components != 1:
        raise ValueError("the scalar step applies to single-component states")
    return _step(state, _scalar_rhs(g, state.grid), dt, r_max)


def step_coupled(state: FieldState, cc: CoupledCoefficients, dt: float) -> FieldState:
    """One conservative face-flux step of u_t = div(a grad u + c grad H(u))."""
    return _step(state, _coupled_rhs(cc, state.grid), dt, cc.r_max)


# ---------------------------------------------------------------------------
# initial data

def _unit_direction(direction, n_components: int) -> np.ndarray:
    if direction is None:
        d = np.zeros(n_components)
        d[0] = 1.0
        return d
    d = np.asarray(direction, dtype=float)
    if d.shape != (n_components,):
        raise ValueError(f"direction must have {n_components} entries")
    norm = float(np.sqrt(np.sum(d * d)))
    if norm == 0.0:
        raise ValueError("direction must be nonzero")
    return d / norm


def _mode_field(grid: GridSpec, k, phases) -> np.ndarray:
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


def _bump_field(grid: GridSpec, center, width: float) -> np.ndarray:
    return np.exp(-_dist2(grid, center) / (2.0 * width * width))


def initial_field(grid: GridSpec, n_components: int, spec: dict, seed: int) -> np.ndarray:
    """Named reproducible initial-data families.

    kinds: "mode" (separable sine), "bands" (seeded band-limited sum, sup-norm
    bounded by the amplitude independent of resolution), "bump" (radial
    Gaussian), "two_bump" (colliding pair), "constant".  Random draws depend
    only on the seed and the family parameters, never on the grid, so one seed
    denotes one continuum datum across resolutions.
    """
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
        d = _unit_direction(spec.get("direction"), n_components)
        f = _mode_field(grid, spec.get("k", [1] * grid.n),
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
                fields[c] += coeff * _mode_field(grid, [k + 1 for k in kidx], phases)
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
        d = _unit_direction(spec.get("direction"), n_components)
        center = spec.get("center", centers_default)
        width = float(spec.get("width", grid.extent(0) / 8.0))
        f = _bump_field(grid, center, width)
        return amp * d.reshape((n_components,) + (1,) * grid.n) * f[None]

    if kind == "two_bump":
        c1 = spec.get("center1", tuple(0.25 * grid.extent(a) for a in range(grid.n)))
        c2 = spec.get("center2", tuple(0.75 * grid.extent(a) for a in range(grid.n)))
        w = float(spec.get("width", grid.extent(0) / 10.0))
        d1 = _unit_direction(spec.get("direction1"), n_components)
        if n_components > 1 and "direction2" not in spec:
            d2 = np.zeros(n_components)
            d2[1] = 1.0
        else:
            d2 = _unit_direction(spec.get("direction2"), n_components)
        f1 = _bump_field(grid, c1, w)
        f2 = _bump_field(grid, c2, w)
        out = (d1.reshape((n_components,) + (1,) * grid.n) * f1[None]
               + d2.reshape((n_components,) + (1,) * grid.n) * f2[None])
        sup = float(vector_norm(out).max())
        return out * (amp / sup) if sup > 0 else out

    raise ValueError(f"unknown initial-data kind '{kind}'")


# ---------------------------------------------------------------------------
# run driver

@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one integration."""

    grid: GridSpec
    n_components: int
    potential: RadialPotential
    t_end: float
    system: str = "diffusion"            # diffusion | coupled
    cfl_sigma: float = 0.9
    snapshot_every: int = 1
    initial: dict = field(default_factory=lambda: {"kind": "mode"})
    seed: int = 0
    boundary_values: tuple[float, ...] | None = None
    dt_override: float | None = None
    name: str = "run"

    def __post_init__(self):
        if self.t_end < 0.0:
            raise ValueError("t_end must be nonnegative")
        if not (0.0 < self.cfl_sigma <= 1.0):
            raise ValueError("cfl_sigma must be in (0, 1]")
        if not (1 <= self.n_components <= 8):
            raise ValueError("between 1 and 8 components are supported")
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be at least 1")
        if self.system not in ("diffusion", "coupled"):
            raise ValueError(f"unknown system '{self.system}' (diffusion or coupled)")
        if not self.grid.periodic and self.boundary_values is None:
            object.__setattr__(self, "boundary_values", (0.0,) * self.n_components)

    def describe(self) -> dict:
        """Canonical JSON-able description; the content hash is taken over this."""
        return {
            "grid": {"sizes": list(self.grid.sizes), "h": self.grid.h,
                     "boundary": self.grid.boundary},
            "components": self.n_components,
            "potential": {"id": self.potential.id, "r_max": self.potential.r_max},
            "system": self.system,
            "t_end": self.t_end,
            "cfl_sigma": self.cfl_sigma,
            "snapshot_every": self.snapshot_every,
            "initial": self.initial,
            "seed": self.seed,
            "boundary_values": list(self.boundary_values) if self.boundary_values else None,
            "dt_override": self.dt_override,
            "name": self.name,
        }


def config_hash(document: dict) -> str:
    """Content hash of a canonicalized JSON document."""
    blob = json.dumps(document, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _plan_steps(t_end: float, dt_max: float, snapshot_every: int,
                dt_override: float | None) -> tuple[int, float]:
    if t_end == 0.0:
        return 0, dt_max
    if dt_override is not None:
        steps = round(t_end / dt_override)
        if steps < 1 or abs(steps * dt_override - t_end) > 1e-9 * t_end:
            raise ValueError("dt_override must divide t_end")
        if steps % snapshot_every:
            raise ValueError("snapshot_every must divide the step count")
        if dt_override > dt_max * (1.0 + 1e-12):
            raise ValueError(f"dt_override {dt_override} violates the CFL bound {dt_max}")
        return steps, dt_override
    raw = max(1, math.ceil(t_end / dt_max - 1e-12))
    steps = snapshot_every * math.ceil(raw / snapshot_every)
    return steps, t_end / steps


def run(config: RunConfig) -> Trajectory:
    """Integrate to t_end, storing a snapshot every `snapshot_every` steps.

    Deterministic given the seed; the manifest in `meta` records the potential,
    its certified window, dt and the content hash of the configuration.
    """
    p = config.potential
    window = certify_window(p)
    if config.system == "coupled":
        cc = coupled_decomposition(p)
        dt_max = cfl_dt_coupled(config.grid, cc, config.cfl_sigma)
        rhs = _coupled_rhs(cc, config.grid)
    else:
        dt_max = cfl_dt(config.grid, window, config.cfl_sigma)
        rhs = _diffusion_rhs(p, config.grid)
    steps, dt = _plan_steps(config.t_end, dt_max, config.snapshot_every,
                            config.dt_override)

    values = initial_field(config.grid, config.n_components, config.initial, config.seed)
    if not config.grid.periodic:
        bv = config.boundary_values
        ring = config.grid.boundary_mask
        for c in range(config.n_components):
            values[c][ring] = bv[c if len(bv) > 1 else 0]
    snaps = [FieldState(grid=config.grid, values=values, t=0.0,
                        boundary_values=config.boundary_values)]
    # plain arrays from here on; a FieldState is built only for a snapshot
    u, t = snaps[0].values, 0.0
    r = vector_norm(u)
    _abort_if_outside(r, p.r_max, t)
    for k in range(1, steps + 1):
        u = _euler(rhs, u, r, t, dt, p.r_max, step=k)
        t += dt
        r = vector_norm(u)
        if k % config.snapshot_every == 0:
            snaps.append(FieldState(grid=config.grid, values=u, t=t,
                                    boundary_values=config.boundary_values))
    _abort_if_outside(r, p.r_max, t, step=steps)

    doc = config.describe()
    meta = {
        "config": doc,
        "config_hash": config_hash(doc),
        "potential_id": p.id,
        "window": {"lam": window.lam, "Lam": window.Lam, "r_max": window.r_max},
        "dt": dt,
        "steps": steps,
        "snapshot_every": config.snapshot_every,
        "seed": config.seed,
        "system": config.system,
        "name": config.name,
    }
    return Trajectory(snapshots=tuple(snaps), dt=dt, meta=meta)


def with_resolution(config: RunConfig, size: int) -> RunConfig:
    """Same physical run with `size` points on axis 0 (every axis extent preserved).

    Each axis's cell count (points when periodic, intervals when Dirichlet) is
    scaled by the ratio that axis 0's takes; a ratio that leaves some axis a
    fractional count raises ValueError.
    """
    g = config.grid
    L = g.extent(0)
    h = L / size if g.periodic else L / (size - 1)
    shift = 0 if g.periodic else 1
    sizes = []
    for a, m in enumerate(g.sizes):
        cells, rem = divmod((m - shift) * (size - shift), g.sizes[0] - shift)
        if rem:
            raise ValueError(f"resolution {size} gives axis {a} a fractional "
                             f"count of points ({m} points at {g.sizes[0]} on axis 0)")
        sizes.append(cells + shift)
    grid = GridSpec(n=g.n, sizes=tuple(sizes), h=h, boundary=g.boundary)
    return replace(config, grid=grid)
