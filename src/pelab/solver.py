"""Explicit time integration of the diffusion system and its coupled form.

`run` integrates two systems, two right-hand sides L(u, r) of one
forward-Euler loop body, u + dt * L(u, r): Lap(grad Phi(u)) for the
diffusion system (for N = 1, u_t = Lap(phi'(|u|) sgn u)) and
`grid._face_divergence` (conservative face fluxes with arithmetically
averaged coefficients) for the coupled rewrite.  The body then computes the
new norm field r = |u| once; its maximum is the step's one reduction, and
one test of it serves both aborts (range and finiteness).  One CFL bound
serves both systems, given the effective diffusivity.

There is one time loop, `_lockstep`: it steps a stack (N, B, *sizes) of the
states of B runs that share one planned step, the component axis first, so
that every kernel takes the stack as it takes one state (a scalar field is
(B, *sizes) and broadcasts over the components; the step plans count planes
from the last axis).  Each member's snapshots are its solo run's bit for
bit, and a range abort names the member's run.  `run` is its one-member
case.  The loop drives the body over plain arrays and validates a
`FieldState` of each member's slice only for a stored snapshot; an observer
receives each stored snapshot as it is made.  `step_diffusion` is one pass
of the body on a stack of one, state in, state out.  Each right-hand side is
made for one dt, which it carries as `dt`, and one stack shape, returns dt L
(the diffusion one scales its Laplacian, the coupled one a and H, once a
step) and builds its workspace when made, with its output buffer: grad Phi(u), a
neighbour sum, the slope field and a mask for the diffusion system, face
fluxes, directions and coefficient fields for the coupled one; the kernels
look up their step plans on the grid, which builds each once.  A step then
allocates only the new state and what the potential's evaluators return.
Range excursions abort, never clamp; clamping would silently invalidate
every estimate checked downstream.
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
from .potentials import (CoupledCoefficients, RadialPotential, certify_window,
                         coupled_decomposition, grad_Phi_field)

# dt L(u, r), u's increment in a step given r = |u|, made for one dt, carried as `.dt`
RightHandSide = Callable[[np.ndarray, np.ndarray], np.ndarray]


def cfl_dt(grid: GridSpec, Lam: float, sigma: float = 1.0) -> float:
    """Stable explicit step sigma * h^2 / (2 n Lam) for an effective diffusivity Lam.

    `run` passes the certified window's Lam for the diffusion system and
    sup(a + |c| |H_z|) for the coupled one.
    """
    if not (0.0 < sigma <= 1.0):
        raise ValueError(f"cfl safety factor must be in (0, 1], got {sigma}")
    return sigma * grid.h * grid.h / (2.0 * grid.n * Lam)


def _abort_if_outside(r: np.ndarray, r_max: float, t: float, step: int | None,
                      run: str | None) -> np.ndarray:
    """The norm field r of one state, once checked against r_max; the error names
    the run (when it has one) that made the state."""
    worst = float(r.max())
    if worst > r_max * (1.0 + 1e-12):
        loc = tuple(int(i) for i in np.unravel_index(int(r.argmax()), r.shape))
        raise RangeExcursionError(
            f"|u| = {worst} exceeds r_max = {r_max} at {loc}, t = {t}" + _of(run),
            location=loc, t=t, step=step)
    return r


def _of(run: str | None) -> str:
    return "" if run is None else f" in run '{run}'"


def _diffusion_rhs(p: RadialPotential, grid: GridSpec, shape: tuple,
                   dt: float) -> RightHandSide:
    """dt Lap(grad Phi(u)) for stacks of `shape` over one workspace, made here and
    owned by the closure: grad Phi(u), the neighbour sum, the slope field, one
    mask and the output."""
    g, nb, out = (np.empty(shape) for _ in range(3))
    slope, mask = np.empty(shape[1:]), np.empty(shape[1:], bool)

    def rhs(u, r):
        L = _laplacian(grad_Phi_field(p, u, r, g, (slope, mask)), grid, nb, out)
        return np.multiply(L, dt, out=L)
    rhs.dt = dt
    return rhs


def _coupled_rhs(cc: CoupledCoefficients, grid: GridSpec, shape: tuple,
                 dt: float) -> RightHandSide:
    """dt L of the coupled system for stacks of `shape`, over one workspace made here.

    The face fluxes and their differences, the directions c and the output,
    each shaped like the state, the face average, a(r), H(r) and a mask; the
    H table borrows `flux[0]`, `tmp[0]` and the face field as scratch before
    they are filled, the directions the face field.  `_face_divergence` scales
    a and H in place by 0.5 dt/h^2, once a step.  One per run, never shared.
    """
    flux, tmp, c, out = (np.empty(shape) for _ in range(4))
    face, a, H, mask = (np.empty(shape[1:], t) for t in (float, float, float, bool))

    def rhs(u, r):
        cc.H_profile(r, out=H, work=(flux[0], tmp[0], face), a_out=a)
        cc.c(u, r, out=c, work=(face, mask))
        return _face_divergence(a, u, c, H, grid, dt, out, flux, tmp, face)
    rhs.dt = dt
    return rhs


def _euler(rhs: RightHandSide, u: np.ndarray, r: np.ndarray, t: float, r_max: float,
           runs: list, step: int | None = None, steps: int | None = None) -> np.ndarray:
    """The loop body on a stack u (N, B, *sizes) of the B runs named in `runs`: new =
    u + rhs(u, r), rhs made for one step dt = rhs.dt, then r = |new| (B norm fields,
    squared in rhs's buffer).

    max r over the stack is a step's one reduction: NaN or inf in new makes it NaN
    or inf, so one test serves both aborts, told apart, member by member, only when
    it fails; the error names the run of the first member that fails.  A non-finite
    value is stamped with this step; an excursion, raised only in a run of `steps`
    steps, with the next (or the last).  A lone step checks u first.
    """
    if steps is None:
        for b, name in enumerate(runs):
            _abort_if_outside(r[b], r_max, t, step, name)
    dt, L = rhs.dt, rhs(u, r)
    new = np.add(L, u)
    worst = vector_norm(new, r, L).max()
    if not worst < math.inf or worst > r_max * (1.0 + 1e-12):
        for b, name in enumerate(runs):
            member = new[:, b]   # u is finite, so non-finite values can only be born here
            if not np.isfinite(member).all():
                loc = tuple(int(i) for i in np.unravel_index(
                    int((~np.isfinite(member)).argmax()), member.shape))
                raise RangeExcursionError(
                    f"step produced a non-finite value at component {loc[0]}, point "
                    f"{loc[1:]}, t = {t + dt}" + _of(name), location=loc[1:], t=t + dt,
                    step=step)
            if steps is not None:
                _abort_if_outside(r[b], r_max, t + dt, min(step + 1, steps), name)
    return new


def step_diffusion(state: FieldState, p: RadialPotential, dt: float) -> FieldState:
    """One forward-Euler step of u_t = Lap(grad Phi(u)): the loop body on a stack of one."""
    u = state.values[:, None]
    new = _euler(_diffusion_rhs(p, state.grid, u.shape, dt), u, vector_norm(u), state.t,
                 p.r_max, [None])
    return FieldState(grid=state.grid, values=new[:, 0], t=state.t + dt,
                      boundary_values=state.boundary_values)


# ---------------------------------------------------------------------------
# initial data: one function per family, whose keyword-only parameters are its keys
# (annotated with their JSON types)

def _unit_direction(direction, grid: GridSpec, n_components: int, axis: int = 0):
    """`direction` normalised (by default e_axis), shaped to broadcast over grid axes."""
    d = np.eye(n_components)[axis] if direction is None else np.asarray(direction, dtype=float)
    if d.shape != (n_components,):
        raise ValueError(f"direction must have {n_components} entries")
    norm = float(np.sqrt(np.sum(d * d)))
    if norm == 0.0:
        raise ValueError("direction must be nonzero")
    return (d / norm).reshape((n_components,) + (1,) * grid.n)


def _mode_field(grid: GridSpec, k, phases) -> np.ndarray:
    """Separable sine: one wavenumber (or one for all axes) and one phase per axis."""
    ks = [int(v) for v in (k if hasattr(k, "__len__") else [k] * grid.n)]
    if len(ks) != grid.n:
        raise ValueError("one wavenumber per axis required")
    f = np.ones(grid.sizes)
    for a in range(grid.n):
        x = grid.coords(a).reshape([-1 if b == a else 1 for b in range(grid.n)])
        L = grid.extent(a)
        if not grid.periodic and ks[a] < 1:
            raise ValueError("Dirichlet modes need wavenumbers >= 1")
        f = f * np.sin(2.0 * np.pi * ks[a] * x / L + phases[a] if grid.periodic
                       else np.pi * ks[a] * x / L)
    return f


def _bump_field(grid: GridSpec, center, width: float, at: float) -> np.ndarray:
    """A radial Gaussian about `center`, or about the point at `at` of every axis."""
    center = tuple(at * grid.extent(a) for a in range(grid.n)) if center is None else center
    return np.exp(-_dist2(grid, center) / (2.0 * width * width))


def constant(grid, n_components, rng, /, *, amplitude: float = 0.5,
             value: list[float] | None = None) -> np.ndarray:
    """`value` at every point, or `amplitude` in every component."""
    vals = np.full(n_components, float(amplitude)) if value is None else np.asarray(value, float)
    if vals.shape != (n_components,):
        raise ValueError(f"constant value must have {n_components} entries")
    return vals.reshape((n_components,) + (1,) * grid.n) * np.ones(grid.sizes)


def mode(grid, n_components, rng, /, *, amplitude: float = 0.5, k: int | list[int] = 1,
         phase: float = 0.0, direction: list[float] | None = None) -> np.ndarray:
    """A separable sine, wavenumber `k` on every axis or one per axis."""
    amp, d = float(amplitude), _unit_direction(direction, grid, n_components)
    return amp * d * _mode_field(grid, k, [float(phase)] * grid.n)[None]


def bands(grid, n_components, rng, /, *, amplitude: float = 0.5, kmax: int = 3,
          offset: list[float] | None = None) -> np.ndarray:
    """Seeded sum of the modes 1..kmax per axis, sup |u| <= amplitude at any resolution."""
    amp, kmax = float(amplitude), int(kmax)
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    fields = np.zeros((n_components, *grid.sizes))
    l1 = np.zeros(n_components)
    for c in range(n_components):
        for kidx in np.ndindex(*([kmax] * grid.n)):
            coeff = float(rng.standard_normal())
            phases = rng.uniform(0.0, 2.0 * np.pi, size=grid.n)
            fields[c] += coeff * _mode_field(grid, [k + 1 for k in kidx], phases)
            l1[c] += abs(coeff)
    fields *= amp / math.sqrt(float(np.sum(l1 * l1)))
    if offset is not None:
        off = np.asarray(offset, dtype=float)
        if off.shape != (n_components,):
            raise ValueError(f"offset must have {n_components} entries")
        fields += off.reshape((n_components,) + (1,) * grid.n)
    return fields


def bump(grid, n_components, rng, /, *, amplitude: float = 0.5,
         direction: list[float] | None = None, center: list[float] | None = None,
         width: float | None = None) -> np.ndarray:
    """A radial Gaussian, by default at the box centre with width extent/8."""
    amp, d = float(amplitude), _unit_direction(direction, grid, n_components)
    w = float(grid.extent(0) / 8.0 if width is None else width)
    return amp * d * _bump_field(grid, center, w, 0.5)[None]


def two_bump(grid, n_components, rng, /, *, amplitude: float = 0.5,
             center1: list[float] | None = None, center2: list[float] | None = None,
             width: float | None = None, direction1: list[float] | None = None,
             direction2: list[float] | None = None) -> np.ndarray:
    """Gaussians of width extent/10 at 1/4 and 3/4 of the box, along the first and
    second axes of R^N (the first when N = 1) unless directed; sup |u| = amplitude."""
    amp, w = float(amplitude), float(grid.extent(0) / 10.0 if width is None else width)
    d1 = _unit_direction(direction1, grid, n_components)
    d2 = _unit_direction(direction2, grid, n_components, min(1, n_components - 1))
    out = (d1 * _bump_field(grid, center1, w, 0.25)[None]
           + d2 * _bump_field(grid, center2, w, 0.75)[None])
    sup = float(vector_norm(out).max())
    return out * (amp / sup) if sup > 0 else out


_FAMILIES = {f.__name__: f for f in (constant, mode, bands, bump, two_bump)}


def _initial_family(spec: dict):
    """(family, its keys) of an initial-data section; the kind defaults to "mode"."""
    keys = dict(spec)
    kind = keys.pop("kind", "mode")
    if not isinstance(kind, str) or kind not in _FAMILIES:
        raise ValueError(f"unknown initial-data kind '{kind}'")
    return _FAMILIES[kind], keys


def initial_field(grid: GridSpec, n_components: int, spec: dict, seed: int) -> np.ndarray:
    """The state `spec` names: its `kind` (default "mode") picks a family, its other
    keys are the family's.  Draws depend on the seed and those keys, never on the
    grid, so one seed denotes one continuum datum across resolutions."""
    family, keys = _initial_family(spec)
    return family(grid, n_components, np.random.default_rng(seed), **keys)


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
        if not isinstance(self.initial, dict):
            raise TypeError(f"initial must be an object, got {self.initial!r}")
        if not isinstance(self.name, str):
            raise TypeError(f"name must be a string, got {self.name!r}")
        if self.boundary_values is not None and \
                len(self.boundary_values) not in (1, self.n_components):
            raise ValueError(f"boundary_values takes 1 entry or one per component "
                             f"({self.n_components}), got {len(self.boundary_values)}")
        if not self.grid.periodic and self.boundary_values is None:
            object.__setattr__(self, "boundary_values", (0.0,) * self.n_components)

    def describe(self) -> dict:
        """Canonical JSON-able description; the content hash is taken over this."""
        pot = {"id": self.potential.id, "r_max": self.potential.r_max}
        if self.potential.table:   # built-in ids are described by id and r_max
            x, rows = self.potential.table
            pot["table"] = {"breakpoints": list(x), "coeffs": [list(c) for c in rows]}
        return {
            "grid": {"sizes": list(self.grid.sizes), "h": self.grid.h,
                     "boundary": self.grid.boundary},
            "components": self.n_components,
            "potential": pot,
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


def _planned(config: RunConfig):
    """(window, coupled rewrite or None, steps, dt) of a run: `_plan_steps` under the
    CFL bound of its system's effective diffusivity."""
    window = certify_window(config.potential)
    cc = coupled_decomposition(config.potential) if config.system == "coupled" else None
    dt_max = cfl_dt(config.grid, window.Lam if cc is None else cc.bounds["eff_Lambda"],
                    config.cfl_sigma)
    steps, dt = _plan_steps(config.t_end, dt_max, config.snapshot_every, config.dt_override)
    return window, cc, steps, dt


def _cost(config: RunConfig) -> int:
    """Planned steps x points x components: the work by which forked jobs are ordered,
    costliest first; 0 for a run that cannot be planned, which reports why as it runs."""
    try:
        return _planned(config)[2] * math.prod(config.grid.sizes) * config.n_components
    except Exception:
        return 0


def _initial_state(config: RunConfig) -> np.ndarray:
    """A run's state at t = 0: its initial field, the Dirichlet ring at its boundary values."""
    values = initial_field(config.grid, config.n_components, config.initial, config.seed)
    if not config.grid.periodic:
        bv, ring = config.boundary_values, config.grid.boundary_mask
        for c in range(config.n_components):
            values[c][ring] = bv[c if len(bv) > 1 else 0]
    return values


def _step_key(config: RunConfig) -> str:
    """The content hash of a run's planned step: its description without the keys that
    only its state depends on (`initial`, `seed`, `boundary_values`) and its `name`.
    Runs with one key can be stepped in lockstep."""
    return config_hash({**config.describe(), "initial": None, "seed": None,
                        "boundary_values": None, "name": None})


def run(config: RunConfig,
        observe: Callable[[FieldState], None] | None = None) -> Trajectory:
    """Integrate to t_end, storing a snapshot every `snapshot_every` steps.

    With `observe`, each snapshot, t = 0 included, is handed to it in time order and
    only the final one is kept; without it all are, for the tests and the demos' direct
    runs (`demos/heat_oracle.py` reads every one).  Deterministic given the seed; `meta`
    records the potential, its certified window, dt and the configuration's content hash.
    The one-member case of `_lockstep`.
    """
    return _lockstep([config], [observe])[0]


def _lockstep(configs: list[RunConfig], observers: list) -> list[Trajectory]:
    """`run` of each config, stepped together as one stack (N, B, *sizes) of B states.

    The configs must share one planned step (`_step_key`); each member starts from its
    own initial state and Dirichlet ring.  After each stored step every member's
    observer (None: keep every snapshot) gets a `FieldState` of its slice, members in
    order.  Each member's snapshots and meta are those of its solo run, bit for bit:
    every kernel of the step works point by point, and the one reduction over
    components sums each point's components in the same order.  A range abort names
    the first member that leaves the range.
    """
    first = configs[0]
    if any(_step_key(c) != _step_key(first) for c in configs[1:]):
        raise ValueError("runs stepped in lockstep must share one planned step")
    p, grid, every = first.potential, first.grid, first.snapshot_every
    window, cc, steps, dt = _planned(first)
    u = np.stack([_initial_state(c) for c in configs], axis=1)
    rhs = (_diffusion_rhs(p, grid, u.shape, dt) if cc is None
           else _coupled_rhs(cc, grid, u.shape, dt))
    names = [c.name for c in configs]
    kept = [[] for _ in configs]
    keep = [k.append if obs is None else obs for k, obs in zip(kept, observers)]

    def snapshot(u, t):   # a FieldState of each member's slice
        return [FieldState(grid=grid, values=u[:, b], t=t, boundary_values=c.boundary_values)
                for b, c in enumerate(configs)]

    def feed(snaps):   # each member's snapshot to its observer, members in order
        for give, snap in zip(keep, snaps):
            give(snap)
        return snaps

    # plain arrays from here on; FieldStates are built only for a snapshot
    last, r, t = snapshot(u, 0.0), vector_norm(u), 0.0
    for b, name in enumerate(names):
        _abort_if_outside(r[b], p.r_max, t, None, name)
    feed(last)
    for k in range(1, steps + 1):   # each step checks the state it makes
        u = _euler(rhs, u, r, t, p.r_max, names, k, steps)
        t += dt
        if k % every == 0:
            last = feed(snapshot(u, t))
    window_doc = {"lam": window.lam, "Lam": window.Lam, "r_max": window.r_max}

    def meta(config):
        doc = config.describe()
        return {"config": doc, "config_hash": config_hash(doc), "potential_id": p.id,
                "window": window_doc, "dt": dt, "steps": steps, "snapshot_every": every,
                "seed": config.seed, "system": config.system, "name": config.name}
    return [Trajectory(snapshots=tuple(k) or (s,), dt=dt, meta=meta(c))
            for k, s, c in zip(kept, last, configs)]


def with_resolution(config: RunConfig, size: int) -> RunConfig:
    """Same physical run with `size` points on axis 0 (every axis extent preserved).

    Each axis's cell count (points when periodic, intervals when Dirichlet) is
    scaled by the ratio that axis 0's takes; a size that leaves axis 0 no cell, or a
    ratio that leaves some axis a fractional count, raises ValueError.
    """
    g = config.grid
    shift = 0 if g.periodic else 1
    if size <= shift:   # before dividing by the cells it leaves
        raise ValueError(f"resolution {size} leaves axis 0 no cells")
    sizes = []
    for a, m in enumerate(g.sizes):
        cells, rem = divmod((m - shift) * (size - shift), g.sizes[0] - shift)
        if rem:
            raise ValueError(f"resolution {size} gives axis {a} a fractional "
                             f"count of points ({m} points at {g.sizes[0]} on axis 0)")
        sizes.append(cells + shift)
    grid = GridSpec(n=g.n, sizes=tuple(sizes), h=g.extent(0) / (size - shift),
                    boundary=g.boundary)
    return replace(config, grid=grid)
