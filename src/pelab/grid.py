"""Discrete domains, fields, stencil calculus and parabolic-cylinder bookkeeping.

Uniform tensor grids in 1, 2 or 3 dimensions with periodic or Dirichlet
boundaries.  Dirichlet grids carry a one-cell-thick boundary layer.  Each
stencil has one code path for both boundary kinds: a neighbour along an axis
is read by one primitive, `_shifted`, a contiguous pass over the flattened
array with the wrapped planes written by one more call, over a step plan
(`_shift_plans`: per axis and shift, the index arithmetic worked out once
per grid object and kept on it, for any component count; each kernel looks
up the plans of its own neighbour pairs).  The diagonal neighbours of
`hessian_sq`'s mixed differences are shifts of shifts.  One boundary rule
serves every stencil (`_laplacian`, `_gradient_sq`, `hessian_sq` and
`_face_divergence`): on Dirichlet grids the ring, the only points that read
across the wrap, is set to zero afterwards by `_fill_ring`, so stencil
outputs are meaningful on the interior only.  Each stencil has one entry
point.  `hessian_sq`, which the estimate monitor calls on fields it makes,
checks its input; the kernels `_laplacian`, `_face_divergence` and
`_gradient_sq`, fed by the time loop and the monitors, skip the checks and
take their caller's buffers.  All reductions go through numpy, whose float
sums use pairwise (tree) summation, which bounds rounding drift
deterministically.  `_dist2`, the minimal-image squared distance to a point,
serves both the cylinder balls and the bump initial data.

A parabolic cylinder Q(x0, t0, R) is the discrete set of grid points within
Euclidean distance R of x0, crossed with the snapshot times t satisfying
t0 - R^2 < t <= t0.  `_CylinderFold`, the one cylinder loop, is fed one
snapshot at a time and reads each snapshot's field once for all its
cylinders, with no memo; `_replay` feeds a fold a stored trajectory, as a run
feeds it.  Trajectories are written as one header and one frame per snapshot
(`_write_header`, `_write_frame`) and read back a frame at a time
(`read_snapshot`).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

PERIODIC = "periodic"
DIRICHLET = "dirichlet"

_MAGIC = b"PELB"
_VERSION = 2
_HEAD = struct.Struct("<4sIBBB")   # magic, version, n, N, boundary flag


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid: n axes, `sizes` points per axis, spacing h, one boundary kind.

    Periodic axes cover [0, m*h); Dirichlet axes cover [0, (m-1)*h] with the
    first and last plane forming the boundary layer.
    """

    n: int
    sizes: tuple[int, ...]
    h: float
    boundary: str = PERIODIC

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise ValueError(f"spatial dimension must be 1, 2 or 3, got {self.n}")
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if len(self.sizes) != self.n:
            raise ValueError(f"sizes {self.sizes} do not match dimension {self.n}")
        if any(s < 4 for s in self.sizes):
            raise ValueError(f"every axis needs at least 4 points, got {self.sizes}")
        if not (self.h > 0.0 and math.isfinite(self.h)):
            raise ValueError(f"spacing must be a positive finite number, got {self.h}")
        if self.boundary not in (PERIODIC, DIRICHLET):
            raise ValueError(f"boundary must be '{PERIODIC}' or '{DIRICHLET}'")

    @property
    def periodic(self) -> bool:
        return self.boundary == PERIODIC

    def extent(self, axis: int) -> float:
        """Physical length of one axis."""
        m = self.sizes[axis]
        return m * self.h if self.periodic else (m - 1) * self.h

    def coords(self, axis: int) -> np.ndarray:
        return np.arange(self.sizes[axis]) * self.h

    @cached_property
    def boundary_mask(self) -> np.ndarray:
        """Boolean mask of the one-cell boundary layer (all False when periodic)."""
        mask = np.zeros(self.sizes, dtype=bool)
        if not self.periodic:
            _fill_ring(mask, self.n, True)
        mask.setflags(write=False)
        return mask

    @property
    def interior_slices(self) -> tuple[slice, ...]:
        return (slice(None) if self.periodic else slice(1, -1),) * self.n

    def cell_volume(self) -> float:
        return self.h ** self.n


def _as_components(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Promote a finite scalar field to shape (1, *sizes); pass (N, *sizes) through."""
    values = np.asarray(values, dtype=float)
    if values.shape == grid.sizes:
        values = values[None]
    elif values.ndim != grid.n + 1 or values.shape[1:] != grid.sizes:
        raise ValueError(f"field shape {values.shape} does not match grid {grid.sizes}")
    if not np.isfinite(values).all():
        raise ValueError("field contains non-finite values")
    return values


def _fill_ring(out: np.ndarray, n: int, value=0.0) -> None:
    """Set the first and last plane of each of the last n axes of `out` to `value`."""
    for a in range(out.ndim - n, out.ndim):
        out[(slice(None),) * a + (slice(None, None, out.shape[a] - 1),)] = value


def _shift_plans(grid: GridSpec, *pairs: tuple[int, int]) -> tuple:
    """Per grid axis, the plan of `_shifted` for each (k1, k2) of `pairs`: the
    bulk pass's flat offsets and the count of entries it leaves to the wrapped
    planes, then those planes' indices counted from the last axis, so that one
    plan serves a field and any stack of components on the grid.  Built once per
    grid object and pair set and kept on the grid, as its `boundary_mask` is."""
    kept = grid.__dict__.setdefault("_plans", {})
    if pairs in kept:
        return kept[pairs]

    def plan(axis, k1, k2):
        m, s = grid.sizes[axis], math.prod(grid.sizes[axis + 1:])   # s: one step, flattened
        lo, hi = int(k1 < 0 or k2 < 0), int(k1 > 0 or k2 > 0)
        if lo and hi:   # planes 0 and m - 1 in one call, reading (m-1, m-2) or (1, 0)
            j = {-1: slice(m - 1, m - 3, -1), 1: slice(1, None, -1)}
            planes = j[k1], j[k2], slice(None, None, m - 1)
        else:           # the first or the last plane
            i = 0 if lo else m - 1
            j1, j2 = (i + k1) % m, (i + k2) % m
            planes = slice(j1, j1 + 1), slice(j2, j2 + 1), slice(i, i + 1)
        post = (slice(None),) * (grid.n - 1 - axis)
        return ((lo + k1) * s, (lo + k2) * s, lo * s, (lo + hi) * s,
                *((..., p) + post for p in planes))
    kept[pairs] = tuple(tuple(plan(a, k1, k2) for k1, k2 in pairs) for a in range(grid.n))
    return kept[pairs]


def _shifted(op, f: np.ndarray, plan: tuple, out: np.ndarray) -> np.ndarray:
    """out[x] = op(f[x + k1 e], f[x + k2 e]) along one axis, wrapping, for k1, k2 in -1..1.

    `plan` comes from `_shift_plans`: one contiguous pass over the flattened
    array, then the planes read across the wrap overwrite the entries that
    crossed it.  `out` must be C-contiguous (a strided buffer raises), `f` not.
    """
    a1, a2, b, wrapped, p1, p2, po = plan
    if not out.flags.c_contiguous:   # the flat view below would be a copy
        raise ValueError("_shifted needs a C-contiguous output buffer")
    flat, n = f.ravel(), f.size - wrapped
    op(flat[a1:a1 + n], flat[a2:a2 + n], out=out.ravel()[b:b + n])
    op(f[p1], f[p2], out=out[po])
    return out


def _laplacian(f: np.ndarray, grid: GridSpec, work: np.ndarray | None = None,
               out: np.ndarray | None = None) -> np.ndarray:
    """Unchecked 2n+1-point Laplacian of each component of an (N, *sizes) array.

    Per axis the neighbour sum f[i-1] + f[i+1] (`_shifted` into `work`) is
    added to -2n f (in `out`); the sum is divided by h^2 last.  Dirichlet
    grids zero the ring, the only points that read across the wrap.  Buffers
    (C-contiguous, shaped like f) left out are made here.
    """
    out = np.multiply(f, -2.0 * grid.n, out=out)
    nb = np.empty(f.shape) if work is None else work
    for (plan,) in _shift_plans(grid, (-1, 1)):
        out += _shifted(np.add, f, plan, nb)
    out /= grid.h * grid.h
    if not grid.periodic:
        _fill_ring(out, grid.n)
    return out


def _face_divergence(coef: np.ndarray, fields: np.ndarray,
                     extra_coef: np.ndarray | None, extra_field: np.ndarray | None,
                     grid: GridSpec, scale: float, out: np.ndarray, flux: np.ndarray,
                     tmp: np.ndarray, face: np.ndarray) -> np.ndarray:
    """`scale` times the divergence of (avg coef * D fields + avg extra_coef * D
    extra_field) over faces, unchecked, written into `out`, in the caller's buffers.

    `fields` is (N, *sizes); `extra_coef` is (N, *sizes) paired with the scalar
    `extra_field`, and both may be None.  `coef` and `extra_field` are the
    caller's workspace: one pass each scales them in place, at entry, by k = 0.5
    scale/h^2 (the face average's half, both divisions by h and the caller's
    factor, dt in the time step); no other pass scales or divides.  Face i lies
    between points i and i+1, the last one wraps to point 0; Dirichlet grids
    zero the ring, the only points reading that face.  Conservative: periodic
    flux differences telescope, so means are conserved.  `out`, `flux` and
    `tmp` are C-contiguous arrays shaped like `fields`, `face` one shaped like a
    component (a strided buffer raises); none is read before it is written (the
    first axis's flux difference goes into `out`, the others are added).  Equal
    to the roll-based original to rounding, bitwise where k is a power of two.
    """
    coef *= (k := 0.5 * scale / (grid.h * grid.h))
    if extra_field is not None:
        extra_field *= k
    for a, (fwd, bwd) in enumerate(_shift_plans(grid, (1, 0), (0, -1))):
        _shifted(np.subtract, fields, fwd, flux)   # flux[i] = f[i+1] - f[i]
        flux *= _shifted(np.add, coef, fwd, face)
        if extra_field is not None:
            _shifted(np.subtract, extra_field, fwd, face)
            _shifted(np.add, extra_coef, fwd, tmp)
            tmp *= face
            flux += tmp
        diff = _shifted(np.subtract, flux, bwd, tmp if a else out)   # flux[i] - flux[i-1]
        if a:
            out += diff
    if not grid.periodic:
        _fill_ring(out, grid.n)
    return out


def _gradient_sq(comps: np.ndarray, grid: GridSpec, out: np.ndarray | None = None,
                 work: np.ndarray | None = None) -> np.ndarray:
    """|grad u|^2 of an (N, *sizes) array, unchecked: the sum over components and
    axes of squared central differences (f[i+1] - f[i-1]) / 2h, wrapping on
    periodic grids; Dirichlet grids zero the ring.  Buffers (C-contiguous, shaped
    like a component) for the sum (`out`) and each difference (`work`) that are
    left out are made here."""
    out = np.empty(grid.sizes) if out is None else out
    out.fill(0.0)
    d = np.empty(grid.sizes) if work is None else work
    for f in comps:
        for (plan,) in _shift_plans(grid, (1, -1)):
            _shifted(np.subtract, f, plan, d)
            d /= 2.0 * grid.h
            out += np.multiply(d, d, out=d)
    if not grid.periodic:
        _fill_ring(out, grid.n)
    return out


def hessian_sq(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Sum over components and ordered axis pairs of squared second differences.

    Mixed derivatives use the 4-point cross stencil, whose diagonal
    neighbours are shifts of shifts; every neighbour is a `_shifted` copy.
    Dirichlet output is meaningful on the interior only (boundary ring zero:
    the ring is all that reads across the wrap).
    """
    comps = _as_components(values, grid)
    h2 = grid.h * grid.h
    copy = lambda x, _, out: np.copyto(out, x)   # with k1 = k2 = k: f[x + k e]
    plans = _shift_plans(grid, (1, 1), (-1, -1))
    plus, minus, d, nb = (np.empty(grid.sizes) for _ in range(4))
    out = np.zeros(grid.sizes)
    for f in comps:
        for a, (fwd, bwd) in enumerate(plans):
            _shifted(copy, f, fwd, plus)
            _shifted(copy, f, bwd, minus)
            np.subtract(plus, np.multiply(2.0, f, out=d), out=d)   # daa, in place
            d += minus
            d /= h2
            out += np.multiply(d, d, out=d)
            for fwd, bwd in plans[:a] + plans[a + 1:]:
                # dab = ((pp - pm) - mp + mm) / (4 h^2), one diagonal at a time
                _shifted(copy, plus, fwd, d)
                d -= _shifted(copy, plus, bwd, nb)
                d -= _shifted(copy, minus, fwd, nb)
                d += _shifted(copy, minus, bwd, nb)
                d /= 4.0 * h2
                out += np.multiply(d, d, out=d)
    if not grid.periodic:
        _fill_ring(out, grid.n)
    return out


def vector_norm(values: np.ndarray, out: np.ndarray | None = None,
                work: np.ndarray | None = None) -> np.ndarray:
    """Pointwise Euclidean norm over the component axis of an (N, *sizes) array;
    given buffers take the norm (`out`) and the squares (`work`)."""
    return np.sqrt(np.add.reduce(np.square(values, out=work), axis=0, out=out), out=out)


@dataclass(frozen=True)
class FieldState:
    """N-component field on a grid at one time.

    Dirichlet states carry fixed per-component boundary values; the boundary
    layer of `values` must equal them exactly.  Arrays are frozen on
    construction so states can be shared across threads.
    """

    grid: GridSpec
    values: np.ndarray
    t: float
    boundary_values: tuple[float, ...] | None = None

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=float)
        if values.ndim != self.grid.n + 1 or values.shape[1:] != self.grid.sizes:
            raise ValueError(
                f"values shape {values.shape} does not match (N, *{self.grid.sizes})")
        if not np.isfinite(values).all():
            raise ValueError("state contains non-finite values")
        if self.grid.periodic:
            if self.boundary_values is not None:
                raise ValueError("periodic states carry no boundary values")
        else:
            if self.boundary_values is None:
                raise ValueError("Dirichlet states require boundary_values")
            bv = tuple(float(v) for v in np.atleast_1d(self.boundary_values))
            if len(bv) == 1 and values.shape[0] > 1:
                bv = bv * values.shape[0]
            if len(bv) != values.shape[0]:
                raise ValueError("one boundary value per component required")
            ring = self.grid.boundary_mask
            for c, v in enumerate(bv):
                if not np.all(values[c][ring] == v):
                    raise ValueError(
                        f"boundary layer of component {c} does not equal its boundary value {v}")
            object.__setattr__(self, "boundary_values", bv)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "t", float(self.t))

    @property
    def n_components(self) -> int:
        return self.values.shape[0]

    def boundary_sup(self) -> float:
        """Sup of |u| (vector norm) over the boundary layer; 0 for periodic grids."""
        if self.grid.periodic:
            return 0.0
        return math.sqrt(sum(v * v for v in self.boundary_values))


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered snapshots with uniform spacing (an integer multiple of dt)."""

    snapshots: tuple[FieldState, ...]
    dt: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        snaps = tuple(self.snapshots)
        if not snaps:
            raise ValueError("a trajectory needs at least one snapshot")
        g = snaps[0].grid
        nc = snaps[0].n_components
        for s in snaps[1:]:
            if s.grid != g:
                raise ValueError("snapshots disagree on the grid")
            if s.n_components != nc:
                raise ValueError("snapshots disagree on the component count")
        times = np.array([s.t for s in snaps])
        if len(snaps) > 1:
            gaps = np.diff(times)
            if np.any(gaps <= 0):
                raise ValueError("snapshot times must be strictly increasing")
            spacing = gaps[0]
            if np.any(np.abs(gaps - spacing) > 1e-9 * max(spacing, 1e-300)):
                raise ValueError("snapshot spacing is not uniform")
            ratio = spacing / self.dt
            if abs(ratio - round(ratio)) > 1e-6:
                raise ValueError("snapshot spacing must be an integer multiple of dt")
        object.__setattr__(self, "snapshots", snaps)

    @property
    def grid(self) -> GridSpec:
        return self.snapshots[0].grid

    @property
    def n_components(self) -> int:
        return self.snapshots[0].n_components

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])

    @property
    def final(self) -> FieldState:
        return self.snapshots[-1]


@dataclass(frozen=True)
class Cylinder:
    """Parabolic cylinder Q(x0, t0, R) = B(x0, R) x (t0 - R^2, t0].

    The spatial center is given in physical coordinates; it need not lie on a
    grid point.
    """

    center: tuple[float, ...]
    t0: float
    R: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if not (self.R > 0.0):
            raise ValueError("cylinder radius must be positive")


def _dist2(grid: GridSpec, center: Sequence[float]) -> np.ndarray:
    """Squared Euclidean distance of every grid point to the center.

    Periodic axes measure minimal-image distance tied to the axis extent.
    """
    if len(center) != grid.n:
        raise ValueError(f"center {tuple(center)} does not match the grid dimension {grid.n}")
    dist2 = np.zeros(grid.sizes)
    for a in range(grid.n):
        d = grid.coords(a) - float(center[a])
        if grid.periodic:
            L = grid.extent(a)
            d = d - L * np.round(d / L)
        shape = [1] * grid.n
        shape[a] = grid.sizes[a]
        dist2 = dist2 + (d * d).reshape(shape)
    return dist2


def _ball(grid: GridSpec, q: Cylinder) -> np.ndarray:
    """The validated ball mask of a cylinder; raises if it leaves the domain."""
    mask = _dist2(grid, q.center) <= q.R * q.R * (1.0 + 1e-12)
    if not mask.any():
        raise ValueError(f"ball of radius {q.R} around {q.center} contains no grid point")
    for a in range(grid.n):
        L = grid.extent(a)
        if grid.periodic:
            if 2.0 * q.R >= L:
                raise ValueError(
                    f"ball diameter {2 * q.R} exceeds the periodic extent {L} on axis {a}")
        else:
            if q.center[a] - q.R < grid.h - 1e-12 * L or q.center[a] + q.R > L - grid.h + 1e-12 * L:
                raise ValueError(
                    f"ball [{q.center[a] - q.R}, {q.center[a] + q.R}] on axis {a} "
                    f"leaves the interior (h, {L - grid.h})")
    return mask


def _window(q: Cylinder) -> tuple[float, float]:
    """(a, b) such that a snapshot time t lies in the window (t0 - R^2, t0] iff a < t <= b."""
    slack = 1e-12 * max(1.0, abs(q.t0))
    return q.t0 - q.R * q.R - slack, q.t0 + slack


class _CylinderFold:
    """The one cylinder loop, fed snapshots in time order.

    `result` is the point sum of field**power over each (cylinder, power)
    term, and its point count; an integral is a sum times h^n times
    `spacing`, the time between the first two snapshots.  `field(snapshot)`
    is evaluated once per snapshot that some window holds.  The balls are
    validated on construction, the windows by `result`.
    """

    def __init__(self, grid: GridSpec, terms: Sequence[tuple[Cylinder, float]],
                 field: Callable[[FieldState], np.ndarray]):
        self.grid, self.terms, self.field = grid, list(terms), field
        self.balls = [np.flatnonzero(_ball(grid, q)) for q, _ in self.terms]  # C-order gather
        self.windows = [_window(q) for q, _ in self.terms]
        self.totals, self.counts = [0.0] * len(self.terms), [0] * len(self.terms)
        self.k, self.t0, self.spacing = 0, None, None

    def feed(self, snap: FieldState) -> None:
        k, t = self.k, snap.t
        self.k += 1
        if k == 0:
            self.t0 = t
        elif k == 1:
            self.spacing = t - self.t0
        inside = [i for i, (a, b) in enumerate(self.windows) if a < t <= b]
        if inside:
            f = np.asarray(self.field(snap), dtype=float)
            if f.shape != self.grid.sizes:
                raise ValueError("the field must evaluate to a scalar field on the grid")
            flat = f.ravel()
            for i in inside:
                v, power = flat.take(self.balls[i]), self.terms[i][1]
                self.totals[i] += float(np.add.reduce(v if power == 1.0 else np.power(v, power)))
                self.counts[i] += 1

    def result(self) -> list[tuple[float, int]]:
        for (q, _), count in zip(self.terms, self.counts):
            if count < 2:
                raise ValueError(f"time window ({q.t0 - q.R ** 2}, {q.t0}] intersects only "
                                 f"{count} snapshots; at least 2 are required")
        return [(total, len(ball) * count)
                for total, ball, count in zip(self.totals, self.balls, self.counts)]


def _replay(traj: Trajectory, fold, *lead):
    """`fold`, fed traj's snapshots in time order, each after `lead` (a run index)."""
    for snap in traj.snapshots:
        fold.feed(*lead, snap)
    return fold


# Trajectory file format, version 2, bit-exact and little-endian: a header of
#   magic "PELB", version u32=2, n u8, N u8, boundary u8 (0 periodic, 1 dirichlet),
#   sizes n x u64 and h f64; then one frame per snapshot: t f64, then
#   N*(prod sizes) f64 values, component-major then row-major.

def _write_header(fh, grid: GridSpec, n_components: int) -> None:
    fh.write(_HEAD.pack(_MAGIC, _VERSION, grid.n, n_components, 0 if grid.periodic else 1)
             + np.asarray(grid.sizes, dtype="<u8").tobytes() + struct.pack("<d", grid.h))


def _write_frame(fh, state: FieldState) -> None:
    """Append one frame, its values written from the state's own buffer (no copy)."""
    fh.writelines((struct.pack("<d", state.t), np.ascontiguousarray(state.values, "<f8")))


def read_snapshot(path, index: int = 0) -> FieldState:
    """Frame `index` of a trajectory file."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEAD.size)
        if len(raw) < _HEAD.size:
            raise ValueError(f"{path}: {len(raw)} bytes, shorter than the {_HEAD.size}-byte header")
        magic, version, n, nc, bflag = _HEAD.unpack(raw)
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a snapshot file (bad magic {magic!r})")
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported snapshot version {version}")
        if bflag not in (0, 1):
            raise ValueError(f"{path}: unknown boundary flag {bflag}")
        if nc == 0:
            raise ValueError(f"{path}: the header declares 0 components")
        off, raw = _HEAD.size + 8 * n + 8, fh.read(8 * n + 8)
        if len(raw) < 8 * n + 8:
            raise ValueError(f"{path}: {_HEAD.size + len(raw)} bytes, shorter than the "
                             f"{off}-byte header")
        *sizes, h = struct.unpack(f"<{n}Qd", raw)
        try:
            grid = GridSpec(n, tuple(sizes), h, PERIODIC if bflag == 0 else DIRICHLET)
        except ValueError as exc:
            raise ValueError(f"{path}: invalid grid in the header: {exc}") from exc
        frame = 8 + 8 * nc * math.prod(grid.sizes)
        size = fh.seek(0, 2)
        frames, rest = divmod(size - off, frame)
        if rest or not frames:
            raise ValueError(f"{path}: {size} bytes, not the {off}-byte header and whole "
                             f"{frame}-byte frames")
        if not 0 <= index < frames:
            raise IndexError(f"{path}: frame index {index} out of range for {frames} frames")
        fh.seek(off + index * frame)
        data = np.frombuffer(fh.read(frame), dtype="<f8")
    t, values = data[0], data[1:].astype(float).reshape((nc, *grid.sizes))
    bv = None
    if not grid.periodic:
        ring = values[:, grid.boundary_mask]
        uneven = np.nonzero((ring != ring[:, :1]).any(axis=1))[0]
        if uneven.size:
            raise ValueError(f"{path}: boundary layer of component {uneven[0]} is not constant")
        bv = tuple(float(v) for v in ring[:, 0])
    return FieldState(grid=grid, values=values, t=t, boundary_values=bv)
