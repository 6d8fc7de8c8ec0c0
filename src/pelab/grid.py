"""Discrete domains, fields, stencil calculus and parabolic-cylinder bookkeeping.

Uniform tensor grids in 1, 2 or 3 dimensions with periodic or Dirichlet
boundaries.  Dirichlet grids carry a one-cell-thick boundary layer; stencil
outputs are meaningful on the interior only (the boundary ring of a Laplacian
or of the coupled step's `face_divergence` is returned as zero).  Each
stencil has one code path for both boundary kinds: a neighbour along an axis
is read by one primitive, `_shifted`, a contiguous pass over the flattened
array with the wrapped plane written separately (`hessian_sq`, whose mixed
differences need diagonal neighbours, reads a copy padded by one wrapped
cell), and on Dirichlet grids the ring, the only points that read across the
wrap, is overwritten afterwards.  The private kernels `_laplacian` and
`_face_divergence` skip the input checks; the latter works in buffers its
caller owns (the coupled step's per-run workspace), so a coupled step
allocates only the new state.  All reductions go through numpy, whose float
sums use pairwise (tree) summation, which bounds rounding drift
deterministically.  `_dist2`, the minimal-image squared distance to a point,
serves both the cylinder balls and the bump initial data.

A parabolic cylinder Q(x0, t0, R) is the discrete set of grid points within
Euclidean distance R of x0, crossed with the snapshot times t satisfying
t0 - R^2 < t <= t0.  `cylinder_integrals`, the one cylinder loop, reads each
snapshot's field once for all its cylinders, in one pass and with no memo.
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
_VERSION = 1


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
            for a in range(self.n):
                lo = [slice(None)] * self.n
                hi = [slice(None)] * self.n
                lo[a] = 0
                hi[a] = self.sizes[a] - 1
                mask[tuple(lo)] = True
                mask[tuple(hi)] = True
        mask.setflags(write=False)
        return mask

    @property
    def interior_slices(self) -> tuple[slice, ...]:
        if self.periodic:
            return tuple(slice(None) for _ in range(self.n))
        return tuple(slice(1, -1) for _ in range(self.n))

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


def _zero_ring(out: np.ndarray, n: int) -> None:
    """Zero the first and last plane of each of the last n axes of `out`."""
    for a in range(out.ndim - n, out.ndim):
        pre = (slice(None),) * a
        out[pre + (0,)] = 0.0
        out[pre + (-1,)] = 0.0


def _shifted(op, f: np.ndarray, axis: int, k1: int, k2: int,
             out: np.ndarray) -> np.ndarray:
    """out[x] = op(f[x + k1 e], f[x + k2 e]) along `axis`, wrapping, for k1, k2 in -1..1.

    A neighbour along an axis is a fixed shift of the flattened array, so the
    bulk is one contiguous pass (numpy copies strided operands through
    buffers of its own) whose entries that cross the wrap are then
    overwritten by the planes read across it.  `out` must be C-contiguous
    (a strided buffer raises); `f` may be any layout.
    """
    s = math.prod(f.shape[axis + 1:])   # one step along the axis, flattened
    lo, hi = int(k1 < 0 or k2 < 0), int(k1 > 0 or k2 > 0)
    n = f.size - (lo + hi) * s            # entries that read no wrapped plane
    a1, a2, b = (lo + k1) * s, (lo + k2) * s, lo * s
    if not out.flags.c_contiguous:   # the flat view below would be a copy
        raise ValueError("_shifted needs a C-contiguous output buffer")
    flat, flat_out = f.ravel(), out.ravel()
    op(flat[a1:a1 + n], flat[a2:a2 + n], out=flat_out[b:b + n])
    m = f.shape[axis]
    pre = (slice(None),) * axis
    for i in (0,) * lo + (m - 1,) * hi:   # the first and/or the last plane
        j1, j2 = (i + k1) % m, (i + k2) % m
        op(f[pre + (slice(j1, j1 + 1),)], f[pre + (slice(j2, j2 + 1),)],
           out=out[pre + (slice(i, i + 1),)])
    return out


def _laplacian(f: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Unchecked 2n+1-point Laplacian of each component of an (N, *sizes) array.

    Per axis the neighbour sum f[i-1] + f[i+1] (`_shifted`) is added to
    -2n f; the sum is divided by h^2 last.  Dirichlet grids zero the ring,
    the only points that read across the wrap.
    """
    out = -2.0 * grid.n * f
    nb = np.empty(f.shape)
    for a in range(1, grid.n + 1):
        out += _shifted(np.add, f, a, -1, 1, nb)
    out /= grid.h * grid.h
    if not grid.periodic:
        _zero_ring(out, grid.n)
    return out


def laplacian(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Second-order 2n+1-point Laplacian of a scalar field (or of each component).

    Periodic grids are differenced everywhere (wrap-around); Dirichlet grids on
    the interior only, with the boundary ring of the output set to zero.
    """
    out = _laplacian(_as_components(values, grid), grid)
    return out.reshape(np.shape(values))


def _face_divergence(coef: np.ndarray, fields: np.ndarray,
                     extra_coef: np.ndarray | None, extra_field: np.ndarray | None,
                     grid: GridSpec, out: np.ndarray, flux: np.ndarray,
                     tmp: np.ndarray, face: np.ndarray) -> np.ndarray:
    """Unchecked face divergence, added to `out`, in the caller's buffers.

    `flux` and `tmp` are C-contiguous arrays shaped like `fields`, `face` one
    shaped like a component (a strided buffer raises); none is read before it
    is written.  Forward and backward differences are `_shifted` passes.  The
    order of operations is the roll-based original's, except that the exact
    0.5 of the extra coefficient's face average multiplies the scalar
    difference of `extra_field` instead of the N-component sum.
    """
    h = grid.h
    coef, face = coef[None], face[None]
    for a in range(1, grid.n + 1):
        _shifted(np.subtract, fields, a, 1, 0, flux)   # flux[i] = f[i+1] - f[i]
        flux /= h
        _shifted(np.add, coef, a, 1, 0, face)
        face *= 0.5
        flux *= face
        if extra_field is not None:
            _shifted(np.subtract, extra_field[None], a, 1, 0, face)
            face /= h
            face *= 0.5
            _shifted(np.add, extra_coef, a, 1, 0, tmp)
            tmp *= face
            flux += tmp
        _shifted(np.subtract, flux, a, 0, -1, tmp)     # tmp[i] = flux[i] - flux[i-1]
        tmp /= h
        out += tmp
    if not grid.periodic:
        _zero_ring(out, grid.n)
    return out


def face_divergence(scalar_coef: np.ndarray, fields: np.ndarray,
                    extra_coef: np.ndarray | None, extra_field: np.ndarray | None,
                    grid: GridSpec) -> np.ndarray:
    """Divergence of (avg coef * D fields + avg extra_coef * D extra_field) over faces.

    `fields` is (N, *sizes); `extra_coef` is (N, *sizes) paired with the scalar
    `extra_field`.  Face i lies between points i and i+1, the last one wraps to
    point 0; Dirichlet grids zero the ring, the only points reading that face.
    Conservative: periodic flux differences telescope, so means are conserved.
    The buffers are allocated here; the coupled step passes its own to
    `_face_divergence`.
    """
    shape = np.shape(fields)
    return _face_divergence(scalar_coef, fields, extra_coef, extra_field, grid,
                            np.zeros(shape), np.empty(shape), np.empty(shape),
                            np.empty(shape[1:]))


def gradient_sq(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Sum over components and axes of squared first differences, |grad u|^2.

    Central differences (f[i+1] - f[i-1]) / 2h, wrapping on periodic grids;
    first-order one-sided differences such as (f[1] - f[0]) / h at the
    Dirichlet ends (lower order, kept only for completeness of boundary
    diagnostics).
    """
    comps = _as_components(values, grid)
    h = grid.h
    out = np.zeros(grid.sizes)
    d = np.empty(grid.sizes)
    for f in comps:
        for a in range(grid.n):
            _shifted(np.subtract, f, a, 1, -1, d)
            d /= 2.0 * h
            if not grid.periodic:
                pre = (slice(None),) * a
                d[pre + (0,)] = (f[pre + (1,)] - f[pre + (0,)]) / h
                d[pre + (-1,)] = (f[pre + (-1,)] - f[pre + (-2,)]) / h
            out += d * d
    return out


def hessian_sq(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Sum over components and ordered axis pairs of squared second differences.

    Mixed derivatives use the 4-point cross stencil.  Shifts read a copy
    padded by one wrapped cell per side; Dirichlet output is meaningful on the
    interior only (boundary ring zero: the ring is all that reads the padding).
    """
    comps = _as_components(values, grid)
    h2 = grid.h * grid.h
    e = np.eye(grid.n, dtype=int)

    def at(padded, shift):  # f[x + shift] for every grid point x
        return padded[tuple(slice(1 + s, 1 + s + m) for s, m in zip(shift, grid.sizes))]

    out = np.zeros(grid.sizes)
    for padded in np.pad(comps, [(0, 0)] + [(1, 1)] * grid.n, mode="wrap"):
        f = at(padded, 0 * e[0])
        for a in range(grid.n):
            daa = (at(padded, e[a]) - 2.0 * f + at(padded, -e[a])) / h2
            out += daa * daa
            for b in range(grid.n):
                if b == a:
                    continue
                dab = (at(padded, e[a] + e[b]) - at(padded, e[a] - e[b])
                       - at(padded, e[b] - e[a]) + at(padded, -e[a] - e[b])) / (4.0 * h2)
                out += dab * dab
    if not grid.periodic:
        _zero_ring(out, grid.n)
    return out


def vector_norm(values: np.ndarray) -> np.ndarray:
    """Pointwise Euclidean norm over the component axis of an (N, *sizes) array."""
    return np.sqrt(np.sum(np.square(values), axis=0))


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
    def snapshot_dt(self) -> float:
        if len(self.snapshots) < 2:
            return self.dt
        return self.snapshots[1].t - self.snapshots[0].t

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


def _window_indices(traj: Trajectory, t0: float, R: float) -> np.ndarray:
    times = traj.times
    slack = 1e-12 * max(1.0, abs(t0))
    lo = t0 - R * R
    return np.nonzero((times > lo - slack) & (times <= t0 + slack))[0]


def cylinder_members(traj: Trajectory, q: Cylinder) -> tuple[np.ndarray, np.ndarray]:
    """Validated (ball mask, snapshot indices) of a cylinder inside a trajectory.

    Raises with the failed bound spelled out if the ball leaves the domain or
    fewer than two snapshots intersect the time window.
    """
    grid = traj.grid
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
    idx = _window_indices(traj, q.t0, q.R)
    if len(idx) < 2:
        raise ValueError(
            f"time window ({q.t0 - q.R ** 2}, {q.t0}] intersects only {len(idx)} "
            f"snapshots; at least 2 are required")
    return mask, idx


def cylinder_integrals(traj: Trajectory, terms: Sequence[tuple[Cylinder, float]],
                       field_at: Callable[[int], np.ndarray]) -> list[tuple[float, int]]:
    """Point sum of field_at(k)**power over each (cylinder, power) term, and its point count.

    `field_at` maps a snapshot index to a scalar field on the grid.  Once
    every term is validated, one time-ordered pass over the union of the
    windows evaluates `field_at` once per snapshot, holding one field at a
    time; each term adds its ball's values, raised to its power, in snapshot
    order.  An integral is a sum times h^n times the snapshot spacing.
    """
    members = [cylinder_members(traj, q) for q, _ in terms]
    inside = np.zeros((len(terms), len(traj.snapshots)), dtype=bool)
    for row, (_, idx) in zip(inside, members):
        row[idx] = True
    totals = [0.0] * len(terms)
    for k in np.nonzero(inside.any(axis=0))[0]:
        f = np.asarray(field_at(k), dtype=float)
        if f.shape != traj.grid.sizes:
            raise ValueError("field_at must evaluate to a scalar field on the grid")
        for i in np.nonzero(inside[:, k])[0]:
            v, power = f[members[i][0]], terms[i][1]
            totals[i] += float(np.sum(v if power == 1.0 else np.power(v, power)))
        del f, v   # before the next snapshot's field is built
    return [(total, int(mask.sum()) * len(idx)) for total, (mask, idx) in zip(totals, members)]


# Snapshot file format, bit-exact:
#   magic "PELB", version u32=1, n u8, N u8, boundary u8 (0 periodic, 1 dirichlet),
#   sizes n x u64, h f64, t f64, then N*(prod sizes) f64 values,
#   little-endian, component-major then row-major.

def write_snapshot(path, state: FieldState) -> None:
    grid = state.grid
    head = struct.pack("<4sIBBB", _MAGIC, _VERSION, grid.n, state.n_components,
                       0 if grid.periodic else 1)
    sizes = np.asarray(grid.sizes, dtype="<u8").tobytes()
    scalars = struct.pack("<dd", grid.h, state.t)
    body = np.ascontiguousarray(state.values, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(sizes)
        fh.write(scalars)
        fh.write(body)


def read_snapshot(path) -> FieldState:
    with open(path, "rb") as fh:
        raw = fh.read()
    head = struct.calcsize("<4sIBBB")
    if len(raw) < head:
        raise ValueError(f"{path}: {len(raw)} bytes, shorter than the {head}-byte header")
    magic, version, n, nc, bflag = struct.unpack_from("<4sIBBB", raw, 0)
    if magic != _MAGIC:
        raise ValueError(f"{path}: not a snapshot file (bad magic {magic!r})")
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported snapshot version {version}")
    if bflag not in (0, 1):
        raise ValueError(f"{path}: unknown boundary flag {bflag}")
    if nc == 0:
        raise ValueError(f"{path}: the header declares 0 components")
    off = head + 8 * n + 16
    if len(raw) < off:
        raise ValueError(f"{path}: {len(raw)} bytes, shorter than the {off}-byte header")
    sizes = np.frombuffer(raw, dtype="<u8", count=n, offset=head).astype(int)
    h, t = struct.unpack_from("<dd", raw, head + 8 * n)
    try:
        grid = GridSpec(n, tuple(sizes), h, PERIODIC if bflag == 0 else DIRICHLET)
    except ValueError as exc:
        raise ValueError(f"{path}: invalid grid in the header: {exc}") from exc
    count = nc * math.prod(grid.sizes)
    if len(raw) != off + 8 * count:
        raise ValueError(f"{path}: {len(raw)} bytes where the header implies {off + 8 * count}")
    values = np.frombuffer(raw, dtype="<f8", count=count, offset=off).astype(float)
    values = values.reshape((nc, *grid.sizes))
    bv = None
    if not grid.periodic:
        ring = values[:, grid.boundary_mask]
        uneven = np.nonzero((ring != ring[:, :1]).any(axis=1))[0]
        if uneven.size:
            raise ValueError(f"{path}: boundary layer of component {uneven[0]} is not constant")
        bv = tuple(float(v) for v in ring[:, 0])
    return FieldState(grid=grid, values=values, t=t, boundary_values=bv)
