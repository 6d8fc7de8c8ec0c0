"""Numerical verification of the quantitative estimates satisfied by the flow.

Every monitor returns a CheckReport carrying the measured series, the
tolerance used, and, on failure, a witness (location / time / radius).
Discrete time derivatives of snapshots are forward differences aligned with
the solver's Euler step, so in the quadratic case the entropy residual
cancels to rounding rather than to truncation.

One `h_minus_one_norm` serves both boundary kinds through one spectral sum:
the energy of the discrete Poisson solution is a Parseval sum of |f_k|^2 over
the symbol of the periodic 2n+1-point Laplacian, taken with `np.fft.rfftn`.
A periodic grid sums over its own modes on the mean-zero subspace (the
contraction statement assumes matching boundary traces, which periodic
wrap-around provides); a Dirichlet grid sums over the odd extension of its
interior, whose periodic modes are the type-I sine (DST-I) modes.

Every monitor is a fold fed one snapshot at a time, whose `report` is the
verdict on what it was fed: `_SupFold`, `_ContractionFold` (it stores the first
of its two runs), `_ResidualFold`, and `_MorreyFold`, `_ReverseHolderFold` and
`_EstimateFold` on `grid._CylinderFold`, which evaluate a field once per snapshot
in the union of their windows, with no memo.  A monitor called with a
`Trajectory` replays it into its fold (`grid._replay`); `pelab verify` and a
sweep cell feed the same folds each snapshot as their runs make it.  Their
|grad u|^2 is the unchecked `_gradient_sq`, over one plan per fold.
The Hoelder seminorm is exact: every point pair with separation in the band,
one integer offset at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .errors import RangeExcursionError
from .grid import (Cylinder, FieldState, GridSpec, Trajectory, _as_components,
                   _CylinderFold, _face_divergence, _gradient_sq, _laplacian, _replay,
                   _shift_plans, hessian_sq, vector_norm)
from .potentials import (CoupledCoefficients, EllipticityWindow, EntropyData,
                         RadialPotential, build_entropy, certify_window,
                         grad_Phi_field, quadratic)
from .solver import RunConfig, _abort_if_outside


@dataclass
class CheckReport:
    """Outcome of one named check."""

    name: str
    passed: bool
    values: dict = field(default_factory=dict)
    tolerance: float | dict | None = None
    provenance: str = ""
    witness: dict | None = None
    series: tuple[str, list] | None = None   # (CSV header, rows); not in to_json

    def to_json(self) -> dict:
        def conv(x):
            if isinstance(x, np.ndarray):
                return x.tolist()
            if isinstance(x, (np.floating, np.integer)):
                return x.item()
            if isinstance(x, dict):
                return {k: conv(v) for k, v in x.items()}
            if isinstance(x, (list, tuple)):
                return [conv(v) for v in x]
            return x

        return {
            "name": self.name,
            "passed": bool(self.passed),
            "values": conv(self.values),
            "tolerance": conv(self.tolerance),
            "provenance": self.provenance,
            "witness": conv(self.witness),
        }


def _provenance(*trajs: Trajectory) -> str:
    return "+".join(t.meta.get("config_hash", "")[:16] for t in trajs)


# ---------------------------------------------------------------------------
# discrete Poisson problems and the H^-1 norm

def _laplacian_symbol(grid: GridSpec) -> np.ndarray:
    """Eigenvalues of the periodic 2n+1-point -Lap on the bins `np.fft.rfftn` keeps.

    The grid transformed is `grid` itself when periodic and the odd extension
    of a Dirichlet grid's interior (2m - 2 points an axis) otherwise.  The DFT
    modes k = 0..m-1 per axis, k = 0..m//2 on the last; the k = 0 eigenvalue
    is inf, so that the mean drops out.
    """
    sizes, h = [m if grid.periodic else 2 * m - 2 for m in grid.sizes], grid.h
    mu = np.zeros(())
    for a, m in enumerate(sizes):
        s = np.sin(np.pi * np.arange(m // 2 + 1 if a == len(sizes) - 1 else m) / m)
        shape = [1] * len(sizes)
        shape[a] = -1
        mu = mu + (4.0 / (h * h) * s * s).reshape(shape)
    mu[(0,) * len(sizes)] = np.inf
    return mu


def h_minus_one_norm(values: np.ndarray, grid: GridSpec) -> float:
    """Energy norm sqrt(sum |grad w|^2 h^n) of the solution of -Lap w = f.

    By summation by parts the energy is <f, w> h^n, which Parseval turns into
    h^n / M sum_k |f_k|^2 / mu_k over the M-point DFT, with no inverse
    transform.  Periodic grids: the mean-zero subspace, a seminorm over the
    whole domain.  Dirichlet grids: the interior v, odd-extended along each
    axis to [0, v, 0, -v reversed], whose periodic modes are the DST-I modes
    of v; the extension holds 2^n copies of the energy.  Boundary entries of
    f are ignored and w vanishes on the layer.  Vector inputs return the root
    of the sum of the squared component norms.
    """
    comps = _as_components(values, grid)
    axes = tuple(range(1, grid.n + 1))
    copies = 1
    if not grid.periodic:
        comps = comps[(slice(None), *grid.interior_slices)]
        for a in axes:
            zero = np.zeros_like(comps.take([0], axis=a))
            comps = np.concatenate([zero, comps, zero, -np.flip(comps, axis=a)], axis=a)
        copies = 2 ** grid.n
    spec = np.fft.rfftn(comps, axes=axes)
    energy = (np.square(spec.real) + np.square(spec.imag)) / _laplacian_symbol(grid)
    m = comps.shape[-1]
    energy[..., 1:(m + 1) // 2] *= 2.0   # the bins whose conjugates rfftn drops
    return math.sqrt(float(energy.sum()) * grid.cell_volume() / (comps[0].size * copies))


# ---------------------------------------------------------------------------
# contraction

class _ContractionFold:
    """The contraction loop, fed runs 0 and 1 as feed(0 or 1, snapshot), one run
    after the other in either order: it stores the first, and each snapshot of
    the other gives the H^-1 norm of run 1's minus run 0's snapshot of the same
    index.  A snapshot it cannot match raises."""

    def __init__(self, window: EllipticityWindow, rel_tol: float = 1e-10):
        self.window, self.rel_tol = window, rel_tol
        self.first, self.stored, self.d = None, [], []

    def feed(self, side: int, snap: FieldState) -> None:
        if self.first in (None, side):
            self.first = side
            self.stored.append(snap)
            return
        ref, k = self.stored, len(self.d)
        if snap.grid != ref[0].grid:
            raise ValueError("mismatched runs: grids differ")
        if snap.n_components != ref[0].n_components:
            raise ValueError("mismatched runs: component counts differ")
        if k >= len(ref) or abs(snap.t - ref[k].t) > 1e-9 * max(ref[-1].t, 1e-300):
            raise ValueError("mismatched runs: snapshot times differ")
        if k == 0 and not snap.grid.periodic and snap.boundary_values != ref[0].boundary_values:
            raise ValueError("mismatched runs: boundary data differ")
        one, zero = (snap, ref[k]) if side == 1 else (ref[k], snap)
        self.d.append(h_minus_one_norm(one.values - zero.values, snap.grid))

    def report(self, traj0: Trajectory, traj1: Trajectory, name: str,
               decay_ratio_target: float | None = None, rtol: float = 0.02) -> CheckReport:
        """The verdict on the snapshots fed, of runs 0 and 1 (their dt and provenance),
        and with a target, of the decay ratio d(T)/d(0) within `rtol` relative."""
        rel_tol, lam = self.rel_tol, self.window.lam
        if abs(traj0.dt - traj1.dt) > 1e-12 * max(traj0.dt, traj1.dt):
            raise ValueError("mismatched runs: time steps differ")
        if len(self.d) != len(self.stored):
            raise ValueError("mismatched runs: snapshot times differ")
        times, d = np.array([s.t for s in self.stored]), np.array(self.d)

        witness = None
        for k in range(len(d) - 1):
            if d[k + 1] - d[k] > rel_tol * d[k]:
                witness = {"step": k + 1, "t": float(times[k + 1]),
                           "d_prev": float(d[k]), "d_next": float(d[k + 1])}
                break
        monotone = witness is None

        weighted = np.exp(2.0 * lam * (times - times[0])) * d * d
        weighted_monotone = bool(np.all(np.diff(weighted) <= rel_tol * weighted[:-1]))

        rate = float("nan")
        alive = d > max(d[0], 1e-300) * 1e-12
        if alive.sum() >= 2 and d[0] > 0:
            rate = float(np.polyfit(times[alive], np.log(d[alive]), 1)[0])

        rep = CheckReport(
            name=name, passed=monotone, tolerance=rel_tol,
            provenance=_provenance(traj0, traj1), witness=witness,
            values={"times": times, "d": d, "monotone": monotone,
                    "weighted_monotone": weighted_monotone,
                    "lam": lam, "rate_fit": rate},
            series=("t,d", list(zip(times, d))))
        target = decay_ratio_target
        if target is not None:
            measured = float(d[-1] / d[0]) if d[0] > 0 else float("nan")
            rep.values.update(decay_ratio=measured, decay_ratio_target=target)
            if not (math.isfinite(measured) and abs(measured - target) <= rtol * target):
                rep.passed = False
                rep.witness = {"decay_ratio": measured, "target": target, "rtol": rtol}
        return rep


def contraction_report(traj0: Trajectory, traj1: Trajectory,
                       window: EllipticityWindow, rel_tol: float = 1e-10,
                       name: str = "contraction") -> CheckReport:
    """Monotone non-increase of the H^-1 distance between two runs.

    The pass/fail verdict is plain monotonicity of d(t) within `rel_tol`
    relative per step.  The exponentially weighted series exp(2 lam t) d(t)^2
    and the best-fit decay exponent are recorded as information only; no sign
    of the exponent is asserted.
    """
    fold = _replay(traj0, _ContractionFold(window, rel_tol), 0)
    return _replay(traj1, fold, 1).report(traj0, traj1, name)


# ---------------------------------------------------------------------------
# boundedness

class _SupFold:
    """The sup-norm loop, fed snapshots in time order: sup |u| of each against
    max(initial sup, running boundary sup) + tol; the first excess is the witness."""

    def __init__(self, tol: float = 1e-10):
        self.tol, self.times, self.sups, self.bounds = tol, [], [], []
        self.witness, self.boundary_running = None, 0.0

    def feed(self, snap: FieldState) -> None:
        r = vector_norm(snap.values)
        s = float(r.max())
        self.boundary_running = max(self.boundary_running, snap.boundary_sup())
        bound = max(self.sups[0] if self.sups else s, self.boundary_running)
        if self.witness is None and s > bound + self.tol:
            loc = tuple(int(i) for i in np.unravel_index(int(r.argmax()), snap.grid.sizes))
            self.witness = {"snapshot": len(self.sups), "t": float(snap.t), "sup": s,
                            "bound": bound, "location": loc}
        self.times.append(snap.t)
        self.sups.append(s)
        self.bounds.append(bound)

    def report(self, traj: Trajectory, name: str) -> CheckReport:
        """The verdict on the snapshots fed, of the run `traj` (its provenance)."""
        times = np.array(self.times)
        return CheckReport(name=name, passed=self.witness is None, tolerance=self.tol,
                           provenance=_provenance(traj),
                           values={"times": times, "sup": np.array(self.sups),
                                   "bound": np.array(self.bounds)}, witness=self.witness,
                           series=("t,sup,bound", list(zip(times, self.sups, self.bounds))))


def sup_norm_report(traj: Trajectory, tol: float = 1e-10,
                    name: str = "sup-norm") -> CheckReport:
    """sup |u(t)| <= max(initial sup, running boundary sup) + tol, per snapshot."""
    return _replay(traj, _SupFold(tol)).report(traj, name)


# ---------------------------------------------------------------------------
# entropy subsolution residuals

class _ResidualFold:
    """The one residual loop, fed snapshots in time order.

    Per consecutive pair, the positive part of (q_next - q_now)/spacing -
    spatial(q_now) + coef |grad u|^2 with q = at(snapshot, r), spatial(q,
    snapshot, r, out, work) and |grad u|^2 (`grad`) taken at the earlier
    snapshot, r = |u| computed once per snapshot and spacing that of the first
    pair.  A snapshot with |u| beyond r_max aborts with the location and time
    of the first offender.  Each snapshot's spatial term and |grad u|^2 are
    made when it is fed, so `grad` is the last snapshot's, for a cylinder fold
    to read.  The fold owns one workspace, made at its first snapshot: the norm,
    the spatial term, `grad`, the residual and scratch slabs (at least five, and
    one per component), in which the residual is assembled in place.  It holds
    the last snapshot's q and two running maxima, so its memory does not grow
    with the pair count; `stats` raises if fewer than two snapshots were fed.
    """

    def __init__(self, grid: GridSpec, r_max: float,
                 at: Callable[[FieldState, np.ndarray], np.ndarray],
                 spatial: Callable[..., np.ndarray], coef: float):
        self.grid, self.r_max, self.at, self.spatial, self.coef = grid, r_max, at, spatial, coef
        self.plans = _shift_plans(grid, (1, -1))   # validated snapshots: unchecked kernels
        self.max_pos = self.max_abs = 0.0
        self.witness, self.last, self.pairs, self.spacing = None, None, 0, None
        self.space = self.grad = None

    def feed(self, snap: FieldState) -> None:
        if self.space is None:
            self.space = np.empty((4 + max(5, snap.n_components), *self.grid.sizes))
            self.grad = self.space[2]
        r, spatial, grad, res = self.space[:4]
        work = self.space[4:]
        r = _abort_if_outside(vector_norm(snap.values, r, work[:snap.n_components]),
                              self.r_max, snap.t)
        q = self.at(snap, r)
        if self.last is not None:
            t_now, q_now = self.last
            if self.pairs == 0:
                self.spacing = snap.t - t_now
            np.subtract(q, q_now, out=res)
            res /= self.spacing
            res -= spatial
            res += np.multiply(self.coef, grad, out=spatial)
            res = res[self.grid.interior_slices]
            m = float(res.max())
            if m > self.max_pos:
                self.max_pos = m
                loc = tuple(int(i) for i in np.unravel_index(int(res.argmax()), res.shape))
                self.witness = {"pair": self.pairs, "t": t_now, "location": loc, "value": m}
            self.max_abs = max(self.max_abs, float(np.abs(res, out=res).max()))
            self.pairs += 1
        self.spatial(q, snap, r, spatial, work)
        _gradient_sq(snap.values, self.grid, self.plans, grad, work[0])
        self.last = (snap.t, q)

    def stats(self) -> dict:
        if not self.pairs:
            raise ValueError("residual checks need at least two snapshots")
        return {"max_pos": self.max_pos, "max_abs": self.max_abs, "pairs": self.pairs}

    def report(self, traj: Trajectory, tau: float | None, name: str, **extra) -> CheckReport:
        """`stats` and `extra`, of the run `traj`; with tau = None it always passes."""
        if self.spacing is not None and abs(self.spacing - traj.dt) > 1e-9 * traj.dt:
            raise ValueError("residual checks need consecutive snapshots "
                             "(snapshot_every = 1 over the checked span)")
        stats = {**self.stats(), "h": traj.grid.h, "dt": traj.dt, "tau": tau, **extra}
        passed = True if tau is None else self.max_pos <= tau
        return CheckReport(name=name, passed=passed, tolerance=tau,
                           provenance=_provenance(traj), values=stats,
                           witness=None if passed else self.witness)


def _rungs_report(folds: Sequence[_ResidualFold], trajs: Sequence[Trajectory], sizes,
                  K: float, name: str, **extra) -> CheckReport:
    """The entropy checks' verdict on the residual folds of their rungs, coarse to fine:
    each positive part at most tau = K (h^2 + dt), and each at most half the last
    rung's, unless below the rounding floor (identically zero parts pass vacuously)."""
    per_size, passed, witness, prev_pos = [], True, None, None
    for size, fold, traj in zip(sizes, folds, trajs):
        rep = fold.report(traj, K * (traj.grid.h ** 2 + traj.dt), name)
        per_size.append({"size": size, **{k: v for k, v in rep.values.items() if k != "pairs"}})
        passed, witness = passed and rep.passed, witness or rep.witness
        floor = 1e-12 * max(1.0, fold.max_abs)
        if prev_pos is not None and not fold.max_pos <= max(0.5 * prev_pos, floor):
            passed = False
            witness = witness or {"refinement": {"coarse_pos": prev_pos, "fine_pos": fold.max_pos}}
        prev_pos = fold.max_pos
    return CheckReport(name=name, passed=passed, tolerance={"K": K},
                       values={"K": K, "per_size": per_size, **extra}, witness=witness)


def _diffusion_fold(grid: GridSpec, p: RadialPotential, ent: EntropyData,
                    window: EllipticityWindow) -> _ResidualFold:
    """The residual fold of `entropy_residual_diffusion`."""
    plans = _shift_plans(grid, (-1, 1))

    def lap_gamma(q, snap, r, out, work):   # gamma(q) into work[4]; the rest scratch
        return _laplacian(ent.gamma(q, work[4], list(work[:4])), grid, work[0], plans, out)
    return _ResidualFold(grid, p.r_max, lambda snap, r: np.asarray(p.phi(r), dtype=float),
                         lap_gamma, window.lam * window.lam)


def entropy_residual_diffusion(traj: Trajectory, p: RadialPotential,
                               ent: EntropyData, window: EllipticityWindow,
                               tau: float | None = None,
                               name: str = "entropy-diffusion") -> CheckReport:
    """Positive part of D_t phi(|u|) - Lap gamma(phi(|u|)) + lam^2 |grad u|^2.

    The continuum quantity is nonpositive; the discrete positive part is pure
    scheme error and must stay below tau = K (h^2 + dt) and shrink under
    refinement.  With tau = None the report is informational (always passes).
    """
    return _replay(traj, _diffusion_fold(traj.grid, p, ent, window)).report(traj, tau, name)


def _calibration(config: RunConfig):
    """The fit of K in tau(h) = K (h^2 + dt) on the quadratic case, for data of
    `config`'s shape: its run config, its observer, and fit(dt), K from what the
    observer was fed; fit keeps two numbers of the fold, so the fold goes with it.

    For the quadratic potential the continuum residual vanishes identically
    and the forward-difference alignment makes the discrete positive part
    cancel to rounding, so the magnitude |residual| is the pure scheme-error
    scale for data of this shape; K is its ratio to h^2 + dt.
    """
    amp = float(config.initial.get("amplitude", 0.5))
    q = quadratic(r_max=max(2.0, 2.0 * amp))
    cfg = replace(config, potential=q, system="diffusion", snapshot_every=1)
    fold, h, seen = _diffusion_fold(cfg.grid, q, build_entropy(q), certify_window(q)), \
        cfg.grid.h, [0, 0.0]

    def observe(snap: FieldState) -> None:
        fold.feed(snap)
        seen[:] = fold.pairs, fold.max_abs

    def fit(dt: float) -> float:
        if not seen[0]:
            raise ValueError("residual checks need at least two snapshots")
        return seen[1] / (h * h + dt)
    return cfg, observe, fit


@dataclass(frozen=True)
class CoupledEntropyParams:
    """Exponent s and dissipation constant c for the coupled entropy exp(s H)."""

    s: float
    c: float
    eps: float
    big_c: float
    lam: float


def choose_entropy_params(cc: CoupledCoefficients, n_dim: int,
                          n_components: int) -> CoupledEntropyParams:
    """Pick (s, c): first eps = lam/2, then s large enough to absorb the cross term.

    C(eps) = (sup|H_zz| sup|c|)^2 / (4 eps) times the dimension factor n N
    (the Cauchy-Schwarz constant of the mixed term), s = max(1, 2 C / lam),
    c = (lam/2) s exp(s inf H).
    """
    lam = min(cc.lam_a, cc.lam_A)
    if lam <= 0.0:
        raise ValueError(f"coupled system is not strictly elliptic: lam = {lam}")
    eps = 0.5 * lam
    big_c = (cc.bounds["sup_Hzz"] * cc.bounds["sup_c"]) ** 2 / (4.0 * eps) \
        * n_dim * n_components
    s = max(1.0, 2.0 * big_c / lam)
    c = 0.5 * lam * s * math.exp(s * cc.bounds["inf_H"])
    return CoupledEntropyParams(s=s, c=c, eps=eps, big_c=big_c, lam=lam)


def _coupled_fold(grid: GridSpec, cc: CoupledCoefficients, s: float, c: float) -> _ResidualFold:
    """The residual fold of `entropy_residual_coupled`."""
    if cc.bounds["sup_Hzz"] == 0.0:
        raise ValueError("H vanishes identically; use the diffusion entropy check")
    plans = _shift_plans(grid, (1, 0), (0, -1))

    def v(snap: FieldState, r: np.ndarray) -> np.ndarray:
        return np.exp(s * (np.asarray(cc.H_profile(r), dtype=float) + np.zeros_like(r)))

    def div_A_grad(v_now, snap, r, out, work):   # A in work[3]; the face arrays work[:3]
        A = np.add(np.asarray(cc.a(r), dtype=float), 0.0, out=work[3])
        A += np.sum(np.asarray(cc.c(snap.values, r), dtype=float)
                    * np.asarray(cc.H_z(snap.values, r), dtype=float), axis=0)
        out.fill(0.0)
        return _face_divergence(A, v_now, None, None, grid, out, *work[:3], plans)
    return _ResidualFold(grid, cc.r_max, v, div_A_grad, c)


def entropy_residual_coupled(traj: Trajectory, cc: CoupledCoefficients,
                             s: float, c: float, tau: float | None = None,
                             name: str = "entropy-coupled") -> CheckReport:
    """Positive part of D_t v - div(A grad v) + c |grad u|^2 with v = exp(s H(u)).

    A = a + c^i H_{z_i} pointwise; the divergence uses the same conservative
    face averaging as the coupled step.  Degenerate H = 0 systems are routed
    to the diffusion check instead (the bound c |grad u|^2 <= 0 cannot hold
    for non-constant data without the vanishing flux term).
    """
    return _replay(traj, _coupled_fold(traj.grid, cc, s, c)).report(traj, tau, name, s=s, c=c)


# ---------------------------------------------------------------------------
# Morrey decay

class _MorreyFold(_CylinderFold):
    """`morrey_profile`'s fold: one cylinder per point and radius, largest R first."""

    def __init__(self, grid: GridSpec, points: Sequence[tuple], radii: Sequence[float],
                 g: Callable[[FieldState], np.ndarray] | None = None,
                 exponent: float | None = None):
        if g is None:
            plans = _shift_plans(grid, (1, -1))
            g = lambda snap: _gradient_sq(snap.values, grid, plans)
        self.points, self.radii = points, sorted(radii, reverse=True)
        self.expo = grid.n if exponent is None else float(exponent)
        for R in self.radii:
            if R < 4.0 * grid.h * (1.0 - 1e-12):
                raise ValueError(f"radius {R} is below the 4h = {4 * grid.h} floor")
        super().__init__(grid, [(Cylinder(center=tuple(x0), t0=float(t0), R=float(R)), 1.0)
                                for x0, t0 in points for R in self.radii],
                         lambda k, snap: g(snap))

    def profiles(self) -> list[list[tuple[float, float]]]:
        """The scaled integrals of the snapshots fed, one profile per point."""
        sums, cell, m = self.result(), self.grid.cell_volume() * self.spacing, len(self.radii)
        return [[(float(R), total * cell / R ** self.expo)
                 for R, (total, _) in zip(self.radii, sums[i * m:(i + 1) * m])]
                for i in range(len(self.points))]

    def report(self, traj: Trajectory, decay_factor: float = 0.5,
               name: str = "morrey") -> CheckReport:
        """The decay verdict on the snapshots fed, of the run `traj` (its provenance): the
        smallest-R quotient is at most `decay_factor` times the largest-R one."""
        profiles = []
        rows = []
        witness = None
        passed = True
        for pt, prof in zip(self.points, self.profiles()):
            profiles.append({"point": list(pt[0]), "t0": pt[1],
                             "radii": [r for r, _ in prof],
                             "values": [v for _, v in prof]})
            rows.extend((pt[1], r, v) for r, v in prof)
            largest, smallest = prof[0][1], prof[-1][1]
            ok = smallest <= decay_factor * largest or (largest == 0.0 and smallest == 0.0)
            if passed and not ok:
                passed = False
                witness = {"point": list(pt[0]), "t0": pt[1],
                           "value_smallest_R": smallest, "value_largest_R": largest}
        return CheckReport(name=name, passed=passed, tolerance=decay_factor,
                           provenance=_provenance(traj), values={"profiles": profiles},
                           witness=witness, series=("t0,R,quotient", rows))


def morrey_profile(traj: Trajectory, points: Sequence[tuple], radii: Sequence[float],
                   g: Callable[[FieldState], np.ndarray] | None = None,
                   exponent: float | None = None) -> list[list[tuple[float, float]]]:
    """Scaled cylinder integrals R^-exponent * iint_{Q(x0,t0,R)} g, largest R first.

    One profile per point of `points`, each point (x0 coordinates, t0), all
    from one cylinder pass, so g is evaluated once per snapshot in the union
    of the windows.  The default g is |grad u|^2 with the default exponent n.
    The variant g = |grad u|^4 with exponent n - 2 probes the singular-set
    bound of bounded solutions.  Radii below 4h are rejected as noise.
    """
    return _replay(traj, _MorreyFold(traj.grid, points, radii, g, exponent)).profiles()


# ---------------------------------------------------------------------------
# reverse Hoelder and the interior estimate ratios

class _ReverseHolderFold(_CylinderFold):
    """`reverse_holder_report`'s fold: |grad u|^2 on Q_4R and, to the power p/2, on Q_R."""

    def __init__(self, grid: GridSpec, cylinders: Sequence[Cylinder], p: float):
        if p <= 2.0:
            raise ValueError("the exponent must exceed 2")
        plans = _shift_plans(grid, (1, -1))
        super().__init__(grid, [term for q in cylinders for term in (
            (Cylinder(center=q.center, t0=q.t0, R=4.0 * q.R), 1.0), (q, 0.5 * p))],
                         lambda k, snap: _gradient_sq(snap.values, grid, plans))
        self.p = p

    def report(self, traj: Trajectory, reference: float | None = None, rel_change: float = 0.2,
               name: str = "reverse-holder") -> CheckReport:
        """`reverse_holder_report`'s verdict on the snapshots fed, of the run `traj`."""
        sums, p = self.result(), self.p
        ratios, skipped = [], 0
        for (total4, count4), (total, count) in zip(sums[::2], sums[1::2]):
            rhs2 = total4 / count4
            if rhs2 <= 1e-30:
                skipped += 1
                continue
            ratios.append((total / count) ** (1.0 / p) / math.sqrt(rhs2))
        max_ratio = max(ratios) if ratios else float("nan")
        if reference is None:
            passed = True
        else:
            passed = bool(ratios) and abs(max_ratio - reference) <= rel_change * reference
        witness = None
        if not passed:
            witness = {"max_ratio": max_ratio, "reference": reference}
        return CheckReport(name=name, passed=passed, tolerance=rel_change,
                           provenance=_provenance(traj),
                           values={"ratios": np.array(ratios), "max_ratio": max_ratio,
                                   "skipped": skipped, "p": p, "reference": reference},
                           witness=witness)


def reverse_holder_report(traj: Trajectory, cylinders: Sequence[Cylinder],
                          p: float = 2.5, reference: float | None = None,
                          rel_change: float = 0.2,
                          name: str = "reverse-holder") -> CheckReport:
    """Ratio of the L^p cylinder mean of |grad u| on Q_R to the L^2 mean on Q_4R.

    Cylinders with identically vanishing gradient on the large cylinder are
    skipped and counted.  With a `reference` max ratio from another resolution
    the check passes iff the max changed by at most `rel_change` relatively;
    without one the report is informational.
    """
    fold = _replay(traj, _ReverseHolderFold(traj.grid, cylinders, p))
    return fold.report(traj, reference, rel_change, name)


class _EstimateFold:
    """`estimate_ratio_report`'s fold: one cylinder fold per field and the running
    sup |u|.  u_t is a forward difference, so the |u_t|^2 fold is fed a snapshot
    when the next one comes: the last one fed is held."""

    def __init__(self, grid: GridSpec, p: RadialPotential,
                 pairs: Sequence[tuple[Cylinder, Cylinder]]):
        if any(small.R >= big.R for small, big in pairs):
            raise ValueError("nested pairs need r < R")
        smalls, plans = [(small, 1.0) for small, _ in pairs], _shift_plans(grid, (1, -1))
        grad = self.grad = _CylinderFold(
            grid, [term for small, big in pairs for term in ((big, 1.0), (small, 2.0))],
            lambda k, snap: _gradient_sq(snap.values, grid, plans))
        ahead = self.ahead = []   # the last snapshot fed; the |u_t|^2 fold's successor
        self.ut = _CylinderFold(grid, smalls, lambda k, snap: np.sum(
            np.square((ahead[0].values - snap.values) / grad.spacing), axis=0))
        self.hess = _CylinderFold(grid, smalls, lambda k, snap: hessian_sq(
            grad_Phi_field(p, snap.values), grid))
        self.pairs, self.sup_u = pairs, 0.0

    def feed(self, snap: FieldState) -> None:
        self.grad.feed(snap)
        self.hess.feed(snap)
        self.sup_u = max(self.sup_u, float(vector_norm(snap.values).max()))
        self.ahead.append(snap)
        if len(self.ahead) == 2:   # the last snapshot, now that its successor has come
            self.ut.feed(self.ahead.pop(0))

    def report(self, traj: Trajectory, reference: dict | None = None, rel_change: float = 0.3,
               name: str = "estimate-ratios") -> CheckReport:
        """`estimate_ratio_report`'s verdict on the snapshots fed, of the run `traj`."""
        grad = self.grad.result()
        if self.ahead and any(a < self.ahead[0].t <= b for a, b in self.ut.windows):
            raise ValueError("u_t forward difference needs a successor snapshot; "
                             "place the small cylinder before the final time")
        ut, hess = self.ut.result(), self.hess.result()
        cell, sup_u = traj.grid.cell_volume() * self.grad.spacing, self.sup_u
        per_pair = []
        for j, (small, big) in enumerate(self.pairs):
            gap2 = (big.R - small.R) ** 2
            i_grad, i_l4 = grad[2 * j][0] * cell, grad[2 * j + 1][0] * cell
            i_t, i_hess = ut[j][0] * cell, hess[j][0] * cell
            if i_grad == 0.0:
                ratios = {"ratio_time": 0.0 if i_t == 0.0 else math.inf,
                          "ratio_hess": 0.0 if i_hess == 0.0 else math.inf,
                          "ratio_l4": 0.0 if i_l4 == 0.0 else math.inf}
            else:
                ratios = {"ratio_time": i_t * gap2 / i_grad,
                          "ratio_hess": i_hess * gap2 / i_grad,
                          "ratio_l4": i_l4 * gap2 / (sup_u * sup_u * i_grad)}
            per_pair.append({"r": small.R, "R": big.R, **ratios})

        maxima = {k: max(d[k] for d in per_pair)
                  for k in ("ratio_time", "ratio_hess", "ratio_l4")}
        passed = all(math.isfinite(v) for v in maxima.values())
        witness = None
        if reference is not None:
            for k, v in maxima.items():
                ref = reference[k]
                if not (math.isfinite(v) and abs(v - ref) <= rel_change * max(ref, 1e-300)):
                    passed = False
                    witness = {"ratio": k, "value": v, "reference": ref}
                    break
        elif not passed:
            bad = next(k for k, v in maxima.items() if not math.isfinite(v))
            witness = {"ratio": bad, "value": maxima[bad]}
        return CheckReport(name=name, passed=passed, tolerance=rel_change,
                           provenance=_provenance(traj),
                           values={"pairs": per_pair, "maxima": maxima,
                                   "sup_u": sup_u, "reference": reference},
                           witness=witness)


def estimate_ratio_report(traj: Trajectory, p: RadialPotential,
                          pairs: Sequence[tuple[Cylinder, Cylinder]],
                          reference: dict | None = None, rel_change: float = 0.3,
                          name: str = "estimate-ratios") -> CheckReport:
    """Normalized interior-estimate ratios on nested cylinders Q_r inside Q_R.

    ratio_time  = (R-r)^2 iint_{Q_r} |u_t|^2            / iint_{Q_R} |grad u|^2
    ratio_hess  = (R-r)^2 iint_{Q_r} |grad^2 gradPhi|^2 / iint_{Q_R} |grad u|^2
    ratio_l4    = (R-r)^2 iint_{Q_r} |grad u|^4 / (sup|u|^2 iint_{Q_R} |grad u|^2)

    u_t is the forward snapshot difference, so every snapshot inside a small
    cylinder needs a successor.  Bounded, resolution-stable ratios (within
    `rel_change` against a reference measurement) are the pass criterion.
    """
    fold = _replay(traj, _EstimateFold(traj.grid, p, pairs))
    return fold.report(traj, reference, rel_change, name)


# ---------------------------------------------------------------------------
# empirical Hoelder seminorm

def holder_seminorm(snap: FieldState, alpha: float, band: tuple[float, float]) -> float:
    """Max of |u(x) - u(y)| / |x - y|^alpha over all point pairs with |x-y| in the band.

    Exact: one vectorised pass per integer offset k (one of each pair +-k)
    with |k| h in the band, by `np.roll` when periodic and over the pairs
    inside the box when Dirichlet.  All pairs of one offset share the
    distance |k| h, so band membership does not depend on coordinate
    rounding (the band's ends take its validation's relative slack 1e-12).
    The cost grows with (offsets in the band) x points: about
    (pi/2) (band[1]/h)^2 offsets in 2D, (2 pi/3) (band[1]/h)^3 in 3D.
    Used comparatively across resolutions: a bounded seminorm under
    refinement is the empirical regularity signal.
    """
    grid = snap.grid
    lo, hi = band
    L = min(grid.extent(a) for a in range(grid.n))
    if lo < 2.0 * grid.h * (1.0 - 1e-12) or hi > 0.25 * L * (1.0 + 1e-12):
        raise ValueError(f"band {band} must lie within [2h, extent/4] = "
                         f"[{2 * grid.h}, {0.25 * L}]")

    u = snap.values
    axes = tuple(range(1, grid.n + 1))
    kmax = int(hi * (1.0 + 1e-12) / grid.h)
    best = 0.0
    for k in product(range(-kmax, kmax + 1), repeat=grid.n):
        dist = grid.h * math.sqrt(sum(c * c for c in k))
        if k < (0,) * grid.n or not lo * (1.0 - 1e-12) <= dist <= hi * (1.0 + 1e-12):
            continue
        if grid.periodic:   # u(x + k) - u(x), wrapping
            du = np.roll(u, [-c for c in k], axis=axes) - u
        else:               # the pairs x, x + k that both lie in the box
            ahead = tuple(slice(max(c, 0), m + min(c, 0)) for c, m in zip(k, grid.sizes))
            behind = tuple(slice(max(-c, 0), m + min(-c, 0)) for c, m in zip(k, grid.sizes))
            du = u[(slice(None), *ahead)] - u[(slice(None), *behind)]
        best = max(best, float(np.sqrt(np.sum(du * du, axis=0)).max()) / dist ** alpha)
    return best
