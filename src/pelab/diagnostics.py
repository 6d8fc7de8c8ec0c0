"""Numerical verification of the quantitative estimates satisfied by the flow.

Every monitor is a pure function of trajectories and returns a CheckReport
carrying the measured series, the tolerance used, and, on failure, a witness
(location / time / radius).  Discrete time derivatives of snapshots are
forward differences aligned with the solver's Euler step, so in the quadratic
case the entropy residual cancels to rounding rather than to truncation.

One `h_minus_one_norm` serves both boundary kinds through one spectral sum:
the energy of the discrete Poisson solution is a Parseval sum of |f_k|^2 over
the symbol of the periodic 2n+1-point Laplacian, taken with `np.fft.rfftn`.
A periodic grid sums over its own modes on the mean-zero subspace (the
contraction statement assumes matching boundary traces, which periodic
wrap-around provides); a Dirichlet grid sums over the odd extension of its
interior, whose periodic modes are the type-I sine (DST-I) modes.

The cylinder monitors (Morrey, reverse Hoelder, estimate ratios) make one
`grid.cylinder_integrals` pass per field over the union of their windows, so
each snapshot's field is computed once and dropped; nothing is memoised.  The
Hoelder seminorm is exact: every point pair with separation in the band, one
integer offset at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .errors import RangeExcursionError
from .grid import (Cylinder, FieldState, GridSpec, Trajectory, _as_components,
                   cylinder_integrals, face_divergence, gradient_sq, hessian_sq,
                   laplacian, vector_norm)
from .potentials import (CoupledCoefficients, EllipticityWindow, EntropyData,
                         RadialPotential, build_entropy, certify_window,
                         grad_Phi_field, quadratic)
from .solver import RunConfig, _abort_if_outside, run


@dataclass
class CheckReport:
    """Outcome of one named check."""

    name: str
    passed: bool
    values: dict = field(default_factory=dict)
    tolerance: float | dict | None = None
    provenance: str = ""
    witness: dict | None = None

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

def _laplacian_symbol(sizes: Sequence[int], h: float) -> np.ndarray:
    """Eigenvalues of the periodic 2n+1-point -Lap on the bins `np.fft.rfftn` keeps.

    The DFT modes k = 0..m-1 per axis, k = 0..m//2 on the last; the k = 0
    eigenvalue is inf, so that the mean drops out.
    """
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
    mu = _laplacian_symbol(comps.shape[1:], grid.h)
    energy = (np.square(spec.real) + np.square(spec.imag)) / mu
    m = comps.shape[-1]
    energy[..., 1:(m + 1) // 2] *= 2.0   # the bins whose conjugates rfftn drops
    return math.sqrt(float(energy.sum()) * grid.cell_volume() / (comps[0].size * copies))


def l2_norm(values: np.ndarray, grid: GridSpec) -> float:
    """Discrete L^2 norm sqrt(sum f^2 h^n) over interior points."""
    comps = _as_components(values, grid)
    core = grid.interior_slices
    return math.sqrt(float(np.sum(np.square(comps[(slice(None), *core)])))
                     * grid.cell_volume())


# ---------------------------------------------------------------------------
# contraction

def _require_matched(traj0: Trajectory, traj1: Trajectory) -> None:
    if traj0.grid != traj1.grid:
        raise ValueError("mismatched runs: grids differ")
    if traj0.n_components != traj1.n_components:
        raise ValueError("mismatched runs: component counts differ")
    if abs(traj0.dt - traj1.dt) > 1e-12 * max(traj0.dt, traj1.dt):
        raise ValueError("mismatched runs: time steps differ")
    if len(traj0.snapshots) != len(traj1.snapshots) or \
            np.max(np.abs(traj0.times - traj1.times)) > 1e-9 * max(traj0.times[-1], 1e-300):
        raise ValueError("mismatched runs: snapshot times differ")
    if not traj0.grid.periodic:
        if traj0.snapshots[0].boundary_values != traj1.snapshots[0].boundary_values:
            raise ValueError("mismatched runs: boundary data differ")


def contraction_report(traj0: Trajectory, traj1: Trajectory,
                       window: EllipticityWindow, rel_tol: float = 1e-10,
                       name: str = "contraction") -> CheckReport:
    """Monotone non-increase of the H^-1 distance between two runs.

    The pass/fail verdict is plain monotonicity of d(t) within `rel_tol`
    relative per step.  The exponentially weighted series exp(2 lam t) d(t)^2
    and the best-fit decay exponent are recorded as information only; no sign
    of the exponent is asserted.
    """
    _require_matched(traj0, traj1)
    grid = traj0.grid
    times = traj0.times
    d = np.array([h_minus_one_norm(traj1.snapshots[k].values - traj0.snapshots[k].values, grid)
                  for k in range(len(times))])

    witness = None
    monotone = True
    for k in range(len(d) - 1):
        if d[k + 1] - d[k] > rel_tol * d[k]:
            monotone = False
            witness = {"step": k + 1, "t": float(times[k + 1]),
                       "d_prev": float(d[k]), "d_next": float(d[k + 1])}
            break

    weighted = np.exp(2.0 * window.lam * (times - times[0])) * d * d
    weighted_monotone = bool(np.all(np.diff(weighted) <= rel_tol * weighted[:-1]))

    rate = float("nan")
    alive = d > max(d[0], 1e-300) * 1e-12
    if alive.sum() >= 2 and d[0] > 0:
        rate = float(np.polyfit(times[alive], np.log(d[alive]), 1)[0])

    return CheckReport(
        name=name, passed=monotone, tolerance=rel_tol,
        provenance=_provenance(traj0, traj1), witness=witness,
        values={"times": times, "d": d, "monotone": monotone,
                "weighted_monotone": weighted_monotone,
                "lam": window.lam, "rate_fit": rate})


# ---------------------------------------------------------------------------
# boundedness

def sup_norm_report(traj: Trajectory, tol: float = 1e-10,
                    name: str = "sup-norm") -> CheckReport:
    """sup |u(t)| <= max(initial sup, running boundary sup) + tol, per snapshot."""
    sups = []
    bounds = []
    witness = None
    passed = True
    boundary_running = 0.0
    initial_sup = float(vector_norm(traj.snapshots[0].values).max())
    for k, snap in enumerate(traj.snapshots):
        boundary_running = max(boundary_running, snap.boundary_sup())
        r = vector_norm(snap.values)
        s = float(r.max())
        bound = max(initial_sup, boundary_running)
        sups.append(s)
        bounds.append(bound)
        if passed and s > bound + tol:
            passed = False
            loc = tuple(int(i) for i in np.unravel_index(int(r.argmax()), traj.grid.sizes))
            witness = {"snapshot": k, "t": float(snap.t), "sup": s,
                       "bound": bound, "location": loc}
    return CheckReport(name=name, passed=passed, tolerance=tol,
                       provenance=_provenance(traj),
                       values={"times": traj.times, "sup": np.array(sups),
                               "bound": np.array(bounds)}, witness=witness)


# ---------------------------------------------------------------------------
# entropy subsolution residuals

def _residual_report(traj: Trajectory, r_max: float, at: Callable[[FieldState], np.ndarray],
                     spatial: Callable[[np.ndarray, FieldState], np.ndarray], coef: float,
                     tau: float | None, name: str, extra: dict) -> CheckReport:
    """Positive part of (q_next - q_now)/dt - spatial(q_now) + coef |grad u|^2 per pair.

    q = at(snapshot); spatial(q, snapshot) is the spatial operator applied at
    the earlier snapshot of a consecutive pair.  A snapshot with |u| beyond
    r_max aborts with the location and time of the first offender.  The
    report carries the maximum and 99th percentile of the positive part, the
    maximum magnitude, and `extra`; with tau = None it always passes.
    """
    spacing = traj.snapshot_dt
    if abs(spacing - traj.dt) > 1e-9 * traj.dt:
        raise ValueError("residual checks need consecutive snapshots "
                         "(snapshot_every = 1 over the checked span)")
    if len(traj.snapshots) < 2:
        raise ValueError("residual checks need at least two snapshots")
    for snap in traj.snapshots:
        _abort_if_outside(vector_norm(snap.values), r_max, snap.t)

    grid, times = traj.grid, traj.times
    core = grid.interior_slices
    max_pos = max_abs = 0.0
    pos_pool = []
    witness = None
    q_now = at(traj.snapshots[0])
    for k in range(len(traj.snapshots) - 1):
        q_next = at(traj.snapshots[k + 1])
        snap = traj.snapshots[k]
        res = ((q_next - q_now) / spacing - spatial(q_now, snap)
               + coef * gradient_sq(snap.values, grid))[core]
        max_abs = max(max_abs, float(np.abs(res).max()))
        pos = res[res > 0.0]
        if pos.size:
            pos_pool.append(pos)
            m = float(pos.max())
            if m > max_pos:
                max_pos = m
                loc = tuple(int(i) for i in np.unravel_index(int(res.argmax()), res.shape))
                witness = {"pair": k, "t": float(times[k]), "location": loc, "value": m}
        q_now = q_next
    pooled = np.concatenate(pos_pool) if pos_pool else np.zeros(1)
    stats = {"max_pos": max_pos, "p99_pos": float(np.percentile(pooled, 99.0)),
             "max_abs": max_abs, "pairs": len(traj.snapshots) - 1,
             "h": grid.h, "dt": traj.dt, "tau": tau, **extra}
    passed = True if tau is None else max_pos <= tau
    return CheckReport(name=name, passed=passed, tolerance=tau,
                       provenance=_provenance(traj), values=stats,
                       witness=None if passed else witness)


def entropy_residual_diffusion(traj: Trajectory, p: RadialPotential,
                               ent: EntropyData, window: EllipticityWindow,
                               tau: float | None = None,
                               name: str = "entropy-diffusion") -> CheckReport:
    """Positive part of D_t phi(|u|) - Lap gamma(phi(|u|)) + lam^2 |grad u|^2.

    The continuum quantity is nonpositive; the discrete positive part is pure
    scheme error and must stay below tau = K (h^2 + dt) and shrink under
    refinement.  With tau = None the report is informational (always passes).
    """
    return _residual_report(
        traj, p.r_max,
        lambda snap: np.asarray(p.phi(vector_norm(snap.values)), dtype=float),
        lambda q, snap: laplacian(np.asarray(ent.gamma(q), dtype=float), traj.grid),
        window.lam * window.lam, tau, name, {})


def calibrate_residual_constant(config: RunConfig) -> float:
    """Fit K in tau(h) = K (h^2 + dt) on the quadratic case.

    For the quadratic potential the continuum residual vanishes identically
    and the forward-difference alignment makes the discrete positive part
    cancel to rounding, so the magnitude |residual| is the pure scheme-error
    scale for data of this shape; K is its ratio to h^2 + dt.
    """
    amp = float(config.initial.get("amplitude", 0.5))
    q = quadratic(r_max=max(2.0, 2.0 * amp))
    cfg = replace(config, potential=q, system="diffusion", snapshot_every=1)
    traj = run(cfg)
    rep = entropy_residual_diffusion(traj, q, build_entropy(q), certify_window(q))
    h, dt = traj.grid.h, traj.dt
    return rep.values["max_abs"] / (h * h + dt)


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


def entropy_residual_coupled(traj: Trajectory, cc: CoupledCoefficients,
                             s: float, c: float, tau: float | None = None,
                             name: str = "entropy-coupled") -> CheckReport:
    """Positive part of D_t v - div(A grad v) + c |grad u|^2 with v = exp(s H(u)).

    A = a + c^i H_{z_i} pointwise; the divergence uses the same conservative
    face averaging as the coupled step.  Degenerate H = 0 systems are routed
    to the diffusion check instead (the bound c |grad u|^2 <= 0 cannot hold
    for non-constant data without the vanishing flux term).
    """
    if cc.bounds["sup_Hzz"] == 0.0:
        raise ValueError("H vanishes identically; use the diffusion entropy check")

    def v(snap: FieldState) -> np.ndarray:
        r = vector_norm(snap.values)
        return np.exp(s * (np.asarray(cc.H_profile(r), dtype=float) + np.zeros_like(r)))

    def div_A_grad(v_now: np.ndarray, snap: FieldState) -> np.ndarray:
        r = vector_norm(snap.values)
        A = np.asarray(cc.a(r), dtype=float) + np.zeros_like(r) \
            + np.sum(np.asarray(cc.c(snap.values, r), dtype=float)
                     * np.asarray(cc.H_z(snap.values, r), dtype=float), axis=0)
        return face_divergence(A, v_now[None], None, None, traj.grid)[0]

    return _residual_report(traj, cc.r_max, v, div_A_grad, c, tau, name, {"s": s, "c": c})


# ---------------------------------------------------------------------------
# Morrey decay

def morrey_profile(traj: Trajectory, point: tuple, radii: Sequence[float],
                   g: Callable[[FieldState], np.ndarray] | None = None,
                   exponent: float | None = None) -> list[tuple[float, float]]:
    """Scaled cylinder integrals R^-exponent * iint_{Q(x0,t0,R)} g, largest R first.

    `point` is (x0 coordinates, t0); the default g is |grad u|^2 with the
    default exponent n.  The variant g = |grad u|^4 with exponent n - 2 probes
    the singular-set bound of bounded solutions.  Radii below 4h are rejected
    as noise.
    """
    x0, t0 = point
    g = g or (lambda snap: gradient_sq(snap.values, snap.grid))
    expo = traj.grid.n if exponent is None else float(exponent)
    cell = traj.grid.cell_volume() * traj.snapshot_dt
    radii = sorted(radii, reverse=True)
    for R in radii:
        if R < 4.0 * traj.grid.h * (1.0 - 1e-12):
            raise ValueError(f"radius {R} is below the 4h = {4 * traj.grid.h} floor")
    terms = [(Cylinder(center=tuple(x0), t0=float(t0), R=float(R)), 1.0) for R in radii]
    sums = cylinder_integrals(traj, terms, lambda k: g(traj.snapshots[k]))
    return [(float(R), total * cell / R ** expo) for R, (total, _) in zip(radii, sums)]


def morrey_report(traj: Trajectory, points: Sequence[tuple], radii: Sequence[float],
                  g: Callable[[FieldState], np.ndarray] | None = None,
                  decay_factor: float = 0.5, name: str = "morrey") -> CheckReport:
    """Decay check: the smallest-R quotient is at most `decay_factor` times the largest-R one."""
    profiles = []
    witness = None
    passed = True
    for pt in points:
        prof = morrey_profile(traj, pt, radii, g=g)
        profiles.append({"point": list(pt[0]), "t0": pt[1],
                         "radii": [r for r, _ in prof],
                         "values": [v for _, v in prof]})
        largest, smallest = prof[0][1], prof[-1][1]
        ok = smallest <= decay_factor * largest or (largest == 0.0 and smallest == 0.0)
        if passed and not ok:
            passed = False
            witness = {"point": list(pt[0]), "t0": pt[1],
                       "value_smallest_R": smallest, "value_largest_R": largest}
    return CheckReport(name=name, passed=passed, tolerance=decay_factor,
                       provenance=_provenance(traj),
                       values={"profiles": profiles}, witness=witness)


# ---------------------------------------------------------------------------
# reverse Hoelder and the interior estimate ratios

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
    if p <= 2.0:
        raise ValueError("the exponent must exceed 2")
    terms = [term for q in cylinders
             for term in ((Cylinder(center=q.center, t0=q.t0, R=4.0 * q.R), 1.0), (q, 0.5 * p))]
    sums = cylinder_integrals(traj, terms,
                              lambda k: gradient_sq(traj.snapshots[k].values, traj.grid))
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
    grid = traj.grid
    spacing = traj.snapshot_dt
    cell = grid.cell_volume() * spacing
    if any(small.R >= big.R for small, big in pairs):
        raise ValueError("nested pairs need r < R")
    smalls = [(small, 1.0) for small, _ in pairs]

    def ut2(k: int) -> np.ndarray:
        if k + 1 >= len(traj.snapshots):
            raise ValueError("u_t forward difference needs a successor snapshot; "
                             "place the small cylinder before the final time")
        d = (traj.snapshots[k + 1].values - traj.snapshots[k].values) / spacing
        return np.sum(d * d, axis=0)

    # one pass per field: |grad u|^2 on Q_R and, squared, on Q_r; |u_t|^2; |grad^2 gradPhi|^2
    nested = [term for small, big in pairs for term in ((big, 1.0), (small, 2.0))]
    grad = cylinder_integrals(traj, nested,
                              lambda k: gradient_sq(traj.snapshots[k].values, grid))
    ut = cylinder_integrals(traj, smalls, ut2)
    hess = cylinder_integrals(
        traj, smalls, lambda k: hessian_sq(grad_Phi_field(p, traj.snapshots[k].values), grid))
    sup_u = max(float(vector_norm(s.values).max()) for s in traj.snapshots)
    per_pair = []
    for j, (small, big) in enumerate(pairs):
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
