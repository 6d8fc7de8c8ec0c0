"""Radial convex potentials and their constructive companions.

A potential is Phi(z) = phi(|z|) with phi strictly convex, phi(0) = 0 and
phi'(0) = 0.  From phi we derive the ellipticity window (two-sided bounds on
the Hessian of Phi), the scalar entropy nonlinearity gamma with
gamma(phi(z)) = phi'(z)^2 / 2, and the rewrite of the diffusion system as a
strongly coupled system with coefficients a(r) = phi'(r)/r, unit radial
directions c, and H(r) = phi'(r) - integral of phi'(s)/s.

Radial formulas are evaluated with two guards: |z| below 1e-12 is treated as
zero, and phi'(r)/r is replaced by its Taylor value phi''(0) for r < 1e-6 to
avoid catastrophic cancellation (the quotient divides by max(r, 1e-6), so
never by zero).  `grad_Phi_field` writes into buffers given as
`out=`/`work=`, the diffusion step's workspace; left out, the same code runs
on fresh ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConstructionError, ConvexityError, RangeExcursionError
from .grid import vector_norm

EPS_ZERO = 1e-12     # |z| below this is the origin
EPS_TAYLOR = 1e-6    # phi'(r)/r switches to phi''(0) below this

CERT_SAMPLES = 10_001   # 1e4 uniform intervals plus endpoints
TABLE_SIZE = 4096       # uniform intervals of the gamma and H tables
QUAD_TOL = 1e-10        # Simpson budget of a table's cumulative integral


@dataclass(frozen=True)
class RadialPotential:
    """phi and its first two derivatives as vectorized evaluators on [0, r_max]."""

    phi: Callable[[np.ndarray], np.ndarray]
    phi1: Callable[[np.ndarray], np.ndarray]
    phi2: Callable[[np.ndarray], np.ndarray]
    r_max: float
    id: str = "custom"
    table: tuple = field(default=(), repr=False)   # a table's (breakpoints, rows)

    def __post_init__(self):
        if not (self.r_max > 0.0 and math.isfinite(self.r_max)):
            raise ValueError("r_max must be positive and finite")
        if abs(float(self.phi(0.0))) > 1e-12:
            raise ValueError(f"potential '{self.id}' is not normalized: phi(0) != 0")
        if abs(float(self.phi1(0.0))) > 1e-12:
            raise ValueError(f"potential '{self.id}' must have phi'(0) = 0")
        object.__setattr__(self, "phi2_0", float(self.phi2(0.0)))   # phi''(0), once


@dataclass(frozen=True)
class EllipticityWindow:
    """Certified two-sided Hessian bounds lam <= Lam on [0, r_max].

    `samples` and `spacing` record the certification density so downstream
    checks can tighten it; the raw sampled extrema are reported, uninflated.
    """

    lam: float
    Lam: float
    r_max: float
    samples: int
    spacing: float

    def __post_init__(self):
        if not (0.0 < self.lam <= self.Lam < math.inf):
            raise ValueError(f"invalid window: lam={self.lam}, Lam={self.Lam}")


@dataclass(frozen=True)
class EntropyData:
    """Scalar nonlinearity gamma on [0, phi(r_max)] with certified identity residual.

    gamma is strictly increasing, gamma(0) = 0, and
    |gamma(phi(z)) - phi'(z)^2 / 2| <= tol on the sampled range.
    """

    gamma: Callable[[np.ndarray], np.ndarray]
    tol: float
    z_max: float
    table: tuple = field(repr=False, default=())


@dataclass(frozen=True)
class CoupledCoefficients:
    """Coefficients (a, c, H) of the strongly coupled form of a radial system.

    `a` maps the pointwise norm field r to the scalar coefficient (times the
    identity in the space indices), `c` maps an (N, ...) state, and optionally
    its norm field, to unit radial directions.  `H_profile`/`dH_profile` give the
    scalar coupling function H and its derivative as functions of the norm field
    r, so its gradient on a state u is H_z = dH_profile(r) c(u, r).
    The coupled step fills its workspace through two buffered calls: `c(values,
    r, out=, work=)`, `work` a float and a bool array shaped like r, and
    `H_profile(r, out=, work=, a_out=)`, `work` three float arrays shaped like r
    and `a_out`, when given, a(r) from the same evaluation; each left out is
    fresh.  H's table is Horner's (`_uniform_knot_evaluator`): H equals earlier
    releases' to rounding, not bit for bit.
    `bounds` carries sup norms over [0, r_max] plus the effective diffusivity
    used for time-step control.
    """

    a: Callable[[np.ndarray], np.ndarray]
    c: Callable[..., np.ndarray]
    H_profile: Callable[..., np.ndarray]
    dH_profile: Callable[[np.ndarray], np.ndarray]
    bounds: dict
    lam_a: float
    lam_A: float
    r_max: float
    id: str = "coupled"

    def __post_init__(self):
        if not (self.lam_a > 0.0 and self.lam_A > 0.0):
            raise ConvexityError(
                f"coupled coefficients '{self.id}' are not strictly elliptic "
                f"(lam_a={self.lam_a}, lam_A={self.lam_A})")
        for k, v in self.bounds.items():
            if not math.isfinite(v):
                raise ConstructionError(f"bound {k} of '{self.id}' is not finite")


# ---------------------------------------------------------------------------
# built-in potential library (hand-coded derivatives, so consistency is testable)

def quadratic(r_max: float = 2.0) -> RadialPotential:
    """phi(r) = r^2/2; the flow is the componentwise heat equation."""
    return RadialPotential(
        phi=lambda r: 0.5 * np.square(r),
        phi1=lambda r: np.asarray(r, dtype=float) + 0.0,
        phi2=lambda r: np.ones_like(np.asarray(r, dtype=float)),
        r_max=r_max, id="quadratic")


def cosh_potential(r_max: float = 1.0) -> RadialPotential:
    """phi(r) = cosh(r) - 1; the standard smooth non-quadratic example."""
    return RadialPotential(
        phi=lambda r: np.cosh(r) - 1.0,
        phi1=np.sinh,
        phi2=np.cosh,
        r_max=r_max, id="cosh")


def quartic(r_max: float = 1.0) -> RadialPotential:
    """phi(r) = r^2/2 + r^4/4."""
    return RadialPotential(
        phi=lambda r: 0.5 * np.square(r) + 0.25 * np.square(r) ** 2,
        phi1=lambda r: np.asarray(r, dtype=float) + np.asarray(r, dtype=float) ** 3,
        phi2=lambda r: 1.0 + 3.0 * np.square(r),
        r_max=r_max, id="quartic")


def smoothed_porous(eps: float = 0.05, m: int = 6, r_max: float = 1.0) -> RadialPotential:
    """phi(r) = r^2/2 + eps * r^m: a porous-medium-like tail kept strictly convex."""
    if m < 4 or m % 2 != 0:
        raise ValueError("the tail exponent must be an even integer >= 4")
    return RadialPotential(
        phi=lambda r: 0.5 * np.square(r) + eps * np.power(r, m),
        phi1=lambda r: np.asarray(r, dtype=float) + eps * m * np.power(r, m - 1),
        phi2=lambda r: 1.0 + eps * m * (m - 1) * np.power(r, m - 2),
        r_max=r_max, id=f"porous-m{m}")


_BUILTINS: dict[str, Callable[..., RadialPotential]] = {
    "quadratic": quadratic,
    "cosh": cosh_potential,
    "quartic": quartic,
    "porous": smoothed_porous,
}


def builtin_ids() -> tuple[str, ...]:
    return tuple(_BUILTINS)


def get_potential(pid: str, r_max: float | None = None, **params) -> RadialPotential:
    """Look up a built-in potential by id."""
    if pid not in _BUILTINS:
        raise ValueError(f"unknown potential id '{pid}'; known: {sorted(_BUILTINS)}")
    if r_max is not None:
        params["r_max"] = r_max
    return _BUILTINS[pid](**params)


def from_piecewise_poly(breakpoints, coeffs, r_max: float | None = None,
                        pid: str = "table") -> RadialPotential:
    """Potential from a piecewise-polynomial coefficient table.

    `breakpoints` are the k+1 knots of k pieces; `coeffs` has one row of
    descending-power coefficients per piece (scipy PPoly layout transposed).
    Derivatives are exact polynomial derivatives; inputs are clipped to the
    knot range.
    """
    x = np.asarray(breakpoints, dtype=float)
    c = np.asarray(coeffs, dtype=float).T
    if x.ndim != 1 or len(x) < 2 or np.any(np.diff(x) <= 0):
        raise ValueError("breakpoints must be strictly increasing with at least 2 entries")
    if c.ndim != 2 or c.shape[1] != len(x) - 1:
        raise ValueError("one coefficient row per polynomial piece required")
    c1 = _derivative_rows(c)
    c2 = _derivative_rows(c1)
    return RadialPotential(
        phi=_piecewise_evaluator(x, c),
        phi1=_piecewise_evaluator(x, c1),
        phi2=_piecewise_evaluator(x, c2),
        r_max=float(r_max) if r_max is not None else float(x[-1]),
        id=pid, table=(tuple(x.tolist()), tuple(map(tuple, c.T.tolist()))))


def _derivative_rows(c: np.ndarray) -> np.ndarray:
    """Descending-power rows of the piecewise derivative: drop the constant row,
    scale row j of a degree-d table by d - j (a zero row for constant pieces)."""
    if len(c) == 1:
        return np.zeros_like(c)
    return c[:-1] * np.arange(len(c) - 1, 0, -1, dtype=float)[:, None]


def _piecewise_evaluator(x: np.ndarray, c: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Evaluate the pieces c (descending powers, one column per interval of the
    knots x) at r clipped to [x[0], x[-1]], as `PPoly.__call__` does.

    Intervals are half-open [x_i, x_i+1) except the last, which is closed, and
    the sum runs from 0.0 upwards in powers of s = r - x_i: res + c_k s^k.
    """
    def evaluate(r):
        r = np.clip(np.asarray(r, dtype=float), x[0], x[-1])
        i = np.minimum(np.searchsorted(x, r, side="right") - 1, len(x) - 2)
        s = r - x[i]
        res, z = np.where(np.isnan(s), np.nan, 0.0), 1.0
        for row in c[::-1]:
            res = res + row[i] * z
            z = z * s
        return res

    return evaluate


# ---------------------------------------------------------------------------
# radial calculus

def _slope(phi1, r: np.ndarray, phi2_0: float, out: np.ndarray,
           mask: np.ndarray | None = None) -> np.ndarray:
    """`radial_slope` from phi1 = phi'(r) into `out`, for it, the H table and
    `grad_Phi_field`; `mask` (bool, shaped like r) is allocated when left out."""
    np.divide(np.asarray(phi1, dtype=float), np.maximum(r, EPS_TAYLOR, out=out), out=out)
    taylor = np.greater_equal(r, EPS_TAYLOR, out=np.empty(r.shape, bool) if mask is None else mask)
    np.copyto(out, phi2_0, where=np.logical_not(taylor, out=taylor))
    return out


def radial_slope(p: RadialPotential, r: np.ndarray) -> np.ndarray:
    """phi'(r)/r with the Taylor extension phi''(0) below EPS_TAYLOR."""
    r = np.asarray(r, dtype=float)
    out = _slope(p.phi1(r), r, p.phi2_0, np.empty_like(r))
    return out if out.ndim else out[()]


def _check_range(p: RadialPotential, r: float) -> None:
    if r > p.r_max * (1.0 + 1e-12):
        raise RangeExcursionError(
            f"|z| = {r} exceeds the certified range r_max = {p.r_max} "
            f"of potential '{p.id}'")


def grad_Phi(p: RadialPotential, z) -> np.ndarray:
    """Gradient of Phi at a single N-vector: phi'(|z|) z/|z|, zero at the origin."""
    z = np.asarray(z, dtype=float)
    r = float(np.sqrt(np.sum(z * z)))
    _check_range(p, r)
    if r < EPS_ZERO:
        return np.zeros_like(z)
    return float(radial_slope(p, r)) * z


def grad_Phi_field(p: RadialPotential, values: np.ndarray, r: np.ndarray | None = None,
                   out: np.ndarray | None = None, work=None) -> np.ndarray:
    """grad_Phi applied pointwise to an (N, *sizes) array (no range check).

    `r` is the norm field of `values` when the caller already has it; `out`
    and `work`, the slope field and a bool mask, are allocated when left out.
    """
    r = vector_norm(values) if r is None else r
    slope, mask = work or (np.empty_like(r), None)
    g = _slope(p.phi1(r), r, p.phi2_0, slope, mask)
    np.copyto(g, 0.0, where=np.less(r, EPS_ZERO, out=mask))
    return np.multiply(g, values, out=out)


def hessian_Phi(p: RadialPotential, z) -> np.ndarray:
    """Hessian of Phi at a single N-vector.

    Eigenvalues are phi''(r) radially and phi'(r)/r tangentially; at the
    origin the matrix is phi''(0) times the identity.
    """
    z = np.asarray(z, dtype=float)
    n = z.shape[0]
    r = float(np.sqrt(np.sum(z * z)))
    _check_range(p, r)
    if r < EPS_ZERO:
        return p.phi2_0 * np.eye(n)
    g = float(radial_slope(p, r))
    zh = z / r
    return g * np.eye(n) + (float(p.phi2(r)) - g) * np.outer(zh, zh)


def certify_window(p: RadialPotential) -> EllipticityWindow:
    """Sample both Hessian eigenvalue branches densely and report their extrema.

    Raises ConvexityError naming the offending radius when strict convexity
    fails anywhere on [0, r_max], or the first radius where a branch is not
    finite.
    """
    rs = np.linspace(0.0, p.r_max, CERT_SAMPLES)
    branches = np.stack([np.asarray(p.phi2(rs), dtype=float) + np.zeros_like(rs),
                         radial_slope(p, rs)])
    finite = np.isfinite(branches).all(axis=0)
    if not finite.all():
        r_bad = float(rs[int(finite.argmin())])
        raise ConvexityError(
            f"potential '{p.id}' has a non-finite Hessian eigenvalue at r = {r_bad}",
            r=r_bad)
    mins = branches.min(axis=0)
    lam = float(mins.min())
    Lam = float(branches.max())
    if lam <= 0.0:
        r_bad = float(rs[int(mins.argmin())])
        raise ConvexityError(
            f"potential '{p.id}' is not strictly convex: Hessian eigenvalue "
            f"{lam} at r = {r_bad}", r=r_bad)
    return EllipticityWindow(lam=lam, Lam=Lam, r_max=p.r_max,
                             samples=CERT_SAMPLES, spacing=p.r_max / (CERT_SAMPLES - 1))


# ---------------------------------------------------------------------------
# quadrature and inversion helpers

def invert_phi(p: RadialPotential, targets: np.ndarray) -> np.ndarray:
    """Monotone bisection of phi on [0, r_max] to absolute tolerance 1e-12 in r."""
    t = np.atleast_1d(np.asarray(targets, dtype=float))
    lo = np.zeros_like(t)
    hi = np.full_like(t, p.r_max)
    iters = max(1, math.ceil(math.log2(max(p.r_max / 1e-12, 2.0)))) + 2
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        below = np.asarray(p.phi(mid), dtype=float) < t
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    out = 0.5 * (lo + hi)
    return out if np.ndim(targets) else float(out[0])


def cumulative_simpson(f: Callable[[np.ndarray], np.ndarray], x_max: float,
                       segments: int, tol: float) -> np.ndarray:
    """Cumulative integral of f on uniform segments of [0, x_max] by composite Simpson.

    The panel count per segment doubles globally, at most 10 times, until
    the per-segment Richardson error estimate meets the budget tol/segments.
    Returns the cumulative values at the segment endpoints (length
    segments + 1).  f is called once per abscissa: the even points of a level
    are the last level's points bit for bit (`linspace` over twice the
    intervals, and halving the step is exact), so a level keeps their values
    and evaluates f only on its odd points.
    """
    m = segments
    panels = 1
    prev = None
    fx = np.asarray(f(np.linspace(0.0, x_max, 2 * m + 1)), dtype=float) + np.zeros(2 * m + 1)
    for level in range(10):
        pts = 2 * m * panels + 1
        if level:
            odd = np.linspace(0.0, x_max, pts)[1::2]
            kept, fx = fx, np.empty(pts)
            fx[::2] = kept
            fx[1::2] = np.asarray(f(odd), dtype=float) + np.zeros(len(odd))
        step = x_max / (pts - 1)
        coef = np.ones(2 * panels + 1)
        coef[1:-1:2] = 4.0
        coef[2:-1:2] = 2.0
        ids = np.arange(m)[:, None] * (2 * panels) + np.arange(2 * panels + 1)[None, :]
        seg = fx[ids] @ coef * (step / 3.0)
        if prev is not None:
            err = np.abs(seg - prev).max() / 15.0
            if err <= tol / m:
                seg = seg + (seg - prev) / 15.0
                return np.concatenate([[0.0], np.cumsum(seg)])
        prev = seg
        panels *= 2
    raise ConstructionError(
        f"composite Simpson quadrature did not reach tolerance {tol} "
        f"within 10 refinements")


def _uniform_knot_evaluator(x: np.ndarray, y: np.ndarray,
                            dydx: np.ndarray) -> Callable[..., np.ndarray]:
    """Cubic Hermite table through (x, y) with nodal slopes dydx, for knots
    x = np.linspace(0, x_max, m + 1).

    Horner's rule, ((b0 t + b1) t + b2) t + b3, in t = r m / x_max - i on the
    interval i = floor(r m / x_max) clamped to [0, m - 1] (the end polynomials
    extrapolate), over `scipy.interpolate.CubicHermiteSpline`'s coefficients
    scaled by the knot width w^k once, here.  On [0, x_max] that spline's value
    to rounding, not its bits: within 8 eps (sum |c_k| |s|^k + |r| sum k |c_k| |s|^(k-1))
    at r, s = r - x_i (Horner's bound, Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, s. 5.1, and t's rounding), 4 ulp of the largest
    |value| for the built-in tables.  NaN gives NaN, +-inf a non-finite value.

    `evaluate(r, out=None, work=None)` writes into `out` and uses `work`, three
    float arrays shaped like r, as scratch (the last reinterpreted as intp);
    buffers left out are allocated, so both calls run the same code.
    """
    m = len(x) - 1
    scale, w, dx = m / x[-1], x[-1] / m, np.diff(x)
    slope = np.diff(y) / dx
    tt = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
    b = (tt / dx * w ** 3, ((slope - dydx[:-1]) / dx - tt) * w ** 2, dydx[:-1] * w, y[:-1] + 0.0)

    def evaluate(r, out=None, work=None):
        r = np.asarray(r, dtype=float)
        out = np.empty_like(r) if out is None else out
        t, term, index = work or [np.empty_like(r) for _ in range(3)]
        i = index.view(np.intp)
        # the NaN-ignoring clamp leaves no NaN for the cast; `take` with
        # mode="wrap" never wraps an i in [0, m - 1], and "raise" would buffer `out`
        np.multiply(r, scale, out=t)
        np.floor(t, out=term)
        np.fmin(term, m - 1, out=term)
        np.fmax(term, 0, out=term)
        np.copyto(i, term, casting="unsafe")
        t -= term
        b[0].take(i, out=out, mode="wrap")
        with np.errstate(invalid="ignore"):   # 0 * inf at an infinite r: NaN
            for c in b[1:]:
                out *= t
                out += c.take(i, out=term, mode="wrap")
        return out

    return evaluate


# ---------------------------------------------------------------------------
# entropy construction

def build_entropy(p: RadialPotential) -> EntropyData:
    """Construct gamma with gamma' = phi'' o (inverse of phi) by quadrature.

    The inverse is computed by monotone bisection (`invert_phi`), the
    integral by adaptive composite Simpson to QUAD_TOL on TABLE_SIZE uniform
    intervals, and gamma between the nodes is the cubic Hermite table with
    exact nodal slopes gamma' = phi'' o (inverse of phi).  The identity
    gamma(phi(z)) = phi'(z)^2 / 2 is certified on 1001 points of [0, r_max];
    the measured maximum residual is recorded as `tol`.  A residual above
    1e-6 signals evaluators inconsistent with their stated derivatives and
    raises ConstructionError.
    """
    certify_window(p)
    z_max = float(p.phi(p.r_max))

    def integrand(z):
        return np.asarray(p.phi2(invert_phi(p, z)), dtype=float)

    nodes = np.linspace(0.0, z_max, TABLE_SIZE + 1)
    gamma_nodes = cumulative_simpson(integrand, z_max, TABLE_SIZE, QUAD_TOL)
    if np.any(np.diff(gamma_nodes) <= 0.0):
        raise ConstructionError(f"entropy table for '{p.id}' is not strictly increasing")
    gamma = _uniform_knot_evaluator(nodes, gamma_nodes, integrand(nodes))

    rs = np.linspace(0.0, p.r_max, 1001)
    resid = np.abs(gamma(np.asarray(p.phi(rs), dtype=float))
                   - 0.5 * np.square(np.asarray(p.phi1(rs), dtype=float)))
    tol = float(resid.max())
    if tol > 1e-6:
        r_bad = float(rs[int(resid.argmax())])
        raise ConstructionError(
            f"entropy identity residual {tol:.3e} exceeds 1.0e-06 at "
            f"z = {r_bad}: evaluators of '{p.id}' are inconsistent with their derivatives")
    return EntropyData(gamma=gamma, tol=tol, z_max=z_max, table=(nodes, gamma_nodes))


# ---------------------------------------------------------------------------
# strongly coupled decomposition

def coupled_decomposition(p: RadialPotential) -> CoupledCoefficients:
    """Rewrite the radial diffusion system in strongly coupled form.

    a(r) = phi'(r)/r (times the identity), c = unit radial directions, and
    H(r) = phi'(r) - integral_0^r phi'(s)/s ds with the integrand extended by
    phi''(0) at s = 0; the integral is a cubic Hermite table with exact nodal
    slopes phi'(s)/s over TABLE_SIZE uniform intervals.  The bounds are
    sampled on the CERT_SAMPLES points of the certified window.  The
    reconstruction a*I + c (x) H_z equals the Hessian of Phi.  The rewrite is
    made once per potential object and kept on it (set as `phi2_0` is), so a
    check's monitors and the runs of its configs share one set of tables.
    """
    if "_coupled" not in p.__dict__:
        object.__setattr__(p, "_coupled", _decompose(p))
    return p.__dict__["_coupled"]


def _decompose(p: RadialPotential) -> CoupledCoefficients:
    """The construction of `coupled_decomposition`."""
    window = certify_window(p)
    nodes = np.linspace(0.0, p.r_max, TABLE_SIZE + 1)
    integral_nodes = cumulative_simpson(lambda s: radial_slope(p, s),
                                        p.r_max, TABLE_SIZE, QUAD_TOL)
    islope = _uniform_knot_evaluator(nodes, integral_nodes, radial_slope(p, nodes))

    def H_profile(r, out=None, work=None, a_out=None):
        r = np.asarray(r, dtype=float)
        phi1 = np.asarray(p.phi1(r), dtype=float)
        out = islope(r, out, work)
        np.subtract(phi1, out, out=out)
        if a_out is not None:  # radial_slope(p, r), from the same phi'(r)
            _slope(phi1, r, p.phi2_0, a_out)
        return out

    def dH_profile(r):
        r = np.asarray(r, dtype=float)
        return np.asarray(p.phi2(r), dtype=float) - radial_slope(p, r)

    def c_dirs(values, r=None, out=None, work=None):
        """u / max(r, EPS_ZERO), then 0 where r <= EPS_ZERO (the mask in `work`)."""
        r = vector_norm(values) if r is None else r
        floor, mask = work or (None, None)
        out = np.divide(values, np.maximum(r, EPS_ZERO, out=floor)[None], out=out)
        np.copyto(out, 0.0, where=np.less_equal(r, EPS_ZERO, out=mask)[None])
        return out

    rs = np.linspace(0.0, p.r_max, CERT_SAMPLES)
    a_s = radial_slope(p, rs)
    phi2_s = np.asarray(p.phi2(rs), dtype=float) + np.zeros_like(rs)
    deta = phi2_s - a_s                      # radial derivative of the H profile
    eta2 = np.gradient(deta, rs)             # second derivative, sampled
    tang = np.empty_like(rs)
    tang[0] = eta2[0]                        # limit of eta'(r)/r at the origin
    tang[1:] = deta[1:] / rs[1:]
    H_s = H_profile(rs)
    bounds = {
        "sup_a": float(a_s.max()),
        "sup_c": 1.0,                        # unit radial directions
        "sup_Hzz": float(max(np.abs(eta2).max(), np.abs(tang).max())),
        "inf_H": float(H_s.min()),
        "sup_H": float(H_s.max()),
        "eff_Lambda": float((a_s + np.abs(deta)).max()),
    }
    return CoupledCoefficients(
        a=lambda r: radial_slope(p, r), c=c_dirs,
        H_profile=H_profile, dH_profile=dH_profile,
        bounds=bounds, lam_a=float(a_s.min()), lam_A=window.lam, r_max=p.r_max,
        id=f"{p.id}-coupled")

