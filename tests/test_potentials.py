import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicHermiteSpline, CubicSpline, PPoly

from pelab import (ConstructionError, ConvexityError, RadialPotential,
                   RangeExcursionError, build_entropy, builtin_ids,
                   certify_window, coupled_decomposition, cosh_potential,
                   from_piecewise_poly, get_potential, grad_Phi, grad_Phi_field,
                   hessian_Phi, quadratic, quartic, smoothed_porous)
from pelab.potentials import (EPS_TAYLOR, EPS_ZERO, _slope, _uniform_knot_evaluator,
                              cumulative_simpson, invert_phi, radial_slope)

ALL_BUILTINS = [quadratic(2.0), cosh_potential(1.0), quartic(1.0), smoothed_porous()]


def pure_quartic():
    # phi = r^4/4 is normalized but degenerate at the origin: phi''(0) = 0
    return RadialPotential(phi=lambda r: 0.25 * np.asarray(r, float) ** 4,
                           phi1=lambda r: np.asarray(r, float) ** 3,
                           phi2=lambda r: 3.0 * np.asarray(r, float) ** 2,
                           r_max=1.0, id="r4")


def reference_radial_slope(p, r):
    # frozen boolean gather/scatter version, the oracle of the one-pass slope
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    out = np.full(r.shape, float(p.phi2(0.0)))
    big = r >= EPS_TAYLOR
    if big.any():
        rb = r[big]
        out[big] = np.asarray(p.phi1(rb), dtype=float) / rb
    return out[0] if scalar else out


class TestRadialSlope:
    @pytest.mark.parametrize("p", ALL_BUILTINS, ids=lambda p: p.id)
    def test_one_pass_is_bit_identical_to_gather(self, p):
        rng = np.random.default_rng(11)
        r = rng.uniform(0.0, p.r_max, (256, 256))
        r.flat[:8] = [0.0, 1e-300, 1e-7, EPS_TAYLOR, np.nextafter(EPS_TAYLOR, 0.0),
                      0.5 * p.r_max, p.r_max, 0.0]
        got, ref = radial_slope(p, r), reference_radial_slope(p, r)
        # int64 views compare bit patterns, so signed zeros count
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))
        for x in r.flat[:8]:
            assert np.float64(radial_slope(p, x)).view(np.int64) \
                == np.float64(reference_radial_slope(p, x)).view(np.int64)

    @pytest.mark.parametrize("p", ALL_BUILTINS, ids=lambda p: p.id)
    def test_buffered_forms_match_the_allocating_calls(self, p):
        rng = np.random.default_rng(13)
        vals = rng.uniform(-0.5, 0.5, (2, 9, 7)) * p.r_max
        vals[:, 0, :3] = [[0.0, 1e-300, 1e-7], [0.0, 0.0, 0.0]]   # origin, tiny, Taylor
        r = np.sqrt(np.sum(np.square(vals), axis=0))
        # the step's buffers: `_slope` fills the slope field and its mask in place
        slope, mask = np.full_like(r, np.nan), np.ones(r.shape, bool)
        assert _slope(p.phi1(r), r, p.phi2_0, slope, mask) is slope
        assert np.array_equal(slope.view(np.int64), reference_radial_slope(p, r).view(np.int64))
        out = np.full_like(vals, np.nan)
        assert grad_Phi_field(p, vals, r, out, (slope, mask)) is out
        assert np.array_equal(out.view(np.int64), grad_Phi_field(p, vals).view(np.int64))
        # a NaN radius takes the Taylor value, as in the frozen gather
        assert radial_slope(p, np.nan) == reference_radial_slope(p, np.nan) == float(p.phi2(0.0))

    @pytest.mark.parametrize("p", ALL_BUILTINS, ids=lambda p: p.id)
    def test_no_division_by_zero(self, p):
        r = np.array([0.0, 0.0, 1e-300, 0.5 * p.r_max])
        with np.errstate(divide="raise", invalid="raise"):
            got = radial_slope(p, r)
            grad_Phi_field(p, np.stack([r, 0.0 * r]))
        assert np.array_equal(got, reference_radial_slope(p, r))

    def test_grad_Phi_field_takes_the_norm_it_is_given(self):
        p = cosh_potential(1.0)
        vals = np.random.default_rng(12).uniform(-0.6, 0.6, (2, 7, 5))
        vals[:, 0, 0] = 0.0
        r = np.sqrt(np.sum(np.square(vals), axis=0))
        assert np.array_equal(grad_Phi_field(p, vals, r), grad_Phi_field(p, vals))


class TestGradPhi:
    def test_quadratic_is_identity(self):
        p = quadratic(2.0)
        z = np.array([0.3, -0.7, 0.1])
        assert np.abs(grad_Phi(p, z) - z).max() < 1e-15

    def test_zero_maps_to_zero(self):
        for p in ALL_BUILTINS:
            assert np.all(grad_Phi(p, np.zeros(3)) == 0.0)

    def test_cosh_value_and_finite_difference(self):
        p = cosh_potential(2.0)
        got = grad_Phi(p, np.array([1.0, 0.0]))
        assert got == pytest.approx([math.sinh(1.0), 0.0], abs=1e-14)
        # central finite difference of Phi(z) = phi(|z|)
        eps = 1e-6
        z = np.array([0.4, -0.6])
        for i in range(2):
            dz = np.zeros(2)
            dz[i] = eps
            fd = (p.phi(np.linalg.norm(z + dz)) - p.phi(np.linalg.norm(z - dz))) / (2 * eps)
            assert grad_Phi(p, z)[i] == pytest.approx(fd, abs=1e-8)

    def test_range_error(self):
        p = cosh_potential(1.0)
        with pytest.raises(RangeExcursionError, match="r_max"):
            grad_Phi(p, np.array([1.5, 0.0]))

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(0)
        p = cosh_potential(2.0)
        for _ in range(20):
            th = rng.uniform(0, 2 * np.pi)
            R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
            z = rng.uniform(-0.9, 0.9, 2)
            lhs = grad_Phi(p, R @ z)
            rhs = R @ grad_Phi(p, z)
            assert np.abs(lhs - rhs).max() < 1e-14

    def test_field_version_matches_pointwise(self):
        rng = np.random.default_rng(1)
        p = quartic(2.0)
        vals = rng.uniform(-0.8, 0.8, size=(3, 11))
        out = grad_Phi_field(p, vals)
        for j in range(11):
            assert np.abs(out[:, j] - grad_Phi(p, vals[:, j])).max() < 1e-14


class TestHessianPhi:
    def test_quadratic_identity(self):
        p = quadratic(2.0)
        assert np.allclose(hessian_Phi(p, np.array([0.5, -0.4])), np.eye(2), atol=1e-15)

    def test_cosh_eigenvalues(self):
        p = cosh_potential(2.0)
        H = hessian_Phi(p, np.array([1.0, 0.0]))
        ev = np.sort(np.linalg.eigvalsh(H))
        assert ev[1] == pytest.approx(math.cosh(1.0), abs=1e-12)   # radial
        assert ev[0] == pytest.approx(math.sinh(1.0), abs=1e-12)   # tangential

    def test_origin_is_isotropic(self):
        for p in ALL_BUILTINS:
            H = hessian_Phi(p, np.zeros(3))
            assert np.allclose(H, float(p.phi2(0.0)) * np.eye(3), atol=1e-15)

    def test_matches_jacobian_of_gradient(self):
        rng = np.random.default_rng(2)
        for p in ALL_BUILTINS:
            for _ in range(25):
                z = rng.uniform(-1, 1, 3)
                r = np.linalg.norm(z)
                if r > 0.9 * p.r_max or r < 1e-3:
                    continue
                H = hessian_Phi(p, z)
                eps = 1e-6 * p.r_max
                J = np.zeros((3, 3))
                for i in range(3):
                    dz = np.zeros(3)
                    dz[i] = eps
                    J[:, i] = (grad_Phi(p, z + dz) - grad_Phi(p, z - dz)) / (2 * eps)
                assert np.abs(H - J).max() <= 1e-6 * max(1.0, np.abs(H).max())

    def test_eigenvalues_inside_certified_window(self):
        rng = np.random.default_rng(3)
        for p in ALL_BUILTINS:
            w = certify_window(p)
            for _ in range(40):
                z = rng.uniform(-1, 1, 2)
                z *= rng.uniform(0, p.r_max) / max(np.linalg.norm(z), 1e-12)
                ev = np.linalg.eigvalsh(hessian_Phi(p, z))
                assert ev.min() >= w.lam - 1e-10
                assert ev.max() <= w.Lam + 1e-10


class TestCertifyWindow:
    def test_quadratic(self):
        w = certify_window(quadratic(3.0))
        assert w.lam == pytest.approx(1.0, abs=1e-15)
        assert w.Lam == pytest.approx(1.0, abs=1e-15)

    def test_cosh(self):
        w = certify_window(cosh_potential(1.0))
        assert w.lam == pytest.approx(1.0, abs=1e-12)
        assert w.Lam == pytest.approx(math.cosh(1.0), abs=1e-12)

    def test_quartic_upper_branch(self):
        # Lam = max(1 + 3r^2, 1 + r^2) = 4 at r = 1; oracle: dense random sampling
        p = quartic(1.0)
        w = certify_window(p)
        rng = np.random.default_rng(4)
        rs = rng.uniform(0.0, 1.0, 10_000)
        branches = np.concatenate([1.0 + 3.0 * rs ** 2, 1.0 + rs ** 2])
        assert w.Lam == pytest.approx(4.0, abs=1e-12)
        assert w.lam == pytest.approx(1.0, abs=1e-12)
        assert branches.max() <= w.Lam + 1e-9
        assert branches.min() >= w.lam - 1e-9

    def test_degenerate_origin_rejected(self):
        with pytest.raises(ConvexityError, match="r = 0"):
            certify_window(pure_quartic())

    @pytest.mark.parametrize("branch", ["phi1", "phi2"])
    def test_non_finite_branch_names_the_first_radius(self, branch):
        # phi1 or phi2 turns NaN beyond r = 0.3: sample 3001 is the first past it
        evaluators = {"phi1": lambda r: np.asarray(r, dtype=float) + 0.0,
                      "phi2": lambda r: np.ones_like(np.asarray(r, dtype=float))}
        good = evaluators[branch]
        evaluators[branch] = lambda r: np.where(np.asarray(r) > 0.3, np.nan, good(r))
        p = RadialPotential(phi=lambda r: 0.5 * np.square(r), **evaluators,
                            r_max=1.0, id="nan-branch")
        with pytest.raises(ConvexityError, match="non-finite") as exc:
            certify_window(p)
        assert exc.value.r == np.linspace(0.0, 1.0, 10_001)[3001]

    def test_window_records_sampling(self):
        w = certify_window(cosh_potential(1.0))
        assert w.samples == 10_001
        assert w.spacing == pytest.approx(1e-4, rel=1e-12)


class TestBuildEntropy:
    def test_quadratic_gamma_is_identity(self):
        e = build_entropy(quadratic(2.0))
        z = np.linspace(0, e.z_max, 101)
        assert np.abs(e.gamma(z) - z).max() < 1e-10
        assert e.tol < 1e-10

    def test_cosh_closed_form(self):
        e = build_entropy(cosh_potential(1.0))
        z = np.linspace(0, e.z_max, 1001)
        assert np.abs(e.gamma(z) - (z + 0.5 * z * z)).max() < 1e-8
        z1 = math.cosh(1.0) - 1.0
        assert float(e.gamma(z1)) == pytest.approx(0.5 * math.sinh(1.0) ** 2, abs=1e-10)

    def test_identity_residual_small_for_all_builtins(self):
        for p in ALL_BUILTINS:
            e = build_entropy(p)
            assert e.tol <= 1e-8, p.id

    def test_gamma_strictly_increasing_from_zero(self):
        e = build_entropy(smoothed_porous())
        z = np.linspace(0, e.z_max, 257)
        g = np.asarray(e.gamma(z))
        assert abs(g[0]) < 1e-14
        assert np.all(np.diff(g) > 0)

    def test_chain_rule_of_composition(self):
        # d/dz gamma(phi(z)) = phi'(z) phi''(z), checked by finite differences
        p = cosh_potential(1.0)
        e = build_entropy(p)
        eps = 1e-6
        for z in (0.2, 0.5, 0.85):
            fd = (e.gamma(float(p.phi(z + eps))) - e.gamma(float(p.phi(z - eps)))) / (2 * eps)
            assert fd == pytest.approx(float(p.phi1(z)) * float(p.phi2(z)), abs=1e-6)

    def test_degenerate_origin_rejected(self):
        with pytest.raises(ConvexityError):
            build_entropy(pure_quartic())

    def test_inconsistent_derivatives_fail_construction(self):
        bad = RadialPotential(phi=lambda r: np.cosh(r) - 1.0,
                              phi1=lambda r: 1.05 * np.sinh(r),  # wrong by 5%
                              phi2=np.cosh, r_max=1.0, id="bad")
        with pytest.raises(ConstructionError, match="residual"):
            build_entropy(bad)


def frozen_cumulative_simpson(f, x_max, segments, tol):
    """The earlier construction: every level evaluates f on all of its points."""
    m, panels, prev = segments, 1, None
    for _ in range(10):
        pts = 2 * m * panels + 1
        x = np.linspace(0.0, x_max, pts)
        fx = np.asarray(f(x), dtype=float) + np.zeros(pts)
        coef = np.ones(2 * panels + 1)
        coef[1:-1:2] = 4.0
        coef[2:-1:2] = 2.0
        ids = np.arange(m)[:, None] * (2 * panels) + np.arange(2 * panels + 1)[None, :]
        seg = fx[ids] @ coef * (x_max / (pts - 1) / 3.0)
        if prev is not None and np.abs(seg - prev).max() / 15.0 <= tol / m:
            return np.concatenate([[0.0], np.cumsum(seg + (seg - prev) / 15.0)])
        prev, panels = seg, 2 * panels
    raise AssertionError("no convergence")


TABLE_POTENTIAL = from_piecewise_poly([0.0, 1.0], [[0.25, 0.0, 0.5, 0.0, 0.0]],
                                      pid="table-quartic")


class TestCumulativeSimpson:
    """Each level evaluates f only at its new points, and the tables stay bitwise."""

    @pytest.mark.parametrize("p", ALL_BUILTINS + [TABLE_POTENTIAL], ids=lambda p: p.id)
    def test_tables_equal_the_old_construction_and_f_sees_each_abscissa_once(self, p):
        z_max = float(p.phi(p.r_max))
        for integrand, x_max in ((lambda z: p.phi2(invert_phi(p, z)), z_max),   # gamma
                                 (lambda s: radial_slope(p, s), p.r_max)):      # H
            seen = []
            got = cumulative_simpson(lambda x: (seen.append(x), integrand(x))[1],
                                     x_max, 4096, 1e-10)
            assert_bitwise(got, frozen_cumulative_simpson(integrand, x_max, 4096, 1e-10))
            xs = np.concatenate(seen)
            assert len(seen) >= 2 and len(np.unique(xs)) == len(xs)
            # the abscissas of the finest level reached, each once
            assert_bitwise(np.sort(xs), np.linspace(0.0, x_max, len(xs)))
        e = build_entropy(p)   # the built table is the one checked above
        assert_bitwise(e.table[1], frozen_cumulative_simpson(
            lambda z: p.phi2(invert_phi(p, z)), z_max, 4096, 1e-10))


class TestInvertPhi:
    def test_bisection_tolerance(self):
        for p in ALL_BUILTINS:
            z = np.linspace(0, float(p.phi(p.r_max)), 200)
            r = invert_phi(p, z)
            assert np.abs(np.asarray(p.phi(r)) - z).max() < 1e-10
            rs = np.linspace(0, p.r_max, 200)
            assert np.abs(invert_phi(p, np.asarray(p.phi(rs))) - rs).max() < 1e-11


class TestCoupledDecomposition:
    def test_made_once_per_potential_object(self, tmp_path, monkeypatch):
        # a coupled entropy check and the runs of its configs share one potential
        # object, so its planned tables are the ones its runs step with
        import pelab.potentials as potentials
        from pelab.cli import run_suite
        made, real = [], potentials._decompose
        monkeypatch.setattr(potentials, "_decompose", lambda p: (made.append(p), real(p))[1])
        p = cosh_potential(1.0)
        assert coupled_decomposition(p) is coupled_decomposition(p) and made == [p]
        assert coupled_decomposition(cosh_potential(1.0)) is not coupled_decomposition(p)
        made.clear()
        config = {"grid": {"sizes": [32], "h": 1 / 32}, "potential": {"id": "cosh", "r_max": 1.0},
                  "system": "coupled", "t_end": 0.002,
                  "initial": {"kind": "bands", "kmax": 3, "amplitude": 0.17, "offset": [0.8]}}
        check = {"name": "c", "kind": "entropy-coupled", "sizes": [16, 32], "config": config}
        [rep] = run_suite({"name": "s", "checks": [check]}, tmp_path / "v", 3)
        assert rep.passed and len(made) == 1   # its plan's, not one more per rung run

    def test_quadratic_degenerates_to_heat(self):
        cc = coupled_decomposition(quadratic(2.0))
        rs = np.linspace(0, 2.0, 101)
        assert np.abs(cc.a(rs) - 1.0).max() == 0.0
        assert np.abs(cc.H_profile(rs)).max() < 1e-12
        assert cc.bounds["sup_Hzz"] == 0.0

    def test_cosh_H_value_against_quadrature_oracle(self):
        cc = coupled_decomposition(cosh_potential(1.0))
        integral, err = quad(lambda s: math.sinh(s) / s if s > 0 else 1.0, 0.0, 1.0,
                             epsabs=1e-13, epsrel=1e-13)
        expected = math.sinh(1.0) - integral
        assert err < 1e-12
        assert expected == pytest.approx(0.11795031826812, abs=1e-11)
        assert float(cc.H_profile(1.0)) == pytest.approx(expected, abs=1e-10)

    def test_slope_extends_continuously_at_origin(self):
        cc = coupled_decomposition(cosh_potential(1.0))
        assert float(cc.a(0.0)) == pytest.approx(1.0, abs=1e-15)
        assert float(cc.a(1e-9)) == pytest.approx(1.0, abs=1e-12)

    def test_reconstructs_hessian(self):
        # a * I + c (x) H_z equals the Hessian of Phi
        rng = np.random.default_rng(6)
        for p in (cosh_potential(1.0), quartic(1.0), smoothed_porous()):
            cc = coupled_decomposition(p)
            for _ in range(30):
                z = rng.uniform(-1, 1, 2)
                z *= rng.uniform(0.05, p.r_max) / np.linalg.norm(z)
                zf, r = z[:, None], np.linalg.norm(z, keepdims=True)
                H_z = cc.dH_profile(r)[None] * cc.c(zf, r)   # as `_coupled_fold` forms it
                A = float(cc.a(r[0])) * np.eye(2) + np.outer(cc.c(zf)[:, 0], H_z[:, 0])
                assert np.abs(A - hessian_Phi(p, z)).max() <= 1e-8

    def test_ellipticity_certificates(self):
        cc = coupled_decomposition(cosh_potential(1.0))
        w = certify_window(cosh_potential(1.0))
        assert cc.lam_a == pytest.approx(1.0, abs=1e-12)
        assert cc.lam_A == pytest.approx(w.lam, abs=1e-12)
        assert cc.bounds["eff_Lambda"] == pytest.approx(w.Lam, abs=1e-12)

    def test_quadratic_decomposition_is_exactly_trivial(self):
        cc = coupled_decomposition(quadratic())
        v = np.random.default_rng(6).uniform(-1.0, 1.0, (2, 5))
        v[:, 0] = 0.0
        r = np.linalg.norm(v, axis=0)
        assert np.all(cc.H_profile(r) == 0.0) and np.all(cc.a(r) == 1.0)
        assert np.all(cc.dH_profile(r)[None] * cc.c(v, r) == 0.0)
        assert cc.bounds["sup_Hzz"] == 0.0


class TestPiecewisePolynomials:
    def test_quadratic_table(self):
        p = from_piecewise_poly([0.0, 2.0], [[0.5, 0.0, 0.0]], pid="tab-quad")
        w = certify_window(p)
        assert w.lam == pytest.approx(1.0, abs=1e-12)
        assert w.Lam == pytest.approx(1.0, abs=1e-12)
        e = build_entropy(p)
        z = np.linspace(0, e.z_max, 64)
        assert np.abs(e.gamma(z) - z).max() < 1e-9

    def test_non_monotone_slope_rejected(self):
        # phi = r^2/2 - r^3/3 has phi'' = 1 - 2r < 0 beyond r = 1/2
        p = from_piecewise_poly([0.0, 2.0], [[-1.0 / 3.0, 0.5, 0.0, 0.0]], pid="bad-tab")
        with pytest.raises(ConvexityError, match="r ="):
            certify_window(p)

    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 5])
    def test_matches_ppoly_bit_for_bit(self, degree):
        rng = np.random.default_rng(degree)
        for pieces in (1, 2, 7):
            x = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, pieces))])
            coeffs = rng.standard_normal((pieces, degree + 1))
            coeffs[0, -2:] = 0.0                    # phi(0) = phi'(0) = 0
            coeffs[1:, -1] = -0.0                   # the sum starts from +0.0, as in PPoly
            p = from_piecewise_poly(x, coeffs)
            want = PPoly(coeffs.T, x)
            r = np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf),
                                [-0.0, -1.0, 2.0 * x[-1], np.inf, -np.inf, np.nan],
                                rng.uniform(-0.5, x[-1] + 0.5, 2000)])
            clipped = np.clip(r, x[0], x[-1])       # the potential's domain
            for got in (p.phi, p.phi1, p.phi2):
                assert_bitwise(got(r), want(clipped))
                assert_bitwise(got(x[-1]), want(x[-1]))
                want = want.derivative()

    def test_bad_breakpoints(self):
        with pytest.raises(ValueError, match="breakpoints"):
            from_piecewise_poly([1.0, 0.0], [[0.5, 0.0, 0.0]])

    def test_ids_listed(self):
        assert set(builtin_ids()) == {"quadratic", "cosh", "quartic", "porous"}
        assert get_potential("cosh", r_max=0.5).r_max == 0.5
        with pytest.raises(ValueError, match="unknown potential"):
            get_potential("nope")


def spline_probes(knots, x_max, seed=0):
    """Every knot and both float neighbours, the ends, both sides out of range, random draws."""
    rng = np.random.default_rng(seed)
    return np.concatenate([
        knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
        [0.0, -0.0, x_max * (1.0 + 1e-12), -1e-300, -1e-3, -x_max,
         1.5 * x_max, 10.0 * x_max],
        rng.uniform(-0.05 * x_max, 1.05 * x_max, 5000)])


def assert_bitwise(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def clamped_spline_table(x, y, dydx):
    # the earlier tables: a clamped cubic spline with exact end slopes only
    return CubicSpline(x, y, bc_type=((1, float(dydx[0])), (1, float(dydx[-1]))))


def h_table(p):
    # the integral table and its exact slopes, as coupled_decomposition builds them
    nodes = np.linspace(0.0, p.r_max, 4097)
    return (nodes, cumulative_simpson(lambda s: radial_slope(p, s), p.r_max, 4096, 1e-10),
            radial_slope(p, nodes))


def gamma_table(p, e):
    # the entropy table and its exact slopes, as build_entropy builds them
    nodes, gamma_nodes = e.table
    return nodes, gamma_nodes, np.asarray(p.phi2(invert_phi(p, nodes)), dtype=float)


def frozen_uniform_knot_evaluator(x, y, dydx):
    """The table evaluator before Horner's rule, frozen: CubicHermiteSpline's
    coefficients and its __call__ bit for bit (interval floor(r / width) corrected
    by one against the real knots, the sum 0.0 + c3 + c2 s + c1 s^2 + c0 s^3)."""
    m = len(x) - 1
    width = x[-1] / m
    lo = np.concatenate([[-np.inf], x[1:-1]])
    hi = np.concatenate([x[1:-1], [np.inf]])
    dx = np.diff(x)
    slope = np.diff(y) / dx
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
    c0, c1 = t / dx + 0.0, (slope - dydx[:-1]) / dx - t + 0.0
    c2, c3 = dydx[:-1] + 0.0, y[:-1] + 0.0

    def evaluate(r):
        r = np.asarray(r, dtype=float)
        s, s2, term, index = (np.empty_like(r) for _ in range(4))
        i, flag = index.view(np.intp), term.view(np.intp)
        with np.errstate(invalid="ignore"):   # a NaN radius's index
            np.fmax(np.fmin(np.floor(np.divide(r, width, out=s), out=s), m - 1, out=s),
                    0, out=s)
            np.copyto(i, s, casting="unsafe")
        np.less(r, lo.take(i, out=s, mode="wrap"), out=flag)
        i -= flag
        np.greater_equal(r, hi.take(i, out=s, mode="wrap"), out=flag)
        i += flag
        np.subtract(r, x.take(i, out=s, mode="wrap"), out=s)
        np.multiply(s, s, out=s2)
        out = c3.take(i, mode="wrap")
        out += np.multiply(c2.take(i, out=term, mode="wrap"), s, out=term)
        out += np.multiply(c1.take(i, out=term, mode="wrap"), s2, out=term)
        s2 *= s
        out += np.multiply(c0.take(i, out=term, mode="wrap"), s2, out=term)
        return out

    return evaluate


def horner_bound(spline, r):
    """The rounding bound of the Horner table at each r against `spline`: 8 eps
    times the evaluation's condition sum_k |c_k| |s|^k + |r| sum_k k |c_k| |s|^(k-1)
    (s = r - x_i on the spline's piece i), plus 8 subnormal units for underflow.
    Horner's rule loses at most 6u times the first sum in each of the two
    evaluations (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    2002, s. 5.1) and scaling the coefficients by w^k at most 3u more; the local
    coordinate and the knots' own rounding move the argument by at most 3u |r|,
    which the second sum weighs.  With u = eps/2 the total is under 8 eps."""
    x, c = spline.x, np.abs(spline.c)
    i = np.clip(np.searchsorted(x, r, side="right") - 1, 0, len(x) - 2)
    s, (c3, c2, c1, c0) = np.abs(r - x[i]), c[:, i]
    value = ((c3 * s + c2) * s + c1) * s + c0
    slope = (3 * c3 * s + 2 * c2) * s + c1
    eps = np.finfo(float).eps
    return 8 * (eps * (value + np.abs(r) * slope) + np.finfo(float).smallest_subnormal)


def assert_within_table_bounds(got, spline, r, top=None):
    """The Horner table's parity bounds against `spline`, one value per probe r:
    on [0, x_max] within `horner_bound` at each r and, for a built-in table (`top`,
    its largest |value| there), within 4 ulp of `top`; beyond it, at most 1e-15
    max|spline| over the finite outside probes; NaN in gives NaN out, and +-inf a
    non-finite value."""
    got, r = (np.asarray(v, dtype=float).ravel() for v in (got, r))
    with np.errstate(invalid="ignore"):   # the spline's own NaN index
        want = spline(r)
    inside = (r >= 0.0) & (r <= spline.x[-1])
    outside = np.isfinite(r) & ~inside
    err = np.abs(got[inside] - want[inside])
    assert np.all(err <= horner_bound(spline, r[inside]))
    if top is not None:
        assert err.max() <= 4 * np.spacing(top)
    if outside.any():
        err = np.abs(got[outside] - want[outside]).max()
        assert err <= 1e-15 * np.abs(want[outside]).max()
    assert np.all(np.isnan(got[np.isnan(r)]))
    assert not np.isfinite(got[np.isinf(r)]).any()


def table_top(spline, knots, x_max):
    """The table's largest |value| on [0, x_max], over its knots and 10^5 points."""
    return np.abs(spline(np.concatenate([knots, np.linspace(0.0, x_max, 100_001)]))).max()


def check_table(x, y, dydx, seed=0, builtin=True):
    """One table's evaluator against CubicHermiteSpline on `spline_probes` and the
    non-finite probes, within the parity bounds (4 ulp of the largest |value| for
    a built-in table)."""
    spline, table = CubicHermiteSpline(x, y, dydx), _uniform_knot_evaluator(x, y, dydx)
    r = np.concatenate([spline_probes(x, x[-1], seed), [np.nan, np.inf, -np.inf]])
    assert_within_table_bounds(table(r), spline, r,
                               table_top(spline, x, x[-1]) if builtin else None)
    return spline, table


class TestUniformKnotEvaluator:
    """The Horner table agrees with CubicHermiteSpline.__call__ within its rounding
    bound on [0, x_max] (4 ulp for the built-in tables) and to 1e-15 relatively
    where it extrapolates; the frozen evaluator
    it replaces is the spline bit for bit."""

    @pytest.mark.parametrize("p", ALL_BUILTINS, ids=lambda p: p.id)
    def test_coupled_H_table(self, p):
        nodes, y, dydx = h_table(p)
        spline, table = check_table(nodes, y, dydx)
        r = spline_probes(nodes, p.r_max)
        inside = r[(r >= 0.0) & (r <= p.r_max)]
        assert_bitwise(coupled_decomposition(p).H_profile(inside),
                       np.asarray(p.phi1(inside), dtype=float) - table(inside))
        top = table_top(spline, nodes, p.r_max)
        for x in (0.0, p.r_max, -1.0, 2.0 * p.r_max):
            assert_bitwise(table(x), table(np.array([x]))[0])
            assert abs(float(table(x)) - float(spline(x))) <= 4 * np.spacing(top) * max(
                1.0, abs(float(spline(x))) / top)

    @pytest.mark.parametrize("p", ALL_BUILTINS, ids=lambda p: p.id)
    def test_entropy_gamma_table(self, p):
        e = build_entropy(p)
        x, y, dydx = gamma_table(p, e)
        check_table(x, y, dydx, seed=1)
        z = np.random.default_rng(1).uniform(0.0, e.z_max, 1000)
        assert_bitwise(e.gamma(z), _uniform_knot_evaluator(x, y, dydx)(z))

    @pytest.mark.parametrize("p", ALL_BUILTINS, ids=lambda p: p.id)
    def test_the_frozen_evaluator_is_the_spline_bit_for_bit(self, p):
        e = build_entropy(p)
        for (x, y, dydx), top in ((h_table(p), p.r_max), (gamma_table(p, e), e.z_max)):
            r = spline_probes(x, top, seed=2)
            assert_bitwise(frozen_uniform_knot_evaluator(x, y, dydx)(r),
                           CubicHermiteSpline(x, y, dydx)(r))

    @pytest.mark.parametrize("p", ALL_BUILTINS, ids=lambda p: p.id)
    def test_matches_the_clamped_spline_tables(self, p):
        # exact nodal slopes in place of the spline's solved ones move both
        # tables by rounding only (4.4e-16 measured)
        e = build_entropy(p)
        for (x, y, dydx), top in ((h_table(p), p.r_max), (gamma_table(p, e), e.z_max)):
            probes = np.concatenate([x, np.random.default_rng(5).uniform(0.0, top, 5000)])
            old = clamped_spline_table(x, y, dydx)(probes)
            assert np.abs(_uniform_knot_evaluator(x, y, dydx)(probes) - old).max() <= 1e-14

    def test_random_tables_and_sizes(self):
        # slopes drawn apart from the values can make a piece's coefficients larger
        # than its values, so these are held to the per-point Horner bound alone
        rng = np.random.default_rng(3)
        for m in (4, 7, 128, 1000):
            for x_max in (0.37, 1.0, 2.0, 3.7):
                knots = np.linspace(0.0, x_max, m + 1)
                y = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, m))])
                check_table(knots, y, rng.uniform(-1.0, 2.0, m + 1), seed=m, builtin=False)

    def test_negative_zero_table_value(self):
        # the constant term is y + 0.0, added last, so a -0.0 knot value evaluates
        # to +0.0, as the spline's sum from 0.0 does
        knots = np.linspace(0.0, 1.0, 5)
        y = np.array([-0.0, -1.0, -2.0, -3.0, -4.0])
        dydx = np.full(5, -0.0)
        r = np.array([-0.0, 0.0])
        assert_bitwise(_uniform_knot_evaluator(knots, y, dydx)(r),
                       CubicHermiteSpline(knots, y, dydx)(r))


def fresh_work(shape):
    return [np.empty(shape) for _ in range(3)]


# negative, beyond x_max, NaN and +-inf: the probes that leave the table
HYGIENE_PROBES = [-1e-300, -0.5, 1.5, 40.0, np.nan, np.inf, -np.inf]


class TestBufferedEvaluator:
    """The buffered call of the table evaluator, as the coupled step makes it."""

    @pytest.mark.parametrize("shape", [(40, 30), (9, 11, 13)])
    @pytest.mark.parametrize("p", ALL_BUILTINS, ids=lambda p: p.id)
    def test_multi_dimensional_fields_match_the_spline(self, p, shape):
        nodes, y, dydx = h_table(p)
        spline = CubicHermiteSpline(nodes, y, dydx)
        table = _uniform_knot_evaluator(nodes, y, dydx)
        probes = spline_probes(nodes, p.r_max, seed=len(shape))
        r = probes[np.random.default_rng(7).integers(0, len(probes), math.prod(shape))]
        r = r.reshape(shape)
        r.flat[:6] = [0.0, nodes[17], -0.25 * p.r_max, 3.0 * p.r_max, np.nan, np.inf]
        out = np.full(shape, np.nan)
        got = table(r, out=out, work=fresh_work(shape))
        assert got is out
        assert_within_table_bounds(out, spline, r, table_top(spline, nodes, p.r_max))
        assert_bitwise(table(r), out)   # the allocating call

    def test_buffers_reused_across_calls(self):
        p = cosh_potential(1.0)
        nodes, y, dydx = h_table(p)
        spline = CubicHermiteSpline(nodes, y, dydx)
        table, top = _uniform_knot_evaluator(nodes, y, dydx), table_top(spline, nodes, 1.0)
        rng = np.random.default_rng(11)
        out, work = np.full((32, 24), np.nan), fresh_work((32, 24))
        for r in (rng.uniform(0.0, 1.0, (32, 24)), np.zeros((32, 24)),
                  np.broadcast_to(nodes[:24], (32, 24)).copy(),
                  rng.uniform(-1.0, 2.0, (32, 24))):
            table(r, out=out, work=work)
            assert_bitwise(out, table(r))
            assert_within_table_bounds(out, spline, r, top)

    def test_scalar_inputs(self):
        nodes, y, dydx = h_table(quartic(1.0))
        table = _uniform_knot_evaluator(nodes, y, dydx)
        for x in (0.0, nodes[5], 1.0, -0.5, 4.0):
            want = table(np.array([x]))[0]
            assert_bitwise(table(x), want)
            assert_bitwise(table(np.float64(x), out=np.empty(()), work=fresh_work(())), want)

    @pytest.mark.parametrize("p", ALL_BUILTINS, ids=lambda p: p.id)
    def test_H_profile_fills_H_and_a_from_one_call(self, p):
        cc = coupled_decomposition(p)
        r = np.random.default_rng(2).uniform(0.0, p.r_max, (3, 20, 10))
        r[0, 0, :3] = [0.0, 1e-9, p.r_max]   # origin, the Taylor branch of a, the end
        H, a = np.empty_like(r), np.full_like(r, np.nan)
        assert cc.H_profile(r, out=H, work=fresh_work(r.shape), a_out=a) is H
        assert_bitwise(H, cc.H_profile(r))
        assert_bitwise(a, cc.a(r))
        assert_bitwise(a, radial_slope(p, r))

    def test_directions_fill_a_dirty_buffer(self):
        cc = coupled_decomposition(cosh_potential(1.0))
        u = np.random.default_rng(4).uniform(-0.5, 0.5, (2, 7, 9))
        u[:, 3, 4] = 0.0                     # |u| = 0: the direction is zero
        r = np.sqrt(np.sum(u * u, axis=0))
        c = np.full_like(u, np.nan)
        assert cc.c(u, r, out=c) is c
        assert_bitwise(c, cc.c(u, r))
        assert np.all(c[:, 3, 4] == 0.0)

    @pytest.mark.parametrize("p", ALL_BUILTINS, ids=lambda p: p.id)
    def test_the_buffered_call_allocates_nothing_and_warns_of_nothing(self, p):
        import tracemalloc
        import warnings
        nodes, y, dydx = h_table(p)
        table = _uniform_knot_evaluator(nodes, y, dydx)
        r = np.random.default_rng(9).uniform(0.0, p.r_max, (128, 128))
        r.flat[:len(HYGIENE_PROBES)] = np.array(HYGIENE_PROBES) * p.r_max
        out, work = np.empty_like(r), fresh_work(r.shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table(r, out=out, work=work)   # warm
            tracemalloc.start()
            try:
                table(r, out=out, work=work)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            table(np.array(HYGIENE_PROBES))
        assert peak < 1024, peak   # a field here is 128 KiB
        assert np.isnan(out.flat[4]) and not np.isfinite(out.flat[5:7]).any()
        assert np.isfinite(out.flat[:4]).all()


# Frozen copies of the three phi'(r)/r sequences as they stood before the one
# kernel: `radial_slope`, `grad_Phi_field` over it, and the H table's a_out.

def frozen_radial_slope(p, r):
    r = np.asarray(r, dtype=float)
    out = np.maximum(r, EPS_TAYLOR, out=np.empty_like(r))
    np.divide(np.asarray(p.phi1(r), dtype=float), out, out=out)
    taylor = np.greater_equal(r, EPS_TAYLOR, out=np.empty(r.shape, bool))
    np.copyto(out, p.phi2_0, where=np.logical_not(taylor, out=taylor))
    return out if out.ndim else out[()]


def frozen_grad_Phi_field(p, values):
    r = np.sqrt(np.add.reduce(np.square(values), axis=0))
    g = frozen_radial_slope(p, r)
    np.copyto(g, 0.0, where=np.less(r, EPS_ZERO))
    return np.multiply(g, values)


def frozen_a_out(p, r):
    phi1 = np.asarray(p.phi1(r), dtype=float)
    a = np.empty_like(r)
    np.divide(phi1, np.maximum(r, EPS_TAYLOR, out=a), out=a)
    np.copyto(a, p.phi2_0, where=~(r >= EPS_TAYLOR))
    return a


def scalar_quadratic():
    # phi = r^2/2 whose evaluators return Python floats (phi1 on scalars, phi2 always)
    return RadialPotential(phi=lambda r: 0.5 * np.square(r),
                           phi1=lambda r: float(r) if np.ndim(r) == 0 else np.asarray(r) + 0.0,
                           phi2=lambda r: 1.0, r_max=2.0, id="scalar-quadratic")


SLOPE_POTENTIALS = ALL_BUILTINS + [
    from_piecewise_poly([0.0, 1.0], [[0.25, 0.0, 0.5, 0.0, 0.0]], pid="table-quartic"),
    from_piecewise_poly([0.0, 1.0], [[1.0, 0.0, 0.0]], pid="table-phi2-2"),   # phi''(0) = 2
    scalar_quadratic()]


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


class TestOneSlopeKernel:
    """`radial_slope`, `grad_Phi_field` and the H table's a(r) share one kernel
    and equal the formulas each of them carried before, bit for bit."""

    @pytest.mark.parametrize("p", SLOPE_POTENTIALS, ids=lambda p: p.id)
    def test_radial_slope(self, p):
        r = np.array([0.0, 5e-7, 1e-6, p.r_max, np.nan])
        assert np.array_equal(bits(radial_slope(p, r)), bits(frozen_radial_slope(p, r)))
        for x in r:   # the scalar path: a numpy float either way
            got, want = radial_slope(p, float(x)), frozen_radial_slope(p, float(x))
            assert type(got) is type(want) and bits(got) == bits(want)

    @pytest.mark.parametrize("p", SLOPE_POTENTIALS, ids=lambda p: p.id)
    def test_grad_Phi_field(self, p):
        r = np.array([0.0, 5e-7, 1e-6, p.r_max, np.nan])
        values = np.stack([0.6 * r, 0.8 * r])   # |values| = r up to rounding
        want = frozen_grad_Phi_field(p, values)
        assert np.array_equal(bits(grad_Phi_field(p, values)), bits(want))
        norm = np.sqrt(np.add.reduce(np.square(values), axis=0))
        out, work = np.full_like(values, 7.0), (np.full_like(r, 7.0), np.ones(r.shape, bool))
        assert grad_Phi_field(p, values, norm, out, work) is out
        assert np.array_equal(bits(out), bits(want))

    @pytest.mark.parametrize("p", SLOPE_POTENTIALS, ids=lambda p: p.id)
    def test_H_profile_a_out(self, p):
        cc = coupled_decomposition(p)
        r = np.array([0.0, 5e-7, 1e-6, p.r_max, np.nan])
        a = np.full_like(r, 7.0)
        cc.H_profile(r, a_out=a)
        assert np.array_equal(bits(a), bits(frozen_a_out(p, r)))

    @pytest.mark.parametrize("p", SLOPE_POTENTIALS[:-1], ids=lambda p: p.id)
    def test_coupled_ellipticity_is_the_certified_window(self, p):
        assert coupled_decomposition(p).lam_A == certify_window(p).lam
