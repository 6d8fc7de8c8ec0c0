import sys
from dataclasses import replace

import numpy as np
import pytest

import pelab.grid as grid_module
from pelab import (DIRICHLET, PERIODIC, Cylinder, FieldState, GridSpec,
                   Trajectory, hessian_sq, read_snapshot, vector_norm)
from pelab.grid import (_ball, _CylinderFold, _face_divergence, _gradient_sq, _laplacian,
                        _replay, _shift_plans, _shifted, _window, _write_frame,
                        _write_header)


def periodic_grid(size=128, n=1):
    return GridSpec(n=n, sizes=(size,) * n, h=1.0 / size, boundary=PERIODIC)


def dirichlet_grid(size=65, n=1):
    return GridSpec(n=n, sizes=(size,) * n, h=1.0 / (size - 1), boundary=DIRICHLET)


def stationary_trajectory(grid, values, n_snaps=5, dt=1e-4, bv=None):
    snaps = tuple(FieldState(grid=grid, values=values.copy(), t=k * dt,
                             boundary_values=bv) for k in range(n_snaps))
    return Trajectory(snapshots=snaps, dt=dt)


def fresh_face_divergence(coef, fields, extra_coef, extra_field, grid):
    """The face divergence kernel at scale 1 over buffers made for this one call
    (`out` filled with NaN, which the kernel overwrites) and copies of `coef` and
    `extra_field`, which it scales in place."""
    shape = np.shape(fields)
    return _face_divergence(np.copy(coef), fields, extra_coef,
                            None if extra_field is None else np.copy(extra_field), grid,
                            1.0, np.full(shape, np.nan), np.empty(shape), np.empty(shape),
                            np.empty(shape[1:]))


def count_plan_builds(monkeypatch):
    """From here on, the plans `_shift_plans` builds, {(id(grid), pairs): [grid, ...]}
    with one entry per build (the grids kept, so no id is reused), and the modules that
    ask it for plans."""
    real, built, callers = grid_module._shift_plans, {}, set()

    def counted(grid, *pairs):
        callers.add(sys._getframe(1).f_globals["__name__"])
        if pairs not in grid.__dict__.get("_plans", {}):
            built.setdefault((id(grid), pairs), []).append(grid)
        return real(grid, *pairs)
    monkeypatch.setattr(grid_module, "_shift_plans", counted)
    return built, callers


# Frozen copies of the earlier stencil twins, np.roll on periodic grids and
# interior slicing on Dirichlet grids: the oracle for the one-path stencils.

def reference_laplacian(f, grid):
    h2 = grid.h * grid.h
    if grid.periodic:
        out = -2.0 * grid.n * f
        for a in range(grid.n):
            out += np.roll(f, 1, axis=a) + np.roll(f, -1, axis=a)
        return out / h2
    out = np.zeros_like(f)
    core = tuple(slice(1, -1) for _ in range(grid.n))
    acc = -2.0 * grid.n * f[core]
    for a in range(grid.n):
        up = list(core)
        dn = list(core)
        up[a] = slice(2, None)
        dn[a] = slice(0, -2)
        acc = acc + f[tuple(up)] + f[tuple(dn)]
    out[core] = acc / h2
    return out


def reference_gradient_sq(comps, grid):
    out = np.zeros(grid.sizes)
    for c in range(comps.shape[0]):
        f = comps[c]
        for a in range(grid.n):
            if grid.periodic:
                d = (np.roll(f, -1, axis=a) - np.roll(f, 1, axis=a)) / (2.0 * grid.h)
            else:
                d = np.gradient(f, grid.h, axis=a, edge_order=1)
            out += d * d
    return out


def reference_hessian_sq(comps, grid):
    h2 = grid.h * grid.h
    out = np.zeros(grid.sizes)

    def shift(f, a, k):
        return np.roll(f, -k, axis=a)

    if grid.periodic:
        for c in range(comps.shape[0]):
            f = comps[c]
            for a in range(grid.n):
                daa = (shift(f, a, 1) - 2.0 * f + shift(f, a, -1)) / h2
                out += daa * daa
                for b in range(grid.n):
                    if b == a:
                        continue
                    dab = (shift(shift(f, a, 1), b, 1) - shift(shift(f, a, 1), b, -1)
                           - shift(shift(f, a, -1), b, 1) + shift(shift(f, a, -1), b, -1)) / (4.0 * h2)
                    out += dab * dab
        return out

    core = tuple(slice(1, -1) for _ in range(grid.n))

    def sh(a, k):
        sl = list(core)
        sl[a] = slice(1 + k, (-1 + k) or None)
        return tuple(sl)

    def sh2(a, ka, b, kb):
        sl = list(core)
        sl[a] = slice(1 + ka, (-1 + ka) or None)
        sl[b] = slice(1 + kb, (-1 + kb) or None)
        return tuple(sl)

    acc = np.zeros_like(comps[0][core])
    for c in range(comps.shape[0]):
        f = comps[c]
        for a in range(grid.n):
            daa = (f[sh(a, 1)] - 2.0 * f[core] + f[sh(a, -1)]) / h2
            acc += daa * daa
            for b in range(grid.n):
                if b == a:
                    continue
                dab = (f[sh2(a, 1, b, 1)] - f[sh2(a, 1, b, -1)]
                       - f[sh2(a, -1, b, 1)] + f[sh2(a, -1, b, -1)]) / (4.0 * h2)
                acc += dab * dab
    out[core] = acc
    return out


# 1D, 2D and 3D, both boundary kinds, cubes and anisotropic boxes
STENCIL_GRIDS = [
    GridSpec(n=1, sizes=(128,), h=1.0 / 128, boundary=PERIODIC),
    GridSpec(n=1, sizes=(129,), h=1.0 / 128, boundary=DIRICHLET),
    GridSpec(n=2, sizes=(24, 16), h=1.0 / 24, boundary=PERIODIC),
    GridSpec(n=2, sizes=(17, 17), h=1.0 / 16, boundary=DIRICHLET),
    GridSpec(n=2, sizes=(9, 21), h=1.0 / 8, boundary=DIRICHLET),
    GridSpec(n=3, sizes=(12, 8, 10), h=1.0 / 12, boundary=PERIODIC),
    GridSpec(n=3, sizes=(9, 13, 11), h=1.0 / 8, boundary=DIRICHLET),
]


class TestStencilParity:
    """One slicing path per stencil reproduces the roll/slice twins."""

    @pytest.mark.parametrize("g", STENCIL_GRIDS, ids=lambda g: f"{g.boundary}-{g.sizes}")
    def test_laplacian(self, g):
        rng = np.random.default_rng(sum(g.sizes))
        u = rng.standard_normal((3, *g.sizes))
        for f in u:
            ref = reference_laplacian(f, g)
            got = _laplacian(f, g)
            if g.periodic:
                assert np.array_equal(got, ref)
            else:  # the neighbour pair is summed first now, a reordering
                assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
                assert np.all(got[g.boundary_mask] == 0.0)
        # a component stack is differenced componentwise
        assert np.array_equal(_laplacian(u, g), np.stack([_laplacian(f, g) for f in u]))

    @pytest.mark.parametrize("g", STENCIL_GRIDS, ids=lambda g: f"{g.boundary}-{g.sizes}")
    def test_gradient_sq_and_hessian_sq_are_bit_identical(self, g):
        rng = np.random.default_rng(sum(g.sizes) + 1)
        u = rng.standard_normal((2, *g.sizes))
        # the interior bit for bit; a Dirichlet ring is zero, as in every stencil
        core = g.interior_slices
        got = _gradient_sq(u, g)
        assert np.array_equal(got[core], reference_gradient_sq(u, g)[core])
        assert np.all(got[g.boundary_mask] == 0.0)
        assert np.array_equal(hessian_sq(u, g), reference_hessian_sq(u, g))
        assert np.array_equal(hessian_sq(u[0], g), reference_hessian_sq(u[:1], g))

    @pytest.mark.parametrize("g", STENCIL_GRIDS, ids=lambda g: f"{g.boundary}-{g.sizes}")
    def test_shifted_pairs_every_neighbour_with_its_wrap(self, g):
        # op(f[x + k1 e], f[x + k2 e]) for every ordered pair, with a
        # non-commutative op, against np.roll; the wrapped planes included
        rng = np.random.default_rng(sum(g.sizes) + 2)
        u = rng.standard_normal((2, *g.sizes))
        out = np.empty_like(u)
        for axis in range(1, g.n + 1):
            for k1 in (-1, 0, 1):
                for k2 in (-1, 0, 1):
                    if k1 == k2 == 0:
                        continue
                    (plan,) = _shift_plans(g, (k1, k2))[axis - 1]
                    _shifted(np.subtract, u, plan, out)
                    want = np.roll(u, -k1, axis=axis) - np.roll(u, -k2, axis=axis)
                    assert np.array_equal(out, want), (axis, k1, k2)

    @pytest.mark.parametrize("g", STENCIL_GRIDS, ids=lambda g: f"{g.boundary}-{g.sizes}")
    def test_kept_plans_and_reused_buffers_equal_a_fresh_grid(self, g):
        # the plans the grid keeps and buffers reused, ten fresh fields: every call
        # equals the kernel's call on a new equal grid, which builds its own plans,
        # with no buffers given
        rng = np.random.default_rng(sum(g.sizes) + 3)
        shape = (2, *g.sizes)
        fresh = lambda: replace(g)   # noqa: E731  (a grid object with no plans kept)
        pair = _shift_plans(g, (1, -1))[-1][0]
        work, out, shifted = np.empty(shape), np.empty(shape), np.empty(shape)
        flux, tmp, face = np.empty(shape), np.empty(shape), np.empty(g.sizes)
        grad, diff = np.empty(g.sizes), np.empty(g.sizes)
        for _ in range(10):
            u = rng.standard_normal(shape)
            a, c, H = rng.uniform(0.5, 2.0, g.sizes), rng.standard_normal(shape), \
                rng.standard_normal(g.sizes)
            assert np.array_equal(_laplacian(u, g, work, out), _laplacian(u, fresh()))
            # one plan serves a single field as well as the stack
            assert np.array_equal(_laplacian(u[0], g), _laplacian(u[0], fresh()))
            assert np.array_equal(_gradient_sq(u, g, grad, diff), _gradient_sq(u, fresh()))
            want = fresh_face_divergence(a, u, c, H, fresh())
            assert np.array_equal(_face_divergence(a, u, c, H, g, 1.0, out, flux, tmp, face),
                                  want)
            want = np.roll(u, -1, axis=g.n) - np.roll(u, 1, axis=g.n)
            assert np.array_equal(_shifted(np.subtract, u, pair, shifted), want)
        assert _shift_plans(g, (1, -1))[-1][0] is pair   # kept on the grid, not rebuilt

    def test_hessian_sq_checks_its_input(self):
        g = periodic_grid(16, n=2)
        f = np.zeros(g.sizes)
        f[3, 4] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            hessian_sq(f, g)
        with pytest.raises(ValueError, match="shape"):
            hessian_sq(np.zeros((16, 8)), g)


class TestVectorNorm:
    @pytest.mark.parametrize("sizes", [(33,), (9, 12), (5, 4, 6)])
    def test_buffered_norm_is_the_allocating_one_bit_for_bit(self, sizes):
        # the square into `work`, the component sum into `out`, the root in place
        rng = np.random.default_rng(len(sizes))
        out, work = np.full(sizes, np.nan), np.full((8, *sizes), np.nan)
        for nc in range(1, 9):
            u = rng.standard_normal((nc, *sizes)) * 10.0 ** rng.integers(-160, 150, (nc, *sizes))
            want = np.sqrt(np.sum(np.square(u), axis=0))
            assert np.array_equal(vector_norm(u), want)
            got = vector_norm(u, out, work[:nc])
            assert got is out and np.array_equal(got, want)


class TestGridSpec:
    def test_rejects_small_axes(self):
        with pytest.raises(ValueError, match="at least 4"):
            GridSpec(n=1, sizes=(3,), h=0.1)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            GridSpec(n=2, sizes=(8,), h=0.1)

    def test_boundary_layer_partitions_grid(self):
        g = dirichlet_grid(9, n=2)
        # one-cell ring: 9^2 - 7^2 boundary points
        assert g.boundary_mask.sum() == 81 - 49

    def test_periodic_has_no_boundary(self):
        g = periodic_grid(8)
        assert g.boundary_mask.sum() == 0


class TestLaplacian:
    def test_constant_field_vanishes(self):
        for g in (periodic_grid(16), dirichlet_grid(17)):
            f = np.full(g.sizes, 3.7)
            assert np.all(_laplacian(f, g) == 0.0)

    @pytest.mark.parametrize("size", [17, 33, 101])
    def test_exact_on_quadratics(self, size):
        # central second difference reproduces f'' = 2 exactly for f = x^2,
        # whatever the spacing
        g = dirichlet_grid(size)
        x = g.coords(0)
        out = _laplacian(x * x, g)
        assert np.abs(out[1:-1] - 2.0).max() < 1e-10
        assert np.all(out[[0, -1]] == 0.0)

    def test_periodic_sine_eigenfield(self):
        g = periodic_grid(128)
        x = g.coords(0)
        f = np.sin(2 * np.pi * x)
        lam_h = -(4.0 / g.h ** 2) * np.sin(np.pi * g.h) ** 2
        out = _laplacian(f, g)
        assert np.abs(out - lam_h * f).max() < 1e-10
        # cross-check by direct stencil evaluation (different summation order,
        # so agreement is to rounding of the 1/h^2-scaled intermediates)
        for j in (0, 17, 63, 127):
            direct = (f[(j + 1) % 128] - 2 * f[j] + f[j - 1]) / g.h ** 2
            assert abs(out[j] - direct) < 1e-9

    def test_axis_swap_isotropy(self):
        rng = np.random.default_rng(0)
        for g in (periodic_grid(12, n=2), dirichlet_grid(12, n=2)):
            f = rng.standard_normal(g.sizes)
            out = _laplacian(f, g)
            swapped = _laplacian(f.T.copy(), g).T
            # the transpose reorders the axis sums, so only rounding may differ
            assert np.abs(swapped - out).max() <= 1e-13 * np.abs(out).max()
            gs = _gradient_sq(f[None], g)
            gs_swapped = _gradient_sq(f.T.copy()[None], g).T
            assert np.abs(gs_swapped - gs).max() <= 1e-13 * max(gs.max(), 1.0)

    def test_periodic_divergence_theorem(self):
        rng = np.random.default_rng(1)
        g = periodic_grid(64)
        f = rng.standard_normal(64)
        assert abs(_laplacian(f, g).sum()) < 1e-12 * np.abs(f).max() / g.h ** 2


class TestGradientSq:
    def test_constant_is_zero(self):
        for g in (periodic_grid(16), dirichlet_grid(17)):
            f = np.full((2, *g.sizes), 1.5)
            assert np.all(_gradient_sq(f, g) == 0.0)

    def test_linear_slope(self):
        g = dirichlet_grid(33)
        u = 3.0 * g.coords(0)
        out = _gradient_sq(u[None], g)
        assert np.abs(out[1:-1] - 9.0).max() < 1e-12
        assert out[0] == out[-1] == 0.0   # the Dirichlet ring, zero as in every stencil

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(2)
        g = periodic_grid(24)
        u = rng.standard_normal((3, 24))
        out = _gradient_sq(u, g)
        # independent naive reimplementation
        ref = np.zeros(24)
        for c in range(3):
            for j in range(24):
                d = (u[c, (j + 1) % 24] - u[c, j - 1]) / (2 * g.h)
                ref[j] += d * d
        assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        g = dirichlet_grid(17, n=2)
        u = rng.standard_normal((2, 17, 17))
        assert _gradient_sq(u, g).min() >= 0.0


class TestHessianSq:
    def test_exact_on_a_quadratic_polynomial(self):
        from pelab import hessian_sq
        # f = x^2 + 3xy + 2y^2: second derivatives (2, 3, 4); ordered pairs
        # count the mixed one twice: 4 + 16 + 2*9 = 38
        g = dirichlet_grid(17, n=2)
        x = g.coords(0)[:, None]
        y = g.coords(1)[None, :]
        f = x * x + 3 * x * y + 2 * y * y
        out = hessian_sq(f, g)
        core = (slice(1, -1), slice(1, -1))
        assert np.abs(out[core] - 38.0).max() < 1e-9
        assert np.all(out[0] == 0.0) and np.all(out[-1] == 0.0)

    def test_periodic_and_dirichlet_agree_away_from_edges(self):
        from pelab import hessian_sq
        rng = np.random.default_rng(6)
        f = rng.standard_normal((12, 12))
        gp = periodic_grid(12, n=2)
        gd = GridSpec(n=2, sizes=(12, 12), h=gp.h, boundary=DIRICHLET)
        a = hessian_sq(f, gp)
        b = hessian_sq(f, gd)
        deep = (slice(2, -2), slice(2, -2))  # wrap-free stencils only
        assert np.abs(a[deep] - b[deep]).max() <= 1e-12 * np.abs(a[deep]).max()


def integrals(traj, terms, field):
    """The cylinder fold's (sum, point count) per (cylinder, power) term over a stored
    trajectory, the field of a snapshot being field(snapshot)."""
    return _replay(traj, _CylinderFold(traj.grid, terms, field)).result()


def members(traj, q):
    """(ball mask, snapshot indices) of a cylinder, from the fold's `_ball` and `_window`."""
    a, b = _window(q)
    return _ball(traj.grid, q), np.nonzero((traj.times > a) & (traj.times <= b))[0]


def cylinder_mean(traj, q, field):
    [(total, count)] = integrals(traj, [(q, 1.0)], lambda snap: field)
    return total / count


class TestCylinders:
    def test_average_of_ones(self):
        g = periodic_grid(64)
        traj = stationary_trajectory(g, np.zeros((1, 64)), n_snaps=8)
        q = Cylinder(center=(0.5,), t0=traj.times[-1], R=0.1)
        assert cylinder_mean(traj, q, np.ones(g.sizes)) == pytest.approx(1.0, abs=1e-15)

    def test_indicator_average_is_count_ratio(self):
        g = periodic_grid(64)
        traj = stationary_trajectory(g, np.zeros((1, 64)), n_snaps=8)
        q = Cylinder(center=(0.5,), t0=traj.times[-1], R=0.1)
        mask, idx = members(traj, q)
        ind = np.zeros(g.sizes)
        chosen = np.nonzero(mask)[0][: mask.sum() // 2]
        ind[chosen] = 1.0
        got = cylinder_mean(traj, q, ind)
        assert got == pytest.approx(len(chosen) / mask.sum(), rel=1e-14)

    def test_quadratic_profile_matches_direct_sum(self):
        g = dirichlet_grid(65)
        x = g.coords(0)
        u = (x * (1 - x))[None]
        traj = stationary_trajectory(g, u, n_snaps=6, bv=(0.0,))

        def g2(snap):
            return _gradient_sq(snap.values, g)

        for R in (0.1, 0.2):
            q = Cylinder(center=(0.5,), t0=traj.times[-1], R=R)
            mask, idx = members(traj, q)
            field = g2(traj.snapshots[0])
            direct = 0.0
            for k in idx:
                for j in np.nonzero(mask)[0]:
                    direct += field[j]
            cell = g.h * (traj.times[1] - traj.times[0])
            direct *= cell
            [(total, count)] = integrals(traj, [(q, 1.0)], g2)
            assert count == mask.sum() * len(idx)
            assert total * cell == pytest.approx(direct, rel=1e-14)
            vol = mask.sum() * len(idx) * cell
            assert total / count == pytest.approx(direct / vol, rel=1e-14)

    def test_power_applies_to_the_values_in_the_ball(self):
        g = periodic_grid(32)
        traj = stationary_trajectory(g, np.zeros((1, 32)), n_snaps=4)
        q = Cylinder(center=(0.3,), t0=traj.times[-1], R=0.11)
        mask, idx = members(traj, q)
        field = np.random.default_rng(8).uniform(0.0, 2.0, size=g.sizes)
        [(total, _)] = integrals(traj, [(q, 1.5)], lambda snap: field)
        assert total == pytest.approx(len(idx) * np.sum(field[mask] ** 1.5), rel=1e-14)

    def test_monotone_under_domination(self):
        rng = np.random.default_rng(4)
        g = periodic_grid(32)
        traj = stationary_trajectory(g, np.zeros((1, 32)), n_snaps=4)
        q = Cylinder(center=(0.3,), t0=traj.times[-1], R=0.11)
        lo = rng.uniform(0.0, 1.0, size=g.sizes)
        hi = lo + rng.uniform(0.0, 1.0, size=g.sizes)
        assert cylinder_mean(traj, q, lo) <= cylinder_mean(traj, q, hi)

    def test_field_must_live_on_the_grid(self):
        g = periodic_grid(32)
        traj = stationary_trajectory(g, np.zeros((1, 32)), n_snaps=4)
        q = Cylinder(center=(0.3,), t0=traj.times[-1], R=0.11)
        with pytest.raises(ValueError, match="scalar field on the grid"):
            integrals(traj, [(q, 1.0)], lambda snap: np.zeros((1, 32)))

    def test_a_fed_fold_checks_the_windows_after_the_pass(self):
        # streamed snapshots have no times ahead: the balls are checked first, the
        # windows at the end
        g = periodic_grid(32)
        traj = stationary_trajectory(g, np.zeros((1, 32)), n_snaps=4)
        good = Cylinder(center=(0.3,), t0=traj.times[-1], R=0.11)
        late = Cylinder(center=(0.25,), t0=traj.times[0], R=0.001)   # one snapshot
        with pytest.raises(ValueError, match="periodic extent"):
            _CylinderFold(g, [(good, 1.0), (Cylinder(center=(0.5,), t0=0.0, R=0.6), 1.0)],
                          lambda snap: np.ones(g.sizes))
        read = []
        fold = _CylinderFold(g, [(good, 1.0), (late, 1.0)],
                             lambda snap: read.append(snap.t) or np.ones(g.sizes))
        for snap in traj.snapshots:
            fold.feed(snap)
        assert read == traj.times.tolist() and fold.spacing == traj.times[1] - traj.times[0]
        with pytest.raises(ValueError, match="intersects only 1 snapshots"):
            fold.result()
        fold = _CylinderFold(g, [(good, 1.0)], lambda snap: np.ones(g.sizes))
        for snap in traj.snapshots:
            fold.feed(snap)
        assert fold.result() == integrals(traj, [(good, 1.0)], lambda snap: np.ones(g.sizes))
        assert integrals(traj, [], lambda snap: read.append(snap.t)) == [] and \
            read == traj.times.tolist()

    def test_ball_wraps_around_periodic_boundary(self):
        g = periodic_grid(64)
        traj = stationary_trajectory(g, np.zeros((1, 64)), n_snaps=4)
        q = Cylinder(center=(0.01,), t0=traj.times[-1], R=0.1)
        mask, _ = members(traj, q)
        assert mask[-1] and mask[0]  # minimal-image distance sees both ends

    def test_two_dimensional_ball_count_and_average(self):
        g = periodic_grid(32, n=2)
        traj = stationary_trajectory(g, np.zeros((1, 32, 32)), n_snaps=5)
        q = Cylinder(center=(0.5, 0.5), t0=traj.times[-1], R=0.13)
        mask, idx = members(traj, q)
        # independent count: loop the grid, minimal-image distance
        count = 0
        for i in range(32):
            for j in range(32):
                dx = min(abs(i / 32 - 0.5), 1 - abs(i / 32 - 0.5))
                dy = min(abs(j / 32 - 0.5), 1 - abs(j / 32 - 0.5))
                count += dx * dx + dy * dy <= 0.13 ** 2 * (1 + 1e-12)
        assert mask.sum() == count
        assert integrals(traj, [(q, 1.0)], lambda snap: np.ones(g.sizes))[0][1] == \
            count * len(idx)
        assert cylinder_mean(traj, q, np.ones(g.sizes)) == pytest.approx(1.0, abs=1e-15)

    def test_errors_name_the_failed_bound(self):
        g = dirichlet_grid(65)
        traj = stationary_trajectory(g, np.zeros((1, 65)), n_snaps=4, bv=(0.0,))
        ones = lambda snap: np.ones(g.sizes)  # noqa: E731
        with pytest.raises(ValueError, match="interior"):
            integrals(traj, [(Cylinder(center=(0.02,), t0=traj.times[-1], R=0.1), 1.0)], ones)
        with pytest.raises(ValueError, match="snapshots"):
            integrals(traj, [(Cylinder(center=(0.5,), t0=traj.times[0], R=0.01), 1.0)], ones)


class TestFieldState:
    def test_rejects_non_finite(self):
        g = periodic_grid(8)
        v = np.zeros((1, 8))
        v[0, 2] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            FieldState(grid=g, values=v, t=0.0)

    def test_dirichlet_boundary_must_match(self):
        g = dirichlet_grid(9)
        v = np.zeros((1, 9))
        v[0, 0] = 0.5
        with pytest.raises(ValueError, match="boundary"):
            FieldState(grid=g, values=v, t=0.0, boundary_values=(0.0,))

    def test_values_frozen(self):
        g = periodic_grid(8)
        s = FieldState(grid=g, values=np.zeros((1, 8)), t=0.0)
        with pytest.raises(ValueError):
            s.values[0, 0] = 1.0


class TestTrajectory:
    def test_spacing_must_be_uniform(self):
        g = periodic_grid(8)
        mk = lambda t: FieldState(grid=g, values=np.zeros((1, 8)), t=t)
        with pytest.raises(ValueError, match="uniform"):
            Trajectory(snapshots=(mk(0.0), mk(0.1), mk(0.15)), dt=0.05)

    def test_spacing_must_be_multiple_of_dt(self):
        g = periodic_grid(8)
        mk = lambda t: FieldState(grid=g, values=np.zeros((1, 8)), t=t)
        with pytest.raises(ValueError, match="multiple"):
            Trajectory(snapshots=(mk(0.0), mk(0.15)), dt=0.1)


class TestSnapshotFiles:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        g = dirichlet_grid(9, n=2)
        v = rng.standard_normal((3, 9, 9))
        ring = g.boundary_mask
        for c in range(3):
            v[c][ring] = 0.25 * c
        s = FieldState(grid=g, values=v, t=0.125, boundary_values=(0.0, 0.25, 0.5))
        path = tmp_path / "s.pelb"
        self.trajectory_file(path, [s])
        back = read_snapshot(path)
        assert back.grid == g
        assert back.t == 0.125
        assert back.boundary_values == (0.0, 0.25, 0.5)
        assert np.array_equal(back.values, s.values)

    def test_binary_layout(self, tmp_path):
        g = GridSpec(n=1, sizes=(4,), h=0.25, boundary=PERIODIC)
        s = FieldState(grid=g, values=np.arange(4, dtype=float)[None], t=2.0)
        path = tmp_path / "s.pelb"
        self.trajectory_file(path, [s])
        raw = path.read_bytes()
        assert raw[:4] == b"PELB"
        assert int.from_bytes(raw[4:8], "little") == 2
        assert raw[8] == 1 and raw[9] == 1 and raw[10] == 0
        assert int.from_bytes(raw[11:19], "little") == 4
        assert np.frombuffer(raw[19:27], "<f8")[0] == 0.25   # h, the last header field
        assert np.frombuffer(raw[27:35], "<f8")[0] == 2.0    # t, the frame's first field
        assert np.array_equal(np.frombuffer(raw[35:], "<f8"), [0.0, 1.0, 2.0, 3.0])
        assert len(raw) == 27 + 8 + 4 * 8

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pelb"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(ValueError, match="magic"):
            read_snapshot(path)

    def test_three_dimensional_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        g = GridSpec(n=3, sizes=(4, 5, 6), h=0.125, boundary=PERIODIC)
        s = FieldState(grid=g, values=rng.standard_normal((2, 4, 5, 6)), t=0.5)
        self.trajectory_file(tmp_path / "s.pelb", [s])
        back = read_snapshot(tmp_path / "s.pelb")
        assert back.grid == g
        assert np.array_equal(back.values, s.values)

    @staticmethod
    def trajectory_file(path, states):
        with open(path, "wb") as fh:
            _write_header(fh, states[0].grid, states[0].n_components)
            for s in states:
                _write_frame(fh, s)

    @pytest.mark.parametrize("grid", [periodic_grid(8, n=2), dirichlet_grid(9)],
                             ids=["periodic-2d", "dirichlet-1d"])
    def test_every_frame_reads_back_bit_exact(self, tmp_path, grid):
        rng = np.random.default_rng(11)
        states = []
        for k in range(5):
            v = rng.standard_normal((2, *grid.sizes))
            bv = None if grid.periodic else (0.5, -0.25)
            if bv:
                for c in range(2):
                    v[c][grid.boundary_mask] = bv[c]
            states.append(FieldState(grid=grid, values=v, t=0.1 * k + 1e-17 * k,
                                     boundary_values=bv))
        path = tmp_path / "trajectory.pelb"
        self.trajectory_file(path, states)
        frame = 8 + 8 * states[0].values.size
        assert path.stat().st_size == 11 + 8 * grid.n + 8 + 5 * frame
        for k, s in enumerate(states):
            back = read_snapshot(path, k)
            assert back.grid == grid and back.boundary_values == s.boundary_values
            assert back.t == s.t
            assert back.values.tobytes() == s.values.tobytes()

    @pytest.mark.parametrize("index", [3, -1, 100])
    def test_an_index_out_of_range_names_path_and_index(self, tmp_path, index):
        g = periodic_grid(8)
        path = tmp_path / "s.pelb"
        self.trajectory_file(path, [FieldState(grid=g, values=np.zeros((1, 8)), t=float(k))
                                    for k in range(3)])
        with pytest.raises(IndexError) as exc:
            read_snapshot(path, index)
        assert str(exc.value) == f"{path}: frame index {index} out of range for 3 frames"

    @pytest.mark.parametrize("change, size", [
        ("trailing", 67 + 24), ("truncated", 67 - 8), ("cut-t", 30),
        ("header-only", 27), ("truncated-last-frame", 67 + 40 - 1)])
    def test_wrong_length_rejected_with_path(self, tmp_path, change, size):
        g = GridSpec(n=1, sizes=(4,), h=0.25, boundary=PERIODIC)
        path = tmp_path / "s.pelb"
        self.trajectory_file(path, [FieldState(grid=g, values=np.zeros((1, 4)), t=float(k))
                                    for k in range(2)])
        raw = path.read_bytes()   # a 27-byte header and two 40-byte frames
        path.write_bytes(raw[:67] + bytes(24) if change == "trailing" else raw[:size])
        for index in (0, 1):
            with pytest.raises(ValueError, match=f"{size} bytes, not the 27-byte header and "
                                                 f"whole 40-byte frames") as exc:
                read_snapshot(path, index)
            assert str(exc.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("cut, header", [(6, 11), (15, 27), (22, 27)],
                             ids=["head", "sizes", "h"])
    def test_cut_header_rejected_with_path(self, tmp_path, cut, header):
        g = GridSpec(n=1, sizes=(4,), h=0.25, boundary=PERIODIC)
        path = tmp_path / "s.pelb"
        self.trajectory_file(path, [FieldState(grid=g, values=np.zeros((1, 4)), t=0.0)])
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ValueError, match=f"{cut} bytes, shorter than the "
                                             f"{header}-byte header") as exc:
            read_snapshot(path)
        assert str(path) in str(exc.value)

    def test_a_version_1_file_is_rejected_with_path(self, tmp_path):
        # the earlier one-file-per-snapshot layout: h and t after the sizes, then values
        import struct
        path = tmp_path / "snap_000000.pelb"
        path.write_bytes(struct.pack("<4sIBBB", b"PELB", 1, 1, 1, 0)
                         + np.asarray([4], dtype="<u8").tobytes()
                         + struct.pack("<dd", 0.25, 0.0) + bytes(32))
        with pytest.raises(ValueError) as exc:
            read_snapshot(path)
        assert str(exc.value) == f"{path}: unsupported snapshot version 1"

    @staticmethod
    def raw_snapshot(n, nc, sizes, h=0.25, bflag=0, values=None):
        import struct
        count = nc * int(np.prod(sizes))
        body = np.zeros(count) if values is None else np.asarray(values, dtype="<f8")
        return (struct.pack("<4sIBBB", b"PELB", 2, n, nc, bflag)
                + np.asarray(sizes, dtype="<u8").tobytes()
                + struct.pack("<dd", h, 0.0) + body.tobytes())   # h, then the frame's t

    def test_unknown_boundary_flag_rejected_with_path(self, tmp_path):
        path = tmp_path / "s.pelb"
        path.write_bytes(self.raw_snapshot(1, 1, (8,), bflag=2))
        with pytest.raises(ValueError) as exc:
            read_snapshot(path)
        assert str(exc.value) == f"{path}: unknown boundary flag 2"

    def test_zero_components_rejected_with_path(self, tmp_path):
        path = tmp_path / "s.pelb"
        path.write_bytes(self.raw_snapshot(1, 0, (8,)))
        with pytest.raises(ValueError, match="declares 0 components") as exc:
            read_snapshot(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("n, sizes, h, message", [
        (4, (4, 4, 4, 4), 0.25, "spatial dimension must be 1, 2 or 3, got 4"),
        (2, (8, 3), 0.25, "every axis needs at least 4 points"),
        (1, (8,), -0.25, "spacing must be a positive finite number"),
    ], ids=["n=4", "short-axis", "negative-h"])
    def test_invalid_header_grid_rejected_with_path(self, tmp_path, n, sizes, h, message):
        path = tmp_path / "s.pelb"
        path.write_bytes(self.raw_snapshot(n, 1, sizes, h=h))
        with pytest.raises(ValueError, match=message) as exc:
            read_snapshot(path)
        assert str(exc.value).startswith(f"{path}: invalid grid in the header: ")

    @pytest.mark.parametrize("frames", [1, 3])
    def test_uneven_boundary_layer_names_the_component(self, tmp_path, frames):
        g = dirichlet_grid(8)
        path = tmp_path / "s.pelb"
        self.trajectory_file(path, [FieldState(grid=g, values=np.full((2, 8), 0.5), t=float(k),
                                               boundary_values=(0.5, 0.5))
                                    for k in range(frames)])
        raw = bytearray(path.read_bytes())
        raw[-8:] = np.float64(0.25).tobytes()   # the last point of component 1, last frame
        path.write_bytes(bytes(raw))
        for k in range(frames - 1):   # the earlier frames still read
            assert read_snapshot(path, k).boundary_values == (0.5, 0.5)
        with pytest.raises(ValueError, match="component 1 is not constant") as exc:
            read_snapshot(path, frames - 1)
        assert str(path) in str(exc.value)
