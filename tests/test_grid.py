import numpy as np
import pytest

from pelab import (DIRICHLET, PERIODIC, Cylinder, FieldState, GridSpec,
                   Trajectory, cylinder_integrals, cylinder_members, gradient_sq,
                   hessian_sq, laplacian, read_snapshot, write_snapshot)


def periodic_grid(size=128, n=1):
    return GridSpec(n=n, sizes=(size,) * n, h=1.0 / size, boundary=PERIODIC)


def dirichlet_grid(size=65, n=1):
    return GridSpec(n=n, sizes=(size,) * n, h=1.0 / (size - 1), boundary=DIRICHLET)


def stationary_trajectory(grid, values, n_snaps=5, dt=1e-4, bv=None):
    snaps = tuple(FieldState(grid=grid, values=values.copy(), t=k * dt,
                             boundary_values=bv) for k in range(n_snaps))
    return Trajectory(snapshots=snaps, dt=dt)


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
            got = laplacian(f, g)
            if g.periodic:
                assert np.array_equal(got, ref)
            else:  # the neighbour pair is summed first now, a reordering
                assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
                assert np.all(got[g.boundary_mask] == 0.0)
        # a component stack is differenced componentwise
        assert np.array_equal(laplacian(u, g), np.stack([laplacian(f, g) for f in u]))

    @pytest.mark.parametrize("g", STENCIL_GRIDS, ids=lambda g: f"{g.boundary}-{g.sizes}")
    def test_gradient_sq_and_hessian_sq_are_bit_identical(self, g):
        rng = np.random.default_rng(sum(g.sizes) + 1)
        u = rng.standard_normal((2, *g.sizes))
        assert np.array_equal(gradient_sq(u, g), reference_gradient_sq(u, g))
        assert np.array_equal(hessian_sq(u, g), reference_hessian_sq(u, g))
        assert np.array_equal(hessian_sq(u[0], g), reference_hessian_sq(u[:1], g))

    @pytest.mark.parametrize("stencil", [gradient_sq, hessian_sq])
    def test_validated_like_laplacian(self, stencil):
        g = periodic_grid(16, n=2)
        f = np.zeros(g.sizes)
        f[3, 4] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            stencil(f, g)
        with pytest.raises(ValueError, match="shape"):
            stencil(np.zeros((16, 8)), g)


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
            assert np.all(laplacian(f, g) == 0.0)

    @pytest.mark.parametrize("size", [17, 33, 101])
    def test_exact_on_quadratics(self, size):
        # central second difference reproduces f'' = 2 exactly for f = x^2,
        # whatever the spacing
        g = dirichlet_grid(size)
        x = g.coords(0)
        out = laplacian(x * x, g)
        assert np.abs(out[1:-1] - 2.0).max() < 1e-10
        assert np.all(out[[0, -1]] == 0.0)

    def test_periodic_sine_eigenfield(self):
        g = periodic_grid(128)
        x = g.coords(0)
        f = np.sin(2 * np.pi * x)
        lam_h = -(4.0 / g.h ** 2) * np.sin(np.pi * g.h) ** 2
        out = laplacian(f, g)
        assert np.abs(out - lam_h * f).max() < 1e-10
        # cross-check by direct stencil evaluation (different summation order,
        # so agreement is to rounding of the 1/h^2-scaled intermediates)
        for j in (0, 17, 63, 127):
            direct = (f[(j + 1) % 128] - 2 * f[j] + f[j - 1]) / g.h ** 2
            assert abs(out[j] - direct) < 1e-9

    def test_shape_mismatch_raises(self):
        g = periodic_grid(16)
        with pytest.raises(ValueError, match="shape"):
            laplacian(np.zeros(8), g)

    def test_non_finite_raises(self):
        g = periodic_grid(16)
        f = np.zeros(16)
        f[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            laplacian(f, g)

    def test_axis_swap_isotropy(self):
        rng = np.random.default_rng(0)
        for g in (periodic_grid(12, n=2), dirichlet_grid(12, n=2)):
            f = rng.standard_normal(g.sizes)
            out = laplacian(f, g)
            swapped = laplacian(f.T.copy(), g).T
            # the transpose reorders the axis sums, so only rounding may differ
            assert np.abs(swapped - out).max() <= 1e-13 * np.abs(out).max()
            gs = gradient_sq(f, g)
            gs_swapped = gradient_sq(f.T.copy(), g).T
            assert np.abs(gs_swapped - gs).max() <= 1e-13 * max(gs.max(), 1.0)

    def test_periodic_divergence_theorem(self):
        rng = np.random.default_rng(1)
        g = periodic_grid(64)
        f = rng.standard_normal(64)
        assert abs(laplacian(f, g).sum()) < 1e-12 * np.abs(f).max() / g.h ** 2


class TestGradientSq:
    def test_constant_is_zero(self):
        for g in (periodic_grid(16), dirichlet_grid(17)):
            f = np.full((2, *g.sizes), 1.5)
            assert np.all(gradient_sq(f, g) == 0.0)

    def test_linear_slope(self):
        g = dirichlet_grid(33)
        u = 3.0 * g.coords(0)
        out = gradient_sq(u, g)
        assert np.abs(out - 9.0).max() < 1e-12  # one-sided edges exact on linears too

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(2)
        g = periodic_grid(24)
        u = rng.standard_normal((3, 24))
        out = gradient_sq(u, g)
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
        assert gradient_sq(u, g).min() >= 0.0


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


def cylinder_mean(traj, q, field):
    [(total, count)] = cylinder_integrals(traj, [(q, 1.0)], lambda k: field)
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
        mask, idx = cylinder_members(traj, q)
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

        def g2(k):
            return gradient_sq(traj.snapshots[k].values, g)

        for R in (0.1, 0.2):
            q = Cylinder(center=(0.5,), t0=traj.times[-1], R=R)
            mask, idx = cylinder_members(traj, q)
            field = g2(0)
            direct = 0.0
            for k in idx:
                for j in np.nonzero(mask)[0]:
                    direct += field[j]
            cell = g.h * traj.snapshot_dt
            direct *= cell
            [(total, count)] = cylinder_integrals(traj, [(q, 1.0)], g2)
            assert count == mask.sum() * len(idx)
            assert total * cell == pytest.approx(direct, rel=1e-14)
            vol = mask.sum() * len(idx) * cell
            assert total / count == pytest.approx(direct / vol, rel=1e-14)

    def test_power_applies_to_the_values_in_the_ball(self):
        g = periodic_grid(32)
        traj = stationary_trajectory(g, np.zeros((1, 32)), n_snaps=4)
        q = Cylinder(center=(0.3,), t0=traj.times[-1], R=0.11)
        mask, idx = cylinder_members(traj, q)
        field = np.random.default_rng(8).uniform(0.0, 2.0, size=g.sizes)
        [(total, _)] = cylinder_integrals(traj, [(q, 1.5)], lambda k: field)
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
            cylinder_integrals(traj, [(q, 1.0)], lambda k: np.zeros((1, 32)))

    def test_every_term_is_validated_before_any_field(self):
        g = periodic_grid(32)
        traj = stationary_trajectory(g, np.zeros((1, 32)), n_snaps=4)
        good = Cylinder(center=(0.3,), t0=traj.times[-1], R=0.11)
        late = Cylinder(center=(0.25,), t0=traj.times[0], R=0.001)   # one snapshot
        read = []
        with pytest.raises(ValueError, match="intersects only 1 snapshots"):
            cylinder_integrals(traj, [(good, 1.0), (late, 1.0)],
                               lambda k: read.append(k) or np.ones(g.sizes))
        assert read == []
        assert cylinder_integrals(traj, [], lambda k: read.append(k)) == [] and read == []

    def test_ball_wraps_around_periodic_boundary(self):
        g = periodic_grid(64)
        traj = stationary_trajectory(g, np.zeros((1, 64)), n_snaps=4)
        q = Cylinder(center=(0.01,), t0=traj.times[-1], R=0.1)
        mask, _ = cylinder_members(traj, q)
        assert mask[-1] and mask[0]  # minimal-image distance sees both ends

    def test_two_dimensional_ball_count_and_average(self):
        g = periodic_grid(32, n=2)
        traj = stationary_trajectory(g, np.zeros((1, 32, 32)), n_snaps=5)
        q = Cylinder(center=(0.5, 0.5), t0=traj.times[-1], R=0.13)
        mask, idx = cylinder_members(traj, q)
        # independent count: loop the grid, minimal-image distance
        count = 0
        for i in range(32):
            for j in range(32):
                dx = min(abs(i / 32 - 0.5), 1 - abs(i / 32 - 0.5))
                dy = min(abs(j / 32 - 0.5), 1 - abs(j / 32 - 0.5))
                count += dx * dx + dy * dy <= 0.13 ** 2 * (1 + 1e-12)
        assert mask.sum() == count
        assert cylinder_integrals(traj, [(q, 1.0)], lambda k: np.ones(g.sizes))[0][1] == \
            count * len(idx)
        assert cylinder_mean(traj, q, np.ones(g.sizes)) == pytest.approx(1.0, abs=1e-15)

    def test_errors_name_the_failed_bound(self):
        g = dirichlet_grid(65)
        traj = stationary_trajectory(g, np.zeros((1, 65)), n_snaps=4, bv=(0.0,))
        with pytest.raises(ValueError, match="interior"):
            cylinder_members(traj, Cylinder(center=(0.02,), t0=traj.times[-1], R=0.1))
        with pytest.raises(ValueError, match="snapshots"):
            cylinder_members(traj, Cylinder(center=(0.5,), t0=traj.times[0], R=0.01))


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
        write_snapshot(path, s)
        back = read_snapshot(path)
        assert back.grid == g
        assert back.t == 0.125
        assert back.boundary_values == (0.0, 0.25, 0.5)
        assert np.array_equal(back.values, s.values)

    def test_binary_layout(self, tmp_path):
        g = GridSpec(n=1, sizes=(4,), h=0.25, boundary=PERIODIC)
        s = FieldState(grid=g, values=np.arange(4, dtype=float)[None], t=2.0)
        path = tmp_path / "s.pelb"
        write_snapshot(path, s)
        raw = path.read_bytes()
        assert raw[:4] == b"PELB"
        assert int.from_bytes(raw[4:8], "little") == 1
        assert raw[8] == 1 and raw[9] == 1 and raw[10] == 0
        assert int.from_bytes(raw[11:19], "little") == 4
        assert np.frombuffer(raw[19:27], "<f8")[0] == 0.25   # h
        assert np.frombuffer(raw[27:35], "<f8")[0] == 2.0    # t
        assert np.array_equal(np.frombuffer(raw[35:], "<f8"), [0.0, 1.0, 2.0, 3.0])
        assert len(raw) == 35 + 4 * 8

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pelb"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(ValueError, match="magic"):
            read_snapshot(path)

    def test_three_dimensional_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        g = GridSpec(n=3, sizes=(4, 5, 6), h=0.125, boundary=PERIODIC)
        s = FieldState(grid=g, values=rng.standard_normal((2, 4, 5, 6)), t=0.5)
        write_snapshot(tmp_path / "s.pelb", s)
        back = read_snapshot(tmp_path / "s.pelb")
        assert back.grid == g
        assert np.array_equal(back.values, s.values)

    @pytest.mark.parametrize("change", ["trailing", "truncated"])
    def test_wrong_length_rejected_with_path(self, tmp_path, change):
        g = GridSpec(n=1, sizes=(4,), h=0.25, boundary=PERIODIC)
        path = tmp_path / "s.pelb"
        write_snapshot(path, FieldState(grid=g, values=np.zeros((1, 4)), t=0.0))
        raw = path.read_bytes()
        path.write_bytes(raw + bytes(24) if change == "trailing" else raw[:-8])
        with pytest.raises(ValueError, match="bytes where the header implies 67") as exc:
            read_snapshot(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("cut, header", [(6, 11), (15, 35), (22, 35), (30, 35)],
                             ids=["head", "sizes", "h", "t"])
    def test_cut_header_rejected_with_path(self, tmp_path, cut, header):
        g = GridSpec(n=1, sizes=(4,), h=0.25, boundary=PERIODIC)
        path = tmp_path / "s.pelb"
        write_snapshot(path, FieldState(grid=g, values=np.zeros((1, 4)), t=0.0))
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ValueError, match=f"{cut} bytes, shorter than the "
                                             f"{header}-byte header") as exc:
            read_snapshot(path)
        assert str(path) in str(exc.value)

    @staticmethod
    def raw_snapshot(n, nc, sizes, h=0.25, bflag=0, values=None):
        import struct
        count = nc * int(np.prod(sizes))
        body = np.zeros(count) if values is None else np.asarray(values, dtype="<f8")
        return (struct.pack("<4sIBBB", b"PELB", 1, n, nc, bflag)
                + np.asarray(sizes, dtype="<u8").tobytes()
                + struct.pack("<dd", h, 0.0) + body.tobytes())

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

    def test_uneven_boundary_layer_names_the_component(self, tmp_path):
        g = dirichlet_grid(8)
        path = tmp_path / "s.pelb"
        write_snapshot(path, FieldState(grid=g, values=np.full((2, 8), 0.5), t=0.0,
                                        boundary_values=(0.5, 0.5)))
        raw = bytearray(path.read_bytes())
        raw[-8:] = np.float64(0.25).tobytes()   # the last point of component 1
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="component 1 is not constant") as exc:
            read_snapshot(path)
        assert str(path) in str(exc.value)
