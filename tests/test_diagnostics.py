import functools
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft as sfft
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

from pelab import (DIRICHLET, PERIODIC, Cylinder, FieldState, GridSpec,
                   RangeExcursionError, RunConfig, Trajectory, build_entropy,
                   certify_window, choose_entropy_params, cosh_potential,
                   coupled_decomposition, h_minus_one_norm, holder_seminorm,
                   initial_field, quadratic, run, step_diffusion, vector_norm)
from pelab.diagnostics import (_calibration, _ContractionFold, _coupled_fold,
                               _diffusion_fold, _EstimateFold, _MorreyFold,
                               _ReverseHolderFold, _SupFold)
from pelab.grid import _gradient_sq, _laplacian, _replay
from pelab.potentials import CoupledCoefficients
from test_grid import (count_plan_builds, fresh_face_divergence, integrals, members,
                       reference_gradient_sq)


def dgrid(size=128, n=1):
    return GridSpec(n=n, sizes=(size,) * n, h=1.0 / (size - 1), boundary=DIRICHLET)


def pgrid(size=128, n=1):
    return GridSpec(n=n, sizes=(size,) * n, h=1.0 / size, boundary=PERIODIC)


def stationary(grid, values, n_snaps=6, dt=1e-4, bv=None):
    snaps = tuple(FieldState(grid=grid, values=values.copy(), t=k * dt,
                             boundary_values=bv) for k in range(n_snaps))
    return Trajectory(snapshots=snaps, dt=dt)


def laplacian_matrix(grid):
    """Sparse -Lap (2n+1 points, 1/h^2) on the interior (Dirichlet) or all points (periodic)."""
    ks = list(grid.sizes) if grid.periodic else [m - 2 for m in grid.sizes]
    A = sp.csr_matrix((math.prod(ks),) * 2)
    for a, k in enumerate(ks):
        T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(k, k), format="lil")
        if grid.periodic:
            T[0, k - 1] = T[k - 1, 0] = -1.0
        factors = [T if b == a else sp.identity(j) for b, j in enumerate(ks)]
        A = A + functools.reduce(sp.kron, factors)
    return (A / (grid.h * grid.h)).tocsc()


def oracle_norm(values, grid):
    """H^-1 norm by a sparse direct solve: sqrt(sum_c f_c . A^-1 f_c h^n).

    Periodic data are projected onto the mean-zero subspace and the singular
    system is grounded at the first point.
    """
    A = laplacian_matrix(grid)
    core = tuple(slice(None) if grid.periodic else slice(1, -1) for _ in range(grid.n))
    comps = np.reshape(values, (-1, *grid.sizes))
    b = comps[(slice(None), *core)].reshape(len(comps), -1).T
    if grid.periodic:
        b = b - b.mean(axis=0)
        w = np.zeros_like(b)
        w[1:] = spsolve(A[1:, 1:], b[1:], permc_spec="MMD_AT_PLUS_A").reshape(b[1:].shape)
    else:
        w = spsolve(A, b, permc_spec="MMD_AT_PLUS_A").reshape(b.shape)
    return math.sqrt(float(np.sum(b * w)) * grid.cell_volume())


def frozen_laplacian_symbol(grid):
    """Eigenvalues of the 2n+1-point -Lap on the solve space: the DFT modes of a
    periodic grid (k = 0 set to inf), the DST-I modes k = 1..m-2 of a Dirichlet
    interior.  A frozen copy of the earlier implementation."""
    mu = np.zeros(())
    for a, m in enumerate(grid.sizes):
        if grid.periodic:
            s = np.sin(np.pi * np.arange(m) / m)
        else:
            s = np.sin(np.pi * np.arange(1, m - 1) / (2.0 * (m - 1)))
        shape = [1] * grid.n
        shape[a] = -1
        mu = mu + (4.0 / (grid.h * grid.h) * s * s).reshape(shape)
    if grid.periodic:
        mu[(0,) * grid.n] = np.inf
    return mu


def frozen_gradient_energy(w_full, grid):
    """Sum over faces (wrapping when periodic) of squared forward differences
    times h^n.  A frozen copy of the earlier implementation."""
    total = 0.0
    for a in range(grid.n):
        wrap = {"append": w_full.take([0], axis=a)} if grid.periodic else {}
        d = np.diff(w_full, axis=a, **wrap) / grid.h
        total += float(np.sum(d * d))
    return total * grid.cell_volume()


def scipy_fft_norm(values, grid):
    """The H^-1 solve by scipy.fft (fftn on periodic grids, dstn type 1 on the
    Dirichlet interior) and the face gradient energy of the solution: the
    earlier implementation, kept as an oracle."""
    comps = np.reshape(values, (-1, *grid.sizes))
    axes = tuple(range(1, grid.n + 1))
    mu = frozen_laplacian_symbol(grid)
    if grid.periodic:
        w = sfft.ifftn(sfft.fftn(comps, axes=axes) / mu, axes=axes).real
    else:
        core = (slice(None), *grid.interior_slices)
        w = np.zeros_like(comps)
        w[core] = sfft.idstn(sfft.dstn(comps[core], type=1, axes=axes) / mu,
                             type=1, axes=axes)
    return math.sqrt(sum(frozen_gradient_energy(wc, grid) for wc in w))


class TestHMinusOne:
    def test_zero_field(self):
        assert h_minus_one_norm(np.zeros((1, 65)), dgrid(65)) == 0.0

    def test_sine_against_poisson_solution(self):
        # continuum: w = -sin(pi x)/pi^2, energy 1/(2 pi^2); discrete eigenvalue
        # version is exact: energy = 1/(2 mu_h) with mu_h = (4/h^2) sin^2(pi h/2)
        g = dgrid(128)
        f = np.sin(np.pi * g.coords(0))
        got = h_minus_one_norm(f, g)
        mu_h = 4.0 / g.h ** 2 * math.sin(math.pi * g.h / 2.0) ** 2
        assert got ** 2 == pytest.approx(1.0 / (2.0 * mu_h), rel=1e-11)
        assert got ** 2 == pytest.approx(1.0 / (2.0 * math.pi ** 2), rel=1e-4)
        assert got == pytest.approx(0.225079, abs=1e-4)

    def test_construct_and_invert(self):
        # f = Lap g for interior-supported g recovers the energy of g
        rng = np.random.default_rng(0)
        g = dgrid(40)
        w = np.zeros(40)
        w[1:-1] = rng.standard_normal(38)
        f = _laplacian(w, g)
        h = g.h
        energy = float(np.sum(((w[1:] - w[:-1]) / h) ** 2)) * h
        got = h_minus_one_norm(f, g)
        assert got == pytest.approx(math.sqrt(energy), rel=1e-10)

    def test_homogeneity(self):
        rng = np.random.default_rng(1)
        g = dgrid(48)
        f = np.zeros(48)
        f[1:-1] = rng.standard_normal(46)
        base = h_minus_one_norm(f, g)
        for a in (3.0, -0.125, 1e6):
            assert h_minus_one_norm(a * f, g) == pytest.approx(abs(a) * base, rel=1e-12)

    def test_vector_is_root_sum_of_squares(self):
        rng = np.random.default_rng(2)
        g = dgrid(32)
        f = np.zeros((2, 32))
        f[:, 1:-1] = rng.standard_normal((2, 30))
        combined = h_minus_one_norm(f, g)
        parts = [h_minus_one_norm(f[c], g) for c in range(2)]
        assert combined == pytest.approx(math.hypot(*parts), rel=1e-12)

    def test_spectral_matches_sparse_oracle(self):
        rng = np.random.default_rng(3)
        for g in (dgrid(17, n=2), GridSpec(n=3, sizes=(9, 12, 7), h=0.1, boundary=DIRICHLET)):
            f = rng.standard_normal(g.sizes)
            assert h_minus_one_norm(f, g) == pytest.approx(oracle_norm(f, g), rel=1e-12)

    @pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
    @pytest.mark.parametrize("sizes", [(129,), (16,), (17,), (24, 10), (13, 21),
                                       (8, 9, 10), (12, 7, 5)])
    def test_numpy_transforms_match_scipy_fft(self, boundary, sizes):
        g = GridSpec(n=len(sizes), sizes=sizes, h=1.0 / max(sizes), boundary=boundary)
        f = np.random.default_rng(sum(sizes)).standard_normal((2, *sizes))
        want = scipy_fft_norm(f, g)
        assert abs(h_minus_one_norm(f, g) - want) <= 1e-13 * want

    @pytest.mark.parametrize("sizes", [(17, 12), (9, 8, 11)])
    def test_dirichlet_ignores_boundary_entries(self, sizes):
        g = GridSpec(n=len(sizes), sizes=sizes, h=1.0 / max(sizes), boundary=DIRICHLET)
        rng = np.random.default_rng(len(sizes))
        f = rng.standard_normal((2, *sizes))
        base = h_minus_one_norm(f, g)
        f[:, g.boundary_mask] = 1e6 * rng.standard_normal((2, int(g.boundary_mask.sum())))
        assert h_minus_one_norm(f, g) == base

    def test_periodic_spectral_matches_sparse_oracle(self):
        rng = np.random.default_rng(5)
        g = GridSpec(n=2, sizes=(24, 10), h=1.0 / 24, boundary=PERIODIC)
        f = rng.standard_normal((2, *g.sizes))
        got = h_minus_one_norm(f, g)
        assert got == pytest.approx(oracle_norm(f, g), rel=1e-12)
        assert h_minus_one_norm(f + 3.0, g) == pytest.approx(got, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 3), data=st.data(), periodic=st.booleans(),
           components=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(1e-3, 1e3), sign=st.sampled_from([-1.0, 1.0]))
    def test_property_oracle_and_homogeneity(self, n, data, periodic, components, seed,
                                             scale, sign):
        sizes = tuple(data.draw(st.lists(st.integers(4, 24), min_size=n, max_size=n)))
        g = GridSpec(n=n, sizes=sizes, h=1.0 / max(sizes),
                     boundary=PERIODIC if periodic else DIRICHLET)
        f = np.random.default_rng(seed).standard_normal((components, *sizes))
        got = h_minus_one_norm(f, g)
        assert got == pytest.approx(oracle_norm(f, g), rel=1e-12)
        assert h_minus_one_norm(sign * scale * f, g) == pytest.approx(scale * got, rel=1e-12)

    def test_poincare_inequality(self):
        # C_P = 1 / sqrt(mu_1), mu_1 the smallest eigenvalue of the interior -Lap
        rng = np.random.default_rng(4)
        for g in (dgrid(33), dgrid(17, n=2)):
            cp = 1.0 / math.sqrt(float(np.linalg.eigvalsh(laplacian_matrix(g).toarray())[0]))
            for _ in range(5):
                f = np.zeros(g.sizes)
                core = tuple(slice(1, -1) for _ in range(g.n))
                f[core] = rng.standard_normal(f[core].shape)
                l2 = math.sqrt(float(np.sum(f * f)) * g.cell_volume())
                assert h_minus_one_norm(f, g) <= cp * l2 * (1 + 1e-12)

    def test_periodic_variant_mode_oracle(self):
        g = pgrid(64)
        f = np.sin(2 * np.pi * g.coords(0))
        mu_h = 4.0 / g.h ** 2 * math.sin(math.pi * g.h) ** 2
        got = h_minus_one_norm(f, g)
        assert got ** 2 == pytest.approx(0.5 / mu_h, rel=1e-9)


def calibrated_K(config):
    """K of tau(h) = K (h^2 + dt), fitted as the entropy checks fit it: on a run of its own."""
    cfg, observe, fit = _calibration(config)
    return fit(run(cfg, observe).dt)


@pytest.mark.parametrize("boundary, initial, bv, above_one", [
    (PERIODIC, {"kind": "bands", "kmax": 3, "amplitude": 0.5}, None, False),
    (PERIODIC, {"kind": "bands", "kmax": 3, "amplitude": 0.5, "offset": [1.7]}, None, True),
    (DIRICHLET, {"kind": "mode", "k": [1], "amplitude": 0.1}, (1.5,), True)])
def test_the_calibration_range_covers_the_runs_initial_state(boundary, initial, bv,
                                                             above_one):
    # max(2, 2 sup|u0|) of the state the run starts from, its Dirichlet ring included
    grid = pgrid(32) if boundary == PERIODIC else dgrid(33)
    config = RunConfig(grid=grid, n_components=1, potential=cosh_potential(3.0), t_end=1e-3,
                       initial=initial, seed=5, boundary_values=bv)
    cfg, observe, fit = _calibration(config)
    sup = float(vector_norm(run(replace(config, t_end=0.0)).final.values).max())
    assert (sup > 1.0) is above_one and cfg.potential.r_max == max(2.0, 2.0 * sup)
    assert fit(run(cfg, observe).dt) > 0.0


def morrey_verdict(traj, points, radii, g=None, decay_factor=0.5):
    """The morrey check's verdict on a stored trajectory."""
    return _replay(traj, _MorreyFold(traj.grid, points, radii, g)).report(decay_factor)


def dirichlet_run(pot, size, init, t_end=0.02, every=10, seed=1):
    cfg = RunConfig(grid=dgrid(size), n_components=1, potential=pot, t_end=t_end,
                    cfl_sigma=0.9, snapshot_every=every, initial=init, seed=seed)
    return run(cfg)


class TestContraction:
    def test_identical_trajectories_pass_with_zero_distance(self):
        p = cosh_potential(1.0)
        t = dirichlet_run(p, 64, {"kind": "mode", "k": [1], "amplitude": 0.5})
        fold = _replay(t, _ContractionFold(certify_window(p)), 0)
        rep = _replay(t, fold, 1).report(t, t, "contraction")
        assert rep.passed
        assert np.all(rep.values["d"] == 0.0)

    def test_heat_rate_matches_slowest_mode(self):
        q = quadratic(2.0)
        ta = dirichlet_run(q, 128, {"kind": "mode", "k": [1], "amplitude": 0.6},
                           t_end=0.05, every=25)
        tb = dirichlet_run(q, 128, {"kind": "mode", "k": [1], "amplitude": 0.3},
                           t_end=0.05, every=25)
        fold = _replay(ta, _ContractionFold(certify_window(q)), 0)
        rep = _replay(tb, fold, 1).report(ta, tb, "contraction")
        assert rep.passed
        d = rep.values["d"]
        assert d[-1] / d[0] == pytest.approx(math.exp(-math.pi ** 2 * 0.05), rel=0.02)

    def test_injected_growth_fails_with_witness_step(self):
        # anti-diffuse the larger run for one flipped-dt step: its mode amplitude
        # grows, so the distance to the smaller run jumps up at that snapshot
        p = cosh_potential(1.0)
        ta = dirichlet_run(p, 64, {"kind": "mode", "k": [1], "amplitude": 0.3})
        tb = dirichlet_run(p, 64, {"kind": "mode", "k": [1], "amplitude": 0.5})
        k = len(tb.snapshots) // 2
        snaps = list(tb.snapshots)
        grown = step_diffusion(snaps[k], p, -30 * tb.dt)  # flipped-dt step
        snaps[k] = FieldState(grid=grown.grid, values=grown.values, t=snaps[k].t,
                              boundary_values=grown.boundary_values)
        tampered = Trajectory(snapshots=tuple(snaps), dt=tb.dt, meta=tb.meta)
        fold = _replay(ta, _ContractionFold(certify_window(p)), 0)
        rep = _replay(tampered, fold, 1).report(ta, tampered, "contraction")
        assert not rep.passed
        assert rep.witness["step"] == k

    def test_mismatched_runs_rejected(self):
        p = cosh_potential(1.0)
        ta = dirichlet_run(p, 64, {"kind": "mode", "k": [1], "amplitude": 0.5})
        tb = dirichlet_run(p, 32, {"kind": "mode", "k": [1], "amplitude": 0.5})
        with pytest.raises(ValueError, match="mismatched"):
            fold = _replay(ta, _ContractionFold(certify_window(p)), 0)
            _replay(tb, fold, 1).report(ta, tb, "contraction")

    def test_periodic_path(self):
        p = cosh_potential(1.0)
        g = pgrid(64)
        mk = lambda seed: run(RunConfig(
            grid=g, n_components=1, potential=p, t_end=0.01, snapshot_every=10,
            initial={"kind": "bands", "kmax": 2, "amplitude": 0.4},
            seed=seed))
        ta, tb = mk(1), mk(2)
        fold = _replay(ta, _ContractionFold(certify_window(p)), 0)
        rep = _replay(tb, fold, 1).report(ta, tb, "contraction")
        assert rep.passed


    @pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
    def test_each_distance_is_one_call_of_the_public_norm(self, boundary, monkeypatch):
        import pelab.diagnostics as diagnostics

        p = cosh_potential(1.0)
        g = pgrid(32, n=2) if boundary == PERIODIC else dgrid(17, n=2)
        mk = lambda seed: run(RunConfig(
            grid=g, n_components=2, potential=p, t_end=0.004, snapshot_every=1,
            initial={"kind": "bands", "kmax": 2, "amplitude": 0.4}, seed=seed))
        ta, tb = mk(1), mk(2)
        calls = []
        norm = diagnostics.h_minus_one_norm
        monkeypatch.setattr(diagnostics, "h_minus_one_norm",
                            lambda values, grid: (calls.append(grid), norm(values, grid))[1])
        fold = _replay(ta, _ContractionFold(certify_window(p)), 0)
        rep = _replay(tb, fold, 1).report(ta, tb, "contraction")
        assert calls == [g] * len(ta.snapshots) and len(ta.snapshots) > 5
        # the same numbers as the norm taken snapshot by snapshot
        want = [norm(b.values - a.values, g) for a, b in zip(ta.snapshots, tb.snapshots)]
        assert np.array_equal(rep.values["d"], want)


class TestSupNorm:
    def test_constant_state_equality(self):
        g = pgrid(32)
        traj = stationary(g, np.full((1, 32), 0.7))
        rep = _replay(traj, _SupFold()).report("sup-norm")
        assert rep.passed
        assert np.all(rep.values["sup"] == rep.values["bound"])

    def test_tampered_run_fails_with_witness(self):
        g = pgrid(32)
        vals = np.full((1, 32), 0.5)
        snaps = [FieldState(grid=g, values=vals, t=0.0),
                 FieldState(grid=g, values=1.2 * vals, t=1e-4)]
        traj = Trajectory(snapshots=tuple(snaps), dt=1e-4)
        rep = _replay(traj, _SupFold()).report("sup-norm")
        assert not rep.passed
        assert rep.witness["snapshot"] == 1
        assert "location" in rep.witness


class TestEntropyResiduals:
    def make_run(self, size=64, system="diffusion", init=None, sigma=0.9):
        init = init or {"kind": "bands", "kmax": 3, "amplitude": 0.5}
        cfg = RunConfig(grid=pgrid(size), n_components=1,
                        potential=cosh_potential(1.0), system=system, t_end=0.005,
                        cfl_sigma=sigma, snapshot_every=1, initial=init, seed=11)
        return run(cfg)

    def test_constant_state_zero_residual(self):
        g = pgrid(32)
        traj = stationary(g, np.full((1, 32), 0.4), dt=1e-5)
        traj = Trajectory(snapshots=traj.snapshots, dt=1e-5)
        p = cosh_potential(1.0)
        fold = _diffusion_fold(traj.grid, p, build_entropy(p), certify_window(p))
        rep = _replay(traj, fold).report(traj, None, "entropy-diffusion")
        assert rep.values["max_abs"] < 1e-12

    def test_quadratic_positive_part_below_scheme_scale(self):
        q = quadratic(2.0)
        cfg = RunConfig(grid=pgrid(64), n_components=1, potential=q, t_end=0.005,
                        snapshot_every=1, cfl_sigma=0.9,
                        initial={"kind": "bands", "kmax": 3, "amplitude": 0.5}, seed=11)
        traj = run(cfg)
        fold = _diffusion_fold(traj.grid, q, build_entropy(q), certify_window(q))
        rep = _replay(traj, fold).report(traj, None, "entropy-diffusion")
        h, dt = traj.grid.h, traj.dt
        # the aligned forward difference makes the positive part cancel to rounding
        assert rep.values["max_pos"] <= 1e-12
        assert rep.values["max_abs"] <= 200.0 * (h * h + dt)

    def test_cosh_passes_its_calibrated_tolerance(self):
        cfg = RunConfig(grid=pgrid(64), n_components=1, potential=cosh_potential(1.0),
                        t_end=0.005, snapshot_every=1, cfl_sigma=0.9,
                        initial={"kind": "bands", "kmax": 3, "amplitude": 0.5}, seed=11)
        K = calibrated_K(cfg)
        traj = run(cfg)
        p = cosh_potential(1.0)
        tau = K * (traj.grid.h ** 2 + traj.dt)
        fold = _diffusion_fold(traj.grid, p, build_entropy(p), certify_window(p))
        rep = _replay(traj, fold).report(traj, tau, "entropy-diffusion")
        assert rep.passed
        assert rep.values["max_pos"] <= tau

    def test_reversed_time_violates_inequality(self):
        # running the movie backwards is an entropy violation the monitor must flag
        traj = self.make_run()
        p = cosh_potential(1.0)
        n = len(traj.snapshots)
        rev = tuple(FieldState(grid=s.grid, values=s.values, t=traj.snapshots[k].t)
                    for k, s in enumerate(reversed(traj.snapshots)))
        back = Trajectory(snapshots=rev, dt=traj.dt)
        fold = _diffusion_fold(back.grid, p, build_entropy(p), certify_window(p))
        rep = _replay(back, fold).report(back, 1e-3, "entropy-diffusion")
        assert not rep.passed
        assert rep.values["max_pos"] > 1.0
        assert rep.witness is not None

    def test_requires_consecutive_snapshots(self):
        cfg = RunConfig(grid=pgrid(32), n_components=1, potential=cosh_potential(1.0),
                        t_end=0.005, snapshot_every=4,
                        initial={"kind": "mode", "amplitude": 0.5}, seed=0)
        traj = run(cfg)
        p = cosh_potential(1.0)
        with pytest.raises(ValueError, match="consecutive"):
            fold = _diffusion_fold(traj.grid, p, build_entropy(p), certify_window(p))
            _replay(traj, fold).report(traj, None, "entropy-diffusion")

    def test_coupled_residual_zero_on_constant(self):
        p = cosh_potential(1.0)
        cc = coupled_decomposition(p)
        g = pgrid(32)
        traj = stationary(g, np.full((1, 32), 0.5), dt=1e-5)
        pars = choose_entropy_params(cc, 1, 1)
        fold = _coupled_fold(traj.grid, cc, pars.s, pars.c)
        rep = _replay(traj, fold).report(traj, None, "entropy-coupled")
        assert rep.values["max_abs"] < 1e-12

    def test_coupled_residual_on_offset_run(self):
        init = {"kind": "bands", "kmax": 3, "amplitude": 0.17, "offset": [0.8]}
        traj = self.make_run(system="coupled", init=init)
        p = cosh_potential(1.0)
        cc = coupled_decomposition(p)
        pars = choose_entropy_params(cc, 1, 1)
        fold = _coupled_fold(traj.grid, cc, pars.s, pars.c)
        rep = _replay(traj, fold).report(traj, 1e-6, "entropy-coupled")
        assert rep.passed

    def test_coupled_zero_H_routed_to_diffusion_check(self):
        g = pgrid(32)
        traj = stationary(g, np.full((1, 32), 0.2), dt=1e-5)
        with pytest.raises(ValueError, match="diffusion entropy check"):
            fold = _coupled_fold(traj.grid, coupled_decomposition(quadratic()), 1.0, 0.5)
            _replay(traj, fold).report(traj, None, "entropy-coupled")

    @pytest.mark.parametrize("coupled", [False, True])
    def test_range_abort_names_the_first_offending_snapshot(self, coupled):
        p = cosh_potential(1.0)
        g = pgrid(32)
        vals = [np.full((1, 32), 0.5) for _ in range(4)]
        vals[2][0, 7] = 1.25      # first offender: snapshot 2, point 7
        vals[3][0, 3] = 1.5       # a larger one later must not be the witness
        traj = Trajectory(snapshots=tuple(FieldState(grid=g, values=v, t=k * 1e-5)
                                          for k, v in enumerate(vals)), dt=1e-5)
        with pytest.raises(RangeExcursionError, match=r"\(7,\), t = 2e-05") as exc:
            if coupled:
                cc = coupled_decomposition(p)
                pars = choose_entropy_params(cc, 1, 1)
                fold = _coupled_fold(traj.grid, cc, pars.s, pars.c)
                _replay(traj, fold).report(traj, None, "entropy-coupled")
            else:
                fold = _diffusion_fold(traj.grid, p, build_entropy(p), certify_window(p))
                _replay(traj, fold).report(traj, None, "entropy-diffusion")
        assert exc.value.location == (7,)
        assert exc.value.t == 2e-5
        assert "1.25" in str(exc.value)

    @pytest.mark.parametrize("pid", ["quadratic", "cosh", "quartic", "porous"])
    def test_positive_part_never_grows_under_refinement(self, pid):
        # on every built-in smooth experiment the positive part is scheme
        # error only; here it sits at the rounding floor at both resolutions
        from pelab import get_potential
        pot = get_potential(pid)
        pos = {}
        for size in (32, 64):
            cfg = RunConfig(grid=pgrid(size), n_components=1, potential=pot,
                            t_end=0.002, cfl_sigma=0.9, snapshot_every=1,
                            initial={"kind": "bands", "kmax": 2,
                                     "amplitude": 0.4 * pot.r_max},
                            seed=2)
            traj = run(cfg)
            fold = _diffusion_fold(traj.grid, pot, build_entropy(pot), certify_window(pot))
            rep = _replay(traj, fold).report(traj, None, "entropy-diffusion")
            pos[size] = (rep.values["max_pos"], rep.values["max_abs"])
        floor = 1e-12 * max(1.0, pos[64][1])
        assert pos[64][0] <= max(0.5 * pos[32][0], floor)


def frozen_residuals(traj, q_of, spatial, coef):
    """The residual pass before the shared norms: per pair, through kernels that make
    their own plans and buffers, each norm computed again where it is needed."""
    spacing, core = traj.times[1] - traj.times[0], traj.grid.interior_slices
    snaps = traj.snapshots
    return [((q_of(snaps[k + 1]) - q_of(snaps[k])) / spacing - spatial(q_of(snaps[k]), snaps[k])
             + coef * _gradient_sq(snaps[k].values, traj.grid))[core]
            for k in range(len(snaps) - 1)]


class TestResidualPassParity:
    """One norm per snapshot and the unchecked kernels leave both residual
    reports bit for bit the earlier pass's."""

    @pytest.mark.parametrize("boundary, sizes, nc", [
        (PERIODIC, (64,), 1), (DIRICHLET, (33,), 1), (PERIODIC, (16, 12), 2),
        (DIRICHLET, (13, 9), 2)])
    @pytest.mark.parametrize("coupled", [False, True])
    def test_reports_equal_the_frozen_pass(self, boundary, sizes, nc, coupled):
        p = cosh_potential(1.0)
        h = 1.0 / sizes[0] if boundary == PERIODIC else 1.0 / (sizes[0] - 1)
        g = GridSpec(n=len(sizes), sizes=sizes, h=h, boundary=boundary)
        cfg = RunConfig(grid=g, n_components=nc, potential=p, t_end=12 * h * h,
                        system="coupled" if coupled else "diffusion", snapshot_every=1,
                        initial={"kind": "bands", "kmax": 3, "amplitude": 0.17,
                                 "offset": [0.6] * nc}, seed=4,
                        boundary_values=None if boundary == PERIODIC else (0.3,) * nc)
        traj = run(cfg)
        if coupled:
            cc = coupled_decomposition(p)
            pars = choose_entropy_params(cc, g.n, nc)
            fold = _coupled_fold(traj.grid, cc, pars.s, pars.c)
            rep = _replay(traj, fold).report(traj, None, "entropy-coupled")

            def spatial(v_now, snap):
                r = vector_norm(snap.values)
                A = np.asarray(cc.a(r)) + np.zeros_like(r) + np.sum(
                    cc.c(snap.values, r) * cc.dH_profile(r)[None] * cc.c(snap.values, r),
                    axis=0)
                return fresh_face_divergence(A, v_now[None], None, None, g)[0]
            res = frozen_residuals(
                traj, lambda snap: np.exp(pars.s * (cc.H_profile(vector_norm(snap.values))
                                                    + np.zeros(g.sizes))), spatial, pars.c)
        else:
            ent, window = build_entropy(p), certify_window(p)
            fold = _diffusion_fold(traj.grid, p, ent, window)
            rep = _replay(traj, fold).report(traj, None, "entropy-diffusion")
            res = frozen_residuals(
                traj, lambda snap: p.phi(vector_norm(snap.values)),
                lambda q, snap: _laplacian(ent.gamma(q), g), window.lam ** 2)
        pos = np.concatenate([x[x > 0.0] for x in res] + [np.zeros(0)])
        assert rep.values["max_pos"] == (pos.max() if pos.size else 0.0)
        assert "p99_pos" not in rep.values
        assert rep.values["max_abs"] == max(np.abs(x).max() for x in res) > 0.0
        assert rep.witness is None and rep.values["pairs"] == len(res) >= 10


class TestResidualFoldMemory:
    """The residual fold keeps running maxima only, so its memory does not grow with
    the pair count, however many residuals are positive."""

    def test_peak_memory_does_not_grow_with_positive_residuals(self):
        import tracemalloc
        p, g = cosh_potential(1.0), pgrid(64, n=2)
        ent, window = build_entropy(p), certify_window(p)
        base = initial_field(g, 1, {"kind": "bands", "kmax": 3, "amplitude": 0.4}, 7)

        def fed(pairs):   # |u| grows by 0.2% a snapshot: the residuals are positive
            fold = _diffusion_fold(g, p, ent, window)
            for k in range(pairs + 1):
                fold.feed(FieldState(grid=g, values=base * (1.0 + 0.002 * k), t=k * 1e-5))
            return fold

        fed(2)   # warm: cached tables
        peaks = []
        for pairs in (56, 112):
            tracemalloc.start()
            try:
                fold = fed(pairs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert fold.stats()["pairs"] == pairs and fold.max_pos > 1.0
        field = 64 * 64 * 8
        # a few fields of allocator noise; pooling the positive values would add
        # about one field per pair, 56 fields
        assert peaks[1] - peaks[0] < 4 * field, peaks

    @pytest.mark.parametrize("components", [1, 2])
    def test_a_snapshot_after_the_first_pair_allocates_no_field(self, components):
        # phi returns one of two buffers in turn (the fold holds one q), so that
        # whatever a feed allocates is the fold's own
        import tracemalloc
        g, q = pgrid(64, n=2), quadratic(2.0)
        ent, window = build_entropy(q), certify_window(q)
        turns = [np.empty(g.sizes), np.empty(g.sizes)]

        def phi(r):
            if np.shape(r) != g.sizes:
                return q.phi(r)
            turns.reverse()
            return np.multiply(np.square(r, out=turns[0]), 0.5, out=turns[0])

        base = initial_field(g, components, {"kind": "bands", "kmax": 3, "amplitude": 0.4}, 7)
        snaps = [FieldState(grid=g, values=base * (1.0 - 0.01 * k), t=k * 1e-5)
                 for k in range(8)]
        fold = _diffusion_fold(g, replace(q, phi=phi), ent, window)
        reference = _diffusion_fold(g, q, ent, window)
        for snap in snaps[:2]:
            fold.feed(snap)
            reference.feed(snap)
        excess = []
        tracemalloc.start()
        try:
            for snap in snaps[2:]:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                fold.feed(snap)
                excess.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        for snap in snaps[2:]:
            reference.feed(snap)
        # views, scalars and numpy's own small scratch (under 8 KiB here); a field is 32 KiB
        assert max(excess) < 64 * 64 * 8 // 2, excess
        assert fold.stats() == reference.stats() and fold.witness == reference.witness


    def test_coupled_v_evaluates_H_in_the_fold_scratch(self):
        # v = exp(s H(|u|)) takes H into the scratch slabs the fold lends it, so a
        # snapshot's v allocates phi'(r), freed before exp, and its own q; evaluating
        # H into fresh arrays added H's output and the table's three scratch fields
        import tracemalloc
        g, p = pgrid(128, n=2), cosh_potential(1.0)
        cc = coupled_decomposition(p)
        s = choose_entropy_params(cc, g.n, 2).s
        fold = _coupled_fold(g, cc, s, choose_entropy_params(cc, g.n, 2).c)
        u = initial_field(g, 2, {"kind": "bands", "kmax": 3, "amplitude": 0.6}, 7)
        snap, r, work = FieldState(grid=g, values=u, t=0.0), vector_norm(u), np.empty((4, 128, 128))

        def fresh_v():   # the fold's v before it borrowed the scratch
            return np.exp(s * (np.asarray(cc.H_profile(r), dtype=float) + np.zeros_like(r)))

        peaks, values = [], []
        for v in (lambda: fold.at(snap, r, work), fresh_v):
            v()   # warm
            tracemalloc.start()
            try:
                values.append(v())
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        field = r.nbytes   # 128 KiB
        assert peaks[0] < 1.1 * field and peaks[1] - peaks[0] > 3.9 * field, peaks
        assert np.array_equal(values[0], values[1])


class TestChooseEntropyParams:
    def test_trivial_H(self):
        pars = choose_entropy_params(coupled_decomposition(quadratic()), 2, 3)
        assert pars.s == 1.0
        assert pars.c == pytest.approx(0.5, abs=1e-15)
        assert pars.big_c == 0.0

    def test_doubling_coupling_quadruples_constant(self):
        base = coupled_decomposition(cosh_potential(1.0))
        doubled = CoupledCoefficients(
            a=base.a, c=base.c, H_profile=base.H_profile,
            dH_profile=base.dH_profile,
            bounds={**base.bounds, "sup_c": 2.0}, lam_a=base.lam_a,
            lam_A=base.lam_A, r_max=base.r_max, id="x2")
        p1 = choose_entropy_params(base, 1, 4)
        p2 = choose_entropy_params(doubled, 1, 4)
        assert p2.big_c == pytest.approx(4 * p1.big_c, rel=1e-12)
        if p1.s > 1.0:  # when the 2C/lam branch binds, s scales with C
            assert p2.s == pytest.approx(4 * p1.s, rel=1e-12)

    def test_records_constants(self):
        cc = coupled_decomposition(cosh_potential(1.0))
        pars = choose_entropy_params(cc, 1, 2)
        assert pars.eps == pytest.approx(0.5 * pars.lam, rel=1e-12)
        assert pars.c == pytest.approx(0.5 * pars.lam * pars.s
                                       * math.exp(pars.s * cc.bounds["inf_H"]),
                                       rel=1e-12)


class TestMorrey:
    def test_zero_integrand(self):
        g = pgrid(64)
        traj = stationary(g, np.zeros((1, 64)), n_snaps=40, dt=1e-4)
        fold = _MorreyFold(traj.grid, [((0.5,), traj.times[-1])], [16 * g.h, 8 * g.h],
                           g=lambda s: np.zeros(g.sizes))
        [prof] = _replay(traj, fold).profiles()
        assert all(v == 0.0 for _, v in prof)

    def test_linear_profile_closed_form(self):
        # periodic triangle wave: |grad u|^2 = a^2 exactly away from the peaks,
        # so the quotient equals a^2 |Q_R|_h / R with the discrete volume
        a = 3.0
        gp = pgrid(256)
        x = gp.coords(0)
        u = (a * np.minimum(x, 1.0 - x))[None]
        traj = stationary(gp, u, n_snaps=60, dt=1e-4)
        t0 = traj.times[-1]
        got = dict()
        for R in (16 * gp.h, 8 * gp.h, 4 * gp.h):
            q = Cylinder(center=(0.25,), t0=t0, R=R)  # ball avoids both peaks
            mask, idx = members(traj, q)
            expected = a * a * mask.sum() * len(idx) * gp.h * (traj.times[1] - traj.times[0]) / R
            [prof] = _replay(traj, _MorreyFold(traj.grid, [((0.25,), t0)], [R])).profiles()
            assert prof[0][1] == pytest.approx(expected, rel=1e-13)
            got[R] = prof[0][1]
        # halving R quarters the quotient up to discrete-count granularity
        ratio = got[8 * gp.h] / got[16 * gp.h]
        assert ratio == pytest.approx(0.25, abs=0.1)

    def test_smooth_run_decays(self):
        p = cosh_potential(1.0)
        cfg = RunConfig(grid=pgrid(128), n_components=1, potential=p, t_end=0.02,
                        snapshot_every=8, cfl_sigma=0.9,
                        initial={"kind": "bands", "kmax": 3, "amplitude": 0.5}, seed=11)
        traj = run(cfg)
        h = traj.grid.h
        fold = _MorreyFold(traj.grid, [((0.37,), 0.02)], [16 * h, 8 * h, 4 * h])
        [prof] = _replay(traj, fold).profiles()
        vals = [v for _, v in prof]
        assert vals[0] > vals[1] > vals[2]

    def test_rotated_trajectory_same_profile(self):
        p = cosh_potential(1.0)
        cfg = RunConfig(grid=pgrid(64), n_components=2, potential=p, t_end=0.01,
                        snapshot_every=8, cfl_sigma=0.9,
                        initial={"kind": "bands", "kmax": 2, "amplitude": 0.5}, seed=4)
        traj = run(cfg)
        th = 1.1
        R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        rot = Trajectory(snapshots=tuple(
            FieldState(grid=s.grid, values=np.einsum("ij,j...->i...", R, s.values),
                       t=s.t) for s in traj.snapshots), dt=traj.dt)
        h = traj.grid.h
        [a] = _replay(traj, _MorreyFold(traj.grid, [((0.5,), 0.01)], [8 * h, 4 * h])).profiles()
        [b] = _replay(rot, _MorreyFold(rot.grid, [((0.5,), 0.01)], [8 * h, 4 * h])).profiles()
        for (_, va), (_, vb) in zip(a, b):
            assert va == pytest.approx(vb, abs=1e-10)

    def test_radius_floor(self):
        g = pgrid(64)
        traj = stationary(g, np.zeros((1, 64)), n_snaps=10)
        with pytest.raises(ValueError, match="4h"):
            _replay(traj, _MorreyFold(traj.grid, [((0.5,), traj.times[-1])], [2 * g.h])).profiles()

    def test_report_aggregates_points(self):
        g = pgrid(64)
        traj = stationary(g, np.zeros((1, 64)), n_snaps=40)
        rep = morrey_verdict(traj, [((0.3,), traj.times[-1]), ((0.7,), traj.times[-1])],
                             [8 * g.h, 4 * g.h])
        assert rep.passed  # zero field: both values zero

    def test_singular_set_variant(self):
        # optional probe: g = |grad u|^4 scaled by R^-(n-2); in 1D the exponent
        # is negative, so the quotient gains a factor R per radius step
        p = cosh_potential(1.0)
        cfg = RunConfig(grid=pgrid(128), n_components=1, potential=p, t_end=0.02,
                        snapshot_every=8, cfl_sigma=0.9,
                        initial={"kind": "bands", "kmax": 3, "amplitude": 0.5}, seed=11)
        traj = run(cfg)
        g = traj.grid
        g4 = lambda s: _gradient_sq(s.values, s.grid) ** 2
        fold = _MorreyFold(traj.grid, [((0.4,), 0.02)], [16 * g.h, 8 * g.h, 4 * g.h],
                           g=g4, exponent=g.n - 2)
        [prof] = _replay(traj, fold).profiles()
        vals = [v for _, v in prof]
        assert all(v >= 0 for v in vals)
        assert vals[-1] < vals[0]


class TestReverseHolder:
    def test_constant_trajectory_skipped(self):
        g = pgrid(64)
        traj = stationary(g, np.full((1, 64), 0.3), n_snaps=30)
        cyl = [Cylinder(center=(0.5,), t0=traj.times[-1], R=4 * g.h)]
        rep = _replay(traj, _ReverseHolderFold(traj.grid, cyl, 2.5)).report()
        assert rep.passed
        assert rep.values["skipped"] == 1

    def test_linear_gradient_gives_unit_ratio(self):
        # triangle wave: both sides average the constant |grad u| = a on
        # cylinders whose 4R enlargement avoids the peaks
        g = pgrid(256)
        x = g.coords(0)
        u = (2.5 * np.minimum(x, 1.0 - x))[None]
        traj = stationary(g, u, n_snaps=30)
        cyl = [Cylinder(center=(0.25,), t0=traj.times[-1], R=5 * g.h)]
        rep = _replay(traj, _ReverseHolderFold(traj.grid, cyl, 2.5)).report()
        assert rep.values["ratios"][0] == pytest.approx(1.0, rel=1e-12)

    def test_stability_against_reference(self):
        p = cosh_potential(1.0)

        def mk(size):
            return run(RunConfig(grid=pgrid(size), n_components=1, potential=p,
                                 t_end=0.02, snapshot_every=8, cfl_sigma=0.9,
                                 initial={"kind": "bands", "kmax": 3,
                                          "amplitude": 0.5}, seed=11))

        rng = np.random.default_rng(7)
        cyls = [Cylinder(center=(float(rng.uniform(0, 1)),), t0=0.02, R=0.032)
                for _ in range(20)]
        t128, t256 = mk(128), mk(256)
        coarse = _replay(t128, _ReverseHolderFold(t128.grid, cyls, 2.5)).report()
        fine = _replay(t256, _ReverseHolderFold(t256.grid, cyls, 2.5)).report(
            reference=coarse.values["max_ratio"])
        assert fine.passed
        assert abs(fine.values["max_ratio"] - coarse.values["max_ratio"]) \
            <= 0.2 * coarse.values["max_ratio"]

    def test_requires_p_above_two(self):
        g = pgrid(64)
        traj = stationary(g, np.zeros((1, 64)), n_snaps=10)
        with pytest.raises(ValueError, match="exceed 2"):
            _replay(traj, _ReverseHolderFold(traj.grid, [], 2.0)).report()


class TestEstimateRatios:
    def test_constant_trajectory_all_zero(self):
        g = pgrid(64)
        traj = stationary(g, np.full((2, 64), 0.4), n_snaps=30)
        p = cosh_potential(1.0)
        pairs = [(Cylinder(center=(0.5,), t0=traj.times[-2], R=8 * g.h),
                  Cylinder(center=(0.5,), t0=traj.times[-2], R=16 * g.h))]
        rep = _replay(traj, _EstimateFold(traj.grid, p, pairs)).report()
        assert rep.passed
        assert all(v == 0.0 for v in rep.values["maxima"].values())

    def test_heat_mode_matches_direct_summation_oracle(self):
        # brute-force the same discrete sums and compare the assembled ratios
        q = quadratic(2.0)
        cfg = RunConfig(grid=pgrid(64), n_components=1, potential=q, t_end=0.01,
                        snapshot_every=4, cfl_sigma=0.9,
                        initial={"kind": "mode", "k": [1], "amplitude": 0.8}, seed=0)
        traj = run(cfg)
        g = traj.grid
        small = Cylinder(center=(0.5,), t0=0.008, R=0.05)
        big = Cylinder(center=(0.5,), t0=0.008, R=0.1)
        rep = _replay(traj, _EstimateFold(traj.grid, q, [(small, big)])).report()

        from pelab import grad_Phi_field, hessian_sq
        spacing = traj.times[1] - traj.times[0]
        cell = g.h * spacing

        def brute(cyl, field_fn):
            mask, idx = members(traj, cyl)
            total = 0.0
            for k in idx:
                f = field_fn(k)
                for j in np.nonzero(mask)[0]:
                    total += f[j]
            return total * cell

        i_t = brute(small, lambda k: np.sum(
            ((traj.snapshots[k + 1].values - traj.snapshots[k].values) / spacing) ** 2,
            axis=0))
        i_hess = brute(small, lambda k: hessian_sq(
            grad_Phi_field(q, traj.snapshots[k].values), g))
        i_l4 = brute(small, lambda k: _gradient_sq(traj.snapshots[k].values, g) ** 2)
        i_grad = brute(big, lambda k: _gradient_sq(traj.snapshots[k].values, g))
        sup_u = max(float(vector_norm(s.values).max()) for s in traj.snapshots)
        gap2 = (big.R - small.R) ** 2
        assert rep.values["maxima"]["ratio_time"] == pytest.approx(
            i_t * gap2 / i_grad, rel=1e-12)
        assert rep.values["maxima"]["ratio_hess"] == pytest.approx(
            i_hess * gap2 / i_grad, rel=1e-12)
        assert rep.values["maxima"]["ratio_l4"] == pytest.approx(
            i_l4 * gap2 / (sup_u ** 2 * i_grad), rel=1e-12)

    def test_stability_against_reference(self):
        p = cosh_potential(1.0)

        def mk(size):
            return run(RunConfig(grid=pgrid(size), n_components=1, potential=p,
                                 t_end=0.02, snapshot_every=8, cfl_sigma=0.9,
                                 initial={"kind": "bands", "kmax": 3,
                                          "amplitude": 0.5}, seed=11))

        pairs = [(Cylinder(center=(0.45,), t0=0.018, R=0.05),
                  Cylinder(center=(0.45,), t0=0.018, R=0.1))]
        t128, t256 = mk(128), mk(256)
        coarse = _replay(t128, _EstimateFold(t128.grid, p, pairs)).report()
        fine = _replay(t256, _EstimateFold(t256.grid, p, pairs)).report(
            reference=coarse.values["maxima"])
        assert fine.passed

    def test_final_time_cylinder_rejected(self):
        g = pgrid(64)
        traj = stationary(g, np.full((1, 64), 0.4), n_snaps=10)
        p = cosh_potential(1.0)
        pairs = [(Cylinder(center=(0.5,), t0=traj.times[-1], R=8 * g.h),
                  Cylinder(center=(0.5,), t0=traj.times[-1], R=16 * g.h))]
        with pytest.raises(ValueError, match="successor"):
            _replay(traj, _EstimateFold(traj.grid, p, pairs)).report()


# Frozen copies of the cylinder loops that the cylinder fold replaced: the
# sum inside `morrey_profile`, `_cyl_mean` of `reverse_holder_report` and the
# `integral` closure of `estimate_ratio_report`.  The monitors must reproduce
# them bit for bit.

def reference_morrey_profile(traj, point, radii, g, expo):
    x0, t0 = point
    out = []
    for R in sorted(radii, reverse=True):
        q = Cylinder(center=tuple(x0), t0=float(t0), R=float(R))
        mask, idx = members(traj, q)
        cell = traj.grid.cell_volume() * (traj.times[1] - traj.times[0])
        total = sum(float(np.sum(np.asarray(g(traj.snapshots[k]))[mask])) for k in idx)
        out.append((float(R), total * cell / R ** expo))
    return out


def reference_cyl_mean(traj, q, field_at, power=1.0):
    mask, idx = members(traj, q)
    total = 0.0
    for k in idx:
        f = field_at(k)[mask]
        total += float(np.sum(f if power == 1.0 else np.power(f, power)))
    return total / (float(mask.sum()) * len(idx))


def reference_integral(traj, q, field_at, power=1.0):
    cell = traj.grid.cell_volume() * (traj.times[1] - traj.times[0])
    mask, idx = members(traj, q)
    total = 0.0
    for k in idx:
        f = field_at(k)[mask]
        total += float(np.sum(f if power == 1.0 else np.power(f, power)))
    return total * cell


class TestCylinderIntegralParity:
    @pytest.fixture(scope="class", params=[(1, PERIODIC), (1, DIRICHLET),
                                           (2, PERIODIC), (2, DIRICHLET)],
                    ids=["1d-periodic", "1d-dirichlet", "2d-periodic", "2d-dirichlet"])
    def traj(self, request):
        n, boundary = request.param
        m = 64 if n == 1 else 32
        grid = (pgrid if boundary == PERIODIC else dgrid)(m + (boundary == DIRICHLET), n)
        initial = ({"kind": "bands", "kmax": 3, "amplitude": 0.5}
                   if boundary == PERIODIC else
                   {"kind": "mode", "k": [1] * n, "amplitude": 0.5})
        return run(RunConfig(grid=grid, n_components=2, potential=cosh_potential(1.0),
                             t_end=0.01, snapshot_every=2, initial=initial, seed=3))

    @staticmethod
    def center(traj):
        return (0.45, 0.55)[:traj.grid.n]

    @pytest.mark.parametrize("power", [1.0, 1.25, 2.0])
    def test_integral_matches_the_frozen_loops(self, traj, power):
        def grad2(snap):
            return _gradient_sq(snap.values, traj.grid)
        at = lambda k: grad2(traj.snapshots[k])  # noqa: E731  (the frozen loops' field)

        cell = traj.grid.cell_volume() * (traj.times[1] - traj.times[0])
        for R in (0.0625, 0.125, 0.25):
            q = Cylinder(center=self.center(traj), t0=traj.times[-2], R=R)
            [(total, count)] = integrals(traj, [(q, power)], grad2)
            assert total / count == reference_cyl_mean(traj, q, at, power)
            assert total * cell == reference_integral(traj, q, at, power)

    def test_one_multi_term_call_matches_the_frozen_loops(self, traj):
        # windows ending at three times, nested and disjoint balls, four powers
        def grad2(snap):
            return _gradient_sq(snap.values, traj.grid)
        at = lambda k: grad2(traj.snapshots[k])  # noqa: E731  (the frozen loops' field)

        c = self.center(traj)
        mid = traj.times[len(traj.snapshots) // 2]
        terms = [(Cylinder(center=c, t0=traj.times[-2], R=0.25), 1.0),
                 (Cylinder(center=c, t0=traj.times[-2], R=0.0625), 1.25),
                 (Cylinder(center=tuple(1.0 - x for x in c), t0=mid, R=0.125), 2.0),
                 (Cylinder(center=c, t0=traj.times[-1], R=0.0625), 1.0),
                 (Cylinder(center=c, t0=mid, R=0.0625), 0.5)]
        cell = traj.grid.cell_volume() * (traj.times[1] - traj.times[0])
        got = integrals(traj, terms, grad2)
        assert len(got) == len(terms)
        for (total, count), (q, power) in zip(got, terms):
            mask, idx = members(traj, q)
            assert count == mask.sum() * len(idx)
            assert total / count == reference_cyl_mean(traj, q, at, power)
            assert total * cell == reference_integral(traj, q, at, power)

    def test_morrey_profile_matches_the_frozen_loop(self, traj):
        point = (self.center(traj), traj.times[-1])
        radii = [0.23, 0.13]  # not powers of two, so 1/R^n rounds
        grad = lambda s: _gradient_sq(s.values, s.grid)  # noqa: E731
        assert _replay(traj, _MorreyFold(traj.grid, [point], radii)).profiles() == \
            [reference_morrey_profile(traj, point, radii, grad, traj.grid.n)]
        g4 = lambda s: _gradient_sq(s.values, s.grid) ** 2  # noqa: E731
        fold = _MorreyFold(traj.grid, [point], radii, g=g4, exponent=traj.grid.n - 2)
        assert _replay(traj, fold).profiles() == \
            [reference_morrey_profile(traj, point, radii, g4, traj.grid.n - 2)]

    @pytest.mark.parametrize("p", [2.5, 4.0])  # L^p power 1.25 and 2
    def test_reverse_holder_matches_the_frozen_mean(self, traj, p):
        cyls = [Cylinder(center=self.center(traj), t0=t0, R=0.0625)
                for t0 in traj.times[-3:]]

        def grad2(k):
            return _gradient_sq(traj.snapshots[k].values, traj.grid)

        expected = []
        for q in cyls:
            big = Cylinder(center=q.center, t0=q.t0, R=4.0 * q.R)
            rhs2 = reference_cyl_mean(traj, big, grad2)
            lhs = reference_cyl_mean(traj, q, grad2, power=0.5 * p) ** (1.0 / p)
            expected.append(lhs / math.sqrt(rhs2))
        rep = _replay(traj, _ReverseHolderFold(traj.grid, cyls, p)).report()
        assert np.array_equal(rep.values["ratios"], np.array(expected))

    def test_estimate_ratios_match_the_frozen_integral(self, traj):
        from pelab import grad_Phi_field, hessian_sq
        p = cosh_potential(1.0)
        small = Cylinder(center=self.center(traj), t0=traj.times[-2], R=0.125)
        big = Cylinder(center=self.center(traj), t0=traj.times[-2], R=0.25)
        rep = _replay(traj, _EstimateFold(traj.grid, p, [(small, big)])).report()
        spacing = traj.times[1] - traj.times[0]

        def grad2(k):
            return _gradient_sq(traj.snapshots[k].values, traj.grid)

        def ut2(k):
            d = (traj.snapshots[k + 1].values - traj.snapshots[k].values) / spacing
            return np.sum(d * d, axis=0)

        def hess2(k):
            return hessian_sq(grad_Phi_field(p, traj.snapshots[k].values), traj.grid)

        i_grad = reference_integral(traj, big, grad2)
        i_l4 = reference_integral(traj, small, grad2, power=2.0)
        gap2 = (big.R - small.R) ** 2
        sup_u = max(float(vector_norm(s.values).max()) for s in traj.snapshots)
        assert rep.values["pairs"] == [{
            "r": small.R, "R": big.R,
            "ratio_time": reference_integral(traj, small, ut2) * gap2 / i_grad,
            "ratio_hess": reference_integral(traj, small, hess2) * gap2 / i_grad,
            "ratio_l4": i_l4 * gap2 / (sup_u * sup_u * i_grad)}]


def drifting(grid, n_snaps, dt):
    """A trajectory whose field shrinks by 0.2% per snapshot (nonzero u_t)."""
    base = initial_field(grid, 2, {"kind": "bands", "kmax": 3, "amplitude": 0.4}, 7)
    return Trajectory(snapshots=tuple(FieldState(grid=grid, values=base * (1.0 - 0.002 * k),
                                                 t=k * dt) for k in range(n_snaps)), dt=dt)


class TestOnePassPerWindow:
    """Each cylinder monitor evaluates a field once per snapshot in the union of its
    windows, and holds no field past its snapshot."""

    @pytest.fixture(scope="class")
    def traj(self):
        return drifting(pgrid(32, n=2), 80, 1e-3)   # times 0 .. 0.079, h = 1/32

    @pytest.fixture
    def passes(self, monkeypatch):
        """(cylinders, snapshots read) of every cylinder fold a monitor makes."""
        from pelab.grid import _CylinderFold
        real, calls = _CylinderFold.__init__, []

        def spy(fold, grid, terms, field):
            read = []
            calls.append(([q for q, _ in terms], read))
            real(fold, grid, terms, lambda snap: (read.append(snap.t), field(snap))[1])

        monkeypatch.setattr(_CylinderFold, "__init__", spy)
        return calls

    @staticmethod
    def union(traj, cylinders):
        return sorted(set().union(*(traj.times[members(traj, q)[1]].tolist()
                                    for q in cylinders)))

    def test_morrey_evaluates_g_once_per_snapshot(self, traj):
        read = []

        def g(snap):
            read.append(snap.t)
            return _gradient_sq(snap.values, snap.grid)

        h, t0 = traj.grid.h, traj.times[-5]
        fold = _MorreyFold(traj.grid, [((0.5, 0.5), t0)], [4 * h, 8 * h, 6 * h], g=g)
        [prof] = _replay(traj, fold).profiles()
        assert [R for R, _ in prof] == [8 * h, 6 * h, 4 * h]
        window = members(traj, Cylinder(center=(0.5, 0.5), t0=t0, R=8 * h))[1]
        assert 0 < window[0] and window[-1] == len(traj.snapshots) - 5   # a strict part
        assert read == [traj.snapshots[k].t for k in window]

    def test_morrey_report_reads_each_snapshot_once_over_all_points(self, traj, passes):
        # three points whose windows overlap in part: one pass over their union,
        # not one per point, with each profile that of the frozen loop
        read = []

        def g(snap):
            read.append(snap.t)
            return _gradient_sq(snap.values, snap.grid)

        h = traj.grid.h
        points = [((0.5, 0.5), traj.times[70]), ((0.25, 0.75), traj.times[40]),
                  ((0.7, 0.3), traj.times[70])]
        radii = [4 * h, 8 * h]
        rep = morrey_verdict(traj, points, radii, g=g)
        [(cylinders, passed)] = passes
        assert len(cylinders) == len(points) * len(radii)
        window = self.union(traj, cylinders)
        assert passed == window == traj.times[:71].tolist()   # one point alone reads 71
        assert read == window
        grad = lambda s: _gradient_sq(s.values, s.grid)  # noqa: E731
        for (x0, t0), prof in zip(points, rep.values["profiles"]):
            ref = reference_morrey_profile(traj, (x0, t0), radii, grad, traj.grid.n)
            assert (prof["point"], prof["t0"]) == (list(x0), t0)
            assert list(zip(prof["radii"], prof["values"])) == ref

    def test_reverse_holder_reads_each_snapshot_once(self, traj, passes):
        cyls = [Cylinder(center=(0.5, 0.5), t0=traj.times[k], R=0.1) for k in (40, 60)]
        rep = _replay(traj, _ReverseHolderFold(traj.grid, cyls, 2.5)).report()
        assert len(rep.values["ratios"]) == 2
        [(cylinders, read)] = passes
        bigs = [Cylinder(center=q.center, t0=q.t0, R=4 * q.R) for q in cyls]
        assert cylinders == [bigs[0], cyls[0], bigs[1], cyls[1]]
        assert read == self.union(traj, cyls + bigs) == traj.times[:61].tolist()

    def test_estimate_ratios_read_each_snapshot_once_per_field(self, traj, passes):
        pairs = [(Cylinder(center=(0.5, 0.5), t0=traj.times[k], R=0.1),
                  Cylinder(center=(0.5, 0.5), t0=traj.times[k], R=0.2)) for k in (70, 50)]
        _replay(traj, _EstimateFold(traj.grid, cosh_potential(1.0), pairs)).report()
        smalls, bigs = [s for s, _ in pairs], [b for _, b in pairs]
        assert [c for c, _ in passes] == [[bigs[0], smalls[0], bigs[1], smalls[1]],
                                          smalls, smalls]   # |grad u|^2, |u_t|^2, hessian
        assert passes[0][1] == self.union(traj, bigs)
        assert traj.times[0] < passes[0][1][0] and passes[0][1][-1] == traj.times[70]
        inner = self.union(traj, smalls)
        k = np.searchsorted(traj.times, inner)
        assert len(k) < k[-1] - k[0] + 1   # two disjoint windows
        assert [read for _, read in passes[1:]] == [inner, inner]

    @pytest.fixture(scope="class")
    def runs(self):
        """One 2D 64^2 N = 2 run, stored every 4th step and every step."""
        cfg = RunConfig(grid=pgrid(64, n=2), n_components=2, potential=cosh_potential(1.0),
                        t_end=0.01, snapshot_every=4, seed=5,
                        initial={"kind": "bands", "kmax": 3, "amplitude": 0.5})
        sparse = run(cfg)
        dense = run(replace(cfg, snapshot_every=1, dt_override=sparse.dt))
        assert len(dense.snapshots) - 1 == 4 * (len(sparse.snapshots) - 1)
        return sparse, dense

    @pytest.mark.parametrize("monitor", ["reverse-holder", "estimate-ratios"])
    def test_peak_memory_does_not_grow_with_the_snapshot_count(self, runs, monitor):
        import tracemalloc
        t0 = runs[0].times[-2]   # a snapshot time of both runs

        def report(traj):
            if monitor == "reverse-holder":
                fold = _ReverseHolderFold(traj.grid, [Cylinder((0.5, 0.5), t0, 0.1)], 2.5)
                return _replay(traj, fold).report()
            pairs = [(Cylinder((0.5, 0.5), t0, 0.1), Cylinder((0.5, 0.5), t0, 0.2))]
            fold = _EstimateFold(traj.grid, cosh_potential(1.0), pairs)
            return _replay(traj, fold).report()

        peaks = []
        for traj in runs:
            report(traj)   # warm: cached tables and grid masks
            tracemalloc.start()
            try:
                report(traj)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        field = 64 * 64 * 8
        # a few fields of allocator noise; a memo of one field per snapshot
        # would add 3/4 of the dense run's snapshots, over 200 fields
        assert peaks[1] - peaks[0] < 4 * field, peaks


def frozen_holder_seminorm(snap, alpha, band, n_pairs=10_000, seed=0):
    """The earlier holder_seminorm, kept as an oracle: an exhaustive per-point
    loop over coordinate differences when every axis has at most 64 points and
    n <= 2, a seeded random sample of pairs (a lower bound) otherwise."""
    grid = snap.grid
    lo, hi = band
    flat = snap.values.reshape(snap.n_components, -1)
    coords = np.stack(np.meshgrid(*[grid.coords(a) for a in range(grid.n)],
                                  indexing="ij"), axis=-1).reshape(-1, grid.n)
    npts = coords.shape[0]

    def quotient(ii, jj):
        d = coords[ii] - coords[jj]
        for a in range(grid.n):
            if grid.periodic:
                La = grid.extent(a)
                d[:, a] -= La * np.round(d[:, a] / La)
        dist = np.sqrt(np.sum(d * d, axis=1))
        keep = (dist >= lo) & (dist <= hi)
        if not keep.any():
            return 0.0, 0
        du = flat[:, ii[keep]] - flat[:, jj[keep]]
        num = np.sqrt(np.sum(du * du, axis=0))
        return float((num / dist[keep] ** alpha).max()), int(keep.sum())

    if max(grid.sizes) <= 64 and grid.n <= 2:
        best = 0.0
        for i in range(npts - 1):
            jj = np.arange(i + 1, npts)
            best = max(best, quotient(np.full_like(jj, i), jj)[0])
        return best
    rng = np.random.default_rng(seed)
    best = 0.0
    collected = 0
    for _ in range(200):
        q, kept = quotient(rng.integers(0, npts, size=4 * n_pairs),
                           rng.integers(0, npts, size=4 * n_pairs))
        best = max(best, q)
        collected += kept
        if collected >= n_pairs:
            break
    return best


def bands_state(grid, n_components, seed):
    values = initial_field(grid, n_components, {"kind": "bands", "kmax": 4,
                                                "amplitude": 0.8}, seed)
    bv = None
    if not grid.periodic:
        values[:, grid.boundary_mask] = 0.0
        bv = (0.0,) * n_components
    return FieldState(grid=grid, values=values, t=0.0, boundary_values=bv)


class TestHolderSeminorm:
    def test_constant_field(self):
        g = pgrid(64)
        s = FieldState(grid=g, values=np.full((1, 64), 0.9), t=0.0)
        assert holder_seminorm(s, 0.5, (2 * g.h, 0.25)) == 0.0

    def test_unit_slope_alpha_one(self):
        # unit-slope triangle wave: the quotient is exactly 1 on any pair
        # sharing a slope and at most 1 across the peaks
        gp = pgrid(64)
        x = gp.coords(0)
        sp = FieldState(grid=gp, values=np.minimum(x, 1.0 - x)[None], t=0.0)
        got = holder_seminorm(sp, 1.0, (2 * gp.h, 0.2))
        assert got == pytest.approx(1.0, rel=1e-12)

    def test_half_exponent_sine_bounds_and_exhaustive_oracle(self):
        g = pgrid(64)
        u = np.sin(2 * np.pi * g.coords(0))[None]
        s = FieldState(grid=g, values=u, t=0.0)
        band = (2 * g.h, 0.25)
        got = holder_seminorm(s, 0.5, band)
        assert got <= 2 * np.pi * math.sqrt(band[1]) + 1e-12
        # independent exhaustive pair loop
        best = 0.0
        x = g.coords(0)
        for i in range(64):
            for j in range(i + 1, 64):
                d = abs(x[i] - x[j])
                d = min(d, 1.0 - d)
                if band[0] <= d <= band[1]:
                    best = max(best, abs(u[0, i] - u[0, j]) / d ** 0.5)
        assert got == pytest.approx(best, rel=1e-12)

    def test_band_validation(self):
        g = pgrid(64)
        s = FieldState(grid=g, values=np.zeros((1, 64)), t=0.0)
        with pytest.raises(ValueError, match="band"):
            holder_seminorm(s, 0.5, (0.5 * g.h, 0.1))

    def test_large_grid_sine_bounds(self):
        g = pgrid(128)
        u = np.sin(2 * np.pi * g.coords(0))[None]
        s = FieldState(grid=g, values=u, t=0.0)
        got = holder_seminorm(s, 0.5, (2 * g.h, 0.25))
        assert 0.5 <= got <= 2 * np.pi * 0.5 + 1e-9

    @pytest.mark.parametrize("grid, n_components, alpha", [
        (pgrid(64), 1, 0.5), (pgrid(64), 1, 0.7),
        (GridSpec(n=1, sizes=(64,), h=1.0 / 64, boundary=DIRICHLET), 2, 0.5),
        (GridSpec(n=1, sizes=(64,), h=1.0 / 64, boundary=DIRICHLET), 2, 0.7),
        (pgrid(64, n=2), 2, 0.5),
        (GridSpec(n=2, sizes=(32, 32), h=1.0 / 32, boundary=DIRICHLET), 2, 0.5),
        (GridSpec(n=2, sizes=(32, 32), h=1.0 / 32, boundary=DIRICHLET), 2, 0.7),
    ])
    def test_equals_frozen_exhaustive_loop_on_exact_coordinates(self, grid, n_components,
                                                                 alpha):
        # h = 2^-k: coordinate differences are exact multiples of h, so the
        # old per-point loop saw every pair of the band
        s = bands_state(grid, n_components, seed=21)
        L = min(grid.extent(a) for a in range(grid.n))
        band = (2 * grid.h, 0.25 * L)
        got, want = holder_seminorm(s, alpha, band), frozen_holder_seminorm(s, alpha, band)
        if alpha == 0.5:   # |x - y|^(1/2) is a correctly rounded square root on both paths
            assert got == want
        else:              # numpy's vectorised power and libm's pow may differ by an ulp
            assert got == pytest.approx(want, rel=4 * np.finfo(float).eps)

    @pytest.mark.parametrize("grid, n_components", [
        (pgrid(128, n=2), 1),
        (GridSpec(n=3, sizes=(16, 16, 16), h=1.0 / 16, boundary=PERIODIC), 3),
        (GridSpec(n=2, sizes=(96, 96), h=1.0 / 95, boundary=DIRICHLET), 2),
    ])
    def test_never_below_the_frozen_sampled_path(self, grid, n_components):
        s = bands_state(grid, n_components, seed=22)
        band = (2 * grid.h, 0.25 * min(grid.extent(a) for a in range(grid.n)))
        assert holder_seminorm(s, 0.5, band) >= frozen_holder_seminorm(s, 0.5, band, seed=3)

    def test_band_edge_pairs_are_all_counted(self):
        # h = 1/47: x[i+2] - x[i] rounds below 2h for 18 of the 46 offset-2
        # pairs, among them both pairs of point 32, which the old loop dropped
        g = dgrid(48)
        u = np.zeros((1, 48))
        u[0, 32] = 1.0
        s = FieldState(grid=g, values=u, t=0.0, boundary_values=(0.0,))
        band = (2 * g.h, 0.25)
        got = holder_seminorm(s, 0.5, band)
        assert got == (2 * g.h) ** -0.5
        assert frozen_holder_seminorm(s, 0.5, band) < got
        # a pair loop over integer separations on random data
        v = np.random.default_rng(23).standard_normal(48)
        v[[0, -1]] = 0.0
        s = FieldState(grid=g, values=v[None], t=0.0, boundary_values=(0.0,))
        want = max(abs(v[i + k] - v[i]) / (k * g.h) ** 0.5
                   for k in range(2, 12) for i in range(48 - k))
        assert holder_seminorm(s, 0.5, band) == want

    def test_separates_smooth_solution_from_planted_jump(self):
        # cosh flow of bands data to t = 0.02: the smooth solution's seminorm
        # (alpha = 1/2, band [2h, 1/4]) stays flat under refinement, while a
        # planted jump 0.25 tanh((x - 1/2)/h) grows like h^(-1/2)
        smooth, jump = [], []
        for m in (128, 256, 512):
            cfg = RunConfig(grid=pgrid(m), n_components=1, potential=cosh_potential(1.0),
                            t_end=0.02, snapshot_every=100, seed=11,
                            initial={"kind": "bands", "kmax": 3, "amplitude": 0.5})
            fin = run(cfg).final
            g = fin.grid
            band = (2 * g.h, 0.25)
            planted = fin.values + 0.25 * np.tanh((g.coords(0) - 0.5) / g.h)
            smooth.append(holder_seminorm(fin, 0.5, band))
            jump.append(holder_seminorm(FieldState(grid=g, values=planted, t=fin.t), 0.5, band))
        assert max(smooth) / min(smooth) < 1.01 and max(smooth) < 0.1
        for coarse, fine in zip(jump, jump[1:]):
            assert fine / coarse == pytest.approx(math.sqrt(2.0), rel=0.03)
        assert jump[0] > 30 * smooth[0]


class TestOneGradientPath:
    """The cylinder monitors take |grad u|^2 from the one kernel, over the step plans
    the grid keeps."""

    def test_paper_core_builds_each_plan_once(self, tmp_path, monkeypatch):
        from pelab.cli import paper_core_suite, run_suite
        built, callers = count_plan_builds(monkeypatch)
        reports = run_suite(paper_core_suite(64), tmp_path / "v", 11)
        assert all(rep.passed for rep in reports)
        # every step, run and fold on one grid object shares its plan of each pair set:
        # the Laplacian's, |grad u|^2's, the face divergence's and the hessian's
        assert all(len(grids) == 1 for grids in built.values()), built
        assert {pairs for _, pairs in built} == {((-1, 1),), ((1, -1),), ((1, 0), (0, -1)),
                                                 ((1, 1), (-1, -1))}
        assert callers == {"pelab.grid"}   # no other module builds or passes a plan

    def test_dirichlet_balls_never_read_the_ring(self):
        # the kernel zeroes the Dirichlet ring; a validated ball stays h inside it,
        # so every monitor equals its value over the frozen one-sided stencil
        g = dgrid(33, n=2)
        base = initial_field(g, 2, {"kind": "mode", "k": [1, 2], "amplitude": 0.4}, 7)
        base[:, g.boundary_mask] = 0.0
        traj = Trajectory(snapshots=tuple(
            FieldState(grid=g, values=base * (1.0 - 0.01 * k), t=k * 1e-3,
                       boundary_values=(0.0, 0.0)) for k in range(12)), dt=1e-3)
        pts = [((0.5, 0.5), 0.011), ((0.3, 0.6), 0.011)]
        radii = [8 * g.h, 4 * g.h]
        one_sided = lambda s: reference_gradient_sq(s.values, s.grid)  # noqa: E731
        assert one_sided(traj.snapshots[0])[g.boundary_mask].any()
        got = _replay(traj, _MorreyFold(traj.grid, pts, radii)).profiles()
        assert got == _replay(traj, _MorreyFold(traj.grid, pts, radii, g=one_sided)).profiles()
        assert min(v for prof in got for _, v in prof) > 0.0
