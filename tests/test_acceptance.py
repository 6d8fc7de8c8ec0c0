"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
All tolerances are fixed here; nothing is calibrated after the fact except
the residual scale K, which the criterion itself defines via the quadratic
case.
"""

import json
import math
import time

import numpy as np

from pelab import (DIRICHLET, PERIODIC, Cylinder, FieldState, GridSpec,
                   RunConfig, build_entropy, certify_window,
                   choose_entropy_params, cosh_potential, coupled_decomposition,
                   initial_field, quadratic, quartic, run, smoothed_porous,
                   step_diffusion, with_resolution)
from pelab.cli import main
from pelab.diagnostics import (_ContractionFold, _coupled_fold, _diffusion_fold,
                               _EstimateFold, _MorreyFold, _ReverseHolderFold, _SupFold)
from pelab.grid import _replay
from test_diagnostics import calibrated_K
from test_solver import reference_step_scalar

COSH = cosh_potential(1.0)


def report(line):
    print(f"\n[acceptance] {line}")


def pgrid(size):
    return GridSpec(n=1, sizes=(size,), h=1.0 / size, boundary=PERIODIC)


def dgrid(size):
    return GridSpec(n=1, sizes=(size,), h=1.0 / (size - 1), boundary=DIRICHLET)


BANDS = {"kind": "bands", "kmax": 3, "amplitude": 0.5}


def test_01_heat_oracle():
    """Quadratic potential, sin(2 pi x) mode: 1% of the continuum decay and
    1e-10 of the discrete-eigenvalue prediction, in under a second."""
    wall = time.monotonic()
    cfg = RunConfig(grid=pgrid(128), n_components=1, potential=quadratic(2.0),
                    t_end=0.01, cfl_sigma=0.9, snapshot_every=8,
                    initial={"kind": "mode", "k": [1], "amplitude": 1.0}, seed=1)
    traj = run(cfg)
    g = traj.grid
    s = np.sin(2 * np.pi * g.coords(0))
    amp = float(traj.final.values[0] @ s / (s @ s))
    lam_h = -(4.0 / g.h ** 2) * math.sin(math.pi * g.h) ** 2
    predicted = (1.0 + traj.dt * lam_h) ** traj.meta["steps"]
    continuum = math.exp(-4.0 * math.pi ** 2 * 0.01)
    wall = time.monotonic() - wall
    assert abs(amp - predicted) <= 1e-10
    assert abs(amp - continuum) <= 0.01 * continuum
    assert wall < 1.0
    report(f"1 PASS heat oracle: amp={amp:.6f} discrete-diff={abs(amp - predicted):.2e} "
           f"continuum-rel={abs(amp - continuum) / continuum:.2e} wall={wall:.2f}s")


def test_02_entropy_identity():
    """gamma(phi(z)) = phi'(z)^2/2 to 1e-8 on 1000+ samples for every built-in;
    cosh matches gamma(z) = z + z^2/2 to 1e-8."""
    worst = {}
    for pot in (quadratic(2.0), COSH, quartic(1.0), smoothed_porous()):
        ent = build_entropy(pot)
        zs = np.linspace(0.0, pot.r_max, 1001)
        resid = np.abs(np.asarray(ent.gamma(np.asarray(pot.phi(zs), float)))
                       - 0.5 * np.square(np.asarray(pot.phi1(zs), float)))
        worst[pot.id] = float(resid.max())
        assert worst[pot.id] <= 1e-8, pot.id
    ent = build_entropy(COSH)
    z = np.linspace(0.0, ent.z_max, 1001)
    closed = np.abs(np.asarray(ent.gamma(z)) - (z + 0.5 * z * z)).max()
    assert closed <= 1e-8
    report(f"2 PASS entropy identity: residuals {worst}, cosh closed form {closed:.2e}")


def test_03_h1_contraction():
    """Dirichlet cosh runs contract monotonically in H^-1 within 1e-10 relative;
    the quadratic case matches exp(-pi^2 t) within 2%."""
    def drun(pot, init):
        return run(RunConfig(grid=dgrid(128), n_components=1, potential=pot,
                             t_end=0.05, cfl_sigma=0.9, snapshot_every=25,
                             initial=init, seed=1))

    t0 = drun(COSH, {"kind": "mode", "k": [1], "amplitude": 0.5})
    t1 = drun(COSH, {"kind": "bands", "kmax": 3, "amplitude": 0.4})
    fold = _replay(t1, _replay(t0, _ContractionFold(certify_window(COSH), rel_tol=1e-10), 0), 1)
    rep = fold.report(t0, t1, "contraction")
    assert rep.passed

    q = quadratic(2.0)
    t0 = drun(q, {"kind": "mode", "k": [1], "amplitude": 0.6})
    t1 = drun(q, {"kind": "mode", "k": [1], "amplitude": 0.3})
    fold = _replay(t1, _replay(t0, _ContractionFold(certify_window(q), rel_tol=1e-10), 0), 1)
    rep_q = fold.report(t0, t1, "contraction")
    assert rep_q.passed
    d = rep_q.values["d"]
    ratio = d[-1] / d[0]
    target = math.exp(-math.pi ** 2 * 0.05)
    assert abs(ratio - target) <= 0.02 * target
    report(f"3 PASS contraction: cosh monotone, heat ratio {ratio:.5f} vs "
           f"exp(-pi^2 t) = {target:.5f}")


def test_04_max_principle():
    """sup|u(t)| <= sup|u0| + 1e-10 for bump and band-limited data (cosh)."""
    sups = {}
    for label, init in (("bump", {"kind": "bump", "amplitude": 0.8, "width": 0.1}),
                        ("bands", BANDS)):
        traj = run(RunConfig(grid=pgrid(128), n_components=2, potential=COSH,
                             t_end=0.01, cfl_sigma=0.9, snapshot_every=8,
                             initial=init, seed=2))
        rep = _replay(traj, _SupFold(tol=1e-10)).report("sup-norm")
        assert rep.passed, label
        sups[label] = (rep.values["sup"][0], rep.values["sup"][-1])
    report(f"4 PASS max principle: sup series {sups}")


def test_05_entropy_subsolution_residuals():
    """Positive residual parts bounded by tau(h) = K (h^2 + dt), K from the
    quadratic case, and non-expanding under h-halving, for the cosh diffusion
    run and its coupled-decomposition run; under 30 s per resolution pair."""
    wall = time.monotonic()

    def base(system, init):
        return RunConfig(grid=pgrid(128), n_components=1, potential=COSH,
                         system=system, t_end=0.01, cfl_sigma=0.9,
                         snapshot_every=1, initial=init, seed=11)

    offset_bands = {"kind": "bands", "kmax": 3, "amplitude": 0.17, "offset": [0.8]}
    K = calibrated_K(with_resolution(base("diffusion", BANDS), 64))
    ent, window = build_entropy(COSH), certify_window(COSH)
    cc = coupled_decomposition(COSH)
    pars = choose_entropy_params(cc, 1, 1)

    results = {}
    for label, system, init in (("diffusion", "diffusion", BANDS),
                                ("coupled", "coupled", offset_bands)):
        pos = {}
        for size in (64, 128):
            cfg = with_resolution(base(system, init), size)
            traj = run(cfg)
            tau = K * (cfg.grid.h ** 2 + traj.dt)
            if system == "coupled":
                fold = _coupled_fold(traj.grid, cc, pars.s, pars.c)
                rep = _replay(traj, fold).report(traj, tau, "entropy-coupled")
            else:
                fold = _diffusion_fold(traj.grid, COSH, ent, window)
                rep = _replay(traj, fold).report(traj, tau, "entropy-diffusion")
            assert rep.passed, (label, size)
            pos[size] = (rep.values["max_pos"], tau, rep.values["max_abs"])
        # refinement: the positive part may not grow past half its coarse value
        # (identically-zero positive parts satisfy this vacuously at the
        # rounding floor; the scheme is an exact discrete subsolution here)
        floor = 1e-12 * max(1.0, pos[128][2])
        assert pos[128][0] <= max(0.5 * pos[64][0], floor)
        results[label] = {s: p[0] for s, p in pos.items()}
    wall = time.monotonic() - wall
    assert wall < 30.0
    report(f"5 PASS entropy residuals: K={K:.1f}, positive parts {results}, "
           f"(s, c)=({pars.s:.3f}, {pars.c:.3f}), wall={wall:.1f}s")


def test_06_morrey_decay():
    """At 10 seeded interior points the quotient R^-n iint |grad u|^2 at R = 4h
    is at most half its value at R = 16h."""
    traj = run(RunConfig(grid=pgrid(128), n_components=1, potential=COSH,
                         t_end=0.02, cfl_sigma=0.9, snapshot_every=8,
                         initial=BANDS, seed=11))
    h = traj.grid.h
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10):
        x0 = float(rng.uniform(0.2, 0.8))
        fold = _MorreyFold(traj.grid, [((x0,), 0.02)], [16 * h, 8 * h, 4 * h])
        prof = _replay(traj, fold).profiles()[0]
        big, small = prof[0][1], prof[-1][1]
        assert small <= 0.5 * big
        worst = max(worst, small / big)
    report(f"6 PASS morrey decay: worst quotient ratio (4h vs 16h) = {worst:.3f} <= 0.5")


def _cosh_run(size):
    return run(RunConfig(grid=pgrid(size), n_components=1, potential=COSH,
                         t_end=0.02, cfl_sigma=0.9, snapshot_every=8,
                         initial=BANDS, seed=11))


def test_07_reverse_holder_stability():
    """p = 2.5 cylinder ratio maxima move by at most 20% from size 128 to 256."""
    rng = np.random.default_rng(7)
    cyls = [Cylinder(center=(float(rng.uniform(0, 1)),), t0=0.02, R=0.032)
            for _ in range(20)]
    t128, t256 = _cosh_run(128), _cosh_run(256)
    coarse = _replay(t128, _ReverseHolderFold(t128.grid, cyls, 2.5)).report()
    fine = _replay(t256, _ReverseHolderFold(t256.grid, cyls, 2.5)).report(
        reference=coarse.values["max_ratio"], rel_change=0.2)
    assert fine.passed
    change = abs(fine.values["max_ratio"] - coarse.values["max_ratio"]) \
        / coarse.values["max_ratio"]
    report(f"7 PASS reverse Hoelder: max ratio {coarse.values['max_ratio']:.4f} -> "
           f"{fine.values['max_ratio']:.4f} (change {change:.1%} <= 20%)")


def test_08_estimate_ratio_stability():
    """The three normalized interior-estimate ratios move by at most 30%
    between sizes 128 and 256."""
    rng = np.random.default_rng(8)
    pairs = []
    for _ in range(3):
        x0 = float(rng.uniform(0.3, 0.7))
        pairs.append((Cylinder(center=(x0,), t0=0.018, R=0.05),
                      Cylinder(center=(x0,), t0=0.018, R=0.1)))
    t128, t256 = _cosh_run(128), _cosh_run(256)
    coarse = _replay(t128, _EstimateFold(t128.grid, COSH, pairs)).report()
    fine = _replay(t256, _EstimateFold(t256.grid, COSH, pairs)).report(
        reference=coarse.values["maxima"], rel_change=0.3)
    assert fine.passed
    changes = {k: abs(fine.values["maxima"][k] - coarse.values["maxima"][k])
               / coarse.values["maxima"][k] for k in coarse.values["maxima"]}
    pretty = {k: f"{v:.1%}" for k, v in changes.items()}
    report(f"8 PASS estimate ratios: changes {pretty}")


def test_09_rotational_equivariance():
    """An N = 2 cosh run commutes with a fixed orthogonal matrix to 1e-10
    in sup norm at every step."""
    th = 1.23456
    R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    g = pgrid(128)
    u0 = initial_field(g, 2, {"kind": "bands", "kmax": 3, "amplitude": 0.5}, 9)
    from pelab import cfl_dt
    dt = cfl_dt(g, certify_window(COSH).Lam, 0.9)
    sa = FieldState(grid=g, values=u0, t=0.0)
    sb = FieldState(grid=g, values=np.einsum("ij,j...->i...", R, u0), t=0.0)
    worst = 0.0
    for _ in range(562):
        sa = step_diffusion(sa, COSH, dt)
        sb = step_diffusion(sb, COSH, dt)
        worst = max(worst, float(np.abs(
            np.einsum("ij,j...->i...", R, sa.values) - sb.values).max()))
    assert worst <= 1e-10
    report(f"9 PASS rotational equivariance: sup deviation {worst:.2e} <= 1e-10")


def test_10_scalar_reduction():
    """Aligned data U e evolves as e times the scalar flow with g = phi';
    sup difference at t = 0.01 below 1e-12."""
    p = cosh_potential(1.5)
    g = pgrid(128)
    e = np.array([0.6, 0.8]) / math.hypot(0.6, 0.8)
    U = 0.6 + initial_field(g, 1, {"kind": "bands", "kmax": 3, "amplitude": 0.3}, 5)
    assert U.min() > 0.2
    from pelab import cfl_dt
    dt_max = cfl_dt(g, certify_window(p).Lam, 0.9)
    steps = math.ceil(0.01 / dt_max)
    dt = 0.01 / steps
    vec = FieldState(grid=g, values=np.stack([U[0] * e[0], U[0] * e[1]]), t=0.0)
    sca = FieldState(grid=g, values=U.copy(), t=0.0)
    for _ in range(steps):
        vec = step_diffusion(vec, p, dt)
        sca = reference_step_scalar(sca, p.phi1, dt, r_max=p.r_max)
    ref = np.stack([sca.values[0] * e[0], sca.values[0] * e[1]])
    diff = float(np.abs(vec.values - ref).max())
    assert diff <= 1e-12
    report(f"10 PASS scalar reduction: sup difference {diff:.2e} <= 1e-12 "
           f"after {steps} steps")


def test_11_coupled_diffusion_consistency():
    """Terminal sup difference between the coupled and diffusion solvers
    shrinks at least 3.5x under h-halving."""
    init = {"kind": "bands", "kmax": 3, "amplitude": 0.5}
    errs = []
    for size in (128, 256):
        kw = dict(grid=pgrid(size), n_components=1, potential=COSH, t_end=0.01,
                  cfl_sigma=0.9, snapshot_every=1, initial=init, seed=3)
        td = run(RunConfig(system="diffusion", **kw))
        tc = run(RunConfig(system="coupled", **kw))
        assert td.dt == tc.dt
        errs.append(float(np.abs(td.final.values - tc.final.values).max()))
    ratio = errs[0] / errs[1]
    assert ratio >= 3.5
    report(f"11 PASS coupled consistency: errors {errs[0]:.2e} -> {errs[1]:.2e}, "
           f"shrink {ratio:.2f}x >= 3.5x")


def test_12_cli_determinism(tmp_path):
    """Repeated cmd_run with a fixed seed produces a byte-identical trajectory file
    and manifest."""
    doc = {
        "name": "det",
        "grid": {"sizes": [128], "h": 1.0 / 128, "boundary": "periodic"},
        "components": 2,
        "potential": {"id": "cosh", "r_max": 1.0},
        "t_end": 0.005,
        "snapshot_every": 8,
        "seed": 123,
        "initial": {"kind": "bands", "kmax": 3, "amplitude": 0.5},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["run", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["run", str(cfg), "--out", str(tmp_path / "b")]) == 0
    da, db = tmp_path / "a" / "det", tmp_path / "b" / "det"
    names = sorted(p.name for p in da.iterdir())
    assert names == sorted(p.name for p in db.iterdir()) == ["manifest.json", "trajectory.pelb"]
    for name in names:
        assert (da / name).read_bytes() == (db / name).read_bytes(), name
    manifest = json.loads((da / "manifest.json").read_text())
    frames = manifest["frames"]
    assert frames == len(manifest["times"]) == manifest["steps"] // 8 + 1   # t = 0, every 8th
    report(f"12 PASS determinism: trajectory of {frames} frames and manifest "
           f"byte-identical across reruns")
