"""Verification suites: the check kinds, the negative controls' plants, the built-in
suites and the run planner behind `pelab verify`.

A suite is a run plan: each check subscribes observers, its monitors' folds, to run
configs, and a judge gives its verdict on their trajectories.  Each distinct config
is integrated once and every snapshot handed to all its observers; a negative
control's plant wraps only its own check's observer.  No run is stored, so memory
does not grow with the step count.  Checks that share a run form one component of
the plan; components can be judged in forked workers, and the files written do not
depend on how many.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import traceback
from dataclasses import replace
from itertools import count
from pathlib import Path

import numpy as np

from .diagnostics import (CheckReport, _calibration, _ContractionFold, _coupled_fold,
                          _diffusion_fold, _EstimateFold, _MorreyFold, _ReverseHolderFold,
                          _rungs_report, _SupFold, choose_entropy_params)
from .documents import UsageError, _check_keys, _path_name, build_config
from .grid import Cylinder, GridSpec
from .potentials import build_entropy, certify_window, coupled_decomposition
from .solver import (RunConfig, _cost, _planned, config_hash, run, step_diffusion,
                     with_resolution)
from .workers import fan_out


def _seeded_points(grid: GridSpec, count: int, seed: int, margin: float = 0.2):
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(count):
        pts.append(tuple(float(rng.uniform(margin * grid.extent(a),
                                           (1 - margin) * grid.extent(a)))
                         for a in range(grid.n)))
    return pts


def _check_contraction(seed, plant=lambda cfg, obs: obs, /, *, name: str, config: dict,
                       initial0: dict, initial1: dict, decay_ratio_target: float | None = None,
                       decay_ratio_rtol: float = 0.02):
    if "initial" in config:   # the runs start from initial0 and initial1
        raise UsageError(f"'{name}': a contraction config takes no 'initial'")
    base0, base1 = (build_config({**config, "initial": i}, seed) for i in (initial0, initial1))
    cfg0, cfg1 = replace(base0, name=base0.name + "-a"), replace(base1, name=base1.name + "-b")
    fold = _ContractionFold(certify_window(base0.potential))
    feed0, feed1 = (lambda snap: fold.feed(0, snap)), (lambda snap: fold.feed(1, snap))
    return [(cfg0, feed0), (cfg1, plant(cfg1, feed1))], lambda trajs: fold.report(
        *trajs, name, decay_ratio_target, decay_ratio_rtol)


def _check_sup_norm(seed, plant=lambda cfg, obs: obs, /, *, name: str, config: dict):
    cfg = build_config(config, seed)
    fold = _SupFold()
    return [(cfg, plant(cfg, fold.feed))], lambda trajs: fold.report(trajs[0], name)


def _check_entropy(seed, coupled: bool, /, *, name: str, config: dict,
                   sizes: list[int] = (64, 128), K: float | None = None):
    base = build_config(config, seed)
    if not sizes:
        raise UsageError(f"'{name}' needs at least one size in 'sizes'")
    if base.snapshot_every != 1:
        raise UsageError("entropy residual checks need snapshot_every = 1")
    subs = []
    if K is None:   # fitted on a run of its own, subscribed first
        cfg, observe, fit = _calibration(with_resolution(base, sizes[0]))
        subs.append((cfg, observe))
    pot = base.potential
    if coupled:
        cc = coupled_decomposition(pot)
        pars = choose_entropy_params(cc, base.grid.n, base.n_components)
        extra = {"s": pars.s, "c": pars.c}
        residual = lambda grid: _coupled_fold(grid, cc, pars.s, pars.c)
    else:
        ent, window, extra = build_entropy(pot), certify_window(pot), {}
        residual = lambda grid: _diffusion_fold(grid, pot, ent, window)
    rungs = [with_resolution(base, size) for size in sizes]
    folds = [residual(cfg.grid) for cfg in rungs]
    return subs + [(cfg, fold.feed) for cfg, fold in zip(rungs, folds)], lambda trajs: \
        _rungs_report(folds, trajs[len(trajs) - len(sizes):], sizes,
                      fit(trajs[0].dt) if K is None else K, name, **extra)


def _check_morrey(seed, /, *, name: str, config: dict, t0: float | None = None,
                  points: int = 10, radii_h: list[int] = (16, 8, 4)):
    cfg = build_config(config, seed)
    t0 = cfg.t_end if t0 is None else t0
    pts = [(xy, t0) for xy in _seeded_points(cfg.grid, points, seed + 1)]
    fold = _MorreyFold(cfg.grid, pts, [m * cfg.grid.h for m in radii_h])
    return [(cfg, fold.feed)], lambda trajs: fold.report(trajs[0], name=name)


def _refinement(name: str, config: dict, seed: int, sizes, key: str, fold_on):
    """The plan of a check that judges its fine rung's fold_on(coarse grid, rung config)
    against its coarse rung's `key` value."""
    base = build_config(config, seed)
    if len(sizes) != 2:
        raise UsageError(f"'{name}' takes exactly two sizes (coarse, fine), got {sizes}")
    rungs = [with_resolution(base, size) for size in sizes]
    coarse, fine = (fold_on(rungs[0].grid, cfg) for cfg in rungs)

    def judge(trajs):
        ref = coarse.report(trajs[0]).values[key]
        rep = fine.report(trajs[1], reference=ref, name=name)
        rep.values[f"{key}_coarse"] = ref
        rep.values["sizes"] = sizes
        return rep
    return [(rungs[0], coarse.feed), (rungs[1], fine.feed)], judge


def _check_reverse_holder(seed, /, *, name: str, config: dict, R: float,
                          t0: float | None = None, sizes: list[int] = (128, 256),
                          cylinders: int = 20, p: float = 2.5):
    def fold_on(coarse, cfg):   # the cylinders drawn on the coarse grid
        cyls = [Cylinder(center=c, t0=cfg.t_end if t0 is None else t0, R=R)
                for c in _seeded_points(coarse, cylinders, seed + 2, margin=0.0)]
        return _ReverseHolderFold(cfg.grid, cyls, p)
    return _refinement(name, config, seed, sizes, "max_ratio", fold_on)


def _check_estimate_ratios(seed, /, *, name: str, config: dict, r: float, R: float,
                           t0: float, sizes: list[int] = (128, 256), cylinders: int = 3):
    def fold_on(coarse, cfg):   # the cylinders drawn on the coarse grid
        pairs = [(Cylinder(center=c, t0=t0, R=r), Cylinder(center=c, t0=t0, R=R))
                 for c in _seeded_points(coarse, cylinders, seed + 3)]
        return _EstimateFold(cfg.grid, cfg.potential, pairs)
    return _refinement(name, config, seed, sizes, "maxima", fold_on)


# the negative controls' plants: plant(config, observe) -> the observer the run is handed

def _inflate_final(cfg: RunConfig, observe):
    """The final snapshot times 1.5: the sup-norm bound must fail."""
    final, seen = _planned(cfg)[2] // cfg.snapshot_every, count()

    def planted(snap):
        observe(replace(snap, values=snap.values * 1.5) if next(seen) == final else snap)
    return planted


def _anti_diffuse_middle(cfg: RunConfig, observe):
    """The middle snapshot after one diffusion step of -40 dt (a flipped-dt step):
    the contraction distance must grow.  The potential is the run's own."""
    _, _, steps, dt = _planned(cfg)
    middle, seen = (steps // cfg.snapshot_every + 1) // 2, count()

    def planted(snap):
        if next(seen) == middle:
            snap = replace(step_diffusion(snap, cfg.potential, -40 * dt), t=snap.t)
        observe(snap)
    return planted


# check kind -> (function, *leading); function(seed, *leading, **keys) makes the check's
# plan and runs nothing: its subscriptions, (RunConfig, observer) pairs, and judge, which
# gets one final-snapshot Trajectory per subscription, in order, under its config's meta.
# The keyword-only parameters declare the kind's keys, their JSON types (annotations) and
# defaults, and the leading ones hold what a suite cannot set.
_CHECKS = {
    "contraction": (_check_contraction,),
    "sup-norm": (_check_sup_norm,),
    "entropy-diffusion": (_check_entropy, False),
    "entropy-coupled": (_check_entropy, True),
    "morrey": (_check_morrey,),
    "reverse-holder": (_check_reverse_holder,),
    "estimate-ratios": (_check_estimate_ratios,),
    "tampered-sup": (_check_sup_norm, _inflate_final),
    "tampered-contraction": (_check_contraction, _anti_diffuse_middle),
}


def _bind_check(check: dict):
    """The check's (function, leading arguments, keys) from _CHECKS; a UsageError
    names the check and every unknown, missing or mistyped key."""
    kind = check.get("kind")
    if not isinstance(kind, str) or kind not in _CHECKS:
        raise UsageError(f"unknown check kind '{kind}' in '{check['name']}'")
    fn, *leading = _CHECKS[kind]
    keys = {k: v for k, v in check.items() if k != "kind"}
    _check_keys(f"check '{check['name']}'", ("", keys, fn))
    if "seed" in keys["config"]:   # a run has one seed: the suite's or --seed
        raise UsageError(f"check '{check['name']}': its config may not set 'seed'")
    return fn, leading, keys


# ---------------------------------------------------------------------------
# built-in suites

def _suite_config(name: str, size: int, t_end: float, snapshot_every: int,
                  boundary: str = "periodic", potential: str = "cosh", **extra) -> dict:
    """A built-in suite's run config: one component on a 1D unit box of `size` points."""
    h = 1.0 / size if boundary == "periodic" else 1.0 / (size - 1)
    r_max = {"cosh": 1.0, "quadratic": 2.0}[potential]
    return {"grid": {"sizes": [size], "h": h, "boundary": boundary}, "components": 1,
            "potential": {"id": potential, "r_max": r_max}, "t_end": t_end,
            "snapshot_every": snapshot_every, "name": name, **extra}


def paper_core_suite(size: int = 128) -> dict:
    """One check per structural property of the flow, cosh potential, given base size."""
    bands = {"kind": "bands", "kmax": 3, "amplitude": 0.5}
    offset_bands = {"kind": "bands", "kmax": 3, "amplitude": 0.17, "offset": [0.8]}
    return {
        "name": "paper-core",
        "seed": 11,
        "checks": [
            {"name": "contraction-cosh", "kind": "contraction",
             "config": _suite_config("contraction-cosh", size, 0.05, 25, "dirichlet"),
             "initial0": {"kind": "mode", "k": [1], "amplitude": 0.5},
             "initial1": {"kind": "bands", "kmax": 3, "amplitude": 0.4}},
            {"name": "contraction-heat-rate", "kind": "contraction",
             "config": _suite_config("contraction-heat", size, 0.05, 25, "dirichlet",
                                     "quadratic"),
             "initial0": {"kind": "mode", "k": [1], "amplitude": 0.6},
             "initial1": {"kind": "mode", "k": [1], "amplitude": 0.3},
             "decay_ratio_target": math.exp(-math.pi ** 2 * 0.05),
             "decay_ratio_rtol": 0.02},
            {"name": "boundedness-bump", "kind": "sup-norm",
             "config": _suite_config("sup-bump", size, 0.01, 8, components=2, initial={
                 "kind": "bump", "amplitude": 0.8, "width": 0.1})},
            {"name": "boundedness-bands", "kind": "sup-norm",
             "config": _suite_config("sup-bands", size, 0.01, 8, components=2, initial=bands)},
            {"name": "entropy-diffusion", "kind": "entropy-diffusion", "sizes": [size // 2, size],
             "config": _suite_config("entropy-diff", size, 0.01, 1, initial=bands)},
            {"name": "entropy-coupled", "kind": "entropy-coupled", "sizes": [size // 2, size],
             "config": _suite_config("entropy-coup", size, 0.01, 1, system="coupled",
                                     initial=offset_bands)},
            {"name": "morrey", "kind": "morrey", "points": 10,
             "config": _suite_config("morrey", size, 0.02, 8, initial=bands)},
            {"name": "reverse-holder", "kind": "reverse-holder", "sizes": [size, 2 * size],
             "R": 0.032, "cylinders": 20,
             "config": _suite_config("rev-holder", size, 0.02, 8, initial=bands)},
            {"name": "estimate-ratios", "kind": "estimate-ratios", "sizes": [size, 2 * size],
             "r": 0.05, "R": 0.1, "t0": 0.018, "cylinders": 3,
             "config": _suite_config("est-ratios", size, 0.02, 8, initial=bands)},
        ],
    }


def negative_control_suite(size: int = 64) -> dict:
    """Injected violations; every check must fail and carry a witness."""
    return {
        "name": "negative-control",
        "seed": 5,
        "checks": [
            {"name": "injected-sup-growth", "kind": "tampered-sup",
             "config": _suite_config("neg-sup", size, 0.005, 4, initial={
                 "kind": "bands", "kmax": 2, "amplitude": 0.5})},
            {"name": "injected-contraction-growth", "kind": "tampered-contraction",
             "config": _suite_config("neg-contr", size, 0.02, 10, "dirichlet"),
             "initial0": {"kind": "mode", "k": [1], "amplitude": 0.5},
             "initial1": {"kind": "mode", "k": [2], "amplitude": 0.4}},
        ],
    }


_BUILTIN_SUITES = {
    "paper-core": paper_core_suite,
    "negative-control": negative_control_suite,
}


def _write_series_csv(path: Path, report: CheckReport) -> None:
    header, rows = report.series
    tol = report.tolerance if isinstance(report.tolerance, (int, float)) else ""
    with open(path, "w", newline="") as fh:
        fh.write(f"check,{report.name},config_hash,{report.provenance},tolerance,{tol}\n")
        fh.write(header + "\n")
        w = csv.writer(fh)
        for row in rows:
            w.writerow([f"{x:.17g}" if isinstance(x, (float, np.floating)) else x
                        for x in row])


def _suite(*, checks: list[dict] = [], name: str = "suite", seed: int = 0):
    """A suite's keys."""


def _crash(name: str, exc: BaseException) -> CheckReport:
    """The failed report of a check that raised `exc`, or whose worker died of it."""
    return CheckReport(name=name, passed=False,
                       values={"error": f"{type(exc).__name__}: {exc}",
                               "traceback": "".join(traceback.format_exception(exc))})


def run_suite(suite: dict, outdir: Path, seed_override: int | None = None,
              workers: int = 1) -> list[CheckReport]:
    """Plan every check, then integrate each distinct config (keyed by its description
    without `name`) once, in the order first subscribed, handing each snapshot to its
    observers; a check is judged, and its folds dropped, as soon as its last run has ended.

    Checks that share a run are in one component of the plan.  With `workers` > 1 and
    more than one component, each component is a job in a forked worker process, at most
    `workers` at a time, the costliest first (`_cost` of its runs); the reports come back
    and are written here in check order, so no file depends on `workers`.  A worker that
    dies fails each check of its component with its exit code.  Otherwise the whole plan
    is one job in this process, and each check is written as it is judged.  A `workers`
    below 1 is a ValueError, raised before anything runs or is written.
    """
    if workers < 1:
        raise ValueError(f"workers must be 1 or more, got {workers}")
    _check_keys("suite", ("", suite, _suite))
    checks = suite.get("checks", [])
    for check in checks:   # each with a plain name, before any name is compared
        _path_name(check.get("name"), "check name")
    names = [c["name"] for c in checks]
    if len(names) != len(set(names)):
        raise UsageError(f"check names must be unique, got {names}")
    bound = [_bind_check(c) for c in checks]   # every check, before any file or run
    seed = int(seed_override if seed_override is not None else suite.get("seed", 0))
    outdir.mkdir(parents=True, exist_ok=True)
    reports, files = [None] * len(checks), []
    plans, runs = {}, {}   # check -> (judge, its subscriptions); config key -> subscriptions

    def write(i, rep):   # check i's report, and its series if it has one
        reports[i] = rep
        rpath = outdir / f"{rep.name}.report.json"
        rpath.write_text(json.dumps(rep.to_json(), sort_keys=True, indent=2) + "\n")
        files.append(rpath.name)
        if rep.series is not None:
            files.append(f"{rep.name}.series.csv")
            _write_series_csv(outdir / files[-1], rep)

    def runs_of(part):   # the runs that the checks of `part` subscribe to, in plan order
        return [subs for subs in runs.values() if subs[0][0] in part]

    def job(part, emit=lambda i, rep: None):   # part: checks that share no run with others
        done = []

        def finish(i, rep=None):   # without rep, in an except block: the crash report
            for sub in plans.pop(i, (None, []))[1]:
                sub.clear()   # the check's folds and trajectories are dropped
            done.append((i, rep or _crash(names[i], sys.exc_info()[1])))
            emit(*done[-1])

        def settle(i):   # judges check i if every run it subscribes to has ended
            if all(sub[3] is not None for sub in plans[i][1]):
                try:
                    rep = plans[i][0]([sub[3] for sub in plans[i][1]])
                except Exception:
                    return finish(i)
                finish(i, rep)

        def integrate(subs):   # one run; a subscription is [check, config, observer, trajectory]
            def observe(snap):
                for sub in filter(None, subs):
                    try:
                        sub[2](snap)
                    except Exception:   # fails that check only
                        finish(sub[0])
                if not any(subs):   # every check on the run has failed: stop it
                    raise RuntimeError("no observer left")
            try:
                traj = run(next(filter(None, subs))[1], observe) if any(subs) else None
            except Exception:   # fails every check still on the run
                return [finish(sub[0]) for sub in subs if sub]
            for sub in filter(None, subs):   # the run under each config's meta; observers dropped
                doc = sub[1].describe()
                sub[2:] = None, replace(traj, meta={**traj.meta, "config": doc,
                                                    "name": doc["name"],
                                                    "config_hash": config_hash(doc)})
                settle(sub[0])

        for subs in runs_of(part):
            integrate(subs)
        for i in [i for i in plans if i in part]:   # a check that subscribes to no run
            settle(i)
        return done

    for i, (fn, leading, keys) in enumerate(bound):
        try:
            subs, judge = fn(seed, *leading, **keys)
        except Exception as exc:   # crashes are recorded as failures, suite continues
            write(i, _crash(names[i], exc))
            continue
        plans[i] = (judge, [[i, cfg, observe, None] for cfg, observe in subs])
        for sub in plans[i][1]:
            runs.setdefault(config_hash({**sub[1].describe(), "name": None}), []).append(sub)
    part_of = {i: {i} for i in plans}   # check -> the checks of its component
    for subs in runs.values():
        joined = set().union(*(part_of[sub[0]] for sub in subs))
        for i in joined:
            part_of[i] = joined
    parts = [part for i, part in part_of.items() if i == min(part)]   # in check order
    if workers == 1 or len(parts) < 2:
        job(set(plans), write)
    else:   # costliest first (longest processing time); ties in check order
        started = sorted(parts, key=lambda part: -sum(_cost(subs[0][1])
                                                      for subs in runs_of(part)))
        for part, result in zip(started, fan_out(job, started, workers)):
            if isinstance(result, Exception):   # a dead worker fails each check of its part
                result = [(i, _crash(names[i], result)) for i in part]
            for i, rep in result:
                reports[i] = rep
        for i in sorted(plans):
            write(i, reports[i])
    with open(outdir / "summary.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["check", "passed", "tolerance", "provenance"])
        for rep in reports:
            w.writerow([rep.name, rep.passed,
                        json.dumps(rep.tolerance) if rep.tolerance is not None else "",
                        rep.provenance])
    files.append("summary.csv")
    (outdir / "suite_manifest.json").write_text(json.dumps(
        {"kind": "suite", "name": suite.get("name", "suite"), "seed": seed,
         "files": sorted(files),
         "passed": all(r.passed for r in reports)}, sort_keys=True, indent=2) + "\n")
    return reports
