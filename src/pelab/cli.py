"""Config-driven experiment runner and verification suites.

Subcommands: run, verify, sweep, entropy, report.  Configs and reports are
JSON, series are CSV, trajectories use the binary format of the grid module.
Outputs are byte-identical for identical configs and seeds (no timestamps),
so golden-file comparisons work.  A suite is a run plan: each check subscribes
observers, its monitors' folds, to run configs, and a judge gives its verdict on
their trajectories.  Each distinct config is integrated once and every snapshot
handed to all its observers; a negative control's plant wraps only its own
check's observer.  A sweep cell runs in a forked worker process, the costliest
cells first, and writes each snapshot and feeds it to its monitors as `run`
makes it.  Neither stores a run, so memory does not grow with the step count.

Exit codes: 0 success / all checks passed, 1 usage or config error (including
failed checks), 2 domain abort (range excursion, convexity or construction
failure).
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import math
import os
import shutil
import sys
import traceback
import typing
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from itertools import count, product
from pathlib import Path

import numpy as np

from .diagnostics import (CheckReport, _calibration, _ContractionFold, _coupled_fold,
                          _diffusion_fold, _EstimateFold, _MorreyFold, _ReverseHolderFold,
                          _rungs_report, _SupFold, choose_entropy_params)
from .errors import DomainAbort
from .grid import Cylinder, GridSpec, _write_frame, _write_header, vector_norm
from .potentials import (build_entropy, certify_window, coupled_decomposition,
                         from_piecewise_poly, get_potential)
from .solver import (RunConfig, _initial_family, _planned, config_hash, run,
                     step_diffusion, with_resolution)
from .workers import fan_out


class UsageError(Exception):
    """Bad arguments or malformed configuration; maps to exit code 1."""


# ---------------------------------------------------------------------------
# config documents

# A document's keys are the keyword-only parameters of one function per section:
# their JSON types (annotations) and defaults, and which keys are required.

def _keywords(fn) -> dict:
    """Name -> parameter, annotation evaluated, of fn's keyword-only parameters: the keys
    of a config section, a suite, a sweep, a check kind or an initial-data family."""
    return {p.name: p for p in inspect.signature(fn, eval_str=True).parameters.values()
            if p.kind is p.KEYWORD_ONLY}


def _fits(value, kind) -> bool:
    """Whether a JSON value is of `kind`: a type (an int may stand for a float), a union
    of types, or list[...], an array."""
    args = typing.get_args(kind)
    if typing.get_origin(kind) is list:
        return type(value) is list and all(_fits(v, args[0]) for v in value)
    return any(_fits(value, k) for k in args) if args else \
        type(value) is kind or (kind is float and type(value) is int)


def _check_keys(what: str, *sections) -> None:
    """UsageError naming at once every unknown, missing and mistyped key of each
    (prefix, section, fn) of `sections` that is an object, as fn's keywords declare."""
    found = {"unknown key(s)": [], "missing key(s)": [], "wrong type(s)": []}
    for at, doc, fn in sections:
        if not isinstance(doc, dict):   # a section of another type, or none
            continue
        keys = _keywords(fn)
        found["unknown key(s)"] += [at + k for k in doc if k not in keys]
        found["missing key(s)"] += [at + k for k, p in keys.items()
                                    if p.default is p.empty and k not in doc]
        found["wrong type(s)"] += [
            f"{at}{k}: {t.__name__ if type(t) is type else t}, not {type(v).__name__}"
            for k, v in doc.items() if k in keys and not _fits(v, t := keys[k].annotation)]
    problems = [f"{label} {sorted(keys)}" for label, keys in found.items() if keys]
    if problems:
        raise UsageError(f"bad {what}: {', '.join(problems)}")


def _grid(*, sizes: list[int], h: float, boundary: str = "periodic") -> GridSpec:
    """A run config's `grid` section: `sizes` points per axis, spacing `h`."""
    return GridSpec(n=len(sizes), sizes=sizes, h=float(h), boundary=boundary)


def build_potential(*, id: str = "table", r_max: float | None = None,
                    table: dict | None = None):
    """A built-in potential `id`, or a piecewise-polynomial `table` (breakpoints, coeffs
    and r_max) named `id`; `r_max` beats the table's."""
    try:
        if table is None:
            return get_potential(id, r_max=r_max)
        return from_piecewise_poly(table["breakpoints"], table["coeffs"], pid=id,
                                   r_max=table.get("r_max") if r_max is None else r_max)
    except (KeyError, ValueError) as exc:
        raise UsageError(f"bad potential section: {exc}") from exc


def _run_config(*, grid: dict, potential: dict, t_end: float, components: int = 1,
                system: str = "diffusion", cfl_sigma: float = 0.9, snapshot_every: int = 1,
                initial: dict = {"kind": "mode"}, seed: int = 0,
                boundary_values: list[float] | None = None, dt_override: float | None = None,
                name: str = "run") -> RunConfig:
    """A run config's top level; an int may stand for each float, which stays a float."""
    return RunConfig(
        grid=_grid(**grid), n_components=components, potential=build_potential(**potential),
        t_end=float(t_end), system=system, cfl_sigma=float(cfl_sigma),
        snapshot_every=snapshot_every, initial=dict(initial), seed=seed,
        boundary_values=None if boundary_values is None else tuple(boundary_values),
        dt_override=None if dt_override is None else float(dt_override), name=name)


def _path_name(name, what: str) -> str:
    """`name`, if it is one plain path component; UsageError otherwise."""
    if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\\" in name:
        raise UsageError(f"{what} {name!r} is not one plain path component")
    return name


def build_config(doc: dict, seed_override: int | None = None) -> RunConfig:
    """The RunConfig of a run config document, every key checked first (`_run_config`,
    `_grid`, `build_potential` and the family of `initial` declare them)."""
    sections = [("", doc, _run_config), ("grid.", doc.get("grid"), _grid),
                ("potential.", doc.get("potential"), build_potential)]
    try:
        if isinstance(doc.get("initial"), dict):   # without its kind, under its family's keys
            family, keys = _initial_family(doc["initial"])
            sections.append(("initial.", keys, family))
        _check_keys("run config", *sections)
        return _run_config(**doc) if seed_override is None else \
            _run_config(**{**doc, "seed": seed_override})
    except UsageError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad run config: {exc}") from exc


def _load_json(path) -> dict:
    """The JSON object the file at `path` holds; a UsageError names the file otherwise."""
    p = Path(path)
    if not p.exists():
        raise UsageError(f"file not found: {path}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError(f"{path} holds a JSON {type(doc).__name__}, not an object")
    return doc


# ---------------------------------------------------------------------------
# trajectory persistence

def _partial(outdir: Path) -> Path:
    """The hidden sibling a run writes into before it replaces `outdir`."""
    return outdir.with_name(f".{outdir.name}.partial")


@contextmanager
def _snapshot_writer(outdir: Path):
    """The one snapshot writer: yields write(snapshot), which appends a run's next
    snapshot to trajectory.pelb as a frame, and manifest(meta), which lists the
    frames.  They go to a fresh sibling of `outdir`, made at the first snapshot,
    that replaces `outdir` when the block ends; an exception closes the file,
    removes the sibling instead and leaves `outdir` as it was."""
    partial = _partial(outdir)
    files, times, fh = ExitStack(), [], None

    def write(snap):
        nonlocal fh
        if fh is None:
            shutil.rmtree(partial, ignore_errors=True)   # left by a killed run
            partial.mkdir(parents=True)
            fh = files.enter_context(open(partial / "trajectory.pelb", "wb"))
            _write_header(fh, snap.grid, snap.n_components)
        _write_frame(fh, snap)
        times.append(snap.t)

    def manifest(meta: dict) -> dict:
        doc = {"kind": "run", **meta, "trajectory": "trajectory.pelb", "frames": len(times),
               "times": times}
        (partial / "manifest.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        return doc
    try:
        with files:
            yield write, manifest
    except BaseException:
        shutil.rmtree(partial, ignore_errors=True)
        raise
    shutil.rmtree(outdir, ignore_errors=True)
    partial.rename(outdir)


# ---------------------------------------------------------------------------
# verification checks

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


# ---------------------------------------------------------------------------
# commands

def cmd_run(args) -> int:
    doc = _load_json(args.config)
    cfg = build_config(doc, args.seed)
    outdir = Path(args.out) / _path_name(cfg.name, "run name")
    with _snapshot_writer(outdir) as (write, manifest):
        try:
            traj = run(cfg, write)
        except ValueError as exc:  # an initial section or dt_override run() cannot honour
            raise UsageError(f"bad run config: {exc}") from exc
        count = manifest(traj.meta)["frames"]
    print(f"wrote {count} frames to {outdir}")
    return 0


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


def run_suite(suite: dict, outdir: Path, seed_override: int | None = None) -> list[CheckReport]:
    """Plan every check, then integrate each distinct config (keyed by its description
    without `name`) once, in the order first subscribed, handing each snapshot to its
    observers; a check is judged, written and dropped as soon as its last run has ended."""
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

    def finish(i, rep=None):   # without rep, in an except block: the crash report
        if rep is None:
            exc = sys.exc_info()[1]
            rep = CheckReport(name=names[i], passed=False,
                              values={"error": f"{type(exc).__name__}: {exc}",
                                      "traceback": traceback.format_exc()})
        for sub in plans.pop(i, (None, []))[1]:
            sub.clear()   # the check's folds and trajectories are dropped
        reports[i] = rep
        rpath = outdir / f"{rep.name}.report.json"
        rpath.write_text(json.dumps(rep.to_json(), sort_keys=True, indent=2) + "\n")
        files.append(rpath.name)
        if rep.series is not None:
            files.append(f"{rep.name}.series.csv")
            _write_series_csv(outdir / files[-1], rep)

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
            sub[2:] = None, replace(traj, meta={**traj.meta, "config": doc, "name": doc["name"],
                                                "config_hash": config_hash(doc)})
            settle(sub[0])

    for i, (fn, leading, keys) in enumerate(bound):
        try:
            subs, judge = fn(seed, *leading, **keys)
        except Exception:   # crashes are recorded as failures, suite continues
            finish(i)
            continue
        plans[i] = (judge, [[i, cfg, observe, None] for cfg, observe in subs])
        for sub in plans[i][1]:
            runs.setdefault(config_hash({**sub[1].describe(), "name": None}), []).append(sub)
    for subs in runs.values():
        integrate(subs)
    for i in list(plans):   # a check that subscribes to no run
        settle(i)
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


def cmd_verify(args) -> int:
    if args.suite in _BUILTIN_SUITES:
        suite = _BUILTIN_SUITES[args.suite]()
    else:
        suite = _load_json(args.suite)
    outdir = Path(args.out) / _path_name(suite.get("name", "suite"), "suite name")
    reports = run_suite(suite, outdir, args.seed)
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"{status} {rep.name}")
        if not rep.passed and rep.witness:
            print(f"     witness: {json.dumps(rep.to_json()['witness'])}")
    all_pass = all(r.passed for r in reports)
    print(f"{sum(r.passed for r in reports)}/{len(reports)} checks passed")
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# sweeps

def _axes(*, resolution: list[int] = [], potential: list[str] = [], seed: list[int] = []):
    """A sweep's axes, in the order the cells' labels name them: the values each takes."""


def _sweep_cells(doc: dict) -> list[dict]:
    axes = doc.get("axes", {})
    order = [k for k in _keywords(_axes) if k in axes]
    combos = list(product(*[axes[k] for k in order])) if order else [()]
    cells = []
    for combo in combos:
        cell = dict(zip(order, combo))
        pot = cell.get("potential", doc["base"].get("potential", {}).get("id", "pot"))
        label = "-".join(filter(None, [
            str(pot),
            f"n{cell['resolution']}" if "resolution" in cell else "",
            f"s{cell['seed']}" if "seed" in cell else ""])) or "cell"
        cells.append({"label": _path_name(label, "cell label"), **cell})
    labels = [c["label"] for c in cells]
    if len(labels) != len(set(labels)):
        dup = sorted({x for x in labels if labels.count(x) > 1})
        raise UsageError(f"duplicate cell labels: {dup}")
    return cells


_SWEEP_FIELDS = ("label", "potential", "size", "seed", "config_hash", "terminal_sup",
                 "resid_pos_max", "resid_abs_max", "morrey_16h", "morrey_8h",
                 "morrey_4h", "error")


def _sweep(*, base: dict, axes: dict = {}, name: str = "sweep"):
    """A sweep's keys."""


def _cell_config(base_doc: dict, cell: dict, seed: int | None) -> RunConfig:
    """A sweep cell's config; a `seed` axis value beats `seed`, which beats base.seed."""
    doc = json.loads(json.dumps(base_doc))
    try:
        if "potential" in cell:   # a named potential replaces a table, keeping r_max
            doc["potential"].pop("table", None)
            doc["potential"]["id"] = cell["potential"]
        doc["name"] = cell["label"]
        cfg = build_config(doc, cell.get("seed", seed))
        return with_resolution(cfg, int(cell["resolution"])) if "resolution" in cell else cfg
    except (KeyError, TypeError, ValueError) as exc:   # a UsageError passes as it is
        raise UsageError(f"bad sweep cell '{cell['label']}': {exc}") from exc


def _run_cell(cfg: RunConfig, outdir: Path) -> dict:
    """Run one sweep cell, labelled by its config's name, writing each snapshot into
    `outdir` and feeding it to the monitors as it comes."""
    grid, pot = cfg.grid, cfg.potential
    residual = morrey = None
    if cfg.snapshot_every == 1 and cfg.system == "diffusion":
        residual = _diffusion_fold(grid, pot, build_entropy(pot), certify_window(pot))
    # |grad u|^2 is made once a snapshot: Morrey reads the residual fold's, fed first
    g = None if residual is None else lambda snap: residual.grad
    try:
        center = tuple(0.5 * grid.extent(a) for a in range(grid.n))
        morrey = _MorreyFold(grid, [(center, cfg.t_end)], [16 * grid.h, 8 * grid.h, 4 * grid.h], g)
    except ValueError:
        pass  # the cylinder does not fit this cell's box; leave its columns blank
    folds = [f for f in (residual, morrey) if f is not None]
    with _snapshot_writer(outdir / cfg.name) as (write, manifest):
        def observe(snap):
            write(snap)
            for fold in folds:
                fold.feed(snap)

        traj = run(cfg, observe)
        manifest(traj.meta)
        row = dict.fromkeys(_SWEEP_FIELDS, "")
        row.update(label=cfg.name, potential=pot.id, size=grid.sizes[0], seed=cfg.seed,
                   config_hash=traj.meta["config_hash"],
                   terminal_sup=float(vector_norm(traj.final.values).max()))
        if residual is not None:
            stats = residual.stats()
            row["resid_pos_max"], row["resid_abs_max"] = stats["max_pos"], stats["max_abs"]
        if morrey is not None:
            try:
                [prof] = morrey.profiles()
                row["morrey_16h"], row["morrey_8h"], row["morrey_4h"] = (v for _, v in prof)
            except ValueError:
                pass  # fewer than two snapshots in the window; leave blank
    return row


def cmd_sweep(args) -> int:
    if args.threads < 0:
        raise UsageError(f"--threads must be 0 (the usable CPUs) or positive, got {args.threads}")
    doc = _load_json(args.sweep)   # the sections the sweep reads itself, before any cell
    _check_keys("sweep", ("", doc, _sweep), ("axes.", doc.get("axes"), _axes),
                ("base.", doc.get("base"), _run_config))
    cells = _sweep_cells(doc)
    configs = {c["label"]: _cell_config(doc["base"], c, args.seed) for c in cells}
    outdir = Path(args.out) / _path_name(doc.get("name", "sweep"), "sweep name")
    outdir.mkdir(parents=True, exist_ok=True)   # every cell's config built first
    workers = args.threads or (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                               else os.cpu_count() or 1)

    def error_row(cell, exc):
        return {**dict.fromkeys(_SWEEP_FIELDS, ""), "label": cell["label"],
                "error": f"{type(exc).__name__}: {exc}"}

    def work(cell):
        try:
            return _run_cell(configs[cell["label"]], outdir)
        except Exception as exc:
            return error_row(cell, exc)

    def cost(cell):   # planned steps x points x components
        try:
            cfg = configs[cell["label"]]
            return _planned(cfg)[2] * math.prod(cfg.grid.sizes) * cfg.n_components
        except Exception:
            return 0   # the cell's run reports the error, as `work` does

    # costliest first (longest processing time); ties, and the rows, in cell order
    started = sorted(cells, key=lambda c: -cost(c))
    try:
        results = fan_out(work, started, workers)
    finally:   # every worker has ended: a partial directory left is a dead worker's
        for c in cells:
            shutil.rmtree(_partial(outdir / c["label"]), ignore_errors=True)
    done = {c["label"]: error_row(c, r) if isinstance(r, Exception) else r
            for c, r in zip(started, results)}
    rows = [done[c["label"]] for c in cells]

    with open(outdir / "sweep.csv", "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=_SWEEP_FIELDS)
        w.writeheader()
        for row in rows:
            w.writerow(row)
    failures = [r for r in rows if r["error"]]
    (outdir / "sweep_manifest.json").write_text(json.dumps(
        {"kind": "sweep", "name": doc.get("name", "sweep"),
         "cells": [c["label"] for c in cells], "files": ["sweep.csv"],
         "failed": [r["label"] for r in failures]}, sort_keys=True, indent=2) + "\n")
    for r in failures:
        print(f"cell {r['label']} failed: {r['error']}", file=sys.stderr)
    print(f"wrote {outdir / 'sweep.csv'} ({len(cells)} cells, {len(failures)} failed)")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# entropy tables

def cmd_entropy(args) -> int:
    if args.table:
        table = _load_json(args.table)
        doc = {"table": table, "id": table.get("id", "table")}
    else:
        doc = {"id": args.potential}
    if args.r_max is not None:
        doc["r_max"] = args.r_max
    pot = build_potential(**doc)
    _path_name(pot.id, "potential id")
    window = certify_window(pot)
    ent = build_entropy(pot)
    cc = coupled_decomposition(pot)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    zs = np.linspace(0.0, ent.z_max, 257)
    rs = np.linspace(0.0, pot.r_max, 257)
    resid = np.abs(np.asarray(ent.gamma(np.asarray(pot.phi(rs), dtype=float)))
                   - 0.5 * np.square(np.asarray(pot.phi1(rs), dtype=float)))
    with open(outdir / f"{pot.id}_entropy.csv", "w", newline="") as fh:
        fh.write(f"potential,{pot.id},lam,{window.lam:.17g},Lam,{window.Lam:.17g},"
                 f"identity_tol,{ent.tol:.3e}\n")
        fh.write("z,gamma,identity_residual_at_matching_r\n")
        w = csv.writer(fh)
        for z, rr in zip(zs, resid):
            w.writerow([f"{z:.17g}", f"{float(ent.gamma(z)):.17g}", f"{rr:.3e}"])

    a_s = np.asarray(cc.a(rs), dtype=float)
    H_s = np.asarray(cc.H_profile(rs), dtype=float)
    dH = np.asarray(cc.dH_profile(rs), dtype=float)
    d2H = np.gradient(dH, rs)
    with open(outdir / f"{pot.id}_decomposition.csv", "w", newline="") as fh:
        fh.write(f"potential,{pot.id},sup_Hzz,{cc.bounds['sup_Hzz']:.17g}\n")
        fh.write("r,a,H,sign_H2\n")
        w = csv.writer(fh)
        for r, av, hv, sv in zip(rs, a_s, H_s, np.sign(np.round(d2H, 12))):
            w.writerow([f"{r:.17g}", f"{av:.17g}", f"{hv:.17g}", int(sv)])

    tang = np.where(rs > 0, dH / np.maximum(rs, 1e-300), d2H[0])
    convex = bool(min(d2H.min(), tang.min()) >= -1e-10)
    if cc.bounds["sup_Hzz"] == 0.0:
        convexity = "trivially (H = 0)"
    else:
        convexity = "yes" if convex else "no"
    print(f"potential {pot.id}: window lam={window.lam:.12g} Lam={window.Lam:.12g} "
          f"on [0, {pot.r_max}]")
    print(f"entropy identity residual: {ent.tol:.3e}")
    print(f"H convex on range: {convexity}")
    print(f"tables written to {outdir}")
    return 0


# ---------------------------------------------------------------------------
# report rendering

def cmd_report(args) -> int:
    root = Path(args.directory)
    if not root.exists():
        raise UsageError(f"directory not found: {args.directory}")
    rows = []
    for mpath in sorted(root.rglob("manifest.json")):   # every file read before any is written
        m = _load_json(mpath)
        rows.append({"path": str(mpath.relative_to(root)), "kind": m.get("kind", "run"),
                     "name": m.get("name", ""), "config_hash": m.get("config_hash", ""),
                     "passed": "", "detail": f"dt={m.get('dt')} steps={m.get('steps')}"})
    for rpath in sorted(root.rglob("*.report.json")):
        r = _load_json(rpath)
        rows.append({"path": str(rpath.relative_to(root)), "kind": "check",
                     "name": r.get("name", ""), "config_hash": r.get("provenance", ""),
                     "passed": r.get("passed", ""), "detail": ""})
    out = root / "report_summary.csv"
    with open(out, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=["path", "kind", "name", "config_hash",
                                           "passed", "detail"])
        w.writeheader()
        for row in rows:
            w.writerow(row)
    print(f"wrote {out} ({len(rows)} entries)")
    return 0


# ---------------------------------------------------------------------------
# entry point

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    # one parent per flag, so that a subcommand accepts only the flags it reads
    out, seed, threads = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    out.add_argument("--out", default="out", help="output directory (default: out)")
    seed.add_argument("--seed", type=int, default=None, help="override the config seed")
    threads.add_argument("--threads", type=int, default=0, metavar="K",
                         help="cells run K at a time, each in its own forked worker "
                              "process (0 = the usable CPUs)")

    parser = _Parser(prog="pelab",
                     description="diffusion-system laboratory: runs, checks, sweeps")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[out, seed],
                           help="integrate one configuration")
    p_run.add_argument("config", help="path to a run config JSON")

    p_verify = sub.add_parser("verify", parents=[out, seed],
                              help="run a verification suite")
    p_verify.add_argument("suite",
                          help=f"suite JSON path or one of {sorted(_BUILTIN_SUITES)}")

    p_sweep = sub.add_parser("sweep", parents=[out, seed, threads],
                             help="run a parameter sweep")
    p_sweep.add_argument("sweep", help="path to a sweep JSON")

    p_ent = sub.add_parser("entropy", parents=[out],
                           help="certify a potential and export tables")
    p_ent.add_argument("potential", nargs="?", default="cosh",
                       help="built-in potential id")
    p_ent.add_argument("--r-max", type=float, default=None, dest="r_max")
    p_ent.add_argument("--table", default=None,
                       help="piecewise-polynomial potential JSON instead of an id")

    p_rep = sub.add_parser("report", help="summarize manifests under a directory")
    p_rep.add_argument("directory")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {"run": cmd_run, "verify": cmd_verify, "sweep": cmd_sweep,
                   "entropy": cmd_entropy, "report": cmd_report}[args.command]
        return handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DomainAbort as exc:
        print(f"domain abort: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
