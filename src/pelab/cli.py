"""Config-driven experiment runner and verification suites.

Subcommands: run, verify, sweep, entropy, report.  Configs and reports are
JSON, series are CSV, trajectories use the binary format of the grid module.
Outputs are byte-identical for identical configs and seeds (no timestamps),
so golden-file comparisons work.  A sweep cell writes each snapshot and feeds
it to its monitors as `run` makes it, so its memory does not grow with the
step count; the costliest cells start first.

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
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from itertools import count, product
from pathlib import Path

import numpy as np

from .diagnostics import (CheckReport, _ContractionFold, _coupled_fold, _diffusion_fold,
                          _morrey, _SupFold, calibrate_residual_constant,
                          choose_entropy_params, estimate_ratio_report, morrey_report,
                          reverse_holder_report)
from .errors import DomainAbort
from .grid import (Cylinder, GridSpec, Trajectory, _CylinderFold, _write_frame,
                   _write_header, vector_norm)
from .potentials import (build_entropy, certify_window, coupled_decomposition,
                         from_piecewise_poly, get_potential)
from .solver import (RunConfig, _initial_family, _planned, config_hash, run,
                     step_diffusion, with_resolution)


class UsageError(Exception):
    """Bad arguments or malformed configuration; maps to exit code 1."""


# ---------------------------------------------------------------------------
# config documents

def build_grid(doc: dict) -> GridSpec:
    try:
        sizes = tuple(int(s) for s in doc["sizes"])
        return GridSpec(n=len(sizes), sizes=sizes, h=float(doc["h"]),
                        boundary=doc.get("boundary", "periodic"))
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad grid section: {exc}") from exc


def build_potential(doc: dict):
    try:
        if "table" in doc:
            t = doc["table"]
            return from_piecewise_poly(t["breakpoints"], t["coeffs"],
                                       r_max=doc.get("r_max", t.get("r_max")),
                                       pid=doc.get("id", "table"))
        return get_potential(doc["id"], r_max=doc.get("r_max"))
    except (KeyError, ValueError) as exc:
        raise UsageError(f"bad potential section: {exc}") from exc


def _check_keys(doc: dict, known: dict, what: str, required=()) -> None:
    """UsageError naming every key that `known` does not list, at the top level
    of `doc` (section "") and in each of its sections that `known` names, and
    every key of `required` that the top level lacks."""
    sections = {"": doc, **{s: doc[s] for s in known if s and s in doc}}
    unknown = sorted(f"{s}.{k}".lstrip(".") for s, d in sections.items()
                     if isinstance(d, dict) for k in d if k not in known[s])
    missing = sorted(k for k in required if k not in doc)
    problems = [f"{label} key(s) {keys}" for label, keys in
                (("unknown", unknown), ("missing", missing)) if keys]
    if problems:
        raise UsageError(f"bad {what}: {', '.join(problems)}")


def _keywords(fn) -> dict:
    """Name -> default of fn's keyword-only parameters: a check kind's or a family's keys."""
    return {p.name: p.default for p in inspect.signature(fn).parameters.values()
            if p.kind is p.KEYWORD_ONLY}


def _path_name(name, what: str) -> str:
    """`name`, if it is one plain path component; UsageError otherwise."""
    if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\\" in name:
        raise UsageError(f"{what} {name!r} is not one plain path component")
    return name


def build_config(doc: dict, seed_override: int | None = None) -> RunConfig:
    known = {"": {"grid", "potential", "components", "t_end", "system", "cfl_sigma", "seed",
                  "snapshot_every", "initial", "boundary_values", "dt_override", "name"},
             "grid": {"sizes", "h", "boundary"}, "potential": {"id", "r_max", "table"}}
    try:
        initial = doc["initial"] if "initial" in doc else {"kind": "mode"}
        if isinstance(initial, dict):   # the keys of its family's function
            known["initial"] = {"kind", *_keywords(_initial_family(initial)[0])}
        _check_keys(doc, known, "run config")
        grid = build_grid(doc["grid"])
        pot = build_potential(doc["potential"])
        bv = doc.get("boundary_values")
        dt = doc.get("dt_override")
        return RunConfig(
            grid=grid,
            n_components=int(doc.get("components", 1)),
            potential=pot,
            t_end=float(doc["t_end"]),
            system=doc.get("system", "diffusion"),
            cfl_sigma=float(doc.get("cfl_sigma", 0.9)),
            snapshot_every=int(doc.get("snapshot_every", 1)),
            initial=initial,
            seed=int(seed_override if seed_override is not None else doc.get("seed", 0)),
            boundary_values=tuple(bv) if bv is not None else None,
            dt_override=float(dt) if dt is not None else None,
            name=doc.get("name", "run"))
    except UsageError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad run config: {exc}") from exc


def _load_json(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise UsageError(f"file not found: {path}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid JSON in {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# trajectory persistence

@contextmanager
def _snapshot_writer(outdir: Path):
    """The one snapshot writer: yields write(snapshot), which appends a run's next
    snapshot to trajectory.pelb as a frame, and manifest(meta), which lists the
    frames.  They go to a fresh sibling of `outdir`, made at the first snapshot,
    that replaces `outdir` when the block ends; an exception closes the file,
    removes the sibling instead and leaves `outdir` as it was."""
    partial = outdir.with_name(f".{outdir.name}.partial")
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


def _shrink_ok(pos_coarse: float, pos_fine: float, scale: float) -> bool:
    # identically zero positive parts satisfy the refinement demand vacuously
    floor = 1e-12 * max(1.0, scale)
    return pos_fine <= max(0.5 * pos_coarse, floor)


def _check_contraction(run, seed, plant=lambda cfg, obs: obs, /, *, name, config, initial0,
                       initial1, decay_ratio_target=None, decay_ratio_rtol=0.02) -> CheckReport:
    if "initial" in config:   # the runs start from initial0 and initial1
        raise UsageError(f"'{name}': a contraction config takes no 'initial'")
    base0, base1 = (build_config({**config, "initial": i}, seed) for i in (initial0, initial1))
    fold = _ContractionFold(run(replace(base0, name=base0.name + "-a")),
                            certify_window(base0.potential))
    cfg1 = replace(base1, name=base1.name + "-b")
    rep = fold.report(run(cfg1, plant(cfg1, fold.feed)), name)
    if decay_ratio_target is not None:
        d = rep.values["d"]
        measured = float(d[-1] / d[0]) if d[0] > 0 else float("nan")
        target, rtol = decay_ratio_target, decay_ratio_rtol
        rep.values["decay_ratio"] = measured
        rep.values["decay_ratio_target"] = target
        if not (math.isfinite(measured) and abs(measured - target) <= rtol * target):
            rep.passed = False
            rep.witness = {"decay_ratio": measured, "target": target, "rtol": rtol}
    return rep


def _check_sup_norm(run, seed, plant=lambda cfg, obs: obs, /, *, name, config) -> CheckReport:
    cfg = build_config(config, seed)
    fold = _SupFold()
    return fold.report(run(cfg, plant(cfg, fold.feed)), name)


def _check_entropy(run, seed, coupled: bool, /, *, name, config, sizes=(64, 128),
                   K=None) -> CheckReport:
    base = build_config(config, seed)
    if base.snapshot_every != 1:
        raise UsageError("entropy residual checks need snapshot_every = 1")
    if K is None:
        K = calibrate_residual_constant(with_resolution(base, sizes[0]))
    pot = base.potential
    if coupled:
        cc = coupled_decomposition(pot)
        pars = choose_entropy_params(cc, base.grid.n, base.n_components)
        extra = {"s": pars.s, "c": pars.c}
        residual = lambda grid: _coupled_fold(grid, cc, pars.s, pars.c)
    else:
        ent, window, extra = build_entropy(pot), certify_window(pot), {}
        residual = lambda grid: _diffusion_fold(grid, pot, ent, window)
    per_size = []
    passed = True
    witness = None
    prev_pos = None
    for size in sizes:   # each rung folded as it runs
        cfg = with_resolution(base, size)
        fold = residual(cfg.grid)
        dt = run(cfg, fold.feed).dt
        tau = K * (cfg.grid.h ** 2 + dt)
        stats = fold.stats()
        per_size.append({"size": size, **{k: stats[k] for k in ("max_pos", "p99_pos", "max_abs")},
                         "h": cfg.grid.h, "dt": dt, "tau": tau})
        if not fold.max_pos <= tau:
            passed = False
            witness = witness or fold.witness
        if prev_pos is not None and not _shrink_ok(prev_pos, fold.max_pos, fold.max_abs):
            passed = False
            witness = witness or {"refinement": {"coarse_pos": prev_pos, "fine_pos": fold.max_pos}}
        prev_pos = fold.max_pos
    return CheckReport(name=name, passed=passed, tolerance={"K": K},
                       values={"K": K, "per_size": per_size, **extra}, witness=witness)


def _check_morrey(run, seed, /, *, name, config, t0=None, points=10,
                  radii_h=(16, 8, 4)) -> CheckReport:
    cfg = build_config(config, seed)
    t0 = cfg.t_end if t0 is None else t0
    pts = [(xy, t0) for xy in _seeded_points(cfg.grid, points, seed + 1)]
    return morrey_report(run(cfg), pts, [m * cfg.grid.h for m in radii_h], name=name)


def _coarse_then_fine(name: str, base: RunConfig, sizes, run, monitor, key: str) -> CheckReport:
    """The fine rung's report, judged against the coarse rung's `key` value.
    `monitor(grid)` is the report function of both rungs, set up on the coarse grid."""
    if len(sizes) != 2:
        raise UsageError(f"'{name}' takes exactly two sizes (coarse, fine), got {sizes}")
    coarse_cfg = with_resolution(base, sizes[0])
    report = monitor(coarse_cfg.grid)
    coarse = report(run(coarse_cfg))   # its run freed before the fine one starts
    rep = report(run(with_resolution(base, sizes[1])), reference=coarse.values[key], name=name)
    rep.values[f"{key}_coarse"] = coarse.values[key]
    rep.values["sizes"] = sizes
    return rep


def _check_reverse_holder(run, seed, /, *, name, config, R, t0=None, sizes=(128, 256),
                          cylinders=20, p=2.5) -> CheckReport:
    base = build_config(config, seed)
    t0 = base.t_end if t0 is None else t0

    def monitor(grid):
        cyls = [Cylinder(center=c, t0=t0, R=R)
                for c in _seeded_points(grid, cylinders, seed + 2, margin=0.0)]
        return lambda traj, **kw: reverse_holder_report(traj, cyls, p=p, **kw)
    return _coarse_then_fine(name, base, sizes, run, monitor, "max_ratio")


def _check_estimate_ratios(run, seed, /, *, name, config, r, R, t0, sizes=(128, 256),
                           cylinders=3) -> CheckReport:
    base = build_config(config, seed)

    def monitor(grid):
        pairs = [(Cylinder(center=c, t0=t0, R=r), Cylinder(center=c, t0=t0, R=R))
                 for c in _seeded_points(grid, cylinders, seed + 3)]
        return lambda traj, **kw: estimate_ratio_report(traj, base.potential, pairs, **kw)
    return _coarse_then_fine(name, base, sizes, run, monitor, "maxima")


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


def _shared_run(memo: dict):
    """`run` through `memo`, keyed on the resolved config without its name, replaying the
    stored snapshots into `observe`; a hit shares them and dt under this config's meta."""
    def shared(cfg: RunConfig, observe=lambda snap: None) -> Trajectory:
        doc = cfg.describe()
        key = config_hash({**doc, "name": None})
        traj = memo[key] = memo.get(key) or run(cfg)
        for snap in traj.snapshots:
            observe(snap)
        return replace(traj, meta={**traj.meta, "config": doc,
                                   "config_hash": config_hash(doc), "name": cfg.name})
    return shared


# check kind -> (function, *leading), called as function(run, seed, *leading, **keys)
# with `run(config, observe=None)`; the keyword-only parameters declare the kind's
# keys and defaults, and the leading ones hold what a suite cannot set.
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


# a key's JSON types, by its default's type: an int may stand for a float
_KEY_TYPES = {int: (int,), float: (int, float), str: (str,), bool: (bool,)}


def _bind_check(check: dict):
    """The check's (function, leading arguments, keys) from _CHECKS; a UsageError
    names the check and every unknown or missing key, and every key whose value's
    type is not its default's (`config` is an object)."""
    kind = check.get("kind")
    if not isinstance(kind, str) or kind not in _CHECKS:
        raise UsageError(f"unknown check kind '{kind}' in '{check['name']}'")
    fn, *leading = _CHECKS[kind]
    keys = _keywords(fn)
    _check_keys(check, {"": {*keys, "kind"}}, f"check '{check['name']}'",
                required=[k for k, default in keys.items() if default is inspect.Parameter.empty])
    types = {"config": (dict,), **{k: _KEY_TYPES[type(d)] for k, d in keys.items()
                                   if type(d) in _KEY_TYPES}}
    wrong = [f"{k}: {types[k][-1].__name__}, not {type(v).__name__}"
             for k, v in check.items() if k in types and type(v) not in types[k]]
    if wrong:
        raise UsageError(f"bad check '{check['name']}': wrong type(s) {wrong}")
    return fn, leading, {k: v for k, v in check.items() if k != "kind"}


# ---------------------------------------------------------------------------
# built-in suites

def paper_core_suite(size: int = 128) -> dict:
    """One check per structural property of the flow, cosh potential, given base size."""
    def pgrid(m):
        return {"sizes": [m], "h": 1.0 / m, "boundary": "periodic"}

    def dgrid(m):
        return {"sizes": [m], "h": 1.0 / (m - 1), "boundary": "dirichlet"}

    cosh = {"id": "cosh", "r_max": 1.0}
    quad = {"id": "quadratic", "r_max": 2.0}
    bands = {"kind": "bands", "kmax": 3, "amplitude": 0.5}
    offset_bands = {"kind": "bands", "kmax": 3, "amplitude": 0.17, "offset": [0.8]}
    return {
        "name": "paper-core",
        "seed": 11,
        "checks": [
            {"name": "contraction-cosh", "kind": "contraction",
             "config": {"grid": dgrid(size), "components": 1, "potential": cosh,
                        "t_end": 0.05, "snapshot_every": 25, "name": "contraction-cosh"},
             "initial0": {"kind": "mode", "k": [1], "amplitude": 0.5},
             "initial1": {"kind": "bands", "kmax": 3, "amplitude": 0.4}},
            {"name": "contraction-heat-rate", "kind": "contraction",
             "config": {"grid": dgrid(size), "components": 1, "potential": quad,
                        "t_end": 0.05, "snapshot_every": 25, "name": "contraction-heat"},
             "initial0": {"kind": "mode", "k": [1], "amplitude": 0.6},
             "initial1": {"kind": "mode", "k": [1], "amplitude": 0.3},
             "decay_ratio_target": math.exp(-math.pi ** 2 * 0.05),
             "decay_ratio_rtol": 0.02},
            {"name": "boundedness-bump", "kind": "sup-norm",
             "config": {"grid": pgrid(size), "components": 2, "potential": cosh,
                        "t_end": 0.01, "snapshot_every": 8, "name": "sup-bump",
                        "initial": {"kind": "bump", "amplitude": 0.8, "width": 0.1}}},
            {"name": "boundedness-bands", "kind": "sup-norm",
             "config": {"grid": pgrid(size), "components": 2, "potential": cosh,
                        "t_end": 0.01, "snapshot_every": 8, "name": "sup-bands",
                        "initial": bands}},
            {"name": "entropy-diffusion", "kind": "entropy-diffusion",
             "sizes": [size // 2, size],
             "config": {"grid": pgrid(size), "components": 1, "potential": cosh,
                        "t_end": 0.01, "snapshot_every": 1, "name": "entropy-diff",
                        "initial": bands}},
            {"name": "entropy-coupled", "kind": "entropy-coupled",
             "sizes": [size // 2, size],
             "config": {"grid": pgrid(size), "components": 1, "potential": cosh,
                        "system": "coupled", "t_end": 0.01, "snapshot_every": 1,
                        "name": "entropy-coup", "initial": offset_bands}},
            {"name": "morrey", "kind": "morrey", "points": 10,
             "config": {"grid": pgrid(size), "components": 1, "potential": cosh,
                        "t_end": 0.02, "snapshot_every": 8, "name": "morrey",
                        "initial": bands}},
            {"name": "reverse-holder", "kind": "reverse-holder",
             "sizes": [size, 2 * size], "R": 0.032, "cylinders": 20,
             "config": {"grid": pgrid(size), "components": 1, "potential": cosh,
                        "t_end": 0.02, "snapshot_every": 8, "name": "rev-holder",
                        "initial": bands}},
            {"name": "estimate-ratios", "kind": "estimate-ratios",
             "sizes": [size, 2 * size], "r": 0.05, "R": 0.1, "t0": 0.018,
             "cylinders": 3,
             "config": {"grid": pgrid(size), "components": 1, "potential": cosh,
                        "t_end": 0.02, "snapshot_every": 8, "name": "est-ratios",
                        "initial": bands}},
        ],
    }


def negative_control_suite(size: int = 64) -> dict:
    """Injected violations; every check must fail and carry a witness."""
    cosh = {"id": "cosh", "r_max": 1.0}
    grid = {"sizes": [size], "h": 1.0 / size, "boundary": "periodic"}
    dgrid = {"sizes": [size], "h": 1.0 / (size - 1), "boundary": "dirichlet"}
    return {
        "name": "negative-control",
        "seed": 5,
        "checks": [
            {"name": "injected-sup-growth", "kind": "tampered-sup",
             "config": {"grid": grid, "components": 1, "potential": cosh,
                        "t_end": 0.005, "snapshot_every": 4, "name": "neg-sup",
                        "initial": {"kind": "bands", "kmax": 2, "amplitude": 0.5}}},
            {"name": "injected-contraction-growth", "kind": "tampered-contraction",
             "config": {"grid": dgrid, "components": 1, "potential": cosh,
                        "t_end": 0.02, "snapshot_every": 10, "name": "neg-contr"},
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


def run_suite(suite: dict, outdir: Path, seed_override: int | None = None) -> list[CheckReport]:
    checks = suite.get("checks", [])
    if not isinstance(checks, list):
        raise UsageError(f"suite checks must be a list, got {checks!r}")
    for check in checks:   # each an object with a plain name, before any name is compared
        if not isinstance(check, dict):
            raise UsageError(f"check {check!r} is not an object")
        _path_name(check.get("name"), "check name")
    names = [c["name"] for c in checks]
    if len(names) != len(set(names)):
        raise UsageError(f"check names must be unique, got {names}")
    bound = [_bind_check(c) for c in checks]   # every check, before any file or run
    seed = int(seed_override if seed_override is not None else suite.get("seed", 0))
    outdir.mkdir(parents=True, exist_ok=True)
    reports = []
    files = []
    # consecutive checks whose configs differ at most in `name` share one memo
    bare = [{**c["config"], "name": None} for c in checks]
    for i, (fn, leading, keys) in enumerate(bound):
        if i == 0 or bare[i] != bare[i - 1]:
            memo = {}   # a new group: the last group's runs are dropped
        shared = bare[i] in bare[max(i - 1, 0):i] + bare[i + 1:i + 2]
        try:
            rep = fn(_shared_run(memo) if shared else run, seed, *leading, **keys)
        except Exception as exc:  # crashes are recorded as failures, suite continues
            rep = CheckReport(name=keys["name"], passed=False,
                              values={"error": f"{type(exc).__name__}: {exc}",
                                      "traceback": traceback.format_exc()})
        rpath = outdir / f"{rep.name}.report.json"
        rpath.write_text(json.dumps(rep.to_json(), sort_keys=True, indent=2) + "\n")
        files.append(rpath.name)
        if rep.series is not None:
            files.append(f"{rep.name}.series.csv")
            _write_series_csv(outdir / files[-1], rep)
        reports.append(rep)
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
    _check_keys(suite, {"": {"name", "seed", "checks"}}, "suite")
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

def _sweep_cells(doc: dict) -> list[dict]:
    axes = doc.get("axes", {})
    order = [k for k in ("resolution", "potential", "seed") if k in axes]
    unknown = set(axes) - set(order)
    if unknown:
        raise UsageError(f"unknown sweep axes: {sorted(unknown)}")
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


def _run_cell(base_doc: dict, cell: dict, outdir: Path, seed: int | None) -> dict:
    """Run one sweep cell, writing each snapshot and feeding it to the monitors as it comes."""
    cfg = _cell_config(base_doc, cell, seed)
    grid, pot = cfg.grid, cfg.potential
    residual = morrey = None
    if cfg.snapshot_every == 1 and cfg.system == "diffusion":
        residual = _diffusion_fold(grid, pot, build_entropy(pot), certify_window(pot))
    try:
        center = tuple(0.5 * grid.extent(a) for a in range(grid.n))
        terms, g, profiles = _morrey(grid, [(center, cfg.t_end)], [16 * grid.h, 8 * grid.h,
                                                                   4 * grid.h])
        morrey = _CylinderFold(grid, terms, lambda k, snap: g(snap))
    except ValueError:
        pass  # the cylinder does not fit this cell's box; leave its columns blank
    folds = [f for f in (residual, morrey) if f is not None]
    with _snapshot_writer(outdir / cell["label"]) as (write, manifest):
        def observe(snap):
            write(snap)
            for fold in folds:
                fold.feed(snap)

        traj = run(cfg, observe)
        manifest(traj.meta)
        row = dict.fromkeys(_SWEEP_FIELDS, "")
        row.update(label=cell["label"], potential=pot.id, size=grid.sizes[0], seed=cfg.seed,
                   config_hash=traj.meta["config_hash"],
                   terminal_sup=float(vector_norm(traj.final.values).max()))
        if residual is not None:
            stats = residual.stats()
            row["resid_pos_max"], row["resid_abs_max"] = stats["max_pos"], stats["max_abs"]
        if morrey is not None:
            try:
                [prof] = profiles(morrey.result(), morrey.spacing)
                row["morrey_16h"], row["morrey_8h"], row["morrey_4h"] = (v for _, v in prof)
            except ValueError:
                pass  # fewer than two snapshots in the window; leave blank
    return row


def cmd_sweep(args) -> int:
    if args.threads < 0:
        raise UsageError(f"--threads must be 0 (the usable CPUs) or positive, got {args.threads}")
    doc = _load_json(args.sweep)
    _check_keys(doc, {"": {"name", "base", "axes"}}, "sweep")
    if "base" not in doc:
        raise UsageError("sweep file needs a 'base' run config")
    cells = _sweep_cells(doc)
    configs = {c["label"]: _cell_config(doc["base"], c, args.seed) for c in cells}
    outdir = Path(args.out) / _path_name(doc.get("name", "sweep"), "sweep name")
    outdir.mkdir(parents=True, exist_ok=True)   # every cell's config built first
    workers = args.threads or (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                               else os.cpu_count() or 1)

    def work(cell):
        try:
            return _run_cell(doc["base"], cell, outdir, args.seed)
        except Exception as exc:
            return {**dict.fromkeys(_SWEEP_FIELDS, ""), "label": cell["label"],
                    "error": f"{type(exc).__name__}: {exc}"}

    def cost(cell):   # planned steps x points x components
        try:
            cfg = configs[cell["label"]]
            return _planned(cfg)[2] * math.prod(cfg.grid.sizes) * cfg.n_components
        except Exception:
            return 0   # the cell's run reports the error, as `work` does

    # costliest first (longest processing time); ties, and the rows, in cell order
    with ThreadPoolExecutor(max_workers=workers) as ex:
        futures = {c["label"]: ex.submit(work, c) for c in sorted(cells, key=lambda c: -cost(c))}
    rows = [futures[c["label"]].result() for c in cells]

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
    pot = build_potential(doc)
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
    for mpath in sorted(root.rglob("manifest.json")):
        m = json.loads(mpath.read_text())
        rows.append({"path": str(mpath.relative_to(root)), "kind": m.get("kind", "run"),
                     "name": m.get("name", ""), "config_hash": m.get("config_hash", ""),
                     "passed": "", "detail": f"dt={m.get('dt')} steps={m.get('steps')}"})
    for rpath in sorted(root.rglob("*.report.json")):
        r = json.loads(rpath.read_text())
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
    threads.add_argument("--threads", type=int, default=0,
                         help="worker threads for sweeps (0 = the usable CPUs)")

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
