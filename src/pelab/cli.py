"""The `pelab` command: config-driven runs, verification suites, sweeps, entropy
tables and report rendering.

Subcommands: run, verify, sweep, entropy, report.  Configs and reports are JSON,
series are CSV, trajectories use the binary format of the grid module.  Outputs
are byte-identical for identical configs and seeds (no timestamps), so
golden-file comparisons work.  `verify` runs a suite's plan (module `checks`),
each group of checks that share runs in a forked worker process, at most one per
usable CPU.  A sweep cell runs in a forked worker process too, at most `--threads`
at a time, and writes each snapshot and feeds it to its monitors as `run` makes
it, so memory does not grow with the step count.  Both hand their jobs to
`workers.fan_out` in input order, and it starts them costliest first.

Exit codes: 0 success / all checks passed, 1 usage or config error (including
failed checks), 2 domain abort (range excursion, convexity or construction
failure).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import sys
from contextlib import ExitStack, contextmanager
from itertools import product
from pathlib import Path

import numpy as np

from .checks import _BUILTIN_SUITES, paper_core_suite, run_suite  # noqa: F401 (perfbench)
from .diagnostics import _diffusion_fold, _MorreyFold
from .documents import (UsageError, _check_keys, _keywords, _load_json, _path_name,
                        _run_config, _table, build_config, build_potential)
from .errors import DomainAbort
from .grid import _write_frame, _write_header, vector_norm
from .potentials import build_entropy, certify_window, coupled_decomposition
from .solver import RunConfig, _cost, run, with_resolution
from .workers import fan_out


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


def _workers(threads: int) -> int:
    """The number of forked workers for K: K, or the usable CPUs for 0 (`verify`'s count
    and `sweep`'s default)."""
    if threads < 0:
        raise UsageError(f"--threads must be 0 (the usable CPUs) or positive, got {threads}")
    return threads or (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                       else os.cpu_count() or 1)


def cmd_verify(args) -> int:
    if args.suite in _BUILTIN_SUITES:
        suite = _BUILTIN_SUITES[args.suite]()
    else:
        suite = _load_json(args.suite)
    outdir = Path(args.out) / _path_name(suite.get("name", "suite"), "suite name")
    reports = run_suite(suite, outdir, args.seed, _workers(0))
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
    workers = _workers(args.threads)
    doc = _load_json(args.sweep)   # the sections the sweep reads itself, before any cell
    _check_keys("sweep", ("", doc, _sweep), ("axes.", doc.get("axes"), _axes),
                ("base.", doc.get("base"), _run_config))
    cells = _sweep_cells(doc)
    configs = {c["label"]: _cell_config(doc["base"], c, args.seed) for c in cells}
    outdir = Path(args.out) / _path_name(doc.get("name", "sweep"), "sweep name")
    outdir.mkdir(parents=True, exist_ok=True)   # every cell's config built first

    def error_row(cell, exc):
        return {**dict.fromkeys(_SWEEP_FIELDS, ""), "label": cell["label"],
                "error": f"{type(exc).__name__}: {exc}"}

    def work(cell):
        try:
            return _run_cell(configs[cell["label"]], outdir)
        except Exception as exc:
            return error_row(cell, exc)

    try:
        results = fan_out(work, cells, workers, lambda c: _cost(configs[c["label"]]))
    finally:   # every worker has ended: a partial directory left is a dead worker's
        for c in cells:
            shutil.rmtree(_partial(outdir / c["label"]), ignore_errors=True)
    rows = [error_row(c, r) if isinstance(r, Exception) else r for c, r in zip(cells, results)]

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
        table = _load_json(args.table)   # a potential.table section that also takes `id`
        doc = {"id": table.pop("id", "table"), "table": table}
        _check_keys(f"table {args.table}", ("", doc, build_potential), ("", table, _table))
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
                         help="K forked worker processes (0 = the usable CPUs) run the "
                              "sweep's cells, costliest first")

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
