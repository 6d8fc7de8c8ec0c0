"""Per-layer metrics of one traced run, derived from its spans.

Layers are pelab's modules: cli, solver, grid, potentials, diagnostics.  Self
time is a span's duration minus that of its child spans.  `floor_ratio` is
the median step time on the most-used state shape over a bare-numpy step
`u + dt * Lap(grad Phi(u))` (cosh potential, `np.roll` stencil) timed here on
that shape.
"""

from __future__ import annotations

import time

import numpy as np

from spans import STEPS, Spans

CYLINDER_MONITORS = ("diagnostics.morrey_profile", "diagnostics.morrey_report",
                     "diagnostics.reverse_holder_report",
                     "diagnostics.estimate_ratio_report")
ENTROPY_RESIDUALS = ("diagnostics.entropy_residual_diffusion",
                     "diagnostics.entropy_residual_coupled")
TABLES = ("potentials.certify_window", "potentials.build_entropy",
          "potentials.coupled_decomposition")


def floor_step_seconds(shape: tuple, repeats: int = 40, block: int = 25) -> float:
    """Median time of one bare-numpy diffusion step on an (N, *sizes) state."""
    rng = np.random.default_rng(0)
    u = rng.uniform(-0.3, 0.3, size=shape)
    h = 1.0 / shape[1]
    dt = 0.2 * h * h

    def step(u):
        r = np.sqrt(np.sum(u * u, axis=0))
        v = u * (np.sinh(r) / np.maximum(r, 1e-300))
        lap = -2.0 * (len(shape) - 1) * v
        for a in range(1, len(shape)):
            lap += np.roll(v, 1, axis=a) + np.roll(v, -1, axis=a)
        return u + dt * lap / (h * h)

    step(u)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(block):
            step(u)
        times.append((time.perf_counter() - t0) / block)
    return float(np.median(times))


def _step_stats(sp: Spans, name: str, floors: dict) -> dict:
    sel = sp.select(name)
    dur = sp.dur[sel]
    out = {"calls": (int(sel.sum()), "count"), "self_s": (sp.self_s(name), "s"),
           "p50_us": (0.0, "us"), "p99_us": (0.0, "us"), "floor_ratio": (0.0, "ratio")}
    if dur.size:
        out["p50_us"] = (float(np.percentile(dur, 50)) * 1e6, "us")
        out["p99_us"] = (float(np.percentile(dur, 99)) * 1e6, "us")
        shape_ids = sp.aux[sel]
        main = int(np.bincount(shape_ids).argmax())
        shape = sp.shapes[main]
        if shape not in floors:
            floors[shape] = floor_step_seconds(shape)
        out["floor_ratio"] = (float(np.median(dur[shape_ids == main])) / floors[shape],
                              "ratio")
    return {f"{name}.{k}": v for k, v in out.items()}


def layer_metrics(sp: Spans, *, threads: int, output_bytes: int, cpu_s: float,
                  overhead_frac: float, untraced_spread: float) -> dict:
    """Every per-layer metric as name -> (value, unit)."""
    m: dict = {}

    def calls_self(label: str, *names: str, calls_key: str = "calls"):
        m[f"{label}.{calls_key}"] = (sp.calls(*names), "count")
        m[f"{label}.self_s"] = (sp.self_s(*names), "s")

    calls_self("solver.run", "solver.run")
    floors: dict = {}
    for name in ("solver.step_diffusion", "solver.step_coupled"):
        m.update(_step_stats(sp, name, floors))
    steps = sp.select(*STEPS)
    run_s = sp.total_s("solver.run")
    m["solver.steps_per_s"] = (int(steps.sum()) / run_s if run_s > 0 else 0.0, "1/s")
    step_bytes = [8 * int(np.prod(sp.shapes[i])) for i in sp.aux[steps]]
    # one read of u and one write of the new u per step: computed, not measured
    m["solver.bytes_per_step_computed"] = (
        2.0 * float(np.mean(step_bytes)) if step_bytes else 0.0, "B")
    calls_self("grid.FieldState", "grid.FieldState", calls_key="count")
    calls_self("grid.laplacian", "grid.laplacian")
    calls_self("potentials.grad_Phi_field", "potentials.grad_Phi_field")

    for name in ("diagnostics.h_minus_one_norm_periodic", "diagnostics.h_minus_one_norm"):
        dur = sp.dur[sp.select(name)]
        m[f"{name}.calls"] = (int(dur.size), "count")
        m[f"{name}.p50_ms"] = (float(np.median(dur)) * 1e3 if dur.size else 0.0, "ms")
    m["diagnostics.h_minus_one_norm_periodic.matvecs"] = (
        sp.contained("grid.laplacian", "diagnostics.h_minus_one_norm_periodic"), "count")

    m["diagnostics.entropy_residual.self_s"] = (sp.self_s(*ENTROPY_RESIDUALS), "s")
    m["diagnostics.cylinder_monitors.self_s"] = (sp.self_s(*CYLINDER_MONITORS), "s")
    m["diagnostics.contraction_report.self_s"] = (
        sp.self_s("diagnostics.contraction_report"), "s")
    m["diagnostics.sup_norm_report.self_s"] = (sp.self_s("diagnostics.sup_norm_report"), "s")
    for name in ("grid.gradient_sq", "grid.hessian_sq", "grid.cylinder_members"):
        calls_self(name, name)
    calls_self("potentials.tables", *TABLES)

    writes = sp.select("grid.write_snapshot")
    written = int(sp.aux[writes].sum())
    write_s = float(sp.dur[writes].sum())
    m["grid.write_snapshot.calls"] = (int(writes.sum()), "count")
    m["grid.write_snapshot.bytes"] = (written, "B")
    m["grid.write_snapshot.MBps"] = (written / 1e6 / write_s if write_s > 0 else 0.0, "MB/s")
    m["cli.save_trajectory.self_s"] = (sp.self_s("cli.save_trajectory"), "s")
    m["cli.output_bytes"] = (output_bytes, "B")
    m["cli.run_suite.self_s"] = (sp.self_s("cli.run_suite"), "s")
    m["process.cpu_s"] = (cpu_s, "s")

    sweep_s = sp.total_s("cli.cmd_sweep")
    busy = sp.total_s("cli._run_cell")
    m["cli.sweep.parallel_efficiency"] = (
        busy / (threads * sweep_s) if sweep_s > 0 and threads > 0 else 0.0, "ratio")
    m["trace.overhead_frac"] = (overhead_frac, "ratio")
    m["trace.untraced_spread"] = (untraced_spread, "ratio")
    return m


def span_table(sp: Spans) -> dict:
    """name -> calls, total and self seconds, for the result record."""
    table = {}
    for i, name in enumerate(sp.name_of):
        sel = sp.names == i
        if sel.any():
            table[name] = {"calls": int(sel.sum()), "total_s": float(sp.dur[sel].sum()),
                           "self_s": float(sp.self_time[sel].sum())}
    return dict(sorted(table.items(), key=lambda kv: -kv[1]["self_s"]))
