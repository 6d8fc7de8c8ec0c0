"""End-to-end and per-layer benchmark of the `pelab` command.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from anywhere; the checkout is the parent of this script's directory and
the program is imported from its `src/`.  Inputs are generated here from the
seed; each execution of the program is a fresh child process entering
`pelab.cli.main` (see child.py), so interpreter start and `import pelab` are
part of what is measured.

--trace 0: cycles of two set-up probes and one execution on the same seed,
for at most S seconds (at least three cycles), so that set-up is sampled all
through the run.  Reports the medians of wall_s (spawn to exit) and setup_s
(spawn to `main` entered, probes and executions together) and the mean of
peak_rss_mb (the child's ru_maxrss).
--trace 1: three untraced and three traced executions, alternating; reports
the per-layer metrics of layers.py from the last traced one, and the tracing
overhead from the medians next to the untraced quartile spread.

Every execution passes a correctness gate (workloads.py) and the output trees
of all executions of a run must be byte-identical (sha256), checked outside
the timed window.  The last line of stdout is the JSON result
{"correct", "attempted", "failed", "metrics"}; a record with the environment
and every sample is written under .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BUDGET_S = 170.0  # every run must end within 180 s
MIN_EXECUTIONS = 3
SETUP_PROBES = 2  # per execution
TRACE_PAIRS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass
class Execution:
    rc: int
    wall_s: float
    setup_s: float
    peak_rss_mb: float
    cpu_s: float
    tree: str = ""
    output_bytes: int = 0


def spawn(pelab_args: list[str], workdir: Path, tag: str, deadline: float,
          trace_path: str = "-") -> Execution:
    """Run child.py in a fresh interpreter; time it from spawn to exit."""
    stamp = workdir / f"{tag}.stamp"
    argv = [sys.executable, str(HERE / "child.py"), str(SRC), str(stamp), trace_path,
            "--", *pelab_args]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(workdir / f"{tag}.stdout"), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(workdir / f"{tag}.stderr"), flags, 0o644)]
    start = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], max(1.0, deadline - time.monotonic()))
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        end = time.monotonic()
    finally:
        os.close(pidfd)
    try:
        entered = float(stamp.read_text())
    except (OSError, ValueError):
        entered = end
    return Execution(rc=os.waitstatus_to_exitcode(status), wall_s=end - start,
                     setup_s=entered - start, peak_rss_mb=usage.ru_maxrss / 1024.0,
                     cpu_s=usage.ru_utime + usage.ru_stime)


def tree_digest(root: Path) -> tuple[str, int]:
    """sha256 over (relative path, file sha256) of every file, and the byte total."""
    outer = hashlib.sha256()
    total = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        inner = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                inner.update(chunk)
                total += len(chunk)
        outer.update(str(path.relative_to(root)).encode() + b"\0" + inner.digest())
    return outer.hexdigest(), total


def environment(largest_field_bytes: int) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            sha = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass  # no git: the source hash below still identifies the program
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "pelab").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src_hash.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "largest_field_bytes": largest_field_bytes,
        "cache_note": ("the largest field fits in per-core L2 and in L3 on the "
                       "reference machine (see NOTES.md); no DRAM-bandwidth claim is "
                       "made and bytes per step are computed, not measured"),
    }


class Run:
    def __init__(self, workload, seed: int, tiny: bool):
        self.workload = workload
        self.seed = seed
        self.workdir = WORK / f"{workload.name}-s{seed}-p{os.getpid()}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.doc = workload.document(seed, tiny)
        self.doc_path = self.workdir / "input.json"
        self.doc_path.write_text(json.dumps(self.doc, indent=1, sort_keys=True))
        self.deadline = time.monotonic() + BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference_tree: str | None = None
        self.count = 0

    def execute(self, trace_path: str = "-") -> Execution:
        """One gated execution; its output tree is hashed, compared and deleted."""
        self.count += 1
        tag = f"x{self.count}"
        out = self.workdir / f"{tag}-out"
        ex = spawn(self.workload.argv(self.doc_path, out, self.seed), self.workdir, tag,
                   self.deadline, trace_path)
        gate = self.workload.gate(self.doc, out, ex.rc)
        ex.tree, ex.output_bytes = tree_digest(out)
        shutil.rmtree(out, ignore_errors=True)
        failed = gate.failed
        problems = list(gate.problems)
        if self.reference_tree is None:
            self.reference_tree = ex.tree
        elif ex.tree != self.reference_tree:
            failed = gate.attempted
            problems.append("output tree differs from the first execution of this seed")
        if problems:
            err = (self.workdir / f"{tag}.stderr").read_text()[-2000:]
            problems.append(f"stderr tail: {err}")
        self.attempted += gate.attempted
        self.failed += failed
        self.problems += [f"execution {self.count}: {p}" for p in problems]
        return ex

    def probe(self) -> float:
        """Set-up only: spawn to the point where `pelab.cli.main` would be entered."""
        self.count += 1
        ex = spawn([], self.workdir, f"p{self.count}", self.deadline)
        if ex.rc != 0:
            self.problems.append(f"set-up probe exited with {ex.rc}")
        return ex.setup_s

    def time_left(self) -> float:
        return self.deadline - time.monotonic()


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def measure(run: Run, seconds: float, probes: int) -> tuple[dict, dict]:
    run.probe()  # warm the page cache and bytecode; not counted
    setups, executions = [], []
    start = time.monotonic()
    cycle = 0.0
    while True:
        # stop before a cycle that would end after `seconds`, once three are done
        if len(executions) >= MIN_EXECUTIONS and time.monotonic() - start + cycle > seconds:
            break
        if executions and run.time_left() < 1.5 * cycle + 5.0:
            break
        began = time.monotonic()
        setups += [run.probe() for _ in range(probes)]
        executions.append(run.execute())
        cycle = time.monotonic() - began
    setups += [e.setup_s for e in executions]
    walls = [e.wall_s for e in executions]
    rss = [e.peak_rss_mb for e in executions]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        # mean, not median: the sweep's peak is bimodal with thread scheduling
        "peak_rss_mb": (statistics.mean(rss), "MB"),
    }
    record = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss,
              "cpu_s": [e.cpu_s for e in executions],
              "quartiles": {"wall_s": quartiles(walls), "setup_s": quartiles(setups),
                            "peak_rss_mb": quartiles(rss)}}
    return metrics, record


def measure_traced(run: Run) -> tuple[dict, dict]:
    from layers import layer_metrics, span_table
    from spans import Spans
    from workloads import SWEEP_THREADS

    run.probe()
    trace_file = run.workdir / "spans.npz"
    # alternate untraced and traced executions so that drift hits both alike
    plain, traced = [], []
    for _ in range(TRACE_PAIRS):
        plain.append(run.execute())
        traced.append(run.execute(str(trace_file)))
    if not trace_file.exists():
        run.problems.append("the traced execution saved no spans")
        run.failed = run.attempted
        return {}, {}
    spans = Spans(trace_file)
    threads = SWEEP_THREADS if run.workload.command == "sweep" else 1
    plain_walls = [e.wall_s for e in plain]
    q = quartiles(plain_walls)
    overhead = statistics.median(e.wall_s for e in traced) / q[1] - 1.0
    spread = (q[2] - q[0]) / q[1]
    metrics = layer_metrics(spans, threads=threads, output_bytes=plain[0].output_bytes,
                            cpu_s=statistics.median(e.cpu_s for e in plain),
                            overhead_frac=overhead, untraced_spread=spread)
    record = {"untraced_wall_s": plain_walls,
              "traced_wall_s": [e.wall_s for e in traced],
              # an overhead smaller than the untraced spread cannot be told from noise
              "overhead_resolved": abs(overhead) > spread,
              "spans": int(spans.names.size), "span_table": span_table(spans)}
    return metrics, record


def main(argv=None) -> int:
    from workloads import WORKLOADS, largest_state_bytes

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, one set-up probe: checks the harness, not speed")
    args = ap.parse_args(argv)

    if not (SRC / "pelab" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'pelab'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run = Run(WORKLOADS[args.workload], args.seed, args.smoke)
    try:
        if args.trace:
            metrics, record = measure_traced(run)
        else:
            metrics, record = measure(run, args.seconds, 1 if args.smoke else SETUP_PROBES)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)

    correct = not run.problems and run.attempted > 0
    result = {"correct": correct, "attempted": max(run.attempted, 1),
              "failed": run.failed if run.attempted else 1,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    full = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "smoke": args.smoke, "processes": run.count,
            "environment": environment(largest_state_bytes(run.doc)),
            "fail_frac": result["failed"] / result["attempted"],
            "problems": run.problems, "samples": record, **result}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(full, indent=1) + "\n")

    for problem in run.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"environment: {json.dumps(full['environment'], sort_keys=True)}")
    print(f"{args.workload} seed {args.seed}: {run.count} processes, "
          f"fail_frac {full['fail_frac']:.4g} ({result['failed']}/{result['attempted']})")
    for key, (value, unit) in metrics.items():
        detail = ""
        if not args.trace:
            q = record["quartiles"][key]
            stat = "mean" if key == "peak_rss_mb" else "median"
            detail = (f"  ({stat} of {len(record[key])}; quartiles "
                      f"{q[0]:.6g} .. {q[2]:.6g})")
        print(f"  {key} = {value:.6g} {unit}{detail}")
    if args.trace and record and not record["overhead_resolved"]:
        print("  trace.overhead_frac is unresolved: not larger than trace.untraced_spread")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
