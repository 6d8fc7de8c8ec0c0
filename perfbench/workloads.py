"""The benchmark's workloads: seeded input documents and their correctness gates.

Each workload is one `pelab` command entered through `pelab.cli.main`.  The
program receives only the JSON document written here and its argv; the seed
reaches it through `--seed` (verify) or the document's `base.seed` (sweep,
whose `--seed` flag is parsed but never read by `cmd_sweep`).  No `seed` key
is put inside an `initial` section, because the program drops it silently.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

COSH = {"id": "cosh", "r_max": 1.0}
SWEEP_THREADS = 2  # the reference machine's CPU count


def periodic_grid(m: int, n: int) -> dict:
    return {"sizes": [m] * n, "h": 1.0 / m, "boundary": "periodic"}


def paper_core_doc(size: int) -> Callable[[int, bool], dict]:
    """The built-in paper-core suite at a base size, dumped to JSON."""
    def document(seed: int, tiny: bool) -> dict:
        from pelab.cli import paper_core_suite  # the parent imports pelab from src

        return paper_core_suite(64 if tiny else size)

    return document


def verify_2d_doc(seed: int, tiny: bool) -> dict:
    """Periodic 2D contraction (the H^-1 CG path) and a coupled 2D sup-norm check."""
    m1, m2 = (32, 32) if tiny else (128, 256)
    return {
        "name": "verify-2d",
        "seed": seed,
        "checks": [
            {"name": "contraction-2d-periodic", "kind": "contraction",
             "config": {"grid": periodic_grid(m1, 2), "components": 1,
                        "potential": COSH, "t_end": 0.01, "snapshot_every": 40,
                        "name": "contraction-2d"},
             "initial0": {"kind": "mode", "k": [1, 1], "amplitude": 0.5},
             "initial1": {"kind": "bands", "kmax": 3, "amplitude": 0.4}},
            {"name": "boundedness-coupled-2d", "kind": "sup-norm",
             "config": {"grid": periodic_grid(m2, 2), "components": 2,
                        "potential": COSH, "system": "coupled", "t_end": 0.001,
                        "snapshot_every": 25, "name": "sup-coupled-2d",
                        "initial": {"kind": "two_bump", "amplitude": 0.8}}},
        ],
    }


def sweep_entropy_2d_doc(seed: int, tiny: bool) -> dict:
    """Three potentials on a 2D diffusion run that keeps and writes every step."""
    return {
        "name": "sweep-entropy-2d",
        "base": {"grid": periodic_grid(64 if tiny else 128, 2), "components": 1,
                 "potential": {"id": "quadratic"}, "system": "diffusion",
                 "t_end": 0.003, "snapshot_every": 1, "seed": seed,
                 "initial": {"kind": "bands", "kmax": 3, "amplitude": 0.5},
                 "name": "base"},
        "axes": {"potential": ["quadratic", "cosh", "quartic"]},
    }


def largest_state_bytes(doc: dict) -> int:
    """8 B x components x points of the largest state any run of the document holds."""
    configs = [(c["config"], c.get("sizes", [])) for c in doc.get("checks", [])]
    if "base" in doc:
        configs.append((doc["base"], []))
    best = 0
    for cfg, refined in configs:
        dims = len(cfg["grid"]["sizes"])
        points = max([math.prod(cfg["grid"]["sizes"])] + [m ** dims for m in refined])
        best = max(best, 8 * int(cfg.get("components", 1)) * points)
    return best


@dataclass
class Gate:
    """Outcome of one execution: operations attempted and failed, with reasons."""

    attempted: int
    failed: int
    problems: list[str]


def _load(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def gate_verify(doc: dict, out: Path, rc: int) -> Gate:
    """One operation per check: its report must exist and say passed."""
    names = [c["name"] for c in doc["checks"]]
    suite_dir = out / doc["name"]
    problems = []
    manifest = _load(suite_dir / "suite_manifest.json")
    if rc != 0:
        problems.append(f"exit code {rc}")
    if manifest is None:
        problems.append("suite_manifest.json missing or unreadable")
    elif manifest.get("passed") is not True:
        problems.append("suite_manifest.json says passed = false")
    failed = 0
    for name in names:
        rep = _load(suite_dir / f"{name}.report.json")
        if rep is None or rep.get("passed") is not True:
            failed += 1
            problems.append(f"check {name} did not pass")
    if problems and failed == 0:
        failed = len(names)  # a failed gate fails every operation of the run
    return Gate(len(names), failed, problems)


SWEEP_NUMERIC = ("size", "seed", "terminal_sup", "resid_pos_max", "resid_abs_max",
                 "morrey_16h", "morrey_8h", "morrey_4h")


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def gate_sweep(doc: dict, out: Path, rc: int) -> Gate:
    """One operation per cell: no error, listed as done, every numeric column finite."""
    cells = len(doc["axes"]["potential"])
    sweep_dir = out / doc["name"]
    problems = []
    manifest = _load(sweep_dir / "sweep_manifest.json")
    if rc != 0:
        problems.append(f"exit code {rc}")
    if manifest is None:
        problems.append("sweep_manifest.json missing or unreadable")
    elif manifest.get("failed") != [] or len(manifest.get("cells", [])) != cells:
        problems.append(f"sweep_manifest.json lists failed cells {manifest.get('failed')}")
    failed = 0
    try:
        with open(sweep_dir / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError:
        rows = []
    if len(rows) != cells:
        problems.append(f"sweep.csv has {len(rows)} rows, expected {cells}")
    for row in rows:
        bad = [k for k in SWEEP_NUMERIC if not _finite(row.get(k) or "")]
        if row.get("error") or bad:
            failed += 1
            problems.append(f"cell {row.get('label')}: error {row.get('error')!r}, "
                            f"non-finite {bad}")
    if problems and failed == 0:
        failed = cells
    return Gate(cells, failed, problems)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "verify" or "sweep"
    document: Callable[[int, bool], dict]
    gate: Callable[[dict, Path, int], Gate]

    def argv(self, doc_path: Path, out: Path, seed: int) -> list[str]:
        argv = [self.command, str(doc_path), "--out", str(out)]
        if self.command == "verify":
            return argv + ["--seed", str(seed)]
        return argv + ["--threads", str(SWEEP_THREADS)]  # the seed is in base.seed


WORKLOADS = {w.name: w for w in (
    Workload("paper-core-128", "verify", paper_core_doc(128), gate_verify),
    Workload("paper-core-256", "verify", paper_core_doc(256), gate_verify),
    Workload("verify-2d", "verify", verify_2d_doc, gate_verify),
    Workload("sweep-entropy-2d", "sweep", sweep_entropy_2d_doc, gate_sweep),
)}
