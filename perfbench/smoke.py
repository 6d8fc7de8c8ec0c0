"""Smoke tests of the benchmark harness: tiny inputs, schema checked against BENCHMARK.json.

Run with `python3 perfbench/smoke.py` or `python3 -m pytest perfbench/smoke.py`
from the checkout root (under a minute).  They check that every workload,
declared or not, runs correctly at a tiny size with tracing off and on, that
the last stdout line carries exactly the declared metrics with their units,
and that the benchmark refuses to run where the program's source is missing.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_benchmark(cwd: Path, workload: str, trace: int, smoke: bool = True):
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    if smoke:
        argv.append("--smoke")
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(workload: str, trace: int) -> None:
    proc = run_benchmark(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == expected
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_spec_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert 1 <= SPEC["run_seconds"] <= 60 and 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in SPEC[group]]
        for m in SPEC[group]:
            assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def all_workloads() -> list[str]:
    """The declared workloads and the undeclared paper-core-256 (see NOTES.md)."""
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    declared = [w["name"] for w in SPEC["workloads"]]
    assert set(declared) <= set(WORKLOADS)
    return sorted(WORKLOADS)


def test_workloads_untraced():
    for name in all_workloads():
        check_result(name, 0)


def test_workloads_traced():
    for name in all_workloads():
        check_result(name, 1)


def test_refuses_without_program():
    bare = ROOT / ".perfbench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_benchmark(bare, SPEC["workloads"][0]["name"], 0, smoke=False)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
