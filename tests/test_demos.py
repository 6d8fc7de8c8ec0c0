import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# every demo, with a line of output that only a complete run prints
DEMOS = {
    "contraction_and_boundedness": "sup|u|",
    "coupled_system": "the degenerate case",
    "entropy_construction": "cosh closed form check",
    "heat_oracle": "discrete prediction",
    "regularity_monitors": "empirical Hoelder seminorm",
}


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_runs(demo):
    # end to end as a user runs it from a checkout
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert DEMOS[demo] in proc.stdout
