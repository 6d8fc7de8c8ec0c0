import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_cli_imports_numpy_and_the_standard_library_only():
    # scipy is a test dependency: a fresh `import pelab.cli` must not load it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import pelab.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_module_stays_under_the_compile_memory_step():
    # CPython 3.11's parser takes about 0.5 MB more to compile a module of 8,192 tokens
    # or more (tracemalloc peak of `compile`: 3,025 KB at 8,191 tokens of cli.py, 3,473 KB
    # at 8,193), and every run of the program compiles its modules afresh when bytecode
    # is not written; a module that needs more room must move code out first
    import tokenize

    counts = {}
    for path in sorted((ROOT / "src" / "pelab").glob("*.py")):
        with open(path) as fh:
            counts[path.name] = sum(1 for tok in tokenize.generate_tokens(fh.readline)
                                    if tok.type not in (tokenize.COMMENT, tokenize.NL))
    assert "cli.py" in counts and max(counts.values()) < 8192, counts
