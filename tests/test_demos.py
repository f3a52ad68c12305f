"""Every script under demos/, and the README's library quick start, runs to
completion in a fresh interpreter and prints something, so an API change
that breaks one of them fails here."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


def run_fresh(*args):
    """Run ``python *args`` from the repository root with src/ on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(demo):
    run_fresh(str(demo))


def test_readme_quick_start_runs():
    """The ```python block under "Quick start (library)" in README.md."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Quick start \(library\)\n+```python\n(.*?)^```", readme,
                      re.DOTALL | re.MULTILINE)
    assert block, "README.md has no Quick start (library) python block"
    run_fresh("-c", block.group(1))
