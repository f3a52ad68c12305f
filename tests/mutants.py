"""Soundness mutant catalogue: each row breaks one claim, and tier-1 must fail.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py                  # every row
    python tests/mutants.py c3 squeeze-gate  # the rows with these names

For each row the script copies the repository tree (not only ``src/``:
``pyproject.toml`` puts the tree's own ``src`` first on the path, so a lone
``src/`` copy would test the unmutated code) into a temporary directory,
checks that the row's old text occurs exactly once in its file, replaces
it, and runs ``pytest -x -q -p no:cacheprovider`` from the copy's root.
An unmutated copy runs first and must pass, or no row can be judged.
A row is killed when pytest fails, and the first failing test is printed;
a row that survives is a finding, so the script then exits 1.  A row whose
old text is missing or repeated also exits 1: a refactor that moved the
code must move the row with it, not test nothing.  Never drop a row to get
a pass; make a test kill it.

pytest collects only ``test_*.py``, so this file is not part of tier-1.
"""

from __future__ import annotations

import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]

# (name, file, exact old text, new text, the claim the mutant breaks)
MUTANTS = (
    ("bP-rate", "src/delayrd/squeezing.py",
     "growth = _exp((p.lf + rho1) * t)", "growth = _exp(rho1 * t)",
     "bP grows at the rate lf + rho1, the Lipschitz constant included"),
    ("K_m-safety", "src/delayrd/spectrum.py",
     "DICHOTOMY_SAFETY = 1.25", "DICHOTOMY_SAFETY = 1.0",
     "K_m is the sampled maximum times the declared safety factor"),
    ("load-delay-coefficient", "src/delayrd/solver.py",
     "h += p.sigma * d", "h += 0.5 * p.sigma * d",
     "evolve's load carries sigma u(t - tau) with its full coefficient"),
    ("c3", "src/delayrd/estimates.py",
     "c3 = 2.0 * (norm_g / p.mu", "c3 = 1.0 * (norm_g / p.mu",
     "the absorbing radius c3 is the paper's closed form"),
    ("residual-gate", "src/delayrd/spectrum.py",
     "ROOT_RESIDUAL_TOL = 1e-10", "ROOT_RESIDUAL_TOL = 1e-6",
     "a root is complete only when its residual passes the 1e-10 gate"),
    ("dimension-formula", "src/delayrd/dimension.py",
     "k_m * math.log(2.0 + spread)", "k_m * math.log(1.0 + spread)",
     "the dimension bound is (ln k_m + k_m ln(2 + s)) / -ln c"),
    ("squeeze-gate", "src/delayrd/cli.py",
     '"within_bounds": bool(np.all(worst <= limit))',
     '"within_bounds": bool(np.any(worst <= limit))',
     "squeeze is within bounds only when every part P, Q and R is"),
    ("bQ-coupling", "src/delayrd/squeezing.py",
     "else K_m * p.lf / gap", "else p.lf / gap",
     "bQ's coupling term is K_m lf / (rho1 + lf - rho_m)"),
    ("march-delayed-read", "src/delayrd/solver.py",
     "loads(hist[:1])[0]", "loads(hist[1:2])[0]",
     "step 1 reads the load of u(-tau), the history's first row"),
    ("squeeze-slack", "src/delayrd/estimates.py",
     "CERTIFICATE_TOLERANCE = 0.05", "CERTIFICATE_TOLERANCE = 0.5",
     "a measured contraction may exceed its bound by at most 5%"),
    ("field-norm-axis", "src/delayrd/semigroup.py",
     "np.sum(values * values, axis=-1)", "np.sum(values * values, axis=0)",
     "field_norm reduces each row over the grid axis"),
    ("snapshot-stride", "src/delayrd/cli.py",
     "range(n + -n % every,", "range(n + n % every,",
     "simulate writes a snapshot at every multiple of snapshot_every"),
)

IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "out",
                                 "*.egg-info", "build")


def run_tree(name: str, edit=()) -> tuple:
    """(pytest's completed process, seconds) in a fresh copy of the tree,
    with the (file, old text, new text) ``edit`` applied if one is given."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{name}-") as tmp:
        tree = pathlib.Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        if edit:
            path, old, new = edit
            text = (tree / path).read_text(encoding="utf-8")
            if text.count(old) != 1:
                raise SystemExit(f"{name}: {old!r} occurs {text.count(old)} times in {path}, "
                                 "not once; move the row with the code")
            (tree / path).write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
        return proc, time.perf_counter() - start


def main(names) -> int:
    unknown = set(names) - {row[0] for row in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown rows: {', '.join(sorted(unknown))}")
    # a kill means something only if the unmutated copy passes
    proc, seconds = run_tree("unmutated")
    if proc.returncode != 0:
        print(proc.stdout + proc.stderr)
        raise SystemExit(f"the unmutated copy fails (pytest exit {proc.returncode}); "
                         "no row can be judged")
    print(f"{'passed':8} {'unmutated':24} {seconds:6.1f} s", flush=True)
    survivors = []
    for name, path, old, new, claim in MUTANTS:
        if names and name not in names:
            continue
        proc, seconds = run_tree(name, (path, old, new))
        if proc.returncode == 0:
            detail = "every test passed"
            survivors.append(f"{name}: {claim}")
        else:  # a failed test, or an error collecting or importing one (conftest included)
            failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
            detail = failed.group(1) if failed else (proc.stdout + proc.stderr).strip()[-200:]
        print(f"{'SURVIVED' if proc.returncode == 0 else 'killed':8} {name:24} {seconds:6.1f} s"
              f"  {detail}", flush=True)
    for line in survivors:
        print(f"survivor breaks: {line}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
