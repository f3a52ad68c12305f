"""The package API is the union of the library modules' ``__all__``: each
public name is declared once, in its own module, and `delayrd.cli` stays out
of the package import."""

import collections
import json
import os
import pathlib
import subprocess
import sys

import delayrd
from delayrd import dimension, estimates, model, semigroup, solver, spectrum, squeezing

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = (model, semigroup, solver, estimates, spectrum, squeezing, dimension)

# the names the package exported when it kept its own list; each must still resolve
LISTED_NAMES = """
    ConfigError DimensionCertificate DivergenceError EstimateSet ForcingSpec Grid ModeRoots
    NonlinearitySpec ProblemParameters ProjectionSet RunOptions SemigroupStepper SpectralData
    absorbing_time analytic_bounds apply_semigroup characteristic_roots compute_estimates
    constant_history covering_bound covering_bruteforce dichotomy_constant
    dirichlet_eigenvalues eta evaluate_forcing evaluate_nonlinearity far_field_mass field_norm
    fractal_bound gradient_norm hausdorff_bound history_from_function integrate
    linear_delay_evolve make_projections measure_contraction optimize_certificate parse_config
    project_P project_Q project_R segment_at segment_norm semigroup_decay_check
    serialize_config spectral_partition verify_absorption verify_energy_integral
    verify_far_field zeta
""".split()


def test_package_exports_the_sorted_union_of_module_names():
    assert delayrd.__all__ == sorted(set().union(*(module.__all__ for module in MODULES)))


def test_no_name_is_declared_by_two_modules():
    counts = collections.Counter(name for module in MODULES for name in module.__all__)
    assert [name for name, n in counts.items() if n > 1] == []


def test_each_exported_name_is_its_modules_own_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(delayrd, name) is getattr(module, name), (module.__name__, name)


def test_names_of_the_listed_api_still_resolve():
    assert len(LISTED_NAMES) == 50
    assert set(LISTED_NAMES) <= set(delayrd.__all__)
    for name in LISTED_NAMES:
        getattr(delayrd, name)


def test_star_import_in_a_fresh_interpreter():
    """``from delayrd import *`` binds exactly ``__all__`` and loads the
    seven library modules in their order, not the command line front end."""
    code = ("import json, sys\n"
            "from delayrd import *\n"
            "print(json.dumps([sorted(k for k in dir() if not k.startswith('_')"
            " and k not in ('json', 'sys')),"
            " [m for m in sys.modules if m.startswith('delayrd')]]))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    names, loaded = json.loads(proc.stdout)
    assert names == delayrd.__all__
    assert "delayrd" in loaded
    assert [m for m in loaded if m != "delayrd"] == [module.__name__ for module in MODULES]


def test_simulate_and_squeeze_load_no_scipy(tmp_path):
    """The runtime is numpy-only: `simulate` and `squeeze` on
    configs/base.json, run through `delayrd.cli.main` in a fresh
    interpreter, exit 0 with no ``scipy`` module loaded (scipy is a
    test-side oracle only)."""
    code = ("import json, sys\n"
            "from delayrd.cli import main\n"
            "config, out = sys.argv[1:]\n"
            "codes = [main([cmd, '--config', config, '--out', f'{out}/{cmd}'])"
            " for cmd in ('simulate', 'squeeze')]\n"
            "print(json.dumps([codes, [m for m in sys.modules"
            " if m.partition('.')[0] == 'scipy']]))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "configs" / "base.json"),
                           str(tmp_path)], capture_output=True, text=True, timeout=120,
                          env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    codes, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0]
    assert scipy_modules == []
