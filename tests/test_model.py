import json
import math
import pathlib

import numpy as np
import pytest

from delayrd.model import (
    MAX_MARCH_STEPS,
    MAX_SEGMENT_FLOATS,
    ConfigError,
    ForcingSpec,
    Grid,
    NonlinearitySpec,
    ProblemParameters,
    RunOptions,
    check_dissipativity,
    evaluate_forcing,
    evaluate_nonlinearity,
    parse_config,
    serialize_config,
)


MINIMAL = {"mu": 2.0, "sigma": 0.1, "tau": 0.5, "lf": 1.0}
ROOT = pathlib.Path(__file__).resolve().parents[1]
SHIPPED_CONFIGS = sorted([*ROOT.glob("configs/*.json"), *ROOT.glob("perfbench/configs/*.json")])


def make_config(**overrides):
    doc = dict(MINIMAL)
    doc.update(overrides)
    return json.dumps(doc)


# --- parameter containers ----------------------------------------------------


def test_problem_parameters_validation():
    with pytest.raises(ConfigError):
        ProblemParameters(mu=0.0, sigma=0.1, tau=0.5, lf=1.0)
    with pytest.raises(ConfigError):
        ProblemParameters(mu=1.0, sigma=-0.1, tau=0.5, lf=1.0)
    with pytest.raises(ConfigError):
        ProblemParameters(mu=1.0, sigma=0.1, tau=0.0, lf=1.0)
    with pytest.raises(ConfigError):
        ProblemParameters(mu=1.0, sigma=0.1, tau=0.5, lf=-1.0)


def test_sigma_zero_allowed_in_dataclass():
    p = ProblemParameters(mu=1.0, sigma=0.0, tau=0.5, lf=0.0)
    assert p.sigma == 0.0


def test_nonlinearity_must_fit_declared_lipschitz():
    nl = NonlinearitySpec(kind="scaled_tanh", scale=2.0)
    with pytest.raises(ConfigError):
        ProblemParameters(mu=1.0, sigma=0.1, tau=0.5, lf=1.0, nonlinearity=nl)
    # equal is fine
    ProblemParameters(mu=1.0, sigma=0.1, tau=0.5, lf=2.0, nonlinearity=nl)


def test_nonlinearity_catalog():
    with pytest.raises(ConfigError):
        NonlinearitySpec(kind="cubic", scale=1.0)
    with pytest.raises(ConfigError):
        NonlinearitySpec(kind="scaled_tanh", scale=-1.0)
    assert NonlinearitySpec().lipschitz == 0.0
    assert NonlinearitySpec(kind="scaled_sin", scale=0.7).lipschitz == 0.7


def test_forcing_catalog():
    with pytest.raises(ConfigError):
        ForcingSpec(kind="white_noise")
    with pytest.raises(ConfigError):
        ForcingSpec(kind="gaussian_bump", amplitude=1.0, width=0.0)


def test_grid_validation_and_geometry():
    with pytest.raises(ConfigError):
        Grid(half_length=-1.0, points=64)
    with pytest.raises(ConfigError):
        Grid(half_length=8.0, points=100)  # not a power of two
    g = Grid(half_length=8.0, points=64)
    assert g.spacing == pytest.approx(0.25)
    x = g.nodes
    assert x[0] == -8.0
    assert x[-1] == pytest.approx(8.0 - g.spacing)
    xi = g.frequencies
    assert xi.shape == (33,)
    assert xi[1] == pytest.approx(math.pi / 8.0)


def test_run_options_validation():
    with pytest.raises(ConfigError):
        RunOptions(horizon=-1.0)
    with pytest.raises(ConfigError):
        RunOptions(steps_per_delay=0)
    with pytest.raises(ConfigError):
        RunOptions(m_cut=4, modes=3)
    with pytest.raises(ConfigError):
        RunOptions(eps=0.0)


@pytest.mark.parametrize("key", ["modes", "ensemble", "dichotomy_samples"])
def test_run_options_cap_loop_counts(key):
    """Each of these sizes a loop or a list; the step cap bounds them."""
    assert getattr(RunOptions(**{key: MAX_MARCH_STEPS}), key) == MAX_MARCH_STEPS
    with pytest.raises(ConfigError, match=key):
        RunOptions(**{key: MAX_MARCH_STEPS + 1})
    with pytest.raises(ConfigError, match=key):
        parse_config(make_config(run={key: 10**30}))


# --- catalog evaluation ------------------------------------------------------


def test_nonlinearity_pointwise_values():
    v = np.array([-2.0, 0.0, 0.3, 5.0])
    tanh = NonlinearitySpec(kind="scaled_tanh", scale=0.5)
    np.testing.assert_allclose(evaluate_nonlinearity(tanh, v), 0.5 * np.tanh(v))
    sin = NonlinearitySpec(kind="scaled_sin", scale=2.0)
    np.testing.assert_allclose(evaluate_nonlinearity(sin, v), 2.0 * np.sin(v))
    sat = NonlinearitySpec(kind="saturating_linear", scale=1.5)
    np.testing.assert_allclose(evaluate_nonlinearity(sat, v),
                               1.5 * np.clip(v, -1.0, 1.0))
    assert evaluate_nonlinearity(tanh, 0.25) == pytest.approx(0.5 * math.tanh(0.25))


def test_nonlinearity_fixes_origin():
    for kind in ("zero", "scaled_tanh", "scaled_sin", "saturating_linear"):
        spec = NonlinearitySpec(kind=kind, scale=3.0 if kind != "zero" else 0.0)
        assert evaluate_nonlinearity(spec, 0.0) == 0.0


def test_nonlinearity_empirical_lipschitz(rng):
    """The declared constant really bounds all difference quotients."""
    a = rng.uniform(-4, 4, size=500)
    b = rng.uniform(-4, 4, size=500)
    for kind in ("scaled_tanh", "scaled_sin", "saturating_linear"):
        spec = NonlinearitySpec(kind=kind, scale=1.3)
        fa = evaluate_nonlinearity(spec, a)
        fb = evaluate_nonlinearity(spec, b)
        quotients = np.abs(fa - fb) / np.abs(a - b)
        assert np.max(quotients) <= spec.lipschitz + 1e-12


def test_forcing_values(grid):
    x = grid.nodes
    gauss = ForcingSpec(kind="gaussian_bump", amplitude=2.0, center=1.0, width=0.5)
    vals = evaluate_forcing(gauss, x)
    np.testing.assert_allclose(vals, 2.0 * np.exp(-0.5 * ((x - 1.0) / 0.5) ** 2))
    compact = ForcingSpec(kind="compact_bump", amplitude=1.0, center=0.0, width=2.0)
    cvals = evaluate_forcing(compact, x)
    assert np.all(cvals[np.abs(x) >= 2.0] == 0.0)
    assert cvals[np.argmin(np.abs(x))] == pytest.approx(1.0)
    assert np.all(evaluate_forcing(ForcingSpec(), x) == 0.0)


# --- dissipativity gate ------------------------------------------------------


def test_dissipativity_report_formula():
    p = ProblemParameters(mu=1.0, sigma=0.2, tau=1.0, lf=0.0)
    report = check_dissipativity(p)
    assert report.beta == pytest.approx(0.2 * math.e)
    assert report.holds  # 0.5437 < 1
    p2 = ProblemParameters(mu=0.2, sigma=0.2, tau=1.0, lf=0.0)
    assert not check_dissipativity(p2).holds  # beta = 0.2 e^0.2 > 0.2


def test_dissipativity_uses_lf_plus_one():
    p = ProblemParameters(mu=2.0, sigma=0.1, tau=0.5, lf=1.0)
    assert check_dissipativity(p).beta == pytest.approx(0.1 * 2.0 * math.exp(1.0))


# --- configuration parsing ---------------------------------------------------


def test_parse_minimal_config_defaults():
    p, grid, run = parse_config(make_config())
    assert (p.mu, p.sigma, p.tau, p.lf) == (2.0, 0.1, 0.5, 1.0)
    assert p.nonlinearity.kind == "zero"
    assert p.forcing.kind == "zero"
    assert grid.half_length == 16.0 and grid.points == 512
    assert run.steps_per_delay == 32
    assert run.cutoff_radius < grid.half_length / 4.0


def test_parse_rejects_unknown_keys_everywhere():
    with pytest.raises(ConfigError, match="unknown key 'muu'"):
        parse_config(make_config(muu=1.0))
    with pytest.raises(ConfigError, match="nonlinearity"):
        parse_config(make_config(nonlinearity={"kind": "zero", "slope": 2}))
    with pytest.raises(ConfigError, match="forcing"):
        parse_config(make_config(forcing={"kind": "zero", "height": 2}))
    with pytest.raises(ConfigError, match="grid"):
        parse_config(make_config(grid={"half_length": 8.0, "n": 64}))
    with pytest.raises(ConfigError, match="run"):
        parse_config(make_config(run={"steps": 10}))


def test_parse_rejects_missing_and_nonpositive_required():
    with pytest.raises(ConfigError, match="missing required key 'tau'"):
        parse_config(json.dumps({"mu": 1.0, "sigma": 0.1, "lf": 0.0}))
    with pytest.raises(ConfigError, match="sigma must be positive"):
        parse_config(make_config(sigma=0.0))
    with pytest.raises(ConfigError, match="mu must be positive"):
        parse_config(make_config(mu=-2.0))
    with pytest.raises(ConfigError, match="number"):
        parse_config(make_config(mu="two"))


def test_parse_rejects_malformed_json():
    with pytest.raises(ConfigError, match="malformed JSON"):
        parse_config("{not json")
    with pytest.raises(ConfigError, match="object"):
        parse_config("[1, 2, 3]")


def test_parse_nonlinearity_defaults_scale_to_lf():
    p, _, _ = parse_config(make_config(nonlinearity={"kind": "scaled_tanh"}))
    assert p.nonlinearity.scale == p.lf


def test_parse_contraction_times():
    _, _, run = parse_config(make_config(run={"contraction_times": [0.5, 1.0]}))
    assert run.contraction_times == (0.5, 1.0)
    with pytest.raises(ConfigError):
        parse_config(make_config(run={"contraction_times": []}))


def test_serialize_round_trip():
    text = make_config(
        nonlinearity={"kind": "scaled_tanh", "scale": 1.0},
        forcing={"kind": "gaussian_bump", "amplitude": 0.75, "center": 0.0, "width": 1.0},
        grid={"half_length": 8.0, "points": 256},
        run={"horizon": 4.0, "seed": 3, "contraction_times": [0.5]},
    )
    p, grid, run = parse_config(text)
    p2, grid2, run2 = parse_config(serialize_config(p, grid, run))
    assert p2 == p
    assert grid2 == grid
    assert run2 == run


@pytest.mark.parametrize("path", SHIPPED_CONFIGS,
                         ids=[str(p.relative_to(ROOT)) for p in SHIPPED_CONFIGS])
def test_serialize_round_trip_shipped_config(path):
    p, grid, run = parse_config(path.read_text())
    assert parse_config(serialize_config(p, grid, run)) == (p, grid, run)


def test_schema_is_the_dataclass_fields():
    """Keys, types and defaults come from the dataclasses: an empty grid or
    run section is the dataclass default, and float keys store floats."""
    _, grid, run = parse_config(make_config(grid={}, run={}))
    assert grid == Grid() == Grid(half_length=16.0, points=512)
    assert run == RunOptions()
    _, _, run = parse_config(make_config(run={"history_norm": 1, "horizon": 3}))
    assert type(run.history_norm) is float and type(run.horizon) is float
    with pytest.raises(ConfigError, match="'kind' in nonlinearity must be a string"):
        parse_config(make_config(nonlinearity={"kind": ["scaled_tanh"]}))
    with pytest.raises(ConfigError, match="'points' in grid must be a finite number"):
        parse_config(make_config(grid={"points": True}))
    with pytest.raises(ConfigError, match="grid must be an object"):
        parse_config(make_config(grid=[]))


@pytest.mark.parametrize("section,key", [("grid", "points"), ("run", "steps_per_delay")])
def test_parse_caps_points_and_steps_per_delay(section, key):
    with pytest.raises(ConfigError, match=f"{section}.{key} .*{MAX_MARCH_STEPS}"):
        parse_config(make_config(**{section: {key: 2**60}}))


def test_parse_caps_segment_floats():
    """(steps_per_delay + 1) * points floats per history segment."""
    parse_config(make_config(grid={"points": 1024}, run={"steps_per_delay": 2**14 - 1}))
    with pytest.raises(ConfigError, match=str(MAX_SEGMENT_FLOATS)):
        parse_config(make_config(grid={"points": 1024}, run={"steps_per_delay": 2**14}))


def test_snapshot_every_nonnegative():
    assert RunOptions(snapshot_every=0).snapshot_every == 0
    with pytest.raises(ConfigError, match="run.snapshot_every must be nonnegative"):
        parse_config(make_config(run={"snapshot_every": -5}))
