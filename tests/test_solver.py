import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from delayrd.cli import _spectral_bundle, random_history
from delayrd.model import (
    ConfigError,
    ForcingSpec,
    Grid,
    NonlinearitySpec,
    ProblemParameters,
    RunOptions,
)
from delayrd.semigroup import Field, apply_semigroup
from delayrd.solver import (
    DivergenceError,
    HistorySegment,
    constant_history,
    far_field_mass,
    history_from_function,
    integrate,
    segment_at,
    segment_norm,
    step_count,
)

from conftest import heat_only_params, loop_integrate


def scalar_dde_oracle(history, horizon, mu, sigma, tau, f, g):
    """Method-of-steps reference for the space-independent equation
    u' = -mu u + sigma u(t - tau) + f(u(t - tau)) + g,
    integrated one delay interval at a time with a stiff-accurate RK
    at tight tolerances.  ``history`` is a callable on [-tau, 0].
    """
    pieces = [history]
    t0, u0 = 0.0, history(0.0)
    while t0 < horizon - 1e-12:
        t1 = min(t0 + tau, horizon)
        prev = pieces[-1]

        def rhs(t, y):
            d = prev(t - tau)
            return -mu * y + sigma * d + f(d) + g

        sol = solve_ivp(rhs, (t0, t1), [u0], rtol=1e-12, atol=1e-14,
                        dense_output=True, method="DOP853")
        segment = sol.sol
        lo, hi = t0, t1
        pieces.append(lambda t, s=segment, lo=lo, hi=hi: float(s(np.clip(t, lo, hi))[0]))
        t0, u0 = t1, float(sol.y[0, -1])
    return u0


def _constant_in_space_problem():
    return ProblemParameters(
        mu=1.0, sigma=0.5, tau=1.0, lf=0.5,
        forcing=ForcingSpec(),
        nonlinearity=NonlinearitySpec(kind="scaled_tanh", scale=0.5),
    )


def test_constant_in_space_matches_scalar_oracle(grid):
    """With spatially constant data the Laplacian drops out and the PDE
    reduces exactly to a scalar delay equation; the integrator must track
    a tight ODE reference for it."""
    p = _constant_in_space_problem()
    psi = lambda th: 0.8 + 0.3 * math.sin(2.0 * th)
    phi = history_from_function(lambda x, th: np.full_like(x, psi(th)),
                                grid, p.tau, steps_per_delay=256)
    traj = integrate(phi, horizon=3.0, p=p)
    got = traj.values[-1]
    np.testing.assert_allclose(got, got[0], atol=1e-13)  # stays constant in x

    f = lambda u: 0.5 * math.tanh(u)
    expected = scalar_dde_oracle(psi, 3.0, p.mu, p.sigma, p.tau, f, 0.0)
    assert got[0] == pytest.approx(expected, abs=5e-6)


def test_second_order_in_time(grid):
    """Halving dt divides the terminal error by about four."""
    p = _constant_in_space_problem()
    psi = lambda th: 0.8 + 0.3 * math.sin(2.0 * th)
    f = lambda u: 0.5 * math.tanh(u)
    exact = scalar_dde_oracle(psi, 3.0, p.mu, p.sigma, p.tau, f, 0.0)

    errors = []
    for spd in (8, 16, 32):
        phi = history_from_function(lambda x, th: np.full_like(x, psi(th)),
                                    grid, p.tau, steps_per_delay=spd)
        traj = integrate(phi, horizon=3.0, p=p)
        errors.append(abs(float(traj.values[-1][0]) - exact))
    assert errors[0] / errors[1] > 3.5
    assert errors[1] / errors[2] > 3.5


def test_pure_heat_reduces_to_semigroup(rng, grid):
    """sigma = 0, f = 0, g = 0 turns every step into an exact S(dt)
    application, so the trajectory equals apply_semigroup at each time."""
    p = heat_only_params(mu=1.5)
    phi0 = Field(rng.standard_normal(grid.points), grid)
    phi = constant_history(phi0, p.tau, steps_per_delay=10)
    traj = integrate(phi, horizon=1.0, p=p)
    for n in (5, 13, 20):
        t = traj.times[n]
        np.testing.assert_allclose(traj.values[n],
                                   apply_semigroup(t, phi0, p.mu).values,
                                   atol=1e-12)


def test_horizon_and_tau_validation(grid, dissipative):
    phi = constant_history(Field(np.ones(grid.points), grid), dissipative.tau, 4)
    with pytest.raises(ValueError):
        integrate(phi, horizon=-1.0, p=dissipative)
    bad = constant_history(Field(np.ones(grid.points), grid), 0.25, 4)
    with pytest.raises(ValueError, match="tau"):
        integrate(bad, horizon=1.0, p=dissipative)


def test_step_count_rounds_up_and_saturates():
    """Whole steps covering t, forgiving 1e-9 of a step; t / dt = inf (tau =
    1e-300 with a horizon of 1e300) stays an int above any step cap."""
    dt = 0.5 / 16
    assert step_count(3.0, dt) == 96
    assert step_count(3.0 + 1e-12, dt) == 96
    assert step_count(3.0 + 1e-6, dt) == 97
    assert step_count(0.0, dt) == step_count(-1.0, dt) == 0
    assert step_count(1e300, 1e-300 / 16) > 2**62


def test_divergence_raises_with_step_index(grid):
    p = ProblemParameters(
        mu=1.0, sigma=0.5, tau=0.5, lf=0.0,
        forcing=ForcingSpec(), nonlinearity=NonlinearitySpec(),
    )
    phi = constant_history(Field(np.full(grid.points, 1e308), grid), p.tau, 8)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as info:
            integrate(phi, horizon=2.0, p=p)
    assert info.value.step >= 1


@pytest.mark.parametrize("horizon", [0.25, 1.5])  # below and above tau = 0.5
@pytest.mark.parametrize("batch", [2, 3])
def test_batched_integrate_matches_loop_reference(rng, grid, dissipative, horizon, batch):
    """Each column of a batched run, and each run of one history alone,
    equals the reference loop exactly (nonlinearity and forcing on)."""
    S = 8
    hists = [random_history(rng, grid, dissipative.tau, S, 1.0) for _ in range(batch)]
    stacked = HistorySegment(np.stack([h.samples for h in hists], axis=1),
                             grid, dissipative.tau, S)
    traj = integrate(stacked, horizon, dissipative)
    assert traj.values.shape == (traj.steps + 1, batch, grid.points)
    for b, hist in enumerate(hists):
        ref = loop_integrate(hist, horizon, dissipative)
        assert np.array_equal(traj.values[:, b], ref)
        assert np.array_equal(integrate(hist, horizon, dissipative).values, ref)
    seg = segment_at(traj, horizon)
    assert seg.samples.shape == (S + 1, batch, grid.points)


def test_segment_shape_and_interpolation(grid):
    samples = np.outer(np.arange(5.0), np.ones(grid.points))
    seg = HistorySegment(samples, grid, tau=1.0, steps_per_delay=4)
    assert seg.dt == 0.25
    np.testing.assert_allclose(seg.thetas, [-1.0, -0.75, -0.5, -0.25, 0.0])
    # linear interpolation halfway between rows 1 and 2
    np.testing.assert_allclose(seg.value_at(-0.625), 1.5)
    with pytest.raises(ValueError):
        seg.value_at(0.5)
    with pytest.raises(ValueError):
        HistorySegment(samples[:3], grid, tau=1.0, steps_per_delay=4)


def test_segment_at_mixes_history_and_solution(grid, dissipative):
    S = 8
    phi = history_from_function(lambda x, th: np.full_like(x, th),
                                grid, dissipative.tau, S)
    traj = integrate(phi, horizon=2.0, p=dissipative)
    dt = traj.dt

    # at t = 3 dt the first S - 3 rows must be original history samples
    seg = segment_at(traj, 3 * dt)
    for j in range(S - 3):
        np.testing.assert_array_equal(seg.samples[j], phi.samples[j + 3])
    for j in range(S - 3, S + 1):
        np.testing.assert_array_equal(seg.samples[j], traj.values[j - (S - 3)])

    # at the far end everything comes from the trajectory
    seg = segment_at(traj, traj.horizon)
    np.testing.assert_array_equal(seg.samples[-1], traj.values[-1])

    with pytest.raises(ValueError, match="aligned"):
        segment_at(traj, 0.3 * dt)
    with pytest.raises(ValueError, match="range"):
        segment_at(traj, traj.horizon + dt)


def test_segment_norm_is_sup_of_field_norms(grid):
    rows = np.zeros((5, grid.points))
    rows[2] = 3.0  # constant field of value 3 -> norm 3 sqrt(2L)
    seg = HistorySegment(rows, grid, tau=1.0, steps_per_delay=4)
    assert segment_norm(seg) == pytest.approx(3.0 * math.sqrt(2 * grid.half_length))


def test_cutoff_radius_validation(grid, dissipative):
    """The K < L/4 check now sits where the radius is consumed, in the
    CLI's spectral stage, and fails as a configuration error."""
    with pytest.raises(ConfigError, match="positive"):
        RunOptions(cutoff_radius=-1.0)
    _spectral_bundle(dissipative, grid, RunOptions(cutoff_radius=3.9), 0)  # 3.9 < 16/4
    with pytest.raises(ConfigError, match="L/4"):  # the boundary is excluded
        _spectral_bundle(dissipative, grid, RunOptions(cutoff_radius=4.0), 0)


def test_far_field_mass(grid):
    rows = np.zeros((3, grid.points))
    outside = np.abs(grid.nodes) >= 4.0
    rows[1, outside] = 2.0
    seg = HistorySegment(rows, grid, tau=1.0, steps_per_delay=2)
    expected = grid.spacing * 4.0 * int(np.count_nonzero(outside))
    assert far_field_mass(seg, 4.0) == pytest.approx(expected)
    assert far_field_mass(seg, grid.half_length + 1.0) == 0.0


def test_history_constructors(grid):
    phi = history_from_function(lambda x, th: np.cos(x) * (1 + th), grid, 0.5, 4)
    np.testing.assert_allclose(phi.samples[0], np.cos(grid.nodes) * 0.5)
    np.testing.assert_allclose(phi.samples[-1], np.cos(grid.nodes))

    frozen = constant_history(Field(np.cos(grid.nodes), grid), 0.5, 4)
    for j in range(5):
        np.testing.assert_array_equal(frozen.samples[j], np.cos(grid.nodes))
    assert frozen.field(2).grid is grid
