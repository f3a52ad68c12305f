import math
import tracemalloc
import warnings

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
from delayrd.semigroup import apply_semigroup
from delayrd import solver
from delayrd.solver import (
    DivergenceError,
    constant_history,
    evolve,
    far_field_mass,
    grid_step,
    history_from_function,
    integrate,
    march,
    segment_at,
    segment_norm,
    step_count,
)

from conftest import (
    dissipative_params,
    fourier_rounding_bound,
    heat_only_params,
    loop_fourier_integrate,
    loop_integrate,
)


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
    got = integrate(phi, horizon=3.0, p=p, grid=grid)[-1]
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
        values = integrate(phi, horizon=3.0, p=p, grid=grid)
        errors.append(abs(float(values[-1][0]) - exact))
    assert errors[0] / errors[1] > 3.5
    assert errors[1] / errors[2] > 3.5


def test_pure_heat_reduces_to_semigroup(rng, grid):
    """sigma = 0, f = 0, g = 0 turns every step into an exact S(dt)
    application, so the trajectory equals apply_semigroup at each time."""
    p = heat_only_params(mu=1.5)
    phi0 = rng.standard_normal(grid.points)
    phi = constant_history(phi0, steps_per_delay=10)
    values = integrate(phi, horizon=1.0, p=p, grid=grid)
    for n in (5, 13, 20):
        t = n * p.tau / 10
        np.testing.assert_allclose(values[n],
                                   apply_semigroup(t, phi0, grid, p.mu),
                                   atol=1e-12)


def test_horizon_and_history_shape_validation(grid, dissipative):
    """dt comes from the history's row count, so only the horizon and the
    history's shape can be wrong: (S + 1, [B,] P) rows with S >= 1."""
    phi = constant_history(np.ones(grid.points), 4)
    with pytest.raises(ValueError, match="horizon"):
        integrate(phi, horizon=-1.0, p=dissipative, grid=grid)
    for bad in (phi[:1], phi[:, :-1], phi[0], phi[:, None, None]):
        with pytest.raises(ValueError, match="history shape"):
            integrate(bad, horizon=1.0, p=dissipative, grid=grid)
        with pytest.raises(ValueError, match="history shape"):
            evolve(bad, 4, dissipative, grid)


def test_step_count_rounds_up_and_saturates():
    """Whole steps covering t, forgiving 1e-9 of a step; t / dt = inf (tau =
    1e-300 with a horizon of 1e300) stays an int above any step cap."""
    dt = 0.5 / 16
    assert step_count(3.0, dt) == 96
    assert step_count(3.0 + 1e-12, dt) == 96
    assert step_count(3.0 + 1e-6, dt) == 97
    assert step_count(0.0, dt) == step_count(-1.0, dt) == 0
    assert step_count(1e300, 1e-300 / 16) > 2**62


def test_grid_step_rejects_negative_and_non_finite_times():
    """A negative time is off the grid even within 1e-9 steps of 0, and a
    t / dt that overflows to inf is a ValueError, not an OverflowError."""
    dt = 0.5 / 16
    assert grid_step(0.0, dt) == 0
    assert grid_step(3 * dt, dt) == 3
    for t in (-1e-13, -dt, 1e307, math.inf, math.nan, 3.000001 * dt):
        with pytest.raises(ValueError, match="aligned"):
            grid_step(t, dt)


def test_divergence_raises_with_step_index(grid):
    p = ProblemParameters(
        mu=1.0, sigma=0.5, tau=0.5, lf=0.0,
        forcing=ForcingSpec(), nonlinearity=NonlinearitySpec(),
    )
    phi = constant_history(np.full(grid.points, 1e308), 8)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as info:
            integrate(phi, horizon=2.0, p=p, grid=grid)
    assert info.value.step >= 1


def first_non_finite(values) -> int:
    """Index of the first row of ``values`` with a non-finite entry."""
    return int(np.argmin(np.isfinite(values).all(axis=1)))


@pytest.mark.parametrize("batch", [1, 3])  # rows of 512 and 1536 floats
def test_divergence_step_matches_loop_reference(rng, grid, batch):
    """A history that grows past the float range diverges at the first step
    whose row is non-finite in the coefficient-space form the march takes,
    `loop_fourier_integrate`'s, in the middle of a delay interval; `march`
    yields every row before it, all finite.  A batch diverges at its first
    column's step.  The coefficient form goes non-finite no later than the
    physical loop, `loop_integrate`: by Parseval the coefficients c_n are at
    least as large as the row (c_0 is the row's sum)."""
    p = ProblemParameters(
        mu=0.2, sigma=20.0, tau=0.5, lf=0.0,
        forcing=ForcingSpec(), nonlinearity=NonlinearitySpec(),
    )
    hists = [constant_history(np.full(grid.points, 1e300 * (1.0 + rng.random())), 8)
             for _ in range(batch)]
    stacked = np.stack(hists, axis=1)
    rows = []
    with np.errstate(over="ignore", invalid="ignore"):
        physical = [first_non_finite(loop_integrate(h, 8.0, p, grid)) for h in hists]
        fourier = [first_non_finite(loop_fourier_integrate(h, 8.0, p, grid)) for h in hists]
        with pytest.raises(DivergenceError) as info:
            integrate(stacked, 8.0, p, grid)
        with pytest.raises(DivergenceError) as marched:
            for block in evolve(stacked, step_count(8.0, p.tau / 8), p, grid):
                rows.extend(block)
    step = min(fourier)
    assert all(8 < f <= ph for f, ph in zip(fourier, physical))
    assert step % 8
    assert info.value.step == marched.value.step == step
    assert len(rows) == step - 1 and np.isfinite(rows).all()


@pytest.mark.parametrize("batch", [1, 3])  # rows of 512 and 1536 floats
def test_divergence_warns_nothing_and_leaks_no_error_state(grid, batch):
    """The march's overflow and invalid values raise DivergenceError and no
    numpy warning, even where warnings are errors; between the blocks it
    yields, the caller's own error state holds."""
    p = ProblemParameters(
        mu=0.2, sigma=20.0, tau=0.5, lf=0.0,
        forcing=ForcingSpec(), nonlinearity=NonlinearitySpec(),
    )
    hist = np.stack([constant_history(np.full(grid.points, 1e300), 8)] * batch, axis=1)
    states = []
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as info:
            for _ in evolve(hist, 400, p, grid):
                states.append(np.geterr())
    assert info.value.step > 8 and states
    assert all(state == dict.fromkeys(state, "raise") for state in states)


@pytest.mark.parametrize("horizon", [0.25, 1.25, 1.5])  # below tau = 0.5, partial, whole intervals
@pytest.mark.parametrize("batch", [2, 3])
def test_batched_integrate_matches_loop_reference(rng, grid, dissipative, horizon, batch):
    """Each column of a batched run, and each run of one history alone,
    equals `loop_fourier_integrate`, the coefficient-space loop, exactly
    (nonlinearity and forcing on), whatever the row size: two or three
    columns of 512 floats.  The physical loop, `loop_integrate`, stays
    within `fourier_rounding_bound` of it.  A horizon of 1.25 ends in a
    partial interval (4 of its 8 steps)."""
    S = 8
    hists = [random_history(rng, grid, dissipative.tau, S, 1.0) for _ in range(batch)]
    stacked = np.stack(hists, axis=1)
    values = integrate(stacked, horizon, dissipative, grid)
    n_steps = step_count(horizon, dissipative.tau / S)
    assert values.shape == (n_steps + 1, batch, grid.points)
    for b, hist in enumerate(hists):
        ref = loop_integrate(hist, horizon, dissipative, grid)
        fourier = loop_fourier_integrate(hist, horizon, dissipative, grid)
        assert np.array_equal(values[:, b], fourier)
        assert np.array_equal(integrate(hist, horizon, dissipative, grid), fourier)
        bound = fourier_rounding_bound(hist, ref, dissipative, grid)
        assert np.max(np.abs(fourier - ref)) <= bound
    seg = segment_at(stacked, values, len(values) - 1)
    assert seg.shape == (S + 1, batch, grid.points)


@pytest.mark.parametrize("columns", [1, 8])
def test_block_budget_does_not_change_the_march(monkeypatch, rng, columns):
    """`evolve` gives the same rows, bit for bit, whether its blocks hold one
    row, a row count that does not divide S, or a whole delay interval: the
    transforms and the load act row by row.  Rows of 1024 floats, alone and
    as squeeze's batch of 8 columns, S = 16, over 2.5 intervals."""
    grid = Grid(half_length=16.0, points=1024)
    p = dissipative_params(grid)
    S = 16
    hist = np.stack([random_history(rng, grid, p.tau, S, 1.0) for _ in range(columns)], axis=1)
    marched = []
    for rows in (1, 5, S):
        monkeypatch.setattr(solver, "BLOCK_FLOATS", rows * hist[0].size)
        blocks = list(evolve(hist, 40, p, grid))
        assert max(map(len, blocks)) == rows
        marched.append(np.concatenate(blocks))
    assert all(np.array_equal(marched[0], rows) for rows in marched[1:])


def test_block_budget_does_not_change_the_divergence_step(monkeypatch, grid):
    """A blow-up raises `DivergenceError` with the same step, after the same
    rows were yielded, for every block size from one row to a whole
    interval: in the middle of a block for some sizes and at a block's
    first row for others."""
    p = ProblemParameters(
        mu=0.2, sigma=20.0, tau=0.5, lf=0.0,
        forcing=ForcingSpec(), nonlinearity=NonlinearitySpec(),
    )
    S = 8
    hist = constant_history(np.full(grid.points, 1.5e300), S)  # diverges at step 55
    outcomes, positions = [], set()
    for rows in range(1, S + 1):
        monkeypatch.setattr(solver, "BLOCK_FLOATS", rows * grid.points)
        yielded = []
        with pytest.raises(DivergenceError) as info, np.errstate(over="ignore", invalid="ignore"):
            for block in evolve(hist, 8 * S, p, grid):
                yielded.append(block)
        outcomes.append((info.value.step, np.concatenate(yielded)))
        positions.add((info.value.step - 1) % S % rows == 0)  # at a block's first row
    step, rows = outcomes[0]
    assert step == 55 and positions == {True, False}
    assert len(rows) == step - 1 and np.isfinite(rows).all()
    assert all(s == step and np.array_equal(r, rows) for s, r in outcomes[1:])


def test_march_loads_only_the_rows_a_step_reads(monkeypatch):
    """Step n reads the loads of rows n - 1 - S and n - S, so n_steps steps
    read those of the n_steps + 1 rows u_{-S} .. u_{n_steps - S}: with
    one-row blocks the march loads exactly those, for a march shorter than
    the delay, one delay long, and longer."""
    monkeypatch.setattr(solver, "BLOCK_FLOATS", 1)
    hist = np.linspace(0.0, 1.0, 9)  # S = 8
    for n_steps in (0, 3, 8, 20):
        loaded = []

        def load(rows):
            loaded.append(len(rows))
            return 0.5 * rows

        blocks = list(march(hist, n_steps, 0.1, 0.9, (lambda v: v, lambda v: v), load))
        assert sum(map(len, blocks)) == n_steps
        assert sum(loaded) == n_steps + 1


def test_march_peak_stays_near_one_history(rng):
    """The march holds S rows of pending load coefficients and one block of
    rows in flight.  Over 512 steps of `evolve` on rows of squeeze-pairs'
    size (8 x 1024 floats, S = 64) the traced peak stays within 1.5 history
    batches: about 1.3 with 32k-float blocks, against 1.1 for the per-step
    loop and 4.1 for a whole interval per block."""
    grid = Grid(half_length=16.0, points=1024)
    p = dissipative_params(grid)
    hist = np.stack([random_history(rng, grid, p.tau, 64, 1.0) for _ in range(8)], axis=1)
    tracemalloc.start()
    try:
        for block in evolve(hist, 512, p, grid):
            pass
        del block
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * hist.nbytes


def test_segment_at_mixes_history_and_solution(grid, dissipative):
    S = 8
    phi = history_from_function(lambda x, th: np.full_like(x, th),
                                grid, dissipative.tau, S)
    values = integrate(phi, horizon=2.0, p=dissipative, grid=grid)

    # at step 3 the first S - 3 rows must be original history samples
    seg = segment_at(phi, values, 3)
    for j in range(S - 3):
        np.testing.assert_array_equal(seg[j], phi[j + 3])
    for j in range(S - 3, S + 1):
        np.testing.assert_array_equal(seg[j], values[j - (S - 3)])
    # a copy: writing it leaves the history and the trajectory alone
    seg[:] = np.nan
    assert np.isfinite(phi).all() and np.isfinite(values).all()

    # at the far end everything comes from the trajectory
    seg = segment_at(phi, values, len(values) - 1)
    np.testing.assert_array_equal(seg, values[-S - 1:])

    for n in (-1, len(values)):
        with pytest.raises(ValueError, match="range"):
            segment_at(phi, values, n)


def test_segment_norm_is_sup_of_field_norms(grid):
    rows = np.zeros((5, grid.points))
    rows[2] = 3.0  # constant field of value 3 -> norm 3 sqrt(2L)
    assert segment_norm(rows, grid) == pytest.approx(3.0 * math.sqrt(2 * grid.half_length))


def test_cutoff_radius_validation(grid, dissipative):
    """The K < L/4 check now sits where the radius is consumed, in the
    CLI's spectral stage, and fails as a configuration error."""
    with pytest.raises(ConfigError, match="positive"):
        RunOptions(cutoff_radius=-1.0)
    _spectral_bundle(dissipative, grid, RunOptions(cutoff_radius=3.9))  # 3.9 < 16/4
    with pytest.raises(ConfigError, match="L/4"):  # the boundary is excluded
        _spectral_bundle(dissipative, grid, RunOptions(cutoff_radius=4.0))


def test_far_field_mass(grid):
    rows = np.zeros((3, grid.points))
    outside = np.abs(grid.nodes) >= 4.0
    rows[1, outside] = 2.0
    expected = grid.spacing * 4.0 * int(np.count_nonzero(outside))
    assert far_field_mass(rows, grid, 4.0) == pytest.approx(expected)
    assert far_field_mass(rows, grid, grid.half_length + 1.0) == 0.0


def test_history_constructors(grid):
    phi = history_from_function(lambda x, th: np.cos(x) * (1 + th), grid, 0.5, 4)
    assert phi.shape == (5, grid.points)
    np.testing.assert_allclose(phi[0], np.cos(grid.nodes) * 0.5)
    np.testing.assert_allclose(phi[-1], np.cos(grid.nodes))

    frozen = constant_history(np.cos(grid.nodes), 4)
    assert frozen.shape == (5, grid.points)
    for j in range(5):
        np.testing.assert_array_equal(frozen[j], np.cos(grid.nodes))
    assert constant_history(np.arange(3), 2).dtype == float
