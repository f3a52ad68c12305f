import math

import numpy as np
import pytest

from delayrd.model import (
    ForcingSpec,
    Grid,
    NonlinearitySpec,
    ProblemParameters,
)
from delayrd.model import evaluate_forcing, evaluate_nonlinearity
from delayrd.semigroup import field_norm, gradient_norm
from delayrd.solver import far_field_masses, row_norms, segment_sups


@pytest.fixture
def grid():
    return Grid(half_length=16.0, points=512)


@pytest.fixture
def fine_grid():
    return Grid(half_length=16.0, points=4096)


def unit_forcing_amplitude(grid: Grid) -> float:
    """Amplitude making the grid L2 norm of the standard Gaussian bump 1."""
    raw = evaluate_forcing(ForcingSpec(kind="gaussian_bump", amplitude=1.0), grid.nodes)
    return 1.0 / field_norm(raw, grid)


def dissipative_params(grid: Grid) -> ProblemParameters:
    """mu=2, sigma=0.1, tau=0.5, L_f=1 with ||g|| = 1 on the given grid."""
    return ProblemParameters(
        mu=2.0,
        sigma=0.1,
        tau=0.5,
        lf=1.0,
        forcing=ForcingSpec(kind="gaussian_bump", amplitude=unit_forcing_amplitude(grid)),
        nonlinearity=NonlinearitySpec(kind="scaled_tanh", scale=1.0),
    )


def heat_only_params(mu: float = 2.0) -> ProblemParameters:
    """sigma = 0, f = 0, g = 0: the pure damped heat flow."""
    return ProblemParameters(
        mu=mu, sigma=0.0, tau=0.5, lf=0.0,
        forcing=ForcingSpec(), nonlinearity=NonlinearitySpec(),
    )


@pytest.fixture
def dissipative(grid):
    return dissipative_params(grid)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def loop_integrate(hist, horizon, p, grid):
    """Reference trajectory values: the trapezoid method-of-steps loop on
    a full (N + 1)-row array with its own delayed-index bookkeeping, one
    unbatched (S + 1, P) history at a time.  Shares no stepping code with
    `delayrd.solver`."""
    S = len(hist) - 1
    dt = p.tau / S
    n_steps = max(0, int(math.ceil(horizon / dt - 1e-9)))
    g = evaluate_forcing(p.forcing, grid.nodes)
    xi = grid.frequencies
    multiplier = np.exp(-(p.mu + xi * xi) * dt)
    values = np.empty((n_steps + 1, grid.points))
    values[0] = hist[-1]

    def load(n):
        d = values[n - S] if n >= S else hist[n]
        return p.sigma * d + evaluate_nonlinearity(p.nonlinearity, d) + g

    for n in range(n_steps):
        stepped = np.fft.irfft(multiplier * np.fft.rfft(values[n] + 0.5 * dt * load(n)),
                               n=grid.points)
        values[n + 1] = stepped + 0.5 * dt * load(n + 1)
    return values


def far_field_sups(hist, values, grid, radii):
    """Segment tail-mass sups of a stored trajectory (history rows ``hist``,
    trajectory rows ``values``), one column per radius: the array
    `verify_far_field` takes."""
    def tails(rows):
        return np.stack([far_field_masses(rows, grid, K) for K in radii], axis=-1)
    return segment_sups(tails(hist), tails(values))


def norm_sups(hist, values, grid):
    """Segment norms of a stored trajectory, one per step: the array
    `verify_absorption` takes."""
    return segment_sups(row_norms(hist, grid), row_norms(values, grid))


def gradient_sups(hist, values, grid):
    """Segment gradient sups of a stored trajectory, one per step: the
    array `verify_energy_integral` takes."""
    def gradients(rows):
        return np.array([gradient_norm(row, grid) for row in rows])
    return segment_sups(gradients(hist), gradients(values))
