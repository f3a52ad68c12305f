"""Method-of-steps integrator for the delayed reaction-diffusion equation.

The mild formulation advances the solution by the exact linear semigroup and
a Duhamel integral of the delayed terms,

    u(t_{n+1}) = S(dt) u(t_n)
                 + integral_0^dt S(dt - s) [sigma u(. - tau) + f(u(. - tau)) + g] ds,

which we discretize with the trapezoidal rule,

    u_{n+1} = S(dt) [u_n + dt/2 * h_n] + dt/2 * h_{n+1},
    h_n     = sigma * u_{n - S} + f(u_{n - S}) + g.

The step dt = tau / steps_per_delay divides the delay exactly, so every
delayed read lands on a stored sample and the method of steps introduces no
interpolation error.  The scheme is second order in dt (the linear part is
exact; only the quadrature is approximate).

`march` is the one implementation of this recurrence, with the propagator
and the load as arguments.  `evolve` is the equation's march: the FFT
semigroup step on fields and the delayed load above, the only place that
load is written.  The CLI stores no trajectory: `simulate` reduces the rows
of `evolve` S at a time and `squeezing` takes the P/Q/R norms of the rows
its contraction windows hold.  `integrate` stores every row, for tests,
demos and the trajectory checks of `estimates`.  `spectrum` marches a
scalar decay per Dirichlet mode.  Rows may carry a batch axis, so several
histories or a set of modes advance as one array.

A segment u_t is a window of S + 1 consecutive history/solution rows, so
every segment sup (norm, far-field mass, gradient sup) is a per-row quantity
reduced by one sliding-window max, `segment_sups`; `segment_at` copies out
one segment.  Per-row quantities reduce each row on its own, so a row gives
the same bytes alone, in a block of rows or in a batch.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .model import ProblemParameters, Grid, evaluate_forcing, evaluate_nonlinearity
from .semigroup import Field, SemigroupStepper

__all__ = [
    "DivergenceError",
    "HistorySegment",
    "Trajectory",
    "constant_history",
    "evolve",
    "far_field_mass",
    "far_field_masses",
    "grid_step",
    "history_from_function",
    "integrate",
    "march",
    "row_norms",
    "segment_at",
    "segment_norm",
    "segment_sups",
    "step_count",
]


class DivergenceError(RuntimeError):
    """Raised when the integrator produces a non-finite field."""

    def __init__(self, step: int):
        super().__init__(f"non-finite field at step {step}")
        self.step = step


@dataclass(frozen=True)
class HistorySegment:
    """A function segment theta -> u(t + theta), theta in [-tau, 0].

    Samples sit at uniform times theta_j = -tau + j * dt with
    dt = tau / steps_per_delay; between samples the segment is understood
    as piecewise linear.  Row j of ``samples`` is the field at theta_j,
    shaped (P,), or (B, P) for a batch of B segments advanced together.
    """

    samples: np.ndarray
    grid: Grid
    tau: float
    steps_per_delay: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        rows, points = self.steps_per_delay + 1, self.grid.points
        if samples.ndim not in (2, 3) or (samples.shape[0], samples.shape[-1]) != (rows, points):
            raise ValueError(
                f"segment shape {samples.shape}, expected ({rows}, [B,] {points})"
            )
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        object.__setattr__(self, "samples", samples)

    @property
    def dt(self) -> float:
        return self.tau / self.steps_per_delay

    @property
    def thetas(self) -> np.ndarray:
        return -self.tau + self.dt * np.arange(self.steps_per_delay + 1)

    def value_at(self, theta: float) -> np.ndarray:
        """Piecewise-linear evaluation at an arbitrary theta in [-tau, 0]."""
        if theta < -self.tau - 1e-12 or theta > 1e-12:
            raise ValueError("theta outside [-tau, 0]")
        pos = (theta + self.tau) / self.dt
        j = min(int(pos), self.steps_per_delay - 1)
        w = pos - j
        return (1.0 - w) * self.samples[j] + w * self.samples[j + 1]

    def field(self, j: int) -> Field:
        return Field(values=self.samples[j], grid=self.grid)


def history_from_function(func, grid: Grid, tau: float, steps_per_delay: int) -> HistorySegment:
    """Sample a history phi(x, theta) from a callable of (x, theta)."""
    dt = tau / steps_per_delay
    x = grid.nodes
    rows = [np.asarray(func(x, -tau + j * dt), dtype=float)
            for j in range(steps_per_delay + 1)]
    return HistorySegment(np.stack(rows), grid, tau, steps_per_delay)


def constant_history(phi0: Field, tau: float, steps_per_delay: int) -> HistorySegment:
    """History frozen at a single field for all theta."""
    samples = np.tile(phi0.values, (steps_per_delay + 1, 1))
    return HistorySegment(samples, phi0.grid, tau, steps_per_delay)


@dataclass(frozen=True)
class Trajectory:
    """Solution samples u(0), u(dt), ..., u(n dt) plus the initial history."""

    values: np.ndarray
    grid: Grid
    dt: float
    history: HistorySegment

    @property
    def steps(self) -> int:
        return self.values.shape[0] - 1

    @property
    def horizon(self) -> float:
        return self.steps * self.dt

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.values.shape[0])


def march(hist, n_steps: int, dt: float, propagate, load):
    """Step the trapezoid recurrence from a history, yielding its window.

    ``hist`` holds the history rows u_{-S} .. u_0 on its leading axis.
    Step n computes

        u_n = propagate(u_{n-1} + dt/2 * load(u_{n-1-S})) + dt/2 * load(u_{n-S})

    and yields the window, a deque of the S + 1 rows u_{n-S} .. u_n, the
    only ones held.  ``propagate`` (S(dt)) and ``load`` (the delayed terms)
    act on whole rows, so trailing batch axes pass through; ``propagate``
    must return a fresh array, since the step adds to it in place.  Each
    row's scaled load dt/2 * load(u_{n-S}) is computed once and serves two
    steps.  A non-finite entry raises `DivergenceError` with the step index.
    """
    rows = deque(hist, maxlen=len(hist))
    half = 0.5 * dt
    k_prev = half * load(rows[0])
    for n in range(1, n_steps + 1):
        k_next = half * load(rows[1])
        u = propagate(rows[-1] + k_prev)
        u += k_next
        if not np.isfinite(u).all():
            raise DivergenceError(n)
        rows.append(u)
        k_prev = k_next
        yield rows


def evolve(phi: HistorySegment, n_steps: int, p: ProblemParameters):
    """`march` of the equation from ``phi``: S(dt) on fields and the delayed
    load sigma u + f(u) + g.  ``p.tau`` must equal ``phi.tau``; batched
    samples (S + 1, B, P) advance as B independent solutions."""
    if abs(phi.tau - p.tau) > 1e-12 * max(1.0, p.tau):
        raise ValueError("history tau does not match problem tau")
    g = evaluate_forcing(p.forcing, phi.grid.nodes)
    stepper = SemigroupStepper(phi.grid, p.mu, phi.dt)

    def load(d: np.ndarray) -> np.ndarray:
        h = p.sigma * d
        h += evaluate_nonlinearity(p.nonlinearity, d)
        h += g
        return h

    return march(phi.samples, n_steps, phi.dt, stepper.step, load)


def integrate(phi: HistorySegment, horizon: float, p: ProblemParameters) -> Trajectory:
    """Integrate the equation from ``phi`` to ``horizon`` (>= 0, rounded up
    to whole steps dt = tau / steps_per_delay), storing every row.

    Batched samples (S + 1, B, P) give values shaped (N + 1, B, P).  A
    non-finite field raises `DivergenceError` with the step index.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    n_steps = step_count(horizon, phi.dt)
    values = np.empty((n_steps + 1, *phi.samples.shape[1:]))
    values[0] = phi.samples[-1]
    for n, rows in enumerate(evolve(phi, n_steps, p), start=1):
        values[n] = rows[-1]
    return Trajectory(values=values, grid=phi.grid, dt=phi.dt, history=phi)


def step_count(t: float, dt: float) -> int:
    """The whole steps of ``dt`` that cover ``t``: ceil(t / dt), forgiving
    1e-9 of a step of rounding, and 0 for t <= 0.  A count past sys.maxsize
    (t / dt may be inf) saturates there, beyond any step cap."""
    x = t / dt - 1e-9
    return max(0, math.ceil(x)) if x < sys.maxsize else sys.maxsize


def grid_step(t: float, dt: float) -> int:
    """The step n >= 0 with t = n dt (to 1e-9 steps); ValueError otherwise."""
    n = int(round(t / dt))
    if abs(t / dt - n) > 1e-9 or n < 0:
        raise ValueError(f"time {t} is not aligned to the dt grid at or after 0")
    return n


def segment_at(traj: Trajectory, t: float) -> HistorySegment:
    """Extract the segment u_t(theta) = u(t + theta) from a trajectory.

    ``t`` must be aligned to the step grid and lie within [0, horizon];
    for t < tau the segment mixes initial-history samples with computed
    ones.
    """
    n = grid_step(t, traj.dt)
    if n > traj.steps:
        raise ValueError(f"time {t} outside the trajectory range")
    S = traj.history.steps_per_delay
    # rows n .. n + S of concat(history[:-1], values), copied
    rows = np.concatenate([traj.history.samples[min(n, S):S], traj.values[max(0, n - S):n + 1]])
    return HistorySegment(rows, traj.grid, traj.history.tau, S)


def segment_sups(hist_q, traj_q) -> np.ndarray:
    """Sup of a per-row quantity over every segment of a trajectory.

    ``hist_q`` holds the quantity on the S + 1 history rows and ``traj_q``
    on the N + 1 trajectory rows (rows on the leading axis; trailing axes
    are kept).  Entry n is the max over the segment at step n, i.e. over
    rows n .. n + S of concat(hist_q[:-1], traj_q): the last history row
    is the first trajectory row, so it is counted once.
    """
    rows = np.concatenate([hist_q[:-1], traj_q])
    return sliding_window_view(rows, len(hist_q), axis=0).max(axis=-1)


def row_norms(samples: np.ndarray, grid: Grid) -> np.ndarray:
    """Grid L2 norm of each row of ``samples`` (the grid on the last axis)."""
    return np.sqrt(grid.spacing * np.sum(samples * samples, axis=-1))


def segment_norm(seg: HistorySegment) -> float:
    """Segment sup-norm: max over sample times of the grid L2 norm."""
    return float(np.max(row_norms(seg.samples, seg.grid)))


def far_field_masses(samples: np.ndarray, grid: Grid, K: float) -> np.ndarray:
    """Tail mass integral_{|x| >= K} u^2 dx of each row of ``samples`` (the
    grid on the last axis).  The tail is a C-ordered copy summed along its
    rows, so every row is summed pairwise whatever the leading axes are."""
    tail = np.compress(np.abs(grid.nodes) >= K, samples, axis=-1)
    np.square(tail, out=tail)
    return grid.spacing * np.sum(tail, axis=-1)


def far_field_mass(seg: HistorySegment, K: float) -> float:
    """Largest tail mass over the segment: sup_j integral_{|x| >= K} u(theta_j)^2 dx."""
    return float(np.max(far_field_masses(seg.samples, seg.grid, K)))
