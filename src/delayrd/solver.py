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

The module also houses the segment bookkeeping and the domain-splitting
operators used throughout the certificates.  A segment u_t is a window of
S + 1 consecutive history/solution rows, so every segment sup (norm,
far-field mass, gradient sup) is a per-row quantity reduced by one
sliding-window max, `segment_sups`; `segment_at` copies out one segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .model import ProblemParameters, Grid, evaluate_forcing, evaluate_nonlinearity
from .semigroup import Field, SemigroupStepper, field_norm

__all__ = [
    "CutoffRadius",
    "DivergenceError",
    "HistorySegment",
    "Trajectory",
    "CUTOFF_DERIVATIVE_BOUND",
    "constant_history",
    "far_field_mass",
    "far_field_masses",
    "history_from_function",
    "integrate",
    "row_norms",
    "segment_at",
    "segment_norm",
    "segment_sups",
    "smooth_cutoff",
    "split_fields",
]

#: sup |chi'| for the cubic ramp used in `smooth_cutoff` (attained at s = 1.5).
CUTOFF_DERIVATIVE_BOUND = 1.5


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
    as piecewise linear.  Row j of ``samples`` is the field at theta_j.
    """

    samples: np.ndarray
    grid: Grid
    tau: float
    steps_per_delay: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        expected = (self.steps_per_delay + 1, self.grid.points)
        if samples.shape != expected:
            raise ValueError(
                f"segment shape {samples.shape}, expected {expected}"
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

    def field(self, n: int) -> Field:
        return Field(values=self.values[n], grid=self.grid)


def integrate(phi: HistorySegment, horizon: float, p: ProblemParameters) -> Trajectory:
    """Integrate the equation from a history segment.

    Parameters
    ----------
    phi : HistorySegment
        Initial history on [-tau, 0]; fixes the grid and the step
        dt = tau / steps_per_delay.
    horizon : float
        Final time (>= 0).  Rounded up to a whole number of steps.
    p : ProblemParameters
        Equation constants; ``p.tau`` must equal ``phi.tau``.

    Returns
    -------
    Trajectory

    Raises
    ------
    DivergenceError
        If a non-finite field appears; carries the offending step index.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if abs(phi.tau - p.tau) > 1e-12 * max(1.0, p.tau):
        raise ValueError("history tau does not match problem tau")
    S = phi.steps_per_delay
    dt = phi.dt
    n_steps = max(0, int(math.ceil(horizon / dt - 1e-9)))
    grid = phi.grid

    g = evaluate_forcing(p.forcing, grid.nodes)
    stepper = SemigroupStepper(grid, p.mu, dt)
    values = np.empty((n_steps + 1, grid.points))
    values[0] = phi.samples[-1]

    def delayed(n: int) -> np.ndarray:
        return values[n - S] if n >= S else phi.samples[n]

    def load(n: int) -> np.ndarray:
        d = delayed(n)
        return p.sigma * d + evaluate_nonlinearity(p.nonlinearity, d) + g

    h_prev = load(0)
    for n in range(n_steps):
        h_next = load(n + 1)
        values[n + 1] = stepper.step(values[n] + 0.5 * dt * h_prev) + 0.5 * dt * h_next
        if not np.all(np.isfinite(values[n + 1])):
            raise DivergenceError(n + 1)
        h_prev = h_next
    return Trajectory(values=values, grid=grid, dt=dt, history=phi)


def segment_at(traj: Trajectory, t: float) -> HistorySegment:
    """Extract the segment u_t(theta) = u(t + theta) from a trajectory.

    ``t`` must be aligned to the step grid and lie within [0, horizon];
    for t < tau the segment mixes initial-history samples with computed
    ones.
    """
    dt = traj.dt
    pos = t / dt
    n = int(round(pos))
    if abs(pos - n) > 1e-9:
        raise ValueError(f"time {t} is not aligned to the dt grid")
    if n < 0 or n > traj.steps:
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
    """Grid L2 norm of each row of ``samples``."""
    return np.sqrt(grid.spacing * np.sum(samples * samples, axis=1))


def segment_norm(seg: HistorySegment) -> float:
    """Segment sup-norm: max over sample times of the grid L2 norm."""
    return float(np.max(row_norms(seg.samples, seg.grid)))


@dataclass(frozen=True)
class CutoffRadius:
    """Radius K of the ball Omega_K, with a flag selecting the sharp
    characteristic-function split or the smooth ramp."""

    K: float
    smooth: bool = False

    def __post_init__(self):
        if self.K <= 0:
            raise ValueError("cutoff radius must be positive")

    def validate(self, grid: Grid) -> None:
        if self.K >= grid.half_length / 4:
            raise ValueError("cutoff radius must satisfy K < L/4")


def split_fields(u: Field, K) -> dict:
    """Split u = v + w into inside/outside parts about the ball |x| < K.

    Supports are disjoint and the split is exact on the grid:
    v = u * indicator(|x| < K), w = u - v.
    """
    radius = K.K if isinstance(K, CutoffRadius) else float(K)
    inside = np.abs(u.grid.nodes) < radius
    v = np.where(inside, u.values, 0.0)
    return {
        "v": Field(values=v, grid=u.grid),
        "w": Field(values=u.values - v, grid=u.grid),
    }


def far_field_masses(samples: np.ndarray, grid: Grid, K: float) -> np.ndarray:
    """Tail mass integral_{|x| >= K} u^2 dx of each row of ``samples``."""
    outside = np.abs(grid.nodes) >= K
    return grid.spacing * np.sum(samples[:, outside] ** 2, axis=1)


def far_field_mass(seg: HistorySegment, K: float) -> float:
    """Largest tail mass over the segment: sup_j integral_{|x| >= K} u(theta_j)^2 dx."""
    return float(np.max(far_field_masses(seg.samples, seg.grid, K)))


def smooth_cutoff(x, K: float):
    """Smooth ramp chi(|x|^2 / K^2) used in the tail energy estimates.

    chi(s) = 0 for s <= 1, 1 for s >= 2, with a C^1 cubic Hermite ramp
    3 r^2 - 2 r^3 (r = s - 1) in between; sup |chi'| = 1.5 is exported as
    `CUTOFF_DERIVATIVE_BOUND`.
    """
    if K <= 0:
        raise ValueError("cutoff radius must be positive")
    s = np.asarray(x, dtype=float) ** 2 / (K * K)
    r = np.clip(s - 1.0, 0.0, 1.0)
    out = r * r * (3.0 - 2.0 * r)
    return out if out.ndim else float(out)
