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

`march` is the one implementation of this recurrence, with the semigroup (a
multiplier between transforms) and the load as arguments.  It is the
method of steps proper: on each delay interval the delayed terms are known
from the interval before, so a small row (at most `INTERVAL_ROW_FLOATS`
floats) takes the interval's S loads in one call and steps on its
coefficients; a larger row steps one at a time.  Either way the march
yields blocks, fresh arrays of consecutive new rows that a caller may
keep.  `evolve` is the equation's march: the rfft pair with the S(dt)
multiplier and the delayed load above, the only place that load is
written.  The CLI stores no trajectory: `simulate` reduces the rows of
`evolve` S at a time and `squeezing` takes the P/Q/R norms of the rows its
contraction windows hold.  `integrate` stores every row, for tests, demos
and the trajectory checks of `estimates`.  `spectrum` marches a scalar
decay per Dirichlet mode.  Rows may carry a batch axis, so several
histories or a set of modes advance as one array.

A history is the array of its S + 1 rows u(theta_j), theta_j = -tau + j dt,
shaped (S + 1, [B,] P), and a trajectory the (N + 1, [B,] P) array of rows
u(0) .. u(N dt); the grid and the parameters travel next to them, so
``evolve(hist, n_steps, p, grid)`` takes dt = p.tau / S from the row count.
A segment u_t is a window of S + 1 consecutive history/solution rows, so
every segment sup (norm, far-field mass, gradient sup) is a per-row quantity
reduced by one sliding-window max, `segment_sups`; `segment_at` copies out
one segment.  Per-row quantities reduce each row on its own, so a row gives
the same bytes alone, in a block of rows or in a batch.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import deque

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .model import ProblemParameters, Grid, evaluate_forcing, evaluate_nonlinearity
from .semigroup import SemigroupStepper

__all__ = [
    "DivergenceError",
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


def history_from_function(func, grid: Grid, tau: float, steps_per_delay: int) -> np.ndarray:
    """The (S + 1, P) history rows of a callable phi(x, theta): row j is
    phi at the nodes and theta_j = -tau + j dt, dt = tau / steps_per_delay."""
    dt = tau / steps_per_delay
    x = grid.nodes
    return np.stack([np.asarray(func(x, -tau + j * dt), dtype=float)
                     for j in range(steps_per_delay + 1)])


def constant_history(values: np.ndarray, steps_per_delay: int) -> np.ndarray:
    """History frozen at a single row of node values for all theta."""
    return np.tile(np.asarray(values, dtype=float), (steps_per_delay + 1, 1))


def _history_step(hist: np.ndarray, p: ProblemParameters, grid: Grid) -> float:
    """dt = tau / S of a history of S + 1 rows shaped (S + 1, [B,] P), S >= 1;
    ValueError for any other shape."""
    if hist.ndim not in (2, 3) or len(hist) < 2 or hist.shape[-1] != grid.points:
        raise ValueError(f"history shape {hist.shape}, expected (S + 1, [B,] {grid.points})"
                         " with S >= 1")
    return p.tau / (len(hist) - 1)


#: Largest row, in floats, that `march` advances a whole delay interval at a
#: time.  `evolve`, 512 steps at S = 64, per-step vs interval (ms, 2 vCPU
#: x86-64, numpy 2.4): 15.6/6.2 on 1024 floats, 28.7/26.1 on 4 x 1024,
#: 47.5/52.4 on squeeze's 8 x 1024; a raise would speed only partial groups.
INTERVAL_ROW_FLOATS = 1024


def march(hist, n_steps: int, dt: float, multiplier, transforms, load):
    """Step the trapezoid recurrence from a history, yielding its new rows.

    ``hist`` holds the history rows u_{-S} .. u_0 on its leading axis.
    With (F, F^-1) = ``transforms`` and k_n = dt/2 * load(u_{n-S}), step n
    computes u_n = F^-1(multiplier * F(u_{n-1} + k_{n-1})) + k_n; the march
    yields u_1 .. u_{n_steps} as blocks of consecutive rows.  F, F^-1 (the
    rfft pair, or identities) and ``load`` act on the last axis; ``load``
    returns a fresh array and F^-1 a fresh array or its argument.

    Rows of at most `INTERVAL_ROW_FLOATS` floats march a delay interval at
    a time on their coefficients: one ``load`` and one F call for the S
    loads, c_n = multiplier * (c_{n-1} + F(k_{n-1})) + F(k_n) into one
    fresh block, one F^-1 call for its rows (by Parseval max|c_n| >=
    max|u_n|).  Larger rows step one at a time, as (1, *row) blocks.

    A yielded block is never written again; a caller may keep it but must
    not write to it.  A non-finite entry raises `DivergenceError` with the
    step index, after the rows before it are yielded; the step arithmetic
    silences numpy's overflow and invalid warnings (never across a yield).
    """
    half = 0.5 * dt
    forward, inverse = transforms
    quiet = functools.partial(np.errstate, over="ignore", invalid="ignore")

    def scaled_load(rows):
        k = load(rows)
        k *= half
        return k

    if hist[0].size > INTERVAL_ROW_FLOATS:
        rows = deque(hist, maxlen=len(hist))
        with quiet():
            k_prev = scaled_load(rows[0])
        for n in range(1, n_steps + 1):
            with quiet():
                k_next = scaled_load(rows[1])
                c = forward(rows[-1] + k_prev)
                c *= multiplier
                u = inverse(c)
                del c  # held longer, it raised squeeze's peak RSS 3 MB
                u += k_next
            if not np.isfinite(u).all():
                raise DivergenceError(n)
            rows.append(u)
            k_prev = k_next
            yield u[np.newaxis]
        return

    S = len(hist) - 1
    with quiet():
        loads = forward(scaled_load(hist))  # row j: F(k) of u_{j - S}
        c = forward(hist[-1])
    last, loads = loads[0], loads[1:]  # steps start + 1 .. start + m take last, loads[:m]
    for start in range(0, n_steps, S):
        m = min(S, n_steps - start)
        coeffs = np.empty((m, *c.shape), c.dtype)
        with quiet():
            for i in range(m):
                c_new, k_new = coeffs[i, ...], loads[i]  # [i, ...] is a view even of 0-d rows
                np.add(c, last, out=c_new)
                c_new *= multiplier
                c_new += k_new
                c, last = c_new, k_new
            block = inverse(coeffs)
        if not np.isfinite(block).all():
            bad = int(np.argmin(np.isfinite(block.reshape(m, -1)).all(axis=1)))
            if bad:
                yield block[:bad]
            raise DivergenceError(start + bad + 1)
        c, last = c.copy(), last.copy()  # coeffs and loads go before the next
        del coeffs, loads
        yield block
        with quiet():
            loads = forward(scaled_load(block))


def evolve(hist: np.ndarray, n_steps: int, p: ProblemParameters, grid: Grid):
    """`march` of the equation from the history rows ``hist``, with
    dt = p.tau / (len(hist) - 1): S(dt) on fields and the delayed load
    sigma u + f(u) + g.  A batched history (S + 1, B, P) advances as B
    independent solutions."""
    dt = _history_step(hist, p, grid)
    g = evaluate_forcing(p.forcing, grid.nodes)
    stepper = SemigroupStepper(grid, p.mu, dt)
    transforms = (np.fft.rfft, functools.partial(np.fft.irfft, n=grid.points))

    def load(d: np.ndarray) -> np.ndarray:
        h = p.sigma * d
        h += evaluate_nonlinearity(p.nonlinearity, d)
        h += g
        return h

    return march(hist, n_steps, dt, stepper.multiplier, transforms, load)


def integrate(hist: np.ndarray, horizon: float, p: ProblemParameters,
              grid: Grid) -> np.ndarray:
    """Integrate the equation from the history rows ``hist`` to ``horizon``
    (>= 0, rounded up to whole steps dt = p.tau / (len(hist) - 1)) and
    return every row u(0), u(dt), ..., u(N dt), shaped (N + 1, [B,] P).
    A non-finite field raises `DivergenceError` with the step index.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    n_steps = step_count(horizon, _history_step(hist, p, grid))
    values = np.empty((n_steps + 1, *hist.shape[1:]))
    values[0] = hist[-1]
    n = 1
    for block in evolve(hist, n_steps, p, grid):
        values[n:n + len(block)] = block
        n += len(block)
    return values


def step_count(t: float, dt: float) -> int:
    """The whole steps of ``dt`` that cover ``t``: ceil(t / dt), forgiving
    1e-9 of a step of rounding, and 0 for t <= 0.  A count past sys.maxsize
    (t / dt may be inf) saturates there, beyond any step cap."""
    x = t / dt - 1e-9
    return max(0, math.ceil(x)) if x < sys.maxsize else sys.maxsize


def grid_step(t: float, dt: float) -> int:
    """The step n >= 0 with t = n dt (to 1e-9 steps); ValueError otherwise,
    also for t < 0 and for a non-finite t / dt."""
    x = t / dt
    if t < 0 or not math.isfinite(x) or abs(x - round(x)) > 1e-9:
        raise ValueError(f"time {t} is not aligned to the dt grid at or after 0")
    return int(round(x))


def segment_at(hist: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Copy of the segment u_{n dt}(theta) = u(n dt + theta): rows n .. n + S
    of concat(hist[:-1], values), for the history ``hist`` (S + 1 rows)
    and the trajectory rows ``values`` that `integrate` returns from it.
    For n < S the segment mixes history rows with computed ones."""
    if not 0 <= n < len(values):
        raise ValueError(f"step {n} outside the trajectory range")
    S = len(hist) - 1
    return np.concatenate([hist[min(n, S):S], values[max(0, n - S):n + 1]])


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


def segment_norm(samples: np.ndarray, grid: Grid) -> float:
    """Segment sup-norm: max over the rows of ``samples`` of the grid L2 norm."""
    return float(np.max(row_norms(samples, grid)))


def far_field_masses(samples: np.ndarray, grid: Grid, K: float) -> np.ndarray:
    """Tail mass integral_{|x| >= K} u^2 dx of each row of ``samples`` (the
    grid on the last axis).  The tail is a C-ordered copy summed along its
    rows, so every row is summed pairwise whatever the leading axes are."""
    tail = np.compress(np.abs(grid.nodes) >= K, samples, axis=-1)
    np.square(tail, out=tail)
    return grid.spacing * np.sum(tail, axis=-1)


def far_field_mass(samples: np.ndarray, grid: Grid, K: float) -> float:
    """Largest tail mass over the rows of ``samples``:
    sup_j integral_{|x| >= K} u(theta_j)^2 dx."""
    return float(np.max(far_field_masses(samples, grid, K)))
