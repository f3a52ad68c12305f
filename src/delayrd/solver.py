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
multiplier between transforms) and the load as arguments: the method of
steps on coefficients, a block of rows at a time.  `evolve` is the
equation's march (the rfft pair, the S(dt) multiplier and the delayed load
above, written only there).  The CLI stores no trajectory: `simulate` and
`squeezing` reduce `evolve`'s rows as they come; `integrate` stores every
row, for tests, demos and `estimates`.  `spectrum` marches a scalar decay
per Dirichlet mode.  Rows may carry a batch axis, so several histories or
a set of modes advance as one array.

A history is the array of its S + 1 rows u(theta_j), theta_j = -tau + j dt,
shaped (S + 1, [B,] P), and a trajectory the (N + 1, [B,] P) array of rows
u(0) .. u(N dt); the grid and the parameters travel next to them, so
``evolve(hist, n_steps, p, grid)`` takes dt = p.tau / S from the row count.
A segment u_t is S + 1 consecutive rows, so every segment sup is a per-row
quantity reduced by a window max: `segment_sups` at every step of stored
rows, `window_sups` at some steps of marched ones.
"""

from __future__ import annotations

import functools
import math
import sys
from bisect import bisect_left, bisect_right
from collections import deque
from itertools import chain

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
    "window_sups",
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


#: Most floats in a block of rows `march` steps on its coefficients (at
#: least one row).  `evolve`, 512 steps at S = 64, best of 15 ms (2 vCPU
#: x86-64, numpy 2.4), whole interval/16k/32k: 9.0/7.3/7.5 on 1024 floats,
#: 18.0/14.0/13.4 on 2 x 1024, 35.5/27.7/25.7 on 4 x 1024, 69.5/54.9/51.1 on
#: 8 x 1024 (52.4 step by step).  On squeeze's 4 x 1024 rows 32k took 7% off
#: its wall for 0.45 MB more peak RSS than 16k.
BLOCK_FLOATS = 32768


def march(hist, n_steps: int, dt: float, multiplier, transforms, load):
    """Step the trapezoid recurrence from a history, yielding its new rows.

    ``hist`` holds the history rows u_{-S} .. u_0 on its leading axis.
    With (F, F^-1) = ``transforms`` and k_n = dt/2 * load(u_{n-S}), step n
    computes u_n = F^-1(multiplier * F(u_{n-1} + k_{n-1})) + k_n; the march
    yields u_1 .. u_{n_steps} as blocks of consecutive rows.  F, F^-1 (the
    rfft pair, or identities) and ``load`` act on the last axis; ``load``
    returns a fresh array and F^-1 a fresh array or its argument.

    Coefficients c_n = multiplier * (c_{n-1} + F(k_{n-1})) + F(k_n) fill
    a fresh block of at most `BLOCK_FLOATS` floats, and one F^-1 call gives
    its rows (by Parseval max|c_n| >= max|u_n|).  Once yielded, the block
    takes one ``load`` and one F call for the loads a step S later reads,
    so at most S rows of load coefficients are pending.  F acts row by
    row: the rows do not depend on the block size.

    A yielded block is never written again; a caller may keep it but must
    not write to it.  A non-finite entry raises `DivergenceError` with the
    step index, after the rows before it are yielded; the step arithmetic
    silences numpy's overflow and invalid warnings (never across a yield).
    """
    forward, inverse = transforms
    quiet = functools.partial(np.errstate, over="ignore", invalid="ignore")

    def loads(rows):  # F(k) of each row
        with quiet():
            k = load(rows)
            k *= 0.5 * dt
            return forward(k)

    S, size = len(hist) - 1, max(1, BLOCK_FLOATS // hist[0].size)
    with quiet():
        last, c = loads(hist[:1])[0], forward(hist[-1])  # F(k_0), c_0
    pending = deque(loads(hist[j:j + size])  # the history chunks a step reads
                    for j in range(1, min(S, n_steps) + 1, size))
    n = 0
    while n < n_steps:
        ahead = pending.popleft()  # F(k_{n+1}) .., one per step
        m = min(len(ahead), n_steps - n)
        coeffs = np.empty((m, *c.shape), c.dtype)
        with quiet():
            for i in range(m):
                c_new, k_new = coeffs[i, ...], ahead[i]  # [i, ...] is a view even of 0-d rows
                np.add(c, last, out=c_new)
                c_new *= multiplier
                c_new += k_new
                c, last = c_new, k_new
            block = inverse(coeffs)
        if not np.isfinite(block).all():
            bad = int(np.argmin(np.isfinite(block.reshape(m, -1)).all(axis=1)))
            if bad:
                yield block[:bad]
            raise DivergenceError(n + bad + 1)
        c, last = c.copy(), last.copy()  # coeffs and ahead go before the next
        del coeffs, ahead
        yield block
        if n + S < n_steps:  # a step still reads these rows' loads
            pending.append(loads(block))
        n += m


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
        h = evaluate_nonlinearity(p.nonlinearity, d)  # a fresh array
        h += p.sigma * d
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


def window_sups(hist, blocks, steps, quantity) -> np.ndarray:
    """Entry i is the max of ``quantity(rows)`` (per row, on the leading
    axis) over rows steps[i] - S .. steps[i], where ``hist``'s S + 1 rows
    are rows -S .. 0 and `march`'s ``blocks`` yield rows 1, 2, ....  The
    history goes in chunks of the march's block size, ``quantity`` sees only
    rows some window holds, and no block after row max(steps) is drawn."""
    S, size = len(hist) - 1, max(1, BLOCK_FLOATS // hist[0].size)
    marks, sups, start = sorted(set(steps)), {}, -S  # start: the chunk's first row
    rows = [r for m, n in zip([-S - 1, *marks], marks)  # the held rows, ascending
            for r in range(max(n - S, m + 1), n + 1)]
    for chunk in chain((hist[j:j + size] for j in range(0, S + 1, size)), blocks):
        end = start + len(chunk)
        if held := rows[bisect_left(rows, start):bisect_left(rows, end)]:
            a, b = held[0] - start, held[-1] - start + 1
            q = quantity(chunk[a:b] if b - a == len(held) else chunk[np.subtract(held, start)])
            for n in marks[bisect_left(marks, start):bisect_left(marks, end + S)]:
                top = q[bisect_left(held, n - S):bisect_right(held, n)].max(axis=0)
                sups[n] = np.maximum(sups[n], top) if n in sups else top
        if end > marks[-1]:
            return np.stack([sups[n] for n in steps])
        start = end
    raise ValueError(f"the blocks end at row {start}, before step {marks[-1]}")


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
