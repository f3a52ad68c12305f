"""Linear semigroup S(t) generated by Laplacian - mu*I.

On the periodic truncation the generator is diagonal in transform space, so
S(t) acts exactly as multiplication of each real-transform mode xi by
exp(-(mu + xi^2) t).  This removes every trace of time-stepping error from
the linear part: the only approximation is the box truncation itself.

Key properties (each covered by tests):

* contraction:        ||S(t) phi|| <= exp(-mu t) ||phi||,
* constants:          S(t)[a] = a exp(-mu t)  (the xi = 0 mode),
* semigroup law:      S(t1 + t2) = S(t2) S(t1),
* positivity:         phi >= 0  implies  S(t) phi >= 0 (up to roundoff).

A field is a row of node values with the `Grid` it is sampled on, passed
as the pair ``(values, grid)``: `field_norm` reduces one row or a block of
rows on any leading axes (the package's one L2 row norm), `gradient_norm`
reduces one row, and `apply_semigroup` returns the evolved row.
"""

from __future__ import annotations

import math

import numpy as np

from .model import Grid

__all__ = [
    "SemigroupStepper",
    "apply_semigroup",
    "field_norm",
    "gradient_norm",
    "semigroup_decay_check",
]


def field_norm(values: np.ndarray, grid: Grid):
    """Grid-weighted L2 norm sqrt(h * sum(values^2)) of each row, the grid on
    the last axis: a scalar for one row, an array over any leading axes."""
    return np.sqrt(grid.spacing * np.sum(values * values, axis=-1))


def gradient_norm(values: np.ndarray, grid: Grid) -> float:
    """L2 norm of the spatial derivative of one row, evaluated spectrally.

    By Parseval on the periodic box this equals
    sqrt(sum_k xi_k^2 |phi_hat_k|^2) with the same h-weighted convention
    as `field_norm`.
    """
    coeff = np.fft.rfft(values)
    xi = grid.frequencies
    # Parseval for the real transform: interior modes count twice.  The
    # points are a power of two >= 2, so the last mode is the Nyquist one.
    weights = np.full(xi.shape, 2.0)
    weights[0] = weights[-1] = 1.0
    power = weights * (xi * np.abs(coeff)) ** 2
    return math.sqrt(grid.spacing * float(np.sum(power)) / grid.points)


def apply_semigroup(t: float, values: np.ndarray, grid: Grid, mu: float) -> np.ndarray:
    """Evolve a row by the heat-decay semigroup for a duration t >= 0:
    exp(-mu t) times the periodic heat evolution of ``values``, computed as
    multiplication by exp(-(mu + xi^2) t) on each mode.  t = 0 returns the
    input unchanged."""
    if t < 0:
        raise ValueError("semigroup duration must be nonnegative")
    if t == 0:
        return values
    return SemigroupStepper(grid, mu, t).step(values)


def semigroup_decay_check(values: np.ndarray, grid: Grid, t: float, mu: float) -> dict:
    """Check the contraction estimate ||S(t) phi|| <= exp(-mu t) ||phi||.

    Returns {"lhs", "rhs", "ok"} with ok allowing a 1e-10 relative
    roundoff margin.  Constant rows saturate the bound exactly.
    """
    lhs = field_norm(apply_semigroup(t, values, grid, mu), grid)
    rhs = math.exp(-mu * t) * field_norm(values, grid)
    return {"lhs": lhs, "rhs": rhs, "ok": lhs <= rhs * (1.0 + 1e-10)}


class SemigroupStepper:
    """Cached one-step propagator for a fixed (grid, mu, dt).

    The integrator applies the same S(dt) thousands of times; caching the
    mode multiplier avoids recomputing the exponential each step.  It is
    stored complex, so the rfft coefficients take it without a cast.
    """

    def __init__(self, grid: Grid, mu: float, dt: float):
        if dt <= 0:
            raise ValueError("stepper dt must be positive")
        self.grid = grid
        xi = grid.frequencies
        self.multiplier = np.exp(-(mu + xi * xi) * dt).astype(complex)

    def step(self, values: np.ndarray) -> np.ndarray:
        """Apply S(dt) to raw node values."""
        c = np.fft.rfft(values)
        c *= self.multiplier
        return np.fft.irfft(c, n=self.grid.points)
