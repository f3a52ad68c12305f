"""Evolve a Gaussian bump under the damped heat flow and compare with the
closed-form solution.

The transform-space propagator is exact per mode, so the only error left is
the sampling of the initial profile on the periodic box.
"""

import math

import numpy as np

from delayrd.model import Grid
from delayrd.semigroup import apply_semigroup, field_norm

grid = Grid(half_length=16.0, points=4096)
x = grid.nodes
mu = 1.0

phi = np.exp(-0.5 * x * x)

print(f"damped heat flow on [-{grid.half_length:g}, {grid.half_length:g}), "
      f"{grid.points} nodes, mu = {mu:g}")
print(f"{'t':>6} {'L2 norm':>12} {'decay vs e^-mu t':>18} {'max err vs exact':>18}")
for t in (0.25, 0.5, 1.0, 2.0, 4.0):
    out = apply_semigroup(t, phi, grid, mu)
    s2 = 1.0 + 2.0 * t
    exact = math.exp(-mu * t) / math.sqrt(s2) * np.exp(-0.5 * x * x / s2)
    err = float(np.max(np.abs(out - exact)))
    ratio = field_norm(out, grid) / (field_norm(phi, grid) * math.exp(-mu * t))
    print(f"{t:6.2f} {field_norm(out, grid):12.6f} {ratio:18.6f} {err:18.3e}")

print()
print("the L2 ratio stays below 1 because diffusion only adds decay on top")
print("of the uniform e^{-mu t} damping")
