"""Convergence study for the delay integrator.

Runs a spatially constant problem (so an ODE solver at tight tolerances can
serve as the reference) at a ladder of step sizes and prints the error
ratios, which should approach 4 for a second-order scheme.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp

from delayrd.model import ForcingSpec, Grid, NonlinearitySpec, ProblemParameters
from delayrd.solver import history_from_function, integrate

p = ProblemParameters(
    mu=1.0, sigma=0.5, tau=1.0, lf=0.5,
    forcing=ForcingSpec(),
    nonlinearity=NonlinearitySpec(kind="scaled_tanh", scale=0.5),
)
grid = Grid(half_length=16.0, points=512)
horizon = 3.0

psi = lambda theta: 0.8 + 0.3 * math.sin(2.0 * theta)

# reference value by stepping the scalar equation one delay window at a time
pieces = [psi]
t0, u0 = 0.0, psi(0.0)
while t0 < horizon - 1e-12:
    t1 = min(t0 + p.tau, horizon)
    prev = pieces[-1]
    rhs = lambda t, y, prev=prev: (-p.mu * y[0] + p.sigma * prev(t - p.tau)
                                   + 0.5 * math.tanh(prev(t - p.tau)))
    sol = solve_ivp(rhs, (t0, t1), [u0], rtol=1e-12, atol=1e-14,
                    dense_output=True, method="DOP853")
    pieces.append(lambda t, s=sol.sol, lo=t0, hi=t1: float(s(np.clip(t, lo, hi))[0]))
    t0, u0 = t1, float(sol.y[0, -1])
reference = u0
print(f"reference u({horizon:g}) = {reference:.12f}")
print(f"{'steps/delay':>12} {'value':>16} {'abs error':>12} {'ratio':>8}")

last = None
for spd in (8, 16, 32, 64, 128):
    phi = history_from_function(lambda x, th: np.full_like(x, psi(th)), grid, p.tau, spd)
    u = float(integrate(phi, horizon, p, grid)[-1][0])
    err = abs(u - reference)
    ratio = "" if last is None else f"{last / err:8.2f}"
    print(f"{spd:12d} {u:16.12f} {err:12.3e} {ratio}")
    last = err
