"""Absorbing-ball entry times.

Computes the closed-form constants for a dissipative parameter set, tabulates
the certified entry time T_D for histories of growing size, then launches one
large random history and watches the segment norm actually cross into the
ball well before the certified time.
"""

import math

import numpy as np

from delayrd.cli import random_history
from delayrd.estimates import absorbing_time, compute_estimates, verify_absorption
from delayrd.model import ForcingSpec, Grid, NonlinearitySpec, ProblemParameters, evaluate_forcing
from delayrd.semigroup import field_norm
from delayrd.solver import integrate, segment_at, segment_norm, segment_sups

grid = Grid(half_length=16.0, points=512)
raw = evaluate_forcing(ForcingSpec(kind="gaussian_bump", amplitude=1.0), grid.nodes)
amp = 1.0 / field_norm(raw, grid)
p = ProblemParameters(
    mu=2.0, sigma=0.1, tau=0.5, lf=1.0,
    forcing=ForcingSpec(kind="gaussian_bump", amplitude=amp),
    nonlinearity=NonlinearitySpec(kind="scaled_tanh", scale=1.0),
)
est = compute_estimates(p, norm_g=1.0)

print(f"mu={p.mu:g} sigma={p.sigma:g} tau={p.tau:g} L_f={p.lf:g}")
print(f"beta = {est.beta:.6f} (dissipative: {est.dissipative})")
print(f"absorbing radius c3 = {est.c3:.6f}")
print()
print(f"{'D / c3':>8} {'T_D':>10}")
for mult in (1.5, 3.0, 10.0, 30.0, 100.0):
    D = mult * est.c3
    print(f"{mult:8.1f} {absorbing_time(p, est, D):10.4f}")

# doubling D costs at most ln 2 / (mu - beta) extra waiting time
slack = math.log(2.0) / (p.mu - est.beta)
print(f"\ncertified doubling increment ln2/(mu-beta) = {slack:.4f}")

D = 10.0 * est.c3
T_D = absorbing_time(p, est, D)
rng = np.random.default_rng(7)
S = 32
phi = random_history(rng, grid, p.tau, S, 0.9 * D)
values = integrate(phi, T_D + 2.0 + p.tau, p, grid)
dt = p.tau / S

print(f"\nstart norm {segment_norm(phi, grid):.4f}, certified entry by T_D = {T_D:.4f}")
sups = segment_sups(field_norm(phi, grid), field_norm(values, grid))
report = verify_absorption(sups, dt, est, T_D)
print(f"measured sup after T_D: {report['max_segment_norm']:.4f} "
      f"(threshold {report['threshold']:.4f}, ok={report['ok']})")

# the actual crossing is usually much earlier than the certificate
t, n = p.tau, S
while segment_norm(segment_at(phi, values, n), grid) > est.c3:
    t += dt
    n += 1
print(f"first segment inside the ball at t = {t:.3f}")
