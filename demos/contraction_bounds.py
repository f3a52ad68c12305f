"""Measured versus certified contraction of solution differences.

Splits the difference of two nearby solutions into the inside modal part, the
complementary inside part, and the outside remainder, and compares the decay
of each piece against its analytic envelope.
"""

from dataclasses import replace

import numpy as np

from delayrd.cli import eigenmode_pair
from delayrd.estimates import compute_estimates
from delayrd.model import ForcingSpec, Grid, NonlinearitySpec, ProblemParameters, evaluate_forcing
from delayrd.semigroup import field_norm
from delayrd.spectrum import dichotomy_constant, spectral_partition
from delayrd.squeezing import analytic_bounds, make_projections, measure_contraction

grid = Grid(half_length=16.0, points=512)
raw = evaluate_forcing(ForcingSpec(kind="gaussian_bump", amplitude=1.0), grid.nodes)
p = ProblemParameters(
    mu=2.0, sigma=0.1, tau=0.5, lf=1.0,
    forcing=ForcingSpec(kind="gaussian_bump", amplitude=1.0 / field_norm(raw, grid)),
    nonlinearity=NonlinearitySpec(kind="scaled_tanh", scale=1.0),
)
est = compute_estimates(p, norm_g=1.0, norm_phi0=1.0)

spectral = spectral_partition(p, K=3.0, m_cut=3, modes=8)
rng = np.random.default_rng(np.random.PCG64(2024))
report = dichotomy_constant(p, spectral, samples=16, rng=rng)
spectral = replace(spectral, K_m=report["K_m"])
print(f"kept modes k_m = {spectral.k_m}, rates rho_1 = {spectral.rho1:.4f}, "
      f"rho_m = {spectral.rho_m:.4f}, K_m = {spectral.K_m:.4f}")

ps = make_projections(grid, K=spectral.K, k_m=spectral.k_m)
phi, psi = eigenmode_pair(rng, grid, p, spectral, 32, norm=1.0, separation=0.3)

times = (0.25, 0.5, 1.0, 1.5)
_, measured = measure_contraction([(phi, psi)], times, p, ps)
print(f"\n{'t':>5} {'part':>5} {'measured':>12} {'bound':>12} {'ratio':>8}")
for t, parts in zip(times, measured[0]):
    b = analytic_bounds(t, p, spectral, est)
    for part, value in zip("PQR", parts):
        bound = b[f"b{part}"]
        print(f"{t:5.2f} {part:>5} {value:12.6f} {bound:12.6f} {value / bound:8.4f}")
