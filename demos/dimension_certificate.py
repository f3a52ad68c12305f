"""End-to-end dimension certificate for a strongly damped parameter set.

Walks the full pipeline: closed-form constants, root partition, sampled
dichotomy constant, then the grid search over the free parameters of the
Hausdorff and fractal bounds for each cut, keeping the best.  Finishes
with a covering-count sanity check.
"""

from dataclasses import replace

import numpy as np

from delayrd.dimension import covering_bound, covering_bruteforce, optimize_certificate
from delayrd.estimates import compute_estimates
from delayrd.model import ForcingSpec, NonlinearitySpec, ProblemParameters
from delayrd.spectrum import dichotomy_constant, spectral_partition

p = ProblemParameters(
    mu=6.0, sigma=0.1, tau=0.1, lf=0.5,
    forcing=ForcingSpec(kind="gaussian_bump", amplitude=0.5),
    nonlinearity=NonlinearitySpec(kind="scaled_tanh", scale=0.5),
)
est = compute_estimates(p, norm_g=0.5)
print(f"mu={p.mu:g} sigma={p.sigma:g} tau={p.tau:g} L_f={p.lf:g}: "
      f"beta={est.beta:.4f}, c3={est.c3:.4f}")

candidates = []
for m_cut in (1, 2, 3):
    spectral = spectral_partition(p, K=3.0, m_cut=m_cut, modes=8)
    rng = np.random.default_rng(np.random.PCG64(11))
    spectral = replace(spectral, K_m=dichotomy_constant(p, spectral, samples=12, rng=rng)["K_m"])
    candidates.append(spectral)
    print(f"m_cut={m_cut}: k_m={spectral.k_m}, rho_1={spectral.rho1:.4f}, "
          f"rho_m={spectral.rho_m:.4f}, K_m={spectral.K_m:.4f}")

certificates = [optimize_certificate(p, spectral, est) for spectral in candidates]
for mode in ("hausdorff", "fractal"):
    # the best cut: the smallest bound, then the smallest contraction number
    cert = min((c[mode] for c in certificates),
               key=lambda c: (getattr(c, f"{mode}_bound"), c.best_contraction))
    knob = (f"alpha={cert.alpha:g}" if cert.alpha is not None
            else f"beta_free={cert.beta_free:g}")
    print(f"\n{mode} certificate: feasible={cert.feasible}")
    print(f"  k_m={cert.k_m}, t0={cert.t0:g}, {knob}")
    print(f"  contraction factor {cert.best_contraction:.3e}")
    bound = cert.hausdorff_bound if mode == "hausdorff" else cert.fractal_bound
    print(f"  dimension bound {bound:.4g}")

print("\ncovering sanity (achieved <= certified):")
for m, r1, r2 in ((1, 2.0, 1.0), (2, 2.0, 1.0), (2, 5.0, 0.7)):
    achieved = covering_bruteforce(m, r1, r2)
    print(f"  m={m}, r1/r2={r1 / r2:.2f}: {achieved} <= {covering_bound(m, r1, r2)}")
