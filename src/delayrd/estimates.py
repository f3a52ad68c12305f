"""Closed-form a priori constants and their empirical verification.

The dissipativity gate beta = sigma*(lf+1)*exp(mu*tau) < mu
(`DISSIPATIVITY_CONDITION`, evaluated only in `compute_estimates`) yields an
absorbing ball of radius

    c3 = 2 * (||g||/mu + ||g|| beta / (mu (mu - beta))),

entered before the absorbing time T_D computed from the explicit decay of
the history-dependent terms.  Under the stronger gap mu - sigma - 1 > 0 the
energy machinery produces

    c1 = (||g||^2 / mu + 2 ||f(0)||^2) / (mu - sigma - 1),
    c2 = exp((mu - sigma - 1) tau),
    c4 = c2 ||phi(0)||^2 / 2 + (sigma + lf^2) c3^2 / (mu - sigma - 1) + c1 / 2,
    c5 = sqrt(c4) + ((mu + sigma + lf) c3 + ||f(0)|| + ||g||) (1 + tau),

bounding the time integral of the squared C^1 segment norm and the time
modulus of continuity respectively.  Constants whose sign conditions fail
are reported as infinite with feasibility flags — an infeasible certificate
is data, not an error.

All catalog nonlinearities satisfy f(0) = 0, so the ||f(0)|| terms vanish;
they are kept in the formulas for fidelity.

The verifiers take per-step segment sups (a `solver.segment_sups` of row
values, one per step n dt), as ``simulate`` gathers them while streaming
the rows: segment norms, gradient sups and tail masses respectively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ProblemParameters
from .solver import step_count
# Not called here, but perfbench/tracing.py patches these names in this module.
from .solver import far_field_mass, segment_at, segment_norm  # noqa: F401

__all__ = [
    "DISSIPATIVITY_CONDITION",
    "EstimateSet",
    "absorbing_time",
    "compute_estimates",
    "far_field_radii",
    "verify_absorption",
    "verify_energy_integral",
    "verify_far_field",
]

#: Relative allowance used when comparing certificates against measured
#: trajectory quantities (discretization slack, distinct from arithmetic
#: tolerances which are 1e-12).
CERTIFICATE_TOLERANCE = 0.05

#: The absorbing-set gate as ``estimates.json`` states it; `compute_estimates`
#: evaluates it as beta < mu.
DISSIPATIVITY_CONDITION = "sigma*(L_f+1)*exp(mu*tau) - mu < 0"


@dataclass(frozen=True)
class EstimateSet:
    """The closed-form constants for one parameter set.

    Infeasible entries (failed sign conditions) are ``math.inf`` and the
    corresponding flag is False.  ``absorbing_radius`` aliases c3.
    """

    beta: float
    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    c4_alt: float
    gradient_bound: float
    absorbing_radius: float
    dissipative: bool
    energy_feasible: bool
    norm_g: float
    norm_phi0: float


def compute_estimates(p: ProblemParameters, norm_g: float, norm_phi0: float = 0.0) -> EstimateSet:
    """Evaluate every closed-form constant for the given data norms.

    Parameters
    ----------
    p : ProblemParameters
    norm_g : float
        L2 norm of the forcing over the whole line, not on the periodic
        box (the CLI passes the closed form of its forcing bump).
    norm_phi0 : float, optional
        Norm of the history endpoint phi(0); enters only c4.

    Returns
    -------
    EstimateSet
        With beta = sigma*(lf+1)*exp(mu*tau), the gate flag ``dissipative``
        (beta < mu), and infeasible entries set to inf rather than raising:
        c3 requires beta < mu, c1/c4/c5 additionally need mu - sigma - 1 > 0,
        c4_alt further needs mu - sigma - 1 > c3.
    """
    beta = p.sigma * (p.lf + 1.0) * math.exp(p.mu * p.tau)
    dissipative = beta < p.mu
    gap = p.mu - p.sigma - 1.0
    energy_feasible = gap > 0
    norm_f0 = 0.0  # every catalog nonlinearity vanishes at 0

    if dissipative:
        c3 = 2.0 * (norm_g / p.mu + norm_g * beta / (p.mu * (p.mu - beta)))
    else:
        c3 = math.inf

    c2 = math.exp(gap * p.tau)
    if energy_feasible:
        c1 = (norm_g * norm_g / p.mu + 2.0 * norm_f0 * norm_f0) / gap
    else:
        c1 = math.inf

    if energy_feasible and dissipative:
        c4 = 0.5 * c2 * norm_phi0 * norm_phi0 + (p.sigma + p.lf * p.lf) * c3 * c3 / gap + 0.5 * c1
        c5 = math.sqrt(c4) + ((p.mu + p.sigma + p.lf) * c3 + norm_f0 + norm_g) * (1.0 + p.tau)
        gradient_bound = c4 + 2.0 * (p.sigma * p.sigma + p.lf * p.lf) * c3 * c3 + 2.0 * norm_g * norm_g
    else:
        c4 = c5 = gradient_bound = math.inf

    if energy_feasible and dissipative and gap > c3:
        c4_alt = 2.0 * c1 * gap / (gap - c3)
    else:
        c4_alt = math.inf

    return EstimateSet(
        beta=beta,
        c1=c1,
        c2=c2,
        c3=c3,
        c4=c4,
        c5=c5,
        c4_alt=c4_alt,
        gradient_bound=gradient_bound,
        absorbing_radius=c3,
        dissipative=dissipative,
        energy_feasible=energy_feasible,
        norm_g=norm_g,
        norm_phi0=norm_phi0,
    )


def _entry_gap(p: ProblemParameters, est: EstimateSet, norm_D: float, T: float) -> float:
    """Left side of the absorbing-entry inequality minus its threshold.

    Entry holds once exp(mu (tau - T)) D + exp(mu tau) D exp((beta - mu) T)
    drops below c3 / 2; the left side is strictly decreasing in T whenever
    the configuration is dissipative.  Each term has one exponential, so
    no overflowing factor meets an underflowing one (inf * 0 = NaN).
    """
    lhs = norm_D * (math.exp(p.mu * (p.tau - T))
                    + math.exp(p.mu * p.tau + (est.beta - p.mu) * T))
    return lhs - 0.5 * est.c3


def absorbing_time(p: ProblemParameters, est: EstimateSet, norm_D: float) -> float:
    """Smallest T after which every history with ||phi||_C <= norm_D has
    entered the absorbing ball.

    Computed by monotone bisection on the explicit exponential left side
    of the entry inequality.  norm_D = 0 gives T = 0; a non-dissipative
    configuration (or a degenerate ball c3 = 0 with norm_D > 0) gives inf.
    """
    if norm_D < 0:
        raise ValueError("norm_D must be nonnegative")
    if not est.dissipative:
        return math.inf
    if norm_D == 0.0 or _entry_gap(p, est, norm_D, 0.0) <= 0.0:
        return 0.0
    if est.c3 <= 0.0:
        return math.inf

    hi = max(p.tau, 1.0)
    while _entry_gap(p, est, norm_D, hi) > 0.0:
        hi *= 2.0
        if hi > 1e9:
            return math.inf
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _entry_gap(p, est, norm_D, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def verify_absorption(sups, dt: float, est: EstimateSet, T: float) -> dict:
    """Measure sup_{t >= T} ||u_t||_C on a trajectory and compare to c3.

    ``sups[n]`` is ||u_{n dt}||_C, the `segment_sups` of `row_norms`.  T is
    rounded up to the step grid and must not lie past the horizon
    (ValueError); at T = horizon only the last segment is measured.
    Returns a report with the measured maximum, the certified threshold
    c3 * (1 + CERTIFICATE_TOLERANCE), and the verdict flag.
    """
    steps = len(sups) - 1
    n0 = step_count(T, dt)
    if n0 > steps:
        raise ValueError("trajectory horizon is shorter than the requested T")
    i = int(np.argmax(sups[n0:]))  # the first maximum on ties
    worst, worst_t = float(sups[n0 + i]), (n0 + i) * dt
    threshold = est.c3 * (1.0 + CERTIFICATE_TOLERANCE)
    return {
        "max_segment_norm": worst,
        "argmax_time": worst_t,
        "c3": est.c3,
        "threshold": threshold,
        "ok": bool(worst <= threshold),
        "from_time": n0 * dt,
        "samples": steps + 1 - n0,
    }


def verify_energy_integral(sups, dt: float, est: EstimateSet, t_start: float = 0.0) -> dict:
    """Check the windowed energy estimate: the trapezoidal integral over
    [t, t+1] of the squared segment gradient sup stays below c4.

    ``sups[n]`` is the segment gradient sup at n dt, the `segment_sups` of
    the rows' `gradient_norm`.  Scans every window start on the step grid
    from ``t_start`` for which [t, t+1] fits inside the horizon.  Returns
    the worst window; if no window fits, raises ValueError.
    """
    steps = len(sups) - 1
    per_unit = int(round(1.0 / dt))
    if abs(per_unit * dt - 1.0) > 1e-9:
        raise ValueError("dt must divide 1 for unit-window energy integrals")
    n_first = step_count(t_start, dt)
    if n_first > steps - per_unit:
        raise ValueError("horizon too short for a unit window from t_start")

    squared = sups * sups
    worst = -math.inf
    worst_t = n_first * dt
    for n in range(n_first, steps - per_unit + 1):
        window = squared[n:n + per_unit + 1]
        integral = dt * (np.sum(window) - 0.5 * (window[0] + window[-1]))
        if integral > worst:
            worst, worst_t = float(integral), n * dt
    threshold = est.c4 * (1.0 + CERTIFICATE_TOLERANCE)
    return {
        "max_integral": worst,
        "argmax_window_start": worst_t,
        "c4": est.c4,
        "threshold": threshold,
        "ok": bool(worst <= threshold),
    }


def far_field_radii(half_length: float) -> list:
    """The doubling grid of far-field radii L/32, L/16, ..., L/2."""
    return [half_length / 2.0 ** k for k in range(5, 0, -1)]


def verify_far_field(sups, dt: float, eps: float, radii) -> dict:
    """Find empirical far-field thresholds (T_emp, R_emp) for a tolerance.

    ``sups`` is (N + 1, len(radii)): entry (n, j) is the segment tail mass
    sup_theta integral_{|x| >= radii[j]} u(n dt + theta)^2 dx, i.e. the
    `segment_sups` of `far_field_masses`.  For each radius K, in the given
    (ascending) order, finds the smallest step time T such that the tail
    mass stays below ``eps`` (> 0) at every step t >= T, and returns the
    first success: a dict with keys ``status`` ("ok" or "inconclusive"),
    ``T_emp``, ``R_emp``, ``tail_at_result`` and ``eps``.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if np.ndim(sups) != 2 or np.shape(sups)[1] != len(radii):
        raise ValueError(f"sups shape {np.shape(sups)}, expected (N + 1, {len(radii)})")
    for K, masses in zip(radii, np.transpose(sups)):
        ok = masses <= eps
        if not ok[-1]:
            continue
        # smallest step with all later steps below eps
        bad = np.flatnonzero(~ok)
        idx = int(bad[-1]) + 1 if bad.size else 0
        return {
            "status": "ok",
            "T_emp": idx * dt,
            "R_emp": float(K),
            "tail_at_result": float(np.max(masses[idx:])),
            "eps": eps,
        }
    return {"status": "inconclusive", "T_emp": math.inf, "R_emp": math.inf,
            "tail_at_result": math.inf, "eps": eps}
