"""Three-way segment decomposition P + Q + R and contraction bounds.

Differences of two trajectories are split into a finite-dimensional part P
(the first k_m sine modes inside the ball Omega_K), its inside complement Q,
and the outside tail R.  Each part obeys an explicit multiplicative
contraction bound in the segment norm:

    ||P (Phi(t)phi - Phi(t)psi)||_C <= bP(t) ||phi - psi||_C,

with

    bP = exp((lf + rho1) t)                     (unit-coefficient form; a
                                                 coefficient-2 variant is
                                                 also in circulation and is
                                                 exposed under a flag),
    bQ = K_m exp(rho_m t)
         + K_m lf / (rho1 + lf - rho_m) * exp((lf + rho1) t),
    bR = sqrt(c2) exp([c2 (sigma + lf^2) - (mu - sigma - 1)] t / 2).

`measure_contraction` integrates a pair of histories once, as a batch of
two, and reports the measured ratios next to the bounds at each of the
requested times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimates import EstimateSet
from .model import Grid, ProblemParameters
from .solver import HistorySegment, integrate, segment_at, segment_norm
from .spectrum import SpectralData

__all__ = [
    "ProjectionSet",
    "analytic_bounds",
    "make_projections",
    "measure_contraction",
    "project_P",
    "project_Q",
    "project_R",
]


@dataclass(frozen=True)
class ProjectionSet:
    """Discrete realization of the projections P, Q, R.

    ``basis`` holds k_m columns, orthonormal under the h-weighted inner
    product and supported on the nodes inside Omega_K; P is the induced
    orthogonal projection, Q the inside complement, R the outside
    restriction.  P + Q + R reassembles the identity exactly.
    """

    grid: Grid
    K: float
    k_m: int
    basis: np.ndarray
    inside: np.ndarray

    def coefficients(self, values: np.ndarray) -> np.ndarray:
        return self.grid.spacing * (self.basis.T @ values)


def make_projections(grid: Grid, K: float, k_m: int) -> ProjectionSet:
    """Build the projection set for a cutoff radius and mode count.

    The raw sine modes sin(j pi (x + K) / (2K)) are sampled on the grid
    nodes inside |x| < K and re-orthonormalized by QR so that the discrete
    projection is exactly idempotent even when K is not commensurate with
    the grid spacing.
    """
    if K <= 0:
        raise ValueError("K must be positive")
    if k_m < 1:
        raise ValueError("k_m must be at least 1")
    x = grid.nodes
    inside = np.abs(x) < K
    n_inside = int(np.sum(inside))
    if n_inside < k_m:
        raise ValueError(
            f"only {n_inside} grid nodes inside Omega_K; cannot hold {k_m} modes"
        )
    columns = np.zeros((grid.points, k_m))
    xi = x[inside]
    for j in range(1, k_m + 1):
        columns[inside, j - 1] = np.sin(j * math.pi * (xi + K) / (2.0 * K))
    # orthonormalize w.r.t. the h-weighted inner product
    q, _ = np.linalg.qr(math.sqrt(grid.spacing) * columns)
    basis = q / math.sqrt(grid.spacing)
    return ProjectionSet(grid=grid, K=K, k_m=k_m, basis=basis, inside=inside)


def _apply_rows(seg: HistorySegment, transform) -> HistorySegment:
    rows = np.stack([transform(row) for row in seg.samples])
    return HistorySegment(rows, seg.grid, seg.tau, seg.steps_per_delay)


def project_P(seg: HistorySegment, ps: ProjectionSet) -> HistorySegment:
    """Restrict to Omega_K, expand in the sine basis, keep modes 1..k_m."""
    def transform(row):
        return ps.basis @ ps.coefficients(np.where(ps.inside, row, 0.0))
    return _apply_rows(seg, transform)


def project_Q(seg: HistorySegment, ps: ProjectionSet) -> HistorySegment:
    """Inside complement: restriction to Omega_K minus the P part."""
    def transform(row):
        restricted = np.where(ps.inside, row, 0.0)
        return restricted - ps.basis @ ps.coefficients(restricted)
    return _apply_rows(seg, transform)


def project_R(seg: HistorySegment, ps: ProjectionSet) -> HistorySegment:
    """Outside restriction: multiply by the indicator of Omega_K^C."""
    def transform(row):
        return np.where(ps.inside, 0.0, row)
    return _apply_rows(seg, transform)


def analytic_bounds(t: float, p: ProblemParameters, spectral: SpectralData,
                    est: EstimateSet, which: str = "bound_63") -> dict:
    """The three contraction factors at elapsed time t.

    ``which`` selects the P coefficient: "bound_63" (coefficient 1,
    default) or "bound_316" (coefficient 2).  Requires the dichotomy
    constant on ``spectral``.  A vanishing gap rho1 + lf - rho_m makes the
    Q bound infeasible (returned as inf with ``feasible`` False).
    """
    if which not in ("bound_63", "bound_316"):
        raise ValueError("which must be 'bound_63' or 'bound_316'")
    if spectral.K_m is None:
        raise ValueError("spectral data has no dichotomy constant (run dichotomy_constant)")
    if t < 0:
        raise ValueError("t must be nonnegative")
    K_m, rho1, rho_m = spectral.K_m, spectral.rho1, spectral.rho_m
    coefficient = 1.0 if which == "bound_63" else 2.0
    bP = coefficient * math.exp((p.lf + rho1) * t)
    gap = rho1 + p.lf - rho_m
    if gap == 0.0:
        bQ = math.inf
        feasible = False
    else:
        bQ = K_m * math.exp(rho_m * t) + K_m * p.lf / gap * math.exp((p.lf + rho1) * t)
        feasible = True
    rate = est.c2 * (p.sigma + p.lf * p.lf) - (p.mu - p.sigma - 1.0)
    bR = math.sqrt(est.c2) * math.exp(0.5 * rate * t)
    return {"bP": bP, "bQ": bQ, "bR": bR, "feasible": feasible, "which": which}


def measure_contraction(phi: HistorySegment, psi: HistorySegment, times,
                        p: ProblemParameters, ps: ProjectionSet,
                        spectral: SpectralData = None, est: EstimateSet = None,
                        which: str = "bound_63") -> list:
    """Integrate a pair of histories and measure projected contraction.

    The pair advances as one batch of two, once, to ``max(times)``.  For
    each t in ``times``, in order, the report holds the measured
    ||P d_t||_C, ||Q d_t||_C, ||R d_t||_C, each divided by
    ||phi - psi||_C (d_t is the difference segment at time t), plus the
    analytic bounds when spectral/estimate data is supplied.  Identical
    inputs are not integrated and yield "zero-difference" reports.
    """
    S = phi.steps_per_delay
    denom = segment_norm(HistorySegment(phi.samples - psi.samples, phi.grid, phi.tau, S))
    if denom == 0.0:
        return [{"status": "zero-difference", "t": t} for t in times]
    pair = HistorySegment(np.stack([phi.samples, psi.samples], axis=1), phi.grid, phi.tau, S)
    traj = integrate(pair, max(times), p)
    reports = []
    for t in times:
        rows = segment_at(traj, t).samples
        diff = HistorySegment(rows[:, 0] - rows[:, 1], phi.grid, phi.tau, S)
        report = {
            "status": "ok",
            "t": t,
            "denominator": denom,
            "measured_P": segment_norm(project_P(diff, ps)) / denom,
            "measured_Q": segment_norm(project_Q(diff, ps)) / denom,
            "measured_R": segment_norm(project_R(diff, ps)) / denom,
        }
        if spectral is not None and est is not None:
            bounds = analytic_bounds(t, p, spectral, est, which=which)
            report.update(
                bound_P=bounds["bP"], bound_Q=bounds["bQ"], bound_R=bounds["bR"],
                bounds_feasible=bounds["feasible"], which=which,
            )
        reports.append(report)
    return reports
