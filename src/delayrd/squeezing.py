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

`measure_contraction` marches its pairs in groups, stacked as one batch,
and stores no trajectory: the march window at step n is the segment at
t = n dt, reduced to its P/Q/R sups only at the contraction steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain, islice

import numpy as np

from .estimates import EstimateSet
from .model import ConfigError, Grid, ProblemParameters
from .solver import HistorySegment, evolve, grid_step, row_norms, segment_norm
from .solver import integrate, segment_at  # noqa: F401  (names looked up by perfbench/tracing.py)
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

    def modes(self, rows: np.ndarray) -> np.ndarray:
        """P part of each row (grid on the last axis): stacked matrix-vector products."""
        coeff = self.grid.spacing * np.matmul(self.basis.T, rows[..., None])
        return np.matmul(self.basis, coeff)[..., 0]


def make_projections(grid: Grid, K: float, k_m: int) -> ProjectionSet:
    """Build the projection set for a cutoff radius and mode count.

    The raw sine modes sin(j pi (x + K) / (2K)) are sampled on the grid
    nodes inside |x| < K and re-orthonormalized by QR so that the discrete
    projection is exactly idempotent even when K is not commensurate with
    the grid spacing.  Fewer than ``k_m`` nodes inside is a ConfigError:
    the grid is too coarse, or the box too large, for the cut.
    """
    if K <= 0:
        raise ValueError("K must be positive")
    if k_m < 1:
        raise ValueError("k_m must be at least 1")
    x = grid.nodes
    inside = np.abs(x) < K
    n_inside = int(np.sum(inside))
    if n_inside < k_m:
        raise ConfigError(
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


def project_P(seg: HistorySegment, ps: ProjectionSet) -> HistorySegment:
    """Restrict to Omega_K, expand in the sine basis, keep modes 1..k_m."""
    return replace(seg, samples=ps.modes(np.where(ps.inside, seg.samples, 0.0)))


def project_Q(seg: HistorySegment, ps: ProjectionSet) -> HistorySegment:
    """Inside complement: restriction to Omega_K minus the P part."""
    restricted = np.where(ps.inside, seg.samples, 0.0)
    return replace(seg, samples=restricted - ps.modes(restricted))


def project_R(seg: HistorySegment, ps: ProjectionSet) -> HistorySegment:
    """Outside restriction: multiply by the indicator of Omega_K^C."""
    return replace(seg, samples=np.where(ps.inside, 0.0, seg.samples))


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


# Pairs marched as one batch.  squeeze on perfbench/configs/squeeze-pairs.json
# (16 pairs, P = 1024, S = 64; fresh process, 2 vCPU x86-64, numpy 2.4) at
# 1/2/4/8/16 pairs per group: peak RSS 43/49/60/83/128 MB, wall 0.81/0.65/
# 0.55/0.50/0.52 s (stored per-pair trajectories: 67 MB, 0.90 s).  Four pairs
# buy most of the speed of larger batches while the RSS stays below that.
_GROUP_PAIRS = 4


def _window_sups(hist: HistorySegment, steps, p: ProblemParameters, ps: ProjectionSet) -> dict:
    """March ``hist`` to max(steps); at each step n in ``steps`` map n to the
    P, Q, R segment sups of the column differences 0 - 1, 2 - 3, ... (arrays
    over the column pairs).  Only the march window is kept, and it is freed
    on return, before the next group is stacked."""
    sups = {}
    windows = chain([(0, hist.samples)], enumerate(evolve(hist, max(steps), p), start=1))
    for n, rows in windows:
        if n in steps:
            diff = replace(hist, samples=np.stack([r[0::2] - r[1::2] for r in rows]))
            sups[n] = [row_norms(project(diff, ps).samples, ps.grid).max(axis=0)
                       for project in (project_P, project_Q, project_R)]
    return sups


def measure_contraction(pairs, times, p: ProblemParameters, ps: ProjectionSet,
                        spectral: SpectralData = None, est: EstimateSet = None,
                        which: str = "bound_63") -> list:
    """Integrate pairs of histories and measure projected contraction.

    ``pairs`` yields (phi, psi) history pairs, taken `_GROUP_PAIRS` at a
    time; each group marches as one batch, once, to its largest step in
    ``times``.  Reports come pair by pair, each pair's in ``times`` order:
    the measured ||P d_t||_C, ||Q d_t||_C, ||R d_t||_C over ||phi - psi||_C
    (d_t is the difference segment at time t), plus the analytic bounds
    when spectral/estimate data is supplied.  Identical inputs are not
    integrated and yield "zero-difference" reports.
    """
    pairs, reports = iter(pairs), []
    while group := list(islice(pairs, _GROUP_PAIRS)):
        first = group[0][0]
        steps = [grid_step(t, first.dt) for t in times]
        denoms = [segment_norm(replace(phi, samples=phi.samples - psi.samples))
                  for phi, psi in group]
        # columns phi0, psi0, phi1, psi1, ... of the pairs that differ
        live = [h.samples for pair, denom in zip(group, denoms) if denom != 0.0 for h in pair]
        sups = {}
        if live:
            sups = _window_sups(replace(first, samples=np.stack(live, axis=1)), steps, p, ps)
        column = 0
        for denom in denoms:
            if denom == 0.0:
                reports += [{"status": "zero-difference", "t": t} for t in times]
                continue
            for t, n in zip(times, steps):
                report = {"status": "ok", "t": t, "denominator": denom}
                report.update({f"measured_{part}": float(sup[column]) / denom
                               for part, sup in zip("PQR", sups[n])})
                if spectral is not None and est is not None:
                    b = analytic_bounds(t, p, spectral, est, which=which)
                    report.update(bound_P=b["bP"], bound_Q=b["bQ"], bound_R=b["bR"],
                                  bounds_feasible=b["feasible"], which=which)
                reports.append(report)
            column += 1
    return reports
