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

`contraction_terms` is the one place these exponentials are written:
`analytic_bounds` assembles bP, bQ and bR from its four factors, and
`dimension.eta` and `dimension.zeta` assemble the contraction numbers from
the same four.

`measure_contraction` marches its pairs in groups, written into one batch,
and materializes no segment: each difference row gets its P, Q and R norms
once, as it arrives (only rows inside some measured window), and the sup
at a contraction step n is the max of those row norms over the window of
rows n - S .. n.
"""

from __future__ import annotations

import math
from collections import deque
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
    "contraction_terms",
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

    def parts(self, rows: np.ndarray) -> np.ndarray:
        """P, Q and R parts of each row (grid on the last axis), stacked on a
        new leading axis of length 3.  P comes from stacked matrix-vector
        products, so a row gives the same bytes alone as in a segment."""
        restricted = np.where(self.inside, rows, 0.0)
        coeff = self.grid.spacing * np.matmul(self.basis.T, restricted[..., None])
        p_part = np.matmul(self.basis, coeff)[..., 0]
        return np.stack([p_part, restricted - p_part, np.where(self.inside, 0.0, rows)])


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
    return replace(seg, samples=ps.parts(seg.samples)[0])


def project_Q(seg: HistorySegment, ps: ProjectionSet) -> HistorySegment:
    """Inside complement: restriction to Omega_K minus the P part."""
    return replace(seg, samples=ps.parts(seg.samples)[1])


def project_R(seg: HistorySegment, ps: ProjectionSet) -> HistorySegment:
    """Outside restriction: multiply by the indicator of Omega_K^C."""
    return replace(seg, samples=ps.parts(seg.samples)[2])


def contraction_terms(t: float, p: ProblemParameters, spectral: SpectralData,
                      est: EstimateSet) -> tuple:
    """The four factors every contraction bound is assembled from, at
    elapsed time t: (K_m e^{rho_m t}, K_m lf / (rho1 + lf - rho_m),
    sqrt(c2) e^{rate t / 2}, e^{(lf + rho1) t}) with
    rate = c2 (sigma + lf^2) - (mu - sigma - 1).  A vanishing gap makes
    the coupling inf.  Requires the dichotomy constant on ``spectral``."""
    if spectral.K_m is None:
        raise ValueError("spectral data has no dichotomy constant (run dichotomy_constant)")
    K_m, rho1, rho_m = spectral.K_m, spectral.rho1, spectral.rho_m
    gap = rho1 + p.lf - rho_m
    head = K_m * math.exp(rho_m * t)
    coupling = math.inf if gap == 0.0 else K_m * p.lf / gap
    rate = est.c2 * (p.sigma + p.lf * p.lf) - (p.mu - p.sigma - 1.0)
    tail = math.sqrt(est.c2) * math.exp(0.5 * rate * t)
    growth = math.exp((p.lf + rho1) * t)
    return head, coupling, tail, growth


def analytic_bounds(t: float, p: ProblemParameters, spectral: SpectralData,
                    est: EstimateSet, which: str = "bound_63") -> dict:
    """The three contraction factors at elapsed time t, from
    `contraction_terms`: bP = coefficient growth, bQ = head + coupling
    growth, bR = tail.

    ``which`` selects the P coefficient: "bound_63" (coefficient 1,
    default) or "bound_316" (coefficient 2).  Requires the dichotomy
    constant on ``spectral``.  A vanishing gap rho1 + lf - rho_m makes the
    Q bound infeasible (returned as inf with ``feasible`` False).
    """
    if which not in ("bound_63", "bound_316"):
        raise ValueError("which must be 'bound_63' or 'bound_316'")
    if t < 0:
        raise ValueError("t must be nonnegative")
    head, coupling, tail, growth = contraction_terms(t, p, spectral, est)
    coefficient = 1.0 if which == "bound_63" else 2.0
    feasible = not math.isinf(coupling)
    bQ = head + coupling * growth if feasible else math.inf
    return {"bP": coefficient * growth, "bQ": bQ, "bR": tail,
            "feasible": feasible, "which": which}


# Pairs marched as one batch.  squeeze on perfbench/configs/squeeze-pairs.json
# (16 pairs, P = 1024, S = 64; fresh process, 2 vCPU x86-64, numpy 2.4) at
# 1/2/4/8/16 pairs per group, median of 3: peak RSS 41/44/47/55/73 MB, wall
# 0.85/0.60/0.47/0.41/0.56 s.  Four pairs take about half the time of one
# for 5 MB more; eight save a further 0.06 s for 9 MB more.
_GROUP_PAIRS = 4


def _stack_pairs(group):
    """Draw ``group``'s pairs into one (S + 1, 2 _GROUP_PAIRS, P) batch, the
    pairs that differ as columns phi0, psi0, phi1, psi1, ...  Returns the
    denominators ||phi - psi||_C of all pairs and the history of the filled
    columns (None for an empty group).  No pair outlives its iteration."""
    denoms, batch, filled = [], None, 0
    for phi, psi in group:
        if batch is None:
            batch = np.empty((len(phi.samples), 2 * _GROUP_PAIRS, phi.grid.points))
            like = (phi.grid, phi.tau, phi.steps_per_delay)
        denoms.append(segment_norm(replace(phi, samples=phi.samples - psi.samples)))
        if denoms[-1] != 0.0:
            batch[:, filled], batch[:, filled + 1] = phi.samples, psi.samples
            filled += 2
    return denoms, None if batch is None else HistorySegment(batch[:, :filled], *like)


def _group_sups(group, times, p: ProblemParameters, ps: ProjectionSet):
    """Measure one group of pairs: the denominators, ``times`` as steps n,
    and a map from each n to the P, Q, R segment sups (3, differing pairs)
    of the differences at t = n dt.  The batch marches once, to the last
    step; a difference row gets its part norms as it arrives if a measured
    window n - S .. n holds it, and a step's sups are the max over its
    window.  Nothing of the group outlives the call."""
    denoms, hist = _stack_pairs(group)
    if hist is None:
        return [], [], {}
    S = hist.steps_per_delay
    steps = [grid_step(t, hist.dt) for t in times]
    sups = {}
    if hist.samples.shape[1]:
        measured = {r for n in steps for r in range(n - S, n + 1)}
        norms = deque(maxlen=S + 1)
        rows = chain(hist.samples, (w[-1] for w in evolve(hist, max(steps), p)))
        for r, row in enumerate(rows, start=-S):
            norms.append(row_norms(ps.parts(row[0::2] - row[1::2]), ps.grid)
                         if r in measured else None)
            if r in steps:
                sups[r] = np.max(norms, axis=0)
    return denoms, steps, sups


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
    while True:
        denoms, steps, sups = _group_sups(islice(pairs, _GROUP_PAIRS), times, p, ps)
        if not denoms:
            return reports
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
