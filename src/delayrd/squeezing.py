"""Three-way segment decomposition P + Q + R and contraction bounds.

Differences of two trajectories are split into a finite-dimensional part P
(the first k_m sine modes inside the ball Omega_K), its inside complement Q,
and the outside tail R.  Each part obeys an explicit multiplicative
contraction bound in the segment norm:

    ||P (Phi(t)phi - Phi(t)psi)||_C <= bP(t) ||phi - psi||_C,

with

    bP = exp((lf + rho1) t),
    bQ = K_m exp(rho_m t)
         + K_m lf / (rho1 + lf - rho_m) * exp((lf + rho1) t),
    bR = sqrt(c2) exp([c2 (sigma + lf^2) - (mu - sigma - 1)] t / 2).

`contraction_terms` is the one place these exponentials are written:
`analytic_bounds` assembles bP, bQ and bR from its four factors, and
`dimension.eta` and `dimension.zeta` assemble the contraction numbers from
the same four.

A history is the (S + 1, P) array of its rows on ``ps.grid``, and a pair
is two of them; `project_P`, `project_Q` and `project_R` return the part of
an array of rows.  `measure_contraction` marches each pair once and takes
the P, Q and R segment norms of its difference through `solver.window_sups`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimates import EstimateSet
from .model import ConfigError, Grid, ProblemParameters
from .solver import evolve, grid_step, segment_norm, window_sups
from .solver import integrate, segment_at  # noqa: F401  (names looked up by perfbench/tracing.py)
from .spectrum import SpectralData

__all__ = [
    "ProjectionSet",
    "analytic_bounds",
    "contraction_terms",
    "inside_sines",
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

    def norms(self, rows: np.ndarray) -> np.ndarray:
        """The P, Q and R grid norms of rows shaped (m, B, P), as one (m, 3, B)
        array: P from basis products on the nodes inside Omega_K, Q the
        inside nodes minus P, R the outside nodes."""
        basis = np.compress(self.inside, self.basis, axis=0)
        inside = np.compress(self.inside, rows, axis=-1)
        coeff = self.grid.spacing * np.matmul(basis.T, inside[..., None])
        p_part = np.matmul(basis, coeff)[..., 0]
        inside -= p_part
        parts = (p_part, inside, np.compress(~self.inside, rows, axis=-1))
        for part in parts:
            np.square(part, out=part)
        return np.sqrt(self.grid.spacing * np.stack([part.sum(axis=-1) for part in parts], axis=1))


def inside_sines(grid: Grid, K: float, count: int) -> np.ndarray:
    """The Dirichlet sine modes of Omega_K on the grid nodes, zero-extended:
    column j - 1 is sin(j pi (x + K) / (2K)) at the nodes x with |x| < K and
    0 elsewhere, for j = 1 .. count."""
    inside = np.abs(grid.nodes) < K
    xi = grid.nodes[inside]
    columns = np.zeros((grid.points, count))
    for j in range(1, count + 1):
        columns[inside, j - 1] = np.sin(j * math.pi * (xi + K) / (2.0 * K))
    return columns


def make_projections(grid: Grid, K: float, k_m: int) -> ProjectionSet:
    """Build the projection set for a cutoff radius and mode count.

    The raw sine modes of `inside_sines` are re-orthonormalized by QR so
    that the discrete projection is exactly idempotent even when K is not
    commensurate with the grid spacing.  Fewer than ``k_m`` nodes inside is a ConfigError:
    the grid is too coarse, or the box too large, for the cut.
    """
    if K <= 0:
        raise ValueError("K must be positive")
    if k_m < 1:
        raise ValueError("k_m must be at least 1")
    inside = np.abs(grid.nodes) < K
    n_inside = int(np.sum(inside))
    if n_inside < k_m:
        raise ConfigError(
            f"only {n_inside} grid nodes inside Omega_K; cannot hold {k_m} modes"
        )
    # orthonormalize w.r.t. the h-weighted inner product
    q, _ = np.linalg.qr(math.sqrt(grid.spacing) * inside_sines(grid, K, k_m))
    basis = q / math.sqrt(grid.spacing)
    return ProjectionSet(grid=grid, K=K, k_m=k_m, basis=basis, inside=inside)


def project_P(samples: np.ndarray, ps: ProjectionSet) -> np.ndarray:
    """Restrict to Omega_K, expand in the sine basis, keep modes 1..k_m."""
    return ps.parts(samples)[0]


def project_Q(samples: np.ndarray, ps: ProjectionSet) -> np.ndarray:
    """Inside complement: restriction to Omega_K minus the P part."""
    return ps.parts(samples)[1]


def project_R(samples: np.ndarray, ps: ProjectionSet) -> np.ndarray:
    """Outside restriction: multiply by the indicator of Omega_K^C."""
    return ps.parts(samples)[2]


def contraction_terms(t: float, p: ProblemParameters, spectral: SpectralData,
                      est: EstimateSet) -> tuple:
    """The four factors every contraction bound is assembled from, at
    elapsed time t: (K_m e^{rho_m t}, K_m lf / (rho1 + lf - rho_m),
    sqrt(c2) e^{rate t / 2}, e^{(lf + rho1) t}) with
    rate = c2 (sigma + lf^2) - (mu - sigma - 1).  A vanishing gap makes
    the coupling inf, and an exponential that overflows is inf.  Requires
    the dichotomy constant on ``spectral``."""
    if spectral.K_m is None:
        raise ValueError("spectral data has no dichotomy constant (run dichotomy_constant)")
    K_m, rho1, rho_m = spectral.K_m, spectral.rho1, spectral.rho_m
    gap = rho1 + p.lf - rho_m
    head = K_m * _exp(rho_m * t)
    coupling = math.inf if gap == 0.0 else K_m * p.lf / gap
    rate = est.c2 * (p.sigma + p.lf * p.lf) - (p.mu - p.sigma - 1.0)
    tail = math.sqrt(est.c2) * _exp(0.5 * rate * t)
    growth = _exp((p.lf + rho1) * t)
    return head, coupling, tail, growth


def _exp(x: float) -> float:
    """math.exp, inf where it overflows: a bound every measurement meets."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def analytic_bounds(t: float, p: ProblemParameters, spectral: SpectralData,
                    est: EstimateSet) -> dict:
    """The three contraction factors at elapsed time t, from
    `contraction_terms`: bP = growth, bQ = head + coupling growth,
    bR = tail.

    Requires the dichotomy constant on ``spectral``.  A vanishing gap
    rho1 + lf - rho_m makes the Q bound infeasible (returned as inf with
    ``feasible`` False).
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    head, coupling, tail, growth = contraction_terms(t, p, spectral, est)
    feasible = not math.isinf(coupling)
    bQ = head + coupling * growth if feasible else math.inf
    return {"bP": growth, "bQ": bQ, "bR": tail, "feasible": feasible}


def measure_contraction(pairs, times, p: ProblemParameters, ps: ProjectionSet):
    """Integrate pairs of histories and measure projected contraction.

    Each (phi, psi) pair that ``pairs`` yields marches as one batch, once,
    to its largest step in ``times``.  Returns the denominators
    ||phi - psi||_C of every pair and, for the pairs that differ (identical
    inputs are not integrated), the measured ||P d_t||_C, ||Q d_t||_C,
    ||R d_t||_C over the denominator as one (differing pairs, len(times), 3)
    array in pair order (d_t is the difference segment at time t).  The
    bounds to compare against come from `analytic_bounds`.
    """
    denoms, ratios = [], []
    for phi, psi in pairs:
        denoms.append(segment_norm(phi - psi, ps.grid))
        if denoms[-1] == 0.0:
            continue
        batch = np.stack([phi, psi], axis=1)  # (S + 1, 2, P)
        del phi, psi  # the batch holds their rows
        steps = [grid_step(t, p.tau / (len(batch) - 1)) for t in times]
        sups = window_sups(batch, evolve(batch, max(steps), p, ps.grid), steps,
                           lambda rows: ps.norms(rows[:, :1] - rows[:, 1:]))
        ratios.append(sups[..., 0] / denoms[-1])
    return np.array(denoms), np.reshape(ratios, (len(ratios), len(times), 3))
