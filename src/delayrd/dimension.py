"""Attractor-dimension certificates.

The squeezing factors of `squeezing.analytic_bounds` (bP, bQ, bR at
elapsed time t0, all from `squeezing.contraction_terms`) assemble into the
contraction numbers

    eta(t0, alpha) = 2 bQ + alpha bP + 2 bR,    zeta(beta) = beta bP + bQ + bR

(zeta is stated at unit elapsed time; a general t0 is an extension, labeled
as such).  Either number c in (0, 1) certifies the bound

    dim <= (ln k_m + k_m ln(2 + s)) / (-ln c)

on dim_H with c = eta, s = 4/alpha, and on dim_f with c = zeta, s = 2/beta.

`optimize_certificate` takes the factors of one spectral cut once per grid
t0, searches both certificates from them deterministically and refines
coordinate by coordinate; infeasibility is returned as data with the best
margin found, never raised.  The covering calculators provide the
combinatorial ingredient m 2^m (1 + r1/r2)^m and a constructive lattice
covering to check it against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimates import EstimateSet
from .model import ProblemParameters
from .spectrum import SpectralData
from .squeezing import contraction_terms

__all__ = [
    "DimensionCertificate",
    "covering_bound",
    "covering_bruteforce",
    "eta",
    "fractal_bound",
    "hausdorff_bound",
    "optimize_certificate",
    "zeta",
]


def eta(t0: float, alpha: float, p: ProblemParameters, spectral: SpectralData,
        est: EstimateSet) -> float:
    """The Hausdorff contraction number; certificates need eta < 1.

    Requires 0 < alpha < 2 and t0 > 0.  A vanishing spectral gap makes the
    value inf (infeasible), not an exception.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (0, 2)")
    if t0 <= 0:
        raise ValueError("t0 must be positive")
    return _eta_of(contraction_terms(t0, p, spectral, est), alpha)


def _eta_of(terms: tuple, alpha: float) -> float:
    """eta from the `contraction_terms` at t0; inf for a vanishing gap."""
    head, coupling, tail, growth = terms
    if math.isinf(coupling):
        return math.inf
    return 2.0 * head + (alpha + 2.0 * coupling) * growth + 2.0 * tail


def hausdorff_bound(alpha: float, k_m: int, eta_val: float) -> float:
    """Dimension bound from an eta value; inf unless 0 < eta < 1."""
    return _dimension_bound(k_m, 4.0 / alpha, eta_val)


def _dimension_bound(k_m: int, spread: float, c_val: float) -> float:
    """(ln k_m + k_m ln(2 + spread)) / -ln c; inf unless 0 < c < 1."""
    if k_m < 1:
        raise ValueError("k_m must be at least 1")
    if not 0.0 < c_val < 1.0:
        return math.inf
    return (math.log(k_m) + k_m * math.log(2.0 + spread)) / -math.log(c_val)


def zeta(beta_free: float, p: ProblemParameters, spectral: SpectralData,
         est: EstimateSet, t0: float = 1.0) -> float:
    """The fractal contraction number at elapsed time ``t0``.

    The closed-form bound is stated at t0 = 1, the default; other t0 > 0
    evaluate the same exponentials there, an extension beyond the stated
    form.  A vanishing spectral gap makes the value inf.
    """
    if beta_free <= 0:
        raise ValueError("beta_free must be positive")
    if t0 <= 0:
        raise ValueError("t0 must be positive")
    return _zeta_of(contraction_terms(t0, p, spectral, est), beta_free)


def _zeta_of(terms: tuple, beta_free: float) -> float:
    """zeta from the `contraction_terms` at t0; inf for a vanishing gap."""
    head, coupling, tail, growth = terms
    if math.isinf(coupling):
        return math.inf
    return beta_free * growth + head + coupling * growth + tail


def fractal_bound(beta_free: float, k_m: int, zeta_val: float) -> float:
    """Dimension bound from a zeta value; inf unless 0 < zeta < 1."""
    return _dimension_bound(k_m, 2.0 / beta_free, zeta_val)


@dataclass(frozen=True)
class DimensionCertificate:
    """Outcome of a certificate search (possibly infeasible)."""

    mode: str
    feasible: bool
    k_m: int
    t0: float
    alpha: float | None
    beta_free: float | None
    eta: float | None
    zeta: float | None
    hausdorff_bound: float
    fractal_bound: float
    best_contraction: float
    note: str = ""


T0_GRID = tuple(np.geomspace(0.1, 20.0, 25))
ALPHA_GRID = tuple(0.1 * k for k in range(1, 20))
BETA_GRID = tuple(np.geomspace(1e-3, 1e2, 25))


def _shifted(x: float, step: float):
    """Neighbours x -/+ step, and the next (halved) step."""
    return (x - step, x + step), step / 2.0


def _scaled(x: float, step: float):
    """Neighbours x /* step, and the next (square-rooted) step."""
    return (x / step, x * step), math.sqrt(step)


# One row per mode; `optimize_certificate` unpacks and names the columns.
_MODES = (
    ("hausdorff", _eta_of, ALPHA_GRID, _shifted, (ALPHA_GRID[1] - ALPHA_GRID[0]) / 2.0, 4.0,
     ("alpha", "eta", "hausdorff_bound"), ""),
    ("fractal", _zeta_of, BETA_GRID, _scaled, math.sqrt(BETA_GRID[1] / BETA_GRID[0]), 2.0,
     ("beta_free", "zeta", "fractal_bound"),
     "general-t0 extension of the unit-time contraction number"),
)


def optimize_certificate(p: ProblemParameters, spectral: SpectralData,
                         est: EstimateSet) -> dict:
    """Search the free parameters of one spectral cut (its k_m and K_m) for
    the smallest finite dimension bounds; returns {"hausdorff": certificate,
    "fractal": certificate}.  Hausdorff searches (t0, alpha), fractal
    (t0, beta_free) with the general-t0 extension of zeta.

    The contraction factors are taken once per point of the log t0 grid
    and score both grid scans (linear alpha grid, log beta grid).  Each
    scan is followed by three rounds of coordinate refinement around its
    best point, each trial scored from its own factors: t0 and beta step
    by a factor that is square-rooted each round, alpha by a shift that is
    halved.  Everything is deterministic; ties are broken by grid order.
    A cut with rho_m >= 0 or no K_m is infeasible at t0 = 1 and the first
    free value; when no parameter choice is feasible the certificate
    reports the smallest contraction number reached and infinite bounds.
    """
    grid_terms = [(t0, contraction_terms(t0, p, spectral, est)) for t0 in T0_GRID] \
        if spectral.rho_m < 0 and spectral.K_m is not None else []
    certificates = {}
    for mode, from_terms, free_grid, free_rule, free_step, scale, names, note in _MODES:
        spreads = [(free, scale / free) for free in free_grid]
        best, best_c = None, (math.inf, 1.0, free_grid[0])  # best: (bound, t0, free, c_val)
        for t0, terms in grid_terms:
            for free, s in spreads:
                c_val = from_terms(terms, free)
                if c_val < best_c[0]:
                    best_c = (c_val, t0, free)
                b = _dimension_bound(spectral.k_m, s, c_val)
                if math.isfinite(b) and (best is None or b < best[0]):
                    best = (b, t0, free, c_val)
        if best is None:
            b, (c_val, t0, free) = math.inf, best_c
            note = note or "no feasible contraction number below 1"
        else:
            b, t0, free, c_val = best
            point, steps = [t0, free], [math.sqrt(T0_GRID[1] / T0_GRID[0]), free_step]
            for _ in range(3):
                for axis, grid, rule in ((0, T0_GRID, _scaled), (1, free_grid, free_rule)):
                    neighbours, steps[axis] = rule(point[axis], steps[axis])
                    for x in neighbours:
                        if not grid[0] <= x <= grid[-1]:
                            continue
                        trial = point.copy()
                        trial[axis] = x
                        c_new = from_terms(contraction_terms(trial[0], p, spectral, est), trial[1])
                        b_new = _dimension_bound(spectral.k_m, scale / trial[1], c_new)
                        if b_new < b:
                            b, point, c_val = b_new, trial, c_new
            t0, free = point

        fields = dict(alpha=None, beta_free=None, eta=None, zeta=None, hausdorff_bound=math.inf,
                      fractal_bound=math.inf, t0=t0, best_contraction=c_val, note=note)
        fields.update(zip(names, (free, c_val, b)))
        certificates[mode] = DimensionCertificate(mode=mode, feasible=best is not None,
                                                  k_m=spectral.k_m, **fields)
    return certificates


def covering_bound(m: int, r1: float, r2: float) -> int:
    """Combinatorial covering count: ceil(m 2^m (1 + r1/r2)^m).

    Counts balls of radius r2 sufficient to cover a ball of radius r1 in
    an m-dimensional subspace; requires r1 > r2 > 0.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if r2 <= 0 or r1 <= r2:
        raise ValueError("need r1 > r2 > 0")
    return math.ceil(m * 2 ** m * (1.0 + r1 / r2) ** m)


def covering_bruteforce(m: int, r1: float, r2: float, norm: str = "euclidean") -> int:
    """Constructive lattice covering of the r1-ball by r2-balls.

    Tiles space with cubes small enough that each fits inside an r2-ball
    around its center (side 2 r2 for the sup norm, 2 r2 / sqrt(m) for the
    euclidean norm) and counts the cubes meeting the target ball.  The
    count is an achieved covering, so it must never exceed
    `covering_bound`; only m in {1, 2} is supported.
    """
    if m not in (1, 2):
        raise ValueError("covering_bruteforce supports m in {1, 2}")
    if r2 <= 0 or r1 <= r2:
        raise ValueError("need r1 > r2 > 0")
    if norm not in ("sup", "euclidean"):
        raise ValueError("norm must be 'sup' or 'euclidean'")
    pitch = 2.0 * r2 if norm == "sup" else 2.0 * r2 / math.sqrt(m)
    half = pitch / 2.0
    reach = int(math.ceil((r1 + half) / pitch))
    axis = pitch * np.arange(-reach, reach + 1)

    count = 0
    if m == 1:
        for c in axis:
            if max(abs(c) - half, 0.0) <= r1:
                count += 1
        return count
    for cx in axis:
        dx = max(abs(cx) - half, 0.0)
        for cy in axis:
            dy = max(abs(cy) - half, 0.0)
            if norm == "sup":
                hit = max(dx, dy) <= r1
            else:
                hit = dx * dx + dy * dy <= r1 * r1
            if hit:
                count += 1
    return count
