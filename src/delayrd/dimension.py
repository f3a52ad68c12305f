"""Attractor-dimension certificates.

The squeezing factors assemble into the contraction number

    eta(t0, alpha) = 2 K_m exp(rho_m t0)
                     + (alpha + 2 K_m lf / (rho1 + lf - rho_m)) exp((lf + rho1) t0)
                     + 2 sqrt(c2) exp([c2 (sigma + lf^2) - (mu - sigma - 1)] t0 / 2),

and eta < 1 certifies the Hausdorff dimension bound

    dim_H <= (-ln k_m - k_m ln(2 + 4/alpha)) / ln(eta).

The fractal companion uses zeta(beta) (same exponentials, unit elapsed time,
free parameter beta > 0) and dim_f <= (ln k_m + k_m ln(2 + 2/beta)) / (-ln zeta).

`optimize_certificate` grid-searches the free parameters (and the cut index)
deterministically and refines by coordinate halving; infeasibility is
returned as data with the best margin found, never raised.  The covering
calculators provide the combinatorial ingredient m 2^m (1 + r1/r2)^m and a
constructive lattice covering to check it against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimates import EstimateSet
from .model import ProblemParameters
from .spectrum import SpectralData

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


def _squeeze_terms(t0: float, p: ProblemParameters, spectral: SpectralData,
                   est: EstimateSet):
    """(K_m e^{rho_m t0}, K_m lf/gap, sqrt(c2) e^{rate t0 / 2}, e^{(lf+rho1) t0});
    inf marks a vanishing gap."""
    if spectral.K_m is None:
        raise ValueError("spectral data has no dichotomy constant")
    K_m, rho1, rho_m = spectral.K_m, spectral.rho1, spectral.rho_m
    gap = rho1 + p.lf - rho_m
    growth = math.exp((p.lf + rho1) * t0)
    head = K_m * math.exp(rho_m * t0)
    coupling = math.inf if gap == 0.0 else K_m * p.lf / gap
    rate = est.c2 * (p.sigma + p.lf * p.lf) - (p.mu - p.sigma - 1.0)
    tail = math.sqrt(est.c2) * math.exp(0.5 * rate * t0)
    return head, coupling, tail, growth


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
    head, coupling, tail, growth = _squeeze_terms(t0, p, spectral, est)
    if math.isinf(coupling):
        return math.inf
    return 2.0 * head + (alpha + 2.0 * coupling) * growth + 2.0 * tail


def hausdorff_bound(t0: float, alpha: float, k_m: int, eta_val: float) -> float:
    """Dimension bound from an eta value; inf when eta >= 1."""
    if k_m < 1:
        raise ValueError("k_m must be at least 1")
    if not eta_val < 1.0:
        return math.inf
    return (-math.log(k_m) - k_m * math.log(2.0 + 4.0 / alpha)) / math.log(eta_val)


def zeta(beta_free: float, p: ProblemParameters, spectral: SpectralData,
         est: EstimateSet, t0: float = 1.0, t0_mode: str = "fixed") -> float:
    """The fractal contraction number, evaluated at unit elapsed time.

    ``t0`` is fixed to 1 (the value the closed-form bound is stated at);
    pass ``t0_mode="extended"`` to evaluate the same exponentials at a
    general t0 — an extension beyond the stated form, labeled as such.
    """
    if beta_free <= 0:
        raise ValueError("beta_free must be positive")
    if t0_mode == "fixed":
        if t0 != 1.0:
            raise ValueError("t0 is fixed to 1; use t0_mode='extended' for general t0")
    elif t0_mode != "extended":
        raise ValueError("t0_mode must be 'fixed' or 'extended'")
    if t0 <= 0:
        raise ValueError("t0 must be positive")
    head, coupling, tail, growth = _squeeze_terms(t0, p, spectral, est)
    if math.isinf(coupling):
        return math.inf
    return beta_free * growth + head + coupling * growth + tail


def fractal_bound(beta_free: float, k_m: int, zeta_val: float) -> float:
    """Dimension bound from a zeta value; inf when zeta >= 1."""
    if k_m < 1:
        raise ValueError("k_m must be at least 1")
    if not 0.0 < zeta_val < 1.0:
        return math.inf
    return (math.log(k_m) + k_m * math.log(2.0 + 2.0 / beta_free)) / (-math.log(zeta_val))


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

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "feasible": self.feasible,
            "k_m": self.k_m,
            "t0": self.t0,
            "alpha": self.alpha,
            "beta_free": self.beta_free,
            "eta": self.eta,
            "zeta": self.zeta,
            "hausdorff_bound": self.hausdorff_bound,
            "fractal_bound": self.fractal_bound,
            "best_contraction": self.best_contraction,
            "note": self.note,
        }


T0_GRID = tuple(np.geomspace(0.1, 20.0, 25))
ALPHA_GRID = tuple(0.1 * k for k in range(1, 20))
BETA_GRID = tuple(np.geomspace(1e-3, 1e2, 25))


def optimize_certificate(p: ProblemParameters, spectral, est: EstimateSet,
                         mode: str = "hausdorff") -> DimensionCertificate:
    """Search the free parameters for the smallest finite dimension bound.

    Parameters
    ----------
    p, est : problem constants and estimate set.
    spectral : SpectralData or sequence of SpectralData
        One entry per candidate cut index m_cut (each with its own k_m and
        K_m).  A single entry is accepted.
    mode : {"hausdorff", "fractal"}
        Hausdorff searches (t0, alpha); fractal searches (t0, beta_free)
        with the general-t0 extension of zeta.

    The grid search (log t0 grid, linear alpha grid / log beta grid, all
    cut indices) is followed by three rounds of coordinate halving around
    the best point.  Everything is deterministic; ties are broken by grid
    order.  When no parameter choice is feasible the certificate reports
    the smallest contraction number reached and infinite bounds.
    """
    if mode not in ("hausdorff", "fractal"):
        raise ValueError("mode must be 'hausdorff' or 'fractal'")
    spectrals = [spectral] if isinstance(spectral, SpectralData) else list(spectral)
    if not spectrals:
        raise ValueError("at least one spectral partition is required")

    def contraction(sp, t0, free):
        if mode == "hausdorff":
            return eta(t0, free, p, sp, est)
        return zeta(free, p, sp, est, t0=t0, t0_mode="extended")

    def bound_of(sp, t0, free, c_val):
        if mode == "hausdorff":
            return hausdorff_bound(t0, free, sp.k_m, c_val)
        return fractal_bound(free, sp.k_m, c_val)

    free_grid = ALPHA_GRID if mode == "hausdorff" else BETA_GRID

    best = None  # (bound, sp, t0, free, c_val)
    best_c = (math.inf, None)
    for sp in spectrals:
        if sp.rho_m >= 0 or sp.K_m is None:
            continue
        for t0 in T0_GRID:
            for free in free_grid:
                c_val = contraction(sp, t0, free)
                if c_val < best_c[0]:
                    best_c = (c_val, (sp, t0, free))
                b = bound_of(sp, t0, free, c_val)
                if math.isfinite(b) and (best is None or b < best[0]):
                    best = (b, sp, t0, free, c_val)

    note = "" if mode == "hausdorff" else "general-t0 extension of the unit-time contraction number"
    if best is None:
        sp, t0, free = best_c[1] if best_c[1] is not None else (spectrals[0], 1.0, free_grid[0])
        c_val = best_c[0]
        return DimensionCertificate(
            mode=mode, feasible=False, k_m=sp.k_m, t0=t0,
            alpha=free if mode == "hausdorff" else None,
            beta_free=free if mode == "fractal" else None,
            eta=c_val if mode == "hausdorff" else None,
            zeta=c_val if mode == "fractal" else None,
            hausdorff_bound=math.inf, fractal_bound=math.inf,
            best_contraction=c_val,
            note=note or "no feasible contraction number below 1",
        )

    _, sp, t0, free, c_val = best
    b = best[0]
    # coordinate halving around the grid optimum
    t0_step = math.sqrt(T0_GRID[1] / T0_GRID[0])
    free_step = (ALPHA_GRID[1] - ALPHA_GRID[0]) / 2.0 if mode == "hausdorff" \
        else math.sqrt(BETA_GRID[1] / BETA_GRID[0])
    for _ in range(3):
        for candidate_t0 in (t0 / t0_step, t0 * t0_step):
            if not T0_GRID[0] <= candidate_t0 <= T0_GRID[-1]:
                continue
            c_new = contraction(sp, candidate_t0, free)
            b_new = bound_of(sp, candidate_t0, free, c_new)
            if b_new < b:
                b, t0, c_val = b_new, candidate_t0, c_new
        if mode == "hausdorff":
            candidates = [free - free_step, free + free_step]
            candidates = [f for f in candidates
                          if ALPHA_GRID[0] <= f <= ALPHA_GRID[-1]]
        else:
            candidates = [free / free_step, free * free_step]
            candidates = [f for f in candidates
                          if BETA_GRID[0] <= f <= BETA_GRID[-1]]
        for candidate in candidates:
            c_new = contraction(sp, t0, candidate)
            b_new = bound_of(sp, t0, candidate, c_new)
            if b_new < b:
                b, free, c_val = b_new, candidate, c_new
        t0_step = math.sqrt(t0_step)
        if mode == "hausdorff":
            free_step /= 2.0
        else:
            free_step = math.sqrt(free_step)

    return DimensionCertificate(
        mode=mode, feasible=True, k_m=sp.k_m, t0=t0,
        alpha=free if mode == "hausdorff" else None,
        beta_free=free if mode == "fractal" else None,
        eta=c_val if mode == "hausdorff" else None,
        zeta=c_val if mode == "fractal" else None,
        hausdorff_bound=b if mode == "hausdorff" else math.inf,
        fractal_bound=b if mode == "fractal" else math.inf,
        best_contraction=c_val,
        note=note,
    )


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
