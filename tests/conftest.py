import cmath
import math

import numpy as np
import pytest

from delayrd.model import (
    ForcingSpec,
    Grid,
    NonlinearitySpec,
    ProblemParameters,
)
from delayrd.model import evaluate_forcing, evaluate_nonlinearity
from delayrd.semigroup import field_norm, gradient_norm
from delayrd.solver import far_field_masses, row_norms, segment_sups
from delayrd.spectrum import ROOT_RESIDUAL_TOL, ModeRoots


@pytest.fixture
def grid():
    return Grid(half_length=16.0, points=512)


@pytest.fixture
def fine_grid():
    return Grid(half_length=16.0, points=4096)


def unit_forcing_amplitude(grid: Grid) -> float:
    """Amplitude making the grid L2 norm of the standard Gaussian bump 1."""
    raw = evaluate_forcing(ForcingSpec(kind="gaussian_bump", amplitude=1.0), grid.nodes)
    return 1.0 / field_norm(raw, grid)


def dissipative_params(grid: Grid) -> ProblemParameters:
    """mu=2, sigma=0.1, tau=0.5, L_f=1 with ||g|| = 1 on the given grid."""
    return ProblemParameters(
        mu=2.0,
        sigma=0.1,
        tau=0.5,
        lf=1.0,
        forcing=ForcingSpec(kind="gaussian_bump", amplitude=unit_forcing_amplitude(grid)),
        nonlinearity=NonlinearitySpec(kind="scaled_tanh", scale=1.0),
    )


def heat_only_params(mu: float = 2.0) -> ProblemParameters:
    """sigma = 0, f = 0, g = 0: the pure damped heat flow."""
    return ProblemParameters(
        mu=mu, sigma=0.0, tau=0.5, lf=0.0,
        forcing=ForcingSpec(), nonlinearity=NonlinearitySpec(),
    )


@pytest.fixture
def dissipative(grid):
    return dissipative_params(grid)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def loop_integrate(hist, horizon, p, grid):
    """Reference trajectory values: the trapezoid method-of-steps loop on
    a full (N + 1)-row array with its own delayed-index bookkeeping, one
    unbatched (S + 1, P) history at a time.  Shares no stepping code with
    `delayrd.solver`."""
    S = len(hist) - 1
    dt = p.tau / S
    n_steps = max(0, int(math.ceil(horizon / dt - 1e-9)))
    g = evaluate_forcing(p.forcing, grid.nodes)
    xi = grid.frequencies
    multiplier = np.exp(-(p.mu + xi * xi) * dt)
    values = np.empty((n_steps + 1, grid.points))
    values[0] = hist[-1]

    def load(n):
        d = values[n - S] if n >= S else hist[n]
        return p.sigma * d + evaluate_nonlinearity(p.nonlinearity, d) + g

    for n in range(n_steps):
        stepped = np.fft.irfft(multiplier * np.fft.rfft(values[n] + 0.5 * dt * load(n)),
                               n=grid.points)
        values[n + 1] = stepped + 0.5 * dt * load(n + 1)
    return values


def loop_fourier_integrate(hist, horizon, p, grid):
    """Reference trajectory values of the coefficient-space form of the same
    recurrence, the form `delayrd.solver.march` takes on rows of every size:
    with k_n = dt/2 * load(u_{n-S}),

        c_0 = rfft(u_0),  c_n = E (c_{n-1} + rfft(k_{n-1})) + rfft(k_n),
        u_n = irfft(c_n),

    one step and one unbatched (S + 1, P) history at a time.  c_n is carried
    from step to step, never recomputed from u_n.  Shares no stepping code
    with `delayrd.solver`."""
    S = len(hist) - 1
    dt = p.tau / S
    n_steps = max(0, int(math.ceil(horizon / dt - 1e-9)))
    g = evaluate_forcing(p.forcing, grid.nodes)
    xi = grid.frequencies
    multiplier = np.exp(-(p.mu + xi * xi) * dt)
    values = np.empty((n_steps + 1, grid.points))
    values[0] = hist[-1]

    def load_coeffs(n):
        d = values[n - S] if n >= S else hist[n]
        return np.fft.rfft(0.5 * dt * (p.sigma * d + evaluate_nonlinearity(p.nonlinearity, d) + g))

    c = np.fft.rfft(hist[-1])
    for n in range(n_steps):
        c = multiplier * (c + load_coeffs(n)) + load_coeffs(n + 1)
        values[n + 1] = np.fft.irfft(c, n=grid.points)
    return values


def fourier_rounding_bound(hist, values, p, grid):
    """Bound, in the max norm, on how far `loop_fourier_integrate` and
    `loop_integrate` may drift apart on the trajectory rows ``values``
    marched from ``hist`` (neither form's own discretization error).

    The two forms do the same recurrence and differ only in where the
    transforms round.  A radix-2 FFT of length P has a relative 2-norm error
    of at most log2(P) eta with eta = u + gamma_4 (sqrt 2 + u) < 7u, u the
    unit roundoff (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., thm 24.2).  A step of either form takes two transforms of rows
    no larger than M + dt/2 ((sigma + lf) M + max|g|), with M the largest
    |u| of the history and the trajectory (|f(u)| <= lf |u|); since
    |v|_inf <= |v|_2 <= sqrt(P) |v|_inf, one step moves the forms apart by
    at most delta = 4 * 7u * log2(P) * sqrt(P) times that.  S(dt) does not
    expand, and the load is (sigma + lf)-Lipschitz and scaled by dt/2 in
    two places, so a difference grows by at most a factor 1 + (sigma + lf) dt
    a step: after N steps it is at most N delta (1 + (sigma + lf) dt)^N.
    """
    S, n_steps = len(hist) - 1, len(values) - 1
    dt, rate = p.tau / S, p.sigma + p.lf
    M = max(np.max(np.abs(hist)), np.max(np.abs(values)))
    g = np.max(np.abs(evaluate_forcing(p.forcing, grid.nodes)))
    row = M + 0.5 * dt * (rate * M + g)
    unit_roundoff = np.finfo(float).eps / 2
    delta = 4 * 7 * unit_roundoff * math.log2(grid.points) * math.sqrt(grid.points) * row
    return n_steps * delta * (1.0 + rate * dt) ** n_steps


def loop_projections(rows, ps):
    """Reference P, Q, R of an (m, P) array of rows, one row at a time."""
    h = ps.grid.spacing
    P, Q, R = [], [], []
    for row in rows:
        restricted = np.where(ps.inside, row, 0.0)
        P.append(ps.basis @ (h * (ps.basis.T @ restricted)))
        Q.append(restricted - P[-1])
        R.append(np.where(ps.inside, 0.0, row))
    return np.array(P), np.array(Q), np.array(R)


def loop_part_norms(rows, ps):
    """Reference grid norms of the P, Q and R parts of each row of an (m, P)
    array, as an (m, 3) array: the parts of `loop_projections`, each row
    reduced alone."""
    return np.sqrt(ps.grid.spacing * np.sum(np.square(loop_projections(rows, ps)), axis=-1)).T


def part_norm_rounding_bound(rows, ps):
    """Bound on how far two computations of the P, Q and R norms of each row
    (the grid on the last axis) may differ in rounding alone, when both
    project with the same stored basis but sum in different orders or over
    different zero entries (`ProjectionSet.norms` against `project_P`,
    `project_Q` and `project_R`).

    With u the unit roundoff, n = P nodes, k = k_m and ||x|| the row's grid
    norm (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    sec. 3.1 and 4.2): a sum of n squares is within gamma_n = n u / (1 - n u)
    of its value in any order, so a norm, with the h-scaling and the square
    root, within (n / 2 + 2) u of it.  A coefficient c_j = h <b_j, x> is
    within (n + 1) u ||b_j|| ||x|| = (n + 1) u ||x|| of its value
    (Cauchy-Schwarz; the columns are orthonormal), and P x = sum_j c_j b_j
    adds gamma_k sum_j |c_j| <= k sqrt(k) u ||x||, so the P part is within
    k (n + 1 + sqrt k) u ||x|| of its value, and Q = x_in - P the same plus
    u ||x||.  Each computed norm is then within
    (k (n + 1 + sqrt k) + n / 2 + 3) u ||x|| of the exact one, and two
    computations within twice that; a further factor 2 covers the stored
    basis's own departure from orthonormality (QR, O(n u)).
    """
    n, k = ps.grid.points, ps.k_m
    unit_roundoff = np.finfo(float).eps / 2
    norms = np.sqrt(ps.grid.spacing * np.sum(np.square(rows), axis=-1))
    return 4 * (k * (n + 1 + math.sqrt(k)) + n / 2 + 3) * unit_roundoff * norms


def far_field_sups(hist, values, grid, radii):
    """Segment tail-mass sups of a stored trajectory (history rows ``hist``,
    trajectory rows ``values``), one column per radius: the array
    `verify_far_field` takes."""
    def tails(rows):
        return np.stack([far_field_masses(rows, grid, K) for K in radii], axis=-1)
    return segment_sups(tails(hist), tails(values))


def norm_sups(hist, values, grid):
    """Segment norms of a stored trajectory, one per step: the array
    `verify_absorption` takes."""
    return segment_sups(row_norms(hist, grid), row_norms(values, grid))


def gradient_sups(hist, values, grid):
    """Segment gradient sups of a stored trajectory, one per step: the
    array `verify_energy_integral` takes."""
    def gradients(rows):
        return np.array([gradient_norm(row, grid) for row in rows])
    return segment_sups(gradients(hist), gradients(values))


def loop_lambert_w(log_z: float, k: int) -> complex:
    """Branch k of the Lambert W function at z = exp(log_z) > 0, one
    scalar Newton loop on w + log w = log z + 2 pi i k: the reference for
    `spectrum._root_table`'s array iteration (same start, cap and stop)."""
    target = complex(log_z, 2.0 * math.pi * k)
    if k == 0 and log_z < 1.0:
        w = cmath.exp(target)
        if w == 0:  # z underflows, and W_0(z) = z to double precision
            return w
    else:
        w = target - cmath.log(target)
    for _ in range(100):
        step = w * (w + cmath.log(w) - target) / (1.0 + w)
        w -= step
        if abs(step) <= 1e-15 * abs(w):
            break
    return w


def loop_newton_polish(lam: complex, a: float, sigma: float, tau: float) -> complex:
    """Scalar Newton loop on chi(lambda) = lambda + a - sigma exp(-lambda tau);
    cmath.exp raises OverflowError where numpy's exp gives inf."""
    for _ in range(100):
        delayed = cmath.exp(-lam * tau)
        step = (lam + a - sigma * delayed) / (1.0 + sigma * tau * delayed)
        lam -= step
        if abs(step) < 1e-15 * max(1.0, abs(lam)):
            break
    return lam


def loop_mode_roots(mode_eig: float, p: ProblemParameters, mode: int) -> ModeRoots:
    """One mode's window roots root by root, as `spectrum.spectral_partition`
    reports them: branch 0 (made real) and branches 1..10 with their
    conjugates, each polished and residual-checked, sorted by descending real
    part, then descending imaginary part."""
    a = p.mu + mode_eig
    sigma, tau = p.sigma, p.tau
    if sigma == 0.0:
        return ModeRoots(mode, mode_eig, (complex(-a, 0.0),), (0.0,), True)
    log_z = math.log(sigma) + math.log(tau) + a * tau
    pairs = []  # (root, residual)
    for k in range(11):
        lam = -a + loop_lambert_w(log_z, k) / tau
        if lam.real < -50.0 / tau:
            continue
        lam = loop_newton_polish(lam, a, sigma, tau)
        if k == 0:
            lam = complex(lam.real, 0.0)
        res = abs(lam + a - sigma * cmath.exp(-lam * tau))
        pairs.extend([(lam, res)] if k == 0 else [(lam, res), (lam.conjugate(), res)])
    pairs.sort(key=lambda pair: (-pair[0].real, -pair[0].imag))
    residuals = tuple(res for _, res in pairs)
    return ModeRoots(mode, mode_eig, tuple(root for root, _ in pairs), residuals,
                     all(res <= ROOT_RESIDUAL_TOL for res in residuals))


def loop_root_groups(mode_roots) -> list:
    """(rho, multiplicity) groups of the roots' real parts, descending: a
    root joins the current group when within 1e-8 of the group's first real
    part; a conjugate pair counts two."""
    entries = sorted(((root.real, 2 if root.imag > 0 else 1)
                      for mr in mode_roots for root in mr.roots if root.imag >= 0),
                     key=lambda e: -e[0])
    groups = []
    for rho, mult in entries:
        if groups and abs(groups[-1][0] - rho) <= 1e-8:
            groups[-1][1] += mult
        else:
            groups.append([rho, mult])
    return [tuple(g) for g in groups]
