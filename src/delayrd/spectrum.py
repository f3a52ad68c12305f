"""Spectral machinery: interval eigenvalues, delay characteristic roots,
spectral splitting, and empirical dichotomy constants.

Substituting one Dirichlet mode of the ball Omega_K = (-K, K) into the
linearized equation reduces it to the scalar delay problem

    a'(t) = -(mu + mu_{m,K}) a(t) + sigma a(t - tau),

whose growth rates are the roots of the transcendental characteristic
equation

    lambda = -mu_{m,K} - mu + sigma exp(-lambda tau).

For sigma > 0 each mode carries one real root plus an infinite chain of
conjugate complex pairs marching left; the rightmost roots across all
retained modes are merged into the splitting data (rho_1 > rho_2 > ...,
multiplicities n_j, cut index k_m) that feeds the squeezing bounds and the
dimension certificates.  Every root is a Lambert W branch in closed form,
polished by Newton on the characteristic equation and residual-checked.

The per-mode equation is stepped by the PDE integrator's `solver.march`
with the scalar decay exp(-(mu + mu_{m,K}) dt) as propagator: one mode in
`linear_delay_evolve`, all sampled modes as one batch in the dichotomy.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .model import MAX_MARCH_STEPS, ConfigError, ProblemParameters
from .solver import march, step_count

__all__ = [
    "ModeRoots",
    "SpectralData",
    "SplittingError",
    "characteristic_roots",
    "dichotomy_constant",
    "dirichlet_eigenvalues",
    "linear_delay_evolve",
    "spectral_partition",
]

#: Residual gate applied to every returned characteristic root.
ROOT_RESIDUAL_TOL = 1e-10

#: Note attached to spectrum reports: the equation is implemented in the
#: form forced by the per-mode substitution; the variant with the squared
#: eigenvalue that circulates in the literature on this problem
#: ("mu^2_{m,K} - (lambda + mu - sigma e^{-lambda tau}) = 0") contradicts
#: the sigma = 0 heat decay and is recorded here for transparency.
CHARACTERISTIC_EQUATION_NOTE = (
    "roots solve lambda = -mu_{m,K} - mu + sigma*exp(-lambda*tau); "
    "the squared-eigenvalue variant 'mu^2_{m,K} - (lambda + mu - "
    "sigma e^{-lambda tau}) = 0' is inconsistent with the sigma=0 limit "
    "and is not used"
)

PROJECTION_NOTE = (
    "finite-dimensional projections are realized as spatial sine-mode "
    "projections on Omega_K; for this equation the spectral subspaces are "
    "spanned mode-by-mode by the same product-form eigenfunctions"
)


def dirichlet_eigenvalues(K: float, count: int) -> list:
    """Eigenvalues of -Laplacian on Omega_K with Dirichlet boundary.

    In one dimension Omega_K is the interval (-K, K) of length 2K, so
    mu_{m,K} = (m pi / (2K))^2, m = 1..count, strictly increasing.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if K <= 0:
        raise ValueError("K must be positive")
    return [(m * math.pi / (2.0 * K)) ** 2 for m in range(1, count + 1)]


# --- root finding ----------------------------------------------------------


def _char(lam, a: float, sigma: float, tau: float):
    return lam + a - sigma * cmath.exp(-lam * tau)


def _char_prime(lam, sigma: float, tau: float):
    return 1.0 + sigma * tau * cmath.exp(-lam * tau)


def _newton_polish(lam: complex, a: float, sigma: float, tau: float) -> complex:
    for _ in range(100):
        step = _char(lam, a, sigma, tau) / _char_prime(lam, sigma, tau)
        lam -= step
        if abs(step) < 1e-15 * max(1.0, abs(lam)):
            break
    return lam


def _lambert_w(log_z: float, k: int) -> complex:
    """Branch k of the Lambert W function at z = exp(log_z) > 0.

    Newton on w + log w = log z + 2 pi i k (Corless et al., Adv. Comput.
    Math. 5, 1996), so z itself is never formed and a huge z cannot
    overflow.  The start is the asymptotic L - log L, except on the
    principal branch below z = e, where W_0(z) is close to z.
    """
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


@dataclass(frozen=True)
class ModeRoots:
    """All window roots for one spatial mode (conjugates included); every
    root is simple."""

    mode: int
    eigenvalue: float
    roots: tuple
    residuals: tuple
    complete: bool


def characteristic_roots(mode_eig: float, p: ProblemParameters, count: int) -> list:
    """The ``count`` rightmost characteristic roots of one spatial mode.

    Ordered by descending real part (conjugate pairs adjacent, positive
    imaginary part first).  Every returned root satisfies
    |lambda + mu + mu_{m,K} - sigma exp(-lambda tau)| <= 1e-10.

    For sigma = 0 the transcendental term is absent and the single root
    -mu - mu_{m,K} is returned regardless of ``count``.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    return list(_mode_root_search(mode_eig, p).roots[:count])


def _mode_root_search(mode_eig: float, p: ProblemParameters) -> ModeRoots:
    """Every root with Re >= -50/tau and |Im| <= 20 pi/tau, by Lambert W.

    With a = mu + mu_{m,K}, the roots are lambda_k = -a + W_k(z)/tau for
    z = sigma tau e^{a tau} > 0.  On branch k >= 1, Im W_k(z) lies in
    ((2k - 1) pi, 2k pi), so branches 1..10 give the upper half of the
    window and branch 0 the real root, which is the rightmost one
    (Shinozaki & Mori, Automatica 42, 2006).  z never reaches the branch
    point -1/e, so every root is simple.  Each root in the window is
    polished by Newton on the characteristic equation itself.
    """
    a = p.mu + mode_eig
    sigma, tau = p.sigma, p.tau
    if sigma == 0.0:
        return ModeRoots(mode=0, eigenvalue=mode_eig, roots=(complex(-a, 0.0),),
                         residuals=(0.0,), complete=True)

    log_z = math.log(sigma) + math.log(tau) + a * tau
    roots = []
    for k in range(11):
        lam = -a + _lambert_w(log_z, k) / tau
        if lam.real < -50.0 / tau:  # out of the window; exp(-lam tau) may overflow
            continue
        lam = _newton_polish(lam, a, sigma, tau)
        if k == 0:
            roots.append(complex(lam.real, 0.0))
        else:
            roots.extend((lam, lam.conjugate()))

    roots.sort(key=lambda r: (-r.real, -r.imag))
    residuals = tuple(abs(_char(r, a, sigma, tau)) for r in roots)
    return ModeRoots(
        mode=0,
        eigenvalue=mode_eig,
        roots=tuple(roots),
        residuals=residuals,
        complete=all(res <= ROOT_RESIDUAL_TOL for res in residuals),
    )


# --- spectral splitting ----------------------------------------------------


class SplittingError(ValueError):
    """The search window holds too few roots to split the spectrum."""


@dataclass(frozen=True)
class SpectralData:
    """Merged spectral picture for a cutoff radius K and cut index m_cut.

    ``root_groups`` lists the distinct real parts descending with their
    total multiplicities (a conjugate pair counts two); k_m accumulates
    the first m_cut groups.  ``K_m`` is the dichotomy constant, attached
    with ``dataclasses.replace`` from `dichotomy_constant` (None until
    estimated).
    """

    K: float
    m_cut: int
    eigenvalues: tuple
    root_groups: tuple
    k_m: int
    rho1: float
    rho_m: float
    certificate_ok: bool
    status: str
    mode_roots: tuple
    K_m: float | None = None

    def as_dict(self) -> dict:
        return {
            "K": self.K,
            "m_cut": self.m_cut,
            "eigenvalues": list(self.eigenvalues),
            "root_groups": [{"rho": g[0], "multiplicity": g[1]} for g in self.root_groups],
            "k_m": self.k_m,
            "rho1": self.rho1,
            "rho_m": self.rho_m,
            "certificate_ok": self.certificate_ok,
            "status": self.status,
            "K_m": self.K_m,
            "characteristic_equation_note": CHARACTERISTIC_EQUATION_NOTE,
            "projection_note": PROJECTION_NOTE,
            "modes": [
                {
                    "mode": mr.mode,
                    "eigenvalue": mr.eigenvalue,
                    "roots": [
                        {"re": r.real, "im": r.imag, "multiplicity": 1, "residual": res}
                        for r, res in zip(mr.roots, mr.residuals)
                    ],
                    "complete": mr.complete,
                }
                for mr in self.mode_roots
            ],
        }


def spectral_partition(p: ProblemParameters, K: float, m_cut: int, modes: int) -> SpectralData:
    """Merge per-mode characteristic roots into the splitting data.

    Collects every window root of the first ``modes`` spatial modes,
    groups coincident real parts (tolerance 1e-8), sorts the groups
    descending, and accumulates multiplicities into k_m over the first
    ``m_cut`` groups.  rho_m < 0 is required for certificate use; when it
    fails the data is still returned with ``certificate_ok`` False, and
    ``status`` is "no_splitting" when no negative real part exists at all.
    A mode whose eigenvalue or roots overflow a float (a tiny K) raises
    SplittingError naming the mode.
    """
    if not 1 <= m_cut <= modes:
        raise ValueError("need modes >= m_cut >= 1")
    try:
        eigs = dirichlet_eigenvalues(K, modes)
    except OverflowError as exc:  # the last mode's eigenvalue is the largest
        raise SplittingError(f"mode {modes}: eigenvalue (m pi/(2K))^2 overflows a float "
                             f"at K = {K!r}") from exc
    details = []
    entries = []  # (real part, multiplicity counting conjugates)
    for idx, mu_m in enumerate(eigs, start=1):
        try:
            mr = replace(_mode_root_search(mu_m, p), mode=idx)
        except OverflowError as exc:  # exp(-lambda tau) in the Newton polish
            raise SplittingError(f"mode {idx}: characteristic-root search overflows a float "
                                 f"(eigenvalue {mu_m!r})") from exc
        details.append(mr)
        # conjugates (imag < 0) are counted with their partners
        entries.extend((root.real, 2 if root.imag > 0 else 1)
                       for root in mr.roots if root.imag >= 0)

    if not entries:
        raise SplittingError("no characteristic roots found in the search window")

    entries.sort(key=lambda e: -e[0])
    groups = []
    for rho, mult in entries:
        if groups and abs(groups[-1][0] - rho) <= 1e-8:
            groups[-1][1] += mult
        else:
            groups.append([rho, mult])

    if len(groups) < m_cut:
        raise SplittingError(
            f"only {len(groups)} distinct real parts in the window; m_cut={m_cut}"
        )
    k_m = sum(mult for _, mult in groups[:m_cut])
    rho1 = groups[0][0]
    rho_m = groups[m_cut - 1][0]
    if all(rho >= 0 for rho, _ in groups):
        status = "no_splitting"
    else:
        status = "ok"
    return SpectralData(
        K=K,
        m_cut=m_cut,
        eigenvalues=tuple(eigs),
        root_groups=tuple((rho, mult) for rho, mult in groups),
        k_m=k_m,
        rho1=rho1,
        rho_m=rho_m,
        certificate_ok=rho_m < 0,
        status=status,
        mode_roots=tuple(details),
    )


# --- per-mode linear evolution ---------------------------------------------


def linear_delay_evolve(mode_history, p: ProblemParameters, mode_eig: float,
                        horizon: float):
    """Evolve one spatial mode amplitude by the linear delay equation.

    a' = -(mu + mu_{m,K}) a(t) + sigma a(t - tau), stepped by the PDE
    integrator's own recurrence, `solver.march`, with the exact scalar
    decay in place of the semigroup (so the two agree to machine precision
    on shared modes).

    Parameters
    ----------
    mode_history : array_like
        Samples a(theta_j) at theta_j = -tau + j dt, any length >= 2;
        dt = tau / (len - 1).
    p : ProblemParameters
    mode_eig : float
        Dirichlet eigenvalue mu_{m,K} of the mode (0 for the flat mode).
    horizon : float

    Returns
    -------
    (times, values) : two ndarrays covering [0, horizon] in steps of dt.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    hist = np.asarray(mode_history, dtype=float)
    if hist.ndim != 1 or hist.size < 2:
        raise ValueError("mode history must be a 1-D array of >= 2 samples")
    dt = p.tau / (hist.size - 1)
    decay = math.exp(-(p.mu + mode_eig) * dt)
    n_steps = step_count(horizon, dt)
    steps = march(hist, n_steps, dt, lambda v: decay * v, lambda d: p.sigma * d)
    return dt * np.arange(n_steps + 1), np.array([hist[-1], *(rows[-1] for rows in steps)])


# --- dichotomy constant ----------------------------------------------------


def _q_side_profiles(spectral: SpectralData, rho_cut: float) -> list:
    """(mode index, eigenvalue, root) triples strictly below the cut."""
    out = []
    for mr in spectral.mode_roots:
        for root in mr.roots:
            if root.imag < 0:
                continue  # conjugate handled with its partner
            if root.real < rho_cut - 1e-9:
                out.append((mr.mode, mr.eigenvalue, root))
    return out


def dichotomy_constant(p: ProblemParameters, spectral: SpectralData,
                       samples: int, rng=None, steps_per_delay: int = 64,
                       t_points: int = 12, safety: float = 1.25) -> dict:
    """Estimate the dichotomy constant K_m by direct sampling.

    Random unit histories are synthesized from characteristic-mode
    profiles xi * exp(lambda theta) on the root set beyond the cut (the
    invariant complement).  The mode histories of all samples are evolved
    together, one mode per column of a single `solver.march` batch, and the
    overshoot max_t ||U(t) x||_C / (exp(rho_m t) ||x||_C) is recorded over
    a log-spaced time grid including t = 0.  The returned estimate
    is the sample maximum times a declared safety factor (default 1.25).

    Returns a dict with ``K_m`` (the estimate), ``sample_max``,
    ``safety``, ``times``, and ``samples``.  A march of more than
    ``MAX_MARCH_STEPS`` steps (a tiny tau) raises ConfigError instead.
    """
    if spectral.rho_m >= 0:
        raise ValueError("dichotomy estimate requires rho_m < 0")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = np.random.default_rng(0) if rng is None else rng
    profiles = _q_side_profiles(spectral, spectral.rho_m)
    if not profiles:
        raise SplittingError("no roots beyond the cut inside the search window")

    rho_m = spectral.rho_m
    t_max = min(20.0, max(1.0, 8.0 / abs(rho_m)))
    dt = p.tau / steps_per_delay
    # log-spaced targets snapped to the step grid, always containing t=0
    raw = np.geomspace(max(dt, t_max / 256.0), t_max, t_points)
    t_grid = sorted({0} | {int(round(t / dt)) for t in raw})
    if t_grid[-1] > MAX_MARCH_STEPS:
        raise ConfigError(f"tau = {p.tau!r} needs more than {MAX_MARCH_STEPS} dichotomy steps")
    thetas = np.linspace(-p.tau, 0.0, steps_per_delay + 1)

    # every sample's mode histories, as the columns of one batch
    draws = []  # (sample, mode eigenvalue, mode history)
    for sample in range(samples):
        take = min(len(profiles), 4)
        chosen = rng.choice(len(profiles), size=take, replace=False)
        by_mode: dict = {}
        for idx in chosen:
            mode, eig, root = profiles[idx]
            hist = by_mode.setdefault((mode, eig), np.zeros(steps_per_delay + 1))
            c1, c2 = rng.standard_normal(2)
            if root.imag == 0:
                hist += c1 * np.exp(root.real * thetas)
            else:
                envelope = np.exp(root.real * thetas)
                hist += envelope * (c1 * np.cos(root.imag * thetas)
                                    + c2 * np.sin(root.imag * thetas))
        draws.extend((sample, eig, hist) for (_, eig), hist in by_mode.items())
    owners, eigs, columns = zip(*draws)
    batch = np.stack(columns, axis=1)
    decay = np.array([math.exp(-(p.mu + eig) * dt) for eig in eigs])

    def seg_norms(window) -> np.ndarray:
        # squared amplitudes summed over each sample's modes in draw order,
        # row by row; the segment norm is the square root of their max
        rows = np.asarray(window)
        sums = np.zeros((len(rows), samples))
        np.add.at(sums, (slice(None), owners), rows * rows)
        return np.sqrt(sums.max(axis=0))

    base = seg_norms(batch)
    live = base != 0.0
    marks = set(t_grid)
    steps = march(batch, t_grid[-1], dt, lambda v: decay * v, lambda d: p.sigma * d)
    sample_max = 0.0
    for n, window in enumerate(itertools.chain([batch], steps)):
        if n in marks:
            t = n * dt
            ratios = seg_norms(window)[live] / (math.exp(rho_m * t) * base[live])
            sample_max = max([sample_max, *ratios.tolist()])

    return {
        "K_m": safety * sample_max,
        "sample_max": sample_max,
        "safety": safety,
        "times": [n * dt for n in t_grid],
        "samples": samples,
    }
