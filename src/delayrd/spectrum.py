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
dimension certificates.  Complex roots are located by the argument
principle on adaptively bisected rectangles and polished by Newton; every
returned root is residual-checked.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .model import ProblemParameters
from .solver import segment_sups

__all__ = [
    "ModeRoots",
    "SpectralData",
    "characteristic_roots",
    "dichotomy_constant",
    "dirichlet_eigenvalues",
    "linear_delay_evolve",
    "spectral_partition",
    "with_dichotomy",
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


def dirichlet_eigenvalues(K: float, count: int, n_dim: int = 1) -> list:
    """Eigenvalues of -Laplacian on Omega_K with Dirichlet boundary.

    In one dimension Omega_K is the interval (-K, K) of length 2K, so
    mu_{m,K} = (m pi / (2K))^2, m = 1..count, strictly increasing.
    """
    if n_dim != 1:
        raise ValueError(f"unsupported spatial dimension {n_dim}; only n_dim=1 is implemented")
    if count < 1:
        raise ValueError("count must be at least 1")
    if K <= 0:
        raise ValueError("K must be positive")
    return [(m * math.pi / (2.0 * K)) ** 2 for m in range(1, count + 1)]


# --- root finding ----------------------------------------------------------


def _char(lam, a: float, sigma: float, tau: float):
    return lam + a - sigma * np.exp(-lam * tau)


def _char_prime(lam, sigma: float, tau: float):
    return 1.0 + sigma * tau * np.exp(-lam * tau)


def _real_root(a: float, sigma: float, tau: float) -> float:
    """The unique real root of lambda + a = sigma exp(-lambda tau), sigma > 0.

    The left side is increasing, the right side decreasing in lambda, and
    they cross exactly once; safeguarded bisection brackets the crossing,
    Newton finishes.
    """
    lo = -a  # h(-a) = -sigma e^{a tau} < 0
    # h(hi) = hi + a - sigma e^{-hi tau} > 0: for sigma <= a take hi = 1,
    # else hi = sigma - a + 1 (then e^{-hi tau} < 1 and hi + a = sigma + 1).
    hi = max(1.0, sigma - a + 1.0)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _char(mid, a, sigma, tau) > 0:
            hi = mid
        else:
            lo = mid
    lam = 0.5 * (lo + hi)
    for _ in range(60):
        step = _char(lam, a, sigma, tau) / _char_prime(lam, sigma, tau)
        lam -= step
        if abs(step) < 1e-15 * max(1.0, abs(lam)):
            break
    return float(lam)


def _edge_arg_change(f, za: complex, zb: complex, tau: float) -> float:
    """Total argument change of f along the straight edge za -> zb.

    Subdivides until each sub-step turns the phase by less than pi/2, so
    the principal-value increments sum to the true continuous change.
    The exp(-i y tau) factor spins a full turn every 2 pi / tau of height,
    which can alias the coarse phase test to near zero; edges are therefore
    always split until their vertical extent is below pi / (2 tau).
    """
    total = 0.0
    stack = [(za, f(za), zb, f(zb), 0)]
    while stack:
        z0, f0, z1, f1, depth = stack.pop()
        if f0 == 0 or f1 == 0:
            raise ArithmeticError("zero of f on the contour")
        d = cmath.phase(f1 / f0)
        resolved = abs((z1 - z0).imag) * tau < 0.5 * math.pi
        if (resolved and abs(d) < 0.5 * math.pi) or depth > 48:
            total += d
            continue
        zm = 0.5 * (z0 + z1)
        fm = f(zm)
        stack.append((z0, f0, zm, fm, depth + 1))
        stack.append((zm, fm, z1, f1, depth + 1))
    return total


def _winding(f, x0: float, x1: float, y0: float, y1: float, tau: float) -> int:
    corners = [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]
    total = 0.0
    for i in range(4):
        total += _edge_arg_change(f, corners[i], corners[(i + 1) % 4], tau)
    w = total / (2.0 * math.pi)
    n = round(w)
    if abs(w - n) > 0.25:
        raise ArithmeticError(f"ambiguous winding number {w}")
    return int(n)


def _newton_polish(lam: complex, a: float, sigma: float, tau: float) -> complex:
    for _ in range(100):
        step = _char(lam, a, sigma, tau) / _char_prime(lam, sigma, tau)
        lam -= step
        if abs(step) < 1e-15 * max(1.0, abs(lam)):
            break
    return lam


def _roots_in_rectangle(a: float, sigma: float, tau: float,
                        x0: float, x1: float, y0: float, y1: float) -> list:
    """Locate all zeros inside an open rectangle via winding + bisection.

    Returns a list of (root, multiplicity).  Rectangles are bisected until
    they hold a single zero (then Newton from the center) or shrink to a
    speck (reported with the residual winding as multiplicity — a
    numerically multiple root).
    """

    def f(z):
        return _char(z, a, sigma, tau)

    def count(bx0, bx1, by0, by1, jitter=0.0):
        try:
            return _winding(f, bx0 - jitter, bx1 + jitter, by0 - jitter, by1 + jitter, tau)
        except ArithmeticError:
            # a zero (almost) on the contour: nudge the box outward a touch
            if jitter == 0.0:
                return count(bx0, bx1, by0, by1, 1e-7 * max(1.0, abs(bx1 - bx0)))
            raise

    found = []
    stack = [(x0, x1, y0, y1)]
    while stack:
        bx0, bx1, by0, by1 = stack.pop()
        w = count(bx0, bx1, by0, by1)
        if w == 0:
            continue
        small = (bx1 - bx0) < 1e-8 and (by1 - by0) < 1e-8
        if w == 1 or small:
            center = complex(0.5 * (bx0 + bx1), 0.5 * (by0 + by1))
            root = _newton_polish(center, a, sigma, tau)
            inside = (bx0 - 1e-6 <= root.real <= bx1 + 1e-6
                      and by0 - 1e-6 <= root.imag <= by1 + 1e-6)
            if w == 1 and inside and abs(f(root)) <= ROOT_RESIDUAL_TOL:
                found.append((root, 1))
                continue
            if small:
                found.append((root if inside else center, max(w, 1)))
                continue
        # bisect the longer side
        if (bx1 - bx0) >= (by1 - by0):
            xm = 0.5 * (bx0 + bx1)
            stack.append((bx0, xm, by0, by1))
            stack.append((xm, bx1, by0, by1))
        else:
            ym = 0.5 * (by0 + by1)
            stack.append((bx0, bx1, by0, ym))
            stack.append((bx0, bx1, ym, by1))
    return found


@dataclass(frozen=True)
class ModeRoots:
    """All window roots for one spatial mode (conjugates included)."""

    mode: int
    eigenvalue: float
    roots: tuple
    multiplicities: tuple
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
    detail = _mode_root_search(mode_eig, p)
    flat = []
    for root, mult in zip(detail.roots, detail.multiplicities):
        flat.extend([root] * mult)
    return flat[:count]


def _mode_root_search(mode_eig: float, p: ProblemParameters) -> ModeRoots:
    a = p.mu + mode_eig
    sigma, tau = p.sigma, p.tau
    if sigma == 0.0:
        return ModeRoots(mode=0, eigenvalue=mode_eig, roots=(complex(-a, 0.0),),
                         multiplicities=(1,), residuals=(0.0,), complete=True)

    x_lo, x_hi = -50.0 / tau, 5.0
    y_hi = 20.0 * math.pi / tau

    roots = []
    real_root = _real_root(a, sigma, tau)
    if x_lo <= real_root <= x_hi:
        roots.append((complex(real_root, 0.0), 1))

    # Complex roots in the upper half window.  Any root with Im > 0 must
    # satisfy Im = -sigma exp(-Re tau) sin(Im tau), impossible for
    # 0 < Im tau < pi, so the strip below pi/tau is root free and the lower
    # edge can sit safely in its middle, away from the real root on the axis.
    upper = _roots_in_rectangle(a, sigma, tau, x_lo, x_hi, 0.5 * math.pi / tau, y_hi)

    expanded = []
    for root, mult in roots:
        expanded.append((root, mult))
    for root, mult in upper:
        expanded.append((root, mult))
        expanded.append((root.conjugate(), mult))

    expanded.sort(key=lambda rm: (-rm[0].real, -rm[0].imag))
    residuals = tuple(float(abs(_char(r, a, sigma, tau))) for r, _ in expanded)
    complete = all(res <= ROOT_RESIDUAL_TOL for res in residuals)
    return ModeRoots(
        mode=0,
        eigenvalue=mode_eig,
        roots=tuple(r for r, _ in expanded),
        multiplicities=tuple(m for _, m in expanded),
        residuals=residuals,
        complete=complete,
    )


# --- spectral splitting ----------------------------------------------------


@dataclass(frozen=True)
class SpectralData:
    """Merged spectral picture for a cutoff radius K and cut index m_cut.

    ``root_groups`` lists the distinct real parts descending with their
    total multiplicities (a conjugate pair counts two); k_m accumulates
    the first m_cut groups.  ``K_m`` is the dichotomy constant, attached
    by `dichotomy_constant` / `with_dichotomy` (None until estimated).
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
                        {"re": r.real, "im": r.imag, "multiplicity": m, "residual": res}
                        for r, m, res in zip(mr.roots, mr.multiplicities, mr.residuals)
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
    """
    if not 1 <= m_cut <= modes:
        raise ValueError("need modes >= m_cut >= 1")
    eigs = dirichlet_eigenvalues(K, modes)
    details = []
    entries = []  # (real part, multiplicity counting conjugates)
    for idx, mu_m in enumerate(eigs, start=1):
        mr = _mode_root_search(mu_m, p)
        mr = replace(mr, mode=idx)
        details.append(mr)
        for root, mult in zip(mr.roots, mr.multiplicities):
            if root.imag > 0:
                entries.append((root.real, 2 * mult))
            elif root.imag == 0:
                entries.append((root.real, mult))
            # conjugates (imag < 0) are counted with their partners

    if not entries:
        raise ValueError("no characteristic roots found in the search window")

    entries.sort(key=lambda e: -e[0])
    groups = []
    for rho, mult in entries:
        if groups and abs(groups[-1][0] - rho) <= 1e-8:
            groups[-1][1] += mult
        else:
            groups.append([rho, mult])

    if len(groups) < m_cut:
        raise ValueError(
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


def with_dichotomy(spectral: SpectralData, K_m: float) -> SpectralData:
    """Return a copy of the spectral data with the dichotomy constant set."""
    return replace(spectral, K_m=K_m)


# --- per-mode linear evolution ---------------------------------------------


def linear_delay_evolve(mode_history, p: ProblemParameters, mode_eig: float,
                        horizon: float):
    """Evolve one spatial mode amplitude by the linear delay equation.

    a' = -(mu + mu_{m,K}) a(t) + sigma a(t - tau), discretized with the
    same exact-semigroup + trapezoidal-quadrature stepping as the PDE
    integrator (so the two agree to machine precision on shared modes).

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
    S = hist.size - 1
    dt = p.tau / S
    decay = math.exp(-(p.mu + mode_eig) * dt)
    n_steps = max(0, int(math.ceil(horizon / dt - 1e-9)))
    values = np.empty(n_steps + 1)
    values[0] = hist[-1]

    def delayed(n: int) -> float:
        return values[n - S] if n >= S else hist[n]

    h_prev = p.sigma * delayed(0)
    for n in range(n_steps):
        h_next = p.sigma * delayed(n + 1)
        values[n + 1] = decay * (values[n] + 0.5 * dt * h_prev) + 0.5 * dt * h_next
        h_prev = h_next
    return dt * np.arange(n_steps + 1), values


# --- dichotomy constant ----------------------------------------------------


def _q_side_profiles(spectral: SpectralData, rho_cut: float) -> list:
    """(mode index, eigenvalue, root) triples strictly below the cut."""
    out = []
    for mr in spectral.mode_roots:
        for root, mult in zip(mr.roots, mr.multiplicities):
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
    invariant complement), evolved per mode by `linear_delay_evolve`, and
    the overshoot max_t ||U(t) x||_C / (exp(rho_m t) ||x||_C) is recorded
    over a log-spaced time grid including t = 0.  The returned estimate
    is the sample maximum times a declared safety factor (default 1.25).

    Returns a dict with ``K_m`` (the estimate), ``sample_max``,
    ``safety``, ``times``, and ``samples``.
    """
    if spectral.rho_m >= 0:
        raise ValueError("dichotomy estimate requires rho_m < 0")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = np.random.default_rng(0) if rng is None else rng
    profiles = _q_side_profiles(spectral, spectral.rho_m)
    if not profiles:
        raise ValueError("no roots beyond the cut inside the search window")

    rho_m = spectral.rho_m
    t_max = min(20.0, max(1.0, 8.0 / abs(rho_m)))
    dt = p.tau / steps_per_delay
    # log-spaced targets snapped to the step grid, always containing t=0
    raw = np.geomspace(max(dt, t_max / 256.0), t_max, t_points)
    t_grid = sorted({0} | {int(round(t / dt)) for t in raw})
    horizon = t_grid[-1] * dt
    thetas = np.linspace(-p.tau, 0.0, steps_per_delay + 1)

    sample_max = 0.0
    for _ in range(samples):
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
        # squared amplitudes summed over modes, row by row; the segment
        # norm is the square root of their window max
        hist_sq, traj_sq = 0.0, 0.0
        for (_, eig), hist in by_mode.items():
            _, values = linear_delay_evolve(hist, p, eig, horizon)
            hist_sq = hist_sq + hist * hist
            traj_sq = traj_sq + values * values
        seg_norms = np.sqrt(segment_sups(hist_sq, traj_sq)).tolist()

        base = seg_norms[0]
        if base == 0.0:
            continue
        for n in t_grid:
            t = n * dt
            ratio = seg_norms[n] / (math.exp(rho_m * t) * base)
            sample_max = max(sample_max, ratio)

    return {
        "K_m": safety * sample_max,
        "sample_max": sample_max,
        "safety": safety,
        "times": [n * dt for n in t_grid],
        "samples": samples,
    }
