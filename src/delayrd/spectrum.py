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
polished by Newton on the characteristic equation and residual-checked,
all (mode, branch) pairs as one array; the roots of every mode form one
NaN-padded table, and their real parts are grouped on one sort.

The per-mode equation is stepped by the PDE integrator's `solver.march`
with the scalar decay exp(-(mu + mu_{m,K}) dt) as multiplier between
identity transforms: one mode in `linear_delay_evolve`, all sampled modes
as one batch in the dichotomy, whose segment norms are square roots of
`solver.window_sups` of per-row squared sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import MAX_MARCH_STEPS, ConfigError, ProblemParameters
from .solver import march, step_count, window_sups

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

#: A real part this close to its group's first (largest) one joins the group;
#: the dichotomy samples only roots farther below rho_m, the other side of the cut.
ROOT_GROUP_TOL = 1e-8

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


class SplittingError(ValueError):
    """The search window holds too few roots to split the spectrum."""


#: Lambert W branches searched per mode: branch 0 gives the real root and
#: branches 1..10 the upper half of the window.
BRANCHES = 11


def _newton(x: np.ndarray, idx: np.ndarray, step, done) -> None:
    """Newton's method in place on the entries ``idx`` of the flat array
    ``x``.  ``step(idx, x[idx])`` gives the steps; each entry takes at most
    100 of them and is frozen once its own step passes ``done(step, new x)``,
    so it takes the steps a scalar loop would."""
    for _ in range(100):
        if not idx.size:
            return
        s = step(idx, x[idx])
        x[idx] -= s
        idx = idx[~done(s, x[idx])]


def _root_table(eigs: list, p: ProblemParameters) -> tuple:
    """(roots, residuals, counts) of the modes with Dirichlet eigenvalues
    ``eigs``: row i holds the window roots of mode i + 1 (Re >= -50/tau,
    |Im| <= 20 pi/tau) in its first ``counts[i]`` entries, by descending
    real part, then descending imaginary part; the rest of the row is NaN.

    With a = mu + mu_{m,K}, the roots are lambda_k = -a + W_k(z)/tau for
    z = sigma tau e^{a tau} > 0.  On branch k >= 1, Im W_k(z) lies in
    ((2k - 1) pi, 2k pi), so branches 1..10 give the upper half of the
    window and branch 0 the real root, which is the rightmost one
    (Shinozaki & Mori, Automatica 42, 2006).  z never reaches the branch
    point -1/e, so every root is simple.  Every (mode, branch) pair runs
    through two Newton iterations as one array:

    - W_k on w + log w = log z + 2 pi i k (Corless et al., Adv. Comput.
      Math. 5, 1996), so a huge z is never formed.  The start is the
      asymptotic L - log L, except on branch 0 below z = e, where W_0(z) is
      close to z (and is z = 0 when z underflows).  Stop: |step| <= 1e-15 |w|.
    - Each root in the window is polished on chi(lambda) = lambda + a -
      sigma e^{-lambda tau} itself.  Stop: |step| < 1e-15 max(1, |lambda|)
      (Ortega & Rheinboldt, 1970).

    The residual is |chi(lambda)|; a conjugate carries its partner's, since
    |chi(conj lambda)| = |chi(lambda)|.  An exp(-lambda tau) that overflows
    raises SplittingError naming the first such mode.
    """
    a = p.mu + np.asarray(eigs, dtype=float)
    sigma, tau = p.sigma, p.tau
    if sigma == 0.0:  # no delay term: the single root -a
        return (-a).astype(complex)[:, None], np.zeros((a.size, 1)), np.ones(a.size, int)

    with np.errstate(all="ignore"):
        log_z = math.log(sigma) + math.log(tau) + a * tau
        target = log_z[:, None] + 2j * math.pi * np.arange(BRANCHES)
        w = target - np.log(target)
        small = log_z < 1.0
        w[small, 0] = np.exp(target[small, 0])
        _newton(w.reshape(-1), np.flatnonzero(w != 0),
                lambda i, x: x * (x + np.log(x) - target.flat[i]) / (1.0 + x),
                lambda s, x: np.abs(s) <= 1e-15 * np.abs(x))
        lam = -a[:, None] + w / tau
        keep = ~(lam.real < -50.0 / tau)  # out of the window, exp(-lambda tau) may overflow
        a_at = np.broadcast_to(a[:, None], lam.shape).reshape(-1)
        overflow = np.zeros(lam.size, bool)

        def delayed(i, lam):  # exp(-lambda tau), marking every overflow
            arg = -lam * tau
            out = np.exp(arg)
            overflow[i] |= np.isfinite(arg) & ~np.isfinite(out)
            return out

        def polish(i, lam):
            d = delayed(i, lam)  # shared by chi and its derivative
            return (lam + a_at[i] - sigma * d) / (1.0 + sigma * tau * d)

        _newton(lam.reshape(-1), np.flatnonzero(keep), polish,
                lambda s, x: np.abs(s) < 1e-15 * np.maximum(1.0, np.abs(x)))
        lam.imag[:, 0] = 0.0  # branch 0 is real
        i = np.flatnonzero(keep)
        residual = np.full(lam.shape, np.nan)
        residual.flat[i] = np.abs(lam.flat[i] + a_at[i] - sigma * delayed(i, lam.flat[i]))
    if overflow.any():
        first = int(overflow.reshape(lam.shape).any(axis=1).argmax())
        raise SplittingError(f"mode {first + 1}: characteristic-root search overflows a float "
                             f"(eigenvalue {eigs[first]!r})")

    # branches 0..10, then the conjugates of 1..10; sorted, the kept ones first
    roots = np.concatenate([lam, lam[:, 1:].conj()], axis=1)
    residuals = np.concatenate([residual, residual[:, 1:]], axis=1)
    kept = np.concatenate([keep, keep[:, 1:]], axis=1)
    order = np.lexsort((-roots.imag, -roots.real, ~kept), axis=-1)
    return (np.take_along_axis(np.where(kept, roots, np.nan), order, axis=-1),
            np.take_along_axis(residuals, order, axis=-1), kept.sum(axis=1))


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
    imaginary part first).  The 1e-10 residual gate on
    |lambda + mu + mu_{m,K} - sigma exp(-lambda tau)| is not applied here:
    `spectral_partition` reports it per mode as ``ModeRoots.complete``.

    For sigma = 0 the transcendental term is absent and the single root
    -mu - mu_{m,K} is returned regardless of ``count``.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    roots, _, counts = _root_table([mode_eig], p)
    return roots[0, :counts[0]].tolist()[:count]


# --- spectral splitting ----------------------------------------------------


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
    groups coincident real parts (within ``ROOT_GROUP_TOL`` of the group's
    first, largest, real part), sorts the groups descending, and accumulates
    multiplicities into k_m over the first ``m_cut`` groups.  Certificate
    use requires rho_m < 0 and every mode ``complete`` (all its roots pass
    the residual gate); when either fails the data is still returned with
    ``certificate_ok`` False, and ``status`` is "no_splitting" when no
    negative real part exists at all.  A mode whose eigenvalue or roots
    overflow a float (a tiny K) raises SplittingError naming the mode.
    """
    if not 1 <= m_cut <= modes:
        raise ValueError("need modes >= m_cut >= 1")
    try:
        eigs = dirichlet_eigenvalues(K, modes)
    except OverflowError as exc:  # the last mode's eigenvalue is the largest
        raise SplittingError(f"mode {modes}: eigenvalue (m pi/(2K))^2 overflows a float "
                             f"at K = {K!r}") from exc
    roots, residuals, counts = _root_table(eigs, p)
    listed = np.arange(roots.shape[1]) < counts[:, None]
    complete = np.all((residuals <= ROOT_RESIDUAL_TOL) | ~listed, axis=1)
    details = tuple(
        ModeRoots(mode=m, eigenvalue=eig, roots=tuple(r[:n]), residuals=tuple(res[:n]),
                  complete=ok)
        for m, eig, r, res, n, ok in zip(range(1, modes + 1), eigs, roots.tolist(),
                                         residuals.tolist(), counts.tolist(), complete.tolist()))

    # a root with Im > 0 counts its conjugate too, and one with Im < 0 is that conjugate
    upper = listed & (roots.imag >= 0)
    order = np.argsort(-roots.real[upper], kind="stable")
    rho, mult = roots.real[upper][order], 1 + (roots.imag[upper][order] > 0)
    if not rho.size:
        raise SplittingError("no characteristic roots found in the search window")
    groups = []  # [rho, multiplicity]; a real part within ROOT_GROUP_TOL of rho joins it
    for r, m in zip(rho.tolist(), mult.tolist()):
        if groups and abs(groups[-1][0] - r) <= ROOT_GROUP_TOL:
            groups[-1][1] += m
        else:
            groups.append([r, m])
    if len(groups) < m_cut:
        raise SplittingError(f"only {len(groups)} distinct real parts in the window; "
                             f"m_cut={m_cut}")
    rho1, rho_m = groups[0][0], groups[m_cut - 1][0]
    return SpectralData(
        K=K,
        m_cut=m_cut,
        eigenvalues=tuple(eigs),
        root_groups=tuple(map(tuple, groups)),
        k_m=sum(m for _, m in groups[:m_cut]),
        rho1=rho1,
        rho_m=rho_m,
        certificate_ok=rho_m < 0 and bool(complete.all()),
        status="no_splitting" if all(r >= 0 for r, _ in groups) else "ok",
        mode_roots=details,
    )


# --- per-mode linear evolution ---------------------------------------------

#: `solver.march`'s transforms for a scalar decay per mode.
IDENTITIES = (lambda v: v, lambda v: v)


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
    blocks = march(hist, n_steps, dt, decay, IDENTITIES, lambda d: p.sigma * d)
    return dt * np.arange(n_steps + 1), np.concatenate([hist[-1:], *blocks])


# --- dichotomy constant ----------------------------------------------------

#: `dichotomy_constant`'s steps per delay, log-spaced read-out times and
#: declared safety factor on the sample maximum.
DICHOTOMY_STEPS_PER_DELAY = 64
DICHOTOMY_T_POINTS = 12
DICHOTOMY_SAFETY = 1.25


def dichotomy_constant(p: ProblemParameters, spectral: SpectralData,
                       samples: int, rng: np.random.Generator) -> dict:
    """Estimate the dichotomy constant K_m by direct sampling.

    Random unit histories are synthesized from characteristic-mode
    profiles xi * exp(lambda theta) on the root set beyond the cut (the
    invariant complement).  Only the random stream is drawn sample by
    sample (up to four profiles, then a normal pair for each); every
    history term is then formed in one array pass and summed, in draw
    order, into its column of a single `solver.march` batch, one column per
    (sample, mode).  All samples are evolved together, and the
    overshoot max_t ||U(t) x||_C / (exp(rho_m t) ||x||_C) is recorded over
    a log-spaced time grid including t = 0.  The returned estimate
    is the sample maximum times the declared `DICHOTOMY_SAFETY`.

    Returns a dict with ``K_m`` (the estimate), ``sample_max``,
    ``safety``, ``times``, and ``samples``.  A march of more than
    ``MAX_MARCH_STEPS`` steps (a tiny tau) raises ConfigError instead.
    """
    if spectral.rho_m >= 0:
        raise ValueError("dichotomy estimate requires rho_m < 0")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    # the roots beyond the cut with Im >= 0 (a conjugate goes with its partner)
    beyond = [(mr.mode - 1, root) for mr in spectral.mode_roots for root in mr.roots
              if root.imag >= 0 and spectral.rho_m - root.real > ROOT_GROUP_TOL]
    if not beyond:
        raise SplittingError("no roots beyond the cut inside the search window")
    rows, roots = zip(*beyond)  # row i: mode i + 1

    rho_m = spectral.rho_m
    t_max = min(20.0, max(1.0, 8.0 / abs(rho_m)))
    S = DICHOTOMY_STEPS_PER_DELAY
    dt = p.tau / S
    # log-spaced targets snapped to the step grid, always containing t=0
    raw = np.geomspace(max(dt, t_max / 256.0), t_max, DICHOTOMY_T_POINTS)
    t_grid = sorted({0} | {int(round(t / dt)) for t in raw})
    if t_grid[-1] > MAX_MARCH_STEPS:
        raise ConfigError(f"tau = {p.tau!r} needs more than {MAX_MARCH_STEPS} dichotomy steps")
    thetas = np.linspace(-p.tau, 0.0, S + 1)

    # the random stream, sample by sample: each pick's profile and batch
    # column, one column per (sample, mode) in first-seen order; a sample's
    # columns are adjacent, the first at its entry of `starts`
    take = min(len(rows), 4)
    picks, coeffs, cols, starts, eigs = [], [], [], [], []
    for _ in range(samples):
        chosen = rng.choice(len(rows), size=take, replace=False)
        coeffs.append(rng.standard_normal((take, 2)))  # one (c1, c2) per pick
        starts.append(len(eigs))
        columns: dict = {}  # mode row -> batch column
        for idx in chosen:
            cols.append(columns.setdefault(rows[idx], len(eigs) + len(columns)))
        eigs.extend(spectral.eigenvalues[row] for row in columns)
        picks.extend(chosen)
    # every draw's term exp(re theta) (c1 cos(im theta) + c2 sin(im theta)) at
    # once, which is c1 exp(re theta) exactly at a real root, summed into its
    # column in draw order (np.add.at is unbuffered)
    roots = np.array(roots)[picks]
    c1, c2 = np.concatenate(coeffs).T
    phases = np.outer(roots.imag, thetas)
    terms = np.exp(np.outer(roots.real, thetas)) * (c1[:, None] * np.cos(phases)
                                                    + c2[:, None] * np.sin(phases))
    batch = np.zeros((S + 1, len(eigs)))
    np.add.at(batch.T, cols, terms)
    del phases, terms  # not held through the march, whose blocks take their place
    decay = np.array([math.exp(-(p.mu + eig) * dt) for eig in eigs])

    def row_sums(rows) -> np.ndarray:
        # squared amplitudes summed over each sample's modes in draw order,
        # row by row; a segment norm is the square root of their max
        return np.add.reduceat(rows * rows, starts, axis=1)

    sums = window_sups(batch, march(batch, t_grid[-1], dt, decay, IDENTITIES,
                                    lambda d: p.sigma * d), t_grid, row_sums)
    base = np.sqrt(sums[0])  # t_grid[0] = 0
    live = base != 0.0
    # the overshoots in t_grid order; max keeps its running value past a NaN
    ratios = [np.sqrt(s)[live] / (math.exp(rho_m * (n * dt)) * base[live])
              for n, s in zip(t_grid, sums)]
    sample_max = max([0.0, *np.concatenate(ratios).tolist()])

    return {
        "K_m": DICHOTOMY_SAFETY * sample_max,
        "sample_max": sample_max,
        "safety": DICHOTOMY_SAFETY,
        "times": [n * dt for n in t_grid],
        "samples": samples,
    }
