import math
import pathlib
from dataclasses import asdict, replace

import numpy as np
import pytest

from delayrd import dimension
from delayrd.dimension import (
    ALPHA_GRID,
    BETA_GRID,
    T0_GRID,
    covering_bound,
    covering_bruteforce,
    eta,
    fractal_bound,
    hausdorff_bound,
    optimize_certificate,
    zeta,
)
from delayrd.estimates import compute_estimates
from delayrd.model import ForcingSpec, NonlinearitySpec, ProblemParameters
from delayrd.spectrum import SpectralData
from delayrd.squeezing import analytic_bounds

from conftest import dissipative_params


def synthetic_spectral(k_m=3, rho1=-2.0, rho_m=-6.0, K_m=1.0):
    """Hand-built spectral data for closed-form cross-checks."""
    return SpectralData(
        K=3.0, m_cut=k_m, eigenvalues=(),
        root_groups=tuple((rho1 + j * (rho_m - rho1) / max(1, k_m - 1), 1)
                          for j in range(k_m)),
        k_m=k_m, rho1=rho1, rho_m=rho_m,
        certificate_ok=True, status="ok", mode_roots=(), K_m=K_m,
    )


def stiff_problem():
    return ProblemParameters(
        mu=6.0, sigma=0.1, tau=0.1, lf=0.5,
        forcing=ForcingSpec(),
        nonlinearity=NonlinearitySpec(kind="scaled_tanh", scale=0.5),
    )


def test_eta_and_hausdorff_against_inline_formulas():
    """Re-derive the contraction number and the dimension bound from the
    raw exponentials for a fully pinned parameter set."""
    p = stiff_problem()
    est = compute_estimates(p, norm_g=1.0)
    sp = synthetic_spectral()
    t0, alpha = 1.0, 0.5

    got = eta(t0, alpha, p, sp, est)

    gap = sp.rho1 + p.lf - sp.rho_m
    growth = math.exp((p.lf + sp.rho1) * t0)
    head = sp.K_m * math.exp(sp.rho_m * t0)
    coupling = sp.K_m * p.lf / gap * growth
    c2 = math.exp((p.mu - p.sigma - 1.0) * p.tau)
    rate = c2 * (p.sigma + p.lf**2) - (p.mu - p.sigma - 1.0)
    tail = math.sqrt(c2) * math.exp(0.5 * rate * t0)
    expected = 2.0 * head + (alpha + 2.0 * coupling / growth) * growth + 2.0 * tail

    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(0.4595132060690810, rel=1e-13)
    assert got < 1.0

    bound = hausdorff_bound(alpha, sp.k_m, got)
    expected_bound = (-math.log(3) - 3 * math.log(2 + 4 / alpha)) / math.log(got)
    assert bound == pytest.approx(expected_bound, rel=1e-12)
    assert bound == pytest.approx(10.296418812804783, rel=1e-12)


def test_eta_survives_underflowing_growth():
    """At large t0 the factor exp((lf + rho1) t0) underflows to 0; eta
    then reduces to its tail and must not divide by that factor."""
    p = stiff_problem()
    est = compute_estimates(p, norm_g=1.0)
    sp = synthetic_spectral(rho1=-40.0, rho_m=-45.0)
    t0 = 50.0
    assert math.exp((p.lf + sp.rho1) * t0) == 0.0
    got = eta(t0, 0.5, p, sp, est)
    rate = est.c2 * (p.sigma + p.lf**2) - (p.mu - p.sigma - 1.0)
    assert got == 2.0 * math.sqrt(est.c2) * math.exp(0.5 * rate * t0)


def test_eta_validation_and_infeasible_values():
    p = stiff_problem()
    est = compute_estimates(p, norm_g=1.0)
    sp = synthetic_spectral()
    with pytest.raises(ValueError):
        eta(1.0, 0.0, p, sp, est)
    with pytest.raises(ValueError):
        eta(1.0, 2.0, p, sp, est)
    with pytest.raises(ValueError):
        eta(0.0, 0.5, p, sp, est)
    with pytest.raises(ValueError, match="dichotomy"):
        eta(1.0, 0.5, p, synthetic_spectral(K_m=None), est)
    # a closed gap rho1 + lf = rho_m returns inf rather than raising
    closed = synthetic_spectral(rho1=-2.0, rho_m=-1.5, K_m=1.0)
    assert math.isinf(eta(1.0, 0.5, p, closed, est))

    assert math.isinf(hausdorff_bound(0.5, 3, 1.0))
    assert math.isinf(hausdorff_bound(0.5, 3, 0.0))  # eta underflowed to 0: no log(0)
    with pytest.raises(ValueError):
        hausdorff_bound(0.5, 0, 0.5)


def test_zeta_fixed_and_extended_agree_at_unit_time():
    p = stiff_problem()
    est = compute_estimates(p, norm_g=1.0)
    sp = synthetic_spectral()
    fixed = zeta(0.3, p, sp, est)
    extended = zeta(0.3, p, sp, est, t0=1.0)
    assert fixed == extended
    # the extension actually moves with t0
    assert zeta(0.3, p, sp, est, t0=2.0) != fixed

    with pytest.raises(ValueError):
        zeta(0.0, p, sp, est)
    with pytest.raises(ValueError):
        zeta(0.3, p, sp, est, t0=0.0)


@pytest.mark.parametrize("rho1,rho_m,t,alpha,beta", [
    (-2.0, -6.0, 1.0, 0.5, 0.3),
    (-2.0, -6.0, 0.1, 1.9, 1e-3),
    (-0.8, -3.0, 7.5, 0.1, 1e2),
    (-2.0, -1.5, 1.0, 0.5, 0.3),     # closed gap rho1 + lf = rho_m
    (-40.0, -45.0, 50.0, 1.2, 4.0),  # e^{(lf + rho1) t} underflows to 0
], ids=["unit-time", "short-time", "long-time", "zero-gap", "underflowing-growth"])
def test_contraction_numbers_are_assembled_from_the_squeezing_bounds(rho1, rho_m, t,
                                                                     alpha, beta):
    """The certificate is built from the bounds squeeze measures against:
    eta = 2 bQ + alpha bP + 2 bR and zeta = beta bP + bQ + bR."""
    p = stiff_problem()
    est = compute_estimates(p, norm_g=1.0)
    sp = synthetic_spectral(rho1=rho1, rho_m=rho_m)
    b = analytic_bounds(t, p, sp, est)
    if rho1 + p.lf == rho_m:
        assert not b["feasible"]
        assert math.isinf(eta(t, alpha, p, sp, est)) and math.isinf(b["bQ"])
        assert math.isinf(zeta(beta, p, sp, est, t0=t))
        return
    if rho1 == -40.0:
        assert b["bP"] == 0.0
    assert eta(t, alpha, p, sp, est) == pytest.approx(
        2.0 * b["bQ"] + alpha * b["bP"] + 2.0 * b["bR"], rel=1e-14, abs=0.0)
    assert zeta(beta, p, sp, est, t0=t) == pytest.approx(
        beta * b["bP"] + b["bQ"] + b["bR"], rel=1e-14, abs=0.0)


def test_fractal_bound_formula():
    # k_m = 1, beta = 2, zeta = 1/2: (0 + ln 3) / ln 2
    assert fractal_bound(2.0, 1, 0.5) == pytest.approx(math.log(3) / math.log(2), rel=1e-15)
    assert math.isinf(fractal_bound(2.0, 1, 1.0))
    assert math.isinf(fractal_bound(2.0, 1, 0.0))
    with pytest.raises(ValueError):
        fractal_bound(2.0, 0, 0.5)


def test_optimizer_feasible_and_deterministic():
    p = stiff_problem()
    est = compute_estimates(p, norm_g=1.0)
    sp = synthetic_spectral()

    both = optimize_certificate(p, sp, est)
    assert list(both) == ["hausdorff", "fractal"]
    cert = both["hausdorff"]
    assert cert.feasible and cert.mode == "hausdorff"
    assert cert.eta < 1.0
    # never worse than the hand-picked point (1.0, 0.5)
    assert cert.hausdorff_bound <= 10.2964188128048
    # refinement stays inside the declared search ranges
    assert T0_GRID[0] <= cert.t0 <= T0_GRID[-1]
    assert ALPHA_GRID[0] <= cert.alpha <= ALPHA_GRID[-1]

    assert optimize_certificate(p, sp, est) == both

    frac = both["fractal"]
    assert frac.feasible and frac.mode == "fractal" and frac.zeta < 1.0
    assert math.isfinite(frac.fractal_bound)
    assert T0_GRID[0] <= frac.t0 <= T0_GRID[-1]
    assert BETA_GRID[0] <= frac.beta_free <= BETA_GRID[-1]
    assert "extension" in frac.note


@pytest.mark.parametrize("lf,rho_m,mode,t0,free,bound", [
    (0.45, -3.0, "hausdorff", 20.0, 0.28750000000000003, 1.8165911158361008),
    (0.6, -6.0, "fractal", 5.032727713113054, 0.05556376510433994, 2.9548706634135335),
], ids=["alpha-refined", "t0-and-beta-refined"])
def test_optimizer_refinement_leaves_the_grid(lf, rho_m, mode, t0, free, bound):
    """Pinned optima that only the three refinement rounds reach: alpha
    moves by halved shifts, t0 and beta by square-rooted factors."""
    p = ProblemParameters(mu=3.0, sigma=0.1, tau=0.1, lf=lf, forcing=ForcingSpec(),
                          nonlinearity=NonlinearitySpec(kind="scaled_tanh", scale=lf))
    est = compute_estimates(p, norm_g=1.0)
    cert = optimize_certificate(p, synthetic_spectral(k_m=1, rho1=-0.5, rho_m=rho_m), est)[mode]
    got = cert.alpha if mode == "hausdorff" else cert.beta_free
    assert got not in (ALPHA_GRID if mode == "hausdorff" else BETA_GRID)
    assert (cert.t0, got) == (pytest.approx(t0, rel=1e-12), pytest.approx(free, rel=1e-12))
    assert min(cert.hausdorff_bound, cert.fractal_bound) == pytest.approx(bound, rel=1e-12)


def test_optimizer_reports_infeasibility(grid):
    """The reference dissipative set has a positive tail rate, so no
    (t0, alpha) or (t0, beta) makes the contraction number drop below 1."""
    p = dissipative_params(grid)
    est = compute_estimates(p, norm_g=1.0)
    sp = synthetic_spectral(rho1=-0.5, rho_m=-1.0, K_m=2.0)
    both = optimize_certificate(p, sp, est)
    for cert in both.values():
        assert not cert.feasible
        assert math.isinf(cert.hausdorff_bound) and math.isinf(cert.fractal_bound)
        assert cert.best_contraction >= 1.0
        assert asdict(cert)["feasible"] is False
    assert "no feasible" in both["hausdorff"].note
    assert "extension" in both["fractal"].note


def certified(config: str):
    """(params, spectral data with K_m, estimates) as `certify` builds them."""
    from delayrd import cli

    root = pathlib.Path(__file__).resolve().parents[1]
    path = root / "configs" / f"{config}.json"
    if not path.exists():
        path = root / "perfbench" / "configs" / f"{config}.json"
    p, grid, run = cli._load_config(str(path))
    est, spectral, _, diagnostics = cli._certification(p, grid, run)
    assert not diagnostics and spectral.K_m is not None
    return p, spectral, est


def reference_certificate(p, sp, est, mode):
    """(bound, t0, free, contraction) of the certificate search with every
    grid and refinement point evaluated through `eta` or `zeta`."""
    if mode == "hausdorff":
        number = lambda t0, free: eta(t0, free, p, sp, est)
        bound, free_grid = hausdorff_bound, ALPHA_GRID
        free_step = (ALPHA_GRID[1] - ALPHA_GRID[0]) / 2.0
        free_rule = lambda x, step: ((x - step, x + step), step / 2.0)
    else:
        number = lambda t0, free: zeta(free, p, sp, est, t0)
        bound, free_grid = fractal_bound, BETA_GRID
        free_step = math.sqrt(BETA_GRID[1] / BETA_GRID[0])
        free_rule = lambda x, step: ((x / step, x * step), math.sqrt(step))
    best = None
    for t0 in T0_GRID:
        for free in free_grid:
            c_val = number(t0, free)
            b = bound(free, sp.k_m, c_val)
            if math.isfinite(b) and (best is None or b < best[0]):
                best = (b, t0, free, c_val)
    b, t0, free, c_val = best
    point, steps = [t0, free], [math.sqrt(T0_GRID[1] / T0_GRID[0]), free_step]
    t0_rule = lambda x, step: ((x / step, x * step), math.sqrt(step))
    for _ in range(3):
        for axis, grid, rule in ((0, T0_GRID, t0_rule), (1, free_grid, free_rule)):
            neighbours, steps[axis] = rule(point[axis], steps[axis])
            for x in neighbours:
                if grid[0] <= x <= grid[-1]:
                    trial = point.copy()
                    trial[axis] = x
                    c_new = number(*trial)
                    b_new = bound(trial[1], sp.k_m, c_new)
                    if b_new < b:
                        b, point, c_val = b_new, trial, c_new
    return b, point[0], point[1], c_val


@pytest.mark.parametrize("config", ["certify", "certify-sweep-1"])
@pytest.mark.parametrize("mode", ["hausdorff", "fractal"])
def test_optimizer_matches_a_search_through_eta_and_zeta(config, mode):
    """The grid evaluates the contraction number from factors taken once per
    t0; the certificate equals a search that calls `eta`/`zeta` at every
    point, bit for bit."""
    p, spectral, est = certified(config)
    cert = optimize_certificate(p, spectral, est)[mode]
    free = cert.alpha if mode == "hausdorff" else cert.beta_free
    contraction = cert.eta if mode == "hausdorff" else cert.zeta
    bound = cert.hausdorff_bound if mode == "hausdorff" else cert.fractal_bound
    assert cert.feasible
    assert (bound, cert.t0, free, contraction) == reference_certificate(p, spectral, est, mode)
    assert cert.best_contraction == contraction


@pytest.mark.parametrize("mode", ["hausdorff", "fractal"])
def test_optimizer_takes_the_factors_once_per_t0(monkeypatch, mode):
    """One search takes `contraction_terms` once per grid t0 for both
    certificates, and each refinement once per trial point (2 modes x
    3 rounds x 2 axes x 2 neighbours); no point goes through eta/zeta, and
    a cut without K_m costs no call. Each mode's certificate comes out of
    that one search."""
    p, spectral, est = certified("certify")
    calls = {"terms": 0, "number": 0}

    def counted(key, function):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(dimension, "contraction_terms",
                        counted("terms", dimension.contraction_terms))
    monkeypatch.setattr(dimension, "eta", counted("number", dimension.eta))
    monkeypatch.setattr(dimension, "zeta", counted("number", dimension.zeta))
    cert = optimize_certificate(p, spectral, est)[mode]
    assert cert.feasible and cert.mode == mode
    assert calls["number"] == 0
    assert len(T0_GRID) <= calls["terms"] <= len(T0_GRID) + 24

    calls["terms"] = 0
    cert = optimize_certificate(p, replace(spectral, K_m=None), est)[mode]
    assert (cert.feasible, cert.mode, cert.t0, cert.best_contraction) == (False, mode, 1.0, math.inf)
    assert calls == {"terms": 0, "number": 0}


@pytest.mark.parametrize("mode", ["hausdorff", "fractal"])
def test_optimizer_closed_gap_is_infeasible(mode):
    """A closed gap rho1 + lf = rho_m makes every grid value inf: the
    search reports infeasibility at t0 = 1 and the first free value
    instead of raising."""
    p = stiff_problem()
    est = compute_estimates(p, norm_g=1.0)
    cert = optimize_certificate(p, synthetic_spectral(rho1=-2.0, rho_m=-1.5), est)[mode]
    assert not cert.feasible
    assert math.isinf(cert.best_contraction)
    free = cert.alpha if mode == "hausdorff" else cert.beta_free
    assert (cert.t0, free) == (1.0, (ALPHA_GRID if mode == "hausdorff" else BETA_GRID)[0])


def test_covering_bound_reference_values():
    assert covering_bound(1, 2.0, 1.0) == 6
    assert covering_bound(2, 2.0, 1.0) == 72
    with pytest.raises(ValueError):
        covering_bound(0, 2.0, 1.0)
    with pytest.raises(ValueError):
        covering_bound(1, 1.0, 2.0)


def test_covering_bruteforce_within_bound(rng):
    for _ in range(20):
        m = int(rng.integers(1, 3))
        r2 = float(rng.uniform(0.1, 1.0))
        r1 = r2 * float(rng.uniform(1.2, 8.0))
        for norm in ("sup", "euclidean"):
            achieved = covering_bruteforce(m, r1, r2, norm=norm)
            assert 0 < achieved <= covering_bound(m, r1, r2)


def test_covering_bruteforce_volume_lower_bounds(rng):
    """An actual covering can never beat the volume count, which pins the
    construction against off-by-one pitch errors."""
    for _ in range(10):
        r2 = float(rng.uniform(0.2, 1.0))
        r1 = r2 * float(rng.uniform(1.5, 6.0))
        n1 = covering_bruteforce(1, r1, r2)
        assert n1 >= r1 / r2  # intervals of length 2 r2 covering 2 r1
        n2 = covering_bruteforce(2, r1, r2, norm="euclidean")
        # each cell has area (2 r2 / sqrt 2)^2 = 2 r2^2
        assert n2 >= math.pi * r1 * r1 / (2.0 * r2 * r2)
    with pytest.raises(ValueError):
        covering_bruteforce(3, 2.0, 1.0)
    with pytest.raises(ValueError):
        covering_bruteforce(1, 2.0, 1.0, norm="manhattan")
