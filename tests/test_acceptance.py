"""End-to-end acceptance checks.

Nine scripted scenarios cover the full pipeline: exact semigroup decay,
integrator convergence order, entry into the absorbing ball, characteristic
roots against closed-form and bisection oracles, dimension-bound formulas
against an independent re-evaluation, covering counts against the
combinatorial bound, projected contraction against the analytic factors,
far-field threshold monotonicity, and byte-level reproducibility of the
command line.  Each check prints a single pass/fail line (with runtime
against its budget) straight to the terminal, bypassing capture.
"""

import functools
import hashlib
import json
import math
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from delayrd.cli import eigenmode_pair, main, random_history
from delayrd.dimension import covering_bound, covering_bruteforce, eta, hausdorff_bound
from delayrd.estimates import absorbing_time, compute_estimates, far_field_radii, verify_far_field
from delayrd.model import (
    ForcingSpec,
    Grid,
    NonlinearitySpec,
    ProblemParameters,
    evaluate_forcing,
)
from delayrd.semigroup import apply_semigroup, field_norm
from delayrd.solver import history_from_function, integrate, segment_at, segment_norm
from delayrd.spectrum import (
    SpectralData,
    characteristic_roots,
    dichotomy_constant,
    dirichlet_eigenvalues,
    linear_delay_evolve,
    spectral_partition,
)
from delayrd.squeezing import analytic_bounds, make_projections, measure_contraction

from conftest import far_field_sups


_live_capture = None


@pytest.fixture(autouse=True)
def _live_terminal(capfd):
    """Expose the capture fixture so pass/fail lines can reach the real
    terminal even under fd-level capture."""
    global _live_capture
    _live_capture = capfd
    yield
    _live_capture = None


def _announce(line):
    if _live_capture is not None:
        with _live_capture.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


def criterion(num, name, time_limit):
    """Time the check, enforce its runtime budget, and always print one
    pass/fail line to the real stdout."""
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.perf_counter()
            verdict = "FAIL"
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                assert elapsed < time_limit, (
                    f"runtime {elapsed:.2f}s exceeds the {time_limit:.0f}s budget")
                verdict = "PASS"
            finally:
                elapsed = time.perf_counter() - start
                _announce(f"criterion {num} ({name}): {verdict} "
                          f"[{elapsed:.2f}s, limit {time_limit:.0f}s]")
        return run
    return wrap


def reference_problem(grid):
    """mu=2, sigma=0.1, tau=0.5, L_f=1 with the forcing scaled to unit
    grid L2 norm."""
    raw = evaluate_forcing(ForcingSpec(kind="gaussian_bump", amplitude=1.0), grid.nodes)
    amp = 1.0 / field_norm(raw, grid)
    return ProblemParameters(
        mu=2.0, sigma=0.1, tau=0.5, lf=1.0,
        forcing=ForcingSpec(kind="gaussian_bump", amplitude=amp),
        nonlinearity=NonlinearitySpec(kind="scaled_tanh", scale=1.0),
    )


@criterion(1, "semigroup exactness", 1.0)
def test_criterion_1_semigroup():
    grid = Grid(half_length=16.0, points=4096)

    out = apply_semigroup(math.log(2.0), np.full(grid.points, 3.0), grid, mu=1.0)
    assert np.max(np.abs(out - 1.5)) <= 1e-10

    # heat flow of a Gaussian: variance grows by 2t, mass decays by e^{-mu t}
    x, s0, mu, t = grid.nodes, 1.0, 1.0, 1.0
    evolved = apply_semigroup(t, np.exp(-0.5 * x * x / s0**2), grid, mu)
    s2 = s0**2 + 2.0 * t
    exact = math.exp(-mu * t) * math.sqrt(s0**2 / s2) * np.exp(-0.5 * x * x / s2)
    assert np.max(np.abs(evolved - exact)) <= 1e-8


@criterion(2, "integrator order", 10.0)
def test_criterion_2_solver_order():
    grid = Grid(half_length=16.0, points=512)
    p = ProblemParameters(
        mu=1.0, sigma=0.5, tau=1.0, lf=0.5,
        forcing=ForcingSpec(),
        nonlinearity=NonlinearitySpec(kind="scaled_tanh", scale=0.5),
    )
    psi = lambda th: 0.8 + 0.3 * math.sin(2.0 * th)
    f = lambda u: 0.5 * math.tanh(u)

    # scalar method-of-steps reference at tight ODE tolerances
    pieces = [psi]
    t0, u0 = 0.0, psi(0.0)
    while t0 < 3.0 - 1e-12:
        t1 = min(t0 + p.tau, 3.0)
        prev = pieces[-1]

        def rhs(t, y, prev=prev):
            d = prev(t - p.tau)
            return -p.mu * y + p.sigma * d + f(d)

        sol = solve_ivp(rhs, (t0, t1), [u0], rtol=1e-12, atol=1e-14,
                        dense_output=True, method="DOP853")
        pieces.append(lambda t, s=sol.sol, lo=t0, hi=t1:
                      float(s(np.clip(t, lo, hi))[0]))
        t0, u0 = t1, float(sol.y[0, -1])
    exact = u0

    errors = []
    for spd in (8, 16, 32, 64):
        phi = history_from_function(lambda x, th: np.full_like(x, psi(th)),
                                    grid, p.tau, spd)
        values = integrate(phi, 3.0, p, grid)
        errors.append(abs(float(values[-1][0]) - exact))
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine >= 3.5, f"refinement ratio {coarse / fine:.2f} < 3.5"


@criterion(3, "absorbing ball entry", 120.0)
def test_criterion_3_absorbing():
    grid = Grid(half_length=16.0, points=512)
    p = reference_problem(grid)
    est = compute_estimates(p, norm_g=1.0)
    assert est.c3 == pytest.approx(1.3733, abs=5e-5)

    D = 10.0 * est.c3
    T_D = absorbing_time(p, est, D)
    assert math.isfinite(T_D)
    horizon = T_D + 2.0 + p.tau + 0.5
    threshold = est.c3 * 1.05

    rng = np.random.default_rng(2024)
    for _ in range(20):
        norm = float(rng.uniform(0.2, 1.0)) * D
        phi = random_history(rng, grid, p.tau, 32, norm)
        assert segment_norm(phi, grid) <= D * (1 + 1e-12)
        values = integrate(phi, horizon, p, grid)
        dt = p.tau / 32
        for n in range(int(math.ceil((T_D + 2.0) / dt)), len(values)):
            value = segment_norm(segment_at(phi, values, n), grid)
            assert value <= threshold, (
                f"segment norm {value:.6f} above {threshold:.6f} at t={n * dt:.3f}")


@criterion(4, "characteristic roots", 5.0)
def test_criterion_4_roots():
    # without delay coupling the roots are the explicit heat rates
    heat = ProblemParameters(mu=2.0, sigma=0.0, tau=0.5, lf=0.0,
                             forcing=ForcingSpec(), nonlinearity=NonlinearitySpec())
    for mu_m in dirichlet_eigenvalues(3.0, 6):
        (root,) = characteristic_roots(mu_m, heat, 1)
        assert abs(root - (-2.0 - mu_m)) <= 1e-12

    # mu=1, mu_{m,K}=1, sigma=0.5, tau=1: dominant root vs plain bisection
    p = ProblemParameters(mu=1.0, sigma=0.5, tau=1.0, lf=0.0,
                          forcing=ForcingSpec(), nonlinearity=NonlinearitySpec())
    dominant = characteristic_roots(1.0, p, 1)[0]
    assert dominant.imag == 0.0
    a, sigma, tau = 2.0, 0.5, 1.0
    lo, hi = -a, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid + a - sigma * math.exp(-mid * tau) > 0:
            hi = mid
        else:
            lo = mid
    assert abs(dominant.real - 0.5 * (lo + hi)) <= 1e-10
    assert dominant.real == pytest.approx(-0.8408414953783738, abs=1e-10)

    # the evolved mode's long-time log-slope recovers the same root
    times, values = linear_delay_evolve(np.ones(257), p, 1.0, 15.0)
    mask = times >= 10.0
    slope = np.polyfit(times[mask], np.log(np.abs(values[mask])), 1)[0]
    assert abs(slope - dominant.real) <= 1e-4


@criterion(5, "dimension formulas", 1.0)
def test_criterion_5_dimension():
    p = ProblemParameters(
        mu=6.0, sigma=0.1, tau=0.1, lf=0.5,
        forcing=ForcingSpec(),
        nonlinearity=NonlinearitySpec(kind="scaled_tanh", scale=0.5),
    )
    est = compute_estimates(p, norm_g=1.0)
    spectral = SpectralData(
        K=3.0, m_cut=3, eigenvalues=(), root_groups=((-2.0, 1), (-4.0, 1), (-6.0, 1)),
        k_m=3, rho1=-2.0, rho_m=-6.0, certificate_ok=True, status="ok",
        mode_roots=(), K_m=1.0,
    )
    t0, alpha = 1.0, 0.5
    eta_val = eta(t0, alpha, p, spectral, est)
    bound = hausdorff_bound(alpha, spectral.k_m, eta_val)

    # independent re-evaluation straight from the exponentials
    gap = spectral.rho1 + p.lf - spectral.rho_m
    growth = math.exp((p.lf + spectral.rho1) * t0)
    head = spectral.K_m * math.exp(spectral.rho_m * t0)
    coupling = spectral.K_m * p.lf / gap * growth
    c2 = math.exp((p.mu - p.sigma - 1.0) * p.tau)
    rate = c2 * (p.sigma + p.lf * p.lf) - (p.mu - p.sigma - 1.0)
    tail = math.sqrt(c2) * math.exp(0.5 * rate * t0)
    eta_ref = 2.0 * head + (alpha + 2.0 * coupling / growth) * growth + 2.0 * tail
    bound_ref = ((-math.log(spectral.k_m)
                  - spectral.k_m * math.log(2.0 + 4.0 / alpha)) / math.log(eta_ref))

    assert abs(eta_val - eta_ref) <= 1e-12 * abs(eta_ref)
    assert abs(bound - bound_ref) <= 1e-12 * abs(bound_ref)
    assert eta_val == pytest.approx(0.459, abs=1e-3)
    assert bound == pytest.approx(10.3, abs=0.05)


@criterion(6, "covering counts", 10.0)
def test_criterion_6_covering():
    rng = np.random.default_rng(6)
    for _ in range(100):
        m = int(rng.integers(1, 3))
        r2 = float(rng.uniform(0.05, 2.0))
        r1 = r2 * float(rng.uniform(1.05, 12.0))
        achieved = covering_bruteforce(m, r1, r2)
        assert 0 < achieved <= covering_bound(m, r1, r2), (
            f"covering {achieved} exceeds bound for m={m}, r1={r1}, r2={r2}")


@criterion(7, "projected contraction", 180.0)
def test_criterion_7_squeezing():
    grid = Grid(half_length=16.0, points=512)
    p = reference_problem(grid)
    est = compute_estimates(p, norm_g=1.0, norm_phi0=1.0)
    spectral = spectral_partition(p, K=3.0, m_cut=3, modes=8)
    rng = np.random.default_rng(np.random.PCG64(2024))
    report = dichotomy_constant(p, spectral, samples=16, rng=rng)
    spectral = replace(spectral, K_m=report["K_m"])
    ps = make_projections(grid, K=spectral.K, k_m=spectral.k_m)

    for _ in range(20):
        phi, psi = eigenmode_pair(rng, grid, p, spectral, 32,
                                  norm=1.0, separation=0.3)
        _, measured = measure_contraction([(phi, psi)], (0.5, 1.0), p, ps)
        for t, parts in zip((0.5, 1.0), measured[0]):
            b = analytic_bounds(t, p, spectral, est)
            for part, value in zip("PQR", parts):
                bound = b[f"b{part}"]
                assert value <= bound * 1.05, (
                    f"{part} ratio {value / bound:.3f} above 1.05 at t={t}")


@criterion(8, "far-field thresholds", 60.0)
def test_criterion_8_far_field():
    grid = Grid(half_length=16.0, points=512)

    def run(forcing_amplitude):
        p = ProblemParameters(
            mu=2.0, sigma=0.1, tau=0.5, lf=1.0,
            forcing=ForcingSpec(kind="compact_bump",
                                amplitude=forcing_amplitude, width=1.0),
            nonlinearity=NonlinearitySpec(kind="scaled_tanh", scale=1.0),
        )
        phi = history_from_function(
            lambda x, th: np.where(np.abs(x) < 4.0,
                                   np.cos(math.pi * x / 8.0) ** 2, 0.0),
            grid, p.tau, 32)
        values = integrate(phi, horizon=8.0, p=p, grid=grid)
        return far_field_sups(phi, values, grid, radii), p.tau / 32

    radii = far_field_radii(grid.half_length)

    # weak forcing: every radius drains, T(eps) climbs while R holds
    sups, dt = run(1e-3)
    prev_T, prev_R = -math.inf, 0.0
    for k in range(10):
        eps = 0.1 * 2.0 ** -k
        r = verify_far_field(sups, dt, eps, radii)
        assert r["status"] == "ok"
        assert r["tail_at_result"] <= eps
        assert r["T_emp"] >= prev_T and r["R_emp"] >= prev_R
        prev_T, prev_R = r["T_emp"], r["R_emp"]

    # strong forcing: sustained tails push the radius outward instead;
    # T stays comparable (nondecreasing) whenever the radius holds still
    sups, dt = run(0.5)
    prev = None
    for k in range(10):
        eps = 0.1 * 2.0 ** -k
        r = verify_far_field(sups, dt, eps, radii)
        assert r["status"] == "ok"
        assert r["tail_at_result"] <= eps
        if prev is not None:
            assert r["R_emp"] >= prev["R_emp"]
            if r["R_emp"] == prev["R_emp"]:
                assert r["T_emp"] >= prev["T_emp"]
        prev = r


@criterion(9, "reproducibility", 60.0)
def test_criterion_9_determinism(tmp_path):
    certify_cfg = tmp_path / "certify.json"
    certify_cfg.write_text(json.dumps({
        "mu": 6.0, "sigma": 0.1, "tau": 0.1, "lf": 0.5,
        "nonlinearity": {"kind": "scaled_tanh", "scale": 0.5},
        "forcing": {"kind": "gaussian_bump", "amplitude": 0.5},
        "grid": {"half_length": 16.0, "points": 512},
        "run": {"horizon": 2.0, "steps_per_delay": 16, "seed": 7},
    }))
    simulate_cfg = tmp_path / "simulate.json"
    simulate_cfg.write_text(json.dumps({
        "mu": 2.0, "sigma": 0.1, "tau": 0.5, "lf": 1.0,
        "nonlinearity": {"kind": "scaled_tanh", "scale": 1.0},
        "forcing": {"kind": "gaussian_bump", "amplitude": 0.75},
        "grid": {"half_length": 16.0, "points": 512},
        "run": {"horizon": 2.0, "steps_per_delay": 16, "seed": 7},
    }))

    for subcommand, cfg in (("certify", certify_cfg), ("simulate", simulate_cfg)):
        out1 = tmp_path / f"{subcommand}-1"
        out2 = tmp_path / f"{subcommand}-2"
        assert main([subcommand, "--config", str(cfg), "--out", str(out1)]) == 0
        assert main([subcommand, "--config", str(cfg), "--out", str(out2)]) == 0
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["payload_sha256"] == m2["payload_sha256"]
        assert m1["payload_sha256"]  # not vacuous
        for name, digest in m1["payload_sha256"].items():
            blob1 = (out1 / name).read_bytes()
            assert blob1 == (out2 / name).read_bytes()
            assert hashlib.sha256(blob1).hexdigest() == digest
