import cmath
import math

import numpy as np
import pytest
from scipy.special import lambertw

from delayrd.model import ForcingSpec, NonlinearitySpec, ProblemParameters
from delayrd.semigroup import Field
from delayrd.solver import history_from_function, integrate
from delayrd.spectrum import (
    ROOT_RESIDUAL_TOL,
    characteristic_roots,
    dichotomy_constant,
    dirichlet_eigenvalues,
    linear_delay_evolve,
    spectral_partition,
    with_dichotomy,
)

from conftest import heat_only_params


def linear_problem(mu=2.0, sigma=0.5, tau=1.0):
    return ProblemParameters(
        mu=mu, sigma=sigma, tau=tau, lf=0.0,
        forcing=ForcingSpec(), nonlinearity=NonlinearitySpec(),
    )


def lambert_roots(a, sigma, tau, max_branch=40):
    """Every characteristic root via lambda = -a + W_k(sigma tau e^{a tau})/tau."""
    arg = sigma * tau * math.exp(a * tau)
    out = []
    for k in range(-max_branch, max_branch + 1):
        w = lambertw(arg, k=k)
        lam = -a + complex(w) / tau
        if abs(lam + a - sigma * cmath.exp(-lam * tau)) < 1e-9:
            out.append(lam)
    return out


def test_dirichlet_eigenvalues():
    K = 3.0
    eigs = dirichlet_eigenvalues(K, 5)
    for m, mu_m in enumerate(eigs, start=1):
        assert mu_m == pytest.approx((m * math.pi / (2 * K)) ** 2, rel=1e-15)
    assert all(b > a for a, b in zip(eigs, eigs[1:]))
    with pytest.raises(ValueError):
        dirichlet_eigenvalues(0.0, 3)
    with pytest.raises(ValueError):
        dirichlet_eigenvalues(3.0, 0)
    with pytest.raises(ValueError, match="dimension"):
        dirichlet_eigenvalues(3.0, 3, n_dim=2)


def test_sigma_zero_roots_are_explicit():
    p = heat_only_params(mu=2.0)
    for mu_m in dirichlet_eigenvalues(3.0, 4):
        roots = characteristic_roots(mu_m, p, 3)
        assert roots == [complex(-2.0 - mu_m, 0.0)]


def test_roots_match_lambert_branches():
    """Cross-check the argument-principle search against the closed form
    on every branch that lands inside the search window."""
    p = linear_problem()
    a = p.mu  # flat mode
    found = characteristic_roots(0.0, p, 50)
    upper = sorted((r for r in found if r.imag >= 0), key=lambda r: r.imag)

    expected = [lam for lam in lambert_roots(a, p.sigma, p.tau)
                if 0 <= lam.imag < 20 * math.pi / p.tau and lam.real >= -50.0 / p.tau]
    expected.sort(key=lambda r: r.imag)

    assert len(upper) == len(expected)
    for got, ref in zip(upper, expected):
        assert abs(got - ref) < 1e-9


def test_aliasing_regression_full_window_count():
    """The a=2, sigma=0.5, tau=1 window contains one real root and ten
    conjugate pairs; a phase-tracking bug once reported zero."""
    p = linear_problem()
    found = characteristic_roots(0.0, p, 50)
    complex_upper = [r for r in found if r.imag > 0]
    real = [r for r in found if r.imag == 0]
    assert len(real) == 1
    assert len(complex_upper) == 10
    assert len(found) == 21


def test_dominant_root_value_and_bisection_oracle():
    p = linear_problem()
    dominant = characteristic_roots(0.0, p, 1)[0]
    assert dominant.imag == 0.0
    assert dominant.real == pytest.approx(-0.8408414953783738, abs=1e-12)

    # independent bisection on h(x) = x + a - sigma e^{-x tau}
    a, sigma, tau = 2.0, 0.5, 1.0
    lo, hi = -a, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid + a - sigma * math.exp(-mid * tau) > 0:
            hi = mid
        else:
            lo = mid
    assert dominant.real == pytest.approx(0.5 * (lo + hi), abs=1e-10)


def test_small_sigma_perturbation():
    """For sigma -> 0 the real root moves to -a + sigma e^{a tau} + O(sigma^2)."""
    sigma = 1e-4
    p = linear_problem(mu=2.0, sigma=sigma, tau=1.0)
    root = characteristic_roots(0.0, p, 1)[0].real
    first_order = -2.0 + sigma * math.exp(2.0)
    assert root == pytest.approx(first_order, abs=5e-6)


def test_root_list_contract():
    p = linear_problem()
    roots = characteristic_roots(0.3, p, 7)
    assert len(roots) == 7
    # descending real parts, conjugate pairs adjacent with +imag first
    reals = [r.real for r in roots]
    assert reals == sorted(reals, reverse=True)
    for prev, cur in zip(roots, roots[1:]):
        if prev.imag > 0:
            assert cur == prev.conjugate()
    a = p.mu + 0.3
    for r in roots:
        assert abs(r + a - p.sigma * cmath.exp(-r * p.tau)) <= ROOT_RESIDUAL_TOL
    with pytest.raises(ValueError):
        characteristic_roots(0.3, p, 0)


def test_partition_bookkeeping():
    p = heat_only_params(mu=2.0)  # sigma = 0: one real root per mode
    spectral = spectral_partition(p, K=3.0, m_cut=3, modes=6)
    eigs = dirichlet_eigenvalues(3.0, 6)
    expected = sorted((-2.0 - mu_m for mu_m in eigs), reverse=True)
    got = [rho for rho, _ in spectral.root_groups]
    np.testing.assert_allclose(got, expected, rtol=1e-12)
    assert all(mult == 1 for _, mult in spectral.root_groups)
    assert spectral.k_m == 3
    assert spectral.rho1 == pytest.approx(expected[0])
    assert spectral.rho_m == pytest.approx(expected[2])
    assert spectral.certificate_ok
    assert spectral.status == "ok"
    assert spectral.K_m is None
    tagged = with_dichotomy(spectral, 1.25)
    assert tagged.K_m == 1.25 and tagged.k_m == spectral.k_m

    with pytest.raises(ValueError):
        spectral_partition(p, K=3.0, m_cut=0, modes=6)
    with pytest.raises(ValueError):
        spectral_partition(p, K=3.0, m_cut=7, modes=6)


def test_partition_counts_conjugate_pairs_twice():
    p = linear_problem()
    spectral = spectral_partition(p, K=3.0, m_cut=2, modes=2)
    pair_groups = [g for g in spectral.root_groups if g[1] == 2]
    assert pair_groups  # complex pairs exist for sigma = 0.5
    # k_m sums multiplicities of the first two groups
    assert spectral.k_m == sum(m for _, m in spectral.root_groups[:2])
    # real parts of every mode root appear in some group
    for mr in spectral.mode_roots:
        for root in mr.roots:
            assert any(abs(root.real - rho) <= 1e-8 for rho, _ in spectral.root_groups)


def test_partition_as_dict_round_trips_to_json():
    import json

    p = linear_problem()
    spectral = spectral_partition(p, K=3.0, m_cut=2, modes=3)
    payload = json.loads(json.dumps(spectral.as_dict()))
    assert payload["k_m"] == spectral.k_m
    assert payload["modes"][0]["roots"][0]["residual"] <= ROOT_RESIDUAL_TOL
    assert all(m["complete"] for m in payload["modes"])


def test_linear_evolve_matches_pde_mode(grid):
    """Seed the PDE with a single periodic Fourier mode; its amplitude
    must follow the scalar delay recursion for eigenvalue xi^2."""
    p = linear_problem(mu=1.0, sigma=0.4, tau=0.5)
    k = 3
    xi = k * math.pi / grid.half_length
    profile = lambda th: 0.6 + 0.25 * math.cos(3.0 * th)
    S = 32
    phi = history_from_function(lambda x, th: profile(th) * np.sin(xi * x),
                                grid, p.tau, S)
    traj = integrate(phi, horizon=3.0, p=p)
    # grid projection onto the mode: sum u sin / sum sin^2
    basis = np.sin(xi * grid.nodes)
    weight = float(np.sum(basis * basis))
    amps = traj.values @ basis / weight

    hist = np.array([profile(-p.tau + j * p.tau / S) for j in range(S + 1)])
    times, ref = linear_delay_evolve(hist, p, xi * xi, 3.0)
    assert times.shape == amps.shape
    np.testing.assert_allclose(amps, ref, atol=1e-8)


def test_linear_evolve_validation():
    p = linear_problem()
    with pytest.raises(ValueError):
        linear_delay_evolve([1.0, 1.0], p, 0.0, -1.0)
    with pytest.raises(ValueError):
        linear_delay_evolve([1.0], p, 0.0, 1.0)


def test_linear_evolve_sigma_zero_is_exponential():
    p = heat_only_params(mu=2.0)
    hist = np.exp(-2.5 * np.linspace(-p.tau, 0, 9))
    times, values = linear_delay_evolve(hist, p, 0.5, 2.0)
    np.testing.assert_allclose(values, np.exp(-2.5 * times), rtol=1e-12)


def test_dichotomy_constant_sigma_zero(rng):
    """Without delay coupling every invariant-complement mode decays
    strictly faster than rho_m, so the overshoot is exactly its t=0
    value 1 and the estimate is the bare safety factor."""
    p = heat_only_params(mu=2.0)
    spectral = spectral_partition(p, K=3.0, m_cut=2, modes=6)
    report = dichotomy_constant(p, spectral, samples=8, rng=rng)
    assert report["sample_max"] == pytest.approx(1.0, rel=1e-12)
    assert report["K_m"] == pytest.approx(1.25, rel=1e-12)
    assert report["times"][0] == 0.0
    assert report["samples"] == 8


def test_dichotomy_requires_negative_cut(rng):
    from dataclasses import replace

    p = linear_problem()
    spectral = spectral_partition(p, K=3.0, m_cut=2, modes=4)
    positive = replace(spectral, rho_m=0.5)
    with pytest.raises(ValueError, match="rho_m"):
        dichotomy_constant(p, positive, samples=2, rng=rng)
    with pytest.raises(ValueError, match="samples"):
        dichotomy_constant(p, spectral, samples=0, rng=rng)


def loop_dichotomy_constant(p, spectral, samples, rng, steps_per_delay=64,
                            t_points=12, safety=1.25):
    """`dichotomy_constant` with per-step segment norms from a pure-Python
    loop over the segment rows (the reference for the window reduction)."""
    from delayrd.spectrum import _q_side_profiles

    profiles = _q_side_profiles(spectral, spectral.rho_m)
    rho_m = spectral.rho_m
    t_max = min(20.0, max(1.0, 8.0 / abs(rho_m)))
    dt = p.tau / steps_per_delay
    raw = np.geomspace(max(dt, t_max / 256.0), t_max, t_points)
    t_grid = sorted({0} | {int(round(t / dt)) for t in raw})
    horizon = t_grid[-1] * dt
    thetas = np.linspace(-p.tau, 0.0, steps_per_delay + 1)
    sample_max = 0.0
    for _ in range(samples):
        chosen = rng.choice(len(profiles), size=min(len(profiles), 4), replace=False)
        by_mode = {}
        for idx in chosen:
            mode, eig, root = profiles[idx]
            hist = by_mode.setdefault((mode, eig), np.zeros(steps_per_delay + 1))
            c1, c2 = rng.standard_normal(2)
            if root.imag == 0:
                hist += c1 * np.exp(root.real * thetas)
            else:
                hist += np.exp(root.real * thetas) * (c1 * np.cos(root.imag * thetas)
                                                      + c2 * np.sin(root.imag * thetas))
        evolved = [(hist, linear_delay_evolve(hist, p, eig, horizon)[1])
                   for (_, eig), hist in by_mode.items()]

        def seg_norm(n):
            worst = 0.0
            for j in range(steps_per_delay + 1):
                k = n - steps_per_delay + j
                total = sum((values[k] if k >= 0 else hist[k + steps_per_delay]) ** 2
                            for hist, values in evolved)
                worst = max(worst, total)
            return math.sqrt(worst)

        base = seg_norm(0)
        if base == 0.0:
            continue
        for n in t_grid:
            ratio = seg_norm(n) / (math.exp(rho_m * (n * dt)) * base)
            sample_max = max(sample_max, ratio)
    return {"K_m": safety * sample_max, "sample_max": sample_max,
            "times": [n * dt for n in t_grid]}


@pytest.mark.parametrize("config", ["base", "certify"])
def test_dichotomy_window_norms_match_loop(config):
    """The window reduction squares with x*x where the loop squared numpy
    scalars with pow, which can differ in the last ulp: rtol is a few
    float64 ulp, fixed in advance."""
    import pathlib

    from delayrd.model import parse_config

    path = pathlib.Path(__file__).resolve().parents[1] / "configs" / f"{config}.json"
    p, _, run = parse_config(path.read_text())
    spectral = spectral_partition(p, run.cutoff_radius, run.m_cut, run.modes)
    report = dichotomy_constant(p, spectral, run.dichotomy_samples,
                                rng=np.random.default_rng(np.random.PCG64(run.seed)))
    ref = loop_dichotomy_constant(p, spectral, run.dichotomy_samples,
                                  rng=np.random.default_rng(np.random.PCG64(run.seed)))
    assert report["times"] == ref["times"]
    for key in ("K_m", "sample_max"):
        np.testing.assert_allclose(report[key], ref[key], rtol=1e-15, atol=0.0)
