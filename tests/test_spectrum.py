import cmath
import math
import pathlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import lambertw

from delayrd import solver, spectrum
from delayrd.model import ForcingSpec, NonlinearitySpec, ProblemParameters, parse_config
from delayrd.solver import DivergenceError, history_from_function, integrate, march
from delayrd.spectrum import (
    IDENTITIES,
    ROOT_GROUP_TOL,
    ROOT_RESIDUAL_TOL,
    ModeRoots,
    SpectralData,
    SplittingError,
    characteristic_roots,
    dichotomy_constant,
    dirichlet_eigenvalues,
    linear_delay_evolve,
    spectral_partition,
)

from conftest import heat_only_params, loop_mode_roots, loop_root_groups


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


def test_sigma_zero_roots_are_explicit():
    p = heat_only_params(mu=2.0)
    for mu_m in dirichlet_eigenvalues(3.0, 4):
        roots = characteristic_roots(mu_m, p, 3)
        assert roots == [complex(-2.0 - mu_m, 0.0)]


def _lambert_cases():
    """(name, mu, sigma, tau, eigenvalue): the first and last mode of every
    checked-in config, plus a tiny sigma, a real root far right, and
    a*tau near the float exponent limit."""
    root = pathlib.Path(__file__).resolve().parents[1]
    cases = []
    for path in sorted(root.glob("configs/*.json")) + sorted(root.glob("perfbench/configs/*.json")):
        p, _, run = parse_config(path.read_text())
        eigs = dirichlet_eigenvalues(run.cutoff_radius, run.modes)
        for m in (1, run.modes):
            cases.append((f"{path.relative_to(root)} mode {m}", p.mu, p.sigma, p.tau, eigs[m - 1]))
    return cases + [
        ("sigma 1e-4", 2.0, 1e-4, 1.0, 0.0),
        ("sigma 50", 6.0, 50.0, 0.1, (math.pi / 6.0) ** 2),
        ("a*tau 700", 699.0, 0.1, 1.0, 1.0),
    ]


def test_roots_match_lambert_branches():
    """The whole window root set, count and values, equals scipy's
    lambertw branches for every case; rtol 1e-13 is fixed in advance."""
    for name, mu, sigma, tau, mode_eig in _lambert_cases():
        p = linear_problem(mu=mu, sigma=sigma, tau=tau)
        found = sorted(characteristic_roots(mode_eig, p, 1000), key=lambda r: r.imag)
        expected = sorted((lam for lam in lambert_roots(mu + mode_eig, sigma, tau)
                           if lam.real >= -50.0 / tau and abs(lam.imag) <= 20 * math.pi / tau),
                          key=lambda r: r.imag)
        assert len(found) == len(expected), name
        np.testing.assert_allclose(found, expected, rtol=1e-13, atol=0.0, err_msg=name)
        assert all(type(r) is complex for r in found), name


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


def test_subnormal_sigma_keeps_the_real_root():
    """sigma tau e^{a tau} underflows to 0 here, and the complex roots lie
    so far left that exp(-lambda tau) would overflow at them."""
    for sigma in (5e-324, 1e-320):
        p = linear_problem(mu=6.0, sigma=sigma, tau=0.1)
        assert characteristic_roots(0.0, p, 5) == [complex(-6.0, 0.0)]


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
    values = integrate(phi, horizon=3.0, p=p, grid=grid)
    # grid projection onto the mode: sum u sin / sum sin^2
    basis = np.sin(xi * grid.nodes)
    weight = float(np.sum(basis * basis))
    amps = values @ basis / weight

    hist = np.array([profile(-p.tau + j * p.tau / S) for j in range(S + 1)])
    times, ref = linear_delay_evolve(hist, p, xi * xi, 3.0)
    assert times.shape == amps.shape
    np.testing.assert_allclose(amps, ref, atol=1e-8)


def loop_linear_delay_evolve(hist, p, mode_eig, horizon):
    """Reference per-mode evolution: the scalar trapezoid loop on a full
    array with its own delayed-index bookkeeping (shares no stepping code
    with `delayrd.solver`)."""
    S = hist.size - 1
    dt = p.tau / S
    decay = math.exp(-(p.mu + mode_eig) * dt)
    n_steps = max(0, int(math.ceil(horizon / dt - 1e-9)))
    values = np.empty(n_steps + 1)
    values[0] = hist[-1]

    def delayed(n):
        return values[n - S] if n >= S else hist[n]

    h_prev = p.sigma * delayed(0)
    for n in range(n_steps):
        h_next = p.sigma * delayed(n + 1)
        values[n + 1] = decay * (values[n] + 0.5 * dt * h_prev) + 0.5 * dt * h_next
        h_prev = h_next
    return values


@pytest.mark.parametrize("horizon,block_floats", [
    pytest.param(0.3, None, id="0.3"),  # below tau = 1
    pytest.param(4.0, None, id="4.0"),  # whole intervals
    pytest.param(2.7, None, id="2.7"),  # a partial last interval
    pytest.param(2.7, 1, id="2.7-rows-at-threshold"),
    pytest.param(2.7, 0, id="2.7-rows-above-threshold"),
    pytest.param(2.7, 5, id="2.7-blocks-of-5-rows"),
])
def test_linear_evolve_matches_loop_reference(monkeypatch, horizon, block_floats):
    """Equal to the loop exactly, marched in blocks of a whole interval (the
    default `solver.BLOCK_FLOATS` holds 32 rows of one float), of one row
    (a budget of one float, at the row size, or of none, below it), or of
    5 rows, which do not divide the interval's 32 steps."""
    if block_floats is not None:
        monkeypatch.setattr(solver, "BLOCK_FLOATS", block_floats)
    p = linear_problem(mu=1.5, sigma=0.7, tau=1.0)
    hist = np.cos(3.0 * np.linspace(-1.0, 0.0, 33)) + 0.2
    for eig in (0.0, 2.3):
        times, values = linear_delay_evolve(hist, p, eig, horizon)
        assert np.array_equal(values, loop_linear_delay_evolve(hist, p, eig, horizon))
        assert np.array_equal(times, p.tau / 32 * np.arange(values.size))


@pytest.mark.parametrize("block_floats", [None, 0, 5], ids=["interval", "per-step", "blocks-of-5"])
def test_linear_evolve_divergence_step_matches_loop_reference(monkeypatch, block_floats):
    """A 1e308 history with sigma > mu grows past the float range at the
    step where the loop first holds inf, 55, inside the second interval of
    32 steps; `march` yields every row before it, all finite, whether its
    blocks hold the whole interval, one row (step by step) or 5 rows (55 is
    the third row of a block of 5)."""
    if block_floats is not None:
        monkeypatch.setattr(solver, "BLOCK_FLOATS", block_floats)
    p = linear_problem(mu=0.2, sigma=0.7, tau=1.0)
    hist = np.full(33, 1e308)
    decay = math.exp(-p.mu * p.tau / 32)
    rows = []
    with np.errstate(over="ignore", invalid="ignore"):
        ref = loop_linear_delay_evolve(hist, p, 0.0, 4.0)
        with pytest.raises(DivergenceError) as info:
            linear_delay_evolve(hist, p, 0.0, 4.0)
        with pytest.raises(DivergenceError) as marched:
            for block in march(hist, 128, p.tau / 32, decay, IDENTITIES, lambda d: p.sigma * d):
                rows.extend(block)
    step = int(np.argmin(np.isfinite(ref)))
    assert step == 55
    assert info.value.step == marched.value.step == step
    assert len(rows) == step - 1 and np.isfinite(rows).all()


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


def test_dichotomy_without_roots_beyond_the_cut_raises(rng):
    """A hand-built SpectralData with no roots below rho_m has no profile
    to sample from."""
    spectral = SpectralData(
        K=3.0, m_cut=1, eigenvalues=(), root_groups=((-2.0, 1),), k_m=1, rho1=-2.0,
        rho_m=-2.0, certificate_ok=True, status="ok", mode_roots=())
    with pytest.raises(SplittingError, match="no roots beyond the cut"):
        dichotomy_constant(linear_problem(), spectral, samples=2, rng=rng)


def test_dichotomy_leaves_the_mth_group_on_the_p_side(rng):
    """A root within ROOT_GROUP_TOL below rho_m joins the m-th group, which
    counts toward k_m, so the dichotomy must not sample it as a root beyond
    the cut: with no other root below rho_m there is nothing to sample."""
    near = -2.0 - ROOT_GROUP_TOL / 2
    spectral = SpectralData(
        K=3.0, m_cut=1, eigenvalues=(0.0,), root_groups=((-2.0, 2),), k_m=2, rho1=-2.0,
        rho_m=-2.0, certificate_ok=True, status="ok",
        mode_roots=(ModeRoots(mode=1, eigenvalue=0.0, roots=(-2.0 + 0j, near + 0j),
                              residuals=(0.0, 0.0), complete=True),))
    with pytest.raises(SplittingError, match="no roots beyond the cut"):
        dichotomy_constant(linear_problem(), spectral, samples=2, rng=rng)


def test_dichotomy_ignores_a_root_moved_into_the_mth_group():
    """A mode-2 root added 5e-9 below rho_m (first in its mode's descending
    list) and counted in the m-th group leaves K_m as it was: the sampled
    profiles are the same."""
    p = linear_problem()
    spectral = spectral_partition(p, K=3.0, m_cut=1, modes=4)
    first, second, *rest = spectral.mode_roots
    second = replace(second, roots=(complex(spectral.rho_m - 5e-9, 0.0), *second.roots),
                     residuals=(0.0, *second.residuals))
    (rho, count), *groups = spectral.root_groups
    moved = replace(spectral, mode_roots=(first, second, *rest),
                    root_groups=((rho, count + 1), *groups), k_m=spectral.k_m + 1)

    def k_m(sp):
        return dichotomy_constant(p, sp, samples=16, rng=np.random.default_rng(0))["K_m"]

    assert k_m(moved) == k_m(spectral)


def loop_dichotomy_constant(p, spectral, samples, rng, steps_per_delay=64,
                            t_points=12, safety=1.25):
    """`dichotomy_constant` one sample at a time, each mode evolved by the
    reference loop, with per-step segment norms from a pure-Python loop
    over the segment rows (the reference for the batched evolution and the
    window reduction)."""
    rho_m = spectral.rho_m
    # (mode, eigenvalue, root) of every root more than 1e-8 below the cut (the
    # m-th group ends there), a conjugate handled with its partner
    profiles = [(mr.mode, mr.eigenvalue, root) for mr in spectral.mode_roots
                for root in mr.roots if root.imag >= 0 and rho_m - root.real > 1e-8]
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
        evolved = [(hist, loop_linear_delay_evolve(hist, p, eig, horizon))
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


CONFIG_DIRS = [pathlib.Path(__file__).resolve().parents[1] / d
               for d in ("configs", "perfbench/configs")]
SHIPPED_CONFIGS = sorted(path.stem for d in CONFIG_DIRS for path in d.glob("*.json"))


def config_path(name: str) -> pathlib.Path:
    return next(d / f"{name}.json" for d in CONFIG_DIRS if (d / f"{name}.json").exists())


@pytest.mark.parametrize("config", SHIPPED_CONFIGS)
def test_a_real_root_is_sorted_first(config):
    """`cli.eigenmode_pair` carries each mode back in theta by roots[0].real:
    whenever a mode has a real root, roots[0] is one (branch 0, the rightmost
    root), so that rate is the largest real root's."""
    p, _, run = parse_config(config_path(config).read_text())
    for mr in spectral_partition(p, run.cutoff_radius, run.m_cut, run.modes).mode_roots:
        real = [r.real for r in mr.roots if r.imag == 0]
        assert not real or (mr.roots[0].imag == 0 and mr.roots[0].real == max(real)), mr.mode


@pytest.mark.parametrize("config,seed,samples,block_floats", [
    pytest.param("base", 1, 32, None, id="1-32"),
    pytest.param("base", 2, 16, None, id="2-16"),
    pytest.param("certify-sweep-1", 0, 64, None, id="certify-sweep-1"),
    pytest.param("certify-sweep-4", 0, 64, None, id="certify-sweep-4"),
    pytest.param("base", 1, 32, 0, id="1-32-per-step"),
    pytest.param("certify-sweep-1", 0, 64, 0, id="certify-sweep-1-per-step"),
    pytest.param("certify-sweep-4", 0, 64, 0, id="certify-sweep-4-per-step"),
    *(pytest.param(name, seed, None, None, id=f"{name}-seed{seed}")
      for name in SHIPPED_CONFIGS for seed in (0, 7)
      if (name, seed) not in {("certify-sweep-1", 0), ("certify-sweep-4", 0)}),
])
def test_dichotomy_batch_matches_per_sample_loop(monkeypatch, config, seed, samples, block_floats):
    """The batch sums each sample's modes only with each other: over many
    samples of differing mode counts the estimate equals the per-sample
    reference loop exactly.  On certify-sweep-1 and -4 (at the seed and
    sample count certify uses) K_m depends on the flow, not only on the
    initial histories.  A ``samples`` of None is the config's own
    ``dichotomy_samples``, as certify runs it at that seed.  The batched
    draws take exactly the loop's stream: `take` pairs of normals at once
    are the `take` single pairs the loop draws, so both generators end in
    the same state.  The march takes whole intervals (the rows, at most 247
    floats, fit 64 steps in `solver.BLOCK_FLOATS`; the last interval
    partial), or single steps once ``block_floats`` lowers the budget
    below one row."""
    if block_floats is not None:
        monkeypatch.setattr(solver, "BLOCK_FLOATS", block_floats)
    p, _, run = parse_config(config_path(config).read_text())
    samples = run.dichotomy_samples if samples is None else samples
    spectral = spectral_partition(p, run.cutoff_radius, run.m_cut, run.modes)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    report = dichotomy_constant(p, spectral, samples, rng=rng)
    ref = loop_dichotomy_constant(p, spectral, samples, rng=ref_rng)
    assert report["sample_max"] == ref["sample_max"]
    assert report["K_m"] == ref["K_m"]
    assert report["times"] == ref["times"]
    assert rng.bit_generator.state == ref_rng.bit_generator.state


#: The traced peak of `dichotomy_constant` under the per-step march it used
#: before the interval march, on each certify-sweep config: 875.5 to 876.3 kB
#: (a second call in the process; Python 3.11.7, numpy 2.4.6).
PER_STEP_DICHOTOMY_PEAK = 875_000


@pytest.mark.parametrize("config", [name for name in SHIPPED_CONFIGS
                                    if name.startswith("certify-sweep")])
def test_dichotomy_peak_stays_below_the_per_step_march(config):
    """The interval march holds a block and its loads where the per-step one
    held S + 1 rows, and the read-out keeps the row sums of one segment and
    one block, not of the whole march: the traced peak stays at or below the
    per-step march's (measured 775 kB; keeping every row sum reached 1.8 MB)."""
    p, _, run = parse_config(config_path(config).read_text())
    spectral = spectral_partition(p, run.cutoff_radius, run.m_cut, run.modes)

    def peak():
        tracemalloc.start()
        try:
            dichotomy_constant(p, spectral, run.dichotomy_samples,
                               rng=np.random.default_rng(np.random.PCG64(run.seed)))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak()  # warm-up: first-call caches are not part of the march
    assert peak() <= PER_STEP_DICHOTOMY_PEAK


@pytest.mark.parametrize("config", SHIPPED_CONFIGS)
def test_stored_residuals_are_recomputed_residuals(config):
    """On every mode of every shipped config each stored residual of a root
    with Im >= 0 is |chi(root)| recomputed by the array expression, bit for
    bit, and a conjugate (Im < 0, right after its partner) carries its
    partner's residual."""
    p, _, run = parse_config(config_path(config).read_text())
    spectral = spectral_partition(p, run.cutoff_radius, run.m_cut, run.modes)
    checked = 0
    for mr in spectral.mode_roots:
        a = p.mu + mr.eigenvalue
        assert len(mr.residuals) == len(mr.roots)
        roots, residuals = np.array(mr.roots), np.array(mr.residuals)
        chi = np.abs(roots + a - p.sigma * np.exp(-roots * p.tau))
        upper = roots.imag >= 0
        assert np.array_equal(residuals[upper], chi[upper])
        for j in np.flatnonzero(~upper):
            assert mr.roots[j - 1] == mr.roots[j].conjugate()
            assert mr.residuals[j] == mr.residuals[j - 1]
            checked += 1
    assert checked > 0


def ulp_distance_ok(found, expected, ulps=4):
    """Each complex root within ``ulps`` float64 ulp of its reference,
    relative to the reference's modulus."""
    found, expected = np.array(found), np.array(expected)
    return np.all(np.abs(found - expected) <= ulps * np.finfo(float).eps * np.abs(expected))


@pytest.mark.parametrize("config", SHIPPED_CONFIGS)
def test_root_table_matches_scalar_loop(config):
    """The (mode, branch) array pass against the scalar Lambert W and
    Newton loops it replaced, root by root: the same count, order and
    ``complete`` flags, each root within 4 ulp (one array division may
    round differently from cmath's), and identical rho_1, rho_m, k_m and
    group multiplicities."""
    p, _, run = parse_config(config_path(config).read_text())
    spectral = spectral_partition(p, run.cutoff_radius, run.m_cut, run.modes)
    loop = [loop_mode_roots(eig, p, m) for m, eig in enumerate(spectral.eigenvalues, start=1)]
    for mr, ref in zip(spectral.mode_roots, loop, strict=True):
        assert len(mr.roots) == len(ref.roots) and mr.complete == ref.complete, mr.mode
        assert [r.imag > 0 for r in mr.roots] == [r.imag > 0 for r in ref.roots], mr.mode
        assert ulp_distance_ok(mr.roots, ref.roots), mr.mode
        assert all(type(r) is complex for r in mr.roots)
        assert all(type(res) is float for res in mr.residuals)
    groups = loop_root_groups(loop)
    assert [m for _, m in spectral.root_groups] == [m for _, m in groups]
    assert spectral.rho1 == groups[0][0]
    assert spectral.rho_m == groups[run.m_cut - 1][0]
    assert spectral.k_m == sum(m for _, m in groups[:run.m_cut])


@pytest.mark.parametrize("mu,sigma,tau,eig,count", [
    pytest.param(2.0, 0.0, 0.5, 1.3, 1, id="sigma-0"),
    pytest.param(6.0, 5e-324, 0.1, 0.0, 1, id="w0-underflow"),  # W_0 = z = 0: the root -a
    pytest.param(2.0, 2.3e-20, 0.5, 4.0, 13, id="window-drops-branches"),  # 7..10
])
def test_root_table_matches_scalar_loop_on_edge_cases(mu, sigma, tau, eig, count):
    """The edge paths of the array pass, against the scalar loop: no delay
    term, a W_0 start that underflows, and branches left of the window."""
    p = linear_problem(mu=mu, sigma=sigma, tau=tau)
    ref = loop_mode_roots(eig, p, 1)
    found = characteristic_roots(eig, p, 100)
    assert len(found) == len(ref.roots) == count
    assert ulp_distance_ok(found, ref.roots)
    assert [r.imag > 0 for r in found] == [r.imag > 0 for r in ref.roots]


def test_root_table_overflow_names_the_scalar_loops_mode():
    """K = 1e-8 on configs/base.json: the scalar polish raises OverflowError
    first on a mode, and the array pass names that same mode."""
    p, _, run = parse_config(config_path("base").read_text())
    eigs = dirichlet_eigenvalues(1e-8, run.modes)
    first = None
    for m, eig in enumerate(eigs, start=1):
        try:
            loop_mode_roots(eig, p, m)
        except OverflowError:
            first = m
            break
    assert first is not None
    with pytest.raises(SplittingError, match=f"^mode {first}: characteristic-root search "
                                             "overflows a float"):
        spectral_partition(p, 1e-8, run.m_cut, run.modes)


def test_characteristic_roots_does_not_apply_the_residual_gate():
    """Near a = 0.6, sigma = 1.55e-3, tau = 1.33e-3 the roots reach
    |lambda| ~ 5e4, where one ulp of lambda alone gives a residual near
    1e-10: characteristic_roots still returns all 21 window roots, some
    above the gate, and `spectral_partition` reports the gate as
    ``complete`` False (at K = 1e6 the mode's eigenvalue is 2.5e-12)."""
    p = linear_problem(mu=0.599, sigma=1.55e-3, tau=1.33e-3)
    roots = characteristic_roots(0.0, p, 100)
    residuals = [abs(r + p.mu - p.sigma * cmath.exp(-r * p.tau)) for r in roots]
    assert len(roots) == 21
    assert max(residuals) > ROOT_RESIDUAL_TOL
    (mr,) = spectral_partition(p, 1e6, 1, 1).mode_roots
    assert len(mr.roots) == 21 and max(mr.residuals) > ROOT_RESIDUAL_TOL
    assert mr.complete is False


@pytest.mark.parametrize("reals", [
    pytest.param([0.0, -0.6e-8, -1.2e-8, -1.8e-8, -2.4e-8], id="chain-of-small-gaps"),
    pytest.param([1.0, 1.0, 1.0 - 1e-8, -3.0, -3.0 - 2e-8], id="ties-and-gaps"),
    pytest.param([-5e-9 * j for j in range(12)], id="long-chain"),
])
def test_grouping_measures_from_each_groups_first_real_part(monkeypatch, reals):
    """A run of neighbours each within 1e-8 but spanning more is split where
    a member falls more than 1e-8 below its group's first real part, as the
    root-by-root grouping did; the table is replaced to make such runs."""
    roots = np.array([reals], dtype=complex)
    monkeypatch.setattr(spectrum, "_root_table",
                        lambda eigs, p: (roots, np.zeros(roots.shape), np.array([len(reals)])))
    spectral = spectral_partition(linear_problem(), K=3.0, m_cut=1, modes=1)
    assert list(spectral.root_groups) == loop_root_groups(spectral.mode_roots)
