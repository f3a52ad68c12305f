import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from delayrd.cli import eigenmode_pair, random_history, random_pair
from delayrd.estimates import compute_estimates
from delayrd.model import ForcingSpec, Grid, NonlinearitySpec, ProblemParameters
from delayrd.solver import BLOCK_FLOATS, constant_history, row_norms, segment_norm
from delayrd.spectrum import (
    SpectralData,
    characteristic_roots,
    dichotomy_constant,
    spectral_partition,
)
from delayrd.squeezing import (
    analytic_bounds,
    contraction_terms,
    make_projections,
    measure_contraction,
    project_P,
    project_Q,
    project_R,
)

from conftest import (
    dissipative_params,
    loop_fourier_integrate,
    loop_part_norms,
    loop_projections,
    part_norm_rounding_bound,
    unit_forcing_amplitude,
)


def test_projections_reassemble_and_idempotent(rng, grid):
    ps = make_projections(grid, K=3.0, k_m=4)
    for _ in range(100):
        seg = rng.standard_normal((3, grid.points))
        P, Q, R = project_P(seg, ps), project_Q(seg, ps), project_R(seg, ps)
        np.testing.assert_allclose(P + Q + R, seg, atol=1e-12)
        np.testing.assert_allclose(project_P(P, ps), P, atol=1e-12)
        np.testing.assert_allclose(project_Q(Q, ps), Q, atol=1e-12)
        np.testing.assert_allclose(project_R(R, ps), R, atol=1e-12)
        # cross applications vanish
        np.testing.assert_allclose(project_P(Q, ps), 0.0, atol=1e-12)
        np.testing.assert_allclose(project_Q(P, ps), 0.0, atol=1e-12)
        # supports: P, Q inside (to roundoff), R outside exactly
        outside = ~ps.inside
        assert np.abs(P[:, outside]).max() < 1e-12
        assert np.abs(Q[:, outside]).max() < 1e-12
        assert np.all(R[:, ps.inside] == 0)


def test_projections_match_per_row_loop(rng, grid):
    """The stacked projections give the per-row products' bytes, for one
    segment and for a batch of segments."""
    ps = make_projections(grid, K=3.0, k_m=5)
    samples = rng.standard_normal((9, 3, grid.points))
    for j in range(3):
        for project, expected in zip((project_P, project_Q, project_R),
                                     loop_projections(samples[:, j], ps)):
            assert np.array_equal(project(samples[:, j], ps), expected)
            assert np.array_equal(project(samples, ps)[:, j], expected)


@pytest.mark.parametrize("support", ["inside", "outside", "mixed"])
def test_block_norms_match_parts(rng, grid, support):
    """The P, Q and R norms of a block of rows, taken from the nodes inside
    and outside Omega_K, equal the row norms of `parts` within
    `conftest.part_norm_rounding_bound`, for rows wholly inside Omega_K,
    wholly outside it, and on both sides."""
    ps = make_projections(grid, K=3.0, k_m=4)
    rows = rng.standard_normal((5, 3, grid.points))
    if support != "mixed":
        rows[..., ps.inside if support == "outside" else ~ps.inside] = 0.0
    norms = ps.norms(rows)
    assert norms.shape == (5, 3, 3)
    expected = np.moveaxis(row_norms(ps.parts(rows), grid), 0, -2)
    bound = part_norm_rounding_bound(rows, ps)[:, None, :]
    assert np.all(np.abs(norms - expected) <= bound)
    assert np.all(bound < 1e-11 * np.max(norms))
    if support == "inside":
        assert np.all(norms[:, 2] == 0.0)
    if support == "outside":
        assert np.all(norms[:, :2] == 0.0)


def test_projection_basis_is_orthonormal(grid):
    ps = make_projections(grid, K=3.0, k_m=5)
    gram = grid.spacing * (ps.basis.T @ ps.basis)
    np.testing.assert_allclose(gram, np.eye(5), atol=1e-12)


def test_make_projections_validation(grid):
    with pytest.raises(ValueError):
        make_projections(grid, K=-1.0, k_m=2)
    with pytest.raises(ValueError):
        make_projections(grid, K=3.0, k_m=0)
    with pytest.raises(ValueError, match="nodes inside"):
        make_projections(grid, K=2 * grid.spacing, k_m=50)


def test_modal_difference_contracts_at_its_own_rate(rng, grid):
    """A difference on the periodic mode sin(pi x / 2) with K = 2:
    inside Omega_K it coincides with the second Dirichlet mode, so Q sees
    nothing and the P ratio follows the mode's dominant root exactly."""
    p = ProblemParameters(
        mu=1.0, sigma=0.4, tau=0.5, lf=0.0,
        forcing=ForcingSpec(kind="gaussian_bump", amplitude=0.5),
        nonlinearity=NonlinearitySpec(),
    )
    K = 2.0
    xi = math.pi / 2.0  # one period per 4 units; vanishes at x = +-2
    eig = xi * xi
    rho = characteristic_roots(eig, p, 1)[0].real

    S = 64
    thetas = np.linspace(-p.tau, 0.0, S + 1)
    mode = np.sin(xi * grid.nodes)
    base = random_history(rng, grid, p.tau, S, norm=0.5)
    eps = 1e-3
    bump = eps * np.exp(rho * thetas)[:, None] * mode[None, :]
    pert = base + bump

    ps = make_projections(grid, K=K, k_m=3)
    _, measured = measure_contraction([(base, pert)], (0.5, 1.0), p, ps)
    assert measured.shape == (1, 2, 3)
    for t, (P, Q, R) in zip((0.5, 1.0), measured[0]):
        # the difference never leaves the mode, which Q annihilates
        assert Q < 1e-10
        # P keeps the inside share and decays like e^{rho t}
        inside_share = math.sqrt(
            np.sum(mode[np.abs(grid.nodes) < K] ** 2) / np.sum(mode**2))
        expected = math.exp(rho * t) * inside_share
        assert P == pytest.approx(expected, rel=5e-4)
        # R keeps the outside share with the same profile
        expected_R = math.exp(rho * t) * math.sqrt(1 - inside_share**2)
        assert R == pytest.approx(expected_R, rel=5e-4)


def test_pair_batch_matches_separate_integrations(grid, dissipative):
    """One batched run of the pair, read at several times, equals
    integrating phi and psi separately to each time: the rows are
    `loop_fourier_integrate`'s, and each measured ratio is the per-row
    norm oracle's sup over the window within
    `conftest.part_norm_rounding_bound` of the window's rows (a max moves
    no further than its entries)."""
    p = dissipative
    rng = np.random.default_rng(77)
    spectral = _certified_spectral(p, rng=rng)
    ps = make_projections(grid, K=spectral.K, k_m=spectral.k_m)
    S = 16
    phi, psi = eigenmode_pair(rng, grid, p, spectral, S, norm=1.0, separation=0.3)
    times = (1.0, 0.25, 0.5)  # out of order, one below tau
    denoms, measured = measure_contraction([(phi, psi)], times, p, ps)
    denom = segment_norm(phi - psi, grid)
    assert denoms.tolist() == [denom]
    assert measured.shape == (1, len(times), 3)
    for t, parts in zip(times, measured[0]):
        n = round(t * S / p.tau)
        rows = [np.concatenate([h[:-1], loop_fourier_integrate(h, t, p, grid)])[n:]
                for h in (phi, psi)]
        diff = rows[0] - rows[1]
        expected = np.max(loop_part_norms(diff, ps), axis=0) / denom
        assert np.all(np.abs(parts - expected) <= np.max(part_norm_rounding_bound(diff, ps)) / denom)


@pytest.mark.parametrize("count,identical", [
    pytest.param(6, {1}, id="one-identical-pair"),
    pytest.param(9, {4, 5, 6, 7}, id="identical-group"),
])
def test_groups_of_pairs_match_separate_integrations(grid, dissipative, count, identical):
    """Pairs marched one at a time, some of them identical: a single
    pair among differing ones, or a run of four (the ids date from groups
    of pairs marching as one batch).  Every denominator equals the
    per-pair reference, each identical pair gets a zero denominator and no
    ratios, and the ratios come pair by pair in times order (out of order,
    t = 0, below tau, repeated).  Each pair marches in coefficient space,
    so its rows are `loop_fourier_integrate`'s, and each ratio is the
    per-row norm oracle's sup over the window within
    `conftest.part_norm_rounding_bound` of the window's rows."""
    p = dissipative
    rng = np.random.default_rng(78)
    spectral = _certified_spectral(p, rng=rng)
    ps = make_projections(grid, K=spectral.K, k_m=spectral.k_m)
    S = 16
    pairs = [eigenmode_pair(rng, grid, p, spectral, S, norm=1.0, separation=0.3)
             for _ in range(count)]
    pairs = [(phi, phi) if i in identical else (phi, psi) for i, (phi, psi) in enumerate(pairs)]
    times = (1.0, 0.0, 0.25, 0.5, 0.25)
    denoms, measured = measure_contraction(iter(pairs), times, p, ps)
    assert [i for i, d in enumerate(denoms) if d == 0.0] == sorted(identical)
    assert measured.shape == (count - len(identical), len(times), 3)

    differing = [pair for i, pair in enumerate(pairs) if i not in identical]
    for denom, (phi, psi), pair_measured in zip(denoms[denoms != 0.0], differing, measured):
        rows = [np.concatenate([h[:-1], loop_fourier_integrate(h, max(times), p, grid)])
                for h in (phi, psi)]
        assert denom == segment_norm(phi - psi, grid)
        for t, parts in zip(times, pair_measured):
            n = round(t * S / p.tau)
            diff = rows[0][n:n + S + 1] - rows[1][n:n + S + 1]
            expected = np.max(loop_part_norms(diff, ps), axis=0) / denom
            bound = np.max(part_norm_rounding_bound(diff, ps)) / denom
            assert np.all(np.abs(parts - expected) <= bound)


def test_contraction_memory_does_not_grow_with_ensemble(grid, dissipative):
    """Pairs are drawn lazily and marched one at a time, so 16 pairs
    peak no higher than 4 (a small margin for the results)."""
    ps = make_projections(grid, K=3.0, k_m=4)

    def peak(count):
        rng = np.random.default_rng(3)
        pairs = (random_pair(rng, grid, dissipative.tau, 16, norm=1.0, separation=0.3)
                 for _ in range(count))
        tracemalloc.start()
        try:
            measure_contraction(pairs, (0.25,), dissipative, ps)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(16) <= 1.1 * peak(4)


def test_contraction_peak_is_about_two_batches():
    """Three pairs drawn lazily at P = 1024, S = 64.  Each pair marches
    alone as one (S + 1, 2, P) batch, and the march holds S rows of its
    pending load coefficients, (2, P/2 + 1) complex each: together about
    two batches.  On top come block temporaries of at most `BLOCK_FLOATS`
    // 2P rows: the block `window_sups` still holds, the next block's
    coefficients, their inverse transform and the transform's work copy,
    with two more for the loads and the P/Q/R norms of a block.  Six
    coefficient blocks bound them, so the traced peak stays within 3.47
    batches (measured 3.03; two pairs marched as one (S + 1, 4, P) batch
    read 5.05)."""
    grid = Grid(half_length=16.0, points=1024)
    p = dissipative_params(grid)
    S = 64
    ps = make_projections(grid, K=3.0, k_m=4)
    rng = np.random.default_rng(5)
    pairs = (random_pair(rng, grid, p.tau, S, norm=1.0, separation=0.3) for _ in range(3))
    coeff_row = 2 * (grid.points // 2 + 1) * 16  # one row of a pair's coefficients
    bound = ((S + 1) * 2 * grid.points * 8 + S * coeff_row
             + 6 * (BLOCK_FLOATS // (2 * grid.points)) * coeff_row)
    tracemalloc.start()
    try:
        measure_contraction(pairs, (0.5, 4.0), p, ps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_zero_difference_status(grid, dissipative):
    """An identical pair is not integrated: a zero denominator, no ratios."""
    phi = constant_history(np.cos(grid.nodes), 8)
    ps = make_projections(grid, K=3.0, k_m=2)
    denoms, measured = measure_contraction([(phi, phi)], (0.5,), dissipative, ps)
    assert denoms.tolist() == [0.0]
    assert measured.shape == (0, 1, 3)


def _certified_spectral(p, K=3.0, m_cut=3, modes=8, rng=None):
    spectral = spectral_partition(p, K=K, m_cut=m_cut, modes=modes)
    report = dichotomy_constant(p, spectral, samples=20,
                                rng=rng or np.random.default_rng(5))
    return replace(spectral, K_m=report["K_m"])


def test_analytic_bounds_at_time_zero(grid, dissipative):
    p = dissipative
    est = compute_estimates(p, norm_g=1.0)
    spectral = _certified_spectral(p)
    K_m = spectral.K_m

    b = analytic_bounds(0.0, p, spectral, est)
    assert b["bP"] == 1.0
    gap = spectral.rho1 + p.lf - spectral.rho_m
    assert b["bQ"] == pytest.approx(K_m * (1.0 + p.lf / gap), rel=1e-12)
    assert b["bR"] == pytest.approx(math.sqrt(est.c2), rel=1e-12)
    assert b["feasible"]

    with pytest.raises(ValueError, match="dichotomy"):
        analytic_bounds(0.0, p, spectral_partition(p, 3.0, 3, 8), est)
    with pytest.raises(ValueError):
        analytic_bounds(-1.0, p, spectral, est)


def test_overflowing_factors_are_infinite():
    """An exponential that overflows a float makes its factor inf instead of
    raising: a bound every measurement meets.  The factors that do not
    overflow keep math.exp's value."""
    p = ProblemParameters(mu=200.0, sigma=1e-5, tau=0.05, lf=1.0, forcing=ForcingSpec(),
                          nonlinearity=NonlinearitySpec(kind="scaled_tanh", scale=1.0))
    est = compute_estimates(p, norm_g=1.0)
    spectral = SpectralData(K=3.0, m_cut=1, eigenvalues=(), root_groups=((-0.5, 1),), k_m=1,
                            rho1=-0.5, rho_m=-0.5, certificate_ok=True, status="ok",
                            mode_roots=(), K_m=2.0)
    rate = est.c2 * (p.sigma + p.lf**2) - (p.mu - p.sigma - 1.0)
    assert 0.5 * rate > 709.8  # e^{rate t / 2} overflows at t = 1

    head, coupling, tail, growth = contraction_terms(1.0, p, spectral, est)
    assert tail == math.inf
    assert head == 2.0 * math.exp(-0.5) and growth == math.exp(0.5)
    assert coupling == 2.0  # K_m lf / (rho1 + lf - rho_m), a unit gap
    b = analytic_bounds(1.0, p, spectral, est)
    assert b["feasible"] and b["bR"] == math.inf and b["bP"] == math.exp(0.5)

    # at t = 2000 the growth e^{(lf + rho1) t} overflows too, and so does bQ
    b = analytic_bounds(2000.0, p, spectral, est)
    assert (b["bP"], b["bQ"], b["bR"]) == (math.inf, math.inf, math.inf)


def test_bounds_without_nonlinearity_reduce_to_dichotomy():
    p = ProblemParameters(
        mu=2.0, sigma=0.3, tau=0.5, lf=0.0,
        forcing=ForcingSpec(), nonlinearity=NonlinearitySpec(),
    )
    est = compute_estimates(p, norm_g=0.0)
    spectral = _certified_spectral(p)
    for t in (0.0, 0.7, 2.0):
        b = analytic_bounds(t, p, spectral, est)
        assert b["bQ"] == pytest.approx(spectral.K_m * math.exp(spectral.rho_m * t),
                                        rel=1e-12)


def test_eigenmode_pairs_stay_within_bounds(grid):
    """Differences resolved by the inside splitting contract at least as
    fast as the certified factors (with the 5% measurement allowance)."""
    p = dissipative_params(grid)
    est = compute_estimates(p, norm_g=1.0)
    rng = np.random.default_rng(31)
    spectral = _certified_spectral(p, rng=rng)
    ps = make_projections(grid, K=spectral.K, k_m=spectral.k_m)

    for seed in range(5):
        pair_rng = np.random.default_rng(1000 + seed)
        phi, psi = eigenmode_pair(pair_rng, grid, p, spectral,
                                  steps_per_delay=32, norm=1.0, separation=0.3)
        _, measured = measure_contraction([(phi, psi)], (0.5, 1.0), p, ps)
        for t, parts in zip((0.5, 1.0), measured[0]):
            b = analytic_bounds(t, p, spectral, est)
            assert np.all(parts <= np.array([b["bP"], b["bQ"], b["bR"]]) * 1.05)
