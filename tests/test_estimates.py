import json
import math
import pathlib

import numpy as np
import pytest

from delayrd.model import ForcingSpec, NonlinearitySpec, ProblemParameters, parse_config
from delayrd.solver import constant_history, history_from_function, integrate
from delayrd.estimates import (
    absorbing_time,
    compute_estimates,
    far_field_radii,
    verify_absorption,
    verify_energy_integral,
    verify_far_field,
)

from conftest import far_field_sups, gradient_sups, heat_only_params, norm_sups

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def test_constants_against_hand_formulas(dissipative):
    """Every closed-form constant recomputed from scratch, including the
    reference point mu=2, sigma=0.1, tau=0.5, L_f=1, ||g|| = 1."""
    p = dissipative
    est = compute_estimates(p, norm_g=1.0, norm_phi0=0.5)

    beta = p.sigma * (p.lf + 1.0) * math.exp(p.mu * p.tau)
    assert est.beta == pytest.approx(0.2 * math.e, rel=1e-14)
    gap = p.mu - p.sigma - 1.0

    c3 = 2.0 * (1.0 / p.mu + beta / (p.mu * (p.mu - beta)))
    assert est.c3 == pytest.approx(c3, rel=1e-12)
    assert est.c3 == pytest.approx(1.3733, abs=5e-5)
    assert est.absorbing_radius == est.c3

    assert est.c2 == pytest.approx(math.exp(gap * p.tau), rel=1e-12)
    c1 = (1.0 / p.mu) / gap
    assert est.c1 == pytest.approx(c1, rel=1e-12)
    c4 = 0.5 * est.c2 * 0.25 + (p.sigma + p.lf**2) * c3 * c3 / gap + 0.5 * c1
    assert est.c4 == pytest.approx(c4, rel=1e-12)
    c5 = math.sqrt(c4) + ((p.mu + p.sigma + p.lf) * c3 + 1.0) * (1.0 + p.tau)
    assert est.c5 == pytest.approx(c5, rel=1e-12)
    grad = c4 + 2.0 * (p.sigma**2 + p.lf**2) * c3 * c3 + 2.0
    assert est.gradient_bound == pytest.approx(grad, rel=1e-12)

    # here gap = 0.9 < c3, so the alternative constant is unavailable
    assert math.isinf(est.c4_alt)
    assert est.dissipative and est.energy_feasible


def test_c4_alt_when_gap_exceeds_radius():
    p = ProblemParameters(
        mu=8.0, sigma=0.1, tau=0.1, lf=0.5,
        forcing=ForcingSpec(kind="gaussian_bump", amplitude=1.0),
        nonlinearity=NonlinearitySpec(kind="scaled_tanh", scale=0.5),
    )
    est = compute_estimates(p, norm_g=1.0)
    gap = p.mu - p.sigma - 1.0
    assert gap > est.c3
    assert est.c4_alt == pytest.approx(2.0 * est.c1 * gap / (gap - est.c3), rel=1e-12)


def test_infeasible_configurations_flagged():
    # beta >= mu: not dissipative, ball radius inf
    loud = ProblemParameters(
        mu=0.5, sigma=0.4, tau=1.0, lf=1.0,
        forcing=ForcingSpec(), nonlinearity=NonlinearitySpec(kind="scaled_tanh", scale=1.0),
    )
    est = compute_estimates(loud, norm_g=1.0)
    assert not est.dissipative
    assert math.isinf(est.c3)
    assert math.isinf(est.c4) and math.isinf(est.c5)

    # dissipative but mu - sigma - 1 <= 0: energy route closed
    slow = ProblemParameters(
        mu=1.0, sigma=0.05, tau=0.2, lf=1.0,
        forcing=ForcingSpec(), nonlinearity=NonlinearitySpec(kind="scaled_tanh", scale=1.0),
    )
    est = compute_estimates(slow, norm_g=1.0)
    assert est.dissipative and not est.energy_feasible
    assert math.isfinite(est.c3)
    assert math.isinf(est.c1) and math.isinf(est.c4)
    assert est.c2 <= 1.0  # exp of a nonpositive exponent


def test_absorbing_time_edges(dissipative):
    est = compute_estimates(dissipative, norm_g=1.0)
    assert absorbing_time(dissipative, est, 0.0) == 0.0
    with pytest.raises(ValueError):
        absorbing_time(dissipative, est, -1.0)

    loud = ProblemParameters(
        mu=0.5, sigma=0.4, tau=1.0, lf=1.0,
        forcing=ForcingSpec(), nonlinearity=NonlinearitySpec(kind="scaled_tanh", scale=1.0),
    )
    assert math.isinf(absorbing_time(loud, compute_estimates(loud, norm_g=1.0), 1.0))


def test_absorbing_time_entry_inequality(dissipative):
    """The returned T solves the entry inequality: the exponential left
    side sits at c3/2 at T and above it just before T."""
    p = dissipative
    est = compute_estimates(p, norm_g=1.0)
    D = 10.0
    T = absorbing_time(p, est, D)
    assert 0.0 < T < math.inf

    def lhs(t):
        return (math.exp(p.mu * (p.tau - t)) * D
                + math.exp(p.mu * p.tau) * D * math.exp((est.beta - p.mu) * t))

    assert lhs(T) <= 0.5 * est.c3 * (1 + 1e-9)
    assert lhs(T * (1 - 1e-6)) > 0.5 * est.c3


def test_absorbing_time_does_not_enter_on_overflow():
    """On configs/base.json with mu = 40, sigma = 1e-17, tau = 1 and
    D = 1e308, exp(mu tau) D overflows while exp((beta - mu) T) underflows;
    the entry inequality, evaluated in logs, holds at T and fails just
    before it."""
    with open(CONFIGS / "base.json") as fh:
        doc = json.load(fh)
    doc.update(mu=40.0, sigma=1e-17, tau=1.0)
    p = parse_config(json.dumps(doc))[0]
    est = compute_estimates(p, norm_g=1.0)
    D = 1e308
    T = absorbing_time(p, est, D)

    def log_gap(t):  # log(left side) - log(c3 / 2)
        exponents = (p.mu * (p.tau - t), p.mu * p.tau + (est.beta - p.mu) * t)
        return math.log(D) + np.logaddexp(*exponents) - math.log(0.5 * est.c3)

    assert log_gap(T) <= 1e-12
    assert log_gap(T * (1 - 1e-9)) > 1e-12


def test_absorbing_time_doubling_bound(dissipative):
    """Doubling the start radius can cost at most ln 2 over the slow rate
    mu - beta, because both exponential terms decay at least that fast."""
    p = dissipative
    est = compute_estimates(p, norm_g=1.0)
    slow_rate = p.mu - est.beta
    for D in (1.0, 3.0, 10.0, 50.0):
        t1 = absorbing_time(p, est, D)
        t2 = absorbing_time(p, est, 2.0 * D)
        assert t1 <= t2 <= t1 + math.log(2.0) / slow_rate + 1e-9


def test_verify_absorption_on_trajectory(grid, dissipative):
    est = compute_estimates(dissipative, norm_g=1.0)
    phi0 = 1.0 * np.exp(-0.5 * grid.nodes**2)
    phi = constant_history(phi0, 16)
    values = integrate(phi, horizon=6.0, p=dissipative, grid=grid)
    dt = dissipative.tau / 16
    sups = norm_sups(phi, values, grid)
    report = verify_absorption(sups, dt, est, T=4.0)
    assert report["ok"]
    assert report["max_segment_norm"] <= est.c3 * 1.05
    assert report["from_time"] == pytest.approx(4.0)
    with pytest.raises(ValueError):
        verify_absorption(sups, dt, est, T=(len(values) - 1) * dt + 1.0)


def test_energy_integral_single_mode_oracle(grid):
    """Pure heat flow of one sine mode: the trajectory, its gradients,
    and the worst unit-window integral all have closed forms."""
    p = heat_only_params(mu=2.0)
    A, k = 0.7, 3
    xi = k * math.pi / grid.half_length
    phi0 = A * np.sin(xi * grid.nodes)
    S = 8
    phi = constant_history(phi0, S)
    values = integrate(phi, horizon=2.0, p=p, grid=grid)
    dt = p.tau / S

    est = compute_estimates(p, norm_g=0.0, norm_phi0=0.0)
    report = verify_energy_integral(gradient_sups(phi, values, grid), dt, est)

    # oracle: segment gradient sup at step n is the gradient at the
    # oldest segment time, G0 e^{-kappa max(0, n - S) dt}
    G0 = A * xi * math.sqrt(grid.half_length)
    kappa = p.mu + xi * xi
    per_unit = int(round(1.0 / dt))

    def q(n):
        return (G0 * math.exp(-kappa * max(0, n - S) * dt)) ** 2

    best = -math.inf
    for start in range(0, len(values) - per_unit):
        window = [q(n) for n in range(start, start + per_unit + 1)]
        integral = dt * (sum(window) - 0.5 * (window[0] + window[-1]))
        best = max(best, integral)
    assert report["max_integral"] == pytest.approx(best, rel=1e-6)
    assert report["ok"] == (best <= est.c4 * 1.05)


def test_energy_integral_grid_requirements(grid, dissipative):
    phi = constant_history(np.zeros(grid.points), 16)
    dt = dissipative.tau / 16
    est = compute_estimates(dissipative, norm_g=1.0)
    short = integrate(phi, horizon=0.5, p=dissipative, grid=grid)
    with pytest.raises(ValueError, match="horizon"):
        verify_energy_integral(gradient_sups(phi, short, grid), dt, est)
    # horizon 2: the last unit window starts at 1; past that none fits and
    # there is nothing to check, so the call fails rather than pass on -inf
    values = integrate(phi, horizon=2.0, p=dissipative, grid=grid)
    sups = gradient_sups(phi, values, grid)
    assert verify_energy_integral(sups, dt, est, t_start=1.0)["argmax_window_start"] == 1.0
    for t_start in (1.5, 50.0):
        with pytest.raises(ValueError, match="horizon"):
            verify_energy_integral(sups, dt, est, t_start=t_start)

    odd = ProblemParameters(
        mu=dissipative.mu, sigma=dissipative.sigma, tau=0.3, lf=dissipative.lf,
        forcing=dissipative.forcing, nonlinearity=dissipative.nonlinearity,
    )
    phi = constant_history(np.zeros(grid.points), 4)
    values = integrate(phi, horizon=1.5, p=odd, grid=grid)  # dt = 0.075 does not divide 1
    with pytest.raises(ValueError, match="dt"):
        verify_energy_integral(gradient_sups(phi, values, grid), odd.tau / 4, est)


def _compact_problem():
    return ProblemParameters(
        mu=2.0, sigma=0.1, tau=0.5, lf=1.0,
        forcing=ForcingSpec(kind="compact_bump", amplitude=0.5, width=1.0),
        nonlinearity=NonlinearitySpec(kind="scaled_tanh", scale=1.0),
    )


def test_far_field_thresholds(grid):
    p = _compact_problem()
    phi = history_from_function(
        lambda x, th: np.where(np.abs(x) < 1.0, np.cos(0.5 * math.pi * x) ** 2, 0.0),
        grid, p.tau, 16)
    values = integrate(phi, horizon=4.0, p=p, grid=grid)
    dt = p.tau / 16
    radii = far_field_radii(grid.half_length)
    sups = far_field_sups(phi, values, grid, radii)

    report = verify_far_field(sups, dt, 1e-3, radii)
    assert report["status"] == "ok"
    assert report["tail_at_result"] <= 1e-3
    assert report["R_emp"] in (0.5, 1.0, 2.0, 4.0, 8.0)

    # tighter tolerance can only push the thresholds up
    tight = verify_far_field(sups, dt, 1e-6, radii)
    assert tight["R_emp"] >= report["R_emp"]
    if tight["R_emp"] == report["R_emp"]:
        assert tight["T_emp"] >= report["T_emp"]

    hopeless = verify_far_field(sups, dt, 1e-300, radii)
    assert hopeless["status"] == "inconclusive"
    assert math.isinf(hopeless["T_emp"]) and math.isinf(hopeless["R_emp"])

    with pytest.raises(ValueError):
        verify_far_field(sups, dt, 0.0, radii)
