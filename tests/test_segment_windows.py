"""Segment sups as sliding-window maxima against the per-step segment loop.

Each reference below materializes the segment u_{n dt} with `segment_at`
at every step and reduces it, which is how these quantities were computed
before they became window reductions of per-row quantities.  The
arithmetic per row is unchanged, so the two paths must agree bit for bit
(`np.array_equal`, plain `==` on the report dicts).
"""

import math

import numpy as np
import pytest

from delayrd.estimates import (
    compute_estimates,
    verify_absorption,
    verify_energy_integral,
    verify_far_field,
)
from delayrd.semigroup import Field, gradient_norm
from delayrd.solver import (
    far_field_mass,
    far_field_masses,
    history_from_function,
    integrate,
    row_norms,
    segment_at,
    segment_norm,
    segment_sups,
)

from conftest import heat_only_params

STEPS_PER_DELAY = 16  # tau = 0.5, so dt = 1/32


def ref_far_field_mass(seg, K):
    outside = np.abs(seg.grid.nodes) >= K
    return float(np.max(seg.grid.spacing * np.sum(seg.samples[:, outside] ** 2, axis=1)))


def ref_segment_norm(seg):
    return float(np.max(np.sqrt(seg.grid.spacing * np.sum(seg.samples * seg.samples, axis=1))))


def ref_gradient_sup(seg):
    return max(gradient_norm(Field(values=row, grid=seg.grid)) for row in seg.samples)


def loop_sups(traj, reduce):
    return np.array([reduce(segment_at(traj, n * traj.dt)) for n in range(traj.steps + 1)])


def ref_verify_absorption(traj, est, T):
    dt = traj.dt
    n0 = max(0, int(math.ceil(T / dt - 1e-9)))
    worst_t, worst = n0 * dt, -math.inf
    for n in range(n0, traj.steps + 1):
        value = ref_segment_norm(segment_at(traj, n * dt))
        if value > worst:
            worst, worst_t = value, n * dt
    return worst, worst_t


def ref_energy_integral(traj):
    dt = traj.dt
    per_unit = int(round(1.0 / dt))
    sups = loop_sups(traj, ref_gradient_sup)
    squared = sups * sups
    worst, worst_t = -math.inf, 0.0
    for n in range(0, traj.steps - per_unit + 1):
        window = squared[n:n + per_unit + 1]
        integral = dt * (np.sum(window) - 0.5 * (window[0] + window[-1]))
        if integral > worst:
            worst, worst_t = float(integral), n * dt
    return worst, worst_t


def ref_far_field(traj, eps, time_stride):
    L = traj.grid.half_length
    radii = []
    K = L / 32.0
    while K <= L / 2.0 + 1e-12:
        radii.append(K)
        K *= 2.0
    steps = list(range(0, traj.steps + 1, time_stride))
    if steps[-1] != traj.steps:
        steps.append(traj.steps)
    segments = [segment_at(traj, n * traj.dt) for n in steps]
    for K in radii:
        masses = np.array([ref_far_field_mass(seg, K) for seg in segments])
        ok = masses <= eps
        if not ok[-1]:
            continue
        idx = len(ok)
        for i in range(len(ok) - 1, -1, -1):
            if not ok[i]:
                break
            idx = i
        return {"status": "ok", "T_emp": steps[idx] * traj.dt, "R_emp": float(K),
                "tail_at_result": float(np.max(masses[idx:])), "eps": eps}
    return {"status": "inconclusive", "T_emp": math.inf, "R_emp": math.inf,
            "tail_at_result": math.inf, "eps": eps}


def wide_history(grid, tau):
    """A history with mass out to the box edge that varies along theta, so
    the segment maxima sit at different rows for different steps."""
    def phi(x, theta):
        return (np.exp(-(x / 6.0) ** 2) * (1.5 + np.cos(x + 4.0 * theta))
                + 0.3 * (1.0 + theta) * np.sin(0.7 * x) * np.exp(-(x / 10.0) ** 2))
    return history_from_function(phi, grid, tau, STEPS_PER_DELAY)


# horizons shorter than tau = 0.5 (every segment mixes history and solution)
# and longer than it (later segments are solution rows only)
@pytest.fixture(params=[0.25, 1.5], ids=["shorter-than-tau", "longer-than-tau"])
def traj(request, grid, dissipative):
    return integrate(wide_history(grid, dissipative.tau), request.param, dissipative)


def test_window_sups_equal_segment_loop(traj):
    hist, values, grid = traj.history.samples, traj.values, traj.grid
    for K in (0.5, 2.0, 4.0, 8.0):
        window = segment_sups(far_field_masses(hist, grid, K), far_field_masses(values, grid, K))
        assert np.array_equal(window, loop_sups(traj, lambda seg: ref_far_field_mass(seg, K)))
        assert np.array_equal(window, loop_sups(traj, lambda seg: far_field_mass(seg, K)))

    window = segment_sups(row_norms(hist, grid), row_norms(values, grid))
    assert np.array_equal(window, loop_sups(traj, ref_segment_norm))
    assert np.array_equal(window, loop_sups(traj, segment_norm))

    def gradients(rows):
        return np.array([gradient_norm(Field(values=row, grid=grid)) for row in rows])

    window = segment_sups(gradients(hist), gradients(values))
    assert np.array_equal(window, loop_sups(traj, ref_gradient_sup))


def test_window_sups_keep_trailing_axes(traj):
    radii = (1.0, 4.0)
    columns = [far_field_masses(traj.values, traj.grid, K) for K in radii]
    hist_columns = [far_field_masses(traj.history.samples, traj.grid, K) for K in radii]
    stacked = segment_sups(np.stack(hist_columns, axis=1), np.stack(columns, axis=1))
    assert stacked.shape == (traj.steps + 1, len(radii))
    for j, (h, v) in enumerate(zip(hist_columns, columns)):
        assert np.array_equal(stacked[:, j], segment_sups(h, v))


def test_verify_absorption_matches_segment_loop(traj, dissipative):
    est = compute_estimates(dissipative, norm_g=1.0)
    for T in (0.0, 3 * traj.dt, traj.horizon):
        report = verify_absorption(traj, est, T)
        worst, worst_t = ref_verify_absorption(traj, est, T)
        assert report["max_segment_norm"] == worst
        assert report["argmax_time"] == worst_t


def test_verify_absorption_ties_pick_the_first_maximum(grid):
    # A history frozen in theta under the pure heat flow: the solution
    # decays, so the segments at steps 0..S all share the sup of the
    # history rows, and the report names the first of them after T.
    p = heat_only_params()
    flat = history_from_function(lambda x, th: np.exp(-x * x), grid, p.tau, STEPS_PER_DELAY)
    traj = integrate(flat, 1.0, p)
    est = compute_estimates(p, norm_g=0.0)
    T = 2 * traj.dt
    report = verify_absorption(traj, est, T)
    assert report["argmax_time"] == T
    assert (report["max_segment_norm"], report["argmax_time"]) == \
        ref_verify_absorption(traj, est, T)


def test_energy_integral_matches_segment_loop(grid, dissipative):
    traj = integrate(wide_history(grid, dissipative.tau), 1.5, dissipative)
    est = compute_estimates(dissipative, norm_g=1.0)
    report = verify_energy_integral(traj, est)
    assert (report["max_integral"], report["argmax_window_start"]) == ref_energy_integral(traj)


@pytest.mark.parametrize("time_stride", [1, 5])
def test_verify_far_field_matches_segment_loop(traj, time_stride):
    for eps in (1e-1, 1.0, 10.0, 1e-30):
        assert verify_far_field(traj, eps, time_stride=time_stride) == \
            ref_far_field(traj, eps, time_stride)
