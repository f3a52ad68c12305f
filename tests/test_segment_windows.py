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
from delayrd import solver
from delayrd.semigroup import gradient_norm
from delayrd.solver import (
    far_field_mass,
    far_field_masses,
    history_from_function,
    integrate,
    segment_at,
    segment_norm,
    segment_sups,
    window_sups,
)

from conftest import far_field_sups, gradient_sups, heat_only_params, norm_sups

STEPS_PER_DELAY = 16  # tau = 0.5, so dt = 1/32


def ref_tail_mass(row, grid, K):
    outside = np.abs(grid.nodes) >= K
    return grid.spacing * np.sum(np.square(row[outside]))


def ref_far_field_mass(seg, grid, K):
    return float(max(ref_tail_mass(row, grid, K) for row in seg))


def ref_segment_norm(seg, grid):
    return float(np.max(np.sqrt(grid.spacing * np.sum(seg * seg, axis=1))))


def ref_gradient_sup(seg, grid):
    return max(gradient_norm(row, grid) for row in seg)


def loop_sups(hist, values, grid, reduce):
    """``reduce(segment, grid)`` of the segment at every step."""
    return np.array([reduce(segment_at(hist, values, n), grid) for n in range(len(values))])


def ref_verify_absorption(hist, values, grid, dt, T):
    n0 = max(0, int(math.ceil(T / dt - 1e-9)))
    worst_t, worst = n0 * dt, -math.inf
    for n in range(n0, len(values)):
        value = ref_segment_norm(segment_at(hist, values, n), grid)
        if value > worst:
            worst, worst_t = value, n * dt
    return worst, worst_t


def ref_energy_integral(hist, values, grid, dt):
    per_unit = int(round(1.0 / dt))
    sups = loop_sups(hist, values, grid, ref_gradient_sup)
    squared = sups * sups
    worst, worst_t = -math.inf, 0.0
    for n in range(0, len(values) - per_unit):
        window = squared[n:n + per_unit + 1]
        integral = dt * (np.sum(window) - 0.5 * (window[0] + window[-1]))
        if integral > worst:
            worst, worst_t = float(integral), n * dt
    return worst, worst_t


def ref_radii(L):
    radii = []
    K = L / 32.0
    while K <= L / 2.0 + 1e-12:
        radii.append(K)
        K *= 2.0
    return radii


def ref_far_field(hist, values, grid, dt, eps):
    radii = ref_radii(grid.half_length)
    segments = [segment_at(hist, values, n) for n in range(len(values))]
    for K in radii:
        masses = np.array([ref_far_field_mass(seg, grid, K) for seg in segments])
        ok = masses <= eps
        if not ok[-1]:
            continue
        idx = len(ok)
        for i in range(len(ok) - 1, -1, -1):
            if not ok[i]:
                break
            idx = i
        return {"status": "ok", "T_emp": idx * dt, "R_emp": float(K),
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
    """(history rows, trajectory rows, grid, dt) of one stored run."""
    hist = wide_history(grid, dissipative.tau)
    values = integrate(hist, request.param, dissipative, grid)
    return hist, values, grid, dissipative.tau / STEPS_PER_DELAY


def test_window_sups_equal_segment_loop(traj):
    hist, values, grid, _ = traj
    for K in (0.5, 2.0, 4.0, 8.0):
        window = segment_sups(far_field_masses(hist, grid, K), far_field_masses(values, grid, K))
        assert np.array_equal(window, loop_sups(hist, values, grid,
                                                lambda seg, g: ref_far_field_mass(seg, g, K)))
        assert np.array_equal(window, loop_sups(hist, values, grid,
                                                lambda seg, g: far_field_mass(seg, g, K)))

    window = norm_sups(hist, values, grid)
    assert np.array_equal(window, loop_sups(hist, values, grid, ref_segment_norm))
    assert np.array_equal(window, loop_sups(hist, values, grid, segment_norm))
    assert np.array_equal(gradient_sups(hist, values, grid),
                          loop_sups(hist, values, grid, ref_gradient_sup))


def test_window_sups_keep_trailing_axes(traj):
    hist, values, grid, _ = traj
    radii = (1.0, 4.0)
    columns = [far_field_masses(values, grid, K) for K in radii]
    hist_columns = [far_field_masses(hist, grid, K) for K in radii]
    stacked = segment_sups(np.stack(hist_columns, axis=1), np.stack(columns, axis=1))
    assert stacked.shape == (len(values), len(radii))
    for j, (h, v) in enumerate(zip(hist_columns, columns)):
        assert np.array_equal(stacked[:, j], segment_sups(h, v))


def test_verify_absorption_matches_segment_loop(traj, dissipative):
    hist, values, grid, dt = traj
    est = compute_estimates(dissipative, norm_g=1.0)
    for T in (0.0, 3 * dt, (len(values) - 1) * dt):
        report = verify_absorption(norm_sups(hist, values, grid), dt, est, T)
        worst, worst_t = ref_verify_absorption(hist, values, grid, dt, T)
        assert report["max_segment_norm"] == worst
        assert report["argmax_time"] == worst_t


def test_verify_absorption_ties_pick_the_first_maximum(grid):
    # A history frozen in theta under the pure heat flow: the solution
    # decays, so the segments at steps 0..S all share the sup of the
    # history rows, and the report names the first of them after T.
    p = heat_only_params()
    flat = history_from_function(lambda x, th: np.exp(-x * x), grid, p.tau, STEPS_PER_DELAY)
    values = integrate(flat, 1.0, p, grid)
    dt = p.tau / STEPS_PER_DELAY
    est = compute_estimates(p, norm_g=0.0)
    T = 2 * dt
    report = verify_absorption(norm_sups(flat, values, grid), dt, est, T)
    assert report["argmax_time"] == T
    assert (report["max_segment_norm"], report["argmax_time"]) == \
        ref_verify_absorption(flat, values, grid, dt, T)


def test_energy_integral_matches_segment_loop(grid, dissipative):
    hist = wide_history(grid, dissipative.tau)
    values = integrate(hist, 1.5, dissipative, grid)
    dt = dissipative.tau / STEPS_PER_DELAY
    est = compute_estimates(dissipative, norm_g=1.0)
    report = verify_energy_integral(gradient_sups(hist, values, grid), dt, est)
    assert (report["max_integral"], report["argmax_window_start"]) == \
        ref_energy_integral(hist, values, grid, dt)


def test_verify_far_field_matches_segment_loop(traj):
    hist, values, grid, dt = traj
    radii = ref_radii(grid.half_length)
    sups = far_field_sups(hist, values, grid, radii)
    for eps in (1e-1, 1.0, 10.0, 1e-30):
        assert verify_far_field(sups, dt, eps, radii) == ref_far_field(hist, values, grid, dt, eps)


@pytest.mark.parametrize("K", [0.5, 3.0, 20.0])
def test_far_field_masses_do_not_depend_on_layout(grid, K):
    """A row's tail mass is the same bytes whether the row is reduced on its
    own, in a block of any size or in a batch: a stored trajectory, the
    blocks that simulate streams and a batched march all agree.  K = 20 is
    beyond the box, where every mass is 0."""
    rows = np.random.default_rng(5).standard_normal((1281, grid.points))
    block = far_field_masses(rows, grid, K)
    assert block.shape == (1281,)
    assert np.array_equal(block, [ref_tail_mass(row, grid, K) for row in rows])
    assert np.array_equal(block, [far_field_masses(row, grid, K) for row in rows])
    for chunk in (1, 2, 7, 64):
        assert np.array_equal(block, np.concatenate(
            [far_field_masses(rows[i:i + chunk], grid, K) for i in range(0, 1281, chunk)]))
    assert np.array_equal(block, far_field_masses(rows[:, None, :], grid, K)[:, 0])


# S = 7 (8 history rows) and 40 marched rows of (B, P) = (3, 5) floats in
# blocks of 1 to 10 rows: windows at 12 and 23 leave rows 13 .. 15 to no
# window, inside the block of rows 10 .. 19
WINDOW_S, WINDOW_N, WINDOW_ROW = 7, 40, (3, 5)
WINDOW_STEPS = [23, 0, 5, 23, 40, 12, 5]


def window_rows():
    """History rows, marched rows 1 .. N and those rows as march-like blocks."""
    rng = np.random.default_rng(27)
    hist = rng.standard_normal((WINDOW_S + 1, *WINDOW_ROW))
    rows = rng.standard_normal((WINDOW_N, *WINDOW_ROW))
    return hist, rows, np.split(rows, [1, 5, 9, 19, 26, 33])


def two_per_row(rows):
    """A per-row quantity with a trailing axis: (m, B, 2)."""
    return np.stack([rows.max(axis=-1), np.sum(rows * rows, axis=-1)], axis=-1)


@pytest.mark.parametrize("history_rows", [1, 3, WINDOW_S + 1],
                         ids=["one-row", "three-rows", "whole-history"])
def test_window_sups_equal_segment_sups_at_the_steps(monkeypatch, history_rows):
    """Unsorted and repeated steps, step 0 and steps below S, with history
    chunks of one row, of three rows (not dividing S + 1) and of all rows:
    the same bytes as `segment_sups` of the stored rows at those steps,
    trailing axes kept."""
    monkeypatch.setattr(solver, "BLOCK_FLOATS", history_rows * math.prod(WINDOW_ROW))
    hist, rows, blocks = window_rows()
    every = segment_sups(two_per_row(hist), two_per_row(np.concatenate([hist[-1:], rows])))
    sups = window_sups(hist, iter(blocks), WINDOW_STEPS, two_per_row)
    assert sups.shape == (len(WINDOW_STEPS), WINDOW_ROW[0], 2)
    assert np.array_equal(sups, every[WINDOW_STEPS])
    assert np.array_equal(window_sups(hist, iter(blocks), [3], two_per_row), every[[3]])


def test_window_sups_reduce_only_held_rows_and_stop_at_the_last_window():
    """``quantity`` sees each row some window holds once and no other row,
    and no block after the one holding row max(steps) is drawn."""
    hist, rows, blocks = window_rows()
    seen, drawn = [], []

    def quantity(chunk):
        seen.extend(chunk[:, 0, 0].tolist())
        return two_per_row(chunk)

    def counted(blocks):
        for block in blocks:
            drawn.append(len(block))
            yield block

    steps = [12, 5, 23]
    window_sups(hist, counted(blocks), steps, quantity)
    labels = np.concatenate([hist[:, 0, 0], rows[:, 0, 0]]).tolist()  # row r at r + S
    held = sorted({r for n in steps for r in range(n - WINDOW_S, n + 1)})
    assert seen == [labels[r + WINDOW_S] for r in held]
    assert sum(drawn[:-1]) < 23 <= sum(drawn)
    with pytest.raises(ValueError, match="before step 41"):
        window_sups(hist, iter(blocks), [41], quantity)
