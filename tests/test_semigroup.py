import math

import numpy as np
import pytest

from delayrd.model import Grid
from delayrd.semigroup import (
    SemigroupStepper,
    apply_semigroup,
    field_norm,
    gradient_norm,
    semigroup_decay_check,
)


def test_constant_field_decays_exactly():
    grid = Grid(half_length=16.0, points=512)
    phi = np.full(grid.points, 3.0)
    out = apply_semigroup(math.log(2.0), phi, grid, mu=1.0)
    np.testing.assert_allclose(out, 1.5, rtol=0, atol=1e-12)


def test_zero_time_is_identity(rng, grid):
    phi = rng.standard_normal(grid.points)
    out = apply_semigroup(0.0, phi, grid, mu=2.0)
    np.testing.assert_array_equal(out, phi)


def test_negative_time_rejected(grid):
    phi = np.ones(grid.points)
    with pytest.raises(ValueError):
        apply_semigroup(-0.1, phi, grid, mu=1.0)


def test_gaussian_heat_oracle(fine_grid):
    """Damped heat flow of a Gaussian stays Gaussian: variance s0^2 + 2t,
    amplitude scaled by sqrt(s0^2/(s0^2+2t)) e^{-mu t}."""
    x = fine_grid.nodes
    s0, mu, t = 1.0, 0.7, 1.25
    phi = np.exp(-0.5 * x * x / s0**2)
    out = apply_semigroup(t, phi, fine_grid, mu)
    s2 = s0**2 + 2.0 * t
    exact = math.exp(-mu * t) * math.sqrt(s0**2 / s2) * np.exp(-0.5 * x * x / s2)
    assert np.max(np.abs(out - exact)) < 1e-8


def test_semigroup_property(rng, grid):
    phi = rng.standard_normal(grid.points)
    both = apply_semigroup(0.7, apply_semigroup(0.4, phi, grid, 1.3), grid, 1.3)
    once = apply_semigroup(1.1, phi, grid, 1.3)
    np.testing.assert_allclose(both, once, atol=1e-13)


def test_decay_inequality_random_fields(rng, grid):
    for _ in range(25):
        phi = rng.standard_normal(grid.points)
        t = float(rng.uniform(0.01, 3.0))
        mu = float(rng.uniform(0.2, 4.0))
        report = semigroup_decay_check(phi, grid, t, mu)
        assert report["ok"]
        assert report["lhs"] <= report["rhs"] * (1 + 1e-12)
        assert report["rhs"] == pytest.approx(math.exp(-mu * t) * field_norm(phi, grid))


def test_sine_mode_decays_at_exact_rate(grid):
    """A periodic-box eigenmode picks up exactly e^{-(mu + xi^2) t}."""
    k = 5
    xi = k * math.pi / grid.half_length
    phi = np.sin(xi * grid.nodes)
    out = apply_semigroup(0.8, phi, grid, mu=2.0)
    np.testing.assert_allclose(out,
                               math.exp(-(2.0 + xi * xi) * 0.8) * phi,
                               atol=1e-14)


def test_field_norm_matches_analytic(grid):
    # || sin(k pi x / L) ||_{L2(-L,L)} = sqrt(L) exactly on the grid
    phi = np.sin(3 * math.pi * grid.nodes / grid.half_length)
    assert field_norm(phi, grid) == pytest.approx(math.sqrt(grid.half_length), rel=1e-12)


@pytest.mark.parametrize("points", [512, 2048])
def test_field_norm_of_a_block_equals_its_rows(rng, points):
    """The one L2 row norm: `field_norm` of an (m, B, P) block, of a strided
    view of it and of one row give the same bits for each row, and equal
    sqrt(h sum(u^2)) of the row within rounding."""
    grid = Grid(half_length=16.0, points=points)
    block = rng.standard_normal((5, 3, points)) * rng.uniform(1e-3, 1e3, (5, 3, 1))
    norms = field_norm(block, grid)
    assert norms.shape == (5, 3)
    rows = np.array([[field_norm(block[i, j], grid) for j in range(3)] for i in range(5)])
    assert np.array_equal(norms, rows)
    assert np.array_equal(field_norm(block[::2, ::-1], grid), norms[::2, ::-1])
    assert np.array_equal(field_norm(block.reshape(15, points), grid), norms.reshape(15))
    exact = np.sqrt(grid.spacing * np.einsum("ijk,ijk->ij", block, block))
    np.testing.assert_allclose(norms, exact, rtol=1e-14)


def test_gradient_norm_analytic_and_fd(grid):
    xi = 4 * math.pi / grid.half_length
    phi = np.sin(xi * grid.nodes)
    # d/dx sin(xi x) = xi cos(xi x), norm xi * sqrt(L)
    expected = xi * math.sqrt(grid.half_length)
    assert gradient_norm(phi, grid) == pytest.approx(expected, rel=1e-12)

    # second route: centered finite differences on a smooth localized field
    smooth = np.exp(-0.25 * grid.nodes**2)
    deriv = np.gradient(smooth, grid.spacing, edge_order=2)
    fd = math.sqrt(grid.spacing * float(np.sum(deriv * deriv)))
    assert gradient_norm(smooth, grid) == pytest.approx(fd, rel=2e-3)


def test_gradient_norm_of_constant_is_zero(grid):
    assert gradient_norm(np.full(grid.points, 2.5), grid) == pytest.approx(0.0, abs=1e-12)


def test_stepper_matches_direct_application(rng, grid):
    stepper = SemigroupStepper(grid, mu=1.7, dt=0.05)
    values = rng.standard_normal(grid.points)
    stepped = stepper.step(values)
    direct = apply_semigroup(0.05, values, grid, 1.7)
    np.testing.assert_allclose(stepped, direct, atol=1e-14)
