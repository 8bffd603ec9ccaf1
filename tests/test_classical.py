import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from snwell import (
    ConfigurationError,
    ModelParams,
    contour_points,
    depth,
    harmonic_energy_estimate,
    make_grid,
    potential,
)

params_st = st.builds(
    ModelParams,
    mu=st.floats(min_value=0.01, max_value=100.0),
    alpha=st.floats(min_value=0.05, max_value=50.0),
)


def test_potential_reference_points():
    assert potential(ModelParams(4.0, 1.0), 0.0) == 0.0
    assert potential(ModelParams(4.0, 2.0), 2.0) == pytest.approx(-8.0 / 3.0, rel=1e-14)
    assert potential(ModelParams(4.0, 1.0), 1.0) == pytest.approx(-5.0 / 3.0, rel=1e-14)


def test_potential_accepts_arrays():
    p = ModelParams(4.0, 1.0)
    x = np.array([0.0, 1.0, 2.0])
    np.testing.assert_allclose(potential(p, x), [potential(p, xi) for xi in x], rtol=1e-15)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(mu=-1.0, alpha=1.0),
        dict(mu=4.0, alpha=0.0),
        dict(mu=4.0, alpha=-2.0),
        dict(mu=4.0, alpha=1.0, hbar=0.0),
        dict(mu=4.0, alpha=1.0, mass=-1.0),
        dict(mu=float("nan"), alpha=1.0),
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ConfigurationError):
        ModelParams(**kwargs)


def test_depth_reference_values():
    assert depth(ModelParams(4.0, 1.0)) == pytest.approx(32.0 / 3.0, rel=1e-14)
    assert depth(ModelParams(4.0, 2.0)) == pytest.approx(8.0 / 3.0, rel=1e-14)
    assert depth(ModelParams(4.0, 5.0)) == pytest.approx(32.0 / 75.0, rel=1e-14)
    assert depth(ModelParams(0.0, 3.0)) == 0.0


def test_equilibria_examples():
    # the saddle sits at x = 0 with V = 0, the centre at 2 sqrt(mu) / alpha with V = -D
    assert potential(ModelParams(4.0, 2.0), 0.0) == 0.0
    for alpha, x_centre, v_centre in ((2.0, 2.0, -8.0 / 3.0), (1.0, 4.0, -32.0 / 3.0)):
        params = ModelParams(4.0, alpha)
        centre = 2.0 * math.sqrt(params.mu) / params.alpha
        assert centre == pytest.approx(x_centre, rel=1e-14)
        assert potential(params, centre) == pytest.approx(v_centre, rel=1e-14)


def test_equilibria_degenerate_at_bifurcation():
    # at mu = 0 the centre has merged into the saddle: no expansion point, no depth
    params = ModelParams(0.0, 1.0)
    with pytest.raises(ValueError):
        harmonic_energy_estimate(params, 0)
    assert depth(params) == 0.0 and potential(params, 0.0) == 0.0


@given(params=params_st)
def test_saddle_anchored_at_origin(params):
    assert potential(params, 0.0) == 0.0
    h = 1e-6
    slope = (potential(params, h) - potential(params, -h)) / (2 * h)
    assert abs(slope) < 1e-9


@given(params=params_st)
def test_centre_energy_is_minus_depth(params):
    v_centre = potential(params, 2.0 * math.sqrt(params.mu) / params.alpha)
    assert v_centre == pytest.approx(-depth(params), rel=1e-11)


@given(params=params_st)
def test_curvature_signs_at_equilibria(params):
    # second central difference of a cubic has no truncation error, so a
    # wide step only reduces cancellation noise
    h = 1e-2
    centre = 2.0 * math.sqrt(params.mu) / params.alpha

    def second_diff(x0):
        return (
            potential(params, x0 + h) - 2 * potential(params, x0) + potential(params, x0 - h)
        ) / h**2

    expected = 2.0 * math.sqrt(params.mu)
    assert second_diff(0.0) == pytest.approx(-expected, rel=1e-5)
    assert second_diff(centre) == pytest.approx(expected, rel=1e-5)


def test_expansion_reference_values():
    # centre 2 sqrt(mu) / alpha, offset -D, omega = hbar-scaled level spacing,
    # cubic coefficient V'''/6 from an exact third central difference
    for alpha, x_centre, offset, cubic_coeff in (
        (1.0, 4.0, -32.0 / 3.0, 1.0 / 3.0),
        (2.0, 2.0, -8.0 / 3.0, 2.0 / 3.0),
    ):
        params = ModelParams(4.0, alpha)
        centre = 2.0 * math.sqrt(params.mu) / params.alpha
        assert centre == pytest.approx(x_centre, rel=1e-14)
        assert -depth(params) == pytest.approx(offset, rel=1e-14)
        assert potential(params, centre) == pytest.approx(offset, rel=1e-14)
        spacing = harmonic_energy_estimate(params, 1) - harmonic_energy_estimate(params, 0)
        assert spacing / params.hbar == pytest.approx(2.0, rel=1e-14)
        v = [potential(params, centre + k) for k in (-2, -1, 1, 2)]
        third = (v[3] - 2.0 * v[2] + 2.0 * v[1] - v[0]) / 2.0
        assert third / 6.0 == pytest.approx(cubic_coeff, rel=1e-14)


def test_expansion_rejects_degenerate_well():
    # at mu = 0 the quadratic term sqrt(mu) y^2 vanishes: no harmonic level
    for n in (0, 1, 5):
        with pytest.raises(ValueError):
            harmonic_energy_estimate(ModelParams(0.0, 1.0), n)


@given(params=params_st, x=st.floats(min_value=-10.0, max_value=10.0))
def test_cubic_taylor_expansion_is_exact(params, x):
    # V = -D + sqrt(mu) y^2 + (alpha/3) y^3 with y = x - 2 sqrt(mu) / alpha
    y = x - 2.0 * math.sqrt(params.mu) / params.alpha
    quadratic = math.sqrt(params.mu) * y**2
    cubic = params.alpha / 3.0 * y**3
    reconstructed = -depth(params) + quadratic + cubic
    tol = 1e-12 * max(1.0, depth(params) + abs(quadratic) + abs(cubic))
    assert abs(reconstructed - potential(params, x)) <= tol


def test_estimate_reference_values():
    p = ModelParams(4.0, 1.0)
    assert harmonic_energy_estimate(p, 0) == pytest.approx(-32.0 / 3.0 + 1.0, rel=1e-14)
    assert harmonic_energy_estimate(p, 1) == pytest.approx(-32.0 / 3.0 + 3.0, rel=1e-14)
    with pytest.raises(ValueError):
        harmonic_energy_estimate(p, -1)


@given(
    params=st.builds(
        ModelParams,
        mu=st.floats(min_value=0.01, max_value=25.0),
        alpha=st.floats(min_value=0.2, max_value=10.0),
        mass=st.floats(min_value=0.25, max_value=4.0),
    )
)
def test_estimate_level_spacing_matches_curvature(params):
    # the spacing hbar omega has m omega^2 = V''(centre) = 2 sqrt(mu); it is
    # the difference of two estimates near -D, hence the looser tolerance
    spacing = harmonic_energy_estimate(params, 1) - harmonic_energy_estimate(params, 0)
    omega = spacing / params.hbar
    assert params.mass * omega**2 / 2.0 == pytest.approx(math.sqrt(params.mu), rel=1e-10)


@given(
    mu=st.floats(min_value=0.5, max_value=20.0),
    n=st.integers(0, 5),
)
def test_estimate_slope_in_depth_is_minus_one(mu, n):
    p1 = ModelParams(mu, 1.0)
    p2 = ModelParams(mu, 2.5)
    slope = (harmonic_energy_estimate(p1, n) - harmonic_energy_estimate(p2, n)) / (
        depth(p1) - depth(p2)
    )
    assert slope == pytest.approx(-1.0, abs=1e-9)


def test_estimate_tracks_computed_deep_well_levels(deep_spectrum, deep_params):
    # gaps frozen from a grid-refinement study; dominated by the cubic term
    est0 = harmonic_energy_estimate(deep_params, 0)
    est1 = harmonic_energy_estimate(deep_params, 1)
    assert abs(deep_spectrum.energies[0] - est0) < 0.05
    assert abs(deep_spectrum.energies[1] - est1) < 0.15


@given(
    params=params_st,
    e=st.floats(min_value=-20.0, max_value=20.0),
)
def test_contour_points_lie_on_level_set(params, e):
    grid = make_grid(-2.0, 8.0, 97)
    pts = contour_points(params, e, grid)
    if pts.size:
        h = pts[:, 1] ** 2 / (2.0 * params.mass) + potential(params, pts[:, 0])
        assert np.max(np.abs(h - e)) <= 1e-10 * max(1.0, abs(e)) + 1e-15


def test_contour_momentum_branches_paired():
    grid = make_grid(-2.0, 8.0, 97)
    pts = contour_points(ModelParams(4.0, 1.0), 2.0, grid)
    assert pts.shape[0] % 2 == 0
    np.testing.assert_array_equal(pts[0::2, 0], pts[1::2, 0])
    np.testing.assert_array_equal(pts[0::2, 1], -pts[1::2, 1])
    assert (pts[0::2, 1] >= 0).all()


def test_contour_saddle_on_its_own_level_set():
    grid = make_grid(-2.0, 2.0, 5)  # contains x = 0 exactly
    pts = contour_points(ModelParams(4.0, 1.0), 0.0, grid)
    assert any(x == 0.0 and p == 0.0 for x, p in pts)


def test_contour_at_well_bottom_is_the_centre_point():
    # grid containing the centre x = 2 exactly and avoiding the left branch
    grid = make_grid(0.0, 4.0, 5)
    pts = contour_points(ModelParams(4.0, 2.0), -8.0 / 3.0, grid)
    assert pts.shape[0] == 2
    np.testing.assert_array_equal(pts[:, 0], [2.0, 2.0])
    np.testing.assert_allclose(pts[:, 1], 0.0, atol=1e-7)


def test_contour_below_well_bottom_is_empty():
    params = ModelParams(4.0, 2.0)
    grid = make_grid(0.0, 4.0, 5)
    pts = contour_points(params, -depth(params) - 0.1, grid)
    assert pts.shape == (0, 2)
