import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from snwell import (ConfigurationError, ModelParams, assemble, make_grid, make_momentum_grid,
                    potential, solve)
from snwell.discretize import uniform_points

from conftest import fd_hamiltonian


def test_default_window_spacing():
    g = make_grid(-1.0, 9.0, 599)
    assert g.dx == 10.0 / 598.0
    assert g.n_points == 599
    assert g.points[0] == -1.0 and g.points[-1] == 9.0
    assert g.points.size == 599


def test_nice_fraction_points_exact():
    g = make_grid(0.0, 1.0, 5)
    np.testing.assert_array_equal(g.points, [0.0, 0.25, 0.5, 0.75, 1.0])


@pytest.mark.parametrize(
    "a,b,n",
    [(-1.0, 9.0, 2), (0.0, 1.0, 4), (1.0, 1.0, 9), (2.0, 1.0, 9),
     (-1.0, math.inf, 9), (-math.inf, 9.0, 9), (-1.0, math.nan, 9), (-1e308, 1e308, 9),
     (1.0, 1e308, 9),  # b j overflows in the weighted average: rejected, with no warning
     (-115.68810169584913, -115.68810169579964, 2367)],
)
def test_bad_grids_rejected(a, b, n):
    with pytest.raises(ConfigurationError):
        make_grid(a, b, n)


@pytest.mark.parametrize(
    "a,b",
    [(2.0, 1.0), (1.0, 1.0), (-1.0, math.inf), (-math.inf, 9.0), (-1.0, math.nan),
     (-1e308, 1e308)],
    ids=["reversed", "equal", "inf", "minus_inf", "nan", "width_overflows"],
)
def test_one_window_rule_for_both_grids(a, b):
    messages = []
    for make in (make_grid, make_momentum_grid):
        with pytest.raises(ConfigurationError) as excinfo:
            make(a, b, 9)
        messages.append(str(excinfo.value))
    assert messages == [f"window [{a!r}, {b!r}] needs finite ends a < b"] * 2


@pytest.mark.parametrize("make", [make_grid, make_momentum_grid])
def test_a_bad_window_is_named_before_anything_is_allocated(make):
    with pytest.raises(ConfigurationError, match=r"^window \[2\.0, 1\.0\]"):
        make(2.0, 1.0, 10**15)


@given(
    a=st.floats(-50.0, 50.0),
    width=st.floats(0.1, 100.0),
    n=st.integers(5, 400),
)
def test_grid_points_equispaced(a, width, n):
    g = make_grid(a, a + width, n)
    assert g.points.size == n
    assert g.points[0] == a
    assert g.points[-1] == a + width
    np.testing.assert_allclose(np.diff(g.points), g.dx, rtol=1e-9)


def test_an_overflowing_weighted_average_is_named():
    # b j overflows at j >= 2, though each point (1, 1.25e307, ..., 1e308) is a double
    with pytest.raises(ConfigurationError, match=r"a \(n-1-j\) \+ b j overflows"):
        uniform_points(1.0, 1e308, 9)
    assert uniform_points(1.0, 1e307, 9).tolist() == [1.0] + [k * 1.25e306 for k in range(1, 9)]


def test_symmetric_window_mirrors_bitwise():
    g = make_grid(-7.3, 7.3, 89)
    np.testing.assert_array_equal(g.points[::-1], -g.points)
    assert g.points[44] == 0.0


def test_stencil_values_on_coarse_grid():
    # dx = 0.25: kinetic scale 1/dx^2 = 16, off-diagonal -1/(2 dx^2) = -8
    params = ModelParams(4.0, 1.0)
    h = assemble(params, make_grid(0.0, 1.0, 5))
    assert h.diagonal.size == 3 and h.off_diagonal.size == 2
    np.testing.assert_array_equal(h.off_diagonal, [-8.0, -8.0])
    v_quarter = -2.0 * 0.0625 + 0.015625 / 3.0
    assert h.diagonal[0] == pytest.approx(16.0 + v_quarter, abs=1e-12)
    assert h.diagonal[1] == pytest.approx(16.0 + potential(params, 0.5), abs=1e-12)


def test_off_diagonal_constant_and_negative():
    h = assemble(ModelParams(4.0, 2.0), make_grid(-1.0, 9.0, 149))
    assert np.all(h.off_diagonal == h.off_diagonal[0])
    assert h.off_diagonal[0] < 0.0


def test_matches_independent_dense_construction():
    params = ModelParams(4.0, 2.0, hbar=1.5, mass=0.7)
    g = make_grid(-1.0, 9.0, 99)
    h = assemble(params, g)

    x = np.linspace(-1.0, 9.0, 99)
    dx = x[1] - x[0]
    v = -np.sqrt(4.0) * x**2 + (2.0 / 3.0) * x**3
    scale = 1.5**2 / (2.0 * 0.7 * dx**2)
    m = 97
    dense = np.diag(2.0 * scale + v[1:-1])
    dense += np.diag(np.full(m - 1, -scale), 1) + np.diag(np.full(m - 1, -scale), -1)

    np.testing.assert_allclose(h.diagonal, np.diag(dense), rtol=1e-12)
    np.testing.assert_allclose(h.off_diagonal, np.diag(dense, 1), rtol=1e-12)

    rng = np.random.default_rng(7)
    vec = rng.standard_normal(m)
    np.testing.assert_allclose(h.apply(vec.copy()), dense @ vec, rtol=1e-12)


def test_apply_rejects_wrong_length():
    h = assemble(ModelParams(4.0, 1.0), make_grid(0.0, 1.0, 9))
    with pytest.raises(ValueError):
        h.apply(np.zeros(5))
    for shape in ((3, 5), (7, 3), (7, 3, 2), ()):
        with pytest.raises(ValueError):
            h.apply(np.zeros(shape))


def test_apply_to_a_block_equals_each_column_bitwise():
    # the block holds one vector per row, as the eigensolver driver returns it
    h = assemble(ModelParams(4.0, 1.0), make_grid(-1.0, 9.0, 101))
    block = np.random.default_rng(3).standard_normal((4, 99))
    rows = np.stack([h.apply(block[i].copy()) for i in range(4)])
    assert h.apply(block).tobytes() == rows.tobytes()
    assert h.apply(np.asfortranarray(block)).tobytes() == rows.tobytes()


def test_eigenvalues_inside_gershgorin_discs(deep_spectrum, saddle_grid, deep_params):
    h = assemble(deep_params, saddle_grid)
    lo = h.diagonal.min() + 2.0 * h.off_diagonal[0]
    hi = h.diagonal.max() - 2.0 * h.off_diagonal[0]
    for e in deep_spectrum.energies:
        assert lo <= e <= hi


def test_refinement_improves_harmonic_ground_state():
    errors = []
    for n in (149, 299, 599):
        g = make_grid(-10.0, 10.0, n)
        s = solve(fd_hamiltonian(g, lambda x: 0.5 * x**2), 1)
        errors.append(abs(s.energies[0] - 0.5))
    assert errors[0] > errors[1] > errors[2]


def test_box_ground_state_on_pi_interval():
    # V = 0 on [0, pi]: lowest level pi^2 hbar^2 / (2 L^2) = 1/2
    g = make_grid(0.0, np.pi, 1201)
    s = solve(fd_hamiltonian(g, lambda x: 0.0 * x), 1)
    assert s.energies[0] == pytest.approx(0.5, abs=1e-4)
