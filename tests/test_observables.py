import math

import numpy as np
import pytest

from snwell import (
    EigenState,
    ModelParams,
    NumericalError,
    assemble,
    make_grid,
    position_records,
    solve,
)

from conftest import fd_hamiltonian


def written_out(state, grid, power):
    """sum(psi^2 x^power) dx of one state, as one 1-D sum."""
    density = state.values * state.values
    return float(np.sum(density * grid.points**power)) * grid.dx


@pytest.fixture(scope="module")
def shifted_harmonic():
    g = make_grid(-7.0, 13.0, 1201)
    s = solve(fd_hamiltonian(g, lambda x: 0.5 * (x - 3.0) ** 2), 3)
    return g, s


def test_shifted_well_means_sit_at_the_centre(shifted_harmonic):
    g, s = shifted_harmonic
    means, _ = position_records(s.states, g)
    assert means == pytest.approx([3.0] * len(s.states), abs=1e-4)


def test_harmonic_widths_match_analytic_values(shifted_harmonic):
    # (dx)_n^2 = (n + 1/2) hbar / (m omega)
    g, s = shifted_harmonic
    _, widths = position_records(s.states, g)
    assert widths[0] == pytest.approx(2**-0.5, abs=1e-3)
    for st, width in zip(s.states, widths, strict=True):
        assert width == pytest.approx(np.sqrt(st.index + 0.5), abs=1e-3)


@pytest.mark.parametrize("alpha", [1.0, 2.0, 5.0])
def test_means_between_saddle_and_centre(alpha, saddle_grid):
    params = ModelParams(4.0, alpha)
    s = solve(assemble(params, saddle_grid), 3)
    centre = 2.0 * math.sqrt(params.mu) / params.alpha
    means, _ = position_records(s.states, saddle_grid)
    assert ((0.0 < means) & (means < centre)).all()


def test_mean_decreases_with_state_index_in_deep_wells(saddle_grid):
    for alpha in (1.0, 1.5, 2.0):
        s = solve(assemble(ModelParams(4.0, alpha), saddle_grid), 3)
        means, _ = position_records(s.states, saddle_grid)
        assert means[0] > means[1] > means[2]


def test_mean_increases_with_depth_in_deep_wells(saddle_grid):
    # ascending depth = descending alpha over the deep-well range
    means = np.array([
        position_records(solve(assemble(ModelParams(4.0, float(alpha)), saddle_grid), 3).states,
                         saddle_grid)[0]
        for alpha in np.linspace(2.0, 1.0, 5)
    ])
    assert (np.diff(means, axis=0) > 0).all()


def test_widths_ordered_by_state_at_fixed_depth(deep_spectrum, saddle_grid):
    _, widths = position_records(deep_spectrum.states[:3], saddle_grid)
    assert widths[0] < widths[1] < widths[2]


def test_widths_flatten_in_the_deep_limit(saddle_grid):
    # over the deepest-well band the widths change by well under 5 percent
    widths = np.array([
        position_records(solve(assemble(ModelParams(4.0, alpha), saddle_grid), 3).states,
                         saddle_grid)[1]
        for alpha in (1.0, 1.07, 1.14, 1.21)
    ])
    assert ((widths.max(axis=0) - widths.min(axis=0)) / widths.mean(axis=0) < 0.05).all()


def test_variance_never_negative(deep_spectrum, saddle_grid):
    means, sigmas = position_records(deep_spectrum.states, saddle_grid)
    for st, mean, sigma in zip(deep_spectrum.states, means, sigmas, strict=True):
        assert written_out(st, saddle_grid, 2) >= mean**2 - 1e-12
        assert sigma >= 0.0


def test_position_records_consistent_with_moments(deep_spectrum, saddle_grid):
    st = deep_spectrum.states[1]
    means, sigmas = position_records(deep_spectrum.states, saddle_grid)
    m1, m2 = written_out(st, saddle_grid, 1), written_out(st, saddle_grid, 2)
    assert means[1] == m1
    assert sigmas[1] == np.sqrt(m2 - m1 * m1)
    alone_mean, alone_sigma = position_records([st], saddle_grid)
    assert means[1] == alone_mean[0] and sigmas[1] == alone_sigma[0]


def test_unnormalized_state_rejected(deep_spectrum, saddle_grid):
    bad = EigenState(index=0, energy=0.0, values=2.0 * deep_spectrum.states[0].values)
    with pytest.raises(ValueError):
        position_records([bad], saddle_grid)
    nan = EigenState(index=0, energy=0.0, values=np.full(saddle_grid.n_points, np.nan))
    with pytest.raises(ValueError, match="not normalized"):
        position_records([nan], saddle_grid)


@pytest.mark.parametrize("n", [5, 6, 150, 599])
def test_position_records_equal_the_moments_bitwise(n):
    grid = make_grid(-1.0, 9.0, n)
    rng = np.random.default_rng(n)
    states = []
    for i in range(4):
        values = np.zeros(n)
        values[1:-1] = rng.standard_normal(n - 2) * rng.uniform(0.1, 10.0)
        values /= math.sqrt(float(np.sum(values**2)) * grid.dx)
        states.append(EigenState(index=i, energy=0.0, values=values))
    means, sigmas = position_records(states, grid)
    assert means.dtype == sigmas.dtype == np.float64
    for state, mean, sigma in zip(states, means.tolist(), sigmas.tolist(), strict=True):
        # the one-state sums, written out
        m1, m2 = written_out(state, grid, 1), written_out(state, grid, 2)
        assert mean.hex() == m1.hex()
        assert sigma.hex() == math.sqrt(max(m2 - m1 * m1, 0.0)).hex()
        alone_mean, alone_sigma = position_records([state], grid)
        assert alone_mean.tolist() == [mean] and alone_sigma.tolist() == [sigma]
    means, sigmas = position_records([], grid)
    for empty in (means, sigmas):
        assert empty.dtype == np.float64 and empty.shape == (0,)


def test_position_records_reject_an_unnormalized_state(deep_spectrum, saddle_grid):
    good = deep_spectrum.states[0]
    bad = EigenState(index=1, energy=0.0, values=2.0 * good.values)
    with pytest.raises(ValueError, match="not normalized"):
        position_records([good, bad], saddle_grid)


def test_variance_below_the_floor_raises_with_the_state_index():
    # all of psi^2 at x = 4, normalized to 1 + 5e-7 (inside NORMALIZATION_ATOL):
    # <x^2> - <x>^2 = 16 (1 + 5e-7) - 16 (1 + 5e-7)^2 = -8e-6
    grid = make_grid(-1.0, 9.0, 101)
    values = np.where(grid.points == 4.0, math.sqrt((1.0 + 5e-7) / grid.dx), 0.0)
    assert np.count_nonzero(values) == 1
    with pytest.raises(NumericalError, match="negative beyond rounding") as excinfo:
        position_records([EigenState(index=3, energy=0.0, values=values)], grid)
    assert excinfo.value.state_index == 3
