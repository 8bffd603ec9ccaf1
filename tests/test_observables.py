import math

import numpy as np
import pytest

from snwell import (
    EigenState,
    ModelParams,
    assemble,
    make_grid,
    moment,
    position_records,
    solve,
    uncertainty,
)

from conftest import fd_hamiltonian


@pytest.fixture(scope="module")
def shifted_harmonic():
    g = make_grid(-7.0, 13.0, 1201)
    s = solve(fd_hamiltonian(g, lambda x: 0.5 * (x - 3.0) ** 2), 3)
    return g, s


def test_zeroth_moment_is_normalization(deep_spectrum, saddle_grid):
    for st in deep_spectrum.states:
        assert moment(st, saddle_grid, 0) == pytest.approx(1.0, abs=1e-6)
        # x**0 is exactly 1, so the zeroth moment is the norm sum itself, bit for bit
        norm = float(np.sum(st.values * st.values)) * saddle_grid.dx
        assert moment(st, saddle_grid, 0).hex() == norm.hex()


def test_shifted_well_means_sit_at_the_centre(shifted_harmonic):
    g, s = shifted_harmonic
    for st in s.states:
        assert moment(st, g, 1) == pytest.approx(3.0, abs=1e-4)


def test_harmonic_widths_match_analytic_values(shifted_harmonic):
    # (dx)_n^2 = (n + 1/2) hbar / (m omega)
    g, s = shifted_harmonic
    assert uncertainty(s.states[0], g) == pytest.approx(2**-0.5, abs=1e-3)
    for st in s.states:
        assert uncertainty(st, g) == pytest.approx(np.sqrt(st.index + 0.5), abs=1e-3)


@pytest.mark.parametrize("alpha", [1.0, 2.0, 5.0])
def test_means_between_saddle_and_centre(alpha, saddle_grid):
    params = ModelParams(4.0, alpha)
    s = solve(assemble(params, saddle_grid), 3)
    centre = 2.0 * math.sqrt(params.mu) / params.alpha
    for st in s.states:
        mean = moment(st, saddle_grid, 1)
        assert 0.0 < mean < centre


def test_mean_decreases_with_state_index_in_deep_wells(saddle_grid):
    for alpha in (1.0, 1.5, 2.0):
        s = solve(assemble(ModelParams(4.0, alpha), saddle_grid), 3)
        means = [moment(st, saddle_grid, 1) for st in s.states]
        assert means[0] > means[1] > means[2]


def test_mean_increases_with_depth_in_deep_wells(saddle_grid):
    # ascending depth = descending alpha over the deep-well range
    means = {n: [] for n in range(3)}
    for alpha in np.linspace(2.0, 1.0, 5):
        s = solve(assemble(ModelParams(4.0, float(alpha)), saddle_grid), 3)
        for n in range(3):
            means[n].append(moment(s.states[n], saddle_grid, 1))
    for n in range(3):
        assert (np.diff(means[n]) > 0).all()


def test_widths_ordered_by_state_at_fixed_depth(deep_spectrum, saddle_grid):
    widths = [uncertainty(st, saddle_grid) for st in deep_spectrum.states[:3]]
    assert widths[0] < widths[1] < widths[2]


def test_widths_flatten_in_the_deep_limit(saddle_grid):
    # over the deepest-well band the widths change by well under 5 percent
    widths = {n: [] for n in range(3)}
    for alpha in (1.0, 1.07, 1.14, 1.21):
        s = solve(assemble(ModelParams(4.0, alpha), saddle_grid), 3)
        for n in range(3):
            widths[n].append(uncertainty(s.states[n], saddle_grid))
    for n in range(3):
        band = np.array(widths[n])
        assert (band.max() - band.min()) / band.mean() < 0.05


def test_variance_never_negative(deep_spectrum, saddle_grid):
    means, sigmas = position_records(deep_spectrum.states, saddle_grid)
    for st, mean, sigma in zip(deep_spectrum.states, means, sigmas, strict=True):
        assert moment(st, saddle_grid, 2) >= mean**2 - 1e-12
        assert sigma >= 0.0


def test_position_records_consistent_with_moments(deep_spectrum, saddle_grid):
    st = deep_spectrum.states[1]
    means, sigmas = position_records(deep_spectrum.states, saddle_grid)
    m1, m2 = moment(st, saddle_grid, 1), moment(st, saddle_grid, 2)
    assert means[1] == m1
    assert sigmas[1] == np.sqrt(m2 - m1 * m1)
    assert sigmas[1] == uncertainty(st, saddle_grid) == position_records([st], saddle_grid)[1][0]


def test_unnormalized_state_rejected(deep_spectrum, saddle_grid):
    bad = EigenState(index=0, energy=0.0, values=2.0 * deep_spectrum.states[0].values)
    with pytest.raises(ValueError):
        moment(bad, saddle_grid, 1)
    nan = EigenState(index=0, energy=0.0, values=np.full(saddle_grid.n_points, np.nan))
    with pytest.raises(ValueError, match="not normalized"):
        position_records([nan], saddle_grid)


def test_negative_power_rejected(deep_spectrum, saddle_grid):
    with pytest.raises(ValueError):
        moment(deep_spectrum.states[0], saddle_grid, -1)


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
        m1, m2 = moment(state, grid, 1), moment(state, grid, 2)
        # the one-state sums, written out
        density = state.values * state.values
        assert m1.hex() == (float(np.sum(density * grid.points)) * grid.dx).hex()
        assert m2.hex() == (float(np.sum(density * grid.points**2)) * grid.dx).hex()
        assert mean.hex() == m1.hex()
        assert sigma.hex() == math.sqrt(max(m2 - m1 * m1, 0.0)).hex()
        assert uncertainty(state, grid).hex() == sigma.hex()
    means, sigmas = position_records([], grid)
    for empty in (means, sigmas):
        assert empty.dtype == np.float64 and empty.shape == (0,)


def test_position_records_reject_an_unnormalized_state(deep_spectrum, saddle_grid):
    good = deep_spectrum.states[0]
    bad = EigenState(index=1, energy=0.0, values=2.0 * good.values)
    with pytest.raises(ValueError, match="not normalized"):
        position_records([good, bad], saddle_grid)
