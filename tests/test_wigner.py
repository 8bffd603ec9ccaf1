import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from snwell import (
    ConfigurationError,
    ModelParams,
    SweepConfig,
    WignerField,
    assemble,
    make_grid,
    make_momentum_grid,
    marginal_x,
    nonreactive_probabilities,
    nonreactive_probability,
    potential,
    run_sweep,
    solve,
    wigner_transform,
)

import snwell.wigner
from snwell.eigensolve import EigenState
from snwell.wigner import (
    _correlation_matrix,
    _level_reach,
    _prefix_build,
    _prefix_table,
    _PrefixBuild,
    _region_integrals,
)

from conftest import fd_hamiltonian


@pytest.fixture(scope="module")
def harmonic_field():
    g = make_grid(-10.0, 10.0, 1201)
    s = solve(fd_hamiltonian(g, lambda x: 0.5 * x**2), 2)
    pg = make_momentum_grid(-6.0, 6.0, 1201)
    params = ModelParams(mu=0.0, alpha=1.0)
    return g, pg, s, wigner_transform(s.states[0], g, pg, params), params


@pytest.fixture(scope="module")
def deep_fields(deep_spectrum, saddle_grid, momentum_grid, deep_params):
    return [
        wigner_transform(st, saddle_grid, momentum_grid, deep_params)
        for st in deep_spectrum.states[:5]
    ]


@pytest.fixture(scope="module")
def shallow_spectrum(saddle_grid):
    return solve(assemble(ModelParams(4.0, 5.0), saddle_grid), 5)


def slow_wigner_value(psi, dx, hbar, j, p):
    """Direct evaluation of the discrete transform, signed offsets and all."""
    n = psi.size
    total = 0.0
    for l in range(-(n - 1), n):
        jm, jp = j - l, j + l
        if 0 <= jm < n and 0 <= jp < n:
            total += psi[jm] * psi[jp] * math.cos(p * (2.0 * l * dx) / hbar)
    return total * dx / (math.pi * hbar)


def test_correlation_matrix_matches_loop_bitwise(deep_spectrum):
    rng = np.random.default_rng(3)
    for psi in [st.values for st in deep_spectrum.states[:3]] + [rng.normal(size=n)
                                                                  for n in (5, 6, 60, 61)]:
        n = psi.size
        lmax = (n - 1) // 2
        padded = np.concatenate([np.zeros(lmax), psi, np.zeros(lmax)])  # psi(x) = 0 off the grid
        loop = np.zeros((n, lmax + 1))
        for j in range(lmax, lmax + n):
            for l in range(lmax + 1):
                loop[j - lmax, l] = (1.0 if l == 0 else 2.0) * (padded[j - l] * padded[j + l])
        assert _correlation_matrix(psi).tobytes() == loop.tobytes()


def test_momentum_grid_invariants():
    pg = make_momentum_grid(-6.0, 6.0, 599)
    assert pg.dp == 12.0 / 598.0
    assert pg.points[0] == -6.0 and pg.points[-1] == 6.0
    assert pg.points[299] == 0.0
    np.testing.assert_array_equal(pg.points[::-1], -pg.points)
    # the |p| levels: 300 of them, 0.0 alone and each other one twice
    assert pg.levels[0] == 0.0 and pg.levels.size == 300 and pg.counts.sum() == 599
    np.testing.assert_array_equal(pg.levels[pg.columns], np.abs(pg.points))
    for array in (pg.levels, pg.columns, pg.counts):
        with pytest.raises(ValueError):
            array[0] = 1
    with pytest.raises(ConfigurationError):
        make_momentum_grid(6.0, -6.0, 599)
    with pytest.raises(ConfigurationError):
        make_momentum_grid(-6.0, 6.0, 1)
    for c, d in [(0.0, math.inf), (-math.inf, 6.0), (math.nan, 6.0), (-1e308, 1e308)]:
        with pytest.raises(ConfigurationError):
            make_momentum_grid(c, d, 599)
    # spacing near one ulp of the ends: rounded points would repeat and fall back
    with pytest.raises(ConfigurationError):
        make_momentum_grid(-115.68810169584913, -115.68810169579964, 2367)


def test_harmonic_ground_state_matches_gaussian(harmonic_field):
    g, pg, _, w, _ = harmonic_field
    exact = np.exp(-(g.points[:, None] ** 2 + pg.points[None, :] ** 2)) / np.pi
    window = (np.abs(g.points) <= 3.0)[:, None] & (np.abs(pg.points) <= 3.0)[None, :]
    assert np.max(np.abs(w.values - exact)[window]) < 1e-3


def test_matches_direct_sum_evaluation(deep_fields, saddle_grid, momentum_grid, deep_spectrum):
    w = deep_fields[2]
    psi = deep_spectrum.states[2].values
    for j, k in [(0, 10), (150, 299), (299, 0), (299, 598), (420, 470), (598, 200)]:
        direct = slow_wigner_value(psi, saddle_grid.dx, 1.0, j, momentum_grid.points[k])
        assert abs(w.values[j, k] - direct) < 1e-12


def test_asymmetric_momentum_window_matches_direct_sum(deep_spectrum, saddle_grid, deep_params):
    pg = make_momentum_grid(-2.0, 5.0, 149)
    st = deep_spectrum.states[1]
    w = wigner_transform(st, saddle_grid, pg, deep_params)
    for j, k in [(10, 0), (299, 74), (500, 148)]:
        direct = slow_wigner_value(st.values, saddle_grid.dx, 1.0, j, pg.points[k])
        assert abs(w.values[j, k] - direct) < 1e-12


def test_zero_momentum_column_is_pure_correlation_sum(deep_fields, saddle_grid, momentum_grid,
                                                      deep_spectrum):
    w = deep_fields[0]
    psi = deep_spectrum.states[0].values
    mid = (momentum_grid.n_points - 1) // 2
    assert momentum_grid.points[mid] == 0.0
    for j in (0, 1, 137, 299, 400, 597, 598):
        assert abs(w.values[j, mid] - slow_wigner_value(psi, saddle_grid.dx, 1.0, j, 0.0)) < 1e-12




def test_real_and_bounded(deep_fields, harmonic_field):
    bound = 1.0 / math.pi + 1e-6
    for w in deep_fields + [harmonic_field[3]]:
        assert w.values.dtype == np.float64
        assert np.max(np.abs(w.values)) <= bound


def test_normalization_within_a_percent(deep_fields, saddle_grid, momentum_grid):
    for w in deep_fields:
        total = np.sum(w.values) * saddle_grid.dx * momentum_grid.dp
        assert total == pytest.approx(1.0, abs=1e-2)


def test_wider_momentum_window_tightens_normalization(deep_spectrum, saddle_grid, deep_params):
    st = deep_spectrum.states[4]
    errors = []
    for window in (6.0, 10.0):
        pg = make_momentum_grid(-window, window, 599)
        w = wigner_transform(st, saddle_grid, pg, deep_params)
        errors.append(abs(np.sum(w.values) * saddle_grid.dx * pg.dp - 1.0))
    assert errors[1] <= errors[0]


def test_marginal_recovers_position_density(deep_fields, deep_spectrum, harmonic_field):
    for w, st in zip(deep_fields, deep_spectrum.states):
        assert np.max(np.abs(marginal_x(w) - st.values**2)) < 1e-2
    g, _, s, w0, _ = harmonic_field
    assert np.max(np.abs(marginal_x(w0) - s.states[0].values**2)) < 1e-2


def test_marginal_of_zero_field_is_zero(saddle_grid, momentum_grid, deep_params):
    w = WignerField(
        values=np.zeros((saddle_grid.n_points, momentum_grid.n_points)),
        state_index=0,
        energy=0.0,
        params=deep_params,
        spatial_grid=saddle_grid,
        momentum_grid=momentum_grid,
    )
    np.testing.assert_array_equal(marginal_x(w), np.zeros(saddle_grid.n_points))


def test_first_excited_state_goes_negative(harmonic_field):
    g, pg, s, _, params = harmonic_field
    w1 = wigner_transform(s.states[1], g, pg, params)
    assert w1.values.min() < 0.0
    mid_x = (g.n_points - 1) // 2
    mid_p = (pg.n_points - 1) // 2
    assert w1.values[mid_x, mid_p] == pytest.approx(-1.0 / math.pi, abs=1e-3)


def test_planck_constant_enters_prefactor_and_kernel():
    # hbar = 2, omega = m = 1: rho_0 = exp(-(x^2 + p^2)/hbar) / (pi hbar)
    g = make_grid(-10.0, 10.0, 801)
    pg = make_momentum_grid(-6.0, 6.0, 801)
    params = ModelParams(mu=0.0, alpha=1.0, hbar=2.0)
    s = solve(fd_hamiltonian(g, lambda x: 0.5 * x**2, hbar=2.0), 1)
    w = wigner_transform(s.states[0], g, pg, params)
    exact = np.exp(-(g.points[:, None] ** 2 + pg.points[None, :] ** 2) / 2.0) / (2.0 * np.pi)
    window = (np.abs(g.points) <= 3.0)[:, None] & (np.abs(pg.points) <= 3.0)[None, :]
    assert np.max(np.abs(w.values - exact)[window]) < 1e-3


def test_grid_mismatch_rejected(deep_spectrum, momentum_grid, deep_params):
    wrong = make_grid(-1.0, 9.0, 149)
    with pytest.raises(ValueError):
        wigner_transform(deep_spectrum.states[0], wrong, momentum_grid, deep_params)


def test_nonreactive_probability_deep_well(deep_fields, deep_params):
    probs = [nonreactive_probability(w, deep_params) for w in deep_fields]
    assert probs[0] >= 0.9
    assert (np.diff(probs) < 0).all()
    for p in probs:
        assert -0.05 <= p <= 1.05


def test_nonreactive_probability_shallow_well(shallow_spectrum, saddle_grid, momentum_grid):
    params = shallow_spectrum.params
    probs = [
        nonreactive_probability(wigner_transform(st, saddle_grid, momentum_grid, params), params)
        for st in shallow_spectrum.states
    ]
    for p in probs[1:]:
        assert p <= 0.2
    for p in probs:
        assert -0.05 <= p <= 1.05


def assert_paths_agree(fused, state, xg, pg, params, whole=None):
    """|fused - field| <= 1e-14 max(1, S), S = sum |rho| dx dp over the region
    cells: the two paths add the same terms in a different order, so their
    difference scales with the size of the terms, not with 1.  Where whole
    is given, the same rule holds between it and the sum over every cell."""
    w = wigner_transform(state, xg, pg, params)
    field = nonreactive_probability(w, params)
    region = pg.columns < _level_reach(xg, pg, params)[:, None]
    scale = float(np.sum(np.abs(w.values[region]))) * xg.dx * pg.dp
    assert abs(fused - field) <= 1e-14 * max(1.0, scale), (state.index, fused - field, scale)
    if whole is not None:
        total = float(np.sum(w.values)) * xg.dx * pg.dp
        scale = float(np.sum(np.abs(w.values))) * xg.dx * pg.dp
        assert abs(whole - total) <= 1e-14 * max(1.0, scale), (state.index, whole - total, scale)


def whole_grid_integrals(states, xg, pg, params):
    """The region kernel with every row's reach at the last level: the
    integral of each state's field over the whole grid."""
    return _region_integrals([st.values for st in states], xg, pg, params.hbar,
                             np.full(xg.n_points, pg.levels.size))


MOMENTUM_WINDOWS = {
    "odd_symmetric": lambda n: make_momentum_grid(-6.0, 6.0, n),
    "even_symmetric": lambda n: make_momentum_grid(-6.0, 6.0, n + 1),
    "asymmetric": lambda n: make_momentum_grid(-2.0, 5.0, n),
}


@pytest.mark.parametrize("window", sorted(MOMENTUM_WINDOWS))
@pytest.mark.parametrize("n", [149, 599, 1201])
def test_fused_probabilities_match_field_path(n, window):
    grid = make_grid(-1.0, 9.0, n)
    pg = MOMENTUM_WINDOWS[window](n)
    for alpha in (0.5, 1.0, 2.0, 5.0, 8.0):
        params = ModelParams(4.0, alpha)
        stop = np.flatnonzero(_level_reach(grid, pg, params))[-1] + 1
        if alpha == 0.5:  # V < 0 on the whole window: every row and offset is kept
            assert stop == n
        if alpha == 5.0:  # V <= 0 only up to x = 1.2: the offsets are trimmed too
            assert stop - 1 < (n - 1) // 2
        states = solve(assemble(params, grid), 5).states
        fused = nonreactive_probabilities(states, grid, pg, params)
        # the probabilities are the region kernel's sums over the H <= 0 cells
        kernel = _region_integrals([st.values for st in states], grid, pg, params.hbar,
                                   _level_reach(grid, pg, params))
        assert [p.hex() for p in kernel] == [p.hex() for p in fused]
        # the whole grid's integral too, below N = 1201, where summing two
        # more N x N arrays per state would add 0.1 s to each window
        whole = whole_grid_integrals(states, grid, pg, params) if n < 1201 else [None] * 5
        for st, prob, total in zip(states, fused, whole, strict=True):
            assert_paths_agree(prob, st, grid, pg, params, total)


@pytest.mark.parametrize("alpha", [1.0, 2.0, 5.0])
def test_fused_probabilities_without_allowed_rows_are_zero(alpha):
    # p >= 5 needs V <= -12.5, deeper than the well bottom -32 / (3 alpha^2)
    grid = make_grid(-1.0, 9.0, 149)
    pg = make_momentum_grid(5.0, 6.0, 149)
    params = ModelParams(4.0, alpha)
    assert not _level_reach(grid, pg, params).any()
    states = solve(assemble(params, grid), 3).states
    fused = nonreactive_probabilities(states, grid, pg, params)
    field = [
        nonreactive_probability(wigner_transform(st, grid, pg, params), params) for st in states
    ]
    assert fused == field == [0.0, 0.0, 0.0]


@st.composite
def momentum_windows(draw):
    """Odd and even mirrored, asymmetric, and one-signed (c >= 0 or d <= 0) grids."""
    kind = draw(st.sampled_from(["odd", "even", "asymmetric", "positive", "negative"]))
    half = draw(st.integers(1, 80))
    d = draw(st.floats(0.1, 12.0))
    if kind == "odd":
        return make_momentum_grid(-d, d, 2 * half + 1)
    if kind == "even":
        return make_momentum_grid(-d, d, 2 * half)
    if kind == "asymmetric":
        return make_momentum_grid(-draw(st.floats(0.1, 12.0)), d, 2 * half + 1)
    c = draw(st.floats(0.0, 6.0))
    if kind == "positive":
        return make_momentum_grid(c, c + d, half + 1)
    return make_momentum_grid(-c - d, -c, half + 1)


@given(alpha=st.floats(0.5, 5.0), n=st.integers(5, 120), pg=momentum_windows())
@example(alpha=1.0, n=599, pg=make_momentum_grid(-6.0, 6.0, 599))
def test_momentum_symmetry_is_bitwise(alpha, n, pg):
    # on every window, the columns of one |p| level are one evaluation
    params = ModelParams(4.0, alpha)
    xg = make_grid(-1.0, 9.0, n)
    level = np.abs(pg.points)
    for state in solve(assemble(params, xg), 3).states:
        bits = wigner_transform(state, xg, pg, params).values.view(np.uint64)
        for q in np.unique(level):
            columns = bits[:, level == q]
            np.testing.assert_array_equal(columns, columns[:, :1].repeat(columns.shape[1], 1))


@given(
    mu=st.one_of(st.just(0.0), st.floats(0.0, 16.0)),
    alpha=st.floats(0.1, 10.0),
    mass=st.one_of(st.just(1.0), st.floats(0.1, 10.0)),
    a=st.floats(-5.0, 0.0),
    width=st.floats(1.0, 15.0),
    n=st.integers(5, 200),
    pg=momentum_windows(),
)
# rows with x > 0 at mu = 0, and rows beyond the barrier, have empty regions;
# a window with c > 0 also empties every row shallower than c^2 / 2m
@example(mu=0.0, alpha=1.0, mass=1.0, a=-1.0, width=10.0, n=149,
         pg=make_momentum_grid(-6.0, 6.0, 149))
@example(mu=4.0, alpha=2.0, mass=0.5, a=-1.0, width=10.0, n=149,
         pg=make_momentum_grid(-6.0, 6.0, 150))
@example(mu=4.0, alpha=1.0, mass=3.0, a=-1.0, width=10.0, n=149,
         pg=make_momentum_grid(0.5, 7.0, 149))
# overflow: V is NaN on every row; then V is -inf or NaN on every row, and
# p^2 / 2m is inf on every level but p = 0, so H is NaN or -inf there
@example(mu=4.0, alpha=1.0, mass=1.0, a=1e200, width=1e200, n=9,
         pg=make_momentum_grid(-6.0, 6.0, 9))
@example(mu=4.0, alpha=1.0, mass=1.0, a=-2e200, width=3e200, n=9,
         pg=make_momentum_grid(-1e200, 1e200, 9))
@example(mu=4.0, alpha=1.0, mass=1.0, a=-2e200, width=3e200, n=9,
         pg=make_momentum_grid(-1e300, 1e300, 9))
def test_level_reach_equals_the_hamiltonian_mask(mu, alpha, mass, a, width, n, pg):
    params = ModelParams(mu, alpha, mass=mass)
    xg = make_grid(a, a + width, n)
    levels, columns, counts = pg.levels, pg.columns, pg.counts
    with np.errstate(over="ignore", invalid="ignore"):
        h = pg.points[None, :] ** 2 / (2.0 * params.mass) + potential(params, xg.points[:, None])
        inside = h <= 0.0
        reach = _level_reach(xg, pg, params)
    assert np.all(np.diff(levels) > 0) and set(counts.tolist()) <= {1, 2}
    np.testing.assert_array_equal(levels[columns], np.abs(pg.points))
    cells = np.concatenate(([0], np.cumsum(counts)))  # cells[r] = sum(counts[:r])
    np.testing.assert_array_equal(cells[reach], np.count_nonzero(inside, axis=1))
    # the region of each row is exactly the cells with |p_k| <= levels[reach - 1]
    top = np.concatenate(([-np.inf], levels))[reach]  # -inf for an empty row
    np.testing.assert_array_equal(np.abs(pg.points) <= top[:, None], inside)


def reference_probability(w, params):
    """The integral of rho over the cells where H, tabulated on the grid, is <= 0."""
    p, x = w.momentum_grid.points[None, :], w.spatial_grid.points[:, None]
    h = p**2 / (2.0 * params.mass) + potential(params, x)
    inside = np.where(h <= 0.0, w.values, 0.0)
    return float(np.sum(inside)) * w.spatial_grid.dx * w.momentum_grid.dp


@given(alpha=st.floats(0.5, 5.0), mass=st.floats(0.1, 10.0), n=st.integers(5, 120),
       pg=momentum_windows())
@example(alpha=1.0, mass=1.0, n=599, pg=make_momentum_grid(-6.0, 6.0, 599))
def test_field_probability_equals_the_hamiltonian_mask_sum_bitwise(alpha, mass, n, pg):
    params = ModelParams(4.0, alpha, mass=mass)
    xg = make_grid(-1.0, 9.0, n)
    for state in solve(assemble(params, xg), 3).states:
        w = wigner_transform(state, xg, pg, params)
        assert nonreactive_probability(w, params) == reference_probability(w, params)


@given(
    mu=st.floats(0.0, 16.0),
    alpha=st.floats(0.1, 10.0),
    mass=st.floats(0.1, 10.0),
    a=st.floats(-5.0, 0.0),
    width=st.floats(1.0, 15.0),
    n=st.integers(5, 120),
    pg=momentum_windows(),
)
# a single allowed row (stop = 1, offsets l = 0 only) and the last row allowed
@example(mu=4.0, alpha=5.0, mass=1.0, a=-1.0, width=10.0, n=5,
         pg=make_momentum_grid(-6.0, 6.0, 5))
@example(mu=4.0, alpha=0.5, mass=1.0, a=-1.0, width=10.0, n=6,
         pg=make_momentum_grid(-6.0, 6.0, 7))
# a coarse grid whose region integral S is about 28: the paths differ by
# 1.07e-14, 3 ulp of P, which only the scaled bound admits
@example(mu=1.3674363385132404, alpha=0.25, mass=1.25, a=0.0, width=12.96875, n=5,
         pg=make_momentum_grid(-6.75, 6.75, 2))
def test_fused_probabilities_match_field_path_on_any_window(mu, alpha, mass, a, width, n, pg):
    params = ModelParams(mu, alpha, mass=mass)
    grid = make_grid(a, a + width, n)
    states = solve(assemble(params, grid), min(3, n - 2)).states
    fused = nonreactive_probabilities(states, grid, pg, params)
    whole = whole_grid_integrals(states, grid, pg, params)
    for st, prob, total in zip(states, fused, whole, strict=True):
        assert_paths_agree(prob, st, grid, pg, params, total)


def test_overflowing_kinetic_levels_do_not_warn():
    # p^2 overflows for |p| past 1.3e154; the suite turns warnings into errors
    params = ModelParams(4.0, 1.0)
    grid = make_grid(-1.0, 9.0, 41)
    pg = make_momentum_grid(-1e300, 1e300, 41)
    states = solve(assemble(params, grid), 3).states
    fused = nonreactive_probabilities(states, grid, pg, params)
    for st, prob in zip(states, fused):
        assert_paths_agree(prob, st, grid, pg, params)


def test_fused_probabilities_carry_hbar_and_mass():
    grid = make_grid(-1.0, 9.0, 149)
    pg = make_momentum_grid(-6.0, 6.0, 149)
    params = ModelParams(4.0, 1.5, hbar=0.7, mass=2.0)
    states = solve(assemble(params, grid), 3).states
    fused = nonreactive_probabilities(states, grid, pg, params)
    for st, prob in zip(states, fused):
        assert_paths_agree(prob, st, grid, pg, params)
    assert nonreactive_probabilities([], grid, pg, params) == []


def test_fused_probabilities_grid_mismatch_rejected(deep_spectrum, momentum_grid, deep_params):
    wrong = make_grid(-1.0, 9.0, 149)
    with pytest.raises(ValueError):
        nonreactive_probabilities(deep_spectrum.states, wrong, momentum_grid, deep_params)


def unblocked_probabilities(states, xg, pg, params):
    """The sheared sum of the module docstring over every a, l < stop in one
    piece, each sum over l taken term by term from l = 0 upward."""
    reach = _level_reach(xg, pg, params)
    stop = int(np.flatnonzero(reach)[-1]) + 1
    n = xg.n_points
    lmax = min((n - 1) // 2, stop - 1)
    prefix = _prefix_table(xg, pg, params.hbar)
    region = np.zeros((lmax + 1, stop + lmax))  # region[l, j] = G[l, j - l]
    for l in range(lmax + 1):
        region[l, :stop] = prefix[l, reach[:stop]]
    scale = xg.dx * pg.dp * xg.dx / (math.pi * params.hbar)
    probs = []
    for state in states:
        padded = np.zeros(n + 2 * lmax)
        padded[:n] = state.values
        inner = np.zeros(stop)
        for l in range(lmax + 1):
            inner += region[l, l : l + stop] * padded[2 * l : 2 * l + stop]
        probs.append(float(np.einsum("a,a->", state.values[:stop], inner)) * scale)
    return probs


# the width of the first block of left points against stop, the number of them
BLOCK_WIDTHS = {
    "one_block": lambda stop: stop + 1,
    "divides_stop": lambda stop: next(w for w in range(2, stop) if stop % w == 0),
    "one_more_than_a_multiple": lambda stop: next(w for w in range(3, stop) if stop % w == 1),
    "one_less_than_a_multiple": lambda stop: next(w for w in range(3, stop) if stop % w == w - 1),
    "one_point_per_block": lambda stop: 1,
}


@pytest.mark.parametrize("blocks", sorted(BLOCK_WIDTHS))
@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.5, 5.0])
def test_blocked_probabilities_equal_the_unblocked_sum_bitwise(monkeypatch, alpha, blocks):
    # stop = 104, 75, 51, 33 against L + 1 = 75: the offsets of a block are cut
    # by a + 2l < N at alpha = 1, by a + l < stop at alpha = 2.5 and 5
    grid = make_grid(-1.0, 9.0, 149)
    pg = make_momentum_grid(-6.0, 6.0, 149)
    params = ModelParams(4.0, alpha)
    states = solve(assemble(params, grid), 5).states
    stop = np.flatnonzero(_level_reach(grid, pg, params))[-1] + 1
    first_rows = min(stop, (grid.n_points - 1) // 2 + 1)  # the offsets of the first block
    monkeypatch.setattr(snwell.wigner, "_BLOCK_DOUBLES", first_rows * BLOCK_WIDTHS[blocks](stop))
    assert nonreactive_probabilities(states, grid, pg, params) == unblocked_probabilities(
        states, grid, pg, params
    )


def probability_problem(n, alpha=1.0):
    """Five solved states of the mu = 4 well on the standard N-point windows."""
    grid = make_grid(-1.0, 9.0, n)
    pg = make_momentum_grid(-6.0, 6.0, n)
    params = ModelParams(4.0, alpha)
    return solve(assemble(params, grid), 5).states, grid, pg, params


def on_a_fresh_thread(function, *args):
    """function(*args) on a new thread, which holds no block buffers yet."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(function, *args).result(timeout=60)


def test_probability_kernel_memory_stays_within_its_blocks():
    problem = probability_problem(1201)
    nonreactive_probabilities(*problem)  # builds the cached 2.9 MB table
    tracemalloc.start()
    try:
        # this thread's blocks are already held, so measure on a fresh one
        on_a_fresh_thread(nonreactive_probabilities, *problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # two blocks of 2^15 entries plus O(N) vectors, 0.82 MB measured; an
    # (L + 1) x stop array is 4 MB, and a third block buffer 0.26 MB more
    assert 2 * 8 * 2**15 <= peak <= 0.9e6


def test_reused_block_buffers_give_the_fresh_thread_bits(monkeypatch):
    # 256 entries: the N = 601 call needs L + 1 = 301, so it grows the buffers,
    # and the second N = 149 call reads into the larger ones it left behind
    monkeypatch.setattr(snwell.wigner, "_BLOCK_DOUBLES", 256)
    problems = [probability_problem(149), probability_problem(601), probability_problem(149)]

    def in_turn():
        results, sizes = [], []
        for problem in problems:
            results.append(nonreactive_probabilities(*problem))
            index, g_buffer = snwell.wigner._blocks.buffers
            sizes.append(g_buffer.size)
            # poison what the next call inherits: an entry it read unwritten would show
            index.fill(np.iinfo(np.intp).max)
            g_buffer.fill(np.nan)
        return results, sizes

    results, sizes = on_a_fresh_thread(in_turn)
    assert sizes[0] < sizes[1] == sizes[2]
    for problem, reused in zip(problems, results, strict=True):
        fresh = on_a_fresh_thread(nonreactive_probabilities, *problem)
        assert [p.hex() for p in reused] == [p.hex() for p in fresh]


def test_concurrent_probabilities_equal_serial_bitwise():
    # the 40 depth_curves points; np.take releases the interpreter lock, so
    # the threads' blocks are filled at once
    problems = [probability_problem(599, float(a)) for a in np.linspace(1.0, 5.0, 40)]
    serial = [nonreactive_probabilities(*problem) for problem in problems]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(5):
                threaded = pool.map(lambda problem: nonreactive_probabilities(*problem),
                                    problems, timeout=60)
                for a, b in zip(serial, threaded, strict=True):
                    assert [p.hex() for p in a] == [p.hex() for p in b]
    finally:
        sys.setswitchinterval(interval)


def test_levels_are_read_from_the_momentum_grid(tmp_path, monkeypatch):
    # make_momentum_grid runs the one np.unique of a grid; nothing after it runs another
    states, xg, pg, params = probability_problem(149, 2.0)
    cfg = dict(alpha_values=(2.0,), outputs=frozenset({"wigner", "probability"}),
               n_points=149, n_states=5)
    real_unique, calls = np.unique, []

    def counted_unique(*args, **kwargs):
        calls.append(args)
        return real_unique(*args, **kwargs)

    def results(out):
        _prefix_build.cache_clear()
        fields = [wigner_transform(s, xg, pg, params) for s in states]
        run_sweep(SweepConfig(output_dir=out, **cfg))
        return ([w.values.tobytes() for w in fields],
                [nonreactive_probability(w, params).hex() for w in fields],
                [p.hex() for p in nonreactive_probabilities(states, xg, pg, params)],
                {path.name: path.read_bytes() for path in sorted(out.iterdir())})

    expected = results(tmp_path / "unpatched")
    monkeypatch.setattr(np, "unique", counted_unique)
    assert results(tmp_path / "patched") == expected
    assert len(calls) == 1  # the grid run_sweep makes


def test_probabilities_without_a_region_cell_build_no_table():
    # mu = 0: V = (alpha / 3) x^3 > 0 on [1, 9], so no cell has H <= 0
    grid, pg = make_grid(1.0, 9.0, 149), make_momentum_grid(-6.0, 6.0, 149)
    params = ModelParams(0.0, 1.0)
    states = solve(assemble(params, grid), 3).states
    _prefix_build.cache_clear()
    assert nonreactive_probabilities(states, grid, pg, params) == [0.0, 0.0, 0.0]
    assert _prefix_build.cache_info().misses == 0
    # nor does the kernel given an empty region on a grid whose H <= 0 region
    # is not empty
    states, grid, pg, params = probability_problem(149)
    empty = np.zeros(grid.n_points, np.intp)
    assert _region_integrals([st.values for st in states], grid, pg, params.hbar,
                             empty) == [0.0] * 5
    assert _prefix_build.cache_info().misses == 0


# minor page faults per call of one thread's 20 calls after a warm-up
FAULT_PROBE = """
import resource
from snwell import (ModelParams, assemble, make_grid, make_momentum_grid,
                    nonreactive_probabilities, solve)
grid, pg = make_grid(-1.0, 9.0, 599), make_momentum_grid(-6.0, 6.0, 599)
params = ModelParams(4.0, 1.0)
states = solve(assemble(params, grid), 5).states
nonreactive_probabilities(states, grid, pg, params)
before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
for _ in range(20):
    nonreactive_probabilities(states, grid, pg, params)
print((resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(not hasattr(resource, "RUSAGE_THREAD"), reason="needs per-thread rusage")
def test_probability_kernel_takes_no_fresh_pages():
    # in a fresh process, before malloc raises its mmap and trim thresholds
    # (as a test session's large arrays do), a new pair of 256 KB blocks per
    # call took 112 or more minor faults
    env = dict(os.environ, PYTHONPATH=str(Path(snwell.wigner.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) <= 2.0


def fresh_prefix_table(xg, pg, hbar):
    """The prefix table of a new cache entry, built on this thread alone."""
    return _prefix_build.__wrapped__(xg, pg, hbar).table_when_built()


def reference_tables(xg, pg, hbar):
    """The cosine and prefix tables built whole: the columns of both are the
    distinct |p_k|, ascending, and the prefix table weights each by its
    number of cells.  Also those levels and the level of each momentum
    column."""
    eta = 2.0 * xg.dx * np.arange((xg.n_points - 1) // 2 + 1)
    cells = Counter(np.abs(pg.points).tolist())
    levels = np.array(sorted(cells))
    counts = np.array([cells[q] for q in levels])
    cos_table = np.cos(np.outer(eta, levels) / hbar)
    prefix = np.zeros((eta.size, levels.size + 1))
    prefix[:, 1:] = np.cumsum(counts * cos_table, axis=1)
    prefix[1:] *= 2.0
    rank = {q: i for i, q in enumerate(levels.tolist())}
    columns = np.array([rank[q] for q in np.abs(pg.points).tolist()])
    return cos_table, prefix, levels, columns


@pytest.mark.parametrize("hbar", [1.0, 0.7])
@pytest.mark.parametrize("window", sorted(MOMENTUM_WINDOWS))
@pytest.mark.parametrize("n", [149, 600, 1201])
def test_phase_kernel_prefix_is_the_cumsum_of_the_full_table(n, window, hbar):
    xg = make_grid(-1.0, 9.0, n)
    pg = MOMENTUM_WINDOWS[window](n)
    cos_table, prefix, levels, columns = reference_tables(xg, pg, hbar)
    assert cos_table.shape == ((n - 1) // 2 + 1, np.unique(np.abs(pg.points)).size)
    # the transform's cosines are the table's, read through each column's level
    psi = np.random.default_rng(n).normal(size=n)
    field = wigner_transform(EigenState(0, 0.0, psi), xg, pg, ModelParams(4.0, 1.0, hbar=hbar))
    prefactor = xg.dx / (math.pi * hbar)
    expected = (prefactor * (_correlation_matrix(psi) @ cos_table))[:, columns]
    assert field.values.tobytes() == expected.tobytes()
    # a fresh build, not the cached one
    assert fresh_prefix_table(xg, pg, hbar).tobytes() == prefix.tobytes()
    assert pg.levels.tobytes() == levels.tobytes()
    assert pg.columns.tolist() == columns.tolist()


@pytest.mark.parametrize("window", sorted(MOMENTUM_WINDOWS))
@pytest.mark.parametrize("n", [149, 600])
def test_prefix_table_has_a_column_per_level_plus_one(n, window):
    xg = make_grid(-1.0, 9.0, n)
    pg = MOMENTUM_WINDOWS[window](n)
    prefix = fresh_prefix_table(xg, pg, 1.0)
    if window == "asymmetric":
        columns = len(set(np.abs(pg.points).tolist())) + 1
        assert pg.n_points // 2 + 1 < columns <= pg.n_points + 1
    else:
        columns = (pg.n_points + 1) // 2 + 1
    assert prefix.shape == ((n - 1) // 2 + 1, columns)
    assert pg.levels.shape == (columns - 1,)


@pytest.mark.parametrize("rows", [1, 7, 75])
def test_prefix_table_does_not_depend_on_the_row_blocks(monkeypatch, rows):
    # L + 1 = 75 rows of 75 levels: one row per block, a ragged last block, one block
    xg, pg = make_grid(-1.0, 9.0, 149), make_momentum_grid(-6.0, 6.0, 149)
    monkeypatch.setattr(snwell.wigner, "_BLOCK_DOUBLES", rows * 75)
    prefix = fresh_prefix_table(xg, pg, 0.7)
    assert prefix.tobytes() == reference_tables(xg, pg, 0.7)[1].tobytes()


def test_prefix_table_builds_without_the_cosine_table():
    xg, pg = make_grid(-1.0, 9.0, 1201), make_momentum_grid(-6.0, 6.0, 1201)
    tracemalloc.start()
    try:
        prefix = fresh_prefix_table(xg, pg, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 256 KB block of cosines and O(N) vectors; a whole half table is 2.9 MB
    assert peak <= prefix.nbytes + 1e6
    # each block's cosines are computed in the table: no 0.26 MB scratch block
    # (0.40 MB above the table with one, 0.14 MB without, numpy's buffers)
    assert peak <= prefix.nbytes + 0.25e6


def test_phase_kernel_is_cached_and_read_only(monkeypatch, saddle_grid, momentum_grid):
    same_grids = (make_grid(-1.0, 9.0, 599), make_momentum_grid(-6.0, 6.0, 599))
    table = _prefix_table(saddle_grid, momentum_grid, 1.0)
    assert _prefix_table(*same_grids, 1.0) is table
    assert _prefix_table(saddle_grid, momentum_grid, 2.0) is not table
    with pytest.raises(ValueError):
        table[0, 0] = 0.0
    # a finished table is never rebuilt, whatever the callers
    built = recording_block_builds(monkeypatch)
    later = call_on_threads(lambda: _prefix_table(*same_grids, 1.0), 3)
    assert all(t is table for t in later)
    assert built == []


def recording_block_builds(monkeypatch, before=None):
    """Patch _PrefixBuild.build_rows to record (thread, first row) of each
    block it builds, after calling before(thread, first row) if given."""
    built, lock = [], threading.Lock()
    build_rows = _PrefixBuild.build_rows

    def recorded(build, l0):
        if before is not None:
            before(threading.get_ident(), l0)
        build_rows(build, l0)
        with lock:
            built.append((threading.get_ident(), l0))

    monkeypatch.setattr(_PrefixBuild, "build_rows", recorded)
    return built


def call_on_threads(function, callers):
    """function() on each of callers new threads, joined under a timeout:
    each thread's result or exception, and the threads."""
    outcomes = [None] * callers

    def run(i):
        try:
            outcomes[i] = function()
        except BaseException as exc:  # noqa: BLE001 -- the test inspects it
            outcomes[i] = exc

    # daemon threads, so that a caller left waiting cannot keep the session alive
    threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(callers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    return outcomes


def test_phase_kernel_built_once_by_concurrent_callers(monkeypatch):
    grid = make_grid(-1.0, 9.0, 301)
    pg = make_momentum_grid(-6.0, 6.0, 301)
    monkeypatch.setattr(snwell.wigner, "_BLOCK_DOUBLES", 10 * 151)  # 16 blocks of 10 rows
    built = recording_block_builds(monkeypatch)
    _prefix_build.cache_clear()
    start = threading.Barrier(6)
    tables = []

    def fetch():
        start.wait(timeout=10)
        tables.append(_prefix_table(grid, pg, 1.0))

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fetch) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert len(tables) == 6
    assert all(p is tables[0] for p in tables)
    assert _prefix_build.cache_info().misses == 1
    assert sorted(l0 for _, l0 in built) == list(range(0, 151, 10))


@pytest.mark.parametrize("callers", [2, 5], ids=["two_callers", "five_callers"])
def test_concurrent_callers_share_the_prefix_build(monkeypatch, callers):
    # L + 1 = 75 rows of 75 levels in 25 blocks of 3 rows; every caller's first
    # block waits at the barrier until each caller is building one
    xg, pg = make_grid(-1.0, 9.0, 149), make_momentum_grid(-6.0, 6.0, 149)
    monkeypatch.setattr(snwell.wigner, "_BLOCK_DOUBLES", 3 * 75)
    all_building, first_blocks = threading.Barrier(callers), set()

    def meet_once(thread, l0):
        if thread not in first_blocks:
            first_blocks.add(thread)
            all_building.wait(timeout=10)

    def fetch():
        table = _prefix_table(xg, pg, 0.7)
        return table, table.tobytes()  # the table as its caller first sees it

    built = recording_block_builds(monkeypatch, meet_once)
    _prefix_build.cache_clear()
    tables, snapshots = zip(*call_on_threads(fetch, callers), strict=True)
    assert all(table is tables[0] for table in tables)
    assert not tables[0].flags.writeable
    reference = reference_tables(xg, pg, 0.7)[1].tobytes()
    assert all(snapshot == reference for snapshot in snapshots)
    assert sorted(l0 for _, l0 in built) == list(range(0, 75, 3))  # each block once
    assert len({thread for thread, _ in built}) == callers
    assert _prefix_build.cache_info().misses == 1


@pytest.mark.parametrize("callers", [1, 4], ids=["alone", "among_four"])
def test_a_failed_prefix_block_is_built_by_a_later_caller(monkeypatch, callers):
    # the first block raises once, when every other caller has built the other
    # blocks; its lock is released, and a caller waiting on it builds it
    xg, pg = make_grid(-1.0, 9.0, 149), make_momentum_grid(-6.0, 6.0, 149)
    monkeypatch.setattr(snwell.wigner, "_BLOCK_DOUBLES", 3 * 75)
    others = 24 if callers > 1 else 0  # the blocks the other callers build
    failed, first = [], threading.Lock()

    def fail_once(thread, l0):
        with first:
            if failed:
                return
            failed.append(l0)
        deadline = time.monotonic() + 10
        while len(built) < others:
            assert time.monotonic() < deadline
            time.sleep(1e-3)
        raise MemoryError("injected")

    built = recording_block_builds(monkeypatch, fail_once)
    _prefix_build.cache_clear()
    outcomes = call_on_threads(lambda: _prefix_table(xg, pg, 1.0), callers)
    raised = [o for o in outcomes if isinstance(o, BaseException)]
    assert len(raised) == 1 and str(raised[0]) == "injected"
    [table] = call_on_threads(lambda: _prefix_table(xg, pg, 1.0), 1)  # the next call
    assert all(o is table for o in outcomes if o is not raised[0])
    assert not table.flags.writeable
    assert table.tobytes() == reference_tables(xg, pg, 1.0)[1].tobytes()
    assert sorted(l0 for _, l0 in built) == list(range(0, 75, 3))  # each block once
    assert failed[0] in [l0 for _, l0 in built]
    assert _prefix_build.cache_info().misses == 1


@pytest.mark.parametrize(
    ("outputs", "builds"),
    [("probability", 1), ("wigner,probability", 0)],
    ids=["probability", "wigner_probability"],
)
def test_sweep_builds_only_the_table_it_reads(tmp_path, outputs, builds):
    # a Wigner sweep takes its probabilities from the fields
    _prefix_build.cache_clear()
    run_sweep(SweepConfig(alpha_values=(1.0, 2.0), outputs=frozenset(outputs.split(",")),
                          output_dir=tmp_path, n_points=149, n_states=2))
    assert _prefix_build.cache_info().misses == builds


def test_readme_prefix_table_size_matches_the_build():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    stated = re.search(r"table of\s+cosine prefix sums.*?([\d.]+) MB at N = N_p = 1201", readme,
                       re.DOTALL)
    xg, pg = make_grid(-1.0, 9.0, 1201), make_momentum_grid(-6.0, 6.0, 1201)
    built = fresh_prefix_table(xg, pg, 1.0).nbytes / 1e6
    assert abs(float(stated.group(1)) - built) <= 0.1


def test_readme_contraction_shares_match_the_level_reach():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    stated = re.search(r"covers ([\d.]+) % of the\s+N \(L\+1\) table at alpha = 1, ([\d.]+) % at "
                       r"alpha = 5 and ([\d.]+) % over the 40-point\s+sweep", readme)
    n = 599
    xg, pg = make_grid(-1.0, 9.0, n), make_momentum_grid(-6.0, 6.0, n)
    a, l = np.arange(n)[:, None], np.arange((n - 1) // 2 + 1)[None, :]

    def share(alpha):
        """The terms (a, l) with a + l < stop and a + 2l < N, over N (L + 1)."""
        stop = np.flatnonzero(_level_reach(xg, pg, ModelParams(4.0, alpha)))[-1] + 1
        return np.count_nonzero((a + l < stop) & (a + 2 * l < n)) / (a.size * l.size)

    sweep = np.mean([share(alpha) for alpha in np.linspace(1.0, 5.0, 40)])
    computed = [round(100 * s) for s in (share(1.0), share(5.0), sweep)]
    assert [float(v) for v in stated.groups()] == computed


def test_fused_probability_of_a_state_does_not_depend_on_its_batch(
        deep_spectrum, saddle_grid, momentum_grid, deep_params):
    states = deep_spectrum.states
    together = nonreactive_probabilities(states, saddle_grid, momentum_grid, deep_params)
    alone = [nonreactive_probabilities([s], saddle_grid, momentum_grid, deep_params)[0]
             for s in states]
    reversed_ = nonreactive_probabilities(states[::-1], saddle_grid, momentum_grid, deep_params)
    assert [p.hex() for p in together] == [p.hex() for p in alone]
    assert [p.hex() for p in together] == [p.hex() for p in reversed_[::-1]]
