"""Discrete Wigner transform and the nonreactive phase-space probability.

For a real eigenfunction tabulated on the spatial grid the Wigner function
at (x_j, p_k) is the quadrature

    rho(x_j, p_k) = (1 / pi hbar) sum_l psi(x_j - l dx) psi(x_j + l dx)
                                      cos(2 l dx p_k / hbar) dx,

the offset step being 2 dx so both evaluation points fall exactly on grid
nodes; l runs over every integer (positive and negative) for which both
points stay inside [a, b], consistent with psi being identically zero
outside the Dirichlet window.  Real eigenfunctions kill the sine part
analytically, so no complex arrays are ever built, and the cosine depends on
p_k only through |p_k|.  Both paths below therefore take their cosines over
the distinct momentum levels q_i = |p_k|, which make_momentum_grid finds
once per grid (MomentumGrid.levels), and every column of the field is read
from its level's column, so rho(x, p) = rho(x, -p) holds exactly by
construction, on any momentum window.

rho is a quasiprobability: it integrates to 1 (up to momentum-window
truncation) and obeys |rho| <= 1/(pi hbar), but it may be negative and is
never clamped.  The probability of classically nonreactive behaviour is its
integral over the region H(x, p) <= 0.  Both probability paths read that
region from _level_reach: bitwise the cells where H <= 0 on every window,
V or p^2 / 2m overflowing included.

That integral is linear in the correlation matrix the field is built from.
Written over the left offset point a = j - l instead of the row j,

    P = dx dp (dx / pi hbar) sum_a psi(x_a) sum_l G[l, a] psi(x_a + 2 l dx),
    G[l, a] = c_l K[a + l, l],
    K[j, l] = sum over the region cells k of row j of cos(eta_l p_k / hbar),

so nonreactive_probabilities takes it without building the field.  K is a
sum over the levels q_i (ascending), each weighted by its number of cells
m_i (2 where p_k and -p_k are both on the grid, else 1).  Each row's
region is its first r_j levels, found by one bisection (see _level_reach).
So G[l, a] = T[l, r_(a+l)], one entry of a table T of prefix sums
over the levels.  Since p^2 / 2m >= 0, a row can hold a region cell only
where V(x_j) <= 0, i.e. up to x = 3 sqrt(mu) / alpha; past the last such
row, stop, K vanishes exactly, and with a, l >= 0 every term with
a + l >= stop does too; psi(x_a + 2 l dx) vanishes once a + 2l >= N.  So
only the terms with a + l < stop and a + 2l < N are formed: at mu = 4 on the
standard window that is 41 % of the N (L + 1) table at alpha = 1, 5 % at
alpha = 5 and 13 % over alpha in [1, 5].  G is gathered from T in blocks of
consecutive left points a, a block's arrays holding about _BLOCK_DOUBLES
(2^15) entries so that it stays in L2 cache, and every state is contracted
against each block in one einsum with stride-2 views of the stacked psi: no
BLAS call, no correlation matrix and no array larger than one block; each
thread keeps its two block buffers from call to call.  Each
sum over l runs from l = 0 upward whatever the block size, so the blocks do
not change a bit.  Probability-only sweeps never build a field; their values
agree with nonreactive_probability(wigner_transform(...)) to 1e-14 max(1, S),
S = sum |rho| dx dp over the region cells (the sums run in a different order).

Only nonreactive_probabilities reads a cached phase table: the level prefix
table T (see _PrefixBuild), (L + 1) x (number of levels + 1) doubles, so
(L + 1) x (ceil(n_p / 2) + 1) on a mirrored momentum grid, 2.9 MB at
N = n_p = 1201, built once per (x grid, p grid, hbar) and shared by
concurrent sweep points.  Its build is cooperative: the cache entry holds
the table and its unbuilt row blocks, every sweep point that finds the
table unfinished builds blocks that no other has claimed, and it waits
only for the blocks others are still building.  The cosines release the
interpreter lock, so two workers build them at once; the cumsum holds it.
wigner_transform computes its (L + 1) x (number of levels) cosines on each
call, 7 % of its time at N = 599 and 17 % at N = 2401, so a Wigner sweep,
which takes its probabilities from the fields, holds no table.
"""

from __future__ import annotations

import functools
import math
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .classical import ModelParams, potential
from .discretize import SpatialGrid, uniform_points
from .eigensolve import EigenState
from .errors import ConfigurationError

__all__ = [
    "MomentumGrid",
    "WignerField",
    "make_momentum_grid",
    "wigner_transform",
    "marginal_x",
    "nonreactive_probability",
    "nonreactive_probabilities",
]


@dataclass(frozen=True)
class MomentumGrid:
    """points and their |p| levels, read-only: levels, the distinct |p_k|
    ascending; columns, the index in levels of each |p_k|; counts, the points
    at each level (1, or 2 where p_k and -p_k are both on the grid)."""

    c: float
    d: float
    n_points: int
    dp: float
    points: np.ndarray = field(repr=False, compare=False)
    levels: np.ndarray = field(repr=False, compare=False)
    columns: np.ndarray = field(repr=False, compare=False)
    counts: np.ndarray = field(repr=False, compare=False)


def make_momentum_grid(c: float, d: float, n: int) -> MomentumGrid:
    """Uniform momentum grid on [c, d] with n points (endpoints included)."""
    if not (d > c and math.isfinite(d - c)):  # d - c is finite only for finite ends
        raise ConfigurationError(f"momentum grid needs finite c < d, got [{c!r}, {d!r}]")
    if n < 2:
        raise ConfigurationError(f"momentum grid needs at least 2 points, got {n}")
    dp = (d - c) / (n - 1)
    points = uniform_points(c, d, n)
    levels, columns, counts = np.unique(np.abs(points), return_inverse=True, return_counts=True)
    for array in (levels, columns, counts):
        array.flags.writeable = False
    return MomentumGrid(c=c, d=d, n_points=n, dp=dp, points=points,
                        levels=levels, columns=columns, counts=counts)


@dataclass(frozen=True)
class WignerField:
    """rho tabulated on the product grid, rows = x, columns = p.

    Carries the state and parameters it came from so emitted files are
    self-describing and the classical overlay contour at e = energy can be
    regenerated.
    """

    values: np.ndarray = field(repr=False, compare=False)
    state_index: int
    energy: float
    params: ModelParams
    spatial_grid: SpatialGrid
    momentum_grid: MomentumGrid


# guards the prefix-table cache and every entry's block bookkeeping; callers
# wait on it for the blocks that others are building
_kernel_lock = threading.Condition()
# each thread's nonreactive_probabilities block buffers, freed when it exits
_blocks = threading.local()

# entries in each block of the prefix table's build and of
# nonreactive_probabilities' work arrays: 256 KB of doubles, so that a block
# stays in L2 cache
_BLOCK_DOUBLES = 1 << 15


def _cos_rows(eta: np.ndarray, levels: np.ndarray, hbar: float) -> np.ndarray:
    """cos(eta_l q_i / hbar) for the given rows l and momentum levels q_i >= 0."""
    table = np.outer(eta, levels)
    table /= hbar
    return np.cos(table, out=table)


def _prefix_table(xg: SpatialGrid, pg: MomentumGrid, hbar: float) -> np.ndarray:
    """The cached prefix table (see _PrefixBuild), complete and read-only.

    Sweep points that start together share its build: each caller that
    finds the table unfinished builds row blocks nobody has claimed, and
    waits only when none is left, so every caller returns the same array.
    """
    with _kernel_lock:
        build = _prefix_build(xg, pg, hbar)
    return build.table_when_built()


class _PrefixBuild:
    """The prefix table and its row blocks not yet built.

    table[l, r] = c_l times the sum over the levels i < r of
    m_i cos(eta_l q_i / hbar), q = pg.levels and m = pg.counts,
    (L + 1) x (len(q) + 1), with the correlation weights c_0 = 1, c_l = 2
    folded in (exact, as is m_i); read-only once built, so concurrent sweep
    points can share it.

    Built in blocks of rows of about _BLOCK_DOUBLES entries, in any order
    and by any callers (see _prefix_table), each block in place in the
    table with no scratch array: eta_l q_i / hbar, its cosine, times 2 m_i,
    summed along the row, and row 0 halved (both factors of 2 exact).  Each
    entry and each row's sum is computed the same way whatever the block
    size or the caller that builds it, so the table does not depend on
    them.  A block whose build raises is returned for a later caller to
    build.
    """

    def __init__(self, xg: SpatialGrid, pg: MomentumGrid, hbar: float) -> None:
        lmax = (xg.n_points - 1) // 2
        self.eta = 2.0 * xg.dx * np.arange(lmax + 1)
        # column 0 as a level 0.0 of weight 0.0: its entries are cos(0) * 0.0 =
        # +0.0, and the row sums' 0.0 + x is x (a cosine is never 0, so no x
        # is -0.0); so each block is whole rows, one contiguous array
        self.levels = np.concatenate(([0.0], pg.levels))
        self.weights = np.concatenate(([0.0], 2.0 * pg.counts))
        self.hbar = hbar
        self.rows = max(1, _BLOCK_DOUBLES // pg.levels.size)
        self.table = np.empty((lmax + 1, self.levels.size))
        self.unclaimed = list(range(0, lmax + 1, self.rows))  # first rows of free blocks
        self.unbuilt = len(self.unclaimed)  # blocks unclaimed or being built

    def build_rows(self, l0: int) -> None:
        """Build the block of rows from l0 in place."""
        block = self.table[l0 : l0 + self.rows]
        np.outer(self.eta[l0 : l0 + self.rows], self.levels, out=block)
        block /= self.hbar
        np.cos(block, out=block)
        block *= self.weights
        np.cumsum(block, axis=1, out=block)
        if l0 == 0:
            block[0] *= 0.5

    def table_when_built(self) -> np.ndarray:
        """Build unclaimed blocks until none is left, then wait for the rest."""
        while True:
            with _kernel_lock:
                while self.unbuilt and not self.unclaimed:
                    _kernel_lock.wait()
                if not self.unbuilt:
                    return self.table
                l0 = self.unclaimed.pop()
            try:
                self.build_rows(l0)
            except BaseException:
                with _kernel_lock:
                    self.unclaimed.append(l0)
                    _kernel_lock.notify_all()
                raise
            with _kernel_lock:
                self.unbuilt -= 1
                if not self.unbuilt:
                    self.table.flags.writeable = False
                    _kernel_lock.notify_all()


# the one cache: an entry per (x grid, p grid, hbar), made under _kernel_lock
_prefix_build = functools.lru_cache(maxsize=4)(_PrefixBuild)


def _correlation_matrix(psi: np.ndarray) -> np.ndarray:
    """corr[j, l] = c_l psi(x_j - l dx) psi(x_j + l dx), c_0 = 1, c_l = 2.

    The l = 0 term enters once and each |l| >= 1 pair twice (cosine is even).
    Both factors are read from sliding windows over psi padded with L zeros
    on each side; products whose offset leaves the window are skipped, so
    those entries stay +0.0 (a product with a pad zero could be -0.0).
    """
    n = psi.size
    lmax = (n - 1) // 2
    padded = np.zeros(n + 2 * lmax)
    padded[lmax : lmax + n] = psi
    windows = sliding_window_view(padded, lmax + 1)  # windows[i, m] = padded[i + m]
    rows = np.arange(n)
    inside = np.arange(lmax + 1) <= np.minimum(rows, n - 1 - rows)[:, None]
    corr = np.zeros((n, lmax + 1))
    np.multiply(windows[:n, ::-1], windows[lmax:], out=corr, where=inside)
    corr[:, 1:] *= 2.0
    return corr


def _check_state(state: EigenState, xg: SpatialGrid) -> None:
    if state.values.size != xg.n_points:
        raise ValueError(
            f"state has {state.values.size} values but the spatial grid has {xg.n_points} points"
        )


def wigner_transform(
    state: EigenState,
    xg: SpatialGrid,
    pg: MomentumGrid,
    params: ModelParams,
) -> WignerField:
    """Wigner quasiprobability of one eigenstate on the product grid.

    One correlation-matrix product with the cosines of the |p| levels,
    computed on each call, gives a column per level: O(N^2 L) flops, rows
    independent, deterministic output regardless of BLAS threading.  Each
    momentum column then reads its level's column.  Every |p_k| is a level,
    so this is exact, and the columns at p and -p are one evaluation, so
    rho(x, p) = rho(x, -p) holds bitwise by construction.
    """
    _check_state(state, xg)
    eta = 2.0 * xg.dx * np.arange((xg.n_points - 1) // 2 + 1)
    prefactor = xg.dx / (math.pi * params.hbar)
    by_level = prefactor * (
        _correlation_matrix(state.values) @ _cos_rows(eta, pg.levels, params.hbar))
    values = by_level[:, pg.columns]
    return WignerField(
        values=values,
        state_index=state.index,
        energy=state.energy,
        params=params,
        spatial_grid=xg,
        momentum_grid=pg,
    )


def marginal_x(w: WignerField) -> np.ndarray:
    """Momentum-integrated field, sum_k rho(x_j, p_k) dp; approximates psi^2."""
    return np.sum(w.values, axis=1) * w.momentum_grid.dp


def nonreactive_probability(w: WignerField, params: ModelParams) -> float:
    """Integral of rho over the classically nonreactive region H(x, p) <= 0.

    Cells are included by the sign of H at their sample point (x_j, p_k), as
    read from _level_reach; no sub-cell refinement at the separatrix.  Being
    a quasiprobability integral on a finite window, the result can fall
    slightly outside [0, 1] and is reported as computed.
    """
    reach = _level_reach(w.spatial_grid, w.momentum_grid, params)
    inside = np.where(w.momentum_grid.columns < reach[:, None], w.values, 0.0)
    return float(np.sum(inside)) * w.spatial_grid.dx * w.momentum_grid.dp


def _level_reach(xg: SpatialGrid, pg: MomentumGrid, params: ModelParams) -> np.ndarray:
    """reach[j]: the number of the ascending momentum levels pg.levels in
    row j's region H(x_j, p_k) <= 0: the region is exactly the cells whose
    |p_k| is one of the first reach[j] levels.

    H(x_j, p_k) is the rounded sum f_k + V_j, f_k = p_k**2 / 2m; a rounded
    sum is <= 0 exactly when the exact one is, so the cell test is
    f_k <= -V_j with no rounding of its own.  |p|**2 is p**2 bitwise and
    q**2 / 2m does not fall along the ascending levels, so one bisection
    finds the row's levels.  An overflowed H (NaN or +inf) is never <= 0: the
    bisection runs over the finite f only, and fmax reads a NaN -V_j as -1.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        kinetic = pg.levels**2 / (2.0 * params.mass)
        bound = np.fmax(-potential(params, xg.points), -1.0)
    return np.searchsorted(kinetic[np.isfinite(kinetic)], bound, side="right")


def nonreactive_probabilities(
    states: Sequence[EigenState], xg: SpatialGrid, pg: MomentumGrid, params: ModelParams
) -> list[float]:
    """nonreactive_probability of each state's field, without building the fields.

    The same H(x_j, p_k) <= 0 cells, each row's momentum levels taken exactly
    in O(N log N) (see _level_reach).  Rows from stop (one past the last row
    with a region cell) on contribute exact zeros, so the sheared region sums
    G of the module docstring are formed only for left points a < stop, in
    blocks of consecutive a of about _BLOCK_DOUBLES entries, each block with
    only the offsets l whose terms can be nonzero (a + l < stop and
    a + 2l < N).  A block's G is one gather from the prefix table, and every
    state is contracted against it in one einsum over the stacked,
    zero-padded psi, then takes one length-stop dot: no BLAS call and no
    correlation matrix.  Each sum over l runs in ascending order from l = 0
    and the terms left out are exact zeros, so the result does not depend on
    the block size.  The table is cached, and the block buffers are this
    thread's, reused from call to call.  With no region cell at all every
    probability is 0.0, and no table is built.
    Agrees with nonreactive_probability(wigner_transform(...)) to 1e-14
    max(1, S), S = sum |rho| dx dp over the region cells, not bitwise (the
    sums run in a different order, so the difference scales with the terms).
    """
    if not states:
        return []
    for state in states:
        _check_state(state, xg)
    reach = _level_reach(xg, pg, params)
    allowed = np.flatnonzero(reach)
    if allowed.size == 0:
        return [0.0] * len(states)
    prefix = _prefix_table(xg, pg, params.hbar)
    stop = int(allowed[-1]) + 1
    n = xg.n_points
    lmax = min((n - 1) // 2, stop - 1)
    # the prefix column of row j's region sums; the rows from stop on read
    # column 0, so their region sums are exact zeros
    column = np.concatenate((reach[:stop], np.zeros(lmax, reach.dtype)))
    hankel = sliding_window_view(column, stop)  # hankel[l, a] = column[a + l]
    row_starts = (np.arange(lmax + 1) * prefix.shape[1])[:, None]
    # padded[s, m] = psi_s(x_m), zero beyond the window
    padded = np.zeros((len(states), n + 2 * lmax))
    padded[:, :n] = [state.values for state in states]
    # far[s, l, a] = psi_s(x_a + 2 l dx)
    far = sliding_window_view(padded, stop, axis=1)[:, ::2]
    inner = np.empty((len(states), stop))
    # this thread's block buffers, kept from its earlier calls so that a call
    # writes into pages it already holds; each block overwrites what it reads
    size = max(_BLOCK_DOUBLES, lmax + 1)
    buffers = getattr(_blocks, "buffers", None)
    if buffers is None or buffers[1].size < size:
        buffers = _blocks.buffers = (np.empty(size, dtype=np.intp), np.empty(size))
    index, g_buffer = buffers
    a0 = 0
    while a0 < stop:
        rows = min(stop - a0, (n - 1 - a0) // 2 + 1)
        width = min(max(1, _BLOCK_DOUBLES // rows), stop - a0)
        # g[l, a] = G[l, a0 + a] = prefix[l, column[j]], j = a0 + a + l < stop + lmax;
        # the indices are in range by construction, and mode="clip" lets
        # take write straight into its output buffer
        i = index[: rows * width].reshape(rows, width)
        g = g_buffer[: rows * width].reshape(rows, width)
        np.add(row_starts[:rows], hankel[:rows, a0 : a0 + width], out=i)
        np.take(prefix, i, out=g, mode="clip")
        np.einsum("la,sla->sa", g, far[:, :rows, a0 : a0 + width],
                  out=inner[:, a0 : a0 + width])
        a0 += width
    scale = xg.dx * pg.dp * xg.dx / (math.pi * params.hbar)
    # one dot per state: numpy sums one einsum over all states in another
    # order once stop passes 8192, which would change the last bits
    return [float(np.einsum("a,a->", state.values[:stop], inner[s])) * scale
            for s, state in enumerate(states)]
