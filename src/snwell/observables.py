"""Position expectation values and uncertainties of solved eigenstates.

Quadrature is the plain Riemann sum sum(psi^2 x^k) dx, matching the
eigensolver's normalization identity exactly; a higher-order rule would
break sum(psi^2) dx == 1.  Boundary points carry psi = 0 and contribute
nothing, so sums run over the full grid.  position_records is the one
public path, for one state or many: every sum is one expression over the
rows psi^2 of the states (_moments), so each state's entries are bit for
bit those of position_records([state], grid).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .discretize import SpatialGrid
from .eigensolve import EigenState
from .errors import NumericalError

__all__ = ["position_records"]

NORMALIZATION_ATOL = 1e-6
VARIANCE_FLOOR = -1e-12


def _densities(states: Sequence[EigenState], grid: SpatialGrid) -> np.ndarray:
    """psi^2 of each state, one row each; ValueError unless every row has
    sum(psi^2) dx = 1 to NORMALIZATION_ATOL."""
    density = np.array([state.values for state in states])
    density *= density
    norms = np.sum(density, axis=1) * grid.dx
    off = np.flatnonzero(~(np.abs(norms - 1.0) <= NORMALIZATION_ATOL))  # a NaN fails too
    if off.size:
        raise ValueError(f"state is not normalized on this grid (sum psi^2 dx = {norms[off[0]]})")
    return density


def _moments(density: np.ndarray, grid: SpatialGrid, power: int) -> np.ndarray:
    """sum(psi^2 x^power) dx of each row of density."""
    return np.sum(density * grid.points**power, axis=1) * grid.dx


def position_records(states: Sequence[EigenState],
                     grid: SpatialGrid) -> tuple[np.ndarray, np.ndarray]:
    """<x> and the spread sqrt(<x^2> - <x>^2) of each state, as two float64
    arrays in the order of the states; tiny negative variances clamp to 0.

    Each entry is bit for bit that of the state alone.  A state off the
    normalization raises ValueError, and one whose variance falls below
    VARIANCE_FLOOR raises NumericalError with its index; all states are
    checked for the first before any for the second.
    """
    if not states:
        return np.empty(0), np.empty(0)
    density = _densities(states, grid)
    mean = _moments(density, grid, 1)
    variance = _moments(density, grid, 2) - mean * mean
    negative = np.flatnonzero(variance < VARIANCE_FLOOR)
    if negative.size:
        i = int(negative[0])
        raise NumericalError(
            f"variance {variance[i]} is negative beyond rounding", state_index=states[i].index
        )
    # max(variance, 0.0) as Python takes it: np.maximum would make a -0.0 variance +0.0
    return mean, np.sqrt(np.where(variance < 0.0, 0.0, variance))
