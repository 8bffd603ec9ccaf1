"""Position moments and uncertainties of solved eigenstates.

Quadrature is the plain Riemann sum sum(psi^2 x^k) dx, matching the
eigensolver's normalization identity exactly; a higher-order rule would
break sum(psi^2) dx == 1.  Boundary points carry psi = 0 and contribute
nothing, so sums run over the full grid.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .discretize import SpatialGrid
from .eigensolve import EigenState
from .errors import NumericalError

__all__ = ["ObservableRecord", "moment", "uncertainty", "position_record", "position_records"]

NORMALIZATION_ATOL = 1e-6
VARIANCE_FLOOR = -1e-12


@dataclass(frozen=True)
class ObservableRecord:
    state_index: int
    mean_x: float
    sigma_x: float


def _densities(states: Sequence[EigenState], grid: SpatialGrid) -> tuple[np.ndarray, np.ndarray]:
    """psi^2 of each state, one row each, and the norms sum(psi^2) dx, which
    must be 1 to NORMALIZATION_ATOL (the first state off it is reported)."""
    density = np.array([state.values for state in states])
    density *= density
    norms = np.sum(density, axis=1) * grid.dx
    off = np.flatnonzero(np.abs(norms - 1.0) > NORMALIZATION_ATOL)
    if off.size:
        raise ValueError(
            f"state is not normalized on this grid (sum psi^2 dx = {norms[off[0]]})"
        )
    return density, norms


def moment(state: EigenState, grid: SpatialGrid, power: int) -> float:
    """<x^power> = sum(psi^2 x^power) dx for a grid-normalized real state."""
    if power < 0:
        raise ValueError(f"power must be >= 0, got {power}")
    density, norms = _densities([state], grid)
    if power == 0:
        return float(norms[0])
    return float(np.sum(density[0] * grid.points**power)) * grid.dx


def position_records(states: Sequence[EigenState], grid: SpatialGrid) -> list[ObservableRecord]:
    """<x> and the spread sqrt(<x^2> - <x>^2) of each state, in one array pass
    over all of them; tiny negative variances clamp to 0.

    The sums are those of moment(state, grid, 1) and moment(state, grid, 2),
    bit for bit.  A state off the normalization raises ValueError, and one
    whose variance falls below VARIANCE_FLOOR raises NumericalError with its
    index; all states are checked for the first before any for the second.
    """
    if not states:
        return []
    density, _ = _densities(states, grid)
    m1 = np.sum(density * grid.points, axis=1) * grid.dx
    m2 = np.sum(density * grid.points**2, axis=1) * grid.dx
    variance = m2 - m1 * m1
    negative = np.flatnonzero(variance < VARIANCE_FLOOR)
    if negative.size:
        i = int(negative[0])
        raise NumericalError(
            f"variance {variance[i]} is negative beyond rounding", state_index=states[i].index
        )
    # max(variance, 0.0) as Python takes it: np.maximum would make a -0.0 variance +0.0
    sigma = np.sqrt(np.where(variance < 0.0, 0.0, variance))
    return [
        ObservableRecord(state_index=state.index, mean_x=mean, sigma_x=spread)
        for state, mean, spread in zip(states, m1.tolist(), sigma.tolist())
    ]


def position_record(state: EigenState, grid: SpatialGrid) -> ObservableRecord:
    """position_records of one state."""
    return position_records([state], grid)[0]


def uncertainty(state: EigenState, grid: SpatialGrid) -> float:
    """Position spread sqrt(<x^2> - <x>^2); tiny negative variances clamp to 0."""
    return position_record(state, grid).sigma_x
