"""Position moments and uncertainties of solved eigenstates.

Quadrature is the plain Riemann sum sum(psi^2 x^k) dx, matching the
eigensolver's normalization identity exactly; a higher-order rule would
break sum(psi^2) dx == 1.  Boundary points carry psi = 0 and contribute
nothing, so sums run over the full grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretize import SpatialGrid
from .eigensolve import EigenState
from .errors import NumericalError

__all__ = ["ObservableRecord", "moment", "uncertainty", "position_record"]

NORMALIZATION_ATOL = 1e-6
VARIANCE_FLOOR = -1e-12


@dataclass(frozen=True)
class ObservableRecord:
    state_index: int
    mean_x: float
    sigma_x: float


def _density(state: EigenState, grid: SpatialGrid) -> tuple[np.ndarray, float]:
    """psi^2 and its norm sum(psi^2) dx, which must be 1 to NORMALIZATION_ATOL."""
    density = state.values * state.values
    norm = float(np.sum(density)) * grid.dx
    if abs(norm - 1.0) > NORMALIZATION_ATOL:
        raise ValueError(f"state is not normalized on this grid (sum psi^2 dx = {norm})")
    return density, norm


def moment(state: EigenState, grid: SpatialGrid, power: int) -> float:
    """<x^power> = sum(psi^2 x^power) dx for a grid-normalized real state."""
    if power < 0:
        raise ValueError(f"power must be >= 0, got {power}")
    density, norm = _density(state, grid)
    if power == 0:
        return norm
    return float(np.sum(density * grid.points**power)) * grid.dx


def position_record(state: EigenState, grid: SpatialGrid) -> ObservableRecord:
    """<x> and the spread sqrt(<x^2> - <x>^2); tiny negative variances clamp to 0.

    One density and one normalization check serve both moments; the sums are
    those of moment(state, grid, 1) and moment(state, grid, 2), bit for bit.
    """
    density, _ = _density(state, grid)
    m1 = float(np.sum(density * grid.points)) * grid.dx
    m2 = float(np.sum(density * grid.points**2)) * grid.dx
    variance = m2 - m1 * m1
    if variance < VARIANCE_FLOOR:
        raise NumericalError(
            f"variance {variance} is negative beyond rounding", state_index=state.index
        )
    return ObservableRecord(
        state_index=state.index, mean_x=m1, sigma_x=float(np.sqrt(max(variance, 0.0)))
    )


def uncertainty(state: EigenState, grid: SpatialGrid) -> float:
    """Position spread sqrt(<x^2> - <x>^2); tiny negative variances clamp to 0."""
    return position_record(state, grid).sigma_x
