"""Lowest eigenpairs of the tridiagonal Hamiltonian, with fixed conventions.

The heavy lifting is LAPACK bisection + inverse iteration on the symmetric
tridiagonal matrix (dstebz then dstein, called in _lapack through the
OpenBLAS that numpy already loads, or through scipy's eigh_tridiagonal where
numpy's build does not export them), which is deterministic bit-for-bit for
identical inputs and needs O(N k) memory.
On top of that this module enforces the conventions every downstream
consumer relies on:

* eigenvectors are tabulated on the full grid with the Dirichlet zeros at
  both endpoints and normalized so that sum(psi^2) dx = 1,
* the entry of largest magnitude is positive (ties broken leftmost), so
  re-runs and golden files agree,
* eigenvalues come back ascending and separated: the matrix has simple
  eigenvalues (every off-diagonal is nonzero), and two returned eigenvalues
  closer than 1e-9 max(|E|, 1), where no vector would be well defined, raise
  NumericalError instead of being returned,
* every returned pair satisfies the residual bound
  max|H psi - E psi| <= 1e-8 * scale(H), else NumericalError (a NaN fails it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _lapack
from .classical import ModelParams
from .discretize import DiscreteHamiltonian, SpatialGrid
from .errors import ConfigurationError, NumericalError

__all__ = ["EigenState", "Spectrum", "solve", "eigenvalue_residual"]

RESIDUAL_RTOL = 1e-8
CLUSTER_RTOL = 1e-9


@dataclass(frozen=True)
class EigenState:
    """One eigenpair (E_n, psi_n) tabulated on the full grid.

    boundary_amplitude is max(|psi|) over the first and last interior points;
    values that are not small signal a state leaning on the Dirichlet window
    (plane-wave-like behaviour at the box edge) rather than a converged bound
    state.
    """

    index: int
    energy: float
    values: np.ndarray = field(repr=False, compare=False)
    boundary_amplitude: float = 0.0


@dataclass(frozen=True)
class Spectrum:
    states: list[EigenState]
    params: ModelParams
    grid: SpatialGrid

    @property
    def energies(self) -> np.ndarray:
        return np.array([s.energy for s in self.states])


def _max_residual(h: DiscreteHamiltonian, interior: np.ndarray, energy: float) -> float:
    """max|H psi - E psi| over the interior points."""
    return float(np.max(np.abs(h.apply(interior) - energy * interior)))


def solve(h: DiscreteHamiltonian, k: int) -> Spectrum:
    """Lowest k eigenpairs of the discrete Hamiltonian.

    Raises ConfigurationError when k is out of 1..N-2 and NumericalError
    (carrying the offending state index where known) when convergence, the
    cluster check or the residual bound fails.
    """
    m = h.diagonal.size
    if not 1 <= k <= m:
        raise ConfigurationError(f"k must be in 1..{m}, got {k}")
    w, v = _lapack.lowest_eigenpairs(h.diagonal, h.off_diagonal, k)

    close = np.flatnonzero(np.diff(w) < CLUSTER_RTOL * np.maximum(np.abs(w[1:]), 1.0))
    if close.size:
        i = int(close[0])
        raise NumericalError(
            f"eigenvalues {w[i]} and {w[i + 1]} are closer than the cluster tolerance",
            state_index=i,
        )

    off_bound = 2.0 * float(np.max(np.abs(h.off_diagonal)))
    scale = float(np.max(np.abs(h.diagonal))) + off_bound
    dx = h.grid.dx
    n = h.grid.n_points
    states = []
    for i in range(k):
        interior = v[:, i] / math.sqrt(float(np.sum(v[:, i] ** 2)) * dx)
        residual = _max_residual(h, interior, w[i])
        if not residual <= RESIDUAL_RTOL * scale:
            raise NumericalError(
                f"residual {residual} exceeds {RESIDUAL_RTOL * scale} for state {i}",
                state_index=i,
            )
        psi = np.zeros(n)
        psi[1:-1] = interior
        if psi[int(np.argmax(np.abs(psi)))] < 0:
            psi = -psi
        states.append(
            EigenState(
                index=i,
                energy=float(w[i]),
                values=psi,
                boundary_amplitude=float(max(abs(psi[1]), abs(psi[-2]))),
            )
        )
    return Spectrum(states=states, params=h.params, grid=h.grid)


def eigenvalue_residual(h: DiscreteHamiltonian, s: EigenState) -> float:
    """max|H psi - E psi| over the interior points of a solved state."""
    if s.values.size != h.grid.n_points:
        raise ValueError(
            f"state has {s.values.size} values but the grid has {h.grid.n_points} points"
        )
    quad = float(np.sum(s.values**2)) * h.grid.dx
    if abs(quad - 1.0) > 1e-6:
        raise ValueError(f"state is not grid-normalized (sum psi^2 dx = {quad})")
    return _max_residual(h, s.values[1:-1], s.energy)
