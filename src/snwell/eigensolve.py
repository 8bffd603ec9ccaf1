"""Lowest eigenpairs of the tridiagonal Hamiltonian, with fixed conventions.

The heavy lifting is LAPACK bisection + inverse iteration on the symmetric
tridiagonal matrix (dstebz then dstein, driven by _lapack and taken from the
OpenBLAS that numpy already loads, or from scipy's LAPACK where numpy's
build does not export them), which is deterministic bit-for-bit for
identical inputs and needs O(N k) memory.  The bisection stops at a loose
tolerance, 2^-28 of the matrix scale, where the k + 1 lowest eigenvalues
are well separated, and otherwise runs to full precision (see _lapack).
Either way each energy is the Rayleigh quotient z^T H z / z^T z of its
own vector z: its error is quadratic in the vector's, and it minimizes the
residual (Parlett, The Symmetric Eigenvalue Problem, 1998).  H is applied
once to the solver's rows, and the energies and residuals share that product.
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
* every returned pair satisfies the residual bound max|H z - E z| /
  sqrt(sum(z^2) dx) <= 1e-8 * scale(H), which is max|H psi - E psi| up to
  rounding, else NumericalError (a NaN fails it), and carries that residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _lapack
from .classical import ModelParams
from .discretize import DiscreteHamiltonian, SpatialGrid
from .errors import ConfigurationError, NumericalError

__all__ = ["EigenState", "Spectrum", "solve"]

RESIDUAL_RTOL = 1e-8
CLUSTER_RTOL = 1e-9


@dataclass(frozen=True)
class EigenState:
    """One eigenpair (E_n, psi_n) tabulated on the full grid.

    boundary_amplitude is max(|psi|) over the first and last interior points;
    values that are not small signal a state leaning on the Dirichlet window
    (plane-wave-like behaviour at the box edge) rather than a converged bound
    state.  residual is max|H z - E z| / sqrt(sum(z^2) dx) for the solver's
    interior vector z (max|H psi - E psi| up to rounding), as solve checked it.
    """

    index: int
    energy: float
    values: np.ndarray = field(repr=False, compare=False)
    boundary_amplitude: float = 0.0
    residual: float = 0.0


@dataclass(frozen=True)
class Spectrum:
    states: list[EigenState]
    params: ModelParams
    grid: SpatialGrid

    @property
    def energies(self) -> np.ndarray:
        return np.array([s.energy for s in self.states])


def solve(h: DiscreteHamiltonian, k: int) -> Spectrum:
    """Lowest k eigenpairs of the discrete Hamiltonian.

    Raises ConfigurationError when k is out of 1..N-2 or neither LAPACK
    source is there, and NumericalError (carrying the offending state index
    where known, the lowest where several fail) when convergence, the
    cluster check or the residual bound fails.  Every step takes all k rows
    in one array operation, each row's numbers computed as for the row
    alone; the states' values are the rows of one k x N array.
    """
    m = h.diagonal.size
    if not 1 <= k <= m:
        raise ConfigurationError(f"k must be in 1..{m}, got {k}")
    rows = _lapack.lowest_eigenvectors(h.diagonal, h.off_diagonal, k)
    products = h.apply(rows)
    squares = np.sum(rows * rows, axis=1)
    w = np.sum(rows * products, axis=1) / squares

    close = np.flatnonzero(np.diff(w) < CLUSTER_RTOL * np.maximum(np.abs(w[1:]), 1.0))
    if close.size:
        i = int(close[0])
        raise NumericalError(
            f"eigenvalues {w[i]} and {w[i + 1]} are closer than the cluster tolerance",
            state_index=i,
        )

    scale = np.max(np.abs(h.diagonal)) + 2.0 * np.max(np.abs(h.off_diagonal), initial=0.0)
    norms = np.sqrt(squares * h.grid.dx)
    residuals = np.max(np.abs(products - w[:, None] * rows), axis=1) / norms
    failed = np.flatnonzero(~(residuals <= RESIDUAL_RTOL * scale))  # a NaN fails too
    if failed.size:
        i = int(failed[0])
        raise NumericalError(
            f"residual {residuals[i]} exceeds {RESIDUAL_RTOL * scale} for state {i}",
            state_index=i,
        )
    values = np.zeros((k, h.grid.n_points))
    values[:, 1:-1] = rows / norms[:, None]
    # flip each row whose first entry of largest magnitude is negative; the
    # flip takes in the endpoint zeros, which become -0.0
    peak = values[np.arange(k), np.argmax(np.abs(values), axis=1)]
    np.negative(values, out=values, where=(peak < 0)[:, None])
    amplitudes = np.maximum(np.abs(values[:, 1]), np.abs(values[:, -2]))
    per_state = zip(w.tolist(), amplitudes.tolist(), residuals.tolist())
    states = [
        EigenState(index=i, energy=energy, values=values[i], boundary_amplitude=amplitude,
                   residual=residual)
        for i, (energy, amplitude, residual) in enumerate(per_state)
    ]
    return Spectrum(states=states, params=h.params, grid=h.grid)

