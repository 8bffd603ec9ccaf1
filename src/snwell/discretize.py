"""Uniform spatial grid and the finite-difference Hamiltonian matrix.

The position coordinate is restricted to [a, b] and sampled at N equally
spaced points x_j = a + j dx, dx = (b - a)/(N - 1), j = 0..N-1, endpoints
included (N always counts both endpoints; the eigenproblem below is of size
N - 2).  With Dirichlet conditions psi(a) = psi(b) = 0 the standard 3-point
second-difference stencil turns the Hamiltonian operator into a symmetric
tridiagonal matrix over the N - 2 interior points:

    diagonal[j]     = hbar^2 / (m dx^2) + V(a + (j + 1) dx)
    off_diagonal[j] = -hbar^2 / (2 m dx^2)

stored as two vectors.  The Dirichlet window is justified for states that
stay small near x = b; states with visible amplitude at the window edges are
contaminated by the box and can be flagged through the boundary-amplitude
diagnostic carried by each solved state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .classical import ModelParams, potential
from .errors import ConfigurationError

__all__ = ["SpatialGrid", "DiscreteHamiltonian", "make_grid", "assemble"]


def uniform_points(a: float, b: float, n: int) -> np.ndarray:
    """N uniformly spaced points on [a, b], endpoints exact.

    Built as the weighted average (a (n-1-j) + b j)/(n-1) rather than
    a + j dx so that a symmetric window b = -a yields an exactly mirrored
    point set (points[n-1-j] == -points[j] bitwise, with an exact 0 in the
    middle for odd n).  The two forms agree to rounding.  A window so
    narrow that rounding leaves two neighbours equal or out of order is a
    ConfigurationError (every consumer relies on strictly ascending points),
    as are an overflowing a (n-1-j) + b j and an n too large to allocate.
    """
    try:
        j = np.arange(n, dtype=float)
    except (ValueError, MemoryError) as exc:
        raise ConfigurationError(f"{n} grid points are too many to allocate: {exc}") from exc
    with np.errstate(over="ignore", invalid="ignore"):  # the finiteness check catches both
        pts = (a * (n - 1 - j) + b * j) / (n - 1)
    pts[0] = a
    pts[-1] = b
    if not np.isfinite(pts).all():
        raise ConfigurationError(f"{n} points on [{a!r}, {b!r}]: a (n-1-j) + b j overflows")
    if not np.all(pts[1:] > pts[:-1]):
        raise ConfigurationError(
            f"{n} points on [{a!r}, {b!r}] are not strictly ascending in floating point"
        )
    return pts


@dataclass(frozen=True)
class SpatialGrid:
    a: float
    b: float
    n_points: int
    dx: float
    points: np.ndarray = field(repr=False, compare=False)


@dataclass(frozen=True)
class DiscreteHamiltonian:
    """Symmetric tridiagonal FD matrix over the interior grid points.

    All off-diagonal entries are equal and strictly negative, which
    guarantees simple eigenvalues and the Sturm sign-change structure of the
    eigenvectors.
    """

    diagonal: np.ndarray = field(repr=False, compare=False)
    off_diagonal: np.ndarray = field(repr=False, compare=False)
    grid: SpatialGrid
    params: ModelParams

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Matrix product with an interior-point vector (N - 2,) or with each
        row of a block (k, N - 2); each row's entries are computed as for the
        row alone."""
        m = self.diagonal.size
        if v.ndim not in (1, 2) or v.shape[-1] != m:
            raise ValueError(f"shape {v.shape} is not ({m},) or (k, {m})")
        out = self.diagonal * v
        out[..., :-1] += self.off_diagonal * v[..., 1:]
        out[..., 1:] += self.off_diagonal * v[..., :-1]
        return out


def make_grid(a: float, b: float, n: int) -> SpatialGrid:
    """Uniform grid on [a, b] with n total points (endpoints included)."""
    if not (b > a and math.isfinite(b - a)):  # b - a is finite only for finite ends
        raise ConfigurationError(f"grid needs finite a < b, got [{a!r}, {b!r}]")
    if n < 5:
        raise ConfigurationError(f"grid needs at least 5 points, got {n}")
    dx = (b - a) / (n - 1)
    return SpatialGrid(a=a, b=b, n_points=n, dx=dx, points=uniform_points(a, b, n))


def assemble(params: ModelParams, grid: SpatialGrid) -> DiscreteHamiltonian:
    """Build the interior-point tridiagonal matrix for the given well."""
    kinetic_scale = params.hbar**2 / (params.mass * grid.dx**2)
    interior = grid.points[1:-1]
    diagonal = kinetic_scale + potential(params, interior)
    off_diagonal = np.full(grid.n_points - 3, -0.5 * kinetic_scale)
    return DiscreteHamiltonian(
        diagonal=diagonal, off_diagonal=off_diagonal, grid=grid, params=params
    )
