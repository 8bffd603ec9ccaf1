"""Classical mechanics of the cubic saddle-node well.

The system is the one degree-of-freedom Hamiltonian

    H(x, p) = p^2 / (2 m) + V(x),      V(x) = -sqrt(mu) x^2 + (alpha/3) x^3,

with mu >= 0 and alpha > 0.  For mu > 0 the potential has a barrier top at
x = 0 (energy 0) and a well bottom, the centre, at x = 2 sqrt(mu)/alpha; as
mu -> 0 the two merge and annihilate.  The well depth

    D = 4 mu^(3/2) / (3 alpha^2)

is the barrier-to-bottom energy drop and is the natural sweep coordinate:
at fixed mu, larger alpha means a shallower well.

V is a cubic, so its Taylor expansion about the centre terminates: with
y = x - 2 sqrt(mu)/alpha, exactly

    V = -D + sqrt(mu) y^2 + (alpha/3) y^3,

a harmonic oscillator of frequency omega = sqrt(2 sqrt(mu)/m) at energy -D,
perturbed by a cubic term.  Dropping the cubic term gives the level estimate
of harmonic_energy_estimate, E_n ~ -D + hbar omega (n + 1/2): linear in D
with slope -1 at fixed mu, the drift of the computed levels with depth.

Everything here is a pure function of its arguments and can be called from
any number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "ModelParams", "potential", "depth", "harmonic_energy_estimate", "contour_points",
]

# kinetic energies down to -TURNING_POINT_RTOL * max(1, |e|) count as turning
# points in contour_points; the inversion is analytic, so this only absorbs
# rounding
TURNING_POINT_RTOL = 1e-10


@dataclass(frozen=True)
class ModelParams:
    """Physical parameter set defining one system instance.

    mu controls the separation of the two equilibria, alpha the strength of
    the cubic term (and through it the well depth), hbar and mass enter only
    the quantum side and the kinetic energy.
    """

    mu: float
    alpha: float
    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        for name in ("mu", "alpha", "hbar", "mass"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.mu < 0:
            raise ConfigurationError(f"mu must be >= 0, got {self.mu!r}")
        if self.alpha <= 0:
            raise ConfigurationError(f"alpha must be > 0, got {self.alpha!r}")
        if self.hbar <= 0:
            raise ConfigurationError(f"hbar must be > 0, got {self.hbar!r}")
        if self.mass <= 0:
            raise ConfigurationError(f"mass must be > 0, got {self.mass!r}")


def potential(params: ModelParams, x):
    """V(x) = -sqrt(mu) x^2 + (alpha/3) x^3.  Accepts scalars or arrays."""
    x = np.asarray(x, dtype=float) if not np.isscalar(x) else x
    return -math.sqrt(params.mu) * x**2 + (params.alpha / 3.0) * x**3


def depth(params: ModelParams) -> float:
    """Well depth D = 4 mu^(3/2) / (3 alpha^2); zero exactly at the bifurcation."""
    # correctly rounded operations only, not C's pow, so the exact scalings hold bitwise
    return 4.0 * params.mu * math.sqrt(params.mu) / (3.0 * params.alpha * params.alpha)


def harmonic_energy_estimate(params: ModelParams, n: int) -> float:
    """-D + hbar omega (n + 1/2), the cubic-free level estimate."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if params.mu == 0:
        raise ValueError("mu = 0: the centre has merged with the saddle, no expansion point")
    omega = math.sqrt(2.0 * math.sqrt(params.mu) / params.mass)
    return -depth(params) + params.hbar * omega * (n + 0.5)


def contour_points(params: ModelParams, e: float, grid) -> np.ndarray:
    """Sample the level set H(x, p) = e over the spatial grid.

    Returns an (n_pairs, 2) array of (x, p) rows.  For every grid point with
    e - V(x) >= 0 the two momentum branches +/- sqrt(2 m (e - V)) are emitted
    (in that order); classically forbidden x contribute nothing.  Kinetic
    energies just below zero (see TURNING_POINT_RTOL) are kept and clamped
    to zero.
    """
    kinetic = e - potential(params, grid.points)
    keep = kinetic >= -TURNING_POINT_RTOL * max(1.0, abs(e))
    xs = grid.points[keep]
    kinetic = np.clip(kinetic[keep], 0.0, None)
    with np.errstate(over="ignore", invalid="ignore"):
        ps = np.sqrt(2.0 * params.mass * kinetic)
    # where 2 m (e - V) passes the largest double, as a product of square roots
    wide = ~np.isfinite(ps)
    ps[wide] = np.sqrt(kinetic[wide]) * (math.sqrt(2.0) * math.sqrt(params.mass))
    out = np.empty((2 * xs.size, 2))
    out[0::2, 0] = xs
    out[0::2, 1] = ps
    out[1::2, 0] = xs
    out[1::2, 1] = -ps
    return out
