"""Quantum structure of a cubic saddle-node potential well.

Classical well geometry, finite-difference bound states, position
observables, Wigner quasiprobability fields, and the phase-space probability
of classically nonreactive behaviour, swept over the well-depth parameter.
"""

from .classical import (ModelParams, contour_points, depth, hamiltonian,
                        harmonic_energy_estimate, potential)
from .discretize import DiscreteHamiltonian, SpatialGrid, assemble, make_grid
from .eigensolve import EigenState, Spectrum, eigenvalue_residual, solve
from .errors import ConfigurationError, NumericalError
from .observables import moment, position_records, uncertainty
from .sweep import (
    SweepConfig,
    SweepPointError,
    SweepRecord,
    emit_wigner_grid,
    load_wigner_grid,
    run_sweep,
)
from .wigner import (
    MomentumGrid,
    WignerField,
    make_momentum_grid,
    marginal_x,
    nonreactive_probabilities,
    nonreactive_probability,
    wigner_transform,
)

__all__ = [
    "ModelParams", "contour_points", "depth", "hamiltonian", "harmonic_energy_estimate",
    "potential",
    "DiscreteHamiltonian", "SpatialGrid", "assemble", "make_grid",
    "EigenState", "Spectrum", "eigenvalue_residual", "solve",
    "ConfigurationError", "NumericalError",
    "moment", "position_records", "uncertainty",
    "SweepConfig", "SweepPointError", "SweepRecord", "emit_wigner_grid", "load_wigner_grid",
    "run_sweep",
    "MomentumGrid", "WignerField", "make_momentum_grid", "marginal_x",
    "nonreactive_probabilities", "nonreactive_probability", "wigner_transform",
]

__version__ = "0.1.0"
