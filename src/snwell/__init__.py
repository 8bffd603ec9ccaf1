"""Quantum structure of a cubic saddle-node potential well.

Classical well geometry, finite-difference bound states, position
observables, Wigner quasiprobability fields, and the phase-space probability
of classically nonreactive behaviour, swept over the well-depth parameter.
"""

import os

# numpy's OpenBLAS starts its worker threads as numpy is imported, and an idle
# worker busy-waits for 2^n cycles before it sleeps (n = 28 by default), taking
# a CPU from the sweep's pool.  At 4, the least OpenBLAS accepts, it sleeps at
# once and the next threaded BLAS call wakes it.  A value already set is kept.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from . import classical, discretize, eigensolve, errors, observables, sweep, wigner
from .classical import *
from .discretize import *
from .eigensolve import *
from .errors import *
from .observables import *
from .sweep import *
from .wigner import *

__all__ = (classical.__all__ + discretize.__all__ + eigensolve.__all__ + errors.__all__
           + observables.__all__ + sweep.__all__ + wigner.__all__)

__version__ = "0.1.0"
