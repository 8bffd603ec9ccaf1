import functools
import hashlib
import sys
from pathlib import Path

import hypothesis
import numpy as np
import pytest
import scipy.linalg

from snwell import (
    DiscreteHamiltonian,
    ModelParams,
    assemble,
    make_grid,
    make_momentum_grid,
    potential,
    solve,
)
from snwell import _lapack

hypothesis.settings.register_profile("ci", deadline=None, max_examples=100)
hypothesis.settings.load_profile("ci")


def fd_hamiltonian(grid, v, hbar=1.0, mass=1.0):
    """FD matrix for an arbitrary potential callable, built from the stencil.

    Lets the oracle systems (harmonic well, box, ...) run through the same
    solver path as the cubic well.
    """
    kinetic = hbar**2 / (mass * grid.dx**2)
    return DiscreteHamiltonian(
        diagonal=kinetic + v(grid.points[1:-1]),
        off_diagonal=np.full(grid.n_points - 3, -0.5 * kinetic),
        grid=grid,
        params=ModelParams(mu=0.0, alpha=1.0, hbar=hbar, mass=mass),
    )


def rayleigh_quotient(h, psi):
    """psi^T H psi / psi^T psi, psi one vector over the interior points,
    summed over its own contiguous copy."""
    psi = np.ascontiguousarray(psi)
    return float(np.sum(psi * h.apply(psi)) / np.sum(psi * psi))


def tree_digest(root):
    """The sha256 of every file under root, keyed by its path relative to root."""
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(root).rglob("*"))
        if p.is_file()
    }


@functools.cache
def sine_kinetic(length, m, hbar, mass):
    """The sine DVR's kinetic matrix on M interior points of a window of
    the given length (see sine_dvr), built once per window."""
    j = np.arange(1, m + 1)
    s = np.sqrt(2.0 / (m + 1)) * np.sin(np.outer(j, j) * (np.pi / (m + 1)))
    kinetic = (s * (hbar**2 / (2.0 * mass) * (j * np.pi / length) ** 2)) @ s
    kinetic.flags.writeable = False
    return kinetic


def sine_dvr(params, a, b, m, k):
    """The k lowest energies and states of the Dirichlet problem on [a, b] in
    the sine discrete variable representation on its M interior points
    x_i = a + i h, h = (b - a) / (M + 1) (Colbert & Miller, J. Chem. Phys.
    96, 1982 (1992)): the kinetic matrix is exact in the box's sine basis,

        T = S diag((hbar^2 / 2m) (j pi / L)^2) S,
        S_ij = sqrt(2 / (M + 1)) sin(i j pi / (M + 1)),

    V is diagonal on the points, and one dense eigh for the lowest k.  An
    independent reference for the finite-difference pipeline on the same
    window.  Returns (energies, points, psi), psi[n] normalized so
    sum psi^2 h = 1.
    """
    length = b - a
    h = length / (m + 1)
    points = a + h * np.arange(1, m + 1)
    kinetic = sine_kinetic(length, m, params.hbar, params.mass)
    energies, vectors = scipy.linalg.eigh(kinetic + np.diag(potential(params, points)),
                                          subset_by_index=[0, k - 1])
    return energies, points, vectors.T / np.sqrt(h)


# alpha = 1 and 5, and test_4b's dip, np.linspace(1, 5, 20) entries 5 to 7
DVR_ALPHAS = (1.0, *(float(a) for a in np.linspace(1.0, 5.0, 20)[5:8]), 5.0)


@pytest.fixture(scope="session")
def dvr_states():
    """alpha -> sine_dvr of the mu = 4 well on the standard window [-1, 9],
    M = 800 (its energies move by at most 2.2e-8 against M = 1600), the
    lowest 5 states, for each alpha of DVR_ALPHAS."""
    return {alpha: sine_dvr(ModelParams(4.0, alpha), -1.0, 9.0, 800, 5) for alpha in DVR_ALPHAS}


@pytest.fixture(scope="session")
def saddle_grid():
    return make_grid(-1.0, 9.0, 599)


@pytest.fixture(scope="session")
def momentum_grid():
    return make_momentum_grid(-6.0, 6.0, 599)


@pytest.fixture(scope="session")
def deep_params():
    return ModelParams(mu=4.0, alpha=1.0)


@pytest.fixture(scope="session")
def deep_spectrum(saddle_grid, deep_params):
    """Deep-well instance (D = 32/3) with the first seven states."""
    return solve(assemble(deep_params, saddle_grid), 7)


@pytest.fixture
def no_lapack(monkeypatch):
    """Neither numpy's dstebz/dstein nor scipy: the LAPACK source is looked
    up afresh in the test, and again after it."""
    monkeypatch.setattr(_lapack, "_ctypes_routines", lambda: None)
    monkeypatch.setitem(sys.modules, "scipy.linalg.lapack", None)  # import fails
    _lapack._routines.cache_clear()
    yield
    _lapack._routines.cache_clear()
