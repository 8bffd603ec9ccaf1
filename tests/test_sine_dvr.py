"""The finite-difference pipeline against the sine DVR (conftest.sine_dvr), an
independent discretization of the same windowed problem.

At N = 599 the finite-difference numbers differ from the DVR's by their own
grid error, of order 1e-4 in E, which the DVR at M = 800 resolves: its
energies move by at most 2.2e-8 and <x> by 4.6e-9 against M = 1600.
"""

import numpy as np
import pytest

from snwell import ModelParams, assemble, make_grid, position_records, solve

from conftest import DVR_ALPHAS

ALPHAS = DVR_ALPHAS[::2]  # 1, 2.2632 and 5


def fd_states(alpha, n, k=5):
    grid = make_grid(-1.0, 9.0, n)
    return solve(assemble(ModelParams(4.0, alpha), grid), k).states, grid


def dvr_moments(dvr):
    """<x> and sigma of each DVR state: x is diagonal on the DVR points."""
    _, x, psi = dvr
    h = x[1] - x[0]
    mean = psi**2 @ x * h
    return mean, np.sqrt(psi**2 @ x**2 * h - mean**2)


@pytest.mark.parametrize("alpha", ALPHAS, ids=["alpha1", "alpha2.26", "alpha5"])
def test_energy_error_against_the_dvr_is_the_first_order_grid_error(dvr_states, alpha):
    # the 3-point stencil's truncation term in first-order perturbation
    # theory: E_N - E = -(hbar^2 / 2m) (dx^2 / 12) sum (D2 psi)^2 dx
    states, grid = fd_states(alpha, 599)
    psi = np.array([st.values for st in states])
    d2 = (psi[:, 2:] - 2.0 * psi[:, 1:-1] + psi[:, :-2]) / grid.dx**2
    predicted = -0.5 * grid.dx**2 / 12.0 * np.sum(d2**2, axis=1) * grid.dx
    error = np.array([st.energy for st in states]) - dvr_states[alpha][0]
    # 0.9999-1.0006 measured
    np.testing.assert_allclose(error / predicted, 1.0, rtol=0, atol=3e-3)


@pytest.mark.parametrize("alpha", ALPHAS, ids=["alpha1", "alpha2.26", "alpha5"])
def test_position_moments_against_the_dvr_match_richardson(dvr_states, alpha):
    # an O(dx^2) error is (4/3) (f_N - f_2N-1): N = 1197 halves dx = 10 / 598
    coarse = position_records(*fd_states(alpha, 599))
    fine = position_records(*fd_states(alpha, 1197))
    for f_n, f_2n, exact in zip(coarse, fine, dvr_moments(dvr_states[alpha]), strict=True):
        # 0.9996-1.0018 measured, for <x> and sigma
        np.testing.assert_allclose((f_n - exact) / (4.0 / 3.0 * (f_n - f_2n)), 1.0,
                                   rtol=0, atol=1e-2)


def test_the_4b_dip_is_in_the_dvr_too(dvr_states):
    # test_4b's violations: <x>_2 falls as the depth grows (alpha falls)
    # through alpha = 2.4737, 2.2632 and 2.0526, where E_2 is above the
    # barrier top; the DVR, a different discretization, has the same dip
    alphas = DVR_ALPHAS[3:0:-1]  # shallow to deep
    dvr = np.array([dvr_moments(dvr_states[alpha])[0][2] for alpha in alphas])
    fd = np.array([position_records(*fd_states(alpha, 599, 3))[0][2] for alpha in alphas])
    dips = -np.diff(dvr)  # 7.5e-3 and 1.7e-2 measured
    assert np.all(dips > 0), dvr
    # |FD - DVR| is about 9e-5, the finite-difference grid error
    assert np.max(np.abs(fd - dvr)) < 0.1 * np.min(dips), (fd, dvr)
