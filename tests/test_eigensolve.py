import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import snwell._lapack
from snwell import (
    ConfigurationError,
    ModelParams,
    NumericalError,
    assemble,
    make_grid,
    solve,
)
from snwell.eigensolve import RESIDUAL_RTOL

from conftest import fd_hamiltonian, rayleigh_quotient


def test_harmonic_oscillator_levels():
    g = make_grid(-10.0, 10.0, 1201)
    s = solve(fd_hamiltonian(g, lambda x: 0.5 * x**2), 5)
    np.testing.assert_allclose(s.energies, np.arange(5) + 0.5, atol=1e-3)


def test_harmonic_oscillator_scaled_units():
    # m = 2, omega = 1.5, hbar = 2: E_n = hbar omega (n + 1/2) = 3 (n + 1/2)
    g = make_grid(-8.0, 8.0, 1201)
    h = fd_hamiltonian(g, lambda x: 0.5 * 2.0 * 1.5**2 * x**2, hbar=2.0, mass=2.0)
    s = solve(h, 3)
    np.testing.assert_allclose(s.energies, 3.0 * (np.arange(3) + 0.5), atol=1e-3)


def test_box_levels_within_a_tenth_percent():
    g = make_grid(0.0, 1.0, 1201)
    s = solve(fd_hamiltonian(g, lambda x: 0.0 * x), 3)
    exact = np.arange(1, 4) ** 2 * np.pi**2 / 2.0
    np.testing.assert_allclose(s.energies, exact, rtol=1e-3)


def test_deep_well_ground_state_near_harmonic_estimate(deep_spectrum):
    # D = 32/3, level spacing hbar omega = 2; the 0.05 window was frozen from
    # a grid-refinement study (the true gap is ~1e-2, all from the cubic term)
    assert deep_spectrum.energies[0] == pytest.approx(-32.0 / 3.0 + 1.0, abs=0.05)


def test_states_grid_normalized(deep_spectrum, saddle_grid):
    for st in deep_spectrum.states:
        quad = np.sum(st.values**2) * saddle_grid.dx
        assert quad == pytest.approx(1.0, abs=1e-10)


def test_dirichlet_entries_exactly_zero(deep_spectrum):
    for st in deep_spectrum.states:
        assert st.values[0] == 0.0 and st.values[-1] == 0.0


def test_sign_convention_largest_entry_positive(deep_spectrum):
    for st in deep_spectrum.states:
        assert st.values[np.argmax(np.abs(st.values))] > 0.0


def test_boundary_amplitude_diagnostic(deep_spectrum):
    for st in deep_spectrum.states:
        assert st.boundary_amplitude == max(abs(st.values[1]), abs(st.values[-2]))
    # higher states lean harder on the window
    amps = [st.boundary_amplitude for st in deep_spectrum.states]
    assert amps[-1] > amps[0]


def test_states_mutually_orthogonal(deep_spectrum, saddle_grid):
    states = deep_spectrum.states
    for m in range(len(states)):
        for n in range(m + 1, len(states)):
            overlap = abs(np.sum(states[m].values * states[n].values) * saddle_grid.dx)
            assert overlap <= 1e-8


def test_sturm_node_counts(deep_spectrum):
    for st in deep_spectrum.states:
        signs = np.sign(st.values[1:-1])
        signs = signs[signs != 0]
        assert int(np.sum(signs[1:] != signs[:-1])) == st.index


def test_energies_strictly_ascending(deep_spectrum):
    assert (np.diff(deep_spectrum.energies) > 0).all()


def test_resolving_is_bitwise_deterministic(saddle_grid, deep_params):
    h = assemble(deep_params, saddle_grid)
    s1, s2 = solve(h, 6), solve(h, 6)
    for a, b in zip(s1.states, s2.states):
        assert a.energy == b.energy
        np.testing.assert_array_equal(a.values, b.values)


def test_concurrent_solves_equal_serial_bitwise(saddle_grid):
    # LAPACK runs without the interpreter lock, so these solves truly overlap
    hs = [assemble(ModelParams(4.0, float(a)), saddle_grid) for a in np.linspace(1.0, 5.0, 40)]
    serial = [solve(h, 5) for h in hs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(5):
                threaded = pool.map(lambda h: solve(h, 5), hs, timeout=60)
                for a, b in zip(serial, threaded, strict=True):
                    np.testing.assert_array_equal(a.energies, b.energies)
                    for sa, sb in zip(a.states, b.states, strict=True):
                        np.testing.assert_array_equal(sa.values, sb.values)
    finally:
        sys.setswitchinterval(interval)


def test_energies_decrease_as_depth_grows(saddle_grid):
    per_state = {n: [] for n in range(3)}
    for alpha in (5.0, 3.0, 2.0, 1.0):  # ascending depth
        s = solve(assemble(ModelParams(4.0, alpha), saddle_grid), 3)
        for n in range(3):
            per_state[n].append(s.energies[n])
    for n, energies in per_state.items():
        assert (np.diff(energies) < 0).all()


def test_solve_rejects_bad_k(saddle_grid, deep_params):
    h = assemble(deep_params, saddle_grid)
    with pytest.raises(ConfigurationError):
        solve(h, 0)
    with pytest.raises(ConfigurationError):
        solve(h, saddle_grid.n_points - 1)


def test_residual_within_contract(deep_spectrum, saddle_grid, deep_params):
    h = assemble(deep_params, saddle_grid)
    scale = np.max(np.abs(h.diagonal)) + 2.0 * np.max(np.abs(h.off_diagonal))
    for st in deep_spectrum.states:
        assert 0.0 < st.residual <= RESIDUAL_RTOL * scale


def _patched_solver(monkeypatch, edit):
    """Make solve() see the real eigenvectors with edit(v) applied to them."""
    real = snwell._lapack.lowest_eigenvectors

    def patched(*args, **kwargs):
        v = real(*args, **kwargs).copy()
        edit(v)
        return v

    monkeypatch.setattr(snwell._lapack, "lowest_eigenvectors", patched)


def test_nan_eigenvalue_fails_the_residual_check(monkeypatch, saddle_grid, deep_params):
    def poison(v):
        v[2, 10] = np.nan

    _patched_solver(monkeypatch, poison)
    with pytest.raises(NumericalError, match="residual") as excinfo:
        solve(assemble(deep_params, saddle_grid), 4)
    assert excinfo.value.state_index == 2


def test_clustered_eigenvalues_raise(monkeypatch, saddle_grid, deep_params):
    def merge(v):
        v[2] = v[1]

    _patched_solver(monkeypatch, merge)
    with pytest.raises(NumericalError, match="cluster") as excinfo:
        solve(assemble(deep_params, saddle_grid), 4)
    assert excinfo.value.state_index == 1


def per_column_reference(h, k):
    """solve's conventions taken one eigenvector at a time:
    (energy, psi, amplitude, residual), the energy the Rayleigh quotient of
    the driver's row z, the residual max|H z - E z| / sqrt(sum(z^2) dx)."""
    out = []
    for z in snwell._lapack.lowest_eigenvectors(h.diagonal, h.off_diagonal, k):
        w = rayleigh_quotient(h, z)
        norm = math.sqrt(float(np.sum(z * z)) * h.grid.dx)
        psi = np.zeros(h.grid.n_points)
        psi[1:-1] = z / norm
        if psi[int(np.argmax(np.abs(psi)))] < 0:
            psi = -psi
        residual = float(np.max(np.abs(h.apply(z) - w * z))) / norm
        out.append((w, psi, float(max(abs(psi[1]), abs(psi[-2]))), residual))
    return out


@pytest.mark.parametrize("negate", [False, True])
@pytest.mark.parametrize("n, k",
                         [(5, 1), (5, 3), (6, 4), (150, 1), (151, 149), (599, 5), (600, 7)])
def test_solve_equals_the_per_column_reference_bitwise(monkeypatch, n, k, negate):
    if negate:
        # LAPACK returns each vector with its largest entry positive; negating
        # every other one makes the sign rule flip them back
        real = snwell._lapack.lowest_eigenvectors

        def negated(*args):
            v = real(*args).copy()
            v[1::2] *= -1.0
            return v

        monkeypatch.setattr(snwell._lapack, "lowest_eigenvectors", negated)
    h = assemble(ModelParams(4.0, 2.0), make_grid(-1.0, 9.0, n))
    spectrum = solve(h, k)
    reference = per_column_reference(h, k)
    for state, (energy, psi, amplitude, residual) in zip(spectrum.states, reference, strict=True):
        assert state.energy.hex() == energy.hex()
        assert state.values.tobytes() == psi.tobytes()
        assert state.boundary_amplitude.hex() == amplitude.hex()
        assert state.residual.hex() == residual.hex()
    # a flipped state's endpoint zeros are -0.0
    assert [bool(np.signbit(s.values[0])) for s in spectrum.states] == [
        negate and i % 2 == 1 for i in range(k)]


def test_two_residual_failures_report_the_lower_state(monkeypatch, saddle_grid, deep_params):
    def mix(v):
        v[3] += 1e-2 * v[0]
        v[1] += 1e-2 * v[0]

    _patched_solver(monkeypatch, mix)
    with pytest.raises(NumericalError, match="residual .* for state 1") as excinfo:
        solve(assemble(deep_params, saddle_grid), 5)
    assert excinfo.value.state_index == 1
