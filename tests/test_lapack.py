import ctypes
import logging

import numpy as np
import pytest

from snwell import ModelParams, NumericalError, assemble, make_grid, solve
from snwell import _lapack

ALPHAS = (0.5, 1.0, 2.0, 5.0, 8.0)  # 5 and 8: every state lies above the barrier top
# the alphas of figure_data.sh's depth_curves, and of its 10-point run at N = 1201
DEPTH_CURVES = [(599, np.linspace(1.0, 5.0, 40)), (1201, np.linspace(1.0, 5.0, 10))]


def _at(address, ctype):
    """The Fortran argument at this address, indexable as an array."""
    return ctypes.cast(address, ctypes.POINTER(ctype))


@pytest.fixture
def ctypes_route():
    routines = _lapack._routines()
    if routines is None:
        pytest.skip("this numpy exports no dstebz/dstein")
    return routines


@pytest.fixture
def deep_h(saddle_grid, deep_params):
    return assemble(deep_params, saddle_grid)


def fallback_records(caplog):
    return [r for r in caplog.records if r.name == "snwell._lapack"]


def loose_reference(scipy_linalg, d, e, k):
    """eigh_tridiagonal at ABSTOL = 2^-28 (max|d| + 2 max|e|) for k + 1 values,
    and the Rayleigh quotient of each of the lowest k vectors; at ABSTOL = 0
    for k values where a gap among the k + 1 is not above 1e3 ABSTOL."""
    abstol = 2.0**-28 * (np.max(np.abs(d)) + 2.0 * np.max(np.abs(e)))
    w, v = scipy_linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, k), tol=abstol)
    if np.min(np.diff(w)) <= 1e3 * abstol:
        return scipy_linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1))
    quotients = []
    for psi in v[:, :k].T:
        psi = np.ascontiguousarray(psi)
        t_psi = d * psi
        t_psi[:-1] += e * psi[1:]
        t_psi[1:] += e * psi[:-1]
        quotients.append(np.sum(psi * t_psi) / np.sum(psi * psi))
    return np.array(quotients), v[:, :k]


@pytest.mark.parametrize("n", [149, 599, 1201])
def test_ctypes_route_equals_eigh_tridiagonal_bitwise(ctypes_route, n):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    grid = make_grid(-1.0, 9.0, n)
    for alpha in ALPHAS:
        h = assemble(ModelParams(4.0, alpha), grid)
        for k in (1, 5, 12):
            w, v = _lapack.lowest_eigenpairs(h.diagonal, h.off_diagonal, k)
            w_ref, v_ref = loose_reference(scipy_linalg, h.diagonal, h.off_diagonal, k)
            assert w.shape == (k,) and v.shape == (n - 2, k)
            np.testing.assert_array_equal(w, w_ref)
            np.testing.assert_array_equal(v, v_ref)
        if alpha >= 5.0:
            assert w[0] > 0.0


def test_fallback_when_the_symbols_are_missing_gives_the_same_spectrum(
    ctypes_route, monkeypatch, deep_h
):
    pytest.importorskip("scipy.linalg")
    expected = solve(deep_h, 7)
    monkeypatch.setattr(_lapack, "SYMBOLS", ("snwell_no_dstebz_", "snwell_no_dstein_"))
    _lapack._routines.cache_clear()
    try:
        assert _lapack._routines() is None
        got = solve(deep_h, 7)
    finally:
        _lapack._routines.cache_clear()
    for a, b in zip(expected.states, got.states, strict=True):
        assert a.energy == b.energy
        np.testing.assert_array_equal(a.values, b.values)


@pytest.mark.parametrize("n,alphas", DEPTH_CURVES, ids=["n599", "n1201"])
def test_loose_bisection_agrees_with_full_precision_on_the_depth_curves(caplog, n, alphas):
    """Energies within 1e-11 of the matrix scale and vectors within 1e-9 of
    dstebz at ABSTOL = 0, no state's residual above the full-precision
    solves' largest, and no fallback."""
    scipy_linalg = pytest.importorskip("scipy.linalg")
    caplog.set_level(logging.DEBUG, logger="snwell._lapack")
    grid = make_grid(-1.0, 9.0, n)
    residuals, full_residuals = [], []
    for alpha in alphas:
        h = assemble(ModelParams(4.0, alpha), grid)
        d, e = h.diagonal, h.off_diagonal
        scale = np.max(np.abs(d)) + 2.0 * np.max(np.abs(e))
        w, v = _lapack.lowest_eigenpairs(d, e, 5)
        w_full, v_full = scipy_linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, 4))
        np.testing.assert_allclose(w, w_full, rtol=0, atol=1e-11 * scale)
        np.testing.assert_allclose(v, v_full, rtol=0, atol=1e-9)
        residuals.append(np.max(np.abs(h.apply(v) - w * v), axis=0))
        full_residuals.append(np.max(np.abs(h.apply(v_full) - w_full * v_full), axis=0))
    assert np.max(residuals) <= np.max(full_residuals)
    assert fallback_records(caplog) == []


def two_wells(n_well=40, n_barrier=20, height=1.0):
    """tridiag(-1, 2 + V, -1) with V = 0 in two equal wells and `height` on the
    barrier between them: the lowest two eigenvalues are 5.6e-12 apart."""
    v = np.zeros(2 * n_well + n_barrier)
    v[n_well:n_well + n_barrier] = height
    return 2.0 + v, np.full(v.size - 1, -1.0)


@pytest.mark.parametrize("route", ["numpy", "scipy"])
@pytest.mark.parametrize(
    "d,e,k",
    [(*two_wells(), 3), (np.array([2.0, 3.0, 5.0]), np.array([-1.0, -1.0]), 3)],
    ids=["close_pair", "no_k_plus_1st_value"],
)
def test_fallback_is_the_full_precision_result_and_logs_once(monkeypatch, caplog, route, d, e, k):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    if route == "scipy":
        monkeypatch.setattr(_lapack, "_routines", lambda: None)
    caplog.set_level(logging.DEBUG, logger="snwell._lapack")
    w, v = _lapack.lowest_eigenpairs(d, e, k)
    w_full, v_full = scipy_linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1))
    np.testing.assert_array_equal(w, w_full)
    np.testing.assert_array_equal(v, v_full)
    [record] = fallback_records(caplog)
    assert record.levelno == logging.DEBUG and f"k = {k}:" in record.getMessage()


# e[3] = 0 splits tridiag(e, d, e) into two blocks, and dstebz (ORDER = 'B')
# returns their values block by block: not ascending
SPLIT_D = np.array([2.0, 3.0, 5.0, 7.0, 0.5, 1.0, 2.5, 4.0])
SPLIT_E = np.array([-1.0, -1.0, -1.0, 0.0, -1.0, -1.0, -1.0])


def test_split_matrix_falls_back_on_the_ctypes_route(ctypes_route, caplog):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    caplog.set_level(logging.DEBUG, logger="snwell._lapack")
    w, v = _lapack.lowest_eigenpairs(SPLIT_D, SPLIT_E, 3)
    w_full, v_full = scipy_linalg.eigh_tridiagonal(SPLIT_D, SPLIT_E, select="i",
                                                   select_range=(0, 2))
    np.testing.assert_array_equal(w, w_full)
    np.testing.assert_array_equal(v, v_full)
    [record] = fallback_records(caplog)
    assert "k = 3:" in record.getMessage()


def test_split_matrix_keeps_the_loose_values_on_the_scipy_route(monkeypatch, caplog):
    # eigh_tridiagonal sorts the blocks' values, so they pass the guard and the
    # energies are Rayleigh quotients: close to the full-precision result, not bitwise
    scipy_linalg = pytest.importorskip("scipy.linalg")
    monkeypatch.setattr(_lapack, "_routines", lambda: None)
    caplog.set_level(logging.DEBUG, logger="snwell._lapack")
    w, v = _lapack.lowest_eigenpairs(SPLIT_D, SPLIT_E, 3)
    w_full, v_full = scipy_linalg.eigh_tridiagonal(SPLIT_D, SPLIT_E, select="i",
                                                   select_range=(0, 2))
    scale = np.max(np.abs(SPLIT_D)) + 2.0 * np.max(np.abs(SPLIT_E))
    np.testing.assert_allclose(w, w_full, rtol=0, atol=1e-11 * scale)
    np.testing.assert_allclose(v, v_full, rtol=0, atol=1e-9)
    assert fallback_records(caplog) == []


def test_heavy_particle_matrix_splits_and_solve_falls_back(ctypes_route, caplog):
    # the off-diagonal -hbar^2 / (2 m dx^2) = -1.1e-18 is negligible against the
    # diagonal, so dstebz splits the matrix and its loose values do not ascend
    scipy_linalg = pytest.importorskip("scipy.linalg")
    caplog.set_level(logging.DEBUG, logger="snwell._lapack")
    h = assemble(ModelParams(4.0, 1.0, mass=1e20), make_grid(-1.0, 9.0, 149))
    energies = solve(h, 5).energies
    w_full, _ = scipy_linalg.eigh_tridiagonal(h.diagonal, h.off_diagonal, select="i",
                                              select_range=(0, 4))
    assert (np.diff(energies) > 0).all()
    np.testing.assert_array_equal(energies, w_full)
    [record] = fallback_records(caplog)
    assert "k = 5:" in record.getMessage()


def test_dstebz_info_raises_numerical_error(ctypes_route, deep_h):
    # more eigenvalues than rows: dstebz rejects IU (argument 7)
    with pytest.raises(NumericalError, match=r"dstebz failed \(info = -7\)") as excinfo:
        _lapack.lowest_eigenpairs(deep_h.diagonal, deep_h.off_diagonal, deep_h.diagonal.size + 1)
    assert excinfo.value.state_index is None


def test_dstein_info_raises_numerical_error(ctypes_route, monkeypatch, deep_h):
    real_stebz, real_stein = ctypes_route

    def unordered_stebz(*args):
        real_stebz(*args)
        # W(2) above W(3) in one block: dstein rejects W (argument 5)
        _at(args[12], ctypes.c_double)[1] += 1e3

    monkeypatch.setattr(_lapack, "_routines", lambda: (unordered_stebz, real_stein))
    with pytest.raises(NumericalError, match=r"dstein failed \(info = -5\)") as excinfo:
        solve(deep_h, 4)
    assert excinfo.value.state_index is None


def test_dstein_ifail_carries_the_state_index(ctypes_route, monkeypatch, deep_h):
    real_stebz, real_stein = ctypes_route

    def unconverged_stein(*args):
        real_stein(*args)
        _at(args[-2], ctypes.c_int64)[0] = 3  # IFAIL(1): the third vector in block order
        _at(args[-1], ctypes.c_int64)[0] = 1  # INFO: one vector did not converge

    monkeypatch.setattr(_lapack, "_routines", lambda: (real_stebz, unconverged_stein))
    with pytest.raises(NumericalError, match="dstein failed") as excinfo:
        solve(deep_h, 4)
    assert excinfo.value.state_index == 2


def test_malformed_matrix_rejected_before_lapack(deep_h):
    d = deep_h.diagonal.copy()
    d[10] = np.nan
    with pytest.raises(NumericalError, match="non-finite"):
        _lapack.lowest_eigenpairs(d, deep_h.off_diagonal, 3)
    with pytest.raises(ValueError, match="off-diagonal"):
        _lapack.lowest_eigenpairs(deep_h.diagonal, deep_h.off_diagonal[:-1], 3)
