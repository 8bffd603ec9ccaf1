import ctypes

import numpy as np
import pytest

from snwell import ModelParams, NumericalError, assemble, make_grid, solve
from snwell import _lapack

ALPHAS = (0.5, 1.0, 2.0, 5.0, 8.0)  # 5 and 8: every state lies above the barrier top


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


@pytest.mark.parametrize("n", [149, 599, 1201])
def test_ctypes_route_equals_eigh_tridiagonal_bitwise(ctypes_route, n):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    grid = make_grid(-1.0, 9.0, n)
    for alpha in ALPHAS:
        h = assemble(ModelParams(4.0, alpha), grid)
        for k in (1, 5, 12):
            w, v = _lapack.lowest_eigenpairs(h.diagonal, h.off_diagonal, k)
            w_ref, v_ref = scipy_linalg.eigh_tridiagonal(
                h.diagonal, h.off_diagonal, select="i", select_range=(0, k - 1)
            )
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
