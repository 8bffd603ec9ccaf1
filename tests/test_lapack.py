import logging

import numpy as np
import pytest

from snwell import DiscreteHamiltonian, ModelParams, NumericalError, assemble, make_grid, solve
from snwell import _lapack

from conftest import rayleigh_quotient

ALPHAS = (0.5, 1.0, 2.0, 5.0, 8.0)  # 5 and 8: every state lies above the barrier top
# the alphas of figure_data.sh's depth_curves, and of its 10-point run at N = 1201
DEPTH_CURVES = [(599, np.linspace(1.0, 5.0, 40)), (1201, np.linspace(1.0, 5.0, 10))]


@pytest.fixture
def ctypes_route():
    routines = _lapack._ctypes_routines()
    if routines is None:
        pytest.skip("this numpy exports no dstebz/dstein")
    return routines


@pytest.fixture
def scipy_source(monkeypatch):
    """Every solve in the test runs on scipy's dstebz/dstein."""
    pytest.importorskip("scipy.linalg")
    monkeypatch.setattr(_lapack, "_routines", _lapack._scipy_routines)
    return _lapack._scipy_routines()


@pytest.fixture
def deep_h(saddle_grid, deep_params):
    return assemble(deep_params, saddle_grid)


def fallback_records(caplog):
    return [r for r in caplog.records if r.name == "snwell._lapack"]


def loose_reference(scipy_linalg, d, e, k):
    """The lowest k vectors of eigh_tridiagonal at ABSTOL = 2^-28 (max|d| +
    2 max|e|) for k + 1 values; at ABSTOL = 0 for k values where a gap
    among the k + 1 is not above 1e3 ABSTOL."""
    abstol = 2.0**-28 * (np.max(np.abs(d)) + 2.0 * np.max(np.abs(e)))
    w, v = scipy_linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, k), tol=abstol)
    if np.min(np.diff(w)) <= 1e3 * abstol:
        return scipy_linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1))[1]
    return v[:, :k]


def assert_bitwise_the_reference(n):
    """The driver's rows are the reference's columns, and solve's energies
    their Rayleigh quotients, one vector at a time."""
    scipy_linalg = pytest.importorskip("scipy.linalg")
    grid = make_grid(-1.0, 9.0, n)
    for alpha in ALPHAS:
        h = assemble(ModelParams(4.0, alpha), grid)
        for k in (1, 5, 12):
            v = _lapack.lowest_eigenvectors(h.diagonal, h.off_diagonal, k)
            v_ref = loose_reference(scipy_linalg, h.diagonal, h.off_diagonal, k)
            np.testing.assert_array_equal(v, v_ref.T)
            energies = solve(h, k).energies
            np.testing.assert_array_equal(energies, [rayleigh_quotient(h, psi) for psi in v_ref.T])
        if alpha >= 5.0:
            assert energies[0] > 0.0


@pytest.mark.parametrize("n", [149, 599, 1201])
def test_ctypes_route_equals_eigh_tridiagonal_bitwise(ctypes_route, n):
    assert_bitwise_the_reference(n)


@pytest.mark.parametrize("n", [149, 599, 1201])
def test_scipy_source_equals_eigh_tridiagonal_bitwise(scipy_source, n):
    assert_bitwise_the_reference(n)


@pytest.mark.parametrize("source", ["ctypes_route", "scipy_source"], ids=["numpy", "scipy"])
def test_driver_returns_one_c_contiguous_row_per_state_ascending(request, deep_h, source):
    request.getfixturevalue(source)
    split_h = DiscreteHamiltonian(diagonal=SPLIT_D, off_diagonal=SPLIT_E,
                                  grid=make_grid(0.0, 1.0, 10), params=ModelParams(4.0, 1.0))
    for h, k in ((deep_h, 1), (deep_h, 7), (split_h, 3)):  # the split matrix falls back
        v = _lapack.lowest_eigenvectors(h.diagonal, h.off_diagonal, k)
        assert v.shape == (k, h.diagonal.size) and v.flags.c_contiguous
        assert (np.diff([rayleigh_quotient(h, row) for row in v]) > 0).all()


def test_fallback_when_the_symbols_are_missing_gives_the_same_spectrum(
    ctypes_route, monkeypatch, deep_h
):
    pytest.importorskip("scipy.linalg")
    expected = solve(deep_h, 7)
    monkeypatch.setattr(_lapack, "SYMBOLS", ("snwell_no_dstebz_", "snwell_no_dstein_"))
    _lapack._routines.cache_clear()
    try:
        assert _lapack._ctypes_routines() is None
        got = solve(deep_h, 7)
    finally:
        _lapack._routines.cache_clear()
    for a, b in zip(expected.states, got.states, strict=True):
        assert a.energy == b.energy
        np.testing.assert_array_equal(a.values, b.values)


@pytest.mark.parametrize("n,alphas", DEPTH_CURVES, ids=["n599", "n1201"])
def test_loose_bisection_agrees_with_full_precision_on_the_depth_curves(caplog, n, alphas):
    """solve's energies within 1e-11 of the matrix scale and the driver's
    vectors within 1e-9 of dstebz at ABSTOL = 0, no state's residual above
    the full-precision solves' largest, and no fallback."""
    scipy_linalg = pytest.importorskip("scipy.linalg")
    caplog.set_level(logging.DEBUG, logger="snwell._lapack")
    grid = make_grid(-1.0, 9.0, n)
    residuals, full_residuals = [], []
    for alpha in alphas:
        h = assemble(ModelParams(4.0, alpha), grid)
        d, e = h.diagonal, h.off_diagonal
        scale = np.max(np.abs(d)) + 2.0 * np.max(np.abs(e))
        w, v = solve(h, 5).energies, _lapack.lowest_eigenvectors(d, e, 5)
        w_full, v_full = scipy_linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, 4))
        np.testing.assert_allclose(w, w_full, rtol=0, atol=1e-11 * scale)
        np.testing.assert_allclose(v, v_full.T, rtol=0, atol=1e-9)
        residuals.append(np.max(np.abs(h.apply(v) - w[:, None] * v), axis=1))
        full_residuals.append(np.max(np.abs(h.apply(v_full.T) - w_full[:, None] * v_full.T),
                                     axis=1))
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
def test_fallback_is_the_full_precision_result_and_logs_once(request, caplog, route, d, e, k):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    if route == "scipy":
        request.getfixturevalue("scipy_source")
    caplog.set_level(logging.DEBUG, logger="snwell._lapack")
    v = _lapack.lowest_eigenvectors(d, e, k)
    _, v_full = scipy_linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1))
    np.testing.assert_array_equal(v, v_full.T)
    [record] = fallback_records(caplog)
    assert record.levelno == logging.DEBUG and f"k = {k}:" in record.getMessage()


# e[3] = 0 splits tridiag(e, d, e) into two blocks, and dstebz (ORDER = 'B')
# returns their values block by block: not ascending
SPLIT_D = np.array([2.0, 3.0, 5.0, 7.0, 0.5, 1.0, 2.5, 4.0])
SPLIT_E = np.array([-1.0, -1.0, -1.0, 0.0, -1.0, -1.0, -1.0])


def assert_split_matrix_falls_back(caplog):
    """The driver's vectors are eigh_tridiagonal's at ABSTOL = 0, with one
    DEBUG record, and solve's energies their Rayleigh quotients."""
    scipy_linalg = pytest.importorskip("scipy.linalg")
    caplog.set_level(logging.DEBUG, logger="snwell._lapack")
    v = _lapack.lowest_eigenvectors(SPLIT_D, SPLIT_E, 3)
    _, v_full = scipy_linalg.eigh_tridiagonal(SPLIT_D, SPLIT_E, select="i", select_range=(0, 2))
    np.testing.assert_array_equal(v, v_full.T)
    [record] = fallback_records(caplog)
    assert "k = 3:" in record.getMessage()
    h = DiscreteHamiltonian(diagonal=SPLIT_D, off_diagonal=SPLIT_E, grid=make_grid(0.0, 1.0, 10),
                            params=ModelParams(4.0, 1.0))
    np.testing.assert_array_equal(solve(h, 3).energies,
                                  [rayleigh_quotient(h, psi) for psi in v_full.T])


def test_split_matrix_falls_back_on_the_ctypes_route(ctypes_route, caplog):
    assert_split_matrix_falls_back(caplog)


def test_split_matrix_falls_back_on_the_scipy_source(scipy_source, caplog):
    assert_split_matrix_falls_back(caplog)


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
        _lapack.lowest_eigenvectors(deep_h.diagonal, deep_h.off_diagonal, deep_h.diagonal.size + 1)
    assert excinfo.value.state_index is None


def assert_dstein_info_raises(monkeypatch, deep_h, routines):
    real_stebz, real_stein = routines

    def unordered_stebz(d, e, count, tol):
        w, iblock, isplit, info = real_stebz(d, e, count, tol)
        w[1] += 1e3  # W(2) above W(3) in one block: dstein rejects W (argument 5)
        return w, iblock, isplit, info

    monkeypatch.setattr(_lapack, "_routines", lambda: (unordered_stebz, real_stein))
    with pytest.raises(NumericalError, match=r"dstein failed \(info = -5\)") as excinfo:
        solve(deep_h, 4)
    assert excinfo.value.state_index is None


def test_dstein_info_raises_numerical_error(ctypes_route, monkeypatch, deep_h):
    assert_dstein_info_raises(monkeypatch, deep_h, ctypes_route)


def test_dstein_info_raises_numerical_error_on_the_scipy_source(scipy_source, monkeypatch, deep_h):
    assert_dstein_info_raises(monkeypatch, deep_h, scipy_source)


def test_dstein_ifail_carries_the_state_index(ctypes_route, monkeypatch, deep_h):
    real_stebz, real_stein = ctypes_route

    def unconverged_stein(d, e, w, iblock, isplit):
        z, _, ifail = real_stein(d, e, w, iblock, isplit)
        ifail[0] = 3  # IFAIL(1): the third vector in block order
        return z, 1, ifail  # INFO: one vector did not converge

    monkeypatch.setattr(_lapack, "_routines", lambda: (real_stebz, unconverged_stein))
    with pytest.raises(NumericalError, match="dstein failed") as excinfo:
        solve(deep_h, 4)
    assert excinfo.value.state_index == 2


@pytest.mark.parametrize("source", ["ctypes_route", "scipy_source"], ids=["numpy", "scipy"])
def test_loose_pass_dstein_failure_raises_on_both_sources(request, monkeypatch, caplog, deep_h,
                                                          source):
    # the failure is not taken for a failed bisection: no full-precision solve
    # runs after it, and only numpy's dstein reports which vector failed
    real_stebz, real_stein = request.getfixturevalue(source)
    calls = []

    def unconverged_stein(d, e, w, iblock, isplit):
        calls.append(w.size)
        z, _, ifail = real_stein(d, e, w, iblock, isplit)
        if ifail is not None:
            ifail[0] = 1
        return z, 1, ifail

    monkeypatch.setattr(_lapack, "_routines", lambda: (real_stebz, unconverged_stein))
    caplog.set_level(logging.DEBUG, logger="snwell._lapack")
    with pytest.raises(NumericalError, match=r"dstein failed \(info = 1\)") as excinfo:
        _lapack.lowest_eigenvectors(deep_h.diagonal, deep_h.off_diagonal, 4)
    assert calls == [4] and fallback_records(caplog) == []
    assert excinfo.value.state_index == (0 if source == "ctypes_route" else None)


def test_malformed_matrix_rejected_before_lapack(deep_h):
    d = deep_h.diagonal.copy()
    d[10] = np.nan
    with pytest.raises(NumericalError, match="non-finite"):
        _lapack.lowest_eigenvectors(d, deep_h.off_diagonal, 3)
    with pytest.raises(ValueError, match="off-diagonal"):
        _lapack.lowest_eigenvectors(deep_h.diagonal, deep_h.off_diagonal[:-1], 3)
