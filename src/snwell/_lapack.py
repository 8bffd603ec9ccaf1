"""Lowest eigenpairs of a symmetric tridiagonal matrix: LAPACK dstebz + dstein.

scipy.linalg.eigh_tridiagonal(d, e, select="i") runs bisection (dstebz) and
then inverse iteration (dstein).  The OpenBLAS bundled with numpy's wheels
exports the same two Fortran routines with 64-bit integers, so they are
called here through ctypes: the results are the same bits, without the cost
of importing scipy, and the interpreter lock is released while LAPACK runs.
Where numpy's library or either symbol is missing (conda or MKL builds),
the call falls back to eigh_tridiagonal, importing scipy on first use.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np

from .errors import NumericalError

__all__ = ["lowest_eigenpairs"]

SYMBOLS = ("scipy_dstebz_64_", "scipy_dstein_64_")

_INT = ctypes.c_int64
_DOUBLE = ctypes.c_double


@functools.cache
def _routines():
    """(dstebz, dstein) from the LAPACK that numpy loads, or None where it is not there."""
    try:
        from numpy._core import _multiarray_umath

        # dlsym on numpy's extension also searches the libraries it links,
        # the bundled OpenBLAS included
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        dstebz, dstein = (getattr(lib, name) for name in SYMBOLS)
    except (ImportError, OSError, AttributeError):
        return None
    # every Fortran argument is an address; dstebz's two CHARACTER*1
    # arguments add gfortran's hidden lengths at the end
    dstebz.argtypes = [ctypes.c_void_p] * 18 + [ctypes.c_size_t] * 2
    dstein.argtypes = [ctypes.c_void_p] * 13
    dstebz.restype = dstein.restype = None
    return dstebz, dstein


def _in(ctype, value):
    return ctypes.byref(ctype(value))


def lowest_eigenpairs(d: np.ndarray, e: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest k eigenvalues (ascending) and eigenvectors (columns) of tridiag(e, d, e).

    Bitwise equal to eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1)).
    Raises ValueError when the shapes do not fit, and NumericalError on a
    non-finite entry or when either routine reports a nonzero info; a vector
    dstein could not converge carries its state index.
    """
    d = np.ascontiguousarray(d, dtype=np.float64)
    e = np.ascontiguousarray(e, dtype=np.float64)
    n = d.size
    if d.ndim != 1 or e.shape != (n - 1,):
        raise ValueError(f"need n diagonal, n - 1 off-diagonal entries: got {d.shape}, {e.shape}")
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise NumericalError("tridiagonal matrix has a non-finite entry")
    routines = _routines()
    if routines is None:
        try:
            from scipy.linalg import eigh_tridiagonal
        except ImportError as exc:
            raise ImportError("this numpy exports no LAPACK dstebz/dstein; install scipy") from exc
        try:
            return eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1))
        except ValueError as exc:  # scipy's LinAlgError is a ValueError
            raise NumericalError(f"tridiagonal eigensolver failed: {exc}") from exc
    dstebz, dstein = routines
    w = np.empty(n)
    iblock = np.empty(n, dtype=np.int64)
    isplit = np.empty(n, dtype=np.int64)
    work = np.empty(5 * n)  # dstebz needs 4n, dstein 5n
    iwork = np.empty(3 * n, dtype=np.int64)  # dstebz needs 3n, dstein n
    d_, e_, w_, iblock_, isplit_, work_, iwork_ = (
        a.ctypes.data for a in (d, e, w, iblock, isplit, work, iwork)
    )
    n_ = _in(_INT, n)
    m, info = ctypes.pointer(_INT()), ctypes.pointer(_INT())  # outputs

    # RANGE = 'I' (indices 1..k), ORDER = 'B' (by split block, as dstein
    # needs), ABSTOL = 0 (LAPACK's default tolerance); VL and VU are unused
    dstebz(
        b"I", b"B", n_, _in(_DOUBLE, 0.0), _in(_DOUBLE, 1.0), _in(_INT, 1), _in(_INT, k),
        _in(_DOUBLE, 0.0), d_, e_, m, _in(_INT, 0), w_, iblock_, isplit_,
        work_, iwork_, info, 1, 1,
    )
    if info[0]:
        raise NumericalError(f"LAPACK dstebz failed (info = {info[0]})")
    w = w[: m[0]]
    z = np.empty((n, w.size), order="F")
    ifail = np.zeros(w.size, dtype=np.int64)
    dstein(
        n_, d_, e_, m, w_, iblock_, isplit_, z.ctypes.data, n_, work_, iwork_,
        ifail.ctypes.data, info,
    )
    order = np.argsort(w)  # block order to matrix order, as eigh_tridiagonal does
    if info[0]:
        failed = int(np.flatnonzero(order == ifail[0] - 1)[0]) if info[0] > 0 else None
        raise NumericalError(f"LAPACK dstein failed (info = {info[0]})", state_index=failed)
    return w[order], z[:, order]
