"""Lowest eigenpairs of a symmetric tridiagonal matrix: LAPACK dstebz + dstein.

Bisection (dstebz) brackets the k + 1 lowest eigenvalues only to ABSTOL =
2^-28 (max|d| + 2 max|e|), since inverse iteration (dstein) needs just a
shift well separated from the other eigenvalues.  dstein computes the
lowest k vectors, and each energy is the Rayleigh quotient psi^T T psi /
psi^T psi of its own vector: its error is quadratic in the vector's, and it
minimizes the residual (Parlett, The Symmetric Eigenvalue Problem, 1998).
The loose bisection is kept only where its k + 1 values come back ascending
with every gap above 1e3 ABSTOL; otherwise (k + 1 > n included) the k
values are bisected to full precision (ABSTOL = 0) and returned as they
are, with one DEBUG record.

The OpenBLAS bundled with numpy's wheels exports both routines with 64-bit
integers, so they are called here through ctypes, without the cost of
importing scipy, and the interpreter lock is released while LAPACK runs.
Where numpy's library or either symbol is missing (conda or MKL builds),
scipy.linalg.eigh_tridiagonal runs the same routines, with the same
tolerance, guard and quotient, importing scipy on first use.  A matrix that
splits into blocks (an off-diagonal entry negligible against the diagonal,
as for a heavy particle) comes back from dstebz block by block, not
ascending, so the ctypes route falls back; eigh_tridiagonal sorts the blocks
first and keeps its quotients.  The two routes are bitwise equal only where
the matrix does not split.
"""

from __future__ import annotations

import ctypes
import functools
import logging

import numpy as np

from .errors import NumericalError

__all__ = ["lowest_eigenpairs"]

SYMBOLS = ("scipy_dstebz_64_", "scipy_dstein_64_")
TOL_FACTOR = 2.0**-28  # ABSTOL per unit of max|d| + 2 max|e|; a power of 2 keeps scalings exact
GAP_FACTOR = 1e3  # the loose bisection needs every gap above GAP_FACTOR * ABSTOL

_log = logging.getLogger(__name__)

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


def _rayleigh_quotients(d: np.ndarray, e: np.ndarray, z: np.ndarray) -> np.ndarray:
    """psi^T T psi / psi^T psi for each column psi of z, each summed over its
    own contiguous vector, whatever layout the solver returned."""
    quotients = np.empty(z.shape[1])
    for j, psi in enumerate(np.ascontiguousarray(z.T)):
        t_psi = d * psi
        t_psi[:-1] += e * psi[1:]
        t_psi[1:] += e * psi[:-1]
        quotients[j] = np.sum(psi * t_psi) / np.sum(psi * psi)
    return quotients


def _separated(w: np.ndarray | None, k: int, abstol: float) -> bool:
    """Whether w, the loose bisection's values in the order it returned them
    (None where it did not run or failed), are k + 1 ascending values with
    every gap above GAP_FACTOR * abstol; logs one DEBUG record when not."""
    gaps = np.diff(w) if w is not None else np.empty(0)
    smallest = float(gaps.min()) if gaps.size else float("nan")
    if w is not None and w.size == k + 1 and smallest > GAP_FACTOR * abstol:
        return True
    _log.debug("full-precision bisection for k = %d: smallest gap %.6g, ABSTOL %.6g",
               k, smallest, abstol)
    return False


def _eigh_tridiagonal(d: np.ndarray, e: np.ndarray, k: int, abstol: float):
    """The same tolerance, guard and quotient through scipy's eigh_tridiagonal."""
    try:
        from scipy.linalg import eigh_tridiagonal
    except ImportError as exc:
        raise ImportError("this numpy exports no LAPACK dstebz/dstein; install scipy") from exc
    try:
        w, v = eigh_tridiagonal(d, e, select="i", select_range=(0, k), tol=abstol)
    except ValueError:  # scipy's LinAlgError, or k + 1 > n
        w = None
    if _separated(w, k, abstol):
        return _rayleigh_quotients(d, e, v[:, :k]), v[:, :k]
    try:
        return eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1))
    except ValueError as exc:
        raise NumericalError(f"tridiagonal eigensolver failed: {exc}") from exc


def lowest_eigenpairs(d: np.ndarray, e: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest k eigenvalues (ascending) and eigenvectors (columns) of tridiag(e, d, e).

    Bitwise equal to the lowest k columns of eigh_tridiagonal(d, e, select="i",
    select_range=(0, k), tol=ABSTOL) and their Rayleigh quotients, where the
    guard holds, and to eigh_tridiagonal(d, e, select="i",
    select_range=(0, k - 1)) where it falls back.
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
    # the scale solve checks residuals against, times a power of 2
    abstol = TOL_FACTOR * (float(np.max(np.abs(d))) + 2.0 * float(np.max(np.abs(e), initial=0.0)))
    routines = _routines()
    if routines is None:
        return _eigh_tridiagonal(d, e, k, abstol)
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

    def bisect(count: int, tol: float) -> np.ndarray | None:
        # RANGE = 'I' (indices 1..count), ORDER = 'B' (by split block, as
        # dstein needs); VL and VU are unused
        dstebz(
            b"I", b"B", n_, _in(_DOUBLE, 0.0), _in(_DOUBLE, 1.0), _in(_INT, 1), _in(_INT, count),
            _in(_DOUBLE, tol), d_, e_, m, _in(_INT, 0), w_, iblock_, isplit_,
            work_, iwork_, info, 1, 1,
        )
        return None if info[0] else w[: m[0]]

    # with k + 1 > n, dstebz would print its illegal-argument message
    loose = _separated(bisect(k + 1, abstol) if k < n else None, k, abstol)
    if loose:
        # the top value is the last one, and dstein reads W and IBLOCK(1..M)
        m[0] = k
    else:
        bisect(k, 0.0)  # ABSTOL = 0: LAPACK's default, full precision
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
    if loose:  # w ascends, so the columns are in matrix order already
        return _rayleigh_quotients(d, e, z), z
    return w[order], z[:, order]
