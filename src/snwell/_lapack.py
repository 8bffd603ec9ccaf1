"""Lowest eigenpairs of a symmetric tridiagonal matrix: LAPACK dstebz + dstein.

Bisection (dstebz) brackets the k + 1 lowest eigenvalues only to ABSTOL =
2^-28 (max|d| + 2 max|e|), since inverse iteration (dstein) needs just a
shift well separated from the other eigenvalues.  dstein computes the
lowest k vectors, and each energy is the Rayleigh quotient psi^T T psi /
psi^T psi of its own vector: its error is quadratic in the vector's, and it
minimizes the residual (Parlett, The Symmetric Eigenvalue Problem, 1998).
The loose bisection is kept only where its k + 1 values come back ascending
with every gap above 1e3 ABSTOL; otherwise (k + 1 > n, or a matrix that
splits into blocks, whose values come back block by block) the k values are
bisected to full precision (ABSTOL = 0) and returned as they are, with one
DEBUG record.

The OpenBLAS bundled with numpy's wheels exports both routines with 64-bit
integers; called through ctypes, they cost no scipy import, and the
interpreter lock is released while LAPACK runs.  Where numpy's library or
either symbol is missing (conda or MKL builds), scipy.linalg.lapack's
wrappers of the same routines serve instead, with the same results.
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


def _in(ctype, value):
    return ctypes.byref(ctype(value))


def _ctypes_routines():
    """(stebz, stein) through the LAPACK that numpy loads, or None where it is not there."""
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

    def stebz(d, e, count, tol):
        n, m, info = d.size, _INT(), _INT()
        w, iblock, isplit = np.empty(n), np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
        work, iwork = np.empty(4 * n), np.empty(3 * n, dtype=np.int64)
        # RANGE = 'I' (indices 1..count); VL and VU are unused
        dstebz(
            b"I", b"B", _in(_INT, n), _in(_DOUBLE, 0.0), _in(_DOUBLE, 1.0), _in(_INT, 1),
            _in(_INT, count), _in(_DOUBLE, tol), d.ctypes.data, e.ctypes.data, ctypes.byref(m),
            _in(_INT, 0), w.ctypes.data, iblock.ctypes.data, isplit.ctypes.data,
            work.ctypes.data, iwork.ctypes.data, ctypes.byref(info), 1, 1,
        )
        return w[: m.value], iblock, isplit, info.value

    def stein(d, e, w, iblock, isplit):
        n, info = d.size, _INT()
        z, ifail = np.empty((n, w.size), order="F"), np.zeros(w.size, dtype=np.int64)
        work, iwork = np.empty(5 * n), np.empty(n, dtype=np.int64)
        dstein(
            _in(_INT, n), d.ctypes.data, e.ctypes.data, _in(_INT, w.size), w.ctypes.data,
            iblock.ctypes.data, isplit.ctypes.data, z.ctypes.data, _in(_INT, n),
            work.ctypes.data, iwork.ctypes.data, ifail.ctypes.data, ctypes.byref(info),
        )
        return z, info.value, ifail

    return stebz, stein


def _scipy_routines():
    """(stebz, stein) through scipy's wrappers, whose dstein keeps IFAIL to itself."""
    try:
        from scipy.linalg.lapack import dstebz, dstein
    except ImportError as exc:
        raise ImportError("this numpy exports no LAPACK dstebz/dstein; install scipy") from exc

    def stebz(d, e, count, tol):
        m, w, iblock, isplit, info = dstebz(d, e, 2, 0.0, 1.0, 1, count, tol, "B")  # 2: 'I'
        return w[:m], iblock, isplit, info

    def stein(d, e, w, iblock, isplit):
        return (*dstein(d, e, w, iblock, isplit), None)

    return stebz, stein


@functools.cache
def _routines():
    """(stebz, stein) from numpy's LAPACK, else from scipy's (importing scipy).

    stebz(d, e, count, tol) -> (w, iblock, isplit, info) bisects the count
    lowest eigenvalues to ABSTOL = tol, block by block (ORDER = 'B', as
    dstein needs); stein(d, e, w, iblock, isplit) -> (z, info, ifail)
    computes their vectors, with ifail None where the source hides it.
    """
    return _ctypes_routines() or _scipy_routines()


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


def lowest_eigenpairs(d: np.ndarray, e: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest k eigenvalues (ascending) and eigenvectors (columns) of tridiag(e, d, e).

    Bitwise equal, from either source, to the lowest k columns of
    scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, k),
    tol=ABSTOL) and their Rayleigh quotients where the guard holds, and to
    its select_range=(0, k - 1) at ABSTOL = 0 where it falls back.
    Raises ValueError when the shapes do not fit, and NumericalError on a
    non-finite entry or when either routine reports a nonzero info; a vector
    numpy's dstein could not converge carries its state index.
    """
    d, e = (np.ascontiguousarray(a, dtype=np.float64) for a in (d, e))
    n = d.size
    if d.ndim != 1 or e.shape != (n - 1,):
        raise ValueError(f"need n diagonal, n - 1 off-diagonal entries: got {d.shape}, {e.shape}")
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise NumericalError("tridiagonal matrix has a non-finite entry")
    # the scale solve checks residuals against, times a power of 2
    abstol = TOL_FACTOR * (float(np.max(np.abs(d))) + 2.0 * float(np.max(np.abs(e), initial=0.0)))
    stebz, stein = _routines()
    # with k + 1 > n, dstebz would print its illegal-argument message
    w, iblock, isplit, info = stebz(d, e, k + 1, abstol) if k < n else (None,) * 4
    loose = _separated(None if info else w, k, abstol)
    if loose:
        w = w[:k]  # the top value is the last one
    else:
        w, iblock, isplit, info = stebz(d, e, k, 0.0)  # ABSTOL = 0: LAPACK's default
        if info:
            raise NumericalError(f"LAPACK dstebz failed (info = {info})")
    z, info, ifail = stein(d, e, w, iblock, isplit)
    order = np.argsort(w)  # block order to matrix order
    if info:
        failed = None if info < 0 or ifail is None else int(np.argsort(order)[ifail[0] - 1])
        raise NumericalError(f"LAPACK dstein failed (info = {info})", state_index=failed)
    if loose:  # w ascends, so the columns are in matrix order already
        return _rayleigh_quotients(d, e, z), z
    return w[order], z[:, order]
