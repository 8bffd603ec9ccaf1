"""Lowest eigenvectors of a symmetric tridiagonal matrix: LAPACK dstebz + dstein.

Bisection (dstebz) brackets the k + 1 lowest eigenvalues only to ABSTOL =
2^-28 (max|d| + 2 max|e|), since inverse iteration (dstein) needs just a
shift well separated from the other eigenvalues; the energies are taken
from the vectors (see eigensolve).  The loose bisection is kept only where
its k + 1 values come back ascending with every gap above 1e3 ABSTOL;
otherwise (k + 1 > n, or a matrix that splits into blocks, whose values
come back block by block) the k values are bisected to full precision
(ABSTOL = 0), with one DEBUG record.

The OpenBLAS bundled with numpy's wheels exports both routines with 64-bit
integers; called through ctypes, they cost no scipy import, and the
interpreter lock is released while LAPACK runs.  Where numpy's library or
either symbol is missing (conda or MKL builds), scipy.linalg.lapack's
wrappers of the same routines serve instead, with the same results; the
`lapack` extra names scipy for such builds.
"""

from __future__ import annotations

import ctypes
import functools
import logging

import numpy as np

from .errors import ConfigurationError, NumericalError

__all__ = ["lapack_source", "lowest_eigenvectors", "matrix_scale"]

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

    stebz.source = "numpy's LAPACK"
    return stebz, stein


def _scipy_routines():
    """(stebz, stein) through scipy's wrappers, whose dstein keeps IFAIL to itself;
    a ConfigurationError naming the `lapack` extra where scipy is missing."""
    try:
        from scipy.linalg.lapack import dstebz, dstein
    except ImportError as exc:
        raise ConfigurationError("this numpy exports no LAPACK dstebz/dstein and scipy is missing"
                                 "; install scipy, e.g. pip install 'snwell[lapack]'") from exc

    def stebz(d, e, count, tol):
        m, w, iblock, isplit, info = dstebz(d, e, 2, 0.0, 1.0, 1, count, tol, "B")  # 2: 'I'
        return w[:m], iblock, isplit, info

    def stein(d, e, w, iblock, isplit):
        return (*dstein(d, e, w, iblock, isplit), None)

    stebz.source = "scipy.linalg.lapack"
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


def lapack_source() -> str:
    """Where lowest_eigenvectors takes dstebz and dstein from, found once per
    process: "numpy's LAPACK" or "scipy.linalg.lapack".  Raises a
    ConfigurationError, naming the `lapack` extra, where neither has them."""
    return _routines()[0].source


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


def matrix_scale(d: np.ndarray, e: np.ndarray) -> float:
    """max|d| + 2 max|e| (0 with no e), the scale of ABSTOL and of solve's residual bound."""
    return float(np.max(np.abs(d))) + 2.0 * float(np.max(np.abs(e), initial=0.0))


def lowest_eigenvectors(d: np.ndarray, e: np.ndarray, k: int) -> np.ndarray:
    """The k lowest eigenvectors of tridiag(e, d, e) as the rows of a
    C-contiguous (k, n) array, ascending: bitwise, from either source, the
    transpose of the lowest k columns of scipy.linalg.eigh_tridiagonal(d, e,
    select="i", select_range=(0, k), tol=ABSTOL) where the guard holds, and
    of its select_range=(0, k - 1) at ABSTOL = 0 where it falls back.
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
    abstol = TOL_FACTOR * matrix_scale(d, e)  # a power of 2 times solve's scale
    stebz, stein = _routines()
    # with k + 1 > n, dstebz would print its illegal-argument message
    w, iblock, isplit, info = stebz(d, e, k + 1, abstol) if k < n else (None,) * 4
    if _separated(None if info else w, k, abstol):
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
    return z.T[order]
