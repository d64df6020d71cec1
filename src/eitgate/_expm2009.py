"""scipy.linalg.expm, bit for bit, without importing scipy.

groupvel's transient average of c/n_g(t) crosses a pole of n_g, so a
last-bit change in its step exponential moves v_g_transient by ~1e-7
relative. It therefore steps with exactly the exponential scipy computes:
the scaling and squaring of Al-Mohy & Higham, SIAM J. Matrix Anal. Appl.
31, 970 (2009), with the Padé order m and scaling s chosen from exact
1-norms, the numerator U and denominator V summed in scipy's order, and
scipy's LU solve of (V − U) X = 2U called through ctypes in the ILP64
OpenBLAS numpy itself loads. So no scipy module and no second BLAS is
loaded.

The bits are scipy's for a finite complex128 matrix, the only input the
transient passes. Any other input, and a process whose numpy library
exports no ILP64 zgetrf/zgetrs, goes to scipy.linalg.expm itself. A matrix
with a NaN or inf entry, or whose powers overflow, gives an all-NaN
result (scipy's is non-finite there too), which propagate_stack reports
as a non-finite time sample.
"""

from __future__ import annotations

import ctypes
import functools
import math

import numpy as np

from .dynamics import _B13, _PADE

_THETA13 = 4.25  # the order-13 bound of scipy's choice of s
# |1/c_m| of the leading backward-error term of each order (Higham 2005, (2.2) and (2.6)).
_C = {3: 100800.0, 5: 10059033600.0, 7: 4487938430976000.0, 9: 5914384781877411840000.0,
      13: 113250775606021113483283660800000000.0}
_UNIT_ROUNDOFF = 2.0**-53

_INT = ctypes.POINTER(ctypes.c_int64)
_ARGTYPES = {
    # (m, n, a, lda, ipiv, info)
    "scipy_zgetrf_64_": (_INT, _INT, ctypes.c_void_p, _INT, ctypes.c_void_p, _INT),
    # (trans, n, nrhs, a, lda, ipiv, b, ldb, info, length of trans)
    "scipy_zgetrs_64_": (ctypes.c_char_p, _INT, _INT, ctypes.c_void_p, _INT, ctypes.c_void_p,
                         ctypes.c_void_p, _INT, _INT, ctypes.c_size_t),
}


@functools.cache
def _lapack():
    """numpy's ILP64 (zgetrf, zgetrs), found among the libraries this
    process maps, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                           and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        routines = [getattr(handle, name, None) for name in _ARGTYPES]
        if None not in routines:
            for routine, argtypes in zip(routines, _ARGTYPES.values()):
                routine.argtypes, routine.restype = argtypes, None
            return routines
    return None


def expm(A: np.ndarray) -> np.ndarray:
    """scipy.linalg.expm(A) for one square matrix A, bit for bit."""
    a = np.asarray(A)
    n = a.shape[-1] if a.ndim else 0
    if a.dtype != np.complex128 or a.shape != (n, n) or n == 0 or _lapack() is None:
        from scipy.linalg import expm as scipy_expm

        return scipy_expm(A)
    # 1x1, diagonal and triangular inputs as scipy/linalg/_matfuncs.py::expm takes them.
    if n == 1:
        return np.exp(a)
    lower, upper = np.tril(a, -1).any(), np.triu(a, 1).any()
    if not (lower or upper):
        return np.diag(np.exp(np.diag(a)))
    a = np.ascontiguousarray(a)
    structure = _pade_structure(a)
    if structure is None:
        return np.full((n, n), complex(math.nan, math.nan))
    m, s, powers = structure
    X = _solve(*_pade_uv(a, m, s, powers))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow ends in inf/NaN, reported
        if s and lower and upper:
            for _ in range(s):
                X = X @ X
        elif s:
            X = _fragment_2_1(X, a, s, lower)
    if not lower:
        return np.triu(X)
    return X if upper else np.tril(X)


def _norm1(X: np.ndarray) -> float:
    return np.abs(X).sum(axis=0).max()


def _ell(absA: np.ndarray, norm: float, m: int) -> float:
    """Al-Mohy & Higham (2009)'s ℓ_m: the extra scaling that keeps the
    relative backward error of order m below the unit roundoff, from the
    exact 1-norm of |A|^(2m+1); inf or NaN where that norm overflows."""
    v = np.ones(absA.shape[0])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(2 * m + 1):
            v = absA.T @ v
        p = v.max()
        if not p:
            return 0.0
        value = np.ceil(np.log2(p / (norm * _C[m]) / _UNIT_ROUNDOFF) / (2 * m))
    return max(float(value), 0.0) if not np.isnan(value) else math.nan


def _pade_structure(A: np.ndarray):
    """(m, s, {2: A², 4: A⁴, 6: A⁶[, 8: A⁸]}) as scipy picks them, from the
    exact 1-norms of the powers (scipy/sparse/linalg/_matfuncs.py::_expm);
    None where a norm is not finite."""
    absA = np.abs(A)
    norm = absA.sum(axis=0).max()
    if not np.isfinite(norm):
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        A2 = A @ A
        A4 = A2 @ A2
        powers = {2: A2, 4: A4, 6: A2 @ A4}
        d4, d6 = _norm1(A4) ** (1 / 4), _norm1(powers[6]) ** (1 / 6)
        eta = max(d4, d6)
        if not np.isfinite(eta):
            return None
        for m, (theta, _) in zip((3, 5), _PADE):
            if eta < theta and _ell(absA, norm, m) == 0:
                return m, 0, powers
        powers[8] = A4 @ A4
        d8 = _norm1(powers[8]) ** (1 / 8)
        eta = max(d6, d8)
        for m, (theta, _) in zip((7, 9), _PADE[2:]):
            if eta < theta and _ell(absA, norm, m) == 0:
                return m, 0, powers
        eta = min(eta, max(d8, _norm1(A4 @ powers[6]) ** (1 / 10)))
    if not np.isfinite(eta):
        return None
    s = 0 if eta == 0 else max(int(np.ceil(np.log2(eta / _THETA13))), 0)
    s += _ell(2.0**-s * absA, 2.0**-s * norm, 13)
    return (13, int(s), powers) if math.isfinite(s) else None


def _pade_uv(A: np.ndarray, m: int, s: int, powers: dict) -> tuple[np.ndarray, np.ndarray]:
    """The Padé numerator U and denominator V of order m on A / 2^s, each
    sum taken in scipy's order: from the highest power down, b1 or b0 on
    the diagonal last."""
    diag = np.arange(A.shape[0])
    if m == 3:
        b = _PADE[0][1]
        U = b[3] * (A @ powers[2]) + b[1] * A
        V = b[2] * powers[2]
        V[diag, diag] += b[0]
        return U, V
    if m < 13:
        b = _PADE[(m - 3) // 2][1]
        W, V = b[m] * powers[m - 1], b[m - 1] * powers[m - 1]
        for k in range(m - 2, 1, -2):
            W = W + b[k] * powers[k - 1]
            V = V + b[k - 1] * powers[k - 1]
        W[diag, diag] += b[1]
        V[diag, diag] += b[0]
        return A @ W, V
    b = _B13
    A1, A2, A4, A6 = A * 2.0**-s, powers[2] * 4.0**-s, powers[4] * 16.0**-s, powers[6] * 64.0**-s
    W = b[7] * A6 + b[5] * A4 + b[3] * A2
    W[diag, diag] += b[1]
    W = W + A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
    V = b[6] * A6 + b[4] * A4 + b[2] * A2
    V[diag, diag] += b[0]
    V = V + A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
    return A1 @ W, V


def _solve(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """I + (V − U)^-1 2U as scipy forms it: zgetrf on the C-ordered V − U
    (LAPACK sees its transpose), then zgetrs with trans 'T' on 2U in
    Fortran order."""
    zgetrf, zgetrs = _lapack()
    P, X = np.ascontiguousarray(V - U), np.asfortranarray(2.0 * U)
    n, info = ctypes.c_int64(P.shape[0]), ctypes.c_int64(0)
    ipiv = np.empty(P.shape[0], dtype=np.int64)
    zgetrf(n, n, P.ctypes.data, n, ipiv.ctypes.data, info)
    if info.value == 0:
        zgetrs(b"T", n, n, P.ctypes.data, n, ipiv.ctypes.data, X.ctypes.data, n, info, 1)
    if info.value != 0:
        raise RuntimeError(f"the Pade denominator's LU solve failed (LAPACK info {info.value})")
    X[np.diag_indices_from(X)] += 1.0
    return np.ascontiguousarray(X)


def _fragment_2_1(X: np.ndarray, A: np.ndarray, s: int, lower: bool) -> np.ndarray:
    """Squaring of a triangular A's approximant, its diagonal and first
    off-diagonal recomputed exactly at each step (Al-Mohy & Higham 2009,
    Code Fragment 2.1), as scipy's expm writes it."""
    d, sd = np.diag(A), np.diag(A, k=-1 if lower else 1)
    np.einsum("ii->i", X)[:] = np.exp(d * 2**(-s))
    for i in range(s - 1, -1, -1):
        X = X @ X
        np.einsum("ii->i", X)[:] = np.exp(d * 2.0**(-i))
        off = X[1:, :-1] if lower else X[:-1, 1:]
        np.einsum("ii->i", off)[:] = _exp_sinch(d * 2.0**(-i)) * (sd * 2**(-i))
    return X


def _exp_sinch(x: np.ndarray) -> np.ndarray:
    """(e^x[k+1] − e^x[k]) / (x[k+1] − x[k]), e^x[k] where they coincide
    (Higham, Functions of Matrices, 2008, (10.42))."""
    out, step = np.diff(np.exp(x)), np.diff(x)
    same = step == 0.0
    out[~same] /= step[~same]
    out[same] = np.exp(x[:-1][same])
    return out
