"""Dense complex matrix foundation: Hermitian eigendecomposition, SVD,
Kronecker products, partial transpose, norms and majorization.

Matrices are plain complex ``numpy.ndarray`` values in row-major layout.
A bipartite operator on C^m (x) C^n indexes the basis vector |i>(x)|j>
as row i*n + j (0-based).
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
from numpy.linalg._umath_linalg import eigh_lo as _eigh_lo

from .errors import (
    BadParamError,
    LengthMismatchError,
    NoConvergenceError,
    NotHermitianError,
)

# Hermiticity defect allowed relative to tolerance_scale(H).
HERM_RTOL = 1e-12
# Half the squared tolerance: a sum of squares in floating point falls
# short of its largest term by far less than a factor of two, so the fast
# path of require_hermitian never accepts an entry the exact rule rejects.
_FAST_DEFECT_SQ = HERM_RTOL**2 / 2
# An eigenvalue counts as negative below -NEG_EIG_TOL * tolerance_scale(H).
NEG_EIG_TOL = 1e-10
# Singular values below SV_TRUNC_RTOL * ||M||_F are truncated to zero.
SV_TRUNC_RTOL = 1e-10


def fro_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def tolerance_scale(h: np.ndarray) -> float:
    """max(1, ||H||_F), the scale of every tolerance relative to H."""
    return max(1.0, fro_norm(h))


def require_int(name: str, value, low: int) -> int:
    """`value`, an int, a numpy integer or a float holding a whole number,
    as an int of at least `low`.  Anything else, a bool or a string
    included, raises BadParamError naming `name`."""
    whole = type(value) is int or (
        not isinstance(value, bool)
        and isinstance(value, numbers.Real)
        and float(value).is_integer()
    )
    if not whole or value < low:
        raise BadParamError(f"{name} must be an integer of at least {low}, got {value}")
    return int(value)


@functools.cache
def _interval(spec: str) -> tuple[float, float, bool, bool]:
    """(low, high, low_open, high_open) of an interval written like "[0, 1)"."""
    low, high = (float(end) for end in spec[1:-1].split(","))
    return low, high, spec[0] == "(", spec[-1] == ")"


def require_real(name: str, value, interval: str) -> float:
    """`value`, an int, a float or a numpy integer or floating scalar, as a
    float inside `interval`, which is written in bracket notation such as
    "[0, 1)" or "(0, inf)".  A bool, a string, None, a complex number, an
    array, NaN, an infinity or a value outside the interval raises
    BadParamError naming `name`."""
    low, high, low_open, high_open = _interval(interval)
    x = math.nan
    if not isinstance(value, bool) and isinstance(
        value, (int, float, np.integer, np.floating)
    ):
        try:
            x = float(value)
        except OverflowError:  # an int beyond the float range
            pass
    # negated, so that NaN fails it
    if not (
        math.isfinite(x)
        and (low < x if low_open else low <= x)
        and (x < high if high_open else x <= high)
    ):
        raise BadParamError(f"{name} must be a real number in {interval}, got {value}")
    return x


def require_real_vector(name: str, value, finite: bool = True) -> np.ndarray:
    """`value`, a 1-D array of ints or floats, as a float array.  Bool,
    complex, string and object entries, and with `finite` a NaN or
    infinite entry, raise BadParamError naming `name`.  finite=False
    leaves non-finite entries to the caller's own rule."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    if (
        arr.ndim != 1
        or arr.dtype.kind not in "iuf"
        or (finite and not np.isfinite(arr).all())
    ):
        kind = "finite real numbers" if finite else "real numbers"
        raise BadParamError(f"{name} must be a 1-D array of {kind}")
    return arr.astype(float, copy=False)


def require_orthonormal_rows(rows: np.ndarray, what: str) -> None:
    """Raise BadParamError naming `what` unless the rows of `rows` are
    orthonormal within 1e-10 entrywise; NaN entries fail too."""
    gram = rows.conj() @ rows.T
    if not np.abs(gram - np.eye(len(rows))).max() <= 1e-10:
        raise BadParamError(f"{what} are not orthonormal")


def require_hermitian(h: np.ndarray) -> np.ndarray:
    """Check that `h` is a Hermitian matrix, or a stack (..., k, k) of them.

    Each matrix may deviate from its conjugate transpose by at most
    HERM_RTOL * tolerance_scale(H) entrywise.

    A one-pass fast path only ever accepts: when sum |h_ij|^2 over the
    whole stack is finite (so is every entry) and sum |d_ij|^2 of the
    defect d = H - H^dag is at most HERM_RTOL^2 / 2, every entrywise
    defect lies below the smallest tolerance any matrix gets, with room
    for the rounding of the sum.  Both sums are BLAS dot products, which
    set no floating-point flags, so non-finite input warns nothing.
    Every rejection, and every input the fast path does not settle
    (such as a sum that overflows), goes through the exact rule below.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise NotHermitianError(f"expected a square matrix, got shape {h.shape}")
    if math.isfinite(np.vdot(h, h).real):
        d = h - h.swapaxes(-1, -2).conj()
        if np.vdot(d, d).real <= _FAST_DEFECT_SQ:
            return h
    if not np.isfinite(h).all():
        raise NotHermitianError("matrix has non-finite (NaN or Inf) entries")
    defect = np.abs(h - h.swapaxes(-1, -2).conj()).max(axis=(-2, -1))
    # tolerance_scale per matrix; an overflowing norm gives an infinite tolerance
    with np.errstate(over="ignore"):
        tol = HERM_RTOL * np.maximum(1.0, np.linalg.norm(h, axis=(-2, -1)))
    bad = defect > tol
    if bad.any():
        worst = np.max(defect, where=bad, initial=0.0)
        raise NotHermitianError(f"Hermiticity defect {worst:.3e} exceeds tolerance")
    return h


@dataclass
class Spectrum:
    """Eigenvalues in non-increasing order with matching eigenvector columns
    (along the last axes for a stack of matrices)."""

    values: np.ndarray
    vectors: np.ndarray


def eig_hermitian(h: np.ndarray) -> Spectrum:
    """Diagonalize a Hermitian matrix, or a stack (..., k, k) of them, with
    LAPACK.

    Calls the gufunc behind ``numpy.linalg.eigh`` directly, on the same
    array, so the bytes are those of ``numpy.linalg.eigh``.  On a
    see-saw's (r, 2, 2) and (r, 3, 3) stacks the Python wrapper it skips
    costs about as much as LAPACK itself.  Unlike ``numpy.linalg.eigh``
    the call does not silence floating-point flags, so a LAPACK failure
    also warns ("invalid value encountered").

    Raises NotHermitianError on non-square, non-finite or non-Hermitian
    input and NoConvergenceError if LAPACK fails to converge, which the
    gufunc reports by NaN eigenvalues.  Identical input gives identical
    output on one numpy/LAPACK build.
    """
    h = require_hermitian(h)
    vals, vecs = _eigh_lo(h, signature="D->dD")
    if np.isnan(vals).any():
        raise NoConvergenceError("eigh failed: eigenvalues did not converge")
    return Spectrum(values=vals[..., ::-1], vectors=vecs[..., ::-1])


def svd(m: np.ndarray, full: bool = False):
    """Singular value decomposition M = U diag(s) V^dag with LAPACK.

    Returns (U, s, V), with V rather than V^dag.  Singular values below
    SV_TRUNC_RTOL * ||M||_F are truncated to zero.  With full=True the
    factors are square unitaries.
    """
    m = np.asarray(m, dtype=complex)
    try:
        u, sigma, vh = np.linalg.svd(m, full_matrices=full)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"svd failed: {exc}") from exc
    sigma[sigma < SV_TRUNC_RTOL * fro_norm(m)] = 0.0
    return u, sigma, vh.conj().T


@dataclass
class BipartiteOperator:
    """Hermitian operator on C^m (x) C^n with the row index convention
    |i>(x)|j> -> i*n + j."""

    m: int
    n: int
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.m = require_int("m", self.m, 1)
        self.n = require_int("n", self.n, 1)
        self.mat = np.asarray(self.mat, dtype=complex)
        d = self.m * self.n
        if self.mat.shape != (d, d):
            raise BadParamError(
                f"matrix of shape {self.mat.shape} does not match dims "
                f"({self.m}, {self.n})"
            )
        require_hermitian(self.mat)

    @property
    def dim(self) -> int:
        return self.m * self.n

    def trace(self) -> float:
        return float(np.trace(self.mat).real)

    def normalized(self) -> "BipartiteOperator":
        tr = self.trace()
        if tr < 1e-14:
            raise BadParamError(
                f"cannot normalize an operator with non-positive trace {tr:.6g}"
            )
        return BipartiteOperator(self.m, self.n, self.mat / tr)


def pt_mat(mat: np.ndarray, m: int, n: int) -> np.ndarray:
    """Partial transpose on the first factor: block (i,j) <- block (j,i),
    of one matrix or of each matrix in a stack (..., mn, mn)."""
    blocks = mat.reshape(mat.shape[:-2] + (m, n, m, n))
    # one copy: reshaping the swapped view would copy once more
    return blocks.swapaxes(-4, -2).copy().reshape(mat.shape)


def partial_transpose(op: BipartiteOperator) -> BipartiteOperator:
    return BipartiteOperator(op.m, op.n, pt_mat(op.mat, op.m, op.n))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product consistent with the i*n + j index convention."""
    return np.kron(np.asarray(a), np.asarray(b))


def embed_operator(op: BipartiteOperator, m: int, n: int) -> BipartiteOperator:
    """Zero-pad each local factor of `op` up to dimensions (m, n)."""
    m, n = require_int("m", m, op.m), require_int("n", n, op.n)
    big = np.zeros((m * n, m * n), dtype=complex)
    src = op.mat.reshape(op.m, op.n, op.m, op.n)
    dst = big.reshape(m, n, m, n)
    dst[: op.m, : op.n, : op.m, : op.n] = src
    return BipartiteOperator(m, n, big)


def negative_cut(h: np.ndarray) -> float:
    """Eigenvalues of `h` below this value count as negative."""
    return -NEG_EIG_TOL * tolerance_scale(h)


def spectrum_is_psd(values: np.ndarray, h: np.ndarray) -> bool:
    """True iff no entry of `values`, the non-increasing eigenvalues of
    `h`, lies below negative_cut(h)."""
    return bool(values[-1] >= negative_cut(h))


def is_psd(h: np.ndarray) -> bool:
    """True iff no eigenvalue of `h` lies below negative_cut(h)."""
    return spectrum_is_psd(eig_hermitian(h).values, h)


def negativity(h: np.ndarray) -> float:
    """Absolute value of the sum of negative eigenvalues.

    Equals (||H||_1 - tr H)/2 and vanishes exactly on positive
    semidefinite input (within the NEG_EIG_TOL eigenvalue margin).
    """
    vals = eig_hermitian(h).values
    return float(-vals[vals < negative_cut(h)].sum())


def _same_length(name_a: str, a, name_b: str, b) -> tuple[np.ndarray, np.ndarray]:
    """Two real vectors of one length (require_real_vector), or
    LengthMismatchError."""
    a, b = require_real_vector(name_a, a), require_real_vector(name_b, b)
    if a.shape != b.shape:
        raise LengthMismatchError(f"shapes {a.shape} and {b.shape} differ")
    return a, b


def majorizes(y: np.ndarray, x: np.ndarray, tol: float = 1e-9) -> bool:
    """True iff the sorted partial sums of x stay below those of y and the
    totals agree within `tol`, a real number in [0, inf).  y and x are
    1-D arrays of finite real numbers of one length."""
    y, x = _same_length("y", y, "x", x)
    tol = require_real("tol", tol, "[0, inf)")
    ys = np.sort(y)[::-1]
    xs = np.sort(x)[::-1]
    cy = np.cumsum(ys)
    cx = np.cumsum(xs)
    if abs(cy[-1] - cx[-1]) > tol:
        return False
    return bool(np.all(cx[:-1] <= cy[:-1] + tol))


def inner_product_lower_bound(spec_a: np.ndarray, spec_b: np.ndarray) -> float:
    """Pairing bound sum_i a_i^down * b_(n-i+1)^down; tr(AB) >= this value
    for any Hermitian A, B carrying these spectra, 1-D arrays of finite
    real numbers of one length."""
    a, b = _same_length("spec_a", spec_a, "spec_b", spec_b)
    return float(np.sort(a)[::-1] @ np.sort(b))


# ---------------------------------------------------------------------------
# Matrix JSON interchange: {"m": int, "n": int, "entries": [[re, im], ...]}
# with entries flat row-major of length (m*n)^2.

def operator_to_json(op: BipartiteOperator) -> dict:
    flat = op.mat.reshape(-1)
    return {
        "m": op.m,
        "n": op.n,
        "entries": [[float(z.real), float(z.imag)] for z in flat],
    }


def operator_from_json(obj: dict) -> BipartiteOperator:
    """Operator from the interchange format.  Raises BadParamError unless m
    and n are JSON integers and entries is a list of (m*n)^2 pairs
    [re, im] of JSON numbers."""
    try:
        m, n, entries = obj["m"], obj["n"], obj["entries"]
    except (KeyError, TypeError) as exc:
        raise BadParamError(f"malformed matrix object: {exc}") from exc
    if type(m) is not int or type(n) is not int or m < 1 or n < 1:
        raise BadParamError(f"dims ({m!r}, {n!r}) must be positive JSON integers")
    d = m * n
    if type(entries) is not list or len(entries) != d * d:
        raise BadParamError(f"entries must be a list of {d * d} [re, im] pairs")
    try:
        mat = np.array([complex(re, im) for re, im in entries], dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadParamError(f"entries must be [re, im] number pairs: {exc}") from exc
    # complex() would read true/false as 1/0
    if bool in set(map(type, chain.from_iterable(entries))):
        raise BadParamError("entries must be [re, im] number pairs, not booleans")
    return BipartiteOperator(m, n, mat.reshape(d, d))


def write_operator(path: str, op: BipartiteOperator) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(operator_to_json(op), fh, allow_nan=False)


def read_operator(path: str) -> BipartiteOperator:
    """Operator from a matrix JSON file, or from the matrix under the
    top-level "witness" key of an object such as `ews ndew` and
    `ews detect` write."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if isinstance(obj, dict) and isinstance(obj.get("witness"), dict):
        obj = obj["witness"]
    return operator_from_json(obj)
