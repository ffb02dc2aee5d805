"""Constructors and predicates for the concrete bipartite states used
throughout the package: Schmidt-form pure states with their closed-form
partial-transpose spectra, maximally entangled families, absolutely-PPT
reference spectra, bound entangled edge states and PPT tests.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    BadParamError,
    BadRankError,
    BadSpectrumError,
    IndexOutOfRangeError,
    NormViolationError,
    RankTooLargeError,
    TraceViolationError,
)
# eig_hermitian stays bound here: perfbench/tracer.py requires a binding of it
# in every library module it traces.
from .linalg import (  # noqa: F401
    BipartiteOperator,
    eig_hermitian,
    pt_mat,
    require_int,
    require_real,
)

# Singular values above this threshold count toward the Schmidt rank.
SCHMIDT_RANK_TOL = 1e-8


@dataclass
class PureState:
    """Bipartite unit vector in Schmidt form.

    coeffs are positive and non-increasing with unit square sum; basis_a
    and basis_b hold the d orthonormal local vectors as rows.  coeffs is a
    1-D array of real numbers (linalg.require_real_vector), so bool,
    complex and string entries raise BadParamError.
    """

    m: int
    n: int
    coeffs: np.ndarray
    basis_a: np.ndarray = field(repr=False)
    basis_b: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.m, self.n = require_int("m", self.m, 1), require_int("n", self.n, 1)
        # a non-finite coefficient fails the square-sum rule below
        self.coeffs = linalg.require_real_vector("coeffs", self.coeffs, finite=False)
        self.basis_a = np.asarray(self.basis_a, dtype=complex)
        self.basis_b = np.asarray(self.basis_b, dtype=complex)
        d = len(self.coeffs)
        if d > min(self.m, self.n):
            raise RankTooLargeError(
                f"rank {d} exceeds min dimension {min(self.m, self.n)}"
            )
        # negated tests, so that NaN entries fail them too
        if not abs(float(self.coeffs @ self.coeffs) - 1.0) <= 1e-9:
            raise NormViolationError("Schmidt coefficients must square-sum to 1")
        for basis, dim in ((self.basis_a, self.m), (self.basis_b, self.n)):
            if basis.shape != (d, dim):
                raise BadParamError(f"basis shape {basis.shape} != ({d}, {dim})")
            linalg.require_orthonormal_rows(basis, "local basis vectors")

    @property
    def rank(self) -> int:
        return len(self.coeffs)

    def coefficient_matrix(self) -> np.ndarray:
        """m x n matrix C with |psi> = sum_ij C_ij |i>(x)|j>."""
        return np.einsum("k,ki,kj->ij", self.coeffs, self.basis_a, self.basis_b)

    def to_vector(self) -> np.ndarray:
        return self.coefficient_matrix().reshape(self.m * self.n)

    def projector(self) -> BipartiteOperator:
        v = self.to_vector()
        return BipartiteOperator(self.m, self.n, np.outer(v, v.conj()))

    @classmethod
    def from_vector(cls, vec: np.ndarray, m: int, n: int) -> "PureState":
        """Schmidt-decompose a dense unit vector of length m*n."""
        m, n = require_int("m", m, 1), require_int("n", n, 1)
        vec = np.asarray(vec, dtype=complex).reshape(m * n)
        norm = np.linalg.norm(vec)
        # the norm is NaN exactly when an entry is
        if np.isnan(norm):
            raise BadParamError("vector has NaN entries")
        if abs(norm - 1.0) > 1e-9:
            raise NormViolationError(f"vector norm {norm} != 1")
        u, s, v = linalg.svd(vec.reshape(m, n))
        # d >= 1: a unit vector has a Schmidt coefficient >= 1/sqrt(min(m, n))
        d = int(np.sum(s > SCHMIDT_RANK_TOL))
        return cls(
            m=m,
            n=n,
            coeffs=s[:d],
            basis_a=u[:, :d].T,
            basis_b=v[:, :d].conj().T,
        )


def pure_from_schmidt(coeffs, m: int, n: int) -> PureState:
    """Pure state with given Schmidt coefficients on the canonical bases.

    coeffs is a 1-D array of real numbers (linalg.require_real_vector).
    Accepts square sums within 1e-6 of one (printed reference values are
    rounded to about six digits) and renormalizes exactly.  A non-finite
    coefficient fails the sign or the square-sum rule, with their errors.
    """
    m, n = _require_dims(m, n)
    # an infinity fails the rules below, and NaN PureState's square sum
    coeffs = linalg.require_real_vector("coeffs", coeffs, finite=False)
    if np.any(coeffs <= 0):
        raise BadSpectrumError("Schmidt coefficients must be positive")
    d = len(coeffs)
    if d > min(m, n):
        raise RankTooLargeError(f"rank {d} exceeds min({m}, {n})")
    if abs(float(coeffs @ coeffs) - 1.0) > 1e-6:
        raise NormViolationError("Schmidt coefficients must square-sum to 1")
    order = np.argsort(-coeffs, kind="stable")
    coeffs = coeffs[order] / np.sqrt(float(coeffs @ coeffs))
    basis_a = np.eye(m, dtype=complex)[:d]
    basis_b = np.eye(n, dtype=complex)[:d]
    return PureState(m=m, n=n, coeffs=coeffs, basis_a=basis_a, basis_b=basis_b)


def max_entangled(m: int, n: int, j: int = 1) -> PureState:
    """The j-th maximally entangled state (1/sqrt(m)) sum_i |i, i+(j-1)m>.

    Valid for 1 <= j <= floor(n/m); consecutive j values occupy disjoint
    blocks of the second factor.
    """
    m, n = _require_dims(m, n)
    j = require_int("j", j, 1)
    if j > n // m:
        raise IndexOutOfRangeError(f"j={j} outside 1..{n // m} for dims ({m},{n})")
    coeffs = np.full(m, 1.0 / np.sqrt(m))
    basis_a = np.eye(m, dtype=complex)
    basis_b = np.zeros((m, n), dtype=complex)
    for i in range(m):
        basis_b[i, i + (j - 1) * m] = 1.0
    return PureState(m=m, n=n, coeffs=coeffs, basis_a=basis_a, basis_b=basis_b)


def pt_spectrum_pure(psi: PureState) -> np.ndarray:
    """Closed-form spectrum of the partial transpose of |psi><psi|.

    Returns, sorted non-increasing: a_j^2 for each Schmidt coefficient,
    +/- a_i a_j for each pair i < j, and mn - d^2 zeros.
    """
    a = psi.coeffs
    i, j = np.triu_indices(len(a), 1)
    pairs = a[i] * a[j]
    zeros = np.zeros(psi.m * psi.n - len(a) ** 2)
    return np.sort(np.concatenate([a * a, pairs, -pairs, zeros]))[::-1]


# ---------------------------------------------------------------------------
# Canonical (named) states.

def _require_dims(m: int, n: int) -> tuple[int, int]:
    """Local dimensions as ints, both at least 2."""
    return require_int("m", m, 2), require_int("n", n, 2)


def _dims(m, n) -> tuple[int, int]:
    """Local dimensions of a named state; n defaults to m."""
    return _require_dims(m, m if n is None else n)


def _diag_state(head, m: int, n: int, normalized=True) -> BipartiteOperator:
    """diag(head, 1, ..., 1) on C^m (x) C^n, at unit trace when normalized."""
    if normalized not in (True, False):
        raise BadParamError(f"normalized={normalized!r} is not a bool, 0 or 1")
    diag = np.ones(m * n)
    diag[: len(head)] = head
    mat = np.diag(diag.astype(complex))
    if normalized:
        mat = mat / np.trace(mat).real
    return BipartiteOperator(m, n, mat)


def _zeta1(m=3, l=1) -> BipartiteOperator:
    m, l = require_int("m", m, 2), require_int("l", l, 1)
    if l > m * m:
        raise BadParamError(f"l={l} outside 1..{m * m}")
    return _diag_state([(m + 1.0) / (m - 1.0)] * l, m, m)


def _gamma_base() -> np.ndarray:
    g = np.array(
        [
            [1, 0, 0, 0, 0, 0, 0, 0, -1],
            [0, 2, 0, -1, 0, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0, 1, 0, 0],
            [0, -1, 0, 1, 0, 0, 0, 0, 1],
            [0, 0, 0, 0, 1, 0, 1, 0, 0],
            [0, 0, 0, 0, 0, 1, 0, -1, 0],
            [0, 0, 1, 0, 1, 0, 2, 0, 0],
            [0, 0, 0, 0, 0, -1, 0, 1, 0],
            [-1, 0, 0, 1, 0, 0, 0, 0, 3],
        ],
        dtype=complex,
    )
    return g / 13.0


_SHIFT3 = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
_SIGN3 = np.diag([-1.0, -1.0, 1.0]).astype(complex)
_FLIP3 = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)


def _gamma_variant(u: np.ndarray) -> BipartiteOperator:
    f = np.kron(u, _FLIP3)
    return BipartiteOperator(3, 3, pt_mat(f @ _gamma_base() @ f.conj().T, 3, 3))


def rho_b_state(b: float) -> BipartiteOperator:
    """Rank-five 2x4 bound entangled edge state, parametrized by a real
    number b in (0, 1)."""
    b = require_real("b", b, "(0, 1)")
    r = np.zeros((8, 8))
    for i in range(4):
        r[i, i] = b
    r[5, 5] = r[6, 6] = b
    r[0, 5] = r[5, 0] = b
    r[1, 6] = r[6, 1] = b
    r[2, 7] = r[7, 2] = b
    r[4, 4] = r[7, 7] = (1.0 + b) / 2.0
    r[4, 7] = r[7, 4] = np.sqrt(1.0 - b * b) / 2.0
    return BipartiteOperator(2, 4, r.astype(complex) / (7.0 * b + 1.0))


def rho_a_state(a: float) -> BipartiteOperator:
    """Rank-seven two-qutrit bound entangled edge state, parametrized by a
    real number a in (0, 1)."""
    a = require_real("a", a, "(0, 1)")
    r = np.zeros((9, 9))
    for i in range(9):
        r[i, i] = a
    r[6, 6] = r[8, 8] = (a + 1.0) / 2.0
    r[0, 4] = r[4, 0] = a
    r[0, 8] = r[8, 0] = a
    r[4, 8] = r[8, 4] = a
    r[6, 8] = r[8, 6] = np.sqrt(1.0 - a * a) / 2.0
    return BipartiteOperator(3, 3, r.astype(complex) / (8.0 * a + 1.0))


def tiles_upb_vectors() -> list[np.ndarray]:
    """The five tiles product vectors: real, mutually orthogonal, and
    unextendible in C^3 (x) C^3."""
    e = np.eye(3)
    s2 = np.sqrt(2.0)

    def pv(a, b):
        return np.kron(a, b).astype(complex)

    return [
        pv(e[0], (e[0] - e[1]) / s2),
        pv(e[2], (e[1] - e[2]) / s2),
        pv((e[0] - e[1]) / s2, e[2]),
        pv((e[1] - e[2]) / s2, e[0]),
        pv(e[0] + e[1] + e[2], e[0] + e[1] + e[2]) / 3.0,
    ]


def tiles_upb_state() -> BipartiteOperator:
    """Rank-four PPT entangled edge state: the normalized projector onto
    the orthocomplement of the tiles product basis."""
    mat = np.eye(9, dtype=complex)
    for v in tiles_upb_vectors():
        mat -= np.outer(v, v.conj())
    return BipartiteOperator(3, 3, mat / 4.0)


# Each canonical state's builder; its keyword parameters are the keys the
# state takes, and any other key is an error.
_STATES = {
    "zeta1": _zeta1,
    "zeta2": lambda m=3, n=None: _diag_state([3.0], *_dims(m, n)),
    "rho1": lambda m=3, n=None, normalized=True: _diag_state(
        [np.sqrt(2.0) + 1.0] * 2, *_dims(m, n), normalized
    ),
    "rho2": lambda m=3, n=None, normalized=True: _diag_state(
        [2.0] * 3, *_dims(m, n), normalized
    ),
    "rho_b": lambda b=0.9: rho_b_state(b),
    "rho_a": lambda a=0.9: rho_a_state(a),
    "gamma": lambda: BipartiteOperator(3, 3, _gamma_base()),
    "gamma_prime": lambda: _gamma_variant(_SIGN3),
    "gamma1": lambda: _gamma_variant(_SHIFT3),
    "gamma2": lambda: _gamma_variant(_SIGN3),
    "tiles_upb": tiles_upb_state,
    "max_ball_center": lambda m=3, n=None: _diag_state([], *_dims(m, n)),
}
CANONICAL_NAMES = tuple(_STATES)


def canonical_state(name: str, **params) -> BipartiteOperator:
    """Construct a named reference state.

    zeta1(m, l)        diag with l copies of (m+1)/(m-1) then ones; inside
                       the maximal ball for every l in 1..m^2.
    zeta2(m, n)        diag(3, 1, ..., 1)/(mn+2); absolutely separable.
    rho1(m, n)         diag(sqrt2+1, sqrt2+1, 1, ...); absolutely PPT.
    rho2(m, n)         diag(2, 2, 2, 1, ...); absolutely PPT.
                       Both accept normalized=False for the raw diagonal.
    rho_b(b=0.9)       2x4 bound entangled edge state, b in (0, 1).
    rho_a(a=0.9)       3x3 bound entangled edge state, a in (0, 1).
    gamma              two-qutrit PPT entangled state with trace one.
    gamma_prime        sign/flip conjugated partial transpose of gamma;
                       orthogonal to the transposed qutrit Bell projector.
    gamma1, gamma2     cyclic-shift / sign variants used by the NPT
                       detection pipeline.
    tiles_upb          normalized complement of the tiles product basis.
    max_ball_center(m, n)  maximally mixed state.

    n defaults to m; m, n and l must be integer values (linalg.require_int),
    a and b real numbers (linalg.require_real).  A key the named state does
    not take raises BadParamError.
    """
    if name not in _STATES:
        raise BadParamError(f"unknown canonical state {name!r}")
    build = _STATES[name]
    unknown = sorted(set(params) - set(inspect.signature(build).parameters))
    if unknown:
        raise BadParamError(f"{name} takes no parameter {', '.join(unknown)}")
    return build(**params)


# ---------------------------------------------------------------------------
# Predicates.

def is_in_maximal_ball(rho: BipartiteOperator) -> bool:
    """True iff tr(rho^2) <= 1/(mn-1); such states stay separable under
    every global unitary."""
    tr = rho.trace()
    if abs(tr - 1.0) > 1e-9:
        raise TraceViolationError(f"trace {tr} != 1")
    purity = float(np.trace(rho.mat @ rho.mat).real)
    return purity <= 1.0 / (rho.dim - 1) + 1e-12


def as_2xn_test(spectrum) -> bool:
    """Absolute separability test for 2 x n spectra:
    lam_1 <= lam_{2n-1} + 2 sqrt(lam_{2n-2} lam_{2n}).

    spectrum is a 1-D array of finite real numbers
    (linalg.require_real_vector) of even length at least 4, non-negative
    and summing to 1."""
    lam = linalg.require_real_vector("spectrum", spectrum)
    if len(lam) < 4 or len(lam) % 2 != 0:
        raise BadSpectrumError(f"need an even length >= 4, got {lam.shape}")
    if np.any(lam < -1e-12):
        raise BadSpectrumError("spectrum has negative entries")
    if abs(lam.sum() - 1.0) > 1e-9:
        raise BadSpectrumError(f"spectrum sums to {lam.sum()}, not 1")
    lam = np.sort(lam)[::-1]
    rhs = lam[-2] + 2.0 * np.sqrt(max(lam[-3], 0.0) * max(lam[-1], 0.0))
    return bool(lam[0] <= rhs + 1e-12)


def is_ppt(rho: BipartiteOperator) -> bool:
    """True iff the partial transpose is positive semidefinite
    (linalg.is_psd)."""
    return linalg.is_psd(pt_mat(rho.mat, rho.m, rho.n))


# ---------------------------------------------------------------------------
# Seeded sampling.

def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex Gaussian array: the real parts are drawn first."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def haar_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = _complex_gaussian(rng, dim)
    return v / np.linalg.norm(v)


def _haar_from_gaussian(g: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries from complex Gaussian matrices, one per
    matrix of the stack (..., d, d): the QR factor Q with the phases of
    R's diagonal moved onto its columns."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary from the QR of a complex Gaussian matrix
    with the R diagonal phases fixed."""
    dim = require_int("dim", dim, 1)
    return _haar_from_gaussian(_complex_gaussian(rng, (dim, dim)))


def _wishart(rng: np.random.Generator, d: int, rank: int) -> np.ndarray:
    """Unit-trace d x d Wishart matrix G G^dag of a complex Gaussian d x rank G."""
    g = _complex_gaussian(rng, (d, rank))
    w = g @ g.conj().T
    return w / np.trace(w).real


def random_state(kind: str, m: int, n: int, rank: int | None = None, seed: int = 0):
    """Seeded sampler: kind 'pure_haar' gives a PureState, 'density_wishart'
    a PSD unit-trace BipartiteOperator of the requested rank."""
    seed = require_int("seed", seed, 0)
    m, n = _require_dims(m, n)
    d = m * n
    rng = np.random.default_rng(seed)
    if kind == "pure_haar":
        return PureState.from_vector(haar_vector(d, rng), m, n)
    if kind == "density_wishart":
        rank = d if rank is None else require_int("rank", rank, 1)
        if rank > d:
            raise BadRankError(f"rank {rank} outside 1..{d}")
        return BipartiteOperator(m, n, _wishart(rng, d, rank))
    raise BadParamError(f"unknown sampling kind {kind!r}")
