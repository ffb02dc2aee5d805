"""Optimization of <a,b|W|a,b> over product vectors by alternating
eigenvector (see-saw) iteration with seeded multi-start, plus structural
block-positivity checks.

The see-saw is a heuristic: each restart converges monotonically to a
local optimum, and the multi-start minimum/maximum is reported together
with restart statistics; `OptResult.restarts_agreeing` counts the
converged restarts that reproduce the best value, and `OptResult.backed`
judges the value by that count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadParamError, NoConvergedRestartError, NoConvergenceError
from .linalg import BipartiteOperator, eig_hermitian, fro_norm, is_psd, pt_mat
from .states import _require_seed, haar_vector

SEESAW_ITER_CAP = 500
# A search in which no restart has converged within this many rounds fails.
SEESAW_ITER_CEILING = 20 * SEESAW_ITER_CAP
SEESAW_VALUE_TOL = 1e-12
DEFAULT_RESTARTS = 64
AGREE_TOL = 1e-6
AGREE_MIN = 4


@dataclass
class OptResult:
    """Best product-vector expectation found plus restart statistics;
    restarts_agreeing counts the converged restarts within AGREE_TOL *
    max(1, ||W||_F) of the best value, W the operator searched."""

    value: float
    vec_a: np.ndarray = field(repr=False)
    vec_b: np.ndarray = field(repr=False)
    restarts_tried: int
    restarts_converged: int
    restarts_agreeing: int
    spread: float
    iterations: int

    @property
    def backed(self) -> bool:
        """The see-saw evidence: min(restarts tried, AGREE_MIN) agree."""
        return self.restarts_agreeing >= min(self.restarts_tried, AGREE_MIN)


@dataclass
class BlockPositivityVerdict:
    status: str  # yes-psd | yes-heuristic | no | inconclusive
    counterexample: tuple | None
    restarts_tried: int
    restarts_converged: int
    iterations: int
    restarts_agreeing: int
    value: float | None = None


def _reduced_on_b(w4: np.ndarray, a: np.ndarray) -> np.ndarray:
    return np.einsum("ri,ijkl,rk->rjl", a.conj(), w4, a)


def _reduced_on_a(w4: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("rj,ijkl,rl->rik", b.conj(), w4, b)


def _extreme_eigvec(h: np.ndarray, mode: str):
    """Extreme eigenvalue and eigenvector of each matrix in an (r, k, k)
    stack, after symmetrising away roundoff."""
    h = (h + h.swapaxes(-1, -2).conj()) / 2.0
    eig = eig_hermitian(h)
    if mode == "min":
        return eig.values[:, -1], eig.vectors[:, :, -1]
    return eig.values[:, 0], eig.vectors[:, :, 0]


def _seesaw(op: BipartiteOperator, restarts: int, seed: int, mode: str) -> OptResult:
    """All restarts step together; a restart leaves the live set once its
    value moves by less than SEESAW_VALUE_TOL.  Fewer than one restart is
    a search that never runs and raises BadParamError.

    The live restarts' vectors and values are carried from one iteration
    to the next; a restart's vectors and value are written into the
    per-restart arrays only in the iteration it converges.  The search
    stops after SEESAW_ITER_CAP rounds if a restart has converged by then;
    the restarts still live are dropped, since only converged restarts
    enter the result.  If none has, the live restarts step on, and the
    search stops in the round in which the first of them converges, with
    the restarts converged in that round as its result.  Only when no
    restart converges within SEESAW_ITER_CEILING rounds does it raise
    NoConvergedRestartError.

    Restart r starts from default_rng(seed ^ r), so seeds that map
    range(restarts) onto itself under XOR share one start set, in another
    order: at 64 restarts every seed in 0..63 searches the same 64 starts
    and returns the same value after the same number of iterations.
    """
    if restarts < 1:
        raise BadParamError(f"restarts must be at least 1, got {restarts}")
    _require_seed(seed)
    m, n = op.m, op.n
    w4 = op.mat.reshape(m, n, m, n)
    sign = 1.0 if mode == "min" else -1.0

    # restart r starts from a Haar vector a drawn from default_rng(seed ^ r);
    # the first half-step overwrites b
    a_live = np.array(
        [haar_vector(m, np.random.default_rng(seed ^ r)) for r in range(restarts)],
        dtype=complex,
    ).reshape(restarts, m)
    a = np.empty_like(a_live)
    b = np.empty((restarts, n), dtype=complex)
    vals = np.empty(restarts)
    converged = np.zeros(restarts, dtype=bool)
    live = np.arange(restarts)
    prev = np.full(restarts, sign * np.inf)
    total_iters = 0
    for rounds in range(1, SEESAW_ITER_CEILING + 1):
        total_iters += live.size
        _, b_live = _extreme_eigvec(_reduced_on_b(w4, a_live), mode)
        val, a_live = _extreme_eigvec(_reduced_on_a(w4, b_live), mode)
        delta = sign * (val - prev)
        # each half-step is an exact local optimization, so the value
        # sequence must be monotone up to roundoff; NaN fails this too
        wrong = ~(delta <= 1e-9)
        if wrong.any():
            i = int(np.argmax(wrong))
            raise NoConvergenceError(
                f"see-saw {mode} value moved the wrong way: "
                f"{float(prev[i])!r} -> {float(val[i])!r}"
            )
        done = np.abs(delta) < SEESAW_VALUE_TOL
        if done.any():
            idx = live[done]
            a[idx], b[idx], vals[idx] = a_live[done], b_live[done], val[done]
            converged[idx] = True
            keep = ~done
            live, a_live, val = live[keep], a_live[keep], val[keep]
        if live.size == 0 or (rounds >= SEESAW_ITER_CAP and converged.any()):
            break
        prev = val
    if not converged.any():
        raise NoConvergedRestartError(
            f"none of {restarts} restarts converged within "
            f"{SEESAW_ITER_CEILING} iterations"
        )
    idx = np.flatnonzero(converged)
    conv_vals = vals[idx]
    # the first converged restart holding the extreme value, as a loop over
    # restarts in order would keep it
    best = idx[np.argmin(sign * conv_vals)]
    agree_tol = AGREE_TOL * max(1.0, fro_norm(op.mat))
    return OptResult(
        value=float(vals[best]),
        vec_a=a[best],
        vec_b=b[best],
        restarts_tried=restarts,
        restarts_converged=len(idx),
        restarts_agreeing=int(np.sum(np.abs(conv_vals - vals[best]) <= agree_tol)),
        spread=float(conv_vals.max() - conv_vals.min()),
        iterations=total_iters,
    )


def product_expectation_min(
    op: BipartiteOperator, restarts: int = DEFAULT_RESTARTS, seed: int = 0
) -> OptResult:
    """Heuristic minimum of <a,b|W|a,b> over unit product vectors.

    Each restart alternates exact minimizations over the two factors
    (the value sequence is non-increasing) until the objective moves by
    less than SEESAW_VALUE_TOL.
    """
    return _seesaw(op, restarts, seed, "min")


def product_expectation_max(
    op: BipartiteOperator, restarts: int = DEFAULT_RESTARTS, seed: int = 0
) -> OptResult:
    """Heuristic maximum of <a,b|W|a,b> over unit product vectors."""
    return _seesaw(op, restarts, seed, "max")


def is_block_positive(
    op: BipartiteOperator, restarts: int = DEFAULT_RESTARTS, seed: int = 0
) -> BlockPositivityVerdict:
    """Three-way block-positivity check.

    Fast certified paths: W or W^PT positive semidefinite gives yes-psd.
    Otherwise the see-saw minimum decides, with scale = max(1, ||W||_F): a
    value below -1e-9 * scale is a counterexample (no); a value of at least
    -1e-12 * scale that enough restarts back (`OptResult.restarts_agreeing`,
    judged by `OptResult.backed`) is yes-heuristic, which is evidence rather
    than proof; everything else is inconclusive.
    """
    if is_psd(op.mat) or is_psd(pt_mat(op.mat, op.m, op.n)):
        return BlockPositivityVerdict("yes-psd", None, 0, 0, 0, 0)
    try:
        opt = product_expectation_min(op, restarts=restarts, seed=seed)
    except NoConvergedRestartError:
        return BlockPositivityVerdict(
            "inconclusive", None, restarts, 0, restarts * SEESAW_ITER_CEILING, 0
        )
    scale = max(1.0, fro_norm(op.mat))
    if opt.value < -1e-9 * scale:
        status = "no"
    elif opt.value >= -1e-12 * scale and opt.backed:
        status = "yes-heuristic"
    else:
        status = "inconclusive"
    counterexample = (opt.vec_a, opt.vec_b, opt.value) if status == "no" else None
    return BlockPositivityVerdict(
        status, counterexample, opt.restarts_tried, opt.restarts_converged,
        opt.iterations, opt.restarts_agreeing, opt.value,
    )


def product_vector_in_subspace(
    basis: np.ndarray, m: int, n: int, restarts: int = DEFAULT_RESTARTS, seed: int = 0
):
    """Search a subspace (orthonormal rows spanning V in C^m (x) C^n) for a
    product vector by minimizing the residual <a,b|(I - P_V)|a,b>.

    Returns (vec_a, vec_b) when the residual drops below 1e-10, else None
    (heuristic absence).  Unlike a minimum, a product vector found needs no
    `OptResult.restarts_agreeing` evidence: it is its own proof.  A basis of
    the wrong length or with rows that are not orthonormal raises BadParamError.
    """
    basis = np.asarray(basis, dtype=complex)
    if basis.ndim == 1:
        basis = basis[None, :]
    k, d = basis.shape
    if m * n != d:
        raise BadParamError(f"basis lives in dimension {d} != {m}*{n}")
    gram = basis.conj() @ basis.T
    if np.abs(gram - np.eye(k)).max() > 1e-10:
        raise BadParamError("basis rows are not orthonormal")
    proj = basis.T @ basis.conj()
    comp = BipartiteOperator(m, n, np.eye(d, dtype=complex) - proj)
    opt = product_expectation_min(comp, restarts=restarts, seed=seed)
    if opt.value < 1e-10:
        return opt.vec_a, opt.vec_b
    return None


@dataclass
class ZeroPatternViolation:
    rule: str  # "zero-diagonal-block" | "zero-diagonal-entry"
    block: tuple
    inner_index: int | None
    norm: float


def zero_pattern_check(op: BipartiteOperator) -> list[ZeroPatternViolation]:
    """Necessary zero-pattern conditions for block-positivity.

    A vanishing diagonal block forces its whole block row and column to
    vanish; an inner index whose diagonal entry vanishes in every diagonal
    block forces that row and column to vanish inside every block.  Returns
    the list of violations (empty means the pattern is consistent).
    """
    m, n = op.m, op.n
    blocks = op.mat.reshape(m, n, m, n).transpose(0, 2, 1, 3)
    norms = np.linalg.norm(blocks, axis=(2, 3))
    hit = (np.diag(norms) < 1e-10)[:, None] & (norms > 1e-9) & ~np.eye(m, dtype=bool)
    out = [
        ZeroPatternViolation("zero-diagonal-block", (k, j), None, float(norms[k, j]))
        for k, j in np.argwhere(hit).tolist()
    ]
    # inner[k, i, j]: norm of row and column k of block (i, j), entry (k, k) once
    sq = np.abs(blocks) ** 2
    inner = np.sqrt(sq.sum(axis=3) + sq.sum(axis=2) - np.diagonal(sq, axis1=2, axis2=3))
    inner = inner.transpose(2, 0, 1)
    dead = (np.abs(np.einsum("iikk->ik", blocks)) < 1e-10).all(axis=0)
    hit = dead[:, None, None] & (inner > 1e-9)
    return out + [
        ZeroPatternViolation("zero-diagonal-entry", (i, j), k, float(inner[k, i, j]))
        for k, i, j in np.argwhere(hit).tolist()
    ]

