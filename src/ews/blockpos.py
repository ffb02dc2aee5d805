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
from .linalg import BipartiteOperator, eig_hermitian, is_psd, pt_mat
from .linalg import require_int, require_orthonormal_rows, tolerance_scale
from .states import haar_vector

SEESAW_ITER_CAP = 500
# A search in which no restart has converged within this many rounds fails.
SEESAW_ITER_CEILING = 20 * SEESAW_ITER_CAP
SEESAW_VALUE_TOL = 1e-12
DEFAULT_RESTARTS = 64
AGREE_TOL = 1e-6
AGREE_MIN = 4
# The restart counts behind every see-saw answer, in output order; the
# agreement rule (`OptResult.backed`) judges the last of them.
EVIDENCE = ("restarts_tried", "restarts_converged", "restarts_agreeing")


@dataclass
class OptResult:
    """Best product-vector expectation found plus restart statistics;
    restarts_agreeing counts the converged restarts within AGREE_TOL *
    tolerance_scale(W) of the best value, W the operator searched.  A
    min search stopped at its `below` threshold holds the first product
    vector found under it, the restarts converged before the stop, 0
    agreeing restarts and the restart-iterations it ran."""

    value: float
    vec_a: np.ndarray = field(repr=False)
    vec_b: np.ndarray = field(repr=False)
    restarts_tried: int
    restarts_converged: int
    restarts_agreeing: int
    iterations: int

    @property
    def backed(self) -> bool:
        """The see-saw evidence: at least AGREE_MIN restarts agree, so a
        search of fewer restarts never backs its value."""
        return self.restarts_agreeing >= AGREE_MIN


@dataclass
class BlockPositivityVerdict:
    """The answer of `is_block_positive` and the counts of its search.  A
    `no` carries the first product vector found below the cut, as
    (vec_a, vec_b, value) in `counterexample` and its value in `value`,
    not the minimum; its search stopped there, so it has 0 agreeing
    restarts."""

    status: str  # yes-psd | yes-heuristic | no | inconclusive
    counterexample: tuple | None
    restarts_tried: int
    restarts_converged: int
    iterations: int
    restarts_agreeing: int
    value: float | None = None


def evidence(result: OptResult | BlockPositivityVerdict) -> dict:
    """The EVIDENCE counts of a search or a verdict, keyed by name."""
    return {key: getattr(result, key) for key in EVIDENCE}


def _reduced(wv: np.ndarray, v: np.ndarray, keep: int, dim: int) -> np.ndarray:
    """<v|W|v> on the other party, a (keep, keep) matrix for each row of
    the (r, dim) stack v.  wv is W's tensor with v's bra index first and
    v's ket index last, shape (dim, keep*keep*dim): one matmul contracts the
    bra index with conj(v), a batched one the ket index with v."""
    return ((v.conj() @ wv).reshape(-1, keep, keep, dim) @ v[:, None, :, None])[..., 0]


def _require_search(restarts, seed) -> tuple[int, int]:
    """A search's restart count, at least 1, and seed, at least 0, as ints."""
    return require_int("restarts", restarts, 1), require_int("seed", seed, 0)


def _extreme_eigvec(h: np.ndarray, mode: str):
    """Extreme eigenvalue and eigenvector of each matrix in an (r, k, k)
    stack.  The stack is Hermitian up to the rounding of its reduction,
    which `eig_hermitian` checks; LAPACK reads its lower triangle."""
    eig = eig_hermitian(h)
    if mode == "min":
        return eig.values[:, -1], eig.vectors[:, :, -1]
    return eig.values[:, 0], eig.vectors[:, :, 0]


def _seesaw(
    op: BipartiteOperator, restarts: int, seed: int, mode: str,
    below: float | None = None,
) -> OptResult:
    """All restarts step together; a restart leaves the live set once its
    value moves by less than SEESAW_VALUE_TOL.  Fewer than one restart is
    a search that never runs and raises BadParamError.

    With `below` set, the search returns in the first round in which a
    live value that has passed the monotone check lies under it, with the
    restart holding the round's lowest value (the first in restart order
    on a tie); see `OptResult` for the counts of such a result.

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

    Restart r starts from a Haar vector drawn from default_rng([seed, r]),
    so every (seed, restart) pair has its own start and two seeds never
    share a start set.
    """
    restarts, seed = _require_search(restarts, seed)
    m, n = op.m, op.n
    # W[i, j, k, l] laid out for the two reductions: (i; j, l, k) to trace
    # out a, (j; i, k, l) to trace out b
    w4 = op.mat.reshape(m, n, m, n)
    wa = w4.transpose(0, 1, 3, 2).reshape(m, n * n * m)
    wb = w4.transpose(1, 0, 2, 3).reshape(n, m * m * n)
    sign = 1.0 if mode == "min" else -1.0

    # the first half-step overwrites b, so only a is drawn
    a_live = np.array(
        [haar_vector(m, np.random.default_rng([seed, r])) for r in range(restarts)],
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
        _, b_live = _extreme_eigvec(_reduced(wa, a_live, n, m), mode)
        val, a_live = _extreme_eigvec(_reduced(wb, b_live, m, n), mode)
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
        if below is not None:
            i = val.argmin()
            if val[i] < below:
                return OptResult(
                    value=float(val[i]),
                    vec_a=a_live[i],
                    vec_b=b_live[i],
                    restarts_tried=restarts,
                    restarts_converged=int(converged.sum()),
                    restarts_agreeing=0,
                    iterations=total_iters,
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
    agree_tol = AGREE_TOL * tolerance_scale(op.mat)
    return OptResult(
        value=float(vals[best]),
        vec_a=a[best],
        vec_b=b[best],
        restarts_tried=restarts,
        restarts_converged=len(idx),
        restarts_agreeing=int(np.sum(np.abs(conv_vals - vals[best]) <= agree_tol)),
        iterations=total_iters,
    )


def product_expectation_min(
    op: BipartiteOperator,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    *,
    below: float | None = None,
) -> OptResult:
    """Heuristic minimum of <a,b|W|a,b> over unit product vectors.

    Each restart alternates exact minimizations over the two factors
    (the value sequence is non-increasing) until the objective moves by
    less than SEESAW_VALUE_TOL.

    A caller that asks only whether some product vector goes under a
    threshold passes it as `below`: the search then stops at the first
    product vector whose value lies under it and returns that vector and
    its value, with `restarts_agreeing` 0, since a value found below the
    threshold is its own proof and no minimum was established.  A search
    that never goes under `below` returns what it would without it.
    """
    return _seesaw(op, restarts, seed, "min", below=below)


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
    Otherwise the see-saw decides, with scale = tolerance_scale(W).  It
    stops at the first product vector whose value lies below -1e-9 * scale,
    converged or not, and that vector is a counterexample (no).  A search
    that finds none gives its minimum: a value of at least -1e-12 * scale
    that enough restarts back (`OptResult.restarts_agreeing`, judged by
    `OptResult.backed`) is yes-heuristic, which is evidence rather than
    proof; everything else is inconclusive.  Restarts and seed are checked
    first, so a bad one raises BadParamError even for yes-psd.
    """
    restarts, seed = _require_search(restarts, seed)
    if is_psd(op.mat) or is_psd(pt_mat(op.mat, op.m, op.n)):
        return BlockPositivityVerdict("yes-psd", None, 0, 0, 0, 0)
    scale = tolerance_scale(op.mat)
    cut = -1e-9 * scale
    try:
        opt = product_expectation_min(op, restarts=restarts, seed=seed, below=cut)
    except NoConvergedRestartError:
        return BlockPositivityVerdict(
            "inconclusive", None, restarts, 0, restarts * SEESAW_ITER_CEILING, 0
        )
    if opt.value < cut:
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

    Returns (vec_a, vec_b) of the first product vector whose residual
    drops below 1e-10, where the search stops, else None (heuristic
    absence).  Unlike a minimum, a product vector found needs no
    `OptResult.restarts_agreeing` evidence: it is its own proof.  A basis of
    the wrong length or with rows that are not orthonormal
    (`linalg.require_orthonormal_rows`, which NaN rows fail) raises
    BadParamError.
    """
    m, n = require_int("m", m, 1), require_int("n", n, 1)
    basis = np.asarray(basis, dtype=complex)
    if basis.ndim == 1:
        basis = basis[None, :]
    _, d = basis.shape
    if m * n != d:
        raise BadParamError(f"basis lives in dimension {d} != {m}*{n}")
    require_orthonormal_rows(basis, "basis rows")
    proj = basis.T @ basis.conj()
    comp = BipartiteOperator(m, n, np.eye(d, dtype=complex) - proj)
    opt = product_expectation_min(comp, restarts=restarts, seed=seed, below=1e-10)
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

