"""Witness construction and analysis.

Covers the parametric block-positive family, transposed-pure-state
witnesses, seeded decomposable-witness sampling, spectral reports with
bound verdicts, mirrored witnesses, kernel-projector witnesses built from
bound entangled edge states, and the local-filter detection pipeline that
certifies any state with non-positive partial transpose (beyond the
qubit-qubit and qubit-qutrit cases) against a nondecomposable witness.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import blockpos, linalg, states
from .errors import (
    BadParamError,
    BadRankError,
    BoostDenominatorError,
    EpsilonVanishesError,
    FullRankError,
    IsPPTError,
    NoConvergedRestartError,
    NoConvergenceError,
    NotPPTError,
    OrthogonalityError,
    ProductStateError,
    TraceViolationError,
)
from .linalg import (
    BipartiteOperator,
    eig_hermitian,
    embed_operator,
    fro_norm,
    kron,
    pt_mat,
)
from .states import PureState, max_entangled, pure_from_schmidt

TAG_DEW = "DEW-by-construction"
TAG_NDEW = "NDEW-certified"
TAG_UNCLASSIFIED = "EW-unclassified"

# Eigenvalues below -KERNEL_TOL * ||sigma||_F are impossible; values under
# +KERNEL_TOL * ||sigma||_F define the kernel of a closed-form edge state.
KERNEL_TOL = 1e-9
# Minimum admissible product-vector margin for the kernel witness.
EPSILON_FLOOR = 1e-7
# A witness W detects a state rho when tr(W rho) < -DETECT_TOL.
DETECT_TOL = 1e-9


@dataclass
class Witness:
    """Unit-trace block-positive operator with provenance.

    The trace is checked at construction (within 1e-9); normalize the
    operator first.  class_tag NDEW-certified requires detected_state to
    hold a PPT state with tr(W rho) < -DETECT_TOL; the negative-eigenvalue
    requirement of a witness is enforced at certification time, not at
    construction.
    """

    op: BipartiteOperator
    class_tag: str = TAG_UNCLASSIFIED
    provenance: dict = field(default_factory=dict)
    detected_state: BipartiteOperator | None = None

    def __post_init__(self):
        if abs(self.op.trace() - 1.0) > 1e-9:
            raise TraceViolationError(f"witness trace {self.op.trace()} != 1")

    @property
    def m(self) -> int:
        return self.op.m

    @property
    def n(self) -> int:
        return self.op.n


@dataclass
class FamilyParams:
    """Convex weights for the four-term block-positive family."""

    a: float
    b: float
    c: float
    d: float
    m: int = 2
    n: int = 2

    def __post_init__(self):
        for name, w in (("a", self.a), ("b", self.b), ("c", self.c), ("d", self.d)):
            if not 0.0 <= w <= 1.0:
                raise BadParamError(f"weight {name}={w} outside [0, 1]")
        if abs(self.a + self.b + self.c + self.d - 1.0) > 1e-12:
            raise BadParamError("weights must sum to 1")
        states._require_dims(self.m, self.n)
        if self.m > self.n:
            raise BadParamError(f"dims ({self.m}, {self.n}) need 2 <= m <= n")


def _basis_ket(m: int, n: int, i: int, j: int) -> np.ndarray:
    v = np.zeros(m * n, dtype=complex)
    v[i * n + j] = 1.0
    return v


def _singlet(m: int, n: int) -> np.ndarray:
    return (_basis_ket(m, n, 0, 1) - _basis_ket(m, n, 1, 0)) / np.sqrt(2.0)


def _pt_projector(psi: PureState) -> np.ndarray:
    return pt_mat(psi.projector().mat, psi.m, psi.n)


def w_family(p: FamilyParams) -> Witness:
    """Four-term block-positive mixture.

    W = a (I - |Omega><Omega|)/(mn-1) + b PT(|Psi_2><Psi_2|)
      + c |11><11| + d PT(|Psi_m><Psi_m|),
    a convex mix of positive and transposed-pure terms, hence decomposable
    by construction, with unit trace.
    """
    m, n = p.m, p.n
    d = m * n
    omega = _singlet(m, n)
    mat = np.zeros((d, d), dtype=complex)
    if p.a:
        mat += p.a * (np.eye(d) - np.outer(omega, omega.conj())) / (d - 1)
    if p.b:
        mat += p.b * _pt_projector(pure_from_schmidt([2 ** -0.5] * 2, m, n))
    if p.c:
        e11 = _basis_ket(m, n, 0, 0)
        mat += p.c * np.outer(e11, e11.conj())
    if p.d:
        mat += p.d * _pt_projector(max_entangled(m, n))
    return Witness(
        op=BipartiteOperator(m, n, mat),
        class_tag=TAG_DEW,
        provenance={"family": "w_abcd", "a": p.a, "b": p.b, "c": p.c, "d": p.d},
    )


def pure_pt_witness(psi: PureState) -> Witness:
    """Partial transpose of a pure entangled state's projector: the extremal
    decomposable witnesses."""
    if psi.rank < 2:
        raise ProductStateError("Schmidt rank one gives a PSD operator, not a witness")
    return Witness(
        op=BipartiteOperator(psi.m, psi.n, _pt_projector(psi)),
        class_tag=TAG_DEW,
        provenance={"family": "pure_pt", "schmidt": [float(c) for c in psi.coeffs]},
    )


def sample_dew(
    m: int, n: int, x: float, rank_p: int = 0, rank_q: int = 0, seed: int = 0
) -> Witness:
    """Seeded random decomposable witness x P + (1-x) PT(Q) with unit-trace
    Wishart factors.  x = 1 is rejected: without the transposed component
    the sample could never acquire a negative eigenvalue."""
    if not 0.0 <= x < 1.0:
        raise BadParamError(f"x={x} outside [0, 1)")
    states._require_dims(m, n)
    states._require_seed(seed)
    d = m * n
    rank_p = rank_p or d
    rank_q = rank_q or d
    if not (1 <= rank_p <= d and 1 <= rank_q <= d):
        raise BadRankError(f"ranks ({rank_p}, {rank_q}) outside 1..{d}")
    rng = np.random.default_rng(seed)
    p_mat = states._wishart(rng, d, rank_p)
    q_mat = states._wishart(rng, d, rank_q)
    mat = x * p_mat + (1.0 - x) * pt_mat(q_mat, m, n)
    return Witness(
        op=BipartiteOperator(m, n, mat),
        class_tag=TAG_DEW,
        provenance={
            "family": "sample_dew",
            "x": x,
            "rank_p": rank_p,
            "rank_q": rank_q,
            "seed": seed,
        },
    )


# ---------------------------------------------------------------------------
# Spectral report.

@dataclass
class ReportBound:
    name: str
    measured: float
    lower: float | None
    upper: float | None
    passed: bool
    attained: bool = False


@dataclass
class SpectrumReport:
    """Spectral scalars of a normalized witness with per-bound verdicts."""

    m: int
    n: int
    lambdas: np.ndarray = field(repr=False)
    lambda1: float
    lambda_min: float
    negativity: float
    fro_sq: float
    neg_count: int
    is_ew: bool
    bounds: list[ReportBound] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(b.passed for b in self.bounds)


BOUND_TOL = 1e-9


def bound_table(m: int, n: int) -> list[tuple]:
    """Sharp bounds on a unit-trace witness on C^m (x) C^n, in report order.

    Each row is (name, lower, upper, attained_at).  attained_at names the
    side some witness reaches ("lower" or "upper"), or None where the
    report does not flag attainment.  Bounds are builtin floats or ints,
    None where a side is unbounded.
    """
    d = m * n
    rows = [
        ("lambda1", 1.0 / (d - 1), 1.0, None),
        ("lambda_min", -0.5, 0.0, "lower"),
        ("fro_sq", 1.0 / (d - 1), 1.0, "upper"),
        ("neg_count", None, (m - 1) * (n - 1), None),
    ]
    # a witness on C^m (x) C^2 has the spectrum of its factor swap on C^2 (x) C^m
    if min(m, n) == 2:
        rows += [
            ("pair_sum", 0.0, None, None),
            ("tail_from_3", -1.0 / (2.0 + 2.0 * math.sqrt(2.0)), None, None),
            ("tail_from_4_on", -0.5, None, None),
        ]
    if m == n:
        rows.append(("negativity", None, (m - 1) / 2.0, "upper"))
    return rows


# How the qubit tail-sum rows of the bound table are measured on a report,
# only where the table lists them; every other row reads the report field
# of its name.
_TAIL_MEASURE = {
    "pair_sum": lambda r: r.lambdas[1] + r.lambdas[-1],
    "tail_from_3": lambda r: r.lambdas[2:].sum(),
    "tail_from_4_on": lambda r: min(
        r.lambdas[k - 1 :].sum() for k in range(4, len(r.lambdas) + 1)
    ),
}


def spectral_report(w) -> SpectrumReport:
    """Eigenvalue summary plus verdicts against the normalized-witness
    bound table.  PSD input is flagged as not a witness and carries no
    bound rows.  A trivial factor (m or n below 2) admits no witness and
    raises BadParamError."""
    op = w.op if isinstance(w, Witness) else w
    m, n = op.m, op.n
    states._require_dims(m, n)
    lam = eig_hermitian(op.mat).values
    neg = lam[lam < linalg.negative_cut(op.mat)]
    report = SpectrumReport(
        m=m,
        n=n,
        lambdas=lam,
        lambda1=float(lam[0]),
        lambda_min=float(lam[-1]),
        negativity=float(-neg.sum()),
        fro_sq=float((lam * lam).sum()),
        neg_count=int(len(neg)),
        is_ew=bool(len(neg) > 0),
    )
    if not report.is_ew:
        return report
    for name, lower, upper, attained_at in bound_table(m, n):
        tail = _TAIL_MEASURE.get(name)
        value = tail(report) if tail else getattr(report, name)
        ok = (lower is None or value >= lower - BOUND_TOL) and (
            upper is None or value <= upper + BOUND_TOL
        )
        edge = {"lower": lower, "upper": upper}.get(attained_at)
        attained = edge is not None and abs(value - edge) <= BOUND_TOL
        report.bounds.append(
            ReportBound(name, float(value), lower, upper, bool(ok), attained)
        )
    return report


# ---------------------------------------------------------------------------
# Mirrored witnesses.

@dataclass
class MirrorResult:
    mu: float
    w_m: BipartiteOperator
    verdict: str  # mirror-EW | mirror-PSD | inconclusive
    opt: blockpos.OptResult


def mirror(
    w: Witness, restarts: int = blockpos.DEFAULT_RESTARTS, seed: int = 0
) -> MirrorResult:
    """Mirror operator mu I - W with mu the largest product-vector
    expectation of W, found by one see-saw max search.

    The mirror is `mirror-PSD` when it passes the PSD rule
    (`linalg.is_psd`), and `mirror-EW` when its partial transpose does,
    which proves it block-positive.  Otherwise the max search decides:
    <a,b|mu I - W|a,b> = mu - <a,b|W|a,b>, so the mirror's product minimum
    is 0 exactly when mu is the maximum, and the mirror is `mirror-EW` when
    the max search backs mu (`OptResult.restarts_agreeing`, counted at the
    scale of W and judged by `OptResult.backed`), else `inconclusive`.  A
    min search on the mirror from the same starts would retrace the max
    search, so none is run.  Input tagged `EW-unclassified` is first
    checked block-positive with `is_block_positive`."""
    if w.class_tag == TAG_UNCLASSIFIED:
        bp = blockpos.is_block_positive(w.op, restarts=restarts, seed=seed)
        if bp.status == "no":
            raise BadParamError("input operator is not block-positive")
    opt = blockpos.product_expectation_max(w.op, restarts=restarts, seed=seed)
    mu = opt.value
    d = w.op.dim
    w_m = BipartiteOperator(w.m, w.n, mu * np.eye(d, dtype=complex) - w.op.mat)
    if linalg.is_psd(w_m.mat):
        verdict = "mirror-PSD"
    elif linalg.is_psd(pt_mat(w_m.mat, w.m, w.n)) or opt.backed:
        verdict = "mirror-EW"
    else:
        verdict = "inconclusive"
    return MirrorResult(mu=float(mu), w_m=w_m, verdict=verdict, opt=opt)


# ---------------------------------------------------------------------------
# Nondecomposable witnesses from edge states.

@dataclass
class NdewParams:
    z: float = 1.0
    delta: float = 1e-3

    def __post_init__(self):
        for name, value in (("z", self.z), ("delta", self.delta)):
            if not 0.0 < value < math.inf:
                raise BadParamError(f"{name}={value} must be positive and finite")


def _kernel_projector(mat: np.ndarray) -> tuple[np.ndarray, int]:
    eig = eig_hermitian(mat)
    cut = KERNEL_TOL * fro_norm(mat)
    cols = eig.vectors[:, eig.values < cut]
    return cols @ cols.conj().T, cols.shape[1]


def ndew_from_edge(
    sigma: BipartiteOperator,
    params: NdewParams | None = None,
    restarts: int = blockpos.DEFAULT_RESTARTS,
    seed: int = 0,
) -> Witness:
    """Certified nondecomposable witness from a bound entangled edge state.

    With P, Q the kernel projectors of sigma and of its partial transpose,
    the operator z P + PT(Q) has zero expectation on sigma yet a strictly
    positive product-vector minimum epsilon; subtracting delta < epsilon
    times the identity yields a block-positive operator with
    tr(W sigma) < 0, which certifies both entanglement of sigma and
    nondecomposability of W.  epsilon is a see-saw multistart minimum,
    trusted only when its `OptResult.restarts_agreeing` back it (unconverged
    restarts count neither way); delta is capped at half of it.
    """
    params = params or NdewParams()
    m, n = sigma.m, sigma.n
    d = m * n
    if not states.is_ppt(sigma):
        raise NotPPTError("sigma must have a positive partial transpose")
    proj_p, dim_p = _kernel_projector(sigma.mat)
    proj_q, dim_q = _kernel_projector(pt_mat(sigma.mat, m, n))
    if dim_p == 0 or dim_q == 0:
        raise FullRankError("sigma and its partial transpose must both have kernels")

    candidate = BipartiteOperator(
        m, n, params.z * proj_p + pt_mat(proj_q, m, n)
    )
    opt = blockpos.product_expectation_min(candidate, restarts=restarts, seed=seed)
    eps = opt.value
    if eps <= EPSILON_FLOOR:
        raise EpsilonVanishesError(
            f"product-vector margin {eps:.3e} vanishes; the projector pair "
            "admits no identity shift"
        )
    if not opt.backed:
        raise NoConvergedRestartError(
            f"margin estimate not reproducible: {opt.restarts_agreeing} "
            "restarts agree at the best value"
        )
    delta = min(params.delta, eps / 2.0)
    norm = params.z * dim_p + dim_q - d * delta
    mat = (candidate.mat - delta * np.eye(d)) / norm
    op = BipartiteOperator(m, n, mat)
    expectation = float(np.trace(op.mat @ sigma.mat).real)
    if expectation >= -DETECT_TOL:
        raise EpsilonVanishesError(
            f"detection expectation {expectation:.3e} not negative"
        )
    return Witness(
        op=op,
        class_tag=TAG_NDEW,
        detected_state=sigma,
        provenance={
            "family": "ndew_from_edge",
            "z": params.z,
            "delta": delta,
            "epsilon_estimate": eps,
            "epsilon_spread": opt.spread,
            "restarts_converged": opt.restarts_converged,
            "expectation": expectation,
        },
    )


def boost_witness(w: Witness, psi: PureState, t: float = 1.0) -> Witness:
    """Mix a certified witness with the transposed projector of a pure state
    orthogonal (under the partial transpose pairing) to the stored detected
    state: W' = (t PT(|psi><psi|) + W) / (1 + t), for a weight t >= 0.

    Detection of the stored state survives with expectation scaled by
    1/(1+t), while large t drags the spectrum toward that of the
    transposed projector.  The result keeps unit trace and the stored
    state."""
    if w.class_tag != TAG_NDEW or w.detected_state is None:
        raise BadParamError("boost requires a certified witness with a stored state")
    if not 0.0 <= t < math.inf:
        raise BadParamError(f"t={t} must be non-negative and finite")
    return _boost(w, _pt_projector(psi), t)


def _boost(w: Witness, pt_psi: np.ndarray, t: float) -> Witness:
    """`boost_witness` along an already transposed projector `pt_psi`."""
    overlap = float(np.trace(pt_psi @ w.detected_state.mat).real)
    if abs(overlap) > 1e-10:
        raise OrthogonalityError(
            f"boost direction overlaps the stored state: {overlap:.3e}"
        )
    mat = (t * pt_psi + w.op.mat) / (1.0 + t)
    return Witness(
        op=BipartiteOperator(w.m, w.n, mat),
        class_tag=TAG_NDEW,
        detected_state=w.detected_state,
        provenance={"family": "boost", "t": t, "base": w.provenance},
    )


# ---------------------------------------------------------------------------
# Local filters and the detection pipeline.

@dataclass
class LocalFilter:
    """Invertible local pair (A, B) with (A (x) B)|Psi_d> = |psi>."""

    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    d: int


def local_filter_to_max_entangled(psi: PureState) -> LocalFilter:
    """Invertible A, B mapping the rank-d maximally entangled state onto psi.

    From the full SVD C = U S V^dag of the coefficient matrix: A scales the
    left singular directions by sqrt(d) sigma_i (ones on the complement) and
    B is the conjugate right factor.
    """
    m, n, d = psi.m, psi.n, psi.rank
    u, s, v = linalg.svd(psi.coefficient_matrix(), full=True)
    diag = np.ones(m)
    diag[:d] = np.sqrt(d) * s[:d]
    a = u @ np.diag(diag).astype(complex)
    b = v.conj()
    target = kron(a, b) @ _psi_d_vector(m, n, d)
    residual = float(np.linalg.norm(target - psi.to_vector()))
    if residual > 1e-9:
        raise NoConvergenceError(
            f"filter construction failed, residual {residual:.3e}"
        )
    return LocalFilter(a=a, b=b, d=d)


def _psi_d_vector(m: int, n: int, d: int) -> np.ndarray:
    v = np.zeros(m * n, dtype=complex)
    for i in range(d):
        v[i * n + i] = 1.0
    return v / np.sqrt(d)


@dataclass
class DetectionCertificate:
    witness: Witness
    expectation: float
    pipeline: dict
    filters: LocalFilter


def _base_edge_state(kind: str) -> BipartiteOperator:
    """The flipped 2x4 edge state rho_b_flip, or a named two-qutrit state."""
    if kind == "rho_b_flip":
        rb = states.rho_b_state(0.9)
        f = kron(np.diag([-1.0, 1.0]).astype(complex), np.eye(4, dtype=complex))
        return BipartiteOperator(2, 4, f @ pt_mat(rb.mat, 2, 4) @ f.conj().T)
    return states.canonical_state(kind)


@functools.cache
def _base_witness(kind: str, restarts: int):
    """Kernel witness of a base edge state, built once per (kind, restarts)
    at see-saw seed 0: it depends on nothing but its fixed edge state."""
    return ndew_from_edge(_base_edge_state(kind), restarts=restarts, seed=0)


def _conjugated(g: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """g^dag mat g, symmetrised and scaled to unit trace."""
    out = g.conj().T @ mat @ g
    out = (out + out.conj().T) / 2.0
    return out / np.trace(out).real


def _require_detectable(m: int, n: int) -> None:
    """Reject the sizes on which detect_npt has no base witness to offer."""
    if m > n:
        raise BadParamError("expects m <= n; transpose the factors first")
    if m * n <= 6:
        raise BadParamError(
            "qubit-qubit and qubit-qutrit systems admit no nondecomposable witness"
        )


def detect_npt(
    rho: BipartiteOperator, restarts: int = blockpos.DEFAULT_RESTARTS, seed: int = 0
) -> DetectionCertificate:
    """Certify a state with non-positive partial transpose against a
    nondecomposable witness.

    Pipeline: take the bottom eigenvector psi of the partial transpose,
    filter it onto the rank-d maximally entangled state, pick the matching
    bound entangled base state (the flipped 2x4 edge state for m = 2, a
    conjugated two-qutrit state for m >= 3 according to d), boost the base
    kernel witness along PT(|Psi_d><Psi_d|) just enough to reach the
    filtered state, and pull the result back through the inverse filters.
    The certificate stores tr(W rho) < 0 together with the construction
    trail and the base witness's margin evidence.

    A degenerate bottom eigenvalue leaves psi, and so the filter, to
    LAPACK's basis of its eigenspace; the base follows only the Schmidt
    rank, which is 2 on the whole (antisymmetric) bottom eigenspace of the
    qutrit Bell state, so that state always takes `gamma1`.

    The base witness is built once per (base, restarts) in a process, at
    see-saw seed 0, so `seed` does not change the detection result; it is
    kept for compatibility and, like every seed, must be non-negative.
    """
    m, n = rho.m, rho.n
    _require_detectable(m, n)
    states._require_seed(seed)
    pt_rho = pt_mat(rho.mat, m, n)
    eig = eig_hermitian(pt_rho)
    if linalg.spectrum_is_psd(eig.values, pt_rho):
        raise IsPPTError("state has a positive partial transpose")
    lam_min = float(eig.values[-1])
    psi = PureState.from_vector(eig.vectors[:, -1], m, n)
    d = psi.rank
    filters = local_filter_to_max_entangled(psi)
    f = kron(filters.a.conj(), filters.b)
    rho_prime = BipartiteOperator(m, n, _conjugated(f, rho.mat))

    if m == 2:
        kind = "rho_b_flip"
    elif d == 2:
        kind = "gamma1"
    else:
        kind = "gamma2"
    base = _base_witness(kind, restarts)
    base_pad = Witness(
        op=embed_operator(base.op, m, n),
        class_tag=TAG_NDEW,
        detected_state=embed_operator(base.detected_state, m, n),
    )

    psi_d = _psi_d_vector(m, n, d)
    pt_psi_d = pt_mat(np.outer(psi_d, psi_d.conj()), m, n)
    carrier = float(np.trace(pt_psi_d @ rho_prime.mat).real)
    if carrier >= -1e-10:
        raise BoostDenominatorError(
            f"filtered state barely overlaps the boost direction: {carrier:.3e}"
        )
    base_expect = float(np.trace(base_pad.op.mat @ rho_prime.mat).real)
    t = 2.0 * abs(base_expect) / abs(carrier) + 1.0
    boosted = _boost(base_pad, pt_psi_d, t)

    w_final = BipartiteOperator(m, n, _conjugated(f.conj().T, boosted.op.mat))
    certified_state = BipartiteOperator(
        m, n, _conjugated(np.linalg.inv(f), boosted.detected_state.mat)
    )

    expectation = float(np.trace(w_final.mat @ rho.mat).real)
    if expectation >= -DETECT_TOL:
        raise BoostDenominatorError(
            f"pipeline produced non-negative expectation {expectation:.3e}"
        )
    trail = {"lambda_min_pt": lam_min, "schmidt_rank": d, "base": kind, "t": t}
    witness = Witness(
        op=w_final,
        class_tag=TAG_NDEW,
        detected_state=certified_state,
        provenance={"family": "detect_npt", **trail},
    )
    return DetectionCertificate(
        witness=witness,
        expectation=expectation,
        pipeline={
            **trail,
            "carrier": carrier,
            "base_expectation": base_expect,
            "base_epsilon_estimate": base.provenance["epsilon_estimate"],
            "base_epsilon_spread": base.provenance["epsilon_spread"],
            "base_restarts_converged": base.provenance["restarts_converged"],
        },
        filters=filters,
    )
