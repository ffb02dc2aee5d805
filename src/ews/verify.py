"""Named, reproducible verification suites.

Each suite turns a cluster of analytic claims about witnesses into
machine-checkable assertions with explicit tolerances, runs them on
seeded inputs, and reports one record per check.  Reports are
deterministic for a fixed (suite, params, seed) triple: wall time is
tracked but excluded from serialized bytes and equality.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import states, witness
from .errors import BadParamError, EwsError, IsPPTError, UnknownSuiteError
from .linalg import (
    BipartiteOperator,
    eig_hermitian,
    inner_product_lower_bound,
    pt_mat,
    require_int,
)
from .states import canonical_state, max_entangled, pure_from_schmidt
from .witness import (
    BOUND_TOL,
    DETECT_TOL,
    FamilyParams,
    NdewParams,
    boost_witness,
    bound_table,
    detect_npt,
    mirror,
    ndew_from_edge,
    pure_pt_witness,
    sample_dew,
    spectral_report,
    w_family,
)

SQRT2 = float(np.sqrt(2.0))


@dataclass
class Check:
    claim_id: str
    statement: str
    passed: bool
    measured: float
    expected: float
    tolerance: float
    note: str = ""
    gating: bool = True

    def __post_init__(self):
        # numpy scalars leak in from vectorized checks; JSON wants builtins
        self.passed = bool(self.passed)
        self.measured = float(self.measured)
        self.expected = float(self.expected)
        self.tolerance = float(self.tolerance)


@dataclass
class SuiteReport:
    suite: str
    m: int
    n: int
    samples: int
    seed: int
    checks: list[Check]
    wall_time: float = field(default=0.0, compare=False)

    @property
    def n_pass(self) -> int:
        return sum(1 for c in self.checks if c.gating and c.passed)

    @property
    def n_fail(self) -> int:
        return sum(1 for c in self.checks if c.gating and not c.passed)

    @property
    def passed(self) -> bool:
        return self.n_fail == 0


def _sample_seed(seed: int, idx: int) -> int:
    return int(np.random.SeedSequence([seed, idx]).generate_state(1)[0])


# Streams kept per process; the sampled bound suites run back to back on one key.
_STREAM_CACHE_SIZE = 2
# Unitaries per stacked block of an absolute-PPT orbit; bounds its scratch memory.
_ORBIT_BLOCK = 1024


@dataclass(frozen=True)
class _Stream:
    """Read-only arrays over the witnesses of one seeded sample stream:
    eigenvalues (N, d), non-increasing, and each bound-table row's measured
    value and verdict (N, rows).  Samples that are not witnesses are counted."""

    rows: tuple[str, ...]
    lambdas: np.ndarray
    measured: np.ndarray
    passed: np.ndarray
    skipped: int

    @property
    def summary(self) -> str:
        return f"{len(self.lambdas)} witnesses, {self.skipped} skipped"

    def column(self, name):
        return self.measured[:, self.rows.index(name)]


def _frozen(values, dtype, width):
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr.reshape(-1, width)


@functools.lru_cache(maxsize=_STREAM_CACHE_SIZE)
def _sampled_stream(m: int, n: int, samples: int, seed: int) -> _Stream:
    """The spectral reports of a seeded stream of random decomposable
    witnesses, as the sampled bound suites read them."""
    d = m * n
    rows = tuple(row[0] for row in bound_table(m, n))
    lambdas, measured, passed = [], [], []
    for i in range(samples):
        rng = np.random.default_rng(_sample_seed(seed, i))
        x = float(rng.uniform(0.0, 1.0))
        rank_p = int(rng.integers(1, d + 1))
        rank_q = int(rng.integers(1, d + 1))
        w = sample_dew(m, n, x, rank_p, rank_q, seed=int(rng.integers(0, 2**63)))
        report = spectral_report(w)
        if report.is_ew:
            lambdas.append(report.lambdas)
            measured.append([b.measured for b in report.bounds])
            passed.append([b.passed for b in report.bounds])
    k = len(rows)
    return _Stream(rows, _frozen(lambdas, float, d), _frozen(measured, float, k),
                   _frozen(passed, bool, k), samples - len(lambdas))


def _extreme(values, pick, default):
    """pick (np.min or np.max) of `values`, or `default` when there are none."""
    return float(pick(values)) if len(values) else default


# ---------------------------------------------------------------------------
# Checks.

# The pass rule of each relation between a measured and an expected value:
# inclusive of the tolerance for ==, >= and <=, strict for > and <.
_RELATIONS = {
    "==": lambda v, e, tol: abs(v - e) <= tol,
    ">=": lambda v, e, tol: v >= e - tol,
    "<=": lambda v, e, tol: v <= e + tol,
    ">": lambda v, e, tol: v > e + tol,
    "<": lambda v, e, tol: v < e - tol,
}


def _check(claim, statement, measured, rel, expected, tol, note=""):
    """Gating check that passes when `measured rel expected` holds within
    `tol`.  A measurement that raised an EwsError is recorded as measured
    0.0 with the exception as its note; every check built that way tests
    `< 0`, which 0.0 fails."""
    passed = _RELATIONS[rel](measured, expected, tol)
    return Check(claim, statement, passed, measured, expected, tol, note)


# ---------------------------------------------------------------------------
# Suites.

# (bound-table row, statement) of each dew_bounds range check.
_DEW_RANGES = (
    ("lambda1", "largest eigenvalue stays inside (1/{d1}, 1)"),
    ("lambda_min", "smallest eigenvalue stays inside [-1/2, 0)"),
    ("fro_sq", "squared Frobenius norm stays inside (1/{d1}, 1]"),
    ("neg_count", "at most {upper} negative eigenvalues"),
    ("negativity", "negativity at most {upper}"),
)


def _suite_dew_bounds(m, n, samples, seed):
    stream = _sampled_stream(m, n, samples, seed)
    table = {row[0]: row for row in bound_table(m, n)}
    n_ew = len(stream.lambdas)
    note = f"{n_ew} witnesses from {samples} samples"
    checks = []
    for name, stmt in _DEW_RANGES:
        if name not in table:
            continue
        bad = int((~stream.passed[:, stream.rows.index(name)]).sum())
        stmt = stmt.format(d1=m * n - 1, upper=table[name][2])
        checks.append(_check(f"dew_{name}_range", stmt, bad, "==", 0.0, 0.0, note))
    l1_sup = table["lambda1"][2]
    _, fro_inf, fro_sup, _ = table["fro_sq"]
    max_l1 = _extreme(stream.column("lambda1"), np.max, 0.0)
    min_fro = _extreme(stream.column("fro_sq"), np.min, fro_sup)
    return checks + [
        _check("dew_lambda1_sup_unattained",
               "no sample reaches the largest-eigenvalue supremum 1",
               max_l1, "<", l1_sup, 1e-6, "sampling evidence"),
        _check("dew_fro_inf_unattained",
               f"no sample reaches the Frobenius infimum 1/{m * n - 1}",
               min_fro, ">", fro_inf, 1e-6, "sampling evidence"),
        _check("dew_sampler_yield", "sampler produced witnesses to test",
               n_ew, ">=", 1.0, 0.0, f"{stream.skipped} PSD samples skipped"),
    ]


# (claim id, bound-table row, relation, statement) of each
# ew_spectral_ranges check; >= checks the row's lower bound, <= its upper.
_EW_RANGES = (
    ("ew_lambda_min_floor", "lambda_min", ">=",
     "smallest eigenvalue never drops below -1/2"),
    ("ew_lambda1_floor", "lambda1", ">=",
     "largest eigenvalue stays above 1/{d1}"),
    ("ew_neg_count_cap", "neg_count", "<=",
     "never more than {bound} negative eigenvalues"),
    ("ew_qubit_pair_sum", "pair_sum", ">=",
     "second-largest plus smallest eigenvalue is non-negative"),
    ("ew_qubit_tail3", "tail_from_3", ">=",
     "eigenvalue tail from the third entry respects its floor"),
    ("ew_qubit_tailk", "tail_from_4_on", ">=",
     "every tail from the fourth entry on stays above -1/2"),
    ("ew_negativity_cap", "negativity", "<=",
     "negativity never exceeds {bound}"),
)


def _suite_ew_spectral_ranges(m, n, samples, seed):
    stream = _sampled_stream(m, n, samples, seed)
    table = {row[0]: row for row in bound_table(m, n)}
    checks = []
    for claim, name, rel, stmt in _EW_RANGES:
        if name not in table:
            continue
        _, lower, upper, _ = table[name]
        floor = rel == ">="
        bound, other, pick = (lower, upper, np.min) if floor else (upper, lower, np.max)
        # an empty stream reads as the row's other bound, or 0
        worst = _extreme(stream.column(name), pick, 0 if other is None else other)
        # integer bounds cap counts, which are exact
        tol = 0.0 if isinstance(bound, int) else BOUND_TOL
        note = "" if checks else stream.summary
        stmt = stmt.format(d1=m * n - 1, bound=bound)
        checks.append(_check(claim, stmt, worst, rel, bound, tol, note))
    return checks


def _suite_dew_attainability(m, n, samples, seed):
    r2 = spectral_report(pure_pt_witness(pure_from_schmidt([2**-0.5] * 2, m, n)))
    mix = 0.5 * (
        witness._pt_projector(max_entangled(2, 4, 1))
        + witness._pt_projector(max_entangled(2, 4, 2))
    )
    n_mix = spectral_report(BipartiteOperator(2, 4, mix)).negativity
    r8 = spectral_report(
        pure_pt_witness(pure_from_schmidt([0.92388, 0.382683], 2, 2))
    )
    r9 = spectral_report(
        pure_pt_witness(pure_from_schmidt([SQRT2 / 2.0, 0.5, 0.5], 3, 3))
    )
    r3 = spectral_report(pure_pt_witness(max_entangled(3, 3)))

    # sweep of the two-parameter family: closed-form spectrum and coverage
    worst = 0.0
    for b in (0.1, 0.5, 1.0):
        rep = spectral_report(w_family(FamilyParams(1.0 - b, b, 0.0, 0.0, 3, 3)))
        expected = np.sort(
            np.array([(1 - b) / 8.0] * 5 + [(1 - b) / 8.0 + b / 2.0] * 3 + [-b / 2.0])
        )[::-1]
        worst = max(worst, float(np.abs(rep.lambdas - expected).max()))
    worst_min = worst_top = 0.0
    for b in np.linspace(0.05, 1.0, 20):
        rep = spectral_report(w_family(FamilyParams(1.0 - b, b, 0.0, 0.0, 3, 3)))
        worst_min = max(worst_min, abs(rep.lambda_min + b / 2.0))
        rep2 = spectral_report(w_family(FamilyParams(0.0, b, 1.0 - b, 0.0, 3, 3)))
        worst_top = max(worst_top, abs(rep2.lambda1 - (1.0 - b / 2.0)))

    # (claim, statement, measured, expected, tolerance)
    rows = [
        ("attain_lambda_min", "transposed Bell projector hits the -1/2 floor",
         r2.lambda_min, -0.5, 1e-10),
        ("attain_fro_sup", "transposed Bell projector hits unit Frobenius norm",
         r2.fro_sq, 1.0, 1e-10),
        ("attain_negativity_2", "transposed Bell projector has negativity 1/2",
         r2.negativity, 0.5, 1e-10),
        ("attain_negativity_mix",
         "even mix of disjoint maximally entangled transposes keeps negativity 1/2",
         n_mix, 0.5, 1e-10),
        ("attain_tail3",
         "extremal two-coefficient witness hits the third-tail floor",
         float(r8.lambdas[2:].sum()), -1.0 / (2.0 + 2.0 * SQRT2), 1e-6),
        ("attain_pair_sum",
         "sqrt2/2,1/2,1/2 witness hits the two-smallest floor",
         float(r9.lambdas[-2:].sum()), -SQRT2 / 2.0, 1e-9),
        ("attain_triple_sum",
         "transposed qutrit Bell witness hits the three-smallest floor",
         float(r3.lambdas[-3:].sum()), -1.0, 1e-10),
        ("attain_negativity_3", "transposed qutrit Bell witness has negativity 1",
         r3.negativity, 1.0, 1e-10),
        ("family_spectrum_formula",
         "two-parameter family spectrum matches its closed form",
         worst, 0.0, 1e-10),
        ("family_lambda_min_sweep",
         "family smallest eigenvalue sweeps -b/2 across (0, 1]",
         worst_min, 0.0, 1e-10),
        ("family_lambda1_sweep",
         "family largest eigenvalue sweeps 1 - b/2 across (0, 1]",
         worst_top, 0.0, 1e-10),
    ]
    return [
        _check(claim, stmt, measured, "==", expected, tol)
        for claim, stmt, measured, expected, tol in rows
    ]


def _suite_tail_sum_bounds(m, n, samples, seed):
    stream = _sampled_stream(m, n, samples, seed)
    lam = stream.lambdas
    pair = _extreme(lam[:, -2:].sum(axis=1), np.min, 0.0)
    triple = _extreme(lam[:, -3:].sum(axis=1), np.min, 0.0)
    return [
        _check("tail_pair_sum_floor", "two smallest eigenvalues sum above -sqrt(2)/2",
               pair, ">=", -SQRT2 / 2.0, 1e-9, stream.summary),
        _check("tail_triple_sum_floor", "three smallest eigenvalues sum above -1",
               triple, ">=", -1.0, 1e-9),
    ]


def _suite_absolute_ppt(m, n, samples, seed):
    # Sample i draws its Gaussian from its own seeded generator, and its
    # unitary rotates both states.  The unitaries are built and applied in
    # stacked blocks; each state's orbit floor is the minimum over the blocks.
    d = m * n
    rhos = {name: canonical_state(name, m=m, n=n).mat for name in ("rho1", "rho2")}
    floors = dict.fromkeys(rhos, np.inf)
    for start in range(0, samples, _ORBIT_BLOCK):
        rngs = (np.random.default_rng(_sample_seed(seed, i))
                for i in range(start, min(start + _ORBIT_BLOCK, samples)))
        gauss = np.array([states._complex_gaussian(rng, (d, d)) for rng in rngs])
        us = states._haar_from_gaussian(gauss)
        for name, rho in rhos.items():
            orbit = pt_mat(us @ rho @ us.conj().swapaxes(-1, -2), m, n)
            floor = float(eig_hermitian(orbit).values[:, -1].min())
            floors[name] = min(floors[name], floor)
    checks = [
        _check(f"ap_{name}_unitary_orbit",
               f"{name} stays PPT under seeded global unitaries",
               worst, ">=", 0.0, 1e-9, f"{samples} unitaries")
        for name, worst in floors.items()
    ]
    rho1_raw = canonical_state("rho1", m=3, n=3, normalized=False)
    bound = inner_product_lower_bound(
        eig_hermitian(rho1_raw.mat).values,
        states.pt_spectrum_pure(max_entangled(3, 3)),
    )
    checks.append(
        _check(
            "ap_pairing_bound",
            "pairing bound of the diagonal reference against the qutrit Bell transpose",
            bound, "==", (3.0 - 2.0 * SQRT2) / 3.0, 1e-10,
        )
    )
    return checks


def _kernel_pt_floor(sigma: BipartiteOperator) -> float:
    q, _ = witness._kernel_projector(pt_mat(sigma.mat, sigma.m, sigma.n))
    qg = pt_mat(q, sigma.m, sigma.n)
    qg = qg / np.trace(qg).real
    return float(eig_hermitian(qg).values[-1])


def _suite_ndew_constructions(m, n, samples, seed):
    checks = []

    for name, ctor, values in (
        ("rho_b", lambda v: canonical_state("rho_b", b=v), (0.9, 0.99, 0.999)),
        ("rho_a", lambda v: canonical_state("rho_a", a=v), (0.9, 0.99, 0.999)),
    ):
        floors = [_kernel_pt_floor(ctor(v)) for v in values]
        checks += [
            Check(f"kernel_floor_monotone_{name}",
                  f"{name} kernel-projector transpose floor strictly decreases",
                  all(x > y for x, y in zip(floors, floors[1:])),
                  floors[-1], floors[0], 0.0,
                  "values " + ", ".join(f"{x:.6f}" for x in floors)),
            # recorded only: a bracket, not a claim
            Check(f"kernel_floor_bracket_{name}",
                  f"{name} floor at the tightest parameter, distance to -1/2",
                  abs(floors[-1] + 0.5) <= 0.05, floors[-1], -0.5, 0.05,
                  "recorded only", gating=False),
        ]

    gamma = canonical_state("gamma")
    floor = float(eig_hermitian(pt_mat(gamma.mat, 3, 3)).values[-1])
    checks += [
        _check("gamma_trace_one",
               "printed entries of the two-qutrit state sum to unit trace",
               gamma.trace(), "==", 1.0, 0.0),
        _check("gamma_ppt",
               "two-qutrit reference state has positive partial transpose",
               floor, ">=", 0.0, 1e-10),
    ]
    try:
        wg = ndew_from_edge(gamma, NdewParams(), seed=seed)
        expect, note = wg.provenance["expectation"], ""
    except EwsError as exc:  # record, never abort the suite
        expect, note = 0.0, repr(exc)
    checks.append(
        _check("gamma_detected",
               "kernel witness certifies the two-qutrit reference state",
               expect, "<", 0.0, DETECT_TOL, note)
    )

    gp = canonical_state("gamma_prime")
    psi3 = max_entangled(3, 3)
    overlap = float(np.trace(witness._pt_projector(psi3) @ gp.mat).real)
    checks.append(
        _check("gamma_prime_orthogonal",
               "conjugated state is orthogonal to the transposed qutrit Bell projector",
               overlap, "==", 0.0, 1e-10)
    )
    try:
        wgp = ndew_from_edge(gp, NdewParams(), seed=seed)
        negs = [
            spectral_report(boost_witness(wgp, psi3, t=t)).negativity
            for t in (1.0, 10.0, 100.0)
        ]
        passed = all(x < y for x, y in zip(negs, negs[1:])) and (
            abs(negs[-1] - 1.0) <= 0.05
        )
        measured = negs[-1]
        note = "negativity at t=1,10,100: " + ", ".join(f"{x:.4f}" for x in negs)
    except EwsError as exc:
        passed, measured, note = False, 0.0, repr(exc)
    checks.append(
        Check("boost_negativity_convergence",
              "boosting drives negativity up toward the qutrit cap 1",
              passed, measured, 1.0, 0.05, note)
    )
    return checks


def _suite_npt_detection(m, n, samples, seed):
    witness._require_detectable(m, n)
    checks = []
    fixed = [
        ("detect_bell2_3x3", pure_from_schmidt([2**-0.5] * 2, 3, 3),
         "qubit Bell state embedded in two qutrits"),
        ("detect_bell3_3x3", pure_from_schmidt([3**-0.5] * 3, 3, 3),
         "qutrit Bell state"),
        ("detect_bell2_2x4", pure_from_schmidt([2**-0.5] * 2, 2, 4),
         "qubit Bell state embedded in a 2x4 system"),
    ]
    for claim, psi, stmt in fixed:
        try:
            cert = detect_npt(psi.projector())
            expect = cert.expectation
            note = f"base {cert.pipeline['base']}, t={cert.pipeline['t']:.2f}"
        except EwsError as exc:
            expect, note = 0.0, repr(exc)
        checks.append(
            _check(claim, f"{stmt} is certified with negative expectation",
                   expect, "<", 0.0, DETECT_TOL, note)
        )

    errors = 0
    expectations, notes = [], []
    for i in range(samples):
        rho = states.random_state(
            "density_wishart", m, n, rank=m * n, seed=_sample_seed(seed, i)
        )
        try:
            expectations.append(detect_npt(rho).expectation)
        except IsPPTError:
            continue
        except EwsError as exc:
            errors += 1
            if len(notes) < 3:
                notes.append(repr(exc))
    n_npt = errors + len(expectations)
    failures = errors + sum(e >= -DETECT_TOL for e in expectations)
    worst = (f"worst expectation {max(expectations):.3e}" if expectations
             else "no certificate")
    note = f"{n_npt} NPT of {samples} samples; {worst}"
    checks.append(
        Check("detect_wishart_battery",
              f"every sampled NPT state at ({m},{n}) is certified",
              failures == 0 and n_npt > 0, failures, 0.0, 0.0,
              note + "".join("; " + x for x in notes))
    )
    return checks


def _suite_mirror_conditions(m, n, samples, seed):
    bell = pure_from_schmidt([2**-0.5] * 2, 2, 2)
    remark_mat = (2.0 / 3.0) * witness._pt_projector(bell)
    remark_mat[0, 0] += 1.0 / 3.0
    remark = witness.Witness(
        op=BipartiteOperator(2, 2, remark_mat), class_tag=witness.TAG_DEW
    )
    res = mirror(remark, seed=seed)
    floor = float(eig_hermitian(res.w_m.mat).values[-1])
    checks = [
        _check("mirror_remark_mu",
               "product-expectation supremum of the remark witness is 2/3",
               res.mu, "==", 2.0 / 3.0, 1e-8),
        _check("mirror_remark_psd", "remark mirror operator is positive semidefinite",
               floor, ">=", 0.0, 1e-10, f"verdict {res.verdict}"),
    ]
    for mm in (2, 3):
        res_m = mirror(pure_pt_witness(max_entangled(mm, mm)), seed=seed)
        checks.append(
            _check(f"mirror_bell_{mm}_mu",
                   f"transposed Bell witness supremum equals 1/{mm}",
                   res_m.mu, "==", 1.0 / mm, 1e-8, f"verdict {res_m.verdict}")
        )

    # necessary conditions: whenever a mirror is itself a witness, the source
    # must sit strictly inside the attainability boundary, attaining no edge
    # of the bound table
    battery = [
        w_family(FamilyParams(0.5, 0.5, 0.0, 0.0, 2, 2)),
        w_family(FamilyParams(0.25, 0.25, 0.25, 0.25, 2, 2)),
        w_family(FamilyParams(0.2, 0.4, 0.2, 0.2, 3, 3)),
        pure_pt_witness(pure_from_schmidt([0.8, 0.6], 2, 2)),
    ]
    battery += [
        sample_dew(2, 2, x=0.3, rank_p=2, rank_q=2, seed=_sample_seed(seed, i))
        for i in range(min(samples or 6, 6))
    ]
    violations = 0
    n_mirror_ew = 0
    for i, w in enumerate(battery):
        res_b = mirror(w, restarts=32, seed=_sample_seed(seed, 1000 + i))
        if res_b.verdict != "mirror-EW":
            continue
        n_mirror_ew += 1
        violations += sum(b.attained for b in spectral_report(w).bounds)
    checks.append(
        _check("mirror_necessary_conditions",
               "mirror witnesses only arise strictly inside the spectral boundary",
               violations, "==", 0.0, 0.0,
               f"{n_mirror_ew} mirror witnesses among {len(battery)} sources")
    )
    return checks


# name -> (suite, default sample count, 0 where the suite draws no samples;
# the size its fixed states run at, None where it runs at any size)
_SUITES = {
    "dew_bounds": (_suite_dew_bounds, 10_000, None),
    "ew_spectral_ranges": (_suite_ew_spectral_ranges, 10_000, None),
    "dew_attainability": (_suite_dew_attainability, 0, None),
    "tail_sum_bounds": (_suite_tail_sum_bounds, 1_000, None),
    "absolute_ppt": (_suite_absolute_ppt, 1_000, None),
    "ndew_constructions": (_suite_ndew_constructions, 0, (3, 3)),
    "npt_detection": (_suite_npt_detection, 50, None),
    "mirror_conditions": (_suite_mirror_conditions, 0, (3, 3)),
}

SUITE_NAMES = tuple(sorted(_SUITES))


def run_suite(
    name: str, m: int = 3, n: int = 3, samples: int | None = None, seed: int = 42
) -> SuiteReport:
    """Execute a registered suite; failing checks are recorded, never raised.

    samples=None selects the suite's default count.  ndew_constructions
    and mirror_conditions run fixed states and accept only (3, 3), the
    size their reports are keyed by.
    Two suites run parts at a fixed size: dew_attainability uses m and n
    only for its transposed Bell projector, and absolute_ppt checks its
    pairing bound at 3x3 whatever the size.
    """
    if name not in _SUITES:
        raise UnknownSuiteError(
            f"unknown suite {name!r}; registered: {', '.join(SUITE_NAMES)}"
        )
    suite, default, size = _SUITES[name]
    samples = default if samples is None else require_int("samples", samples, 1)
    m, n = states._require_dims(m, n)
    if size is not None and (m, n) != size:
        raise BadParamError(
            f"{name} runs at its default size {size} only, got ({m}, {n})"
        )
    seed = require_int("seed", seed, 0)
    start = time.perf_counter()
    checks = suite(m, n, samples, seed)
    return SuiteReport(
        suite=name,
        m=m,
        n=n,
        samples=samples,
        seed=seed,
        checks=checks,
        wall_time=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# Serialization.  Wall time is excluded so identical (suite, params, seed)
# runs serialize to identical bytes.

# The run's parameters, which lead the JSON report and key it.
_PARAMS = ("suite", "m", "n", "samples", "seed")
_CSV_FIELDS = (
    "claim_id",
    "statement",
    "passed",
    "measured",
    "expected",
    "tolerance",
    "gating",
    "note",
)


def emit_report(report: SuiteReport, fmt: str = "json") -> bytes:
    if fmt == "json":
        fields = _PARAMS + ("passed", "n_pass", "n_fail")
        payload = {k: getattr(report, k) for k in fields}
        payload["checks"] = [asdict(c) for c in report.checks]
        return (json.dumps(payload, indent=2, allow_nan=False) + "\n").encode()
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_CSV_FIELDS, lineterminator="\n")
        writer.writeheader()
        for c in report.checks:
            row = asdict(c)
            writer.writerow({k: row[k] for k in _CSV_FIELDS})
        return buf.getvalue().encode()
    raise ValueError(f"unknown format {fmt!r}")


def report_from_json(data) -> SuiteReport:
    obj = json.loads(data) if isinstance(data, (str, bytes)) else data
    checks = [Check(**c) for c in obj["checks"]]
    return SuiteReport(**{k: obj[k] for k in _PARAMS}, checks=checks)
