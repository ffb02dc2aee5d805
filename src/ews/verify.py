"""Named, reproducible verification suites.

Each suite turns a cluster of analytic claims about witnesses into
machine-checkable assertions with explicit tolerances, runs them on
seeded inputs, and reports one record per check.  Reports are
deterministic for a fixed (suite, params, seed) triple: wall time is
tracked but excluded from serialized bytes and equality.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import states, witness
from .errors import BadParamError, UnknownSuiteError
from .linalg import (
    BipartiteOperator,
    eig_hermitian,
    inner_product_lower_bound,
    pt_mat,
)
from .states import canonical_state, haar_unitary, max_entangled, pure_from_schmidt
from .witness import (
    BOUND_TOL,
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


def _sampled_reports(m: int, n: int, samples: int, seed: int):
    """Seeded stream of spectral reports of random decomposable witnesses.
    Samples without a negative eigenvalue are not witnesses and are
    returned under the second key."""
    d = m * n

    def one(i):
        rng = np.random.default_rng(_sample_seed(seed, i))
        x = float(rng.uniform(0.0, 1.0))
        rank_p = int(rng.integers(1, d + 1))
        rank_q = int(rng.integers(1, d + 1))
        w = sample_dew(m, n, x, rank_p, rank_q, seed=int(rng.integers(0, 2**63)))
        return spectral_report(w)

    reports = [one(i) for i in range(samples)]
    ews = [r for r in reports if r.is_ew]
    skipped = len(reports) - len(ews)
    return ews, skipped


# ---------------------------------------------------------------------------
# Suites.

def _row_values(reports, name):
    """Measured values of one bound-table row across a report stream."""
    return [b.measured for r in reports for b in r.bounds if b.name == name]


# (bound-table row, statement) of each dew_bounds range check.
_DEW_RANGES = (
    ("lambda1", "largest eigenvalue stays inside (1/{d1}, 1)"),
    ("lambda_min", "smallest eigenvalue stays inside [-1/2, 0)"),
    ("fro_sq", "squared Frobenius norm stays inside (1/{d1}, 1]"),
    ("neg_count", "at most {upper} negative eigenvalues"),
    ("negativity", "negativity at most {upper}"),
)


def _suite_dew_bounds(m, n, samples, seed):
    samples = samples or 10_000
    reports, skipped = _sampled_reports(m, n, samples, seed)
    table = {row[0]: row for row in bound_table(m, n)}
    checks = []
    for name, stmt in _DEW_RANGES:
        if name not in table:
            continue
        bad = sum(
            1 for r in reports for b in r.bounds if b.name == name and not b.passed
        )
        checks.append(
            Check(
                claim_id=f"dew_{name}_range",
                statement=stmt.format(d1=m * n - 1, upper=table[name][2]),
                passed=bad == 0,
                measured=float(bad),
                expected=0.0,
                tolerance=0.0,
                note=f"{len(reports)} witnesses from {samples} samples",
            )
        )
    l1_sup = table["lambda1"][2]
    _, fro_inf, fro_sup, _ = table["fro_sq"]
    max_l1 = max(_row_values(reports, "lambda1"), default=0.0)
    min_fro = min(_row_values(reports, "fro_sq"), default=fro_sup)
    checks.append(
        Check(
            claim_id="dew_lambda1_sup_unattained",
            statement="no sample reaches the largest-eigenvalue supremum 1",
            passed=max_l1 < l1_sup - 1e-6,
            measured=max_l1,
            expected=l1_sup,
            tolerance=1e-6,
            note="sampling evidence",
        )
    )
    checks.append(
        Check(
            claim_id="dew_fro_inf_unattained",
            statement=f"no sample reaches the Frobenius infimum 1/{m * n - 1}",
            passed=min_fro > fro_inf + 1e-6,
            measured=min_fro,
            expected=fro_inf,
            tolerance=1e-6,
            note="sampling evidence",
        )
    )
    checks.append(
        Check(
            claim_id="dew_sampler_yield",
            statement="sampler produced witnesses to test",
            passed=len(reports) > 0,
            measured=float(len(reports)),
            expected=1.0,
            tolerance=0.0,
            note=f"{skipped} PSD samples skipped",
            gating=True,
        )
    )
    return checks, samples


# (claim id, bound-table row, side checked, statement) of each
# ew_spectral_ranges check.
_EW_RANGES = (
    ("ew_lambda_min_floor", "lambda_min", "lower",
     "smallest eigenvalue never drops below -1/2"),
    ("ew_lambda1_floor", "lambda1", "lower",
     "largest eigenvalue stays above 1/{d1}"),
    ("ew_neg_count_cap", "neg_count", "upper",
     "never more than {bound} negative eigenvalues"),
    ("ew_qubit_pair_sum", "pair_sum", "lower",
     "second-largest plus smallest eigenvalue is non-negative"),
    ("ew_qubit_tail3", "tail_from_3", "lower",
     "eigenvalue tail from the third entry respects its floor"),
    ("ew_qubit_tailk", "tail_from_4_on", "lower",
     "every tail from the fourth entry on stays above -1/2"),
    ("ew_negativity_cap", "negativity", "upper",
     "negativity never exceeds {bound}"),
)


def _suite_ew_spectral_ranges(m, n, samples, seed):
    samples = samples or 10_000
    reports, skipped = _sampled_reports(m, n, samples, seed)
    table = {row[0]: row for row in bound_table(m, n)}
    checks = []
    for claim, name, side, stmt in _EW_RANGES:
        if name not in table:
            continue
        _, lower, upper, _ = table[name]
        bound, other, pick = (
            (lower, upper, min) if side == "lower" else (upper, lower, max)
        )
        # an empty stream reads as the row's other bound, or 0
        worst = pick(
            _row_values(reports, name), default=0 if other is None else other
        )
        # integer bounds cap counts, which are exact
        tol = 0.0 if isinstance(bound, int) else BOUND_TOL
        passed = worst >= bound - tol if side == "lower" else worst <= bound + tol
        note = "" if checks else f"{len(reports)} witnesses, {skipped} skipped"
        checks.append(
            Check(claim, stmt.format(d1=m * n - 1, bound=bound), passed, worst,
                  bound, tol, note)
        )
    return checks, samples


def _suite_dew_attainability(m, n, samples, seed):
    checks = []

    def add(claim, stmt, measured, expected, tol, note=""):
        checks.append(
            Check(
                claim,
                stmt,
                abs(measured - expected) <= tol,
                float(measured),
                float(expected),
                tol,
                note,
            )
        )

    r2 = spectral_report(pure_pt_witness(pure_from_schmidt([2**-0.5] * 2, m, n)))
    add("attain_lambda_min", "transposed Bell projector hits the -1/2 floor",
        r2.lambda_min, -0.5, 1e-10)
    add("attain_fro_sup", "transposed Bell projector hits unit Frobenius norm",
        r2.fro_sq, 1.0, 1e-10)
    add("attain_negativity_2", "transposed Bell projector has negativity 1/2",
        r2.negativity, 0.5, 1e-10)

    mix = 0.5 * (
        pt_mat(max_entangled(2, 4, 1).projector().mat, 2, 4)
        + pt_mat(max_entangled(2, 4, 2).projector().mat, 2, 4)
    )
    n_mix = spectral_report(BipartiteOperator(2, 4, mix)).negativity
    add("attain_negativity_mix",
        "even mix of disjoint maximally entangled transposes keeps negativity 1/2",
        n_mix, 0.5, 1e-10)

    r8 = spectral_report(
        pure_pt_witness(pure_from_schmidt([0.92388, 0.382683], 2, 2))
    )
    add("attain_tail3",
        "extremal two-coefficient witness hits the third-tail floor",
        float(r8.lambdas[2:].sum()), -1.0 / (2.0 + 2.0 * SQRT2), 1e-6)

    r9 = spectral_report(
        pure_pt_witness(pure_from_schmidt([SQRT2 / 2.0, 0.5, 0.5], 3, 3))
    )
    add("attain_pair_sum",
        "sqrt2/2,1/2,1/2 witness hits the two-smallest floor",
        float(r9.lambdas[-2:].sum()), -SQRT2 / 2.0, 1e-9)

    r3 = spectral_report(pure_pt_witness(max_entangled(3, 3)))
    add("attain_triple_sum",
        "transposed qutrit Bell witness hits the three-smallest floor",
        float(r3.lambdas[-3:].sum()), -1.0, 1e-10)
    add("attain_negativity_3", "transposed qutrit Bell witness has negativity 1",
        r3.negativity, 1.0, 1e-10)

    # sweep of the two-parameter family: closed-form spectrum and coverage
    worst = 0.0
    for b in (0.1, 0.5, 1.0):
        rep = spectral_report(w_family(FamilyParams(1.0 - b, b, 0.0, 0.0, 3, 3)))
        expected = np.sort(
            np.array([(1 - b) / 8.0] * 5 + [(1 - b) / 8.0 + b / 2.0] * 3 + [-b / 2.0])
        )[::-1]
        worst = max(worst, float(np.abs(rep.lambdas - expected).max()))
    add("family_spectrum_formula",
        "two-parameter family spectrum matches its closed form",
        worst, 0.0, 1e-10)

    worst_min = 0.0
    worst_top = 0.0
    for b in np.linspace(0.05, 1.0, 20):
        rep = spectral_report(w_family(FamilyParams(1.0 - b, b, 0.0, 0.0, 3, 3)))
        worst_min = max(worst_min, abs(rep.lambda_min + b / 2.0))
        rep2 = spectral_report(w_family(FamilyParams(0.0, b, 1.0 - b, 0.0, 3, 3)))
        worst_top = max(worst_top, abs(rep2.lambda1 - (1.0 - b / 2.0)))
    add("family_lambda_min_sweep",
        "family smallest eigenvalue sweeps -b/2 across (0, 1]",
        worst_min, 0.0, 1e-10)
    add("family_lambda1_sweep",
        "family largest eigenvalue sweeps 1 - b/2 across (0, 1]",
        worst_top, 0.0, 1e-10)
    return checks, samples or 0


def _suite_tail_sum_bounds(m, n, samples, seed):
    samples = samples or 1_000
    reports, skipped = _sampled_reports(m, n, samples, seed)
    pair = min((float(r.lambdas[-2:].sum()) for r in reports), default=0.0)
    triple = min((float(r.lambdas[-3:].sum()) for r in reports), default=0.0)
    checks = [
        Check(
            "tail_pair_sum_floor",
            "two smallest eigenvalues sum above -sqrt(2)/2",
            pair >= -SQRT2 / 2.0 - 1e-9,
            pair,
            -SQRT2 / 2.0,
            1e-9,
            f"{len(reports)} witnesses, {skipped} skipped",
        ),
        Check(
            "tail_triple_sum_floor",
            "three smallest eigenvalues sum above -1",
            triple >= -1.0 - 1e-9,
            triple,
            -1.0,
            1e-9,
        ),
    ]
    return checks, samples


def _suite_absolute_ppt(m, n, samples, seed):
    samples = samples or 1_000
    d = m * n
    checks = []
    for name in ("rho1", "rho2"):
        rho = canonical_state(name, m=m, n=n)

        def trial(i, rho=rho):
            rng = np.random.default_rng(_sample_seed(seed, i))
            u = haar_unitary(d, rng)
            rotated = u @ rho.mat @ u.conj().T
            return float(eig_hermitian(pt_mat(rotated, m, n)).values[-1])

        worst = min(trial(i) for i in range(samples))
        checks.append(
            Check(
                f"ap_{name}_unitary_orbit",
                f"{name} stays PPT under seeded global unitaries",
                worst >= -1e-9,
                worst,
                0.0,
                1e-9,
                f"{samples} unitaries",
            )
        )
    rho1_raw = canonical_state("rho1", m=3, n=3, normalized=False)
    vals_rho1 = eig_hermitian(rho1_raw.mat).values
    vals_pt = np.sort(
        states.pt_spectrum_pure(max_entangled(3, 3))
    )[::-1]
    bound = inner_product_lower_bound(vals_rho1, vals_pt)
    expected = (3.0 - 2.0 * SQRT2) / 3.0
    checks.append(
        Check(
            "ap_pairing_bound",
            "pairing bound of the diagonal reference against the qutrit Bell transpose",
            abs(bound - expected) <= 1e-10,
            bound,
            expected,
            1e-10,
        )
    )
    return checks, samples


def _kernel_pt_floor(sigma: BipartiteOperator) -> float:
    eig = eig_hermitian(pt_mat(sigma.mat, sigma.m, sigma.n))
    cols = eig.vectors[:, eig.values < 1e-9]
    q = cols @ cols.conj().T
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
        strictly_down = all(x > y for x, y in zip(floors, floors[1:]))
        checks.append(
            Check(
                f"kernel_floor_monotone_{name}",
                f"{name} kernel-projector transpose floor strictly decreases",
                strictly_down,
                floors[-1],
                floors[0],
                0.0,
                note="values " + ", ".join(f"{x:.6f}" for x in floors),
            )
        )
        checks.append(
            Check(
                f"kernel_floor_bracket_{name}",
                f"{name} floor at the tightest parameter, distance to -1/2",
                abs(floors[-1] + 0.5) <= 0.05,
                floors[-1],
                -0.5,
                0.05,
                note="recorded only",
                gating=False,
            )
        )

    gamma = canonical_state("gamma")
    checks.append(
        Check(
            "gamma_trace_one",
            "printed entries of the two-qutrit state sum to unit trace",
            gamma.trace() == 1.0,
            gamma.trace(),
            1.0,
            0.0,
        )
    )
    floor = float(eig_hermitian(pt_mat(gamma.mat, 3, 3)).values[-1])
    checks.append(
        Check(
            "gamma_ppt",
            "two-qutrit reference state has positive partial transpose",
            floor >= -1e-10,
            floor,
            0.0,
            1e-10,
        )
    )
    try:
        wg = ndew_from_edge(gamma, NdewParams(), restarts=64, seed=seed)
        expect = wg.provenance["expectation"]
        checks.append(
            Check(
                "gamma_detected",
                "kernel witness certifies the two-qutrit reference state",
                expect < -1e-9,
                expect,
                0.0,
                1e-9,
            )
        )
    except Exception as exc:  # record, never abort the suite
        checks.append(
            Check("gamma_detected", "kernel witness certifies the state",
                  False, 0.0, 0.0, 1e-9, note=repr(exc))
        )

    gp = canonical_state("gamma_prime")
    psi3 = max_entangled(3, 3)
    overlap = float(
        np.trace(pt_mat(psi3.projector().mat, 3, 3) @ gp.mat).real
    )
    checks.append(
        Check(
            "gamma_prime_orthogonal",
            "conjugated state is orthogonal to the transposed qutrit Bell projector",
            abs(overlap) <= 1e-10,
            overlap,
            0.0,
            1e-10,
        )
    )
    try:
        wgp = ndew_from_edge(gp, NdewParams(), restarts=64, seed=seed)
        negs = []
        for t in (1.0, 10.0, 100.0):
            boosted = boost_witness(wgp, psi3, t=t)
            negs.append(spectral_report(boosted).negativity)
        monotone = all(x < y for x, y in zip(negs, negs[1:]))
        checks.append(
            Check(
                "boost_negativity_convergence",
                "boosting drives negativity up toward the qutrit cap 1",
                monotone and abs(negs[-1] - 1.0) <= 0.05,
                negs[-1],
                1.0,
                0.05,
                note="negativity at t=1,10,100: "
                + ", ".join(f"{x:.4f}" for x in negs),
            )
        )
    except Exception as exc:
        checks.append(
            Check("boost_negativity_convergence", "boost convergence",
                  False, 0.0, 1.0, 0.05, note=repr(exc))
        )
    return checks, samples or 0


def _embedded_pure(coeffs, m, n) -> BipartiteOperator:
    return pure_from_schmidt(coeffs, m, n).projector()


def _suite_npt_detection(m, n, samples, seed):
    witness._require_detectable(m, n)
    samples = samples or 50
    checks = []
    fixed = [
        ("detect_bell2_3x3", _embedded_pure([2**-0.5] * 2, 3, 3),
         "qubit Bell state embedded in two qutrits"),
        ("detect_bell3_3x3", _embedded_pure([3**-0.5] * 3, 3, 3),
         "qutrit Bell state"),
        ("detect_bell2_2x4", _embedded_pure([2**-0.5] * 2, 2, 4),
         "qubit Bell state embedded in a 2x4 system"),
    ]
    for claim, rho, stmt in fixed:
        try:
            cert = detect_npt(rho, restarts=64, seed=seed)
            checks.append(
                Check(claim, f"{stmt} is certified with negative expectation",
                      cert.expectation < -1e-9, cert.expectation, 0.0, 1e-9,
                      note=f"base {cert.pipeline['base']}, t={cert.pipeline['t']:.2f}")
            )
        except Exception as exc:
            checks.append(
                Check(claim, f"{stmt} is certified", False, 0.0, 0.0, 1e-9,
                      note=repr(exc))
            )

    failures = 0
    n_npt = 0
    worst = 0.0
    notes = []
    for i in range(samples):
        rho = states.random_state(
            "density_wishart", m, n, rank=m * n, seed=_sample_seed(seed, i)
        )
        if states.is_ppt(rho):
            continue
        n_npt += 1
        try:
            cert = detect_npt(rho, restarts=64, seed=_sample_seed(seed, i) ^ 0xA5)
            worst = max(worst, cert.expectation)
            if cert.expectation >= -1e-9:
                failures += 1
        except Exception as exc:
            failures += 1
            if len(notes) < 3:
                notes.append(repr(exc))
    checks.append(
        Check(
            "detect_wishart_battery",
            f"every sampled NPT state at ({m},{n}) is certified",
            failures == 0 and n_npt > 0,
            float(failures),
            0.0,
            0.0,
            note=f"{n_npt} NPT of {samples} samples; worst expectation "
            f"{worst:.3e}" + ("; " + "; ".join(notes) if notes else ""),
        )
    )
    return checks, samples


def _suite_mirror_conditions(m, n, samples, seed):
    checks = []
    bell = pure_from_schmidt([2**-0.5] * 2, 2, 2)
    remark_mat = (2.0 / 3.0) * pt_mat(bell.projector().mat, 2, 2)
    remark_mat[0, 0] += 1.0 / 3.0
    remark = witness.Witness(
        op=BipartiteOperator(2, 2, remark_mat), class_tag=witness.TAG_DEW
    )
    res = mirror(remark, restarts=64, seed=seed)
    checks.append(
        Check(
            "mirror_remark_mu",
            "product-expectation supremum of the remark witness is 2/3",
            abs(res.mu - 2.0 / 3.0) <= 1e-8,
            res.mu,
            2.0 / 3.0,
            1e-8,
        )
    )
    floor = float(eig_hermitian(res.w_m.mat).values[-1])
    checks.append(
        Check(
            "mirror_remark_psd",
            "remark mirror operator is positive semidefinite",
            res.verdict == "mirror-PSD" and floor >= -1e-10,
            floor,
            0.0,
            1e-10,
            note=f"verdict {res.verdict}",
        )
    )
    for mm in (2, 3):
        w = pure_pt_witness(max_entangled(mm, mm))
        res_m = mirror(w, restarts=64, seed=seed)
        checks.append(
            Check(
                f"mirror_bell_{mm}_mu",
                f"transposed Bell witness supremum equals 1/{mm}",
                abs(res_m.mu - 1.0 / mm) <= 1e-8,
                res_m.mu,
                1.0 / mm,
                1e-8,
                note=f"verdict {res_m.verdict}",
            )
        )

    # necessary conditions: whenever a mirror is itself a witness, the source
    # must sit strictly inside the attainability boundary
    battery = [
        w_family(FamilyParams(0.5, 0.5, 0.0, 0.0, 2, 2)),
        w_family(FamilyParams(0.25, 0.25, 0.25, 0.25, 2, 2)),
        w_family(FamilyParams(0.2, 0.4, 0.2, 0.2, 3, 3)),
        pure_pt_witness(pure_from_schmidt([0.8, 0.6], 2, 2)),
    ]
    for i in range(min(samples or 6, 6)):
        battery.append(
            sample_dew(2, 2, x=0.3, rank_p=2, rank_q=2, seed=_sample_seed(seed, i))
        )
    violations = 0
    n_mirror_ew = 0
    for i, w in enumerate(battery):
        res_b = mirror(w, restarts=32, seed=_sample_seed(seed, 1000 + i))
        if res_b.verdict != "mirror-EW":
            continue
        n_mirror_ew += 1
        rep = spectral_report(w)
        if rep.lambda_min <= -0.5 + 1e-9:
            violations += 1
        if w.class_tag == witness.TAG_DEW:
            if rep.fro_sq >= 1.0 - 1e-9:
                violations += 1
            if rep.negativity >= (w.m - 1) / 2.0 - 1e-9:
                violations += 1
    checks.append(
        Check(
            "mirror_necessary_conditions",
            "mirror witnesses only arise strictly inside the spectral boundary",
            violations == 0,
            float(violations),
            0.0,
            0.0,
            note=f"{n_mirror_ew} mirror witnesses among {len(battery)} sources",
        )
    )
    return checks, samples or 0


_SUITES = {
    "dew_bounds": _suite_dew_bounds,
    "ew_spectral_ranges": _suite_ew_spectral_ranges,
    "dew_attainability": _suite_dew_attainability,
    "tail_sum_bounds": _suite_tail_sum_bounds,
    "absolute_ppt": _suite_absolute_ppt,
    "ndew_constructions": _suite_ndew_constructions,
    "npt_detection": _suite_npt_detection,
    "mirror_conditions": _suite_mirror_conditions,
}

SUITE_NAMES = tuple(sorted(_SUITES))


def run_suite(
    name: str, m: int = 3, n: int = 3, samples: int | None = None, seed: int = 42
) -> SuiteReport:
    """Execute a registered suite; failing checks are recorded, never raised.

    samples=None selects the suite's default count; otherwise it must be
    at least 1.
    """
    if name not in _SUITES:
        raise UnknownSuiteError(
            f"unknown suite {name!r}; registered: {', '.join(SUITE_NAMES)}"
        )
    if samples is not None and samples < 1:
        raise BadParamError(f"samples must be at least 1, got {samples}")
    start = time.perf_counter()
    checks, effective_samples = _SUITES[name](m, n, samples, seed)
    return SuiteReport(
        suite=name,
        m=m,
        n=n,
        samples=int(effective_samples),
        seed=seed,
        checks=checks,
        wall_time=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# Serialization.  Wall time is excluded so identical (suite, params, seed)
# runs serialize to identical bytes.

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
        payload = {
            "suite": report.suite,
            "m": report.m,
            "n": report.n,
            "samples": report.samples,
            "seed": report.seed,
            "passed": report.passed,
            "n_pass": report.n_pass,
            "n_fail": report.n_fail,
            "checks": [asdict(c) for c in report.checks],
        }
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
    return SuiteReport(
        suite=obj["suite"],
        m=obj["m"],
        n=obj["n"],
        samples=obj["samples"],
        seed=obj["seed"],
        checks=[Check(**c) for c in obj["checks"]],
    )
