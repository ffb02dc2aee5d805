"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with -s to see them)
and asserts the criterion at its stated tolerance.  Heavy sample batteries
are shared across criteria through module fixtures.
"""

import time

import numpy as np
import pytest

from ews.linalg import BipartiteOperator, eig_hermitian, pt_mat
from ews.states import (
    PureState,
    canonical_state,
    max_entangled,
    pt_spectrum_pure,
    pure_from_schmidt,
)
from ews.verify import SUITE_NAMES, _sampled_stream, emit_report, run_suite
from ews.witness import (
    FamilyParams,
    Witness,
    mirror,
    pure_pt_witness,
    spectral_report,
    w_family,
)

SQRT2 = np.sqrt(2.0)


def _line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:>2}] {status}  {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {name} {detail}"


@pytest.fixture(scope="module")
def dew_bound_reports():
    """Criterion 2 battery: 10^4 sampled witnesses at each dimension pair."""
    reports = {}
    t0 = time.perf_counter()
    for m, n in ((2, 2), (2, 3), (3, 3)):
        reports[(m, n)] = run_suite("dew_bounds", m=m, n=n, samples=10_000, seed=42)
    reports["elapsed"] = time.perf_counter() - t0
    return reports


def test_criterion_01_pt_spectrum_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(500):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(2, 6))
        v = rng.standard_normal(m * n) + 1j * rng.standard_normal(m * n)
        v /= np.linalg.norm(v)
        psi = PureState.from_vector(v, m, n)
        analytic = pt_spectrum_pure(psi)
        numeric = eig_hermitian(pt_mat(np.outer(v, v.conj()), m, n)).values
        worst = max(worst, float(np.abs(analytic - numeric).max()))
    elapsed = time.perf_counter() - t0
    _line(
        1,
        "closed-form PT spectrum matches dense eigendecomposition on 500 states",
        worst <= 1e-9 and elapsed < 30.0,
        f"max dev {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_dew_bound_table(dew_bound_reports):
    ok = True
    details = []
    for dims in ((2, 2), (2, 3), (3, 3)):
        report = dew_bound_reports[dims]
        range_checks = [
            c for c in report.checks if c.claim_id.startswith("dew_") and
            c.claim_id.endswith("_range")
        ]
        bad = sum(int(c.measured) for c in range_checks)
        ok = ok and bad == 0 and all(c.passed for c in range_checks)
        details.append(f"{dims}: {bad} violations")
    elapsed = dew_bound_reports["elapsed"]
    ok = ok and elapsed < 300.0
    _line(2, "bound table holds on 3x10^4 sampled witnesses", ok,
          "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_03_attainability_constants():
    rep_bell = spectral_report(pure_pt_witness(max_entangled(2, 2)))
    ok = (
        abs(rep_bell.lambda_min + 0.5) <= 1e-10
        and abs(rep_bell.fro_sq - 1.0) <= 1e-10
        and abs(rep_bell.negativity - 0.5) <= 1e-10
    )
    rep_x = spectral_report(
        pure_pt_witness(pure_from_schmidt([0.92388, 0.382683], 2, 2))
    )
    ok = ok and abs(rep_x.lambdas[2:].sum() + 1.0 / (2.0 + 2.0 * SQRT2)) <= 1e-6
    rep_9 = spectral_report(
        pure_pt_witness(pure_from_schmidt([SQRT2 / 2.0, 0.5, 0.5], 3, 3))
    )
    ok = ok and abs(rep_9.lambdas[-2:].sum() + SQRT2 / 2.0) <= 1e-9
    rep_3 = spectral_report(pure_pt_witness(max_entangled(3, 3)))
    ok = (
        ok
        and abs(rep_3.lambdas[-3:].sum() + 1.0) <= 1e-10
        and abs(rep_3.negativity - 1.0) <= 1e-10
    )
    _line(3, "attainability constants reproduce exactly", ok)


def test_criterion_04_family_spectrum_formula():
    worst = 0.0
    for b in (0.1, 0.5, 1.0):
        rep = spectral_report(w_family(FamilyParams(1.0 - b, b, 0.0, 0.0, 3, 3)))
        expected = np.sort(
            [(1.0 - b) / 8.0] * 5 + [(1.0 - b) / 8.0 + b / 2.0] * 3 + [-b / 2.0]
        )[::-1]
        worst = max(worst, float(np.abs(rep.lambdas - expected).max()))
    _line(4, "two-parameter family spectrum matches closed form", worst <= 1e-10,
          f"max dev {worst:.2e}")


def test_criterion_05_mirrored_witnesses():
    bell = pure_from_schmidt([2**-0.5] * 2, 2, 2)
    mat = (2.0 / 3.0) * pt_mat(bell.projector().mat, 2, 2)
    mat[0, 0] += 1.0 / 3.0
    res = mirror(
        Witness(op=BipartiteOperator(2, 2, mat), class_tag="DEW-by-construction"),
        restarts=64,
        seed=42,
    )
    floor = eig_hermitian(res.w_m.mat).values[-1]
    ok = abs(res.mu - 2.0 / 3.0) <= 1e-8 and floor >= -1e-10
    details = [f"mu={res.mu:.10f}", f"floor={floor:.2e}"]
    for m in (2, 3):
        res_m = mirror(pure_pt_witness(max_entangled(m, m)), restarts=64, seed=42)
        ok = ok and abs(res_m.mu - 1.0 / m) <= 1e-8
        details.append(f"mu_{m}={res_m.mu:.10f}")
    _line(5, "mirror suprema and PSD mirror operator", ok, ", ".join(details))


def test_criterion_06_canonical_state_identities():
    gamma = canonical_state("gamma")
    ok = gamma.trace() == 1.0
    ok = ok and eig_hermitian(pt_mat(gamma.mat, 3, 3)).values[-1] >= -1e-10
    gp = canonical_state("gamma_prime")
    pt3 = pt_mat(max_entangled(3, 3).projector().mat, 3, 3)
    ok = ok and abs(np.trace(pt3 @ gp.mat).real) <= 1e-10
    from ews.states import is_ppt

    for x in (0.5, 0.9, 0.99):
        ok = ok and is_ppt(canonical_state("rho_b", b=x))
        ok = ok and is_ppt(canonical_state("rho_a", a=x))
    _line(6, "canonical state identities", ok)


def test_criterion_07_absolutely_ppt_orbits():
    t0 = time.perf_counter()
    report = run_suite("absolute_ppt", m=3, n=3, samples=1_000, seed=42)
    elapsed = time.perf_counter() - t0
    ok = report.passed and elapsed < 120.0
    floors = {
        c.claim_id: c.measured for c in report.checks if "orbit" in c.claim_id
    }
    _line(7, "diagonal reference states stay PPT on 10^3 unitary orbits", ok,
          f"worst floors {floors}, {elapsed:.0f}s")


def test_criterion_08_npt_detection_battery():
    t0 = time.perf_counter()
    report = run_suite("npt_detection", m=3, n=3, samples=50, seed=42)
    elapsed = time.perf_counter() - t0
    ok = report.passed and elapsed < 300.0
    battery = next(
        c for c in report.checks if c.claim_id == "detect_wishart_battery"
    )
    _line(8, "every NPT probe state is certified", ok,
          f"{battery.note}, {elapsed:.0f}s")


def test_criterion_09_kernel_floor_monotone():
    report = run_suite("ndew_constructions", m=3, n=3, seed=42)
    rows = {c.claim_id: c for c in report.checks}
    mono = rows["kernel_floor_monotone_rho_b"]
    bracket = rows["kernel_floor_bracket_rho_b"]
    ok = mono.passed  # the bracket row is recorded but never gates
    _line(9, "kernel-projector floor strictly decreases",
          ok, f"{mono.note}; bracket |{bracket.measured:.4f}+0.5| "
          f"{'<=' if bracket.passed else '>'} 0.05 (non-gating)")


def test_criterion_10_non_attainment_evidence(dew_bound_reports):
    report = dew_bound_reports[(3, 3)]
    rows = {c.claim_id: c for c in report.checks}
    sup_row = rows["dew_lambda1_sup_unattained"]
    inf_row = rows["dew_fro_inf_unattained"]
    ok = (
        sup_row.passed
        and inf_row.passed
        and sup_row.note == "sampling evidence"
        and inf_row.note == "sampling evidence"
    )
    _line(10, "suprema/infima not approached by samples (evidence only)", ok,
          f"max lambda1 {sup_row.measured:.4f}, min fro {inf_row.measured:.4f}")


# small per-suite sample counts (None: the suite draws no samples)
CRITERION_11_SAMPLES = {
    "dew_bounds": 80,
    "ew_spectral_ranges": 80,
    "dew_attainability": None,
    "tail_sum_bounds": 80,
    "absolute_ppt": 20,
    "ndew_constructions": None,
    "npt_detection": 2,
    "mirror_conditions": 1,
}


def test_criterion_11_suite_determinism():
    ok = True
    for name in SUITE_NAMES:
        samples = CRITERION_11_SAMPLES[name]
        a = run_suite(name, m=3, n=3, samples=samples, seed=13)
        _sampled_stream.cache_clear()  # the second run draws its stream again
        b = run_suite(name, m=3, n=3, samples=samples, seed=13)
        same = emit_report(a) == emit_report(b) and emit_report(
            a, "csv"
        ) == emit_report(b, "csv")
        ok = ok and same
    _line(11, "identical seeds give byte-identical reports for every suite", ok)
