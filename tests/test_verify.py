import pytest

from ews.errors import BadParamError, UnknownSuiteError
from ews.verify import (
    Check,
    SuiteReport,
    emit_report,
    report_from_json,
    run_suite,
)


def test_unknown_suite():
    with pytest.raises(UnknownSuiteError):
        run_suite("nonesuch")


def test_attainability_suite_passes():
    report = run_suite("dew_attainability", m=2, n=2, seed=1)
    assert report.passed, [c for c in report.checks if not c.passed]
    assert all(c.statement for c in report.checks)


def test_dew_bounds_small_run():
    report = run_suite("dew_bounds", m=2, n=2, samples=300, seed=5)
    assert report.passed, [c for c in report.checks if not c.passed]
    claim_ids = {c.claim_id for c in report.checks}
    assert "dew_lambda1_range" in claim_ids
    evidence = [c for c in report.checks if c.note == "sampling evidence"]
    assert len(evidence) == 2


def test_spectral_ranges_qubit_chain():
    report = run_suite("ew_spectral_ranges", m=2, n=3, samples=300, seed=6)
    assert report.passed
    claim_ids = {c.claim_id for c in report.checks}
    assert {"ew_qubit_pair_sum", "ew_qubit_tail3", "ew_qubit_tailk"} <= claim_ids


def test_tail_sums_small_run():
    report = run_suite("tail_sum_bounds", m=3, n=3, samples=150, seed=7)
    assert report.passed


def test_absolute_ppt_small_run():
    report = run_suite("absolute_ppt", m=3, n=3, samples=40, seed=8)
    assert report.passed
    pairing = [c for c in report.checks if c.claim_id == "ap_pairing_bound"]
    assert len(pairing) == 1 and pairing[0].passed


def test_mirror_suite():
    report = run_suite("mirror_conditions", m=2, n=2, samples=2, seed=9)
    assert report.passed, [c for c in report.checks if not c.passed]


def test_report_determinism_and_roundtrip():
    a = run_suite("dew_bounds", m=2, n=2, samples=50, seed=11)
    b = run_suite("dew_bounds", m=2, n=2, samples=50, seed=11)
    assert emit_report(a) == emit_report(b)
    assert emit_report(a, "csv") == emit_report(b, "csv")
    # wall time differs between runs but is excluded from comparison
    assert a == b
    back = report_from_json(emit_report(a))
    assert back == a


@pytest.mark.parametrize("samples", [0, -1])
def test_nonpositive_samples_rejected(samples):
    with pytest.raises(BadParamError):
        run_suite("dew_bounds", m=2, n=2, samples=samples, seed=1)


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2)])
def test_npt_detection_rejects_sizes_without_a_base_witness(m, n):
    with pytest.raises(BadParamError):
        run_suite("npt_detection", m=m, n=n, samples=5, seed=1)


def test_csv_header_only_for_empty_report():
    empty = SuiteReport(suite="empty", m=2, n=2, samples=0, seed=0, checks=[])
    data = emit_report(empty, "csv").decode()
    lines = data.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("claim_id,")


def test_nongating_checks_do_not_fail_suite():
    report = SuiteReport(
        suite="s",
        m=2,
        n=2,
        samples=0,
        seed=0,
        checks=[
            Check("a", "gating pass", True, 0.0, 0.0, 0.0),
            Check("b", "recorded only", False, 1.0, 0.0, 0.0, gating=False),
        ],
    )
    assert report.passed
    assert report.n_fail == 0
