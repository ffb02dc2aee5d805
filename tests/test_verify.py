import numpy as np
import pytest

from ews import blockpos, linalg, states, verify, witness
from ews.errors import BadParamError, IsPPTError, NoConvergenceError, UnknownSuiteError
from ews.linalg import BipartiteOperator, eig_hermitian, pt_mat
from ews.states import canonical_state, haar_unitary
from ews.verify import (
    Check,
    SuiteReport,
    _check,
    emit_report,
    report_from_json,
    run_suite,
)
from ews.witness import detect_npt, sample_dew, spectral_report


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


@pytest.mark.parametrize("m,n", [(3, 2), (4, 2)])
def test_spectral_ranges_qubit_chain_on_the_second_factor(m, n):
    report = run_suite("ew_spectral_ranges", m=m, n=n, samples=300, seed=6)
    assert report.passed, [c for c in report.checks if not c.passed]
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
    report = run_suite("mirror_conditions", m=3, n=3, samples=2, seed=9)
    assert report.passed, [c for c in report.checks if not c.passed]


def test_report_determinism_and_roundtrip():
    a = run_suite("dew_bounds", m=2, n=2, samples=50, seed=11)
    verify._sampled_stream.cache_clear()  # the second run draws its stream again
    b = run_suite("dew_bounds", m=2, n=2, samples=50, seed=11)
    assert emit_report(a) == emit_report(b)
    assert emit_report(a, "csv") == emit_report(b, "csv")
    # wall time differs between runs but is excluded from comparison
    assert a == b
    back = report_from_json(emit_report(a))
    assert back == a


_SAMPLED_SUITES = ("dew_bounds", "ew_spectral_ranges", "tail_sum_bounds")


@pytest.mark.parametrize("order", [_SAMPLED_SUITES, _SAMPLED_SUITES[::-1]])
@pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (2, 4)])
def test_cached_stream_gives_the_cold_report_bytes(m, n, order):
    def emit(suite):
        report = run_suite(suite, m=m, n=n, samples=60, seed=3)
        return emit_report(report) + emit_report(report, "csv")

    cold = {}
    for suite in order:
        verify._sampled_stream.cache_clear()
        cold[suite] = emit(suite)
    verify._sampled_stream.cache_clear()
    assert {suite: emit(suite) for suite in order} == cold
    info = verify._sampled_stream.cache_info()
    assert (info.misses, info.hits) == (1, len(order) - 1)


def test_stream_matches_the_per_sample_reports():
    """The cached arrays hold exactly what each sample's report says."""
    m, n, samples, seed = 2, 3, 40, 4
    reports = []
    for i in range(samples):
        rng = np.random.default_rng(verify._sample_seed(seed, i))
        x = float(rng.uniform(0.0, 1.0))
        ranks = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        w = sample_dew(m, n, x, *ranks, seed=int(rng.integers(0, 2**63)))
        reports.append(spectral_report(w))
    ews = [r for r in reports if r.is_ew]
    verify._sampled_stream.cache_clear()
    stream = verify._sampled_stream(m, n, samples, seed)
    assert stream.rows == tuple(b.name for b in ews[0].bounds)
    assert stream.skipped == samples - len(ews)
    assert np.array_equal(stream.lambdas, [r.lambdas for r in ews])
    for field in ("measured", "passed"):
        rows = [[getattr(b, field) for b in r.bounds] for r in ews]
        assert np.array_equal(getattr(stream, field), rows)


def test_stream_cache_never_exceeds_its_bound():
    verify._sampled_stream.cache_clear()
    bound = verify._STREAM_CACHE_SIZE
    for seed in range(bound + 3):
        run_suite("tail_sum_bounds", m=2, n=2, samples=5, seed=seed)
        info = verify._sampled_stream.cache_info()
        assert info.maxsize == bound
        assert info.currsize == min(seed + 1, bound)


def test_cached_stream_arrays_are_read_only():
    verify._sampled_stream.cache_clear()
    stream = verify._sampled_stream(2, 2, 20, 1)
    for arr in (stream.lambdas, stream.measured, stream.passed):
        for view in (arr, arr.base):
            with pytest.raises(ValueError):
                view[(0,) * view.ndim] = 0


@pytest.mark.parametrize("samples", [0, -1])
def test_nonpositive_samples_rejected(samples):
    with pytest.raises(BadParamError):
        run_suite("dew_bounds", m=2, n=2, samples=samples, seed=1)


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2)])
def test_npt_detection_rejects_sizes_without_a_base_witness(m, n):
    with pytest.raises(BadParamError):
        run_suite("npt_detection", m=m, n=n, samples=5, seed=1)


@pytest.mark.parametrize("m,n", [(4, 5), (2, 2)])
def test_mirror_conditions_rejects_sizes_other_than_its_own(m, n):
    # its battery runs fixed 2x2 and 3x3 states, and its report is keyed (3, 3)
    message = (
        rf"mirror_conditions runs at its default size \(3, 3\) only, got \({m}, {n}\)"
    )
    with pytest.raises(BadParamError, match=message):
        run_suite("mirror_conditions", m=m, n=n, seed=1)


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


def test_run_suite_resolves_default_sample_counts():
    assert run_suite("dew_attainability", m=2, n=2).samples == 0
    assert run_suite("dew_attainability", m=2, n=2, samples=5).samples == 5
    assert run_suite("absolute_ppt", m=2, n=2, seed=3).samples == 1_000


# (relation, measured values on and just past the tolerance boundary around
# expected 0 with tolerance 0.5, and whether each passes)
_ABOVE = np.nextafter(0.5, 1.0)
_BOUNDARIES = [
    ("==", [0.5, -0.5, _ABOVE, -_ABOVE], [True, True, False, False]),
    (">=", [-0.5, -_ABOVE], [True, False]),
    ("<=", [0.5, _ABOVE], [True, False]),
    (">", [0.5, _ABOVE], [False, True]),
    ("<", [-0.5, -_ABOVE], [False, True]),
]


@pytest.mark.parametrize("rel,values,passes", _BOUNDARIES)
def test_check_relations_at_the_tolerance_boundary(rel, values, passes):
    for value, ok in zip(values, passes):
        c = _check("c", "s", value, rel, 0.0, 0.5, "n")
        assert c == Check("c", "s", ok, value, 0.0, 0.5, "n")


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


def test_failed_detection_keeps_the_check_statement(monkeypatch):
    passing = run_suite("npt_detection", m=3, n=3, samples=1, seed=2)
    monkeypatch.setattr(verify, "detect_npt", _raise(NoConvergenceError("x")))
    failing = run_suite("npt_detection", m=3, n=3, samples=1, seed=2)
    assert not failing.passed
    for good, bad in zip(passing.checks, failing.checks):
        assert (bad.claim_id, bad.statement, bad.expected, bad.tolerance) == (
            good.claim_id, good.statement, good.expected, good.tolerance
        )
        if bad.claim_id.startswith("detect_bell"):
            assert not bad.passed and bad.measured == 0.0
            assert bad.note == "NoConvergenceError('x')"


def _battery_note(report):
    return next(c.note for c in report.checks if c.claim_id == "detect_wishart_battery")


def test_battery_note_carries_the_largest_certified_expectation(monkeypatch):
    expectations = []

    def recording_detect(rho):
        cert = detect_npt(rho)
        expectations.append(cert.expectation)
        return cert

    monkeypatch.setattr(verify, "detect_npt", recording_detect)
    report = run_suite("npt_detection", m=3, n=3, samples=4, seed=1)
    assert len(expectations) == 3 + 4 and max(expectations) < 0.0
    assert _battery_note(report) == (
        f"4 NPT of 4 samples; worst expectation {max(expectations[3:]):.3e}"
    )


@pytest.mark.parametrize("exc,note", [
    (NoConvergenceError("x"), "1 NPT of 1 samples; no certificate; NoConvergenceError('x')"),
    (IsPPTError("ppt"), "0 NPT of 1 samples; no certificate"),
], ids=["error", "ppt"])
def test_battery_note_without_a_certificate(monkeypatch, exc, note):
    monkeypatch.setattr(verify, "detect_npt", _raise(exc))
    report = run_suite("npt_detection", m=3, n=3, samples=1, seed=1)
    assert _battery_note(report) == note


def test_npt_detection_diagonalises_each_partial_transpose_once(monkeypatch):
    run_suite("npt_detection", m=3, n=3, samples=4, seed=1)  # builds the base witnesses
    inputs, solved = [], []
    detect, solve = verify.detect_npt, linalg.eig_hermitian

    def recording_detect(rho, *args, **kwargs):
        inputs.append(rho)
        return detect(rho, *args, **kwargs)

    def recording_solve(h):
        solved.append(np.array(h))
        return solve(h)

    monkeypatch.setattr(verify, "detect_npt", recording_detect)
    for mod in (linalg, states, blockpos, witness, verify):
        monkeypatch.setattr(mod, "eig_hermitian", recording_solve)
    run_suite("npt_detection", m=3, n=3, samples=4, seed=1)
    assert len(inputs) == 3 + 4
    for rho in inputs:
        pt = pt_mat(rho.mat, rho.m, rho.n)
        assert sum(h.shape == pt.shape and np.array_equal(h, pt) for h in solved) == 1


def _reference_orbit_floors(m, n, samples, seed):
    """The absolute-PPT orbit floors of rho1 and rho2, one unitary at a time."""
    rngs = (np.random.default_rng(verify._sample_seed(seed, i)) for i in range(samples))
    us = [haar_unitary(m * n, rng) for rng in rngs]
    floors = []
    for name in ("rho1", "rho2"):
        rho = canonical_state(name, m=m, n=n).mat
        orbit = np.array([pt_mat(u @ rho @ u.conj().T, m, n) for u in us])
        floors.append(float(eig_hermitian(orbit).values[:, -1].min()))
    return floors


@pytest.mark.parametrize("m, n, samples, seed", [
    (2, 3, 125, 1),
    (2, 2, verify._ORBIT_BLOCK + 37, 7),  # crosses a block boundary
])
def test_stacked_orbit_floors_match_the_per_sample_loop(m, n, samples, seed):
    report = run_suite("absolute_ppt", m=m, n=n, samples=samples, seed=seed)
    floors = [c.measured for c in report.checks[:2]]
    assert floors == _reference_orbit_floors(m, n, samples, seed)


def test_negative_seed_rejected():
    with pytest.raises(BadParamError, match="seed must be an integer of at least 0, got -1"):
        run_suite("absolute_ppt", m=2, n=2, samples=3, seed=-1)


def test_a_malformed_witness_in_a_suite_is_a_failed_check(monkeypatch):
    def unnormalized_boost(w, psi, t):
        return verify.witness.Witness(BipartiteOperator(w.m, w.n, 2.0 * w.op.mat))

    monkeypatch.setattr(verify, "boost_witness", unnormalized_boost)
    report = run_suite("ndew_constructions", m=3, n=3, seed=1)
    failed = [c for c in report.checks if c.gating and not c.passed]
    assert [c.claim_id for c in failed] == ["boost_negativity_convergence"]
    assert failed[0].note.startswith("TraceViolationError(")


def test_programming_errors_in_a_suite_propagate(monkeypatch):
    monkeypatch.setattr(verify, "ndew_from_edge", _raise(TypeError("bug")))
    with pytest.raises(TypeError):
        run_suite("ndew_constructions", m=3, n=3, seed=1)


# The explicit ids keep each case's name stable when the message wording
# changes; they state the rule the case breaks, not the expected text.
@pytest.mark.parametrize("param, message", [
    ({"samples": 2.5}, "samples must be an integer of at least 1, got 2.5"),
    pytest.param({"m": 2.5}, "m must be an integer of at least 2, got 2.5",
                 id=r"param1-local dimensions \(2.5, 2\) must be integers"),
    pytest.param({"n": float("nan")}, "n must be an integer of at least 2, got nan",
                 id=r"param2-local dimensions \(2, nan\) must be integers"),
    pytest.param({"seed": 1.5}, "seed must be an integer of at least 0, got 1.5",
                 id="param3-seed must be an integer, got 1.5"),
])
def test_non_integer_sizes_samples_and_seeds_rejected(param, message):
    kwargs = {"m": 2, "n": 2, "samples": 3, "seed": 1, **param}
    with pytest.raises(BadParamError, match=message):
        run_suite("dew_bounds", **kwargs)


def test_emit_report_rejects_an_unknown_format():
    report = run_suite("tail_sum_bounds", m=2, n=2, samples=3, seed=1)
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        emit_report(report, fmt="xml")
