import pathlib

import numpy as np
import pytest

from ews import blockpos, linalg, verify, witness
from ews.errors import (
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
from ews.linalg import (
    BipartiteOperator,
    eig_hermitian,
    kron,
    pt_mat,
)
from ews.states import (
    PureState,
    canonical_state,
    is_ppt,
    max_entangled,
    pure_from_schmidt,
    random_state,
    tiles_upb_state,
    tiles_upb_vectors,
)
from ews.witness import (
    TAG_DEW,
    TAG_NDEW,
    FamilyParams,
    NdewParams,
    Witness,
    boost_witness,
    detect_npt,
    local_filter_to_max_entangled,
    mirror,
    ndew_from_edge,
    pure_pt_witness,
    sample_dew,
    spectral_report,
    w_family,
)

SQRT2 = np.sqrt(2.0)
# a 3x3 decomposable witness on which none of 4 max-search restarts at seed
# 55 converges within SEESAW_ITER_CAP rounds
SLOW_MIRROR = pathlib.Path(__file__).with_name("stall_mirror_3x3.json")


def test_witness_trace_other_than_one_raises_a_typed_error():
    with pytest.raises(TraceViolationError):
        Witness(BipartiteOperator(2, 2, np.eye(4)))


class TestFamily:
    def test_pure_positive_part_is_not_witness(self):
        rep = spectral_report(w_family(FamilyParams(1, 0, 0, 0, 2, 2)))
        assert not rep.is_ew
        assert rep.bounds == []

    def test_bell_transpose_member(self):
        rep = spectral_report(w_family(FamilyParams(0, 1, 0, 0, 2, 2)))
        assert np.allclose(rep.lambdas, [0.5, 0.5, 0.5, -0.5])
        assert rep.is_ew
        assert abs(rep.negativity - 0.5) < 1e-12
        assert abs(rep.fro_sq - 1.0) < 1e-12

    def test_half_mix_two_qutrit_spectrum(self):
        rep = spectral_report(w_family(FamilyParams(0.5, 0.5, 0, 0, 3, 3)))
        expected = np.sort([0.0625] * 5 + [0.3125] * 3 + [-0.25])[::-1]
        assert np.abs(rep.lambdas - expected).max() < 1e-12
        assert abs(rep.lambdas.sum() - 1.0) < 1e-12

    def test_rejects_bad_weights(self):
        with pytest.raises(BadParamError):
            FamilyParams(0.5, 0.6, 0, 0, 2, 2)
        with pytest.raises(BadParamError):
            FamilyParams(0.5, 0.5, 0, 0, 3, 2)
        with pytest.raises(BadParamError):
            FamilyParams(-0.1, 1.1, 0, 0, 2, 2)

    def test_block_positive_by_construction(self):
        from ews.blockpos import product_expectation_min

        w = w_family(FamilyParams(0.25, 0.25, 0.25, 0.25, 2, 3))
        opt = product_expectation_min(w.op, restarts=16, seed=0)
        assert opt.value >= -1e-10
        assert w.class_tag == TAG_DEW


class TestPurePtWitness:
    def test_bell_is_floor_attainer(self):
        rep = spectral_report(pure_pt_witness(max_entangled(2, 2)))
        assert abs(rep.lambda_min + 0.5) < 1e-12
        assert rep.all_pass
        assert any(b.name == "lambda_min" and b.attained for b in rep.bounds)

    def test_extremal_tail(self):
        w = pure_pt_witness(pure_from_schmidt([0.92388, 0.382683], 2, 2))
        rep = spectral_report(w)
        assert abs(rep.lambdas[2:].sum() + 1.0 / (2 + 2 * SQRT2)) < 1e-6

    def test_qutrit_bell(self):
        rep = spectral_report(pure_pt_witness(max_entangled(3, 3)))
        expected = np.sort([1 / 3.0] * 6 + [-1 / 3.0] * 3)[::-1]
        assert np.abs(rep.lambdas - expected).max() < 1e-12
        assert abs(rep.negativity - 1.0) < 1e-12

    def test_product_state_rejected(self):
        with pytest.raises(ProductStateError):
            pure_pt_witness(pure_from_schmidt([1.0], 2, 2))

    def test_spectrum_matches_closed_form(self):
        from ews.states import pt_spectrum_pure

        psi = pure_from_schmidt([0.8, 0.6], 2, 4)
        rep = spectral_report(pure_pt_witness(psi))
        assert np.abs(rep.lambdas - pt_spectrum_pure(psi)).max() < 1e-10


class TestSampleDew:
    def test_rejects_pure_positive_mix(self):
        with pytest.raises(BadParamError):
            sample_dew(2, 2, x=1.0, seed=0)

    def test_determinism(self):
        a = sample_dew(2, 3, 0.3, seed=5)
        b = sample_dew(2, 3, 0.3, seed=5)
        assert a.op.mat.tobytes() == b.op.mat.tobytes()

    def test_bounds_hold_on_samples(self):
        for i in range(25):
            w = sample_dew(2, 2, x=0.2, seed=100 + i)
            rep = spectral_report(w)
            if rep.is_ew:
                assert rep.all_pass, [b for b in rep.bounds if not b.passed]

    def test_rank_one_transpose_equals_pure_pt(self):
        w = sample_dew(3, 3, x=0.0, rank_p=1, rank_q=1, seed=17)
        # with x = 0 the sample is exactly PT(Q); recover the pure state
        q = pt_mat(w.op.mat, 3, 3)
        eig = eig_hermitian(q)
        vec = eig.vectors[:, 0]
        rebuilt = pure_pt_witness(PureState.from_vector(vec, 3, 3))
        assert np.abs(rebuilt.op.mat - w.op.mat).max() < 1e-12


class TestSpectralReport:
    def test_psd_flagged_not_ew(self):
        op = canonical_state("max_ball_center", m=2, n=2)
        rep = spectral_report(op)
        assert not rep.is_ew

    def test_near_pure_transpose_is_near_pure_pt_witness(self):
        # a sample with squared Frobenius norm within 1e-6 of the supremum
        # must lie within trace distance 1e-3 of a transposed pure projector
        eta = 1e-7
        psi = pure_from_schmidt([0.8, 0.6], 2, 2)
        mat = (1 - eta) * pt_mat(psi.projector().mat, 2, 2) + eta * np.eye(4) / 4.0
        w = Witness(op=BipartiteOperator(2, 2, mat), class_tag=TAG_DEW)
        rep = spectral_report(w)
        assert rep.fro_sq > 1 - 1e-6
        top = eig_hermitian(pt_mat(w.op.mat, 2, 2)).vectors[:, 0]
        nearest = pure_pt_witness(PureState.from_vector(top, 2, 2))
        gap = eig_hermitian(w.op.mat - nearest.op.mat).values
        assert 0.5 * np.abs(gap).sum() < 1e-3

    def test_qubit_rows_present(self):
        rep = spectral_report(w_family(FamilyParams(0.3, 0.7, 0, 0, 2, 3)))
        names = {b.name for b in rep.bounds}
        assert {"pair_sum", "tail_from_3", "tail_from_4_on"} <= names

    def test_negativity_cap_attained_for_phi_mix(self):
        mix = 0.5 * (
            pt_mat(max_entangled(2, 4, 1).projector().mat, 2, 4)
            + pt_mat(max_entangled(2, 4, 2).projector().mat, 2, 4)
        )
        rep = spectral_report(BipartiteOperator(2, 4, mix))
        assert abs(rep.negativity - 0.5) < 1e-10


@pytest.fixture
def second_searches(monkeypatch):
    """Operators handed to a min search or a block-positivity check."""
    calls = []
    for name in ("product_expectation_min", "is_block_positive"):
        real = getattr(blockpos, name)

        def spy(op, *args, real=real, **kwargs):
            calls.append(op)
            return real(op, *args, **kwargs)

        monkeypatch.setattr(blockpos, name, spy)
    return calls


class TestMirror:
    def test_scaled_identity(self):
        w = Witness(
            op=canonical_state("max_ball_center", m=2, n=2), class_tag=TAG_DEW
        )
        res = mirror(w, restarts=16, seed=0)
        assert abs(res.mu - 0.25) < 1e-10
        assert res.verdict == "mirror-PSD"
        assert np.abs(res.w_m.mat).max() < 1e-10

    def test_bell_transpose_mirror_is_psd(self):
        res = mirror(pure_pt_witness(max_entangled(2, 2)), restarts=32, seed=1)
        assert abs(res.mu - 0.5) < 1e-8
        assert res.verdict == "mirror-PSD"

    def test_remark_witness(self):
        bell = pure_from_schmidt([2**-0.5] * 2, 2, 2)
        mat = (2.0 / 3.0) * pt_mat(bell.projector().mat, 2, 2)
        mat[0, 0] += 1.0 / 3.0
        w = Witness(op=BipartiteOperator(2, 2, mat), class_tag=TAG_DEW)
        res = mirror(w, restarts=64, seed=2)
        assert abs(res.mu - 2.0 / 3.0) < 1e-8
        assert res.verdict == "mirror-PSD"
        assert eig_hermitian(res.w_m.mat).values[-1] >= -1e-10

    @pytest.mark.parametrize(
        "holds, verdict", [(True, "mirror-EW"), (False, "inconclusive")]
    )
    def test_non_psd_mirror_is_judged_by_the_max_search(
        self, monkeypatch, second_searches, holds, verdict
    ):
        # mu = lambda_1(W) - 5e-10 leaves the mirror just short of PSD, and
        # its partial transpose mu I - |phi><phi| is far from PSD
        w = pure_pt_witness(max_entangled(2, 2))
        lam1 = eig_hermitian(w.op.mat).values[0]
        exact = blockpos.product_expectation_max
        searched = []

        def shifted(op, restarts, seed):
            opt = exact(op, restarts=restarts, seed=seed)
            opt.value = lam1 - 5e-10
            opt.restarts_agreeing = opt.restarts_tried if holds else 0
            searched.append(opt)
            return opt

        monkeypatch.setattr(blockpos, "product_expectation_max", shifted)
        res = mirror(w, restarts=8, seed=0)
        assert not linalg.is_psd(res.w_m.mat)
        assert len(searched) == 1 and searched[0] is res.opt
        assert res.opt.backed is holds
        assert res.verdict == verdict
        assert second_searches == []

    def test_psd_partial_transpose_proves_the_mirror(
        self, monkeypatch, second_searches
    ):
        # W = A^PT with A = 0.6|00><00| + 0.4|phi'><phi'|, phi' = (|01>+|10>)/sqrt2:
        # mu = 0.6 < lambda_1(W) = 0.3 + sqrt(0.13), and PT(mu I - W) = mu I - A
        phi = np.array([0, 1, 1, 0]) / SQRT2
        a_mat = 0.6 * np.diag([1.0, 0, 0, 0]) + 0.4 * np.outer(phi, phi)
        w = Witness(
            op=BipartiteOperator(2, 2, pt_mat(a_mat.astype(complex), 2, 2)),
            class_tag=TAG_DEW,
        )
        exact = blockpos.product_expectation_max

        def unbacked(op, restarts, seed):
            opt = exact(op, restarts=restarts, seed=seed)
            opt.restarts_agreeing = 0
            return opt

        monkeypatch.setattr(blockpos, "product_expectation_max", unbacked)
        res = mirror(w, restarts=16, seed=0)
        assert abs(res.mu - 0.6) < 1e-10
        assert eig_hermitian(w.op.mat).values[0] > res.mu + 0.05
        assert not linalg.is_psd(res.w_m.mat)
        assert not res.opt.backed
        assert res.verdict == "mirror-EW"
        assert second_searches == []

    @pytest.mark.parametrize("restarts", [1, 2, 3])
    def test_fewer_than_agree_min_restarts_answer_mirror_ew_only_by_proof(
        self, restarts
    ):
        for m, n in ((2, 2), (2, 3), (3, 3)):
            for seed in range(4):
                w = sample_dew(m, n, 0.3, seed=seed)
                res = mirror(w, restarts=restarts, seed=seed)
                assert not res.opt.backed
                if res.verdict == "mirror-EW":
                    assert linalg.is_psd(pt_mat(res.w_m.mat, m, n))
        # W = A^PT as in the proof test above: PT(mu I - W) = mu I - A is PSD
        phi = np.array([0, 1, 1, 0]) / SQRT2
        a_mat = 0.6 * np.diag([1.0, 0, 0, 0]) + 0.4 * np.outer(phi, phi)
        w = Witness(
            op=BipartiteOperator(2, 2, pt_mat(a_mat.astype(complex), 2, 2)),
            class_tag=TAG_DEW,
        )
        res = mirror(w, restarts=restarts, seed=0)
        assert abs(res.mu - 0.6) < 1e-10
        assert not res.opt.backed
        assert res.verdict == "mirror-EW"

    def test_restarts_agree_at_the_scale_of_w_not_of_the_mirror(self):
        # on 6x6, W = p(|00><00| + |11><11| + (|22><22| + |33><33|)/2
        # + 1.2|Phi><Phi|), Phi = (|23> + |32>)/sqrt2, p = 1/4.2, with 1.2e-6
        # moved from <11|W|11> to <22|W|22>: the max search has local maxima
        # p at |00> and p - 1.2e-6 at |11>, ||W||_F < 1 < ||mu I - W||_F, and
        # neither the mirror nor its partial transpose is PSD.  At seed 0
        # three of the four restarts settle at p and one at p - 1.2e-6.
        k, p, gap = 6, 1.0 / 4.2, 1.2e-6
        phi = np.zeros(k * k)
        phi[2 * k + 3] = phi[3 * k + 2] = 1.0 / SQRT2
        mat = 1.2 * p * np.outer(phi, phi)
        for i, weight in enumerate((1.0, 1.0, 0.5, 0.5)):
            mat[i * (k + 1), i * (k + 1)] += weight * p
        mat[k + 1, k + 1] -= gap
        mat[2 * (k + 1), 2 * (k + 1)] += gap
        w = Witness(op=BipartiteOperator(k, k, mat.astype(complex)))
        res = mirror(w, restarts=4, seed=0)
        assert abs(res.mu - p) < 1e-12
        assert np.linalg.norm(w.op.mat) < 1.0
        assert res.opt.restarts_converged == 4
        # the runner-up would agree at the mirror's scale, making four, but
        # not at W's
        assert res.opt.restarts_converged - res.opt.restarts_agreeing == 1
        assert 1e-6 < gap < 1e-6 * np.linalg.norm(res.w_m.mat)
        assert res.opt.restarts_agreeing == 3
        assert res.verdict == "inconclusive"

    def test_verdicts_match_a_min_search_on_the_mirror(self, monkeypatch):
        # reference rule: judge mu I - W by is_block_positive, which runs a
        # see-saw min search on the mirror from the same starts
        def reference(w, restarts, seed):
            res = mirror(w, restarts=restarts, seed=seed)
            if linalg.is_psd(res.w_m.mat):
                return res.verdict, "mirror-PSD"
            check = blockpos.is_block_positive(res.w_m, restarts=restarts, seed=seed)
            return res.verdict, (
                "mirror-EW" if check.status.startswith("yes") else "inconclusive"
            )

        pairs = []
        for m, n in ((2, 2), (2, 3), (3, 3), (2, 4)):
            for restarts in (4, 16):
                for i in range(8):
                    rng = np.random.default_rng([m, n, restarts, i])
                    w = sample_dew(
                        m, n, x=float(rng.uniform(0, 0.9)), seed=int(rng.integers(2**31))
                    )
                    pairs.append(reference(w, restarts, i))

        def recorded(w, restarts=blockpos.DEFAULT_RESTARTS, seed=0):
            pairs.append(reference(w, restarts, seed))
            return mirror(w, restarts=restarts, seed=seed)

        monkeypatch.setattr(verify, "mirror", recorded)
        for seed in (1, 2):
            verify.run_suite("mirror_conditions", samples=6, seed=seed)
        assert len(pairs) == 64 + 2 * 13
        assert [new for new, _ in pairs] == [ref for _, ref in pairs]
        assert {new for new, _ in pairs} == {"mirror-PSD", "mirror-EW", "inconclusive"}

    def test_rejects_non_block_positive(self):
        # unit trace, but <11|W|11> = -3/2 on a product vector
        w = Witness(
            op=BipartiteOperator(2, 2, np.diag([1.5, 0.5, 0.5, -1.5]).astype(complex)),
            class_tag="EW-unclassified",
        )
        with pytest.raises(BadParamError):
            mirror(w, restarts=8, seed=3)

    def test_search_outlasting_the_cap_is_inconclusive(self):
        op = linalg.read_operator(str(SLOW_MIRROR))
        res = mirror(Witness(op=op, class_tag=TAG_DEW), restarts=4, seed=55)
        assert res.verdict == "inconclusive"
        assert res.opt.restarts_converged == 1 and not res.opt.backed
        assert res.opt.iterations > 4 * blockpos.SEESAW_ITER_CAP
        v = kron(res.opt.vec_a, res.opt.vec_b)
        assert abs(np.vdot(v, op.mat @ v).real - res.mu) < 1e-12


class TestNdewFromEdge:
    def test_rho_b_certification(self):
        sigma = canonical_state("rho_b", b=0.9)
        w = ndew_from_edge(sigma, NdewParams(), restarts=64, seed=7)
        assert w.class_tag == TAG_NDEW
        assert w.provenance["epsilon_estimate"] > 1e-7
        expect = float(np.trace(w.op.mat @ sigma.mat).real)
        assert expect < -1e-9
        assert abs(w.op.trace() - 1.0) < 1e-9
        # a witness detecting a PPT state must itself have a negative eigenvalue
        assert eig_hermitian(w.op.mat).values[-1] < -1e-10

    def test_tiles_upb_margin_vanishes(self):
        # four of the five real tile vectors: (I - P4)/5 is PPT and both
        # kernels are P4, so the fifth vector leaves no product-vector margin
        proj = sum(np.outer(v, v.conj()) for v in tiles_upb_vectors()[:4])
        sigma = BipartiteOperator(3, 3, (np.eye(9) - proj) / 5.0)
        for mat in (sigma.mat, pt_mat(sigma.mat, 3, 3)):
            kernel, dim = witness._kernel_projector(mat)
            assert dim == 4
            assert np.abs(kernel - proj).max() < 1e-12
        with pytest.raises(EpsilonVanishesError):
            ndew_from_edge(sigma, NdewParams(), restarts=32, seed=11)

    def test_kernel_projectors_come_from_the_state_alone(self):
        proj = np.eye(9, dtype=complex)
        with pytest.raises(TypeError):
            ndew_from_edge(tiles_upb_state(), proj_p=proj, proj_q=proj)

    def test_full_rank_rejected(self):
        with pytest.raises(FullRankError):
            ndew_from_edge(
                canonical_state("max_ball_center", m=3, n=3), restarts=8, seed=0
            )

    def test_npt_rejected(self):
        with pytest.raises(NotPPTError):
            ndew_from_edge(max_entangled(3, 3).projector(), restarts=8, seed=0)

    @pytest.mark.parametrize("search", [{"restarts": 0}, {"seed": -1}])
    def test_restarts_and_seed_checked_before_the_ppt_test(self, search):
        with pytest.raises(BadParamError, match="must be an integer of at least"):
            ndew_from_edge(max_entangled(3, 3).projector(), **search)

    @pytest.mark.parametrize("restarts", [1, 2, 3])
    def test_fewer_than_agree_min_restarts_never_certify(self, restarts):
        # every restart may agree, yet fewer than AGREE_MIN of them back
        # nothing: a single local minimum once certified a witness that is
        # not block positive
        for seed in range(6):
            with pytest.raises(NoConvergedRestartError, match="not reproducible"):
                ndew_from_edge(canonical_state("gamma"), restarts=restarts, seed=seed)

    def test_margin_backed_by_too_few_restarts_rejected(self):
        # two of eight restarts agree at the best value, short of four
        with pytest.raises(NoConvergedRestartError, match="2 restarts agree"):
            ndew_from_edge(canonical_state("gamma"), restarts=8, seed=0)

    def test_provenance_carries_the_evidence_of_its_search(self, searches):
        w = ndew_from_edge(canonical_state("gamma"), restarts=64, seed=1)
        (opt,) = searches
        assert [k for k in w.provenance if k.startswith("restarts_")] == list(
            blockpos.EVIDENCE
        )
        counts = {k: w.provenance[k] for k in blockpos.EVIDENCE}
        assert counts == blockpos.evidence(opt)
        assert w.provenance["restarts_agreeing"] >= blockpos.AGREE_MIN
        assert not [k for k in w.provenance if "spread" in k]


@pytest.fixture(scope="module")
def gamma_witness():
    return ndew_from_edge(
        canonical_state("gamma_prime"), NdewParams(), restarts=64, seed=13
    )


class TestBoost:
    def test_zero_weight_identity(self, gamma_witness):
        boosted = boost_witness(gamma_witness, max_entangled(3, 3), t=0.0)
        assert np.abs(boosted.op.mat - gamma_witness.op.mat).max() < 1e-15

    def test_detection_scales_linearly(self, gamma_witness):
        rho = gamma_witness.detected_state
        base = float(np.trace(gamma_witness.op.mat @ rho.mat).real)
        for t in (1.0, 5.0):
            boosted = boost_witness(gamma_witness, max_entangled(3, 3), t=t)
            got = float(np.trace(boosted.op.mat @ rho.mat).real)
            assert abs(got - base / (1 + t)) < 1e-12

    def test_negativity_approaches_cap(self, gamma_witness):
        negs = [
            spectral_report(
                boost_witness(gamma_witness, max_entangled(3, 3), t=t)
            ).negativity
            for t in (1.0, 10.0, 100.0)
        ]
        assert negs[0] < negs[1] < negs[2]
        assert abs(negs[-1] - 1.0) < 0.05

    def test_orthogonality_enforced(self, gamma_witness):
        with pytest.raises(OrthogonalityError):
            boost_witness(gamma_witness, pure_from_schmidt([0.8, 0.6], 3, 3), t=1.0)

    def test_requires_certified_witness(self):
        w = pure_pt_witness(max_entangled(2, 2))
        with pytest.raises(BadParamError):
            boost_witness(w, max_entangled(2, 2), t=1.0)

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), -1.0])
    def test_weight_must_be_non_negative_and_finite(self, gamma_witness, t):
        with pytest.raises(
            BadParamError, match=rf"^t must be a real number in \[0, inf\), got {t}$"
        ):
            boost_witness(gamma_witness, max_entangled(3, 3), t=t)


class TestLocalFilter:
    def test_bell_gives_trivial_filter(self):
        psi = max_entangled(2, 2)
        f = local_filter_to_max_entangled(psi)
        target = kron(f.a, f.b) @ psi.to_vector()  # Psi_2 maps to itself
        assert np.linalg.norm(target - psi.to_vector()) < 1e-9

    def test_diagonal_coefficients(self):
        psi = pure_from_schmidt([0.8, 0.6], 2, 2)
        f = local_filter_to_max_entangled(psi)
        assert np.allclose(np.abs(f.a), np.diag([0.8 * SQRT2, 0.6 * SQRT2]), atol=1e-12)
        assert np.allclose(np.abs(f.b), np.eye(2), atol=1e-12)

    def test_random_states_map_exactly(self):
        rng = np.random.default_rng(23)
        for m, n in ((2, 3), (3, 3), (3, 4)):
            v = rng.standard_normal(m * n) + 1j * rng.standard_normal(m * n)
            v /= np.linalg.norm(v)
            psi = PureState.from_vector(v, m, n)
            f = local_filter_to_max_entangled(psi)
            d = psi.rank
            bell = np.zeros(m * n, dtype=complex)
            for i in range(d):
                bell[i * n + i] = 1 / np.sqrt(d)
            assert np.linalg.norm(kron(f.a, f.b) @ bell - v) < 1e-9
            # invertibility with a finite condition number
            assert np.linalg.cond(f.a) < 1e8
            assert np.linalg.cond(f.b) < 1e8

    def test_missed_target_raises_a_typed_error(self, monkeypatch):
        monkeypatch.setattr(witness, "_psi_d_vector", lambda m, n, d: np.zeros(m * n))
        with pytest.raises(NoConvergenceError):
            local_filter_to_max_entangled(max_entangled(2, 2))


class TestDetectNpt:
    def test_embedded_bell_two_qutrits(self):
        rho = pure_from_schmidt([2**-0.5] * 2, 3, 3).projector()
        cert = detect_npt(rho, restarts=64, seed=3)
        assert cert.expectation < -1e-9
        assert cert.witness.class_tag == TAG_NDEW
        assert is_ppt(cert.witness.detected_state)
        recheck = float(
            np.trace(cert.witness.op.mat @ cert.witness.detected_state.mat).real
        )
        assert recheck < -1e-9

    def test_qutrit_bell(self):
        cert = detect_npt(max_entangled(3, 3).projector(), restarts=64, seed=3)
        assert cert.expectation < -1e-9
        # the bottom eigenvector of the transposed projector is an
        # antisymmetric pair vector, so the rank-2 branch fires
        assert cert.pipeline["schmidt_rank"] == 2

    def test_qutrit_bell_bottom_eigenspace_has_schmidt_rank_two(self):
        # the -1/3 eigenspace of PT(|Phi_3><Phi_3|) is antisymmetric: every
        # vector in it has an antisymmetric 3x3 coefficient matrix, hence
        # Schmidt rank 2, so the base does not depend on LAPACK's basis
        rho = max_entangled(3, 3).projector()
        eig = eig_hermitian(pt_mat(rho.mat, 3, 3))
        space = eig.vectors[:, np.abs(eig.values + 1.0 / 3.0) < 1e-10]
        assert space.shape[1] == 3
        rng = np.random.default_rng(23)
        coeffs = rng.standard_normal((3, 200)) + 1j * rng.standard_normal((3, 200))
        vecs = space @ coeffs
        vecs /= np.linalg.norm(vecs, axis=0)
        assert {PureState.from_vector(v, 3, 3).rank for v in vecs.T} == {2}
        assert detect_npt(rho, restarts=64, seed=3).pipeline["base"] == "gamma1"

    def test_qubit_times_four(self):
        rho = pure_from_schmidt([2**-0.5] * 2, 2, 4).projector()
        cert = detect_npt(rho, restarts=64, seed=3)
        assert cert.expectation < -1e-9
        assert cert.pipeline["base"] == "rho_b_flip"

    def test_wishart_battery_uses_rank3_branch(self):
        hits = 0
        for i in range(4):
            rho = random_state("density_wishart", 3, 3, rank=9, seed=2000 + i)
            from ews.states import is_ppt as ppt

            if ppt(rho):
                continue
            cert = detect_npt(rho, restarts=64, seed=9)
            assert cert.expectation < -1e-9
            if cert.pipeline["base"] == "gamma2":
                hits += 1
        assert hits > 0

    def test_base_witness_built_once_across_seeds(self):
        witness._base_witness.cache_clear()
        rho = pure_from_schmidt([2**-0.5] * 2, 3, 3).projector()
        certs = [detect_npt(rho, restarts=64, seed=s) for s in (0, 1, 2)]
        info = witness._base_witness.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 2)
        first = certs[0].witness.op.mat.tobytes()
        assert all(c.witness.op.mat.tobytes() == first for c in certs)

    def test_boost_direction_transposed_once(self, monkeypatch):
        # PT(|Psi_d><Psi_d|) is built from the vector Psi_d itself, so a warm
        # detection Schmidt-decomposes psi alone
        rho = pure_from_schmidt([2**-0.5] * 2, 3, 3).projector()
        first = detect_npt(rho, restarts=64, seed=3)  # warms the base cache
        calls = []
        exact = PureState.from_vector.__func__

        def counting(cls, vec, m, n):
            calls.append(vec)
            return exact(cls, vec, m, n)

        monkeypatch.setattr(PureState, "from_vector", classmethod(counting))
        again = detect_npt(rho, restarts=64, seed=3)
        assert len(calls) == 1
        assert again.witness.op.mat.tobytes() == first.witness.op.mat.tobytes()
        assert again.pipeline == first.pipeline

    def test_pipeline_carries_base_margin_evidence(self):
        rho = pure_from_schmidt([2**-0.5] * 2, 3, 3).projector()
        cert = detect_npt(rho, restarts=64, seed=3)
        base = witness._base_witness("gamma1", 64).provenance
        assert cert.pipeline["base_epsilon_estimate"] == base["epsilon_estimate"]
        for key in blockpos.EVIDENCE:
            assert cert.pipeline["base_" + key] == base[key]
        assert cert.pipeline["base_epsilon_estimate"] > 0
        assert cert.pipeline["base_restarts_converged"] == 64

    def test_pipeline_carries_the_evidence_of_the_base_search(self, searches):
        witness._base_witness.cache_clear()  # the base search runs here
        cert = detect_npt(max_entangled(3, 3).projector(), restarts=32, seed=3)
        (opt,) = searches
        assert [k for k in cert.pipeline if k.startswith("base_restarts_")] == [
            "base_" + k for k in blockpos.EVIDENCE
        ]
        assert {
            k: cert.pipeline["base_" + k] for k in blockpos.EVIDENCE
        } == blockpos.evidence(opt)
        assert cert.pipeline["base_restarts_tried"] == 32
        for keys in (cert.pipeline, cert.witness.provenance):
            assert not [k for k in keys if "spread" in k]

    def test_pipeline_and_provenance_share_the_trail(self):
        cert = detect_npt(max_entangled(3, 3).projector(), restarts=64, seed=3)
        assert list(cert.pipeline) == [
            "lambda_min_pt", "schmidt_rank", "base", "t", "carrier",
            "base_expectation", "base_epsilon_estimate", "base_restarts_tried",
            "base_restarts_converged", "base_restarts_agreeing",
        ]
        prov = cert.witness.provenance
        assert prov["family"] == "detect_npt"
        for key in ("lambda_min_pt", "schmidt_rank", "base", "t"):
            assert prov[key] == cert.pipeline[key]
        base = witness._base_witness(cert.pipeline["base"], 64).provenance
        for key in blockpos.EVIDENCE:
            assert cert.pipeline["base_" + key] == base[key]

    def test_ppt_input_rejected(self):
        with pytest.raises(IsPPTError):
            detect_npt(canonical_state("gamma"), restarts=8, seed=0)

    def test_small_system_rejected(self):
        with pytest.raises(BadParamError):
            detect_npt(max_entangled(2, 2).projector(), restarts=8, seed=0)

    def test_wrong_orientation_rejected(self):
        rho = pure_from_schmidt([2**-0.5] * 2, 4, 2).projector()
        with pytest.raises(BadParamError):
            detect_npt(rho, restarts=8, seed=0)

    @pytest.mark.parametrize("m,n", [(2, 3), (3, 2)])
    def test_qubit_qutrit_gives_its_reason_in_either_order(self, m, n):
        # qutrit-qubit admits no NDEW, so transposing the factors cannot help
        rho = pure_from_schmidt([2**-0.5] * 2, m, n).projector()
        with pytest.raises(BadParamError, match="admit no nondecomposable witness"):
            detect_npt(rho, restarts=8, seed=0)


def test_boost_direction_orthogonal_to_bases():
    # the boost carriers pair to zero against their base states, which is
    # what keeps certification alive inside the detection pipeline
    pt2 = pt_mat(pure_from_schmidt([2**-0.5] * 2, 3, 3).projector().mat, 3, 3)
    pt3 = pt_mat(max_entangled(3, 3).projector().mat, 3, 3)
    g1 = canonical_state("gamma1")
    g2 = canonical_state("gamma2")
    assert abs(np.trace(pt2 @ g1.mat).real) < 1e-10
    assert abs(np.trace(pt3 @ g2.mat).real) < 1e-10

    rb = canonical_state("rho_b", b=0.9)
    flip = kron(np.diag([-1.0, 1.0]), np.eye(4))
    sigma = flip @ pt_mat(rb.mat, 2, 4) @ flip
    pt2_24 = pt_mat(pure_from_schmidt([2**-0.5] * 2, 2, 4).projector().mat, 2, 4)
    assert abs(np.trace(pt2_24 @ sigma).real) < 1e-10
    assert eig_hermitian(pt_mat(sigma, 2, 4)).values[-1] >= -1e-10


@pytest.mark.parametrize("m, n", [(1, 2), (1, 3), (2, 1)])
def test_spectral_report_rejects_a_trivial_factor(m, n):
    lam = np.zeros(m * n)
    lam[0], lam[-1] = 1.5, -0.5
    with pytest.raises(BadParamError):
        spectral_report(BipartiteOperator(m, n, np.diag(lam)))


@pytest.mark.parametrize("m, n", [(-3, -2), (1, 4), (1, 1), (3, 2)])
def test_family_params_reject_bad_sizes(m, n):
    with pytest.raises(BadParamError):
        FamilyParams(1.0, 0.0, 0.0, 0.0, m, n)


@pytest.mark.parametrize("key", ["z", "delta"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0])
def test_ndew_params_must_be_positive_and_finite(key, value):
    message = rf"^{key} must be a real number in \(0, inf\), got {value}$"
    with pytest.raises(BadParamError, match=message):
        NdewParams(**{key: value})


def test_ndew_params_take_no_boost_weight():
    with pytest.raises(TypeError):
        NdewParams(t=5.0)


def test_sample_dew_rejects_a_negative_seed():
    with pytest.raises(BadParamError, match="seed must be an integer of at least 0, got -1"):
        sample_dew(2, 2, x=0.3, seed=-1)


@pytest.mark.parametrize("restarts", [0, -3])
def test_seesaw_callers_reject_fewer_than_one_restart(restarts):
    with pytest.raises(BadParamError):
        mirror(pure_pt_witness(max_entangled(2, 2)), restarts=restarts)
    with pytest.raises(BadParamError):
        ndew_from_edge(canonical_state("rho_b", b=0.9), restarts=restarts)


@pytest.mark.parametrize(
    "call",
    [
        lambda: sample_dew(2.5, 2, 0.3),
        lambda: random_state("pure_haar", 2.5, 2),
        lambda: max_entangled(2.5, 3),
        lambda: pure_from_schmidt([1.0], 2.5, 2),
        lambda: w_family(FamilyParams(1, 0, 0, 0, 2.5, 3)),
    ],
    ids=["sample_dew", "random_state", "max_entangled", "pure_from_schmidt", "w_family"],
)
def test_non_integral_sizes_fail_at_the_boundary(call):
    with pytest.raises(BadParamError, match="m must be an integer of at least 2, got 2.5"):
        call()


@pytest.mark.parametrize("ranks", [(5, 0), (0, 5), (5, 5)])
def test_sample_dew_rejects_a_rank_above_the_dimension(ranks):
    with pytest.raises(BadRankError, match="outside 1..4"):
        sample_dew(2, 2, 0.3, *ranks)


def test_ndew_rejects_a_shift_too_small_to_detect():
    # delta = 1e-12 leaves tr(W sigma) = -delta / norm above -DETECT_TOL
    with pytest.raises(EpsilonVanishesError, match="detection expectation"):
        ndew_from_edge(canonical_state("rho_b", b=0.9), NdewParams(delta=1e-12))


def test_detect_npt_refuses_a_state_too_close_to_ppt_to_certify():
    # lambda_min of the partial transpose is -1.05e-10: NPT by the
    # NEG_EIG_TOL rule, yet the certified expectation lands near
    # lambda_min / 2, above -DETECT_TOL
    bell = pure_from_schmidt([2**-0.5] * 2, 3, 3).projector().mat
    q = (-1.05e-10 + 0.5) / (1.0 / 9.0 + 0.5)
    rho = BipartiteOperator(3, 3, (1.0 - q) * bell + q * np.eye(9) / 9.0)
    with pytest.raises(BoostDenominatorError, match="pipeline produced"):
        detect_npt(rho)


@pytest.mark.parametrize("eps", [linalg.NEG_EIG_TOL / 2, linalg.NEG_EIG_TOL])
def test_psd_slack_stays_above_the_detection_cut(eps):
    # The PSD rule accepts a unit-trace W (scale 1) with an eigenvalue
    # down to -NEG_EIG_TOL, and no state meets W below its lowest
    # eigenvalue; with NEG_EIG_TOL < DETECT_TOL such a W detects nothing.
    a = (1.0 + eps) / 3.0
    w = np.diag([a, a, a, -eps]).astype(complex)
    assert np.trace(w).real == pytest.approx(1.0, abs=1e-15)
    assert linalg.tolerance_scale(w) == 1.0 and linalg.is_psd(w)
    e11 = np.eye(4)[3]  # |1>|1>, the eigenvector of -eps
    assert float(np.trace(w @ np.outer(e11, e11)).real) > -witness.DETECT_TOL
