import itertools

import numpy as np
import pytest

from ews import blockpos, witness
from ews.blockpos import (
    ZeroPatternViolation,
    is_block_positive,
    product_expectation_max,
    product_expectation_min,
    product_vector_in_subspace,
    zero_pattern_check,
)
from ews.errors import BadParamError, NoConvergedRestartError, NoConvergenceError
from ews.linalg import BipartiteOperator, eig_hermitian, kron, pt_mat
from ews.states import haar_vector, max_entangled, pure_from_schmidt, tiles_upb_state

RNG = np.random.default_rng(321)


def random_bipartite(m, n, rng=RNG):
    d = m * n
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return BipartiteOperator(m, n, (g + g.conj().T) / 2.0)


def product_expectation(op, a, b):
    v = kron(a, b)
    return float(np.vdot(v, op.mat @ v).real)


class TestSeesawMin:
    def test_identity(self):
        op = BipartiteOperator(2, 2, np.eye(4, dtype=complex))
        opt = product_expectation_min(op, restarts=8, seed=1)
        assert abs(opt.value - 1.0) < 1e-12

    def test_bell_pt_reaches_zero(self):
        op = BipartiteOperator(
            2, 2, pt_mat(max_entangled(2, 2).projector().mat, 2, 2)
        )
        opt = product_expectation_min(op, restarts=16, seed=2)
        assert abs(opt.value) < 1e-10

    def test_diagonal_hits_smallest_entry(self):
        diag = np.array([0.9, 0.4, 0.7, 0.1, 0.8, 0.5])
        op = BipartiteOperator(2, 3, np.diag(diag).astype(complex))
        opt = product_expectation_min(op, restarts=16, seed=3)
        # brute force over basis product vectors is exact for diagonals
        brute = min(
            product_expectation(op, np.eye(2)[i], np.eye(3)[j])
            for i in range(2)
            for j in range(3)
        )
        assert abs(opt.value - brute) < 1e-10

    def test_value_matches_returned_vectors(self):
        op = random_bipartite(2, 3)
        opt = product_expectation_min(op, restarts=16, seed=4)
        direct = product_expectation(op, opt.vec_a, opt.vec_b)
        assert abs(direct - opt.value) < 1e-10 * max(
            1.0, np.linalg.norm(op.mat)
        )

    def test_value_between_extreme_eigenvalues(self):
        for _ in range(5):
            op = random_bipartite(2, 2)
            vals = eig_hermitian(op.mat).values
            opt = product_expectation_min(op, restarts=8, seed=5)
            assert vals[-1] - 1e-10 <= opt.value <= vals[0] + 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_qubit_scan_oracle(self, n):
        # for a fixed qubit vector a the minimum over b of <a,b|W|a,b> is the
        # bottom eigenvalue of <a|W|a>, so scanning a over a 2500-point
        # Fibonacci grid of the Bloch sphere is exact on the other side
        op = random_bipartite(2, n, np.random.default_rng(600 + n))
        count = 2500
        k = np.arange(count) + 0.5
        theta = np.arccos(1.0 - 2.0 * k / count)
        phi = np.pi * (3.0 - np.sqrt(5.0)) * k
        a = np.stack(
            [np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)], axis=1
        )
        w4 = op.mat.reshape(2, n, 2, n)
        reduced = np.einsum("ri,ijkl,rk->rjl", a.conj(), w4, a)
        scan_min = float(np.linalg.eigvalsh(reduced)[:, 0].min())
        opt = product_expectation_min(op, restarts=32, seed=6)
        assert scan_min - 1e-2 <= opt.value <= scan_min + 1e-9

    def test_pt_symmetry(self):
        op = random_bipartite(2, 3)
        flipped = BipartiteOperator(2, 3, pt_mat(op.mat, 2, 3))
        v1 = product_expectation_min(op, restarts=32, seed=7).value
        v2 = product_expectation_min(flipped, restarts=32, seed=8).value
        assert abs(v1 - v2) < 1e-8

    def test_psd_never_negative(self):
        g = RNG.standard_normal((6, 4)) + 1j * RNG.standard_normal((6, 4))
        psd = g @ g.conj().T
        op = BipartiteOperator(2, 3, psd / np.trace(psd).real)
        opt = product_expectation_min(op, restarts=8, seed=9)
        assert opt.value >= -1e-12

    def test_deterministic(self):
        op = random_bipartite(2, 2)
        a = product_expectation_min(op, restarts=8, seed=10)
        b = product_expectation_min(op, restarts=8, seed=10)
        assert a.value == b.value
        assert a.spread == b.spread

    def test_non_monotone_values_raise(self, monkeypatch):
        # a half-step that gets worse every call breaks the descent invariant
        drift = itertools.count()
        exact = blockpos._extreme_eigvec

        def drifting(h, mode):
            val, vec = exact(h, mode)
            return val + next(drift), vec

        monkeypatch.setattr(blockpos, "_extreme_eigvec", drifting)
        with pytest.raises(NoConvergenceError):
            product_expectation_min(random_bipartite(2, 2), restarts=2, seed=1)


    def test_nan_value_counts_as_moving_the_wrong_way(self, monkeypatch):
        # calls alternate b and a half-steps and the loop reads the value of
        # the a half-step, so the 4th call is the second value it judges
        calls = itertools.count(1)
        exact = blockpos.eig_hermitian

        def nan_on_fourth(h):
            eig = exact(h)
            if next(calls) == 4:
                eig.values[:, -1] = np.nan
            return eig

        monkeypatch.setattr(blockpos, "eig_hermitian", nan_on_fourth)
        with pytest.raises(NoConvergenceError, match="moved the wrong way") as exc:
            product_expectation_min(random_bipartite(2, 2), restarts=2, seed=1)
        assert str(exc.value).endswith("-> nan")


# neither this operator nor its partial transpose is PSD, so a verdict on
# it needs the see-saw
_NOT_PSD = BipartiteOperator(2, 2, np.diag([1.5, 0.5, 0.5, -1.5]).astype(complex))


@pytest.mark.parametrize("restarts", [0, -3])
@pytest.mark.parametrize("search", [
    lambda r: product_expectation_min(_NOT_PSD, restarts=r),
    lambda r: product_expectation_max(_NOT_PSD, restarts=r),
    lambda r: is_block_positive(_NOT_PSD, restarts=r),
    lambda r: product_vector_in_subspace(np.eye(4)[:1], 2, 2, restarts=r),
], ids=["min", "max", "verdict", "subspace"])
def test_fewer_than_one_restart_rejected(search, restarts):
    with pytest.raises(BadParamError):
        search(restarts)


@pytest.mark.parametrize("search", [product_expectation_min, product_expectation_max])
def test_negative_seed_rejected(search):
    with pytest.raises(BadParamError, match="seed must be non-negative, got -1"):
        search(_NOT_PSD, seed=-1)


def loop_seesaw(op, restarts, seed, mode):
    """Reference see-saw: one restart at a time, one 2-D eigensolve per
    half-step.  Returns (best value, converged values, iterations)."""
    m, n = op.m, op.n
    w4 = op.mat.reshape(m, n, m, n)
    better = (lambda x, y: x < y) if mode == "min" else (lambda x, y: x > y)

    def extreme(h):
        vals, vecs = np.linalg.eigh((h + h.conj().T) / 2.0)
        i = 0 if mode == "min" else -1
        return vals[i], vecs[:, i]

    best, converged, iters = None, [], 0
    for r in range(restarts):
        rng = np.random.default_rng(seed ^ r)
        a = haar_vector(m, rng)
        prev = np.inf if mode == "min" else -np.inf
        for _ in range(blockpos.SEESAW_ITER_CAP):
            iters += 1
            _, b = extreme(np.einsum("i,ijkl,k->jl", a.conj(), w4, a))
            val, a = extreme(np.einsum("j,ijkl,l->ik", b.conj(), w4, b))
            if abs(val - prev) < blockpos.SEESAW_VALUE_TOL:
                converged.append(val)
                if best is None or better(val, best):
                    best = val
                break
            prev = val
    return best, converged, iters


@pytest.mark.parametrize("mode", ["min", "max"])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 4)])
def test_batched_seesaw_matches_restart_loop(dims, mode):
    rng = np.random.default_rng([*dims, mode == "max"])
    fn = product_expectation_min if mode == "min" else product_expectation_max
    for seed in range(6):
        op = random_bipartite(*dims, rng=rng)
        got = fn(op, restarts=12, seed=seed)
        value, converged, iters = loop_seesaw(op, 12, seed, mode)
        tol = blockpos.AGREE_TOL * max(1.0, np.linalg.norm(op.mat))
        assert abs(got.value - value) < 1e-10
        assert got.restarts_converged == len(converged)
        assert got.restarts_agreeing == sum(abs(v - value) <= tol for v in converged)
        assert got.iterations == iters


class TestSeesawMax:
    @pytest.mark.parametrize("m", [2, 3])
    def test_max_entangled_pt(self, m):
        op = BipartiteOperator(
            m, m, pt_mat(max_entangled(m, m).projector().mat, m, m)
        )
        opt = product_expectation_max(op, restarts=32, seed=11)
        assert abs(opt.value - 1.0 / m) < 1e-8

    def test_identity(self):
        op = BipartiteOperator(2, 2, np.eye(4, dtype=complex))
        assert abs(product_expectation_max(op, restarts=8, seed=0).value - 1.0) < 1e-12

    def test_diagonal_max(self):
        diag = np.array([0.9, 0.4, 0.7, 0.1])
        op = BipartiteOperator(2, 2, np.diag(diag).astype(complex))
        opt = product_expectation_max(op, restarts=16, seed=12)
        assert abs(opt.value - 0.9) < 1e-10


def generalized_choi(a, b, c):
    """Choi matrix of the generalised Choi map Phi[a,b,c] on 3x3 matrices:
    X -> diag(a x11 + b x22 + c x33, c x11 + a x22 + b x33,
    b x11 + c x22 + a x33) - X."""
    mat = np.zeros((9, 9), dtype=complex)
    for i in range(3):
        for j in range(3):
            e_ij = np.zeros((3, 3))
            e_ij[i, j] = 1.0
            image = -e_ij
            if i == j:
                image = np.diag(np.roll([a, c, b], i)) - e_ij
            mat += np.kron(e_ij, image)
    return BipartiteOperator(3, 3, mat)


class TestBlockPositive:
    def test_negative_identity(self):
        op = BipartiteOperator(2, 2, -np.eye(4, dtype=complex))
        verdict = is_block_positive(op, restarts=8, seed=13)
        assert verdict.status == "no"
        assert verdict.counterexample is not None
        assert abs(verdict.counterexample[2] + 1.0) < 1e-10

    def test_psd_fast_path(self):
        op = max_entangled(2, 2).projector()
        verdict = is_block_positive(op, restarts=4, seed=14)
        assert verdict.status == "yes-psd"
        assert verdict.restarts_agreeing == 0
        assert verdict.value is None

    def test_pt_psd_fast_path(self):
        op = BipartiteOperator(
            2, 2, pt_mat(max_entangled(2, 2).projector().mat, 2, 2)
        )
        verdict = is_block_positive(op, restarts=4, seed=15)
        assert verdict.status.startswith("yes")

    def test_indefinite_diagonal_rejected(self):
        op = BipartiteOperator(2, 2, np.diag([1.0, 1.0, 1.0, -0.2]).astype(complex))
        verdict = is_block_positive(op, restarts=16, seed=16)
        assert verdict.status == "no"


class TestEvidenceRule:
    """yes-heuristic rests on how many converged restarts agree at the
    best value, not on the spread over every local minimum."""

    @pytest.mark.parametrize("kind", ["rho_b_flip", "gamma1", "gamma2"])
    def test_base_witnesses_are_yes_heuristic(self, kind):
        op = witness._base_witness(kind, 64).op
        verdict = is_block_positive(op, restarts=64, seed=0)
        assert verdict.status == "yes-heuristic"
        assert verdict.restarts_converged == 64
        assert blockpos.AGREE_MIN <= verdict.restarts_agreeing < 64
        assert verdict.value > 0.0

    def test_embedded_bell_detection_witness_is_yes_heuristic(self):
        cert = witness.detect_npt(
            pure_from_schmidt([2**-0.5] * 2, 3, 3).projector(), seed=0
        )
        verdict = is_block_positive(cert.witness.op, restarts=64, seed=0)
        assert verdict.status == "yes-heuristic"

    def test_generalized_choi_is_yes_heuristic(self):
        # Phi[2,0,1] is positive (Cho, Kye & Lee 1992) and its product
        # minimum is 0; not every restart converges, and unconverged
        # restarts count neither way
        op = generalized_choi(2.0, 0.0, 1.0)
        verdict = is_block_positive(op, restarts=64, seed=0)
        assert verdict.status == "yes-heuristic"
        assert verdict.restarts_converged < 64
        assert verdict.restarts_agreeing == verdict.restarts_converged
        assert abs(verdict.value) < 1e-12

    def test_too_few_agreeing_restarts_are_inconclusive(self):
        # 8 restarts on the flipped 2x4 base witness leave one at its minimum
        op = witness._base_witness("rho_b_flip", 64).op
        verdict = is_block_positive(op, restarts=8, seed=0)
        assert verdict.status == "inconclusive"
        assert verdict.restarts_converged == 8
        assert verdict.restarts_agreeing < blockpos.AGREE_MIN
        assert verdict.value > 0.0

    def test_no_converged_restart_is_inconclusive(self, monkeypatch):
        op = witness._base_witness("gamma1", 64).op
        monkeypatch.setattr(blockpos, "SEESAW_ITER_CAP", 1)
        monkeypatch.setattr(blockpos, "SEESAW_ITER_CEILING", 1)
        verdict = is_block_positive(op, restarts=8, seed=0)
        assert verdict.status == "inconclusive"
        assert verdict.restarts_converged == 0
        assert verdict.restarts_agreeing == 0
        assert verdict.iterations == 8
        assert verdict.value is None

    def test_search_steps_past_the_cap_until_a_restart_converges(self, monkeypatch):
        op = witness._base_witness("gamma1", 64).op
        full = product_expectation_min(op, restarts=8, seed=0)
        monkeypatch.setattr(blockpos, "SEESAW_ITER_CAP", 1)
        opt = product_expectation_min(op, restarts=8, seed=0)
        # every restart is live until the round in which the first converge
        assert 1 <= opt.restarts_converged < full.restarts_converged
        assert opt.iterations % 8 == 0 and 8 < opt.iterations < full.iterations
        assert abs(product_expectation(op, opt.vec_a, opt.vec_b) - opt.value) < 1e-12
        monkeypatch.setattr(blockpos, "SEESAW_ITER_CEILING", 2)
        with pytest.raises(NoConvergedRestartError, match="within 2 iterations"):
            product_expectation_min(op, restarts=8, seed=0)


class TestProductVectorInSubspace:
    def test_product_span_found(self):
        basis = np.zeros((2, 4), dtype=complex)
        basis[0, 0] = 1.0  # |11>
        basis[1, 1] = 1.0  # |12>
        found = product_vector_in_subspace(basis, 2, 2, restarts=16, seed=17)
        assert found is not None
        a, b = found
        v = kron(a, b)
        proj = basis.T @ basis.conj()
        assert np.linalg.norm(v - proj @ v) < 1e-5

    def test_entangled_line_empty(self):
        basis = max_entangled(2, 2).to_vector()[None, :]
        assert product_vector_in_subspace(basis, 2, 2, restarts=16, seed=18) is None

    def test_basis_of_wrong_length_rejected(self):
        with pytest.raises(BadParamError):
            product_vector_in_subspace(np.eye(6, dtype=complex)[:2], 2, 2)

    def test_non_orthonormal_rows_rejected(self):
        basis = np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]], dtype=complex)
        with pytest.raises(BadParamError):
            product_vector_in_subspace(basis, 2, 2)

    def test_tiles_range_is_completely_entangled(self):
        sigma = tiles_upb_state()
        eig = eig_hermitian(sigma.mat)
        basis = eig.vectors[:, eig.values > 1e-10].T
        assert basis.shape[0] == 4
        assert product_vector_in_subspace(basis, 3, 3, restarts=32, seed=19) is None


class TestZeroPattern:
    def test_witness_by_construction_clean(self):
        op = BipartiteOperator(
            2, 2, pt_mat(max_entangled(2, 2).projector().mat, 2, 2)
        )
        assert zero_pattern_check(op) == []

    def test_zero_matrix_clean(self):
        op = BipartiteOperator(2, 2, np.zeros((4, 4), dtype=complex))
        assert zero_pattern_check(op) == []

    def test_vanishing_diagonal_block_violation(self):
        mat = np.zeros((4, 4), dtype=complex)
        mat[0, 2] = mat[2, 0] = 1.0  # block (0,1) nonzero while block (0,0) = 0
        mat[1, 3] = mat[3, 1] = 1.0
        mat[2, 2] = mat[3, 3] = 1.0
        op = BipartiteOperator(2, 2, mat)
        violations = zero_pattern_check(op)
        assert any(
            v.rule == "zero-diagonal-block" and v.block == (0, 1) for v in violations
        )

    def test_vanishing_inner_index_violation(self):
        # diagonal entry |1><1| of each diagonal block vanishes but the first
        # inner row is coupled across blocks
        mat = np.zeros((4, 4), dtype=complex)
        mat[1, 1] = 0.0
        mat[3, 3] = 0.0
        mat[0, 0] = mat[2, 2] = 1.0
        mat[1, 2] = mat[2, 1] = 0.5
        op = BipartiteOperator(2, 2, mat)
        violations = zero_pattern_check(op)
        assert any(
            v.rule == "zero-diagonal-entry" and v.inner_index == 1 for v in violations
        )

    def test_two_vanishing_diagonal_blocks_at_3x3(self):
        # blocks (0,0) and (2,2) vanish; (0,1) and (2,1) are coupled to the
        # nonzero block (1,1), while (0,2) stays zero
        mat = np.zeros((9, 9), dtype=complex)
        mat[3:6, 3:6] = np.eye(3)
        mat[0, 3] = 0.5
        mat[3, 6], mat[4, 7] = 3.0, 4.0j
        mat = mat + np.triu(mat, 1).conj().T
        assert zero_pattern_check(BipartiteOperator(3, 3, mat)) == [
            ZeroPatternViolation("zero-diagonal-block", (0, 1), None, 0.5),
            ZeroPatternViolation("zero-diagonal-block", (2, 1), None, 5.0),
        ]

    def test_inner_index_vanishing_in_both_diagonal_blocks_at_2x3(self):
        # inner index 1 has a zero diagonal entry in blocks (0,0) and (1,1)
        # but is coupled inside block (0,0) and across blocks (0,1), (1,0)
        mat = np.diag([1.0, 0.0, 1.0, 2.0, 0.0, 1.0]).astype(complex)
        mat[0, 1] = mat[1, 0] = 4.0
        mat[1, 5] = mat[5, 1] = 3.0
        assert zero_pattern_check(BipartiteOperator(2, 3, mat)) == [
            ZeroPatternViolation("zero-diagonal-entry", (0, 0), 1, float(np.sqrt(32.0))),
            ZeroPatternViolation("zero-diagonal-entry", (0, 1), 1, 3.0),
            ZeroPatternViolation("zero-diagonal-entry", (1, 0), 1, 3.0),
        ]

    @pytest.mark.parametrize("m,n", [(3, 3), (2, 4)])
    def test_transposed_bell_witness_clean(self, m, n):
        w = witness.pure_pt_witness(max_entangled(m, n))
        assert zero_pattern_check(w.op) == []
