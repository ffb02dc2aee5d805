import json
import warnings

import numpy as np
import pytest

from ews import linalg
from ews.errors import (
    BadParamError,
    LengthMismatchError,
    NoConvergenceError,
    NotHermitianError,
)
from ews.linalg import (
    NEG_EIG_TOL,
    BipartiteOperator,
    eig_hermitian,
    embed_operator,
    fro_norm,
    inner_product_lower_bound,
    kron,
    majorizes,
    negativity,
    operator_from_json,
    operator_to_json,
    read_operator,
    is_psd,
    negative_cut,
    partial_transpose,
    pt_mat,
    svd,
)

RNG = np.random.default_rng(20240817)


def random_hermitian(n, rng=RNG):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


def charpoly_roots(h):
    """Independent eigenvalue oracle: characteristic polynomial coefficients
    by the Faddeev-LeVerrier recursion, roots from the companion matrix."""
    n = h.shape[0]
    coeffs = [1.0 + 0j]
    mk = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        am = h @ mk
        ck = -np.trace(am) / k
        coeffs.append(ck)
        mk = am + ck * np.eye(n)
    roots = np.roots(coeffs)
    return np.sort(roots.real)[::-1]


class TestEigHermitian:
    def test_diagonal(self):
        eig = eig_hermitian(np.diag([3.0, 1.0, -2.0]).astype(complex))
        assert np.allclose(eig.values, [3.0, 1.0, -2.0])
        perm = np.abs(eig.vectors)
        assert np.allclose(perm, np.eye(3))

    def test_pauli_x(self):
        eig = eig_hermitian(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(eig.values, [1.0, -1.0])

    def test_matches_charpoly_roots(self):
        for n in (3, 4, 5):
            h = random_hermitian(n)
            got = eig_hermitian(h).values
            assert np.abs(got - charpoly_roots(h)).max() < 1e-8

    def test_reconstruction_and_orthonormality(self):
        for n in (2, 5, 9, 16):
            h = random_hermitian(n)
            eig = eig_hermitian(h)
            rec = eig.vectors @ np.diag(eig.values) @ eig.vectors.conj().T
            assert fro_norm(h - rec) <= 1e-9 * max(1.0, fro_norm(h))
            gram = eig.vectors.conj().T @ eig.vectors
            assert np.abs(gram - np.eye(n)).max() < 1e-10
            assert np.all(np.diff(eig.values) <= 1e-12)

    def test_trace_identity(self):
        for n in (3, 7):
            h = random_hermitian(n)
            vals = eig_hermitian(h).values
            assert abs(vals.sum() - np.trace(h).real) <= 1e-10 * max(
                1.0, fro_norm(h)
            )

    def test_deterministic(self):
        h = random_hermitian(6)
        a = eig_hermitian(h)
        b = eig_hermitian(h)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)

    def test_rejects_nonhermitian(self):
        with pytest.raises(NotHermitianError):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite(self, bad):
        # on the diagonal, and at both mirrored off-diagonal positions; the
        # rejection must come without a floating-point RuntimeWarning
        for where in ([(1, 1)], [(0, 2), (2, 0)]):
            h = np.eye(4, dtype=complex)
            for ij in where:
                h[ij] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for call in (eig_hermitian, negativity,
                             lambda x: BipartiteOperator(2, 2, x)):
                    with pytest.raises(NotHermitianError, match="non-finite"):
                        call(h)

    def test_stack_matches_per_matrix_calls(self):
        for k in (2, 3, 6):
            stack = np.stack([random_hermitian(k) for _ in range(5)])
            eig = eig_hermitian(stack)
            assert eig.values.shape == (5, k) and eig.vectors.shape == (5, k, k)
            for h, vals, vecs in zip(stack, eig.values, eig.vectors):
                one = eig_hermitian(h)
                assert np.array_equal(vals, one.values)
                assert np.array_equal(vecs, one.vectors)

    def test_stack_with_one_nonfinite_member_rejected(self):
        stack = np.stack([random_hermitian(3) for _ in range(4)])
        stack[2, 0, 0] = np.nan
        with pytest.raises(NotHermitianError):
            eig_hermitian(stack)

    def test_stack_with_one_nonhermitian_member_rejected(self):
        stack = np.stack([random_hermitian(3) for _ in range(4)])
        stack[1, 0, 2] += 1e-6
        with pytest.raises(NotHermitianError):
            eig_hermitian(stack)

    def test_stack_tolerance_is_per_matrix(self):
        # the large member may carry a defect its own norm allows, which
        # would exceed the tolerance of a unit-norm member
        big = 100.0 * random_hermitian(3)
        tol = 1e-12 * fro_norm(big)
        big[0, 1] += 0.9 * tol
        stack = np.stack([np.eye(3, dtype=complex), big])
        eig_hermitian(stack)
        small = np.eye(3, dtype=complex)
        small[0, 1] += 0.9 * tol
        with pytest.raises(NotHermitianError):
            eig_hermitian(np.stack([small, 100.0 * random_hermitian(3)]))

    def test_zero_matrix(self):
        eig = eig_hermitian(np.zeros((4, 4), dtype=complex))
        assert np.array_equal(eig.values, np.zeros(4))

    @pytest.mark.parametrize("k", range(1, 10))
    def test_bitwise_equal_to_numpy_eigh(self, k):
        # eig_hermitian calls the gufunc behind numpy.linalg.eigh by a
        # private name; a numpy that moves or changes it fails here
        rng = np.random.default_rng(k)
        for depth in ((), (0,), (1,), (2,), (7,), (64,), (3, 4)):
            g = rng.standard_normal(depth + (k, k)) + 1j * rng.standard_normal(depth + (k, k))
            h = (g + g.swapaxes(-1, -2).conj()) / 2.0
            vals, vecs = np.linalg.eigh(h)
            eig = eig_hermitian(h)
            assert np.array_equal(eig.values, vals[..., ::-1])
            assert np.array_equal(eig.vectors, vecs[..., ::-1])

    def test_nan_eigenvalues_raise_no_convergence(self, monkeypatch):
        def failed(h, signature):
            return np.full(h.shape[:-1], np.nan), np.full(h.shape, np.nan, dtype=complex)

        monkeypatch.setattr(linalg, "_eigh_lo", failed)
        with pytest.raises(NoConvergenceError, match="did not converge"):
            eig_hermitian(np.eye(3, dtype=complex))


class TestSvd:
    def test_identity(self):
        _, s, _ = svd(np.eye(2, dtype=complex))
        assert np.allclose(s, [1.0, 1.0])

    def test_diagonal(self):
        _, s, _ = svd(np.diag([0.8, 0.6]).astype(complex))
        assert np.allclose(s, [0.8, 0.6])

    def test_sigma_squared_matches_gram_eigenvalues(self):
        m = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))
        _, s, _ = svd(m)
        gram_vals = eig_hermitian(m.conj().T @ m).values
        assert np.abs(s * s - gram_vals).max() < 1e-9

    def test_reconstruction(self):
        for shape in ((3, 3), (2, 5), (5, 2)):
            m = RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)
            u, s, v = svd(m)
            rec = u @ np.diag(s) @ v.conj().T
            assert fro_norm(m - rec) <= 1e-9 * max(1.0, fro_norm(m))

    def test_full_factors_are_unitary(self):
        m = RNG.standard_normal((3, 5)) + 1j * RNG.standard_normal((3, 5))
        u, s, v = svd(m, full=True)
        assert u.shape == (3, 3) and v.shape == (5, 5)
        assert np.abs(u.conj().T @ u - np.eye(3)).max() < 1e-10
        assert np.abs(v.conj().T @ v - np.eye(5)).max() < 1e-10

    def test_rank_deficient(self):
        m = np.zeros((3, 3), dtype=complex)
        m[0, 0] = 2.0
        u, s, v = svd(m, full=True)
        assert np.allclose(s, [2.0, 0.0, 0.0])
        rec = u @ np.diag(s) @ v.conj().T
        assert fro_norm(m - rec) < 1e-12


class TestPartialTranspose:
    def test_product_operator(self):
        a = random_hermitian(2)
        b = random_hermitian(3)
        op = BipartiteOperator(2, 3, np.kron(a, b))
        got = partial_transpose(op)
        assert np.allclose(got.mat, np.kron(a.T, b))

    def test_bell_spectrum(self):
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 2**-0.5
        op = BipartiteOperator(2, 2, np.outer(v, v.conj()))
        vals = eig_hermitian(partial_transpose(op).mat).values
        assert np.allclose(vals, [0.5, 0.5, 0.5, -0.5])

    def test_involution_exact(self):
        h = random_hermitian(6)
        op = BipartiteOperator(2, 3, h)
        back = partial_transpose(partial_transpose(op))
        assert np.array_equal(back.mat, op.mat)


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal(self):
        got = kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        assert np.allclose(np.diag(got), [3.0, 4.0, 6.0, 8.0])

    def test_mixed_product_property(self):
        for _ in range(5):
            a, b, c, d = (
                RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
                for _ in range(4)
            )
            lhs = kron(a, b) @ kron(c, d)
            rhs = kron(a @ c, b @ d)
            assert np.abs(lhs - rhs).max() < 1e-12


class TestNegativity:
    def test_diagonal(self):
        h = np.diag([1.0, -0.3, -0.2]).astype(complex)
        assert abs(negativity(h) - 0.5) < 1e-14

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_max_entangled_pt(self, m):
        v = np.zeros(m * m, dtype=complex)
        for i in range(m):
            v[i * m + i] = 1.0 / np.sqrt(m)
        pt = pt_mat(np.outer(v, v.conj()), m, m)
        assert abs(negativity(pt) - (m - 1) / 2.0) < 1e-10

    def test_matches_trace_norm_formula(self):
        h = random_hermitian(5)
        _, s, _ = svd(h)
        expected = (s.sum() - np.trace(h).real) / 2.0
        assert abs(negativity(h) - expected) < 1e-10


class TestMajorization:
    def test_trivial(self):
        assert majorizes([1.0, 0.0], [0.5, 0.5])
        assert not majorizes([0.5, 0.5], [1.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            majorizes([1.0, 0.0], [1.0])

    def test_eigenvalue_sum_majorization(self):
        # spectrum of A+B is always majorized by the sum of spectra
        for _ in range(100):
            a = random_hermitian(4)
            b = random_hermitian(4)
            sum_spec = eig_hermitian(a + b).values
            bound = eig_hermitian(a).values + eig_hermitian(b).values
            assert majorizes(bound, sum_spec)


class TestPairingBound:
    def test_orthogonal_pair(self):
        assert inner_product_lower_bound([1.0, 0.0], [1.0, 0.0]) == 0.0

    def test_trace_dominates_bound(self):
        for _ in range(100):
            a = random_hermitian(4)
            b = random_hermitian(4)
            bound = inner_product_lower_bound(
                eig_hermitian(a).values, eig_hermitian(b).values
            )
            assert np.trace(a @ b).real >= bound - 1e-9

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            inner_product_lower_bound([1.0], [1.0, 0.0])


def test_eigenvalue_distance_bounded_by_frobenius():
    for _ in range(50):
        a = random_hermitian(5)
        b = random_hermitian(5)
        da = eig_hermitian(a).values - eig_hermitian(b).values
        assert (da * da).sum() <= fro_norm(b - a) ** 2 + 1e-9


def test_principal_submatrix_interlacing():
    for _ in range(50):
        n, m = 6, 4
        h = random_hermitian(n)
        sub_vals = eig_hermitian(h[:m, :m]).values
        full_vals = eig_hermitian(h).values
        for k in range(m):
            assert full_vals[k + n - m] <= sub_vals[k] + 1e-9
            assert sub_vals[k] <= full_vals[k] + 1e-9


class TestMatrixJson:
    def test_roundtrip(self):
        op = BipartiteOperator(2, 3, random_hermitian(6))
        back = operator_from_json(operator_to_json(op))
        assert back.m == 2 and back.n == 3
        assert np.array_equal(back.mat, op.mat)

    def test_json_serializable(self):
        op = BipartiteOperator(2, 2, random_hermitian(4))
        text = json.dumps(operator_to_json(op))
        back = operator_from_json(json.loads(text))
        assert np.allclose(back.mat, op.mat)

    def test_rejects_nonhermitian_entries(self):
        obj = operator_to_json(BipartiteOperator(2, 2, np.eye(4, dtype=complex)))
        obj["entries"][1] = [0.5, 0.0]  # breaks conjugate symmetry
        with pytest.raises(NotHermitianError):
            operator_from_json(obj)

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            operator_from_json({"m": 2, "n": 2, "entries": [[1.0, 0.0]]})
        with pytest.raises(ValueError):
            operator_from_json({"m": 2})

    @pytest.mark.parametrize(
        "change",
        [
            {"entries": list(range(16))},
            {"entries": 5},
            {"entries": [["a", "b"]] * 16},
            {"entries": [None] * 16},
            {"entries": [[1.0, None]] * 16},
            {"entries": [[1.0]] * 16},
            {"entries": [[1.0, 0.0, 0.0]] * 16},
            {"entries": [[True, 0.0]] * 16},
            {"entries": [[1.0, False]] * 16},
            {"entries": [[10**400, 0.0]] * 16},
            {"m": 2.7},
            {"m": "2"},
            {"m": True},
            {"n": None},
            {"m": -1, "n": -4},
        ],
    )
    def test_rejects_entries_and_dims_that_are_not_json_numbers(self, change):
        obj = operator_to_json(BipartiteOperator(2, 2, np.eye(4, dtype=complex)))
        with pytest.raises(BadParamError):
            operator_from_json({**obj, **change})

    def test_integer_entries_read_as_numbers(self):
        obj = {"m": 2, "n": 2, "entries": [[int(i % 5 == 0), 0] for i in range(16)]}
        assert np.array_equal(operator_from_json(obj).mat, np.eye(4))

    def test_read_operator_unwraps_a_witness_object(self, tmp_path):
        op = BipartiteOperator(2, 3, random_hermitian(6))
        path = tmp_path / "w.json"
        payload = {"class": "DEW", "provenance": {}, "witness": operator_to_json(op)}
        path.write_text(json.dumps(payload))
        assert np.array_equal(read_operator(str(path)).mat, op.mat)
        path.write_text(json.dumps({"witness": 5}))
        with pytest.raises(BadParamError):
            read_operator(str(path))


def test_embed_operator():
    op = BipartiteOperator(2, 2, random_hermitian(4))
    big = embed_operator(op, 3, 3)
    assert big.m == 3 and big.n == 3
    assert abs(big.trace() - op.trace()) < 1e-12
    # the embedded corner carries the original entries
    idx = [i * 3 + j for i in range(2) for j in range(2)]
    assert np.allclose(big.mat[np.ix_(idx, idx)], op.mat)


def test_malformed_operators_raise_a_typed_error():
    op = BipartiteOperator(2, 2, np.eye(4) / 4)
    with pytest.raises(BadParamError):
        BipartiteOperator(2, 3, np.eye(4))
    with pytest.raises(BadParamError):
        BipartiteOperator(2, 2, np.diag([1.0, -1.0, 0.0, 0.0])).normalized()
    with pytest.raises(BadParamError):
        embed_operator(op, 3, 1)


def test_normalized_rejects_a_negative_trace():
    # -W for the transposed Bell projector W: dividing by its trace -1 would
    # return W, an operator other than the input
    bell = np.zeros(4)
    bell[[0, 3]] = 2**-0.5
    w = pt_mat(np.outer(bell, bell).astype(complex), 2, 2)
    with pytest.raises(BadParamError, match="non-positive trace -1"):
        BipartiteOperator(2, 2, -w).normalized()
    assert np.allclose(BipartiteOperator(2, 2, 2.0 * w).normalized().mat, w)


@pytest.mark.parametrize("m, n", [(-2, -2), (0, 3), (3, 0)])
def test_bipartite_operator_rejects_non_positive_sizes(m, n):
    d = max(m * n, 0)
    with pytest.raises(BadParamError):
        BipartiteOperator(m, n, np.eye(d, dtype=complex) / max(d, 1))


def test_psd_rule_scales_its_cut_with_the_norm():
    small = np.diag([1.0, -0.5e-10]).astype(complex)
    assert is_psd(small) and not is_psd(np.diag([1.0, -2e-10]).astype(complex))
    big = 100.0 * np.eye(4, dtype=complex)
    big[3, 3] = -1e-9
    assert negative_cut(big) == -NEG_EIG_TOL * fro_norm(big)
    assert is_psd(big) and negativity(big) == 0.0
