import numpy as np
import pytest

from ews import states
from ews.errors import (
    BadParamError,
    BadRankError,
    BadSpectrumError,
    IndexOutOfRangeError,
    NormViolationError,
    RankTooLargeError,
    TraceViolationError,
)
from ews.linalg import BipartiteOperator, eig_hermitian, pt_mat
from ews.states import (
    CANONICAL_NAMES,
    PureState,
    as_2xn_test,
    canonical_state,
    haar_unitary,
    is_in_maximal_ball,
    is_ppt,
    max_entangled,
    pt_spectrum_pure,
    pure_from_schmidt,
    random_state,
    tiles_upb_state,
    tiles_upb_vectors,
)

SQRT2 = np.sqrt(2.0)


class TestPureState:
    def test_single_coefficient_is_basis_ket(self):
        psi = pure_from_schmidt([1.0], 2, 2)
        v = psi.to_vector()
        assert np.allclose(v, [1, 0, 0, 0])

    def test_bell(self):
        psi = pure_from_schmidt([2**-0.5, 2**-0.5], 2, 2)
        assert np.allclose(psi.to_vector(), [2**-0.5, 0, 0, 2**-0.5])

    def test_extremal_two_qubit_coefficients(self):
        psi = pure_from_schmidt([0.92388, 0.382683], 2, 2)
        assert psi.rank == 2
        assert abs(np.linalg.norm(psi.to_vector()) - 1.0) < 1e-9

    def test_norm_violation(self):
        with pytest.raises(NormViolationError):
            pure_from_schmidt([1.0, 1.0], 2, 2)

    def test_rank_too_large(self):
        with pytest.raises(RankTooLargeError):
            pure_from_schmidt([3**-0.5] * 3, 2, 4)

    def test_basis_of_wrong_shape_rejected(self):
        with pytest.raises(BadParamError):
            PureState(2, 2, [1.0], np.eye(2)[:1], np.eye(3)[:1])

    def test_non_orthonormal_basis_rejected(self):
        basis = np.array([[1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(BadParamError):
            PureState(2, 2, [2**-0.5] * 2, basis, np.eye(2))

    def test_from_vector_recovers_schmidt(self):
        rng = np.random.default_rng(5)
        for m, n in ((2, 2), (3, 4), (4, 3)):
            v = rng.standard_normal(m * n) + 1j * rng.standard_normal(m * n)
            v /= np.linalg.norm(v)
            psi = PureState.from_vector(v, m, n)
            rebuilt = psi.to_vector()
            # reconstruction agrees up to nothing at all: the Schmidt form
            # reproduces the vector exactly, not merely up to phase
            assert np.linalg.norm(rebuilt - v) < 1e-10

    @pytest.mark.parametrize("s", [1e-4, 1e-6, 1e-7, 1.5e-8])
    def test_from_vector_near_rank_deficiency(self, s):
        # Schmidt coefficients proportional to (1, s, 0) under Haar-random
        # local unitaries: a squared-condition-number SVD loses s here
        rng = np.random.default_rng(1729)
        coeffs = np.array([1.0, s, 0.0]) / np.hypot(1.0, s)
        for _ in range(200):
            ua = haar_unitary(3, rng)
            ub = haar_unitary(3, rng)
            v = (ua @ np.diag(coeffs) @ ub.T).reshape(9)
            psi = PureState.from_vector(v, 3, 3)
            assert psi.rank == 2
            assert abs(psi.coeffs[1] / psi.coeffs[0] - s) <= 1e-12


class TestMaxEntangled:
    def test_bell_2(self):
        assert np.allclose(
            max_entangled(2, 2, 1).to_vector(), [2**-0.5, 0, 0, 2**-0.5]
        )

    def test_shifted_block(self):
        v = max_entangled(2, 4, 2).to_vector()
        expected = np.zeros(8)
        expected[2] = expected[7] = 2**-0.5  # |1,3> and |2,4>
        assert np.allclose(v, expected)

    def test_disjoint_supports_are_orthogonal(self):
        v1 = max_entangled(2, 4, 1).to_vector()
        v2 = max_entangled(2, 4, 2).to_vector()
        assert abs(np.vdot(v1, v2)) < 1e-15

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            max_entangled(2, 4, 3)
        with pytest.raises(IndexOutOfRangeError):
            max_entangled(3, 3, 2)


class TestPtSpectrumPure:
    def test_bell(self):
        vals = pt_spectrum_pure(max_entangled(2, 2))
        assert np.allclose(vals, [0.5, 0.5, 0.5, -0.5])

    def test_two_smallest_sum(self):
        vals = pt_spectrum_pure(pure_from_schmidt([SQRT2 / 2, 0.5, 0.5], 3, 3))
        assert abs(vals[-2:].sum() + SQRT2 / 2) < 1e-12

    def test_sums_to_one(self):
        psi = pure_from_schmidt([0.8, 0.5, np.sqrt(1 - 0.89)], 3, 5)
        vals = pt_spectrum_pure(psi)
        assert len(vals) == 15
        assert abs(vals.sum() - 1.0) < 1e-12

    def test_matches_dense_eigendecomposition(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(m, 6))
            v = rng.standard_normal(m * n) + 1j * rng.standard_normal(m * n)
            v /= np.linalg.norm(v)
            psi = PureState.from_vector(v, m, n)
            dense = eig_hermitian(pt_mat(np.outer(v, v.conj()), m, n)).values
            assert np.abs(pt_spectrum_pure(psi) - dense).max() < 1e-9

    def test_negative_eigenvector_structure(self):
        rng = np.random.default_rng(13)
        v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        v /= np.linalg.norm(v)
        psi = PureState.from_vector(v, 3, 4)
        pt = pt_mat(np.outer(v, v.conj()), 3, 4)
        a = psi.coeffs
        for i in range(psi.rank):
            for j in range(i + 1, psi.rank):
                vec = np.kron(psi.basis_a[i].conj(), psi.basis_b[j]) - np.kron(
                    psi.basis_a[j].conj(), psi.basis_b[i]
                )
                vec /= np.linalg.norm(vec)
                residual = pt @ vec - (-a[i] * a[j]) * vec
                assert np.linalg.norm(residual) < 1e-9


class TestCanonicalStates:
    def test_gamma_trace_and_ppt(self):
        g = canonical_state("gamma")
        assert g.trace() == 1.0
        assert eig_hermitian(g.mat).values[-1] >= -1e-10  # a genuine state
        assert eig_hermitian(pt_mat(g.mat, 3, 3)).values[-1] >= -1e-10

    def test_gamma_prime_orthogonality(self):
        gp = canonical_state("gamma_prime")
        pt3 = pt_mat(max_entangled(3, 3).projector().mat, 3, 3)
        assert abs(np.trace(pt3 @ gp.mat).real) < 1e-10
        assert is_ppt(gp)

    def test_gamma1_orthogonality(self):
        g1 = canonical_state("gamma1")
        pt2 = pt_mat(pure_from_schmidt([2**-0.5] * 2, 3, 3).projector().mat, 3, 3)
        assert abs(np.trace(pt2 @ g1.mat).real) < 1e-10
        assert is_ppt(g1)

    def test_gamma2_equals_gamma_prime(self):
        assert np.array_equal(
            canonical_state("gamma2").mat, canonical_state("gamma_prime").mat
        )

    def test_rho_b_diagonal_sum(self):
        for b in (0.5, 0.9):
            rb = canonical_state("rho_b", b=b)
            assert abs(rb.trace() - 1.0) < 1e-12
            raw_diag = np.diag(rb.mat).real * (7 * b + 1)
            assert abs(raw_diag.sum() - (7 * b + 1)) < 1e-12

    def test_rho_b_rho_a_ppt(self):
        for key, vals in (("rho_b", ("b", 0.5)), ("rho_a", ("a", 0.5))):
            for x in (0.5, 0.9, 0.99):
                op = canonical_state(key, **{vals[0]: x})
                assert is_ppt(op)
                assert eig_hermitian(op.mat).values[-1] >= -1e-10

    def test_rho1_rho2_normalization_flag(self):
        raw = canonical_state("rho1", m=3, n=3, normalized=False)
        assert abs(raw.trace() - (2 * (SQRT2 + 1) + 7)) < 1e-12
        unit = canonical_state("rho1", m=3, n=3)
        assert abs(unit.trace() - 1.0) < 1e-12
        raw2 = canonical_state("rho2", m=2, n=2, normalized=False)
        assert np.allclose(np.diag(raw2.mat).real, [2, 2, 2, 1])

    def test_zeta1_inside_maximal_ball(self):
        for l in range(1, 10):
            z = canonical_state("zeta1", m=3, l=l)
            assert is_in_maximal_ball(z)

    def test_zeta1_bad_params(self):
        with pytest.raises(BadParamError):
            canonical_state("zeta1", m=3, l=10)
        with pytest.raises(BadParamError):
            canonical_state("rho_b", b=1.5)
        with pytest.raises(BadParamError):
            canonical_state("nonesuch")

    def test_zeta2_spectrum_passes_2xn_test(self):
        z = canonical_state("zeta2", m=2, n=3)
        lam = np.sort(np.diag(z.mat).real)[::-1]
        assert as_2xn_test(lam)


class TestTilesUpb:
    def test_vectors_orthonormal_products(self):
        vecs = tiles_upb_vectors()
        gram = np.array([[np.vdot(x, y) for y in vecs] for x in vecs])
        assert np.abs(gram - np.eye(5)).max() < 1e-12
        for v in vecs:
            c = v.reshape(3, 3)
            # rank one coefficient matrix <=> product vector
            _, s, _ = np.linalg.svd(c)
            assert s[1] < 1e-12

    def test_state_rank_and_ppt(self):
        sigma = tiles_upb_state()
        vals = eig_hermitian(sigma.mat).values
        assert int((vals > 1e-10).sum()) == 4
        assert abs(sigma.trace() - 1.0) < 1e-12
        assert is_ppt(sigma)


class TestMaximalBall:
    def test_maximally_mixed(self):
        op = canonical_state("max_ball_center", m=2, n=3)
        assert is_in_maximal_ball(op)

    def test_pure_state_outside(self):
        op = pure_from_schmidt([1.0], 2, 2).projector()
        assert not is_in_maximal_ball(op)

    def test_trace_violation(self):
        with pytest.raises(TraceViolationError):
            is_in_maximal_ball(BipartiteOperator(2, 2, np.eye(4, dtype=complex)))


class TestAs2n:
    def test_maximally_mixed(self):
        assert as_2xn_test([0.25] * 4)

    def test_pure(self):
        assert not as_2xn_test([1.0, 0.0, 0.0, 0.0])

    def test_equality_case(self):
        lam = np.array([3 + 2 * SQRT2] * 6 + [1.0, 1.0])
        assert as_2xn_test(lam / lam.sum())

    def test_rejects_bad_input(self):
        with pytest.raises(BadSpectrumError):
            as_2xn_test([0.5, 0.5])  # too short
        with pytest.raises(BadSpectrumError):
            as_2xn_test([0.4, 0.3, 0.2, 0.05, 0.05])  # odd length
        with pytest.raises(BadSpectrumError):
            as_2xn_test([0.7, 0.4, -0.05, -0.05])
        with pytest.raises(BadSpectrumError):
            as_2xn_test([0.3, 0.3, 0.3, 0.3])


class TestIsPpt:
    def test_separable_diagonal(self):
        assert is_ppt(canonical_state("max_ball_center", m=2, n=2))

    def test_bell_is_npt(self):
        op = max_entangled(2, 2).projector()
        assert not is_ppt(op)
        vals = eig_hermitian(pt_mat(op.mat, 2, 2)).values
        assert abs(vals[-1] + 0.5) < 1e-12

    def test_gamma_is_ppt(self):
        assert is_ppt(canonical_state("gamma"))


class TestRandomState:
    def test_determinism(self):
        a = random_state("density_wishart", 2, 3, rank=4, seed=99)
        b = random_state("density_wishart", 2, 3, rank=4, seed=99)
        assert a.mat.tobytes() == b.mat.tobytes()
        p = random_state("pure_haar", 2, 3, seed=7)
        q = random_state("pure_haar", 2, 3, seed=7)
        assert p.to_vector().tobytes() == q.to_vector().tobytes()

    def test_wishart_is_state(self):
        op = random_state("density_wishart", 3, 3, rank=2, seed=1)
        assert abs(op.trace() - 1.0) < 1e-12
        vals = eig_hermitian(op.mat).values
        assert vals[-1] >= -1e-12
        assert int((vals > 1e-10).sum()) == 2

    def test_bad_rank(self):
        with pytest.raises(BadRankError):
            random_state("density_wishart", 2, 2, rank=5, seed=0)

    def test_bad_kind(self):
        with pytest.raises(BadParamError):
            random_state("bogus", 2, 2, seed=0)


def test_haar_unitary_is_unitary():
    u = haar_unitary(5, np.random.default_rng(3))
    assert np.abs(u.conj().T @ u - np.eye(5)).max() < 1e-12


@pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4)])
def test_stacked_haar_rule_matches_haar_unitary(m, n):
    d = m * n
    rngs = [np.random.default_rng([m, n, i]) for i in range(50)]
    gauss = np.array([states._complex_gaussian(rng, (d, d)) for rng in rngs])
    stacked = states._haar_from_gaussian(gauss)
    for i, u in enumerate(stacked):
        assert np.array_equal(u, haar_unitary(d, np.random.default_rng([m, n, i])))


@pytest.mark.parametrize("kind", ["pure_haar", "density_wishart"])
def test_random_state_rejects_a_negative_seed(kind):
    with pytest.raises(BadParamError, match="seed must be non-negative, got -1"):
        random_state(kind, 2, 2, seed=-1)


@pytest.mark.parametrize(
    "name, params",
    [
        ("rho_b", {"B": 0.5}),
        ("gamma", {"bogus": 3}),
        ("gamma", {"m": 3}),
        ("zeta1", {"n": 3}),
        ("rho1", {"normalized": "no"}),
        ("rho2", {"normalized": 2}),
        ("zeta2", {"m": 2.5, "n": 3.9}),
        ("zeta2", {"n": 3.5}),
        ("rho1", {"m": 2.5}),
        ("rho2", {"m": 3, "n": 2.1}),
        ("max_ball_center", {"m": 3.0001}),
        ("zeta1", {"l": 1.5}),
        ("zeta1", {"m": 2.5}),
    ],
)
def test_canonical_state_rejects_keys_and_values_it_does_not_take(name, params):
    with pytest.raises(BadParamError):
        canonical_state(name, **params)


# The exact keys each canonical state takes.
_STATE_KEYS = {
    "zeta1": {"m", "l"},
    "zeta2": {"m", "n"},
    "rho1": {"m", "n", "normalized"},
    "rho2": {"m", "n", "normalized"},
    "rho_b": {"b"},
    "rho_a": {"a"},
    "gamma": set(),
    "gamma_prime": set(),
    "gamma1": set(),
    "gamma2": set(),
    "tiles_upb": set(),
    "max_ball_center": {"m", "n"},
}
# A valid value of every key above.
_VALID = {"m": 2, "n": 3, "l": 2, "normalized": False, "b": 0.5, "a": 0.5}


def test_canonical_names_are_the_pinned_states_in_order():
    assert CANONICAL_NAMES == tuple(_STATE_KEYS)


@pytest.mark.parametrize("name", sorted(_STATE_KEYS))
def test_canonical_state_takes_exactly_its_pinned_keys(name):
    keys = _STATE_KEYS[name]
    canonical_state(name, **{k: _VALID[k] for k in keys})
    for key in sorted(set(_VALID) - keys):
        with pytest.raises(BadParamError, match=f"{name} takes no parameter {key}"):
            canonical_state(name, **{key: _VALID[key]})


def test_canonical_state_accepts_integer_valued_floats():
    for name in ("zeta2", "rho1", "max_ball_center"):
        whole = canonical_state(name, m=3.0, n=2.0)
        assert (whole.m, whole.n) == (3, 2)
        assert np.array_equal(whole.mat, canonical_state(name, m=3, n=2).mat)
    assert np.array_equal(
        canonical_state("zeta1", m=3.0, l=2.0).mat,
        canonical_state("zeta1", m=3, l=2).mat,
    )


def test_canonical_state_normalized_accepts_bools_and_0_1():
    raw = canonical_state("rho1", m=2, n=2, normalized=False)
    assert np.array_equal(canonical_state("rho1", m=2, n=2, normalized=0).mat, raw.mat)
    unit = canonical_state("rho1", m=2, n=2, normalized=1)
    assert abs(unit.trace() - 1.0) < 1e-12


@pytest.mark.parametrize(
    "name, key, value",
    [
        ("zeta2", "m", float("nan")),
        ("zeta2", "m", float("inf")),
        ("zeta1", "l", float("inf")),
        ("zeta1", "m", -float("inf")),
        ("zeta2", "n", "three"),
        ("rho1", "m", None),
    ],
)
def test_canonical_state_rejects_non_finite_and_non_numeric_sizes(name, key, value):
    with pytest.raises(BadParamError, match=f"^{key}={value} is not an integer$"):
        canonical_state(name, **{key: value})


def test_pure_state_rejects_nan_entries():
    for coeffs in ([float("nan")], [2**-0.5, float("nan")]):
        with pytest.raises(NormViolationError):
            pure_from_schmidt(coeffs, 2, 2)
    with pytest.raises(BadParamError, match="not orthonormal"):
        PureState(2, 2, [1.0], [[np.nan, 0.0]], np.eye(2)[:1])


def test_from_vector_rejects_a_nan_vector_before_the_svd():
    vec = np.full(4, 0.5, dtype=complex)
    vec[2] = np.nan
    with pytest.raises(BadParamError, match="NaN entries"):
        PureState.from_vector(vec, 2, 2)
