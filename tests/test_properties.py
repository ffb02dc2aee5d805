"""Property tests over seeded random operators."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ews.blockpos import (
    product_expectation_max,
    product_expectation_min,
    zero_pattern_check,
)
from ews.errors import NotHermitianError
from ews.linalg import (
    HERM_RTOL,
    BipartiteOperator,
    eig_hermitian,
    fro_norm,
    kron,
    pt_mat,
    require_hermitian,
)
from ews.states import PureState, haar_unitary
from ews.witness import bound_table, sample_dew, spectral_report

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.sampled_from([(2, 2), (2, 3), (3, 3)])
scales = st.sampled_from([1e-3, 1.0, 1e3])


def random_operator(m, n, seed, scale):
    rng = np.random.default_rng(seed)
    d = m * n
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return BipartiteOperator(m, n, scale * (g + g.conj().T) / 2.0)


@given(dims=dims, seed=seeds, scale=scales)
def test_seesaw_values_bracketed_by_spectrum(dims, seed, scale):
    op = random_operator(*dims, seed, scale)
    vals = eig_hermitian(op.mat).values
    tol = 1e-9 * max(1.0, fro_norm(op.mat))
    lo = product_expectation_min(op, restarts=8, seed=seed % 1000)
    hi = product_expectation_max(op, restarts=8, seed=seed % 1000)
    assert lo.value <= hi.value
    for opt in (lo, hi):
        assert vals[-1] - tol <= opt.value <= vals[0] + tol
        v = kron(opt.vec_a, opt.vec_b)
        assert abs(np.vdot(v, op.mat @ v).real - opt.value) <= tol


@given(
    m=st.integers(min_value=1, max_value=4),
    n=st.integers(min_value=1, max_value=4),
    seed=seeds,
)
def test_partial_transpose_is_an_involution(m, n, seed):
    rng = np.random.default_rng(seed)
    d = m * n
    mat = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    once = pt_mat(mat, m, n)
    assert np.array_equal(pt_mat(once, m, n), mat)
    assert np.trace(once) == np.trace(mat)


@given(
    dims=st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 4), (3, 2), (4, 2)]),
    x=st.floats(min_value=0.0, max_value=0.99),
    rank_q=st.integers(min_value=1, max_value=4),
    seed=seeds,
)
def test_sampled_witnesses_meet_the_bound_table(dims, x, rank_q, seed):
    m, n = dims
    rep = spectral_report(sample_dew(m, n, x, rank_q=rank_q, seed=seed))
    if not rep.is_ew:
        return
    assert [b.name for b in rep.bounds] == [row[0] for row in bound_table(m, n)]
    assert rep.all_pass, [b for b in rep.bounds if not b.passed]
    for b in rep.bounds:
        assert type(b.lower) in (float, int, type(None))
        assert type(b.upper) in (float, int, type(None))


@given(log_s=st.floats(min_value=-7.0, max_value=0.0), seed=seeds)
def test_schmidt_round_trip_near_rank_deficiency(log_s, seed):
    # coefficients proportional to (1, s, 0) with s log-uniform in [1e-7, 1],
    # under Haar-random local unitaries
    s = 10.0**log_s
    rng = np.random.default_rng(seed)
    ua, ub = haar_unitary(3, rng), haar_unitary(3, rng)
    coeffs = np.array([1.0, s, 0.0]) / np.hypot(1.0, s)
    v = (ua @ np.diag(coeffs) @ ub.T).reshape(9)
    psi = PureState.from_vector(v, 3, 3)
    assert psi.rank == 2
    assert abs(psi.coeffs[1] / psi.coeffs[0] - s) <= 1e-12
    assert np.linalg.norm(psi.to_vector() - v) < 1e-12


def _reference_rejection(h):
    """The Hermiticity rule matrix by matrix and entry by entry: the
    message `require_hermitian` must raise, or None to accept."""
    if not all(np.isfinite(z.real) and np.isfinite(z.imag) for z in h.flat):
        return "matrix has non-finite (NaN or Inf) entries"
    worst = None
    for mat in h:
        k = mat.shape[0]
        defect = max(abs(mat[i, j] - mat[j, i].conjugate())
                     for i in range(k) for j in range(k))
        if defect > HERM_RTOL * max(1.0, np.linalg.norm(mat)):
            worst = defect if worst is None else max(worst, defect)
    if worst is None:
        return None
    return f"Hermiticity defect {worst:.3e} exceeds tolerance"


@st.composite
def hermitian_stacks(draw):
    """Stacks of 1-4 Hermitian matrices of size 1-5, scaled 1e-3 to 1e3,
    each maybe given one defect near its tolerance, and maybe a NaN or
    Inf entry somewhere in the stack."""
    count = draw(st.integers(1, 4))
    k = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(seeds))
    g = rng.standard_normal((count, k, k)) + 1j * rng.standard_normal((count, k, k))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    h = scale * (g + g.swapaxes(-1, -2).conj()) / 2.0
    for mat in h:
        factor = draw(st.sampled_from([None, 0.5, 0.99, 1.01, 2.0]))
        if factor is None:
            continue
        tol = HERM_RTOL * max(1.0, np.linalg.norm(mat))
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        # an off-diagonal shift is all defect; on the diagonal an imaginary
        # shift of x makes a defect of 2x
        mat[i, j] += factor * tol if i != j else 0.5j * factor * tol
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        bad = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        pos = tuple(draw(st.integers(0, s - 1)) for s in h.shape)
        z = h[pos]
        h[pos] = complex(bad, z.imag) if draw(st.booleans()) else complex(z.real, bad)
    return h


@given(h=hermitian_stacks())
def test_require_hermitian_matches_the_reference_rule(h):
    expected = _reference_rejection(h)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if expected is None:
            assert require_hermitian(h) is not None
        else:
            with pytest.raises(NotHermitianError) as exc:
                require_hermitian(h)
            assert str(exc.value) == expected


@given(
    dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)]),
    rule=st.sampled_from(["zero-diagonal-block", "zero-diagonal-entry"]),
    transpose=st.booleans(),
    data=st.data(),
    seed=seeds,
)
def test_zero_pattern_of_psd_and_transposed_psd(dims, rule, transpose, data, seed):
    """G G^dag, and its partial transpose, with the rows of G for one block
    (or one inner index in every block) zeroed, is block positive, so its
    zero pattern holds; one injected entry in a zeroed row is reported."""
    m, n = dims
    d = m * n
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    block, inner = divmod(np.arange(d), n)
    if rule == "zero-diagonal-block":
        k = data.draw(st.integers(0, m - 1))
        zeroed, inner_index = block == k, None
        cols = np.flatnonzero(block != k)  # an entry in block (k, k) makes it nonzero
    else:
        k = data.draw(st.integers(0, n - 1))
        zeroed, inner_index = inner == k, k
        cols = np.arange(d)
    g[zeroed] = 0.0
    mat = g @ g.conj().T
    if transpose:
        mat = pt_mat(mat, m, n)
    assert zero_pattern_check(BipartiteOperator(m, n, mat)) == []

    row = data.draw(st.sampled_from(np.flatnonzero(zeroed).tolist()))
    col = data.draw(st.sampled_from([c for c in cols.tolist() if c != row]))
    mat[row, col] = 0.5 - 0.25j
    mat[col, row] = 0.5 + 0.25j
    found = [(v.rule, v.block, v.inner_index)
             for v in zero_pattern_check(BipartiteOperator(m, n, mat))]
    assert (rule, (int(block[row]), int(block[col])), inner_index) in found
