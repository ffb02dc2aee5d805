"""Property tests over seeded random operators."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from ews.blockpos import product_expectation_max, product_expectation_min
from ews.linalg import BipartiteOperator, eig_hermitian, fro_norm, kron, pt_mat
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
    dims=st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 4)]),
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
