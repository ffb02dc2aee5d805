"""One integer rule at every public entry point: `linalg.require_int`.

Each row names an entry point, one of its integer parameters, the lowest
value the parameter takes, a call that passes a value for it, and a whole
value the call accepts.
"""

import pickle
import re

import numpy as np
import pytest

from ews import blockpos, verify, witness
from ews.errors import BadParamError, IndexOutOfRangeError
from ews.linalg import BipartiteOperator, embed_operator, require_int
from ews.states import (
    PureState,
    canonical_state,
    haar_unitary,
    max_entangled,
    pure_from_schmidt,
    random_state,
)
from ews.witness import FamilyParams, sample_dew

_GAMMA = canonical_state("gamma")  # PSD and PPT
_NOT_PSD = BipartiteOperator(2, 2, np.diag([1.5, 0.5, 0.5, -1.5]).astype(complex))
_BELL = pure_from_schmidt([2**-0.5] * 2, 3, 3).projector()
_RHO_B = canonical_state("rho_b", b=0.9)
_DEW = witness.pure_pt_witness(max_entangled(2, 2))
_OP22 = BipartiteOperator(2, 2, np.eye(4) / 4)
_E0 = np.eye(6)[:1]


def _seesaw_rows(entry, call, restarts_whole=3):
    return [
        (entry, "restarts", 1, lambda v: call(restarts=v), restarts_whole),
        (entry, "seed", 0, lambda v: call(seed=v), 3),
    ]


def _dims_rows(entry, call, low=2, whole=3):
    return [
        (entry, "m", low, lambda v: call(v, whole), whole),
        (entry, "n", low, lambda v: call(whole, v), whole),
    ]


ROWS = [
    *_dims_rows("pure_from_schmidt", lambda m, n: pure_from_schmidt([1.0], m, n)),
    *_dims_rows("max_entangled", max_entangled),
    ("max_entangled", "j", 1, lambda v: max_entangled(2, 6, v), 3),
    *_dims_rows("random_state", lambda m, n: random_state("pure_haar", m, n)),
    ("random_state", "rank", 1,
     lambda v: random_state("density_wishart", 2, 2, rank=v), 3),
    ("random_state", "seed", 0, lambda v: random_state("pure_haar", 2, 2, seed=v), 3),
    *_dims_rows("sample_dew", lambda m, n: sample_dew(m, n, 0.3)),
    ("sample_dew", "rank_p", 0, lambda v: sample_dew(2, 2, 0.3, rank_p=v), 3),
    ("sample_dew", "rank_q", 0, lambda v: sample_dew(2, 2, 0.3, rank_q=v), 3),
    ("sample_dew", "seed", 0, lambda v: sample_dew(2, 2, 0.3, seed=v), 3),
    ("FamilyParams", "m", 2, lambda v: FamilyParams(1, 0, 0, 0, v, 3), 3),
    ("FamilyParams", "n", 2, lambda v: FamilyParams(1, 0, 0, 0, 2, v), 3),
    *_dims_rows("canonical_state", lambda m, n: canonical_state("zeta2", m=m, n=n)),
    ("canonical_state", "l", 1, lambda v: canonical_state("zeta1", m=3, l=v), 3),
    ("embed_operator", "m", 2, lambda v: embed_operator(_OP22, v, 3), 3),
    ("embed_operator", "n", 2, lambda v: embed_operator(_OP22, 3, v), 3),
    *_seesaw_rows("product_expectation_min",
                  lambda **kw: blockpos.product_expectation_min(_NOT_PSD, **kw)),
    *_seesaw_rows("product_expectation_max",
                  lambda **kw: blockpos.product_expectation_max(_NOT_PSD, **kw)),
    *_seesaw_rows("is_block_positive psd",
                  lambda **kw: blockpos.is_block_positive(_GAMMA, **kw)),
    *_seesaw_rows("is_block_positive",
                  lambda **kw: blockpos.is_block_positive(_NOT_PSD, **kw)),
    ("product_vector_in_subspace", "m", 1,
     lambda v: blockpos.product_vector_in_subspace(_E0, v, 2, restarts=4), 3),
    ("product_vector_in_subspace", "n", 1,
     lambda v: blockpos.product_vector_in_subspace(_E0, 2, v, restarts=4), 3),
    *_seesaw_rows("product_vector_in_subspace",
                  lambda **kw: blockpos.product_vector_in_subspace(_E0, 2, 3, **kw)),
    *_seesaw_rows("mirror", lambda **kw: witness.mirror(_DEW, **kw)),
    # fewer than AGREE_MIN restarts back no margin
    *_seesaw_rows("ndew_from_edge",
                  lambda **kw: witness.ndew_from_edge(_RHO_B, **kw), restarts_whole=64),
    # the base witness of the embedded qubit Bell state needs 16 restarts
    *_seesaw_rows("detect_npt", lambda **kw: witness.detect_npt(_BELL, **kw),
                  restarts_whole=16),
    *_dims_rows("run_suite",
                lambda m, n: verify.run_suite("tail_sum_bounds", m, n, samples=3)),
    ("run_suite", "samples", 1,
     lambda v: verify.run_suite("tail_sum_bounds", 2, 2, samples=v), 3),
    ("run_suite", "seed", 0,
     lambda v: verify.run_suite("tail_sum_bounds", 2, 2, samples=3, seed=v), 3),
    *_dims_rows("PureState",
                lambda m, n: PureState(m, n, [1.0], np.eye(3)[:1], np.eye(3)[:1]),
                low=1),
    *_dims_rows("PureState.from_vector",
                lambda m, n: PureState.from_vector(np.eye(9)[0], m, n), low=1),
    *_dims_rows("BipartiteOperator",
                lambda m, n: BipartiteOperator(m, n, np.eye(9) / 9), low=1),
    ("haar_unitary", "dim", 1, lambda v: haar_unitary(v, np.random.default_rng(0)), 3),
]
IDS = [f"{entry}-{param}" for entry, param, *_ in ROWS]


@pytest.mark.parametrize("entry, param, low, call, whole", ROWS, ids=IDS)
@pytest.mark.parametrize(
    "bad", [2.5, True, "3", float("nan"), float("inf"), "low - 1"],
    ids=["half", "bool", "str", "nan", "inf", "below"],
)
def test_bad_integers_raise_naming_the_parameter(entry, param, low, call, whole, bad):
    if bad == "low - 1":
        bad = low - 1
    message = f"^{param} must be an integer of at least {low}, got {re.escape(str(bad))}$"
    with pytest.raises(BadParamError, match=message):
        call(bad)


def _fingerprint(result) -> bytes:
    """The bytes of a result, which tell a float size from an int one."""
    if isinstance(result, verify.SuiteReport):
        return verify.emit_report(result)
    return pickle.dumps(result)


@pytest.mark.parametrize("entry, param, low, call, whole", ROWS, ids=IDS)
def test_whole_floats_are_accepted_as_ints(entry, param, low, call, whole):
    expected = _fingerprint(call(whole))
    assert _fingerprint(call(float(whole))) == expected
    assert _fingerprint(call(np.int64(whole))) == expected


def test_the_accepted_int_reaches_the_result():
    report = verify.run_suite("dew_bounds", 2.0, np.int64(3), samples=3.0, seed=1.0)
    assert [type(getattr(report, k)) for k in ("m", "n", "samples", "seed")] == [int] * 4
    assert b'"m": 2,' in verify.emit_report(report)
    w = sample_dew(2.0, 2, 0.3, rank_p=3.0, seed=np.int64(5))
    assert (type(w.m), w.provenance["rank_p"], type(w.provenance["seed"])) == (int, 3, int)
    assert type(canonical_state("zeta1", m=3.0).m) is int


def test_require_int_returns_an_int():
    for value in (3, 3.0, np.int32(3), np.float64(3.0), np.uint8(3)):
        got = require_int("k", value, 3)
        assert type(got) is int and got == 3
    for value in (np.bool_(True), None, [3], np.array([3])):
        with pytest.raises(BadParamError, match="^k must be an integer of at least 0"):
            require_int("k", value, 0)


def test_upper_bounds_keep_their_typed_errors():
    with pytest.raises(IndexOutOfRangeError):
        max_entangled(2, 4, j=3.0)
    with pytest.raises(BadParamError, match="l=10 outside 1..9"):
        canonical_state("zeta1", m=3, l=10.0)


def test_detect_npt_checks_restarts_before_the_ppt_test():
    with pytest.raises(BadParamError, match="^restarts must be an integer of at least 1"):
        witness.detect_npt(_GAMMA, restarts=0)
