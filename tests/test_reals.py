"""One real-number rule at every public entry point: `linalg.require_real`
for scalars and `linalg.require_real_vector` for spectra and coefficients.

Each scalar row names an entry point, one of its real parameters, the
interval the parameter takes, a call that passes a value for it, a value
inside the interval and, where the interval holds one, a whole value.
"""

import math
import pickle
import re

import numpy as np
import pytest

from ews import cli
from ews.blockpos import product_vector_in_subspace
from ews.errors import (
    BadParamError,
    BadSpectrumError,
    LengthMismatchError,
    NormViolationError,
)
from ews.linalg import (
    BipartiteOperator,
    inner_product_lower_bound,
    majorizes,
    require_real,
    require_real_vector,
)
from ews.states import (
    PureState,
    as_2xn_test,
    canonical_state,
    max_entangled,
    pure_from_schmidt,
    rho_a_state,
    rho_b_state,
)
from ews.witness import (
    TAG_NDEW,
    FamilyParams,
    NdewParams,
    Witness,
    boost_witness,
    sample_dew,
    w_family,
)

# gamma_prime is orthogonal to the transposed qutrit Bell projector, so
# any unit-trace operator tagged as certified with it can be boosted
# along max_entangled(3, 3)
_CERTIFIED = Witness(
    op=BipartiteOperator(3, 3, np.eye(9) / 9.0),
    class_tag=TAG_NDEW,
    detected_state=canonical_state("gamma_prime"),
)
_BELL3 = max_entangled(3, 3)


def _weight_row(name):
    # the other weights are 0, so a weight of 1 keeps the sum at 1
    zeros = dict.fromkeys("abcd", 0.0)
    return ("FamilyParams", name, "[0, 1]",
            lambda v: w_family(FamilyParams(**{**zeros, name: v})), 1.0, 1)


ROWS = [
    *(_weight_row(name) for name in "abcd"),
    ("sample_dew", "x", "[0, 1)", lambda v: sample_dew(2, 2, v), 0.3, 0),
    ("NdewParams", "z", "(0, inf)", lambda v: NdewParams(z=v), 0.3, 2),
    ("NdewParams", "delta", "(0, inf)", lambda v: NdewParams(delta=v), 0.3, 2),
    ("boost_witness", "t", "[0, inf)",
     lambda v: boost_witness(_CERTIFIED, _BELL3, t=v), 0.3, 2),
    ("rho_b_state", "b", "(0, 1)", rho_b_state, 0.3, None),
    ("rho_a_state", "a", "(0, 1)", rho_a_state, 0.3, None),
    ("canonical_state rho_b", "b", "(0, 1)",
     lambda v: canonical_state("rho_b", b=v), 0.3, None),
    ("canonical_state rho_a", "a", "(0, 1)",
     lambda v: canonical_state("rho_a", a=v), 0.3, None),
    ("majorizes", "tol", "[0, inf)",
     lambda v: majorizes([0.6, 0.4], [0.5, 0.5], tol=v), 0.3, 0),
]
IDS = [f"{entry}-{param}" for entry, param, *_ in ROWS]


def _outside(interval: str) -> list[float]:
    """The values just outside each finite end of `interval`."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    out = [low if interval[0] == "(" else math.nextafter(low, -math.inf)]
    if math.isfinite(high):
        out.append(high if interval[-1] == ")" else math.nextafter(high, math.inf))
    return out


@pytest.mark.parametrize("entry, param, interval, call, inside, whole", ROWS, ids=IDS)
def test_bad_reals_raise_naming_the_parameter(entry, param, interval, call, inside, whole):
    bad_values = [True, False, "0.5", None, 0.5j, np.array([inside]),
                  math.nan, math.inf, -math.inf, *_outside(interval)]
    for bad in bad_values:
        message = (f"^{param} must be a real number in {re.escape(interval)}, "
                   f"got {re.escape(str(bad))}$")
        with pytest.raises(BadParamError, match=message):
            call(bad)


@pytest.mark.parametrize("entry, param, interval, call, inside, whole", ROWS, ids=IDS)
def test_real_scalars_give_the_bytes_of_their_float(
    entry, param, interval, call, inside, whole
):
    accepted = [np.float64(inside), np.float32(inside)]
    if whole is not None:
        accepted += [whole, np.int64(whole)]
    for value in accepted:
        assert pickle.dumps(call(value)) == pickle.dumps(call(float(value))), value


def test_the_accepted_real_reaches_the_result_as_a_float():
    p = FamilyParams(1, 0, 0, np.float32(0))
    assert [type(getattr(p, k)) for k in "abcd"] == [float] * 4
    assert w_family(p).provenance["a"] == 1.0
    assert type(sample_dew(2, 2, np.float32(0.25)).provenance["x"]) is float
    assert type(NdewParams(z=2).z) is float
    assert type(boost_witness(_CERTIFIED, _BELL3, t=1).provenance["t"]) is float


def test_require_real_returns_a_float():
    for value in (1, 1.0, np.int8(1), np.uint8(1), np.float16(1), np.float64(1)):
        got = require_real("k", value, "[0, 1]")
        assert type(got) is float and got == 1.0
    for value in (np.bool_(True), 10**400, -(10**400), [0.5], np.array(0.5)):
        with pytest.raises(BadParamError, match=r"^k must be a real number in \(0, inf\)"):
            require_real("k", value, "(0, inf)")


# Vector rows: entry point, parameter, call, a valid float vector and a
# valid int vector, and whether non-finite entries are the rule's to reject.
VECTOR_ROWS = [
    ("majorizes", "y", lambda v: majorizes(v, [0.25] * 4), [0.4, 0.3, 0.2, 0.1],
     [1, 0, 0, 0], True),
    ("majorizes", "x", lambda v: majorizes([1.0, 0, 0, 0], v), [0.4, 0.3, 0.2, 0.1],
     [1, 0, 0, 0], True),
    ("inner_product_lower_bound", "spec_a",
     lambda v: inner_product_lower_bound(v, [0.5, 0.25, 0.25, 0.0]),
     [0.4, 0.3, 0.2, 0.1], [1, 0, 2, 0], True),
    ("inner_product_lower_bound", "spec_b",
     lambda v: inner_product_lower_bound([0.5, 0.25, 0.25, 0.0], v),
     [0.4, 0.3, 0.2, 0.1], [1, 0, 2, 0], True),
    # dyadic, so that its float32 copy still sums to 1
    ("as_2xn_test", "spectrum", as_2xn_test, [0.5, 0.25, 0.125, 0.125], [1, 0, 0, 0],
     True),
    # a non-finite Schmidt coefficient fails the square-sum rule instead
    ("pure_from_schmidt", "coeffs", lambda v: pure_from_schmidt(v, 2, 2),
     [0.8, 0.6], [1], False),
    # likewise; dyadic, so that its float32 copy still square-sums to 1
    ("PureState", "coeffs", lambda v: PureState(2, 2, v, np.eye(2), np.eye(2)),
     [1.0, 0.0], [0, 1], False),
]
VECTOR_IDS = [f"{entry}-{param}" for entry, param, *_ in VECTOR_ROWS]


@pytest.mark.parametrize("entry, param, call, valid, ints, finite", VECTOR_ROWS,
                         ids=VECTOR_IDS)
def test_bad_vectors_raise_naming_the_parameter(entry, param, call, valid, ints, finite):
    n = len(valid)
    bad_values = [
        [True] * n, np.array(valid, dtype=complex), ["0.5"] * n, [None] * n,
        [valid], valid[0], [valid, valid[:1]],
    ]
    if finite:
        bad_values += [[math.nan] + valid[1:], valid[:-1] + [math.inf],
                       [-math.inf] + valid[1:]]
    kind = "finite real numbers" if finite else "real numbers"
    for bad in bad_values:
        with pytest.raises(BadParamError, match=f"^{param} must be a 1-D array of {kind}$"):
            call(bad)


@pytest.mark.parametrize("entry, param, call, valid, ints, finite", VECTOR_ROWS,
                         ids=VECTOR_IDS)
def test_real_vectors_give_the_bytes_of_their_float_array(
    entry, param, call, valid, ints, finite
):
    expected = pickle.dumps(call(np.array(valid)))
    assert pickle.dumps(call(valid)) == expected
    as_float32 = np.array(valid, dtype=np.float32)
    assert pickle.dumps(call(as_float32)) == pickle.dumps(call(as_float32.astype(float)))
    assert pickle.dumps(call(ints)) == pickle.dumps(call(np.array(ints, dtype=float)))


@pytest.mark.parametrize(
    "call",
    [
        lambda: as_2xn_test([math.nan, 0.25, 0.25, 0.25]),
        lambda: as_2xn_test([math.inf, 0.25, 0.25, 0.25]),
        lambda: majorizes([math.nan, 1.0], [1.0, 0.0]),
        lambda: majorizes([1.0, 0.0], [1.0, -math.inf]),
        lambda: inner_product_lower_bound([math.nan, 1.0], [1.0, 0.0]),
        lambda: inner_product_lower_bound([1.0, 0.0], [math.inf, 0.0]),
    ],
    ids=["as_2xn-nan", "as_2xn-inf", "majorizes-nan", "majorizes-inf",
         "inner-nan", "inner-inf"],
)
def test_non_finite_spectra_raise(call):
    with pytest.raises(BadParamError, match="must be a 1-D array of finite real numbers"):
        call()


def test_structural_rules_keep_their_typed_errors():
    with pytest.raises(LengthMismatchError):
        majorizes([1.0, 0.0], [1.0])
    with pytest.raises(LengthMismatchError):
        inner_product_lower_bound([1.0], [1.0, 0.0])
    with pytest.raises(BadSpectrumError, match="even length"):
        as_2xn_test([0.5, 0.5])
    with pytest.raises(BadSpectrumError, match="negative entries"):
        as_2xn_test([0.7, 0.4, -0.05, -0.05])
    with pytest.raises(BadSpectrumError, match="must be positive"):
        pure_from_schmidt([-math.inf, 1.0], 2, 2)
    for coeffs in ([math.nan], [math.inf], [2**-0.5, math.nan]):
        with pytest.raises(NormViolationError):
            pure_from_schmidt(coeffs, 2, 2)
    with pytest.raises(BadParamError, match="weights must sum to 1"):
        FamilyParams(0.5, 0, 0, 0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: majorizes([], []), "^y must not be empty$"),
        (lambda: majorizes([1.0], []), "^x must not be empty$"),
        (lambda: inner_product_lower_bound([], []), "^spec_a must not be empty$"),
        (lambda: inner_product_lower_bound([1.0], []), "^spec_b must not be empty$"),
        (lambda: product_vector_in_subspace(np.zeros((0, 4)), 2, 2),
         "^basis rows are empty$"),
    ],
    ids=["majorizes-y", "majorizes-x", "inner-spec_a", "inner-spec_b", "subspace"],
)
def test_empty_vectors_raise_naming_the_parameter(call, message):
    with pytest.raises(BadParamError, match=message):
        call()


def test_require_real_vector_returns_a_float_array():
    for value in ([1, 2], (1.0, 2.0), np.array([1, 2], dtype=np.uint8)):
        got = require_real_vector("v", value)
        assert got.dtype == np.float64 and got.tolist() == [1.0, 2.0]
    assert np.isnan(require_real_vector("v", [math.nan], finite=False)).all()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["state", "--name", "rho_b", "--param", "b=true"],
         "b must be a real number in (0, 1), got True"),
        (["state", "--name", "rho_b", "--param", "b=x"],
         "b must be a real number in (0, 1), got x"),
        (["family", "--a", "nan", "--b", "1", "--c", "0", "--d", "0"],
         "a must be a real number in [0, 1], got nan"),
        # an int no float can hold, which float() would overflow on
        (["state", "--name", "rho_b", "--param", f"b={10**400}"],
         f"b must be a real number in (0, 1), got {10**400}"),
    ],
    ids=["bool", "string", "nan-weight", "huge-int"],
)
def test_cli_real_inputs_exit_2_with_the_rule(capsys, argv, message):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"ews: error: {message}\n")
