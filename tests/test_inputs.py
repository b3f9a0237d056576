"""Every public function that takes a state or a step size eps names a
malformed one: a ValueError that names eps, x or x0, and the value or the
shape as the caller passed it. Every params class names a malformed field
the same way.

A step of size eps exists only for one finite real eps, and a state only
at the field's dimension. One-state functions take x of shape (n,), and
stack functions x of shape (B, n); each is checked before anything steps.
A scalar parameter is one finite real number, and an array parameter an
array of finite reals.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from conftest import make_params, make_system
from kahanmaps import verify
from kahanmaps.hkbasis import WronskianRatio, functional_rank, iterate_orbit
from kahanmaps.integrals import KahanPair, denominator_witnesses, eval_density, eval_I0, evaluate_named
from kahanmaps.quadfield import KahanBatch, delta, jacobian, kahan_orbit, kahan_step, map_jacobian
from kahanmaps.systems import KINDS, params_to_dict

KIRCHHOFF = make_system("kirchhoff")
CLEBSCH = make_system("first_clebsch")
FIELD = KIRCHHOFF.field
STATE = np.full(6, 0.1)
DENSITY = KIRCHHOFF.density_names[0]

# name -> (call(x, eps), the name x goes by): the calls taking one state (n,)
ONE_STATE = {
    "kahan_step": (lambda x, eps: kahan_step(FIELD, x, eps), "x"),
    "delta": (lambda x, eps: delta(FIELD, x, eps), "x"),
    "evaluate_named": (lambda x, eps: evaluate_named(KIRCHHOFF, "J0", x, eps), "x"),
    "eval_I0": (lambda x, eps: eval_I0(KIRCHHOFF, x, eps), "x"),
    "eval_density": (lambda x, eps: eval_density(KIRCHHOFF, x, eps, DENSITY), "x"),
    "denominator_witnesses": (lambda x, eps: denominator_witnesses(KIRCHHOFF, x, eps), "x"),
    "iterate_orbit": (lambda x, eps: iterate_orbit(FIELD, x, eps, 5), "x0"),
    "WronskianRatio": (lambda x, eps: WronskianRatio(FIELD, eps, 1, 0, 2)(x), "x"),
    "functional_rank": (lambda x, eps: functional_rank([WronskianRatio(FIELD, eps, 1, 0, 2)], x), "x"),
}
# and those taking a stack (B, n)
STACK = {
    "kahan_orbit": (lambda x, eps: kahan_orbit(FIELD, x, eps, 3), "x"),
    "KahanPair": (lambda x, eps: KahanPair(KIRCHHOFF, x, eps).value("I0"), "x"),
}
# name -> call(eps), for the calls that take eps and a fixed valid state or none
EPS_ONLY = {
    "map_jacobian": lambda eps: map_jacobian(FIELD, STATE, eps, STATE),
    "draw_initial_state": lambda eps: verify.draw_initial_state(np.random.default_rng(1), KIRCHHOFF, eps),
    "check_reversibility": lambda eps: verify.check_reversibility(KIRCHHOFF, 2, eps),
    "check_conservation": lambda eps: verify.check_conservation(KIRCHHOFF, "I0", 3, eps),
    "check_measure": lambda eps: verify.check_measure(KIRCHHOFF, DENSITY, 2, eps),
    "check_identities_clebsch1": lambda eps: verify.check_identities_clebsch1(CLEBSCH, 2, eps),
}
EPS_CALLS = {
    **{name: lambda eps, call=call, one=one: call(STATE if one else STATE[None], eps)
       for table, one in ((ONE_STATE, True), (STACK, False)) for name, (call, _) in table.items()},
    **EPS_ONLY,
}


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, np.float64(math.nan)], ids=repr)
@pytest.mark.parametrize("name", sorted(EPS_CALLS))
def test_eps_that_is_not_finite_named(name, eps):
    with pytest.raises(ValueError, match=rf"^eps must be one finite real number, got {re.escape(repr(eps))}$"):
        EPS_CALLS[name](eps)


@pytest.mark.parametrize("eps", ["0.05", [0.05], None, True, 0.05j])
def test_eps_that_is_not_one_real_number_named(eps):
    with pytest.raises(ValueError, match=rf"^eps must be one finite real number, got {re.escape(repr(eps))}$"):
        kahan_step(FIELD, STATE, eps)


SHAPE_CASES = [
    pytest.param(name, shape, id=f"{name}-{shape}")
    for table, shapes in ((ONE_STATE, [(5,), (2, 5), (1, 6)]), (STACK, [(5,), (2, 5), (6,)]))
    for name in sorted(table)
    for shape in shapes
]


@pytest.mark.parametrize("name, shape", SHAPE_CASES)
def test_state_of_another_shape_named(name, shape):
    call, arg = {**ONE_STATE, **STACK}[name]
    with pytest.raises(ValueError, match=rf"^{arg} must .*, got shape {re.escape(str(shape))}$"):
        call(np.full(shape, 0.1), 0.05)


@pytest.mark.parametrize("eps", [10**400, -(10**400)], ids=["1e400", "-1e400"])
@pytest.mark.parametrize("name", sorted(EPS_CALLS))
def test_eps_past_the_float_range_named(name, eps):
    with pytest.raises(ValueError, match=rf"^eps must be one finite real number, got {re.escape(repr(eps))}$"):
        EPS_CALLS[name](eps)


@pytest.mark.parametrize("name", sorted({**ONE_STATE, **STACK}))
@pytest.mark.parametrize(
    "x", [np.full(6, "0.1"), np.ones(6, dtype=bool), [True] + [0.1] * 5], ids=["str", "bool", "mixed-list"]
)
def test_state_that_is_not_real_named(name, x):
    # a stack function takes the state as a stack of one; nan stays allowed
    # (test_jacobian_takes_a_nan_state), but no string or bool steps
    call, arg = {**ONE_STATE, **STACK}[name]
    with pytest.raises(ValueError, match=rf"^{arg} must be an array of real numbers, got "):
        call(x if name in ONE_STATE else [x], 0.05)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: jacobian(FIELD, np.ones(5)), "x must have shape (..., 6), got shape (5,)"),
        (lambda: jacobian(FIELD, np.ones((2, 5))), "x must have shape (..., 6), got shape (2, 5)"),
        (lambda: map_jacobian(FIELD, np.ones(5), 0.05, np.ones(5)), "x must have shape (..., 6), got shape (5,)"),
        (lambda: map_jacobian(FIELD, STATE, 0.05, np.ones(5)), "x_next must have shape (6,), got shape (5,)"),
        # no caller broadcasts a state against a stack
        (lambda: map_jacobian(FIELD, np.stack([STATE, STATE]), 0.05, STATE), "x_next must have shape (2, 6), got shape (6,)"),
        (lambda: jacobian(FIELD, np.full(6, "0.1")), "x must be an array of real numbers, got "),
    ],
    ids=["jacobian-5", "jacobian-2x5", "map_jacobian-x", "map_jacobian-x_next", "map_jacobian-broadcast", "jacobian-str"],
)
def test_jacobian_width_named(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        call()


def test_jacobian_takes_a_nan_state():
    # the successor of a pole is nan, and verify's measure check passes it
    assert np.isnan(jacobian(FIELD, np.full((2, 6), math.nan))).any()


def test_step_of_another_row_count_named():
    two = kahan_orbit(FIELD, np.stack([STATE, 2 * STATE]), 0.05, 1)
    step = KahanBatch(*(column[0] for column in two))
    with pytest.raises(ValueError, match=r"^step must have as many rows as x, 1, got 2$"):
        KahanPair(KIRCHHOFF, STATE[None], 0.05, step)


# every field of every params class, from a valid instance of the kind
PARAMS = {kind: params_to_dict(make_params(kind)) for kind in KINDS}
FIELDS = [(kind, key) for kind, spec in KINDS.items() for key in spec.keys]
SCALAR_FIELDS = [(kind, key) for kind, key in FIELDS if np.ndim(PARAMS[kind][key]) == 0]
ARRAY_FIELDS = [(kind, key) for kind, key in FIELDS if np.ndim(PARAMS[kind][key]) > 0]


def with_nan(value):
    value = np.array(value, dtype=float)
    value.flat[0] = math.nan
    return value


def with_true(value):
    # nested lists, which numpy promotes to float64 past their bool entry
    value = np.array(value, dtype=object)
    value.flat[0] = True
    return value.tolist()


def build(kind, key, value):
    return KINDS[kind].params(**{**PARAMS[kind], key: value})


@pytest.mark.parametrize(
    "value",
    [True, "1.5", 10**400, math.nan, math.inf, np.array(1.5), Fraction(3, 2)],
    ids=["True", "str", "1e400", "nan", "inf", "0-d", "Fraction"],
)
@pytest.mark.parametrize("kind, key", SCALAR_FIELDS, ids=[f"{kind}.{key}" for kind, key in SCALAR_FIELDS])
def test_scalar_param_that_is_not_one_finite_real_named(kind, key, value):
    with pytest.raises(ValueError, match=rf"^{key} must be one finite real number, got {re.escape(repr(value))}$"):
        build(kind, key, value)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda v: np.full(np.shape(v), "1.5"), "must be an array of real numbers, got "),
        (lambda v: np.ones(np.shape(v), dtype=bool), "must be an array of real numbers, got "),
        (with_nan, "has a non-finite entry "),
        (with_true, "must be an array of real numbers, got "),
    ],
    ids=["str", "bool", "nan", "mixed-list"],
)
@pytest.mark.parametrize("kind, key", ARRAY_FIELDS, ids=[f"{kind}.{key}" for kind, key in ARRAY_FIELDS])
def test_array_param_that_is_not_finite_reals_named(kind, key, make, message):
    with pytest.raises(ValueError, match=f"^{key} {message}"):
        build(kind, key, make(PARAMS[kind][key]))
