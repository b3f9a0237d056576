"""Every public function that takes a state or a step size eps names a
malformed one: a ValueError that names eps, x or x0, and the value or the
shape as the caller passed it.

A step of size eps exists only for one finite real eps, and a state only
at the field's dimension. One-state functions take x of shape (n,), and
stack functions x of shape (B, n); each is checked before anything steps.
"""

import math
import re

import numpy as np
import pytest

from conftest import make_system
from kahanmaps import verify
from kahanmaps.hkbasis import WronskianRatio, functional_rank, iterate_orbit
from kahanmaps.integrals import KahanPair, denominator_witnesses, eval_density, eval_I0, evaluate_named
from kahanmaps.quadfield import delta, kahan_orbit, kahan_step, map_jacobian

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
