import time
from fractions import Fraction

import pytest

from rackalg import deform, grouprealize
from rackalg.catalog import builtin_cocycle, builtin_rack
from rackalg.cocycle import Cocycle2, constant_cocycle, validate_cocycle
from rackalg.exactnum import (
    MAX_EXPONENT,
    BadNumber,
    BudgetExceeded,
    NumberTooLong,
    exact,
    integer,
    number_text,
    rational,
)
from rackalg.quadrel import pointed_lambda_space


@pytest.mark.parametrize("value, want", [
    (3, Fraction(3)),
    (-2, Fraction(-2)),
    ("1/3", Fraction(1, 3)),
    ("0.1", Fraction(1, 10)),
    (" -2.5e3 ", Fraction(-2500)),
    ("1e-%d" % MAX_EXPONENT, Fraction(1, 10 ** MAX_EXPONENT)),
    ("1_000", Fraction(1000)),
])
def test_rational_accepts_ints_and_rational_strings(value, want):
    assert rational(value) == want


@pytest.mark.parametrize("value", [
    0.1, 1.0, True, False, None, [1], {"a": 1},
    "abc", "1/0", "", "1e%d" % (MAX_EXPONENT + 1), "1e10000000",
    "1E-10000000", "1e1_000_000", "1e" + "٩" * 8, "1e" + "9" * 5000,
    "9" * 5000,
])
def test_rational_rejects_floats_bools_and_unbounded_strings(value):
    started = time.perf_counter()
    with pytest.raises(BadNumber):
        rational(value)
    assert time.perf_counter() - started < 1


def test_bad_number_is_a_type_and_a_value_error():
    assert issubclass(BadNumber, TypeError)
    assert issubclass(BadNumber, ValueError)


def test_integer_takes_only_ints():
    assert integer(7) == 7
    for value in (True, False, 1.0, 1.9, "0", None):
        with pytest.raises(BadNumber):
            integer(value)


def test_number_text_treats_a_number_too_long_to_print_as_a_budget():
    assert number_text(-7) == "-7"
    assert number_text(Fraction(-3, 4)) == "-3/4"
    assert issubclass(NumberTooLong, BudgetExceeded)
    # rational accepts both; each has one digit more than str() writes
    for value in ("1e%d" % MAX_EXPONENT, "1e-%d" % MAX_EXPONENT):
        with pytest.raises(NumberTooLong, match="more than 4300 digits"):
            number_text(rational(value))
    with pytest.raises(NumberTooLong):
        number_text(10 ** MAX_EXPONENT)


def _o23():
    return builtin_rack("o23")[0]


def _o24_free_pairs():
    rack, _ = builtin_rack("o24")
    space = pointed_lambda_space(rack, builtin_cocycle("o24", "const:-1"))
    return space, [c.base_pair for c in space.free_classes()]


def _generic_o23(value):
    rack, _ = builtin_rack("o23")
    space = pointed_lambda_space(rack, builtin_cocycle("o23", "const:-1"))
    lam = {c.base_pair: 1 for c in space.classes}
    lam[space.classes[0].base_pair] = value
    return deform.DeformParams.generic("o23", "const:-1", lam)


def _value_map(value):
    space, pairs = _o24_free_pairs()
    return space.value_map({p: value for p in pairs})


def _pointed_lifting(value):
    _, pairs = _o24_free_pairs()
    real = grouprealize.builtin_realization("o24", "const:-1")
    return deform.pointed_lifting_generators(real, {p: value for p in pairs})


def _explicit_chi(value):
    rack, class_perms = builtin_rack("o23")
    group = grouprealize.builtin_realization("o23", "const:-1").group
    rows = [{t: value for t in group} for _ in class_perms]
    return grouprealize.principal_realization(rack, class_perms, rows)


# constructors that turn a number passed in code into an exact scalar or a
# Fraction; each must refuse the float 0.1 rather than read its binary
# value.  FreePoly, RatMatrix, rank_bareiss and FiniteDimAlgebra are
# checked in their modules.
FLOAT_ENTRY_POINTS = {
    "exact": exact,
    "constant_cocycle": lambda v: constant_cocycle(_o23(), v),
    "Cocycle2": lambda v: Cocycle2(_o23(), [[v] * 3] * 3),
    "validate_cocycle": lambda v: validate_cocycle(_o23(), [[v] * 3] * 3),
    "DeformParams.eminus": lambda v: deform.DeformParams.eminus(4, v),
    "DeformParams.eminus mu": lambda v: deform.DeformParams.eminus(4, 1, v),
    "DeformParams.generic": _generic_o23,
    "ParamSpace.value_map": _value_map,
    "pointed_lifting_generators": _pointed_lifting,
    "iso_class_equal": lambda v: deform.iso_class_equal([v], [1], "pointed"),
    "principal_realization chi rows": _explicit_chi,
}


@pytest.mark.parametrize("name", sorted(FLOAT_ENTRY_POINTS))
def test_entry_points_refuse_floats(name):
    FLOAT_ENTRY_POINTS[name](1)  # the same call with an int goes through
    with pytest.raises(TypeError, match="float"):
        FLOAT_ENTRY_POINTS[name](0.1)
