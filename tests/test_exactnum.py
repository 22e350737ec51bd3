import time
from fractions import Fraction

import pytest

from rackalg.exactnum import MAX_EXPONENT, BadNumber, integer, rational


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
