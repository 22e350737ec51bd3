"""Exact readers for the numbers of input documents and specs.

An integer is an int that is not a bool.  A rational is such an int or
a string that Fraction parses, with a decimal exponent of at most
MAX_EXPONENT in absolute value; the interpreter's limit on the digits of
an int read from a string already bounds the mantissa.  Floats are
refused, because the binary value JSON reads is not the decimal the file
shows, and so are bools.  A refused value raises BadNumber.  Numbers
passed in code go through :func:`scalar`, the one exact scalar form from
the cocycle on (an int where integral, else a Fraction), or :func:`exact`
(a Fraction, for polynomials and deformation points); both refuse floats.
An input document that names a key its reader does not read is refused
by :func:`refuse_unread`, so a misspelt key is never silently dropped.
Every resource budget error subclasses :class:`BudgetExceeded`, so a
caller catches all of them without importing the layers that raise them.
Reports and documents write every exact number through
:func:`number_text`, which treats a number too long to print as a budget.
"""

import re
import sys
from fractions import Fraction

MAX_EXPONENT = 4300  # the interpreter's default int digit limit

_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


class BudgetExceeded(Exception):
    """A computation would pass one of its resource budgets."""


class NumberTooLong(BudgetExceeded):
    """An exact number with more digits than the interpreter writes."""


class BadNumber(TypeError, ValueError):
    """A value that is not an exact integer or rational.  It is both a
    TypeError and a ValueError, so callers that take either as malformed
    input catch it."""


def exact(value):
    """Fraction(value), refusing a float with TypeError."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("float %r: values are exact" % (value,))
    return Fraction(value)


def scalar(value):
    """An exact scalar: an int when it is integral, else a Fraction.
    A float is refused with TypeError."""
    if type(value) is int:
        return value
    value = exact(value)
    return value.numerator if value.denominator == 1 else value


def number_text(value):
    """The text str() writes for an exact scalar.  An int or Fraction with
    more digits than the interpreter's int-to-text limit raises
    NumberTooLong instead of str()'s ValueError; the limit stays, since
    :func:`rational` relies on it to bound a mantissa."""
    try:
        return str(value)
    except ValueError:
        raise NumberTooLong(
            "a number has more than %d digits, the limit on writing an int as text"
            % sys.get_int_max_str_digits()) from None


def integer(value):
    if type(value) is not int:
        raise BadNumber("expected an integer, got %.40r" % (value,))
    return value


def rational(value):
    if type(value) is int:
        return Fraction(value)
    if not isinstance(value, str):
        raise BadNumber("expected an integer or a string, got %.40r" % (value,))
    try:
        exponent = _EXPONENT.search(value)
        if exponent and abs(int(exponent.group(1))) > MAX_EXPONENT:
            raise ValueError
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise BadNumber("not an exact rational: %.40r" % (value,)) from None


def refuse_unread(doc, keys):
    """Raise ValueError when the object doc names a key outside keys, and
    TypeError when doc is not an object."""
    if not isinstance(doc, dict):
        raise TypeError("expected an object, got %.40r" % (doc,))
    unread = sorted(set(doc) - set(keys))
    if unread:
        raise ValueError(f"keys {unread} are not read (want {list(keys)})")
