"""The named racks and cocycles used throughout the package and the CLI.

* o23: transpositions of S3 (3 elements)
* o24: transpositions of S4 (6 elements)
* o44: 4-cycles of S4 (6 elements)

Cocycles: "const:w" for the constant cocycle w (a nonzero rational, e.g.
"const:-1"), and "chi" for the transposition cocycle (o23/o24 only).
"""

from functools import lru_cache

from . import perm
from .cocycle import WrongRackForChi, chi_cocycle, constant_cocycle
from .exactnum import rational
from .rack import conjugacy_rack

RACK_NAMES = ("o23", "o24", "o44")


@lru_cache(maxsize=None)
def symmetric_permgroup(n):
    """S_n; the one place it is built."""
    return perm.Group(n, perm.symmetric_group(n))


@lru_cache(maxsize=None)
def transposition_rack(n):
    """Conjugacy rack of the transpositions of S_n, canonical order."""
    g = symmetric_permgroup(n)
    return conjugacy_rack(g, perm.from_cycles(n, [(1, 2)]))


@lru_cache(maxsize=None)
def builtin_rack(name):
    """Return (rack, class_perms) for a named rack."""
    if name == "o23":
        return transposition_rack(3)
    if name == "o24":
        return transposition_rack(4)
    if name == "o44":
        g = symmetric_permgroup(4)
        return conjugacy_rack(g, perm.from_cycles(4, [(1, 2, 3, 4)]))
    raise KeyError("unknown rack %r (have %s)" % (name, ", ".join(RACK_NAMES)))


def builtin_cocycle(rack_name, spec):
    """Build a named cocycle on a named rack."""
    rck, cls_perms = builtin_rack(rack_name)
    if spec.startswith("const:"):
        return constant_cocycle(rck, rational(spec[len("const:"):]))
    if spec == "chi":
        if rack_name not in ("o23", "o24"):
            raise WrongRackForChi("chi lives on transposition racks")
        return chi_cocycle(rck, cls_perms)
    raise KeyError("unknown cocycle %r (want const:w or chi)" % (spec,))
