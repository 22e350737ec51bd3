"""Rational 2-cocycles on racks.

A 2-cocycle is a map q : X x X -> Q^* with

    q_{x, y|>z} q_{y,z} = q_{x|>y, x|>z} q_{x,z}   for all x, y, z.

Constant maps are always cocycles.  On the rack of transpositions there is
the non-constant cocycle chi with chi(g, (ij)) = +1 if g(i) < g(j) and -1
otherwise (i < j); its diagonal is identically -1.

A cocycle document is its rack's document plus ``q``, the values as
exact rationals: ``to_json`` writes it and ``from_json`` reads it back.
"""

from .exactnum import number_text, rational, scalar


class ZeroEntry(ValueError):
    pass


class CocycleLawFails(ValueError):
    """Witness triple (x, y, z) where the cocycle law breaks."""


class WrongRackForChi(ValueError):
    pass


class Cocycle2:
    __slots__ = ("rack", "q")

    def __init__(self, rack, q):
        self.rack = rack
        self.q = tuple(tuple(scalar(v) for v in row) for row in q)

    def __call__(self, x, y):
        return self.q[x][y]

    def __eq__(self, other):
        return (
            isinstance(other, Cocycle2)
            and self.rack == other.rack
            and self.q == other.q
        )

    def to_json(self):
        """The rack document plus ``q``."""
        return {**self.rack.to_json(),
                "q": [[number_text(v) for v in row] for row in self.q]}

    @classmethod
    def from_json(cls, obj, rack):
        """The cocycle ``q`` of a document on ``rack``, the rack
        ``Rack.from_json`` reads from the same document."""
        q = obj["q"]
        if type(q) is not list or any(type(row) is not list for row in q):
            raise TypeError("q must be a list of lists")
        values = [[rational(v) for v in row] for row in q]
        return validate_cocycle(rack, values)


def validate_cocycle(rack, values):
    """Check nonzero entries and the cocycle law on all n^3 triples, on the
    values as ints where integral, a row of the rack table at a time; the
    witness is the first failing (x, y, z).  The Cocycle2 holds them."""
    n = rack.n
    if len(values) != n or any(len(row) != n for row in values):
        raise ValueError("q must be %d x %d" % (n, n))
    q = [[scalar(v) for v in row] for row in values]
    for x in range(n):
        for y in range(n):
            if q[x][y] == 0:
                raise ZeroEntry((x, y))
    # q[x][y |> z] q[y][z] == q[x |> y][x |> z] q[x][z], for every z at once
    table = rack.table
    for x, (qx, tx) in enumerate(zip(q, table)):
        for y, (qy, ty) in enumerate(zip(q, table)):
            qxy = q[tx[y]]
            lhs = [qx[yz] * c for yz, c in zip(ty, qy)]
            rhs = [qxy[xz] * c for xz, c in zip(tx, qx)]
            if lhs != rhs:
                z = next(z for z in range(n) if lhs[z] != rhs[z])
                raise CocycleLawFails((x, y, z))
    return Cocycle2(rack, q)


def constant_cocycle(rack, omega):
    """q == omega; a cocycle for every nonzero rational omega."""
    omega = scalar(omega)
    if omega == 0:
        raise ZeroEntry("constant 0")
    return Cocycle2(rack, [[omega] * rack.n for _ in range(rack.n)])


def chi_cocycle(rack, class_perms):
    """The transposition cocycle: q_{g,(ij)} = +1 if g(i) < g(j), else -1.

    class_perms lists the permutation (a transposition) behind each rack
    element, in rack order; the rack must be a conjugacy rack of
    transpositions for the table to make sense.
    """
    n = rack.n
    if len(class_perms) != n:
        raise WrongRackForChi("need one permutation per rack element")
    supports = []
    for p in class_perms:
        moved = [i for i in range(len(p)) if p[i] != i]
        if len(moved) != 2:
            raise WrongRackForChi("element %r is not a transposition" % (p,))
        supports.append(tuple(moved))
    q = [[chi_character_value(g, s) for s in supports] for g in class_perms]
    return validate_cocycle(rack, q)


def chi_character_value(g, transposition_support):
    """chi(g, (ij)) for an arbitrary permutation g; support = (i, j), i < j."""
    i, j = transposition_support
    return 1 if g[i] < g[j] else -1
