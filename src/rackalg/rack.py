"""Finite racks.

A rack is a finite set {0..n-1} with a binary operation x > y (written
``x |> y`` in prose, ``table[x][y]`` here) such that every left translation
phi_x = (y -> x |> y) is a bijection and the self-distributive law

    x |> (y |> z) = (x |> y) |> (x |> z)

holds.  A quandle additionally satisfies x |> x = x.  Conjugacy classes of
a group are the motivating example: x |> y = x y x^{-1}.

The properties (quandle, faithful, indecomposable) are read off the
table; indecomposability is one orbit of the translations, found without
building the group they generate.
"""

from . import perm
from .exactnum import integer, refuse_unread


class NotBijective(ValueError):
    """Some row map phi_x of the table is not a permutation."""


class NotSelfDistributive(ValueError):
    """Self-distributivity fails at a witness triple (x, y, z)."""


class SeedNotInGroup(ValueError):
    pass


class Rack:
    """Immutable rack on {0..n-1} with optional display labels.

    Use validate_rack / conjugacy_rack to construct; the constructor itself
    assumes the axioms and checks only that the labels are n distinct
    names.
    """

    __slots__ = ("n", "table", "labels")

    def __init__(self, table, labels=None):
        self.n = len(table)
        self.table = tuple(tuple(row) for row in table)
        if labels is None:
            labels = [str(i) for i in range(self.n)]
        if len(labels) != self.n:
            raise ValueError("need %d labels, got %d" % (self.n, len(labels)))
        self.labels = tuple(str(l) for l in labels)
        if len(set(self.labels)) != self.n:
            raise ValueError("a label is named twice")

    def act(self, x, y):
        """x |> y."""
        return self.table[x][y]

    def phi(self, x):
        """The permutation y -> x |> y."""
        return tuple(self.table[x])

    def __eq__(self, other):
        return isinstance(other, Rack) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return "Rack(n=%d)" % self.n

    def is_quandle(self):
        return all(self.table[x][x] == x for x in range(self.n))

    def is_faithful(self):
        """x -> phi_x injective."""
        rows = {self.phi(x) for x in range(self.n)}
        return len(rows) == self.n

    def is_indecomposable(self):
        """Whether the translations phi_x act transitively on X.

        For finite racks this is equivalent to X not splitting as a disjoint
        union of proper subracks.
        """
        # X is finite, so the forward orbit of 0 under all phi_x is
        # already its orbit under the group they generate
        reached = {0}
        frontier = [0]
        while frontier:
            new = []
            for y in frontier:
                for x in range(self.n):
                    z = self.table[x][y]
                    if z not in reached:
                        reached.add(z)
                        new.append(z)
            frontier = new
        return len(reached) == self.n

    def properties(self):
        return {
            "quandle": self.is_quandle(),
            "faithful": self.is_faithful(),
            "indecomposable": self.is_indecomposable(),
        }

    def to_json(self):
        return {
            "n": self.n,
            "labels": list(self.labels),
            "table": [list(row) for row in self.table],
        }

    @classmethod
    def from_json(cls, obj):
        """The rack of a document; a cocycle document is a rack document
        plus its ``q``, so that key is let through too."""
        refuse_unread(obj, ("n", "table", "labels", "q"))
        n = integer(obj["n"])
        if n > 256:
            raise ValueError("a rack of more than 256 elements (words are bytes)")
        r = validate_rack(n, obj["table"])
        if "labels" not in obj:
            return r
        labels = obj["labels"]
        if type(labels) is not list or not all(type(l) is str for l in labels):
            raise TypeError("labels must be a list of strings")
        return cls(r.table, labels)


def validate_rack(n, table):
    """Check both rack axioms on an n x n table and return the Rack.

    Raises NotBijective(x) naming the offending row, or
    NotSelfDistributive((x, y, z)) naming the offending triple.
    """
    if len(table) != n or any(len(row) != n for row in table):
        raise ValueError("table must be %d x %d" % (n, n))
    for x in range(n):
        row = table[x]
        if any(not (0 <= integer(v) < n) for v in row):
            raise ValueError("entries must be in 0..%d" % (n - 1))
        if len(set(row)) != n:
            raise NotBijective(x)
    for x in range(n):
        for y in range(n):
            txy = table[x][y]
            for z in range(n):
                if table[x][table[y][z]] != table[txy][table[x][z]]:
                    raise NotSelfDistributive((x, y, z))
    return Rack(table)


def conjugacy_rack(group, seed):
    """The conjugacy class of seed in group with x |> y = x y x^{-1}.

    Elements are ordered lexicographically as permutation tuples, which fixes
    the labels and the table once and for all.
    """
    if seed not in group:
        raise SeedNotInGroup(repr(seed))
    cls = sorted({perm.conjugate(g, seed) for g in group})
    index = {p: i for i, p in enumerate(cls)}
    table = [[index[perm.conjugate(x, y)] for y in cls] for x in cls]
    labels = [perm.cycle_notation(p) for p in cls]
    r = validate_rack(len(cls), table)
    return Rack(r.table, labels), cls


def trivial_rack(n):
    """x |> y = y; decomposable and unfaithful for n >= 2."""
    return Rack([[y for y in range(n)] for _ in range(n)])


def dihedral_rack(n):
    """Z_n with x |> y = 2x - y mod n."""
    return Rack([[(2 * x - y) % n for y in range(n)] for x in range(n)])


def cyclic_affine_rack(n, a):
    """Z_n with x |> y = a*y + (1-a)*x mod n, for a a unit mod n."""
    from math import gcd

    if gcd(a, n) != 1:
        raise ValueError("a must be a unit mod n")
    return Rack([[(a * y + (1 - a) * x) % n for y in range(n)] for x in range(n)])
