"""Permutations as tuples of images, and the one permutation-group type.

A permutation of degree n is a tuple p of length n with p[i] = image of i
(0-based everywhere).  Tuples are hashable, comparable and cheap, which is
all the group machinery here needs.  Products and inverses are
:func:`compose` and :func:`inverse`.  A :class:`Group` trusts its
elements, as a rack trusts its table: every group here is S_n, built by
``catalog.symmetric_permgroup``, so it is closed by construction.
"""

from itertools import permutations as _all_perms


def identity(n):
    return tuple(range(n))


def compose(p, q):
    """(p*q)(i) = p(q(i)): apply q first, then p."""
    return tuple(p[q[i]] for i in range(len(q)))


def inverse(p):
    inv = [0] * len(p)
    for i, pi in enumerate(p):
        inv[pi] = i
    return tuple(inv)


def conjugate(g, x):
    """g x g^{-1}."""
    return compose(g, compose(x, inverse(g)))


def sign(p):
    """Parity of p as +1/-1, by counting cycles."""
    n = len(p)
    seen = [False] * n
    s = 1
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            s = -s
    return s


def cycle_notation(p):
    """Human-readable cycle string with 1-based points, e.g. '(12)(34)'.

    The identity is rendered as 'e'.
    """
    n = len(p)
    seen = [False] * n
    out = []
    for i in range(n):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j + 1)
            j = p[j]
        out.append("(" + "".join(str(k) for k in cyc) + ")")
    return "".join(out) if out else "e"


def from_cycles(n, cycles):
    """Build a permutation of degree n from 1-based cycles, e.g. [(1,2),(3,4)]."""
    img = list(range(n))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            img[a - 1] = b - 1
    return tuple(img)


def symmetric_group(n):
    """All permutations of degree n, sorted lexicographically."""
    return [tuple(p) for p in _all_perms(range(n))]


class Group:
    """A finite permutation group with a fixed element order.

    Elements are image tuples, sorted lexicographically, so indexing,
    iteration and serialization are deterministic.  The elements are
    trusted to form a group of the given degree; nothing is checked here.
    """

    __slots__ = ("degree", "elements", "index")

    def __init__(self, degree, elements):
        self.degree = degree
        self.elements = tuple(sorted(set(elements)))
        self.index = {p: i for i, p in enumerate(self.elements)}

    @property
    def identity(self):
        return identity(self.degree)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, p):
        return p in self.index
