"""Quadratic relation classes of a rack with cocycle.

The pair set X x X is partitioned by the shift (i, j) -> (i>j, i) into
cycles.  A cycle with sequence (i_1, ..., i_L), where i_{h+2} = i_{h+1} >
i_h around the cycle, is a class C of R' when the cocycle product around
it is (-1)^L; then it carries the relation

    b_C  = sum_h eta_h v_{i_{h+1}} v_{i_h}        (flavor V)
    bt_C = sum_h eta_h w_{i_h} w_{i_{h+1}}        (flavor W)

with eta_1 = 1 and eta_h = -eta_{h-1} q_{i_h i_{h-1}}.  ``enumerate_classes``
lists the cycles and ``select_Rprime`` turns the ones in R' into complete
``RelClass`` objects.  This module also solves the two parameter-space
constraint systems that decide which deformation scalars survive.  The
copointed space and the Hom-vanishing check both read ``_composed``: the
translation phi_{i2} phi_{i1} of a class's base pair, with its scalars.
"""

from fractions import Fraction

from .freealg import FreePoly
from . import braided, linalg
from .exactnum import exact, number_text


class RelClass:
    """One class of R': its cycle in canonical rotation and its eta."""

    __slots__ = ("seq", "eta")

    def __init__(self, seq, eta):
        self.seq = tuple(seq)
        self.eta = tuple(eta)

    @property
    def size(self):
        return len(self.seq)

    def pairs(self):
        """The pairs (i_{h+1}, i_h) for h = 1..L, base pair first."""
        s = self.seq
        L = len(s)
        return [(s[h % L], s[h - 1]) for h in range(1, L + 1)]

    @property
    def base_pair(self):
        s = self.seq
        return (s[1 % len(s)], s[0])

    def __repr__(self):
        return f"RelClass{self.seq}"


def enumerate_classes(rack):
    """The shift cycles of X x X as sequences (i_1, ..., i_L), sorted by
    base pair (i_2, i_1).

    The walks start at pairs in lexicographic order, so each starts at
    the least pair of its cycle: that pair is the base pair of the
    canonical rotation, and the cycles come out sorted by it.
    """
    seen = set()
    cycles = []
    for i in range(rack.n):
        for j in range(rack.n):
            if (i, j) in seen:
                continue
            seq = [j]
            a, b = i, j
            while (a, b) not in seen:
                seen.add((a, b))
                seq.append(a)
                a, b = rack.act(a, b), a
            assert (a, b) == (i, j), "pair shift is not a pure cycle"
            cycles.append(tuple(seq[:-1]))
    return cycles


def select_Rprime(cycles, cocycle):
    """The classes of R' among the cycles, in their order, each with eta.

    Running the eta recursion once more around the cycle gives
    (-1)^L times the cocycle product, so the cycle is in R' exactly when
    that last step returns to 1.
    """
    out = []
    for seq in cycles:
        L = len(seq)
        eta = [Fraction(1)]
        for h in range(1, L + 1):
            eta.append(-eta[-1] * cocycle(seq[h % L], seq[h - 1]))
        if eta.pop() == 1:
            out.append(RelClass(seq, eta))
    return out


def relation_poly(cls, flavor, ngens):
    if flavor not in ("V", "W"):
        raise ValueError("flavor must be 'V' or 'W'")
    terms = {}
    for h, (a, b) in enumerate(cls.pairs()):
        word = bytes([a, b]) if flavor == "V" else bytes([b, a])
        acc = terms.get(word, Fraction(0)) + cls.eta[h]
        if acc == 0:
            terms.pop(word, None)
        else:
            terms[word] = acc
    return FreePoly(ngens, terms)


def quadratic_ideal(rack, cocycle, flavor):
    """All relations b_C (or their W-twins), in class order."""
    return [
        relation_poly(c, flavor, rack.n)
        for c in select_Rprime(enumerate_classes(rack), cocycle)
    ]


def _poly_to_vector(poly, n):
    vec = [Fraction(0)] * (n * n)
    for w, c in poly.terms.items():
        assert len(w) == 2
        vec[w[0] * n + w[1]] = c
    return vec


def degree_two_kernel(rack, cocycle, flavor):
    """Canonical kernel basis of the degree-2 quantum symmetrizer."""
    space = braided.make_braiding(rack, cocycle, flavor)
    s2 = braided.quantum_symmetrizer(space, 2)
    return linalg.nullspace_basis(s2)


def spans_kernel(relations, kernel, n):
    """Whether the quadratic relations span exactly the given kernel."""
    return linalg.row_space_equal(
        kernel, [_poly_to_vector(p, n) for p in relations]
    )


def verify_J2(rack, cocycle, flavor):
    """span of the class relations == kernel of the degree-2 symmetrizer."""
    return spans_kernel(
        quadratic_ideal(rack, cocycle, flavor),
        degree_two_kernel(rack, cocycle, flavor),
        rack.n,
    )


class RatioUnionFind:
    """Union-find whose edges carry rational ratios: lam_i = r * lam_root."""

    def __init__(self, n):
        self.parent = list(range(n))
        self.ratio = [Fraction(1)] * n
        self.zero_roots = set()

    def find(self, i):
        if self.parent[i] == i:
            return i, Fraction(1)
        root, _ = self.find(self.parent[i])
        self.ratio[i] = self.ratio[i] * self.ratio[self.parent[i]]
        self.parent[i] = root
        return root, self.ratio[i]

    def tie(self, a, b, rho):
        """Impose lam_a = rho * lam_b."""
        ra, ka = self.find(a)
        rb, kb = self.find(b)
        if ra == rb:
            if ka != rho * kb:
                self.zero_roots.add(ra)
            return
        self.parent[ra] = rb
        self.ratio[ra] = rho * kb / ka
        if ra in self.zero_roots:
            self.zero_roots.discard(ra)
            self.zero_roots.add(rb)

    def is_zero(self, i):
        root, _ = self.find(i)
        return root in self.zero_roots


class ParamSpace:
    """Solved parameter constraints over the relation classes: ``solved[i]``
    is (root index, lam_i / lam_root, zero) for class i."""

    __slots__ = ("classes", "solved")

    def __init__(self, classes, solved):
        self.classes = classes
        self.solved = tuple(solved)

    @property
    def free_dim(self):
        return len(self.free_classes())

    def free_classes(self):
        return [
            c for i, (c, (root, _, zero)) in enumerate(zip(self.classes, self.solved))
            if root == i and not zero
        ]

    def zero_classes(self):
        return [c for c, (_, _, zero) in zip(self.classes, self.solved) if zero]

    def contains(self, lam):
        """Whether class scalars (base pair -> value) meet every zero and tie."""
        classes = self.classes
        for c, (root, ratio, zero) in zip(classes, self.solved):
            want = 0 if zero else ratio * lam[classes[root].base_pair]
            if lam[c.base_pair] != want:
                return False
        return True

    def value_map(self, root_values):
        """Spell out every class scalar from values chosen at free roots.

        root_values: dict base_pair -> Fraction for the free classes.
        """
        out = {}
        for c, (root, ratio, zero) in zip(self.classes, self.solved):
            v = 0 if zero else exact(root_values[self.classes[root].base_pair])
            out[c.base_pair] = ratio * v
        return out

    def to_json(self):
        classes = self.classes
        return {
            "free_dim": self.free_dim,
            "free_pairs": [list(c.base_pair) for c in self.free_classes()],
            "classes": [
                {
                    "pair": list(c.base_pair),
                    "size": c.size,
                    "eta": [number_text(e) for e in c.eta],
                    "status": "zero" if zero else ("free" if root == i else "tied"),
                    "root_pair": list(classes[root].base_pair),
                    "ratio_to_root": number_text(ratio),
                }
                for i, (c, (root, ratio, zero)) in enumerate(zip(classes, self.solved))
            ],
        }


def pointed_lambda_space(rack, cocycle):
    """Tie the class scalars under the rack action.

    For x in X the automorphism x > (-) carries class C onto a class D; if
    it carries the h-th pair of C to the base pair of D, the scalars
    satisfy lam_C = q_{x,i_{h+1}} q_{x,i_h} eta_h(C) lam_D.
    """
    rprime = select_Rprime(enumerate_classes(rack), cocycle)
    pair_to_class = {p: i for i, c in enumerate(rprime) for p in c.pairs()}
    uf = RatioUnionFind(len(rprime))
    for ci, c in enumerate(rprime):
        pairs = c.pairs()
        for x in range(rack.n):
            moved = [(rack.act(x, a), rack.act(x, b)) for a, b in pairs]
            di = pair_to_class[moved[0]]
            h = moved.index(rprime[di].base_pair)
            a, b = pairs[h]
            uf.tie(ci, di, cocycle(x, a) * cocycle(x, b) * c.eta[h])
    solved = [uf.find(i) + (uf.is_zero(i),) for i in range(len(rprime))]
    return ParamSpace(rprime, solved)


def _composed(cls, rack, cocycle):
    """(phi_{i2} phi_{i1}, (q_{i1,x} q_{i2,i1>x}) for x in X) for the base
    pair (i2, i1) of the class."""
    i2, i1 = cls.base_pair
    ys = [rack.act(i1, x) for x in range(rack.n)]
    return (
        tuple(rack.act(i2, y) for y in ys),
        tuple(cocycle(i1, x) * cocycle(i2, y) for x, y in enumerate(ys)),
    )


def copointed_lambda_space(rack, cocycle):
    """A class scalar survives, free and untied, when the composed
    translation of its base pair is the identity with every scalar 1."""
    rprime = select_Rprime(enumerate_classes(rack), cocycle)
    unit = (tuple(range(rack.n)), (1,) * rack.n)
    return ParamSpace(rprime, [
        (i, Fraction(1), _composed(c, rack, cocycle) != unit)
        for i, c in enumerate(rprime)
    ])


def hom_vanishing_check(rack, cocycle):
    """Search for a generator matching the composed translation of a class:
    a class admits a nonzero equivariant map exactly when some j in X has
    (phi_j, q_{j,-}) equal to it.  all=true means no class does."""
    xs = range(rack.n)
    gens = {(rack.phi(j), tuple(cocycle(j, x) for x in xs)) for j in xs}
    per_class = {
        c.base_pair: _composed(c, rack, cocycle) in gens
        for c in select_Rprime(enumerate_classes(rack), cocycle)
    }
    return {"per_class": per_class, "all": not any(per_class.values())}
