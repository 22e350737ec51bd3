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
constraint systems that decide which deformation scalars survive.
"""

from fractions import Fraction

from .freealg import FreePoly
from . import braided, linalg
from .exactnum import exact


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

    def force_zero(self, i):
        root, _ = self.find(i)
        self.zero_roots.add(root)

    def is_zero(self, i):
        root, _ = self.find(i)
        return root in self.zero_roots

    def roots(self):
        return [i for i in range(len(self.parent)) if self.parent[i] == i]


class ParamSpace:
    """Solved parameter constraints over the relation classes."""

    __slots__ = ("classes", "uf")

    def __init__(self, classes, uf):
        self.classes = classes
        self.uf = uf

    @property
    def free_dim(self):
        return len(self.free_classes())

    def free_classes(self):
        return [
            self.classes[r]
            for r in self.uf.roots()
            if r not in self.uf.zero_roots
        ]

    def zero_classes(self):
        return [c for i, c in enumerate(self.classes) if self.uf.is_zero(i)]

    def contains(self, lam):
        """Whether class scalars (base pair -> value) meet every zero and tie."""
        for i, c in enumerate(self.classes):
            root, ratio = self.uf.find(i)
            if root in self.uf.zero_roots:
                want = 0
            else:
                want = ratio * lam[self.classes[root].base_pair]
            if lam[c.base_pair] != want:
                return False
        return True

    def value_map(self, root_values):
        """Spell out every class scalar from values chosen at free roots.

        root_values: dict base_pair -> Fraction for the free classes.
        """
        out = {}
        for i, c in enumerate(self.classes):
            root, ratio = self.uf.find(i)
            if root in self.uf.zero_roots:
                out[c.base_pair] = Fraction(0)
            else:
                key = self.classes[root].base_pair
                out[c.base_pair] = ratio * exact(root_values[key])
        return out

    def to_json(self):
        recs = []
        for i, c in enumerate(self.classes):
            root, ratio = self.uf.find(i)
            zero = root in self.uf.zero_roots
            recs.append(
                {
                    "pair": list(c.base_pair),
                    "size": c.size,
                    "eta": [str(e) for e in c.eta],
                    "status": (
                        "zero" if zero else ("free" if root == i else "tied")
                    ),
                    "root_pair": list(self.classes[root].base_pair),
                    "ratio_to_root": str(ratio),
                }
            )
        return {
            "free_dim": self.free_dim,
            "free_pairs": [list(c.base_pair) for c in self.free_classes()],
            "classes": recs,
        }


def pointed_lambda_space(rack, cocycle):
    """Tie the class scalars under the rack action.

    For x in X the automorphism x > (-) carries class C to a class D; if
    applying it to the h-th pair of C lands on the base pair of D, the
    scalars satisfy lam_C = q_{x,i_{h+1}} q_{x,i_h} eta_h(C) lam_D.
    """
    rprime = select_Rprime(enumerate_classes(rack), cocycle)
    pair_to_class = {}
    for i, c in enumerate(rprime):
        for p in c.pairs():
            pair_to_class[p] = i
    uf = RatioUnionFind(len(rprime))
    for ci, c in enumerate(rprime):
        for x in range(rack.n):
            target = None
            for h, (a, b) in enumerate(c.pairs()):
                moved = (rack.act(x, a), rack.act(x, b))
                di = pair_to_class.get(moved)
                assert di is not None, "rack action left the class system"
                if rprime[di].base_pair == moved:
                    target = (h, a, b, di)
                    break
            assert target is not None, "no rotation hit a base pair"
            h, a, b, di = target
            rho = cocycle(x, a) * cocycle(x, b) * c.eta[h]
            uf.tie(ci, di, rho)
    return ParamSpace(rprime, uf)


def copointed_condition(cls, rack, cocycle):
    """Both pointwise conditions that let the class scalar survive."""
    s = cls.seq
    i1, i2 = s[0], s[1 % len(s)]
    for x in range(rack.n):
        y = rack.act(i1, x)
        if rack.act(i2, y) != x:
            return False
        if cocycle(i1, x) * cocycle(i2, y) != 1:
            return False
    return True


def copointed_lambda_space(rack, cocycle):
    rprime = select_Rprime(enumerate_classes(rack), cocycle)
    uf = RatioUnionFind(len(rprime))
    for i, c in enumerate(rprime):
        if not copointed_condition(c, rack, cocycle):
            uf.force_zero(i)
    return ParamSpace(rprime, uf)


def hom_vanishing_check(rack, cocycle):
    """Search for a generator matching the composed translation of a class.

    A class admits a nonzero equivariant map exactly when some j in X has
    phi_j = phi_{i2} phi_{i1} together with the matching scalar products;
    all=true means no class does.
    """
    rprime = select_Rprime(enumerate_classes(rack), cocycle)
    per_class = {}
    for c in rprime:
        s = c.seq
        i1, i2 = s[0], s[1 % len(s)]
        composed = tuple(rack.act(i2, rack.act(i1, x)) for x in range(rack.n))
        admits = False
        for j in range(rack.n):
            if rack.phi(j) != composed:
                continue
            if all(
                cocycle(j, x) == cocycle(i1, x) * cocycle(i2, rack.act(i1, x))
                for x in range(rack.n)
            ):
                admits = True
                break
        per_class[c.base_pair] = admits
    return {"per_class": per_class, "all": not any(per_class.values())}
