"""Group-side realizations of the rack braidings.

The braidings built in :mod:`rackalg.braided` do not need a group to
exist, but they all come from one: an action of a finite group G on the
rack, a map g: X -> G, and a family of scalars chi_x(t) reproduce the
cocycle via q[x][y] = chi_y(g_x).  This module builds such data for the
conjugacy racks, audits every axiom exhaustively, constructs the matrix
coefficients the braided space generates inside the group algebra kG or
inside the function algebra on G, checks the diagonal characters those
coefficients support, and forms smash products of finite dimensional
quotient algebras with kG or with functions on G.

Each group side is one record (:func:`group_side`) that holds the letter
degrees: a letter of V has degree g_x over kG, a letter of W degree
g_x^{-1} over functions on G, and a word multiplies its letters' degrees
left to right (:func:`word_degree`).  Both braidings are read off the
records by the Yetter-Drinfeld formula, and one comatrix audit covers
both sides.

Everything here is exact and finite: groups are small symmetric groups
of the one type :class:`rackalg.perm.Group`, multiplied with
``perm.compose`` and inverted with ``perm.inverse``, scalars are
Fractions, and audits enumerate their whole domain rather than sampling.
The associativity audit of a structure-constant algebra clears the
table's denominators once and then runs in int arithmetic.
"""

import itertools
import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, reduce

from . import perm
from .braided import make_braiding
from .catalog import builtin_rack, symmetric_permgroup
from .cocycle import chi_character_value, validate_cocycle
from .exactnum import exact

_ZERO = Fraction(0)
_ONE = Fraction(1)


class RealizationError(ValueError):
    """The supplied data cannot form a group realization."""


class NotModuleAlgebra(ValueError):
    """The action or grading is incompatible with the multiplication.

    Carries a witness tuple describing the first failing instance.
    """


class PrincipalRealization:
    """A braiding presented by group data.

    Stores the group, the rack, the element map ``gmap`` (one group
    element per rack element), the scalars chi_x(t) and the group action
    on rack indices.  The defining laws are not assumed here; run
    :func:`validate_principal` to certify them.
    """

    __slots__ = ("group", "rack", "gmap", "_chi", "_act")

    def __init__(self, group, rack, gmap, chi_table, act_table):
        if len(gmap) != rack.n:
            raise RealizationError("gmap must list one group element per rack element")
        for p in gmap:
            if p not in group:
                raise RealizationError(
                    "gmap value %s is not in the group" % perm.cycle_notation(p)
                )
        self.group = group
        self.rack = rack
        self.gmap = tuple(gmap)
        self._chi = tuple(dict(row) for row in chi_table)
        self._act = {t: tuple(row) for t, row in act_table.items()}
        if len(self._chi) != rack.n:
            raise RealizationError("chi needs one row per rack element")
        for row in self._chi:
            if row.keys() != group.index.keys():
                raise RealizationError("chi rows must cover the whole group")
        if set(self._act) != set(group.elements):
            raise RealizationError("action must cover the whole group")

    def chi(self, x, t):
        """The scalar chi_x(t)."""
        return self._chi[x][t]

    def act(self, t, x):
        """The group action t . x as a rack index."""
        return self._act[t][x]

    def induced_cocycle(self):
        """The 2-cocycle q[x][y] = chi_y(g_x), validated on the rack."""
        n = self.rack.n
        q = [[self.chi(y, self.gmap[x]) for y in range(n)] for x in range(n)]
        return validate_cocycle(self.rack, q)


def _conjugation_action(group, gmap):
    """Action table t . x = index of t g_x t^{-1} inside gmap.

    Raises RealizationError when conjugation leaves the listed set, or
    when gmap repeats an element (the index would be ambiguous).
    """
    pos = {}
    for x, p in enumerate(gmap):
        if p in pos:
            raise RealizationError(
                "gmap repeats %s; conjugation indices would be ambiguous"
                % perm.cycle_notation(p)
            )
        pos[p] = x
    table = {}
    for t in group.elements:
        row = []
        for p in gmap:
            c = perm.conjugate(t, p)
            if c not in pos:
                raise RealizationError(
                    "conjugate %s of %s leaves the class"
                    % (perm.cycle_notation(c), perm.cycle_notation(p))
                )
            row.append(pos[c])
        table[t] = tuple(row)
    return table


def _chi_rows(group, gmap, chi):
    """Expand a chi specification into one dict per rack element."""
    if chi == "sgn":
        return [{t: Fraction(perm.sign(t)) for t in group.elements} for _ in gmap]
    if chi == "ms-chi":
        rows = []
        for p in gmap:
            support = tuple(i for i in range(len(p)) if p[i] != i)
            if len(support) != 2:
                raise RealizationError(
                    "ms-chi needs transpositions, got %s" % perm.cycle_notation(p)
                )
            rows.append(
                {t: chi_character_value(t, support) for t in group.elements}
            )
        return rows
    return [{t: exact(v) for t, v in raw.items()} for raw in chi]


def principal_realization(rack, gmap, chi="sgn"):
    """Build a realization over S_n whose action is conjugation along gmap.

    ``chi`` is "sgn", "ms-chi" (the order character on transpositions),
    or an explicit list of dicts mapping group elements to scalars.
    """
    gmap = tuple(tuple(p) for p in gmap)
    if not gmap:
        raise RealizationError("empty gmap")
    group = symmetric_permgroup(len(gmap[0]))
    act = _conjugation_action(group, gmap)
    return PrincipalRealization(group, rack, gmap, _chi_rows(group, gmap, chi), act)


@lru_cache(maxsize=None)
def builtin_realization(rack_name, cocycle_spec):
    """The natural datum for a builtin rack and cocycle.

    The constant -1 cocycle is realized by the sign character, the chi
    cocycle by the order character.  Other constants have no builtin
    datum here.  Each datum is built once and shared: do not mutate it.
    """
    rack, class_perms = builtin_rack(rack_name)
    if cocycle_spec == "chi":
        chi = "ms-chi"
    elif cocycle_spec == "const:-1":
        chi = "sgn"
    else:
        raise RealizationError(
            "no builtin realization for cocycle %r" % cocycle_spec
        )
    return principal_realization(rack, class_perms, chi)


class _Audit:
    """One audit report: per law a check count, at most five witnesses
    and a verdict.  ``report()`` adds the overall ``ok``; a single-law
    audit returns its law's entry from ``laws``."""

    def __init__(self, *laws):
        self.laws = {
            law: {"ok": True, "checked": 0, "witnesses": []} for law in laws
        }

    def count(self, law, checks=1):
        self.laws[law]["checked"] += checks

    def fail(self, law, witness):
        entry = self.laws[law]
        entry["ok"] = False
        if len(entry["witnesses"]) < 5:
            entry["witnesses"].append(witness)

    def check(self, law, holds, witness):
        self.count(law)
        if not holds:
            self.fail(law, witness)

    def report(self):
        report = dict(self.laws)
        report["ok"] = all(entry["ok"] for entry in self.laws.values())
        return report


def _names(group):
    """Cycle notation of every group element, for witnesses."""
    return {t: perm.cycle_notation(t) for t in group.elements}


def validate_principal(realization, cocycle=None):
    """Exhaustive audit of the defining laws of a realization.

    Checks, over the whole group and rack: that the stored action is a
    left action, that gmap is equivariant, that acting by gmap[x]
    reproduces the rack, that chi satisfies the twisted multiplication
    rule chi_i(ht) = chi_i(t) chi_{t.i}(h), that no chi value vanishes,
    and (when a cocycle is supplied) that chi_y(g_x) matches it entry by
    entry.  Returns a report dict with a witness list per law.
    """
    r = realization
    group, rack = r.group, r.rack
    n = rack.n
    name = _names(group)
    laws = ["left_action", "equivariance", "rack_match", "cocycle_rule",
            "values_nonzero"]
    if cocycle is not None:
        laws.append("q_match")
    audit = _Audit(*laws)

    for x in range(n):
        audit.check("left_action", r.act(group.identity, x) == x,
                    ("e", rack.labels[x]))
    for s in group.elements:
        for t in group.elements:
            st = perm.compose(s, t)
            for x in range(n):
                audit.check("left_action", r.act(st, x) == r.act(s, r.act(t, x)),
                            (name[s], name[t], rack.labels[x]))

    for h in group.elements:
        for x in range(n):
            audit.check(
                "equivariance",
                r.gmap[r.act(h, x)] == perm.conjugate(h, r.gmap[x]),
                (name[h], rack.labels[x]),
            )

    for x in range(n):
        for y in range(n):
            audit.check("rack_match", r.act(r.gmap[x], y) == rack.act(x, y),
                        (rack.labels[x], rack.labels[y]))

    for h in group.elements:
        for t in group.elements:
            ht = perm.compose(h, t)
            for x in range(n):
                audit.check(
                    "cocycle_rule",
                    r.chi(x, ht) == r.chi(x, t) * r.chi(r.act(t, x), h),
                    (name[h], name[t], rack.labels[x]),
                )

    for x in range(n):
        for t in group.elements:
            audit.check("values_nonzero", r.chi(x, t) != 0,
                        (rack.labels[x], name[t]))

    if cocycle is not None:
        for x in range(n):
            for y in range(n):
                audit.check("q_match", r.chi(y, r.gmap[x]) == cocycle(x, y),
                            (rack.labels[x], rack.labels[y]))

    return audit.report()


def dual_braiding_check(realization):
    """Compare both braidings derived from the group data with the
    table-built ones.

    Each side's coaction v_x -> sum_d e[x,d] (x) v_d and action mu give
    c(v_x (x) v_y) = sum_{b,d} mu(y, b, e[x,d]) v_b (x) v_d, which must be
    the V braiding over kG and the W braiding over functions on G.
    """
    r = realization
    rack = r.rack
    n = rack.n
    q = r.induced_cocycle()
    audit = _Audit("V", "W")

    for side in (_pointed_side(r), _copointed_side(r)):
        braiding = make_braiding(rack, q, side.flavor)
        for x, y in itertools.product(range(n), repeat=2):
            derived = {}
            for d, b in itertools.product(range(n), repeat=2):
                if side.e[(x, d)] and (c := side.mu(y, b, side.e[(x, d)])):
                    derived[(b, d)] = c
            target, coeff = braiding.apply_pair(x, y)
            audit.check(side.flavor, derived == {target: coeff},
                        (rack.labels[x], rack.labels[y]))

    return audit.report()


# ---------------------------------------------------------------------------
# elements of kG and of the function algebra on G, as sparse dicts


def _strip(d):
    return {k: v for k, v in d.items() if v != 0}

def _scale(d, c):
    if c == 0:
        return {}
    return {k: c * v for k, v in d.items()}

def _add_into(acc, d, c=_ONE):
    for k, v in d.items():
        acc[k] = acc.get(k, _ZERO) + c * v

def _conv_mul(a, b):
    """Product in kG: group elements multiply, coefficients convolve."""
    out = {}
    for p, cp in a.items():
        for q_, cq in b.items():
            k = perm.compose(p, q_)
            out[k] = out.get(k, _ZERO) + cp * cq
    return _strip(out)

def _pointwise_mul(a, b):
    out = {}
    for t, v in a.items():
        w = b.get(t)
        if w is not None:
            out[t] = v * w
    return _strip(out)

def _antipode(f):
    # S(t) = t^{-1} in kG and S(f)(t) = f(t^{-1}) on functions
    return _strip({perm.inverse(t): c for t, c in f.items()})


def _action_value(braiding, a, b, c, d):
    # what mu(a, b, e[c,d]) must be: the coefficient of (b, d) in c(c, a)
    target, coeff = braiding.apply_pair(c, a)
    return coeff if target == (b, d) else _ZERO


# one Hopf algebra H over G: braiding flavor, product, unit and counit of
# H, deg[x] the G-degree of letter x, the comatrix e (sparse, on its
# support), and mu(x, y, h), the coefficient of v_y in h . v_x
_Side = namedtuple("_Side", "flavor mul unit counit deg e mu")


def _pointed_side(r):
    """kG: the V braiding, letter x of degree g_x, e[x,y] = [x == y] g_x,
    convolution, unit e and the sum of the coefficients as counit."""
    n = r.rack.n
    deg = r.gmap
    e = {(x, y): {deg[x]: _ONE} if x == y else {}
         for x in range(n) for y in range(n)}

    def mu(x, y, elt):
        return sum((c * r.chi(x, t) for t, c in elt.items()
                    if r.act(t, x) == y), _ZERO)

    return _Side("V", _conv_mul, {r.group.identity: _ONE},
                 lambda f: sum(f.values(), _ZERO), deg, e, mu)


def _copointed_side(r):
    """Functions on G: the W braiding, letter x of degree g_x^{-1},
    e[x,y](t) = chi_x(t^{-1}) [t^{-1} . x == y], the pointwise product,
    unit the constant 1 and the value at e as counit; f acts on w_z by its
    value at deg[z]."""
    n = r.rack.n
    identity = r.group.identity
    deg = tuple(perm.inverse(p) for p in r.gmap)
    e = {(x, y): {} for x in range(n) for y in range(n)}
    for t in r.group.elements:
        ti = perm.inverse(t)
        for x in range(n):
            e[(x, r.act(ti, x))][t] = r.chi(x, ti)
    e = {k: _strip(f) for k, f in e.items()}

    def mu(z, t, f):
        return f.get(deg[z], _ZERO) if z == t else _ZERO

    return _Side("W", _pointwise_mul, {t: _ONE for t in r.group.elements},
                 lambda f: f.get(identity, _ZERO), deg, e, mu)


def group_side(realization, side):
    """The record of one group side: "pointed" is kG, where letter x has
    degree g_x, "copointed" the functions on G, where it has degree
    g_x^{-1}.  Any other side name is a ValueError."""
    if side == "pointed":
        return _pointed_side(realization)
    if side == "copointed":
        return _copointed_side(realization)
    raise ValueError("side must be 'pointed' or 'copointed'")


def word_degree(side, word):
    """The G-degree of a word over one side: the product of its letters'
    degrees, left to right."""
    return reduce(perm.compose, (side.deg[a] for a in word),
                  perm.identity(len(side.deg[0])))


def comatrix_action_audit(realization, side, cocycle=None):
    """Exhaustive audit of the comatrix coefficients on one side.

    side "pointed" works inside kG with the V braiding, side "copointed"
    inside functions on G with the W braiding.  The braiding built from
    ``cocycle`` (default: the induced one) decides action_eval
    (mu(a, b, e[c,d]) is the coefficient of (b, d) in c(c, a)) and
    exchange (c is a comodule map); the counit and the antipode axiom are
    shared.  yd_compat, the coproduct and the copointed antipode powers
    stay per side, for the reasons in the comments.  A deliberately wrong
    ``cocycle`` makes the evaluation checks fail with witnesses, which is
    the intended negative control.
    """
    r = realization
    group, rack = r.group, r.rack
    n = rack.n
    h = group_side(r, side)
    pointed = side == "pointed"
    q = cocycle if cocycle is not None else r.induced_cocycle()
    braiding = make_braiding(rack, q, h.flavor)
    e, mul, mu = h.e, h.mul, h.mu
    name = _names(group)
    audit = _Audit("action_eval", "exchange", "yd_compat", "coproduct",
                   "counit", "antipode")

    for a, b, c, d in itertools.product(range(n), repeat=4):
        audit.check("action_eval",
                    mu(a, b, e[(c, d)]) == _action_value(braiding, a, b, c, d),
                    (a, b, c, d))

    # with c(s, x) = qa (a, b) and c(t, y) = qb (c, d), the coaction
    # commutes with c when qb e[s,t] e[x,y] == qa e[a,c] e[b,d]
    for s, t, x, y in itertools.product(range(n), repeat=4):
        (a, b), qa = braiding.apply_pair(s, x)
        (c, d), qb = braiding.apply_pair(t, y)
        lhs = _scale(mul(e[(s, t)], e[(x, y)]), qb)
        rhs = _scale(mul(e[(a, c)], e[(b, d)]), qa)
        audit.check("exchange", lhs == rhs, (s, t, x, y))

    # yd_compat and the coproduct stay per side: the delta-basis form on
    # functions gives other per-g verdicts than the kG formula once gmap is
    # not equivariant, and the coproducts count 36 against 20,736 on S4
    if pointed:
        # action and coaction interlock over every group element g:
        # sum_y mu(x,y,g) e[y,z] g  ==  sum_y mu(y,z,g) g e[x,y]
        for x in range(n):
            for z in range(n):
                for g in group.elements:
                    lhs = {}
                    rhs = {}
                    hd = {g: _ONE}
                    for y in range(n):
                        c = mu(x, y, hd)
                        if c != 0:
                            _add_into(lhs, _conv_mul(e[(y, z)], hd), c)
                        c = mu(y, z, hd)
                        if c != 0:
                            _add_into(rhs, _conv_mul(hd, e[(x, y)]), c)
                    audit.check("yd_compat", _strip(lhs) == _strip(rhs),
                                (rack.labels[x], rack.labels[z], name[g]))
        # Delta(g) = g (x) g, compared as one element of kG (x) kG per (x, y)
        for x in range(n):
            for y in range(n):
                lhs = {(t, t): c for t, c in e[(x, y)].items()}
                rhs = {}
                for u in range(n):
                    for s, cs in e[(x, u)].items():
                        for t, ct in e[(u, y)].items():
                            rhs[(s, t)] = rhs.get((s, t), _ZERO) + cs * ct
                audit.check("coproduct", _strip(lhs) == _strip(rhs), (x, y))
    else:
        # the delta-basis form: for every x, z and g the functions
        # e[x,z](g_x g) delta_{g_x g} and e[x,z](g g_z) delta_{g g_z} agree
        for x in range(n):
            for z in range(n):
                exz = e[(x, z)]
                for g in group.elements:
                    lk = perm.compose(r.gmap[x], g)
                    rk = perm.compose(g, r.gmap[z])
                    lhs = _strip({lk: exz.get(lk, _ZERO)})
                    rhs = _strip({rk: exz.get(rk, _ZERO)})
                    audit.check("yd_compat", lhs == rhs,
                                (rack.labels[x], rack.labels[z], name[g]))
        # one check per value (a, b) of the coproduct; e[x,u] is supported
        # where a^{-1} . x == u, so the sum over u has the one term there
        for x in range(n):
            for y in range(n):
                exy = e[(x, y)]
                for a in group.elements:
                    u = r.act(perm.inverse(a), x)
                    exa = e[(x, u)].get(a, _ZERO)
                    # scale the support of e[u,y] once, not every b
                    row = {b: exa * v for b, v in e[(u, y)].items()}
                    for b in group.elements:
                        lhs = exy.get(perm.compose(a, b), _ZERO)
                        rhs = row.get(b, _ZERO)
                        audit.check("coproduct", lhs == rhs,
                                    (x, y, name[a], name[b]))

    for x in range(n):
        for y in range(n):
            audit.check("counit", h.counit(e[(x, y)]) == int(x == y), (x, y))

    for x in range(n):
        for y in range(n):
            if not pointed:
                # functions on G also check powers 0 and 1, evaluation at
                # g_z^{-1} and at g_z, and S^2 = id on every coefficient, so
                # their axiom witnesses carry a tag; on kG S(g) = g^{-1} and
                # S^2 = id, and the axiom decides every power
                exy = e[(x, y)]
                s_exy = _antipode(exy)
                for z in range(n):
                    want0 = q(z, x) if rack.act(z, x) == y else _ZERO
                    want1 = 1 / q(z, y) if rack.act(z, y) == x else _ZERO
                    audit.check("antipode", mu(z, z, exy) == want0
                                and mu(z, z, s_exy) == want1, (x, y, z))
                audit.check("antipode", _antipode(s_exy) == exy,
                            ("square", x, y))
            left = {}
            right = {}
            for u in range(n):
                _add_into(left, mul(_antipode(e[(x, u)]), e[(u, y)]))
                _add_into(right, mul(e[(x, u)], _antipode(e[(u, y)])))
            expected = h.unit if x == y else {}
            audit.check("antipode",
                        _strip(left) == expected and _strip(right) == expected,
                        (x, y) if pointed else ("axiom", x, y))

    return audit.report()


def theta_characters(realization):
    """The diagonal characters carried by the copointed comatrix.

    theta_z sends e[x,y] to q(z,x) when z acts on x to give y, else to
    zero: the value mu(z, z, e[x,y]) read off the W braiding.  The audit
    identifies each theta_z with evaluation at the copointed letter
    degree p_z = g_z^{-1}, checks multiplicativity on products of
    coefficients, verifies the exchange relation
    theta_z theta_t = theta_t theta_{t.z} twice (once on the evaluation
    points, where convolving delta_a with delta_b gives delta_{ab}, so it
    reads p_z p_t = p_t p_{t.z}; once through the comatrix coproduct), and
    records whether the characters are pairwise distinct.  On a rack with repeated columns they are not, and the
    report says so rather than failing.
    """
    r = realization
    rack = r.rack
    n = rack.n
    side = _copointed_side(r)
    e, points = side.e, side.deg
    braiding = make_braiding(rack, r.induced_cocycle(), side.flavor)
    vals = [
        [[_action_value(braiding, z, z, x, y) for y in range(n)] for x in range(n)]
        for z in range(n)
    ]
    audit = _Audit("identified", "algebra_map", "exchange_convolution",
                   "exchange_comatrix")

    for z in range(n):
        audit.check("identified", all(
            side.mu(z, z, e[(x, y)]) == vals[z][x][y]
            for x, y in itertools.product(range(n), repeat=2)
        ), rack.labels[z])

    # every product once, read at each point in the order z, x, y, s, t
    prods = {
        (x, y, s, t): side.mul(e[(x, y)], e[(s, t)])
        for x, y, s, t in itertools.product(range(n), repeat=4)
    }
    for z in range(n):
        a = points[z]
        for (x, y, s, t), prod in prods.items():
            audit.check("algebra_map",
                        prod.get(a, _ZERO) == vals[z][x][y] * vals[z][s][t],
                        (z, x, y, s, t))

    for z in range(n):
        for t in range(n):
            tz = rack.act(t, z)
            witness = (rack.labels[z], rack.labels[t])
            pz, pt = points[z], points[t]
            audit.check("exchange_convolution",
                        perm.compose(pz, pt) == perm.compose(pt, points[tz]), witness)
            audit.check("exchange_comatrix", all(
                sum((vals[z][x][u] * vals[t][u][y] for u in range(n)), _ZERO)
                == sum((vals[t][x][u] * vals[tz][u][y] for u in range(n)), _ZERO)
                for x, y in itertools.product(range(n), repeat=2)
            ), witness)

    report = audit.report()
    collisions = []
    for z in range(n):
        for t in range(z + 1, n):
            if vals[z] == vals[t]:
                collisions.append((rack.labels[z], rack.labels[t]))
    report["distinct"] = not collisions
    report["collisions"] = collisions
    report["gmap_injective"] = len(set(r.gmap)) == n
    return report


# ---------------------------------------------------------------------------
# finite dimensional algebras and smash products


class FiniteDimAlgebra:
    """An algebra given by structure constants on an indexed basis.

    ``table[i][j]`` is the product of basis elements i and j as a sparse
    dict index -> coefficient, and ``unit`` is the unit element in the
    same encoding.  ``labels`` is optional and only used in reports.
    """

    __slots__ = ("dim", "table", "unit", "labels")

    def __init__(self, dim, table, unit, labels=None):
        if len(table) != dim or any(len(row) != dim for row in table):
            raise ValueError("table must be dim x dim")
        for elt in itertools.chain((unit,), *table):
            for i, c in elt.items():
                exact(c)  # refuses a float
                if i not in range(dim):
                    raise ValueError(f"basis index {i!r} outside range({dim})")
        self.dim = dim
        self.table = table
        self.unit = _strip(dict(unit))
        self.labels = tuple(labels) if labels is not None else None

    def multiply(self, a, b):
        out = {}
        for i, ci in a.items():
            row = self.table[i]
            for j, cj in b.items():
                _add_into(out, row[j], ci * cj)
        return _strip(out)

    def label(self, i):
        return self.labels[i] if self.labels else str(i)

    def unit_audit(self):
        audit = _Audit("unit")
        for i in range(self.dim):
            basis = {i: _ONE}
            audit.check("unit", self.multiply(self.unit, basis) == basis,
                        ("left", self.label(i)))
            audit.check("unit", self.multiply(basis, self.unit) == basis,
                        ("right", self.label(i)))
        return audit.laws["unit"]

    def associativity_audit(self):
        """Check (ab)c == a(bc) on every basis triple, exactly, in int.

        The table is cleared of denominators once: with D the lcm of all
        of them, both sides of every triple scale by D^2, so equality is
        unchanged.  Row m becomes one list of (k * d + n, coefficient of
        a_n in a_m a_k).  For each pair (i, j) one dict, keyed k * d + n,
        collects sum_m (a_i a_j)_m (a_m a_k) minus sum_m (a_j a_k)_m
        (a_i a_m) for every k at once; only when it is not zero are the
        failing k walked upwards for witnesses.
        """
        d = self.dim
        den = math.lcm(*(c.denominator for row in self.table
                         for cell in row for c in cell.values()))
        rows = [
            [(k * d + n, c.numerator * (den // c.denominator))
             for k, cell in enumerate(row) for n, c in cell.items() if c]
            for row in self.table
        ]
        audit = _Audit("associativity")
        audit.count("associativity", d * d * d)
        for i in range(d):
            cols = [[] for _ in range(d)]  # cols[m]: a_i a_m as (n, coefficient)
            for flat, c in rows[i]:
                m, n = divmod(flat, d)
                cols[m].append((n, c))
            for j in range(d):
                diff = {}
                for m, c in cols[j]:
                    for key, v in rows[m]:
                        diff[key] = diff.get(key, 0) + c * v
                for flat, c in rows[j]:
                    m = flat % d
                    base = flat - m
                    for n, v in cols[m]:
                        key = base + n
                        diff[key] = diff.get(key, 0) - c * v
                if not any(diff.values()):
                    continue
                for k in sorted({key // d for key, v in diff.items() if v}):
                    audit.fail(
                        "associativity",
                        (self.label(i), self.label(j), self.label(k)),
                    )
        return audit.laws["associativity"]


def scalar_algebra():
    return FiniteDimAlgebra(1, [[{0: _ONE}]], {0: _ONE}, labels=("1",))


def algebra_from_quotient(quotient):
    """Wrap a freealg.QuotientAlgebra as structure constants."""
    words = quotient.words
    index = quotient.index
    dim = len(words)
    table = []
    for u in words:
        row = []
        for v in words:
            prod = quotient.mul_words(u, v)
            row.append({index[w]: c for w, c in prod.items() if c != 0})
        table.append(row)
    labels = tuple(
        "*".join(str(a) for a in w) if w else "1" for w in words
    )
    return FiniteDimAlgebra(dim, table, {index[b""]: _ONE}, labels=labels)


def quotient_group_action(realization, quotient):
    """Extend the basis action g . v_x = chi_x(g) v_{g.x} to a quotient.

    Acts letterwise on normal words and reduces back to normal form.
    Returns a dict group element -> list of sparse images, one per basis
    word.  Whether this respects the multiplication is a separate audit.
    """
    r = realization
    index = quotient.index
    act = {}
    for g in r.group.elements:
        images = []
        for w in quotient.words:
            coeff = _ONE
            target = []
            for a in w:
                coeff *= r.chi(a, g)
                target.append(r.act(g, a))
            reduced = quotient.nf_terms({bytes(target): coeff})
            images.append(
                {index[u]: c for u, c in reduced.items() if c != 0}
            )
        act[g] = images
    return act


def module_algebra_audit_group(algebra, group, action):
    """Does the group action respect unit and products, exhaustively."""
    name = _names(group)
    audit = _Audit("module_algebra")

    def apply(g, elt):
        out = {}
        images = action[g]
        for i, c in elt.items():
            _add_into(out, images[i], c)
        return _strip(out)

    for g in group.elements:
        audit.check("module_algebra", apply(g, algebra.unit) == algebra.unit,
                    ("unit", name[g]))
        for i in range(algebra.dim):
            gi = _strip(dict(action[g][i]))
            for j in range(algebra.dim):
                lhs = apply(g, algebra.table[i][j])
                rhs = algebra.multiply(gi, _strip(dict(action[g][j])))
                audit.check("module_algebra", lhs == rhs,
                            (name[g], algebra.label(i), algebra.label(j)))
    return audit.laws["module_algebra"]


def _smash(algebra, group, audit, product, unit, label):
    """The algebra on the basis a_i (x) g, indexed i * |G| + index(g).

    Raises NotModuleAlgebra with the first witness of the failing
    ``audit``.  ``product(i, g, j, h)`` is the product of a_i (x) g and
    a_j (x) h and ``unit`` the unit, both as sparse dicts keyed by
    (i, group element); ``label`` formats a basis label from the
    algebra's label and the element's cycle notation.
    """
    if not audit["ok"]:
        raise NotModuleAlgebra(audit["witnesses"][0])
    order = len(group)
    basis = [(i, g) for i in range(algebra.dim) for g in group.elements]

    def encode(elt):
        return {i * order + group.index[g]: c for (i, g), c in elt.items()}

    table = [[encode(product(i, g, j, h)) for j, h in basis] for i, g in basis]
    labels = None
    if algebra.labels:
        labels = tuple(
            label % (algebra.labels[i], perm.cycle_notation(g)) for i, g in basis
        )
    return FiniteDimAlgebra(len(basis), table, encode(unit), labels=labels)


def smash_with_group(algebra, group, action):
    """The smash product A # kG for a G-module algebra A.

    Basis a_i (x) g with product (a (x) g)(b (x) h) = a (g.b) (x) gh.
    Raises NotModuleAlgebra with the first witness when the action does
    not respect the multiplication.
    """

    def product(i, g, j, h):
        out = {}
        for m, cm in action[g][j].items():
            _add_into(out, algebra.table[i][m], cm)
        gh = perm.compose(g, h)
        return {(m, gh): c for m, c in _strip(out).items()}

    audit = module_algebra_audit_group(algebra, group, action)
    unit = {(i, group.identity): c for i, c in algebra.unit.items()}
    return _smash(algebra, group, audit, product, unit, "%s#%s")


def quotient_grading(realization, quotient):
    """Degrees of normal words for the function-algebra side: the
    :func:`word_degree` of each word over the copointed record."""
    side = _copointed_side(realization)
    return tuple(word_degree(side, w) for w in quotient.words)


def module_algebra_audit_grading(algebra, group, degrees):
    """Is the grading multiplicative, exhaustively.

    Every nonzero product of homogeneous basis elements must again be
    homogeneous, of the product degree, and the unit must sit in the
    identity component.
    """
    audit = _Audit("grading")
    for i in algebra.unit:
        audit.check("grading", degrees[i] == group.identity,
                    ("unit", algebra.label(i)))
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            audit.count("grading")
            want = perm.compose(degrees[i], degrees[j])
            for m in algebra.table[i][j]:
                if degrees[m] != want:
                    audit.fail(
                        "grading",
                        (algebra.label(i), algebra.label(j), algebra.label(m)),
                    )
                    break
    return audit.laws["grading"]


def smash_with_dual(algebra, group, degrees):
    """The smash product A # (functions on G) for a G-graded A.

    Basis a_i (x) delta_g with product
    (a (x) delta_g)(b (x) delta_h) = [g == deg(b) h] (ab (x) delta_h).
    Raises NotModuleAlgebra when the grading is not multiplicative.
    """

    shift = {(d, h): perm.compose(d, h) for d in set(degrees) for h in group}

    def product(i, g, j, h):
        if g != shift[degrees[j], h]:
            return {}
        return {(m, h): c for m, c in algebra.table[i][j].items()}

    audit = module_algebra_audit_grading(algebra, group, degrees)
    unit = {(i, g): c for i, c in algebra.unit.items() for g in group.elements}
    return _smash(algebra, group, audit, product, unit, "%s#d(%s)")
