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
left to right (:func:`word_degree`).  Each record is read once by the
Yetter-Drinfeld formula (:func:`_side_braiding`); that one reading gives
both braidings, the action evaluations of the comatrix audit, the
identification of the theta characters and the copointed antipode's
power 0, and one comatrix audit covers both sides.

Everything here is exact and finite: groups are small symmetric groups
of the one type :class:`rackalg.perm.Group`, and audits enumerate their
whole domain rather than sampling.  Inside the module a group element is
named by its index in the group, whose product and inverse tables
(``Group.mul`` and ``Group.inv``) are built on first read and kept: a
realization stores chi and its action by index, elements of kG and of
functions on G are sparse dicts keyed by index, and no audit or smash
product calls ``perm.compose``, ``perm.inverse`` or ``perm.conjugate``.
Permutations stay at the edges: ``gmap``, ``chi()``, ``act()``, the
letter degrees, :func:`word_degree`, :func:`quotient_grading`, the keys
of a quotient action and witnesses.
Every scalar here is the cocycle's exact scalar
(:func:`rackalg.exactnum.scalar`), an int when it is integral and a
Fraction otherwise: chi, the braidings the audits read, the structure
constants a :class:`FiniteDimAlgebra` holds and the products it returns.
So the builtin data, whose scalars are all +-1, run in int arithmetic;
Python mixes the two exactly, and every division has a Fraction operand,
so no float can arise.
"""

import itertools
import math
from collections import deque, namedtuple
from fractions import Fraction
from functools import lru_cache, partial, reduce

from . import perm
from .braided import make_braiding
from .catalog import builtin_cocycle, builtin_rack, symmetric_permgroup
from .cocycle import validate_cocycle
from .exactnum import number_text, scalar


class RealizationError(ValueError):
    """The supplied data cannot form a group realization."""


class NotModuleAlgebra(ValueError):
    """The action or grading is incompatible with the multiplication.

    Carries a witness tuple describing the first failing instance.
    """


class PrincipalRealization:
    """A braiding presented by group data.

    Stores the group, the rack, the element map ``gmap`` (one group
    element per rack element), the scalars chi_x(t) (as ints where
    integral) and the group action on rack indices, both by element index
    and built once, at construction: ``_chi[x][i]`` is chi_x and ``_act[i]``
    the action row of the element of index i.  The defining laws are not
    assumed here; run :func:`validate_principal` to certify them.
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
        rows = [dict(row) for row in chi_table]
        if len(rows) != rack.n:
            raise RealizationError("chi needs one row per rack element")
        for row in rows:
            if row.keys() != group.index.keys():
                raise RealizationError("chi rows must cover the whole group")
        if set(act_table) != set(group.elements):
            raise RealizationError("action must cover the whole group")
        self.group = group
        self.rack = rack
        self.gmap = tuple(gmap)
        self._chi = tuple(tuple(scalar(row[t]) for t in group.elements) for row in rows)
        self._act = tuple(tuple(act_table[t]) for t in group.elements)

    def chi(self, x, t):
        """The scalar chi_x(t)."""
        return self._chi[x][self.group.index[t]]

    def act(self, t, x):
        """The group action t . x as a rack index."""
        return self._act[self.group.index[t]][x]

    def induced_cocycle(self):
        """The 2-cocycle q[x][y] = chi_y(g_x), validated on the rack."""
        index = self.group.index
        q = [[row[index[g]] for row in self._chi] for g in self.gmap]
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


def _forced_chi(rack, gmap, q):
    """The chi rows q forces on conjugation along gmap.  q(x, y) = chi_y(g_x)
    and chi_i(ht) = chi_i(t) chi_{t.i}(h) (Andruskiewitsch and Grana 2003)
    give chi_i(g_y t) = chi_i(t) q(y, t.i), where (g_y t).i = y |> (t.i)
    comes from the rack table.  A breadth first walk from chi(e) = 1 takes
    the g_y in gmap order; an element reached again with other values
    raises RealizationError."""
    group = symmetric_permgroup(len(gmap[0]))
    gens = [group.mul[group.index[g]] for g in gmap]
    e = group.index[group.identity]
    seen = {e: ((1,) * rack.n, range(rack.n))}
    queue = deque([e])
    while queue:
        t = queue.popleft()
        chi_t, act_t = seen[t]
        for y, g_mul in enumerate(gens):
            h = g_mul[t]
            row = tuple(c * q(y, j) for c, j in zip(chi_t, act_t))
            if h not in seen:
                seen[h] = row, [rack.table[y][j] for j in act_t]
                queue.append(h)
            elif (old := seen[h][0]) != row:
                i = next(i for i, c in enumerate(row) if c != old[i])
                raise RealizationError("chi_%s(%s) is forced to %s and to %s" % (
                    rack.labels[i], _cycle(group, h),
                    number_text(old[i]), number_text(row[i])))
    return [{group.elements[t]: row[i] for t, (row, _) in seen.items()}
            for i in range(rack.n)]


def principal_realization(rack, gmap, chi):
    """Build a realization over S_n whose action is conjugation along gmap;
    ``chi`` maps every group element to chi_x(t), one dict per rack element.
    """
    gmap = tuple(tuple(p) for p in gmap)
    if not gmap:
        raise RealizationError("empty gmap")
    group = symmetric_permgroup(len(gmap[0]))
    act = _conjugation_action(group, gmap)
    return PrincipalRealization(group, rack, gmap, chi, act)


@lru_cache(maxsize=None)
def builtin_realization(rack_name, cocycle_spec):
    """Conjugation along a builtin rack's class, with the chi the cocycle
    forces (:func:`_forced_chi`); the cocycle's own errors propagate.
    Each datum is built once and shared: do not mutate it."""
    rack, class_perms = builtin_rack(rack_name)
    q = builtin_cocycle(rack_name, cocycle_spec)
    return principal_realization(rack, class_perms, _forced_chi(rack, class_perms, q))


def _cycle(group, i):
    """Cycle notation of the element of index i, for witnesses."""
    return perm.cycle_notation(group.elements[i])


class _Audit:
    """One audit report: per law a check count, at most five witnesses
    and a verdict.  ``report()`` adds the overall ``ok``; a single-law
    audit returns its law's entry from ``laws``.  Loops count their
    checks in bulk and build a witness only for a failure."""

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
    rack = r.rack
    n = rack.n
    labels = rack.labels
    group = r.group
    chi, act = r._chi, r._act
    mul, inv = group.mul, group.inv
    order = len(group)
    gx = [group.index[p] for p in r.gmap]
    laws = ["left_action", "equivariance", "rack_match", "cocycle_rule",
            "values_nonzero"]
    if cocycle is not None:
        laws.append("q_match")
    audit = _Audit(*laws)

    audit.count("left_action", n + order * order * n)
    unit_row = act[group.index[group.identity]]
    for x in range(n):
        if unit_row[x] != x:
            audit.fail("left_action", ("e", labels[x]))
    for s in range(order):
        for t in range(order):
            st, s_row, t_row = act[mul[s][t]], act[s], act[t]
            for x in range(n):
                if st[x] != s_row[t_row[x]]:
                    audit.fail("left_action",
                               (_cycle(group, s), _cycle(group, t), labels[x]))

    # h g_x h^{-1} by index is mul[mul[h][g_x]][inv[h]]
    audit.count("equivariance", order * n)
    for h in range(order):
        h_row, h_mul = act[h], mul[h]
        for x in range(n):
            if gx[h_row[x]] != mul[h_mul[gx[x]]][inv[h]]:
                audit.fail("equivariance", (_cycle(group, h), labels[x]))

    audit.count("rack_match", n * n)
    for x in range(n):
        for y in range(n):
            if act[gx[x]][y] != rack.act(x, y):
                audit.fail("rack_match", (labels[x], labels[y]))

    audit.count("cocycle_rule", order * order * n)
    for h in range(order):
        for t in range(order):
            ht, t_row = mul[h][t], act[t]
            for x in range(n):
                if chi[x][ht] != chi[x][t] * chi[t_row[x]][h]:
                    audit.fail("cocycle_rule",
                               (_cycle(group, h), _cycle(group, t), labels[x]))

    audit.count("values_nonzero", n * order)
    for x in range(n):
        for t in range(order):
            if chi[x][t] == 0:
                audit.fail("values_nonzero", (labels[x], _cycle(group, t)))

    if cocycle is not None:
        audit.count("q_match", n * n)
        for x in range(n):
            for y in range(n):
                if chi[y][gx[x]] != cocycle(x, y):
                    audit.fail("q_match", (labels[x], labels[y]))

    return audit.report()


def dual_braiding_check(realization):
    """Compare both braidings derived from the group data with the
    table-built ones.

    Each side's coaction and action give a braiding
    (:func:`_side_braiding`), which must be the V braiding over kG and the
    W braiding over functions on G.
    """
    r = realization
    rack = r.rack
    n = rack.n
    q = r.induced_cocycle()
    audit = _Audit("V", "W")

    for side in (_pointed_side(r), _copointed_side(r)):
        pairs = make_braiding(rack, q, side.flavor).pair_map
        audit.count(side.flavor, n * n)
        for (x, y), derived in _side_braiding(side, n).items():
            target, coeff = pairs[x, y]
            if derived != {target: coeff}:
                audit.fail(side.flavor, (rack.labels[x], rack.labels[y]))

    return audit.report()


# ---------------------------------------------------------------------------
# elements of kG and of the function algebra on G, as sparse dicts keyed
# by element index; products and antipodes read the group's indexed table


def _strip(d):
    return {k: v for k, v in d.items() if v != 0}

def _scale(d, c):
    if c == 0:
        return {}
    return {k: c * v for k, v in d.items()}

def _add_into(acc, d, c=1):
    for k, v in d.items():
        acc[k] = acc.get(k, 0) + c * v

def _conv_mul(mul, a, b):
    """Product in kG: group elements multiply, coefficients convolve."""
    out = {}
    for p, cp in a.items():
        row = mul[p]
        for q_, cq in b.items():
            k = row[q_]
            out[k] = out.get(k, 0) + cp * cq
    return _strip(out)

def _pointwise_mul(a, b):
    return {t: c for t, v in a.items() if t in b and (c := v * b[t]) != 0}

def _antipode(inv, f):
    # S(t) = t^{-1} in kG and S(f)(t) = f(t^{-1}) on functions
    return _strip({inv[t]: c for t, c in f.items()})


def _action_value(pairs, a, b, c, d):
    # what mu(a, b, e[c,d]) must be: the coefficient of (b, d) in c(c, a)
    target, coeff = pairs[c, a]
    return coeff if target == (b, d) else 0


# one Hopf algebra H over G: braiding flavor, product, unit and counit of
# H, deg[x] the G-degree of letter x (a permutation), the comatrix e
# (sparse, on its support, keyed by element index), and mu(x, y, h), the
# coefficient of v_y in h . v_x
_Side = namedtuple("_Side", "flavor mul unit counit deg e mu")


def _pointed_side(r):
    """kG: the V braiding, letter x of degree g_x, e[x,y] = [x == y] g_x,
    convolution, unit e and the sum of the coefficients as counit."""
    n = r.rack.n
    group = r.group
    e = {(x, y): {group.index[r.gmap[x]]: 1} if x == y else {}
         for x in range(n) for y in range(n)}

    def mu(x, y, elt):
        return sum(c * r._chi[x][t] for t, c in elt.items() if r._act[t][x] == y)

    return _Side("V", partial(_conv_mul, group.mul), {group.index[group.identity]: 1},
                 lambda f: sum(f.values()), r.gmap, e, mu)


def _copointed_side(r):
    """Functions on G: the W braiding, letter x of degree g_x^{-1},
    e[x,y](t) = chi_x(t^{-1}) [t^{-1} . x == y], the pointwise product,
    unit the constant 1 and the value at e as counit; f acts on w_z by its
    value at deg[z]."""
    n = r.rack.n
    group = r.group
    chi, act, inv = r._chi, r._act, group.inv
    identity = group.index[group.identity]
    pts = [inv[group.index[p]] for p in r.gmap]
    e = {(x, y): {} for x in range(n) for y in range(n)}
    for t, ti in enumerate(inv):
        for x in range(n):
            e[(x, act[ti][x])][t] = chi[x][ti]
    e = {k: _strip(f) for k, f in e.items()}

    def mu(z, t, f):
        return f.get(pts[z], 0) if z == t else 0

    return _Side("W", _pointwise_mul, dict.fromkeys(range(len(inv)), 1),
                 lambda f: f.get(identity, 0),
                 tuple(group.elements[p] for p in pts), e, mu)


def group_side(realization, side):
    """The record of one group side: "pointed" is kG, where letter x has
    degree g_x, "copointed" the functions on G, where it has degree
    g_x^{-1}.  The letter degrees ``deg`` are permutations; the comatrix
    values e[x,y], the unit and the elements ``mul`` and ``counit`` take are
    sparse dicts keyed by element index, with int values where integral and
    exact Fractions otherwise.  Any other side name is a ValueError."""
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


def _products(side, n):
    """Every product e[s,t] e[x,y] of comatrix coefficients, keyed
    (s, t, x, y) in that order; a zero factor gives the zero product."""
    e, mul = side.e, side.mul
    prods = {}
    for s, t, x, y in itertools.product(range(n), repeat=4):
        est, exy = e[(s, t)], e[(x, y)]
        prods[s, t, x, y] = mul(est, exy) if est and exy else {}
    return prods


def _side_braiding(side, n):
    """The braiding one side's coaction v_x -> sum_d e[x,d] (x) v_d and
    action mu give, c(v_x (x) v_y) = sum_{b,d} mu(y, b, e[x,d]) v_b (x) v_d:
    per (x, y), in that order, its nonzero coefficients keyed (b, d).  mu is
    linear in its last argument, so a zero e[x,d] adds nothing."""
    e, mu = side.e, side.mu
    braiding = {}
    for x in range(n):
        row = [(d, e[(x, d)]) for d in range(n) if e[(x, d)]]
        for y in range(n):
            braiding[x, y] = {(b, d): c for d, exd in row for b in range(n)
                              if (c := mu(y, b, exd))}
    return braiding


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
    rack = r.rack
    n = rack.n
    labels = rack.labels
    h = group_side(r, side)
    pointed = side == "pointed"
    if cocycle is None:
        cocycle = r.induced_cocycle()
    pairs = make_braiding(rack, cocycle, h.flavor).pair_map
    q = cocycle.q
    group = r.group
    chi, act = r._chi, r._act
    order = len(group)
    gmul = group.mul
    gx = [group.index[p] for p in r.gmap]
    e, mul, mu = h.e, h.mul, h.mu
    derived = _side_braiding(h, n)
    audit = _Audit("action_eval", "exchange", "yd_compat", "coproduct",
                   "counit", "antipode")

    # mu(a, b, e[c,d]) is the coefficient of (b, d) in the derived c(c, a)
    audit.count("action_eval", n ** 4)
    for a, b, c, d in itertools.product(range(n), repeat=4):
        if derived[c, a].get((b, d), 0) != _action_value(pairs, a, b, c, d):
            audit.fail("action_eval", (a, b, c, d))

    # with c(s, x) = qa (a, b) and c(t, y) = qb (c, d), the coaction
    # commutes with c when qb e[s,t] e[x,y] == qa e[a,c] e[b,d]; two zero
    # products agree at any scale
    prods = _products(h, n)
    audit.count("exchange", n ** 4)
    for (s, t, x, y), lhs in prods.items():
        (a, b), qa = pairs[s, x]
        (c, d), qb = pairs[t, y]
        rhs = prods[a, c, b, d]
        if (lhs or rhs) and _scale(lhs, qb) != _scale(rhs, qa):
            audit.fail("exchange", (s, t, x, y))

    # yd_compat and the coproduct stay per side: the delta-basis form on
    # functions gives other per-g verdicts than the kG formula once gmap is
    # not equivariant, and the coproducts count 36 against 20,736 on S4
    if pointed:
        # action and coaction interlock over every group element g:
        # sum_y mu(x,y,g) e[y,z] g  ==  sum_y mu(y,z,g) g e[x,y].  As
        # g . v_x = chi_x(g) v_{g.x} and e[y,z] = [y == z] g_z, each sum
        # has one term, with the one coefficient c = chi_x(g) [g.x == z]:
        # the law reads c g_z g == c g g_x
        audit.count("yd_compat", n * n * order)
        for x in range(n):
            for z in range(n):
                for g in range(order):
                    if (act[g][x] == z and chi[x][g]
                            and gmul[gx[z]][g] != gmul[g][gx[x]]):
                        audit.fail("yd_compat",
                                   (labels[x], labels[z], _cycle(group, g)))
        # Delta(g) = g (x) g, compared as one element of kG (x) kG per (x, y)
        audit.count("coproduct", n * n)
        for x in range(n):
            for y in range(n):
                lhs = {(t, t): c for t, c in e[(x, y)].items()}
                rhs = {}
                for u in range(n):
                    for s, cs in e[(x, u)].items():
                        for t, ct in e[(u, y)].items():
                            rhs[(s, t)] = rhs.get((s, t), 0) + cs * ct
                if _strip(lhs) != _strip(rhs):
                    audit.fail("coproduct", (x, y))
    else:
        # each e[x,y] as its values by element index
        val = {k: [f.get(t, 0) for t in range(order)] for k, f in e.items()}
        # the delta-basis form: for every x, z and g the one-point
        # functions e[x,z](g_x g) delta_{g_x g} and e[x,z](g g_z)
        # delta_{g g_z} agree, that is the points agree or both values
        # vanish
        audit.count("yd_compat", n * n * order)
        for x in range(n):
            left = gmul[gx[x]]
            for z in range(n):
                exz, gz = val[x, z], gx[z]
                for g in range(order):
                    lk, rk = left[g], gmul[g][gz]
                    if lk != rk and (exz[lk] or exz[rk]):
                        audit.fail("yd_compat",
                                   (labels[x], labels[z], _cycle(group, g)))
        # one check per value (a, b) of the coproduct; e[x,u] is supported
        # where a^{-1} . x == u, so the sum over u has the one term there,
        # and all b of one a are compared as one row
        audit.count("coproduct", n * n * order * order)
        for x in range(n):
            for y in range(n):
                exy = val[x, y]
                for a in range(order):
                    u = act[group.inv[a]][x]
                    exa = val[x, u][a]
                    lhs = [exy[ab] for ab in gmul[a]]
                    rhs = [exa * v for v in val[u, y]]
                    if lhs != rhs:
                        for b in range(order):
                            if lhs[b] != rhs[b]:
                                audit.fail("coproduct", (x, y, _cycle(group, a),
                                                         _cycle(group, b)))

    audit.count("counit", n * n)
    for x in range(n):
        for y in range(n):
            if h.counit(e[(x, y)]) != int(x == y):
                audit.fail("counit", (x, y))

    audit.count("antipode", n * n if pointed else n * n * (n + 2))
    s_e = {k: _antipode(group.inv, f) for k, f in e.items()}
    for x in range(n):
        for y in range(n):
            if not pointed:
                # functions on G also check powers 0 and 1, evaluation at
                # g_z^{-1} and at g_z, and S^2 = id on every coefficient, so
                # their axiom witnesses carry a tag; on kG S(g) = g^{-1} and
                # S^2 = id, and the axiom decides every power.  Power 0,
                # mu(z, z, e[x,y]), is the (z, y) entry of the derived c(x, z)
                s_exy = s_e[x, y]
                for z in range(n):
                    want0 = q[z][x] if rack.act(z, x) == y else 0
                    want1 = Fraction(1) / q[z][y] if rack.act(z, y) == x else 0
                    if (derived[x, z].get((z, y), 0) != want0
                            or mu(z, z, s_exy) != want1):
                        audit.fail("antipode", (x, y, z))
                if _antipode(group.inv, s_exy) != e[(x, y)]:
                    audit.fail("antipode", ("square", x, y))
            left = {}
            right = {}
            for u in range(n):
                _add_into(left, mul(s_e[x, u], e[(u, y)]))
                _add_into(right, mul(e[(x, u)], s_e[u, y]))
            expected = h.unit if x == y else {}
            if _strip(left) != expected or _strip(right) != expected:
                audit.fail("antipode", (x, y) if pointed else ("axiom", x, y))

    return audit.report()


def _matmul(a, b):
    """The product of two matrices given as lists of rows."""
    cols = list(zip(*b))
    return [[sum(u * v for u, v in zip(row, col)) for col in cols] for row in a]


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
    records whether the characters are pairwise distinct.  On a rack with
    repeated columns they are not, and the report says so rather than
    failing.
    """
    r = realization
    rack = r.rack
    n = rack.n
    labels = rack.labels
    side = _copointed_side(r)
    group = r.group
    p = [group.index[a] for a in side.deg]  # p[z]: index of p_z
    pairs = make_braiding(rack, r.induced_cocycle(), side.flavor).pair_map
    # vals[z] is theta_z as the n x n matrix of its values on e[x,y]
    vals = [
        [[_action_value(pairs, z, z, x, y) for y in range(n)] for x in range(n)]
        for z in range(n)
    ]
    audit = _Audit("identified", "algebra_map", "exchange_convolution",
                   "exchange_comatrix")

    # mu(z, z, e[x,y]) is the (z, y) entry of the derived c(x, z)
    derived = _side_braiding(side, n)
    audit.count("identified", n)
    for z in range(n):
        if any(derived[x, z].get((z, y), 0) != vals[z][x][y]
               for x, y in itertools.product(range(n), repeat=2)):
            audit.fail("identified", labels[z])

    # every product once, read at each point in the order z, x, y, s, t
    prods = _products(side, n)
    audit.count("algebra_map", n * len(prods))
    for z in range(n):
        a, vz = p[z], vals[z]
        got = [prod.get(a, 0) for prod in prods.values()]
        want = [vz[x][y] * vz[s][t] for x, y, s, t in prods]
        if got != want:
            for key, lhs, rhs in zip(prods, got, want):
                if lhs != rhs:
                    audit.fail("algebra_map", (z, *key))

    # theta_z theta_t through the comatrix coproduct is the matrix product
    # of their values, so the exchange reads vals[z] vals[t] ==
    # vals[t] vals[t.z]
    theta2 = [[_matmul(vz, vt) for vt in vals] for vz in vals]
    audit.count("exchange_convolution", n * n)
    audit.count("exchange_comatrix", n * n)
    for z in range(n):
        for t in range(n):
            tz = rack.act(t, z)
            if group.mul[p[z]][p[t]] != group.mul[p[t]][p[tz]]:
                audit.fail("exchange_convolution", (labels[z], labels[t]))
            if theta2[z][t] != theta2[t][tz]:
                audit.fail("exchange_comatrix", (labels[z], labels[t]))

    report = audit.report()
    collisions = []
    for z in range(n):
        for t in range(z + 1, n):
            if vals[z] == vals[t]:
                collisions.append((labels[z], labels[t]))
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
    same encoding, each coefficient an int where integral, else a
    Fraction, as in the products ``multiply`` returns: a table with any
    other coefficient is copied in that form.  ``labels`` is optional.
    """

    __slots__ = ("dim", "table", "unit", "labels")

    def __init__(self, dim, table, unit, labels=None):
        if len(table) != dim or any(len(row) != dim for row in table):
            raise ValueError("table must be dim x dim")
        if any(type(c) is not int for row in table for elt in row for c in elt.values()):
            table = [[{i: scalar(c) for i, c in elt.items()} for elt in row] for row in table]
        self.dim = dim
        self.table = table
        self.unit = _strip({i: scalar(c) for i, c in unit.items()})
        outside = set(unit).union(*itertools.chain(*table)) - set(range(dim))
        if outside:
            raise ValueError(f"basis index {outside.pop()!r} outside range({dim})")
        self.labels = tuple(labels) if labels is not None else None

    def multiply(self, a, b):
        """The product of two sparse elements."""
        return _combine(a, {i: _combine(b, self.table[i]) for i in a})

    def label(self, i):
        return self.labels[i] if self.labels else str(i)

    def unit_audit(self):
        audit = _Audit("unit")
        for i in range(self.dim):
            basis = {i: 1}
            audit.check("unit", self.multiply(self.unit, basis) == basis,
                        ("left", self.label(i)))
            audit.check("unit", self.multiply(basis, self.unit) == basis,
                        ("right", self.label(i)))
        return audit.laws["unit"]

    def generating_indices(self):
        """Basis indices that generate the algebra, found without linear
        algebra.  In index order, the first index not yet reached becomes
        the next generator; then a_n is reached when a reached a_m times a
        generator a_s is a single term c a_n, c != 0, so a_n = a_m a_s / c.
        At worst every index is a generator."""
        d, table = self.dim, self.table
        reached = [False] * d
        gens = []
        for g in range(d):
            if reached[g]:
                continue
            reached[g] = True
            gens.append(g)
            # each cell (m, s) comes up once, when the later of m and s is reached
            todo = [table[m][g] for m in range(d) if reached[m]]
            todo += [table[g][s] for s in gens[:-1]]
            while todo:
                cell = todo.pop()
                terms = cell and list(filter(cell.get, cell))  # the nonzero terms
                if len(terms) == 1 and not reached[terms[0]]:
                    reached[terms[0]] = True
                    todo += [table[terms[0]][s] for s in gens]
        return gens

    def associativity_audit(self):
        """Check (ab)c == a(bc) on every basis triple, exactly, in int.

        The middle nucleus N = {m : (x m) y = x (m y) for all x, y} is a
        subalgebra: in the Teichmueller identity (ab,c,d) - (a,bc,d) +
        (a,b,cd) = a(b,c,d) + (a,b,c)d, which every bilinear product
        obeys, b and c in N leave only (a,bc,d).  So pass 1 checks the
        middle slices j in ``generating_indices`` for every i and k; if
        none fails, N is everything and the report covers all d^3
        triples.  After a failure pass 2 checks every (i, j) for witnesses.

        The table is cleared of denominators once: with D the lcm of all
        of them, both sides of every triple scale by D^2, so equality is
        unchanged.  Row m becomes one list of (k * d + n, coefficient of
        a_n in a_m a_k), which ``_middle_slice`` reads.
        """
        d = self.dim
        den = math.lcm(*(c.denominator for row in self.table for cell in row
                         for c in cell.values() if type(c) is not int))
        rows = [
            [(k * d + n, int(c * den))
             for k, cell in enumerate(row) for n, c in cell.items() if c]
            for row in self.table
        ]

        def failures(middles):
            for i in range(d):
                cols = [[] for _ in range(d)]  # cols[m]: a_i a_m as (n, coefficient)
                for flat, c in rows[i]:
                    m, n = divmod(flat, d)
                    cols[m].append((n, c))
                for j in middles:
                    ks = _middle_slice(rows, cols, j, d)
                    if ks:
                        yield i, j, ks

        audit = _Audit("associativity")
        audit.count("associativity", d * d * d)
        if any(failures(self.generating_indices())):
            for i, j, ks in failures(range(d)):
                for k in ks:
                    audit.fail("associativity", (self.label(i), self.label(j), self.label(k)))
        return audit.laws["associativity"]


def _middle_slice(rows, cols, j, d):
    """The k, in order, with (a_i a_j) a_k != a_i (a_j a_k), for the i of
    ``cols``: one dict, keyed k * d + n, collects sum_m (a_i a_j)_m
    (a_m a_k) minus sum_m (a_j a_k)_m (a_i a_m) for every k at once."""
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
    return sorted({key // d for key, v in diff.items() if v}) if any(diff.values()) else []


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
            row.append({index[w]: scalar(c) for w, c in prod.items() if c != 0})
        table.append(row)
    labels = tuple("*".join(map(str, w)) if w else "1" for w in words)
    return FiniteDimAlgebra(dim, table, {index[b""]: 1}, labels=labels)


def quotient_group_action(realization, quotient):
    """Extend the basis action g . v_x = chi_x(g) v_{g.x} to a quotient.

    Acts letterwise on normal words and reduces back to normal form.
    Returns a dict group element -> list of sparse images, one per basis
    word, each coefficient an exact scalar.  Whether this respects the
    multiplication is a separate audit.
    """
    r = realization
    index = quotient.index
    act = {}
    for i, g in enumerate(r.group.elements):
        chi_g, act_g = [row[i] for row in r._chi], r._act[i]
        images = []
        for w in quotient.words:
            coeff = math.prod(chi_g[a] for a in w)
            reduced = quotient.nf_terms({bytes(act_g[a] for a in w): coeff})
            images.append({index[u]: scalar(c) for u, c in reduced.items() if c != 0})
        act[g] = images
    return act


def _combine(coeffs, rows):
    """sum_m coeffs[m] rows[m], for sparse coeffs and sparse rows."""
    out = {}
    for m, c in coeffs.items():
        _add_into(out, rows[m], c)
    return _strip(out)


def _module_algebra_pass(algebra, group, action, audit):
    """The module-algebra audit, run into ``audit``; yields per element g,
    in the group's order, the products right[j][m] = a_m (g . a_j) formed."""
    d, table, unit = algebra.dim, algebra.table, algebra.unit
    audit.count("module_algebra", len(group) * (1 + d * d))
    for g in group.elements:
        images = action[g]
        if _combine(unit, images) != unit:
            audit.fail("module_algebra", ("unit", perm.cycle_notation(g)))
        # (g . a_i)(g . a_j) = sum_m gi[m] right[j][m]
        right = [[_combine(image, a_m) for a_m in table] for image in images]
        for i, gi in enumerate(images):
            for j, rj in enumerate(right):
                if _combine(table[i][j], images) != _combine(gi, rj):
                    audit.fail("module_algebra", (perm.cycle_notation(g),
                                                  algebra.label(i), algebra.label(j)))
        yield right


def module_algebra_audit_group(algebra, group, action):
    """Does the group action respect unit and products, exhaustively."""
    audit = _Audit("module_algebra")
    deque(_module_algebra_pass(algebra, group, action, audit), maxlen=0)
    return audit.laws["module_algebra"]


def _smash_labels(algebra, group, label):
    """The labels of the basis a_i (x) g, indexed i * |G| + index(g), as
    ``label`` % (label of a_i, cycle notation of g); None without labels."""
    if algebra.labels:
        return tuple(label % (a, perm.cycle_notation(g))
                     for a in algebra.labels for g in group.elements)


def smash_with_group(algebra, group, action):
    """The smash product A # kG for a G-module algebra A.

    Basis a_i (x) g, indexed i * |G| + index(g), with product
    (a (x) g)(b (x) h) = a (g.b) (x) gh.  Raises NotModuleAlgebra with the
    first witness when the action does not respect the multiplication.
    """
    order = len(group)
    table = [None] * (algebra.dim * order)
    audit = _Audit("module_algebra")
    law = audit.laws["module_algebra"]
    passes = _module_algebra_pass(algebra, group, action, audit)
    for g, (g_row, right) in enumerate(zip(group.mul, passes)):
        if not law["ok"]:
            raise NotModuleAlgebra(law["witnesses"][0])
        for i in range(algebra.dim):
            row = []
            for r_j in right:
                # a_i (g . a_j), formed by the audit, into the cell of every h at gh
                row += [{m * order + gh: c for m, c in r_j[i].items()}
                        for gh in g_row]
            table[i * order + g] = row
    e = group.index[group.identity]
    unit = {i * order + e: c for i, c in algebra.unit.items()}
    return FiniteDimAlgebra(len(table), table, unit,
                            labels=_smash_labels(algebra, group, "%s#%s"))


def quotient_grading(realization, quotient):
    """Degrees of normal words for the function-algebra side, each word's
    :func:`word_degree` over the copointed record: the words are prefix-closed
    and listed shortest first, so each is one table step from its prefix."""
    r = realization
    group = r.group
    inv_gx = [group.inv[group.index[p]] for p in r.gmap]
    deg = {b"": group.index[group.identity]}
    for w in quotient.words[1:]:
        deg[w] = group.mul[deg[w[:-1]]][inv_gx[w[-1]]]
    return tuple(group.elements[deg[w]] for w in quotient.words)


def module_algebra_audit_grading(algebra, group, degrees):
    """Is the grading multiplicative, exhaustively.

    Every nonzero product of homogeneous basis elements must again be
    homogeneous, of the product degree, and the unit must sit in the
    identity component.
    """
    deg = [group.index[p] for p in degrees]
    audit = _Audit("grading")
    audit.count("grading", len(algebra.unit) + algebra.dim ** 2)
    for i in algebra.unit:
        if degrees[i] != group.identity:
            audit.fail("grading", ("unit", algebra.label(i)))
    for i, row in enumerate(algebra.table):
        deg_row = group.mul[deg[i]]
        for j, cell in enumerate(row):
            want = deg_row[deg[j]]
            for m in cell:
                if deg[m] != want:
                    audit.fail(
                        "grading",
                        (algebra.label(i), algebra.label(j), algebra.label(m)),
                    )
                    break
    return audit.laws["grading"]


def smash_with_dual(algebra, group, degrees):
    """The smash product A # (functions on G) for a G-graded A.

    Basis a_i (x) delta_g, indexed i * |G| + index(g), with product
    (a (x) delta_g)(b (x) delta_h) = [g == deg(b) h] (ab (x) delta_h).
    Raises NotModuleAlgebra when the grading is not multiplicative.
    """
    audit = module_algebra_audit_grading(algebra, group, degrees)
    if not audit["ok"]:
        raise NotModuleAlgebra(audit["witnesses"][0])
    order = len(group)
    deg_rows = [group.mul[group.index[p]] for p in degrees]
    table = []
    for a_i in algebra.table:
        for g in range(order):
            row = []
            for a_ij, deg_row in zip(a_i, deg_rows):
                row += [{m * order + h: c for m, c in a_ij.items()}
                        if deg_row[h] == g else {} for h in range(order)]
            table.append(row)
    unit = {i * order + g: c for i, c in algebra.unit.items() for g in range(order)}
    return FiniteDimAlgebra(len(table), table, unit,
                            labels=_smash_labels(algebra, group, "%s#d(%s)"))
