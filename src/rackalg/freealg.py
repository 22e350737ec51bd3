"""Free associative algebra over Q with a noncommutative Groebner engine.

Words are `bytes` of generator indices; the monomial order is
degree-lexicographic, realized as the tuple key (len(word), word).
Polynomials are dicts word -> nonzero coefficient, wrapped in FreePoly at
the API boundary, where every coefficient is a Fraction.  No coefficient
is ever a float.

Inside the engine every coefficient is an `int`.  Input is cleared of
denominators once; each basis element is kept primitive over Z (content
1, positive lead coefficient); and reduction is fraction-free: where the
reducer's lead coefficient does not divide the coefficient being
cancelled, the word being reduced is scaled up instead of the reducer
being divided (Bareiss 1968, carried over to Bergman 1978).
:class:`GroebnerBasis` takes the basis in that form and makes it monic,
as Fractions, once.

The completion is Buchberger-style for two-sided ideals: the obstruction
queue holds proper overlaps of leading words (lowest common degree first),
and once the queue is done every tail is reduced in a single pass, so a
completed run yields the unique reduced Groebner basis for the order.  A
new lead's overlaps are looked up in two maps, from each proper prefix and
each proper suffix of a lead to the leads that have it; the post-hoc
confluence audit finds them by scanning every pair of leads instead.
Reduction rewrites with one record per basis element, built once: its
lead coefficient and its tail terms.  It keeps the words it has still to
read in one list per length, sorted when its turn comes, and drains the
longest length first.
One Aho-Corasick automaton over the leads (Aho & Corasick 1975) serves
reduction, which walks a word to its first lead, and counting and listing
the normal words, which are the walks that meet no lead; the quotient is
infinite exactly when those walks can loop.  The automaton only grows
(``_LeadAutomaton``): the completion adds each new lead in place,
rewriting only the rows whose failure chain reaches a changed state, and
finds the leads that contain a new lead in the same failure tree; an
insert that retires leads builds it anew from the leads that stay.
"""

import heapq
from bisect import insort
from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm

from .exactnum import (
    BudgetExceeded, exact, integer, number_text, rational, refuse_unread)

__all__ = [
    "FreePoly",
    "GroebnerBasis",
    "ResourceBudgetExceeded",
    "groebner",
    "normal_form",
    "quotient_dim",
    "hilbert_series",
    "is_trivial_quotient",
    "audit_obstructions",
    "QuotientAlgebra",
    "ideal_to_json",
    "ideal_from_json",
]

def deglex_key(word):
    return (len(word), word)


def _lead_word(terms):
    return max(terms, key=deglex_key)


class FreePoly:
    """Element of the free algebra on ngens generators."""

    __slots__ = ("ngens", "terms")

    def __init__(self, ngens, terms=None):
        self.ngens = ngens
        self.terms = {}
        if terms:
            for w, c in terms.items():
                if type(c) is not Fraction:
                    c = exact(c)
                if c != 0:
                    self.terms[bytes(w)] = c

    @classmethod
    def one(cls, ngens, coeff=1):
        return cls(ngens, {b"": coeff})

    @classmethod
    def gen(cls, ngens, i):
        assert 0 <= i < ngens
        return cls(ngens, {bytes([i]): Fraction(1)})

    @classmethod
    def word(cls, ngens, indices, coeff=1):
        return cls(ngens, {bytes(indices): coeff})

    def is_zero(self):
        return not self.terms

    def lead(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        w = _lead_word(self.terms)
        return w, self.terms[w]

    def degree(self):
        if not self.terms:
            return -1
        return max(len(w) for w in self.terms)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            acc = out.get(w, Fraction(0)) + c
            if acc == 0:
                out.pop(w, None)
            else:
                out[w] = acc
        return FreePoly(self.ngens, out)

    def __neg__(self):
        return FreePoly(self.ngens, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return FreePoly(self.ngens)
            return FreePoly(
                self.ngens, {w: c * other for w, c in self.terms.items()}
            )
        other = self._coerce(other)
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                acc = out.get(w, Fraction(0)) + c1 * c2
                if acc == 0:
                    out.pop(w, None)
                else:
                    out[w] = acc
        return FreePoly(self.ngens, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def _coerce(self, other):
        if isinstance(other, FreePoly):
            if other.ngens != self.ngens:
                raise ValueError("mixed alphabets")
            return other
        if isinstance(other, (int, Fraction)):
            return FreePoly.one(self.ngens, other)
        raise TypeError(f"cannot combine FreePoly with {type(other)!r}")

    def __eq__(self, other):
        return (
            isinstance(other, FreePoly)
            and self.ngens == other.ngens
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ngens, frozenset(self.terms.items())))

    def sorted_terms(self):
        """Terms in descending deglex order (canonical for printing)."""
        return sorted(
            self.terms.items(), key=lambda t: deglex_key(t[0]), reverse=True
        )

    def to_json(self):
        """The term list a document holds for this polynomial."""
        return [{"word": list(w), "coeff": number_text(c)}
                for w, c in self.sorted_terms()]

    def __repr__(self):
        if not self.terms:
            return "FreePoly(0)"
        bits = []
        for w, c in self.sorted_terms():
            name = "*".join(f"g{i}" for i in w) if w else "1"
            bits.append(f"{c}*{name}")
        return "FreePoly(" + " + ".join(bits) + ")"


class ResourceBudgetExceeded(BudgetExceeded):
    """Basis grew past the configured size budget."""


def _integral(terms):
    """(int terms, den): the terms times den, the lcm of their
    denominators."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {w: c.numerator * (den // c.denominator) for w, c in terms.items()}, den


def _primitive(terms, lead):
    """Integer terms divided by their content, signed so the coefficient
    of lead is positive."""
    g = gcd(*terms.values())
    if terms[lead] < 0:
        g = -g
    if g == 1:
        return terms
    return {w: c // g for w, c in terms.items()}


def _record(lead, terms):
    """(a, tail) for the basis element ``terms`` with lead ``lead``: the
    lead coefficient a and the tail items (u, d, len(u) - len(lead)), the
    form the reduction rewrites with."""
    m = len(lead)
    return terms[lead], tuple(
        (u, d, len(u) - m) for u, d in terms.items() if u != lead)


def _reduce_terms(terms, records, trans):
    """Fraction-free normal form of an integer term dict against a basis,
    given as a dict from lead to record (see ``_record``), whose lead
    automaton is ``trans``.

    Returns (out, scale): out is the normal form of scale * terms, with
    integer coefficients.  Pops the deglex-largest live word and rewrites
    the lead occurrence that ends first, which is also the leftmost, since
    no lead contains another; every replacement word is strictly smaller,
    so each word is handled once and irreducible words are final.  The
    words wait in one plain list per length, and the longest length is
    drained first: a replacement word is never longer than the word it
    replaces.  A length's list is sorted once, when the drain reaches it,
    and then gives up its largest word with ``pop``; a replacement word of
    the length being drained is put in its place with ``insort``, a shorter
    one appended to its length's list.  A word whose coefficient cancels is
    dropped from ``work``, and its entry is skipped when popped.  When the
    reducer's lead coefficient a does not divide the coefficient c being
    cancelled, the whole word being reduced is multiplied by a // gcd(a, c)
    first.  The empty lead of a trivial quotient reduces every word to
    zero.
    """
    if b"" in records:
        return {}, 1
    work = dict(terms)
    out = {}
    scale = 1
    lists = [[] for _ in range(max(map(len, work), default=0) + 1)]
    for w in work:
        lists[len(w)].append(w)
    for n in range(len(lists) - 1, -1, -1):
        words = lists[n]
        words.sort()
        while words:
            w = words.pop()
            c = work.pop(w, 0)
            if not c:
                continue
            state = 0
            for end, letter in enumerate(w, 1):
                state = trans[state][letter]
                if state < 0:
                    break
            else:
                out[w] = c
                continue
            k = end + state  # a lead of length m ends at -m
            left = w[:k]
            right = w[end:]
            a, tail = records[w[k:end]]
            if a != 1:
                g = gcd(a, c)
                m = a // g
                if m != 1:
                    scale *= m
                    for u in work:
                        work[u] *= m
                    for u in out:
                        out[u] *= m
                c //= g
            for u, d, dlen in tail:
                nw = left + u + right
                acc = work.get(nw, 0) - c * d
                if acc == 0:
                    work.pop(nw, None)
                else:
                    if nw not in work:
                        if dlen:
                            lists[n + dlen].append(nw)
                        else:
                            insort(words, nw)
                    work[nw] = acc
    return out, scale


def _fractions(terms, den):
    """Integer terms divided by den, as Fractions."""
    return {w: Fraction(c, den) for w, c in terms.items()}


def _reduce_fractions(terms, gb):
    """Normal form of a term dict with rational coefficients against a
    GroebnerBasis: cleared of denominators once, reduced, and divided by
    den * scale once."""
    ints, den = _integral(terms)
    out, scale = _reduce_terms(ints, gb._records, gb._trans)
    return _fractions(out, den * scale)


class GroebnerBasis:
    """Monic interreduced basis plus completion status.

    Built from ``items``, which map each lead to its element as primitive
    integer terms, the form the engine completes with.  ``_items`` keeps
    them in deglex order of the leads, ``elements`` are the same elements
    made monic, as FreePolys, ``_records`` their reduction records (see
    ``_record``) and ``_trans`` is the lead automaton.
    """

    __slots__ = ("ngens", "elements", "truncated_at", "_items", "_records",
                 "_trans")

    def __init__(self, ngens, items, truncated_at=None):
        self.ngens = ngens
        self.truncated_at = truncated_at
        self._items = {ld: items[ld] for ld in sorted(items, key=deglex_key)}
        self.elements = [
            FreePoly(ngens, _fractions(tm, tm[ld])) for ld, tm in self._items.items()
        ]
        self._records = {ld: _record(ld, tm) for ld, tm in self._items.items()}
        self._trans = _LeadAutomaton(ngens, self._items).trans

    @property
    def complete(self):
        return self.truncated_at is None

    @property
    def status(self):
        if self.complete:
            return "complete"
        return f"truncated-at-degree-{self.truncated_at}"

    def leads(self):
        return self._items.keys()


def normal_form(poly, gb):
    """Remainder of poly modulo the basis: no leading word divides any term."""
    if poly.ngens != gb.ngens:
        raise ValueError("mixed alphabets")
    return FreePoly(poly.ngens, _reduce_fractions(poly.terms, gb))


def _proper_overlaps(u, v):
    """Lengths k with a proper suffix of u of length k = prefix of v."""
    out = []
    top = min(len(u), len(v))
    for k in range(1, top):
        if u[-k:] == v[:k]:
            out.append(k)
    return out


def _s_element(u, ru, v, rv, k):
    """b * fu * v[k:] - a * u[:-k] * fv for leads u, v overlapping in k
    letters, from their records ru and rv, where a and b are the lead
    coefficients of fu and fv, each divided by their gcd.  The two lead
    words are the same word and cancel, so only the tails are formed."""
    a, tail_u = ru
    b, tail_v = rv
    g = gcd(a, b)
    a //= g
    b //= g
    right = v[k:]
    left = u[:-k]
    s = {word + right: b * c for word, c, _ in tail_u}
    for word, c, _ in tail_v:
        nw = left + word
        acc = s.get(nw, 0) - a * c
        if acc == 0:
            s.pop(nw, None)
        else:
            s[nw] = acc
    return s


class _Overlaps:
    """The leads by their proper prefixes and by their proper suffixes, so
    that the overlaps of a new lead are looked up, not searched for among
    every lead: v starts with the suffix u[-k:] of u exactly when u and v
    overlap in k letters."""

    __slots__ = ("by_prefix", "by_suffix")

    def __init__(self):
        self.by_prefix = defaultdict(set)  # proper prefix -> leads
        self.by_suffix = defaultdict(set)  # proper suffix -> leads

    def add(self, lead):
        for k in range(1, len(lead)):
            self.by_prefix[lead[:k]].add(lead)
            self.by_suffix[lead[-k:]].add(lead)

    def remove(self, lead):
        for k in range(1, len(lead)):
            self.by_prefix[lead[:k]].remove(lead)
            self.by_suffix[lead[-k:]].remove(lead)

    def of(self, u):
        """The overlaps of the added lead u with every added lead, u
        itself included: each (x, y, k), with u as x or as y, where a
        proper suffix of x of length k is a proper prefix of y.  These
        are the pairs that ``_proper_overlaps`` finds, each once."""
        for k in range(1, len(u)):
            for v in self.by_prefix.get(u[-k:], ()):
                yield u, v, k
            for v in self.by_suffix.get(u[:k], ()):
                if v != u:
                    yield v, u, k


def groebner(generators, max_deg=16, max_basis=20000, ngens=None):
    """Two-sided Groebner basis of the ideal the generators span.

    Completion runs lowest-obstruction-first and keeps the basis
    primitive over Z; the tails are interreduced once, after the loop,
    and the basis is made monic at the end.  Each insert retires the
    elements whose lead contains the new lead, read off the lead
    automaton; it adds the new lead to the automaton in place, or builds
    the automaton anew when it retired any.  Obstructions above
    max_deg truncate the run (status records the cutoff); a basis larger
    than max_basis raises.  A complete run, and a homogeneous run truncated at
    degree d, return the unique reduced basis (through degree d); the
    basis of a truncated inhomogeneous run depends on the order in which
    the elements were found.
    ``ngens`` is the alphabet size; it defaults to the generators' own
    and must be given when the list is empty, since the quotient of the
    free algebra on ngens letters by the zero ideal depends on it.
    """
    if ngens is None:
        if not generators:
            raise ValueError("an empty generator list needs the alphabet size")
        ngens = generators[0].ngens
    gens = [g for g in generators if not g.is_zero()]
    for g in gens:
        if g.ngens != ngens:
            raise ValueError("mixed alphabets")
    if not gens:
        return GroebnerBasis(ngens, {})

    # lead -> record (see _record).  An element whose lead contains a new
    # lead is retired, so no lead divides another, and a retired lead
    # stays reducible, so it never comes back: a queued pair is live
    # exactly when both of its leads are still keys.
    basis = {}
    rank = {}  # lead -> the number of leads inserted before it
    overlaps = _Overlaps()  # of the leads of basis
    automaton = _LeadAutomaton(ngens)  # of the leads of basis
    pair_heap = []  # (common len, common word, u, v, k)
    pending = [_integral(g.terms)[0] for g in gens]
    truncated_at = None

    def insert(terms):
        nonlocal automaton
        lead = _lead_word(terms)
        terms = _primitive(terms, lead)
        # retire basis elements whose lead contains the new lead, in the
        # order they were inserted
        retired = automaton.containing(lead)
        for ld in sorted(retired, key=rank.__getitem__):
            a, tail = basis.pop(ld)
            overlaps.remove(ld)
            pending.append({ld: a, **{u: d for u, d, _ in tail}})
        basis[lead] = _record(lead, terms)
        rank[lead] = len(rank)
        overlaps.add(lead)
        if retired:
            automaton = _LeadAutomaton(ngens, basis)
        else:
            automaton.add(lead)
            automaton.settle()
        if len(basis) > max_basis:
            raise ResourceBudgetExceeded(f"basis exceeded {max_basis}")
        for u, v, k in overlaps.of(lead):
            w = u + v[k:]
            heapq.heappush(pair_heap, (len(w), w, u, v, k))

    while pending or pair_heap:
        if pending:
            red, _ = _reduce_terms(pending.pop(), basis, automaton.trans)
            if red:
                insert(red)
            continue
        deg, _, u, v, k = heapq.heappop(pair_heap)
        if u not in basis or v not in basis:
            continue
        if deg > max_deg:
            truncated_at = max_deg
            break
        s = _s_element(u, basis[u], v, basis[v], k)
        red, _ = _reduce_terms(s, basis, automaton.trans)
        if red:
            insert(red)

    # the leads are final, so one pass leaves every tail in normal form;
    # each reduced element replaces its record at once, so the tails after
    # it are reduced with it
    items = {}
    for ld, (a, tail) in basis.items():
        red, scale = _reduce_terms(
            {u: d for u, d, _ in tail}, basis, automaton.trans)
        items[ld] = _primitive({ld: scale * a, **red}, ld)
        basis[ld] = _record(ld, items[ld])
    return GroebnerBasis(ngens, items, truncated_at)


def audit_obstructions(gb):
    """Post-hoc confluence audit: every overlap S-element reduces to zero.
    It finds the overlaps by the scan over every pair of leads on purpose,
    not by the lookup that the completion uses, so the two stay
    independent routes."""
    records = gb._records
    for u, ru in records.items():
        for v, rv in records.items():
            for k in _proper_overlaps(u, v):
                if _reduce_terms(_s_element(u, ru, v, rv, k), records, gb._trans)[0]:
                    return False
    return True


def is_trivial_quotient(gb):
    """True iff the ideal contains a nonzero constant (quotient is 0)."""
    return b"" in gb.leads()


def _ac_row(trans, fail, s, own, ngens):
    """The Aho-Corasick row of state s: its failure state's row, all zeros
    for the root, with its own edges ``own`` (letter -> next state, or -m
    for a lead of length m) written over it.  A child that an own edge
    reaches gets as failure state the entry that its edge writes over."""
    row = list(trans[fail[s]]) if s else [0] * ngens
    for a, t in own.items():
        if t > 0:
            fail[t] = row[a]
        row[a] = t
    return row


class _LeadAutomaton:
    """The Aho-Corasick automaton of a growing set of leads, no one of
    which contains another, as one row of next states per state in
    ``trans``.

    States are the proper prefixes of the leads, numbered in the order
    they are made, so state 0 is the empty word.  A letter goes to the
    longest suffix of the extended word that is a state, or to -m when the
    extended word ends in a lead of length m.  So each row is its failure
    state's row with the letters that extend the prefix or complete a lead
    written over it (``_ac_row``).  Each state also keeps its word, its
    own edges, its failure state and its failure children, the states
    whose failure state it is.  ``add`` marks the states whose own edges
    changed and the new states; ``settle`` then rewrites the marked rows,
    shortest state first, so each row comes after its failure row; a row
    that changed marks its failure children, and a child whose failure
    state changed is marked and moved.  So only the states whose failure
    chain reaches a changed state are rewritten.  A set of leads that
    loses a lead is built anew.  The empty lead has no state and is left
    out.
    """

    __slots__ = ("ngens", "trans", "fail", "kids", "own", "word", "todo")

    def __init__(self, ngens, leads=()):
        self.ngens = ngens
        self.trans = [[0] * ngens]
        self.fail = [0]
        self.kids = [set()]  # failure children
        self.own = [{}]  # letter -> next state, or -m for a lead of length m
        self.word = [b""]
        self.todo = defaultdict(set)  # length -> states to rewrite
        for ld in leads:
            self.add(ld)
        self.settle()

    def _new_state(self, w):
        s = len(self.word)
        self.trans.append(None)
        self.fail.append(0)
        self.kids[0].add(s)
        self.kids.append(set())
        self.own.append({})
        self.word.append(w)
        self.todo[len(w)].add(s)
        return s

    def add(self, lead):
        """Add a lead that contains no lead and is contained in none."""
        if not lead:
            return
        s = 0
        for k in range(1, len(lead)):
            t = self.own[s].get(lead[k - 1])
            if t is None:
                t = self.own[s][lead[k - 1]] = self._new_state(lead[:k])
                self.todo[k - 1].add(s)
            s = t
        self.own[s][lead[-1]] = -len(lead)
        self.todo[len(lead) - 1].add(s)

    def settle(self):
        """Rewrite the marked rows and the rows that change with them."""
        trans, fail, kids, own, word = (
            self.trans, self.fail, self.kids, self.own, self.word)
        todo = self.todo
        while todo:
            for s in todo.pop(min(todo)):
                children = [(t, fail[t]) for t in own[s].values() if t > 0]
                row = _ac_row(trans, fail, s, own[s], self.ngens)
                if row != trans[s]:
                    trans[s] = row
                    for x in kids[s]:
                        todo[len(word[x])].add(x)
                for t, before in children:
                    if fail[t] != before:
                        kids[before].discard(t)
                        kids[fail[t]].add(t)
                        todo[len(word[t])].add(t)

    def _leads_through(self, s, a):
        """The leads that start with the word of state s and then letter a."""
        out = []
        stack = [(s, a)]
        while stack:
            s, a = stack.pop()
            t = self.own[s][a]
            if t < 0:
                out.append(self.word[s] + bytes([a]))
            else:
                stack.extend((t, b) for b in self.own[t])
        return out

    def containing(self, lead):
        """The set of leads that contain ``lead``, a word that contains no
        lead, on a settled automaton.  With lead = q + a, they are the
        leads through letter a after a state whose word ends with q.  The
        failure chain of such a state passes through r, the state that
        reading q ends in, the longest suffix of q that is a state; so
        those states are r's failure subtree when r is q, and otherwise the
        failure subtrees of r's failure children whose words end with q."""
        if not lead:
            return {ld for a in self.own[0] for ld in self._leads_through(0, a)}
        q, a = lead[:-1], lead[-1]
        r = 0
        for letter in q:
            r = self.trans[r][letter]
        stack = [r] if self.word[r] == q else [
            s for s in self.kids[r] if self.word[s].endswith(q)]
        found = set()
        while stack:
            s = stack.pop()
            if a in self.own[s]:
                found.update(self._leads_through(s, a))
            stack.extend(self.kids[s])
        return found


def _word_counts(trans, up_to):
    """Number of words the automaton accepts in each degree 0..up_to.

    Pushes the per-state word counts one letter further per degree and
    stops at the first degree with no words, since all later ones are
    empty too.
    """
    counts = [1]
    vec = [0] * len(trans)
    vec[0] = 1
    while len(counts) <= up_to and counts[-1]:
        nxt = [0] * len(trans)
        for s, alive in enumerate(vec):
            if alive:
                for t in trans[s]:
                    if t >= 0:
                        nxt[t] += alive
        vec = nxt
        counts.append(sum(vec))
    return counts + [0] * (up_to + 1 - len(counts))


def _has_cycle(trans):
    """True when the walks of the automaton from state 0 that meet no lead
    can return to a state they left: an iterative depth-first search over
    the non-negative transitions."""
    colour = [0] * len(trans)  # 0 unseen, 1 on the path, 2 done
    colour[0] = 1
    path = [(0, iter(trans[0]))]
    while path:
        s, nexts = path[-1]
        for t in nexts:
            if t < 0 or colour[t] == 2:
                continue
            if colour[t] == 1:
                return True
            colour[t] = 1
            path.append((t, iter(trans[t])))
            break
        else:
            colour[s] = 2
            path.pop()
    return False


def quotient_dim(gb):
    """Dimension of the quotient algebra: int, "infinite", or "unknown"."""
    if is_trivial_quotient(gb):
        return 0
    if not gb.complete:
        return "unknown"
    # every state is a proper prefix of a lead, so it is reached by a
    # normal word and accepts: the normal words run out exactly when no
    # walk can loop, and then none is as long as the automaton has states
    if _has_cycle(gb._trans):
        return "infinite"
    return sum(_word_counts(gb._trans, len(gb._trans)))


def hilbert_series(gb, up_to):
    """Number of normal words in each degree 0..up_to."""
    if is_trivial_quotient(gb):
        return [0] * (up_to + 1)
    return _word_counts(gb._trans, up_to)


class QuotientAlgebra:
    """Finite-dimensional quotient by a completed basis, with a listed
    monomial basis of normal words and structure-constant products."""

    def __init__(self, gb):
        if not gb.complete:
            raise ValueError("need a complete basis")
        d = quotient_dim(gb)
        if not isinstance(d, int):
            raise ValueError("quotient is not finite dimensional")
        self.gb = gb
        # the empty lead of a trivial quotient leaves no normal word
        self.words = self._normal_words() if d else []
        assert len(self.words) == d
        self.index = {w: i for i, w in enumerate(self.words)}

    def _normal_words(self):
        """Normal words in deglex order, one degree at a time: extending a
        lex-sorted degree letter by letter keeps the next one sorted."""
        trans = self.gb._trans
        letters = [bytes([a]) for a in range(self.gb.ngens)]
        level = [(0, b"")]
        words = [b""]
        while level:
            level = [
                (t, w + letters[a])
                for s, w in level
                for a, t in enumerate(trans[s])
                if t >= 0
            ]
            words.extend(w for _, w in level)
        return words

    def nf_terms(self, terms):
        return _reduce_fractions(terms, self.gb)

    def mul_words(self, u, v):
        """Product of two normal words, as a dict word -> coefficient."""
        return self.nf_terms({u + v: 1})


def ideal_to_json(names, polys, status=None):
    doc = {
        "alphabet": list(names),
        "polys": [p.to_json() for p in polys],
    }
    if status is not None:
        doc["status"] = status
    return doc


def ideal_from_json(doc):
    """(names, polys) of an ideal document; a key it does not read or a
    letter named twice raises ValueError, and an alphabet that is not a
    list of strings TypeError.
    ``status`` is let through, since a completed basis is written as an
    ideal document with its status."""
    refuse_unread(doc, ("alphabet", "polys", "status"))
    names = doc["alphabet"]
    if type(names) is not list or not all(type(x) is str for x in names):
        raise TypeError("alphabet must be a list of strings")
    ngens = len(names)
    if len(set(names)) != ngens:
        raise ValueError("a letter of the alphabet is named twice")
    if ngens > 256:
        raise ValueError("an alphabet of more than 256 letters (words are bytes)")
    polys = []
    for rec in doc["polys"]:
        terms = {}
        for t in rec:
            refuse_unread(t, ("word", "coeff"))
            word = [integer(i) for i in t["word"]]
            for i in word:
                if not 0 <= i < ngens:
                    raise ValueError(
                        f"word index {i} is outside the alphabet of {ngens} letters")
            w = bytes(word)
            c = rational(t["coeff"])
            if c != 0:
                terms[w] = terms.get(w, Fraction(0)) + c
        polys.append(FreePoly(ngens, terms))
    return names, polys
