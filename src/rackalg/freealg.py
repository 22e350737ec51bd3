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
the basis is kept fully interreduced after every insertion, so a
completed run yields the unique reduced Groebner basis for the order.
One Aho-Corasick automaton over the leads (Aho & Corasick 1975) serves
reduction, which walks a word to its first lead, and counting and listing
the normal words, which are the walks that meet no lead.
"""

import heapq
from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm

from .braided import DegreeBudgetExceeded  # shared budget error
from .exactnum import exact, integer, rational, refuse_unread

__all__ = [
    "FreePoly",
    "GroebnerBasis",
    "ResourceBudgetExceeded",
    "DegreeBudgetExceeded",
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

_NEG = bytes(255 - i for i in range(256))


def deglex_key(word):
    return (len(word), word)


def _negkey(word):
    """Key under which a min-heap pops the deglex-LARGEST word first."""
    return (-len(word), word.translate(_NEG))


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
        return [{"word": list(w), "coeff": str(c)} for w, c in self.sorted_terms()]

    def __repr__(self):
        if not self.terms:
            return "FreePoly(0)"
        bits = []
        for w, c in self.sorted_terms():
            name = "*".join(f"g{i}" for i in w) if w else "1"
            bits.append(f"{c}*{name}")
        return "FreePoly(" + " + ".join(bits) + ")"


class ResourceBudgetExceeded(Exception):
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


def _reduce_terms(terms, basis, trans):
    """Fraction-free normal form of an integer term dict against a basis,
    a dict from lead to primitive integer terms, whose lead automaton is
    ``trans``.

    Returns (out, scale): out is the normal form of scale * terms, with
    integer coefficients.  Pops the deglex-largest live word and rewrites
    the lead occurrence that ends first, which is also the leftmost, since
    no lead contains another; every replacement word is strictly smaller,
    so each word is handled once and irreducible words are final.  When
    the reducer's lead coefficient a does not divide the coefficient c
    being cancelled, the whole word being reduced is multiplied by
    a // gcd(a, c) first.  The empty lead of a trivial quotient reduces
    every word to zero.
    """
    if b"" in basis:
        return {}, 1
    work = dict(terms)
    out = {}
    scale = 1
    heap = [(_negkey(w), w) for w in work]
    heapq.heapify(heap)
    push = heapq.heappush
    while heap:
        _, w = heapq.heappop(heap)
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
        lead = w[k:end]
        left = w[:k]
        right = w[end:]
        poly = basis[lead]
        a = poly[lead]
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
        for u, d in poly.items():
            if u == lead:
                continue
            nw = left + u + right
            acc = work.get(nw, 0) - c * d
            if acc == 0:
                work.pop(nw, None)
            else:
                if nw not in work:
                    push(heap, (_negkey(nw), nw))
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
    out, scale = _reduce_terms(ints, gb._items, gb._trans)
    return _fractions(out, den * scale)


class GroebnerBasis:
    """Monic interreduced basis plus completion status.

    Built from ``items``, which map each lead to its element as primitive
    integer terms, the form the engine reduces with.  ``_items`` keeps
    them in deglex order of the leads, ``elements`` are the same elements
    made monic, as FreePolys, and ``_trans`` is the lead automaton.
    """

    __slots__ = ("ngens", "elements", "truncated_at", "_items", "_trans")

    def __init__(self, ngens, items, truncated_at=None):
        self.ngens = ngens
        self.truncated_at = truncated_at
        self._items = {ld: items[ld] for ld in sorted(items, key=deglex_key)}
        self.elements = [
            FreePoly(ngens, _fractions(tm, tm[ld])) for ld, tm in self._items.items()
        ]
        self._trans = _lead_automaton(self._items, ngens)

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


def _s_element(u, fu, v, fv, k):
    """b * fu * v[k:] - a * u[:-k] * fv for leads u, v overlapping in k
    letters, where a and b are the lead coefficients of fu and fv, each
    divided by their gcd."""
    a = fu[u]
    b = fv[v]
    g = gcd(a, b)
    a //= g
    b //= g
    right = v[k:]
    left = u[:-k]
    s = {}
    for word, c in fu.items():
        nw = word + right
        acc = s.get(nw, 0) + b * c
        if acc == 0:
            s.pop(nw, None)
        else:
            s[nw] = acc
    for word, c in fv.items():
        nw = left + word
        acc = s.get(nw, 0) - a * c
        if acc == 0:
            s.pop(nw, None)
        else:
            s[nw] = acc
    return s


def groebner(generators, max_deg=16, max_basis=20000, ngens=None):
    """Two-sided Groebner basis of the ideal the generators span.

    Completion runs lowest-obstruction-first; the basis stays primitive
    over Z and interreduced throughout, and is made monic at the end.
    Obstructions above max_deg truncate the run (status records the
    cutoff); a basis larger than max_basis raises.
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

    # lead -> primitive integer terms.  Leads of an interreduced basis
    # never divide one another, and a retired lead stays reducible, so it
    # never comes back: a queued pair is live exactly when both of its
    # leads are still keys.
    basis = {}
    trans = _lead_automaton(basis, ngens)  # rebuilt only by insert
    pair_heap = []  # (common len, common word, u, v, k)
    pending = [_integral(g.terms)[0] for g in gens]
    truncated_at = None

    def add_pairs(u):
        for v in list(basis):
            for k in _proper_overlaps(u, v):
                w = u + v[k:]
                heapq.heappush(pair_heap, (len(w), w, u, v, k))
            if v != u:
                for k in _proper_overlaps(v, u):
                    w = v + u[k:]
                    heapq.heappush(pair_heap, (len(w), w, v, u, k))

    def insert(terms):
        nonlocal trans
        lead = _lead_word(terms)
        terms = _primitive(terms, lead)
        # retire basis elements whose lead contains the new lead
        for ld in [ld for ld in basis if lead in ld]:
            pending.append(basis.pop(ld))
        basis[lead] = terms
        trans = _lead_automaton(basis, ngens)
        if len(basis) > max_basis:
            raise ResourceBudgetExceeded(f"basis exceeded {max_basis}")
        # tail-reduce every other element against the refreshed basis;
        # assigning to a present key keeps its place in the dict
        for ld, tm in basis.items():
            if ld == lead:
                continue
            tail = {w: v for w, v in tm.items() if w != ld}
            if not any(lead in w for w in tail):
                continue
            red, scale = _reduce_terms(tail, basis, trans)
            red[ld] = scale * tm[ld]
            basis[ld] = _primitive(red, ld)
        add_pairs(lead)

    while pending or pair_heap:
        if pending:
            red, _ = _reduce_terms(pending.pop(), basis, trans)
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
        red, _ = _reduce_terms(s, basis, trans)
        if red:
            insert(red)

    return GroebnerBasis(ngens, basis, truncated_at)


def audit_obstructions(gb):
    """Post-hoc confluence audit: every overlap S-element reduces to zero."""
    items = gb._items
    for u, fu in items.items():
        for v, fv in items.items():
            for k in _proper_overlaps(u, v):
                if _reduce_terms(_s_element(u, fu, v, fv, k), items, gb._trans)[0]:
                    return False
    return True


def is_trivial_quotient(gb):
    """True iff the ideal contains a nonzero constant (quotient is 0)."""
    return b"" in gb.leads()


def _lead_automaton(leads, ngens):
    """Aho-Corasick automaton of a set of leads, no one of which contains
    another, as one row of next states per state.

    States are the proper prefixes of the leads, shortest first, so state
    0 is the empty word.  A letter goes to the longest suffix of the
    extended word that is a state, or to -m when the extended word ends in
    a lead of length m.  So each row is its failure state's row with the
    letters that extend the prefix or complete a lead written over it.
    """
    edges = defaultdict(dict)  # state -> {letter: next state, or -m}
    for ld in leads:
        if ld:
            edges[ld[:-1]][ld[-1]] = -len(ld)
    states = sorted({st[:k] for st in edges for k in range(len(st) + 1)} | {b""},
                    key=deglex_key)
    for i, st in enumerate(states[1:], 1):
        edges[st[:-1]][st[-1]] = i
    fail = [0] * len(states)
    trans = []
    for i, st in enumerate(states):
        row = list(trans[fail[i]]) if i else [0] * ngens
        for a, t in edges[st].items():
            if t > 0:
                fail[t] = row[a]
            row[a] = t
        trans.append(row)
    return trans


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


def quotient_dim(gb):
    """Dimension of the quotient algebra: int, "infinite", or "unknown"."""
    if is_trivial_quotient(gb):
        return 0
    if not gb.complete:
        return "unknown"
    # a normal word with as many letters as there are states revisits a
    # state: the walk can loop there, so the normal words never run out
    counts = _word_counts(gb._trans, len(gb._trans))
    return "infinite" if counts[-1] else sum(counts)


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
    """(names, polys) of an ideal document; a key it does not read raises
    ValueError, and an alphabet that is not a list of strings TypeError.
    ``status`` is let through, since a completed basis is written as an
    ideal document with its status."""
    refuse_unread(doc, ("alphabet", "polys", "status"))
    names = doc["alphabet"]
    if type(names) is not list or not all(type(x) is str for x in names):
        raise TypeError("alphabet must be a list of strings")
    ngens = len(names)
    if ngens > 256:
        raise ValueError("an alphabet of more than 256 letters (words are bytes)")
    polys = []
    for rec in doc["polys"]:
        terms = {}
        for t in rec:
            refuse_unread(t, ("word", "coeff"))
            w = bytes(integer(i) for i in t["word"])
            if any(i >= ngens for i in w):
                raise ValueError("word index out of alphabet range")
            c = rational(t["coeff"])
            if c != 0:
                terms[w] = terms.get(w, Fraction(0)) + c
        polys.append(FreePoly(ngens, terms))
    return names, polys
