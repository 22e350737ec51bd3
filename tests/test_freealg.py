import functools
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rackalg.catalog import builtin_cocycle, builtin_rack, transposition_rack
from rackalg.cocycle import constant_cocycle
from rackalg.deform import DeformParams, build_deformed_ideal, sample_params
from rackalg.exactnum import BadNumber
from rackalg.freealg import (
    FreePoly,
    QuotientAlgebra,
    _word_counts,
    audit_obstructions,
    groebner,
    hilbert_series,
    ideal_from_json,
    ideal_to_json,
    is_trivial_quotient,
    normal_form,
    quotient_dim,
)
from rackalg.grouprealize import builtin_realization
from rackalg.perm import compose
from rackalg.quadrel import quadratic_ideal

F = Fraction


def fk3_ideal(flavor="V"):
    rack, _ = builtin_rack("o23")
    q = builtin_cocycle("o23", "const:-1")
    return quadratic_ideal(rack, q, flavor)


def test_poly_arithmetic():
    x = FreePoly.gen(2, 0)
    y = FreePoly.gen(2, 1)
    p = (x + y) * (x - y)
    assert p.terms == {
        b"\x00\x00": F(1),
        b"\x00\x01": F(-1),
        b"\x01\x00": F(1),
        b"\x01\x01": F(-1),
    }
    assert (p - p).is_zero()
    assert (2 * x).terms == {b"\x00": F(2)}
    assert p.degree() == 2


def test_poly_lead_is_deglex():
    p = FreePoly.word(3, [2], 5) + FreePoly.word(3, [0, 1], 1)
    w, c = p.lead()
    assert w == bytes([0, 1]) and c == 1
    q = FreePoly.word(3, [0, 2]) + FreePoly.word(3, [0, 1])
    assert q.lead()[0] == bytes([0, 2])


def test_poly_sorted_terms():
    p = FreePoly.word(2, [1, 0], 4) + FreePoly.word(2, [0], 2)
    words = [w for w, _ in p.sorted_terms()]
    assert words == sorted(words, key=lambda w: (len(w), w), reverse=True)


def test_commutative_pair_has_monomial_basis():
    # x y - y x: the quotient is the commutative polynomial ring
    x = FreePoly.gen(2, 0)
    y = FreePoly.gen(2, 1)
    gb = groebner([x * y - y * x], max_deg=6)
    assert gb.complete
    assert quotient_dim(gb) == "infinite"
    assert hilbert_series(gb, 4) == [1, 2, 3, 4, 5]


def test_truncated_polynomial_ring():
    x = FreePoly.gen(1, 0)
    gb = groebner([x * x])
    assert quotient_dim(gb) == 2
    assert hilbert_series(gb, 3) == [1, 1, 0, 0]


def test_trivial_quotient_detection():
    one = FreePoly.one(2)
    gb = groebner([one])
    assert is_trivial_quotient(gb)
    assert quotient_dim(gb) == 0
    assert QuotientAlgebra(gb).words == []


def test_empty_generator_list_needs_the_alphabet():
    with pytest.raises(ValueError):
        groebner([])
    gb = groebner([], ngens=6)
    assert gb.ngens == 6
    assert quotient_dim(gb) == "infinite"
    assert hilbert_series(gb, 2) == [1, 6, 36]
    # zero polynomials carry their alphabet
    assert quotient_dim(groebner([FreePoly(2, {})])) == "infinite"


def test_fk3_dimension_and_hilbert():
    gb = groebner(fk3_ideal())
    assert gb.complete
    assert gb.status == "complete"
    assert quotient_dim(gb) == 12
    assert hilbert_series(gb, 8) == [1, 3, 4, 3, 1, 0, 0, 0, 0]
    assert audit_obstructions(gb)


def test_fk3_both_flavors_agree():
    for flavor in ("V", "W"):
        gb = groebner(fk3_ideal(flavor))
        assert quotient_dim(gb) == 12


def test_normal_form_properties():
    gb = groebner(fk3_ideal())
    rng = random.Random(11)
    for _ in range(25):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            w = bytes(rng.randrange(3) for _ in range(rng.randint(0, 4)))
            terms[w] = F(rng.randint(-3, 3))
        p = FreePoly(3, terms)
        nf = normal_form(p, gb)
        # idempotence and lead-reducedness
        assert normal_form(nf, gb) == nf
        leads = gb.leads()
        for w in nf.terms:
            assert not any(
                w[i : i + len(l)] == l
                for l in leads
                for i in range(len(w) - len(l) + 1)
            )
    for g in gb.elements:
        assert normal_form(g, gb).is_zero()


def basis_json(gb):
    return [g.to_json() for g in gb.elements]


def test_quotient_dim_stable_under_generator_shuffles():
    # a completed run gives the unique reduced basis, whatever the
    # presentation of the ideal
    base = fk3_ideal()
    reference = basis_json(groebner(base))
    rng = random.Random(3)
    for _ in range(10):
        gens = list(base)
        rng.shuffle(gens)
        scaled = [F(rng.randint(1, 5)) * g for g in gens]
        gb = groebner(scaled)
        assert quotient_dim(gb) == 12
        assert basis_json(gb) == reference


def test_s5_reduced_basis_is_pinned_across_presentations():
    # the S5 transposition ideal is homogeneous, so its basis truncated at
    # degree 6 is unique too; the hash was recorded with the find-based
    # lead search and Fraction-only coefficients
    rack, _ = transposition_rack(5)
    ideal = quadratic_ideal(rack, constant_cocycle(rack, F(-1)), "V")
    rng = random.Random(5)
    bases = []
    for _ in range(2):
        gens = list(ideal)
        rng.shuffle(gens)
        gens = [g * F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
                for g in gens]
        gb = groebner(gens, max_deg=6)
        assert gb.status == "truncated-at-degree-6"
        assert hilbert_series(gb, 6) == [1, 10, 55, 220, 711, 1960, 4761]
        bases.append(basis_json(gb))
    assert bases[0] == bases[1]
    assert len(bases[0]) == 114
    digest = hashlib.sha256(json.dumps(bases[0]).encode()).hexdigest()
    assert digest == (
        "3251fefc17180cf959762937636a44c9150ff90a460abd3649621c6260d50b08"
    )


def test_degree_budget_reports_truncation():
    # the free algebra on two letters with a single cubic relation keeps
    # producing obstructions past any finite degree bound we set this low
    x = FreePoly.gen(2, 0)
    y = FreePoly.gen(2, 1)
    gb = groebner([x * y * x - y * y * y], max_deg=4)
    assert not gb.complete
    assert gb.status == "truncated-at-degree-4"
    assert len(gb.elements) == 2
    assert quotient_dim(gb) == "unknown"


def test_float_coefficients_are_refused():
    with pytest.raises(TypeError):
        FreePoly(2, {b"\x00": 0.1})
    with pytest.raises(TypeError):
        FreePoly.one(2, 0.5)
    with pytest.raises(TypeError):
        FreePoly.word(2, [0, 1], 2.0)


def assert_fraction_coefficients(polys):
    for p in polys:
        assert all(type(c) is F for c in p.terms.values())


def test_monic_scaling_is_exact():
    x = FreePoly.gen(2, 0)
    y = FreePoly.gen(2, 1)
    gb = groebner([3 * x * y - 2 * y * x])
    assert gb.complete
    assert gb.elements == [y * x - F(3, 2) * x * y]
    nf = normal_form(y * x * x, gb)
    assert nf == F(9, 4) * x * x * y
    assert_fraction_coefficients(gb.elements + [nf])


def test_integral_leads_other_than_one_are_made_monic():
    x = FreePoly.gen(2, 0)
    y = FreePoly.gen(2, 1)
    f = y * x - 2 * x * y
    g = y * y - x * x
    # the overlap yyx of the two leads reduces to 3*xxx
    s = g * x - y * f
    assert normal_form(s, groebner([f, g], max_deg=2)) == 3 * x * x * x
    gb = groebner([f, g])
    assert gb.complete
    assert gb.elements == [f, g, x * x * x, x * x * y]
    assert audit_obstructions(gb)
    assert quotient_dim(gb) == 5
    nf = normal_form(y * x + y, gb)
    assert nf == 2 * x * y + y
    assert_fraction_coefficients(gb.elements + [nf])


def test_interreduction_scales_the_kept_lead():
    x = FreePoly.gen(2, 0)
    y = FreePoly.gen(2, 1)
    f = 2 * x * y - x * x
    g = y * y - x * y
    # g goes in first; then f's lead xy, with coefficient 2, rewrites the
    # -xy of g's tail, so the tail comes back scaled by 2 and so must g's
    # lead: yy - xy = yy - xx/2
    gb = groebner([f, g])
    half = F(1, 2)
    assert gb.elements == [
        x * y - half * x * x, y * y - half * x * x, x * x * x, y * x * x
    ]
    assert groebner([g, f]).elements == gb.elements
    assert audit_obstructions(gb)
    assert_fraction_coefficients(gb.elements)


def test_empty_lead_reduces_every_word():
    gb = groebner([FreePoly.one(2)])
    assert normal_form(FreePoly.one(2, 5), gb).is_zero()
    assert normal_form(FreePoly.word(2, [0, 1, 1], 3), gb).is_zero()


def test_quotient_algebra_words_and_products():
    gb = groebner(fk3_ideal())
    quo = QuotientAlgebra(gb)
    assert len(quo.words) == 12
    assert quo.words[0] == b""
    assert quo.words == sorted(quo.words, key=lambda w: (len(w), w))
    # multiply two degree-2 basis words and land back in the basis span
    prod = quo.mul_words(quo.words[4], quo.words[5])
    for w, c in prod.items():
        assert w in quo.index
        assert c != 0
    # x_i * x_i = 0 in the quotient
    assert quo.mul_words(bytes([1]), bytes([1])) == {}


def test_ideal_json_round_trip():
    polys = fk3_ideal()
    names = ["a", "b", "c"]
    doc = ideal_to_json(names, polys, status="complete")
    back_names, back_polys = ideal_from_json(doc)
    assert back_names == names
    assert back_polys == polys


@pytest.mark.parametrize("word, coeff", [
    ([0, 1.9], "1"),
    ([True, "0"], "1"),
    ([0, 1], 0.1),
    ([0, 1], "1e10000000"),
    ([0, 1], False),
])
def test_ideal_json_takes_integer_words_and_exact_coefficients(word, coeff):
    good = {"alphabet": ["a", "b"], "polys": [[{"word": [0, 1], "coeff": "0.1"}]]}
    _, (poly,) = ideal_from_json(good)
    assert poly.terms == {bytes([0, 1]): F(1, 10)}
    bad = {"alphabet": ["a", "b"], "polys": [[{"word": word, "coeff": coeff}]]}
    with pytest.raises(BadNumber):
        ideal_from_json(bad)


words3 = st.lists(
    st.integers(min_value=0, max_value=2), min_size=0, max_size=4
).map(bytes)


@st.composite
def polys3(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    terms = {}
    for _ in range(n):
        w = draw(words3)
        c = draw(st.integers(min_value=-4, max_value=4))
        if c:
            terms[w] = terms.get(w, F(0)) + F(c)
    return FreePoly(3, {w: c for w, c in terms.items() if c})


@settings(max_examples=40, deadline=None)
@given(polys3(), polys3())
def test_normal_form_is_linear(p, q):
    gb = groebner(fk3_ideal())
    assert normal_form(p + q, gb) == normal_form(p, gb) + normal_form(q, gb)


@settings(max_examples=30, deadline=None)
@given(polys3())
def test_normal_form_fixes_residue(p):
    gb = groebner(fk3_ideal())
    nf = normal_form(p, gb)
    assert normal_form(nf, gb) == nf


@st.composite
def monomial_ideals(draw):
    ngens = draw(st.integers(min_value=2, max_value=3))
    word = st.lists(
        st.integers(min_value=0, max_value=ngens - 1), min_size=1, max_size=3
    ).map(bytes)
    return ngens, draw(st.lists(word, max_size=4, unique=True))


def avoiding_words(ngens, leads, length):
    words = (bytes(w) for w in itertools.product(range(ngens), repeat=length))
    return [w for w in words if not any(lead in w for lead in leads)]


@settings(max_examples=60, deadline=None)
@given(monomial_ideals())
# leads b, aa: the longest normal word "a" has one letter fewer than the
# automaton (states "" and "a") has states
@example((2, [bytes([1]), bytes([0, 0])]))
def test_counting_walk_matches_brute_force(ideal):
    ngens, leads = ideal
    gb = groebner([FreePoly.word(ngens, w) for w in leads], ngens=ngens)
    # the automaton has at most 1 + 4 * 2 states, so a finite quotient has
    # no normal word longer than 8 letters
    top = 9
    by_degree = [avoiding_words(ngens, leads, d) for d in range(top + 1)]
    assert hilbert_series(gb, top) == [len(ws) for ws in by_degree]
    if by_degree[top]:
        assert quotient_dim(gb) == "infinite"
    else:
        words = [w for ws in by_degree for w in ws]
        assert quotient_dim(gb) == len(words)
        assert QuotientAlgebra(gb).words == words


# ---------------------------------------------------------------------------
# the fraction-free engine against an independent Fraction reducer


def reference_normal_form(terms, elements):
    """Normal form over Q against a monic basis: rewrite the leftmost lead
    occurrence in the deglex-largest reducible word until none is left.
    On a complete basis any rewriting order gives the same answer."""
    rules = {g.lead()[0]: g.terms for g in elements}
    p = {w: F(c) for w, c in terms.items() if c}
    while True:
        reducible = [w for w in p if any(ld in w for ld in rules)]
        if not reducible:
            return p
        w = max(reducible, key=lambda w: (len(w), w))
        k, lead = min((w.find(ld), ld) for ld in rules if ld in w)
        c = p.pop(w)
        for u, d in rules[lead].items():
            if u == lead:
                continue
            nw = w[:k] + u + w[k + len(lead):]
            acc = p.get(nw, 0) - c * d
            if acc:
                p[nw] = acc
            else:
                p.pop(nw, None)


def deformed_eminus4():
    # the first sampled point: 25 of its 28 primitive elements have a
    # lead coefficient other than 1
    template = DeformParams.eminus(4, 1, 1, 1)
    return build_deformed_ideal(sample_params(template, 3, 11)[0])


def o24_chi_ideal():
    rack, _ = builtin_rack("o24")
    return quadratic_ideal(rack, builtin_cocycle("o24", "chi"), "V")


REFERENCE_IDEALS = {
    "fk3": fk3_ideal,
    "o24-chi-V": o24_chi_ideal,
    "Eminus-4-deformed": deformed_eminus4,
}


@functools.lru_cache(maxsize=None)
def reference_basis(name):
    gb = groebner(REFERENCE_IDEALS[name]())
    assert gb.complete
    return gb


@st.composite
def rational_polys(draw, ngens):
    word = st.lists(
        st.integers(min_value=0, max_value=ngens - 1), max_size=5
    ).map(bytes)
    coeff = st.builds(
        F,
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=1, max_value=9),
    )
    terms = draw(st.dictionaries(word, coeff, min_size=1, max_size=5))
    return FreePoly(ngens, terms)


@pytest.mark.parametrize("name", sorted(REFERENCE_IDEALS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_normal_form_matches_fraction_reference(name, data):
    gb = reference_basis(name)
    p = data.draw(rational_polys(gb.ngens))
    nf = normal_form(p, gb)
    assert nf.terms == reference_normal_form(p.terms, gb.elements)
    assert_fraction_coefficients([nf])


def test_deformed_point_keeps_the_engine_invariant():
    gb = reference_basis("Eminus-4-deformed")
    assert_fraction_coefficients(gb.elements)
    assert [g.lead() for g in gb.elements] == [
        (lead, 1) for lead in gb.leads()
    ]
    for lead, terms in gb._items.items():
        assert all(type(c) is int for c in terms.values())
        assert terms[lead] > 0
        assert math.gcd(*terms.values()) == 1
    assert any(terms[lead] != 1 for lead, terms in gb._items.items())
    for lead in gb.leads():
        state = 0
        for letter in lead[:-1]:
            state = gb._trans[state][letter]
        assert gb._trans[state][lead[-1]] == -len(lead)


# sha256 of the monic reduced bases of sample_params(template, 3, 11),
# recorded with the Fraction reducer before it became fraction-free
DEFORMED_BASIS_DIGESTS = {
    "Eminus-3": (
        DeformParams.eminus(3, 1, 1, 1),
        "f5e7b7abcdd03ddf5eddc5e63d548ec412cb6dbabea22878f53a9c4095df4249",
    ),
    "Eminus-4": (
        DeformParams.eminus(4, 1, 1, 1),
        "aebb145dff8ac61061a6a5d044a461fb05d4a15097850028a0e421428d4fa830",
    ),
    "Echi-3": (
        DeformParams.echi(3, 1, 1),
        "d8f8f6cd6caa6a4acaf4cd2b518c7cfae4a1fda6c4c14023bf8cd22c6206a093",
    ),
    "Echi-4": (
        DeformParams.echi(4, 1, 1),
        "f42817c560bcb10a858552ea41fe5ac2b15ad9211ad6dbce7780d1e440c3cc86",
    ),
    "Etilde": (
        DeformParams.etilde(1, 1, 1),
        "04da8fb5a0bbb17ed7557466f6aed969a062f8a4bc01a82d78a8bbd3ddea1c69",
    ),
}


@pytest.mark.parametrize("label", sorted(DEFORMED_BASIS_DIGESTS))
def test_deformed_reduced_bases_are_pinned(label):
    template, digest = DEFORMED_BASIS_DIGESTS[label]
    bases = [
        basis_json(groebner(build_deformed_ideal(p)))
        for p in sample_params(template, 3, 11)
    ]
    assert hashlib.sha256(json.dumps(bases).encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# the lead automaton against the subword search and the suffix search it
# replaced


def subword_first_lead(w, leads):
    """Leftmost occurrence in w of a lead, the shortest lead at that start,
    as (start, lead); None when w is irreducible."""
    lens = sorted({len(ld) for ld in leads})
    for k in range(len(w) + 1):
        for m in lens:
            if k + m > len(w):
                break
            if w[k:k + m] in leads:
                return k, w[k:k + m]
    return None


def suffix_search_automaton(leads, ngens):
    """States are the proper prefixes of the leads, shortest first; a
    letter goes to the longest suffix that is a state, or to -1 when the
    extended word ends in a lead."""
    prefixes = {b""} | {ld[:k] for ld in leads for k in range(1, len(ld))}
    states = sorted(prefixes, key=lambda w: (len(w), w))
    trans = []
    for s in states:
        row = [-1] * ngens
        for a in range(ngens):
            t = s + bytes([a])
            if any(t[len(t) - k:] in leads for k in range(1, len(t) + 1)):
                continue
            row[a] = states.index(next(
                t[len(t) - k:] for k in range(len(t), -1, -1)
                if t[len(t) - k:] in prefixes
            ))
        trans.append(row)
    return trans


def walk_first_lead(trans, leads, w):
    """(start, lead) where the walk of w first takes a negative transition,
    the way the reduction reads it; the empty lead matches at 0."""
    if b"" in leads:
        return 0, b""
    state = 0
    for end, letter in enumerate(w, 1):
        state = trans[state][letter]
        if state < 0:
            return end + state, w[end + state:end]
    return None


def s5_degree7_basis():
    rack, _ = transposition_rack(5)
    ideal = quadratic_ideal(rack, constant_cocycle(rack, F(-1)), "V")
    return groebner(ideal, max_deg=7)


AUTOMATON_BASES = {
    "S5-degree-7": s5_degree7_basis,
    "o24-chi-V": lambda: reference_basis("o24-chi-V"),
    "Eminus-4-deformed": lambda: reference_basis("Eminus-4-deformed"),
    "trivial": lambda: groebner([FreePoly.one(2)]),
}


@pytest.mark.parametrize("name", sorted(AUTOMATON_BASES))
def test_lead_automaton_matches_subword_and_suffix_search(name):
    gb = AUTOMATON_BASES[name]()
    leads = set(gb.leads())
    rng = random.Random(19)
    planted = sorted(leads, key=lambda w: (len(w), w))
    for _ in range(400):
        w = bytes(rng.randrange(gb.ngens) for _ in range(rng.randint(0, 8)))
        if rng.randint(0, 1):
            cut = rng.randint(0, len(w))
            w = w[:cut] + rng.choice(planted) + w[cut:]
        assert walk_first_lead(gb._trans, leads, w) == subword_first_lead(w, leads)
    reference = suffix_search_automaton(leads, gb.ngens)
    assert [[max(t, -1) for t in row] for row in gb._trans] == reference
    assert _word_counts(gb._trans, 9) == _word_counts(reference, 9)


def smash_presentation():
    """T(V) # kS4 for o24/chi on 30 letters: the six rack letters, then
    one letter per element of S4, with e - 1, g h - (gh) and
    g x - chi_x(g) (g . x) g."""
    r = builtin_realization("o24", "chi")
    n = r.rack.n
    group = sorted(r.group.elements)
    ngens = n + len(group)
    letter = {g: n + i for i, g in enumerate(group)}
    gens = [FreePoly.gen(ngens, letter[r.group.identity]) - FreePoly.one(ngens)]
    for g in group:
        for h in group:
            gens.append(FreePoly.word(ngens, [letter[g], letter[h]])
                        - FreePoly.word(ngens, [letter[compose(g, h)]]))
        for x in range(n):
            gens.append(FreePoly.word(ngens, [letter[g], x]) - FreePoly.word(
                ngens, [r.act(g, x), letter[g]], r.chi(x, g)))
    return gens


def test_smash_presentation_basis_is_pinned():
    # 668 leads over 30 letters, the shape of a lifting presentation; the
    # hash was recorded with the subword lead search
    gb = groebner(smash_presentation())
    assert gb.complete and len(gb.elements) == 668
    assert hilbert_series(gb, 3) == [1, 29, 174, 1044]
    digest = hashlib.sha256(json.dumps(basis_json(gb)).encode()).hexdigest()
    assert digest == (
        "890cab90e8109e847dc8fc69be87924ca9815e770696a680a6f72ead8234c3dc"
    )
