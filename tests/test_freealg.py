import functools
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from rackalg import freealg
from rackalg.catalog import builtin_cocycle, builtin_rack, transposition_rack
from rackalg.cocycle import constant_cocycle
from rackalg.deform import (
    DeformParams,
    build_deformed_ideal,
    pointed_lifting_generators,
    sample_params,
)
from rackalg.exactnum import BadNumber
from rackalg.freealg import (
    FreePoly,
    GroebnerBasis,
    QuotientAlgebra,
    _LeadAutomaton,
    _Overlaps,
    _proper_overlaps,
    _record,
    _reduce_terms,
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
from rackalg.quadrel import pointed_lambda_space, quadratic_ideal

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
    # g goes in first and keeps the -xy of its tail through the loop; the
    # final pass rewrites it with f's lead xy, of coefficient 2, so the
    # tail comes back scaled by 2 and so must g's lead: yy - xy = yy - xx/2
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


def first_ending_rewrite(terms, elements):
    """Normal form over Q against elements given as integer term dicts by
    lead, no lead a subword of another and none of them monic or a
    Groebner basis: rewrite the deglex-largest reducible word at the lead
    occurrence that ends first until no reducible word is left."""
    p = {w: F(c) for w, c in terms.items() if c}
    while True:
        reducible = [w for w in p if any(ld in w for ld in elements)]
        if not reducible:
            return p
        w = max(reducible, key=lambda w: (len(w), w))
        end, lead = min((w.find(ld) + len(ld), ld) for ld in elements if ld in w)
        c = p.pop(w) / elements[lead][lead]
        for u, d in elements[lead].items():
            if u == lead:
                continue
            nw = w[:end - len(lead)] + u + w[end:]
            acc = p.get(nw, 0) - c * d
            if acc:
                p[nw] = acc
            else:
                p.pop(nw, None)


@st.composite
def kernel_inputs(draw):
    """A word antichain of leads over two or three letters, each with a
    lead coefficient of 1 to 4 and a tail of deglex-smaller words of any
    length, and a term dict to reduce: the scaled and inhomogeneous paths
    of the reduction, which no basis the completion returns exercises."""
    ngens = draw(st.integers(min_value=2, max_value=3))
    word = st.lists(
        st.integers(min_value=0, max_value=ngens - 1), max_size=4).map(bytes)
    coeff = st.integers(min_value=-4, max_value=4).filter(bool)
    elements = {}
    for lead in draw(st.lists(word.filter(bool), min_size=1, max_size=5)):
        if any(ld in lead or lead in ld for ld in elements):
            continue
        tail = draw(st.lists(word.filter(
            lambda w: (len(w), w) < (len(lead), lead)), max_size=4))
        elements[lead] = {
            **{u: draw(coeff) for u in tail},
            lead: draw(st.integers(min_value=1, max_value=4))}
    terms = draw(st.dictionaries(
        st.lists(st.integers(min_value=0, max_value=ngens - 1),
                 max_size=6).map(bytes), coeff, min_size=1, max_size=5))
    return ngens, elements, terms


@seed(3)
@settings(max_examples=100, deadline=None)
@given(kernel_inputs())
def test_reduction_kernel_matches_a_fraction_rewrite(case):
    ngens, elements, terms = case
    records = {ld: _record(ld, tm) for ld, tm in elements.items()}
    out, scale = _reduce_terms(
        terms, records, _LeadAutomaton(ngens, elements).trans)
    assert {w: F(c, scale) for w, c in out.items()} == first_ending_rewrite(
        terms, elements)


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
# every basis groebner returns is reduced, complete or truncated


def assert_reduced(gb):
    """Each element is monic, no lead is a subword of another lead, and no
    tail word contains a lead."""
    leads = list(gb.leads())
    for g, lead in zip(gb.elements, leads):
        assert g.lead() == (lead, 1)
        assert not any(ld in lead for ld in leads if ld != lead), lead
        tail = [w for w in g.terms if w != lead]
        assert not any(ld in w for w in tail for ld in leads), lead


@st.composite
def small_ideals(draw):
    """One to three polynomials over two or three letters, with words of at
    most three letters, all of one length when the ideal is homogeneous."""
    ngens = draw(st.integers(min_value=2, max_value=3))
    length = draw(st.none() | st.integers(min_value=1, max_value=3))
    lengths = st.just(length) if length else st.integers(min_value=0, max_value=3)
    word = lengths.flatmap(lambda m: st.lists(
        st.integers(min_value=0, max_value=ngens - 1), min_size=m, max_size=m
    )).map(bytes)
    coeff = st.integers(min_value=-3, max_value=3).filter(bool)
    poly = st.dictionaries(word, coeff, min_size=1, max_size=4)
    return [FreePoly(ngens, t) for t in draw(st.lists(poly, min_size=1, max_size=3))]


@settings(max_examples=80, deadline=None)
@given(small_ideals())
# truncated at degree 4: xyx - yyy - y, whose basis keeps growing
@example([FreePoly(2, {b"\x00\x01\x00": 1, b"\x01\x01\x01": -1, b"\x01": -1})])
# yy - xy and 2xy - xx: the tail of yy holds the lead xy
@example([FreePoly(2, {b"\x01\x01": 1, b"\x00\x01": -1}),
          FreePoly(2, {b"\x00\x01": 2, b"\x00\x00": -1})])
def test_every_basis_is_reduced(gens):
    assert_reduced(groebner(gens, max_deg=4))


def s4_quadratic_ideal(rack_name, spec, flavor):
    rack, _ = builtin_rack(rack_name)
    return quadratic_ideal(rack, builtin_cocycle(rack_name, spec), flavor)


def deformed_point(template):
    # the third seeded point is of the fully generic shape
    return build_deformed_ideal(sample_params(template, 3, 11)[2])


SHIPPED_IDEALS = {
    **{
        f"{rack_name}-{spec}-{flavor}":
            functools.partial(s4_quadratic_ideal, rack_name, spec, flavor)
        for rack_name, spec in [
            ("o24", "const:-1"), ("o24", "chi"), ("o44", "const:-1")]
        for flavor in "VW"
    },
    **{
        f"{label}-deformed": functools.partial(deformed_point, template)
        for label, (template, _) in DEFORMED_BASIS_DIGESTS.items()
    },
}


@pytest.mark.parametrize("name", sorted(SHIPPED_IDEALS))
def test_shipped_bases_are_reduced(name):
    gb = groebner(SHIPPED_IDEALS[name]())
    assert gb.complete
    assert_reduced(gb)


def test_s5_truncated_basis_is_reduced():
    rack, _ = transposition_rack(5)
    ideal = quadratic_ideal(rack, constant_cocycle(rack, F(-1)), "V")
    gb = groebner(ideal, max_deg=6)
    assert gb.status == "truncated-at-degree-6"
    assert_reduced(gb)


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


def rows_by_word(trans):
    """The rows keyed by state word, each next state given by its word and
    a lead transition by -1.  A state's word is the shortest word whose
    walk from state 0 ends there, so a breadth-first walk reads it; every
    state must be reached."""
    words = {0: b""}
    queue = [0]
    for s in queue:
        for a, t in enumerate(trans[s]):
            if t >= 0 and t not in words:
                words[t] = words[s] + bytes([a])
                queue.append(t)
    assert len(words) == len(trans)
    return {words[s]: [words[t] if t >= 0 else -1 for t in trans[s]]
            for s in queue}


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
    assert rows_by_word(gb._trans) == rows_by_word(reference)
    assert _word_counts(gb._trans, 9) == _word_counts(reference, 9)


def smash_relations(r, hopf_first):
    """T(V) # kG over the rack letters and one letter per group element:
    e - 1, g h - (gh) and g x - chi_x(g) (g . x) g.  The group letters
    follow the rack letters, or come first when hopf_first.  Returns
    (ngens, letter of each group element, letter of each rack element,
    relations)."""
    n = r.rack.n
    group = sorted(r.group.elements)
    ngens = n + len(group)
    hopf_at, rack_at = (0, len(group)) if hopf_first else (n, 0)
    letter = {g: hopf_at + i for i, g in enumerate(group)}
    rack = [rack_at + x for x in range(n)]
    gens = [FreePoly.gen(ngens, letter[r.group.identity]) - FreePoly.one(ngens)]
    for g in group:
        for h in group:
            gens.append(FreePoly.word(ngens, [letter[g], letter[h]])
                        - FreePoly.word(ngens, [letter[compose(g, h)]]))
        for x in range(n):
            gens.append(FreePoly.word(ngens, [letter[g], rack[x]]) - FreePoly.word(
                ngens, [rack[r.act(g, x)], letter[g]], r.chi(x, g)))
    return ngens, letter, rack, gens


def smash_presentation():
    """T(V) # kS4 for o24/chi on 30 letters: the six rack letters, then
    one letter per element of S4."""
    return smash_relations(builtin_realization("o24", "chi"), False)[3]


def pointed_lifting_presentation(rack_name, spec):
    """The pointed lifting T(V) # kG / (b_C - lambda_C (1 - g_C)) with
    lambda = 1 on every free class, the Hopf letters below the rack
    letters."""
    r = builtin_realization(rack_name, spec)
    ngens, letter, rack, gens = smash_relations(r, True)
    space = pointed_lambda_space(r.rack, r.induced_cocycle())
    lam_free = {c.base_pair: F(1) for c in space.free_classes()}
    one = FreePoly.one(ngens)
    for rec in pointed_lifting_generators(r, lam_free):
        b = FreePoly(ngens, {bytes(rack[x] for x in w): c
                             for w, c in rec["b"].terms.items()})
        g_c = FreePoly.gen(ngens, letter[rec["g"]])
        gens.append(b - (one - g_c) * rec["lam"])
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


# sha256 of basis_json, recorded before the final interreduction pass
# replaced the tail reduction after every insert
LIFTING_BASES = {
    ("o23", "chi"): (
        47, 72, "28387ee582095fa86599357a886dcf8977ff216f392a8d2fd4e3dbe84edc1470"),
    ("o24", "chi"): (
        696, 13824, "28f4553d4d841921952379dd71f88e35c7617ed1941ac44ba423e4995662d983"),
}


@pytest.mark.parametrize("rack_name,spec", sorted(LIFTING_BASES))
def test_pointed_lifting_basis_is_pinned(rack_name, spec):
    # the inhomogeneous completion that a lifting dimension runs:
    # dim T(V) # kG / (b_C - lambda_C (1 - g_C)) = dim B(V) * |G|
    size, dim, digest = LIFTING_BASES[rack_name, spec]
    gb = groebner(pointed_lifting_presentation(rack_name, spec))
    assert gb.complete and len(gb.elements) == size
    assert quotient_dim(gb) == dim
    assert audit_obstructions(gb)
    assert_reduced(gb)
    assert hashlib.sha256(json.dumps(basis_json(gb)).encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# the pair queue: overlaps looked up in the prefix and suffix maps give the
# pairs the scan over every lead gave, in the same order


def scan_overlaps(u, leads):
    """The pairs of a new lead u with the leads, u among them, as the scan
    over every lead found them."""
    pairs = set()
    for v in leads:
        pairs.update((u, v, k) for k in _proper_overlaps(u, v))
        if v != u:
            pairs.update((v, u, k) for k in _proper_overlaps(v, u))
    return pairs


@st.composite
def lead_histories(draw):
    """Insert and retire steps over words of at most five letters on two or
    three letters; a retire step names a live lead by its rank."""
    ngens = draw(st.integers(min_value=2, max_value=3))
    word = st.lists(
        st.integers(min_value=0, max_value=ngens - 1), max_size=5).map(bytes)
    step = st.one_of(
        word.map(lambda w: ("insert", w)),
        st.integers(min_value=0, max_value=20).map(lambda i: ("retire", i)))
    return draw(st.lists(step, min_size=1, max_size=30))


@seed(7)
@settings(max_examples=150, deadline=None)
@given(lead_histories())
def test_overlap_maps_match_the_scan(history):
    index = _Overlaps()
    leads = set()
    for op, arg in history:
        if op == "insert" and arg not in leads:
            leads.add(arg)
            index.add(arg)
        elif op == "retire" and leads:
            gone = sorted(leads)[arg % len(leads)]
            leads.remove(gone)
            index.remove(gone)
        for u in leads:
            found = list(index.of(u))
            assert len(found) == len(set(found))
            assert set(found) == scan_overlaps(u, leads)


@st.composite
def insert_histories(draw):
    """Mostly insert steps, of words of at most six letters on two letters,
    so that an insert often retires leads; a retire step names a live lead
    by its rank."""
    insert = st.lists(st.integers(min_value=0, max_value=1), max_size=6).map(
        lambda w: ("insert", bytes(w)))
    retire = st.integers(min_value=0, max_value=20).map(lambda i: ("retire", i))
    step = st.one_of(insert, insert, insert, retire)
    return draw(st.lists(step, min_size=5, max_size=40))


@seed(11)
@settings(max_examples=400, deadline=None)
@given(insert_histories())
# inserting bb retires bbaa, so the automaton is built anew from aba and
# bb, with a state b that aba's state ab fails to
@example([("insert", b"\x01\x01\x00\x00"), ("insert", b"\x00\x01\x00"),
          ("insert", b"\x01\x01")])
def test_lead_automaton_grown_in_place_matches_the_suffix_search(history):
    ngens = 2
    automaton = _LeadAutomaton(ngens)
    leads = set()
    rng = random.Random(len(history))
    for op, arg in history:
        if op == "insert":
            # an inserted lead contains no lead and retires the ones that
            # contain it, as in the completion
            if any(ld in arg for ld in leads):
                continue
            retired = automaton.containing(arg)
            assert retired == {ld for ld in leads if arg in ld}
            leads -= retired
            leads.add(arg)
            if retired:
                automaton = _LeadAutomaton(ngens, leads)
            else:
                automaton.add(arg)
                automaton.settle()
        elif leads:
            leads.remove(sorted(leads)[arg % len(leads)])
            automaton = _LeadAutomaton(ngens, leads)
        assert rows_by_word(automaton.trans) == rows_by_word(
            suffix_search_automaton(leads, ngens))
        for _ in range(20):
            w = bytes(rng.randrange(ngens) for _ in range(rng.randint(0, 7)))
            assert (walk_first_lead(automaton.trans, leads, w)
                    == subword_first_lead(w, leads))


def test_completion_that_retires_a_lead():
    # aab goes in first; b - 1 then retires it, and aab reduces to aa
    a, b = FreePoly.gen(2, 0), FreePoly.gen(2, 1)
    gb = groebner([b - FreePoly.one(2), a * a * b])
    assert gb.elements == [b - FreePoly.one(2), a * a]
    assert quotient_dim(gb) == 2
    assert audit_obstructions(gb)


# sha256 of json.dumps([[u.hex(), v.hex(), k], ...]) over the S-elements a
# completion forms, in order; recorded with the scan over every lead
S_ELEMENT_LOGS = {
    "S5-degree-7": (
        s5_degree7_basis, 1056,
        "83c6eeebc74a47a5ad93283035af0a680b9278194a342130e678c83e0e4e92c0"),
    "Eminus-4-deformed": (
        lambda: groebner(deformed_eminus4()), 133,
        "9ce0b606d931fdc171162d6aeb160d6647e65451886a8922a7d6449af4db6719"),
    "pointed-o24-chi": (
        lambda: groebner(pointed_lifting_presentation("o24", "chi")), 16118,
        "d76efe972799e1ae6031f2177bac55558ef33f4cdf14d45f4e432fc4b3e2472b"),
}


@pytest.mark.parametrize("name", sorted(S_ELEMENT_LOGS))
def test_completion_forms_the_same_pairs_in_the_same_order(name, monkeypatch):
    complete, calls, digest = S_ELEMENT_LOGS[name]
    log = []
    s_element = freealg._s_element

    def logged(u, ru, v, rv, k):
        log.append([u.hex(), v.hex(), k])
        return s_element(u, ru, v, rv, k)

    monkeypatch.setattr(freealg, "_s_element", logged)
    complete()
    assert len(log) == calls
    assert hashlib.sha256(json.dumps(log).encode()).hexdigest() == digest


def test_audit_rejects_an_uncompleted_basis():
    # the five quadratic relations of o23/const:-1 are not closed: their
    # completion adds a sixth element, so some overlap does not reduce
    items = {}
    for p in fk3_ideal():
        lead, c = p.lead()
        items[lead] = {w: int(d / c) for w, d in p.terms.items()}
    assert len(items) == 5 and len(groebner(fk3_ideal()).elements) == 6
    assert not audit_obstructions(GroebnerBasis(3, items))


# ---------------------------------------------------------------------------
# quotient_dim decides "infinite" by a cycle of the automaton, not by
# counting as many degrees as it has states


def counted_dim(gb):
    """quotient_dim of a complete, nontrivial basis by the count alone: a
    normal word with as many letters as there are states loops."""
    counts = _word_counts(gb._trans, len(gb._trans))
    return "infinite" if counts[-1] else sum(counts)


def length14_monomials(count):
    """A basis of count distinct random words of 14 letters over 2 letters,
    each its own element: no lead contains another."""
    rng = random.Random(7)
    words = set()
    while len(words) < count:
        words.add(bytes(rng.randrange(2) for _ in range(14)))
    return GroebnerBasis(2, {w: {w: 1} for w in words})


QUOTIENT_DIM_BASES = {
    **{name: (lambda f=f: groebner(f())) for name, f in SHIPPED_IDEALS.items()},
    "fk3": lambda: groebner(fk3_ideal()),
    "ab-ba": lambda: groebner([FreePoly.word(2, [0, 1]) - FreePoly.word(2, [1, 0])]),
    "monomials": lambda: length14_monomials(60),
}


@pytest.mark.parametrize("name", sorted(QUOTIENT_DIM_BASES))
def test_quotient_dim_cycle_rule_matches_the_count(name):
    gb = QUOTIENT_DIM_BASES[name]()
    assert quotient_dim(gb) == counted_dim(gb)
    assert (quotient_dim(gb) == "infinite") == (name in ("ab-ba", "monomials"))
