import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rackalg.catalog import builtin_cocycle, builtin_rack, transposition_rack
from rackalg.cocycle import constant_cocycle
from rackalg.exactnum import BadNumber
from rackalg.freealg import (
    FreePoly,
    GroebnerBasis,
    QuotientAlgebra,
    audit_obstructions,
    groebner,
    hilbert_series,
    ideal_from_json,
    ideal_to_json,
    is_trivial_quotient,
    normal_form,
    quotient_dim,
)
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


def test_poly_monic_and_sorted_terms():
    p = FreePoly.word(2, [1, 0], 4) + FreePoly.word(2, [0], 2)
    m = p.monic()
    assert m.lead()[1] == 1
    assert m.terms[bytes([0])] == F(1, 2)
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
