import json
import pathlib
from fractions import Fraction

import pytest

from rackalg.catalog import (
    RACK_NAMES,
    builtin_cocycle,
    builtin_rack,
    transposition_rack,
)
from rackalg.cocycle import constant_cocycle, validate_cocycle
from rackalg.quadrel import (
    RatioUnionFind,
    copointed_lambda_space,
    enumerate_classes,
    hom_vanishing_check,
    pointed_lambda_space,
    quadratic_ideal,
    relation_poly,
    select_Rprime,
    verify_J2,
)
from rackalg.rack import cyclic_affine_rack, dihedral_rack, trivial_rack

F = Fraction
DATA = pathlib.Path(__file__).parent / "data"


def test_rprime_has_17_classes_for_each_family(s4_families):
    for name, spec, rack, q in s4_families:
        rprime = select_Rprime(enumerate_classes(rack), q)
        assert len(rprime) == 17, (name, spec)
        assert sum(c.size for c in rprime) <= rack.n * rack.n


def test_three_element_class_inventory():
    rack, _ = builtin_rack("o23")
    q = builtin_cocycle("o23", "const:-1")
    rprime = select_Rprime(enumerate_classes(rack), q)
    pairs = [c.base_pair for c in rprime]
    sizes = [c.size for c in rprime]
    assert pairs == [(0, 0), (0, 1), (0, 2), (1, 1), (2, 2)]
    assert sizes == [1, 3, 3, 1, 1]


def test_relation_polys_cover_class_pairs():
    rack, _ = builtin_rack("o24")
    q = builtin_cocycle("o24", "chi")
    rprime = select_Rprime(enumerate_classes(rack), q)
    big = [c for c in rprime if c.size == 3][0]
    pv = relation_poly(big, "V", rack.n)
    pw = relation_poly(big, "W", rack.n)
    assert len(pv.terms) == 3 and len(pw.terms) == 3
    assert set(pv.terms) == {bytes(reversed(w)) for w in pw.terms}
    # the base pair always carries coefficient 1
    a, b = big.base_pair
    assert pv.terms[bytes([a, b])] == 1


def test_quadratic_ideal_spans_symmetrizer_kernel(s4_families):
    cases = [(name, spec, rack, q, 17) for name, spec, rack, q in s4_families]
    # beyond S4: R' empty, partial or full among the shift cycles
    for name, rack, sizes in (
        ("D3", dihedral_rack(3), (5, 0, 0)),
        ("D4", dihedral_rack(4), (8, 4, 0)),
        ("D5", dihedral_rack(5), (9, 0, 0)),
        ("D6", dihedral_rack(6), (15, 5, 0)),
        ("trivial3", trivial_rack(3), (6, 3, 0)),
    ):
        for w, size in zip((-1, 1, 2), sizes):
            cases.append((name, w, rack, constant_cocycle(rack, w), size))
    s5 = transposition_rack(5)[0]
    cases.append(("S5", -1, s5, constant_cocycle(s5, -1), 45))
    o44 = builtin_rack("o44")[0]
    cases.append(("o44", "const:2", o44, builtin_cocycle("o44", "const:2"), 0))
    for name, spec, rack, q, size in cases:
        assert len(select_Rprime(enumerate_classes(rack), q)) == size, (name, spec)
        for flavor in ("V", "W"):
            assert verify_J2(rack, q, flavor), (name, spec, flavor)


def test_quadratic_ideal_size(s4_families):
    for name, spec, rack, q in s4_families:
        assert len(quadratic_ideal(rack, q, "V")) == 17


def test_pointed_space_all_free_for_constant_sign():
    rack, _ = builtin_rack("o24")
    q = builtin_cocycle("o24", "const:-1")
    space = pointed_lambda_space(rack, q)
    assert space.free_dim == 3
    assert space.zero_classes() == []
    sizes = sorted(c.size for c in space.free_classes())
    assert sizes == [1, 2, 3]


def test_pointed_space_chi_kills_the_middle():
    rack, _ = builtin_rack("o24")
    q = builtin_cocycle("o24", "chi")
    space = pointed_lambda_space(rack, q)
    assert space.free_dim == 2
    free = {(c.base_pair, c.size) for c in space.free_classes()}
    assert free == {((1, 4), 3), ((3, 3), 1)}
    assert all(c.size == 2 for c in space.zero_classes())


def test_pointed_value_map_consistency():
    rack, _ = builtin_rack("o24")
    q = builtin_cocycle("o24", "chi")
    space = pointed_lambda_space(rack, q)
    roots = {c.base_pair: F(1) for c in space.free_classes()}
    values = space.value_map(roots)
    assert len(values) == 17
    assert sum(1 for v in values.values() if v == 0) == 3
    # tied classes carry unit ratios up to sign for the chi family
    assert {abs(v) for v in values.values()} == {F(0), F(1)}


def test_fourcycle_pointed_space():
    rack, _ = builtin_rack("o44")
    q = builtin_cocycle("o44", "const:-1")
    space = pointed_lambda_space(rack, q)
    assert space.free_dim == 3
    assert space.zero_classes() == []


def test_copointed_survivors():
    rack, _ = builtin_rack("o24")
    q = builtin_cocycle("o24", "const:-1")
    space = copointed_lambda_space(rack, q)
    # only the squares x.x survive and they stay independent
    surv = space.free_classes()
    assert all(c.size == 1 for c in surv)
    assert len(surv) == 6

    rack4, _ = builtin_rack("o44")
    q4 = builtin_cocycle("o44", "const:-1")
    space4 = copointed_lambda_space(rack4, q4)
    # for 4-cycles the survivors are the inverse pairs, not the squares
    surv4 = [(c.base_pair, c.size) for c in space4.free_classes()]
    assert surv4 == [((0, 4), 2), ((1, 2), 2), ((3, 5), 2)]


def test_copointed_chi_survivors():
    rack, _ = builtin_rack("o24")
    q = builtin_cocycle("o24", "chi")
    space = copointed_lambda_space(rack, q)
    surv = space.free_classes()
    assert len(surv) == 6
    assert all(c.size == 1 for c in surv)


def test_hom_vanishing_for_all_families(s4_families):
    for name, spec, rack, q in s4_families:
        report = hom_vanishing_check(rack, q)
        assert report["all"] is True, (name, spec)
        assert len(report["per_class"]) == 17


def test_ratio_union_find_behaviour():
    uf = RatioUnionFind(4)
    uf.tie(0, 1, F(2))  # lam0 = 2 lam1
    uf.tie(2, 1, F(3))  # lam2 = 3 lam1
    r0, k0 = uf.find(0)
    r2, k2 = uf.find(2)
    assert r0 == r2
    assert k0 / k2 == F(2, 3)
    # a conflicting cycle forces the whole component to zero
    uf.tie(0, 2, F(5))
    assert uf.is_zero(0) and uf.is_zero(1) and uf.is_zero(2)
    assert not uf.is_zero(3)


def test_ratio_union_find_consistent_cycle_stays_free():
    uf = RatioUnionFind(3)
    uf.tie(0, 1, F(2))
    uf.tie(1, 2, F(3))
    uf.tie(0, 2, F(6))  # consistent with the composite
    assert not uf.is_zero(0)
    assert len({uf.find(i)[0] for i in range(3) if not uf.is_zero(i)}) == 1


def test_param_space_json_shape():
    rack, _ = builtin_rack("o24")
    q = builtin_cocycle("o24", "chi")
    doc = pointed_lambda_space(rack, q).to_json()
    assert doc["free_dim"] == 2
    assert len(doc["classes"]) == 17
    statuses = {r["status"] for r in doc["classes"]}
    assert statuses == {"zero", "free", "tied"}
    for rec in doc["classes"]:
        assert set(rec) == {
            "pair",
            "size",
            "eta",
            "status",
            "root_pair",
            "ratio_to_root",
        }


BUILTIN_PAIRS = [
    ("o23", "const:-1"), ("o23", "chi"), ("o24", "const:-1"), ("o24", "chi"),
    ("o44", "const:-1"),
]


def test_param_spaces_match_recorded():
    """Both spaces and the Hom report of the five builtin pairs, root
    choice and ratios included, as recorded before the spaces became
    fixed tables."""
    recorded = json.loads((DATA / "param_spaces.json").read_text())
    assert set(recorded) == {f"{name}/{spec}" for name, spec in BUILTIN_PAIRS}
    for name, spec in BUILTIN_PAIRS:
        rack, _ = builtin_rack(name)
        q = builtin_cocycle(name, spec)
        hom = hom_vanishing_check(rack, q)
        assert recorded[f"{name}/{spec}"] == {
            "pointed": pointed_lambda_space(rack, q).to_json(),
            "copointed": copointed_lambda_space(rack, q).to_json(),
            "hom_vanishing": {
                "per_class": {"%d,%d" % k: v for k, v in hom["per_class"].items()},
                "all": hom["all"],
            },
        }, (name, spec)


def _reference_copointed(cls, rack, q):
    """The class scalar survives when phi_{i2} phi_{i1} fixes every x and
    q_{i1,x} q_{i2,i1>x} = 1, checked x by x."""
    s = cls.seq
    i1, i2 = s[0], s[1 % len(s)]
    for x in range(rack.n):
        y = rack.act(i1, x)
        if rack.act(i2, y) != x:
            return False
        if q(i1, x) * q(i2, y) != 1:
            return False
    return True


def _reference_admits(cls, rack, q):
    """Some generator j has phi_j = phi_{i2} phi_{i1} and the matching
    scalars, searched j by j and x by x."""
    s = cls.seq
    i1, i2 = s[0], s[1 % len(s)]
    composed = tuple(rack.act(i2, rack.act(i1, x)) for x in range(rack.n))
    for j in range(rack.n):
        if rack.phi(j) != composed:
            continue
        if all(
            q(j, x) == q(i1, x) * q(i2, rack.act(i1, x)) for x in range(rack.n)
        ):
            return True
    return False


def _reference_pool():
    for name, specs in (
        ("o23", ("const:1", "const:-1", "chi")),
        ("o24", ("const:1", "const:-1", "chi")),
        ("o44", ("const:1", "const:-1")),
    ):
        for spec in specs:
            yield f"{name}/{spec}", builtin_rack(name)[0], builtin_cocycle(name, spec)
    racks = [(f"D{n}", dihedral_rack(n)) for n in range(3, 7)]
    racks += [(f"trivial{n}", trivial_rack(n)) for n in range(1, 5)]
    for label, rack in racks:
        for w in (1, -1):
            yield f"{label}/{w}", rack, constant_cocycle(rack, w)
    aff = cyclic_affine_rack(5, 2)
    for w in (1, -1):
        yield f"aff(5,2)/{w}", aff, constant_cocycle(aff, w)
    # two non-constant cocycles: on trivial3 the scalars alone decide both
    # conditions, and on D4 q_{i2,i1>x} differs from q_{i2,x}
    t3, d4 = trivial_rack(3), dihedral_rack(4)
    yield "trivial3/q", t3, validate_cocycle(t3, [[1, 1, 1], [1, 1, -1], [1, -1, -1]])
    yield "D4/q", d4, validate_cocycle(d4, [[1, 1, 1, 1], [1, 1, -1, 1]] * 2)


@pytest.mark.parametrize(
    "rack, q", [pytest.param(rack, q, id=label) for label, rack, q in _reference_pool()]
)
def test_composed_translation_agrees_with_per_x_loops(rack, q):
    """The copointed zero status and the Hom report, read off one composed
    translation per class, agree class by class with per-x loops."""
    copointed = copointed_lambda_space(rack, q)
    per_class = hom_vanishing_check(rack, q)["per_class"]
    zero = set(copointed.zero_classes())
    assert list(per_class) == [c.base_pair for c in copointed.classes]
    for c in copointed.classes:
        assert (c not in zero) == _reference_copointed(c, rack, q), c
        assert per_class[c.base_pair] == _reference_admits(c, rack, q), c


def test_parameter_ratios_are_fractions_on_builtin_data():
    # the union-find divides ratios, which stays exact only with a Fraction
    # operand; the cocycle values it multiplies are ints where integral
    for name in RACK_NAMES:
        specs = ("const:-1", "const:2") + (("chi",) if name != "o44" else ())
        for spec in specs:
            rack, q = builtin_rack(name)[0], builtin_cocycle(name, spec)
            for space in (pointed_lambda_space(rack, q),
                          copointed_lambda_space(rack, q)):
                assert all(type(ratio) is Fraction
                           for _, ratio, _ in space.solved), (name, spec)
