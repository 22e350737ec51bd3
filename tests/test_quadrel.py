from fractions import Fraction

from rackalg.catalog import builtin_cocycle, builtin_rack, transposition_rack
from rackalg.cocycle import constant_cocycle
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
from rackalg.rack import dihedral_rack, trivial_rack

F = Fraction


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
    uf.force_zero(3)
    assert uf.is_zero(3)


def test_ratio_union_find_consistent_cycle_stays_free():
    uf = RatioUnionFind(3)
    uf.tie(0, 1, F(2))
    uf.tie(1, 2, F(3))
    uf.tie(0, 2, F(6))  # consistent with the composite
    assert not uf.is_zero(0)
    assert len([r for r in uf.roots() if r not in uf.zero_roots]) == 1


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
