import pytest
from hypothesis import given
from hypothesis import strategies as st

from rackalg import perm
from rackalg.rack import (
    NotBijective,
    NotSelfDistributive,
    Rack,
    conjugacy_rack,
    dihedral_rack,
    trivial_rack,
    validate_rack,
)
from rackalg.catalog import builtin_rack, symmetric_permgroup
from rackalg.exactnum import BadNumber


def test_builtin_sizes_and_labels(o23, o24, o44):
    rack, cls = o23
    assert rack.n == 3 and len(cls) == 3
    rack, cls = o24
    assert rack.n == 6
    assert rack.labels == ("(34)", "(23)", "(24)", "(12)", "(13)", "(14)")
    rack, cls = o44
    assert rack.n == 6
    assert rack.labels == (
        "(1234)", "(1243)", "(1342)", "(1324)", "(1432)", "(1423)",
    )


def test_builtin_properties(o24, o44):
    for rack, _ in (o24, o44):
        props = rack.properties()
        assert props == {
            "quandle": True,
            "faithful": True,
            "indecomposable": True,
        }


def test_conjugation_table_matches_group(o24):
    rack, cls = o24
    for x in range(rack.n):
        for y in range(rack.n):
            assert cls[rack.act(x, y)] == perm.conjugate(cls[x], cls[y])


def test_validate_rack_rejects_non_bijective_row():
    table = [[0, 0, 0], [0, 1, 2], [0, 1, 2]]
    with pytest.raises(NotBijective):
        validate_rack(3, table)


def test_validate_rack_rejects_broken_distributivity():
    # swap two entries of a dihedral table so left translations stay
    # bijective but self-distributivity breaks
    rack = dihedral_rack(4)
    table = [list(row) for row in rack.table]
    table[0][1], table[0][3] = table[0][3], table[0][1]
    with pytest.raises(NotSelfDistributive):
        validate_rack(4, table)


def test_trivial_and_dihedral():
    t = trivial_rack(4)
    assert all(t.act(x, y) == y for x in range(4) for y in range(4))
    assert not t.is_faithful()
    d = dihedral_rack(3)
    assert d.is_quandle()
    assert d.properties()["indecomposable"]


def test_conjugacy_rack_seed_must_belong():
    g = symmetric_permgroup(3)
    from rackalg.rack import SeedNotInGroup

    with pytest.raises(SeedNotInGroup):
        conjugacy_rack(g, perm.from_cycles(4, [(1, 2)]))


def test_inner_group_of_o24(o24):
    rack, _ = o24
    inner = rack.inner_group()
    # transpositions generate the full symmetric group on 6 class points;
    # the inner group is S4 acting on them, order 24, with one orbit
    assert len(inner) == 24
    assert {g[0] for g in inner} == set(range(6))


def test_json_round_trip(o44):
    rack, _ = o44
    doc = rack.to_json()
    back = Rack.from_json(doc)
    assert back == rack
    assert back.labels == rack.labels


@pytest.mark.parametrize("doc", [
    {"n": 2, "table": [[False, True], [False, True]]},
    {"n": 2, "table": [[0, 1.0], [0, 1]]},
    {"n": True, "table": [[0]]},
    {"n": 2.0, "table": [[0, 1], [0, 1]]},
])
def test_json_table_takes_only_integers(doc):
    with pytest.raises(BadNumber):
        Rack.from_json(doc)


@given(st.integers(min_value=2, max_value=8))
def test_dihedral_axioms(n):
    rack = dihedral_rack(n)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                assert rack.act(x, rack.act(y, z)) == rack.act(
                    rack.act(x, y), rack.act(x, z)
                )


@given(st.sampled_from(["o23", "o24", "o44"]), st.data())
def test_rack_translations_are_automorphisms(name, data):
    rack, _ = builtin_rack(name)
    x = data.draw(st.integers(min_value=0, max_value=rack.n - 1))
    phi = rack.phi(x)
    assert sorted(phi) == list(range(rack.n))
    for y in range(rack.n):
        for z in range(rack.n):
            assert rack.act(x, rack.act(y, z)) == rack.act(phi[y], phi[z])
