from fractions import Fraction

import pytest

from rackalg import perm
from rackalg.catalog import builtin_cocycle
from rackalg.exactnum import BadNumber
from rackalg.rack import Rack
from rackalg.cocycle import (
    CocycleLawFails,
    Cocycle2,
    WrongRackForChi,
    ZeroEntry,
    chi_character_value,
    chi_cocycle,
    constant_cocycle,
    validate_cocycle,
)

MINUS = Fraction(-1)


def test_constant_minus_one(o24):
    rack, _ = o24
    q = constant_cocycle(rack, -1)
    assert all(q(x, y) == MINUS for x in range(6) for y in range(6))


def test_chi_diagonal_is_minus_one(o24):
    rack, cls = o24
    q = chi_cocycle(rack, cls)
    for x in range(rack.n):
        assert q(x, x) == MINUS


def test_chi_character_hand_values():
    # the character compares images of the two moved points
    g = perm.identity(4)
    assert chi_character_value(g, (0, 1)) == 1
    swap01 = perm.from_cycles(4, [(1, 2)])
    assert chi_character_value(swap01, (0, 1)) == -1
    assert chi_character_value(swap01, (2, 3)) == 1
    c4 = perm.from_cycles(4, [(1, 2, 3, 4)])
    # c4 sends 0,1 to 1,2: increasing
    assert chi_character_value(c4, (0, 1)) == 1
    # and 2,3 to 3,0: decreasing
    assert chi_character_value(c4, (2, 3)) == -1


def test_chi_frozen_row(o24):
    rack, cls = o24
    q = chi_cocycle(rack, cls)
    # row of x = (34) against the canonical column order
    # (34),(23),(24),(12),(13),(14): the swap 3<->4 only inverts
    # the pair it moves
    row = [q(0, y) for y in range(6)]
    assert row == [-1, 1, 1, 1, 1, 1]
    # x = (13) inverts the nested pairs (23), (12) and itself
    row13 = [q(4, y) for y in range(6)]
    assert row13 == [1, -1, 1, -1, -1, 1]


def test_cocycle_law_holds_for_builtins(s4_families):
    for name, spec, rack, q in s4_families:
        for x in range(rack.n):
            for y in range(rack.n):
                for z in range(rack.n):
                    lhs = q(x, rack.act(y, z)) * q(y, z)
                    rhs = q(rack.act(x, y), rack.act(x, z)) * q(x, z)
                    assert lhs == rhs, (name, spec, x, y, z)


def test_validate_rejects_zero_entry(o23):
    rack, _ = o23
    values = [[Fraction(-1)] * 3 for _ in range(3)]
    values[1][2] = Fraction(0)
    with pytest.raises(ZeroEntry):
        validate_cocycle(rack, values)


def test_validate_rejects_law_violation(o24):
    rack, cls = o24
    q = chi_cocycle(rack, cls)
    values = [list(row) for row in q.q]
    values[0][1] = -values[0][1]
    with pytest.raises(CocycleLawFails):
        validate_cocycle(rack, values)


def test_chi_needs_transpositions():
    with pytest.raises(WrongRackForChi):
        builtin_cocycle("o44", "chi")


def test_json_round_trip(o24):
    rack, cls = o24
    q = chi_cocycle(rack, cls)
    doc = q.to_json()
    # the flat document: the rack's own document plus q
    assert doc == {**rack.to_json(), "q": doc["q"]}
    back = Cocycle2.from_json(doc, Rack.from_json(doc))
    assert back == q
    assert back.rack.labels == rack.labels


@pytest.mark.parametrize("entry", [0.1, True, "1e10000000", "1/0", None])
def test_json_values_are_exact_rationals(entry):
    doc = {"n": 2, "table": [[0, 1], [0, 1]], "q": [["1", 1], [1, 1]]}
    rack = Rack.from_json(doc)
    assert Cocycle2.from_json(doc, rack).q[0][0] == 1
    doc["q"][0][0] = "0.1"
    assert Cocycle2.from_json(doc, rack).q[0][0] == Fraction(1, 10)
    doc["q"][0][0] = entry
    with pytest.raises(BadNumber):
        Cocycle2.from_json(doc, rack)
