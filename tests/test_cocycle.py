import random
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


def _first_law_failure(rack, q):
    """The per-triple Fraction loop: the first (x, y, z) in loop order
    where the cocycle law fails, or None."""
    n = rack.n
    q = [[Fraction(v) for v in row] for row in q]
    act = rack.act
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if q[x][act(y, z)] * q[y][z] != q[act(x, y)][act(x, z)] * q[x][z]:
                    return (x, y, z)
    return None


def _law_inputs():
    """o24/chi, o24/const:-1, o44/const:-1 and o44/const:-1 twisted by the
    coboundary of lam, q'[x][y] = lam[x |> y] / lam[y] q[x][y], whose
    entries include -3 and -1/3."""
    for name, spec in (("o24", "chi"), ("o24", "const:-1"), ("o44", "const:-1")):
        q = builtin_cocycle(name, spec)
        yield name + "/" + spec, q.rack, [list(row) for row in q.q]
    rack = builtin_cocycle("o44", "const:-1").rack
    lam = (1, 3, 1, 1, 1, 1)
    twisted = [[-Fraction(lam[rack.act(x, y)], lam[y]) for y in range(rack.n)]
               for x in range(rack.n)]
    assert {Fraction(-3), Fraction(-1, 3)} <= {v for row in twisted for v in row}
    yield "o44/const:-1 twisted", rack, twisted


def test_validate_witness_matches_per_triple_reference():
    rng = random.Random(20171019)
    failures = 0
    for name, rack, values in _law_inputs():
        valid = validate_cocycle(rack, values)
        assert all(type(v) is (int if v.denominator == 1 else Fraction)
                   for row in valid.q for v in row), name
        assert valid.q == tuple(tuple(Fraction(v) for v in row) for row in values)
        for _ in range(25):
            x, y = rng.randrange(rack.n), rng.randrange(rack.n)
            bent = [list(row) for row in values]
            bent[x][y] = rng.choice([-values[x][y], 2 * values[x][y], Fraction(-1, 3),
                                     Fraction(3), 1, -1])
            want = _first_law_failure(rack, bent)
            if want is None:
                assert validate_cocycle(rack, bent).q == tuple(
                    tuple(Fraction(v) for v in row) for row in bent), name
                continue
            failures += 1
            with pytest.raises(CocycleLawFails) as caught:
                validate_cocycle(rack, bent)
            assert caught.value.args == (want,), (name, x, y)
    assert failures > 80


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
