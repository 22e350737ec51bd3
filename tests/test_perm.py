from hypothesis import given
from hypothesis import strategies as st

from rackalg import perm
from rackalg.catalog import symmetric_permgroup

perms5 = st.permutations(range(5)).map(tuple)


def test_identity_and_compose():
    e = perm.identity(4)
    p = perm.from_cycles(4, [(1, 2, 3)])
    assert perm.compose(e, p) == p
    assert perm.compose(p, e) == p
    # apply q first, then p
    q = perm.from_cycles(4, [(3, 4)])
    pq = perm.compose(p, q)
    for i in range(4):
        assert pq[i] == p[q[i]]


def test_from_cycles_and_notation_round_trip():
    p = perm.from_cycles(4, [(1, 2), (3, 4)])
    assert perm.cycle_notation(p) == "(12)(34)"
    assert perm.cycle_notation(perm.identity(3)) == "e"
    c4 = perm.from_cycles(4, [(1, 2, 3, 4)])
    assert perm.cycle_notation(c4) == "(1234)"
    assert c4[0] == 1 and c4[3] == 0


def test_sign_values():
    assert perm.sign(perm.identity(6)) == 1
    assert perm.sign(perm.from_cycles(4, [(1, 2)])) == -1
    assert perm.sign(perm.from_cycles(4, [(1, 2, 3, 4)])) == -1
    assert perm.sign(perm.from_cycles(4, [(1, 2), (3, 4)])) == 1


def test_symmetric_group_sizes():
    assert len(perm.symmetric_group(1)) == 1
    assert len(perm.symmetric_group(3)) == 6
    assert len(perm.symmetric_group(4)) == 24
    assert perm.symmetric_group(4) == sorted(perm.symmetric_group(4))


def test_mulclose_transpositions_generate():
    gens = [perm.from_cycles(4, [(1, 2)]), perm.from_cycles(4, [(1, 2, 3, 4)])]
    assert len(perm.mulclose(gens)) == 24
    assert len(perm.mulclose([perm.from_cycles(4, [(1, 2), (3, 4)])])) == 2


def test_symmetric_permgroup_of_degree_three():
    g = symmetric_permgroup(3)
    assert len(g) == 6
    assert g.identity == (0, 1, 2)
    a = perm.from_cycles(3, [(1, 2)])
    b = perm.from_cycles(3, [(1, 2, 3)])
    assert g.mul(a, a) == g.identity
    assert g.inv(b) == perm.inverse(b)
    assert a in g and (0, 1) not in g


def test_conjugate_is_group_conjugation():
    g = perm.from_cycles(4, [(1, 2, 3)])
    x = perm.from_cycles(4, [(1, 4)])
    want = perm.compose(g, perm.compose(x, perm.inverse(g)))
    assert perm.conjugate(g, x) == want


@given(perms5, perms5, perms5)
def test_compose_associative(p, q, r):
    assert perm.compose(perm.compose(p, q), r) == perm.compose(p, perm.compose(q, r))


@given(perms5)
def test_inverse_cancels(p):
    e = perm.identity(5)
    assert perm.compose(p, perm.inverse(p)) == e
    assert perm.compose(perm.inverse(p), p) == e


@given(perms5, perms5)
def test_sign_multiplicative(p, q):
    assert perm.sign(perm.compose(p, q)) == perm.sign(p) * perm.sign(q)
