import itertools
from fractions import Fraction

import pytest

from rackalg.braided import (
    BraidedSpace,
    check_braid_equation,
    make_braiding,
    nichols_dim_oracle,
    quantum_symmetrizer,
)
from rackalg.catalog import builtin_cocycle, builtin_rack
from rackalg.cocycle import constant_cocycle
from rackalg.linalg import RatMatrix, nullspace_basis, rank_bareiss
from rackalg.rack import dihedral_rack


def test_builtin_spaces_satisfy_braid_equation(s4_families):
    for name, spec, rack, q in s4_families:
        for flavor in ("V", "W"):
            space = make_braiding(rack, q, flavor)
            assert check_braid_equation(space), (name, spec, flavor)
            assert space.is_invertible()


def _o23_space():
    rack, _ = builtin_rack("o23")
    return make_braiding(rack, builtin_cocycle("o23", "const:-1"), "V")


def _doctored_o23_space():
    """o23 with the images of (0, 1) and (1, 0) swapped: not braided."""
    space = _o23_space()
    bad = dict(space.pair_map)
    bad[(0, 1)], bad[(1, 0)] = bad[(1, 0)], bad[(0, 1)]
    return BraidedSpace(space.n, "V", bad)


def test_doctored_pair_map_fails():
    assert not check_braid_equation(_doctored_o23_space())


def test_flavors_differ_on_transpositions():
    rack, _ = builtin_rack("o24")
    q = builtin_cocycle("o24", "chi")
    v = make_braiding(rack, q, "V")
    w = make_braiding(rack, q, "W")
    assert v.pair_map != w.pair_map
    # both braid the pair (x, x) to itself with the diagonal value
    for x in range(rack.n):
        assert v.apply_pair(x, x) == ((x, x), Fraction(-1))
        assert w.apply_pair(x, x) == ((x, x), Fraction(-1))


def test_quadratic_kernel_dimension_is_17(s4_families):
    for name, spec, rack, q in s4_families:
        for flavor in ("V", "W"):
            space = make_braiding(rack, q, flavor)
            sym2 = quantum_symmetrizer(space, 2)
            kern = nullspace_basis(sym2.dense())
            assert len(kern) == 17, (name, spec, flavor)


def test_three_element_quotient_dimension_and_ranks():
    rack, _ = builtin_rack("o23")
    q = builtin_cocycle("o23", "const:-1")
    space = make_braiding(rack, q, "V")
    report = nichols_dim_oracle(space, 6)
    assert report["total"] == 12
    assert not report["truncated"]
    # per-degree ranks are the coefficients of the Hilbert series
    assert report["dims"] == [1, 3, 4, 3, 1, 0]


def test_symmetrizer_degree_zero_and_one():
    rack, _ = builtin_rack("o23")
    q = builtin_cocycle("o23", "const:-1")
    space = make_braiding(rack, q, "V")
    assert rank_bareiss(quantum_symmetrizer(space, 0).dense()) == 1
    assert rank_bareiss(quantum_symmetrizer(space, 1).dense()) == 3


def test_braid_equation_for_dihedral_with_constant_cocycle():
    rack = dihedral_rack(5)
    q = constant_cocycle(rack, Fraction(-1))
    for flavor in ("V", "W"):
        assert check_braid_equation(make_braiding(rack, q, flavor))


def _reference_symmetrizer(space, m):
    """Sum over all permutations of m letters of the lift walked through
    one reduced word (bubble sort), independent of the recursion."""
    n = space.n
    entries = {}
    for w in itertools.permutations(range(m)):
        seq, word = list(w), []
        while seq != sorted(seq):
            i = next(i for i in range(m - 1) if seq[i] > seq[i + 1])
            seq[i], seq[i + 1] = seq[i + 1], seq[i]
            word.append(i)
        for col, tensor in enumerate(itertools.product(range(n), repeat=m)):
            coeff = Fraction(1)
            for i in word:
                (a, b), q = space.apply_pair(tensor[i], tensor[i + 1])
                tensor = tensor[:i] + (a, b) + tensor[i + 2:]
                coeff *= q
            row = sum(x * n**k for k, x in enumerate(reversed(tensor)))
            entries[(row, col)] = entries.get((row, col), 0) + coeff
    return RatMatrix(n**m, n**m, entries)


def _reference_cases(s4_families):
    for name, spec, rack, q in s4_families:
        for flavor in ("V", "W"):
            yield (name, spec, flavor), make_braiding(rack, q, flavor), 4
    yield "o23", _o23_space(), 5
    d5 = dihedral_rack(5)
    yield "D5", make_braiding(d5, constant_cocycle(d5, Fraction(-1)), "V"), 4


def test_symmetrizer_recursion_matches_permutation_sum(s4_families):
    for label, space, top in _reference_cases(s4_families):
        for m in range(top + 1):
            assert quantum_symmetrizer(space, m) == _reference_symmetrizer(
                space, m
            ), (label, m)


@pytest.mark.parametrize("m", [3, 5])
def test_non_braided_space_raises_value_error(m):
    with pytest.raises(ValueError, match="braid equation"):
        quantum_symmetrizer(_doctored_o23_space(), m)


def test_non_braided_space_builds_degree_two_and_oracle_raises():
    bad = _doctored_o23_space()
    assert quantum_symmetrizer(bad, 2).rows == 9
    with pytest.raises(ValueError, match="braid equation"):
        nichols_dim_oracle(bad, 3)
