"""Rack-type braidings and quantum symmetrizers.

Two flavors of braiding on the free vector space with basis indexed by a
rack X with 2-cocycle q:

    V:  c(v_x (x) v_y) = q[x][y] * v_{x>y} (x) v_x
    W:  c(w_x (x) w_y) = q[y][x] * w_y (x) w_{y>x}

Both send basis tensors to scalar multiples of basis tensors, so operators
built from them are tracked as (target tuple, coefficient) walks and only
materialized as matrices at the end.
"""

from fractions import Fraction
from itertools import permutations

from .linalg import RatMatrix, rank_bareiss


class DegreeBudgetExceeded(Exception):
    """Requested tensor degree would blow the matrix-size budget."""


MATRIX_ROW_BUDGET = 10**7


class BraidedSpace:
    """A rack-type braiding, stored as its action on basis pairs."""

    __slots__ = ("n", "flavor", "pair_map")

    def __init__(self, n, flavor, pair_map):
        self.n = n
        self.flavor = flavor
        self.pair_map = pair_map  # (x, y) -> ((a, b), Fraction)

    def apply_pair(self, x, y):
        return self.pair_map[(x, y)]

    def is_invertible(self):
        """The induced map on basis pairs must be a bijection with
        nonzero coefficients."""
        targets = set()
        for (x, y), ((a, b), coeff) in self.pair_map.items():
            if coeff == 0:
                return False
            targets.add((a, b))
        return len(targets) == self.n * self.n


def make_braiding(rack, cocycle, flavor):
    if cocycle.rack != rack:
        raise ValueError("cocycle is defined on a different rack")
    if flavor not in ("V", "W"):
        raise ValueError("flavor must be 'V' or 'W'")
    n = rack.n
    pair_map = {}
    for x in range(n):
        for y in range(n):
            if flavor == "V":
                pair_map[(x, y)] = ((rack.act(x, y), x), cocycle(x, y))
            else:
                pair_map[(x, y)] = ((y, rack.act(y, x)), cocycle(y, x))
    return BraidedSpace(n, flavor, pair_map)


def _apply_slot(space, tensor, coeff, slot):
    """Apply c on tensor slots (slot, slot+1) to a scaled basis tensor."""
    (a, b), q = space.apply_pair(tensor[slot], tensor[slot + 1])
    return tensor[:slot] + (a, b) + tensor[slot + 2:], coeff * q


def apply_word(space, word, tensor):
    """Apply c_{i_1} ... c_{i_k} to a basis tensor, rightmost letter first.

    Returns (target tensor, coefficient).
    """
    coeff = Fraction(1)
    for slot in reversed(word):
        tensor, coeff = _apply_slot(space, tensor, coeff, slot)
    return tensor, coeff


def check_braid_equation(space):
    """(c x 1)(1 x c)(c x 1) = (1 x c)(c x 1)(1 x c) on all basis triples."""
    n = space.n
    for x in range(n):
        for y in range(n):
            for z in range(n):
                t = (x, y, z)
                lhs = apply_word(space, (0, 1, 0), t)
                rhs = apply_word(space, (1, 0, 1), t)
                if lhs != rhs:
                    return False
    return True


def reduced_word_leftmost(w):
    """Reduced word for the permutation w via leftmost-descent bubble sort."""
    seq = list(w)
    swaps = []
    m = len(seq)
    done = False
    while not done:
        done = True
        for i in range(m - 1):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                swaps.append(i)
                done = False
                break
    return tuple(reversed(swaps))


def reduced_word_rightmost(w):
    """Same element, generally a different reduced word (rightmost descent)."""
    seq = list(w)
    swaps = []
    m = len(seq)
    done = False
    while not done:
        done = True
        for i in range(m - 2, -1, -1):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                swaps.append(i)
                done = False
                break
    return tuple(reversed(swaps))


def _tensor_index(tensor, n):
    idx = 0
    for x in tensor:
        idx = idx * n + x
    return idx


def _all_tensors(n, m):
    if m == 0:
        yield ()
        return
    tensor = [0] * m
    while True:
        yield tuple(tensor)
        k = m - 1
        while k >= 0 and tensor[k] == n - 1:
            tensor[k] = 0
            k -= 1
        if k < 0:
            return
        tensor[k] += 1


def quantum_symmetrizer(space, m):
    """Sum of braid-group lifts of all permutations in S_m, as a matrix.

    Each permutation is lifted through a reduced word; the braid equation
    makes the lift word-independent, which is asserted for m <= 4 by
    computing the walk twice with different reduced words.
    """
    n = space.n
    if m < 0:
        raise ValueError("degree must be nonnegative")
    size = n**m
    if size > MATRIX_ROW_BUDGET:
        raise DegreeBudgetExceeded(f"n^m = {size} rows over budget")
    if m == 0:
        return RatMatrix(1, 1, {(0, 0): Fraction(1)})
    entries = {}
    words = []
    for w in permutations(range(m)):
        word = reduced_word_leftmost(w)
        alt = reduced_word_rightmost(w) if m <= 4 else None
        words.append((word, alt))
    for tensor in _all_tensors(n, m):
        col = _tensor_index(tensor, n)
        for word, alt in words:
            target, coeff = apply_word(space, word, tensor)
            if alt is not None and alt != word:
                assert apply_word(space, alt, tensor) == (target, coeff)
            key = (_tensor_index(target, n), col)
            acc = entries.get(key, Fraction(0)) + coeff
            if acc == 0:
                entries.pop(key, None)
            else:
                entries[key] = acc
    return RatMatrix(size, size, entries)


def nichols_dim_oracle(space, max_deg):
    """Per-degree ranks of the quantum symmetrizers.

    When the ranks reach 0 by max_deg the total is the dimension of the
    quotient of the tensor algebra by all symmetrizer kernels; otherwise
    the result is flagged truncated.
    """
    dims = []
    truncated = True
    for m in range(max_deg + 1):
        if space.n**m > MATRIX_ROW_BUDGET:
            raise DegreeBudgetExceeded(
                f"degree {m} needs {space.n**m} rows, over budget"
            )
        r = rank_bareiss(quantum_symmetrizer(space, m))
        dims.append(r)
        if r == 0:
            truncated = False
            break
    return {"dims": dims, "total": sum(dims), "truncated": truncated}
