"""Rack-type braidings and quantum symmetrizers.

Two flavors of braiding on the free vector space with basis indexed by a
rack X with 2-cocycle q:

    V:  c(v_x (x) v_y) = q[x][y] * v_{x>y} (x) v_x
    W:  c(w_x (x) w_y) = q[y][x] * w_y (x) w_{y>x}

Both send basis tensors to scalar multiples of basis tensors, so operators
built from them are tracked as (target tuple, coefficient) walks, with the
cocycle's exact scalars (ints where integral) as coefficients, and only
materialized as matrices at the end.  The quantum symmetrizers follow the
recursion over minimal coset representatives (Andruskiewitsch-Grana 1999),
rightmost factor first,

    S_m = (1 + c_{m-1} + c_{m-2} c_{m-1} + ... + c_1 ... c_{m-1})
          o (S_{m-1} (x) id),

which equals the sum of the Matsumoto lifts of all permutations only when
c satisfies the braid equation; from degree 3 on that is checked first.
"""

from itertools import count, islice, product

from .exactnum import BudgetExceeded
from .linalg import RatMatrix, rank_bareiss


class DegreeBudgetExceeded(BudgetExceeded):
    """Requested tensor degree would blow the matrix-size budget."""


MATRIX_ROW_BUDGET = 10**7


class BraidedSpace:
    """A rack-type braiding, stored as its action on basis pairs."""

    __slots__ = ("n", "flavor", "pair_map")

    def __init__(self, n, flavor, pair_map):
        self.n = n
        self.flavor = flavor
        self.pair_map = pair_map  # (x, y) -> ((a, b), exact scalar)

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


def _apply_slot(pairs, tensor, coeff, slot):
    """Apply c, given by its pair map, on slots (slot, slot+1) of a scaled
    basis tensor."""
    ab, q = pairs[tensor[slot], tensor[slot + 1]]
    return tensor[:slot] + ab + tensor[slot + 2:], coeff * q


def apply_word(space, word, tensor):
    """Apply c_{i_1} ... c_{i_k} to a basis tensor, rightmost letter first.

    Returns (target tensor, coefficient).
    """
    coeff = 1
    for slot in reversed(word):
        tensor, coeff = _apply_slot(space.pair_map, tensor, coeff, slot)
    return tensor, coeff


def check_braid_equation(space):
    """(c x 1)(1 x c)(c x 1) = (1 x c)(c x 1)(1 x c) on all basis triples."""
    return all(
        apply_word(space, (0, 1, 0), t) == apply_word(space, (1, 0, 1), t)
        for t in product(range(space.n), repeat=3)
    )


def _symmetrizer_columns(space):
    """Yield the columns of S_0, S_1, ... in turn, by the recursion of the
    module docstring with c_i on slots (i-1, i), counted from 0.

    Column t of S_m ({target tensor: coefficient}) comes from column t[:-1]
    of S_{m-1}: each entry v gives u = v + (t[-1],), then c_{m-1}, ..., c_1
    act on u in turn, every step adding one term.  Before degree 3 the
    braid equation is checked; a failure raises ValueError.
    """
    n, pairs = space.n, space.pair_map
    cols = [{(): 1}]
    for m in count(1):
        yield cols
        if m == 3 and not check_braid_equation(space):
            raise ValueError("the braiding fails the braid equation")
        below = cols
        cols = []
        for col, tensor in enumerate(product(range(n), repeat=m)):
            column = {}
            last = tensor[-1:]
            for v, coeff in below[col // n].items():
                u = v + last
                column[u] = column.get(u, 0) + coeff
                for slot in range(m - 2, -1, -1):
                    u, coeff = _apply_slot(pairs, u, coeff, slot)
                    column[u] = column.get(u, 0) + coeff
            cols.append({u: c for u, c in column.items() if c != 0})


def _matrix(cols, n):
    """Columns as a matrix; a tensor's index is its base-n value."""
    entries = {}
    for col, column in enumerate(cols):
        for target, coeff in column.items():
            row = 0
            for x in target:
                row = row * n + x
            entries[(row, col)] = coeff
    return RatMatrix(len(cols), len(cols), entries)


def quantum_symmetrizer(space, m):
    """The quantum symmetrizer S_m as an n^m x n^m matrix.

    S_m is the sum of the Matsumoto lifts of all permutations of m
    letters.  It is built by the recursion of the module docstring, which
    rests on the braid equation: from m = 3 on, a space that fails it
    raises ValueError.
    """
    if m < 0:
        raise ValueError("degree must be nonnegative")
    size = space.n**m
    if size > MATRIX_ROW_BUDGET:
        raise DegreeBudgetExceeded(f"n^m = {size} rows over budget")
    cols = next(islice(_symmetrizer_columns(space), m, None))
    return _matrix(cols, space.n)


def nichols_dim_oracle(space, max_deg):
    """Per-degree ranks of the quantum symmetrizers.

    Each S_m is built once, from S_{m-1}, so from degree 3 on the space
    must satisfy the braid equation (ValueError otherwise).  When the
    ranks reach 0 by max_deg the total is the dimension of the quotient
    of the tensor algebra by all symmetrizer kernels; otherwise the
    result is flagged truncated.
    """
    dims = []
    truncated = True
    columns = _symmetrizer_columns(space)
    for m in range(max_deg + 1):
        if space.n**m > MATRIX_ROW_BUDGET:
            raise DegreeBudgetExceeded(
                f"degree {m} needs {space.n**m} rows, over budget"
            )
        r = rank_bareiss(_matrix(next(columns), space.n))
        dims.append(r)
        if r == 0:
            truncated = False
            break
    return {"dims": dims, "total": sum(dims), "truncated": truncated}
