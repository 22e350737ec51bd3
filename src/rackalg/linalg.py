"""Exact rational matrices: rank, reduced echelon form, kernel bases.

One elimination serves them all.  `_echelon` clears each row of denominators
and reduces it against the pivot rows found so far, dividing by the gcd of
its entries after each step: integers throughout, and a sparse row stays
sparse.  The rank is the pivot count; `rref` back-substitutes over the pivot
rows, and kernels and row spaces are read off its canonical form.
`rank_bareiss` keeps the name of the Bareiss elimination it once ran because
the benchmark harness calls and traces it.  Entries are exact scalars,
ints where integral, and a float raises TypeError; `rref` and
`nullspace_basis` return Fractions, their entries being pivot quotients.
"""

from fractions import Fraction
from math import gcd, lcm

from .exactnum import scalar


class RatMatrix:
    """Sparse map-of-entries matrix over Q; its entries are exact scalars."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries=None):
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (i, j), v in entries.items():
                v = scalar(v)
                if v != 0:
                    assert 0 <= i < rows and 0 <= j < cols
                    self.entries[(i, j)] = v

    def dense(self):
        m = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            m[i][j] = v
        return m

    def __eq__(self, other):
        return (
            isinstance(other, RatMatrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )


def _rows(matrix):
    """(width, rows) of a RatMatrix or of dense rows; each row is a dict
    {column: scalar} of its nonzero entries."""
    if isinstance(matrix, RatMatrix):
        rows = [{} for _ in range(matrix.rows)]
        for (i, j), v in matrix.entries.items():
            rows[i][j] = v
        return matrix.cols, rows
    rows = [{j: v for j, v in enumerate(map(scalar, r)) if v} for r in matrix]
    return (len(matrix[0]) if matrix else 0), rows


def _reduce(row, piv, col):
    """row <- a*row - b*piv with a, b coprime, clearing row[col]."""
    g = gcd(piv[col], row[col])
    a, b = piv[col] // g, row[col] // g
    if a != 1:
        for j in row:
            row[j] *= a
    for j, v in piv.items():
        w = row.get(j, 0) - b * v
        if w:
            row[j] = w
        else:
            del row[j]
    if (g := gcd(*row.values())) > 1:
        for j in row:
            row[j] //= g


def _echelon(rows):
    """Pivot column -> integer row {column: int}, together spanning the
    row space of `rows`; a pivot row's first nonzero column is its pivot."""
    pivots = {}
    for row in rows:
        scale = lcm(*(v.denominator for v in row.values()))
        row = {j: int(v * scale) for j, v in row.items()}
        while row and (col := min(row)) in pivots:
            _reduce(row, pivots[col], col)
        if row:
            pivots[col] = row
    return pivots


def rank_bareiss(matrix):
    """Exact rank of a RatMatrix or of dense rows of ints and Fractions."""
    return len(_echelon(_rows(matrix)[1]))


def rref(matrix):
    """Reduced row echelon form over Q: (rows, pivot_cols).  Only nonzero
    rows come back, each a list of Fractions whose pivot is 1 and the only
    nonzero entry of its column."""
    width, rows = _rows(matrix)
    echelon = _echelon(rows)
    pivots = sorted(echelon)
    for c in reversed(pivots):
        row = echelon[c]
        for k in [k for k in row if k != c and k in echelon]:
            _reduce(row, echelon[k], k)
    return [
        [Fraction(echelon[c].get(j, 0), echelon[c][c]) for j in range(width)]
        for c in pivots
    ], pivots


def nullspace_basis(matrix):
    """Canonical kernel basis of a RatMatrix or of dense rows over Q: one
    vector per free column, in increasing order, with that coordinate 1 and
    the pivot coordinates read off the RREF.  `RatMatrix(0, n)` has width n.
    """
    rows, pivots = rref(matrix)
    if isinstance(matrix, RatMatrix):
        width = matrix.cols
    else:
        width = len(matrix[0]) if matrix else 0
    basis = []
    for free in sorted(set(range(width)) - set(pivots)):
        vec = [Fraction(0)] * width
        vec[free] = Fraction(1)
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[free]
        basis.append(vec)
    return basis


def row_space_equal(rows_a, rows_b):
    """Exact equality of row spaces via canonical RREFs."""
    return rref(rows_a)[0] == rref(rows_b)[0]
