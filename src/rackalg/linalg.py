"""Exact rational matrices: rank, reduced echelon form, kernel bases.

Rank goes through fraction-free (Bareiss) integer elimination after clearing
denominators row by row.  Kernel bases come from a Fraction RREF and are
canonical: reduced echelon form with pivots in increasing column order, one
kernel vector per free column, free coordinate set to 1.
"""

from fractions import Fraction
from math import gcd


class RatMatrix:
    """Sparse map-of-entries matrix over Q."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries=None):
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (i, j), v in entries.items():
                v = Fraction(v)
                if v != 0:
                    assert 0 <= i < rows and 0 <= j < cols
                    self.entries[(i, j)] = v

    def dense(self):
        m = [[Fraction(0)] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            m[i][j] = v
        return m

    def __eq__(self, other):
        return (
            isinstance(other, RatMatrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )


def _int_rows(dense):
    """Scale each row by the lcm of denominators: same row space over Q."""
    out = []
    for row in dense:
        scale = 1
        for v in row:
            d = v.denominator
            scale = scale * d // gcd(scale, d)
        out.append([int(v * scale) for v in row])
    return out


def rank_bareiss(matrix):
    """Exact rank via fraction-free elimination with column pivoting.

    Accepts a RatMatrix or a dense list of Fraction/int rows.
    """
    if isinstance(matrix, RatMatrix):
        if not matrix.entries:
            return 0
        dense = matrix.dense()
    else:
        dense = [[Fraction(v) for v in row] for row in matrix]
        if not dense:
            return 0
    m = _int_rows(dense)
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        piv = None
        for r in range(row, nrows):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        if piv != row:
            m[row], m[piv] = m[piv], m[row]
        pv = m[row][col]
        for r in range(row + 1, nrows):
            mr = m[r]
            f = mr[col]
            if f == 0 and pv == prev:
                continue
            mrow = m[row]
            for c in range(col, ncols):
                mr[c] = (pv * mr[c] - f * mrow[c]) // prev
        prev = pv
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def rref(dense):
    """Reduced row echelon form over Q.  Returns (rows, pivot_cols).

    Only the nonzero rows are returned, each a list of Fractions; pivots are
    1 and are the only nonzero entries in their columns.
    """
    m = [[Fraction(v) for v in row] for row in dense]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    row = 0
    for col in range(ncols):
        piv = None
        for r in range(row, nrows):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        pv = m[row][col]
        m[row] = [v / pv for v in m[row]]
        for r in range(nrows):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return m[:row], pivots


def nullspace_basis(dense, ncols=None):
    """Canonical kernel basis of a matrix given as dense rows over Q.

    One vector per free column (in increasing column order), with the free
    coordinate 1 and pivot coordinates solved from the RREF.
    """
    if not dense:
        if ncols is None:
            return []
        return [
            [Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)
        ]
    ncols = len(dense[0])
    rows, pivots = rref(dense)
    pivset = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivset:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][free]
        basis.append(vec)
    return basis


def row_space_equal(rows_a, rows_b):
    """Exact equality of row spaces via canonical RREFs."""
    ra = rref(rows_a)[0] if rows_a else []
    rb = rref(rows_b)[0] if rows_b else []
    return ra == rb

