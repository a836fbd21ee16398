"""Exact linear algebra over Gaussian rationals.

Determinants use Gaussian elimination over Q(i) that skips zero entries.
The large determinants here are the sparse 55x55 to 69x69 witness
matrices, whose values are small (-1/69 - 9/68 i for typeI:4,4) while
the Hadamard bound of the row-scaled integer matrix is 2,300-2,700 bits.
Fraction-free Bareiss pays for that bound: on those matrices it took
1.0-1.4 s each, against 0.01-0.02 s for elimination over Q(i) (2-vCPU Xeon
VM, Python 3.11).

Ranks are tracked incrementally on rows scaled to Gaussian-integer entries
(pairs of Python ints, read off the entries' canonical triples).
"""

from __future__ import annotations

from math import gcd
from typing import List, Sequence

from .gauss import GaussRational, ONE, ZERO

# A Gaussian integer is a plain (int, int) pair.
GInt = tuple


def _scale_row(row: Sequence[GaussRational]) -> List[GInt]:
    """The row times the lcm of its denominators (the d's), as Gaussian integers."""
    parts = [x.parts() for x in row]
    scale = 1
    for _, _, d in parts:
        if scale % d:
            scale = scale // gcd(scale, d) * d
    return [(a * (scale // d), b * (scale // d)) for a, b, d in parts]


def _row_content(row: List[GInt]) -> int:
    g = 0
    for a, b in row:
        g = gcd(g, abs(a))
        g = gcd(g, abs(b))
        if g == 1:
            return 1
    return g or 1


def det_exact(matrix: Sequence[Sequence[GaussRational]]) -> GaussRational:
    """Exact determinant by Gaussian elimination over Q(i)."""
    n = len(matrix)
    rows = [[GaussRational.coerce(x) for x in r] for r in matrix]
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    det = ONE
    for k in range(n):
        piv = next((i for i in range(k, n) if not rows[i][k].is_zero()), None)
        if piv is None:
            return ZERO
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            det = -det
        top = rows[k]
        det = det * top[k]
        inv = ONE / top[k]
        support = [j for j in range(k + 1, n) if not top[j].is_zero()]
        for i in range(k + 1, n):
            row = rows[i]
            if row[k].is_zero():
                continue
            f = row[k] * inv
            for j in support:
                row[j] = row[j] - f * top[j]
    return det


class RankTracker:
    """Incremental exact rank of a growing set of rows.

    Rows are stored as content-reduced Gaussian-integer vectors in echelon
    form (each with a recorded pivot column).  ``add_row`` returns True when
    the row enlarged the span.
    """

    def __init__(self, width: int):
        self.width = width
        self.rows: List[List[GInt]] = []
        self.pivots: List[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add_row(self, row: Sequence[GaussRational]) -> bool:
        vec = _scale_row([GaussRational.coerce(x) for x in row])
        for brow, p in zip(self.rows, self.pivots):
            if vec[p] == (0, 0):
                continue
            # vec <- a*vec - b*brow clears column p (a = brow[p], b = vec[p])
            (a0, a1), (b0, b1) = brow[p], vec[p]
            vec = [(a0 * v0 - a1 * v1 - b0 * w0 + b1 * w1,
                    a0 * v1 + a1 * v0 - b0 * w1 - b1 * w0)
                   for (v0, v1), (w0, w1) in zip(vec, brow)]
        pivot = next((j for j, x in enumerate(vec) if x != (0, 0)), None)
        if pivot is None:
            return False
        c = _row_content(vec)
        if c > 1:
            vec = [(a // c, b // c) for a, b in vec]
        self.rows.append(vec)
        self.pivots.append(pivot)
        return True


def rank_exact(matrix: Sequence[Sequence[GaussRational]]) -> int:
    if not matrix:
        return 0
    tracker = RankTracker(len(matrix[0]))
    for row in matrix:
        tracker.add_row(row)
    return tracker.rank

