"""Exact integer linear algebra for exponent-lattice questions.

Hand-rolled rather than numpy/sympy: the lattices here are tiny and the
arithmetic must be exact over arbitrary-size integers.  One elimination,
`_column_hermite`, is behind solving, rank, relations and unimodular
completion.  A `Lattice` runs it once per column set and keeps the
result; each target is then solved against that state, so a caller with
fixed columns (an edge side's subgroup generators, a presentation's
relators) factors them once and solves per target.
"""

from __future__ import annotations

from typing import Optional, Sequence

Vector = tuple[int, ...]


def _column_hermite(cols: list[list[int]], m: int) -> list[tuple[int, int]]:
    """Column-style Hermite reduction of rows 0..m-1, in place.

    Column operations act on whole columns, so rows stacked below row m
    (an identity block) record each work column as an integer
    combination of the input columns.  Returns the pivots as
    (row, column index); every other column ends zero in rows 0..m-1, so
    its tracked combination is a relation of the input columns.
    """
    pivots: list[tuple[int, int]] = []
    used: set[int] = set()
    for row in range(m):
        # zero out row entries across unused columns until one pivot remains
        while True:
            nz = [j for j in range(len(cols)) if j not in used and cols[j][row] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda j: abs(cols[j][row]))
            p, q = cols[nz[0]], cols[nz[1]]
            f = q[row] // p[row]
            for r in range(len(q)):
                q[r] -= f * p[r]
        if nz:
            used.add(nz[0])
            pivots.append((row, nz[0]))
    return pivots


class Lattice:
    """The integer lattice spanned by fixed columns of length m, factored
    once: one tracked elimination keeps the reduced columns, with their
    combinations of the input columns below row m, and the pivots.
    `solve` reads that state for each target and leaves it unchanged."""

    def __init__(self, columns: Sequence[Vector], m: int):
        n = len(columns)
        for c in columns:
            if len(c) != m:
                raise ValueError("column/target dimension mismatch")
        self.m = m
        self.cols = [list(c) + [1 if i == j else 0 for i in range(n)]
                     for j, c in enumerate(columns)]
        self.pivots = _column_hermite(self.cols, m)

    def solve(self, target: Vector) -> Optional[tuple[int, ...]]:
        """A solution x of sum_j x_j * columns[j] == target, or None when
        target is outside the lattice."""
        m, cols = self.m, self.cols
        if len(target) != m:
            raise ValueError("column/target dimension mismatch")
        t = list(target)
        x = [0] * len(cols)
        for row, j in self.pivots:
            if t[row] % cols[j][row] != 0:
                return None
            f = t[row] // cols[j][row]
            for r in range(m):
                t[r] -= f * cols[j][r]
            for r in range(len(x)):
                x[r] += f * cols[j][m + r]
        return None if any(t) else tuple(x)

    def relations(self) -> list[Vector]:
        """A basis of the relations r, sum_j r_j * columns[j] == 0: the
        tracked combinations of the columns without a pivot, n - rank of
        them."""
        pivot_cols = {j for _, j in self.pivots}
        return [tuple(c[self.m:]) for j, c in enumerate(self.cols) if j not in pivot_cols]


def solve_int_linear(columns: Sequence[Vector], target: Vector) -> Optional[tuple[int, ...]]:
    """Solve sum_j x_j * columns[j] == target over the integers.

    Returns one solution vector x, or None when target is outside the
    lattice spanned by the columns.
    """
    return Lattice(columns, len(target)).solve(target)


def lattice_rank(columns: Sequence[Vector]) -> int:
    """Rank of the integer lattice spanned by the columns."""
    if not columns:
        return 0
    return len(Lattice(columns, len(columns[0])).pivots)


def unimodular_with_first_row_image(v: Vector) -> list[list[int]]:
    """A unimodular matrix M with M @ v == (g, 0, ..., 0), g = gcd(v) > 0,
    and det M = +1 when len(v) >= 2 (for len(v) == 1, M = [[sign of v]]).

    Used to complete a primitive vector to a lattice basis.  One
    elimination of v as a one-row matrix: row 0 is the pivot's tracked
    combination, the other rows are the relations of v.
    """
    n = len(v)
    if n == 0 or all(c == 0 for c in v):
        raise ValueError("need a nonzero vector")
    L = Lattice([(c,) for c in v], 1)
    cols, [(_, p)] = L.cols, L.pivots
    M = [cols[p][1:]] + [cols[j][1:] for j in range(n) if j != p]
    # the reduction only adds multiples of columns, so det M is the sign
    # of moving row p to the front; turning g positive flips it once more
    negative = cols[p][0] < 0
    if negative:
        M[0] = [-x for x in M[0]]
    if n >= 2 and (p % 2 == 1) != negative:
        M[1] = [-x for x in M[1]]
    return M
