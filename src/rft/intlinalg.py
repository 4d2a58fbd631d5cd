"""Exact integer linear algebra for exponent-lattice questions.

Hand-rolled rather than numpy/sympy: the lattices here are tiny and the
arithmetic must be exact over arbitrary-size integers.  One elimination,
`_column_hermite`, is behind solving, rank, relations and unimodular
completion.
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


def _eliminate(columns: Sequence[Vector], target: Vector):
    """One tracked elimination of the columns: the reduced columns with
    their tracked combinations below row m, the pivots, and a solution x of
    sum_j x_j * columns[j] == target or None."""
    n, m = len(columns), len(target)
    for c in columns:
        if len(c) != m:
            raise ValueError("column/target dimension mismatch")
    cols = [list(c) + [1 if i == j else 0 for i in range(n)] for j, c in enumerate(columns)]
    pivots = _column_hermite(cols, m)
    t = list(target)
    x = [0] * n
    for row, j in pivots:
        if t[row] % cols[j][row] != 0:
            return cols, pivots, None
        f = t[row] // cols[j][row]
        for r in range(m):
            t[r] -= f * cols[j][r]
        for r in range(n):
            x[r] += f * cols[j][m + r]
    return cols, pivots, None if any(t) else tuple(x)


def solve_int_linear(columns: Sequence[Vector], target: Vector) -> Optional[tuple[int, ...]]:
    """Solve sum_j x_j * columns[j] == target over the integers.

    Returns one solution vector x, or None when target is outside the
    lattice spanned by the columns.
    """
    return _eliminate(columns, target)[2]


def solve_with_relations(
    columns: Sequence[Vector], target: Vector
) -> Optional[tuple[Vector, list[Vector]]]:
    """A solution x of sum_j x_j * columns[j] == target and a basis of the
    relations r, sum_j r_j * columns[j] == 0 (n - rank of them), read off
    one elimination; None when target is outside the lattice.
    """
    cols, pivots, x = _eliminate(columns, target)
    if x is None:
        return None
    pivot_cols = {j for _, j in pivots}
    m = len(target)
    return x, [tuple(c[m:]) for j, c in enumerate(cols) if j not in pivot_cols]


def lattice_rank(columns: Sequence[Vector]) -> int:
    """Rank of the integer lattice spanned by the columns."""
    if not columns:
        return 0
    return len(_column_hermite([list(c) for c in columns], len(columns[0])))


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
    cols, [(_, p)], _ = _eliminate([(c,) for c in v], (0,))
    M = [cols[p][1:]] + [cols[j][1:] for j in range(n) if j != p]
    # the reduction only adds multiples of columns, so det M is the sign
    # of moving row p to the front; turning g positive flips it once more
    negative = cols[p][0] < 0
    if negative:
        M[0] = [-x for x in M[0]]
    if n >= 2 and (p % 2 == 1) != negative:
        M[1] = [-x for x in M[1]]
    return M
