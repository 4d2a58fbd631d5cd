"""Exact integer linear algebra for exponent-lattice questions.

Hand-rolled rather than numpy/sympy: the lattices here are tiny and the
arithmetic must be exact over arbitrary-size integers.
"""

from __future__ import annotations

from typing import Optional, Sequence

Vector = tuple[int, ...]


def _column_hermite(cols: list[list[int]], m: int) -> list[tuple[int, int]]:
    """Column-style Hermite reduction of rows 0..m-1, in place.

    Column operations act on whole columns, so rows stacked below row m
    (an identity block) record each work column as an integer
    combination of the input columns.  Returns the pivots as
    (row, column index).
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


def solve_int_linear(columns: Sequence[Vector], target: Vector) -> Optional[tuple[int, ...]]:
    """Solve sum_j x_j * columns[j] == target over the integers.

    Returns one solution vector x, or None when target is outside the
    lattice spanned by the columns.  Column-style Hermite reduction with
    the transformation matrix tracked below the columns.
    """
    n = len(columns)
    m = len(target)
    for c in columns:
        if len(c) != m:
            raise ValueError("column/target dimension mismatch")
    cols = [list(c) + [1 if i == j else 0 for i in range(n)] for j, c in enumerate(columns)]
    t = list(target)
    x = [0] * n
    for row, j in _column_hermite(cols, m):
        if t[row] % cols[j][row] != 0:
            return None
        f = t[row] // cols[j][row]
        for r in range(m):
            t[r] -= f * cols[j][r]
        for r in range(n):
            x[r] += f * cols[j][m + r]
    if any(t):
        return None
    return tuple(x)


def lattice_rank(columns: Sequence[Vector]) -> int:
    """Rank of the integer lattice spanned by the columns."""
    if not columns:
        return 0
    return len(_column_hermite([list(c) for c in columns], len(columns[0])))


def unimodular_with_first_row_image(v: Vector) -> list[list[int]]:
    """A unimodular matrix M with M @ v == (g, 0, ..., 0), g = gcd(v).

    Used to complete a primitive vector to a lattice basis.
    """
    n = len(v)
    if n == 0 or all(c == 0 for c in v):
        raise ValueError("need a nonzero vector")
    M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    w = list(v)

    # Euclid: while two entries are nonzero, subtract a multiple of the
    # min-abs entry from the others (a unimodular row operation).
    while True:
        nz = [i for i in range(n) if w[i] != 0]
        if len(nz) == 1:
            break
        p = min(nz, key=lambda i: abs(w[i]))
        for q in nz:
            if q == p:
                continue
            f = w[q] // w[p]
            for k in range(n):
                M[q][k] -= f * M[p][k]
            w[q] -= f * w[p]
    p = next(i for i in range(n) if w[i] != 0)
    if p != 0:
        M[0], M[p] = M[p], M[0]
        w[0], w[p] = w[p], w[0]
        for k in range(n):
            M[p][k] = -M[p][k]  # keep det = +1 after the swap
    if w[0] < 0:
        for k in range(n):
            M[0][k] = -M[0][k]
        if n >= 2:
            # compensate so the determinant stays +1
            for k in range(n):
                M[1][k] = -M[1][k]
    return M
