from fractions import Fraction
from math import gcd

from hypothesis import example, given, strategies as st

from rft.intlinalg import (
    Lattice,
    lattice_rank,
    solve_int_linear,
    unimodular_with_first_row_image,
)


def _det(m):
    m = [[Fraction(x) for x in row] for row in m]
    n = len(m)
    d = Fraction(1)
    for i in range(n):
        p = next((r for r in range(i, n) if m[r][i] != 0), None)
        if p is None:
            return Fraction(0)
        if p != i:
            m[i], m[p] = m[p], m[i]
            d = -d
        d *= m[i][i]
        for r in range(i + 1, n):
            f = m[r][i] / m[i][i]
            for c in range(n):
                m[r][c] -= f * m[i][c]
    return d


def test_solve_examples():
    assert solve_int_linear([(2, 0), (1, 1)], (5, 3)) is not None
    assert solve_int_linear([(2, 0), (0, 2)], (1, 0)) is None
    assert solve_int_linear([], (0, 0)) == ()
    assert solve_int_linear([(3,)], (9,)) == (3,)
    assert solve_int_linear([(3,)], (7,)) is None


vectors = st.tuples(*[st.integers(min_value=-5, max_value=5)] * 3)


@given(st.lists(vectors, min_size=1, max_size=4), st.lists(
    st.integers(min_value=-4, max_value=4), min_size=4, max_size=4))
def test_solve_finds_constructed_solutions(cols, coeffs):
    coeffs = coeffs[:len(cols)]
    target = tuple(sum(c * col[i] for c, col in zip(coeffs, cols)) for i in range(3))
    sol = solve_int_linear(cols, target)
    assert sol is not None
    # verify the returned combination, not the coefficients themselves
    assert tuple(sum(s * col[i] for s, col in zip(sol, cols))
                 for i in range(3)) == target


@given(st.lists(vectors, min_size=1, max_size=4), vectors)
def test_solve_verdicts_are_sound(cols, target):
    sol = solve_int_linear(cols, target)
    if sol is not None:
        assert tuple(sum(s * col[i] for s, col in zip(sol, cols))
                     for i in range(3)) == target


def test_lattice_rank():
    assert lattice_rank([]) == 0
    assert lattice_rank([(0, 0)]) == 0
    assert lattice_rank([(1, 2, 3), (2, 4, 6)]) == 1
    assert lattice_rank([(1, 2, 3), (2, 4, 6), (0, 1, 0)]) == 2
    assert lattice_rank([(1, 0), (0, 1), (5, 7)]) == 2


@given(st.lists(vectors, min_size=1, max_size=5))
def test_lattice_rank_bounds(cols):
    r = lattice_rank(cols)
    assert 0 <= r <= min(len(cols), 3)


def _combine(coeffs, cols):
    return tuple(sum(k * c[i] for k, c in zip(coeffs, cols)) for i in range(3))


@st.composite
def column_sets(draw):
    """Up to four columns of length 3, often with a zero column or one
    that is a combination of the others."""
    cols = draw(st.lists(vectors, max_size=4))
    extra = draw(st.sampled_from(["none", "zero", "combination"]))
    if extra == "zero":
        cols.insert(draw(st.integers(0, len(cols))), (0, 0, 0))
    elif extra == "combination" and cols:
        ks = draw(st.lists(st.integers(-3, 3), min_size=len(cols), max_size=len(cols)))
        cols.append(_combine(ks, cols))
    return cols


@given(column_sets())
def test_relations_are_relations(cols):
    relations = Lattice(cols, 3).relations()
    for r in relations:
        assert len(r) == len(cols)
        assert _combine(r, cols) == (0, 0, 0)


@given(column_sets())
def test_relations_count_is_columns_minus_rank(cols):
    relations = Lattice(cols, 3).relations()
    assert len(relations) == len(cols) - lattice_rank(cols)


@given(column_sets(), column_sets(), vectors)
def test_lattice_solve_solves(cols, rels, target):
    found = Lattice(cols + rels, 3).solve(target)
    assert (found is None) == (solve_int_linear(cols + rels, target) is None)
    if found is not None:
        assert _combine(found, cols + rels) == target


@given(column_sets(), column_sets())
def test_independence_from_one_elimination(subgens, rels):
    # the subgens are independent modulo the relator lattice when no
    # relation of [subgens | relators] involves a subgen; the reference
    # is the two-rank formula that took three eliminations
    relations = Lattice(subgens + rels, 3).relations()
    one_elimination = not any(any(r[: len(subgens)]) for r in relations)
    two_ranks = lattice_rank(rels + subgens) == lattice_rank(rels) + len(subgens)
    assert one_elimination == two_ranks


@given(column_sets(), st.lists(vectors, max_size=6))
def test_a_factored_lattice_solves_as_fresh_ones(cols, targets):
    # solve leaves no state behind: one factorization answers a sequence
    # of targets, each arbitrary target followed by a lattice member, as
    # a fresh factorization per target does, None in the same cases
    lattice = Lattice(cols, 3)
    for t in targets:
        for target in (t, _combine(t, cols)):
            assert lattice.solve(target) == Lattice(cols, 3).solve(target)


@given(st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=5)
       .filter(any))
@example([-3])
@example([0, 3, 0])
@example([4, 6, -2])
def test_unimodular_completion(v):
    M = unimodular_with_first_row_image(tuple(v))
    n = len(v)
    assert [sum(M[i][j] * v[j] for j in range(n)) for i in range(n)] == [gcd(*v)] + [0] * (n - 1)
    # det +1 whenever a relation row is free to flip; for n = 1 the only
    # choice is M = [[sign of v]]
    assert _det(M) == (1 if n >= 2 else (1 if v[0] > 0 else -1))
