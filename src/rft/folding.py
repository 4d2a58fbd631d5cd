"""Stallings folding: subgroup graphs of free groups and exact membership.

`petal` and `fold` are the one folding engine; `rft.core` builds its
cover graphs with them as well.
"""

from __future__ import annotations

from typing import Iterable

from .words import Alphabet, Word, EMPTY, concat, invert, reduce_word


Edge = tuple[int, str, int]  # (tail, sym, head), positive orientation
Delta = dict[int, dict[tuple[str, int], int]]


def petal(words: list[Word]) -> tuple[set[Edge], int]:
    """One closed loop at vertex 0 per reduced word; returns (edges, vertex count)."""
    count = 1
    edges: set[Edge] = set()
    for w in words:
        cur = 0
        for i, (sym, sign) in enumerate(w):
            nxt = 0 if i == len(w) - 1 else count
            if nxt == count:
                count += 1
            if sign == 1:
                edges.add((cur, sym, nxt))
            else:
                edges.add((nxt, sym, cur))
            cur = nxt
    return edges, count


def fold(edges: set[Edge], count: int,
         identify: Iterable[tuple[int, int]] = ()) -> tuple[set[Edge], int, Delta]:
    """Identify the given vertex pairs, then fold to a partial
    deterministic automaton.

    Every class is named by its least vertex, so the result does not
    depend on the merge order.  Returns (edges, base, delta) with base
    the class of vertex 0 and delta[v][(sym, sign)] = u.
    """
    parent = list(range(count))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(a: int, b: int):
        a, b = find(a), find(b)
        if a != b:
            parent[max(a, b)] = min(a, b)

    for a, b in identify:
        union(a, b)
    # fixpoint folding: merge heads of equal-labelled edges with equal
    # tails, and tails of equal-labelled edges with equal heads
    while True:
        edges = {(find(v), sym, find(u)) for v, sym, u in edges}
        out: dict[tuple[int, str], int] = {}
        inc: dict[tuple[int, str], int] = {}
        merged = False
        for v, sym, u in edges:
            if (v, sym) in out and out[(v, sym)] != u:
                union(out[(v, sym)], u)
                merged = True
                break
            out[(v, sym)] = u
            if (u, sym) in inc and inc[(u, sym)] != v:
                union(inc[(u, sym)], v)
                merged = True
                break
            inc[(u, sym)] = v
        if not merged:
            break

    base = find(0)
    delta: Delta = {base: {}}
    for v, sym, u in edges:
        delta.setdefault(v, {})[(sym, 1)] = u
        delta.setdefault(u, {})[(sym, -1)] = v
    return edges, base, delta


class SubgroupGraph:
    """Folded subgroup graph of <subgens> inside the free group on `alphabet`.

    Vertices are ints; transitions form a partial deterministic automaton
    delta[v][(sym, sign)] = u with delta[u][(sym, -sign)] = v.
    """

    def __init__(self, alphabet: Alphabet, subgens: list[Word]):
        self.alphabet = alphabet
        self.subgens = [reduce_word(w, alphabet) for w in subgens]
        edges, self.base, self.delta = fold(*petal(self.subgens))
        self.vertices = sorted(self.delta)
        self.edges = sorted(edges)

    # -- queries -----------------------------------------------------------

    def trace(self, w: Word, start: int | None = None):
        v = self.base if start is None else start
        for sym, sign in reduce_word(w):
            nxt = self.delta.get(v, {}).get((sym, sign))
            if nxt is None:
                return None
            v = nxt
        return v

    def contains(self, w: Word) -> bool:
        return self.trace(w) == self.base

    def rank(self) -> int:
        edges = sum(len(es) for es in self.delta.values()) // 2
        return edges - len(self.vertices) + 1

    def express(self, w: Word, max_length: int = 64):
        """Write w as a product of subgenerators: list of (index, sign).

        Iterative-deepening search over products; only call when
        contains(w) is true (then the search terminates).  Returns None if
        no expression of length <= max_length exists.
        """
        w = reduce_word(w)
        if w == EMPTY:
            return []
        gens = [(i, s, reduce_word(g) if s == 1 else invert(reduce_word(g)))
                for i, g in enumerate(self.subgens) if reduce_word(g) != EMPTY
                for s in (1, -1)]
        for depth in range(1, max_length + 1):
            found = self._dfs(EMPTY, w, depth, gens, [])
            if found is not None:
                return found
        return None

    def _dfs(self, cur: Word, target: Word, depth: int, gens, path):
        if cur == target:
            return list(path)
        if depth == 0:
            return None
        maxg = max((len(g) for _, _, g in gens), default=0)
        # length prune: remaining multiplications cannot bridge the gap
        gap = abs(len(cur) - len(target))
        if gap > depth * maxg:
            return None
        for i, s, g in gens:
            if path and path[-1] == (i, -s):
                continue
            nxt = reduce_word(concat(cur, g))
            path.append((i, s))
            found = self._dfs(nxt, target, depth - 1, gens, path)
            if found is not None:
                return found
            path.pop()
        return None
