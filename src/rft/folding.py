"""Stallings folding: subgroup graphs of free groups, exact membership,
and membership expressions read off generator labels.

`petal` and `fold` are the one folding engine; `rft.core` builds its
cover graphs with them as well.  Labels follow Kapovich-Myasnikov,
*Stallings foldings and subgroups of free groups* (2002).
`SubgroupGraph` reduces its subgenerators, and `express` and `walk` the
word they read.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .words import Alphabet, Word, EMPTY, concat, invert, reduce_word


Edge = tuple[int, str, int]  # (tail, sym, head), positive orientation
# edge -> label, a reduced word over (subgenerator index, sign)
Labelled = dict[Edge, Word]
Delta = dict[int, dict[tuple[str, int], int]]


def petal(words: list[Word]) -> tuple[Labelled, int]:
    """One closed loop at vertex 0 per reduced word; returns (edges, vertex count).

    The edge closing loop k is labelled ((k, sign),), sign its orientation
    along the loop; every other edge has the empty label.
    """
    count = 1
    edges: Labelled = {}
    for k, w in enumerate(words):
        cur = 0
        for i, (sym, sign) in enumerate(w):
            last = i == len(w) - 1
            nxt = 0 if last else count
            if not last:
                count += 1
            edge = (cur, sym, nxt) if sign == 1 else (nxt, sym, cur)
            edges.setdefault(edge, ((k, sign),) if last else EMPTY)
            cur = nxt
    return edges, count


def fold(edges: Labelled, count: int,
         identify: Iterable[tuple[int, int]] = ()) -> tuple[Labelled, int, Delta]:
    """Identify the given vertex pairs, then fold to a partial
    deterministic automaton.

    Every class is named by its least vertex, so the result does not
    depend on the merge order.  Returns (edges, base, delta) with base
    the class of vertex 0 and delta[v][(sym, sign)] = u.

    Labels: let p(v) be the word read from vertex 0 to v in the input.
    An edge u -x-> v labelled L means p(u) x p(v)^-1 equals L evaluated
    in the subgenerators.  Folding keeps this true, so the labels along a
    closed path at the base multiply to an expression of the word it
    reads.  An identified pair asserts no such equation, so the labels
    are exact only when `identify` is empty.
    """
    parent = list(range(count))
    shift = [EMPTY] * count  # p(v) = shift[v] * p(parent[v])

    def find(v: int) -> int:
        path = []
        while parent[v] != v:
            path.append(v)
            v = parent[v]
        for u in reversed(path[:-1]):
            shift[u] = reduce_word(concat(shift[u], shift[parent[u]]))
            parent[u] = v
        return v

    def union(a: int, b: int, c: Word = EMPTY):
        """Merge the classes of a and b, given p(a) = c * p(b)."""
        ra, rb = find(a), find(b)
        if ra == rb:
            return
        s = reduce_word(concat(invert(shift[a]), c, shift[b]))  # p(ra) = s * p(rb)
        if ra > rb:
            parent[ra], shift[ra] = rb, s
        else:
            parent[rb], shift[rb] = ra, invert(s)

    for a, b in identify:
        union(a, b)
    # fixpoint folding: merge heads of equal-letter edges with equal
    # tails, and tails of equal-letter edges with equal heads
    while True:
        canon: Labelled = {}
        for (v, sym, u), label in edges.items():
            key = (find(v), sym, find(u))
            if key not in canon:
                canon[key] = reduce_word(concat(invert(shift[v]), label, shift[u]))
        edges = canon
        out: dict[tuple[int, str], tuple[int, Word]] = {}
        inc: dict[tuple[int, str], tuple[int, Word]] = {}
        merged = False
        for (v, sym, u), label in edges.items():
            if (v, sym) in out:
                u2, label2 = out[(v, sym)]
                union(u, u2, concat(invert(label), label2))
                merged = True
            else:
                out[(v, sym)] = (u, label)
            if (u, sym) in inc:
                v2, label2 = inc[(u, sym)]
                union(v, v2, concat(label, invert(label2)))
                merged = True
            else:
                inc[(u, sym)] = (v, label)
        if not merged:
            break

    base = find(0)
    delta: Delta = {base: {}}
    for v, sym, u in edges:
        delta.setdefault(v, {})[(sym, 1)] = u
        delta.setdefault(u, {})[(sym, -1)] = v
    return edges, base, delta


def walk(delta: Delta, v: int, w: Word) -> Optional[int]:
    """End of the path reading w from v, or None where it leaves the graph."""
    for step in reduce_word(w):
        v = delta.get(v, {}).get(step)
        if v is None:
            return None
    return v


class SubgroupGraph:
    """Folded subgroup graph of <subgens> inside the free group on `alphabet`.

    Vertices are ints; transitions form a partial deterministic automaton
    delta[v][(sym, sign)] = u with delta[u][(sym, -sign)] = v.
    """

    def __init__(self, alphabet: Alphabet, subgens: list[Word]):
        self.alphabet = alphabet
        self.subgens = [reduce_word(w, alphabet) for w in subgens]
        self.labels, self.base, self.delta = fold(*petal(self.subgens))
        self.vertices = sorted(self.delta)

    # -- queries -----------------------------------------------------------

    def trace(self, w: Word, start: int | None = None):
        return walk(self.delta, self.base if start is None else start, w)

    def contains(self, w: Word) -> bool:
        return self.trace(w) == self.base

    def rank(self) -> int:
        edges = sum(len(es) for es in self.delta.values()) // 2
        return edges - len(self.vertices) + 1

    def express(self, w: Word):
        """Write w as a product of subgenerators: a list of (index, sign),
        or None when w is not in the subgroup.

        One walk along w, multiplying the edge labels.
        """
        v, out = self.base, []
        for sym, sign in reduce_word(w):
            u = self.delta.get(v, {}).get((sym, sign))
            if u is None:
                return None
            out.extend(self.labels[(v, sym, u)] if sign == 1
                       else invert(self.labels[(u, sym, v)]))
            v = u
        return list(reduce_word(tuple(out))) if v == self.base else None
