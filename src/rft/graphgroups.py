"""Graphs of groups with abelian edge groups.

Fundamental-group presentations, Britton/amalgam normal forms, and
edge-subgroup membership.  Verdicts are three-valued: Trivial and
Nontrivial are proofs, Unknown records a budget-limited membership
subcall and is never silently upgraded.

`word_problem` reduces and checks its word through `normal_form`, and
`VertexGroup.normalize` reduces the syllables the reduction builds.
`VertexGroup.triviality` and `subgroup_membership` take their words as
given; unreduced words get the same answers, only more slowly.
`_reduce_items` takes the decomposition of a reduced word.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Optional

from .folding import SubgroupGraph
from .intlinalg import lattice_rank, solve_int_linear, solve_with_relations
from .words import (
    Alphabet,
    AlphabetError,
    Record,
    SurfacePresentation,
    Word,
    abelianize,
    commutator,
    concat,
    dehn_reduce,
    invert,
    letter,
    power,
    reduce_word,
)

TRIVIAL = "Trivial"
NONTRIVIAL = "Nontrivial"
UNKNOWN = "Unknown"

MEMBER = "member"
NONMEMBER = "nonmember"


class GraphError(ValueError):
    """Structural problem with a graph of groups."""


class InconsistencyError(ValueError):
    """Two of the engine's own checks disagree: a fault in the engine,
    not in its input."""


# Word-problem strategy of an already-built stage: (word, budget) -> verdict
Strategy = Callable[[Word, int], str]

# Expression of a word in subgroup generators: ordered (index, exponent) pairs
Expression = list[tuple[int, int]]


class VertexGroup:
    def __init__(self, label: str, kind: str, alphabet: Alphabet,
                 surface: Optional[SurfacePresentation] = None,
                 relators: tuple[Word, ...] = (), strategy: Optional[Strategy] = None):
        if kind not in ("free", "abelian", "surface", "composite"):
            raise GraphError(f"unknown vertex kind {kind!r}")
        if kind == "surface" and surface is None:
            raise GraphError("surface vertex needs a SurfacePresentation")
        if kind == "composite" and strategy is None:
            raise GraphError("composite vertex needs a word-problem strategy")
        self.label = label
        self.kind = kind  # "free" | "abelian" | "surface" | "composite"
        self.alphabet = alphabet
        self.surface = surface
        self.relators = relators
        self.strategy = strategy

    def all_relators(self) -> tuple[Word, ...]:
        if self.kind == "free":
            return ()
        if self.kind == "abelian":
            gens = self.alphabet.generators
            return tuple(
                commutator(letter(gens[i]), letter(gens[j]))
                for i in range(len(gens))
                for j in range(i + 1, len(gens))
            )
        if self.kind == "surface":
            return (self.surface.relator(),) if self.surface.closed else ()
        return self.relators

    def triviality(self, w: Word, budget: int) -> str:
        if self.kind == "composite":
            return self.strategy(w, budget)
        return NONTRIVIAL if self.normalize(w) else TRIVIAL

    def normalize(self, w: Word) -> Word:
        if self.kind == "abelian":
            vec = abelianize(w, self.alphabet)
            out: list = []
            for g, e in zip(self.alphabet.generators, vec):
                out.extend(power(letter(g), e))
            return tuple(out)
        if self.kind == "surface" and self.surface.closed:
            return dehn_reduce(self.surface, w)
        return reduce_word(w, self.alphabet)


def free_vertex(label: str, alph: Alphabet) -> VertexGroup:
    return VertexGroup(label, "free", alph)


def abelian_vertex(label: str, alph: Alphabet) -> VertexGroup:
    return VertexGroup(label, "abelian", alph)


def surface_vertex(label: str, surf: SurfacePresentation) -> VertexGroup:
    return VertexGroup(label, "surface", surf.alphabet(), surface=surf)


def composite_vertex(
    label: str, alph: Alphabet, relators: tuple[Word, ...], strategy: Strategy
) -> VertexGroup:
    return VertexGroup(label, "composite", alph, relators=relators, strategy=strategy)


class EdgeGroup:
    """Free-abelian edge group with monomorphism images at both endpoints.

    rank 0 edges are strips (trivial edge group), rank 1 annuli, rank >= 2
    torus tubes.
    """

    def __init__(self, label: str, rank: int, left: tuple[str, tuple[Word, ...]],
                 right: tuple[str, tuple[Word, ...]], stable_letter: Optional[str] = None):
        if rank < 0:
            raise GraphError("edge rank must be >= 0")
        for _, images in (left, right):
            if len(images) != rank:
                raise GraphError(f"edge {label!r}: expected {rank} images")
        self.label = label
        self.rank = rank
        self.left = left  # (vertex label, generator images)
        self.right = right
        self.stable_letter = stable_letter

    def side(self, which: int):
        return self.left if which == 0 else self.right


class Presentation:
    def __init__(self, alphabet: Alphabet, relators: tuple[Word, ...]):
        self.alphabet = alphabet
        self.relators = relators
        for r in self.relators:
            if not reduce_word(r, self.alphabet):
                raise GraphError("relators must be nontrivial")

    def relator_columns(self) -> list[tuple[int, ...]]:
        return [abelianize(r, self.alphabet) for r in self.relators]


class MembershipResult(Record):
    def __init__(self, status: str, expression: Optional[Expression] = None):
        if status == MEMBER and expression is None:
            raise ValueError("a member needs an expression in the subgenerators")
        self.status = status  # member / nonmember / unknown
        self.expression = expression

    @property
    def definite(self) -> bool:
        return self.status != UNKNOWN


class NormalForm(Record):
    """Alternating vertex-syllable / stable-letter sequence with a verdict."""

    def __init__(self, items: list, verdict: str):
        self.items = items  # ("syl", vertex label, Word) | ("stable", letter, sign)
        self.verdict = verdict


class GraphOfGroups:
    """Immutable connected graph of groups with a chosen base vertex.

    The spanning tree is fixed by breadth-first search from the base with
    edge insertion order as tie-break, so presentations are reproducible.
    """

    def __init__(self, vertices: list[VertexGroup], edges: list[EdgeGroup], base: str):
        self.vertices = {v.label: v for v in vertices}
        if len(self.vertices) != len(vertices):
            raise GraphError("duplicate vertex labels")
        if base not in self.vertices:
            raise GraphError(f"unknown base vertex {base!r}")
        self.base = base
        self.edges = tuple(edges)
        self._check_alphabets()
        self._check_edges()
        self.tree_edges = self._spanning_tree()
        self._stable_names = self._assign_stable_letters()
        self._symbol_home = self._index_symbols()
        # the presentation's generators; words are checked against these
        # without building its relators
        self.alphabet = Alphabet(tuple(self._symbol_home))
        self._presentation: Optional[Presentation] = None

    # -- construction checks ----------------------------------------------

    def _check_alphabets(self):
        seen: dict[str, str] = {}
        for v in self.vertices.values():
            for g in v.alphabet.generators:
                if g in seen:
                    raise GraphError(f"generator {g!r} used by two vertices")
                seen[g] = v.label

    def _check_edges(self):
        for e in self.edges:
            for vlab, images in (e.left, e.right):
                if vlab not in self.vertices:
                    raise GraphError(f"edge {e.label!r}: unknown vertex {vlab!r}")
                V = self.vertices[vlab]
                for img in images:
                    if not reduce_word(img, V.alphabet):
                        raise GraphError(
                            f"edge {e.label!r}: trivial monomorphism image at {vlab!r}"
                        )
                if e.rank >= 2 and V.kind == "abelian":
                    # exact independence is checkable on abelian targets;
                    # elsewhere commutation of the images is the caller's
                    # obligation and membership falls back to search
                    cols = [abelianize(img, V.alphabet) for img in images]
                    if lattice_rank(cols) != e.rank:
                        raise GraphError(
                            f"edge {e.label!r}: images at {vlab!r} are not independent"
                        )

    def _spanning_tree(self) -> set[str]:
        tree: set[str] = set()
        reached = {self.base}
        frontier = [self.base]
        while frontier:
            nxt: list[str] = []
            for e in self.edges:
                if e.label in tree:
                    continue
                a, b = e.left[0], e.right[0]
                for u, v in ((a, b), (b, a)):
                    if u in frontier and v not in reached:
                        tree.add(e.label)
                        reached.add(v)
                        nxt.append(v)
                        break
            if not nxt:
                break
            frontier = nxt
        if reached != set(self.vertices):
            raise GraphError("graph of groups is not connected")
        return tree

    def _assign_stable_letters(self) -> dict[str, str]:
        used = {g for v in self.vertices.values() for g in v.alphabet.generators}
        names: dict[str, str] = {}
        counter = 1
        for e in self.edges:
            if e.label in self.tree_edges:
                continue
            name = e.stable_letter
            if name is None:
                while f"t{counter}" in used:
                    counter += 1
                name = f"t{counter}"
            if name in used:
                raise GraphError(f"stable letter {name!r} collides with a generator")
            used.add(name)
            names[e.label] = name
        return names

    def _index_symbols(self) -> dict[str, tuple[str, str]]:
        home: dict[str, tuple[str, str]] = {}
        for v in self.vertices.values():
            for g in v.alphabet.generators:
                home[g] = ("vertex", v.label)
        for elab, name in self._stable_names.items():
            home[name] = ("stable", elab)
        return home

    # -- presentation ------------------------------------------------------

    def presentation(self) -> Presentation:
        if self._presentation is None:
            relators: list[Word] = []
            for v in self.vertices.values():
                relators.extend(v.all_relators())
            for e in self.edges:
                limgs, rimgs = e.left[1], e.right[1]
                if e.label in self.tree_edges:
                    for li, ri in zip(limgs, rimgs):
                        relators.append(reduce_word(concat(li, invert(ri))))
                else:
                    t = letter(self._stable_names[e.label])
                    for li, ri in zip(limgs, rimgs):
                        relators.append(
                            reduce_word(concat(t, li, invert(t), invert(ri)))
                        )
            self._presentation = Presentation(self.alphabet, tuple(relators))
        return self._presentation

    def stable_letter(self, edge_label: str) -> str:
        return self._stable_names[edge_label]

    # -- decomposition -----------------------------------------------------

    def decompose(self, w: Word) -> list:
        """Split a presentation word into vertex syllables and stable letters."""
        items: list = []
        for sym, sign in w:
            home = self._symbol_home.get(sym)
            if home is None:
                raise AlphabetError(f"undeclared symbol: {sym!r}")
            if home[0] == "stable":
                items.append(("stable", sym, sign))
            else:
                if items and items[-1][0] == "syl" and items[-1][1] == home[1]:
                    items[-1] = ("syl", home[1], items[-1][2] + ((sym, sign),))
                else:
                    items.append(("syl", home[1], ((sym, sign),)))
        return items


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=256)
def _subgroup_graph(alph: Alphabet, subgens: tuple[Word, ...]) -> SubgroupGraph:
    """Folded graph of an edge side, built once: edge images are fixed."""
    return SubgroupGraph(alph, list(subgens))


def _expression_word(images: tuple[Word, ...], expr: Expression) -> Word:
    return reduce_word(concat(*(power(images[i], e) for i, e in expr)))


def _exponent_shell(k: int, r: int):
    """The k-tuples of max-abs exactly r, in lexicographic order, each
    made only when it is asked for."""
    for x in range(-r, r + 1):
        if abs(x) == r:
            tails = itertools.product(range(-r, r + 1), repeat=k - 1)
        elif k > 1:
            tails = _exponent_shell(k - 1, r)
        else:
            continue
        for tail in tails:
            yield (x,) + tail


def subgroup_membership(
    V: VertexGroup, subgens: list[Word], w: Word, budget: int
) -> MembershipResult:
    """Decide w in <subgens> inside the vertex group V.

    Free vertices: exact via Stallings folding.  Free-abelian: exact
    integer lattice solve.  Surface (closed) and composite vertices:
    exact when the abelianization pins the candidate exponents down,
    otherwise a budgeted cyclic power search; unknown past the budget.
    Takes w and subgens as given.
    """
    expr: Expression = []
    if any(subgens):
        if V.kind == "free":
            expr = _subgroup_graph(V.alphabet, tuple(subgens)).express(w)
            return MembershipResult(NONMEMBER if expr is None else MEMBER, expr)
        cols = [abelianize(g, V.alphabet) for g in subgens]
        if V.kind == "abelian":
            sol = solve_int_linear(cols, abelianize(w, V.alphabet))
            if sol is None:
                return MembershipResult(NONMEMBER)
            return MembershipResult(MEMBER, [(i, k) for i, k in enumerate(sol) if k])
        # surface (closed) and composite vertices: one elimination of
        # [subgens | relators] in the abelianized quotient
        rels = [abelianize(r, V.alphabet) for r in V.all_relators()]
        found = solve_with_relations(cols + rels, abelianize(w, V.alphabet))
        if found is None:
            # sound regardless of independence: membership would force a
            # solution in the abelianized quotient
            return MembershipResult(NONMEMBER)
        sol, relations = found
        if any(any(r[: len(cols)]) for r in relations):
            # a relation involves the subgens: they are dependent modulo
            # the relators and the candidate is not unique.  Budgeted
            # exponent search: products g1^k1 ... gn^kn cover the subgroup
            # when the generators commute (edge groups are free-abelian);
            # bounded |ki| <= budget, small first.
            if len(subgens) <= 3:
                shells = (_exponent_shell(len(subgens), r) for r in range(budget + 1))
                for ks in itertools.chain.from_iterable(shells):
                    cand = concat(*(power(g, k) for g, k in zip(subgens, ks)))
                    if V.triviality(reduce_word(concat(w, invert(cand))), budget) == TRIVIAL:
                        return MembershipResult(MEMBER, [(i, k) for i, k in enumerate(ks) if k])
            return MembershipResult(UNKNOWN)
        # the unique candidate: w is a member exactly when w / candidate is trivial
        expr = [(i, k) for i, k in enumerate(sol[: len(cols)]) if k]
        w = reduce_word(concat(w, invert(_expression_word(tuple(subgens), expr))))
    verdict = V.triviality(w, budget)
    if verdict == TRIVIAL:
        return MembershipResult(MEMBER, expr)
    return MembershipResult(NONMEMBER if verdict == NONTRIVIAL else UNKNOWN)


# ---------------------------------------------------------------------------
# Normal form
# ---------------------------------------------------------------------------


class _Entry:
    """An item on the reduction stack with the verdicts already decided for it."""

    def __init__(self, kind: str, name: str, value: object, unknown: bool = False):
        self.kind = kind  # "syl" | "stable"
        self.name = name  # vertex label or stable letter
        self.value = value  # Word of a syllable, sign of a stable letter
        # syllable triviality, or the pinch this letter closes, is Unknown
        self.unknown = unknown
        # edge membership, asked once a syllable neighbour arrives
        self.member: Optional[str] = None


def _amalgam_edge(G: GraphOfGroups) -> Optional[EdgeGroup]:
    """The tree edge of rank >= 1, if any."""
    edges = [e for e in G.edges if e.label in G.tree_edges and e.rank >= 1]
    if edges and len(G.vertices) > 2:
        raise GraphError("amalgams along trees with more than two vertices are not supported")
    return edges[0] if edges else None


def _ends(e: EdgeGroup, vlab: str):
    """(near side, far side) of a tree edge seen from one of its vertices."""
    return (e.left, e.right) if e.left[0] == vlab else (e.right, e.left)


def _definite(stack: list) -> bool:
    """Whether a reduced stack's nontriviality rests on exact answers only:
    no Unknown pinch when stable letters remain (Britton's lemma), else no
    Unknown triviality and, for two or more syllables, no Unknown membership."""
    if any(e.kind == "stable" for e in stack):
        return not any(e.unknown for e in stack if e.kind == "stable")
    return not any(e.unknown or (len(stack) > 1 and e.member == UNKNOWN) for e in stack)


def _segment_membership(
    G: GraphOfGroups, segment: list, vlab: str, images: tuple[Word, ...], budget: int
) -> MembershipResult:
    """Membership of a reduced stable-free segment in <images> inside vertex vlab.
    The segment is never empty: a stable letter directly above its inverse
    cancels before any pinch is tested."""
    if len(segment) >= 2:
        return MembershipResult(NONMEMBER if _definite(segment) else UNKNOWN)
    (s,) = segment
    word = s.value
    if s.name != vlab:
        e = _amalgam_edge(G)
        if e is None:
            return MembershipResult(UNKNOWN if s.unknown else NONMEMBER)
        near, far = _ends(e, s.name)
        res = (MembershipResult(s.member) if s.member is not None
               else subgroup_membership(G.vertices[s.name], list(near[1]), word, budget))
        if res.status != MEMBER:
            return MembershipResult(res.status)
        word = _expression_word(far[1], res.expression)
    return subgroup_membership(G.vertices[vlab], list(images), word, budget)


def _reduce_items(G: GraphOfGroups, items: list, budget: int):
    """Britton/amalgam reduction of a reduced word's decomposition in one
    left-to-right pass.

    Items move from the input onto a stack.  A syllable merges into a
    same-vertex top syllable, is normalized once (an input syllable that
    merged with nothing, at a free or composite vertex, is already normal)
    and dropped when trivial.
    Across a rank >= 1 tree edge the incoming syllable, and the top one the
    first time it gains a syllable neighbour, are asked their edge
    membership; a member is rewritten at the other end and pushed back onto
    the input, so it merges downward.  A stable letter cancels an inverse
    top letter, or pinches `t seg t^-1` when the segment since the inverse
    letter lies in the edge group; otherwise it is a barrier nothing merges
    or converts across.  Each decision is made once per change of an
    entry.  Returns (items, definite) as `_definite` reads the final stack.
    """
    amalgam = _amalgam_edge(G)
    stack: list[_Entry] = []
    todo = items[::-1]
    fresh = len(todo)  # todo[:fresh] are input items not yet taken
    while todo:
        kind, name, value = todo.pop()
        straight = len(todo) < fresh
        fresh = min(fresh, len(todo))
        top = stack[-1] if stack else None
        if kind == "stable":
            if top is not None and top.kind == "stable" and (top.name, top.value) == (name, -value):
                stack.pop()
                continue
            entry = _Entry("stable", name, value)
            k = len(stack)
            while k and stack[k - 1].kind == "syl":
                k -= 1
            if k and (stack[k - 1].name, stack[k - 1].value) == (name, -value):
                e = next(e for e in G.edges
                         if e.label not in G.tree_edges and G.stable_letter(e.label) == name)
                # relator t * left * t^-1 = right: a t ... t^-1 pinch needs
                # the segment in <left images>, and maps to the right side
                src, dst = (e.left, e.right) if value == -1 else (e.right, e.left)
                res = _segment_membership(G, stack[k:], src[0], src[1], budget)
                if res.status == MEMBER:
                    del stack[k - 1:]
                    todo.append(("syl", dst[0], _expression_word(dst[1], res.expression)))
                    continue
                entry.unknown = res.status != NONMEMBER
            stack.append(entry)
            continue

        if top is not None and top.kind == "syl" and top.name == name:
            stack.pop()
            value = concat(top.value, value)
            top = stack[-1] if stack else None
            straight = False
        V = G.vertices[name]
        # at free and composite vertices normalize is free reduction, which
        # leaves an input syllable of a reduced word unchanged
        word = value if straight and V.kind in ("free", "composite") else V.normalize(value)
        # a normalized word is empty exactly when trivial, except at
        # composite vertices, whose strategy decides
        verdict = V.triviality(word, budget) if word and V.kind == "composite" else None
        if not word or verdict == TRIVIAL:
            continue
        entry = _Entry("syl", name, word, unknown=verdict == UNKNOWN)
        if amalgam is not None and top is not None and top.kind == "syl":
            near, far = _ends(amalgam, top.name)
            if top.member is None:
                res = subgroup_membership(G.vertices[top.name], list(near[1]), top.value, budget)
                if res.status == MEMBER:
                    stack.pop()
                    todo.append(("syl", name, concat(_expression_word(far[1], res.expression), word)))
                    continue
                top.member = res.status
            res = subgroup_membership(V, list(far[1]), word, budget)
            if res.status == MEMBER:
                todo.append(("syl", top.name, _expression_word(near[1], res.expression)))
                continue
            entry.member = res.status
        stack.append(entry)
    return [(e.kind, e.name, e.value) for e in stack], _definite(stack)


def normal_form(G: GraphOfGroups, w: Word, budget: int = 8) -> NormalForm:
    """Britton/amalgam reduction of a word over the fundamental
    presentation; reduces and checks w first."""
    w = reduce_word(w, G.alphabet)
    items, definite = _reduce_items(G, G.decompose(w), budget)
    return NormalForm(items, TRIVIAL if not items else NONTRIVIAL if definite else UNKNOWN)


def word_problem(G: GraphOfGroups, w: Word, budget: int = 8) -> str:
    """Triviality verdict; Trivial verdicts are cross-checked against the
    presentation's abelianization oracle."""
    verdict = normal_form(G, w, budget).verdict
    if verdict == TRIVIAL:
        pres = G.presentation()
        vec = abelianize(w, pres.alphabet)
        if any(vec) and solve_int_linear(pres.relator_columns(), vec) is None:
            raise InconsistencyError(
                "internal inconsistency: Trivial verdict contradicts the "
                "abelianization oracle")
    return verdict
