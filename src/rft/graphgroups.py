"""Graphs of groups with abelian edge groups.

Fundamental-group presentations, Britton/amalgam normal forms, and
edge-subgroup membership.  Verdicts are three-valued: Trivial and
Nontrivial are proofs, Unknown records a budget-limited membership
subcall and is never silently upgraded.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from .folding import SubgroupGraph
from .intlinalg import lattice_rank, solve_int_linear
from .words import (
    Alphabet,
    AlphabetError,
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


@dataclass(frozen=True)
class VertexGroup:
    label: str
    kind: str  # "free" | "abelian" | "surface" | "composite"
    alphabet: Alphabet
    surface: Optional[SurfacePresentation] = None
    relators: tuple[Word, ...] = ()
    strategy: Optional[Strategy] = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in ("free", "abelian", "surface", "composite"):
            raise GraphError(f"unknown vertex kind {self.kind!r}")
        if self.kind == "surface" and self.surface is None:
            raise GraphError("surface vertex needs a SurfacePresentation")
        if self.kind == "composite" and self.strategy is None:
            raise GraphError("composite vertex needs a word-problem strategy")

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
        w = reduce_word(w, self.alphabet)
        if self.kind == "free":
            return TRIVIAL if not w else NONTRIVIAL
        if self.kind == "abelian":
            return TRIVIAL if not any(abelianize(w, self.alphabet)) else NONTRIVIAL
        if self.kind == "surface":
            if self.surface.closed:
                return TRIVIAL if not dehn_reduce(self.surface, w) else NONTRIVIAL
            return TRIVIAL if not w else NONTRIVIAL
        return self.strategy(w, budget)

    def normalize(self, w: Word) -> Word:
        if self.kind == "abelian":
            vec = abelianize(w, self.alphabet)
            out: list = []
            for g, e in zip(self.alphabet.generators, vec):
                out.extend(power(letter(g), e))
            return tuple(out)
        if self.kind == "surface" and self.surface.closed:
            return dehn_reduce(self.surface, reduce_word(w, self.alphabet))
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


@dataclass(frozen=True)
class EdgeGroup:
    """Free-abelian edge group with monomorphism images at both endpoints.

    rank 0 edges are strips (trivial edge group), rank 1 annuli, rank >= 2
    torus tubes.
    """

    label: str
    rank: int
    left: tuple[str, tuple[Word, ...]]  # (vertex label, generator images)
    right: tuple[str, tuple[Word, ...]]
    stable_letter: Optional[str] = None

    def __post_init__(self):
        if self.rank < 0:
            raise GraphError("edge rank must be >= 0")
        for _, images in (self.left, self.right):
            if len(images) != self.rank:
                raise GraphError(f"edge {self.label!r}: expected {self.rank} images")

    def side(self, which: int):
        return self.left if which == 0 else self.right


@dataclass(frozen=True)
class Presentation:
    alphabet: Alphabet
    relators: tuple[Word, ...]

    def __post_init__(self):
        for r in self.relators:
            self.alphabet.check(r)
            if not reduce_word(r):
                raise GraphError("relators must be nontrivial")

    def relator_columns(self) -> list[tuple[int, ...]]:
        return [abelianize(r, self.alphabet) for r in self.relators]


@dataclass(frozen=True)
class MembershipResult:
    status: str  # member / nonmember / unknown
    expression: Optional[Expression] = None

    def __post_init__(self):
        if self.status == MEMBER and self.expression is None:
            raise ValueError("a member needs an expression in the subgenerators")

    @property
    def definite(self) -> bool:
        return self.status != UNKNOWN


@dataclass
class NormalForm:
    """Alternating vertex-syllable / stable-letter sequence with a verdict."""

    items: list  # ("syl", vertex label, Word) | ("stable", letter, sign)
    verdict: str


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
                    V.alphabet.check(img)
                    if not reduce_word(img):
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
            gens: list[str] = []
            for v in self.vertices.values():
                gens.extend(v.alphabet.generators)
            for e in self.edges:
                if e.label not in self.tree_edges:
                    gens.append(self._stable_names[e.label])
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
            self._presentation = Presentation(Alphabet(tuple(gens)), tuple(relators))
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


def _quotient_coefficients(alph, relators, subgens, w):
    """Candidate coefficients of w over subgens in the abelianized quotient.

    Returns ("nonmember", None), ("candidate", coeffs) when the subgens'
    abelianizations are independent modulo the relator lattice (so the
    candidate is unique), or ("indeterminate", None).
    """
    cols = [abelianize(g, alph) for g in subgens]
    rels = [abelianize(r, alph) for r in relators]
    sol = solve_int_linear(cols + rels, abelianize(w, alph))
    if sol is None:
        # sound regardless of independence: membership would force a
        # solution in the abelianized quotient
        return ("nonmember", None)
    if lattice_rank(rels + cols) != lattice_rank(rels) + len(cols):
        return ("indeterminate", None)
    return ("candidate", sol[: len(cols)])


def subgroup_membership(
    V: VertexGroup, subgens: list[Word], w: Word, budget: int
) -> MembershipResult:
    """Decide w in <subgens> inside the vertex group V.

    Free vertices: exact via Stallings folding.  Free-abelian: exact
    integer lattice solve.  Surface (closed) and composite vertices:
    exact when the abelianization pins the candidate exponents down,
    otherwise a budgeted cyclic power search; unknown past the budget.
    """
    w = reduce_word(w, V.alphabet)
    subgens = [reduce_word(g, V.alphabet) for g in subgens]
    if not subgens or all(not g for g in subgens):
        verdict = V.triviality(w, budget)
        if verdict == TRIVIAL:
            return MembershipResult(MEMBER, [])
        if verdict == NONTRIVIAL:
            return MembershipResult(NONMEMBER)
        return MembershipResult(UNKNOWN)

    if V.kind == "free":
        expr = _subgroup_graph(V.alphabet, tuple(subgens)).express(w)
        return MembershipResult(NONMEMBER if expr is None else MEMBER, expr)

    if V.kind == "abelian":
        cols = [abelianize(g, V.alphabet) for g in subgens]
        sol = solve_int_linear(cols, abelianize(w, V.alphabet))
        if sol is None:
            return MembershipResult(NONMEMBER)
        return MembershipResult(MEMBER, [(i, k) for i, k in enumerate(sol) if k])

    # surface (closed) and composite vertices share the quotient logic
    relators = V.all_relators()
    status, coeffs = _quotient_coefficients(V.alphabet, relators, subgens, w)
    if status == "nonmember":
        return MembershipResult(NONMEMBER)
    if status == "candidate":
        expr = [(i, k) for i, k in enumerate(coeffs) if k]
        candidate = _expression_word(tuple(subgens), expr)
        verdict = V.triviality(concat(w, invert(candidate)), budget)
        if verdict == TRIVIAL:
            return MembershipResult(MEMBER, expr)
        if verdict == NONTRIVIAL:
            return MembershipResult(NONMEMBER)
        return MembershipResult(UNKNOWN)

    # indeterminate abelianization; budgeted exponent search.  Products
    # g1^k1 ... gn^kn cover the subgroup when the generators commute
    # (edge groups are free-abelian); bounded |ki| <= budget, small first.
    if len(subgens) <= 3:
        tuples = sorted(
            itertools.product(range(-budget, budget + 1), repeat=len(subgens)),
            key=lambda ks: (max(map(abs, ks)), ks),
        )
        for ks in tuples:
            cand = concat(*(power(g, k) for g, k in zip(subgens, ks)))
            if V.triviality(concat(w, invert(cand)), budget) == TRIVIAL:
                return MembershipResult(MEMBER, [(i, k) for i, k in enumerate(ks) if k])
    return MembershipResult(UNKNOWN)


# ---------------------------------------------------------------------------
# Normal form
# ---------------------------------------------------------------------------


def _normalize_items(G: GraphOfGroups, items: list, budget: int) -> list:
    """Merge same-vertex neighbours, drop provably trivial syllables, and
    cancel adjacent inverse stable letters."""
    changed = True
    while changed:
        changed = False
        out: list = []
        for it in items:
            if it[0] == "syl":
                V = G.vertices[it[1]]
                word = V.normalize(it[2])
                if not word and V.kind != "composite":
                    changed = changed or it[2] != ()
                    continue
                if V.kind == "composite" and V.triviality(word, budget) == TRIVIAL:
                    changed = True
                    continue
                if not word:
                    changed = True
                    continue
                if out and out[-1][0] == "syl" and out[-1][1] == it[1]:
                    out[-1] = ("syl", it[1], V.normalize(concat(out[-1][2], word)))
                    changed = True
                    continue
                it = ("syl", it[1], word)
            else:
                if out and out[-1][0] == "stable" and out[-1][1] == it[1] and out[-1][2] == -it[2]:
                    out.pop()
                    changed = True
                    continue
            out.append(it)
        # detect trivially-dropped normalized syllables on the rebuild pass
        if len(out) != len(items):
            changed = True
        items = out
    return items


def _tree_edge_between(G: GraphOfGroups, v1: str, v2: str) -> Optional[tuple[EdgeGroup, int]]:
    """Tree edge joining two vertex labels; returns (edge, side index of v1)."""
    for e in G.edges:
        if e.label not in G.tree_edges:
            continue
        if e.left[0] == v1 and e.right[0] == v2:
            return e, 0
        if e.right[0] == v1 and e.left[0] == v2:
            return e, 1
    return None


def _base_reduce(G: GraphOfGroups, sylls: list, budget: int):
    """Amalgam/free-product reduction of a stable-letter-free segment.

    Returns (reduced syllable list, definite) where definite means the
    terminal state's nontriviality is certified by exact subcalls.
    """
    amalgam_edges = [e for e in G.edges if e.label in G.tree_edges and e.rank >= 1]
    if amalgam_edges and len(G.vertices) > 2:
        raise GraphError("amalgams along trees with more than two vertices are not supported")

    items = _normalize_items(G, [("syl", v, w) for v, w in sylls], budget)
    while True:
        converted = False
        for i, it in enumerate(items):
            _, vlab, word = it
            neighbours = {items[j][1] for j in (i - 1, i + 1) if 0 <= j < len(items)}
            other = next(iter(neighbours - {vlab}), None)
            if other is None:
                continue
            hop = _tree_edge_between(G, vlab, other)
            if hop is None or hop[0].rank == 0:
                continue
            e, side = hop
            res = subgroup_membership(G.vertices[vlab], list(e.side(side)[1]), word, budget)
            if res.status == MEMBER:
                items[i] = ("syl", other, _expression_word(e.side(1 - side)[1], res.expression))
                converted = True
                break
        if not converted:
            break
        items = _normalize_items(G, items, budget)

    # final definiteness pass
    definite = True
    for i, it in enumerate(items):
        _, vlab, word = it
        V = G.vertices[vlab]
        if V.triviality(word, budget) == UNKNOWN:
            definite = False
        if len(items) >= 2:
            for e in amalgam_edges:
                side = 0 if e.left[0] == vlab else (1 if e.right[0] == vlab else None)
                if side is None:
                    continue
                res = subgroup_membership(G.vertices[vlab], list(e.side(side)[1]), word, budget)
                if not res.definite:
                    definite = False
    return [(v, w) for _, v, w in items], definite


def _segment_membership(
    G: GraphOfGroups, segment: list, vlab: str, images: tuple[Word, ...], budget: int
) -> MembershipResult:
    """Membership of a base segment in <images> inside vertex vlab."""
    red, definite = _base_reduce(G, segment, budget)
    if not red:
        return MembershipResult(MEMBER, [])
    if len(red) >= 2:
        return MembershipResult(NONMEMBER) if definite else MembershipResult(UNKNOWN)
    seg_v, word = red[0]
    if seg_v != vlab:
        hop = _tree_edge_between(G, seg_v, vlab)
        if hop is None or hop[0].rank == 0:
            verdict = G.vertices[seg_v].triviality(word, budget)
            if verdict == NONTRIVIAL:
                return MembershipResult(NONMEMBER)
            if verdict == TRIVIAL:
                return MembershipResult(MEMBER, [])
            return MembershipResult(UNKNOWN)
        e, side = hop
        res = subgroup_membership(G.vertices[seg_v], list(e.side(side)[1]), word, budget)
        if res.status == NONMEMBER:
            return MembershipResult(NONMEMBER)
        if res.status != MEMBER:
            return MembershipResult(UNKNOWN)
        word = _expression_word(e.side(1 - side)[1], res.expression)
    return subgroup_membership(G.vertices[vlab], list(images), word, budget)


def normal_form(G: GraphOfGroups, w: Word, budget: int = 8) -> NormalForm:
    """Britton/amalgam reduction of a word over the fundamental presentation."""
    pres = G.presentation()
    w = reduce_word(w, pres.alphabet)
    items = G.decompose(w)
    edge_by_stable = {G.stable_letter(e.label): e for e in G.edges if e.label not in G.tree_edges}

    while True:
        items = _normalize_items(G, items, budget)
        scan_unknown = False
        applied = False
        i = 0
        while i < len(items):
            if items[i][0] != "stable":
                i += 1
                continue
            j = i + 1
            while j < len(items) and items[j][0] == "syl":
                j += 1
            if j >= len(items):
                break
            _, tname, sign = items[i]
            _, t2, sign2 = items[j]
            if t2 == tname and sign2 == -sign:
                e = edge_by_stable[tname]
                # relator t * left * t^-1 = right: a t ... t^-1 pinch needs
                # the segment in <left images>, and maps to the right side
                src = e.left if sign == 1 else e.right
                dst = e.right if sign == 1 else e.left
                segment = [(it[1], it[2]) for it in items[i + 1:j]]
                res = _segment_membership(G, segment, src[0], src[1], budget)
                if res.status == MEMBER:
                    replacement = ("syl", dst[0], _expression_word(dst[1], res.expression))
                    items[i:j + 1] = [replacement]
                    applied = True
                    break
                if res.status != NONMEMBER:
                    scan_unknown = True
            i = j
        if applied:
            continue
        if any(it[0] == "stable" for it in items):
            verdict = UNKNOWN if scan_unknown else NONTRIVIAL
            return NormalForm(items, verdict)
        red, definite = _base_reduce(G, [(it[1], it[2]) for it in items], budget)
        items = [("syl", v, word) for v, word in red]
        if not items:
            return NormalForm(items, TRIVIAL)
        if len(items) == 1:
            return NormalForm(items, G.vertices[items[0][1]].triviality(items[0][2], budget))
        return NormalForm(items, NONTRIVIAL if definite else UNKNOWN)


# Verdicts decided during the current top-level word problem, keyed by
# (graph, reduced word, budget); graphs hash by identity.  A tower word
# problem re-enters lower stages through composite vertices and asks the
# same subproblems many times over.  The memo lives only as long as the
# outermost call, so no verdict state outlives it.
_verdicts: contextvars.ContextVar[Optional[dict]] = contextvars.ContextVar(
    "rft_verdicts", default=None)


def word_problem(G: GraphOfGroups, w: Word, budget: int = 8) -> str:
    """Triviality verdict; Trivial verdicts are cross-checked against the
    presentation's abelianization oracle.  Each (G, w, budget) is decided
    at most once inside one top-level call."""
    memo = _verdicts.get()
    token = None
    if memo is None:
        memo = {}
        token = _verdicts.set(memo)
    try:
        pres = G.presentation()
        w = reduce_word(w, pres.alphabet)
        key = (G, w, budget)
        verdict = memo.get(key)
        if verdict is None:
            verdict = normal_form(G, w, budget).verdict
            if verdict == TRIVIAL:
                vec = abelianize(w, pres.alphabet)
                if any(vec) and solve_int_linear(pres.relator_columns(), vec) is None:
                    raise InconsistencyError(
                        "internal inconsistency: Trivial verdict contradicts the "
                        "abelianization oracle")
            memo[key] = verdict
        return verdict
    finally:
        if token is not None:
            _verdicts.reset(token)
