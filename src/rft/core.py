"""Covers and finite cores: expand the cover of a finitely generated
subgroup and extract a finite subgraph carrying its fundamental group.

The cover is kept as a letter-labelled graph over the group's
generators (a Stallings-style automaton).  Over a free base this is
exact; over a tower the graph is additionally folded by word-problem
verified coset identifications and the stabilization criterion is
explicitly heuristic.

`CoverGraph` reduces and checks the subgroup generators it is given.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from typing import Hashable, Optional

from .folding import Delta, Edge, Labelled, fold, petal, walk
from .graphgroups import TRIVIAL, UNKNOWN
from .tower import Tower
from .words import Alphabet, Word, concat, format_word, invert, reduce_word


class CoreError(ValueError):
    """Cover not expanded far enough, or an undecidable input word."""


class CoverGraph:
    """The portion of the subgroup cover generated by tracing the
    subgroup generators, folded and (over towers) coset-identified.

    A coset identification is verified by the word problem; the tower's
    `element_key` rules out most candidates before any word problem runs."""

    def __init__(self, source: Tower, subgens: list[Word],
                 depth_budget: int = 2, budget: int = 8):
        self.source = source
        pres = source.presentation()
        self._wp = lambda w: source.word_problem(w, budget)
        self.alphabet: Alphabet = pres.alphabet
        self.exact = not pres.relators

        kept: list[Word] = []
        for g in subgens:
            w = reduce_word(g, self.alphabet)
            v = self._wp(w)
            if v == TRIVIAL:
                warnings.warn(f"dropping trivial subgroup generator {format_word(g)}")
                continue
            if v == UNKNOWN:
                raise CoreError(
                    f"cannot certify nontriviality of generator {format_word(g)}")
            kept.append(w)
        self.subgens = kept

        # petal graph, one loop per generator, then free folding
        self._set_edges(*fold(*petal(kept)))
        self.rounds_log: list[int] = []
        if not self.exact:
            for _ in range(max(depth_budget, 0)):
                merges = self._identify_round()
                self.rounds_log.append(merges)
                if merges == 0:
                    break

    # -- structure ---------------------------------------------------------

    def _set_edges(self, edges: Labelled, base: int, delta: Delta):
        self.base = base
        self.edges = edges
        self.delta = delta
        self.vertices = sorted(delta)
        self.path_words = self._bfs_paths()

    def _bfs_paths(self) -> dict[int, Word]:
        paths = {self.base: ()}
        frontier = [self.base]
        while frontier:
            nxt = []
            for v in frontier:
                for (sym, sign) in sorted(self.delta[v],
                                          key=lambda k: (self.alphabet.index(k[0]), -k[1])):
                    u = self.delta[v][(sym, sign)]
                    if u not in paths:
                        paths[u] = paths[v] + ((sym, sign),)
                        nxt.append(u)
            frontier = nxt
        return paths

    # -- tower-regime identification --------------------------------------

    @functools.cached_property
    def _membership_candidates(self) -> list[Word]:
        """Short elements of the subgroup used to verify identifications,
        built once per cover, when the first vertex pair is tested: the
        subgenerators never change."""
        gens = self.subgens + [invert(g) for g in self.subgens]
        products = [reduce_word(concat(a, b)) for a, b in itertools.product(gens, repeat=2)]
        return list(dict.fromkeys([(), *gens, *products]))

    @functools.cached_property
    def _candidates_by_key(self) -> dict[Hashable, list[Word]]:
        """The membership candidates grouped by `Tower.element_key`, each
        group in candidate order."""
        groups: dict[Hashable, list[Word]] = {}
        for h in self._membership_candidates:
            groups.setdefault(self.source.element_key(h), []).append(h)
        return groups

    def _identify_round(self) -> int:
        """One round: merge vertex pairs whose connecting word c provably
        lies in the subgroup, then fold; returns the number of vertices
        the round removed (0 when no pair merged).

        c lies in the subgroup when c h^-1 is trivial for a membership
        candidate h.  Equal elements have equal keys, so only the
        candidates with the key of c are asked, in candidate order."""
        merged_pairs: list[tuple[int, int]] = []
        verts = sorted(self.path_words)
        for i, u in enumerate(verts):
            for v in verts[i + 1:]:
                c = reduce_word(concat(self.path_words[u], invert(self.path_words[v])))
                candidates = self._candidates_by_key.get(self.source.element_key(c), ())
                if any(self._wp(concat(c, invert(h))) == TRIVIAL for h in candidates):
                    merged_pairs.append((u, v))
        if not merged_pairs:
            return 0
        before = len(self.vertices)
        self._set_edges(*fold(self.edges, max(self.vertices) + 1, merged_pairs))
        return before - len(self.vertices)

    # -- canonical form ----------------------------------------------------

    def canonical_form(self) -> tuple:
        """Shortlex-minimal adjacency encoding after BFS renumbering; two
        covers are graph-isomorphic iff the forms are equal."""
        order = {v: i for i, v in enumerate(self.path_words)}
        return tuple(sorted(
            (order[a], sym, order[b]) for a, sym, b in self.edges))


# ---------------------------------------------------------------------------
# Core extraction
# ---------------------------------------------------------------------------


class LoopExpression:
    def __init__(self, generator: Word, steps: list[tuple[int, str, int, int]]):
        self.generator = generator
        self.steps = steps  # (from-vertex, sym, sign, to-vertex)


class PieceClass:
    def __init__(self, edge_label: str, rank: int, kind: str, lifts: int, note: str = ""):
        self.edge_label = edge_label
        self.rank = rank
        self.kind = kind  # "Strip" | "Annulus" | "TorusTube"
        self.lifts = lifts
        self.note = note


class CoreReport:
    def __init__(self, vertices: list[int], edges: list[Edge], base: int,
                 loop_expressions: list[LoopExpression], rank: int, exact: bool,
                 stabilization: dict, cover: CoverGraph):
        self.vertices = vertices
        self.edges = edges
        self.base = base
        self.loop_expressions = loop_expressions
        self.rank = rank
        self.exact = exact
        self.stabilization = stabilization
        self.cover = cover

    def canonical_form(self) -> tuple:
        return self.cover.canonical_form()


def expand_cover(source: Tower, subgens: list[Word],
                 depth_budget: int = 2, budget: int = 8) -> CoverGraph:
    return CoverGraph(source, subgens, depth_budget, budget)


def extract_core(C: CoverGraph, required: Optional[set] = None) -> CoreReport:
    """Finite subgraph carrying the subgroup: the union of the generator
    loops (plus any required cells), connected along BFS tree paths.

    Stabilization evidence: no further identification round changes
    anything.  A cover whose own rounds ended quiet needs none; otherwise
    at most one more round runs, and a quiet round stands for every later
    one.  Exact over a free base; explicitly heuristic otherwise.
    """
    required = set(required or ())
    loops: list[LoopExpression] = []
    used_edges: set[Edge] = set()
    used_vertices: set[int] = {C.base}
    for w in C.subgens:
        v = C.base
        steps = []
        for sym, sign in w:
            u = C.delta.get(v, {}).get((sym, sign))
            if u is None:
                raise CoreError(
                    f"generator loop for {format_word(w)} does not close; "
                    f"raise depth_budget")
            steps.append((v, sym, sign, u))
            used_edges.add((v, sym, u) if sign == 1 else (u, sym, v))
            used_vertices.update((v, u))
            v = u
        if v != C.base:
            raise CoreError(
                f"generator loop for {format_word(w)} does not return to base")
        loops.append(LoopExpression(w, steps))

    for cell in required:
        if isinstance(cell, int):
            used_vertices.add(cell)
        else:
            used_edges.add(cell)
            used_vertices.update((cell[0], cell[2]))
    # close up connectivity along the BFS spanning tree
    for v in list(used_vertices):
        path = C.path_words.get(v)
        if path is None:
            raise CoreError(f"required cell {v} is outside the generated cover")
        u = C.base
        for sym, sign in path:
            nxt = C.delta[u][(sym, sign)]
            used_edges.add((u, sym, nxt) if sign == 1 else (nxt, sym, u))
            used_vertices.update((u, nxt))
            u = nxt

    rank = len(used_edges) - len(used_vertices) + 1

    stab: dict = {"criterion": "generator loops closed + two quiet rounds",
                  "heuristic": not C.exact}
    if C.exact:
        stab["evidence"] = "free base: folding is exact, no rounds needed"
        stab["quiet_rounds"] = 2
    else:
        # A round that merges nothing leaves the graph unchanged, and rounds
        # are deterministic, so one quiet round implies every later one: a
        # cover whose own loop ended quiet needs no further round, and
        # otherwise one quiet round stands for two.
        if (not C.rounds_log or C.rounds_log[-1]) and C._identify_round():
            raise CoreError("cover not stabilized; raise depth_budget")
        stab["quiet_rounds"] = 2
        stab["evidence"] = "two further identification rounds added nothing"

    return CoreReport(sorted(used_vertices), sorted(used_edges), C.base, loops,
                      rank, C.exact, stab, C)


def classify_edge_pieces(R: CoreReport) -> list[PieceClass]:
    """Per edge of the base splitting: Strip (rank 0), Annulus (rank 1) or
    TorusTube (rank >= 2), with the number of closed lifts in the core."""
    graph = R.cover.source.stages[-1].graph

    def kind_of(rank: int) -> str:
        return "Strip" if rank == 0 else ("Annulus" if rank == 1 else "TorusTube")

    out: list[PieceClass] = []
    base_edges = list(graph.edges)
    if not base_edges:
        # wedge of circles: each letter's edges are strips between the two
        # incident vertex entries
        for sym in R.cover.alphabet.generators:
            lifts = sum(1 for (a, s, b) in R.edges if s == sym)
            out.append(PieceClass(sym, 0, "Strip", lifts,
                                  note="rectangle support lies in the incident "
                                       "vertex entries"))
        return out
    for e in base_edges:
        if e.rank == 0:
            attach = None
        else:
            attach = e.side(1)[1][0] if e.side(1)[1] else None
        lifts = 0
        if attach is not None:
            for v in R.vertices:
                if walk(R.cover.delta, v, attach) == v:
                    lifts += 1
        note = ("rectangle support lies in the incident vertex entries"
                if e.rank == 0 else "")
        out.append(PieceClass(e.label, e.rank, kind_of(e.rank), lifts, note))
    return out
