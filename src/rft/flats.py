"""Flat inventory, vertex coloring, isolation hypotheses, and the
symbolic bound calculus for isolated-flats certificates.

The inventory is the tower's own `LatticeRecord`s, each checked to be
abelian, and every isolation hypothesis is reported as a `Check` of
`rft.tower`, the record of the tower's own obligations.

Geometry appears only through its finitely checkable group-theoretic
reductions: parallelism becomes power coincidence, a line parallel to a
flat becomes membership in the flat's stabilizer, and the isolation
bound is a symbolic term built from opaque atoms, max, and a doubling
transform.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from .core import CoreReport
from .graphgroups import NONTRIVIAL, TRIVIAL
from .tower import Block, BlockQ, BlockT, Check, LatticeRecord, Tower
from .words import (
    Word,
    commutator,
    concat,
    format_word,
    invert,
    letter,
    power,
    reduce_word,
)


class FlatsError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Flat inventory
# ---------------------------------------------------------------------------


def flat_inventory(T: Tower, budget: int = 8) -> list[LatticeRecord]:
    """The tower's live lattices (`Tower.lattice_records`): one flat class
    per rank >= 2 abelian lattice created during construction, after
    torus-extension deduplication.

    Each pair of lattice generators is checked to commute by a tower word
    problem.  The block that made a lattice added the commutators of its
    new letters as relators, and a torus extension of a recorded lattice
    finds that lattice's commutators among the relators already.  So
    these word problems end at the relator step of the chain, without a
    Britton word problem, on every corpus tower; a commutator whose
    lattice was only assumed may still take the full chain."""
    records = T.lattice_records()
    for rec in records:
        for u, v in itertools.combinations(rec.generators, 2):
            if T.word_problem(commutator(u, v), budget) == NONTRIVIAL:
                raise FlatsError(
                    f"lattice generators {format_word(u)}, {format_word(v)} "
                    f"do not commute")
    return records


# ---------------------------------------------------------------------------
# Symbolic bounds
# ---------------------------------------------------------------------------


class SymbolicBound:
    """Term over numeric constants, named atoms (functions of k), the
    identity k, +, *, max, and the doubling transform D: f -> f(2k)+2k.

    Named atoms are evaluated through an assignment mapping the atom name
    to a numeric function of k (or a constant).
    """

    def evaluate(self, k: int, atoms: Optional[dict] = None) -> int:
        raise NotImplementedError

    def render(self, karg: str = "k") -> str:
        raise NotImplementedError

    def __repr__(self):
        return self.render()

    @staticmethod
    def _lookup(atoms, name, k):
        if atoms is None or name not in atoms:
            raise FlatsError(f"no assignment for atom {name!r}")
        val = atoms[name]
        return val(k) if callable(val) else val


class Num(SymbolicBound):
    def __init__(self, value: int):
        self.value = value

    def evaluate(self, k, atoms=None):
        return self.value

    def render(self, karg="k"):
        return str(self.value)


class K(SymbolicBound):
    def evaluate(self, k, atoms=None):
        return k

    def render(self, karg="k"):
        return karg


class Atom(SymbolicBound):
    def __init__(self, name: str):
        self.name = name

    def evaluate(self, k, atoms=None):
        return self._lookup(atoms, self.name, k)

    def render(self, karg="k"):
        return f"{self.name}({karg})"


class ConstAtom(SymbolicBound):
    """A named constant (independent of k), e.g. an edge-space diameter."""

    def __init__(self, name: str):
        self.name = name

    def evaluate(self, k, atoms=None):
        return self._lookup(atoms, self.name, 0)

    def render(self, karg="k"):
        return self.name


class Plus(SymbolicBound):
    def __init__(self, left: SymbolicBound, right: SymbolicBound):
        self.left = left
        self.right = right

    def evaluate(self, k, atoms=None):
        return self.left.evaluate(k, atoms) + self.right.evaluate(k, atoms)

    def render(self, karg="k"):
        return f"{self.left.render(karg)} + {self.right.render(karg)}"


class Times(SymbolicBound):
    def __init__(self, left: SymbolicBound, right: SymbolicBound):
        self.left = left
        self.right = right

    def evaluate(self, k, atoms=None):
        return self.left.evaluate(k, atoms) * self.right.evaluate(k, atoms)

    def render(self, karg="k"):
        return f"{self.left.render(karg)}*{self.right.render(karg)}"


class Max(SymbolicBound):
    def __init__(self, terms: tuple[SymbolicBound, ...]):
        self.terms = terms

    def evaluate(self, k, atoms=None):
        if not self.terms:
            raise FlatsError("empty max")
        return max(t.evaluate(k, atoms) for t in self.terms)

    def render(self, karg="k"):
        return "max(" + ", ".join(t.render(karg) for t in self.terms) + ")"


class Doubled(SymbolicBound):
    """D(f)(k) = f(2k) + 2k."""

    def __init__(self, inner: SymbolicBound):
        self.inner = inner

    def evaluate(self, k, atoms=None):
        return self.inner.evaluate(2 * k, atoms) + 2 * k

    def render(self, karg="k"):
        return f"({self.inner.render(f'2{karg}')}) + 2{karg}"


def compose_isolation_bound(
    phi_v: Sequence[SymbolicBound],
    psi_e: Sequence[SymbolicBound],
    psi_prime: Optional[SymbolicBound],
    edge_diams: Sequence[SymbolicBound],
) -> SymbolicBound:
    """phi(k) = max over D(phi_v), D(psi_e), D(psi'), and diam + 2k."""
    two_k = Times(Num(2), K())
    terms: list[SymbolicBound] = [Doubled(f) for f in phi_v]
    terms += [Doubled(f) for f in psi_e]
    if psi_prime is not None:
        terms.append(Doubled(psi_prime))
    terms += [Plus(d, two_k) for d in edge_diams]
    if not terms:
        raise FlatsError("nothing to bound: all four families are empty")
    return Max(tuple(terms))


# ---------------------------------------------------------------------------
# Coloring
# ---------------------------------------------------------------------------


G_COLOR = "G"
B_COLOR = "B"
M_TYPE = "M-type"
N_TYPE = "N-type"


class ColoredCore:
    def __init__(self, top_block: Block, vertex_types: dict[int, str], colors: dict[int, str]):
        self.top_block = top_block
        self.vertex_types = vertex_types
        self.colors = colors


def _vertex_types(R: CoreReport, T: Tower) -> dict[int, str]:
    """N-type: cover vertices reached through the top block's new letters;
    M-type: lifts of the previous stage."""
    top_alph = set(T.alphabet().generators)
    prev_alph = set(T.alphabet(T.height - 1).generators)
    new_letters = top_alph - prev_alph
    types = {}
    for v in R.vertices:
        path = R.cover.path_words.get(v, ())
        if path and path[-1][0] in new_letters:
            types[v] = N_TYPE
        else:
            types[v] = M_TYPE
    return types


def color_vertices(R: CoreReport, T: Tower) -> ColoredCore:
    """Apply the coloring rule for the top block: quadratic blocks make
    the new (N-type) vertices good, abelian/torus blocks make the old
    (M-type) vertices good."""
    if T.height < 1:
        raise FlatsError(
            "height-0 tower has no block decomposition; handle the free-product "
            "base case directly")
    top = T.stages[-1].block
    types = _vertex_types(R, T)
    if isinstance(top, BlockQ):
        colors = {v: (G_COLOR if t == N_TYPE else B_COLOR) for v, t in types.items()}
    else:
        colors = {v: (G_COLOR if t == M_TYPE else B_COLOR) for v, t in types.items()}
    return ColoredCore(top, types, colors)


# ---------------------------------------------------------------------------
# Isolation hypotheses
# ---------------------------------------------------------------------------


class IsolationReport:
    def __init__(self, verdicts: list[Check], pair_log: Optional[list[tuple]] = None):
        self.verdicts = verdicts  # statuses "verified" | "verified-to-budget" | "refuted"
        # (u, v, "noncommuting" | "hit" | "no hit") per pair hypothesis 1 compared
        self.pair_log = [] if pair_log is None else pair_log

    def verdict(self, name: str) -> Check:
        return next(v for v in self.verdicts if v.name == name)


def _edge_generators_at_g(T: Tower) -> list[Word]:
    """Edge-group generators incident to extended G vertex spaces,
    including conjugated copies by single-generator conjugators."""
    graph = T.stages[-1].graph
    gens: list[Word] = []
    prev_alph = T.alphabet(T.height - 1)
    for e in graph.edges:
        for which in (0, 1):
            vlab, images = e.side(which)
            V = graph.vertices[vlab]
            if not set(V.alphabet.generators) <= set(prev_alph.generators):
                continue  # edge generators are read on the previous-stage side
            for img in images:  # nontrivial and reduced where the graph was built
                if img not in gens:
                    gens.append(img)
                for c in prev_alph.generators:
                    cw = reduce_word(concat(letter(c), img, invert(letter(c))))
                    if cw not in gens:
                        gens.append(cw)
    return gens


def check_isolation_hypotheses(C: ColoredCore, T: Tower,
                               power_budget: int = 8) -> IsolationReport:
    """The three isolation hypotheses in combinatorial form:

    (0) every rank-1 edge of the core touches a G vertex;
    (1) no two distinct edge generators at a common extended G vertex
        have coinciding powers.  Each generator's `Tower.free_images` are
        read once.  A pair whose images do not commute has no u^k = v^l
        (`Tower.power_relations`); the other pairs are searched for
        u^k = v^l up to `power_budget`, over the (k, l) their images allow
        only, and a hit's witness is u^k v^-l.  Under
        `Tower.prev_stage_csa` the generators lie in a limit group
        (commutative transitive, torsion-free), so a pair whose images do
        not commute, or whose commutator is Nontrivial, is settled exactly
        ("noncommuting"); the commutator is asked only after a search
        without a hit, since a hit proves that u and v commute;
    (2) the top attaching element is maximal: not a proper power and not
        conjugate into any earlier flat lattice.
    """
    verdicts: list[Check] = []
    pair_log: list[tuple[Word, Word, str]] = []
    graph = T.stages[-1].graph

    # (0) rank-1 edges touch a G vertex: an edge lift joins an M-type entry
    # to an N-type entry, and at least one of the two sides must be colored
    # G under the current rule.  That test does not depend on the edge, so
    # it is made once; the witness is the last rank-1 edge.
    rank1 = [e.label for e in graph.edges if e.rank == 1]
    types = C.vertex_types
    g_types = {t for v, t in types.items() if C.colors[v] == G_COLOR}
    needed = N_TYPE if isinstance(C.top_block, BlockQ) else M_TYPE
    touched = not rank1 or not types or needed in g_types
    witness0 = None if touched else rank1[-1]
    verdicts.append(Check(
        "hypothesis-0", "verified" if touched else "refuted",
        "every rank-1 edge meets a G vertex" if touched else "", witness0))

    # (1) power coincidences between distinct edge generators (no two equal)
    gens = _edge_generators_at_g(T)
    images = {g: T.free_images(g) for g in gens}
    exact = T.prev_stage_csa()
    status1, witness1, detail1 = "verified", None, ""
    for u, v in itertools.combinations(gens, 2):
        relations = T.power_relations(images[u], images[v])
        hit = _power_coincidence(T, u, v, power_budget, relations)
        if hit:
            k, l = hit
            status1 = "refuted"
            witness1 = format_word(reduce_word(concat(power(u, k), power(v, -l)))) or "1"
            detail1 = f"({format_word(u)})^{k} = ({format_word(v)})^{l}"
            pair_log.append((u, v, "hit"))
            break
        if exact and (relations is None
                      or T.word_problem(commutator(u, v), power_budget) == NONTRIVIAL):
            pair_log.append((u, v, "noncommuting"))
            continue
        pair_log.append((u, v, "no hit"))
        status1 = "verified-to-budget"
    verdicts.append(Check("hypothesis-1", status1, detail1, witness1))

    # (2) attaching-element maximality for abelian/torus top blocks
    top = C.top_block
    h2 = Check("hypothesis-2", "verified", "no abelian top block")
    if isinstance(top, BlockT):
        attach = reduce_word(top.attach[0])
        r, k, _ = T.root(attach)
        conflict = None if k > 1 else T.maximal_abelian(attach, power_budget, below=T.height)[0]
        recorded = {ob.status for ob in T.stages[-1].obligations if ob.name == "attach-maximal"}
        if k > 1 or conflict:
            h2 = Check("hypothesis-2", "refuted", witness=f"proper power ({format_word(r)})^{k}"
                       if k > 1 else f"centralized by lattice at stage {conflict.stage}")
        elif recorded == {"verified"}:
            h2 = Check("hypothesis-2", "verified",
                       "not a proper power, not conjugate into any torus lattice")
        else:
            # the ledger leaves it open, so the proper-power half needs a map
            h2 = Check("hypothesis-2", "verified-to-budget",
                       "proper-power and lattice checks passed to budget"
                       if T.non_power_map(attach) is not None
                       else "proper power undecided; lattice checks passed to budget")
    verdicts.append(h2)
    return IsolationReport(verdicts, pair_log)


def _power_coincidence(T: Tower, u: Word, v: Word, budget: int,
                       relations: Optional[tuple[tuple[int, int], ...]]
                       ) -> Optional[tuple[int, int]]:
    """The first (k, l) with u^k = v^l in T, k then l from 1 to budget,
    l positive before negative, among the (k, l) that `relations`, the
    `Tower.power_relations` of u and v, allow: k a = l b for every pair
    (a, b).  None, or a pair with a or b zero (then k or l would be 0),
    allows none.  A pair fixes l = k a / b, so each k asks at most one
    word problem where there are pairs, and 2 budget where there are
    none."""
    if relations is None or not all(a and b for a, b in relations):
        return None
    every = [s for l in range(1, budget + 1) for s in (l, -l)]
    for k in range(1, budget + 1):
        ls = every
        if relations:  # the first pair fixes l, and every pair must agree
            a, b = relations[0]
            l, rest = divmod(k * a, b)
            ls = [l] if not rest and abs(l) <= budget and all(
                k * a2 == l * b2 for a2, b2 in relations) else []
        for l in ls:
            if T.word_problem(concat(power(u, k), power(v, -l)), budget) == TRIVIAL:
                return k, l
    return None
