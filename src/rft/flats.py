"""Flat inventory, vertex coloring, isolation hypotheses, and the
symbolic bound calculus for isolated-flats certificates.

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
from .tower import Block, BlockA, BlockQ, BlockT, Tower
from .words import (
    Word,
    commutator,
    concat,
    format_word,
    invert,
    is_proper_power,
    letter,
    power,
    reduce_word,
)


class FlatsError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Flat inventory
# ---------------------------------------------------------------------------


class FlatClass:
    def __init__(self, rank: int, lattice: tuple[Word, ...], block_index: int, origin: str):
        if rank < 2:
            raise FlatsError("a flat class needs rank >= 2")
        self.rank = rank
        self.lattice = lattice
        self.block_index = block_index
        self.origin = origin


def flat_inventory(T: Tower, budget: int = 8) -> list[FlatClass]:
    """One class per rank >= 2 abelian lattice created during
    construction, after torus-extension deduplication.

    Each pair of lattice generators is checked to commute by a tower word
    problem.  The block that made a lattice added the commutators of its
    new letters as relators, and a torus extension of a recorded lattice
    finds that lattice's commutators among the relators already.  So
    these word problems end at the relator step of the chain, without a
    Britton word problem, on every corpus tower; a commutator whose
    lattice was only assumed may still take the full chain."""
    out: list[FlatClass] = []
    for rec in T.lattice_records():
        for u, v in itertools.combinations(rec.generators, 2):
            if T.word_problem(commutator(u, v), budget) == NONTRIVIAL:
                raise FlatsError(
                    f"lattice generators {format_word(u)}, {format_word(v)} "
                    f"do not commute")
        out.append(FlatClass(len(rec.generators), rec.generators, rec.stage, rec.origin))
    return out


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


class HypothesisVerdict:
    def __init__(self, name: str, status: str, budget: Optional[int] = None,
                 witness: Optional[str] = None, detail: str = ""):
        self.name = name
        self.status = status  # "verified" | "verified-to-budget" | "refuted"
        self.budget = budget
        self.witness = witness
        self.detail = detail


class IsolationReport:
    def __init__(self, verdicts: list[HypothesisVerdict], pair_log: Optional[list[str]] = None):
        self.verdicts = verdicts
        self.pair_log = [] if pair_log is None else pair_log

    def verdict(self, name: str) -> HypothesisVerdict:
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
        have coinciding powers.  Under `Tower.prev_stage_csa` they lie in a
        limit group (commutative transitive, torsion-free), so a Nontrivial
        commutator settles a pair exactly; other pairs are searched for
        u^k = v^l up to `power_budget`, and a hit's witness is u^k v^-l;
    (2) the top attaching element is maximal: not a proper power and not
        conjugate into any earlier flat lattice.
    """
    verdicts: list[HypothesisVerdict] = []
    pair_log: list[str] = []
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
    verdicts.append(HypothesisVerdict(
        "hypothesis-0", "verified" if touched else "refuted", witness=witness0,
        detail="every rank-1 edge meets a G vertex" if touched else ""))

    # (1) power coincidences between distinct edge generators (no two equal)
    gens = _edge_generators_at_g(T)
    exact = T.prev_stage_csa()
    status1, witness1, detail1 = "verified", None, ""
    for u, v in itertools.combinations(gens, 2):
        pair = f"{format_word(u)} vs {format_word(v)}"
        if exact and T.word_problem(commutator(u, v), power_budget) == NONTRIVIAL:
            pair_log.append(f"{pair}: noncommuting, exact")
            continue
        hit = _power_coincidence(T, u, v, power_budget)
        if hit:
            k, l = hit
            status1 = "refuted"
            witness1 = format_word(reduce_word(concat(power(u, k), power(v, -l)))) or "1"
            detail1 = f"({format_word(u)})^{k} = ({format_word(v)})^{l}"
            pair_log.append(f"{pair}: hit {hit}")
            break
        pair_log.append(f"{pair}: no hit to {power_budget}")
        status1 = "verified-to-budget"
    verdicts.append(HypothesisVerdict("hypothesis-1", status1, power_budget,
                                      witness1, detail1))

    # (2) attaching-element maximality for abelian/torus top blocks
    top = C.top_block
    if isinstance(top, (BlockA, BlockT)):
        attach = reduce_word(top.attaching[0])
        pp = is_proper_power(attach)
        if pp is not None:
            verdicts.append(HypothesisVerdict(
                "hypothesis-2", "refuted",
                witness=f"proper power ({format_word(pp[0])})^{pp[1]}"))
        else:
            conflict = T.centralizing_lattice(attach, power_budget, below=T.height)
            recorded = [ob for ob in T.stages[-1].obligations
                        if ob.name == "attach-maximal"]
            exact = all(ob.status == "verified" for ob in recorded) if recorded else False
            if conflict:
                verdicts.append(HypothesisVerdict(
                    "hypothesis-2", "refuted",
                    witness=f"centralized by lattice at stage {conflict.stage}"))
            elif exact:
                verdicts.append(HypothesisVerdict(
                    "hypothesis-2", "verified", power_budget,
                    detail="not a proper power, not conjugate into any torus lattice"))
            else:
                verdicts.append(HypothesisVerdict(
                    "hypothesis-2", "verified-to-budget", power_budget,
                    detail="proper-power and lattice checks passed to budget"))
    else:
        verdicts.append(HypothesisVerdict(
            "hypothesis-2", "verified", detail="no abelian top block"))
    return IsolationReport(verdicts, pair_log)


def _power_coincidence(T: Tower, u: Word, v: Word, budget: int) -> Optional[tuple[int, int]]:
    """The first (k, l) with u^k = v^l in T, k then l from 1 to budget,
    l positive before negative."""
    for k in range(1, budget + 1):
        for l in range(1, budget + 1):
            for sl in (l, -l):
                if T.word_problem(concat(power(u, k), power(v, -sl)), budget) == TRIVIAL:
                    return k, sl
    return None
