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
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .core import CoreReport
from .graphgroups import NONTRIVIAL, TRIVIAL
from .tower import Block, BlockA, BlockQ, BlockT, Tower
from .words import (
    Word,
    commutator,
    enumerate_ball,
    concat,
    cyclic_reduce,
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


@dataclass
class FlatClass:
    rank: int
    lattice: tuple[Word, ...]
    block_index: int
    representative: Word
    origin: str

    def __post_init__(self):
        if self.rank < 2:
            raise FlatsError("a flat class needs rank >= 2")


def flat_inventory(T: Tower, budget: int = 8) -> list[FlatClass]:
    """One class per rank >= 2 abelian lattice created during
    construction, after torus-extension deduplication."""
    out: list[FlatClass] = []
    for rec in T.lattice_records():
        if rec.superseded or len(rec.generators) < 2:
            continue
        for u, v in itertools.combinations(rec.generators, 2):
            if T.word_problem(commutator(u, v), budget) == NONTRIVIAL:
                raise FlatsError(
                    f"lattice generators {format_word(u)}, {format_word(v)} "
                    f"do not commute")
        out.append(FlatClass(len(rec.generators), rec.generators, rec.stage,
                             rec.generators[0], rec.origin))
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


@dataclass(frozen=True)
class Num(SymbolicBound):
    value: int

    def evaluate(self, k, atoms=None):
        return self.value

    def render(self, karg="k"):
        return str(self.value)


@dataclass(frozen=True)
class K(SymbolicBound):
    def evaluate(self, k, atoms=None):
        return k

    def render(self, karg="k"):
        return karg


@dataclass(frozen=True)
class Atom(SymbolicBound):
    name: str

    def evaluate(self, k, atoms=None):
        return self._lookup(atoms, self.name, k)

    def render(self, karg="k"):
        return f"{self.name}({karg})"


@dataclass(frozen=True)
class ConstAtom(SymbolicBound):
    """A named constant (independent of k), e.g. an edge-space diameter."""

    name: str

    def evaluate(self, k, atoms=None):
        return self._lookup(atoms, self.name, 0)

    def render(self, karg="k"):
        return self.name


@dataclass(frozen=True)
class Plus(SymbolicBound):
    left: SymbolicBound
    right: SymbolicBound

    def evaluate(self, k, atoms=None):
        return self.left.evaluate(k, atoms) + self.right.evaluate(k, atoms)

    def render(self, karg="k"):
        return f"{self.left.render(karg)} + {self.right.render(karg)}"


@dataclass(frozen=True)
class Times(SymbolicBound):
    left: SymbolicBound
    right: SymbolicBound

    def evaluate(self, k, atoms=None):
        return self.left.evaluate(k, atoms) * self.right.evaluate(k, atoms)

    def render(self, karg="k"):
        return f"{self.left.render(karg)}*{self.right.render(karg)}"


@dataclass(frozen=True)
class Max(SymbolicBound):
    terms: tuple[SymbolicBound, ...]

    def evaluate(self, k, atoms=None):
        if not self.terms:
            raise FlatsError("empty max")
        return max(t.evaluate(k, atoms) for t in self.terms)

    def render(self, karg="k"):
        return "max(" + ", ".join(t.render(karg) for t in self.terms) + ")"


@dataclass(frozen=True)
class Doubled(SymbolicBound):
    """D(f)(k) = f(2k) + 2k."""

    inner: SymbolicBound

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


@dataclass
class ColoredCore:
    report: CoreReport
    top_block: Block
    vertex_types: dict[int, str]
    colors: dict[int, str]


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
    return ColoredCore(R, top, types, colors)


# ---------------------------------------------------------------------------
# Isolation hypotheses
# ---------------------------------------------------------------------------


@dataclass
class HypothesisVerdict:
    name: str
    status: str  # "verified" | "verified-to-budget" | "refuted"
    budget: Optional[int] = None
    witness: Optional[str] = None
    detail: str = ""


@dataclass
class IsolationReport:
    verdicts: list[HypothesisVerdict]
    pair_log: list[str] = field(default_factory=list)

    def verdict(self, name: str) -> HypothesisVerdict:
        return next(v for v in self.verdicts if v.name == name)


def _edge_generators_at_g(C: ColoredCore, T: Tower) -> list[Word]:
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
            for img in images:
                w = reduce_word(img)
                if w and w not in gens:
                    gens.append(w)
                for c in prev_alph.generators:
                    cw = reduce_word(concat(letter(c), w, invert(letter(c))))
                    if cw not in gens:
                        gens.append(cw)
    return gens


def check_isolation_hypotheses(C: ColoredCore, T: Tower,
                               power_budget: int = 8) -> IsolationReport:
    """The three isolation hypotheses in combinatorial form:

    (0) every rank-1 edge of the core touches a G vertex;
    (1) no two distinct edge generators at a common extended G vertex
        have coinciding powers (refuted by a hit u^k = v^l; upgraded to
        exact when non-commutation of the conjugator settles it);
    (2) the top attaching element is maximal: not a proper power and not
        conjugate into any earlier flat lattice.
    """
    verdicts: list[HypothesisVerdict] = []
    pair_log: list[str] = []
    graph = T.stages[-1].graph

    # (0) rank-1 edges touch a G vertex
    touched = True
    witness0 = None
    types = C.vertex_types
    for e in graph.edges:
        if e.rank != 1:
            continue
        # an edge lift joins an M-type entry to an N-type entry; at least
        # one of the two sides must be colored G under the current rule
        g_types = {t for v, t in types.items() if C.colors[v] == G_COLOR}
        if isinstance(C.top_block, BlockQ):
            ok = N_TYPE in g_types or not types
        else:
            ok = M_TYPE in g_types or not types
        if not ok:
            touched = False
            witness0 = e.label
    verdicts.append(HypothesisVerdict(
        "hypothesis-0", "verified" if touched else "refuted", witness=witness0,
        detail="every rank-1 edge meets a G vertex" if touched else ""))

    # (1) power coincidences between distinct edge generators
    gens = _edge_generators_at_g(C, T)
    status1 = "verified"
    witness1 = None
    for u, v in itertools.combinations(gens, 2):
        if reduce_word(u) == reduce_word(v):
            continue
        hit = None
        for k in range(1, power_budget + 1):
            for l in range(1, power_budget + 1):
                for sk, sl in ((1, 1), (1, -1)):
                    w = concat(power(u, sk * k), power(v, -sl * l))
                    if T.word_problem(w, power_budget) == TRIVIAL:
                        hit = (sk * k, sl * l)
                        break
                if hit:
                    break
            if hit:
                break
        if hit:
            status1 = "refuted"
            witness1 = (f"{format_word(u)}^{hit[0]} = {format_word(v)}^{hit[1]}")
            pair_log.append(f"{format_word(u)} vs {format_word(v)}: hit {hit}")
            break
        # exact upgrade: if v = c u c^-1 and [c, u] is nontrivial in an
        # exact locus, no powers can coincide
        exact = _conjugate_noncommuting(T, u, v, power_budget)
        pair_log.append(
            f"{format_word(u)} vs {format_word(v)}: no hit to {power_budget}"
            + (", exact" if exact else ""))
        if not exact and status1 == "verified":
            status1 = "verified-to-budget"
    verdicts.append(HypothesisVerdict("hypothesis-1", status1, power_budget,
                                      witness1))

    # (2) attaching-element maximality for abelian/torus top blocks
    top = C.top_block
    if isinstance(top, (BlockA, BlockT)):
        attach = reduce_word(top.attaching[0])
        core, _ = cyclic_reduce(attach)
        pp = is_proper_power(core)
        if pp is not None:
            verdicts.append(HypothesisVerdict(
                "hypothesis-2", "refuted",
                witness=f"proper power ({format_word(pp[0])})^{pp[1]}"))
        else:
            conflict = None
            prev_flats = [rec for rec in T.lattice_records()
                          if not rec.superseded and rec.stage < T.height]
            for rec in prev_flats:
                if all(T.word_problem(commutator(attach, g), power_budget) == TRIVIAL
                       for g in rec.generators):
                    conflict = rec
                    break
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


def _conjugate_noncommuting(T: Tower, u: Word, v: Word, budget: int) -> bool:
    """True when v is c u c^-1 for a visible conjugator c that provably
    fails to commute with u — then u and v generate distinct lines."""
    u, v = reduce_word(u), reduce_word(v)
    for c in enumerate_ball(T.alphabet(), 2):
        if not c:
            continue
        if reduce_word(concat(c, u, invert(c))) == v:
            if T.word_problem(commutator(c, u), budget) == NONTRIVIAL:
                return True
        if reduce_word(concat(c, v, invert(c))) == u:
            if T.word_problem(commutator(c, v), budget) == NONTRIVIAL:
                return True
    return False
