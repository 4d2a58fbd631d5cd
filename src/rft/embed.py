"""Embedding a one-edge splitting into an enlarged tower.

Given a group L split over a single edge, a strict quotient of that
splitting, and the target tower of the quotient, build the tower with
one more block and the map j: L -> tower, then certify injectivity of j
on finite balls.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import graphgroups as gg
from .graphgroups import GraphOfGroups, NONTRIVIAL, TRIVIAL, UNKNOWN
from .intlinalg import solve_int_linear, unimodular_with_first_row_image
from .tower import BlockA, BlockQ, BlockT, Obligation, Tower, attach_block
from .words import (
    GroupHom,
    SurfacePresentation,
    Word,
    abelianize,
    commutator,
    concat,
    cyclic_reduce,
    enumerate_ball,
    format_word,
    invert,
    is_proper_power,
    letter,
    power,
    reduce_word,
)

AMALGAM = "amalgam"
HNN = "hnn"
ABELIAN = "abelian"
QH = "qh"


class EmbedError(ValueError):
    """Malformed splitting/quotient data or a refuted hard obligation."""


@dataclass(frozen=True)
class SplittingData:
    """A one-edge splitting of L, supplied as a graph of groups so L's
    own word problem is available."""

    kind: str
    L: GraphOfGroups
    edge_label: str
    surface: Optional[SurfacePresentation] = None  # qh: the surface vertex
    special_vertex: Optional[str] = None  # qh/abelian: label of that vertex

    def __post_init__(self):
        if self.kind not in (AMALGAM, HNN, ABELIAN, QH):
            raise EmbedError(f"unknown splitting kind {self.kind!r}")
        if self.edge_label not in {e.label for e in self.L.edges}:
            raise EmbedError(f"no edge labelled {self.edge_label!r}")
        if self.kind == QH:
            if self.surface is None or self.special_vertex is None:
                raise EmbedError("qh splitting needs the surface vertex data")
            if self.surface.closed:
                raise EmbedError("qh surface must have boundary")
        if self.kind == ABELIAN and self.special_vertex is None:
            raise EmbedError("abelian splitting needs the abelian vertex label")

    @property
    def edge(self):
        return next(e for e in self.L.edges if e.label == self.edge_label)


@dataclass(frozen=True)
class StrictQuotientData:
    """rho: L -> L' followed by an inclusion i: L' -> tower alphabet."""

    rho: GroupHom
    i: GroupHom
    gamma_prime: Tower

    @property
    def nu(self) -> GroupHom:
        return self.rho.then(self.i)


@dataclass
class AbelianLocus:
    """The maximal abelian subgroup of the target that contains the
    edge-group image; `status` records how maximality was certified."""

    generators: tuple[Word, ...]
    status: str  # "verified" | "budget-limited"
    detail: str = ""


@dataclass
class EmbeddingResult:
    gamma: Tower
    j: GroupHom
    U: AbelianLocus
    new_letter: str
    obligations: list[Obligation] = field(default_factory=list)


def maximal_abelian_containing(tower: Tower, w: Word, budget: int = 8) -> AbelianLocus:
    """Maximal abelian subgroup of the tower group containing <w>.

    Exact on free loci (centralizers are cyclic on the root) and on
    recorded torus lattices; otherwise a budget-limited cyclic candidate.
    """
    pres = tower.presentation()
    w = reduce_word(w, pres.alphabet)
    if not w:
        raise EmbedError("trivial word has no maximal abelian overgroup here")
    if not pres.relators:
        core, conj = cyclic_reduce(w)
        pp = is_proper_power(core)
        root = pp[0] if pp else core
        gen = reduce_word(concat(conj, root, invert(conj)))
        return AbelianLocus((gen,), "verified", "free locus: cyclic on the root")
    for rec in tower.lattice_records():
        if rec.superseded:
            continue
        if all(tower.word_problem(commutator(w, g), budget) == TRIVIAL
               for g in rec.generators):
            return AbelianLocus(tuple(rec.generators), "verified",
                                "centralized by a recorded torus lattice")
    return AbelianLocus((w,), "budget-limited",
                        "composite locus: cyclic candidate, maximality unresolved")


def _check_nu(S: SplittingData, D: StrictQuotientData, budget: int,
              obligations: list[Obligation], assume: bool):
    nu = D.nu
    for r in S.L.presentation().relators:
        verdict = D.gamma_prime.word_problem(nu.apply(r), budget)
        if verdict == NONTRIVIAL:
            raise EmbedError(
                f"nu is not a homomorphism: relator {format_word(r)} maps to a "
                f"nontrivial word")
        ob = Obligation("nu-homomorphism",
                        "verified" if verdict == TRIVIAL else "budget-limited",
                        f"relator {format_word(r)}")
        if ob.status == "budget-limited":
            if not assume:
                raise EmbedError(f"nu-homomorphism unresolved on {format_word(r)}")
            ob.status = "assumed"
        obligations.append(ob)


def _fresh_name(base: str, used: set[str]) -> str:
    cand, i = base, 1
    while cand in used:
        cand = f"{base}{i}"
        i += 1
    used.add(cand)
    return cand


def _edge_sides(S: SplittingData):
    """(kept side, moved side) of the splitting edge: the base vertex of L
    stays fixed, the other vertex gets conjugated by the new letter."""
    e = S.edge
    if e.left[0] == S.L.base:
        return e.left, e.right
    return e.right, e.left


def embed_step(S: SplittingData, D: StrictQuotientData, budget: int = 8,
               assume: bool = False) -> EmbeddingResult:
    obligations: list[Obligation] = []
    _check_nu(S, D, budget, obligations, assume)
    nu = D.nu
    gp = D.gamma_prime
    L_alph = S.L.presentation().alphabet

    if S.kind in (AMALGAM, HNN):
        kept, moved = _edge_sides(S)
        if S.edge.rank != 1:
            raise EmbedError("amalgam/hnn steps support cyclic edge groups")
        e_img = nu.apply(kept[1][0])
        U = maximal_abelian_containing(gp, e_img, budget)
        used = set(gp.alphabet().generators) | set(L_alph.generators)
        t = _fresh_name("t", used)
        if len(U.generators) == 1:
            block = BlockA(U.generators[0], 2, (t,))
        else:
            block = BlockT(U.generators, len(U.generators) + 1, (t,))
        gamma = attach_block(gp, block, budget,
                             assume=assume or U.status != "verified")
        tl = letter(t)
        images: dict[str, Word] = {}
        if S.kind == AMALGAM:
            moved_vertex = moved[0]
            moved_gens = set(S.L.vertices[moved_vertex].alphabet.generators)
            for g in L_alph.generators:
                img = nu.apply(letter(g))
                if g in moved_gens:
                    images[g] = reduce_word(concat(tl, img, invert(tl)))
                else:
                    images[g] = img
        else:
            s = S.edge.stable_letter
            if s is None:
                raise EmbedError("hnn splitting needs a stable letter on the edge")
            for g in L_alph.generators:
                if g == s:
                    images[g] = reduce_word(concat(tl, nu.apply(letter(g))))
                else:
                    images[g] = nu.apply(letter(g))
        j = GroupHom(L_alph, gamma.alphabet(), images)

    elif S.kind == ABELIAN:
        kept, moved = _edge_sides(S)
        ab_label = S.special_vertex
        V = S.L.vertices[ab_label]
        if V.kind != "abelian":
            raise EmbedError(f"vertex {ab_label!r} is not free-abelian")
        # orient: `side_b` is the peripheral inclusion into the abelian vertex
        side_b = kept if kept[0] == ab_label else moved
        side_a = moved if kept[0] == ab_label else kept
        if S.edge.rank != 1:
            raise EmbedError("abelian-vertex steps support cyclic edge groups")
        n = len(V.alphabet)
        e_img = nu.apply(side_a[1][0])
        U = maximal_abelian_containing(gp, e_img, budget)
        if len(U.generators) != 1:
            raise EmbedError("abelian-vertex step needs a cyclic abelian locus")
        w = U.generators[0]
        sol = solve_int_linear([abelianize(w, gp.alphabet())],
                               abelianize(e_img, gp.alphabet()))
        if sol is None:
            raise EmbedError("edge image is not a power of the abelian locus root")
        c = sol[0]
        v = abelianize(side_b[1][0], V.alphabet)
        M = unimodular_with_first_row_image(v)
        g = sum(M[0][j] * v[j] for j in range(n))
        if c % g != 0:
            raise EmbedError("edge exponents incompatible with the vertex lattice")
        used = set(gp.alphabet().generators) | set(L_alph.generators)
        new_letters = tuple(_fresh_name("s", used) for _ in range(n - 1))
        t = new_letters[0] if new_letters else ""
        block = BlockT((w,), n, new_letters)
        gamma = attach_block(gp, block, budget,
                             assume=assume or U.status != "verified")
        lam = [power(w, c // g)] + [letter(s) for s in new_letters]
        images = {}
        ab_gens = V.alphabet.generators
        for g_ in L_alph.generators:
            if g_ in V.alphabet:
                jcol = ab_gens.index(g_)
                images[g_] = reduce_word(
                    concat(*(power(lam[i], M[i][jcol]) for i in range(n))))
            else:
                images[g_] = nu.apply(letter(g_))
        j = GroupHom(L_alph, gamma.alphabet(), images)

    else:  # QH
        kept, moved = _edge_sides(S)
        surf = S.surface
        if surf.punctures != 1:
            raise EmbedError("one-edge qh steps support a single boundary circle")
        qh_label = S.special_vertex
        side_q = kept if kept[0] == qh_label else moved
        side_r = moved if kept[0] == qh_label else kept
        attach_w = nu.apply(side_r[1][0])
        used = set(gp.alphabet().generators) | set(L_alph.generators)
        fresh = tuple(_fresh_name(g, used) for g in surf.generators)
        copy = SurfacePresentation(surf.genus, surf.punctures, fresh)
        retraction = {
            f: nu.apply(letter(g)) for f, g in zip(fresh, surf.generators)
        }
        block = BlockQ(copy, (attach_w,), retraction)
        gamma = attach_block(gp, block, budget, assume=assume)
        U = maximal_abelian_containing(gp, attach_w, budget)
        rename = dict(zip(surf.generators, fresh))
        images = {}
        for g_ in L_alph.generators:
            if g_ in rename:
                images[g_] = letter(rename[g_])
            else:
                images[g_] = nu.apply(letter(g_))
        j = GroupHom(L_alph, gamma.alphabet(), images)
        t = ""

    # hard postcondition: j kills every relator of L
    for r in S.L.presentation().relators:
        verdict = gamma.word_problem(j.apply(r), budget)
        if verdict == NONTRIVIAL:
            raise EmbedError(
                f"j is not a homomorphism: relator {format_word(r)} survives")
        ob = Obligation("j-homomorphism",
                        "verified" if verdict == TRIVIAL else "budget-limited",
                        f"relator {format_word(r)}")
        if ob.status == "budget-limited" and not assume:
            raise EmbedError(f"j-homomorphism unresolved on {format_word(r)}")
        obligations.append(ob)

    new_letter = "" if S.kind == QH else t
    return EmbeddingResult(gamma, j, U, new_letter, obligations)


# ---------------------------------------------------------------------------
# Strict-quotient validation
# ---------------------------------------------------------------------------


@dataclass
class BulletVerdict:
    name: str
    status: str  # "verified" | "refuted" | "budget-limited" | "not-applicable"
    witness: Optional[str] = None
    detail: str = ""


def validate_strict_quotient(S: SplittingData, D: StrictQuotientData,
                             ball_radius: int = 2, budget: int = 8) -> list[BulletVerdict]:
    """Check the strict-quotient conditions bullet by bullet:
    peripheral injectivity on abelian vertices, edge-group injectivity
    with a maximal-abelian image, nonabelian QH image, and envelope
    injectivity on a finite ball."""
    nu = D.nu
    gp = D.gamma_prime
    out: list[BulletVerdict] = []
    edge = S.edge

    # peripheral subgroups of abelian vertices
    if S.kind == ABELIAN:
        V = S.L.vertices[S.special_vertex]
        side = edge.left if edge.left[0] == S.special_vertex else edge.right
        bad = next((img for img in side[1]
                    if gp.word_problem(nu.apply(img), budget) == TRIVIAL), None)
        if bad is not None:
            out.append(BulletVerdict("abelian-peripheral", "refuted",
                                     witness=format_word(bad)))
        else:
            out.append(BulletVerdict("abelian-peripheral", "verified",
                                     detail="peripheral generators survive"))
    else:
        out.append(BulletVerdict("abelian-peripheral", "not-applicable"))

    # edge-group injectivity and maximality of one image
    verdicts = []
    for side in (edge.left, edge.right):
        for img in side[1]:
            verdicts.append(gp.word_problem(nu.apply(img), budget))
    if TRIVIAL in verdicts:
        killed = next(
            format_word(img) for side in (edge.left, edge.right) for img in side[1]
            if gp.word_problem(nu.apply(img), budget) == TRIVIAL)
        out.append(BulletVerdict("edge-injective-maximal", "refuted", witness=killed,
                                 detail="edge generator dies"))
    elif edge.rank == 1:
        e_img = nu.apply(edge.left[1][0])
        locus = maximal_abelian_containing(gp, e_img, budget)
        maximal = (locus.status == "verified"
                   and len(locus.generators) == 1
                   and reduce_word(locus.generators[0]) == reduce_word(e_img))
        if maximal:
            out.append(BulletVerdict("edge-injective-maximal", "verified",
                                     detail="image generates its own maximal "
                                            "abelian subgroup"))
        elif locus.status == "verified":
            out.append(BulletVerdict(
                "edge-injective-maximal", "verified",
                detail="image sits in the maximal abelian subgroup "
                       f"<{', '.join(format_word(g) for g in locus.generators)}>"))
        else:
            out.append(BulletVerdict("edge-injective-maximal", "budget-limited",
                                     detail=locus.detail))
    else:
        out.append(BulletVerdict("edge-injective-maximal",
                                 "verified" if UNKNOWN not in verdicts else "budget-limited",
                                 detail="higher-rank edge: generators survive"))

    # QH image nonabelian
    if S.kind == QH:
        gens = S.surface.generators
        pair = None
        all_commute = True
        for x, y in itertools.combinations(gens, 2):
            c = commutator(nu.apply(letter(x)), nu.apply(letter(y)))
            v = gp.word_problem(c, budget)
            if v == NONTRIVIAL:
                pair = (x, y)
                break
            if v != TRIVIAL:
                all_commute = False
        if pair:
            out.append(BulletVerdict("qh-nonabelian", "verified",
                                     detail=f"witness pair {pair[0]}, {pair[1]}"))
        elif all_commute:
            out.append(BulletVerdict("qh-nonabelian", "refuted",
                                     witness=f"[{gens[0]}, {gens[1]}] maps to a "
                                             f"trivial commutator"))
        else:
            out.append(BulletVerdict("qh-nonabelian", "budget-limited"))
    else:
        out.append(BulletVerdict("qh-nonabelian", "not-applicable"))

    # envelope injectivity: rigid vertex generators plus centralizers of the
    # incident edge images, checked on a finite ball
    rigid = S.L.base if S.kind != QH else next(
        (v for v in S.L.vertices if v != S.special_vertex), S.L.base)
    Vr = S.L.vertices[rigid]
    side = edge.left if edge.left[0] == rigid else edge.right
    env_gens: list[Word] = [letter(g) for g in Vr.alphabet.generators]
    cent_status = "verified"
    for img in side[1]:
        if maximal_abelian_containing(gp, nu.apply(img), budget).status != "verified":
            cent_status = "budget-limited"
    ball = _generated_ball(env_gens, ball_radius)
    refuted = None
    unknown = False
    for u, v in itertools.combinations(ball, 2):
        d = reduce_word(concat(u, invert(v)))
        lv = gg.word_problem(S.L, d, budget)
        if lv != NONTRIVIAL:
            continue
        tv = gp.word_problem(nu.apply(d), budget)
        if tv == TRIVIAL:
            refuted = format_word(d)
            break
        if tv == UNKNOWN:
            unknown = True
    if refuted:
        out.append(BulletVerdict("envelope-injective", "refuted", witness=refuted))
    elif unknown or cent_status != "verified":
        out.append(BulletVerdict("envelope-injective", "budget-limited",
                                 detail=f"checked radius {ball_radius}"))
    else:
        out.append(BulletVerdict("envelope-injective", "verified",
                                 detail=f"injective on the radius-{ball_radius} ball"))
    return out


def _generated_ball(gens: list[Word], radius: int) -> list[Word]:
    """All reduced products of at most `radius` generators (and inverses)."""
    seen = {(): None}
    frontier = [()]
    steps = [reduce_word(g) for g in gens if reduce_word(g)]
    steps += [invert(g) for g in steps]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for s in steps:
                u = reduce_word(concat(w, s))
                if u not in seen:
                    seen[u] = None
                    nxt.append(u)
        frontier = nxt
    return list(seen)


# ---------------------------------------------------------------------------
# Ball certification
# ---------------------------------------------------------------------------


@dataclass
class BallEvidence:
    word: Word
    source_verdict: str
    image: Word
    image_verdict: str
    method: str  # "direct" | "witness" | "none"


@dataclass
class BallCertificate:
    radius: int
    status: str  # "full" | "partial" | "refuted"
    entries: list[BallEvidence]

    @property
    def refutations(self):
        return [e for e in self.entries
                if e.source_verdict == NONTRIVIAL and e.image_verdict == TRIVIAL]

    @property
    def unknowns(self):
        return [e for e in self.entries if e.image_verdict == UNKNOWN]


def certify_injectivity_on_ball(R: EmbeddingResult,
                                L_word_problem: Callable[[Word, int], str],
                                radius: int, budget: int = 8) -> BallCertificate:
    """For every source-nontrivial ball element w, certify that j(w) is
    nontrivial in the tower; any Unknown demotes the certificate to
    partial, any Trivial image refutes it."""
    from .tower import find_rf_witness

    alph = R.j.source
    entries: list[BallEvidence] = []
    status = "full"
    for w in enumerate_ball(alph, radius):
        sv = L_word_problem(w, budget)
        if sv != NONTRIVIAL:
            continue
        img = R.j.apply(w)
        iv = R.gamma.word_problem(img, budget)
        method = "direct"
        if iv == UNKNOWN:
            cert = find_rf_witness(R.gamma, [img], budget, seed=0)
            if cert.verdict == "valid" and cert.images and cert.images[0]:
                iv, method = NONTRIVIAL, "witness"
            else:
                method = "none"
        entries.append(BallEvidence(w, sv, img, iv, method))
        if iv == TRIVIAL:
            status = "refuted"
        elif iv == UNKNOWN and status != "refuted":
            status = "partial"
    return BallCertificate(radius, status, entries)
