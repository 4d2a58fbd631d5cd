"""Embedding a one-edge splitting into an enlarged tower.

Given a group L split over a single edge, a strict quotient of that
splitting, and the target tower of the quotient, build the tower with
one more block and the map j: L -> tower, then certify injectivity of j
on finite balls.  `maximal_abelian_containing` reduces and checks w.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Hashable, Optional

from . import graphgroups as gg
from .graphgroups import GraphOfGroups, NONTRIVIAL, TRIVIAL, UNKNOWN
from .intlinalg import unimodular_with_first_row_image
from .tower import (
    BlockQ,
    BlockT,
    Check,
    RefutedError,
    Tower,
    attach_block,
    noncommuting_pair,
    only_vertex,
    require_homomorphism,
)
from .words import (
    GroupHom,
    Record,
    SurfacePresentation,
    Word,
    abelianize,
    concat,
    conjugacy_key,
    format_word,
    invert,
    join_reduced,
    letter,
    power,
    reduce_word,
    walk_ball,
)

AMALGAM = "amalgam"
HNN = "hnn"
ABELIAN = "abelian"
QH = "qh"


class EmbedError(ValueError):
    """Malformed or unsupported splitting/quotient data."""


class SplittingData:
    """A one-edge splitting of L, supplied as a graph of groups so L's
    own word problem is available."""

    def __init__(self, kind: str, L: GraphOfGroups, edge_label: str,
                 surface: Optional[SurfacePresentation] = None,
                 special_vertex: Optional[str] = None):
        self.kind = kind
        self.L = L
        self.edge_label = edge_label
        self.surface = surface  # qh: the surface vertex
        self.special_vertex = special_vertex  # qh/abelian: label of that vertex
        if self.kind not in (AMALGAM, HNN, ABELIAN, QH):
            raise EmbedError(f"unknown splitting kind {self.kind!r}")
        if self.edge_label not in {e.label for e in self.L.edges}:
            raise EmbedError(f"no edge labelled {self.edge_label!r}")
        if self.edge.rank != 1:
            raise EmbedError("one-edge splitting steps support cyclic edge groups")
        if self.kind == HNN and self.edge.stable_letter is None:
            raise EmbedError("hnn splitting needs a stable letter on the edge")
        if self.kind in (ABELIAN, QH):
            if self.special_vertex is None:
                raise EmbedError(f"{self.kind} splitting needs the special vertex label")
            if self.special_vertex not in self.L.vertices:
                raise EmbedError(f"no vertex labelled {self.special_vertex!r}")
        if self.kind == ABELIAN and self.L.vertices[self.special_vertex].kind != "abelian":
            raise EmbedError(f"vertex {self.special_vertex!r} is not free-abelian")
        if self.kind == QH:
            if self.surface is None:
                raise EmbedError("qh splitting needs the surface vertex data")
            if self.surface.punctures != 1:
                raise EmbedError("one-edge qh steps support a single boundary circle")

    @property
    def edge(self):
        return next(e for e in self.L.edges if e.label == self.edge_label)


class StrictQuotientData:
    """The strict quotient nu: L -> gamma_prime, the target tower."""

    def __init__(self, nu: GroupHom, gamma_prime: Tower):
        self.nu = nu
        self.gamma_prime = gamma_prime


class AbelianLocus:
    """The maximal abelian subgroup of the target that contains the
    edge-group image; `status` records how maximality was certified."""

    def __init__(self, generators: tuple[Word, ...], status: str, detail: str = ""):
        self.generators = generators
        self.status = status  # "verified" | "budget-limited"
        self.detail = detail


class EmbeddingResult:
    def __init__(self, gamma: Tower, j: GroupHom, U: AbelianLocus, new_letter: str,
                 obligations: Optional[list[Check]] = None):
        self.gamma = gamma
        self.j = j
        self.U = U
        self.new_letter = new_letter
        self.obligations = [] if obligations is None else obligations


def maximal_abelian_containing(tower: Tower, w: Word, budget: int = 8) -> AbelianLocus:
    """Maximal abelian subgroup of the tower group containing <w>.

    A recorded torus lattice that centralizes w (`Tower.maximal_abelian`),
    exact when every stage of the tower verified all its obligations; else
    the cyclic group of w's root (`Tower.root`), exact on free loci, and on
    a closed-surface locus (whose centralizers are cyclic too) when
    `Tower.non_power_map` certifies the root.
    """
    w = reduce_word(w, tower.alphabet())
    if not w:
        raise EmbedError("trivial word has no maximal abelian overgroup here")
    rec, exact = tower.maximal_abelian(w, budget)
    if rec is not None:
        return AbelianLocus(tuple(rec.generators), "verified" if exact else "budget-limited",
                            "centralized by a recorded torus lattice" +
                            ("" if exact else " in a tower with an assumed obligation"))
    r, _, c = tower.root(w)
    cyclic = (reduce_word(concat(c, r, invert(c))),)
    if not tower.presentation().relators:
        return AbelianLocus(cyclic, "verified", "free locus: cyclic on the root")
    v = only_vertex(tower)
    if v is not None and v.kind == "surface":
        if tower.non_power_map(r) is not None:
            return AbelianLocus(cyclic, "verified", "surface locus: cyclic on a certified root")
        return AbelianLocus(cyclic, "budget-limited",
                            "surface locus: cyclic on an uncertified root")
    return AbelianLocus(cyclic, "budget-limited",
                        "composite locus: cyclic candidate, maximality unresolved")


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
    """Attach one block to the target tower and build j: L -> tower.

    nu and j must kill every relator of L and the new block must pass
    its checks, all under the one obligation policy of `rft.tower`.
    """
    obligations: list[Check] = []
    nu = D.nu
    gp = D.gamma_prime
    L_pres = S.L.presentation()
    L_alph = L_pres.alphabet
    require_homomorphism(obligations, "nu", nu, L_pres.relators, gp, budget, assume)
    kept, moved = _edge_sides(S)
    used = set(gp.alphabet().generators) | set(L_alph.generators)
    images = {g: nu.apply(letter(g)) for g in L_alph.generators}
    new_letter = ""

    if S.kind in (AMALGAM, HNN):
        e_img = nu.apply(kept[1][0])
        U = maximal_abelian_containing(gp, e_img, budget)
        new_letter = _fresh_name("t", used)
        block = BlockT(U.generators, len(U.generators) + 1, (new_letter,))
        gamma = attach_block(gp, block, budget, assume=assume)
        tl = letter(new_letter)
        if S.kind == AMALGAM:
            for g in S.L.vertices[moved[0]].alphabet.generators:
                images[g] = reduce_word(concat(tl, images[g], invert(tl)))
        else:
            s = S.edge.stable_letter
            images[s] = reduce_word(concat(tl, images[s]))

    elif S.kind == ABELIAN:
        V = S.L.vertices[S.special_vertex]
        # orient: `side_b` is the peripheral inclusion into the abelian vertex
        side_b, side_a = (kept, moved) if kept[0] == S.special_vertex else (moved, kept)
        n = len(V.alphabet)
        e_img = nu.apply(side_a[1][0])
        U = maximal_abelian_containing(gp, e_img, budget)
        if len(U.generators) != 1:
            raise EmbedError("abelian-vertex step needs a cyclic abelian locus")
        # a cyclic U is the group of the root r of e_img = r^c (`Tower.root`)
        w, c = U.generators[0], gp.root(e_img)[1]
        v = abelianize(side_b[1][0], V.alphabet)
        M = unimodular_with_first_row_image(v)
        g = math.gcd(*v)
        if c % g != 0:
            raise RefutedError("edge exponents incompatible with the vertex lattice")
        new_letters = tuple(_fresh_name("s", used) for _ in range(n - 1))
        new_letter = new_letters[0] if new_letters else ""
        gamma = attach_block(gp, BlockT((w,), n, new_letters), budget, assume=assume)
        lam = [power(w, c // g)] + [letter(s) for s in new_letters]
        for jcol, g_ in enumerate(V.alphabet.generators):
            images[g_] = reduce_word(
                concat(*(power(lam[i], M[i][jcol]) for i in range(n))))

    else:  # QH
        surf = S.surface
        side_r = moved if kept[0] == S.special_vertex else kept
        attach_w = nu.apply(side_r[1][0])
        fresh = tuple(_fresh_name(g, used) for g in surf.generators)
        copy = SurfacePresentation(surf.genus, surf.punctures, fresh)
        retraction = {f: nu.apply(letter(g)) for f, g in zip(fresh, surf.generators)}
        gamma = attach_block(gp, BlockQ(copy, (attach_w,), retraction), budget,
                             assume=assume)
        U = maximal_abelian_containing(gp, attach_w, budget)
        for g_, f in zip(surf.generators, fresh):
            images[g_] = letter(f)

    j = GroupHom(L_alph, gamma.alphabet(), images)
    require_homomorphism(obligations, "j", j, L_pres.relators, gamma, budget, assume)
    return EmbeddingResult(gamma, j, U, new_letter, obligations)


# ---------------------------------------------------------------------------
# Strict-quotient validation
# ---------------------------------------------------------------------------


def validate_strict_quotient(S: SplittingData, D: StrictQuotientData,
                             ball_radius: int = 2, budget: int = 8) -> list[Check]:
    """Check the strict-quotient conditions bullet by bullet:
    peripheral injectivity on abelian vertices, edge-group injectivity
    with a maximal-abelian image, nonabelian QH image, and envelope
    injectivity on a finite ball.  Each bullet is a `Check` with status
    "verified", "refuted", "budget-limited" or "not-applicable"."""
    nu = D.nu
    gp = D.gamma_prime
    out: list[Check] = []
    edge = S.edge

    # peripheral subgroups of abelian vertices
    if S.kind == ABELIAN:
        side = edge.left if edge.left[0] == S.special_vertex else edge.right
        bad = next((img for img in side[1]
                    if gp.word_problem(nu.apply(img), budget) == TRIVIAL), None)
        if bad is not None:
            out.append(Check("abelian-peripheral", "refuted", witness=format_word(bad)))
        else:
            out.append(Check("abelian-peripheral", "verified", "peripheral generators survive"))
    else:
        out.append(Check("abelian-peripheral", "not-applicable"))

    # edge-group injectivity and maximality of one image
    verdicts = {img: gp.word_problem(nu.apply(img), budget)
                for side in (edge.left, edge.right) for img in side[1]}
    killed = next((img for img, v in verdicts.items() if v == TRIVIAL), None)
    if killed is not None:
        out.append(Check("edge-injective-maximal", "refuted", "edge generator dies",
                         format_word(killed)))
    elif edge.rank == 1:
        e_img = nu.apply(edge.left[1][0])
        locus = maximal_abelian_containing(gp, e_img, budget)
        if locus.status == "verified" and locus.generators == (e_img,):
            out.append(Check("edge-injective-maximal", "verified",
                             "image generates its own maximal abelian subgroup"))
        elif locus.status == "verified":
            out.append(Check(
                "edge-injective-maximal", "verified",
                "image sits in the maximal abelian subgroup "
                f"<{', '.join(format_word(g) for g in locus.generators)}>"))
        else:
            out.append(Check("edge-injective-maximal", "budget-limited", locus.detail))
    else:
        out.append(Check("edge-injective-maximal",
                         "verified" if UNKNOWN not in verdicts.values() else "budget-limited",
                         "higher-rank edge: generators survive"))

    # QH image nonabelian
    if S.kind == QH:
        gens = S.surface.generators
        holds, pair = noncommuting_pair(gp, nu, gens, budget)
        if holds:
            out.append(Check("qh-nonabelian", "verified", f"witness pair {pair[0]}, {pair[1]}"))
        elif holds is False:
            out.append(Check("qh-nonabelian", "refuted",
                             witness=f"[{gens[0]}, {gens[1]}] maps to a trivial commutator"))
        else:
            out.append(Check("qh-nonabelian", "budget-limited"))
    else:
        out.append(Check("qh-nonabelian", "not-applicable"))

    # envelope injectivity: rigid vertex generators plus centralizers of the
    # incident edge images, checked on a finite ball
    rigid = S.L.base if S.kind != QH else next(
        (v for v in S.L.vertices if v != S.special_vertex), S.L.base)
    Vr = S.L.vertices[rigid]
    side = edge.left if edge.left[0] == rigid else edge.right
    cent_status = "verified"
    for img in side[1]:
        if maximal_abelian_containing(gp, nu.apply(img), budget).status != "verified":
            cent_status = "budget-limited"
    # Elements whose images under nu have different keys (`element_key`)
    # are distinct in the tower, so only pairs within one group of equal
    # keys need a word problem.  Merging the groups' pairs keeps
    # `itertools.combinations` order, so a refutation names the first pair
    # of the whole ball.
    ball = list(walk_ball(Vr.alphabet, ball_radius, nu, nu.then(gp.retraction_to_base())))
    groups: dict[Hashable, list[int]] = {}
    for i, (_, nu_u, base) in enumerate(ball):
        groups.setdefault(gp.element_key(nu_u, base), []).append(i)
    refuted = None
    unknown = False
    for i, k in heapq.merge(*(itertools.combinations(g, 2) for g in groups.values())):
        (u, nu_u, base_u), (v, nu_v, base_v) = ball[i], ball[k]
        d = join_reduced(u, invert(v))
        # a Nontrivial image settles the pair whatever L says, so L is
        # asked only about the pairs that could refute or demote the bullet
        tv = gp.reduced_word_problem(join_reduced(nu_u, invert(nu_v)),
                                     join_reduced(base_u, invert(base_v)), budget)
        if tv == NONTRIVIAL or gg.word_problem(S.L, d, budget) != NONTRIVIAL:
            continue
        if tv == TRIVIAL:
            refuted = format_word(d)
            break
        unknown = True
    if refuted:
        out.append(Check("envelope-injective", "refuted", witness=refuted))
    elif unknown or cent_status != "verified":
        out.append(Check("envelope-injective", "budget-limited",
                         f"checked radius {ball_radius}"))
    else:
        out.append(Check("envelope-injective", "verified",
                         f"injective on the radius-{ball_radius} ball"))
    return out


# ---------------------------------------------------------------------------
# Ball certification
# ---------------------------------------------------------------------------


class BallEvidence(Record):
    # a certificate keeps one per ball element, so no per-entry dict
    __slots__ = ("word", "source_verdict", "image", "image_verdict", "method")

    def __init__(self, word: Word, source_verdict: str, image: Word, image_verdict: str,
                 method: str):
        self.word = word
        self.source_verdict = source_verdict
        self.image = image
        self.image_verdict = image_verdict
        # "direct": the tower's word problem decided image_verdict (a base
        # image, a nonempty image under `Tower.free_map`, or Britton);
        # "witness": a witness search proved it after the tower said Unknown;
        # "none": neither decided it
        self.method = method  # "direct" | "witness" | "none"


class BallCertificate(Record):
    def __init__(self, radius: int, status: str, entries: list[BallEvidence]):
        self.radius = radius
        self.status = status  # "full" | "partial" | "refuted"
        self.entries = entries

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
    partial, any Trivial image refutes it.

    The ball is walked layer by layer (`Tower.walk_ball`), and each word
    is decided in the walk's loop as it is built: it carries j(w) and its
    base image r(j(w)), r the tower's retraction to stage 0, both
    extended by one letter's image, so neither j nor r is applied to a
    whole word.  On a free stage 0 a nonempty base image proves j(w)
    nontrivial, so the walk hands over only whether the base image is 1
    (in the outermost layer it tests that without building the image),
    and such a word costs no tower call.  The words whose base image is
    1, and on any other stage 0 every word, go through the tower's one
    chain (`Tower.reduced_word_problem`): a nonempty image under the
    tower's map to a free group is Nontrivial, and only after it, on a
    non-free stage 0, does stage 0's word problem ask the base image; a
    conjugate of a defining relator is Trivial, and only the words that
    both maps send to 1 and that are no relator conjugate reach a
    Britton word problem.  All are
    the tower's own decision, so each such entry has method "direct";
    only a Britton Unknown turns to `find_rf_witness`.

    The tower is asked first.  When every `j-homomorphism` obligation is
    verified (vacuously so when L has no relators), j is a homomorphism,
    so a Nontrivial j(w) proves w nontrivial: the entry, most of a
    certificate, is recorded at once and L is not asked.  In every other
    case, an assumed j included, L's word problem decides whether w
    belongs to the certificate.

    Under a verified j, L is asked once per conjugacy class up to
    inversion (`conjugacy_key`) of the words the tower leaves open:
    triviality is a class invariant, so a definite verdict is kept for
    the rest of this call and read for every later word of its class.  An
    Unknown is not kept, so the next word of its class asks L again.
    Under an assumed j, L is asked about every ball word."""
    from .tower import find_rf_witness

    j_proved = all(ob.status == "verified" for ob in R.obligations
                   if ob.name == "j-homomorphism")
    # definite L verdicts by class key, for this call only; under an
    # assumed j no word has a key, so L is asked every time
    known: dict[Word, str] = {}
    entries: list[BallEvidence] = []
    status = "full"
    decide = R.gamma.reduced_word_problem
    for w, img, base in R.gamma.walk_ball(R.j, radius):
        iv = NONTRIVIAL if base is None else decide(img, base, budget)
        if iv == NONTRIVIAL and j_proved:
            entries.append(BallEvidence(w, NONTRIVIAL, img, NONTRIVIAL, "direct"))
            continue
        key = conjugacy_key(w) if j_proved else None
        sv = known.get(key)
        if sv is None:
            sv = L_word_problem(w, budget)
            if key is not None and sv != UNKNOWN:
                known[key] = sv
        if sv != NONTRIVIAL:
            continue
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
