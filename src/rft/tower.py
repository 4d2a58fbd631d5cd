"""Residually free towers: height-0 wedges plus torus and surface blocks.

A tower keeps, per stage, a presentation, the one-edge splitting used by
the word problem, the retraction to the previous stage, and an
obligation ledger: one `Check` per validity check of the stage's block.
`Check` is also the record of the checks of `rft.embed` and `rft.flats`.

There are two block kinds.  A `BlockT` glues a torus along the k >= 1
words of its `attach`; the DSL's `block A` is the case k = 1 and its
`block T` any k.  A `BlockQ` glues a surface along one word per boundary
circle.  Both are attached by one path, `attach_block`: the block's new
generator names are claimed, its own checks run, and one builder
assembles the stage from the stage below (as one vertex), the block
vertex and its edges, and a retraction that fixes the old generators.
`LatticeRecord` lists the live torus lattices; `rft.flats` reports them
as they are.

`Tower.word_problem`, `attach_block` and `find_rf_witness` reduce and
check the words they are given; `Tower.reduced_word_problem`, which
composite vertices also call (as `_wp_at`), takes its words as given.

Every tower word problem runs one chain, cheapest certificate first: on
a free stage 0 the retraction's reduced image, then `Tower.free_map`, a
relator-checked map to a free group (towers are residually free), then
on a non-free stage 0 the stage-0 word problem of the retraction's
image, then a lookup among the cyclic cores of the defining relators
(`Tower.relator_cores`), and only then the top stage's Britton word
problem.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import cached_property
from typing import Hashable, Iterator, Optional

from . import graphgroups as gg
from .graphgroups import (
    GraphOfGroups,
    EdgeGroup,
    NONTRIVIAL,
    Presentation,
    TRIVIAL,
    UNKNOWN,
    VertexGroup,
    abelian_vertex,
    composite_vertex,
    free_vertex,
    surface_vertex,
)
from .intlinalg import solve_int_linear
from .words import (
    Alphabet,
    GroupHom,
    Letter,
    LetterTable,
    Record,
    SurfacePresentation,
    Word,
    abelianize,
    apply_table,
    commutator,
    compile_image,
    concat,
    cyclic_core,
    format_word,
    invert,
    is_proper_power,
    join_reduced,
    least_rotation,
    letter,
    power,
    reduce_word,
    walk_ball,
)


class BlockError(ValueError):
    """A validity obligation failed or could not be settled."""


class RefutedError(BlockError):
    """A validity check was decided false; no `assume` covers it."""


class BlockQ:
    """Quadratic block: hyperbolic surface with boundary glued along tubes,
    boundary circle i along `attach[i]`."""

    def __init__(self, surface: SurfacePresentation, attach: tuple[Word, ...],
                 retraction: dict[str, Word]):
        s = surface
        if s.closed:
            raise BlockError("block Q needs a surface with boundary")
        if not (s.euler_characteristic <= -2 or (s.genus, s.punctures) == (1, 1)):
            raise BlockError("block Q surface must have chi <= -2 or be a punctured torus")
        if len(attach) != s.punctures:
            raise BlockError("every boundary circle needs an attaching word")
        for g in s.generators:
            if g not in retraction:
                raise BlockError(f"retraction image missing for surface generator {g!r}")
        self.surface = surface
        self.attach = attach
        self.retraction = retraction


class BlockT:
    """Torus block: extend the rank-k lattice of its k attaching words to a
    torus of rank `rank`.  The case k = 1, a torus glued along a tube to
    one word, is the DSL's `block A`."""

    def __init__(self, attach: tuple[Word, ...], rank: int, letters: tuple[str, ...]):
        k = len(attach)
        if not (1 <= k < rank):
            raise BlockError("a torus block needs rank > k >= 1 for its k attaching words")
        if len(letters) != rank - k:
            raise BlockError("a torus block needs rank - k new letters")
        self.attach = attach
        self.rank = rank
        self.letters = letters


Block = BlockQ | BlockT


class Check(Record):
    """One named check of a tower, an embedding step or an isolation
    hypothesis: its status, a detail line and, for a refutation, the
    witness.  Compared by value."""

    def __init__(self, name: str, status: str, detail: str = "",
                 witness: Optional[str] = None):
        self.name = name
        # obligations: "verified" | "assumed"; bullets and hypotheses also
        # "refuted", "budget-limited", "verified-to-budget", "not-applicable"
        self.status = status
        self.detail = detail
        self.witness = witness


def decided(verdict: str, proves: str) -> Optional[bool]:
    """A word-problem verdict as a check outcome: True when it is the
    verdict that proves the check, None when Unknown, False otherwise."""
    return None if verdict == UNKNOWN else verdict == proves


def require(obligations: list[Check], name: str, holds: Optional[bool],
            detail: str, assume: bool, refutation: str = "") -> None:
    """The one obligation policy of towers and embeddings.

    `holds` is True (verified), False (refuted) or None (budget-limited).
    A refuted check raises RefutedError whatever `assume` says; a
    budget-limited one raises BlockError unless `assume`, and is then
    recorded as assumed.
    """
    if holds is False:
        raise RefutedError(refutation or f"{name} refuted ({detail})")
    if holds is None and not assume:
        raise BlockError(f"{name} could not be verified ({detail}); pass assume=True to accept")
    obligations.append(Check(name, "verified" if holds else "assumed", detail))


def require_homomorphism(obligations: list[Check], name: str, hom: GroupHom,
                         relators, target: Tower, budget: int, assume: bool) -> None:
    """`hom` kills every relator in `target`: one `<name>-homomorphism`
    obligation per relator."""
    for r in relators:
        verdict = target.word_problem(hom.apply(r), budget)
        fr = format_word(r)
        require(obligations, f"{name}-homomorphism", decided(verdict, TRIVIAL),
                f"relator {fr}", assume,
                f"{name} is not a homomorphism: relator {fr} maps to a nontrivial word")


def noncommuting_pair(target: Tower, hom: GroupHom, gens, budget: int):
    """Search generator pairs for images under `hom` with a Nontrivial
    commutator in `target`.  Returns (True, pair) at the first such pair,
    (False, None) when every pair's commutator is Trivial, and (None,
    None) otherwise."""
    holds = False
    for x, y in itertools.combinations(gens, 2):
        c = commutator(hom.apply(letter(x)), hom.apply(letter(y)))
        verdict = target.word_problem(c, budget)
        if verdict == NONTRIVIAL:
            return True, (x, y)
        if verdict == UNKNOWN:
            holds = None
    return holds, None


class LatticeRecord:
    """A rank >= 2 free-abelian lattice created during construction."""

    def __init__(self, stage: int, generators: tuple[Word, ...], origin: str):
        self.stage = stage
        self.generators = generators
        # "summand", or "A"/"T" for a torus block with one/several
        # attaching words
        self.origin = origin


class Stage:
    def __init__(self, presentation: Presentation, graph: GraphOfGroups,
                 retraction: Optional[GroupHom], block: Optional[Block],
                 obligations: Optional[list[Check]] = None):
        self.presentation = presentation
        self.graph = graph
        self.retraction = retraction
        self.block = block
        self.obligations = [] if obligations is None else obligations


class WitnessCertificate(Record):
    def __init__(self, target: Alphabet, hom: Optional[GroupHom], relators: tuple[Word, ...],
                 words: list[Word], images: list[Word], verdict: str, family: str,
                 trace: list, seed: int, budget: int, classes: Optional[list[int]] = None):
        self.target = target
        self.hom = hom
        self.relators = relators  # the tower's relators; hom must kill each one
        self.words = words
        self.images = images
        self.verdict = verdict  # "valid" | "failed"
        self.family = family
        self.trace = trace
        self.seed = seed
        self.budget = budget
        # per word, its provable-equality class; empty means each distinct
        # reduced word is its own class
        self.classes = [] if classes is None else classes

    def recheck(self) -> bool:
        """Re-verify validity by pure word operations: every relator maps
        to the empty word, so hom is a homomorphism to the free group;
        each image is the word's image under hom; and two words share an
        image exactly when they share a recorded class.  The classes
        themselves come from word-problem verdicts and are taken as
        given."""
        if self.hom is None:
            return False
        if any(self.hom.apply(r) for r in self.relators):
            return False
        keys = self.classes or [reduce_word(w) for w in self.words]
        if not len(keys) == len(self.images) == len(self.words):
            return False
        image_of: dict = {}
        class_of: dict[Word, object] = {}
        for w, img, k in zip(self.words, self.images, keys):
            if self.hom.apply(w) != img:
                return False
            if image_of.setdefault(k, img) != img or class_of.setdefault(img, k) != k:
                return False
        return True


# Members of a tower's map family checked against its relators after its
# free map (`Tower._checked_maps`), for `Tower.non_power_map` and for the
# composite vertex standing for the tower one stage up (`_edge_exponents`):
# the first ones of max-norm <= 2, all 25 of them at genus 2.
CHECKED_MAPS = 25


class Tower:
    """Immutable after construction; attach_block returns a new value."""

    def __init__(self, summands: tuple[VertexGroup, ...], stages: list[Stage]):
        self.summands = summands
        self.stages = stages
        self.height = len(stages) - 1
        # Stage 0 has no relators, so it is a free group, in which a
        # nonempty reduced word is nontrivial: the one rule by which
        # `reduced_word_problem` and `walk_ball` read a base image.
        self.free_base = not stages[0].presentation.relators

    # -- basic views -------------------------------------------------------

    def presentation(self, stage: Optional[int] = None) -> Presentation:
        return self.stages[self.height if stage is None else stage].presentation

    def alphabet(self, stage: Optional[int] = None) -> Alphabet:
        return self.presentation(stage).alphabet

    def obligations(self) -> list[Check]:
        return [ob for s in self.stages for ob in s.obligations]

    def prev_stage_csa(self) -> bool:
        """True when the ledger certifies stage h-1 as a limit group (hence
        CSA) embedded in the top stage: all obligations of stages 1..h-1 are
        verified, and so is the top retraction, which fixes stage h-1 (a
        torus block's retraction t -> 1 always is a homomorphism and records
        none)."""
        top = [ob for ob in self.stages[-1].obligations if ob.name == "retraction-homomorphism"]
        below = [ob for s in self.stages[1:-1] for ob in s.obligations]
        return self.height >= 1 and all(ob.status == "verified" for ob in below + top)

    def lattice_records(self) -> list[LatticeRecord]:
        """The live torus lattices, in construction order: a lattice that a
        later torus block extends is superseded by that block's lattice."""
        return list(self._lattices)

    @cached_property
    def _lattices(self) -> tuple[LatticeRecord, ...]:
        records = [LatticeRecord(0, tuple(letter(g) for g in v.alphabet), "summand")
                   for v in self.summands if v.kind == "abelian" and len(v.alphabet) >= 2]
        for i, s in enumerate(self.stages[1:], 1):
            b = s.block
            if isinstance(b, BlockT):
                gens = tuple(reduce_word(w) for w in b.attach) + tuple(
                    letter(t) for t in b.letters)
                # old lattices hold no new letter: the block extends a
                # lattice when its reduced attaching words cover it
                records = [r for r in records if not set(r.generators) <= set(gens)]
                records.append(LatticeRecord(i, gens, "A" if len(b.attach) == 1 else "T"))
        return tuple(records)

    def root(self, w: Word) -> tuple[Word, int, Word]:
        """(r, k, c) with w = c r^k c^-1, for a reduced, nonempty word w of
        the top stage, cut from the cyclic core of w (on a closed-surface
        locus, of its Dehn normal form).  k > 1 exactly when that core has
        a literal period, a proof on every locus.  k = 1 proves r no proper
        power on a free locus only: elsewhere a conjugate of a power can
        carry a relator piece across the cyclic boundary.  A surface word
        that is trivial has the root r = () with k = 1."""
        v = only_vertex(self)
        if v is not None and v.kind == "surface":
            w = v.normalize(w)
        return _free_root(w)

    def non_power_map(self, w: Word) -> Optional[tuple[int, ...]]:
        """Parameters of a member of the tower's map family to a free group
        that sends w to a nonempty non-power, or None.  If w = r^k, every
        member sends w to a k-th power, so such a member proves w no proper
        power.  The `_checked_maps` are tried in order."""
        for params, table in self._checked_maps:
            u = apply_table(table, w)
            if u and is_proper_power(u) is None:
                return params
        return None

    @cached_property
    def _checked_maps(self) -> tuple[tuple[tuple[int, ...], LetterTable], ...]:
        """(parameters, signed-letter table) of `free_map`'s member (every
        parameter 1) and of the first `CHECKED_MAPS` members of max-norm
        <= 2 in `_parameter_shells` order, each kept only if it kills every
        relator of the top presentation: checked once per tower, so each
        kept member is a homomorphism to a free group."""
        family = self._witness_family
        shells = itertools.islice(_parameter_shells(family.dimension, 2, 0), CHECKED_MAPS)
        members = ((p, family.member(p)[1]) for p in itertools.chain(
            [(1,) * family.dimension], shells))
        return tuple((p, table) for p, table in members
                     if not any(apply_table(table, r) for r in self.presentation().relators))

    def maximal_abelian(self, w: Word, budget: int, below: Optional[int] = None
                        ) -> tuple[Optional[LatticeRecord], bool]:
        """The first live torus lattice, of a stage below `below` when
        given, whose generators all provably commute with w, and whether
        every obligation of every stage is verified (then the tower group
        is a limit group, which is CSA, so the lattice is maximal abelian
        in it); (None, False) if none.  A stage above the lattice's counts
        too: its block may centralize w by a second lattice."""
        for rec in self.lattice_records():
            if below is not None and rec.stage >= below:
                continue
            if all(self.word_problem(commutator(w, g), budget) == TRIVIAL
                   for g in rec.generators):
                return rec, all(ob.status == "verified" for s in self.stages[1:]
                                for ob in s.obligations)
        return None, False

    # -- word problem ------------------------------------------------------

    def element_key(self, w: Word, base: Optional[Word] = None) -> Hashable:
        """A hashable invariant of the element that the reduced word w of
        the top stage represents: equal elements have equal keys, so two
        words with different keys are distinct and need no word problem.

        The key is read off the image of w under `retraction_to_base()`
        (`base` when the caller has it).  On a free stage 0 it is that
        reduced image itself.  Otherwise it is the image's exponent-sum
        vector over stage 0's alphabet, summed from w's letters
        (`_base_exponents`): every stage-0 relator (abelian commutators,
        the orientable surface relator) has exponent sum zero, so the
        retraction followed by abelianization is a homomorphism to Z^n.
        The key trusts the retraction exactly as far as `_wp_at`'s
        nonempty-base-image proof does."""
        if self.free_base:
            return self._base_map.apply(w) if base is None else base
        table = self._base_exponents
        counts = [0] * len(self.alphabet(0))
        for lt in w:
            for i, n in table[lt]:
                counts[i] += n
        return tuple(counts)

    # `element_key` is a homomorphism, to stage 0's free group or to Z^n, so
    # the key of a product or an inverse is read off the factors' keys

    def key_product(self, k: Hashable, l: Hashable) -> Hashable:
        """The key of g h, for g of key k and h of key l."""
        if self.free_base:
            return join_reduced(k, l)
        return tuple([a + b for a, b in zip(k, l)])

    def key_inverse(self, k: Hashable) -> Hashable:
        """The key of g^-1, for g of key k."""
        if self.free_base:
            return invert(k)
        return tuple([-a for a in k])

    def free_images(self, w: Word) -> tuple[Hashable, ...]:
        """The images of the reduced word w under the tower's maps to free
        groups, for `power_relations`: its `element_key` (the reduced
        retraction image in a free stage 0, else that image's exponent
        vector in Z^n) and, when the tower has one, its `free_map` image.
        Each map is a homomorphism, so what the images rule out, the
        tower group rules out too."""
        key = self.element_key(w)
        return (key,) if self.free_map is None else (key, self.free_map.apply(w))

    def power_relations(self, iu: tuple[Hashable, ...], iv: tuple[Hashable, ...]
                        ) -> Optional[tuple[tuple[int, int], ...]]:
        """What the `free_images` iu of u and iv of v say about u and v.

        None when two of their images do not commute: then [u, v] != 1,
        and so u^k != v^l for all k, l != 0, since u^k = v^l would make
        the images commute.  Else pairs (a, b) such that phi(u)^k =
        phi(v)^l holds in every image phi exactly when k a = l b for every
        pair: in a free group phi(u) = rho^a and phi(v) = rho^b for one
        rho, and in Z^n each coordinate gives a pair.  Pairs (0, 0), which
        allow every (k, l), are left out."""
        pairs = list(zip(iu, iv))
        rows = []
        if not self.free_base:
            x, y = pairs.pop(0)
            rows = [(a, b) for a, b in zip(x, y) if a or b]
        for p, q in pairs:
            ab = _root_exponents(p, q)
            if ab is None:
                return None
            if ab != (0, 0):
                rows.append(ab)
        return tuple(rows)

    @cached_property
    def free_map(self) -> Optional[GroupHom]:
        """The `_WitnessFamily` member with every parameter 1, when it
        maps every relator of the top presentation to the empty word, else
        None.  A map that kills every defining relator is a homomorphism to
        a free group, so a word with a nonempty reduced image under it is
        nontrivial.  The check is free reduction, once per tower; it trusts
        the presentation as far as `WitnessCertificate.recheck` does."""
        family = self._witness_family
        hom = family.hom((1,) * family.dimension)
        if any(hom.apply(r) for r in self.presentation().relators):
            return None
        return hom

    @cached_property
    def _witness_family(self) -> "_WitnessFamily":
        """The tower's `_WitnessFamily`, planned once per tower."""
        return _WitnessFamily(self)

    @cached_property
    def relator_cores(self) -> dict[int, frozenset[Word]]:
        """The cyclically reduced cores of the defining relators of the top
        presentation and of their inverses, each as its `least_rotation`,
        grouped by length, for `_relator_conjugate`.  The stored relators
        are reduced, so the cores are cut from them by slicing alone.
        Least rotations keep this linear in the relators' length: the set
        of all rotations grows with its square."""
        cores: dict[int, set[Word]] = {}
        for r in self.presentation().relators:
            core, _ = cyclic_core(r)
            cores.setdefault(len(core), set()).update(
                (least_rotation(core), least_rotation(invert(core))))
        return {n: frozenset(c) for n, c in cores.items()}

    def _relator_conjugate(self, w: Word) -> bool:
        """Whether w is a relator conjugate: its cyclically reduced core
        is a rotation of the core of a defining relator of the top
        presentation or of its inverse.  Then w is a conjugate of that
        relator, so it is trivial.  Stage 0's relators
        are among the top's, and stage 0 embeds in the top stage, so this
        holds for words of stage 0 too."""
        core, _ = cyclic_core(w)
        return least_rotation(core) in self.relator_cores.get(len(core), ())

    @cached_property
    def _base_map(self) -> GroupHom:
        # stage 0 has no retraction
        hom = self.stages[-1].retraction or GroupHom.identity(self.alphabet())
        for s in reversed(self.stages[1:-1]):
            hom = hom.then(s.retraction)
        return hom

    @cached_property
    def _base_exponents(self) -> dict[Letter, tuple[tuple[int, int], ...]]:
        """Per signed letter of the top stage, the nonzero (index, exponent
        sum) entries of its base image over stage 0's alphabet."""
        alph0 = self.alphabet(0)
        table = {}
        for g, img in self._base_map.images.items():
            pos = tuple((i, n) for i, n in enumerate(abelianize(img, alph0)) if n)
            table[(g, 1)] = pos
            table[(g, -1)] = tuple((i, -n) for i, n in pos)
        return table

    def retraction_to_base(self) -> GroupHom:
        """The composite retraction from the top stage to stage 0, built
        once per tower."""
        return self._base_map

    def walk_ball(self, j: GroupHom, radius: int) -> Iterator[tuple[Word, Word, Optional[Word]]]:
        """`words.walk_ball` over the reduced words w of j's source up to
        `radius`, each as (w, j(w), base): base is the image of j(w) under
        `retraction_to_base()`, extended letter by letter like j(w), for
        `reduced_word_problem`.  On a free stage 0 a nonempty base image
        proves j(w) nontrivial (`free_base`), so there base is the empty
        word or None, for an image that is nonempty and already that
        proof, and the outermost layer's base images are never built."""
        return walk_ball(j.source, radius, j, j.then(self._base_map), self.free_base)

    def word_problem(self, w: Word, budget: int = 8) -> str:
        return self._wp_at(reduce_word(w, self.alphabet()), None, budget)

    def reduced_word_problem(self, w: Word, base: Optional[Word], budget: int = 8) -> str:
        """Triviality of a reduced word w of the top stage, not reduced or
        checked again: the one chain behind `word_problem`, the ball walks
        of `rft.embed` and the composite vertex that stands for this
        tower in the next stage's graph.

        The tests run cheapest first; each Nontrivial answer is a proof on
        its own, so their order changes no verdict.  The empty word is
        Trivial.  Above a free stage 0, a nonempty image of w in the base
        is Nontrivial: `base` when the caller has it (the ball walks build
        w's reduced image under `retraction_to_base()` letter by letter;
        `walk_ball` marks a nonempty one None, and a ball certificate
        settles that word without this call), else that image.  The
        retraction is a homomorphism and the image is reduced, so a
        nonempty image is nontrivial in the free base.  Next, a nonempty
        image under `free_map`, one linear pass, is Nontrivial.  Only then,
        above a non-free stage 0, is the base image asked (built here when
        the caller gave none): the stage-0 word problem proves it
        nontrivial, unless it is a relator conjugate (below), which is
        trivial.  Most words it gets it leaves open, but it alone proves
        some: closed2's [[a1,b1]^12,t] b1 a1^-1 a2^-1 has free-map image
        1, and the top stage's Britton gives up on it at budget 8.  A
        height-0 tower skips both base steps.  The words left
        reach the relator step, where a relator conjugate is Trivial, and
        only the rest reach the top stage's Britton/amalgam word problem.
        """
        if not w:
            return TRIVIAL
        if self.height and self.free_base:
            if base is None:
                base = self._base_map.apply(w)
            if base:
                return NONTRIVIAL
        if self.free_map is not None and self.free_map.apply(w):
            return NONTRIVIAL
        if self.height and not self.free_base:
            if base is None:
                base = self._base_map.apply(w)
            if base and not self._relator_conjugate(base) and gg.word_problem(
                    self.stages[0].graph, base, budget) == NONTRIVIAL:
                return NONTRIVIAL
        if self._relator_conjugate(w):
            return TRIVIAL
        return gg.word_problem(self.stages[-1].graph, w, budget)

    # the chain's name for `word_problem` and composite vertices: wrapping
    # the ball walks' entry leaves every other word problem as it is
    _wp_at = reduced_word_problem


def _root_exponents(p: Word, q: Word) -> Optional[tuple[int, int]]:
    """(a, b) with p = rho^a and q = rho^b for one rho, for reduced words
    p and q of a free group, or None when p and q do not commute.  Two
    elements of a free group commute exactly when both are powers of one
    element, and the powers of rho = c r c^-1, with r cyclically reduced
    and no proper power, are the reduced words c r^b c^-1."""
    if not p or not q:
        return (0, 0) if p == q else (0, 1) if q else (1, 0)
    r, a, c = _free_root(p)
    b = _power_exponent(r, c, q)
    return None if b is None else (a, b)


def _free_root(w: Word) -> tuple[Word, int, Word]:
    """(r, k, c) with w = c r^k c^-1, for a reduced word w of a free
    group: r is w's cyclic core cut to its least period, so no proper
    power there; the empty word has r = () and k = 1."""
    core, c = cyclic_core(w)
    r, k = core and is_proper_power(core) or (core, 1)
    return r, k, c


def _power_exponent(r: Word, c: Word, q: Word) -> Optional[int]:
    """The b with q = c r^b c^-1, for a reduced word q and a `_free_root`
    r != () with conjugator c, or None when q is no such power.  The
    reduced word of (c r c^-1)^b is c r^b c^-1, so q is compared with it
    letter for letter."""
    if not q:
        return 0
    core, c_q = cyclic_core(q)
    m, rest = divmod(len(core), len(r))
    if c_q == c and not rest:
        for b in (m, -m):
            if core == power(r, b):
                return b
    return None


def _edge_exponents(tower: Tower, subgens: tuple[Word, ...]):
    """For each of the tower's `_checked_maps` phi, in order, that sends
    the commuting words subgens to powers rho^(a_i) of one rho != 1: the
    a_i, and the function that reads off a word w the b with phi(w) =
    rho^b, or None when phi(w) is no power of rho.  The composite vertex
    that stands for the tower one stage up pins edge-group exponents with
    them (`graphgroups._membership_plan`)."""
    for _, table in tower._checked_maps:
        images = [apply_table(table, g) for g in subgens]
        p = next((u for u in images if u), None)
        if p is None:
            continue
        r, _, c = _free_root(p)
        row = [_power_exponent(r, c, u) for u in images]
        if None not in row:
            yield row, lambda w, t=table, r=r, c=c: _power_exponent(r, c, apply_table(t, w))


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def free_summand(*names: str) -> VertexGroup:
    return free_vertex("", Alphabet(tuple(names)))


def abelian_summand(*names: str) -> VertexGroup:
    if len(names) < 1:
        raise BlockError("abelian summand needs rank >= 1")
    return abelian_vertex("", Alphabet(tuple(names)))


def surface_summand(genus: int) -> VertexGroup:
    return surface_vertex("", SurfacePresentation(genus))


def new_height0(summands: list[VertexGroup]) -> Tower:
    """Free product of circles, tori and closed hyperbolic surfaces."""
    if not summands:
        raise BlockError("height-0 tower needs at least one wedge summand")
    labelled: list[VertexGroup] = []
    for i, v in enumerate(summands):
        if v.kind == "composite":
            raise BlockError("height-0 summands must be free, abelian or closed surfaces")
        if v.kind == "surface" and not v.surface.closed:
            raise BlockError("height-0 surface summands must be closed (no chi = -1 pieces)")
        labelled.append(
            VertexGroup(f"s{i}", v.kind, v.alphabet, surface=v.surface, relators=v.relators)
        )
    edges = [
        EdgeGroup(f"w{i}", 0, (labelled[0].label, ()), (labelled[i].label, ()))
        for i in range(1, len(labelled))
    ]
    graph = GraphOfGroups(labelled, edges, labelled[0].label)
    pres = graph.presentation()
    stage = Stage(pres, graph, None, None)
    return Tower(tuple(labelled), [stage])


def _fresh(name: str, used: set[str]) -> str:
    cand, i = name, 1
    while cand in used:
        cand = f"{name}_{i}"
        i += 1
    used.add(cand)
    return cand


def only_vertex(tower: Tower) -> Optional[VertexGroup]:
    """The top stage's vertex when its graph is that one vertex, else None."""
    g = tower.stages[-1].graph
    if len(g.vertices) == 1 and not g.edges:
        return next(iter(g.vertices.values()))
    return None


def _prev_vertex(tower: Tower, label: str) -> VertexGroup:
    """The previous stage packaged as a single vertex group.

    When the previous stage is a single plain vertex (free, abelian,
    surface) it is cloned so that membership stays exact; otherwise a
    composite vertex delegating to the stage's word-problem strategy, with
    the stage's `_checked_maps` as its maps to free groups, built on the
    first membership question that needs them (`_edge_exponents`).
    """
    pres = tower.presentation()
    if not pres.relators:
        return free_vertex(label, pres.alphabet)
    v = only_vertex(tower)
    if v is not None:
        return VertexGroup(label, v.kind, v.alphabet, surface=v.surface,
                           relators=v.relators, strategy=v.strategy)
    return composite_vertex(label, pres.alphabet, pres.relators,
                            lambda w, budget: tower._wp_at(w, None, budget),
                            lambda subgens: _edge_exponents(tower, subgens))


def _check_maximal_cyclic(tower: Tower, w: Word) -> tuple[Optional[bool], str]:
    """Attaching-word maximality: not a proper power, not conjugate into a
    torus lattice.  A literal period of `Tower.root`'s core refutes it on
    every locus.  Otherwise it holds on a free locus, and on a
    closed-surface locus only a map to a free group that sends w to a
    non-power verifies it (`Tower.non_power_map`).  Undecided elsewhere."""
    r, k, _ = tower.root(w)
    if k > 1:
        return False, f"attaching word is a proper power: ({format_word(r)})^{k}"
    pres = tower.presentation()
    if not pres.relators:
        return True, "free locus, not a proper power"
    v = only_vertex(tower)
    if v is not None and v.kind == "surface":
        params = tower.non_power_map(w)
        if params is None:
            return None, ("surface locus: no map family member tried sends the "
                          "attaching word to a non-power in a free group")
        return True, (f"surface locus, not a proper power: map family member "
                      f"({', '.join(map(str, params))}) sends it to a non-power in a free group")
    # conjugacy into a torus lattice: abelianization necessary condition
    vec = abelianize(w, pres.alphabet)
    rel_cols = pres.relator_columns()
    for rec in tower.lattice_records():
        cols = [abelianize(g_, pres.alphabet) for g_ in rec.generators]
        if solve_int_linear(cols + rel_cols, vec) is not None:
            return None, "abelianization is consistent with a torus lattice; maximality unresolved"
    return None, "composite locus: proper-power freeness not decided exactly"


def attach_block(tower: Tower, block: Block, budget: int = 8, assume: bool = False) -> Tower:
    """Attach one torus or surface block; validity obligations are checked here.

    Every block takes one path.  Its new generator names are claimed
    first.  Its own checks run next, each through `require`: a refuted one
    rejects the block naming the check; an undecided one is accepted only
    with assume=True and recorded as assumed.  Then the stage is built:
    the stage below as one vertex, the block vertex and its edges, the old
    generators and relators followed by the new ones, and a retraction
    that fixes the old generators.  A Q block's retraction is checked last.
    """
    if isinstance(block, BlockQ):
        names, what = block.surface.generators, "surface generator"
    elif isinstance(block, BlockT):
        names, what = block.letters, "new letter"
    else:
        raise BlockError(f"unknown block type {type(block).__name__}")
    n = len(tower.stages)
    pres = tower.presentation()
    old = pres.alphabet.generators
    used = set(old)
    for g in names:
        if g in used:
            raise BlockError(f"{what} {g!r} collides with an existing generator")
        used.add(g)

    attach = tuple(reduce_word(w, pres.alphabet) for w in block.attach)
    obligations: list[Check] = []
    if isinstance(block, BlockQ):
        for i, w in enumerate(attach):
            verdict = tower.word_problem(w, budget)
            require(obligations, "attach-nontrivial", decided(verdict, NONTRIVIAL),
                    f"boundary {i + 1} verdict {verdict}", assume)
    elif len(attach) == 1:
        verdict = tower.word_problem(attach[0], budget)
        require(obligations, "attach-nontrivial", decided(verdict, NONTRIVIAL),
                f"word problem verdict {verdict}", assume)
        require(obligations, "attach-maximal", *_check_maximal_cyclic(tower, attach[0]), assume)
    else:
        for u, v in itertools.combinations(attach, 2):
            verdict = tower.word_problem(commutator(u, v), budget)
            require(obligations, "attach-lattice-commutes", decided(verdict, TRIVIAL),
                    f"[{format_word(u)}, {format_word(v)}]", assume)
        known = any(set(rec.generators) == set(attach) for rec in tower.lattice_records())
        require(obligations, "attach-lattice", known or None,
                "attaching tuple generates an existing torus lattice" if known else
                "attaching tuple is not the generator tuple of a recorded torus lattice", assume)

    below = _prev_vertex(tower, f"st{n - 1}")
    piece = _surface_piece if isinstance(block, BlockQ) else _torus_piece
    vertex, edges, new, relators, images = piece(block, attach, below.label, n, used)
    alph = Alphabet(old + new)
    retraction = GroupHom(alph, pres.alphabet, {g: letter(g) for g in old} | {
        g: reduce_word(w, pres.alphabet) for g, w in images.items()})
    graph = GraphOfGroups([below, vertex], edges, below.label)
    if isinstance(block, BlockQ):
        # every new relator dies one stage down, and some pair of surface
        # generators has noncommuting images; refuted only when every pair
        # provably commutes
        require_homomorphism(obligations, "retraction", retraction, relators, tower, budget,
                             assume)
        holds, pair = noncommuting_pair(tower, retraction, block.surface.generators, budget)
        detail = (f"witness pair {pair[0]}, {pair[1]}" if holds
                  else "every surface generator pair has commuting images" if holds is False
                  else "no surface generator pair with noncommuting images found")
        require(obligations, "retraction-nonabelian", holds, detail, assume)
    stage = Stage(Presentation(alph, pres.relators + relators), graph, retraction, block,
                  obligations)
    return Tower(tower.summands, tower.stages + [stage])


def _surface_piece(block: BlockQ, attach: tuple[Word, ...], below: str, n: int,
                   used: set[str]):
    """A Q block's vertex, edges, new generators, new relators and the
    retraction images of its new generators, as the block gives them.
    Boundary 1 is glued to its attaching word; boundary i > 1 is glued
    through a fresh stable letter `s{n}_{i-1}`, which retracts to 1."""
    surf = block.surface
    vertex = free_vertex(f"blk{n}", surf.alphabet())
    boundaries = surf.boundary_words()
    stable = tuple(_fresh(f"s{n}_{i}", used) for i in range(1, surf.punctures))
    edges = [EdgeGroup(f"e{n}_{i}", 1, (vertex.label, (b,)), (below, (w,)), stable_letter=t)
             for i, (b, w, t) in enumerate(zip(boundaries, attach, (None,) + stable))]
    ts = [()] + [letter(t) for t in stable]
    relators = tuple(reduce_word(concat(t, b, invert(t), invert(w)))
                     for t, b, w in zip(ts, boundaries, attach))
    images = {g: block.retraction[g] for g in surf.generators} | dict.fromkeys(stable, ())
    return vertex, edges, surf.generators + stable, relators, images


def _torus_piece(block: BlockT, attach: tuple[Word, ...], below: str, n: int,
                 used: set[str]):
    """The same parts for a torus extension along k >= 1 attaching words.
    The block vertex is free abelian on k fresh edge letters `_u{n}_{i}`
    and the new letters, which commute with the attaching words and with
    each other, and retract to 1."""
    us = tuple(_fresh(f"_u{n}_{i}", used) for i in range(len(attach)))
    vertex = abelian_vertex(f"blk{n}", Alphabet(us + block.letters))
    edge = EdgeGroup(f"e{n}", len(attach), (vertex.label, tuple(letter(u) for u in us)),
                     (below, attach))
    ts = [letter(t) for t in block.letters]
    relators = tuple(reduce_word(commutator(w, t)) for w in attach for t in ts) + tuple(
        reduce_word(commutator(x, y)) for x, y in itertools.combinations(ts, 2))
    return vertex, [edge], block.letters, relators, dict.fromkeys(block.letters, ())


# ---------------------------------------------------------------------------
# Residual-freeness witness search
# ---------------------------------------------------------------------------


class _WitnessFamily:
    """Parametrized homomorphisms tower -> free group.

    Per torus block letter: t -> attach[0]^N.  Per Q block handle: the twist
    b -> b a^N, then the twist a -> a b^N; both fix [a, b], so they fix
    every boundary word.  Height 0: free summands map by identity,
    abelian summands to powers of one fresh letter, closed surfaces by
    twists b_h -> b_h a_h^N and then handle-pair folding: handles 2i-1
    and 2i go to a_{2i-1} -> x, b_{2i-1} -> y, a_{2i} -> y, b_{2i} -> x,
    so the relator goes to [x,y][y,x] = 1 while [a1,b1] stays alive; an
    odd genus's last handle goes to a_g -> z, b_g -> 1.

    `_build` plans the family once per tower.  `member` builds a member
    bottom-up as `GroupHom`'s signed-letter table, applying each stage's
    own words (a torus block's attaching word, a Q block's retraction
    images) to the table below by `apply_table`, the one kernel of every
    map to a free group; a search attempt applies it to the searched words
    only, and builds no `GroupHom`.  The family keeps the tower's alphabet
    and these plans, not the tower, so a tower that caches its family
    forms no reference cycle.

    A member is trusted only after every relator of the tower maps to the
    empty word: `WitnessCertificate.recheck` checks the member a search
    found, and the tower checks `free_map` (every parameter 1) and the
    `_checked_maps` once each.  Only this module uses the family; the
    composite vertices it builds apply the checked members.
    """

    def __init__(self, tower: Tower):
        self.source = tower.alphabet()
        self.slots: list[str] = []  # human-readable parameter descriptions
        self._build(tower)

    def _build(self, t: Tower):
        # slots are listed in the order parameters are read: stages from
        # the top down, then the summands
        # (first slot, stage, new letters) per stage, from the bottom up
        self.stage_plan: list[tuple[int, Stage, tuple[str, ...]]] = []
        for i in range(t.height, 0, -1):
            s = t.stages[i]
            b = s.block
            new = t.alphabet(i).generators[len(t.alphabet(i - 1)):]
            self.stage_plan.insert(0, (len(self.slots), s, new))
            if isinstance(b, BlockT):
                for lt in b.letters:
                    self.slots.append(f"stage {i}: {lt} -> ({format_word(b.attach[0])})^N")
            elif isinstance(b, BlockQ):
                for h in range(b.surface.genus):
                    a = b.surface.generators[2 * h]
                    bgen = b.surface.generators[2 * h + 1]
                    self.slots.append(f"stage {i}: twist {bgen} -> {bgen} {a}^N")
                    self.slots.append(f"stage {i}: twist {a} -> {a} {bgen}^N")
        self.summand_slot = len(self.slots)
        # height-0 resolution: the images of the letters no parameter
        # moves, and per summand slot (letter, w, x) for the image w x^N
        target_gens: list[str] = []
        self.fixed: dict[str, Word] = {}
        self.moved: list[tuple[str, Word, Word]] = []
        used: set[str] = set()
        for v in t.summands:
            gens = v.alphabet.generators
            if v.kind == "free":
                names = [_fresh(g, used) for g in gens]
                self.fixed.update((g, letter(x)) for g, x in zip(gens, names))
            elif v.kind == "abelian":
                names = [_fresh("f", used)]
                for g in gens:
                    self.slots.append(f"summand {v.label}: {g} -> {names[0]}^N")
                    self.moved.append((g, (), letter(names[0])))
            else:
                # a closed surface, twisted and folded: a_h -> x_h and b_h ->
                # x_(h^1) x_h^N, with x_(h^1) = 1 for an odd genus's last handle
                names = [_fresh(gens[2 * h], used) for h in range(v.surface.genus)]
                for h, x in enumerate(names):
                    a, bgen = gens[2 * h], gens[2 * h + 1]
                    self.slots.append(f"summand {v.label}: twist {bgen} -> {bgen} {a}^N")
                    self.fixed[a] = letter(x)
                    partner = letter(names[h ^ 1]) if h ^ 1 < len(names) else ()
                    self.moved.append((bgen, partner, letter(x)))
            target_gens.extend(names)
        self.target = Alphabet(tuple(target_gens))
        self.fixed_table: LetterTable = {}
        for g, w in self.fixed.items():
            compile_image(self.fixed_table, g, w)

    @property
    def dimension(self) -> int:
        return len(self.slots)

    def member(self, params: tuple[int, ...]) -> tuple[dict[str, Word], LetterTable]:
        """The reduced images of every tower generator under the member
        with these parameters, and their signed-letter table: the height-0
        resolution first, then stage by stage the images of that stage's
        new letters."""
        img, table = dict(self.fixed), dict(self.fixed_table)
        for (g, w, x), n in zip(self.moved, params[self.summand_slot:]):
            img[g] = w + power(x, n)
            compile_image(table, g, img[g])
        for first, s, new in self.stage_plan:
            b = s.block
            if isinstance(b, BlockT):
                # u = c r c^-1, r cyclically reduced: u^N = c r^N c^-1 is reduced
                r, c = cyclic_core(apply_table(table, b.attach[0]))
                for lt, n in zip(b.letters, params[first:]):
                    img[lt] = c + power(r, n) + invert(c) if n else ()
            else:
                # the twists b_h -> b_h a_h^N and then a_h -> a_h b_h^M, then
                # the retraction; its stable letters map to 1
                for g in new:
                    img[g] = apply_table(table, s.retraction.images[g])
                gens = b.surface.generators
                for h in range(b.surface.genus):
                    a, bg = gens[2 * h], gens[2 * h + 1]
                    img[bg] = reduce_word(img[bg] + power(img[a], params[first + 2 * h]))
                    img[a] = reduce_word(img[a] + power(img[bg], params[first + 2 * h + 1]))
            for g in new:
                compile_image(table, g, img[g])
        return img, table

    def images(self, params: tuple[int, ...]) -> dict[str, Word]:
        return self.member(params)[0]

    def hom(self, params: tuple[int, ...]) -> GroupHom:
        return GroupHom(self.source, self.target, self.images(params))


def _shell_vector(dim: int, r: int, index: int) -> tuple[int, ...]:
    """The vector of max-norm r >= 1 with the given index in [0, shell
    size): vectors are ranked by the first coordinate j at +-r (the j
    before it lie in (-r, r), the rest in [-r, r]), then by its sign,
    then by the remaining coordinates in mixed radix."""
    inner, outer = 2 * r - 1, 2 * r + 1
    block = 2 * outer ** (dim - 1)  # vectors whose first +-r is at j
    j = 0
    while index >= block:
        index -= block
        block = block // outer * inner
        j += 1
    tail = []
    for _ in range(dim - 1 - j):
        index, d = divmod(index, outer)
        tail.append(d - r)
    index, sign = divmod(index, 2)
    head = []
    for _ in range(j):
        index, d = divmod(index, inner)
        head.append(d - r + 1)
    return tuple(head[::-1]) + ((r if sign else -r),) + tuple(tail[::-1])


def _parameter_shells(dim: int, max_norm: int, seed: int):
    """Integer vectors of max-norm <= max_norm, by increasing max-norm r.

    Shell r is visited in a seeded permutation i -> (a i + b) mod size of
    its index range, with gcd(a, size) = 1, and each index is unranked to
    its vector: every vector appears exactly once, and the state is O(dim)
    however large the shell.
    """
    if max_norm < 0:
        return
    yield (0,) * dim
    if dim == 0:
        return
    rng = random.Random(seed)
    for r in range(1, max_norm + 1):
        size = (2 * r + 1) ** dim - (2 * r - 1) ** dim
        a = rng.randrange(1, size)
        while math.gcd(a, size) != 1:
            a = rng.randrange(1, size)
        b = rng.randrange(size)
        for i in range(size):
            yield _shell_vector(dim, r, (a * i + b) % size)


def find_rf_witness(
    tower: Tower, words: list[Word], budget: int, seed: int = 0, max_attempts: int = 20000,
) -> WitnessCertificate:
    """Search the parametrized family for a homomorphism to a free group
    that is injective on the given finite word set."""
    alph = tower.alphabet()
    relators = tower.presentation().relators
    W = [reduce_word(w, alph) for w in words]
    family = tower._witness_family
    trace: list = []

    # group words into provable-equality classes so that equal elements are
    # allowed equal images; words with different keys are distinct
    keys = [tower.element_key(w) for w in W]
    classes: list[int] = list(range(len(W)))
    for i in range(len(W)):
        for j in range(i + 1, len(W)):
            if classes[j] != j or keys[i] != keys[j]:
                continue
            if W[i] == W[j] or tower.word_problem(concat(W[i], invert(W[j]))) == TRIVIAL:
                classes[j] = classes[i]
    one = tower.element_key(())
    trivial_class = next(
        (classes[i] for i, w in enumerate(W)
         if keys[i] == one and tower.word_problem(w) == TRIVIAL), None)

    # a word is formatted when it first collides, and once per search
    names: dict[int, str] = {}
    attempts = 0
    for params in _parameter_shells(family.dimension, budget, seed):
        attempts += 1
        if attempts > max_attempts:
            break
        member, table = family.member(params)
        images: list[Word] = []
        collision = None
        seen: dict[Word, int] = {}
        for i, w in enumerate(W):
            img = apply_table(table, w)
            images.append(img)
            if trivial_class is not None and classes[i] == trivial_class:
                continue
            if not img:
                collision = (i, i)
                break
            first = seen.setdefault(img, i)
            if classes[first] != classes[i]:
                collision = (first, i)
                break
        if collision is None:
            trace.append((params, "valid"))
            hom = GroupHom(alph, family.target, member)
            return WitnessCertificate(family.target, hom, relators, W, images, "valid",
                                      "; ".join(family.slots), trace, seed, budget, classes)
        for i in collision:
            if i not in names:
                names[i] = format_word(W[i])
        trace.append((params, f"collision {names[collision[0]]} ~ {names[collision[1]]}"))
    return WitnessCertificate(family.target, None, relators, W, [], "failed",
                              "; ".join(family.slots), trace, seed, budget, classes)
