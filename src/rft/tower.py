"""Residually free towers: height-0 wedges plus A/Q/T building blocks.

A tower keeps, per stage, a presentation, the one-edge splitting used by
the word problem, the retraction to the previous stage, and an
obligation ledger for every validity check that could not be settled
exactly.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Optional

from . import graphgroups as gg
from .graphgroups import (
    GraphOfGroups,
    EdgeGroup,
    NONTRIVIAL,
    Presentation,
    TRIVIAL,
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
    SurfacePresentation,
    Word,
    abelianize,
    commutator,
    concat,
    format_word,
    invert,
    is_proper_power,
    letter,
    power,
    reduce_word,
)


class BlockError(ValueError):
    """A block failed a validity obligation at attach time."""


@dataclass(frozen=True)
class BlockA:
    """Abelian block: torus of rank `rank` glued along a tube to `attach`."""

    attach: Word
    rank: int
    letters: tuple[str, ...]

    def __post_init__(self):
        if self.rank < 2:
            raise BlockError("block A needs torus rank >= 2")
        if len(self.letters) != self.rank - 1:
            raise BlockError("block A needs rank-1 new letters")

    @property
    def attaching(self) -> tuple[Word, ...]:
        """The attaching tuple: an A block is the k = 1 torus extension."""
        return (self.attach,)


@dataclass(frozen=True)
class BlockQ:
    """Quadratic block: hyperbolic surface with boundary glued along tubes."""

    surface: SurfacePresentation
    boundary_attach: tuple[Word, ...]
    retraction: dict[str, Word]

    def __post_init__(self):
        s = self.surface
        if s.closed:
            raise BlockError("block Q needs a surface with boundary")
        if not (s.euler_characteristic <= -2 or (s.genus, s.punctures) == (1, 1)):
            raise BlockError("block Q surface must have chi <= -2 or be a punctured torus")
        if len(self.boundary_attach) != s.punctures:
            raise BlockError("every boundary circle needs an attaching word")
        for g in s.generators:
            if g not in self.retraction:
                raise BlockError(f"retraction image missing for surface generator {g!r}")


@dataclass(frozen=True)
class BlockT:
    """Torus block: extend an existing rank-k lattice to rank `rank`."""

    attach: tuple[Word, ...]
    rank: int
    letters: tuple[str, ...]

    def __post_init__(self):
        k = len(self.attach)
        if not (1 <= k < self.rank):
            raise BlockError("block T needs 1 <= k < l")
        if len(self.letters) != self.rank - k:
            raise BlockError("block T needs rank-k new letters")

    @property
    def attaching(self) -> tuple[Word, ...]:
        return self.attach


Block = BlockA | BlockQ | BlockT


@dataclass
class Obligation:
    name: str
    status: str  # "verified" | "refuted" | "budget-limited" | "assumed"
    detail: str = ""


@dataclass
class LatticeRecord:
    """A rank >= 2 free-abelian lattice created during construction."""

    stage: int
    generators: tuple[Word, ...]
    origin: str  # "summand" | "A" | "T"
    superseded: bool = False


@dataclass
class Stage:
    presentation: Presentation
    graph: GraphOfGroups
    retraction: Optional[GroupHom]
    block: Optional[Block]
    obligations: list[Obligation] = field(default_factory=list)


@dataclass
class WitnessCertificate:
    target: Alphabet
    hom: Optional[GroupHom]
    relators: tuple[Word, ...]  # the tower's relators; hom must kill each one
    words: list[Word]
    images: list[Word]
    verdict: str  # "valid" | "failed"
    family: str
    trace: list
    seed: int
    budget: int

    def recheck(self) -> bool:
        """Re-verify validity by pure word operations: every relator maps
        to the empty word, so hom is a homomorphism to the free group, and
        the images are pairwise distinct unless the words are literally
        equal."""
        if self.hom is None:
            return False
        if any(self.hom.apply(r) for r in self.relators):
            return False
        seen: dict[Word, Word] = {}
        for w, img in zip(self.words, self.images):
            if self.hom.apply(w) != img:
                return False
            if img in seen and seen[img] != reduce_word(w):
                return False
            seen.setdefault(img, reduce_word(w))
        return True


class Tower:
    """Immutable after construction; attach_block returns a new value."""

    def __init__(self, summands: tuple[VertexGroup, ...], stages: list[Stage]):
        self.summands = summands
        self.stages = stages

    # -- basic views -------------------------------------------------------

    @property
    def height(self) -> int:
        return len(self.stages) - 1

    def presentation(self, stage: Optional[int] = None) -> Presentation:
        return self.stages[self.height if stage is None else stage].presentation

    def alphabet(self, stage: Optional[int] = None) -> Alphabet:
        return self.presentation(stage).alphabet

    def obligations(self) -> list[Obligation]:
        return [ob for s in self.stages for ob in s.obligations]

    def lattice_records(self) -> list[LatticeRecord]:
        records: list[LatticeRecord] = []
        for i, s in enumerate(self.stages):
            if i == 0:
                for v in self.summands:
                    if v.kind == "abelian" and len(v.alphabet) >= 2:
                        records.append(
                            LatticeRecord(0, tuple(letter(g) for g in v.alphabet), "summand")
                        )
                continue
            b = s.block
            if isinstance(b, (BlockA, BlockT)):
                gens = tuple(reduce_word(w) for w in b.attaching) + tuple(
                    letter(t) for t in b.letters
                )
                records.append(LatticeRecord(i, gens, "A" if isinstance(b, BlockA) else "T"))
                # a block extending an earlier lattice supersedes it
                for r in records[:-1]:
                    if not r.superseded and set(r.generators) <= set(b.attaching):
                        r.superseded = True
        return records

    # -- word problem ------------------------------------------------------

    def word_problem(self, w: Word, budget: int = 8) -> str:
        return self._wp_at(self.height, reduce_word(w, self.alphabet()), budget)

    def _wp_at(self, stage: int, w: Word, budget: int) -> str:
        w = reduce_word(w, self.alphabet(stage))
        if not w:
            return TRIVIAL
        # fast path: a nontrivial retraction image at the base is a proof
        if stage > 0:
            img = self._retract_to_base(stage, w)
            if self._wp_at(0, img, budget) == NONTRIVIAL:
                return NONTRIVIAL
        return gg.word_problem(self.stages[stage].graph, w, budget)

    def _retract_to_base(self, stage: int, w: Word) -> Word:
        for k in range(stage, 0, -1):
            w = self.stages[k].retraction.apply(w)
        return w

    def retraction_to_base(self) -> GroupHom:
        hom = GroupHom.identity(self.alphabet())
        for k in range(self.height, 0, -1):
            hom = hom.then(self.stages[k].retraction)
        return hom

    def strategy(self, stage: Optional[int] = None):
        """Word-problem strategy callable for the given stage."""
        n = self.height if stage is None else stage
        return lambda w, budget: self._wp_at(n, w, budget)


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


def _prev_vertex(tower: Tower, label: str) -> VertexGroup:
    """The previous stage packaged as a single vertex group.

    When the previous stage is a single plain vertex (free, abelian,
    surface) it is cloned so that membership stays exact; otherwise a
    composite vertex delegating to the stage's word-problem strategy.
    """
    pres = tower.presentation()
    g = tower.stages[-1].graph
    if not pres.relators:
        return free_vertex(label, pres.alphabet)
    if len(g.vertices) == 1 and not g.edges:
        v = next(iter(g.vertices.values()))
        return VertexGroup(label, v.kind, v.alphabet, surface=v.surface,
                           relators=v.relators, strategy=v.strategy)
    return composite_vertex(label, pres.alphabet, pres.relators, tower.strategy())


def _check_maximal_cyclic(tower: Tower, w: Word, budget: int) -> Obligation:
    """Attaching-word maximality: not a proper power, not conjugate into a
    torus lattice.  Exact on free/surface loci, budget-limited elsewhere."""
    pres = tower.presentation()
    free_locus = not pres.relators
    g = tower.stages[-1].graph
    surface_locus = (
        len(g.vertices) == 1
        and not g.edges
        and next(iter(g.vertices.values())).kind == "surface"
    )
    if free_locus or surface_locus:
        probe = w
        if surface_locus:
            probe = gg.VertexGroup.normalize(next(iter(g.vertices.values())), w)
        if is_proper_power(probe) is not None:
            root, exp = is_proper_power(probe)
            return Obligation(
                "attach-maximal", "refuted",
                f"attaching word is a proper power: ({format_word(root)})^{exp}",
            )
        if free_locus:
            return Obligation("attach-maximal", "verified", "free locus, not a proper power")
        return Obligation("attach-maximal", "verified",
                          "surface locus, Dehn-normalized word is not a proper power")
    # conjugacy into a torus lattice: abelianization necessary condition
    vec = abelianize(w, pres.alphabet)
    rel_cols = pres.relator_columns()
    for rec in tower.lattice_records():
        if rec.superseded:
            continue
        cols = [abelianize(g_, pres.alphabet) for g_ in rec.generators]
        if solve_int_linear(cols + rel_cols, vec) is not None:
            return Obligation(
                "attach-maximal", "budget-limited",
                "abelianization is consistent with a torus lattice; maximality unresolved",
            )
    return Obligation(
        "attach-maximal", "budget-limited",
        "composite locus: proper-power freeness not decided exactly",
    )


def attach_block(tower: Tower, block: Block, budget: int = 8, assume: bool = False) -> Tower:
    """Attach one A/Q/T block; validity obligations are checked here.

    A failed obligation rejects the block naming the check; an Unknown
    obligation is accepted only with assume=True and recorded.
    """
    if isinstance(block, BlockQ):
        return _attach_q(tower, block, budget, assume)
    if isinstance(block, (BlockA, BlockT)):
        return _attach_t(tower, block, budget, assume)
    raise BlockError(f"unknown block type {type(block).__name__}")


def _require(obligations: list[Obligation], ob: Obligation, assume: bool):
    if ob.status == "refuted":
        raise BlockError(f"{ob.name}: {ob.detail}")
    if ob.status == "budget-limited":
        if not assume:
            raise BlockError(
                f"{ob.name} could not be verified ({ob.detail}); pass assume=True to accept"
            )
        ob.status = "assumed"
    obligations.append(ob)


def _attach_q(tower: Tower, block: BlockQ, budget: int, assume: bool) -> Tower:
    n = len(tower.stages)
    pres = tower.presentation()
    obligations: list[Obligation] = []
    surf = block.surface
    used = set(pres.alphabet.generators)
    for g in surf.generators:
        if g in used:
            raise BlockError(f"surface generator {g!r} collides with an existing generator")
        used.add(g)

    attach = [reduce_word(w, pres.alphabet) for w in block.boundary_attach]
    for i, w in enumerate(attach):
        verdict = tower.word_problem(w, budget)
        if verdict == TRIVIAL:
            raise BlockError(f"attach-nontrivial: boundary {i + 1} attaching word is trivial")
        _require(obligations,
                 Obligation("attach-nontrivial",
                            "verified" if verdict == NONTRIVIAL else "budget-limited",
                            f"boundary {i + 1} verdict {verdict}"), assume)

    v1 = _prev_vertex(tower, f"st{n - 1}")
    v2 = free_vertex(f"blk{n}", surf.alphabet())
    boundaries = surf.boundary_words()
    stable = tuple(_fresh(f"s{n}_{i}", used) for i in range(1, surf.punctures))
    edges = [
        EdgeGroup(f"e{n}_0", 1, (v2.label, (boundaries[0],)), (v1.label, (attach[0],)))
    ]
    for i in range(1, surf.punctures):
        edges.append(
            EdgeGroup(f"e{n}_{i}", 1, (v2.label, (boundaries[i],)),
                      (v1.label, (attach[i],)), stable_letter=stable[i - 1])
        )
    graph = GraphOfGroups([v1, v2], edges, v1.label)

    new_alph = Alphabet(pres.alphabet.generators + surf.generators + stable)
    relators = list(pres.relators)
    relators.append(reduce_word(concat(boundaries[0], invert(attach[0]))))
    for i in range(1, surf.punctures):
        t = letter(stable[i - 1])
        relators.append(reduce_word(concat(t, boundaries[i], invert(t), invert(attach[i]))))
    new_pres = Presentation(new_alph, tuple(relators))

    images = {g: letter(g) for g in pres.alphabet.generators}
    for g in surf.generators:
        images[g] = reduce_word(block.retraction[g], pres.alphabet)
    for t in stable:
        images[t] = ()
    retraction = GroupHom(new_alph, pres.alphabet, images)

    # retraction homomorphism check: every new relator dies one stage down
    for r in new_pres.relators[len(pres.relators):]:
        verdict = tower.word_problem(retraction.apply(r), budget)
        if verdict == NONTRIVIAL:
            raise BlockError(
                f"retraction-homomorphism: relator {format_word(r)} maps to a "
                f"nontrivial word"
            )
        _require(obligations,
                 Obligation("retraction-homomorphism",
                            "verified" if verdict == TRIVIAL else "budget-limited",
                            f"relator {format_word(r)}"), assume)

    # nonabelian image: some pair of surface generators has noncommuting images
    pair = None
    for x, y in itertools.combinations(surf.generators, 2):
        c = commutator(retraction.apply(letter(x)), retraction.apply(letter(y)))
        if tower.word_problem(c, budget) == NONTRIVIAL:
            pair = (x, y)
            break
    if pair is None:
        _require(obligations,
                 Obligation("retraction-nonabelian", "refuted" if not assume else "budget-limited",
                            "no surface generator pair with noncommuting images found"),
                 assume)
    else:
        obligations.append(Obligation("retraction-nonabelian", "verified",
                                      f"witness pair {pair[0]}, {pair[1]}"))

    stage = Stage(new_pres, graph, retraction, block, obligations)
    return Tower(tower.summands, tower.stages + [stage])


def _attach_t(tower: Tower, block: BlockA | BlockT, budget: int, assume: bool) -> Tower:
    """Torus extension along the attaching tuple; an A block is the k = 1 case."""
    n = len(tower.stages)
    pres = tower.presentation()
    attach = tuple(reduce_word(w, pres.alphabet) for w in block.attaching)
    obligations: list[Obligation] = []
    k = len(attach)

    if k == 1:
        verdict = tower.word_problem(attach[0], budget)
        if verdict == TRIVIAL:
            raise BlockError("attach-nontrivial: attaching word is trivial")
        _require(obligations,
                 Obligation("attach-nontrivial",
                            "verified" if verdict == NONTRIVIAL else "budget-limited",
                            f"word problem verdict {verdict}"), assume)
        _require(obligations, _check_maximal_cyclic(tower, attach[0], budget), assume)
    else:
        for u, v in itertools.combinations(attach, 2):
            verdict = tower.word_problem(commutator(u, v), budget)
            if verdict == NONTRIVIAL:
                raise BlockError("attach-lattice: attaching tuple does not commute")
            _require(obligations,
                     Obligation("attach-lattice-commutes",
                                "verified" if verdict == TRIVIAL else "budget-limited",
                                f"[{format_word(u)}, {format_word(v)}]"), assume)
        match = any(
            not rec.superseded and set(rec.generators) == set(attach)
            for rec in tower.lattice_records()
        )
        if match:
            obligations.append(Obligation("attach-lattice", "verified",
                                          "attaching tuple generates an existing torus lattice"))
        else:
            _require(obligations,
                     Obligation("attach-lattice", "budget-limited",
                                "attaching tuple is not the generator tuple of a recorded "
                                "torus lattice"), assume)

    used = set(pres.alphabet.generators)
    for t in block.letters:
        if t in used:
            raise BlockError(f"new letter {t!r} collides with an existing generator")
        used.add(t)
    us = tuple(_fresh(f"_u{n}_{i}", used) for i in range(k))

    v1 = _prev_vertex(tower, f"st{n - 1}")
    v2 = abelian_vertex(f"blk{n}", Alphabet(us + block.letters))
    edge = EdgeGroup(f"e{n}", k, (v2.label, tuple(letter(u) for u in us)),
                     (v1.label, attach))
    graph = GraphOfGroups([v1, v2], [edge], v1.label)

    new_alph = Alphabet(pres.alphabet.generators + block.letters)
    relators = list(pres.relators)
    ts = [letter(t) for t in block.letters]
    for w in attach:
        for t in ts:
            relators.append(reduce_word(commutator(w, t)))
    for i in range(len(ts)):
        for j in range(i + 1, len(ts)):
            relators.append(reduce_word(commutator(ts[i], ts[j])))
    retraction = GroupHom(
        new_alph, pres.alphabet,
        {g: letter(g) for g in pres.alphabet.generators} | {t: () for t in block.letters},
    )
    stage = Stage(Presentation(new_alph, tuple(relators)), graph, retraction, block, obligations)
    return Tower(tower.summands, tower.stages + [stage])


# ---------------------------------------------------------------------------
# Residual-freeness witness search
# ---------------------------------------------------------------------------


class _WitnessFamily:
    """Parametrized homomorphisms tower -> free group.

    Per A/T block letter: t -> attach^N.  Per Q block handle: a twist
    power along the a-curve.  Height 0: free summands map by identity,
    abelian summands to powers of one fresh letter, closed surfaces by
    handle-killing after twist powers.
    """

    def __init__(self, tower: Tower):
        self.tower = tower
        self.slots: list[str] = []  # human-readable parameter descriptions
        self._build()

    def _build(self):
        t = self.tower
        for i, s in enumerate(t.stages[1:], start=1):
            b = s.block
            if isinstance(b, (BlockA, BlockT)):
                for lt in b.letters:
                    self.slots.append(f"stage {i}: {lt} -> ({format_word(b.attaching[0])})^N")
            elif isinstance(b, BlockQ):
                for h in range(b.surface.genus):
                    a = b.surface.generators[2 * h]
                    bgen = b.surface.generators[2 * h + 1]
                    self.slots.append(f"stage {i}: twist {bgen} -> {bgen} {a}^N")
        # height-0 resolution slots
        target_gens: list[str] = []
        self.summand_plan: list[tuple[str, VertexGroup, list[str]]] = []
        used: set[str] = set()
        for v in self.tower.summands:
            if v.kind == "free":
                for g in v.alphabet:
                    target_gens.append(_fresh(g, used))
                self.summand_plan.append(("free", v, target_gens[-len(v.alphabet):]))
            elif v.kind == "abelian":
                f = _fresh("f", used)
                target_gens.append(f)
                for g in v.alphabet:
                    self.slots.append(f"summand {v.label}: {g} -> {f}^N")
                self.summand_plan.append(("abelian", v, [f]))
            else:  # closed surface
                names = []
                for h in range(v.surface.genus):
                    names.append(_fresh(v.surface.generators[2 * h], used))
                for h in range(v.surface.genus):
                    a = v.surface.generators[2 * h]
                    bgen = v.surface.generators[2 * h + 1]
                    self.slots.append(f"summand {v.label}: twist {bgen} -> {bgen} {a}^N")
                self.slots.append(f"summand {v.label}: a1 -> x1^N")
                self.slots.append(f"summand {v.label}: b1 -> x1^N")
                target_gens.extend(names)
                self.summand_plan.append(("surface", v, names))
        self.target = Alphabet(tuple(target_gens))

    @property
    def dimension(self) -> int:
        return len(self.slots)

    def hom(self, params: tuple[int, ...]) -> GroupHom:
        t = self.tower
        it = iter(params)
        # stage homs, top down to stage 0
        hom = GroupHom.identity(t.alphabet())
        for i in range(t.height, 0, -1):
            s = t.stages[i]
            b = s.block
            prev_alph = t.alphabet(i - 1)
            images = {g: letter(g) for g in prev_alph.generators}
            stage_alph = t.alphabet(i)
            stage_images = {g: letter(g) for g in stage_alph.generators}
            if isinstance(b, (BlockA, BlockT)):
                attach = reduce_word(b.attaching[0])
                ns = [next(it) for _ in b.letters]
                stage_map = {g: letter(g) for g in prev_alph.generators}
                for lt, N in zip(b.letters, ns):
                    stage_map[lt] = power(attach, N)
                stage_hom = GroupHom(stage_alph, prev_alph, stage_map)
            else:
                ns = [next(it) for _ in range(b.surface.genus)]
                twist = dict(stage_images)
                for h, N in enumerate(ns):
                    a = b.surface.generators[2 * h]
                    bg = b.surface.generators[2 * h + 1]
                    twist[bg] = reduce_word(concat(letter(bg), power(letter(a), N)))
                twist_hom = GroupHom(stage_alph, stage_alph, twist)
                stage_hom = twist_hom.then(s.retraction)
            hom = hom.then(stage_hom)
        # height-0 resolution
        res_images: dict[str, Word] = {}
        for kind, v, names in self.summand_plan:
            if kind == "free":
                for g, tgt in zip(v.alphabet.generators, names):
                    res_images[g] = letter(tgt)
            elif kind == "abelian":
                f = names[0]
                for g in v.alphabet:
                    res_images[g] = power(letter(f), next(it))
            else:
                surf = v.surface
                twist = {g: letter(g) for g in surf.generators}
                for h in range(surf.genus):
                    a = surf.generators[2 * h]
                    bg = surf.generators[2 * h + 1]
                    twist[bg] = reduce_word(concat(letter(bg), power(letter(a), next(it))))
                kill: dict[str, Word] = {}
                p, q = next(it), next(it)
                for h in range(surf.genus):
                    a = surf.generators[2 * h]
                    bg = surf.generators[2 * h + 1]
                    if h == 0:
                        kill[a] = power(letter(names[0]), p)
                        kill[bg] = power(letter(names[0]), q)
                    else:
                        kill[a] = letter(names[h])
                        kill[bg] = ()
                inner = GroupHom(surf.alphabet(), surf.alphabet(), twist)
                outer = GroupHom(surf.alphabet(), self.target, kill)
                comp = inner.then(outer)
                for g in surf.generators:
                    res_images[g] = comp.images[g]
        resolution = GroupHom(self.tower.alphabet(0), self.target, res_images)
        return hom.then(resolution)


def _parameter_shells(dim: int, max_norm: int, seed: int):
    """Integer vectors ordered by max-norm, lexicographic inside a shell,
    then deterministically shuffled with the seed."""
    rng = random.Random(seed)
    for r in range(max_norm + 1):
        shell = [
            v for v in itertools.product(range(-r, r + 1), repeat=dim)
            if (max(map(abs, v)) if v else 0) == r
        ]
        rng.shuffle(shell)
        for v in sorted(shell) if r == 0 else shell:
            yield v


def find_rf_witness(
    tower: Tower, words: list[Word], budget: int, seed: int = 0, wp_budget: int = 8,
    max_attempts: int = 20000,
) -> WitnessCertificate:
    """Search the parametrized family for a homomorphism to a free group
    that is injective on the given finite word set."""
    alph = tower.alphabet()
    relators = tower.presentation().relators
    W = [reduce_word(w, alph) for w in words]
    family = _WitnessFamily(tower)
    trace: list = []

    # group words into provable-equality classes so that equal elements are
    # allowed equal images
    classes: list[int] = list(range(len(W)))
    for i in range(len(W)):
        for j in range(i + 1, len(W)):
            if classes[j] != j:
                continue
            if W[i] == W[j] or tower.word_problem(
                concat(W[i], invert(W[j])), wp_budget
            ) == TRIVIAL:
                classes[j] = classes[i]
    trivial_class = next(
        (classes[i] for i, w in enumerate(W)
         if tower.word_problem(w, wp_budget) == TRIVIAL), None)

    attempts = 0
    for params in _parameter_shells(family.dimension, budget, seed):
        attempts += 1
        if attempts > max_attempts:
            break
        hom = family.hom(params)
        images = [hom.apply(w) for w in W]
        collision = None
        seen: dict[Word, int] = {}
        for i, img in enumerate(images):
            if trivial_class is not None and classes[i] == trivial_class:
                continue
            if classes[i] != trivial_class and not img:
                collision = (i, i)
                break
            if img in seen and classes[seen[img]] != classes[i]:
                collision = (seen[img], i)
                break
            seen.setdefault(img, i)
        if collision is None:
            trace.append((params, "valid"))
            return WitnessCertificate(family.target, hom, relators, W, images, "valid",
                                      "; ".join(family.slots), trace, seed, budget)
        trace.append((params, f"collision {format_word(W[collision[0]])} ~ "
                              f"{format_word(W[collision[1]])}"))
    return WitnessCertificate(family.target, None, relators, W, [], "failed",
                              "; ".join(family.slots), trace, seed, budget)
