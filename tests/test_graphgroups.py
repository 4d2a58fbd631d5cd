import functools
import itertools
import json
import random
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rft import graphgroups, intlinalg
from rft.cli import build_tower, parse_splitting, parse_tower_dsl, run_command
from rft.graphgroups import (
    EdgeGroup,
    GraphError,
    InconsistencyError,
    GraphOfGroups,
    MEMBER,
    NONMEMBER,
    NONTRIVIAL,
    TRIVIAL,
    UNKNOWN,
    abelian_vertex,
    free_vertex,
    normal_form,
    subgroup_membership,
    surface_vertex,
    word_problem,
)
from rft.words import (
    AlphabetError,
    SurfacePresentation,
    Word,
    abelianize,
    alphabet,
    commutator,
    concat,
    enumerate_ball,
    format_word,
    invert,
    letter,
    parse_word,
    power,
    reduce_word,
)

AB = alphabet("a", "b")


def _amalgam():
    """<a,b> *_{[a,b]=[c,d]} <c,d>: the genus-2 surface group as a double."""
    cd = alphabet("c", "d")
    vA = free_vertex("vA", AB)
    vB = free_vertex("vB", cd)
    e = EdgeGroup("E", 1, ("vA", (parse_word("[a,b]", AB),)),
                  ("vB", (parse_word("[c,d]", cd),)))
    return GraphOfGroups([vA, vB], [e], "vA")


def _hnn_z2():
    """<a,t | t a t^-1 = a>: HNN of Z over the identity, i.e. Z^2."""
    vA = free_vertex("vA", alphabet("a"))
    e = EdgeGroup("E", 1, ("vA", (parse_word("a", alphabet("a")),)),
                  ("vA", (parse_word("a", alphabet("a")),)), stable_letter="t")
    return GraphOfGroups([vA], [e], "vA")


def test_presentation_amalgam():
    G = _amalgam()
    pres = G.presentation()
    assert pres.alphabet.generators == ("a", "b", "c", "d")
    assert [format_word(r) for r in pres.relators] == [
        "a b a^-1 b^-1 d c d^-1 c^-1"]


def test_presentation_hnn():
    G = _hnn_z2()
    pres = G.presentation()
    assert "t" in pres.alphabet
    assert [format_word(r) for r in pres.relators] == ["t a t^-1 a^-1"]


def test_amalgam_word_problem():
    G = _amalgam()
    al = G.presentation().alphabet
    assert word_problem(G, parse_word("[a,b] [d,c]", al)) == TRIVIAL
    assert word_problem(G, parse_word("a c a^-1 c^-1", al)) == NONTRIVIAL
    assert word_problem(G, parse_word("c", al)) == NONTRIVIAL
    assert word_problem(G, parse_word("a c", al)) == NONTRIVIAL
    assert word_problem(G, ()) == TRIVIAL


def test_hnn_word_problem():
    G = _hnn_z2()
    al = G.presentation().alphabet
    assert word_problem(G, parse_word("[t,a]", al)) == TRIVIAL
    assert word_problem(G, parse_word("t a t^-1", al)) == NONTRIVIAL
    assert word_problem(G, parse_word("t^2 a t^-2 a^-1", al)) == TRIVIAL


def test_free_product_word_problem():
    vA = free_vertex("vA", alphabet("a"))
    vB = abelian_vertex("vB", alphabet("x", "y"))
    e = EdgeGroup("E", 0, ("vA", ()), ("vB", ()))
    G = GraphOfGroups([vA, vB], [e], "vA")
    al = G.presentation().alphabet
    assert word_problem(G, parse_word("[x,y]", al)) == TRIVIAL
    assert word_problem(G, parse_word("[a,x]", al)) == NONTRIVIAL
    assert word_problem(G, parse_word("a x a^-1 x^-1 y y^-1", al)) == NONTRIVIAL


def test_normal_form_verdicts():
    G = _amalgam()
    al = G.presentation().alphabet
    nf = normal_form(G, parse_word("a c a^-1 c^-1", al))
    assert nf.verdict == NONTRIVIAL
    assert normal_form(G, ()).verdict == TRIVIAL


def test_duplicate_generator_rejected():
    with pytest.raises(GraphError):
        GraphOfGroups([free_vertex("u", AB), free_vertex("v", alphabet("a"))],
                      [], "u")


def test_trivial_edge_image_rejected():
    vA = free_vertex("vA", AB)
    vB = free_vertex("vB", alphabet("c"))
    with pytest.raises(GraphError):
        e = EdgeGroup("E", 1, ("vA", (parse_word("a a^-1", AB),)),
                      ("vB", (parse_word("c", alphabet("c")),)))
        GraphOfGroups([vA, vB], [e], "vA")


# -- membership dispatch -----------------------------------------------------

def test_membership_free_exact():
    V = free_vertex("v", AB)
    res = subgroup_membership(V, [parse_word("a^2", AB), parse_word("b", AB)],
                              parse_word("a^2 b", AB), 8)
    assert res.status == MEMBER
    res = subgroup_membership(V, [parse_word("a^2", AB)], parse_word("a", AB), 8)
    assert res.status == NONMEMBER
    assert res.definite


def test_membership_abelian_exact():
    V = abelian_vertex("v", alphabet("x", "y"))
    al = V.alphabet
    res = subgroup_membership(V, [parse_word("x^2", al)], parse_word("y x^2", al), 8)
    assert res.status == NONMEMBER
    res = subgroup_membership(V, [parse_word("x^2", al), parse_word("y", al)],
                              parse_word("x^2 y^3", al), 8)
    assert res.status == MEMBER


def test_membership_surface():
    V = surface_vertex("v", SurfacePresentation(2))
    al = V.alphabet
    r = V.surface.relator()
    # the relator lies in every subgroup
    res = subgroup_membership(V, [parse_word("a1", al)], r, 8)
    assert res.status == MEMBER
    res = subgroup_membership(V, [parse_word("a1", al)], parse_word("b1", al), 8)
    assert res.status == NONMEMBER


def test_empty_subgens_is_triviality():
    V = free_vertex("v", AB)
    assert subgroup_membership(V, [], (), 8).status == MEMBER
    assert subgroup_membership(V, [], parse_word("a", AB), 8).status == NONMEMBER


# -- soundness against abelianization ---------------------------------------

@settings(max_examples=60)
@given(st.sampled_from(enumerate_ball(alphabet("a", "b", "c", "d"), 3)))
def test_amalgam_verdict_respects_abelianization(w):
    G = _amalgam()
    al = G.presentation().alphabet
    v = word_problem(G, w)
    # independent oracle: the relator abelianizes to zero, so nonzero
    # abelianization forces nontriviality
    if abelianize(w, al) != (0, 0, 0, 0):
        assert v == NONTRIVIAL
    if v == TRIVIAL:
        assert abelianize(w, al) == (0, 0, 0, 0)


# -- subproblems of one tower word problem ------------------------------------

CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"
# the benchmark's known-answer oracle, which shares no code with the engine
sys.path.insert(0, str(CORPUS.parent))
import oracle as orc  # noqa: E402


@pytest.mark.parametrize("name, text, verdict", [
    ("tall", "[[b,s]^3,r]", TRIVIAL), ("tall", "[[a,t]^12,s]", TRIVIAL),
    ("closed2", "[[a1,b1]^12,t]", UNKNOWN),
], ids=["[[b,s]^3,r]-Trivial", "[[a,t]^12,s]-Trivial", "closed2-[[a1,b1]^12,t]-Unknown"])
def test_each_subproblem_is_normalized_once_per_call(monkeypatch, name, text, verdict):
    # [w^n, t] on the height-3 tower re-enters the lower stages through
    # composite vertices, yet no (graph, word, budget) is decided twice;
    # nor on closed2, where the exponent search still gives up past the
    # budget at its surface vertex
    T = build_tower(parse_tower_dsl((CORPUS / f"{name}.twr").read_text()))
    w = parse_word(text, T.alphabet())
    seen: Counter = Counter()
    real = graphgroups.normal_form

    def counting(G, w, budget=8):
        seen[(id(G), reduce_word(w), budget)] += 1
        return real(G, w, budget)

    monkeypatch.setattr(graphgroups, "normal_form", counting)
    assert T.word_problem(w) == verdict
    assert seen and max(seen.values()) == 1
    # nor in a second top-level call
    seen.clear()
    assert T.word_problem(w) == verdict
    assert seen and max(seen.values()) == 1


def test_an_inconsistent_trivial_raises_on_every_call(monkeypatch):
    G = _amalgam()
    al = G.presentation().alphabet
    assert word_problem(G, parse_word("[a,b] [d,c]", al)) == TRIVIAL

    def wrong(G, w, budget=8):
        return graphgroups.NormalForm([], TRIVIAL)

    monkeypatch.setattr(graphgroups, "normal_form", wrong)
    with pytest.raises(InconsistencyError):
        word_problem(G, parse_word("c", al))
    with pytest.raises(InconsistencyError):
        word_problem(G, parse_word("c", al))


def test_the_cross_check_factors_the_relators_once(monkeypatch):
    # <a,t | t a t^-1 = a^2>: its relator abelianizes to a^-1, so a Trivial
    # verdict on a word of nonzero exponent sum is solved against the
    # relator lattice, which the presentation factors on the first check
    A = alphabet("a")
    e = EdgeGroup("E", 1, ("vA", (parse_word("a", A),)), ("vA", (parse_word("a^2", A),)),
                  stable_letter="t")
    G = GraphOfGroups([free_vertex("vA", A)], [e], "vA")
    al = G.presentation().alphabet
    runs = []
    real = intlinalg._column_hermite
    monkeypatch.setattr(intlinalg, "_column_hermite",
                        lambda cols, m: runs.append(m) or real(cols, m))
    for text in ("t a t^-1 a^-2", "a t a t^-1 a^-3", "t a^2 t^-1 a^-4"):
        w = parse_word(text, al)
        assert any(abelianize(w, al)) and word_problem(G, w) == TRIVIAL
    assert len(runs) == 1
    assert G.presentation().relator_lattice is G.presentation().relator_lattice


# -- budgeted exponent search -------------------------------------------------


def test_exponent_shells_keep_the_sorted_order():
    # the order the search used to make by sorting the whole exponent box
    for k in (1, 2, 3):
        for budget in range(6):
            box = sorted(itertools.product(range(-budget, budget + 1), repeat=k),
                         key=lambda ks: (max(map(abs, ks)), ks))
            shells = (graphgroups._exponent_shell(k, r) for r in range(budget + 1))
            assert list(itertools.chain.from_iterable(shells)) == box


def test_exponent_search_memory_does_not_grow_with_the_budget(monkeypatch):
    # the candidate is found at max-abs 3, so a budget of 200 must not
    # build the 401^k tuples of the box; closed surfaces are the vertices
    # that still search
    T = build_tower(parse_tower_dsl((CORPUS / "closed2.twr").read_text()))
    w = parse_word("[[a1,b1]^3,t]", T.alphabet())
    assert T.word_problem(w, 8) == TRIVIAL  # builds the tower's cached maps
    shells = Counter()
    real = graphgroups._exponent_shell

    def counting(k, r):
        shells[r] += 1
        return real(k, r)

    monkeypatch.setattr(graphgroups, "_exponent_shell", counting)
    tracemalloc.start()
    try:
        assert T.word_problem(w, 200) == TRIVIAL
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert shells and max(shells) <= 3
    assert peak < 1_000_000


# -- exact membership at composite vertices -----------------------------------

# (tower, stage): the composite vertex that stands for the stage below, and
# the side of the stage's torus edge at it: tall's st1 and st2, a2's st1,
# and t2's rank-2 side ([a,b], t)
COMPOSITE_SIDES = [("tall", 2), ("tall", 3), ("a2", 2), ("t2", 2)]


@functools.lru_cache(maxsize=None)
def _composite_side(name: str, stage: int):
    """The vertex, its edge-side subgens, the tower's oracle maps to free
    groups from `bench/corpus/corpus.json`, applied by `bench/oracle.py`
    (each kills every relator of the tower, so of the stage below too),
    and the (block letter, attaching word) pairs of the stages below."""
    T = build_tower(parse_tower_dsl((CORPUS / f"{name}.twr").read_text()))
    G = T.stages[stage].graph
    V = G.vertices[f"st{stage - 1}"]
    (e,) = [e for e in G.edges if e.rank]
    subgens = list((e.left if e.left[0] == V.label else e.right)[1])
    homs = [orc.hom_from_spec(spec)
            for spec in json.loads((CORPUS / "corpus.json").read_text())["towers"][name]["homs"]]
    assert V.kind == "composite" and all(orc.kills(h, V.relators) for h in homs)
    blocks = [(t, s.block.attach[0]) for s in T.stages[1:stage] for t in s.block.letters]
    return V, subgens, homs, blocks


def _words(gens, max_size: int):
    return st.lists(st.tuples(st.sampled_from(gens), st.sampled_from((1, -1))),
                    max_size=max_size).map(tuple)


def _planted(data, subgens) -> tuple[list[int], Word]:
    ks = data.draw(st.lists(st.integers(-60, 60), min_size=len(subgens),
                            max_size=len(subgens)))
    return ks, concat(*(power(g, k) for g, k in zip(subgens, ks)))


@pytest.mark.parametrize("side", COMPOSITE_SIDES, ids="{0[0]}-{0[1]}".format)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_planted_composite_member_reads_its_own_exponents(side, data):
    # g^k times a relator conjugate, spliced in anywhere: the drawn maps
    # pin k, and the expression is exactly the planted one
    V, subgens, _, _ = _composite_side(*side)
    ks, planted = _planted(data, subgens)
    c = data.draw(_words(V.alphabet.generators, 3))
    r = power(data.draw(st.sampled_from(V.relators)), data.draw(st.sampled_from((1, -1))))
    cut = data.draw(st.integers(0, len(planted)))
    w = reduce_word(planted[:cut] + c + r + invert(c) + planted[cut:])
    res = subgroup_membership(V, subgens, w, 8)
    assert res.status == MEMBER
    assert res.expression == [(i, k) for i, k in enumerate(ks) if k]


@pytest.mark.parametrize("side", COMPOSITE_SIDES, ids="{0[0]}-{0[1]}".format)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_no_composite_membership_verdict_contradicts_the_oracle(side, data):
    # near-members: g^k with a short word spliced in, or a commutator
    # [x, t^-1 u^e] for a block letter t below and its attaching word u,
    # which the abelianization and every map t -> u^e send to 1 (the
    # tower's free map has e = 1).  A word that some oracle map sends
    # outside the image subgroup never reads member; a member's expression
    # leaves a quotient that no oracle map sees; and a splice that cancels
    # freely leaves a planted member, never a nonmember
    V, subgens, homs, blocks = _composite_side(*side)
    ks, planted = _planted(data, subgens)
    gens = V.alphabet.generators
    if data.draw(st.booleans()):
        noise = data.draw(_words(gens, 4))
    else:
        t, u = data.draw(st.sampled_from(blocks))
        x = data.draw(_words(gens, 3).filter(bool))
        noise = commutator(x, letter(t, -1) + power(u, data.draw(st.sampled_from((1, -1, 2)))))
    cut = data.draw(st.integers(0, len(planted)))
    w = reduce_word(planted[:cut] + noise + planted[cut:])
    res = subgroup_membership(V, subgens, w, 8)
    if any(not orc.FreeSubgroup([orc.apply(h, g) for g in subgens]).contains(orc.apply(h, w))
           for h in homs):
        assert res.status != MEMBER
    if res.status == MEMBER:
        q = concat(w, invert(concat(*(power(subgens[i], k) for i, k in res.expression))))
        assert not any(orc.apply(h, q) for h in homs)
    if not reduce_word(noise):
        assert res.status == MEMBER


def test_composite_membership_asks_one_candidate(monkeypatch):
    # at t2's composite vertex st1, ([a,b], t) is a rank-2 edge side whose
    # abelianization pins no exponent of [a,b], and (12, 3) lies past what
    # a search at budget 8 tries: each membership question there makes
    # one triviality call, on the candidate, and no exponent tuple is built
    stack: list = []
    questions, candidates, shells = [0], [0], []
    real_membership = graphgroups.subgroup_membership
    real_triviality = graphgroups.VertexGroup.triviality

    def membership(V, subgens, w, budget):
        questions[0] += V.kind == "composite"
        stack.append(V.kind)
        try:
            return real_membership(V, subgens, w, budget)
        finally:
            stack.pop()

    def triviality(V, w, budget):
        candidates[0] += stack[-1:] == ["composite"]
        stack.append("triviality")
        try:
            return real_triviality(V, w, budget)
        finally:
            stack.pop()

    monkeypatch.setattr(graphgroups, "subgroup_membership", membership)
    monkeypatch.setattr(graphgroups.VertexGroup, "triviality", triviality)
    monkeypatch.setattr(graphgroups, "_exponent_shell", lambda k, r: shells.append(r) or iter(()))
    code, out = run_command(["wp", str(CORPUS / "t2.twr"), "--word", "[[a,b]^12 t^3,u]"])
    assert (code, out.splitlines()[-1]) == (0, "verdict: Trivial")
    assert questions[0] and candidates == questions
    assert shells == []


@pytest.mark.parametrize("name", ["tall", "a2"])
def test_power_commutators_at_a_composite_vertex_read_trivial(name):
    # [[a,t]^n, s] is a product of n conjugates of the relator [[a,t],s],
    # decided at budget 8 far past the exponents a search at that budget
    # tries
    T = build_tower(parse_tower_dsl((CORPUS / f"{name}.twr").read_text()))
    for n in range(1, 201):
        assert T.word_problem(parse_word(f"[[a,t]^{n},s]", T.alphabet())) == TRIVIAL


def _pinch_graph(amalgam: bool) -> GraphOfGroups:
    """A = F(a,c) and B = F(b,d), joined along a = b (or, without amalgam,
    by a rank-0 tree edge), and a stable letter t at A with t a^2 t^-1 = a^2."""
    ac, bd = alphabet("a", "c"), alphabet("b", "d")
    tree = (EdgeGroup("E", 1, ("vA", (parse_word("a", ac),)), ("vB", (parse_word("b", bd),)))
            if amalgam else EdgeGroup("E", 0, ("vA", ()), ("vB", ())))
    a2 = (parse_word("a^2", ac),)
    loop = EdgeGroup("F", 1, ("vA", a2), ("vA", a2), stable_letter="t")
    return GraphOfGroups([free_vertex("vA", ac), free_vertex("vB", bd)], [tree, loop], "vA")


@pytest.mark.parametrize("amalgam, text, segment", [
    # two syllables between t and t^-1: never in a vertex group
    (True, "t c d t^-1", ["vA", "vB"]),
    # a syllable at B, which is not in <b>, so never reaches A's edge group
    (True, "t d t^-1", ["vB"]),
    # a syllable at B across a rank-0 tree edge: B meets A only in 1
    (False, "t d t^-1", ["vB"]),
])
def test_a_pinch_segment_outside_the_edge_group(monkeypatch, amalgam, text, segment):
    G = _pinch_graph(amalgam)
    assert (graphgroups._amalgam_edge(G) is not None) == amalgam
    real = graphgroups._segment_membership
    seen = []

    def spy(G, seg, vlab, images, budget):
        res = real(G, seg, vlab, images, budget)
        seen.append(([e.name for e in seg], vlab, res.status))
        return res

    monkeypatch.setattr(graphgroups, "_segment_membership", spy)
    assert word_problem(G, parse_word(text, G.alphabet)) == NONTRIVIAL
    assert seen == [(segment, "vA", NONMEMBER)]


def test_amalgam_over_three_vertices_is_refused():
    vs = [free_vertex("vA", AB), free_vertex("vB", alphabet("c")), free_vertex("vC", alphabet("d"))]
    es = [EdgeGroup("E", 1, ("vA", (parse_word("a", AB),)), ("vB", (parse_word("c", alphabet("c")),))),
          EdgeGroup("F", 0, ("vA", ()), ("vC", ()))]
    G = GraphOfGroups(vs, es, "vA")
    with pytest.raises(GraphError, match="more than two vertices"):
        normal_form(G, parse_word("a d", G.presentation().alphabet))


# -- one-pass reduction --------------------------------------------------------

@pytest.mark.parametrize("text", ["a t", "[a,t]", "[a,b]^2 t a^3 t^-2 b",
                                  "[[a,b]^3,t] a t^5 b", "b^2 [a,b] t a^-1 t^-1 [a,b]^-2"])
def test_each_syllable_membership_is_asked_once(monkeypatch, text):
    # gamma's top graph has no composite vertex, so nothing nests: every
    # membership call below comes from this one normal_form call
    G = build_tower(parse_tower_dsl((CORPUS / "gamma.twr").read_text())).stages[1].graph
    seen: Counter = Counter()
    real = graphgroups.subgroup_membership

    def counting(V, subgens, w, budget):
        seen[(V.label, tuple(subgens), reduce_word(w))] += 1
        return real(V, subgens, w, budget)

    monkeypatch.setattr(graphgroups, "subgroup_membership", counting)
    normal_form(G, parse_word(text, G.presentation().alphabet))
    assert seen and max(seen.values()) == 1


@pytest.mark.parametrize("text", ["x u x u x u", "u a u a u a", "x u x u^-1 x^-1 u x^-1 u^-1",
                                  "x u^2 x u^-2 x^-2"])
def test_a_pass_asks_each_membership_question_once(monkeypatch, text):
    # these words meet the same syllable at the same edge side more than
    # once in one pass; calls about mixed's top vertices come from that
    # one pass, the nested ones (its composite vertex's own word problems)
    # are about other vertex objects
    G = build_tower(parse_tower_dsl((CORPUS / "mixed.twr").read_text())).stages[-1].graph
    seen: Counter = Counter()
    real = graphgroups.subgroup_membership

    def counting(V, subgens, w, budget):
        if G.vertices.get(V.label) is V:
            seen[(V.label, tuple(subgens), w, budget)] += 1
        return real(V, subgens, w, budget)

    monkeypatch.setattr(graphgroups, "subgroup_membership", counting)
    normal_form(G, parse_word(text, G.alphabet))
    assert seen and max(seen.values()) == 1


def _memo_free_membership(self, side, word, budget):
    return graphgroups.subgroup_membership(
        self.G.vertices[side[0]], list(side[1]), word, budget)


def test_pass_answers_equal_a_memo_free_pass(monkeypatch):
    # reusing an answer within a pass changes no item and no verdict: the
    # same words reduced by a pass that asks every question anew
    rng = random.Random(27)
    cases = []
    for G in _reference_graphs():
        gens = G.presentation().alphabet.generators

        def word(n):
            return tuple((rng.choice(gens), rng.choice((1, -1))) for _ in range(n))

        for _ in range(25):
            g, h, k = word(rng.randint(1, 3)), word(rng.randint(1, 2)), rng.randint(1, 6)
            cases += [(G, concat(power(g, k), h, power(g, -k), invert(h)), 8),
                      (G, concat(power(concat(g, h), k), word(rng.randint(0, 2))), 8),
                      (G, word(rng.randint(1, 12)), rng.choice((2, 8)))]
    calls = Counter()
    real = graphgroups.subgroup_membership

    def counting(V, subgens, w, budget):
        calls[graphgroups._Pass.membership is _memo_free_membership] += 1
        return real(V, subgens, w, budget)

    monkeypatch.setattr(graphgroups, "subgroup_membership", counting)
    def outcomes():
        return [(nf.items, nf.verdict) for nf in (normal_form(G, w, b) for G, w, b in cases)]

    kept = outcomes()
    monkeypatch.setattr(graphgroups._Pass, "membership", _memo_free_membership)
    assert outcomes() == kept
    # the sample repeats questions within a pass
    assert calls[False] < calls[True]


PLANNED = {
    "gamma": ["[[a,b],t]", "[[a,b]^3,t]", "[a,t]", "t a t^-1 a^-1 b", "[a,b] t [b,a] t^-1"],
    "tall": ["[[b,s]^2,r]", "[[a,t],s]", "[r,a]", "[[a,b],t] [b,s]", "s r s^-1 r^-1"],
    "mixed": ["[[x,y],u]", "[x^3,u]", "[x y^2,u]", "x u x u^-1 x^-1 u", "[p,q] [a,b]^-1"],
    "closed2": ["[[a1,b1],t]", "[[a1,b1]^4,t]", "[a1,t]", "t a1 t^-1 b2",
                "[a1,b1] t [b1,a1] t^-1"],
}


def test_each_edge_side_is_factored_once(monkeypatch):
    # An abelian, surface or composite vertex factors an edge side's
    # lattice on its first question and solves every later one against
    # it; a composite side that its maps to free groups pin factors once
    # more per map drawn.  An elimination counts when subgroup_membership
    # runs it itself, not under a triviality check (a composite vertex's
    # strategy runs word problems of its own).
    towers = {name: build_tower(parse_tower_dsl((CORPUS / f"{name}.twr").read_text()))
              for name in PLANNED}
    stack: list[str] = []
    asked: set = set()
    eliminations = [0]
    real_membership = graphgroups.subgroup_membership
    real_triviality = graphgroups.VertexGroup.triviality
    real_hermite = intlinalg._column_hermite

    def membership(V, subgens, w, budget):
        if V.kind != "free" and any(subgens):
            asked.add((V, tuple(subgens)))
        stack.append("membership")
        try:
            return real_membership(V, subgens, w, budget)
        finally:
            stack.pop()

    def triviality(V, w, budget):
        stack.append("triviality")
        try:
            return real_triviality(V, w, budget)
        finally:
            stack.pop()

    def hermite(cols, m):
        eliminations[0] += stack[-1:] == ["membership"]
        return real_hermite(cols, m)

    monkeypatch.setattr(graphgroups, "subgroup_membership", membership)
    monkeypatch.setattr(graphgroups.VertexGroup, "triviality", triviality)
    monkeypatch.setattr(intlinalg, "_column_hermite", hermite)

    def verdicts():
        return {name: [T.word_problem(parse_word(text, T.alphabet()), 8)
                       for text in PLANNED[name]] for name, T in towers.items()}

    first = verdicts()
    assert {V.kind for V, _ in asked} == {"abelian", "surface", "composite"}
    drawn = sum(len(V._plans[key][2]) for V, key in asked)
    assert drawn and 0 < eliminations[0] <= len(asked) + drawn
    eliminations[0] = 0
    assert verdicts() == first
    assert eliminations[0] == 0


# Reference: the restart-until-quiet reduction this module used before the
# one-pass stack, kept to check that verdicts did not move.

def _ref_expression_word(images, expr):
    return reduce_word(concat(*(power(images[i], e) for i, e in expr)))


def _ref_normalize_items(G, items, budget):
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
            elif out and out[-1][0] == "stable" and out[-1][1] == it[1] and out[-1][2] == -it[2]:
                out.pop()
                changed = True
                continue
            out.append(it)
        if len(out) != len(items):
            changed = True
        items = out
    return items


def _ref_tree_edge_between(G, v1, v2):
    for e in G.edges:
        if e.label not in G.tree_edges:
            continue
        if e.left[0] == v1 and e.right[0] == v2:
            return e, 0
        if e.right[0] == v1 and e.left[0] == v2:
            return e, 1
    return None


def _ref_base_reduce(G, sylls, budget):
    amalgam_edges = [e for e in G.edges if e.label in G.tree_edges and e.rank >= 1]
    if amalgam_edges and len(G.vertices) > 2:
        raise GraphError("amalgams along trees with more than two vertices are not supported")
    items = _ref_normalize_items(G, [("syl", v, w) for v, w in sylls], budget)
    while True:
        converted = False
        for i, (_, vlab, word) in enumerate(items):
            neighbours = {items[j][1] for j in (i - 1, i + 1) if 0 <= j < len(items)}
            other = next(iter(neighbours - {vlab}), None)
            if other is None:
                continue
            hop = _ref_tree_edge_between(G, vlab, other)
            if hop is None or hop[0].rank == 0:
                continue
            e, side = hop
            res = subgroup_membership(G.vertices[vlab], list(e.side(side)[1]), word, budget)
            if res.status == MEMBER:
                items[i] = ("syl", other, _ref_expression_word(e.side(1 - side)[1], res.expression))
                converted = True
                break
        if not converted:
            break
        items = _ref_normalize_items(G, items, budget)
    definite = True
    for _, vlab, word in items:
        if G.vertices[vlab].triviality(word, budget) == UNKNOWN:
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


def _ref_segment_membership(G, segment, vlab, images, budget):
    red, definite = _ref_base_reduce(G, segment, budget)
    if not red:
        return MEMBER, []
    if len(red) >= 2:
        return (NONMEMBER if definite else UNKNOWN), None
    seg_v, word = red[0]
    if seg_v != vlab:
        hop = _ref_tree_edge_between(G, seg_v, vlab)
        if hop is None or hop[0].rank == 0:
            verdict = G.vertices[seg_v].triviality(word, budget)
            return {NONTRIVIAL: NONMEMBER, TRIVIAL: MEMBER}.get(verdict, UNKNOWN), []
        e, side = hop
        res = subgroup_membership(G.vertices[seg_v], list(e.side(side)[1]), word, budget)
        if res.status != MEMBER:
            return (NONMEMBER if res.status == NONMEMBER else UNKNOWN), None
        word = _ref_expression_word(e.side(1 - side)[1], res.expression)
    res = subgroup_membership(G.vertices[vlab], list(images), word, budget)
    return res.status, res.expression


def _ref_verdict(G, w, budget):
    items = G.decompose(reduce_word(w, G.presentation().alphabet))
    edge_by_stable = {G.stable_letter(e.label): e for e in G.edges if e.label not in G.tree_edges}
    while True:
        items = _ref_normalize_items(G, items, budget)
        scan_unknown = applied = False
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
            if items[j][1:] == (tname, -sign):
                e = edge_by_stable[tname]
                src, dst = (e.left, e.right) if sign == 1 else (e.right, e.left)
                segment = [(it[1], it[2]) for it in items[i + 1:j]]
                status, expr = _ref_segment_membership(G, segment, src[0], src[1], budget)
                if status == MEMBER:
                    items[i:j + 1] = [("syl", dst[0], _ref_expression_word(dst[1], expr))]
                    applied = True
                    break
                if status != NONMEMBER:
                    scan_unknown = True
            i = j
        if applied:
            continue
        if any(it[0] == "stable" for it in items):
            return UNKNOWN if scan_unknown else NONTRIVIAL
        red, definite = _ref_base_reduce(G, [(it[1], it[2]) for it in items], budget)
        if not red:
            return TRIVIAL
        if len(red) == 1:
            return G.vertices[red[0][0]].triviality(red[0][1], budget)
        return NONTRIVIAL if definite else UNKNOWN


_TWO_PUNCTURES = """tower q2 { base { free(a, b, c) } block Q {
  surface=(genus=1, punctures=2: p, q, d);
  boundary={ b1 -> "c", b2 -> "[a,b] c" };
  retract={ p -> "a", q -> "b", d -> "c" }; } }"""


@functools.cache
def _reference_graphs() -> list:
    towers = [build_tower(parse_tower_dsl(f.read_text())) for f in sorted(CORPUS.glob("*.twr"))]
    towers.append(build_tower(parse_tower_dsl(_TWO_PUNCTURES)))
    graphs = [st.graph for T in towers for st in T.stages]
    gamma = build_tower(parse_tower_dsl((CORPUS / "gamma.twr").read_text()))
    graphs.append(parse_splitting((CORPUS / "hnn.spl").read_text(), gamma)[0].L)
    return graphs


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_verdicts_match_the_restart_loop(data):
    G = data.draw(st.sampled_from(_reference_graphs()))
    pres = G.presentation()
    gens = pres.alphabet.generators

    def words(max_len):
        return st.lists(st.tuples(st.sampled_from(gens), st.sampled_from((1, -1))),
                        max_size=max_len).map(tuple)

    conj = st.tuples(words(3), st.sampled_from(pres.relators or ((),)), st.booleans()).map(
        lambda t: concat(t[0], invert(t[1]) if t[2] else t[1], invert(t[0])))
    power_commutator = st.tuples(words(3), words(2), st.integers(1, 12)).map(
        lambda t: concat(power(t[0], t[2]), t[1], power(t[0], -t[2]), invert(t[1])))
    w = data.draw(st.one_of(
        words(14),
        st.lists(conj, min_size=1, max_size=3).map(lambda ps: concat(*ps)),
        st.tuples(power_commutator, words(3)).map(lambda t: concat(*t))))
    budget = data.draw(st.sampled_from((2, 8)))
    assert normal_form(G, w, budget).verdict == _ref_verdict(G, w, budget)


def _decompose_reference(G, w):
    """`GraphOfGroups.decompose` as first written: each syllable grows by
    one letter at a time."""
    items: list = []
    for sym, sign in w:
        home = G._symbol_home.get(sym)
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


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_decompose_matches_the_letter_by_letter_reference(data):
    G = data.draw(st.sampled_from(_reference_graphs()))
    signs = st.sampled_from((1, -1))
    vertex_letters = [st.tuples(st.sampled_from(v.alphabet.generators), signs)
                      for v in G.vertices.values()]
    # a syllable: a few letters of one vertex, or a power of such a run,
    # up to a few hundred letters
    runs = st.one_of(*(st.lists(lt, min_size=1, max_size=6).map(tuple) for lt in vertex_letters))
    syllable = st.one_of(runs, st.tuples(runs, st.integers(2, 60)).map(lambda t: power(*t)))
    stables = [G.stable_letter(e.label) for e in G.edges if e.label not in G.tree_edges]
    parts = [syllable]
    if stables:
        parts.append(st.tuples(st.sampled_from(stables), signs).map(lambda lt: (lt,)))
    w = concat(*data.draw(st.lists(st.one_of(*parts), max_size=8)))
    for word in (w, reduce_word(w)):
        assert G.decompose(word) == _decompose_reference(G, word)


def test_decompose_rejects_an_undeclared_symbol():
    G = _reference_graphs()[0]
    good = next(iter(G.vertices.values())).alphabet.generators[0]
    for w in ((("zz", 1),), ((good, 1), ("zz", -1))):
        with pytest.raises(AlphabetError):
            G.decompose(w)
